"""`python -m ostrocube`: the command-line interface of cli.main."""

from .cli import main

if __name__ == "__main__":
    main()
