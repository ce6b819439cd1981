"""Expression front end: tokenize, parse, evaluate, differentiate.

Grammar (EBNF):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := number | 't' | 's' | 'pi' | 'e' | fn '(' expr ')' | '(' expr ')'

so '^' is right-associative and binds tighter than unary minus, which in
turn binds tighter than '*' and '/'. Functions are sin, cos, exp, log and
sqrt. 'pi' and 'e' are named constants. Numbers require a digit before any
decimal point ("2.5", "1e-3"; not ".5").

Evaluation accepts scalars or numpy arrays. An expression is compiled
once into a Program, one step per distinct subtree, and every evaluation
runs that program: the functions of `to_bivariate` and `to_univariate`
and `eval_expr`. The grid samplers also give `run_program` arrays the
sampler keeps, for each full-grid step to write into, and a memo that
keeps each step of one variable for the next block over the same
coordinates.
Differentiation is symbolic (product/quotient/chain rules), with
constant-folding simplification applied to each node as it is built;
`to_bivariate` packages an expression together with its exact mixed
partial for the rest of the system.

The seeded polynomial corpus used by the verification harness also lives
here, driven by an explicit xorshift64* generator so that corpora are
reproducible from a single integer seed.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import BivariateFunction, EngineError, UnivariateFunction

__all__ = [
    "LexError",
    "ParseError",
    "DomainError",
    "Token",
    "ExprNode",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "FUNCTIONS",
    "tokenize",
    "parse",
    "parse_expression",
    "eval_expr",
    "differentiate",
    "simplify",
    "to_string",
    "to_bivariate",
    "to_univariate",
    "XorShift64Star",
    "derive_seed",
    "draw_polynomial",
    "draw_polynomial_1d",
    "polynomial",
    "polynomial_1d",
    "random_polynomial",
    "Program",
    "compile_expr",
    "run_program",
]


class LexError(EngineError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ParseError(EngineError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class DomainError(EngineError):
    """Evaluation left the real domain (log <= 0, sqrt < 0, 0^negative, ...)."""


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------

NUMBER = "number"
IDENT = "ident"
OP = "op"
LPAREN = "lparen"
RPAREN = "rparen"
COMMA = "comma"

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")

_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    position: int


def tokenize(text: str) -> list[Token]:
    """Longest-match tokens; whitespace skipped; LexError on anything else."""
    out: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            m = _NUMBER_RE.match(text, i)
            out.append(Token(NUMBER, m.group(), i))
            i = m.end()
            continue
        if ch.isalpha() or ch == "_":
            m = _IDENT_RE.match(text, i)
            out.append(Token(IDENT, m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^":
            out.append(Token(OP, ch, i))
        elif ch == "(":
            out.append(Token(LPAREN, ch, i))
        elif ch == ")":
            out.append(Token(RPAREN, ch, i))
        elif ch == ",":
            out.append(Token(COMMA, ch, i))
        else:
            raise LexError(f"unexpected character {ch!r}", i)
        i += 1
    return out


# ---------------------------------------------------------------------------
# syntax tree
# ---------------------------------------------------------------------------


class ExprNode:
    """Base class for expression nodes; instances are immutable."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(ExprNode):
    value: float


@dataclass(frozen=True)
class Var(ExprNode):
    name: str  # "t" or "s"


@dataclass(frozen=True)
class Unary(ExprNode):
    op: str  # "neg" or a function name
    child: ExprNode


@dataclass(frozen=True)
class Binary(ExprNode):
    op: str  # one of + - * / ^
    left: ExprNode
    right: ExprNode


_ZERO = Const(0.0)
_ONE = Const(1.0)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def _peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _position(self) -> int:
        tok = self._peek()
        if tok is not None:
            return tok.position
        if self.tokens:
            last = self.tokens[-1]
            return last.position + len(last.text)
        return 0

    def _advance(self) -> Token:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", self._position())
        self.pos += 1
        return tok

    def _match_op(self, *ops: str) -> Optional[Token]:
        tok = self._peek()
        if tok is not None and tok.kind == OP and tok.text in ops:
            self.pos += 1
            return tok
        return None

    def parse(self) -> ExprNode:
        if not self.tokens:
            raise ParseError("empty expression", 0)
        node = self.expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok.text!r}", tok.position)
        return node

    def expr(self) -> ExprNode:
        node = self.term()
        while True:
            tok = self._match_op("+", "-")
            if tok is None:
                return node
            node = Binary(tok.text, node, self.term())

    def term(self) -> ExprNode:
        node = self.factor()
        while True:
            tok = self._match_op("*", "/")
            if tok is None:
                return node
            node = Binary(tok.text, node, self.factor())

    def factor(self) -> ExprNode:
        if self._match_op("-"):
            return Unary("neg", self.factor())
        return self.power()

    def power(self) -> ExprNode:
        base = self.atom()
        if self._match_op("^"):
            return Binary("^", base, self.factor())
        return base

    def atom(self) -> ExprNode:
        tok = self._peek()
        if tok is None:
            raise ParseError("expected a value", self._position())
        if tok.kind == NUMBER:
            self._advance()
            return Const(float(tok.text))
        if tok.kind == IDENT:
            self._advance()
            name = tok.text
            if name in ("t", "s"):
                return Var(name)
            if name == "pi":
                return Const(math.pi)
            if name == "e":
                return Const(math.e)
            if name in FUNCTIONS:
                opening = self._peek()
                if opening is None or opening.kind != LPAREN:
                    raise ParseError(
                        f"function {name!r} must be followed by '('", self._position()
                    )
                self._advance()
                arg = self.expr()
                closing = self._peek()
                if closing is None or closing.kind != RPAREN:
                    raise ParseError("expected ')'", self._position())
                self._advance()
                return Unary(name, arg)
            raise ParseError(f"unknown identifier {name!r}", tok.position)
        if tok.kind == LPAREN:
            self._advance()
            node = self.expr()
            closing = self._peek()
            if closing is None or closing.kind != RPAREN:
                raise ParseError("expected ')'", self._position())
            self._advance()
            return node
        raise ParseError(f"unexpected {tok.text!r}", tok.position)


def parse(tokens: list[Token]) -> ExprNode:
    return _Parser(tokens).parse()


def parse_expression(text: str) -> ExprNode:
    return parse(tokenize(text))


# ---------------------------------------------------------------------------
# evaluation (scalars or numpy arrays): expressions compiled into programs
# ---------------------------------------------------------------------------


def _log(v, out=None):
    if (np.asarray(v) <= 0.0).any():
        raise DomainError("log of a non-positive value")
    return np.log(v, out=out)


def _sqrt(v, out=None):
    if (np.asarray(v) < 0.0).any():
        raise DomainError("sqrt of a negative value")
    return np.sqrt(v, out=out)


def _divide(lv, rv, out=None):
    if (np.asarray(rv) == 0.0).any():
        raise DomainError("division by zero")
    return lv / rv if out is None else np.divide(lv, rv, out=out)


def _power(lv, rv, out=None):
    if type(rv) is float and rv >= 0.0 and rv.is_integer():
        # a literal whole exponent: no guard below can fail
        return np.power(lv, rv, out=out)
    base = np.asarray(lv)
    expo = np.asarray(rv)
    if (base < 0.0).any() and not (expo == np.floor(expo)).all():
        raise DomainError("negative base with a non-integer exponent")
    if ((base == 0.0) & (expo < 0.0)).any():
        raise DomainError("zero raised to a negative power")
    if expo.ndim:
        return _power_per_element(lv, rv, out)
    return np.power(lv, rv, out=out)


def _power_per_element(base, expo, out=None):
    """np.power with an array exponent, equal element by element to np.power
    of the scalars. numpy's float64 power loop computes the exponents 0.5, 2
    and -1 as sqrt, square and reciprocal only when the exponent reaches it
    with stride 0, and with pow otherwise, which can differ in the last bit;
    without this, a sample would depend on how the coordinates were laid out."""
    out = np.power(base, expo, out=out)
    # np.power has already warned about any of these elements
    with np.errstate(all="ignore"):
        for value, shortcut in ((0.5, np.sqrt), (2.0, np.square), (-1.0, np.reciprocal)):
            shortcut(base, out=out, where=expo == value)
    return out


_UNARY = {"neg": np.negative, "sin": np.sin, "cos": np.cos, "exp": np.exp,
          "log": _log, "sqrt": _sqrt}
_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": _divide,
           "^": _power}


class Program(NamedTuple):
    """An expression compiled into steps, for run_program.

    The distinct subtrees of the expression (by identity) are its steps,
    in the order a recursive walk evaluates them: children first, left
    before right. Step n is (op, a, b): "t" and "s" read a variable and
    "const" is the literal a; "neg" and the functions apply to step a, and
    "+", "-", "*", "/" and "^" combine steps a and b. Every step applies
    its node's numpy operation, with the DomainError guard of log, sqrt,
    "/" and "^", so a shared subtree is evaluated once, and the first step
    that fails is the first node that fails. The last step is the root.

    The rest is the form a run takes. A run starts from the values of the
    leaves, [t, s, *consts], and appends the value of each operation: code
    holds (function, a, b, frees, register, var, keep) per operation, with
    a and b indices into those values (b None for a unary one) and frees
    the values it uses for the last time, which are dropped so that few
    intermediates are alive at a time. out is the index of the root's
    value. A full-grid step, one that reads both t and s and so has the
    whole shape of the run, has a register, one of n_registers arrays of
    that shape it may write into with out= (see _link); any other step has
    register None. var is the variable, _T or _S, of a step that reads one
    variable and no other, and 0 for any other step; keep is whether such
    a step's value is the result or is read by a full-grid step, the
    values a run given a memo keeps for the next run over the same
    coordinates.
    """

    steps: tuple
    consts: tuple
    code: tuple
    out: int
    n_registers: int


_T, _S = 1, 2


def _link(steps: list, reads: list) -> Program:
    """The Program of steps, see Program, where reads[n] holds the
    variables step n depends on, as bits (_T for t, _S for s). A full-grid
    operation's register is taken from those free, the ones its operands
    free included (so the operation runs in place), and freed at the last
    use of its value. "^" is given none of its operands' registers, as its
    array-exponent form reads them after writing."""
    consts = [a for op, a, _ in steps if op == "const"]
    # where each step's value sits in a run, each operation as (op, a, b,
    # reads) over those places, and the operation that last reads each
    # value (never the root's, which no operation reads)
    at: list[int] = []
    ops: list[tuple] = []
    last_use: dict = {}
    const_at = 2
    first = 2 + len(consts)
    for (op, a, b), r in zip(steps, reads):
        if op == "const":
            at.append(const_at)
            const_at += 1
        elif op in ("t", "s"):
            at.append(0 if op == "t" else 1)
        else:
            a, b = at[a], None if b is None else at[b]
            last_use[a] = first + len(ops)
            if b is not None:
                last_use[b] = first + len(ops)
            at.append(first + len(ops))
            ops.append((op, a, b, r))
    frees: list[list] = [[] for _ in ops]
    for value, user in last_use.items():
        frees[user - first].append(value)
    # the values full-grid steps read, and the root's
    read = {v for _, a, b, r in ops if r == _T | _S for v in (a, b)}
    read.add(at[-1])
    code: list[tuple] = []
    register: dict[int, int] = {}  # value -> its register
    spare: list[int] = []
    n_registers = 0
    for k, ((op, a, b, r), free) in enumerate(zip(ops, frees)):
        released = [register.pop(v) for v in free if v in register]
        reg = None
        if r == _T | _S:
            if op != "^":
                spare += released
                released = []
            if spare:
                reg = spare.pop()
            else:
                reg, n_registers = n_registers, n_registers + 1
            register[first + k] = reg
        spare += released
        var = r if r in (_T, _S) else 0
        code.append(((_UNARY if b is None else _BINARY)[op], a, b, tuple(free), reg, var,
                     bool(var) and first + k in read))
    return Program(tuple(steps), tuple(consts), tuple(code), at[-1], n_registers)


def compile_expr(e: ExprNode) -> Program:
    """e as a Program."""
    steps: list[tuple] = []
    reads: list[int] = []
    index: dict[int, int] = {}

    def visit(node: ExprNode) -> int:
        # node is a subtree of e, alive for the whole call
        n = index.get(id(node))
        if n is not None:
            return n
        if isinstance(node, Binary) and node.op in _BINARY:
            a, b = visit(node.left), visit(node.right)
            steps.append((node.op, a, b))
            reads.append(reads[a] | reads[b])
        elif isinstance(node, Const):
            steps.append(("const", node.value, None))
            reads.append(0)
        elif isinstance(node, Var):
            steps.append((node.name, None, None))
            reads.append(_T if node.name == "t" else _S)
        elif isinstance(node, Unary) and node.op in _UNARY:
            a = visit(node.child)
            steps.append((node.op, a, None))
            reads.append(reads[a])
        else:
            raise AssertionError(f"unknown node {node!r}")
        index[id(node)] = len(steps) - 1
        return len(steps) - 1

    visit(e)
    return _link(steps, reads)


def run_program(program: Program, t, s, registers: Optional[Sequence[np.ndarray]] = None,
                memo: Optional[dict] = None):
    """The value of a program at t and s (scalars, or arrays that
    broadcast against each other). A value that varies along fewer axes
    than t and s keeps the smaller shape, and one that reads no array stays
    a scalar.

    With registers, at least program.n_registers arrays of the broadcast
    shape of t and s, each full-grid step writes into its register;
    without, every step allocates. With memo, a dict that lives for one
    sampler call of one program, the steps of one variable are taken from
    memo where an earlier run over the same array of that variable kept
    them, and are kept there otherwise (see Program.code): memo maps
    (variable, id of the array) to the array and the values kept over it,
    the array held so that its id cannot be reused. The result may be a
    register or a kept value."""
    vals = [t, s, *program.consts]
    push = vals.append
    found = (None, None, None) if memo is None else (
        None, memo.get((_T, id(t))), memo.get((_S, id(s))))
    kept: list = [None, {}, {}]
    for k, (fn, a, b, frees, reg, var, keep) in enumerate(program.code):
        if var and found[var] is not None:
            # None for a value that no step reads any more
            push(found[var][1].get(k))
        elif reg is None or registers is None:
            push(fn(vals[a]) if b is None else fn(vals[a], vals[b]))
            if keep and memo is not None:
                kept[var][k] = vals[-1]
        elif b is None:
            push(fn(vals[a], out=registers[reg]))
        else:
            push(fn(vals[a], vals[b], out=registers[reg]))
        for i in frees:
            vals[i] = None
    if memo is not None:
        # t and s from the arguments: their places in vals are freed
        for var, coords in ((_T, t), (_S, s)):
            if found[var] is None:
                memo[var, id(coords)] = (coords, kept[var])
    return vals[program.out]


class _Compiled:
    """f(t, s) of an expression, compiled into a Program on its first use.

    program is what the grid samplers look for on a function's fn (a
    wrapper around it has none, and is sampled as it is): they run it
    with run_program, its full-grid steps in registers and its steps of
    one variable kept in a memo."""

    __slots__ = ("expr", "_program")

    def __init__(self, e: ExprNode):
        self.expr = e
        self._program: Optional[Program] = None

    @property
    def program(self) -> Program:
        if self._program is None:
            self._program = compile_expr(self.expr)
        return self._program

    def __call__(self, t, s):
        return run_program(self.program, t, s)


def eval_expr(e: ExprNode, t: float, s: float) -> float:
    return float(run_program(compile_expr(e), float(t), float(s)))


# ---------------------------------------------------------------------------
# differentiation and simplification
# ---------------------------------------------------------------------------


def _is_const(e: ExprNode, value: Optional[float] = None) -> bool:
    return isinstance(e, Const) and (value is None or e.value == value)


def _fold_unary(op: str, value: float) -> Optional[float]:
    try:
        if op == "neg":
            return -value
        if op == "sin":
            return math.sin(value)
        if op == "cos":
            return math.cos(value)
        if op == "exp":
            return math.exp(value)
        if op == "log":
            return math.log(value) if value > 0.0 else None
        if op == "sqrt":
            return math.sqrt(value) if value >= 0.0 else None
    except (OverflowError, ValueError):
        return None
    raise AssertionError(f"unknown unary op {op!r}")


def _fold_binary(op: str, a: float, b: float) -> Optional[float]:
    try:
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            return a / b if b != 0.0 else None
        if op == "^":
            if a < 0.0 and b != math.floor(b):
                return None
            if a == 0.0 and b < 0.0:
                return None
            return float(a**b)
    except (OverflowError, ValueError):
        return None
    raise AssertionError(f"unknown binary op {op!r}")


def _unary_rule(op: str, child: ExprNode) -> ExprNode:
    """simplify of Unary(op, child) once child is simplified."""
    if isinstance(child, Const):
        folded = _fold_unary(op, child.value)
        if folded is not None and math.isfinite(folded):
            return Const(folded)
    return Unary(op, child)


def _over_sqrt(e: ExprNode, u: ExprNode) -> Optional[tuple[Const, Const]]:
    """(c, k) if e is c / (k * sqrt(u)) with constants c and k, else None."""
    if (isinstance(e, Binary) and e.op == "/" and isinstance(e.left, Const)
            and isinstance(e.right, Binary) and e.right.op == "*"
            and isinstance(e.right.left, Const) and e.right.right == Unary("sqrt", u)):
        return e.left, e.right.left
    return None


def _binary_rule(op: str, left: ExprNode, right: ExprNode) -> ExprNode:
    """simplify of Binary(op, left, right) once both sides are simplified."""
    if isinstance(left, Const) and isinstance(right, Const):
        folded = _fold_binary(op, left.value, right.value)
        if folded is not None and math.isfinite(folded):
            return Const(folded)
    if op == "+":
        if _is_const(left, 0.0):
            return right
        if _is_const(right, 0.0):
            return left
    elif op == "-":
        if _is_const(right, 0.0):
            return left
        if _is_const(left, 0.0):
            return Unary("neg", right)
        # u - u is 0 wherever u is defined, as x * 0 is
        if left == right:
            return _ZERO
    elif op == "*":
        if _is_const(left, 0.0) or _is_const(right, 0.0):
            return _ZERO
        if _is_const(left, 1.0):
            return right
        if _is_const(right, 1.0):
            return left
        # u * (c / (k * sqrt(u))) is (c / k) * sqrt(u) wherever u > 0, and
        # the latter is also its limit at u = 0, where the former fails
        for u, quotient in ((left, right), (right, left)):
            over = _over_sqrt(quotient, u)
            if over is not None:
                return _binary_rule("*", _binary_rule("/", *over), Unary("sqrt", u))
    elif op == "/":
        # 0 / u is 0 wherever u is nonzero, as x * 0 is 0 wherever x is
        # defined; a literal 0 / 0 is kept so that it still fails
        if _is_const(left, 0.0) and not _is_const(right, 0.0):
            return _ZERO
        if _is_const(right, 1.0):
            return left
    elif op == "^":
        if _is_const(right, 1.0):
            return left
        if _is_const(right, 0.0):
            return _ONE
    return Binary(op, left, right)


def _simplify(e: ExprNode, memo: dict) -> ExprNode:
    """simplify(e), memoised by id in memo; the trees whose subtrees are
    keyed there must stay alive as long as memo is used."""
    out = memo.get(id(e))
    if out is None:
        if isinstance(e, (Const, Var)):
            out = e
        elif isinstance(e, Unary):
            out = _unary_rule(e.op, _simplify(e.child, memo))
        else:
            out = _binary_rule(e.op, _simplify(e.left, memo), _simplify(e.right, memo))
        memo[id(e)] = out
    return out


def simplify(e: ExprNode) -> ExprNode:
    """Constant folding plus the unit laws x*1, x+0, x-0, x^1, x^0, x*0, 0/x,
    u-u -> 0, and u * (c / (k * sqrt(u))) -> (c / k) * sqrt(u) for
    constants c, k."""
    return _simplify(e, {})


_TWO = Const(2.0)


def differentiate(e: ExprNode, var: str) -> ExprNode:
    """Symbolic derivative with respect to 't' or 's', simplified.

    One pass: each derivative node goes through simplify's rule for its
    kind as it is built, and the original subtrees that a rule copies
    (product, quotient and chain rules) are simplified once each. A subtree
    that e shares by id (as a first derivative shares the subtrees its
    rules copy) is differentiated once. The result is the tree that
    simplifying the unsimplified derivative gives.
    """
    if var not in ("t", "s"):
        raise ValueError(f"var must be 't' or 's', got {var!r}")
    simplified: dict[int, ExprNode] = {}
    derived: dict[int, ExprNode] = {}

    def simp(node: ExprNode) -> ExprNode:
        # node is a subtree of e, alive for the whole call
        return _simplify(node, simplified)

    def d(node: ExprNode) -> ExprNode:
        if isinstance(node, Const):
            return _ZERO
        if isinstance(node, Var):
            return _ONE if node.name == var else _ZERO
        out = derived.get(id(node))
        if out is None:
            out = derived[id(node)] = rule(node)
        return out

    def rule(node: ExprNode) -> ExprNode:
        if isinstance(node, Unary):
            du = d(node.child)
            op = node.op
            if op == "neg":
                return _unary_rule("neg", du)
            u = simp(node.child)
            if op == "sin":
                return _binary_rule("*", _unary_rule("cos", u), du)
            if op == "cos":
                return _unary_rule("neg", _binary_rule("*", _unary_rule("sin", u), du))
            if op == "exp":
                return _binary_rule("*", _unary_rule("exp", u), du)
            if op == "log":
                return _binary_rule("/", du, u)
            if op == "sqrt":
                return _binary_rule(
                    "/", du, _binary_rule("*", _TWO, _unary_rule("sqrt", u))
                )
            raise AssertionError(f"unknown unary op {op!r}")
        if isinstance(node, Binary):
            op, left, right = node.op, node.left, node.right
            if op in ("+", "-"):
                return _binary_rule(op, d(left), d(right))
            if op == "*":
                dl = d(left)
                dr = d(right)
                return _binary_rule(
                    "+",
                    _binary_rule("*", dl, simp(right)),
                    _binary_rule("*", simp(left), dr),
                )
            if op == "/":
                dl = d(left)
                dr = d(right)
                num = _binary_rule(
                    "-",
                    _binary_rule("*", dl, simp(right)),
                    _binary_rule("*", simp(left), dr),
                )
                return _binary_rule("/", num, _binary_rule("^", simp(right), _TWO))
            if op == "^":
                # an exponent that folds to a constant, as in t^-1, takes the
                # power rule, which is finite where the base is 0
                expo = simp(right)
                if isinstance(expo, Const):
                    power = _binary_rule("^", simp(left), Const(expo.value - 1.0))
                    return _binary_rule("*", _binary_rule("*", expo, power), d(left))
                # b^e = exp(e log b):  d = b^e (e' log b + e b'/b); where b
                # is not positive, the log guard raises as f's own guards do
                inner = _binary_rule(
                    "+",
                    _binary_rule("*", d(right), _unary_rule("log", simp(left))),
                    _binary_rule("*", expo, _binary_rule("/", d(left), simp(left))),
                )
                return _binary_rule("*", simp(node), inner)
            raise AssertionError(f"unknown binary op {op!r}")
        raise AssertionError(f"unknown node {node!r}")

    return d(e)


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _prec(e: ExprNode) -> int:
    if isinstance(e, Const):
        return _PREC_NEG if e.value < 0.0 else _PREC_ATOM
    if isinstance(e, Var):
        return _PREC_ATOM
    if isinstance(e, Unary):
        return _PREC_NEG if e.op == "neg" else _PREC_ATOM
    assert isinstance(e, Binary)
    if e.op in ("+", "-"):
        return _PREC_ADD
    if e.op in ("*", "/"):
        return _PREC_MUL
    return _PREC_POW


def _wrap(text: str, needs_parens: bool) -> str:
    return f"({text})" if needs_parens else text


def to_string(e: ExprNode) -> str:
    """Canonical rendering; parse(to_string(e)) re-prints identically."""
    if isinstance(e, Const):
        v = e.value
        if v == int(v) and abs(v) < 1e16:
            return repr(int(v))
        return repr(v)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            return "-" + _wrap(to_string(e.child), _prec(e.child) < _PREC_NEG)
        return f"{e.op}({to_string(e.child)})"
    assert isinstance(e, Binary)
    if e.op == "^":
        base = _wrap(to_string(e.left), _prec(e.left) < _PREC_ATOM)
        expo = _wrap(to_string(e.right), _prec(e.right) < _PREC_NEG)
        return f"{base}^{expo}"
    prec = _prec(e)
    left = _wrap(to_string(e.left), _prec(e.left) < prec)
    right = _wrap(to_string(e.right), _prec(e.right) <= prec)
    return f"{left} {e.op} {right}"


# ---------------------------------------------------------------------------
# function capabilities
# ---------------------------------------------------------------------------


def to_bivariate(e: ExprNode) -> BivariateFunction:
    """Package an expression as f(t, s) with its exact mixed partial."""
    return BivariateFunction(
        fn=_Compiled(e),
        mixed_fn=_Compiled(differentiate(differentiate(e, "t"), "s")),
        vectorized=True,
        label=to_string(e),
    )


def to_univariate(e: ExprNode, var: str = "t") -> UnivariateFunction:
    """Package an expression as g(var), binding the other variable to 0,
    with its exact derivative."""
    if var not in ("t", "s"):
        raise ValueError(f"var must be 't' or 's', got {var!r}")

    def _bind(expr: ExprNode):
        program = compile_expr(expr)
        if var == "t":
            return lambda v: run_program(program, v, 0.0)
        return lambda v: run_program(program, 0.0, v)

    return UnivariateFunction(
        fn=_bind(e),
        deriv_fn=_bind(differentiate(e, var)),
        vectorized=True,
        label=to_string(e),
    )


# ---------------------------------------------------------------------------
# seeded polynomial corpus
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


class XorShift64Star:
    """xorshift64* pseudo-random generator.

    State update x ^= x>>12; x ^= x<<25; x ^= x>>27 (mod 2^64), output
    x * 0x2545F4914F6CDD1D mod 2^64. Uniform doubles take the top 53 bits.
    A zero seed is remapped to a fixed nonzero constant (the state must
    never be zero).
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64 or _SPLITMIX_GAMMA

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) / float(1 << 53)
        return lo + (hi - lo) * u

    def randint(self, n: int) -> int:
        """Integer in [0, n); modulo bias is negligible for small n."""
        return self.next_u64() % n


def derive_seed(seed: int, index: int) -> int:
    """Decorrelated per-trial seed via one splitmix64 step."""
    z = (seed * _SPLITMIX_GAMMA + index + 1) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _horner_1d(coeffs: list[float], var: ExprNode) -> ExprNode:
    """coeffs[k] is the coefficient of var^k; built in Horner form."""
    node: ExprNode = Const(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        node = Binary("+", Const(c), Binary("*", var, node))
    return node


def draw_polynomial(rng: XorShift64Star, max_degree: int = 6) -> list[list[float]]:
    """The coefficients of a dense random polynomial in t and s.

    Degrees per variable are drawn uniformly in 0..max_degree, t first, and
    every coefficient uniformly in [-1, 1]; rows[i][j] multiplies t^i s^j.
    """
    deg_t = rng.randint(max_degree + 1)
    deg_s = rng.randint(max_degree + 1)
    return [[rng.uniform(-1.0, 1.0) for _ in range(deg_s + 1)] for _ in range(deg_t + 1)]


def draw_polynomial_1d(rng: XorShift64Star, max_degree: int = 6) -> list[float]:
    """The coefficients of a dense random univariate polynomial: the degree
    uniformly in 0..max_degree, then each coefficient in [-1, 1]."""
    deg = rng.randint(max_degree + 1)
    return [rng.uniform(-1.0, 1.0) for _ in range(deg + 1)]


def polynomial(rows: list[list[float]]) -> ExprNode:
    """sum of rows[i][j] t^i s^j in nested Horner form (inner in s, outer
    in t), so evaluation stays cheap."""
    nodes = [_horner_1d(row, Var("s")) for row in rows]
    node: ExprNode = nodes[-1]
    for row in reversed(nodes[:-1]):
        node = Binary("+", row, Binary("*", Var("t"), node))
    return node


def polynomial_1d(coeffs: list[float], var: str = "t") -> ExprNode:
    """sum of coeffs[k] var^k in Horner form."""
    return _horner_1d(coeffs, Var(var))


def random_polynomial(rng: XorShift64Star, max_degree: int = 6) -> ExprNode:
    """Dense random polynomial in t and s (draw_polynomial, polynomial)."""
    return polynomial(draw_polynomial(rng, max_degree))

