import math
import random

import numpy as np
import pytest

from helpers import random_ast
from ostrocube import (
    DomainError,
    LexError,
    ParseError,
    differentiate,
    eval_expr,
    parse_expression,
    to_bivariate,
    to_string,
    to_univariate,
    tokenize,
)
from ostrocube.expr import (
    Binary,
    Const,
    Unary,
    Var,
    XorShift64Star,
    compile_expr,
    derive_seed,
    parse,
    random_polynomial,
    run_program,
    simplify,
)

# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------


def test_tokenize_simple():
    toks = tokenize("t*s")
    assert [(t.kind, t.text) for t in toks] == [
        ("ident", "t"),
        ("op", "*"),
        ("ident", "s"),
    ]
    assert [t.position for t in toks] == [0, 1, 2]


def test_tokenize_call():
    toks = tokenize("exp(t*s)")
    assert [t.kind for t in toks] == [
        "ident", "lparen", "ident", "op", "ident", "rparen",
    ]


def test_tokenize_positions_cover_input():
    text = " 1.5 + sin( t ) "
    toks = tokenize(text)
    positions = [t.position for t in toks]
    assert positions == sorted(positions) and len(set(positions)) == len(positions)
    # tokens cover exactly the non-whitespace characters
    assert sorted("".join(t.text for t in toks)) == sorted(
        ch for ch in text if not ch.isspace()
    )


def test_tokenize_lex_errors():
    with pytest.raises(LexError) as err:
        tokenize("2..5")
    assert err.value.position == 1
    with pytest.raises(LexError) as err:
        tokenize("2.3.4")
    assert err.value.position == 3
    with pytest.raises(LexError):
        tokenize("@")


def test_tokenize_scientific_notation():
    toks = tokenize("1e-3 + 2.5E+2")
    assert toks[0].text == "1e-3" and toks[2].text == "2.5E+2"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_power_product():
    node = parse_expression("t^2*s^2")
    assert node == Binary(
        "*",
        Binary("^", Var("t"), Const(2.0)),
        Binary("^", Var("s"), Const(2.0)),
    )


def test_parse_unary_minus_binds_below_power():
    assert parse_expression("-t^2") == Unary("neg", Binary("^", Var("t"), Const(2.0)))


def test_parse_power_right_associative():
    assert eval_expr(parse_expression("2^3^2"), 0, 0) == 512.0


def test_parse_errors_positioned():
    with pytest.raises(ParseError) as err:
        parse_expression("t++s")
    assert err.value.position == 2
    with pytest.raises(ParseError):
        parse_expression("(t+s")
    with pytest.raises(ParseError) as err:
        parse_expression("t+u")
    assert "u" in str(err.value)
    with pytest.raises(ParseError):
        parse_expression("")
    with pytest.raises(ParseError):
        parse(tokenize("t,s"))


def test_parse_named_constants():
    assert eval_expr(parse_expression("pi"), 0, 0) == math.pi
    assert eval_expr(parse_expression("e"), 0, 0) == math.e


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_basic():
    assert eval_expr(parse_expression("t*s + 1"), 2, 3) == 7.0
    assert eval_expr(parse_expression("sin(pi/2)"), 0, 0) == pytest.approx(
        1.0, abs=1e-15
    )


def test_eval_domain_errors():
    with pytest.raises(DomainError):
        eval_expr(parse_expression("log(t)"), 0.0, 0.0)
    with pytest.raises(DomainError):
        eval_expr(parse_expression("sqrt(t)"), -1.0, 0.0)
    with pytest.raises(DomainError):
        eval_expr(parse_expression("t^(0-1)"), 0.0, 0.0)
    with pytest.raises(DomainError):
        eval_expr(parse_expression("t^0.5"), -2.0, 0.0)
    with pytest.raises(DomainError):
        eval_expr(parse_expression("1/t"), 0.0, 0.0)


def test_eval_negative_base_integer_exponent():
    assert eval_expr(parse_expression("t^3"), -2.0, 0.0) == -8.0
    assert eval_expr(parse_expression("t^2"), -2.0, 0.0) == 4.0


def test_eval_vectorized():
    f = to_bivariate(parse_expression("t^2*s + 1"))
    T = np.array([[0.0, 1.0], [2.0, 3.0]])
    S = np.array([[1.0, 1.0], [2.0, 0.5]])
    got = f.fn(T, S)
    assert np.allclose(got, T**2 * S + 1)


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------


def test_mixed_partial_of_quartic_equals_4ts():
    e = parse_expression("t^2*s^2")
    mixed = differentiate(differentiate(e, "t"), "s")
    for t in np.linspace(-1, 1, 5):
        for s in np.linspace(-1, 1, 5):
            assert eval_expr(mixed, t, s) == pytest.approx(4 * t * s, abs=1e-12)


def test_mixed_partial_of_additive_is_zero():
    e = parse_expression("t + s")
    mixed = differentiate(differentiate(e, "t"), "s")
    assert mixed == Const(0.0)


def test_mixed_partial_of_exp_product():
    f = to_bivariate(parse_expression("exp(t*s)"))
    # exact mixed partial is (1 + t s) exp(t s)
    assert f.mixed(0.5, 0.5) == pytest.approx(1.25 * math.exp(0.25), abs=1e-13)
    for t, s in [(0.1, 0.9), (0.7, 0.3), (1.0, 1.0)]:
        assert f.mixed(t, s) == pytest.approx((1 + t * s) * math.exp(t * s), rel=1e-12)


def test_to_bivariate_capabilities():
    f = to_bivariate(parse_expression("t*s"))
    assert f.has_exact_mixed
    for t, s in [(0.0, 0.0), (2.0, -3.0)]:
        assert f.mixed(t, s) == pytest.approx(1.0, abs=1e-15)
    g = to_bivariate(parse_expression("t^3"))
    assert g.has_exact_mixed
    assert g.mixed(0.7, 0.2) == 0.0


def test_to_univariate_binds_dummy():
    g = to_univariate(parse_expression("t^2"))
    assert g.eval(3.0) == 9.0
    assert g.deriv(3.0) == pytest.approx(6.0, abs=1e-13)


def test_to_univariate_carries_its_exact_derivative():
    g = to_univariate(parse_expression("s^3 + 2*s"), var="s")
    assert g.has_exact_deriv
    assert g.eval(2.0) == 12.0
    assert g.deriv(2.0) == 14.0
    assert g.deriv(1.0) == 5.0
    # a variable exponent too: d(t^t) = t^t (log t + 1)
    g = to_univariate(parse_expression("t^t"))
    assert g.has_exact_deriv
    for t in (0.5, 2.0):
        assert g.deriv(t) == pytest.approx(t ** t * (math.log(t) + 1.0), rel=1e-14)
    assert to_univariate(parse_expression("exp(t)^t")).has_exact_deriv


def test_unsupported_derivative():
    # b^e with a variable exponent over any base takes b^e (e' log b + e b'/b)
    f = to_bivariate(parse_expression("t^s"))
    assert f.has_exact_mixed
    for t, s in [(0.1, 0.1), (0.5, 2.0), (1.7, 0.3)]:
        expected = t ** (s - 1.0) * (1.0 + s * math.log(t))
        assert f.mixed(t, s) == pytest.approx(expected, rel=1e-14)
    # where the base is not positive, the guards raise as f's own do
    with pytest.raises(DomainError, match="log of a non-positive value"):
        f.mixed(0.0, 0.5)
    with pytest.raises(DomainError):
        f.mixed(-0.5, 0.5)


def test_an_exponent_that_folds_to_a_constant_takes_the_power_rule():
    # b^e (e' log b + e b'/b) would divide by the base where it is 0
    assert to_string(differentiate(parse_expression("t^(1+1)"), "t")) == "2 * t"
    assert to_string(differentiate(parse_expression("t^-1"), "t")) == "-1 * t^-2"
    f = to_bivariate(parse_expression("(t-0.5)^(1+1)*s"))
    assert f.mixed(0.5, 0.3) == 0.0


def test_derivative_of_positive_base_power():
    e = parse_expression("e^(t*s)")  # parses to a positive constant base
    mixed = to_bivariate(e)
    assert mixed.has_exact_mixed
    got = mixed.mixed(0.5, 0.5)
    assert got == pytest.approx((1 + 0.25) * math.exp(0.25), rel=1e-12)


def test_derivatives_match_finite_differences():
    rnd = random.Random(1234)
    h = (np.finfo(float).eps) ** (1 / 3)
    checked = 0
    while checked < 200:
        ast = random_ast(rnd, 5)
        dt = differentiate(ast, "t")
        ds = differentiate(ast, "s")
        checked += 1
        pts = [(rnd.uniform(0.3, 1.2), rnd.uniform(0.3, 1.2)) for _ in range(10)]
        for t, s in pts:
            exact_t = eval_expr(dt, t, s)
            fd_t = (eval_expr(ast, t + h, s) - eval_expr(ast, t - h, s)) / (2 * h)
            assert abs(exact_t - fd_t) <= 1e-6 * (1 + abs(exact_t)), to_string(ast)
            exact_s = eval_expr(ds, t, s)
            fd_s = (eval_expr(ast, t, s + h) - eval_expr(ast, t, s - h)) / (2 * h)
            assert abs(exact_s - fd_s) <= 1e-6 * (1 + abs(exact_s)), to_string(ast)


# ---------------------------------------------------------------------------
# simplification and printing
# ---------------------------------------------------------------------------


def test_simplify_unit_laws():
    t = Var("t")
    assert simplify(Binary("*", t, Const(1.0))) == t
    assert simplify(Binary("+", t, Const(0.0))) == t
    assert simplify(Binary("^", t, Const(1.0))) == t
    assert simplify(Binary("*", t, Const(0.0))) == Const(0.0)
    assert simplify(Binary("+", Const(2.0), Const(3.0))) == Const(5.0)
    # two equal trees, not one shared subtree
    assert simplify(parse_expression("sin(t*s) - sin(t*s)")) == Const(0.0)


def test_simplify_folds_zero_over_anything_but_literal_zero():
    u = parse_expression("2 * sqrt(t)")
    assert simplify(Binary("/", Const(0.0), u)) == Const(0.0)
    assert simplify(Binary("/", Const(-0.0), u)) == Const(0.0)
    kept = Binary("/", Const(0.0), Const(0.0))
    assert simplify(kept) == kept
    with pytest.raises(DomainError):
        eval_expr(kept, 1.0, 1.0)


def test_mixed_partials_of_singular_sums_have_no_division():
    for text in ("sqrt(t)+sqrt(s)", "log(t+1)+sqrt(s)", "log(t-1)"):
        mixed = differentiate(differentiate(parse_expression(text), "t"), "s")
        assert mixed == Const(0.0), text
    # this partial used to divide by 2 sqrt(t), which is 0 at t = 0
    mixed = differentiate(differentiate(parse_expression("t*sqrt(t)*s"), "t"), "s")
    assert to_string(mixed) == "sqrt(t) + 0.5 * sqrt(t)"
    assert eval_expr(mixed, 0.0, 0.0) == 0.0


def test_simplify_takes_u_over_k_sqrt_u_to_its_continuous_extension():
    for text, want in (("t * (1 / (2 * sqrt(t)))", "0.5 * sqrt(t)"),
                       ("(3 / (4 * sqrt(t + s))) * (t + s)", "0.75 * sqrt(t + s)")):
        assert to_string(simplify(parse_expression(text))) == want
    # only the same u under the root, and only constant c and k
    for text in ("s * (1 / (2 * sqrt(t)))", "t * (s / (2 * sqrt(t)))",
                 "t * (1 / (s * sqrt(t)))"):
        assert simplify(parse_expression(text)) == parse_expression(text)


def test_simplify_preserves_values():
    rnd = random.Random(77)
    for _ in range(60):
        ast = random_ast(rnd, 5)
        folded = simplify(ast)
        for _ in range(25):
            t = rnd.uniform(0.3, 1.4)
            s = rnd.uniform(0.3, 1.4)
            a = eval_expr(ast, t, s)
            b = eval_expr(folded, t, s)
            assert abs(a - b) <= 1e-12 * (1 + abs(a))


def test_round_trip_fixed_point_on_samples():
    samples = [
        "t*s",
        "-t^2",
        "t^-2",
        "(t + s)^3",
        "sin(t)*cos(s) - exp(t*s)/(2.5 + t*t)",
        "1e-3*t + 2.5",
        "--t",
        "t - (s - 1)",
        "t/(s*s + 1.5)",
    ]
    for text in samples:
        once = to_string(parse_expression(text))
        twice = to_string(parse_expression(once))
        assert once == twice


def test_round_trip_fixed_point_on_random_asts():
    rnd = random.Random(4242)
    for _ in range(200):
        ast = random_ast(rnd, 5)
        once = to_string(ast)
        reparsed = parse_expression(once)
        assert to_string(reparsed) == once


def test_fuzz_parser_totality():
    rnd = random.Random(20240817)
    alphabet = "ts+-*/^()0123456789. epilogcqrxnab_,"
    for _ in range(10_000):
        n = rnd.randint(0, 24)
        text = "".join(rnd.choice(alphabet) for _ in range(n))
        try:
            parse_expression(text)
        except (LexError, ParseError):
            pass  # positioned rejection is the contract


# ---------------------------------------------------------------------------
# corpus generator
# ---------------------------------------------------------------------------


def test_xorshift_is_deterministic():
    a = XorShift64Star(42)
    b = XorShift64Star(42)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
    assert XorShift64Star(0)._state != 0  # zero seed remapped
    u = XorShift64Star(7).uniform(-1.0, 1.0)
    assert -1.0 <= u < 1.0


def test_derive_seed_decorrelates():
    seeds = {derive_seed(42, k) for k in range(100)}
    assert len(seeds) == 100
    assert derive_seed(42, 3) == derive_seed(42, 3)
    assert derive_seed(42, 3) != derive_seed(43, 3)


def test_random_polynomial_shape_and_determinism():
    rng = XorShift64Star(11)
    poly = random_polynomial(rng, 6)
    again = random_polynomial(XorShift64Star(11), 6)
    assert to_string(poly) == to_string(again)
    # degree <= 6 per variable: 7 t-derivatives annihilate it
    e = poly
    for _ in range(7):
        e = differentiate(e, "t")
    assert e == Const(0.0)
    e = poly
    for _ in range(7):
        e = differentiate(e, "s")
    assert e == Const(0.0)


def test_random_polynomial_coefficients_in_range():
    rng = XorShift64Star(3)
    for _ in range(20):
        poly = random_polynomial(rng, 4)
        text = to_string(poly)
        f = to_bivariate(poly)
        assert abs(f.eval(0.0, 0.0)) <= 1.0, text  # constant coefficient


# ---------------------------------------------------------------------------
# one interpreter: runs with and without registers and a memo
# ---------------------------------------------------------------------------


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


@pytest.mark.parametrize("seed", range(5))
def test_a_run_with_registers_and_a_memo_equals_the_plain_run(seed):
    # two blocks of t rows against one shared array of s, as cell_bounds
    # hands them: the second block takes the steps of s from the memo
    rnd = random.Random(seed)
    ss = np.linspace(0.25, 1.2, 13)[None, :]
    blocks = (np.linspace(0.3, 0.8, 7)[:, None], np.linspace(0.9, 1.4, 7)[:, None])
    shape = (7, 13)
    for _ in range(12):
        program = compile_expr(random_ast(rnd, 5))
        registers = [np.empty(shape) for _ in range(program.n_registers)]
        memo: dict = {}
        for ts in blocks:
            plain = run_program(program, ts, ss)
            kept = run_program(program, ts, ss, registers, memo)
            assert _hex(np.broadcast_to(kept, shape)) == _hex(np.broadcast_to(plain, shape))
            buffers = [*registers, *(value for _, values in memo.values()
                                     for value in values.values())]
            assert not any(np.shares_memory(plain, buf) for buf in buffers)
        # one entry for the shared s, one for each block of t
        assert len(memo) == 3


@pytest.mark.parametrize("text", ["t^(1+1)*s", "(t*s)^(4*0.5)", "(t+s)^(0-1)",
                                  "(t+s)^(0.25+0.25)"])
def test_an_exponent_computed_from_constants_equals_the_literal_one(text):
    # 1+1 runs as a step and reaches the power as a numpy scalar, the
    # literal as a float: both give numpy's shortcut for 2, -1 and 0.5
    computed = compile_expr(parse_expression(text))
    literal = compile_expr(simplify(parse_expression(text)))
    assert len(literal.steps) < len(computed.steps)
    ts = np.linspace(0.3, 1.4, 9)[:, None]
    ss = np.linspace(0.25, 1.2, 11)[None, :]
    assert _hex(run_program(computed, ts, ss)) == _hex(run_program(literal, ts, ss))
    for t, s in ((0.3, 0.25), (0.7, 1.1), (1.4, 0.6)):
        assert _hex(run_program(computed, t, s)) == _hex(run_program(literal, t, s))
