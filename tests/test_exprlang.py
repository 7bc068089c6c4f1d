import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcocycle.exprlang import (
    DomainError,
    NotDifferentiable,
    ParseError,
    UnknownIdentifierError,
    as_expr,
    parse,
)


# ------------------------------------------------------------------
# parsing and evaluation basics
# ------------------------------------------------------------------


@pytest.mark.parametrize(
    "src, p, q, t, want",
    [
        ("1 + 2*3", 0, 0, 0, 7.0),
        ("(1 + 2)*3", 0, 0, 0, 9.0),
        ("p*q - t", 2.0, 3.0, 1.5, 4.5),
        ("2^3^2", 0, 0, 0, 512.0),
        ("-2^2", 0, 0, 0, 4.0),  # prefix minus binds to the base: (-2)^2
        ("2^-3", 0, 0, 0, 0.125),
        ("-(2^2)", 0, 0, 0, -4.0),
        ("pi", 0, 0, 0, math.pi),
        ("2*pi", 0, 0, 0, 2 * math.pi),
        ("sin(pi/2)", 0, 0, 0, 1.0),
        ("cos(0)", 0, 0, 0, 1.0),
        ("exp(1)", 0, 0, 0, math.e),
        ("sqrt(2)", 0, 0, 0, math.sqrt(2)),
        ("tanh(0.5)", 0, 0, 0, math.tanh(0.5)),
        ("abs(-3.5)", 0, 0, 0, 3.5),
        ("sign(-2)", 0, 0, 0, -1.0),
        ("sign(0)", 0, 0, 0, 0.0),
        ("min(3, 1, 2)", 0, 0, 0, 1.0),
        ("max(3, 1, 2)", 0, 0, 0, 3.0),
        ("iflte(1, 2, 10, 20)", 0, 0, 0, 10.0),
        ("iflte(3, 2, 10, 20)", 0, 0, 0, 20.0),
        ("iflte(2, 2, 10, 20)", 0, 0, 0, 10.0),
        ("1e3 + 2.5e-1", 0, 0, 0, 1000.25),
        (".5 + 2.", 0, 0, 0, 2.5),
        ("6/4", 0, 0, 0, 1.5),
        ("--p", 7.0, 0, 0, 7.0),
        ("2*-3", 0, 0, 0, -6.0),
    ],
)
def test_eval_scalars(src, p, q, t, want):
    assert parse(src)(p, q, t) == pytest.approx(want, rel=0, abs=1e-15)


def test_eval_returns_python_float():
    v = parse("p + q")(1.0, 2.0)
    assert isinstance(v, float)
    assert v == 3.0


def test_eval_vectorized_matches_scalar():
    e = parse("sin(p)*exp(-q^2) + t*max(p, q)")
    ps = np.linspace(-2, 2, 23)
    qs = np.linspace(-1, 3, 23)
    out = e(ps, qs, 0.7)
    assert out.shape == ps.shape
    for i in range(len(ps)):
        assert out[i] == pytest.approx(e(float(ps[i]), float(qs[i]), 0.7), abs=1e-15)


def test_whitespace_is_ignored():
    assert parse("  1\t+\n2 ")(0, 0) == 3.0


def test_min_max_need_two_args():
    with pytest.raises(ParseError):
        parse("min(1)")
    with pytest.raises(ParseError):
        parse("max(p)")


# ------------------------------------------------------------------
# error reporting
# ------------------------------------------------------------------


def test_parse_error_offset_and_expected():
    with pytest.raises(ParseError) as exc:
        parse("1 + * 2")
    assert exc.value.offset == 4
    assert "(" in exc.value.expected
    assert "byte offset 4" in str(exc.value)


def test_parse_error_unclosed_paren():
    with pytest.raises(ParseError) as exc:
        parse("(1 + 2")
    assert ")" in exc.value.expected


def test_parse_error_trailing_garbage():
    with pytest.raises(ParseError) as exc:
        parse("1 2")
    assert exc.value.offset == 2


def test_parse_error_bad_char():
    with pytest.raises(ParseError) as exc:
        parse("1 + $")
    assert exc.value.offset == 4


def test_parse_error_offset_counts_bytes_not_chars():
    # non-breaking space is valid whitespace but two bytes in utf-8, so the
    # reported offset of the bad character after it is 2, not 1
    with pytest.raises(ParseError) as exc:
        parse(" $")
    assert exc.value.offset == 2


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as exc:
        parse("p + x")
    assert exc.value.name == "x"
    assert exc.value.offset == 4
    with pytest.raises(UnknownIdentifierError):
        parse("foo(1)")


def test_wrong_arity():
    with pytest.raises(ParseError):
        parse("sin(1, 2)")
    with pytest.raises(ParseError):
        parse("iflte(1, 2, 3)")


@pytest.mark.parametrize(
    "src",
    ["1/0", "1/(p - p)", "sqrt(-1)", "sqrt(p - 1)", "0^-1", "(-2)^0.5"],
)
def test_domain_errors(src):
    with pytest.raises(DomainError):
        parse(src)(0.0, 0.0)


def test_domain_error_on_any_array_element():
    e = parse("sqrt(p)")
    with pytest.raises(DomainError):
        e(np.array([1.0, -0.5, 4.0]), 0.0)


def test_negative_base_integer_exponent_ok():
    assert parse("(-2)^3")(0, 0) == -8.0
    # a fractional power of a negative base is rejected, not complex
    with pytest.raises(DomainError):
        parse("(-8)^(1/3)")(0, 0)


def test_iflte_shields_unselected_branch():
    # the false branch divides by zero at p = 0 but is never evaluated there
    e = parse("iflte(p, 0, 0, 1/p)")
    assert e(0.0, 0.0) == 0.0
    assert e(2.0, 0.0) == 0.5
    out = e(np.array([-1.0, 0.0, 2.0]), 0.0)
    assert out.tolist() == [0.0, 0.0, 0.5]


def test_as_expr_rejects_junk():
    from symcocycle.errors import ValidationError

    with pytest.raises(ValidationError):
        as_expr(object())
    with pytest.raises(ValidationError):
        parse(3)


# ------------------------------------------------------------------
# differentiation
# ------------------------------------------------------------------


def _fd(e, var, p, q, t=0.0, h=1e-5):
    args = {"p": p, "q": q, "t": t}
    hi = dict(args)
    lo = dict(args)
    hi[var] += h
    lo[var] -= h
    return (e(hi["p"], hi["q"], hi["t"]) - e(lo["p"], lo["q"], lo["t"])) / (2 * h)


DIFF_CASES = [
    "p^2 + 3*p*q - q^2",
    "sin(p)*cos(q)",
    "exp(-(p^2 + q^2)/2)",
    "tanh(p - 2*q)",
    "sqrt(p^2 + q^2 + 1)",
    "p/(1 + q^2)",
    "t*p + t^2*q",
    "sin(p*q - t)",
    "(p + q)^3",
]


@pytest.mark.parametrize("src", DIFF_CASES)
@pytest.mark.parametrize("var", ["p", "q", "t"])
def test_diff_matches_central_difference(src, var):
    e = parse(src)
    de = e.diff(var)
    for p, q, t in [(0.3, -0.7, 0.2), (1.1, 0.4, -0.5), (-0.9, 1.3, 0.0)]:
        want = _fd(e, var, p, q, t)
        got = de(p, q, t)
        assert got == pytest.approx(want, abs=1e-6 * (1 + abs(want)))


def test_diff_constant_exponent_with_variable_base():
    e = parse("p^2.5")
    assert e.diff("p")(4.0, 0.0) == pytest.approx(2.5 * 4.0**1.5)


def test_diff_variable_exponent_raises():
    with pytest.raises(NotDifferentiable):
        parse("p^q").diff("q")
    with pytest.raises(NotDifferentiable):
        parse("2^p").diff("p")
    # but differentiating in an unrelated variable is fine
    assert parse("2^p").diff("q")(1.0, 1.0) == 0.0


def test_diff_abs_uses_sign_convention():
    d = parse("abs(p)").diff("p")
    assert d(3.0, 0.0) == 1.0
    assert d(-3.0, 0.0) == -1.0
    assert d(0.0, 0.0) == 0.0


def test_diff_min_max_tie_takes_first_argument():
    dmin = parse("min(p, q)").diff("p")
    assert dmin(1.0, 1.0) == 1.0  # tie: derivative of the first argument
    assert dmin(0.0, 1.0) == 1.0
    assert dmin(2.0, 1.0) == 0.0
    dmax = parse("max(p, q)").diff("p")
    assert dmax(1.0, 1.0) == 1.0
    assert dmax(2.0, 1.0) == 1.0
    assert dmax(0.0, 1.0) == 0.0


def test_diff_sign_is_zero():
    assert parse("sign(p)").diff("p")(0.5, 0.0) == 0.0


def test_diff_result_is_in_language():
    # the derivative must round-trip through the parser
    for src in DIFF_CASES + ["abs(p - q)", "min(p, q^2)", "max(p, q, t)"]:
        e = parse(src)
        for var in ("p", "q"):
            try:
                d = e.diff(var)
            except NotDifferentiable:
                continue
            rt = parse(str(d))
            for p, q, t in [(0.2, 0.9, 0.1), (-1.3, 0.4, 0.8)]:
                assert rt(p, q, t) == pytest.approx(d(p, q, t), abs=1e-14)


def test_grad_pair():
    gp, gq = parse("p^2*q").grad()
    assert gp(2.0, 3.0) == 12.0
    assert gq(2.0, 3.0) == 4.0


def test_diff_bad_variable():
    from symcocycle.errors import ValidationError

    with pytest.raises(ValidationError):
        parse("p").diff("z")


# ------------------------------------------------------------------
# substitution and free variables
# ------------------------------------------------------------------


def test_substitute_expression():
    e = parse("sin(p) + t")
    s = e.substitute({"t": "1 - t"})
    assert s(0.0, 0.0, 0.25) == pytest.approx(math.sin(0.0) + 0.75)
    # original untouched
    assert e(0.0, 0.0, 0.25) == pytest.approx(0.25)


def test_substitute_number():
    e = parse("p*q").substitute({"q": 3})
    assert e(2.0, 99.0) == 6.0


def test_substitute_unknown_variable():
    from symcocycle.errors import ValidationError

    with pytest.raises(ValidationError):
        parse("p").substitute({"x": 1})


def test_free_vars():
    assert parse("p*q + 1").free_vars() == {"p", "q"}
    assert parse("sin(t)").free_vars() == {"t"}
    assert parse("2 + 2").free_vars() == set()


# ------------------------------------------------------------------
# printing round-trip
# ------------------------------------------------------------------


@pytest.mark.parametrize(
    "src",
    [
        "1 + 2*3",
        "(1 + 2)*3",
        "p - (q - t)",
        "p - q - t",
        "-p^2",
        "(-p)^2",
        "2^3^2",
        "(2^3)^2",
        "p/(q*t)",
        "p/q*t",
        "min(p, q, t)",
        "iflte(p, q, p^2, -q)",
        "-(p + q)",
        "abs(p)*sign(q)",
    ],
)
def test_print_parse_round_trip(src):
    e = parse(src)
    rt = parse(str(e))
    for p, q, t in [(0.7, -1.2, 0.3), (2.0, 2.0, -1.0), (-0.4, 0.9, 1.7)]:
        assert rt(p, q, t) == pytest.approx(e(p, q, t), abs=1e-14)


@st.composite
def exprs(draw, depth=0):
    if depth > 4:
        choice = draw(st.integers(0, 1))
    else:
        choice = draw(st.integers(0, 5))
    if choice == 0:
        return repr(
            draw(st.floats(min_value=0.01, max_value=9.9, allow_nan=False))
        )
    if choice == 1:
        return draw(st.sampled_from(["p", "q", "t"]))
    a = draw(exprs(depth=depth + 1))
    b = draw(exprs(depth=depth + 1))
    if choice == 2:
        op = draw(st.sampled_from([" + ", " - ", "*"]))
        return f"({a}){op}({b})"
    if choice == 3:
        fn = draw(st.sampled_from(["sin", "cos", "tanh", "abs"]))
        return f"{fn}({a})"
    if choice == 4:
        return f"-({a})"
    return f"min({a}, {b})"


@given(exprs())
@settings(max_examples=150, deadline=None)
def test_round_trip_property(src):
    e = parse(src)
    rt = parse(str(e))
    for p, q, t in [(0.5, -0.8, 0.2), (1.5, 2.5, -0.7)]:
        assert rt(p, q, t) == pytest.approx(e(p, q, t), abs=1e-12)


def test_repeated_parse_is_deterministic():
    a = parse("sin(p)*exp(-q^2) + min(p, q)")
    b = parse("sin(p)*exp(-q^2) + min(p, q)")
    assert a == b
    assert str(a) == str(b)
    assert hash(a) == hash(b)


def test_operator_helpers():
    e = as_expr("p") + as_expr("q") * 2 - 1
    assert e(3.0, 4.0) == 10.0
    assert (-as_expr("p"))(5.0, 0.0) == -5.0
