import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import closure_oracle
from symcocycle import exprlang
from symcocycle.exprlang import (
    DomainError,
    Expr,
    NotDifferentiable,
    ParseError,
    UnknownIdentifierError,
    as_expr,
    fused,
    parse,
)
from symcocycle.verify import (
    HINGE_BUMP,
    HINGE_BUMP_DECAY,
    HINGE_BUMP_OFF,
    LEFT_HINGE,
    QUAD_PROFILE,
    RIGHT_HINGE,
    SINE_PROFILE,
)

DISJOINT_PAIR = json.loads(
    (Path(__file__).resolve().parent.parent / "scenarios" / "disjoint_pair.json").read_text()
)["hamiltonians"]


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
    [
        "1/0", "1/(p - p)", "sqrt(-1)", "sqrt(p - 1)", "0^-1", "(-2)^0.5",
        "p^-2", "(p - 1)^0.5", "p/(q - q)",
    ],
)
def test_domain_errors(src):
    with pytest.raises(DomainError):
        parse(src)(0.0, 0.0)


def test_zero_to_a_variable_negative_power():
    e = parse("p^q")
    with pytest.raises(DomainError):
        e(0.0, -1.0)
    with pytest.raises(DomainError):
        e(np.array([1.0, 0.0]), np.array([2.0, -0.5]))
    assert e(0.0, 2.0) == 0.0


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


def test_diff_keeps_a_complex_constant_power_unfolded():
    # (-2)^-0.5 is complex in Python; the derivative keeps the power, and
    # evaluating it is a domain error, not a TypeError while folding
    d = parse("t^0.5").substitute({"t": -2}).diff("p")
    assert d(1.0, 0.0) == 0.0
    d = parse("t^0.5*p").substitute({"t": -2}).diff("p")
    with pytest.raises(DomainError):
        d(1.0, 0.0)


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


@pytest.mark.parametrize(
    "built, parsed",
    [
        (lambda: parse("p*q").diff("p"), "q"),
        (lambda: parse("sin(p)").diff("p"), "cos(p)"),
        (lambda: parse("min(p, q)*2").substitute({"q": "-q"}), "min(p, -q)*2"),
        (lambda: parse("p^2 - t").substitute({"t": 1.5}), "p^2 - 1.5"),
    ],
)
def test_built_trees_equal_parsed_ones(built, parsed):
    # the gate keys cocycles by primitive, so equal trees from any source
    # must compare and hash equal
    a, b = built(), parse(parsed)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize(
    "first, second",
    [
        ("p - q", "p / q"),
        ("min(p, q)", "max(p, q)"),
        ("-p", "abs(p)"),
        ("p", "q"),
        ("1", "2"),
    ],
)
def test_same_operands_under_other_ops_are_unequal(first, second):
    assert parse(first) != parse(second)
    assert len({parse(first), parse(second)}) == 2


def test_operator_helpers():
    e = as_expr("p") + as_expr("q") * 2 - 1
    assert e(3.0, 4.0) == 10.0
    assert (-as_expr("p"))(5.0, 0.0) == -5.0


# ------------------------------------------------------------------
# generated code against the closure-tree oracle
# ------------------------------------------------------------------

# "t" becomes a negative constant exponent when a number is substituted
EXPONENTS = ["0", "1", "2", "3", "4", "-1", "-2", "-3", "0.5", "1.5", "(1/3)", "-0.5", "t"]


@st.composite
def full_exprs(draw, depth=0):
    """Source text over the whole grammar, domain hazards included."""
    if depth > 3:
        choice = draw(st.integers(0, 1))
    else:
        choice = draw(st.integers(0, 9))
    if choice == 0:
        return repr(draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.25, 3.7])))
    if choice == 1:
        return draw(st.sampled_from(["p", "q", "t"]))
    a = draw(full_exprs(depth=depth + 1))
    if choice == 2:
        b = draw(full_exprs(depth=depth + 1))
        op = draw(st.sampled_from([" + ", " - ", "*", "/"]))
        return f"({a}){op}({b})"
    if choice == 3:
        if draw(st.booleans()):
            return f"({a})^{draw(st.sampled_from(EXPONENTS))}"
        return f"({a})^({draw(full_exprs(depth=depth + 1))})"
    if choice == 4:
        fn = draw(st.sampled_from(["sin", "cos", "tanh", "abs", "exp", "sqrt", "sign"]))
        return f"{fn}({a})"
    if choice == 5:
        return f"-({a})"
    if choice in (6, 7):
        rest = draw(st.lists(full_exprs(depth=depth + 1), min_size=1, max_size=2))
        return f"{draw(st.sampled_from(['min', 'max']))}({', '.join([a] + rest)})"
    if choice == 8:
        # the same subexpression twice, for the shared-value path
        return f"({a})*({a}) + sin({a})"
    b, u, v = (draw(full_exprs(depth=depth + 1)) for _ in range(3))
    return f"iflte({a}, {b}, {u}, {v})"


POINTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0])
ARRAY_P = np.array([-2.0, -1.0, -0.0, 0.0, 0.25, 1.0, 2.5])
ARRAY_Q = np.array([1.0, 0.0, -1.5, 2.0, -0.0, 0.75, -3.0])


def _outcome(fn, p, q, t):
    """What an evaluation produced: the DomainError message, or the type,
    shape and bytes of every returned value."""
    with np.errstate(all="ignore"):
        try:
            out = fn(p, q, t)
        except DomainError as e:
            return "DomainError", str(e)
    values = out if isinstance(out, tuple) else (out,)
    return [(type(v), np.shape(v), np.asarray(v).tobytes()) for v in values]


@given(
    full_exprs(),
    st.sampled_from([None, "p", "q"]),
    st.sampled_from([None, -2.0, -1.0, 0.0, 2.0]),
    POINTS, POINTS, POINTS,
)
@settings(max_examples=400, deadline=None)
@example("(p)^t", None, -2.0, 0.0, 0.0, 0.0)
@example("(p - 1)^t", "p", 0.5, 1.0, 0.0, 0.0)
def test_generated_code_matches_closure_oracle(src, var, t_value, p, q, t):
    # substitution and derivatives make constants the parser never does:
    # negative numbers (also as exponents) and -0.0
    e = parse(src)
    if t_value is not None:
        e = e.substitute({"t": t_value})
    if var is not None:
        try:
            e = e.diff(var)
        except NotDifferentiable:
            pass
    root = e.root
    oracle = closure_oracle._compile(root)
    generated = Expr(root).fn
    for args in [(p, q, t), (ARRAY_P, ARRAY_Q, t), (ARRAY_P, q, ARRAY_Q)]:
        assert _outcome(generated, *args) == _outcome(oracle, *args), args


HAMILTONIANS = [
    "0.2*exp(-0.6*(p^2 + q^2))",
    "0.1*max(0, 1 - ((p + 2)^2 + q^2)/2.25)^4",
    "0.05*max(0, 1 - (p^2 + q^2)/6)^4",
    "0.1*exp(-0.8*p^2)*(1 - cos(q))",
    "p^2/2 + q^2/2 + t*sin(p*q)",
    "sqrt(1 + p^2)*abs(q) + min(p, q, t)",
    "tanh(p - q)/(2 + cos(q)) + p^-2",
]


@pytest.mark.parametrize("src", HAMILTONIANS)
def test_fused_field_equals_its_components(src):
    F = parse(src)
    xp, xq = F.diff("q"), -F.diff("p")
    field = fused(xp, xq).fn
    P, Q = np.meshgrid(np.linspace(-3, 3, 17), np.linspace(-3, 3, 19), indexing="ij")
    oracle = [closure_oracle._compile(c.root) for c in (xp, xq)]
    for args in [(P, Q, 0.3), (0.7, -1.1, 0.0), (P[:, :1], Q[:1, :], 1.0)]:
        want = _in_turn(_outcome(xp.fn, *args), _outcome(xq.fn, *args))
        assert _outcome(field, *args) == want
        assert _in_turn(*(_outcome(f, *args) for f in oracle)) == want


def _in_turn(first, second):
    """Outcome of evaluating two expressions one after the other."""
    for outcome in (first, second):
        if outcome[0] == "DomainError":
            return outcome
    return first + second


def test_fused_field_raises_where_a_component_does():
    # p^-2 differentiates to a power that the check rejects at p = 0
    F = parse("q + p^-2")
    field = fused(F.diff("q"), -F.diff("p"))
    with pytest.raises(DomainError):
        field(np.array([1.0, 0.0]), 0.0)


@pytest.mark.parametrize(
    "src, checked",
    [
        ("p^2 + p^3 + p^0 + p/2.25", False),
        ("(p - 1)^0.5", True),
        ("p^-2", True),
        ("p^q", True),
        ("p/(q - q)", True),
        ("p/0", True),
        ("sqrt(p^2 + 1)", True),
    ],
)
def test_checks_only_where_they_can_fire(src, checked):
    source, _ = exprlang._source(parse(src).root)
    assert any(f"{name}(" in source for name in ("div", "pow", "sqrt")) == checked


def test_deep_nesting_compiles():
    # a 300-term sum nests deeper than Python's parser allows in one line
    e = parse(" + ".join(f"{k}*p" for k in range(300)))
    x = np.linspace(-1.0, 1.0, 5)
    oracle = closure_oracle._compile(e.root)
    assert _outcome(e.fn, x, x, 0.0) == _outcome(oracle, x, x, 0.0)


def test_shared_subexpression_is_computed_once():
    # the bump's exp appears in both field components
    F = parse("0.2*exp(-0.6*(p^2 + q^2))")
    source, _ = exprlang._source(fused(F.diff("q"), -F.diff("p")).root)
    assert source.count("exp(") == 1


def _iflte_calls(monkeypatch, expr, *args):
    """How many times one evaluation of a freshly generated ``expr``
    calls the runtime's ``iflte``."""
    calls = []

    def counted(*a):
        calls.append(a[:2])
        return exprlang._iflte(*a)

    monkeypatch.setitem(exprlang._RUNTIME, "iflte", counted)
    Expr(expr.root).fn(*args)
    return len(calls)


def test_hinge_fields_make_no_iflte_call(monkeypatch):
    # no branch of the hinge's field or tangent field can raise: each
    # iflte computes both branches and selects between them inline
    F = parse("0.1*max(0, 1 - ((p + 2)^2 + q^2)/2.25)^4")
    xp, xq = F.diff("q"), -F.diff("p")
    P, Q = np.meshgrid(np.linspace(-4, 0, 7), np.linspace(-2, 2, 6), indexing="ij")
    assert _iflte_calls(monkeypatch, fused(xp, xq), P, Q, 0.0) == 0
    tangent = fused(xp, xq, xp.diff("p"), xp.diff("q"), xq.diff("p"))
    assert _iflte_calls(monkeypatch, tangent, P, Q, 0.0) == 0
    assert _iflte_calls(monkeypatch, tangent, -2.0, 0.5, 0.0) == 0


def test_iflte_whose_branch_can_raise_keeps_its_own_call(monkeypatch):
    x = np.array([-1.0, 0.5, 2.0])
    assert _iflte_calls(monkeypatch, parse("iflte(p, 0, 1/q, 2)"), x, x, 0.0) == 1
    assert _iflte_calls(monkeypatch, parse("iflte(p, 0, q/4, 2)"), x, x, 0.0) == 0
    # a safe iflte whose branch holds a masked one is masked too, and the
    # inner one runs on the outer one's selected points
    nested = parse("iflte(p, 1, iflte(q, 0, 2, 1/q), 3)")
    assert _iflte_calls(monkeypatch, nested, x, x, 0.0) == 2
    oracle = closure_oracle._compile(nested.root)
    assert _outcome(nested.fn, x, x, 0.0) == _outcome(oracle, x, x, 0.0)


# branches on both sides of a comparison A <= 0; the last has a division
# by a variable, so its iflte is masked
UNIFORM_BRANCHES = [
    ("exp(-0.6*(p^2 + q^2))*q", "tanh(p)*(1 + q^2)"),
    ("3", "p"),
    ("p", "q"),
    ("-p", "-0.0"),
    ("exp(-0.6*(p^2 + q^2))*q", "tanh(p)/(1 + q^2)"),
]


@pytest.mark.parametrize("shapes", [((7,), (7,)), ((4, 1), (1, 3)), ((5,), ())])
@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_uniform_branch_equals_select_and_place(shapes, side):
    # every point on one side of the comparison: both the inline select
    # and the masked call give the closure oracle's select-and-place bits,
    # in a float array of their own
    rng = np.random.default_rng(7)
    p = rng.uniform(-2.0, 2.0, shapes[0])
    q = rng.uniform(-2.0, 2.0, shapes[1])
    shape = np.broadcast(p, q).shape
    for u, v in UNIFORM_BRANCHES:
        e = parse(f"iflte({side}*(1 + abs(p) + abs(q)), 0, {u}, {v})")
        got = e.fn(p, q, 0.0)
        assert _outcome(e.fn, p, q, 0.0) == _outcome(closure_oracle._compile(e.root), p, q, 0.0)
        assert type(got) is np.ndarray and got.dtype == float and got.shape == shape
        assert not np.shares_memory(got, p) and not np.shares_memory(got, q)


def test_uniform_constant_branch_is_a_fresh_float_array():
    p = np.array([-1.0, -2.0, -3.0])
    for text, want in (("iflte(p, 0, 3, p)", 3.0), ("iflte(p, 0, -0.0*q, 2)", -0.0)):
        e = parse(text)
        first, second = e.fn(p, 0.5, 0.0), e.fn(p, 0.5, 0.0)
        assert type(first) is np.ndarray and first.dtype == float
        assert first.shape == p.shape
        assert np.full(3, want).tobytes() == first.tobytes()
        assert first is not second
        first[0] = 7.0
        assert second[0] == want


def test_uniform_branch_returns_no_argument_itself():
    # a branch that is a variable hands back its argument; the result is
    # a copy of it, whether every point or some take that branch, and
    # whether the iflte is inline or masked
    p = np.array([-1.0, -2.0, 0.0])
    q = np.array([4.0, 5.0, 6.0])
    for text, src in (("iflte(p, 0, p, q)", p), ("iflte(q, 0, p, q)", q),
                      ("iflte(p, 1, p, 1/q)", p), ("iflte(q, 1, 1/p, q)", q)):
        out = parse(text).fn(p, q, 0.0)
        assert out.tobytes() == src.tobytes()
        assert not np.shares_memory(out, p) and not np.shares_memory(out, q)
    for text in ("iflte(p, -1.5, p, q)", "iflte(p, -1.5, q, p)"):
        out = parse(text).fn(p, q, 0.0)
        assert not np.shares_memory(out, p) and not np.shares_memory(out, q)


def test_raising_branch_runs_only_on_the_points_it_selects():
    e = parse("iflte(p, 0, 1, 1/0)")
    oracle = closure_oracle._compile(e.root)
    below = np.array([-1.0, -0.0, 0.0, -3.5])
    for p in (below, below[:, None], -2.0, -0.0):
        assert _outcome(e.fn, p, 0.0, 0.0) == _outcome(oracle, p, 0.0, 0.0)
        assert np.asarray(e.fn(p, 0.0, 0.0)).tobytes() == np.ones_like(p).tobytes()
    for p in (np.array([-1.0, 0.5]), np.array([np.nan, -1.0]), 2.0):
        assert _outcome(e.fn, p, 0.0, 0.0) == _outcome(oracle, p, 0.0, 0.0)
        with pytest.raises(DomainError):
            e.fn(p, 0.0, 0.0)


def test_nan_comparisons_take_the_other_branch():
    e = parse("iflte(p, 0, 1, 2)")
    nan = np.nan
    assert e.fn(np.array([nan, nan]), 0.0, 0.0).tolist() == [2.0, 2.0]
    assert e.fn(np.array([nan, -1.0, 1.0]), 0.0, 0.0).tolist() == [2.0, 1.0, 2.0]
    # the shielded branch is not evaluated on a nan comparison either
    shielded = parse("iflte(p, 0, 1/q, 5)")
    assert shielded.fn(np.array([nan, nan]), 0.0, 0.0).tolist() == [5.0, 5.0]
    with pytest.raises(DomainError):
        shielded.fn(np.array([nan, -1.0]), 0.0, 0.0)


def test_empty_batch_evaluates_to_empty_arrays():
    # no point selects either branch; the comparison's shape is kept
    for text in ("iflte(p, 0, 1, 2)", "iflte(p, q, p^2, -q)"):
        out = parse(text).fn(np.array([]), np.array([]), 0.0)
        assert type(out) is np.ndarray and out.shape == (0,)
    F = parse("0.05*max(0, 1 - (p^2 + q^2)/6)^4")
    field = fused(F.diff("q"), -F.diff("p")).fn(np.zeros((0, 3)), 0.0, 0.0)
    assert [x.shape for x in field] == [(0, 3), (0, 3)]


# the hinges of the gate and of disjoint_pair, and p = +-1 where the
# profiles' clamps kink, p = -3.5, -0.5, 0.5, 3.5 where the pair's hinges
# do (on q = 0), +-0.0 and a nan
HINGES = [HINGE_BUMP, HINGE_BUMP_OFF, HINGE_BUMP_DECAY, LEFT_HINGE, RIGHT_HINGE,
          DISJOINT_PAIR["a"]["expression"], DISJOINT_PAIR["b"]["expression"]]
KINKS = np.array([-4.0, -3.5, -2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0, 2.5, 3.5, np.nan])
HINGE_POINTS = [
    (*np.meshgrid(KINKS, KINKS[::-1], indexing="ij"), t) for t in (0.0, 0.3, 1.0)
] + [(-0.5, 0.0, 0.0), (1.0, -0.0, 0.3), (-0.0, 2.5, 0.0), (np.nan, 0.0, 0.0)]


def _same_as_oracle(fn, parts, args):
    """Whether ``fn`` gives the closure oracle's values of ``parts`` at
    ``args``, each of the oracle's type and shape, bit for bit but for a
    nan's sign, which a folded negation may flip."""
    with np.errstate(all="ignore"):
        got = fn(*args)
        want = [closure_oracle._compile(x.root)(*args) for x in parts]
    got = got if isinstance(got, tuple) else (got,)
    return len(got) == len(want) and all(
        type(g) is type(w) and np.shape(g) == np.shape(w) and _same_bits_nan_aside(g, w)
        for g, w in zip(got, want))


@pytest.mark.parametrize("src", HINGES)
def test_hinge_fields_equal_the_closure_oracle(src):
    F = parse(src)
    xp, xq = F.diff("q"), -F.diff("p")
    tangent = (xp, xq, xp.diff("p"), xp.diff("q"), xq.diff("p"))
    for args in HINGE_POINTS:
        assert _same_as_oracle(fused(xp, xq).fn, (xp, xq), args), args
        assert _same_as_oracle(fused(*tangent).fn, tangent, args), args


@pytest.mark.parametrize("src", [QUAD_PROFILE, SINE_PROFILE])
def test_profile_slopes_equal_the_closure_oracle(src):
    slope = parse(src).diff("p")
    for p in (KINKS, KINKS[:, None], 1.0, -1.0, -0.0, np.nan):
        assert _same_as_oracle(slope.fn, (slope,), (p, 0.0, 0.0)), p


# ------------------------------------------------------------------
# negated products: the sign folded into the constant
# ------------------------------------------------------------------


class _Unfolded(exprlang._Codegen):
    """The code generator with every negation kept."""

    def folded(self, node):
        return node


def _unfolded(root):
    """The generated function of ``root`` with every negation kept."""
    gen = _Unfolded()
    gen.function(root, "fn")
    exec(compile("\n\n".join(gen.blocks) + "\n", "<unfolded>", "exec"), gen.namespace)
    return gen.namespace["fn"]


@st.composite
def negated_products(draw, depth=0):
    """Source text rich in negated products, down chains of products,
    with and without a constant factor."""
    choice = draw(st.integers(0, 1 if depth > 3 else 6))
    if choice == 0:
        return repr(draw(st.sampled_from([0.0, 0.5, 2.0, 3.7, 1e-310, 1e308])))
    if choice == 1:
        return draw(st.sampled_from(["p", "q", "t"]))
    a, b = (draw(negated_products(depth=depth + 1)) for _ in range(2))
    if choice in (2, 3):
        return f"-(({a})*({b}))"
    if choice == 4:
        return f"({a}){draw(st.sampled_from([' + ', ' - ', '*']))}({b})"
    if choice == 5:
        return f"-(({a}) + ({b}))"
    return f"{draw(st.sampled_from(['sin', 'exp', 'abs']))}({a})"


SPECIAL_VALUES = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                           2.2e-308, -1.5, 0.75, 3.0, 1e300, -1e300])


def _same_bits_nan_aside(a, b):
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.array_equal(
        a[~nan].view(np.uint64), b[~nan].view(np.uint64))


@given(negated_products(), st.sampled_from([None, "p", "q"]))
@settings(max_examples=300, deadline=None)
@example("-((2.0)*(p))", None)
@example("-((p)*((3.7)*(q)))", "q")
def test_folded_signs_keep_every_bit_but_a_nan_s_sign(src, var):
    e = parse(src)
    if var is not None:
        e = e.diff(var)
    folded, unfolded = Expr(e.root).fn, _unfolded(e.root)
    P, Q = np.meshgrid(SPECIAL_VALUES, SPECIAL_VALUES[::-1], indexing="ij")
    for args in [(P, Q, -0.0), (P, Q, np.inf), (-0.0, 5e-324, 0.75)]:
        with np.errstate(all="ignore"):
            got, want = folded(*args), unfolded(*args)
        assert type(got) is type(want)
        assert _same_bits_nan_aside(got, want), args


def test_negated_products_with_a_constant_lose_their_negation():
    assert "(-" not in exprlang._source(parse("-(2*p)").root)[0]
    assert "(-" not in exprlang._source(parse("-(p*(q*3))").root)[0]
    # a negated sum keeps it: -(a + b) is +0.0 where (-a) - b is -0.0
    assert "(-" in exprlang._source(parse("-(p + q)").root)[0]
    F = parse("0.1*exp(-(0.5*(p - 0.3)^2 + 0.6*(q + 0.2)^2))")
    xp, xq = F.diff("q"), -F.diff("p")
    root = fused(xp, xq, xp.diff("p"), xp.diff("q"), xq.diff("p")).root
    gen = _Unfolded()
    gen.function(root, "fn")
    # the exponent's negated sum is the one negation left
    assert gen.blocks[0].count("(-") == 5
    assert exprlang._source(root)[0].count("(-") == 1
