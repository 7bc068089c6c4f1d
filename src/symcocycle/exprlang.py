"""Expression language for scalar fields on a two-dimensional chart.

Hamiltonians, twist profiles and one-form components are all supplied as
small arithmetic expressions in the chart variables ``p`` and ``q`` and the
time variable ``t``.  The grammar is deliberately tiny::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := base ("^" factor)?
    base   := NUMBER | IDENT | IDENT "(" expr ("," expr)* ")"
            | "(" expr ")" | "-" base

``^`` is right-associative, and per the grammar a prefix minus binds to the
base it prefixes, so ``-2^2`` parses as ``(-2)^2``.  The constant ``pi`` and
the functions ``sin``, ``cos``, ``exp``, ``sqrt``, ``tanh``, ``abs``,
``sign``, ``min``, ``max`` and ``iflte`` are built in.  ``min``/``max``
accept two or more arguments (folded into nested binary calls);
``iflte(a, b, u, v)`` evaluates ``u`` where ``a <= b`` and ``v`` elsewhere,
and the unselected branch is never evaluated.  ``sign`` and ``iflte`` exist
so that the symbolic derivatives of ``abs``, ``min`` and ``max`` are again
expressions in the language: ``abs`` differentiates to ``sign(u)*u'`` with
``sign(0) = 0``, and ``min``/``max`` differentiate to the derivative of the
first argument on ties.

Evaluation accepts scalars or numpy arrays for ``p``, ``q``, ``t`` and is
plain IEEE double arithmetic.  Division by zero, even roots of negative
numbers and ``0`` raised to a negative power raise :class:`DomainError`
rather than producing silent NaNs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import NumericalError, ValidationError

__all__ = [
    "DomainError",
    "Expr",
    "NotDifferentiable",
    "ParseError",
    "UnknownIdentifierError",
    "as_expr",
    "parse",
]

VARIABLES = ("p", "q", "t")

# name -> arity; None means "two or more" (folded to nested binary calls)
FUNCTIONS = {
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "sqrt": 1,
    "tanh": 1,
    "abs": 1,
    "sign": 1,
    "min": None,
    "max": None,
    "iflte": 4,
}


class ParseError(ValidationError):
    """Malformed source text.  Carries the byte offset of the problem and
    the set of tokens that would have been accepted there."""

    def __init__(self, message, offset, expected=()):
        self.offset = int(offset)
        self.expected = frozenset(expected)
        detail = f"{message} at byte offset {self.offset}"
        if self.expected:
            detail += " (expected " + ", ".join(sorted(self.expected)) + ")"
        super().__init__(detail)


class UnknownIdentifierError(ValidationError):
    def __init__(self, name, offset):
        self.name = name
        self.offset = int(offset)
        super().__init__(
            f"unknown identifier {name!r} at byte offset {self.offset}; "
            f"variables are p, q, t and functions are "
            + ", ".join(sorted(FUNCTIONS))
        )


class DomainError(NumericalError):
    """Evaluation left the domain (division by zero, sqrt of a negative,
    zero to a negative power, negative base with fractional exponent)."""


class NotDifferentiable(ValidationError):
    """Raised for ``u^v`` with a variable exponent: the language has no
    logarithm, so no expression represents the derivative."""


# ============================================================
# AST
# ============================================================


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


_ZERO = Num(0.0)
_ONE = Num(1.0)


# ============================================================
# Lexer
# ============================================================

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
)
_WS_RE = re.compile(r"\s*")


def _byte_offset(src, pos):
    return len(src[:pos].encode("utf-8"))


def _lex(src):
    toks = []
    pos = 0
    n = len(src)
    while pos < n:
        pos = _WS_RE.match(src, pos).end()
        if pos >= n:
            break
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {src[pos]!r}",
                _byte_offset(src, pos),
                expected={"number", "identifier", "operator"},
            )
        kind = m.lastgroup
        toks.append((kind, m.group(), pos))
        pos = m.end()
    toks.append(("eof", "", n))
    return toks


# ============================================================
# Parser (recursive descent, mirrors the grammar above)
# ============================================================


class _Parser:
    def __init__(self, src):
        self.src = src
        self.toks = _lex(src)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def fail(self, message, tok, expected):
        raise ParseError(message, _byte_offset(self.src, tok[2]), expected)

    def at_op(self, *ops):
        kind, text, _ = self.peek()
        return kind == "op" and text in ops

    def expect_op(self, op):
        if not self.at_op(op):
            kind, text, pos = self.peek()
            got = text if text else "end of input"
            self.fail(f"expected {op!r} but found {got!r}", self.peek(), {op})
        return self.take()

    def parse(self):
        node = self.expr()
        kind, text, _ = self.peek()
        if kind != "eof":
            self.fail(
                f"unexpected trailing input {text!r}",
                self.peek(),
                {"end of input", "+", "-", "*", "/", "^"},
            )
        return node

    def expr(self):
        node = self.term()
        while self.at_op("+", "-"):
            op = self.take()[1]
            node = Bin(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.at_op("*", "/"):
            op = self.take()[1]
            node = Bin(op, node, self.factor())
        return node

    def factor(self):
        node = self.base()
        if self.at_op("^"):
            self.take()
            node = Bin("^", node, self.factor())
        return node

    def base(self):
        kind, text, pos = self.peek()
        if kind == "num":
            self.take()
            return Num(float(text))
        if kind == "ident":
            self.take()
            if self.at_op("("):
                return self.call(text, pos)
            if text in VARIABLES:
                return Var(text)
            if text == "pi":
                return Num(math.pi)
            raise UnknownIdentifierError(text, _byte_offset(self.src, pos))
        if kind == "op" and text == "(":
            self.take()
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "op" and text == "-":
            self.take()
            return Neg(self.base())
        got = text if text else "end of input"
        self.fail(
            f"expected a value but found {got!r}",
            self.peek(),
            {"number", "identifier", "(", "-"},
        )

    def call(self, name, name_pos):
        if name not in FUNCTIONS:
            raise UnknownIdentifierError(name, _byte_offset(self.src, name_pos))
        self.expect_op("(")
        args = [self.expr()]
        while self.at_op(","):
            self.take()
            args.append(self.expr())
        self.expect_op(")")
        arity = FUNCTIONS[name]
        if arity is None:
            if len(args) < 2:
                self.fail(
                    f"{name}() expects at least 2 arguments, got {len(args)}",
                    ("op", name, name_pos),
                    {","},
                )
            # fold n-ary min/max left so ties still pick the leftmost argument
            return reduce(lambda a, b: Call(name, (a, b)), args)
        if len(args) != arity:
            self.fail(
                f"{name}() expects {arity} argument(s), got {len(args)}",
                ("op", name, name_pos),
                {"argument list of length %d" % arity},
            )
        return Call(name, tuple(args))


# ============================================================
# Compilation to numpy closures
# ============================================================


def _compile(node):
    if isinstance(node, Num):
        v = node.value
        return lambda p, q, t: v
    if isinstance(node, Var):
        if node.name == "p":
            return lambda p, q, t: p
        if node.name == "q":
            return lambda p, q, t: q
        return lambda p, q, t: t
    if isinstance(node, Neg):
        f = _compile(node.arg)
        return lambda p, q, t: -f(p, q, t)
    if isinstance(node, Bin):
        fa = _compile(node.lhs)
        fb = _compile(node.rhs)
        op = node.op
        if op == "+":
            return lambda p, q, t: fa(p, q, t) + fb(p, q, t)
        if op == "-":
            return lambda p, q, t: fa(p, q, t) - fb(p, q, t)
        if op == "*":
            return lambda p, q, t: fa(p, q, t) * fb(p, q, t)
        if op == "/":

            def _div(p, q, t):
                num = fa(p, q, t)
                den = fb(p, q, t)
                if np.any(np.equal(den, 0.0)):
                    raise DomainError("division by zero")
                return num / den

            return _div

        def _pow(p, q, t):
            base = fa(p, q, t)
            expo = fb(p, q, t)
            b = np.asarray(base, dtype=float)
            e = np.asarray(expo, dtype=float)
            fractional = np.not_equal(e, np.floor(e))
            bad = ((b < 0.0) & fractional) | ((b == 0.0) & (e < 0.0))
            if np.any(bad):
                raise DomainError(
                    "invalid power: negative base with fractional exponent "
                    "or zero base with negative exponent"
                )
            return np.power(base, expo)

        return _pow
    return _compile_call(node)


def _compile_call(node):
    fn = node.fn
    if fn == "iflte":
        ca, cb, cu, cv = (_compile(a) for a in node.args)

        def _iflte(p, q, t):
            cond = np.less_equal(ca(p, q, t), cb(p, q, t))
            if np.ndim(cond) == 0:
                return cu(p, q, t) if cond else cv(p, q, t)
            shape = cond.shape
            pb = np.broadcast_to(np.asarray(p, dtype=float), shape)
            qb = np.broadcast_to(np.asarray(q, dtype=float), shape)
            tb = np.broadcast_to(np.asarray(t, dtype=float), shape)
            out = np.empty(shape, dtype=float)
            if cond.any():
                out[cond] = cu(pb[cond], qb[cond], tb[cond])
            rest = ~cond
            if rest.any():
                out[rest] = cv(pb[rest], qb[rest], tb[rest])
            return out

        return _iflte
    if fn in ("min", "max"):
        ca, cb = (_compile(a) for a in node.args)
        ufunc = np.minimum if fn == "min" else np.maximum
        return lambda p, q, t: ufunc(ca(p, q, t), cb(p, q, t))
    (arg,) = node.args
    cu = _compile(arg)
    if fn == "sqrt":

        def _sqrt(p, q, t):
            u = cu(p, q, t)
            if np.any(np.less(u, 0.0)):
                raise DomainError("sqrt of a negative number")
            return np.sqrt(u)

        return _sqrt
    ufunc = {
        "sin": np.sin,
        "cos": np.cos,
        "exp": np.exp,
        "tanh": np.tanh,
        "abs": np.abs,
        "sign": np.sign,
    }[fn]
    return lambda p, q, t: ufunc(cu(p, q, t))


# ============================================================
# Constant-folding constructors (keep derivative trees small)
# ============================================================


def _is_num(node, value=None):
    return isinstance(node, Num) and (value is None or node.value == value)


def _add(a, b):
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if _is_num(a) and _is_num(b):
        return Num(a.value + b.value)
    return Bin("+", a, b)


def _sub(a, b):
    if _is_num(b, 0.0):
        return a
    if _is_num(a) and _is_num(b):
        return Num(a.value - b.value)
    if _is_num(a, 0.0):
        return _neg(b)
    return Bin("-", a, b)


def _neg(a):
    if _is_num(a):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _mul(a, b):
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return _ZERO
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b):
        return Num(a.value * b.value)
    return Bin("*", a, b)


def _div_node(a, b):
    if _is_num(a, 0.0):
        return _ZERO
    if _is_num(b, 1.0):
        return a
    return Bin("/", a, b)


def _pow_node(a, b):
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return _ONE
    if _is_num(a) and _is_num(b):
        try:
            v = float(a.value**b.value)
        except (OverflowError, ValueError, ZeroDivisionError):
            return Bin("^", a, b)
        if math.isfinite(v) and not isinstance(v, complex):
            return Num(v)
    return Bin("^", a, b)


# ============================================================
# Symbolic differentiation
# ============================================================


def _free_vars(node):
    if isinstance(node, Num):
        return frozenset()
    if isinstance(node, Var):
        return frozenset((node.name,))
    if isinstance(node, Neg):
        return _free_vars(node.arg)
    if isinstance(node, Bin):
        return _free_vars(node.lhs) | _free_vars(node.rhs)
    return frozenset().union(*(_free_vars(a) for a in node.args))


def _diff(node, var):
    if isinstance(node, Num):
        return _ZERO
    if isinstance(node, Var):
        return _ONE if node.name == var else _ZERO
    if isinstance(node, Neg):
        return _neg(_diff(node.arg, var))
    if isinstance(node, Bin):
        a, b = node.lhs, node.rhs
        da = _diff(a, var)
        if node.op == "+":
            return _add(da, _diff(b, var))
        if node.op == "-":
            return _sub(da, _diff(b, var))
        db = _diff(b, var)
        if node.op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if node.op == "/":
            return _div_node(_sub(_mul(da, b), _mul(a, db)), _pow_node(b, Num(2.0)))
        # power rule; a variable exponent would need a logarithm, which the
        # language does not have
        if var in _free_vars(b):
            raise NotDifferentiable(
                f"cannot differentiate a power with respect to {var!r} when "
                f"the exponent depends on it"
            )
        return _mul(_mul(b, _pow_node(a, _sub(b, _ONE))), da)
    return _diff_call(node, var)


def _diff_call(node, var):
    fn = node.fn
    if fn == "iflte":
        a, b, u, v = node.args
        return Call("iflte", (a, b, _diff(u, var), _diff(v, var)))
    if fn == "min":
        a, b = node.args
        return Call("iflte", (a, b, _diff(a, var), _diff(b, var)))
    if fn == "max":
        a, b = node.args
        return Call("iflte", (b, a, _diff(a, var), _diff(b, var)))
    (u,) = node.args
    du = _diff(u, var)
    if fn == "sin":
        outer = Call("cos", (u,))
    elif fn == "cos":
        outer = _neg(Call("sin", (u,)))
    elif fn == "exp":
        outer = Call("exp", (u,))
    elif fn == "tanh":
        outer = _sub(_ONE, _pow_node(Call("tanh", (u,)), Num(2.0)))
    elif fn == "abs":
        outer = Call("sign", (u,))
    elif fn == "sign":
        return _ZERO
    elif fn == "sqrt":
        return _div_node(du, _mul(Num(2.0), Call("sqrt", (u,))))
    else:  # pragma: no cover - keep the table and FUNCTIONS in sync
        raise NotDifferentiable(f"no derivative rule for {fn}()")
    return _mul(outer, du)


def _substitute(node, mapping):
    if isinstance(node, Num):
        return node
    if isinstance(node, Var):
        repl = mapping.get(node.name)
        return node if repl is None else repl
    if isinstance(node, Neg):
        return Neg(_substitute(node.arg, mapping))
    if isinstance(node, Bin):
        return Bin(
            node.op, _substitute(node.lhs, mapping), _substitute(node.rhs, mapping)
        )
    return Call(node.fn, tuple(_substitute(a, mapping) for a in node.args))


# ============================================================
# Printing.  parse(str(e)) evaluates identically to e.
# ============================================================

_LVL_ADD, _LVL_MUL, _LVL_POW, _LVL_BASE = 1, 2, 3, 4


def _level(node):
    if isinstance(node, Bin):
        if node.op in "+-":
            return _LVL_ADD
        if node.op in "*/":
            return _LVL_MUL
        return _LVL_POW
    return _LVL_BASE


def _render(node, min_level):
    if isinstance(node, Num):
        s = repr(node.value)
    elif isinstance(node, Var):
        s = node.name
    elif isinstance(node, Neg):
        s = "-" + _render(node.arg, _LVL_BASE)
    elif isinstance(node, Call):
        s = node.fn + "(" + ", ".join(_render(a, _LVL_ADD) for a in node.args) + ")"
    else:
        lvl = _level(node)
        if node.op == "^":
            # left operand of ^ must be a base; right associates
            s = _render(node.lhs, _LVL_BASE) + "^" + _render(node.rhs, _LVL_POW)
        else:
            s = (
                _render(node.lhs, lvl)
                + " "
                + node.op
                + " "
                + _render(node.rhs, lvl + 1)
            )
    if _level(node) < min_level:
        return "(" + s + ")"
    return s


# ============================================================
# Public wrapper
# ============================================================


class Expr:
    """An immutable parsed expression in (p, q, t)."""

    __slots__ = ("root", "_fn", "_vars")

    def __init__(self, root):
        self.root = root
        self._fn = None
        self._vars = None

    @property
    def fn(self):
        """Raw compiled closure ``(p, q, t) -> value`` without the errstate
        guard; hot loops use this directly."""
        if self._fn is None:
            self._fn = _compile(self.root)
        return self._fn

    def __call__(self, p, q, t=0.0):
        fn = self.fn
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            out = fn(p, q, t)
        if np.ndim(out) == 0:
            return float(out)
        return out

    def diff(self, var):
        if var not in VARIABLES:
            raise ValidationError(f"cannot differentiate with respect to {var!r}")
        return Expr(_diff(self.root, var))

    def grad(self):
        """Spatial gradient ``(d/dp, d/dq)`` as a pair of expressions."""
        return self.diff("p"), self.diff("q")

    def substitute(self, mapping):
        resolved = {}
        for name, value in mapping.items():
            if name not in VARIABLES:
                raise ValidationError(f"cannot substitute unknown variable {name!r}")
            resolved[name] = as_expr(value).root
        return Expr(_substitute(self.root, resolved))

    def free_vars(self):
        if self._vars is None:
            self._vars = _free_vars(self.root)
        return self._vars

    def __str__(self):
        return _render(self.root, _LVL_ADD)

    def __repr__(self):
        return f"Expr({str(self)!r})"

    def __eq__(self, other):
        return isinstance(other, Expr) and self.root == other.root

    def __hash__(self):
        return hash(self.root)

    def __neg__(self):
        return Expr(_neg(self.root))

    def __add__(self, other):
        return Expr(_add(self.root, as_expr(other).root))

    def __sub__(self, other):
        return Expr(_sub(self.root, as_expr(other).root))

    def __mul__(self, other):
        return Expr(_mul(self.root, as_expr(other).root))


def parse(src):
    """Parse source text into an :class:`Expr`.

    Raises :class:`ParseError` (with byte offset and expected-token set) on
    malformed input and :class:`UnknownIdentifierError` for names outside
    the variable/function whitelist.
    """
    if not isinstance(src, str):
        raise ValidationError(f"expected an expression string, got {type(src)!r}")
    return Expr(_Parser(src).parse())


def as_expr(x):
    """Coerce a string, number or Expr to an Expr."""
    if isinstance(x, Expr):
        return x
    if isinstance(x, str):
        return parse(x)
    if isinstance(x, (int, float)):
        return Expr(Num(float(x)))
    raise ValidationError(f"cannot interpret {type(x)!r} as an expression")
