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
and a branch that can raise is evaluated only on the points it selects.
``sign`` and ``iflte`` exist so that the symbolic derivatives of ``abs``,
``min`` and ``max`` are again expressions in the language: ``abs``
differentiates to ``sign(u)*u'`` with ``sign(0) = 0``, and ``min``/``max``
differentiate to the derivative of the first argument on ties.

Evaluation accepts scalars or numpy arrays for ``p``, ``q``, ``t`` and is
plain IEEE double arithmetic.  Division by zero, the square root of a
negative number, a negative base with a fractional exponent and ``0``
raised to a negative power raise :class:`DomainError` rather than
producing silent NaNs.

On its first evaluation an expression is compiled into one straight-line
Python function of numpy calls.  A subexpression that occurs more than
once is computed once, and a domain check is made only where it can
fire: a power with a constant nonnegative integer exponent is not checked
(a square is computed as ``b*b``), nor is a division by a nonzero
constant, while every other ``/``, ``^`` and ``sqrt`` is.  A negated
product with a constant factor is computed with the constant negated
instead, the same bits for one operation fewer.  An ``iflte`` whose
branches cannot raise computes both on every point and selects between
them; one with a branch that can raise calls each branch on the points
it selects.  ``fused`` compiles several expressions into one function
that returns the tuple of their values; flows evaluate both components
of their vector field that way.
"""

from __future__ import annotations

import math
import re
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
    "fused",
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


class Node:
    """One node of an expression tree.

    ``op`` is ``"num"`` or ``"var"`` for a leaf, whose ``value`` is the
    number or the variable name.  Every other node has its operands in
    ``args``, and its ``op`` is ``"neg"``, a binary operator, a function
    name, or ``"pair"``: the root of a fused expression, whose value is the
    tuple of the values of its parts and which only the code generator
    accepts.  Trees of equal structure compare and hash equal.  (A plain
    class: a dataclass would add about 1 ms to every import of the
    package.)
    """

    __slots__ = ("op", "args", "value")

    def __init__(self, op, args=(), value=None):
        self.op = op
        self.args = args
        self.value = value

    def _key(self):
        return self.op, self.value, self.args

    def __eq__(self, other):
        return isinstance(other, Node) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


# the binary operators and their precedence levels, for the printer
_LVL_ADD, _LVL_MUL, _LVL_POW, _LVL_BASE = 1, 2, 3, 4
_LEVEL = {"+": _LVL_ADD, "-": _LVL_ADD, "*": _LVL_MUL, "/": _LVL_MUL, "^": _LVL_POW}

_ZERO = Node("num", value=0.0)
_ONE = Node("num", value=1.0)
_TWO = Node("num", value=2.0)


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
            node = Node(op, (node, self.term()))
        return node

    def term(self):
        node = self.factor()
        while self.at_op("*", "/"):
            op = self.take()[1]
            node = Node(op, (node, self.factor()))
        return node

    def factor(self):
        node = self.base()
        if self.at_op("^"):
            self.take()
            node = Node("^", (node, self.factor()))
        return node

    def base(self):
        kind, text, pos = self.peek()
        if kind == "num":
            self.take()
            return Node("num", value=float(text))
        if kind == "ident":
            self.take()
            if self.at_op("("):
                return self.call(text, pos)
            if text in VARIABLES:
                return Node("var", value=text)
            if text == "pi":
                return Node("num", value=math.pi)
            raise UnknownIdentifierError(text, _byte_offset(self.src, pos))
        if kind == "op" and text == "(":
            self.take()
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "op" and text == "-":
            self.take()
            return Node("neg", (self.base(),))
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
            return reduce(lambda a, b: Node(name, (a, b)), args)
        if len(args) != arity:
            self.fail(
                f"{name}() expects {arity} argument(s), got {len(args)}",
                ("op", name, name_pos),
                {"argument list of length %d" % arity},
            )
        return Node(name, tuple(args))


# ============================================================
# Code generation: one straight-line Python function per expression
# ============================================================


def _checked_div(num, den):
    if np.any(np.equal(den, 0.0)):
        raise DomainError("division by zero")
    return num / den


def _checked_pow(base, expo):
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


def _checked_sqrt(u):
    if np.any(np.less(u, 0.0)):
        raise DomainError("sqrt of a negative number")
    return np.sqrt(u)


def _where(a, b, u, v):
    """``u`` where ``a <= b`` and ``v`` elsewhere, both given on every
    point; a 0-d comparison picks one of them as it is."""
    cond = np.less_equal(a, b)
    if cond.ndim == 0:
        return u if cond else v
    return np.where(cond, u, v)


def _iflte(a, b, then, then_args, other, other_args):
    """The value of ``then(*then_args)`` where ``a <= b`` and of
    ``other(*other_args)`` elsewhere.  A branch function takes the
    variables it reads and is called on the points it selects only, and
    not at all when it selects none."""
    cond = np.less_equal(a, b)
    if cond.ndim == 0:
        return then(*then_args) if cond else other(*other_args)
    out = np.empty(cond.shape)
    for mask, fn, args in ((cond, then, then_args), (~cond, other, other_args)):
        if mask.any():
            out[mask] = fn(*(np.broadcast_to(np.asarray(v, dtype=float), cond.shape)[mask]
                             for v in args))
    return out


# the names generated code calls; checked operations go through the
# helpers above, everything else straight to numpy
_RUNTIME = {
    "div": _checked_div,
    "pow": _checked_pow,
    "sqrt": _checked_sqrt,
    "where": _where,
    "iflte": _iflte,
    "power": np.power,
    "square": np.square,
    "min": np.minimum,
    "max": np.maximum,
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "tanh": np.tanh,
    "abs": np.abs,
    "sign": np.sign,
}

# inline nesting after which a value gets its own line (Python's parser
# refuses more than 200 nested parentheses)
_MAX_NESTING = 40


def _can_raise(node):
    """Whether evaluating the node itself may raise DomainError.

    A power with a constant nonnegative integer exponent and a division
    by a nonzero constant cannot.
    """
    if node.op == "/":
        e = node.args[1]
        return not (_is_num(e) and e.value != 0.0)
    if node.op == "^":
        e = node.args[1]
        return not (
            _is_num(e)
            and math.isfinite(e.value)
            and e.value >= 0.0
            and e.value == math.floor(e.value)
        )
    return node.op == "sqrt"


class _Codegen:
    """Python source of straight-line functions ``(p, q, t) -> value``.

    Nodes are numbered by structure, constants by their ``repr``, which
    tells every two floats apart (so ``0.0`` and ``-0.0`` differ), and
    within one function each number is computed once.  A value used more
    than once, one whose evaluation may raise, and one nested too deeply
    gets its own line, in the order the expression tree evaluates it;
    every other value, and the root, is written inline where it is used.
    A temporary is deleted right after its last use.  Constants and branch
    functions are globals in ``namespace``.

    An ``iflte`` whose branches cannot raise is ``where(a, b, u, v)``:
    both branches are computed on every point, like any other operand.
    One with a branch that may raise is masked: it is an ``iflte`` call
    whose branches are functions of their own, each called on the points
    it selects.
    """

    def __init__(self):
        self.numbers = {}  # structural key -> number
        self.memo = {}  # id(node) -> number
        self.raises = {}  # number -> whether the subtree may raise
        self.namespace = dict(_RUNTIME)
        self.blocks = []  # source of each function, branches first
        self.flips = {}  # id(neg node) -> the node computed in its place

    def folded(self, node):
        """A negation, or the product ``_negated`` folds it into when it
        negates a product with a constant factor: IEEE products are
        sign-symmetric, so only a NaN's sign may change.  Negated sums
        stay: -(a + b) and (-a) - b differ in the sign of an exact zero."""
        got = self.flips.get(id(node))
        if got is None:
            got = self.flips[id(node)] = _negated(node.args[0]) or node
        return got

    def number(self, node):
        got = self.memo.get(id(node))
        if got is None:
            fold = self.folded(node) if node.op == "neg" else node
            key = (fold.op, repr(fold.value), *map(self.number, fold.args))
            got = self.numbers.setdefault(key, len(self.numbers))
            self.memo[id(node)] = got
        return got

    def operands(self, node):
        """The children evaluated in the node's own function: all of them
        but the branches of a masked ``iflte``."""
        return node.args[:2] if self.masked(node) else node.args

    def function(self, root, name, params="p, q, t"):
        """Emit ``def name(params)`` returning the value of ``root``."""
        order, nodes, uses = [], {}, {}

        def visit(node):
            n = self.number(node)
            uses[n] = uses.get(n, 0) + 1
            if n not in nodes:
                nodes[n] = node = self.folded(node) if node.op == "neg" else node
                for arg in self.operands(node):
                    visit(arg)
                order.append(n)

        visit(root)
        lines = [f"def {name}({params}):"]
        code = {}  # number -> (text, temporaries it reads, nesting)
        unread = {}  # temporary -> reads still to come
        root_n = order[-1]
        for n in order:
            node = nodes[n]
            if node.op == "var":
                code[n] = (node.value, (), 0)
                continue
            if node.op == "num":
                self.namespace[f"c{n}"] = node.value
                code[n] = (f"c{n}", (), 0)
                continue
            args = [code[self.number(a)] for a in self.operands(node)]
            reads = tuple(r for a in args for r in a[1])
            depth = 1 + max(a[2] for a in args)
            if self.masked(node):
                text, raises = self.render_iflte(n, node, args), True
            else:
                text, raises = self.render(node, [a[0] for a in args]), _can_raise(node)
            # the root is evaluated last, so its return line keeps the order
            if n == root_n or (uses[n] == 1 and not raises and depth <= _MAX_NESTING):
                code[n] = (text, reads, depth)
                continue
            lines.append(f"    v{n} = {text}")
            for r in reads:
                unread[r] -= 1
                if not unread[r]:
                    lines.append(f"    del v{r}")
            unread[n] = uses[n]
            code[n] = (f"v{n}", (n,), 0)
        lines.append(f"    return {code[root_n][0]}")
        self.blocks.append("\n".join(lines))

    def may_raise(self, node):
        """Whether evaluating the node's subtree may raise DomainError."""
        n = self.number(node)
        if n not in self.raises:
            self.raises[n] = _can_raise(node) or any(map(self.may_raise, node.args))
        return self.raises[n]

    def masked(self, node):
        """Whether the node is an ``iflte`` with a branch that may raise."""
        return node.op == "iflte" and any(map(self.may_raise, node.args[2:]))

    def render_iflte(self, n, node, args):
        """The masked ``iflte`` call of node ``n`` on its comparison
        ``args``; each branch is a function of the variables it reads."""
        branches = []
        for branch, suffix in zip(node.args[2:], "uv"):
            name = f"f{n}{suffix}"
            reads = ", ".join(v for v in VARIABLES if v in _free_vars(branch))
            if name not in self.namespace:
                self.namespace[name] = None  # claimed; bound by exec
                self.function(branch, name, reads)
            branches.append(f"{name}, ({reads}{',' if reads else ''})")
        return f"iflte({args[0][0]}, {args[1][0]}, {', '.join(branches)})"

    def render(self, node, a):
        op = node.op
        if op == "neg":
            return f"(-{a[0]})"
        if op == "pair":
            return "(" + ", ".join(a) + ",)"
        if op == "/":
            if _can_raise(node):
                return f"div({a[0]}, {a[1]})"
            return f"({a[0]} / {a[1]})"
        if op == "^":
            if _can_raise(node):
                return f"pow({a[0]}, {a[1]})"
            # np.square(b) is b*b, bitwise equal to np.power(b, 2.0)
            if node.args[1].value == 2.0:
                return f"square({a[0]})"
            return f"power({a[0]}, {a[1]})"
        if op in _LEVEL:
            return f"({a[0]} {op} {a[1]})"
        return f"{'where' if op == 'iflte' else op}({', '.join(a)})"


def _negated(node):
    """``-node`` as a product with the sign folded into a constant factor
    down its chain of products, or None when it has none."""
    for i, a in enumerate(node.args if node.op == "*" else ()):
        flip = Node("num", value=-a.value) if a.op == "num" else _negated(a)
        if flip is not None:
            return Node("*", node.args[:i] + (flip,) + node.args[i + 1:])
    return None


def _source(root):
    """The generated module for ``root``: its source and its globals."""
    gen = _Codegen()
    gen.function(root, "fn")
    return "\n\n".join(gen.blocks) + "\n", gen.namespace


def _generate(root):
    source, namespace = _source(root)
    exec(compile(source, "<exprlang>", "exec"), namespace)
    return namespace["fn"]


# ============================================================
# Constant-folding constructors (keep derivative trees small)
# ============================================================


def _is_num(node, value=None):
    return node.op == "num" and (value is None or node.value == value)


def _add(a, b):
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if _is_num(a) and _is_num(b):
        return Node("num", value=a.value + b.value)
    return Node("+", (a, b))


def _sub(a, b):
    if _is_num(b, 0.0):
        return a
    if _is_num(a) and _is_num(b):
        return Node("num", value=a.value - b.value)
    if _is_num(a, 0.0):
        return _neg(b)
    return Node("-", (a, b))


def _neg(a):
    if _is_num(a):
        return Node("num", value=-a.value)
    if a.op == "neg":
        return a.args[0]
    return Node("neg", (a,))


def _mul(a, b):
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return _ZERO
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b):
        return Node("num", value=a.value * b.value)
    return Node("*", (a, b))


def _div_node(a, b):
    if _is_num(a, 0.0):
        return _ZERO
    if _is_num(b, 1.0):
        return a
    return Node("/", (a, b))


def _pow_node(a, b):
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return _ONE
    if _is_num(a) and _is_num(b):
        try:
            v = a.value**b.value
        except (OverflowError, ZeroDivisionError):
            return Node("^", (a, b))
        # a negative base with a fractional exponent gives a complex number
        if isinstance(v, float) and math.isfinite(v):
            return Node("num", value=v)
    return Node("^", (a, b))


# ============================================================
# Symbolic differentiation
# ============================================================


def _free_vars(node):
    if node.op == "var":
        return frozenset((node.value,))
    return frozenset().union(*map(_free_vars, node.args))


def _diff(node, var):
    op = node.op
    if op == "num":
        return _ZERO
    if op == "var":
        return _ONE if node.value == var else _ZERO
    if op == "neg":
        return _neg(_diff(node.args[0], var))
    if op not in _LEVEL:
        return _diff_call(node, var)
    a, b = node.args
    da = _diff(a, var)
    if op == "+":
        return _add(da, _diff(b, var))
    if op == "-":
        return _sub(da, _diff(b, var))
    db = _diff(b, var)
    if op == "*":
        return _add(_mul(da, b), _mul(a, db))
    if op == "/":
        return _div_node(_sub(_mul(da, b), _mul(a, db)), _pow_node(b, _TWO))
    # power rule; a variable exponent would need a logarithm, which the
    # language does not have
    if var in _free_vars(b):
        raise NotDifferentiable(
            f"cannot differentiate a power with respect to {var!r} when "
            f"the exponent depends on it"
        )
    return _mul(_mul(b, _pow_node(a, _sub(b, _ONE))), da)


def _diff_call(node, var):
    fn = node.op
    if fn == "iflte":
        a, b, u, v = node.args
        return Node("iflte", (a, b, _diff(u, var), _diff(v, var)))
    if fn == "min":
        a, b = node.args
        return Node("iflte", (a, b, _diff(a, var), _diff(b, var)))
    if fn == "max":
        a, b = node.args
        return Node("iflte", (b, a, _diff(a, var), _diff(b, var)))
    (u,) = node.args
    du = _diff(u, var)
    if fn == "sin":
        outer = Node("cos", (u,))
    elif fn == "cos":
        outer = _neg(Node("sin", (u,)))
    elif fn == "exp":
        outer = Node("exp", (u,))
    elif fn == "tanh":
        outer = _sub(_ONE, _pow_node(Node("tanh", (u,)), _TWO))
    elif fn == "abs":
        outer = Node("sign", (u,))
    elif fn == "sign":
        return _ZERO
    elif fn == "sqrt":
        return _div_node(du, _mul(_TWO, Node("sqrt", (u,))))
    else:  # pragma: no cover - keep the table and FUNCTIONS in sync
        raise NotDifferentiable(f"no derivative rule for {fn}()")
    return _mul(outer, du)


def _substitute(node, mapping):
    if node.op == "var":
        return mapping.get(node.value, node)
    args = tuple(_substitute(a, mapping) for a in node.args)
    return Node(node.op, args, node.value)


# ============================================================
# Printing.  parse(str(e)) evaluates identically to e.
# ============================================================


def _render(node, min_level):
    op, args = node.op, node.args
    level = _LEVEL.get(op, _LVL_BASE)
    if op == "num":
        s = repr(node.value)
    elif op == "var":
        s = node.value
    elif op == "neg":
        s = "-" + _render(args[0], _LVL_BASE)
    elif op == "^":
        # left operand of ^ must be a base; right associates
        s = _render(args[0], _LVL_BASE) + "^" + _render(args[1], _LVL_POW)
    elif op in _LEVEL:
        s = _render(args[0], level) + f" {op} " + _render(args[1], level + 1)
    else:
        s = op + "(" + ", ".join(_render(a, _LVL_ADD) for a in args) + ")"
    if level < min_level:
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
        """Generated function ``(p, q, t) -> value`` without the errstate
        guard; hot loops use this directly.  The code is generated on the
        first access."""
        if self._fn is None:
            self._fn = _generate(self.root)
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


def fused(*exprs):
    """One expression whose value is the tuple of the values of ``exprs``.

    Its function computes a subexpression shared by the parts once.  It
    can only be evaluated: printing, differentiating or substituting it
    is not defined.
    """
    return Expr(Node("pair", tuple(as_expr(e).root for e in exprs)))


def as_expr(x):
    """Coerce a string, number or Expr to an Expr."""
    if isinstance(x, Expr):
        return x
    if isinstance(x, str):
        return parse(x)
    if isinstance(x, (int, float)):
        return Expr(Node("num", value=float(x)))
    raise ValidationError(f"cannot interpret {type(x)!r} as an expression")
