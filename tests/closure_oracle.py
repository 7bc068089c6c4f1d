"""The closure-tree compiler that ``exprlang`` used before it generated
code, kept as the oracle of the differential tests.  Its evaluation rules
are verbatim; only the way it reads a node (``op``, ``value``, ``args``)
follows the tree's one node class.

``_compile(node)`` turns an AST node into a tree of closures
``(p, q, t) -> value``, one Python call per node, with every domain check
evaluated at run time.
"""

import numpy as np

from symcocycle.exprlang import DomainError


def _compile(node):
    if node.op == "num":
        v = node.value
        return lambda p, q, t: v
    if node.op == "var":
        if node.value == "p":
            return lambda p, q, t: p
        if node.value == "q":
            return lambda p, q, t: q
        return lambda p, q, t: t
    if node.op == "neg":
        f = _compile(node.args[0])
        return lambda p, q, t: -f(p, q, t)
    if node.op in ("+", "-", "*", "/", "^"):
        fa = _compile(node.args[0])
        fb = _compile(node.args[1])
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
    fn = node.op
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
