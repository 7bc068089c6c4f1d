"""Mutation check of the march kernel, the action route, the path route,
the quadrature and the generated code.

    python3 tests/mutants.py

Each mutant replaces one line (or a few adjacent lines) of one module of
``src/symcocycle`` and names the test files that should kill it.  For
each, ``src/`` is copied to a temporary directory, the text is replaced
there, and its test files run against the copy one after another, each
under ``TIMEOUT_S``; a file that fails or times out kills the mutant.
The unmutated copy runs every named file first and must pass.  Prints
killed or survived per mutant and exits 1 when any survives.

It is opt in: pytest does not collect this file (no ``test_`` prefix)
and the tier-1 suite does not run it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MARCH = ("tests/test_frozen_march.py", "tests/test_jets.py", "tests/test_dynamics.py")
QUAD = ("tests/test_quadrature.py",)
PATH = ("tests/test_cocycle.py", "tests/test_jets.py", "tests/test_invariants.py",
        "tests/test_cover.py", "tests/test_geometry.py", "tests/test_cli.py")
TIMEOUT_S = 600

# (name, the module of symcocycle it mutates, the text as it stands, the
# mutated text, the test files that should kill it); each original occurs
# exactly once in its module
MUTANTS = [
    ("stage time t + h for t + 0.5*h", "dynamics.py",
     "    tm = t + half\n",
     "    tm = t + h\n", MARCH),
    ("k4 stage from half instead of h", "dynamics.py",
     "    k4 = rates(stage(h, k3), t + h)\n",
     "    k4 = rates(stage(half, k3), t + h)\n", MARCH),
    ("dropped 2.0 weight", "dynamics.py",
     "        y *= 2.0\n",
     "        pass\n", MARCH),
    ("a stage input written over the rate it is made from", "dynamics.py",
     "            y = r * c\n",
     "            y = r\n            y *= c\n", MARCH),
    ("s*dP + u*dQ in _jet_rates", "dynamics.py",
     "        rQ -= np.multiply(u, dQ, out=vdQ)\n",
     "        rQ += np.multiply(u, dQ, out=vdQ)\n", MARCH),
    ("_held ignores the tangent rates", "dynamics.py",
     "        held = held & (k == 0.0).all(axis=0)\n",
     "        pass\n", MARCH),
    ("_held ignores _keeps on the tangent", "dynamics.py",
     "        held = held & _keeps(x).all(axis=0)\n",
     "        pass\n", MARCH),
    ("_rates does not wrap q", "dynamics.py",
     "        return self.field.fn(p, self.manifold.wrap_q(q), t)\n",
     "        return self.field.fn(p, q, t)\n", MARCH),
    ("handed k1 at the previous node's time", "dynamics.py",
     "                k1 = rates(state, t0 + (k + 1) * h) if live and k + 1 < n else None\n",
     "                k1 = rates(state, t0 + k * h) if live and k + 1 < n else None\n", MARCH),
    ("action line term with pdot and qdot swapped", "cocycle.py",
     "                pdot, qdot = piece._rates((pv, qv), t) if k1 is None else k1[:2]\n",
     "                qdot, pdot = piece._rates((pv, qv), t) if k1 is None else k1[:2]\n", MARCH),
    ("action node weighed with weights[k - 1]", "cocycle.py",
     "            acc = acc + weights[k] * c\n",
     "            acc = acc + weights[k - 1] * c\n", MARCH),
    ("transposed jacobian in _pullback_defect", "cocycle.py",
     "        theta_p = ap_f * jet.dpp + aq_f * jet.dqp - fp(ps, qs, 0.0)\n"
     "        theta_q = ap_f * jet.dpq + aq_f * jet.dqq - fq(ps, qs, 0.0)\n",
     "        theta_p = ap_f * jet.dpp + aq_f * jet.dpq - fp(ps, qs, 0.0)\n"
     "        theta_q = ap_f * jet.dqp + aq_f * jet.dqq - fq(ps, qs, 0.0)\n", PATH),
    ("cumulative_integral's interior increments from the forward rule", "geometry.py",
     "    inc[1:-1] = 0.5 * (fwd[1:] + bwd[:-1])\n",
     "    inc[1:-1] = fwd[1:]\n", PATH),
    ("cumulative_integral's last increment from the forward rule", "geometry.py",
     "    inc[-1] = bwd[-1]\n",
     "    inc[-1] = fwd[-1]\n", PATH),
    ("path samples from the q-first family alone", "cocycle.py",
     "    samples = 0.5 * (k_qfirst + k_pfirst)\n",
     "    samples = k_qfirst\n", PATH),
    ("GridFunction._coords does not wrap q", "cocycle.py",
     "        q = self.manifold.wrap_q(np.asarray(q, dtype=float))\n",
     "        q = np.asarray(q, dtype=float)\n", PATH),
    # IEEE addition commutes, so the halves' sums added right + left give
    # the same bits: that mutant cannot die.  A batch's Gauss sums in one
    # product sum each panel in another order.
    ("the Gauss sums of a level in one product", "geometry.py",
     "    total = half * np.array([np.dot(_GAUSS_W, v) for v in vals])\n",
     "    total = half * (vals @ _GAUSS_W)\n", QUAD),
    ("quadrature accepts below the tolerance only", "geometry.py",
     "        done = residual <= np.maximum(tol, noise_floor * (hi - lo))\n",
     "        done = residual < np.maximum(tol, noise_floor * (hi - lo))\n", QUAD),
    ("a folded negation keeps the constant's sign", "exprlang.py",
     "        flip = Node(\"num\", value=-a.value) if a.op == \"num\" else _negated(a)\n",
     "        flip = Node(\"num\", value=a.value) if a.op == \"num\" else _negated(a)\n",
     ("tests/test_exprlang.py",)),
    ("_where with its branches swapped", "exprlang.py",
     "    return np.where(cond, u, v)\n",
     "    return np.where(cond, v, u)\n", ("tests/test_exprlang.py",)),
    ("_where compares with less for less_equal", "exprlang.py",
     "    cond = np.less_equal(a, b)\n    if cond.ndim == 0:\n        return u if cond else v\n",
     "    cond = np.less(a, b)\n    if cond.ndim == 0:\n        return u if cond else v\n",
     ("tests/test_exprlang.py",)),
    ("no iflte masked: a raising branch runs on every point", "exprlang.py",
     "        return node.op == \"iflte\" and any(map(self.may_raise, node.args[2:]))\n",
     "        return False\n", ("tests/test_exprlang.py",)),
    ("errors.finite reads only its first two arrays", "errors.py",
     "    for x in arrays:\n",
     "    for x in arrays[:2]:\n", ("tests/test_errors.py", "tests/test_jets.py")),
]


def passes(src, tests):
    """Whether every file of ``tests`` passes against the package in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for test in tests:
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return False
        if done.returncode != 0:
            return False
    return True


def run(name, target, old, new, tests):
    """Whether the mutant replacing ``old`` by ``new`` in the module
    ``target`` passes ``tests``; None for no mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if name is not None:
            path = src / "symcocycle" / target
            text = path.read_text()
            if text.count(old) != 1:
                raise SystemExit(f"mutant {name!r}: its line is not in {target} exactly once")
            path.write_text(text.replace(old, new))
        return passes(src, tests)


def main():
    every = tuple(dict.fromkeys(t for *_, tests in MUTANTS for t in tests))
    if not run(None, None, "", "", every):
        print("the unmutated tree fails the mutants' tests; no mutant is judged")
        return 2
    survivors = 0
    for name, target, old, new, tests in MUTANTS:
        alive = run(name, target, old, new, tests)
        survivors += alive
        print(f"{'survived' if alive else 'killed':8}  {name}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
