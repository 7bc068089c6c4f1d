"""Mutation check of the RK4 march kernel and the action route.

    python3 tests/mutants.py

Each mutant replaces one line of one module of ``src/symcocycle``
(``dynamics.py`` or ``cocycle.py``).  For each, ``src/`` is copied to a
temporary directory, the line is replaced there, and the march tests
(``TESTS``) run against the copy one file after another, each under
``TIMEOUT_S``; a file that fails or times out kills the mutant.  The
unmutated copy runs first and must pass.  Prints killed or survived per
mutant and exits 1 when any survives.

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
TESTS = ("tests/test_frozen_march.py", "tests/test_jets.py", "tests/test_dynamics.py")
TIMEOUT_S = 600

# (name, the module of symcocycle it mutates, the line as it stands, the
# mutated line); each original occurs exactly once in its module
MUTANTS = [
    ("stage time t + h for t + 0.5*h", "dynamics.py",
     "    tm = t + half\n",
     "    tm = t + h\n"),
    ("k4 stage from half instead of h", "dynamics.py",
     "    k4 = rates([x + h * k for x, k in zip(state, k3)], t + h)\n",
     "    k4 = rates([x + half * k for x, k in zip(state, k3)], t + h)\n"),
    ("dropped 2.0 weight", "dynamics.py",
     "    return [x + sixth * (a + 2.0 * (b + c) + d)\n",
     "    return [x + sixth * (a + (b + c) + d)\n"),
    ("s*dP + u*dQ in _jet_rates", "dynamics.py",
     "        return xp, xq, u * dP + v * dQ, s * dP - u * dQ\n",
     "        return xp, xq, u * dP + v * dQ, s * dP + u * dQ\n"),
    ("_held ignores the tangent rates", "dynamics.py",
     "        held = held & (k == 0.0).all(axis=0)\n",
     "        pass\n"),
    ("_held ignores _keeps on the tangent", "dynamics.py",
     "        held = held & _keeps(x).all(axis=0)\n",
     "        pass\n"),
    ("_rates does not wrap q", "dynamics.py",
     "        return self.field.fn(p, self.manifold.wrap_q(q), t)\n",
     "        return self.field.fn(p, q, t)\n"),
    ("handed k1 at the previous node's time", "dynamics.py",
     "                k1 = rates(state, t0 + (k + 1) * h) if live and k + 1 < n else None\n",
     "                k1 = rates(state, t0 + k * h) if live and k + 1 < n else None\n"),
    ("action line term with pdot and qdot swapped", "cocycle.py",
     "                pdot, qdot = piece._rates((pv, qv), t) if k1 is None else k1[:2]\n",
     "                qdot, pdot = piece._rates((pv, qv), t) if k1 is None else k1[:2]\n"),
    ("action node weighed with weights[k - 1]", "cocycle.py",
     "            acc = acc + weights[k] * c\n",
     "            acc = acc + weights[k - 1] * c\n"),
]


def passes(src):
    """Whether every file of TESTS passes against the package in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for test in TESTS:
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


def run(name, target, old, new):
    """Whether the mutant replacing ``old`` by ``new`` in the module
    ``target`` passes the tests; None for no mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if name is not None:
            path = src / "symcocycle" / target
            text = path.read_text()
            if text.count(old) != 1:
                raise SystemExit(f"mutant {name!r}: its line is not in {target} exactly once")
            path.write_text(text.replace(old, new))
        return passes(src)


def main():
    if not run(None, None, "", ""):
        print("the unmutated tree fails the march tests; no mutant is judged")
        return 2
    survivors = 0
    for name, target, old, new in MUTANTS:
        alive = run(name, target, old, new)
        survivors += alive
        print(f"{'survived' if alive else 'killed':8}  {name}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
