"""Mutation check of the RK4 march kernel in ``symcocycle.dynamics``.

    python3 tests/mutants.py

Each mutant replaces one line of ``src/symcocycle/dynamics.py``.  For
each, ``src/`` is copied to a temporary directory, the line is replaced
there, and the march tests (``TESTS``) run against the copy one file
after another, each under ``TIMEOUT_S``; a file that fails or times out
kills the mutant.  The unmutated copy runs first and must pass.  Prints
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
TARGET = Path("symcocycle") / "dynamics.py"
TESTS = ("tests/test_frozen_march.py", "tests/test_jets.py", "tests/test_dynamics.py")
TIMEOUT_S = 600

# (name, the line as it stands, the mutated line); each original occurs
# exactly once in the file
MUTANTS = [
    ("stage time t + h for t + 0.5*h",
     "    tm = t + half\n",
     "    tm = t + h\n"),
    ("k4 stage from half instead of h",
     "    k4 = rates([x + h * k for x, k in zip(state, k3)], t + h)\n",
     "    k4 = rates([x + half * k for x, k in zip(state, k3)], t + h)\n"),
    ("dropped 2.0 weight",
     "    return [x + sixth * (a + 2.0 * (b + c) + d)\n",
     "    return [x + sixth * (a + (b + c) + d)\n"),
    ("s*dP + u*dQ in _jet_rates",
     "        return xp, xq, u * dP + v * dQ, s * dP - u * dQ\n",
     "        return xp, xq, u * dP + v * dQ, s * dP + u * dQ\n"),
    ("_held ignores the tangent rates",
     "        held = held & (k == 0.0).all(axis=0)\n",
     "        pass\n"),
    ("_held ignores _keeps on the tangent",
     "        held = held & _keeps(x).all(axis=0)\n",
     "        pass\n"),
    ("_rates does not wrap q",
     "        return self.field.fn(p, self.manifold.wrap_q(q), t)\n",
     "        return self.field.fn(p, q, t)\n"),
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


def run(name, old, new):
    """Whether the mutant replacing ``old`` by ``new`` passes the tests;
    None for no mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / TARGET
        text = path.read_text()
        if name is not None:
            if text.count(old) != 1:
                raise SystemExit(f"mutant {name!r}: its line is not in {TARGET} exactly once")
            path.write_text(text.replace(old, new))
        return passes(src)


def main():
    if not run(None, "", ""):
        print("the unmutated tree fails the march tests; no mutant is judged")
        return 2
    survivors = 0
    for name, old, new in MUTANTS:
        alive = run(name, old, new)
        survivors += alive
        print(f"{'survived' if alive else 'killed':8}  {name}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
