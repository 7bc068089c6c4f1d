"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py [--seed N] [workload ...]

For each workload (all three by default) it runs one untraced and one
traced pass in this process and checks that

* the outputs are identical: bitwise-equal grid samples and scalars, and
  the same word-search CSV bytes;
* every span and counter the workload should exercise was recorded, so
  a renamed or rerouted function cannot drop out of the trace silently;
* no module of the package still holds an unwrapped boundary function,
  and the names imported across modules were patched at each site.

Exits 0 when everything holds and 1 otherwise.  A full run takes about
six passes, under a minute.
"""

import argparse
import importlib
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "symcocycle"

# spans (and counters) each workload must record at least once
EXPECTED = {
    "plane-grid": (
        "exprlang.eval", "dynamics.march", "dynamics.jet", "cocycle.path",
        "cocycle.action", "cocycle.on_node", "cocycle.compose",
        "cocycle.normalize", "invariants.calabi", "geometry.quad",
    ),
    "word-search": (
        "cli.main", "cli.load", "distortion.generators", "distortion.table",
        "distortion.bound", "distortion.search", "distortion.recheck",
        "invariants.fixed_points", "invariants.polterovich", "cocycle.action",
        "cocycle.on_node", "dynamics.march", "exprlang.eval",
        "counter:invariants.single_point_applies", "counter:distortion.nodes",
    ),
    "cylinder-cover": (
        "invariants.flux", "cover.lifted_cocycle", "cover.lift",
        "cover.on_node", "cover.growth", "cover.deck", "cover.projection",
        "cocycle.hamtest", "cocycle.path", "cocycle.normalize",
        "cocycle.action", "invariants.twist", "dynamics.twist",
        "geometry.quad", "dynamics.jet", "dynamics.march", "exprlang.eval",
        "counter:cover.lifted_point_steps",
    ),
}

# functions imported with ``from .x import y`` into other modules
IMPORT_SITES = {
    "dynamics.map_with_jacobian": {"dynamics", "cocycle", "invariants"},
    "cocycle.cocycle_by_path": {"cocycle", "cover", "distortion", "cli"},
    "cover.lifted_cocycle": {"cover", "invariants", "cli"},
}


def same_outputs(a, b):
    """Names of outputs that differ between two passes."""
    bad = []
    for key in sorted(set(a) | set(b)):
        x, y = a.get(key), b.get(key)
        if isinstance(x, bytes) or isinstance(y, bytes):
            equal = x == y
        else:
            x, y = np.asarray(x), np.asarray(y)
            equal = x.shape == y.shape and x.tobytes() == y.tobytes()
        if not equal:
            bad.append(key)
    return bad


def check_workload(sc, name, seed, workdir):
    problems = []
    workload = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(name, seed)
    plain = workload.run_pass(workload.setup(sc, inputs, workdir), workloads.Checks())

    modules = {
        m: mod for m, mod in sys.modules.items()
        if m == PACKAGE or m.startswith(PACKAGE + ".")
    }
    tracer = spans.Tracer()
    inst = spans.install(tracer, PACKAGE)
    patched = list(inst.undo)  # (owner, attribute, original)
    try:
        unwrapped = [
            f"{mod_name}.{attr}"
            for mod_name, mod in modules.items()
            for attr, value in vars(mod).items()
            if any(value is original for _, _, original in patched)
        ]
        problems += [f"{site} still unwrapped" for site in unwrapped]
        for label, want in IMPORT_SITES.items():
            missing = want - set(inst.sites[label])
            if missing:
                problems.append(f"{label} not patched in {sorted(missing)}")
        traced = workload.run_pass(workload.setup(sc, inputs, workdir), workloads.Checks())
    finally:
        inst.uninstall()
    if any(getattr(owner, attr) is not original for owner, attr, original in patched):
        problems.append("uninstall did not restore every boundary")

    problems += [f"output {key} differs when traced" for key in same_outputs(plain, traced)]
    for item in EXPECTED[name]:
        kind, _, label = item.rpartition(":")
        seen = tracer.counters[label] if kind == "counter" else tracer.calls[label]
        if not seen:
            problems.append(f"no {kind or 'span'} {label}")
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=list(workloads.WORKLOADS))
    args = ap.parse_args(argv)

    covered = {item for names in EXPECTED.values() for item in names}
    failures = [
        f"boundary {span} is expected on no workload"
        for span in sorted({span for span, _, _ in spans.BOUNDARIES} - covered)
    ]
    for problem in failures:
        print(f"FAIL {problem}")

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    warnings.simplefilter("ignore")
    sc = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        for name in args.workloads:
            problems = check_workload(sc, name, args.seed, workdir)
            print(f"{'FAIL' if problems else 'ok  '} {name}")
            for problem in problems:
                print(f"     {problem}")
            failures += problems
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
