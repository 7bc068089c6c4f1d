"""Benchmark passes do not feed each other.

``perfbench/workloads.py`` is imported as it stands.  Each workload gets
one set-up and two passes, counting the flow marches (``FlowMap._march``)
and the jet marches (``FlowMap._run`` with a tangent) of each pass.  A
pass that reused an earlier pass's work, through a memo or a live action
walk, would march less the second time, and the benchmark would time
less work in every pass after the first.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import symcocycle
import symcocycle.cli  # the word-search pass reads it as an attribute
from symcocycle.dynamics import FlowMap

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "workloads", ROOT / "perfbench" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# (flow marches, jet marches) of one pass
MARCHES = {
    "plane-grid": (3, 3),
    "word-search": (25, 0),
    "cylinder-cover": (4, 4),
}


def _bytes(outputs):
    return {
        key: value if isinstance(value, bytes) else np.asarray(value).tobytes()
        for key, value in outputs.items()
    }


@pytest.mark.parametrize("name", sorted(MARCHES))
def test_a_second_pass_makes_the_same_marches_and_bits(name, monkeypatch, tmp_path):
    # the word-search scenario is read from the repository's root
    monkeypatch.chdir(ROOT)
    counts = [0, 0]
    march, run = FlowMap._march, FlowMap._run

    def counted_march(flow, p, q, t0, t1, on_node=None):
        counts[0] += 1
        return march(flow, p, q, t0, t1, on_node)

    def counted_run(flow, state, t0, t1, on_node):
        counts[1] += len(state) > 2
        return run(flow, state, t0, t1, on_node)

    monkeypatch.setattr(FlowMap, "_march", counted_march)
    monkeypatch.setattr(FlowMap, "_run", counted_run)
    workload = workloads.WORKLOADS[name]
    state = workload.setup(symcocycle, workloads.make_inputs(name, 1), tmp_path)
    passes = []
    for _ in range(2):
        counts[:] = [0, 0]
        checks = workloads.Checks()
        outputs = _bytes(workload.run_pass(state, checks))
        assert checks.failed == 0, checks.failures
        passes.append((tuple(counts), outputs))
    assert passes[0][0] == passes[1][0] == MARCHES[name]
    assert passes[0][1] == passes[1][1]
