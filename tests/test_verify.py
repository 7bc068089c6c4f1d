"""The gate's bookkeeping: one result per check and seed, and one cocycle
per route, map pieces and primitive.

The library calls are replaced by counters, or run on a small grid, so
nothing here marches a flow on the gate's grid.
"""

import numpy as np

from symcocycle import verify
from symcocycle.cocycle import cocycle_by_action
from symcocycle.dynamics import ComposedMap, FlowMap, HamiltonianSpec
from symcocycle.exprlang import parse
from symcocycle.geometry import GridSpec, Primitive


def test_a_second_run_check_returns_the_kept_result(monkeypatch):
    calls = []

    def check(bench):
        calls.append(bench.seed)
        return True, "counted"

    monkeypatch.setattr(verify, "_BENCHES", {})
    monkeypatch.setattr(verify, "_RESULTS", {})
    monkeypatch.setitem(verify.CHECKS, "integrator-order", check)
    first = verify.run_check("integrator-order", seed=3)
    second = verify.run_check("integrator-order", seed=3)
    assert second is first
    assert first == verify.CheckResult("integrator-order", True, "counted")
    assert calls == [3]
    # another seed is another result
    verify.run_check("integrator-order", seed=4)
    assert calls == [3, 4]


def test_cocycles_are_kept_under_the_pieces_and_the_primitive(monkeypatch):
    calls = []

    def path_route(m, alpha, grid):
        calls.append((m.factors, alpha))
        return len(calls)

    monkeypatch.setattr(verify, "cocycle_by_path", path_route)
    bench = verify.Workbench(0)
    f = bench.flow(verify.GENTLE_BUMP)
    g = bench.flow(verify.RADIAL_UNIT_BUMP)
    # a composition built twice reaches the same entry
    first = bench.cocycle("path", ComposedMap([g, f]))
    assert bench.cocycle("path", ComposedMap([g, f])) == first
    assert bench.cocycle("path", ComposedMap([f, g])) != first
    assert len(calls) == 2

    # primitives are told apart by value, not by name: both are "custom"
    one = Primitive.custom("-q/2", "p/2")
    other = Primitive.custom("-q", "0")
    assert one.name == other.name
    a = bench.cocycle("path", f, one)
    assert bench.cocycle("path", f, Primitive.custom("-q/2", "p/2")) == a
    assert bench.cocycle("path", f, other) != a
    assert len(calls) == 4


def test_powers_resume_the_walk_of_the_power_before(monkeypatch):
    # a coarse flow on a small grid stands in for the gate's
    bench = verify.Workbench(0)
    bench.grid = GridSpec(21, 21)
    f = FlowMap(HamiltonianSpec(parse(verify.RADIAL_UNIT_BUMP)), bench.plane, step=2e-2)
    marched = []
    march = FlowMap._march

    def counted(flow, p, q, t0, t1, on_node=None):
        marched.append(np.size(p))
        return march(flow, p, q, t0, t1, on_node)

    monkeypatch.setattr(FlowMap, "_march", counted)
    powers = [bench.cocycle("action", ComposedMap([f] * n)) for n in range(1, 6)]
    # f^1..f^5 make 5 marches over the grid, not 15
    assert marched == [21 * 21] * 5
    # the resumed f^n is bitwise the whole walk of n new copies of f,
    # which no live walk is of
    for n, K in enumerate(powers, start=1):
        copy = FlowMap(f.spec, f.manifold, step=f.step)
        whole = cocycle_by_action(ComposedMap([copy] * n), bench.p_dq, grid=bench.grid)
        assert K.samples.tobytes() == whole.samples.tobytes()
        assert [x.tobytes() for x in K.walk] == [x.tobytes() for x in whole.walk]
    # another primitive is another walk, from the start
    del marched[:]
    bench.cocycle("action", ComposedMap([f] * 2), Primitive.symmetric())
    assert marched == [21 * 21] * 2


def test_the_identity_check_continues_the_jets_of_its_pairs(monkeypatch):
    # coarse flows on a coarse grid stand in for the gate's
    monkeypatch.setattr(verify, "GATE_STEP", 2e-2)
    bench = verify.Workbench(0)
    bench.grid = GridSpec(61, 61)
    runs = []
    run = FlowMap._run

    def counted(flow, state, t0, t1, on_node):
        runs.append((len(state), np.size(state[0])))
        return run(flow, state, t0, t1, on_node)

    monkeypatch.setattr(FlowMap, "_run", counted)
    verify._check_cocycle_identity(bench)
    # per pair the jets of g and f, and of f.g only f; K(f).g marches
    # nothing, since it reads g's images from K(g)'s jet
    assert runs == [(4, 61 * 61)] * 15
    # K(f)'s jet serves the defect and the other primitive whole
    del runs[:]
    verify._check_defining_equation(bench)
    bench.cocycle("path", bench.flow(bench.random_pairs()[0][0]), Primitive.symmetric())
    assert runs == []
