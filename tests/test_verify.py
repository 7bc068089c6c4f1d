"""The gate's bookkeeping: one result per check and seed, and one cocycle
per route, map pieces and primitive.

The library calls are replaced by counters, so nothing here marches a
flow on the gate's grid.
"""

from symcocycle import verify
from symcocycle.dynamics import ComposedMap
from symcocycle.geometry import Primitive


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
