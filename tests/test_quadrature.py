"""Level-synchronous quadrature against the recursion, bit for bit.

``geometry.quad_adaptive`` evaluates every panel of one bisection level
in one integrand call and ``integrate_area`` hands each outer level's
nodes to one inner batch; ``quad_oracle`` keeps the recursion that
evaluated one panel per call.  Every result here must equal the
oracle's to the bit, compared as ``uint64`` views.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import quad_oracle as oracle
from symcocycle import geometry
from symcocycle.cocycle import _pullback_defect
from symcocycle.dynamics import HamiltonianSpec, TwistMap
from symcocycle.errors import NumericalError
from symcocycle.exprlang import parse
from symcocycle.geometry import Primitive, Window, cylinder, plane, quad_adaptive
from symcocycle.invariants import (
    CALABI_TOL,
    TWIST_TOL,
    calabi_from_hamiltonian,
    twist_boundary_difference,
)
from symcocycle.verify import HINGE_BUMP, HINGE_BUMP_DECAY, HINGE_BUMP_OFF

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def kink(x):
    return np.abs(x - 1.0 / 3.0)


@pytest.mark.parametrize("src", [HINGE_BUMP, HINGE_BUMP_OFF, HINGE_BUMP_DECAY])
def test_gate_calabi_closed_forms_equal_the_recursion(src):
    spec = HamiltonianSpec(parse(src))
    mani = plane(Window(-4, 4, -4, 4))
    got = calabi_from_hamiltonian(spec, mani)
    assert bits(got) == bits(oracle.calabi_from_hamiltonian(spec, mani, CALABI_TOL))


def test_gaussian_area_equals_the_recursion():
    g, w = parse("exp(-(p^2 + q^2))"), Window(-6, 6, -6, 6)
    got = geometry.integrate_area(g, w, tol=1e-9)
    assert bits(got) == bits(oracle.integrate_area(g, w, tol=1e-9))


@pytest.mark.parametrize("name", ["quad", "sine"])
def test_twist_boundary_differences_equal_the_recursion(name):
    spec = json.loads((SCENARIOS / "cylinder_twist.json").read_text())
    w = spec["manifold"]["window"]
    cyl = cylinder(Window(w["p_min"], w["p_max"], w["q_min"], w["q_max"]))
    tw = TwistMap(parse(spec["twists"][name]["profile"]), cyl)
    q0 = cyl.window.center[1]
    alpha = Primitive.p_dq()
    want = oracle.quad_adaptive(
        lambda ps: _pullback_defect(tw, alpha, ps, np.full_like(ps, q0))[0],
        -1.0, 1.0, TWIST_TOL,
    )
    assert bits(twist_boundary_difference(tw)) == bits(want)


@pytest.mark.parametrize("tol", [1e-12, 1e-6, oracle.root_residual(kink, 0.0, 1.0)])
def test_kink_equals_the_recursion(tol):
    # the last tolerance is the first bisection's residual itself: the
    # recursion accepts a residual equal to its tolerance
    assert bits(quad_adaptive(kink, 0.0, 1.0, tol)) == bits(
        oracle.quad_adaptive(kink, 0.0, 1.0, tol))


def test_one_call_per_level_on_the_panels_of_the_recursion():
    seen, seen_by_oracle, calls = [], [], []

    def level(x):
        calls.append(x.shape)
        seen.extend(map(tuple, bits(x)))
        return kink(x)

    def panel(x):
        seen_by_oracle.append(tuple(bits(x)))
        return kink(x)

    quad_adaptive(level, 0.0, 1.0, 1e-12)
    oracle.quad_adaptive(panel, 0.0, 1.0, 1e-12)
    assert sorted(seen) == sorted(seen_by_oracle)
    assert all(len(s) == 2 and s[1] == 10 for s in calls)
    # the root, then one call per level, its panel count even
    assert calls[0] == (1, 10) and all(n % 2 == 0 for n, _ in calls[1:])
    assert sum(n for n, _ in calls) == len(seen_by_oracle)


def test_depth_cap_message_names_the_recursion_s_panel(monkeypatch):
    monkeypatch.setattr(geometry, "QUAD_DEPTH_CAP", 6)
    step = lambda x: np.where(x < math.sqrt(0.5), 0.0, 1.0)
    with pytest.raises(geometry.QuadratureNonconvergence) as want:
        oracle.quad_adaptive(step, 0.0, 1.0, 1e-15, depth_cap=6)
    with pytest.raises(geometry.QuadratureNonconvergence) as got:
        quad_adaptive(step, 0.0, 1.0, 1e-15)
    assert str(got.value) == str(want.value)


def test_not_finite_message_names_the_recursion_s_panel():
    # infinite only next to the kink, which refinement reaches levels down
    blow = lambda x: np.where(np.abs(x - 1.0 / 3.0) < 1e-4, np.inf, kink(x))
    with pytest.raises(NumericalError) as want:
        oracle.quad_adaptive(blow, 0.0, 1.0)
    with pytest.raises(NumericalError) as got:
        quad_adaptive(blow, 0.0, 1.0)
    assert str(got.value) == str(want.value)
