import math

import numpy as np
import pytest

from symcocycle.cocycle import cocycle_by_path
from symcocycle.dynamics import FlowMap, HamiltonianSpec
from symcocycle.errors import NumericalError, finite
from symcocycle.exprlang import parse
from symcocycle.geometry import GridSpec, Primitive, Window, cylinder, plane

WINDOW = Window(-2, 2, 0, 2 * math.pi)
MANIFOLDS = {"plane": plane(WINDOW), "cylinder": cylinder(WINDOW)}


def test_finite_arrays_come_back_as_the_same_objects():
    p, q = np.zeros(3), np.ones(3)
    dP, dQ = np.zeros((2, 3)), np.ones((2, 3))
    out = finite("the flow", "tame it", p, q, dP, dQ)
    assert all(a is b for a, b in zip(out, (p, q, dP, dQ)))
    assert finite("the twist", "tame it", 0.5, 2.0) == (0.5, 2.0)


def test_an_empty_batch_is_finite():
    empty = (np.zeros(0), np.zeros(0), np.zeros((2, 0)), np.zeros((2, 0)))
    assert all(a is b for a, b in zip(finite("the flow", "tame it", *empty), empty))


def test_a_point_counts_once_however_many_entries_are_not_finite():
    # point 1 is not finite in p, q and both directions of its tangent,
    # point 3 in the second direction of dQ alone
    p, q = np.zeros(4), np.zeros(4)
    dP, dQ = np.zeros((2, 4)), np.zeros((2, 4))
    p[1] = q[1] = np.inf
    dP[:, 1] = dQ[:, 1] = np.nan
    dQ[1, 3] = -np.inf
    with pytest.raises(NumericalError) as caught:
        finite("the flow", "tame it", p, q, dP, dQ)
    assert str(caught.value) == (
        "the flow overflowed: it is not finite at 2 of 4 points; tame it")


def test_a_scalar_is_one_point():
    with pytest.raises(NumericalError, match="not finite at 1 of 1 points"):
        finite("the twist", "tame it", 0.0, math.inf)


@pytest.mark.parametrize("kind", MANIFOLDS)
def test_an_overflowing_field_is_a_numerical_error_on_both_manifolds(kind):
    # the cylinder's periodicity check meets it when the flow is built, the
    # plane's march when it ends
    with pytest.raises(NumericalError) as caught:
        flow = FlowMap(HamiltonianSpec(parse("1e-300*exp(800*sin(q))")),
                       MANIFOLDS[kind], step=0.1)
        flow.apply(np.linspace(-1, 1, 5), np.linspace(0, 6, 5))
    assert "not finite" in str(caught.value)
    assert "periodic" not in str(caught.value)


@pytest.mark.parametrize("kind", MANIFOLDS)
def test_an_overflowing_primitive_is_a_numerical_error_on_both_manifolds(kind):
    # the cylinder's validation meets it, the plane's pullback defect
    alpha = Primitive.custom("0", "p + exp(800*sin(q))")
    flow = FlowMap(HamiltonianSpec(parse("0.1*exp(-(p^2))")), MANIFOLDS[kind], step=0.1)
    with pytest.raises(NumericalError) as caught:
        cocycle_by_path(flow, alpha.validate(MANIFOLDS[kind]), grid=GridSpec(21, 21))
    assert "not finite" in str(caught.value)
    assert "periodic" not in str(caught.value)
