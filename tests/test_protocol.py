"""The map protocol shared by every consumer of isotopy data.

Each map exposes ``factors``, the flat tuple of its atomic isotopy
pieces; the action route, the lift to the cover and the flux read it
through ``isotopy``.
"""

import functools
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcocycle.errors import ValidationError
from symcocycle.exprlang import parse
from symcocycle.geometry import GridSpec, Primitive, Window, cylinder, plane
from symcocycle.dynamics import (
    ComposedMap,
    FlowMap,
    GroupWord,
    HamiltonianSpec,
    IdentityMap,
    TwistMap,
    compose,
    isotopy,
    map_with_jacobian,
)
from symcocycle.cocycle import cocycle_by_action, cocycle_by_path, hamiltonian_test
from symcocycle.cover import LiftedMap
from symcocycle.invariants import flux_compare

CYL = cylinder(Window(-2, 2, 0, 2 * math.pi))
PLANE = plane(Window(-2, 2, -2, 2))
GRID = GridSpec(31, 33)


class Opaque:
    """A map with an ``apply`` method and nothing else."""

    manifold = CYL

    def apply(self, p, q):
        return p, q


class PlaneOpaque(Opaque):
    manifold = PLANE


def drift_flow():
    # a q-periodic bump plus a p-translation, so the flux is nonzero
    return FlowMap(
        HamiltonianSpec(parse("0.1*exp(-0.8*p^2)*(1 - cos(q)) + 0.2*q")),
        CYL,
        step=0.05,
    )


def test_atoms_and_flattening():
    f = drift_flow()
    tw = TwistMap(parse("0.5*p"), CYL)
    assert f.factors == (f,)
    assert tw.factors == (tw,)
    assert IdentityMap(CYL).factors == ()
    nested = ComposedMap([ComposedMap([f, IdentityMap(CYL)]), tw])
    assert nested.factors == (f, tw)
    assert isotopy(nested) == (f, tw)
    assert ComposedMap([IdentityMap(CYL)]).factors == ()


def test_nested_composition_gives_bitwise_equal_values():
    f = drift_flow()
    tw = TwistMap(parse("0.5*p"), CYL)
    flat = ComposedMap([f, tw])
    nested = ComposedMap([ComposedMap([f, IdentityMap(CYL)]), tw])
    ps = np.linspace(-1.5, 1.5, 7)
    qs = np.linspace(0.2, 6.0, 7)
    for a, b in zip(flat.apply(ps, qs), nested.apply(ps, qs)):
        assert a.tobytes() == b.tobytes()
    lifted = zip(LiftedMap(flat).apply(ps, qs), LiftedMap(nested).apply(ps, qs))
    for a, b in lifted:
        assert a.tobytes() == b.tobytes()
    rep_flat = flux_compare(flat, grid=GRID)
    rep_nested = flux_compare(nested, grid=GRID)
    assert rep_flat.flux_value != 0.0
    assert rep_flat.flux_value == rep_nested.flux_value
    assert rep_flat.growth_rate_of_k == rep_nested.growth_rate_of_k


@pytest.mark.parametrize("wrap", [False, True])
def test_opaque_map_rejected_by_every_consumer(wrap):
    m = ComposedMap([drift_flow(), Opaque()]) if wrap else Opaque()
    with pytest.raises(ValidationError, match="Opaque carries no isotopy data"):
        isotopy(m)
    with pytest.raises(ValidationError, match="no isotopy data"):
        cocycle_by_action(m, Primitive.p_dq(), grid=GRID)
    with pytest.raises(ValidationError, match="no isotopy data"):
        LiftedMap(m)
    with pytest.raises(ValidationError, match="no isotopy data"):
        flux_compare(m, grid=GRID)
    with pytest.raises(ValidationError, match="no isotopy data"):
        cocycle_by_path(m, Primitive.p_dq(), grid=GRID)
    with pytest.raises(ValidationError, match="no isotopy data"):
        map_with_jacobian(m, np.zeros(3), np.zeros(3))
    with pytest.raises(ValidationError, match="no isotopy data"):
        hamiltonian_test(m, Primitive.p_dq())
    # a composition applies by the one walk over its pieces, so it too
    with pytest.raises(ValidationError, match="Opaque carries no isotopy data"):
        ComposedMap([drift_flow(), Opaque()]).apply(np.zeros(3), np.zeros(3))
    # the plane has no loop for the exactness test to integrate around,
    # but the map is checked all the same
    flow = FlowMap(HamiltonianSpec(parse("0.1*p")), PLANE, step=0.5)
    m = ComposedMap([flow, PlaneOpaque()]) if wrap else PlaneOpaque()
    with pytest.raises(ValidationError, match="no isotopy data"):
        hamiltonian_test(m, Primitive.p_dq())
    with pytest.raises(ValidationError, match="no isotopy data"):
        cocycle_by_path(m, Primitive.p_dq(), grid=GRID)
    with pytest.raises(ValidationError, match="no isotopy data"):
        cocycle_by_action(m, Primitive.p_dq(), grid=GRID)


def test_action_route_rejects_twists():
    tw = TwistMap(parse("0.5*p"), CYL)
    with pytest.raises(ValidationError, match="composition of flows"):
        cocycle_by_action(ComposedMap([drift_flow(), tw]), Primitive.p_dq(), grid=GRID)


@functools.lru_cache(maxsize=None)
def word_maps():
    return {"f": drift_flow(), "t": TwistMap(parse("0.5*p"), CYL)}


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("ft"), st.sampled_from([1, -1])), max_size=5))
def test_compose_matches_letters_applied_one_at_a_time(letters):
    maps = word_maps()
    inverses = {name: m.inverse() for name, m in maps.items()}
    word = GroupWord(tuple(letters))
    ps = np.linspace(-1.5, 1.5, 5)
    qs = np.linspace(0.2, 6.0, 5)
    got_p, got_q = compose(word, maps, CYL).apply(ps, qs)
    p, q = ps, qs
    for name, e in reversed(word.letters):  # product order: rightmost first
        p, q = (maps if e == 1 else inverses)[name].apply(p, q)
    assert got_p.tobytes() == np.asarray(p).tobytes()
    assert got_q.tobytes() == np.asarray(q).tobytes()


def test_compose_reuses_the_cached_flow_inverse():
    f = word_maps()["f"]
    inverse_word = compose(GroupWord((("f", -1),)), word_maps(), CYL)
    assert len(inverse_word.factors) == 1
    assert inverse_word.factors[0] is f.inverse()


@pytest.mark.parametrize(
    "module",
    ["symcocycle"] + [
        f"symcocycle.{name}"
        for name in ("cli", "cocycle", "cover", "distortion", "dynamics",
                     "errors", "exprlang", "geometry", "invariants", "verify")
    ],
)
def test_public_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
