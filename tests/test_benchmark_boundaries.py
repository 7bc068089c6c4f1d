"""The benchmark's traced run wraps package functions by name.

``perfbench/spans.py`` lists every layer boundary as a (module, attribute)
pair and patches three more by hand, and ``perfbench/selftest.py`` lists
the modules that import some of them by name; a rename, deletion or moved
import in the package would break the traced run only when the benchmark
runs.  These tests read both lists (without importing the benchmark) and
resolve each name here.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from symcocycle.cocycle import action_values, cocycle_by_path, hamiltonian_test
from symcocycle.cover import LiftedMap
from symcocycle.distortion import Fingerprint
from symcocycle.dynamics import (
    ComposedMap,
    FlowMap,
    HamiltonianSpec,
    TwistMap,
    map_with_jacobian,
)
from symcocycle.exprlang import Expr, parse
from symcocycle.geometry import GridSpec, Primitive, Window, cylinder, plane
from symcocycle.invariants import _newton_refine, twist_boundary_difference

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
SELFTEST = SPANS.with_name("selftest.py")


def _assigned(path, name):
    """The literal value of a module-level assignment to ``name``."""
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in {path}")


BOUNDARIES = _assigned(SPANS, "BOUNDARIES")
IMPORT_SITES = _assigned(SELFTEST, "IMPORT_SITES")


def test_boundary_list_is_read():
    assert len(BOUNDARIES) > 20


@pytest.mark.parametrize(
    "home, attr",
    [
        pytest.param(home, attr, id=f"{home}.{attr}")
        for home, attr in sorted({(home, attr) for _, home, attr in BOUNDARIES})
    ],
)
def test_boundary_resolves(home, attr):
    mod = importlib.import_module(f"symcocycle.{home}")
    if "." in attr:
        # methods are patched on their own class, not inherited ones
        cls_name, meth = attr.split(".")
        target = vars(getattr(mod, cls_name)).get(meth)
    else:
        target = getattr(mod, attr, None)
    assert callable(target)


@pytest.mark.parametrize("label", sorted(IMPORT_SITES))
def test_import_sites_bind_the_same_function(label):
    # the self-test requires the traced wrapper at every listed site, which
    # only works while each site holds the very function object of its home
    home, attr = label.split(".")
    original = getattr(importlib.import_module(f"symcocycle.{home}"), attr)
    assert callable(original)
    for site in sorted(IMPORT_SITES[label]):
        bound = getattr(importlib.import_module(f"symcocycle.{site}"), attr, None)
        assert bound is original, f"symcocycle.{site}.{attr}"


def test_march_signature():
    params = list(inspect.signature(FlowMap._march).parameters)
    assert params == ["self", "p", "q", "t0", "t1", "on_node"]
    # the wrapper counts point-steps from the flow's step
    flow = FlowMap(HamiltonianSpec(parse("p")), plane(Window(-1, 1, -1, 1)), step=0.5)
    assert flow.step == 0.5


def test_fingerprint_init_and_key():
    params = list(inspect.signature(Fingerprint.__init__).parameters)
    assert params == ["self", "p_images", "q_images"]
    assert Fingerprint([0.0], [1.0]).key


def test_expr_fn_is_a_property():
    assert isinstance(vars(Expr)["fn"], property)


def test_flow_field_is_one_traced_call_per_rk4_stage(monkeypatch):
    # the benchmark sees field time only through functions handed out by
    # Expr.fn, so a flow must fetch its fused field there, once per stage
    raw = vars(Expr)["fn"]
    sizes = []

    def counting(expr):
        fn = raw.fget(expr)

        def counted(p, q, t):
            sizes.append(max(np.size(p), np.size(q)))
            return fn(p, q, t)

        return counted

    monkeypatch.setattr(Expr, "fn", property(counting))
    spec = HamiltonianSpec(parse("0.2*exp(-0.6*(p^2 + q^2))"))
    flow = FlowMap(spec, plane(Window(-4, 4, -4, 4)), step=0.1)
    n = flow.n_steps()
    ps, qs = np.linspace(-1.0, 1.0, 7), np.zeros(7)
    flow.apply(ps, qs)
    # the first stage's call covers the batch and splits it: the field is
    # exactly 0 at the bump's center (0, 0), which is held, and the other
    # six points are marched
    assert sizes == [7] + [6] * (4 * n - 1)
    # the action route reads the march's own field at every node but the
    # last, so it adds one field call there and, per time node, one call
    # each for F and the two form components
    sizes.clear()
    action_values(flow, Primitive.p_dq(), ps, qs)
    assert len(sizes) == 4 * n + 1 + 3 * (n + 1)


def test_flow_jet_is_one_traced_call_per_rk4_stage(monkeypatch):
    # the jet bypasses _march, so the benchmark sees its field time only
    # through the one function Expr.fn hands out for field and derivatives
    raw = vars(Expr)["fn"]
    calls = []

    def counting(expr):
        fn = raw.fget(expr)

        def counted(p, q, t):
            calls.append((fn, max(np.size(p), np.size(q))))
            return fn(p, q, t)

        return counted

    monkeypatch.setattr(Expr, "fn", property(counting))
    spec = HamiltonianSpec(parse("0.2*exp(-0.6*(p^2 + q^2))"))
    flow = FlowMap(spec, plane(Window(-4, 4, -4, 4)), step=0.1)
    map_with_jacobian(flow, np.linspace(-1.0, 1.0, 7), np.zeros(7))
    assert len(calls) == 4 * flow.n_steps()
    assert len({id(fn) for fn, _ in calls}) == 1
    assert {size for _, size in calls} == {7}


def test_jet_span_covers_every_jet(monkeypatch):
    # the benchmark's dynamics.jet span replaces map_with_jacobian at every
    # module binding; each jet user must reach the jet through one of them
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return map_with_jacobian(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("symcocycle") and getattr(mod, "map_with_jacobian", None) is map_with_jacobian:
            monkeypatch.setattr(mod, "map_with_jacobian", counting)
    pl = plane(Window(-4, 4, -4, 4))
    cyl = cylinder(Window(-2, 2, 0, 2 * np.pi))
    bump = FlowMap(HamiltonianSpec(parse("0.2*exp(-0.6*(p^2 + q^2))")), pl, step=0.1)
    drift = FlowMap(HamiltonianSpec(parse("0.3*q")), cyl, step=0.1)
    twist = TwistMap(parse("0.5*p^2"), cyl)
    cases = {
        "cocycle_by_path": lambda: cocycle_by_path(bump, Primitive.p_dq(), grid=GridSpec(61, 61)),
        "hamiltonian_test": lambda: hamiltonian_test(drift, Primitive.p_dq()),
        "twist_boundary_difference": lambda: twist_boundary_difference(twist),
        "_newton_refine": lambda: _newton_refine(bump, 0.05, 0.02),
    }
    for name, run in cases.items():
        calls.clear()
        run()
        assert calls, name


def test_node_callbacks_belong_to_their_callers_layer(monkeypatch):
    # the march wrapper names an on_node span after the callback's
    # __module__: the action watcher is cocycle's, the gap watcher cover's;
    # a jet reaches _run without _march, so the lifted jet is read there
    marched, ran = [], []
    raw_march, raw_run = FlowMap._march, FlowMap._run

    def march(flow, p, q, t0, t1, on_node=None):
        marched.append(getattr(on_node, "__module__", None))
        return raw_march(flow, p, q, t0, t1, on_node)

    def run(flow, state, t0, t1, on_node):
        ran.append(getattr(on_node, "__module__", None))
        return raw_run(flow, state, t0, t1, on_node)

    monkeypatch.setattr(FlowMap, "_march", march)
    monkeypatch.setattr(FlowMap, "_run", run)
    cyl = cylinder(Window(-2, 2, 0, 2 * np.pi))
    spec = HamiltonianSpec(parse("0.1*exp(-0.8*p^2)*(1 - cos(q))"))
    flow = FlowMap(spec, cyl, step=0.1)
    word = ComposedMap([flow, TwistMap(parse("0.5*p"), cyl), flow.inverse()])
    ps, qs = np.linspace(-1.0, 1.0, 7), np.linspace(0.5, 5.5, 7)
    cases = {
        "action_values": (
            lambda: action_values(ComposedMap([flow, flow.inverse()]), Primitive.p_dq(), ps, qs),
            ["symcocycle.cocycle"] * 2, ["symcocycle.cocycle"] * 2,
        ),
        "lifted apply": (
            lambda: LiftedMap(word).apply(ps, qs),
            ["symcocycle.cover"] * 2, ["symcocycle.cover"] * 2,
        ),
        "lifted jet": (
            lambda: map_with_jacobian(LiftedMap(word), ps, qs),
            [], ["symcocycle.cover"] * 2,
        ),
        "apply": (lambda: word.apply(ps, qs), [None] * 2, [None] * 2),
    }
    for name, (call, want_marched, want_ran) in cases.items():
        marched.clear()
        ran.clear()
        call()
        assert (marched, ran) == (want_marched, want_ran), name


def test_every_image_march_goes_through_march(monkeypatch):
    # the benchmark's dynamics.march span and its cover.lifted_point_steps
    # count see flow images only through FlowMap._march; jets march the
    # variational equation and stay out of both
    marched = []
    raw = FlowMap._march

    def counting(flow, p, q, t0, t1, on_node=None):
        marched.append(flow)
        return raw(flow, p, q, t0, t1, on_node)

    monkeypatch.setattr(FlowMap, "_march", counting)
    cyl = cylinder(Window(-2, 2, 0, 2 * np.pi))
    spec = HamiltonianSpec(parse("0.1*exp(-0.8*p^2)*(1 - cos(q))"))
    flow = FlowMap(spec, cyl, step=0.1)
    back = flow.inverse()
    word = ComposedMap([flow, TwistMap(parse("0.5*p"), cyl), back])
    ps, qs = np.linspace(-1.0, 1.0, 7), np.linspace(0.5, 5.5, 7)
    want_p, want_q = word.apply(ps, qs)
    cases = {
        "apply": (lambda: flow.apply(ps, qs), [flow]),
        "carry": (lambda: flow.carry(ps, qs, None), [flow]),
        "lifted apply": (lambda: LiftedMap(word).apply(ps, qs), [flow, back]),
        "action_values": (
            lambda: action_values(ComposedMap([flow, back]), Primitive.p_dq(), ps, qs),
            [flow, back],
        ),
        "jet": (lambda: map_with_jacobian(word, ps, qs), []),
        "lifted jet": (lambda: map_with_jacobian(LiftedMap(word), ps, qs), []),
    }
    for name, (run, want) in cases.items():
        marched.clear()
        run()
        assert marched == want, name
    # the lift's images are the base map's, unwrapped, to the bit
    got_p, got_q = LiftedMap(word).apply(ps, qs)
    assert got_p.tobytes() == want_p.tobytes()
    assert got_q.tobytes() == want_q.tobytes()
