"""Span tracing installed from the benchmark, around calls into each layer.

The layers are the package modules: exprlang, dynamics, cocycle,
invariants, geometry, cover, distortion and cli.  ``install`` replaces
each boundary function with a wrapper that records a span (name, start,
end, parent id).  A function imported elsewhere with ``from .x import y``
is bound in several module namespaces; every binding is replaced, so a
call through any of them is seen.  Methods are patched on their class.

Two boundaries are special:

* the compiled closures handed out by ``Expr.fn`` are called hundreds of
  thousands of times per pass, so their calls are aggregated (count,
  points, time) instead of stored one span each;
* ``FlowMap._march`` is the flow boundary: the action stream and the
  lift monitor reach dynamics through it, not through ``apply``.  The
  ``on_node`` callback it receives belongs to the caller's layer, so it
  is wrapped in a span of that layer.

A span's self time is its duration minus the time its child spans
cover.  ``uninstall`` restores every binding.
"""

import functools
import itertools
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = (
    "exprlang", "dynamics", "cocycle", "invariants",
    "geometry", "cover", "distortion", "cli",
)

# (span name, module, attribute): a module function or a Class.method
BOUNDARIES = (
    ("dynamics.jet", "dynamics", "map_with_jacobian"),
    ("dynamics.twist", "dynamics", "TwistMap.apply"),
    ("cocycle.path", "cocycle", "cocycle_by_path"),
    ("cocycle.action", "cocycle", "cocycle_by_action"),
    ("cocycle.compose", "cocycle", "GridFunction.compose_with"),
    ("cocycle.hamtest", "cocycle", "hamiltonian_test"),
    ("cocycle.normalize", "cocycle", "normalize_compact"),
    ("invariants.calabi", "invariants", "calabi"),
    ("invariants.calabi", "invariants", "calabi_from_hamiltonian"),
    ("invariants.fixed_points", "invariants", "find_fixed_points"),
    ("invariants.polterovich", "invariants", "polterovich"),
    ("invariants.twist", "invariants", "twist_boundary_difference"),
    ("invariants.flux", "invariants", "flux_compare"),
    ("geometry.quad", "geometry", "quad_adaptive"),
    ("cover.lifted_cocycle", "cover", "lifted_cocycle"),
    ("cover.lift", "cover", "LiftedMap.apply"),
    ("cover.deck", "cover", "deck_residual"),
    ("cover.projection", "cover", "projection_residual"),
    ("cover.growth", "cover", "growth_rate"),
    ("distortion.generators", "distortion", "GeneratorSet.__init__"),
    ("distortion.table", "distortion", "distortion_table"),
    ("distortion.bound", "distortion", "distortion_lower_bound"),
    ("distortion.search", "distortion", "word_ball_norm"),
    ("distortion.recheck", "distortion", "_secondary_disagree"),
    ("cli.main", "cli", "main"),
    ("cli.load", "cli", "load_scenario"),
)

EXPR_SPAN = "exprlang.eval"
MARCH_SPAN = "dynamics.march"


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # (id, name, start, end, parent id)
        self.stack = []  # open frames: [id, name, start, child seconds]
        self.open = Counter()
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)  # outermost spans of a name only
        self.counters = Counter()
        self.errors = Counter()  # (span name, exception type name)
        self.search_keys = {}  # search span id -> [fingerprints made, keys]
        self._ids = itertools.count()

    def clear(self):
        """Forget everything recorded so far.  Containers are emptied in
        place because wrapped closures hold references to them."""
        for store in (self.spans, self.calls, self.self_s, self.total_s,
                      self.counters, self.errors, self.search_keys):
            store.clear()

    def enter(self, name):
        self.stack.append([next(self._ids), name, self.clock(), 0.0])
        self.open[name] += 1
        self.calls[name] += 1

    def exit(self):
        end = self.clock()
        span_id, name, start, child = self.stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.open[name] -= 1
        if not self.open[name]:
            self.total_s[name] += duration
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, name, start, end, parent[0] if parent else None))

    def within(self, layer):
        """True when a span of ``layer`` is open."""
        prefix = layer + "."
        return any(frame[1].startswith(prefix) for frame in self.stack)

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            except Exception as e:
                tracer.errors[name, type(e).__name__] += 1
                raise
            finally:
                tracer.exit()

        return traced

    def leaf(self, fn):
        """Aggregate calls of a compiled expression closure."""
        clock, stack, calls, self_s, counters = (
            self.clock, self.stack, self.calls, self.self_s, self.counters
        )

        def counted(p, q, t):
            start = clock()
            out = fn(p, q, t)
            duration = clock() - start
            calls[EXPR_SPAN] += 1
            counters["exprlang.points"] += max(np.size(p), np.size(q))
            self_s[EXPR_SPAN] += duration
            if stack:
                stack[-1][3] += duration
            return out

        return counted


def _march_wrapper(tracer, march):
    def traced_march(flow, p, q, t0, t1, on_node=None):
        points = max(np.size(p), np.size(q))
        steps = max(1, math.ceil(abs(t1 - t0) / flow.step)) if t1 != t0 else 0
        tracer.counters["dynamics.point_steps"] += points * steps
        tracer.counters["dynamics.points"] += points
        if tracer.open["cover.lift"]:
            tracer.counters["cover.lifted_point_steps"] += points * steps
        if points == 1 and tracer.within("invariants"):
            tracer.counters["invariants.single_point_applies"] += 1
        if on_node is not None:
            layer = on_node.__module__.rpartition(".")[2]
            on_node = tracer.wrap(f"{layer}.on_node", on_node)
        tracer.enter(MARCH_SPAN)
        try:
            return march(flow, p, q, t0, t1, on_node)
        finally:
            tracer.exit()

    return traced_march


def _fingerprint_wrapper(tracer, init):
    # search nodes are the fingerprints made directly under a search span;
    # the first two of each search are the target and the identity
    def traced_init(fp, p_images, q_images):
        init(fp, p_images, q_images)
        if not tracer.stack or tracer.stack[-1][1] != "distortion.search":
            return
        state = tracer.search_keys.setdefault(tracer.stack[-1][0], [0, set()])
        state[0] += 1
        if state[0] == 2:
            state[1].add(fp.key)
        elif state[0] > 2:
            tracer.counters["distortion.nodes"] += 1
            if fp.key not in state[1]:
                state[1].add(fp.key)
                tracer.counters["distortion.unique_nodes"] += 1

    return traced_init


class Installation:
    """The patched bindings of one ``install`` call, for undoing and for
    the self-test's check that every import site was reached."""

    def __init__(self):
        self.undo = []  # (namespace object, attribute, original)
        self.sites = defaultdict(list)  # "module.attr" -> module names patched

    def set(self, owner, attr, value):
        self.undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)
        self.undo.clear()


def install(tracer, package="symcocycle"):
    """Wrap every boundary of the imported package for ``tracer``."""
    mods = {
        name: mod for name, mod in sys.modules.items()
        if mod is not None and (name == package or name.startswith(package + "."))
    }
    inst = Installation()
    wrapped = {}
    for span, home, attr in BOUNDARIES:
        mod = mods[f"{package}.{home}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            inst.set(cls, meth, tracer.wrap(span, cls.__dict__[meth]))
            inst.sites[f"{home}.{attr}"].append(home)
            continue
        original = getattr(mod, attr)
        wrapped[id(original)] = (original, tracer.wrap(span, original), f"{home}.{attr}")
    for mod_name, mod in sorted(mods.items()):
        for attr, value in list(vars(mod).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                inst.set(mod, attr, hit[1])
                inst.sites[hit[2]].append(mod_name.rpartition(".")[2])

    dyn = mods[f"{package}.dynamics"]
    inst.set(dyn.FlowMap, "_march", _march_wrapper(tracer, dyn.FlowMap._march))
    inst.sites["dynamics.FlowMap._march"].append("dynamics")

    dist = mods[f"{package}.distortion"]
    fp_init = dist.Fingerprint.__init__
    inst.set(dist.Fingerprint, "__init__", _fingerprint_wrapper(tracer, fp_init))
    inst.sites["distortion.Fingerprint.__init__"].append("distortion")

    # compiled closures: wrap each once, keeping the raw closure alive so
    # its id cannot be reused while the cache holds it
    Expr = mods[f"{package}.exprlang"].Expr
    raw_fn = Expr.__dict__["fn"]
    cache = {}

    def fn(expr):
        raw = raw_fn.fget(expr)
        hit = cache.get(id(raw))
        if hit is None:
            hit = cache[id(raw)] = (raw, tracer.leaf(raw))
        return hit[1]

    inst.set(Expr, "fn", property(fn, doc=raw_fn.__doc__))
    inst.sites["exprlang.Expr.fn"].append("exprlang")
    return inst


def per_pass_metrics(tracer, passes, warning_counts, wall_s):
    """Per-layer metrics, each a per-pass mean over ``passes`` passes.

    ``<layer>.self_s`` is the layer's self time; divided by the traced
    pass time ``trace.wall_s`` it is the layer's share of the pass, and
    what no layer claims is the benchmark's own code and the wrappers.
    """
    n = float(passes)
    calls, total, self_s, c = tracer.calls, tracer.total_s, tracer.self_s, tracer.counters

    def layer_self(layer):
        prefix = layer + "."
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    def ratio(a, b):
        return a / b if b else 0.0

    expr_points = c["exprlang.points"]
    marches = calls[MARCH_SPAN]
    out = {
        "exprlang.calls": (calls[EXPR_SPAN] / n, "count"),
        "exprlang.points": (expr_points / n, "count"),
        "exprlang.self_s": (self_s[EXPR_SPAN] / n, "s"),
        "exprlang.ns_per_point": (ratio(self_s[EXPR_SPAN], expr_points) * 1e9, "ns"),
        "dynamics.marches": (marches / n, "count"),
        "dynamics.points_per_march": (ratio(c["dynamics.points"], marches), "count"),
        "dynamics.point_steps": (c["dynamics.point_steps"] / n, "count"),
        "dynamics.point_steps_per_s": (
            ratio(c["dynamics.point_steps"], total[MARCH_SPAN]), "1/s"),
        "dynamics.self_s": (layer_self("dynamics") / n, "s"),
        "dynamics.jet_calls": (calls["dynamics.jet"] / n, "count"),
        "dynamics.jet_s": (total["dynamics.jet"] / n, "s"),
        "dynamics.escapes": (warning_counts["EscapedWindowWarning"] / n, "count"),
        "cocycle.path_calls": (calls["cocycle.path"] / n, "count"),
        "cocycle.path_self_s": (self_s["cocycle.path"] / n, "s"),
        "cocycle.action_calls": (calls["cocycle.action"] / n, "count"),
        "cocycle.action_self_s": (
            (self_s["cocycle.action"] + self_s["cocycle.on_node"]) / n, "s"),
        "cocycle.compose_self_s": (self_s["cocycle.compose"] / n, "s"),
        "cocycle.nonexact": (
            sum(v for (name, err), v in tracer.errors.items()
                if name.startswith("cocycle.") and err == "NonExactForm") / n,
            "count"),
        "cocycle.hamtest_s": (total["cocycle.hamtest"] / n, "s"),
        "invariants.fixed_points_s": (total["invariants.fixed_points"] / n, "s"),
        "invariants.single_point_applies": (
            c["invariants.single_point_applies"] / n, "count"),
        "invariants.calabi_s": (total["invariants.calabi"] / n, "s"),
        "invariants.flux_s": (total["invariants.flux"] / n, "s"),
        "geometry.quad_calls": (calls["geometry.quad"] / n, "count"),
        "geometry.quad_s": (total["geometry.quad"] / n, "s"),
        "cover.lift_calls": (calls["cover.lift"] / n, "count"),
        "cover.lift_self_s": (
            (self_s["cover.lift"] + self_s["cover.on_node"]) / n, "s"),
        "cover.lifted_point_steps": (c["cover.lifted_point_steps"] / n, "count"),
        "distortion.generators_s": (total["distortion.generators"] / n, "s"),
        "distortion.search_s": (total["distortion.search"] / n, "s"),
        "distortion.search_self_s": (self_s["distortion.search"] / n, "s"),
        "distortion.nodes": (c["distortion.nodes"] / n, "count"),
        "distortion.unique_ratio": (
            ratio(c["distortion.unique_nodes"], c["distortion.nodes"]), "ratio"),
        "distortion.rechecks": (calls["distortion.recheck"] / n, "count"),
        "distortion.recheck_s": (total["distortion.recheck"] / n, "s"),
        "distortion.collisions": (
            warning_counts["FingerprintCollisionWarning"] / n, "count"),
        "cli.load_s": (total["cli.load"] / n, "s"),
        "cli.self_s": (layer_self("cli") / n, "s"),
    }
    for layer in LAYERS:
        out.setdefault(f"{layer}.self_s", (layer_self(layer) / n, "s"))
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.spans"] = ((len(tracer.spans) + calls[EXPR_SPAN]) / n, "count")
    return out
