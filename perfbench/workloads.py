"""The three benchmark workloads: seeded inputs, set-up, one pass, checks.

Every workload is a fixed pipeline of public ``symcocycle`` calls.  The
seed only chooses the inputs (bump parameters, the member of the
``rotate`` family, the deck points, the probe seed); the library sees
nothing but the generated expressions and points.  Library functions
are called directly rather than through ``verify.run_check``, whose
module-level workbench memo would turn every pass after the first into
a dictionary lookup.

Integrator steps are coarse (1e-2 on the grids, 2e-2 in the word
search) so that one pass takes a few seconds and a run holds several;
every check still passes with a wide margin at these steps.

A pass returns its outputs (grid samples, CSV bytes, scalars) so that
traced and untraced passes can be compared bit for bit, and records one
check per checked operation on a ``Checks`` object.
"""

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi

# plane-grid
PLANE_GRID = 101
PLANE_STEP = 1e-2
HINGE_BUMP = "0.05*max(0, 1 - (p^2 + q^2)/6)^4"
HINGE_SUPPORT = (-2.6, 2.6, -2.6, 2.6)

# cylinder-cover
CYL_GRID = 61
CYL_STEP = 1e-2
TRANSLATION = "0.3*q"
QUAD_PROFILE = "2*pi*((min(1, max(-1, p)) + 1)/2)^2"
SINE_PROFILE = "pi*(1 + sin(pi*min(1, max(-1, p))/2))"
SINE_SUPPORT = (-1.05, 1.05, 0.0, TWO_PI)
DECK_POINTS = 100

# word-search: the shipped scenario with a coarser integrator step
SCENARIO = Path("scenarios") / "disjoint_pair.json"
WORD_STEP = 0.02
WORD_NORMS = (2, 4)


class Checks:
    """Outcome of every checked operation: error, tolerance, pass/fail.

    ``ok`` alone decides whether a check passed; ``error`` over ``tol``,
    for checks that have a numeric error, only feeds ``worst_ratio``.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.worst_ratio = 0.0
        self.worst_name = None
        self.failures = []

    def record(self, name, ok, error=None, tol=None):
        self.attempted += 1
        if error is not None:
            ratio = abs(error) / tol
            if ratio >= self.worst_ratio:
                self.worst_ratio, self.worst_name = ratio, name
        if not ok:
            self.failed += 1
            self.failures.append(name if error is None else f"{name} ({error:.3e})")

    def below(self, name, error, tol, ok=True):
        """A check that passes when ``ok`` and ``|error| < tol``."""
        self.record(name, ok and abs(error) < tol, error, tol)

    def fail_rest(self, names, reason):
        """Count the checks a pass never reached because it raised."""
        for name in names:
            self.attempted += 1
            self.failed += 1
            self.failures.append(f"{name} ({reason})")


def _signed(v, var):
    return f"({var} - {v:.6f})" if v >= 0 else f"({var} + {-v:.6f})"


def _bump(rng):
    # the distribution of verify.Workbench.random_pairs
    amp = rng.uniform(0.05, 0.2)
    a = rng.uniform(0.3, 0.8)
    b = rng.uniform(0.3, 0.8)
    p0 = rng.uniform(-1.0, 1.0)
    q0 = rng.uniform(-1.0, 1.0)
    return (
        f"{amp:.6f}*exp(-({a:.6f}*{_signed(p0, 'p')}^2"
        f" + {b:.6f}*{_signed(q0, 'q')}^2))"
    )


def make_inputs(workload, seed):
    """Everything a pass consumes that depends on the seed."""
    # negative seeds map to distinct nonnegative entropy
    rng = np.random.default_rng([int(seed) % 2**64, WORKLOAD_INDEX[workload]])
    if workload == "plane-grid":
        return {"f": _bump(rng), "g": _bump(rng)}
    if workload == "cylinder-cover":
        amp = rng.uniform(0.05, 0.15)
        decay = rng.uniform(0.5, 1.0)
        phase = rng.uniform(0.0, TWO_PI)
        return {
            "rotate": f"{amp:.6f}*exp(-{decay:.6f}*p^2)*(1 - cos(q - {phase:.6f}))",
            "deck_p": rng.uniform(-2.0, 2.0, DECK_POINTS),
            "deck_q": rng.uniform(0.0, TWO_PI, DECK_POINTS),
        }
    return {"probe_seed": int(rng.integers(0, 10_000))}


# ============================================================
# plane-grid
# ============================================================


@dataclass
class PlaneState:
    sc: object
    f: object
    g: object
    fg: object
    hinge: object
    alpha: object
    grid: object
    support: object


def setup_plane(sc, inputs, workdir):
    plane = sc.plane(sc.Window(-4.0, 4.0, -4.0, 4.0))

    def flow(text):
        return sc.FlowMap(sc.HamiltonianSpec(sc.exprlang.parse(text)), plane, step=PLANE_STEP)

    f, g = flow(inputs["f"]), flow(inputs["g"])
    return PlaneState(
        sc=sc, f=f, g=g, fg=sc.ComposedMap([g, f], plane), hinge=flow(HINGE_BUMP),
        alpha=sc.Primitive.p_dq(), grid=sc.GridSpec(PLANE_GRID, PLANE_GRID),
        support=sc.Window(*HINGE_SUPPORT),
    )


PLANE_CHECKS = ("identity-residual", "route-gap", "calabi")


def pass_plane(st, checks):
    sc, alpha, grid = st.sc, st.alpha, st.grid
    Kf = sc.cocycle_by_path(st.f, alpha, grid=grid)
    Kg = sc.cocycle_by_path(st.g, alpha, grid=grid)
    Kfg = sc.cocycle_by_path(st.fg, alpha, grid=grid)
    Ka = sc.cocycle_by_action(st.fg, alpha, grid=grid)
    Kf_g = Kf.compose_with(st.g)
    identity = (Kfg - Kf_g - Kg).oscillation()
    checks.below("identity-residual", identity, 1e-4)
    gap = (Kfg - Ka).oscillation()
    checks.below("route-gap", gap, 1e-4)
    Kh = sc.normalize_compact(sc.cocycle_by_action(st.hinge, alpha, grid=grid), st.support)
    got = sc.calabi(Kh)
    want = sc.calabi_from_hamiltonian(st.hinge.spec, st.hinge.manifold)
    checks.below("calabi", (got - want) / want, 1e-3)
    return {
        "Kf": Kf.samples, "Kg": Kg.samples, "Kfg": Kfg.samples,
        "Ka": Ka.samples, "Kf_g": Kf_g.samples, "Kh": Kh.samples,
        "calabi": np.array([got, want]),
    }


# ============================================================
# word-search
# ============================================================


@dataclass
class WordState:
    sc: object
    scenario: object
    argv: list
    out: Path


def setup_word(sc, inputs, workdir):
    spec = json.loads(SCENARIO.read_text())
    spec["integrator"]["h"] = WORD_STEP
    config = Path(workdir) / SCENARIO.name
    config.write_text(json.dumps(spec))
    # parsed here for the set-up time; each pass loads it again through the CLI
    scenario = sc.cli.load_scenario(config)
    out = Path(workdir) / "distortion.csv"
    argv = [
        "distortion", "--config", str(config), "--word", "a b",
        "--method", "action", "--n-max", str(len(WORD_NORMS)),
        "--seed", str(inputs["probe_seed"]), "--out", str(out),
    ]
    return WordState(sc=sc, scenario=scenario, argv=argv, out=out)


WORD_CHECKS = ("exit-code",) + tuple(f"row-{n}" for n in range(1, len(WORD_NORMS) + 1))


def pass_word(st, checks):
    st.out.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = st.sc.cli.main(st.argv)
    checks.record("exit-code", code == 0)
    text = st.out.read_bytes() if st.out.exists() else b""
    rows = [line.split(",") for line in text.decode().splitlines()[1:]]
    for n, want in enumerate(WORD_NORMS, start=1):
        row = rows[n - 1] if n <= len(rows) else None
        ok = row is not None and row[0] == str(n) and row[2] == str(want)
        # the bound may equal the norm but not exceed it
        bound = float(row[1]) if ok else None
        checks.record(f"row-{n}", ok and bound <= want, bound, want)
    return {"csv": text}


# ============================================================
# cylinder-cover
# ============================================================


@dataclass
class CylinderState:
    sc: object
    trans: object
    rotate: object
    lifted: object
    quad: object
    sine: object
    deck_p: np.ndarray
    deck_q: np.ndarray
    alpha: object
    grid: object
    support: object


def setup_cylinder(sc, inputs, workdir):
    cyl = sc.cylinder(sc.Window(-2.0, 2.0, 0.0, TWO_PI))

    def flow(text):
        # construction checks the field's q-periodicity
        return sc.FlowMap(sc.HamiltonianSpec(sc.exprlang.parse(text)), cyl, step=CYL_STEP)

    rotate = flow(inputs["rotate"])
    return CylinderState(
        sc=sc, trans=flow(TRANSLATION), rotate=rotate,
        lifted=sc.LiftedMap(rotate, periods=3),
        quad=sc.TwistMap(sc.exprlang.parse(QUAD_PROFILE), cyl),
        sine=sc.TwistMap(sc.exprlang.parse(SINE_PROFILE), cyl),
        deck_p=inputs["deck_p"], deck_q=inputs["deck_q"],
        alpha=sc.Primitive.p_dq(), grid=sc.GridSpec(CYL_GRID, CYL_GRID),
        support=sc.Window(*SINE_SUPPORT),
    )


CYLINDER_CHECKS = (
    "translation-growth", "compact-growth", "translation-period",
    "compact-period", "deck-residual", "projection-residual",
    "quad-twist", "sine-compact", "compact-action-finite",
)


def pass_cylinder(st, checks):
    sc, alpha, grid = st.sc, st.alpha, st.grid
    rep_t = sc.flux_compare(st.trans, grid=grid, periods=3)
    rep_c = sc.flux_compare(st.rotate, grid=grid, periods=3)
    checks.below("translation-growth", rep_t.growth_rate_of_k - 0.3, 1e-3, ok=not rep_t.bounded)
    checks.below("compact-growth", rep_c.growth_rate_of_k, 1e-3, ok=rep_c.bounded)
    ham_t = sc.hamiltonian_test(st.trans, alpha)
    ham_c = sc.hamiltonian_test(st.rotate, alpha)
    checks.below("translation-period", ham_t.period - 0.6 * math.pi, 1e-6,
                 ok=not ham_t.in_ham_hat)
    checks.below("compact-period", ham_c.period, 1e-6, ok=ham_c.in_ham_hat)
    deck = sc.cover.deck_residual(st.lifted, st.deck_p, st.deck_q)
    proj = sc.cover.projection_residual(st.lifted, st.deck_p, st.deck_q)
    checks.below("deck-residual", deck, 1e-9)
    checks.below("projection-residual", proj, 1e-9)
    quad = sc.twist_boundary_difference(st.quad)
    checks.below("quad-twist", quad - TWO_PI / 3.0, 1e-6)
    Ks = sc.cocycle_by_path(st.sine, alpha, grid=grid)
    try:
        Ks = sc.normalize_compact(Ks, st.support)
        checks.record("sine-compact", True)
    except sc.cocycle.NotConstantOutsideSupport:
        checks.record("sine-compact", False)
    Kc = sc.cocycle_by_action(st.rotate, alpha, grid=grid)
    checks.record("compact-action-finite", bool(np.all(np.isfinite(Kc.samples))))
    return {
        "flux": np.array([
            rep_t.flux_value, rep_t.growth_rate_of_k,
            rep_c.flux_value, rep_c.growth_rate_of_k,
            ham_t.period, ham_c.period, deck, proj, quad,
        ]),
        "Ks": Ks.samples, "Kc": Kc.samples,
    }


@dataclass(frozen=True)
class Workload:
    setup: object
    run_pass: object
    check_names: tuple


WORKLOADS = {
    "plane-grid": Workload(setup_plane, pass_plane, PLANE_CHECKS),
    "word-search": Workload(setup_word, pass_word, WORD_CHECKS),
    "cylinder-cover": Workload(setup_cylinder, pass_cylinder, CYLINDER_CHECKS),
}
WORKLOAD_INDEX = {name: i for i, name in enumerate(WORKLOADS)}
