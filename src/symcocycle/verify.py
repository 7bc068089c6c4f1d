"""Named end-to-end checks with fixed tolerances.

Every check here exercises one library-level guarantee on concrete
scenarios: closed-form anchors where a closed form exists, structural
identities (cocycle law, homomorphism properties, inequalities) where
the guarantee is relational.  The CLI ``verify`` subcommand runs them
all and prints one PASS/FAIL line each; the acceptance test suite runs
the same registry, so a green CLI and a green test run mean the same
thing.

Checks share a Workbench of lazily built flows and cocycles, one per
seed, so running the whole registry costs little more than its most
expensive member.  Every check runs on the gate's GATE_GRID with the
integrator step GATE_STEP.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass

from .geometry import GridSpec, Primitive, Window, cylinder, plane
from .exprlang import parse
from .dynamics import ComposedMap, FlowMap, GroupWord, HamiltonianSpec, TwistMap
from .cocycle import (
    cocycle_by_action,
    cocycle_by_path,
    hamiltonian_test,
    normalize_compact,
    pullback_difference,
)
from .invariants import (
    calabi,
    calabi_from_hamiltonian,
    flux_compare,
    oscillation,
    polterovich,
    twist_boundary_difference,
)
from .cover import (
    LiftedMap,
    deck_residual,
    lifted_cocycle,
    periodicity_residual,
    projection_residual,
)
from .distortion import GeneratorSet, distortion_table, word_ball_norm

__all__ = [
    "CHECK_NAMES",
    "CheckResult",
    "Workbench",
    "run_all",
    "run_check",
]

PLANE_WINDOW = Window(-4.0, 4.0, -4.0, 4.0)
CYL_WINDOW = Window(-2.0, 2.0, 0.0, 2.0 * np.pi)

RADIAL_UNIT_BUMP = "exp(-1.5*(p^2 + q^2))"
HINGE_BUMP = "0.05*max(0, 1 - (p^2 + q^2)/6)^4"
HINGE_BUMP_OFF = "0.04*max(0, 1 - ((p - 0.8)^2 + q^2)/5)^4"
HINGE_BUMP_DECAY = "(1 - t)*0.05*max(0, 1 - (p^2 + q^2)/6)^4"
HINGE_SUPPORT = Window(-2.6, 2.6, -2.6, 2.6)
HINGE_OFF_SUPPORT = Window(-1.7, 3.3, -2.5, 2.5)
GENTLE_BUMP = "0.2*exp(-0.6*(p^2 + q^2))"
LEFT_HINGE = "0.1*max(0, 1 - ((p + 2)^2 + q^2)/2.25)^4"
RIGHT_HINGE = "0.1*max(0, 1 - ((p - 2)^2 + q^2)/2.25)^4"
COMPACT_CYL_F = "0.1*exp(-0.8*p^2)*(1 - cos(q))"
QUAD_PROFILE = "2*pi*((min(1, max(-1, p)) + 1)/2)^2"
SINE_PROFILE = "pi*(1 + sin(pi*min(1, max(-1, p))/2))"

ORIGIN = (0.0, 0.0)
FAR_CORNER = (4.0, 4.0)

GATE_GRID = GridSpec(101, 101)
GATE_STEP = 1e-3


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _signed(v, var):
    return f"({var} - {v:.6f})" if v >= 0 else f"({var} + {-v:.6f})"


class Workbench:
    """Lazily built shared artifacts for the checks."""

    def __init__(self, seed):
        self.seed = int(seed)
        self.grid = GATE_GRID
        self.plane = plane(PLANE_WINDOW)
        self.cyl = cylinder(CYL_WINDOW)
        self.p_dq = Primitive.p_dq()
        self._memo = {}

    def once(self, key, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    # -- maps -----------------------------------------------------

    def flow(self, expr, on_cylinder=False):
        """The unit-time flow of ``expr``."""
        key = ("flow", expr, on_cylinder)
        manifold = self.cyl if on_cylinder else self.plane
        return self.once(key, lambda: FlowMap(
            HamiltonianSpec(parse(expr)), manifold, step=GATE_STEP
        ))

    def random_pairs(self):
        def build():
            rng = np.random.default_rng(self.seed)
            pairs = []
            for _ in range(5):
                exprs = []
                for _ in range(2):
                    amp = rng.uniform(0.05, 0.2)
                    a = rng.uniform(0.3, 0.8)
                    b = rng.uniform(0.3, 0.8)
                    p0 = rng.uniform(-1.0, 1.0)
                    q0 = rng.uniform(-1.0, 1.0)
                    exprs.append(
                        f"{amp:.6f}*exp(-({a:.6f}*{_signed(p0, 'p')}^2"
                        f" + {b:.6f}*{_signed(q0, 'q')}^2))"
                    )
                pairs.append(tuple(exprs))
            return pairs
        return self.once("pairs", build)

    # -- cocycles -------------------------------------------------

    def path_cocycle(self, key, m, primitive=None):
        alpha = primitive or self.p_dq
        tag = ("Kpath", key, getattr(alpha, "name", id(alpha)))
        return self.once(tag, lambda: cocycle_by_path(m, alpha, grid=self.grid))

    def action_cocycle(self, key, m):
        return self.once(
            ("Kaction", key), lambda: cocycle_by_action(m, self.p_dq, grid=self.grid)
        )

    def radial_power(self, n):
        f = self.flow(RADIAL_UNIT_BUMP)
        key = ("radial-power", n)
        fn = self.once(key, lambda: ComposedMap([f] * n, self.plane))
        return fn, self.action_cocycle(("radial", n), fn)


# ============================================================
# The checks
# ============================================================

CHECKS = {}


def _register(name):
    def deco(fn):
        CHECKS[name] = fn
        return fn
    return deco


@_register("cocycle-identity")
def _check_cocycle_identity(bench):
    """osc(K(f.g) - K(f).g - K(g)) below 1e-4 on random bump pairs."""
    worst = 0.0
    for ef, eg in bench.random_pairs():
        f = bench.flow(ef)
        g = bench.flow(eg)
        fg = bench.once(("comp", ef, eg), lambda: ComposedMap([g, f], bench.plane))
        Kfg = bench.path_cocycle(("comp", ef, eg), fg)
        Kf = bench.path_cocycle(ef, f)
        Kg = bench.path_cocycle(eg, g)
        osc = bench.once(
            ("identity-resid", ef, eg),
            lambda: (Kfg - Kf.compose_with(g) - Kg).oscillation(),
        )
        worst = max(worst, osc)
    return worst < 1e-4, (
        f"worst osc residual {worst:.3e} over 5 random pairs (tol 1e-04)"
    )


@_register("method-agreement")
def _check_method_agreement(bench):
    """Path and action routes agree modulo constants on 5 scenarios."""
    worst = 0.0
    for ef, eg in bench.random_pairs():
        f = bench.flow(ef)
        g = bench.flow(eg)
        fg = bench.once(("comp", ef, eg), lambda: ComposedMap([g, f], bench.plane))
        Kp = bench.path_cocycle(("comp", ef, eg), fg)
        Ka = bench.once(
            ("Kaction-comp", ef, eg),
            lambda: cocycle_by_action(fg, bench.p_dq, grid=bench.grid),
        )
        worst = max(worst, (Kp - Ka).oscillation())
    return worst < 1e-4, (
        f"worst route disagreement {worst:.3e} over 5 compositions (tol 1e-04)"
    )


@_register("defining-equation")
def _check_defining_equation(bench):
    """Finite-difference dK matches the pullback defect at interior nodes."""
    ef = bench.random_pairs()[0][0]
    f = bench.flow(ef)
    K = bench.path_cocycle(ef, f)
    _, _, theta_p, theta_q = bench.once(
        ("pullback", ef),
        lambda: pullback_difference(f, bench.p_dq, grid=bench.grid),
    )
    gp, gq = K.fd_gradient()
    err = max(
        float(np.abs(gp - theta_p)[2:-2, 2:-2].max()),
        float(np.abs(gq - theta_q)[2:-2, 2:-2].max()),
    )
    return err < 1e-4, f"max interior component error {err:.3e} (tol 1e-04)"


@_register("primitive-change")
def _check_primitive_change(bench):
    """K with p dq minus K with the symmetric primitive is (pq/2).f - pq/2."""
    ef = bench.random_pairs()[0][0]
    f = bench.flow(ef)
    K1 = bench.path_cocycle(ef, f)
    K2 = bench.path_cocycle(ef, f, Primitive.symmetric())
    P, Q = bench.grid.mesh(PLANE_WINDOW)
    yp, yq = bench.once(
        ("images", ef), lambda: f.apply(P.ravel(), Q.ravel())
    )
    rhs = (0.5 * yp * yq).reshape(P.shape) - 0.5 * P * Q
    diff = (K1 - K2).samples - rhs
    osc = float(np.max(diff) - np.min(diff))
    return osc < 1e-4, f"osc of transfer residual {osc:.3e} (tol 1e-04)"


@_register("dehn-twist")
def _check_dehn_twist(bench):
    """Boundary differences hit their closed forms; the full-turn twist
    normalizes as compactly supported on the cylinder."""
    quad = TwistMap(parse(QUAD_PROFILE), bench.cyl)
    sine = TwistMap(parse(SINE_PROFILE), bench.cyl)
    e_quad = abs(twist_boundary_difference(quad) - 2.0 * np.pi / 3.0)
    e_sine = abs(twist_boundary_difference(sine))
    K = cocycle_by_path(sine, bench.p_dq, grid=bench.grid)
    try:
        normalize_compact(K, Window(-1.05, 1.05, 0.0, 2.0 * np.pi))
        normalized = True
    except Exception:
        normalized = False
    ok = e_quad < 1e-6 and e_sine < 1e-6 and normalized
    return ok, (
        f"quadratic profile error {e_quad:.3e}, symmetric profile error "
        f"{e_sine:.3e} (tol 1e-06), compact normalization "
        f"{'succeeded' if normalized else 'failed'}"
    )


@_register("calabi-factor")
def _check_calabi_factor(bench):
    """calabi(K) against the doubled Hamiltonian integral, three scenarios."""
    cases = [
        (HINGE_BUMP, HINGE_SUPPORT),
        (HINGE_BUMP_OFF, HINGE_OFF_SUPPORT),
        (HINGE_BUMP_DECAY, HINGE_SUPPORT),
    ]
    worst = 0.0
    for expr, support in cases:
        f = bench.flow(expr)
        K = normalize_compact(
            bench.action_cocycle(("calabi", expr), f), support
        )
        want = calabi_from_hamiltonian(f.spec, bench.plane)
        worst = max(worst, abs(calabi(K) - want) / abs(want))
    return worst < 1e-3, (
        f"worst relative error {worst:.3e} over 3 scenarios incl. "
        "time-dependent (tol 1e-03 relative)"
    )


@_register("polterovich-homomorphism")
def _check_polterovich_homomorphism(bench):
    """P(f^n) = n P(f) for n <= 5, and the unit radial bump gives P = 1."""
    values = {}
    for n in range(1, 6):
        fn, K = bench.radial_power(n)
        values[n] = polterovich(fn, K, ORIGIN, FAR_CORNER)
    e_unit = abs(values[1] - 1.0)
    e_hom = max(abs(values[n] - n * values[1]) / n for n in range(2, 6))
    ok = e_unit < 1e-4 and e_hom < 1e-4
    return ok, (
        f"unit-bump value error {e_unit:.3e}, homomorphism defect {e_hom:.3e} "
        "per power (tol 1e-04)"
    )


@_register("polterovich-bound")
def _check_polterovich_bound(bench):
    """|P| <= osc(K) exactly on every scenario with known fixed points."""
    scenarios = []
    for n in range(1, 6):
        fn, K = bench.radial_power(n)
        scenarios.append((fn, K, ORIGIN))
    for expr, center in ((HINGE_BUMP, ORIGIN), (HINGE_BUMP_OFF, (0.8, 0.0))):
        f = bench.flow(expr)
        scenarios.append((f, bench.action_cocycle(("calabi", expr), f), center))
    margin = np.inf
    for f, K, x in scenarios:
        value = abs(polterovich(f, K, x, FAR_CORNER))
        osc = oscillation(K)
        margin = min(margin, osc - value)
        if value > osc:
            return False, (
                f"|P| = {value:.6f} exceeds osc(K) = {osc:.6f}"
            )
    return True, (
        f"|P| <= osc(K) on {len(scenarios)} scenarios, smallest slack "
        f"{margin:.3e}"
    )


@_register("exactness-periods")
def _check_exactness_periods(bench):
    """Loop periods separate translations along q from translations along p."""
    q_trans = bench.flow("0.3*p", on_cylinder=True)
    p_trans = bench.flow("0.3*q", on_cylinder=True)
    rep_q = hamiltonian_test(q_trans, bench.p_dq)
    rep_p = hamiltonian_test(p_trans, bench.p_dq)
    e_q = abs(rep_q.period)
    e_p = abs(rep_p.period - 0.6 * np.pi)
    ok = rep_q.in_ham_hat and e_q < 1e-8 and not rep_p.in_ham_hat and e_p < 1e-6
    return ok, (
        f"q-translation period {rep_q.period:.3e} (tol 1e-08), p-translation "
        f"period off by {e_p:.3e} from 0.6*pi (tol 1e-06)"
    )


@_register("cover-lifting")
def _check_cover_lifting(bench):
    """Deck equivariance of the lift and q-periodicity of the lifted cocycle."""
    f = bench.flow(COMPACT_CYL_F, on_cylinder=True)
    lifted = LiftedMap(f, periods=3)

    def residuals():
        rng = np.random.default_rng(bench.seed + 1)
        ps = rng.uniform(CYL_WINDOW.p_min, CYL_WINDOW.p_max, 100)
        qs = rng.uniform(CYL_WINDOW.q_min, CYL_WINDOW.q_max, 100)
        return max(
            deck_residual(lifted, ps, qs), projection_residual(lifted, ps, qs)
        )

    e_deck = bench.once(("deck-resid", COMPACT_CYL_F), residuals)
    K = bench.once(
        ("lifted-K", COMPACT_CYL_F),
        lambda: lifted_cocycle(f, bench.p_dq, grid=bench.grid, periods=3),
    )
    e_per = periodicity_residual(K, bench.cyl.circumference)
    ok = e_deck < 1e-9 and e_per < 1e-4
    return ok, (
        f"deck equivariance residual {e_deck:.3e} on 100 points (tol 1e-09), "
        f"lifted cocycle periodicity residual {e_per:.3e} (tol 1e-04)"
    )


@_register("flux-boundedness")
def _check_flux_boundedness(bench):
    """Translation flux forces linear growth; compact support stays bounded."""
    trans = bench.flow("0.3*q", on_cylinder=True)
    comp = bench.flow(COMPACT_CYL_F, on_cylinder=True)
    rep_t = bench.once(
        ("flux", "0.3*q"), lambda: flux_compare(trans, grid=bench.grid, periods=3)
    )
    rep_c = bench.once(
        ("flux", COMPACT_CYL_F),
        lambda: flux_compare(comp, grid=bench.grid, periods=3),
    )
    e_growth = abs(rep_t.growth_rate_of_k - 0.3)
    ok = (
        e_growth < 1e-3
        and not rep_t.bounded
        and rep_c.bounded
        and abs(rep_c.growth_rate_of_k) < 1e-3
    )
    return ok, (
        f"translation growth rate off by {e_growth:.3e} (tol 1e-03, "
        f"bounded={rep_t.bounded}), compact growth rate "
        f"{rep_c.growth_rate_of_k:.3e} (bounded={rep_c.bounded})"
    )


@_register("distortion-bound")
def _check_distortion_bound(bench):
    """The cocycle bound undercuts the word-ball norm with a constant ratio,
    and disjoint supports make a genuinely length-2 word."""
    gens = bench.once(
        "distortion-gens",
        lambda: GeneratorSet({"g": bench.flow(GENTLE_BUMP)}, grid=bench.grid),
    )
    rows = bench.once(
        "distortion-table",
        lambda: distortion_table(
            gens, GroupWord.from_string("g"), ORIGIN, FAR_CORNER, 6
        ),
    )
    if any(r[2] is None for r in rows):
        return False, "word-ball search missed a power of the generator"
    sound = all(r[2] == r[0] and r[1] <= r[2] for r in rows)
    ratios = [r[3] for r in rows]
    spread = max(ratios) - min(ratios)
    pair = bench.once(
        "disjoint-gens",
        lambda: GeneratorSet(
            {"a": bench.flow(LEFT_HINGE), "b": bench.flow(RIGHT_HINGE)},
            grid=bench.grid,
            method="action",
        ),
    )
    norm2 = bench.once(
        "disjoint-norm2",
        lambda: word_ball_norm(pair, pair.realize(GroupWord.from_string("a b"))),
    )
    ok = sound and spread < 1e-6 and norm2 == 2
    return ok, (
        f"bound <= norm for n <= 6 ({'yes' if sound else 'no'}), ratio spread "
        f"{spread:.3e} (tol 1e-06), disjoint product norm {norm2} (want 2)"
    )


@_register("integrator-order")
def _check_integrator_order(bench):
    """Fourth-order convergence on the closed-form harmonic rotation."""
    spec = HamiltonianSpec(parse("0.5*(p^2 + q^2)"))
    start = (1.0, 0.3)
    exact = (
        start[0] * np.cos(1.0) + start[1] * np.sin(1.0),
        -start[0] * np.sin(1.0) + start[1] * np.cos(1.0),
    )
    errs = []
    for h in (0.02, 0.01):
        got = FlowMap(spec, bench.plane, step=h).apply(*start)
        ref = FlowMap(spec, bench.plane, step=h / 8).apply(*start)
        errs.append(float(np.hypot(got[0] - ref[0], got[1] - ref[1])))
    ratio = errs[0] / errs[1]
    got = FlowMap(spec, bench.plane, step=0.01).apply(*start)
    e_exact = float(np.hypot(got[0] - exact[0], got[1] - exact[1]))
    ok = ratio >= 8.0 and e_exact < 1e-8
    return ok, (
        f"error ratio {ratio:.2f} when halving the step (want >= 8), "
        f"closed-form error {e_exact:.3e}"
    )


CHECK_NAMES = tuple(CHECKS)

_BENCHES = {}


def _bench_for(seed):
    seed = int(seed)
    if seed not in _BENCHES:
        _BENCHES[seed] = Workbench(seed)
    return _BENCHES[seed]


def run_check(name, seed=0):
    """Run one named check and report the measured numbers."""
    if name not in CHECKS:
        known = ", ".join(CHECK_NAMES)
        raise KeyError(f"unknown check {name!r}; known: {known}")
    bench = _bench_for(seed)
    passed, detail = CHECKS[name](bench)
    return CheckResult(name, bool(passed), detail)


def run_all(seed=0):
    """Run the whole registry in registration order."""
    return [run_check(n, seed=seed) for n in CHECK_NAMES]
