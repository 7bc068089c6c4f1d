"""Config-driven command line: scenario JSON in, CSV or scalars out.

A scenario file declares the chart (manifold, window, resolution), a
primitive one-form, named Hamiltonians and twist profiles, a generator
list referencing those names, integrator settings and tolerances.  The
subcommand picks what to compute.  Outputs are deterministic: grids are
written as `p,q,value` CSV rows in row-major order with p outermost,
every float at 17 significant digits with LF line endings.

Exit codes: 0 success, 1 failed verification properties, 2 invalid
configuration or arguments, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericalError, ValidationError
from .exprlang import parse as parse_expr
from .geometry import GridSpec, Primitive, Window, cylinder, plane
from .dynamics import (
    FD_H,
    FlowMap,
    GroupWord,
    HamiltonianSpec,
    TwistMap,
    compose,
    isotopy,
)
from .cocycle import PATH_TOL, cocycle_by_action, cocycle_by_path
from .invariants import (
    NoFixedPointFound,
    calabi_from_hamiltonian,
    find_fixed_points,
    flux_compare,
    oscillation,
    polterovich,
    twist_boundary_difference,
)
from .cover import lifted_cocycle, growth_rate, periodicity_residual
from .distortion import GeneratorSet, distortion_table
from . import verify as verify_mod

__all__ = ["Scenario", "load_scenario", "main"]


# ============================================================
# Scenario files
# ============================================================


@dataclass
class Scenario:
    manifold: object
    grid: GridSpec
    primitive: Primitive
    maps: dict
    generator_names: tuple
    tol: float
    fd_h: float
    basepoint: tuple | None


def _require_keys(block, allowed, required, where):
    if not isinstance(block, dict):
        raise ValidationError(f"scenario {where}: expected an object")
    unknown = set(block) - set(allowed)
    if unknown:
        raise ValidationError(
            f"scenario {where}: unknown keys {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )
    missing = set(required) - set(block)
    if missing:
        raise ValidationError(
            f"scenario {where}: missing required keys {sorted(missing)}"
        )


def _number(block, key, where, default=None):
    v = block.get(key, default)
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ValidationError(f"scenario {where}: {key} must be a number")
    return float(v)


def _positive(v, what):
    # JSON and --tol both accept NaN and infinity, which switch checks off
    if not (v > 0 and math.isfinite(v)):
        raise ValidationError(f"{what} must be positive and finite, got {v}")
    return v


def _window_from(block, where):
    _require_keys(
        block, ("p_min", "p_max", "q_min", "q_max"),
        ("p_min", "p_max", "q_min", "q_max"), where,
    )
    return Window(
        _number(block, "p_min", where), _number(block, "p_max", where),
        _number(block, "q_min", where), _number(block, "q_max", where),
    )


def _manifold_from(block):
    allowed = ("kind", "window", "resolution", "circumference")
    _require_keys(block, allowed, ("kind", "window", "resolution"), "manifold")
    kind = block["kind"]
    window = _window_from(block["window"], "manifold.window")
    if kind == "plane":
        if "circumference" in block:
            raise ValidationError(
                "scenario manifold: circumference applies only to cylinders"
            )
        manifold = plane(window)
    elif kind == "cylinder":
        circ = _number(block, "circumference", "manifold", 2.0 * np.pi)
        manifold = cylinder(window, circ)
    else:
        raise ValidationError(
            f"scenario manifold: kind must be 'plane' or 'cylinder', got {kind!r}"
        )
    res = block["resolution"]
    if (
        not isinstance(res, (list, tuple)) or len(res) != 2
        or not all(isinstance(n, int) and not isinstance(n, bool) for n in res)
    ):
        raise ValidationError(
            "scenario manifold: resolution must be a pair of integers [n_p, n_q]"
        )
    return manifold, GridSpec(res[0], res[1])


def _primitive_from(block):
    if block is None:
        return Primitive.p_dq()
    if isinstance(block, str):
        return Primitive.named(block)
    _require_keys(block, ("a_p", "a_q"), ("a_p", "a_q"), "primitive")
    return Primitive.custom(block["a_p"], block["a_q"])


def load_scenario(path):
    """Parse and validate a scenario JSON file."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as e:
        raise ValidationError(f"cannot read scenario file {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ValidationError(f"scenario file {path} is not valid JSON: {e}") from None
    allowed = (
        "manifold", "primitive", "hamiltonians", "twists", "generators",
        "integrator", "tolerances", "basepoint",
    )
    _require_keys(raw, allowed, ("manifold",), "root")
    manifold, grid = _manifold_from(raw["manifold"])
    primitive = _primitive_from(raw.get("primitive"))
    primitive.validate(manifold)

    integ = raw.get("integrator", {})
    _require_keys(integ, ("scheme", "h"), (), "integrator")
    # the key stays for compatibility; RK4 is the only integrator
    if integ.get("scheme", "rk4") != "rk4":
        raise ValidationError(
            f"scenario integrator: scheme must be 'rk4', got {integ['scheme']!r}"
        )
    step = _number(integ, "h", "integrator", 1e-3)

    tols = raw.get("tolerances", {})
    _require_keys(tols, ("tol", "fd_h"), (), "tolerances")
    tol = _positive(_number(tols, "tol", "tolerances", PATH_TOL), "tolerances.tol")
    fd_h = _positive(_number(tols, "fd_h", "tolerances", FD_H), "tolerances.fd_h")

    maps = {}
    hams = raw.get("hamiltonians", {})
    if not isinstance(hams, dict):
        raise ValidationError("scenario hamiltonians: expected an object")
    for name, block in hams.items():
        where = f"hamiltonians.{name}"
        _require_keys(
            block, ("expression", "duration", "support_claim"),
            ("expression",), where,
        )
        claim = block.get("support_claim")
        spec = HamiltonianSpec(
            parse_expr(block["expression"]),
            _number(block, "duration", where, 1.0),
            None if claim is None else _window_from(claim, f"{where}.support_claim"),
        )
        spec.validate_support(manifold)
        maps[name] = FlowMap(spec, manifold, step=step)

    twists = raw.get("twists", {})
    if not isinstance(twists, dict):
        raise ValidationError("scenario twists: expected an object")
    for name, block in twists.items():
        where = f"twists.{name}"
        if name in maps:
            raise ValidationError(
                f"scenario {where}: name already used by a hamiltonian"
            )
        _require_keys(block, ("profile",), ("profile",), where)
        maps[name] = TwistMap(parse_expr(block["profile"]), manifold)

    gen_names = raw.get("generators", [])
    if not isinstance(gen_names, list) or not all(
        isinstance(n, str) for n in gen_names
    ):
        raise ValidationError("scenario generators: expected a list of names")
    for name in gen_names:
        if name not in maps:
            raise ValidationError(
                f"scenario generators: {name!r} is not a defined hamiltonian "
                "or twist"
            )

    basepoint = raw.get("basepoint")
    if basepoint is not None:
        if not isinstance(basepoint, (list, tuple)) or len(basepoint) != 2:
            raise ValidationError("scenario basepoint: expected [p, q]")
        coords = dict(zip("pq", basepoint))
        bp = (_number(coords, "p", "basepoint"), _number(coords, "q", "basepoint"))
        if not manifold.window.contains(bp[0], bp[1]):
            raise ValidationError(
                f"scenario basepoint: ({bp[0]:.6g}, {bp[1]:.6g}) lies outside "
                "the window"
            )
        basepoint = bp

    return Scenario(
        manifold=manifold, grid=grid, primitive=primitive, maps=maps,
        generator_names=tuple(gen_names), tol=tol, fd_h=fd_h,
        basepoint=basepoint,
    )


# ============================================================
# Shared command helpers
# ============================================================


def _scenario(args):
    sc = load_scenario(args.config)
    if args.tol is not None:
        sc.tol = _positive(args.tol, "--tol")
    return sc


def _word_of(args, sc):
    text = getattr(args, "word", None)
    if text is None:
        if not sc.generator_names:
            raise ValidationError(
                "no generators in the scenario and no --word given"
            )
        text = " ".join(sc.generator_names)
    return GroupWord.from_string(text)


def _realized(args, sc):
    word = _word_of(args, sc)
    m = compose(word, sc.maps, sc.manifold)
    if len(m.factors) == 1:
        # single-letter words keep their concrete map type, which carries
        # extra structure (per-flow action values, for one)
        m = m.factors[0]
    return word, m


def _word_cocycle(args, sc, m):
    if getattr(args, "method", "path") == "action":
        return cocycle_by_action(m, sc.primitive, grid=sc.grid)
    return cocycle_by_path(
        m, sc.primitive, basepoint=sc.basepoint, grid=sc.grid,
        fd_h=sc.fd_h, tol=sc.tol,
    )


def _point_arg(text, flag):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError(f"{flag} expects 'p,q', got {text!r}")
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError:
        raise ValidationError(f"{flag} expects numbers, got {text!r}") from None


def _out_path(args, command):
    out = getattr(args, "out", None)
    if out is None:
        target = Path("out")
    else:
        target = Path(out)
        if not (out.endswith("/") or target.is_dir()):
            target.parent.mkdir(parents=True, exist_ok=True)
            return target
    target.mkdir(parents=True, exist_ok=True)
    return target / f"{command}.csv"


def _write_csv(path, header, rows):
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def _grid_rows(K):
    for i, p in enumerate(K.p_nodes):
        for j, q in enumerate(K.q_nodes):
            yield (p, q, K.samples[i, j])


def _emit_scalar(args, text):
    out = getattr(args, "out", None)
    if out is None:
        print(text)
    else:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n", newline="\n")


def _auto_pair(m, K, sc):
    """Two fixed points separated as far as the cocycle can tell."""
    report = find_fixed_points(m, grid=sc.grid)
    if len(report.points) < 2:
        raise NoFixedPointFound(
            "fixed-point search found fewer than two fixed points; give "
            "--x and --y explicitly"
        )
    pts = [fp.location for fp in report.points]
    vals = [K.evaluate_cubic(p, q) for p, q in pts]
    lo = int(np.argmin(vals))
    hi = int(np.argmax(vals))
    if lo == hi:
        lo, hi = 0, 1
    return pts[hi], pts[lo]


# ============================================================
# Subcommand handlers
# ============================================================


def _cmd_cocycle(args):
    sc = _scenario(args)
    _, m = _realized(args, sc)
    K = _word_cocycle(args, sc, m)
    path = _out_path(args, "cocycle")
    _write_csv(path, "p,q,value", _grid_rows(K))
    print(f"wrote {path} ({K.n_p}x{K.n_q} nodes)")
    return 0


def _cmd_calabi(args):
    sc = _scenario(args)
    _, m = _realized(args, sc)
    total = 0.0
    for factor in isotopy(m):
        if not isinstance(factor, FlowMap):
            raise ValidationError(
                "calabi: every word letter must be a hamiltonian flow"
            )
        total += calabi_from_hamiltonian(factor.spec, sc.manifold)
    _emit_scalar(args, f"calabi {total:.8g}")
    return 0


def _cmd_polterovich(args):
    sc = _scenario(args)
    _, m = _realized(args, sc)
    K = _word_cocycle(args, sc, m)
    if args.auto_fixed_points:
        x, y = _auto_pair(m, K, sc)
    elif args.x and args.y:
        x = _point_arg(args.x, "--x")
        y = _point_arg(args.y, "--y")
    else:
        raise ValidationError(
            "polterovich needs --x and --y, or --auto-fixed-points"
        )
    value = polterovich(m, K, x, y)
    _emit_scalar(
        args,
        f"polterovich {value:.8g} between ({x[0]:.8g}, {x[1]:.8g}) "
        f"and ({y[0]:.8g}, {y[1]:.8g})",
    )
    return 0


def _cmd_osc(args):
    sc = _scenario(args)
    _, m = _realized(args, sc)
    K = _word_cocycle(args, sc, m)
    _emit_scalar(args, f"oscillation {oscillation(K):.8g}")
    return 0


def _cmd_twist_check(args):
    sc = _scenario(args)
    names = [n for n, m in sc.maps.items() if isinstance(m, TwistMap)]
    name = args.twist
    if name is None:
        if len(names) != 1:
            raise ValidationError(
                f"scenario defines {len(names)} twists; pick one with --twist"
            )
        name = names[0]
    if name not in sc.maps or not isinstance(sc.maps[name], TwistMap):
        raise ValidationError(f"--twist {name!r} is not a defined twist")
    diff = twist_boundary_difference(sc.maps[name], sc.primitive)
    _emit_scalar(args, f"boundary difference {diff:.8g}")
    return 0


def _cmd_lift(args):
    sc = _scenario(args)
    _, m = _realized(args, sc)
    K = lifted_cocycle(
        m, sc.primitive, grid=sc.grid, periods=args.periods,
        basepoint=sc.basepoint, fd_h=sc.fd_h, tol=sc.tol,
    )
    path = _out_path(args, "lift")
    _write_csv(path, "p,q,value", _grid_rows(K))
    circ = sc.manifold.circumference
    print(f"wrote {path} ({K.n_p}x{K.n_q} nodes over {args.periods} periods)")
    print(f"periodicity residual {periodicity_residual(K, circ):.8g}")
    print(f"growth rate {growth_rate(K, circ):.8g}")
    return 0


def _cmd_flux(args):
    sc = _scenario(args)
    _, m = _realized(args, sc)
    rep = flux_compare(
        m, sc.primitive, grid=sc.grid, periods=args.periods
    )
    _emit_scalar(
        args,
        f"flux {rep.flux_value:.8g}\n"
        f"growth rate {rep.growth_rate_of_k:.8g}\n"
        f"bounded {'yes' if rep.bounded else 'no'}",
    )
    return 0


def _cmd_distortion(args):
    sc = _scenario(args)
    if not sc.generator_names:
        raise ValidationError("distortion needs a nonempty generators list")
    gens = GeneratorSet(
        {n: sc.maps[n] for n in sc.generator_names},
        alpha=sc.primitive, grid=sc.grid, basepoint=sc.basepoint,
        fd_h=sc.fd_h, tol=sc.tol, method=args.method,
    )
    word = _word_of(args, sc)
    m = gens.realize(word)
    K = gens.cocycle_of_word(word)
    if args.x and args.y:
        x = _point_arg(args.x, "--x")
        y = _point_arg(args.y, "--y")
    else:
        x, y = _auto_pair(m, K, sc)
    rows = distortion_table(
        gens, word, x, y, args.n_max, seed=args.seed
    )
    path = _out_path(args, "distortion")
    _write_csv(path, "n,bound,empirical_norm,ratio", rows)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def _cmd_fixed_points(args):
    sc = _scenario(args)
    _, m = _realized(args, sc)
    report = find_fixed_points(m, grid=sc.grid, alpha=sc.primitive)
    path = _out_path(args, "fixed-points")
    rows = [
        (
            fp.location[0], fp.location[1], fp.residual, fp.action,
            fp.contractible, fp.region_representative,
        )
        for fp in report.points
    ]
    _write_csv(
        path, "p,q,residual,action,contractible,region_representative", rows
    )
    print(f"wrote {path} ({len(rows)} points)")
    if report.degenerate_identity:
        print("degenerate: the map fixes the whole window")
    if not report.found:
        print("no fixed points found at this resolution")
    return 0


def _cmd_verify(args):
    load_scenario(args.config)
    failures = 0
    for result in verify_mod.run_all(seed=args.seed):
        tag = "PASS" if result.passed else "FAIL"
        print(f"{tag} {result.name}: {result.detail}")
        failures += not result.passed
    if failures:
        print(f"{failures} of {len(verify_mod.CHECK_NAMES)} checks failed")
        return 1
    print(f"all {len(verify_mod.CHECK_NAMES)} checks passed")
    return 0


# ============================================================
# Argument parsing
# ============================================================


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="symcocycle",
        description="Cocycle and invariant computations from scenario files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="scenario JSON path")
    common.add_argument("--out", help="output file (or directory for grids)")
    common.add_argument("--tol", type=float, help="override scenario tolerance")
    common.add_argument("--seed", type=int, default=0,
                        help="probe-set generation seed")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for interface stability; results do "
                             "not depend on it")

    word_arg = argparse.ArgumentParser(add_help=False)
    word_arg.add_argument("--word",
                          help="word in generator names, e.g. 'a b^-1' "
                               "(default: all generators in order)")
    method_arg = argparse.ArgumentParser(add_help=False)
    method_arg.add_argument("--method", choices=("path", "action"),
                            default="path", help="cocycle computation route")

    p = sub.add_parser("cocycle", parents=[common, word_arg, method_arg],
                       help="emit the cocycle grid as CSV")
    p.set_defaults(func=_cmd_cocycle)

    p = sub.add_parser("calabi", parents=[common, word_arg],
                       help="Calabi invariant of the word")
    p.set_defaults(func=_cmd_calabi)

    p = sub.add_parser("polterovich", parents=[common, word_arg, method_arg],
                       help="fixed-point invariant between two points")
    p.add_argument("--x", help="first fixed point as 'p,q'")
    p.add_argument("--y", help="second fixed point as 'p,q'")
    p.add_argument("--auto-fixed-points", action="store_true",
                   help="search for fixed points and pick an extremal pair")
    p.set_defaults(func=_cmd_polterovich)

    p = sub.add_parser("osc", parents=[common, word_arg, method_arg],
                       help="oscillation of the word's cocycle")
    p.set_defaults(func=_cmd_osc)

    p = sub.add_parser("twist-check", parents=[common],
                       help="boundary difference of a twist profile")
    p.add_argument("--twist", help="twist name (default: the only one)")
    p.set_defaults(func=_cmd_twist_check)

    p = sub.add_parser("lift", parents=[common, word_arg],
                       help="cocycle of the lifted word on the cover")
    p.add_argument("--periods", type=int, default=3,
                   help="fundamental domains in the cover window")
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("flux", parents=[common, word_arg],
                       help="flux against lifted-cocycle growth")
    p.add_argument("--periods", type=int, default=3,
                   help="fundamental domains in the cover window")
    p.set_defaults(func=_cmd_flux)

    p = sub.add_parser("distortion", parents=[common, word_arg, method_arg],
                       help="word-length bounds table (CSV)")
    p.add_argument("--n-max", type=int, default=4, help="largest power")
    p.add_argument("--x", help="first fixed point as 'p,q'")
    p.add_argument("--y", help="second fixed point as 'p,q'")
    p.set_defaults(func=_cmd_distortion)

    p = sub.add_parser("fixed-points", parents=[common, word_arg],
                       help="fixed-point report (CSV)")
    p.set_defaults(func=_cmd_fixed_points)

    p = sub.add_parser("verify", parents=[common],
                       help="run every named check; PASS/FAIL per line")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except ValidationError as e:
        print(f"{args.command}: validation error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"{args.command}: numerical error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
