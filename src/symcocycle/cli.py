"""Config-driven command line: scenario JSON in, CSV or scalars out.

A scenario file declares the chart (manifold, window, resolution), a
primitive one-form, named Hamiltonians and twist profiles, a generator
list referencing those names, integrator settings and tolerances.  The
subcommand picks what to compute, and takes only the flags it reads:
``--tol`` only where the path route runs, ``--seed`` only where probes
are drawn.  Outputs are deterministic: grids are
written as `p,q,value` CSV rows in row-major order with p outermost,
every float at 17 significant digits with LF line endings.

Exit codes: 0 success, 1 failed verification properties, 2 invalid
configuration or arguments, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericalError, ValidationError, positive
from .exprlang import parse as parse_expr
from .geometry import TWO_PI, GridSpec, ManifoldModel, Primitive, Window
from .dynamics import (
    DEFAULT_DURATION,
    DEFAULT_STEP,
    FlowMap,
    GroupWord,
    HamiltonianSpec,
    TwistMap,
    compose,
    flow_pieces,
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
    manifold = ManifoldModel(
        block["kind"], _window_from(block["window"], "manifold.window"),
        _number(block, "circumference", "manifold", TWO_PI),
    )
    if "circumference" in block and not manifold.is_cylinder:
        raise ValidationError(
            "scenario manifold: circumference applies only to cylinders"
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
    _require_keys(integ, ("h",), (), "integrator")
    step = positive(_number(integ, "h", "integrator", DEFAULT_STEP), "integrator.h")

    tols = raw.get("tolerances", {})
    _require_keys(tols, ("tol",), (), "tolerances")
    tol = positive(_number(tols, "tol", "tolerances", PATH_TOL), "tolerances.tol")

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
            _number(block, "duration", where, DEFAULT_DURATION),
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
        generator_names=tuple(gen_names), tol=tol,
        basepoint=basepoint,
    )


# ============================================================
# Shared command helpers
# ============================================================


def _word_of(args, sc):
    if args.word is None and not sc.generator_names:
        raise ValidationError("no generators in the scenario and no --word given")
    text = " ".join(sc.generator_names) if args.word is None else args.word
    return GroupWord.from_string(text)


def _realized(args, sc):
    return compose(_word_of(args, sc), sc.maps, sc.manifold)


def _word_cocycle(args, sc, m):
    if args.method == "action":
        return cocycle_by_action(m, sc.primitive, grid=sc.grid)
    return cocycle_by_path(
        m, sc.primitive, basepoint=sc.basepoint, grid=sc.grid, tol=sc.tol,
    )


def _point_arg(text, flag):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError(f"{flag} expects 'p,q', got {text!r}")
    try:
        point = (float(parts[0]), float(parts[1]))
    except ValueError:
        raise ValidationError(f"{flag} expects numbers, got {text!r}") from None
    if not np.isfinite(point).all():
        raise ValidationError(f"{flag} expects finite numbers, got {text!r}")
    return point


def _point_pair(args):
    """(x, y) from --x and --y, or None for an automatic pair: a command
    takes both points or neither."""
    if (args.x is None) != (args.y is None):
        raise ValidationError(f"{args.command} needs both --x and --y, or "
                              "neither for an automatic pair")
    if args.x is None:
        return None
    return _point_arg(args.x, "--x"), _point_arg(args.y, "--y")


def _out_file(args):
    """The file a command writes, checked before it runs: a table's --out,
    or <command>.csv in a directory it names (``./out/`` by default); a
    scalar's --out, which names no directory, or None for stdout."""
    table = args.command in ("cocycle", "lift", "distortion", "fixed-points")
    out = "out/" if args.out is None and table else args.out
    if out is None:
        return None
    path = Path(out)
    if out.endswith("/") or path.is_dir():
        if not table:
            raise ValidationError(f"--out {out!r} names a directory; "
                                  f"{args.command} writes one line to a file")
        path = path / f"{args.command}.csv"
    if any(a.exists() and not a.is_dir() for a in path.parents):
        _write(path, None)  # a file is in the way: fails as the write would
    return path


def _emit_csv(args, header, rows, what):
    """Write the rows to the command's file and report the path."""
    lines = [header] + [",".join(_fmt(v) for v in row) for row in rows]
    _write(args.out, "\n".join(lines) + "\n")
    print(f"wrote {args.out} ({what})")


def _write(path, text):
    """Write ``text`` to ``path``, making its directories, or with None
    only make them; failing is bad input."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        if text is not None:
            path.write_text(text, newline="\n")
    except OSError as e:
        raise ValidationError(f"--out: cannot write {path}: {e}") from None


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
    if args.out is None:
        return print(text)
    _write(args.out, text + "\n")


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


def _cmd_cocycle(args, sc):
    K = _word_cocycle(args, sc, _realized(args, sc))
    _emit_csv(args, "p,q,value", _grid_rows(K), f"{K.n_p}x{K.n_q} nodes")
    return 0


def _cmd_calabi(args, sc):
    flows = flow_pieces(_realized(args, sc))
    total = sum(calabi_from_hamiltonian(f.spec, sc.manifold) for f in flows)
    _emit_scalar(args, f"calabi {total:.8g}")
    return 0


def _cmd_polterovich(args, sc):
    m = _realized(args, sc)
    pair = _point_pair(args)
    K = _word_cocycle(args, sc, m)
    x, y = pair or _auto_pair(m, K, sc)
    value = polterovich(m, K, x, y)
    _emit_scalar(
        args,
        f"polterovich {value:.8g} between ({x[0]:.8g}, {x[1]:.8g}) "
        f"and ({y[0]:.8g}, {y[1]:.8g})",
    )
    return 0


def _cmd_osc(args, sc):
    K = _word_cocycle(args, sc, _realized(args, sc))
    _emit_scalar(args, f"oscillation {oscillation(K):.8g}")
    return 0


def _cmd_twist_check(args, sc):
    names = [n for n, m in sc.maps.items() if isinstance(m, TwistMap)]
    if args.twist is None and len(names) != 1:
        raise ValidationError(
            f"scenario defines {len(names)} twists; pick one with --twist"
        )
    name = names[0] if args.twist is None else args.twist
    if name not in names:
        raise ValidationError(f"--twist {name!r} is not a defined twist")
    diff = twist_boundary_difference(sc.maps[name], sc.primitive)
    _emit_scalar(args, f"boundary difference {diff:.8g}")
    return 0


def _cmd_lift(args, sc):
    K = lifted_cocycle(
        _realized(args, sc), sc.primitive, grid=sc.grid, periods=args.periods,
        basepoint=sc.basepoint, tol=sc.tol,
    )
    _emit_csv(
        args, "p,q,value", _grid_rows(K),
        f"{K.n_p}x{K.n_q} nodes over {args.periods} periods",
    )
    circ = sc.manifold.circumference
    print(f"periodicity residual {periodicity_residual(K, circ):.8g}")
    print(f"growth rate {growth_rate(K, circ):.8g}")
    return 0


def _cmd_flux(args, sc):
    rep = flux_compare(
        _realized(args, sc), sc.primitive, grid=sc.grid, periods=args.periods,
        basepoint=sc.basepoint, tol=sc.tol,
    )
    _emit_scalar(
        args,
        f"flux {rep.flux_value:.8g}\n"
        f"growth rate {rep.growth_rate_of_k:.8g}\n"
        f"bounded {'yes' if rep.bounded else 'no'}",
    )
    return 0


def _cmd_distortion(args, sc):
    if not sc.generator_names:
        raise ValidationError("distortion needs a nonempty generators list")
    if args.n_max < 1:
        raise ValidationError(f"--n-max must be at least 1, got {args.n_max}")
    pair = _point_pair(args)
    gens = GeneratorSet(
        {n: sc.maps[n] for n in sc.generator_names},
        alpha=sc.primitive, grid=sc.grid, basepoint=sc.basepoint,
        tol=sc.tol, method=args.method,
    )
    word = _word_of(args, sc)
    m = gens.realize(word)
    K = gens.cocycle_of_word(word)
    x, y = pair or _auto_pair(m, K, sc)
    rows = distortion_table(gens, word, x, y, args.n_max, seed=args.seed)
    _emit_csv(args, "n,bound,empirical_norm,ratio", rows, f"{len(rows)} rows")
    return 0


def _cmd_fixed_points(args, sc):
    m = _realized(args, sc)
    report = find_fixed_points(m, grid=sc.grid, alpha=sc.primitive)
    rows = [
        (
            fp.location[0], fp.location[1], fp.residual, fp.action,
            fp.contractible, fp.region_representative,
        )
        for fp in report.points
    ]
    _emit_csv(
        args, "p,q,residual,action,contractible,region_representative", rows,
        f"{len(rows)} points",
    )
    if report.degenerate_identity:
        print("degenerate: the map fixes the whole window")
    if not report.found:
        print("no fixed points found at this resolution")
    return 0


def _cmd_verify(args, sc):
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


#: Every flag's argparse settings.
_FLAGS = {
    "--config": dict(required=True, help="scenario JSON path"),
    "--out": dict(help="output file (or directory for grids)"),
    "--tol": dict(type=float, help="override the scenario's path-route tolerance"),
    "--seed": dict(type=int, default=0, help="probe-set generation seed"),
    "--word": dict(help="word in generator names, e.g. 'a b^-1' "
                        "(default: all generators in order)"),
    "--method": dict(choices=("path", "action"), default="path",
                     help="cocycle computation route"),
    "--periods": dict(type=int, default=3,
                      help="fundamental domains in the cover window"),
    "--twist": dict(help="twist name (default: the only one)"),
    "--n-max": dict(type=int, default=4, help="largest power"),
    "--x": dict(help="first fixed point as 'p,q'"),
    "--y": dict(help="second fixed point as 'p,q'"),
}

#: Each command's handler, help line and flags: exactly the flags the
#: handler reads.
_COMMANDS = {
    "cocycle": (_cmd_cocycle, "emit the cocycle grid as CSV",
                "--config --out --tol --word --method"),
    "calabi": (_cmd_calabi, "Calabi invariant of the word",
               "--config --out --word"),
    "polterovich": (_cmd_polterovich, "fixed-point invariant between two points",
                    "--config --out --tol --word --method --x --y"),
    "osc": (_cmd_osc, "oscillation of the word's cocycle",
            "--config --out --tol --word --method"),
    "twist-check": (_cmd_twist_check, "boundary difference of a twist profile",
                    "--config --out --twist"),
    "lift": (_cmd_lift, "cocycle of the lifted word on the cover",
             "--config --out --tol --word --periods"),
    "flux": (_cmd_flux, "flux against lifted-cocycle growth",
             "--config --out --tol --word --periods"),
    "distortion": (_cmd_distortion, "word-length bounds table (CSV)",
                   "--config --out --tol --seed --word --method --n-max --x --y"),
    "fixed-points": (_cmd_fixed_points, "fixed-point report (CSV)",
                     "--config --out --word"),
    "verify": (_cmd_verify, "run every named check; PASS/FAIL per line",
               "--config --seed"),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="symcocycle",
        description="Cocycle and invariant computations from scenario files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def _joined_points(argv):
    """``argv`` with each ``--x`` or ``--y`` joined to a following point
    that starts with ``-``: argparse reads ``-2,0`` as an option, but
    ``--x=-2,0`` as a value.  A following option is left alone, so
    ``--x --y 4,4`` stays an error."""
    out = []
    for tok in argv:
        if out and out[-1] in ("--x", "--y") and re.match(r"-[\d.]", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None):
    """Run one subcommand.  Every command, ``verify`` included, loads and
    validates the scenario first; on the commands that run the path route,
    a given ``--tol`` then replaces the scenario's tolerance, and a command
    that writes checks its ``--out`` (``_out_file``).  ``verify``
    computes nothing from the scenario, because the gate's grids, steps
    and tolerances are fixed."""
    argv = _joined_points(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        sc = load_scenario(args.config)
        if getattr(args, "tol", None) is not None:
            sc.tol = positive(args.tol, "--tol")
        if hasattr(args, "out"):
            args.out = _out_file(args)
        return args.func(args, sc)
    except ValidationError as e:
        print(f"{args.command}: validation error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"{args.command}: numerical error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
