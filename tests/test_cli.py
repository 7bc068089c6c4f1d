import argparse
import collections
import json
import math
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from symcocycle import cli, invariants
from symcocycle.cocycle import GridFunction, Normalization, cocycle_by_action
from symcocycle.dynamics import FlowMap, TwistMap
from symcocycle.errors import NumericalError, ValidationError
from symcocycle.invariants import NoFixedPointFound

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
PLANE_BUMP = str(SCENARIOS / "plane_bump.json")
CYLINDER_TWIST = str(SCENARIOS / "cylinder_twist.json")
DISJOINT_PAIR = str(SCENARIOS / "disjoint_pair.json")


def write_variant(tmp_path, base, **changes):
    cfg = json.loads(Path(base).read_text())
    cfg.update(changes)
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# ------------------------------------------------------------
# scenario loading
# ------------------------------------------------------------


def test_shipped_scenarios_load():
    sc = cli.load_scenario(PLANE_BUMP)
    assert not sc.manifold.is_cylinder
    assert sc.generator_names == ("g",)
    assert isinstance(sc.maps["g"], FlowMap)
    assert sc.maps["g"].step == 0.005

    sc = cli.load_scenario(CYLINDER_TWIST)
    assert sc.manifold.is_cylinder
    assert isinstance(sc.maps["quad"], TwistMap)
    assert isinstance(sc.maps["sine"], TwistMap)
    assert isinstance(sc.maps["rotate"], FlowMap)

    sc = cli.load_scenario(DISJOINT_PAIR)
    assert sc.generator_names == ("a", "b")
    assert sc.maps["a"].spec.support_claim is not None


def test_unknown_root_key_rejected(tmp_path):
    path = write_variant(tmp_path, PLANE_BUMP, surprise=1)
    with pytest.raises(ValidationError, match="unknown keys"):
        cli.load_scenario(path)


def test_undefined_generator_rejected(tmp_path):
    path = write_variant(tmp_path, PLANE_BUMP, generators=["ghost"])
    with pytest.raises(ValidationError, match="ghost"):
        cli.load_scenario(path)


def test_basepoint_outside_window_rejected(tmp_path):
    path = write_variant(tmp_path, PLANE_BUMP, basepoint=[9.0, 0.0])
    with pytest.raises(ValidationError, match="outside"):
        cli.load_scenario(path)


def test_unknown_primitive_rejected(tmp_path):
    path = write_variant(tmp_path, PLANE_BUMP, primitive="dlambda")
    with pytest.raises(ValidationError, match="primitive"):
        cli.load_scenario(path)


def test_twist_profile_must_not_use_q(tmp_path):
    path = write_variant(tmp_path, CYLINDER_TWIST,
                         twists={"bad": {"profile": "q"}})
    with pytest.raises(ValidationError):
        cli.load_scenario(path)


def test_violated_support_claim_rejected(tmp_path):
    cfg = json.loads(Path(DISJOINT_PAIR).read_text())
    cfg["hamiltonians"]["a"]["support_claim"] = {
        "p_min": -2.1, "p_max": -1.9, "q_min": -0.1, "q_max": 0.1,
    }
    path = tmp_path / "bad_claim.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["osc", "--config", str(path)]) == 2


def test_support_claim_violated_by_nan_exits_3(tmp_path, capsys):
    # F is inf*0 = NaN outside the claim: a numerical failure, not a
    # violated claim
    claim = {"p_min": -1.0, "p_max": 1.0, "q_min": -1.0, "q_max": 1.0}
    path = write_variant(tmp_path, PLANE_BUMP, hamiltonians={
        "g": {"expression": "exp(900*p^2)*0", "support_claim": claim},
    })
    assert cli.main(["osc", "--config", path]) == 3
    assert "F outside the claimed support overflowed: it is not finite at" in (
        capsys.readouterr().err)


def test_calabi_of_an_overflowing_flow_exits_3(tmp_path, capsys):
    path = write_variant(tmp_path, PLANE_BUMP, hamiltonians={
        "g": {"expression": "1e-300*exp(700*p^2)"},
    })
    assert cli.main(["calabi", "--config", path]) == 3
    err = capsys.readouterr().err
    assert "the integrand is not finite on" in err
    assert "residual" not in err


def test_removed_fd_h_key_is_unknown(tmp_path, capsys):
    # tolerances.fd_h set nothing once jacobians became exact
    path = write_variant(tmp_path, PLANE_BUMP,
                         tolerances={"tol": 1e-6, "fd_h": 1e-5})
    with pytest.raises(ValidationError, match=r"unknown keys \['fd_h'\]"):
        cli.load_scenario(path)
    assert cli.main(["osc", "--config", path]) == 2
    assert "unknown keys ['fd_h']" in capsys.readouterr().err


def test_non_finite_primitive_curl_rejected(tmp_path, capsys):
    # the curl is 1 + inf - inf = NaN wherever exp(900*p^2) overflows: a
    # numerical failure, not a deviation from the area form
    path = write_variant(tmp_path, PLANE_BUMP, primitive={
        "a_p": "0", "a_q": "p + exp(900*p^2) - exp(900*p^2)",
    })
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericalError, match=r"d\(alpha\) overflowed: it is not finite"):
            cli.load_scenario(path)
        assert cli.main(["osc", "--config", path]) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "osc: numerical error: d(alpha) overflowed" in capsys.readouterr().err


def test_unknown_manifold_kind_exits_2(tmp_path, capsys):
    manifold = json.loads(Path(PLANE_BUMP).read_text())["manifold"]
    manifold["kind"] = "torus"
    path = write_variant(tmp_path, PLANE_BUMP, manifold=manifold)
    assert cli.main(["osc", "--config", path]) == 2
    assert "kind must be 'plane' or 'cylinder', got 'torus'" in capsys.readouterr().err


def test_circumference_on_the_plane_rejected(tmp_path):
    manifold = json.loads(Path(PLANE_BUMP).read_text())["manifold"]
    manifold["circumference"] = 8.0
    path = write_variant(tmp_path, PLANE_BUMP, manifold=manifold)
    with pytest.raises(ValidationError, match="applies only to cylinders"):
        cli.load_scenario(path)


def test_three_node_resolution_rejected(tmp_path, capsys):
    manifold = json.loads(Path(PLANE_BUMP).read_text())["manifold"]
    manifold["resolution"] = [3, 3]
    path = write_variant(tmp_path, PLANE_BUMP, manifold=manifold)
    with pytest.raises(ValidationError, match="at least 4 nodes"):
        cli.load_scenario(path)
    assert cli.main(["osc", "--config", path]) == 2
    assert "at least 4 nodes" in capsys.readouterr().err


@pytest.mark.parametrize("scheme", ["rk4", "implicit_midpoint", "euler"])
def test_only_rk4_integrator_accepted(tmp_path, capsys, scheme):
    # RK4 is the one integrator, so integrator.scheme chose nothing and is
    # gone: any value of it is an unknown key
    path = write_variant(
        tmp_path, PLANE_BUMP, integrator={"scheme": scheme, "h": 0.005}
    )
    with pytest.raises(ValidationError, match=r"unknown keys \['scheme'\]"):
        cli.load_scenario(path)
    assert cli.main(["osc", "--config", path]) == 2
    assert "unknown keys ['scheme']" in capsys.readouterr().err


@pytest.mark.parametrize("h", [-1, 0, math.nan])
def test_step_validated_without_hamiltonians(tmp_path, capsys, h):
    # with no hamiltonian no flow is built to check the step
    path = write_variant(
        tmp_path, CYLINDER_TWIST, hamiltonians={}, generators=[],
        integrator={"h": h},
    )
    with pytest.raises(ValidationError, match="integrator.h"):
        cli.load_scenario(path)
    assert cli.main(["twist-check", "--config", path, "--twist", "quad"]) == 2
    assert "integrator.h" in capsys.readouterr().err


def test_validation_exit_codes(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["osc", "--config", missing]) == 2

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert cli.main(["osc", "--config", str(garbled)]) == 2

    bad_bp = write_variant(tmp_path, PLANE_BUMP, basepoint=[9.0, 0.0])
    assert cli.main(["osc", "--config", bad_bp]) == 2

    # verify validates the scenario before starting the suite
    assert cli.main(["verify", "--config", bad_bp]) == 2


@pytest.mark.parametrize(
    "changes, flags",
    [
        pytest.param({}, ["--tol", "nan"], id="tol-flag-nan"),
        pytest.param({}, ["--tol", "inf"], id="tol-flag-inf"),
        pytest.param({"tolerances": {"tol": math.nan}}, [], id="tol-nan"),
        pytest.param({"tolerances": {"fd_h": 0}}, [], id="fd_h-zero"),
        pytest.param({"basepoint": ["x", 0]}, [], id="basepoint-text"),
    ],
)
def test_bad_tolerances_and_basepoint_exit_2(tmp_path, capsys, changes, flags):
    # at 11x11 nodes and step 0.05 the two path families disagree, so the
    # default tolerance makes osc exit 3; a NaN or infinite tolerance
    # would switch that check off and exit 0
    coarse = json.loads(Path(PLANE_BUMP).read_text())["manifold"]
    coarse["resolution"] = [11, 11]
    path = write_variant(
        tmp_path, PLANE_BUMP, manifold=coarse, integrator={"h": 0.05}, **changes
    )
    assert cli.main(["osc", "--config", path, *flags]) == 2
    assert "validation error" in capsys.readouterr().err


def test_argparse_errors_map_to_exit_2(capsys):
    assert cli.main([]) == 2
    assert cli.main(["cocycle"]) == 2  # --config is required
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def subparsers():
    parser = cli._build_parser()
    action = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


def long_options(subparser):
    return {
        s for a in subparser._actions for s in a.option_strings
        if s.startswith("--") and s != "--help"
    }


# every flag of a command is one its handler reads
OPTIONS = {
    "cocycle": {"--config", "--out", "--tol", "--word", "--method"},
    "calabi": {"--config", "--out", "--word"},
    "polterovich": {"--config", "--out", "--tol", "--word", "--method",
                    "--x", "--y"},
    "osc": {"--config", "--out", "--tol", "--word", "--method"},
    "twist-check": {"--config", "--out", "--twist"},
    "lift": {"--config", "--out", "--tol", "--word", "--periods"},
    "flux": {"--config", "--out", "--tol", "--word", "--periods"},
    "distortion": {"--config", "--out", "--tol", "--seed", "--word",
                   "--method", "--n-max", "--x", "--y"},
    "fixed-points": {"--config", "--out", "--word"},
    "verify": {"--config", "--seed"},
}


def test_each_command_takes_only_the_flags_it_reads():
    commands = subparsers()
    assert list(commands) == list(OPTIONS)
    for name, sub in commands.items():
        assert long_options(sub) == OPTIONS[name], name
    assert sum(len(flags) for flags in OPTIONS.values()) == 47


@pytest.mark.parametrize(
    "argv",
    [
        ["calabi", "--config", PLANE_BUMP, "--seed", "1"],
        ["calabi", "--config", PLANE_BUMP, "--tol", "1e-6"],
        ["cocycle", "--config", PLANE_BUMP, "--threads", "2"],
        ["twist-check", "--config", CYLINDER_TWIST, "--tol", "1e-6"],
        ["verify", "--config", PLANE_BUMP, "--out", "out/"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[3]}",
)
def test_a_flag_the_command_does_not_read_exits_2(capsys, argv):
    assert cli.main(argv) == 2
    assert f"unrecognized arguments: {argv[3]}" in capsys.readouterr().err


# ------------------------------------------------------------
# scalar commands
# ------------------------------------------------------------


def test_twist_check_quadratic_profile(capsys):
    code = cli.main(["twist-check", "--config", CYLINDER_TWIST,
                     "--twist", "quad"])
    out = capsys.readouterr().out
    assert code == 0
    assert "boundary difference 2.0943951" in out


def test_twist_check_needs_a_choice(capsys):
    # two twists are defined, so the name must be given
    assert cli.main(["twist-check", "--config", CYLINDER_TWIST]) == 2
    capsys.readouterr()


def test_calabi_of_constant_hamiltonian(capsys):
    # F is the constant 0.5/64 on an 8x8 window, so the space integral is
    # 0.5 and the invariant doubles it
    code = cli.main(["calabi", "--config", PLANE_BUMP, "--word", "flat"])
    out = capsys.readouterr().out
    assert code == 0
    value = float(out.split()[1])
    assert abs(value - 1.0) < 1e-4


def test_calabi_rejects_twist_letters(capsys):
    code = cli.main(["calabi", "--config", CYLINDER_TWIST, "--word", "quad"])
    assert code == 2
    # the action route rejects the twist with the same message
    sc = cli.load_scenario(CYLINDER_TWIST)
    with pytest.raises(ValidationError, match="TwistMap is not a Hamiltonian flow") as info:
        cocycle_by_action(sc.maps["quad"], sc.primitive, grid=sc.grid)
    assert capsys.readouterr().err == f"calabi: validation error: {info.value}\n"


def test_polterovich_between_center_and_far_corner(capsys):
    code = cli.main(["polterovich", "--config", PLANE_BUMP,
                     "--x", "0,0", "--y", "4,4"])
    out = capsys.readouterr().out
    assert code == 0
    value = float(out.split()[1])
    assert abs(value - 0.2) < 1e-3


def test_polterovich_auto_fixed_points(capsys):
    # without points the command picks the pair itself
    code = cli.main(["polterovich", "--config", DISJOINT_PAIR, "--word", "a",
                     "--method", "action"])
    out = capsys.readouterr().out
    assert code == 0
    value = float(out.split()[1])
    assert abs(value - 0.1) < 1e-3


def test_auto_fixed_points_needs_two_points(capsys):
    # the constant Hamiltonian fixes the whole window: one exactly fixed
    # region, so the search reports a single representative
    sc = cli.load_scenario(PLANE_BUMP)
    flat = sc.maps["flat"]
    K = cocycle_by_action(flat, sc.primitive, grid=sc.grid)
    with pytest.raises(NoFixedPointFound):
        cli._auto_pair(flat, K, sc)
    code = cli.main(["polterovich", "--config", PLANE_BUMP, "--word", "flat"])
    assert code == 3
    assert "fewer than two fixed points" in capsys.readouterr().err


def test_auto_pair_agrees_with_the_explicit_pair(capsys):
    # g moves the corners by 6.2e-9: fixed by the rule the explicit pair
    # is checked with, so the search finds a pair as well
    assert cli.main(["polterovich", "--config", PLANE_BUMP]) == 0
    auto = float(capsys.readouterr().out.split()[1])
    assert cli.main(["polterovich", "--config", PLANE_BUMP,
                     "--x", "0,0", "--y", "4,4"]) == 0
    explicit = float(capsys.readouterr().out.split()[1])
    assert abs(auto - explicit) < 1e-6


def test_auto_pair_reads_the_path_jet(monkeypatch, capsys):
    # the word's path cocycle is alive when the search runs, so the scan
    # reads its jet's images instead of marching the grid again
    grid = cli.load_scenario(PLANE_BUMP).grid
    marched = []
    march = FlowMap._march

    def counted(flow, p, q, t0, t1, on_node=None):
        marched.append(np.size(p))
        return march(flow, p, q, t0, t1, on_node)

    monkeypatch.setattr(FlowMap, "_march", counted)
    assert cli.main(["polterovich", "--config", PLANE_BUMP]) == 0
    out = capsys.readouterr().out
    assert grid.n_p * grid.n_q not in marched
    # the scan that marches the nodes itself prints the same
    monkeypatch.setattr(invariants, "_walk_images", lambda f, grid: None)
    del marched[:]
    assert cli.main(["polterovich", "--config", PLANE_BUMP]) == 0
    assert capsys.readouterr().out == out
    assert grid.n_p * grid.n_q in marched


@pytest.mark.parametrize("scenario, word", [
    ("plane_bump", "g"), ("plane_bump", "off"), ("plane_bump", "g off"),
    ("disjoint_pair", "a b"), ("cylinder_twist", "quad"), ("cylinder_twist", "sine"),
])
def test_every_reported_fixed_point_passes_polterovich(scenario, word):
    # one rule decides "fixed" for the search and for given points
    sc = cli.load_scenario(SCENARIOS / f"{scenario}.json")
    f = cli._realized(argparse.Namespace(word=word), sc)
    points = [fp.location for fp in invariants.find_fixed_points(f, grid=sc.grid).points]
    assert points
    K = GridFunction(sc.manifold, np.zeros((4, 4)), Normalization.mod_constants())
    for x in points:
        assert invariants.polterovich(f, K, x, x) == 0.0


@pytest.mark.parametrize("n_max", ["0", "-2"])
def test_distortion_rejects_a_non_positive_n_max_before_any_work(
    monkeypatch, capsys, n_max
):
    built = []
    monkeypatch.setattr(cli, "GeneratorSet", lambda *a, **k: built.append(a))
    code = cli.main(["distortion", "--config", DISJOINT_PAIR, "--word", "a",
                     "--method", "action", f"--n-max={n_max}"])
    assert code == 2
    assert f"--n-max must be at least 1, got {n_max}" in capsys.readouterr().err
    assert built == []


def test_polterovich_needs_points_or_auto(capsys):
    # both points, or neither for the search: the rule distortion keeps
    assert cli.main(["polterovich", "--config", PLANE_BUMP, "--y", "4,4"]) == 2
    assert capsys.readouterr().err == (
        "polterovich: validation error: polterovich needs both --x and --y, "
        "or neither for an automatic pair\n"
    )


def test_polterovich_checks_points_before_the_cocycle(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "cocycle_by_path", lambda *a, **k: calls.append(a))
    assert cli.main(["polterovich", "--config", PLANE_BUMP, "--x", "0,0"]) == 2
    assert "needs both --x and --y" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("points", [["--x", "1,1"], ["--y", "2,2"]])
def test_auto_fixed_points_rejects_given_points(monkeypatch, capsys, points):
    # the search would silently drop the one point given
    calls = []
    monkeypatch.setattr(cli, "cocycle_by_action", lambda *a, **k: calls.append(a))
    assert cli.main(["polterovich", "--config", DISJOINT_PAIR, "--word", "a",
                     "--method", "action", *points]) == 2
    assert "or neither for an automatic pair" in capsys.readouterr().err
    assert calls == []


def test_points_with_a_negative_first_coordinate(tmp_path, capsys):
    # argparse reads "-2,0" as an option unless it is joined to its flag
    code = cli.main(["polterovich", "--config", DISJOINT_PAIR, "--word", "a",
                     "--method", "action", "--x", "-2,0", "--y", "4,4"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("polterovich ")
    assert out.rstrip().endswith("between (-2, 0) and (4, 4)")
    table = tmp_path / "table.csv"
    code = cli.main(["distortion", "--config", DISJOINT_PAIR, "--word", "a",
                     "--method", "action", "--n-max", "1",
                     "--x", "-2,0", "--y", "-4,-4", "--out", str(table)])
    capsys.readouterr()
    assert code == 0
    assert table.read_text().splitlines()[1].startswith("1,")
    assert cli._joined_points(["--x", "-2,0", "--y", "-.5,1", "--x", "0,-1"]) == [
        "--x=-2,0", "--y=-.5,1", "--x", "0,-1",
    ]


@pytest.mark.parametrize("command", ["polterovich", "distortion"])
def test_a_flag_without_its_point_stays_an_error(capsys, command):
    assert cli.main([command, "--config", DISJOINT_PAIR,
                     "--x", "--y", "4,4"]) == 2
    assert "argument --x: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["polterovich", "distortion"])
@pytest.mark.parametrize("point", ["nan,0", "inf,0", "1e400,0", "0,nan"])
def test_a_non_finite_point_is_bad_input(capsys, command, point):
    # it would otherwise reach the march and read as an overflow (exit 3)
    config = PLANE_BUMP if command == "polterovich" else DISJOINT_PAIR
    assert cli.main([command, "--config", config, "--x", point, "--y", "0,0"]) == 2
    assert f"--x expects finite numbers, got '{point}'" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--x", "--y"])
def test_distortion_needs_both_points_or_neither(capsys, flag):
    assert cli.main(["distortion", "--config", DISJOINT_PAIR, flag, "0.5,0.5"]) == 2
    assert "both --x and --y" in capsys.readouterr().err


def test_scalar_out_file(tmp_path, capsys):
    target = tmp_path / "osc.txt"
    code = cli.main(["osc", "--config", PLANE_BUMP, "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    text = target.read_text()
    assert text.startswith("oscillation ")
    assert 0.2 < float(text.split()[1]) < 0.3


# ------------------------------------------------------------
# grid commands and CSV discipline
# ------------------------------------------------------------


def test_cocycle_csv_deterministic(tmp_path, capsys):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert cli.main(["cocycle", "--config", PLANE_BUMP,
                     "--out", str(first)]) == 0
    assert cli.main(["cocycle", "--config", PLANE_BUMP,
                     "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()

    raw = first.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "p,q,value"
    assert len(lines) == 1 + 61 * 61
    # row-major with p outermost: the first 61 rows share p = -4
    p0 = [line.split(",")[0] for line in lines[1:62]]
    assert set(p0) == {"-4"}
    # 17 significant digits round-trip exactly
    for line in lines[1:4]:
        for field in line.split(","):
            assert f"{float(field):.17g}" == field


def test_cocycle_default_out_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["cocycle", "--config", PLANE_BUMP]) == 0
    capsys.readouterr()
    assert (tmp_path / "out" / "cocycle.csv").is_file()


def test_cocycle_nonexact_path_route_exits_3(tmp_path, capsys):
    # the hinge bump's fourth derivative is too rough for the grid curl
    # check at this resolution; the action route is the supported path
    code = cli.main(["cocycle", "--config", DISJOINT_PAIR, "--word", "a",
                     "--out", str(tmp_path / "k.csv")])
    err = capsys.readouterr().err
    assert code == 3
    assert "numerical error" in err


def test_distortion_path_route_names_the_grid_it_needs(capsys):
    # on the plane every closed form is exact: the shipped 41x41 grid is too
    # coarse for the hinge bumps, and the error says so
    code = cli.main(["distortion", "--config", DISJOINT_PAIR, "--word", "a b",
                     "--n-max", "2"])
    err = capsys.readouterr().err
    assert code == 3
    assert "not an obstruction" in err and "nodes would resolve it" in err


@pytest.mark.parametrize("method", ["path", "action"])
def test_overflowing_flow_exits_3(tmp_path, capsys, method):
    path = write_variant(
        tmp_path, PLANE_BUMP,
        manifold={
            "kind": "plane",
            "window": {"p_min": -2.0, "p_max": 2.0, "q_min": -2.0, "q_max": 2.0},
            "resolution": [11, 11],
        },
        hamiltonians={"g": {"expression": "exp(3*(p^2 + q^2))"}},
        integrator={"h": 0.01},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["cocycle", "--config", path, "--method", method,
                         "--out", str(tmp_path / "k.csv")])
    err = capsys.readouterr().err
    assert code == 3
    assert "the flow overflowed: it is not finite at" in err

    # a twist whose profile overflows follows the same rule on the path
    # route (the action route takes flows only)
    twists = json.loads(Path(CYLINDER_TWIST).read_text())["twists"]
    path = write_variant(
        tmp_path, CYLINDER_TWIST, twists={**twists, "big": {"profile": "exp(400*p)"}}
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["cocycle", "--config", path, "--word", "big",
                         "--out", str(tmp_path / "k.csv")])
    err = capsys.readouterr().err
    assert code == 3
    assert "the twist overflowed: it is not finite at" in err


def _runs_without_runtime_warnings(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return cli.main(argv)


def test_overflowing_primitive_on_the_path_route_exits_3(tmp_path, capsys):
    # the map is finite; the form overflows near q = 2, so the pullback
    # defect is not finite there and its NaN path disagreement must not
    # pass for a number
    path = write_variant(
        tmp_path, PLANE_BUMP,
        manifold={
            "kind": "plane",
            "window": {"p_min": -2.0, "p_max": 2.0, "q_min": -2.0, "q_max": 2.0},
            "resolution": [21, 21],
        },
        primitive={"a_p": "0", "a_q": "p + exp(400*q)"},
    )
    assert _runs_without_runtime_warnings(["osc", "--config", path]) == 3
    err = capsys.readouterr().err
    assert "the pullback defect overflowed: it is not finite at 42 of 441 points" in err


# one fault, one kind: a field or a primitive that overflows on the window
# exits 3 on both manifolds, whether the plane's march or path route meets
# it or the cylinder's load-time check does
OVERFLOWING_FIELD = "1e-300*exp(800*sin(q))"
OVERFLOWING_FORM = {"a_p": "0", "a_q": "p + exp(800*sin(q))"}


def _on_manifold(tmp_path, kind, **changes):
    manifold = json.loads(Path(CYLINDER_TWIST).read_text())["manifold"]
    manifold["resolution"] = [21, 21]
    if kind == "plane":
        manifold = {"kind": "plane", "window": manifold["window"], "resolution": [21, 21]}
    base = {"hamiltonians": {"g": {"expression": "0.1*exp(-(p^2))"}}, "twists": {},
            "generators": ["g"], "integrator": {"h": 0.05}}
    return write_variant(tmp_path, CYLINDER_TWIST, manifold=manifold, **{**base, **changes})


@pytest.mark.parametrize("kind", ["plane", "cylinder"])
def test_overflowing_field_exits_3_on_both_manifolds(tmp_path, capsys, kind):
    path = _on_manifold(tmp_path, kind, hamiltonians={"g": {"expression": OVERFLOWING_FIELD}})
    assert _runs_without_runtime_warnings(["osc", "--config", path]) == 3
    err = capsys.readouterr().err
    assert "numerical error" in err and "not finite" in err
    assert "periodic" not in err


@pytest.mark.parametrize("kind", ["plane", "cylinder"])
def test_overflowing_primitive_exits_3_on_both_manifolds(tmp_path, capsys, kind):
    path = _on_manifold(tmp_path, kind, primitive=OVERFLOWING_FORM)
    assert _runs_without_runtime_warnings(["osc", "--config", path]) == 3
    err = capsys.readouterr().err
    assert "numerical error" in err and "not finite" in err
    assert "periodic" not in err


def test_overflowing_action_exits_3(tmp_path, capsys):
    # the field (0, -0.1) is finite, F itself is not
    path = write_variant(
        tmp_path, PLANE_BUMP,
        hamiltonians={"g": {"expression": "exp(710) + 0.1*p"}},
        manifold={
            "kind": "plane",
            "window": {"p_min": -2.0, "p_max": 2.0, "q_min": -2.0, "q_max": 2.0},
            "resolution": [11, 11],
        },
    )
    code = _runs_without_runtime_warnings(["osc", "--config", path, "--method", "action"])
    assert code == 3
    assert "the action overflowed: it is not finite at 121 of 121 points" in capsys.readouterr().err


def test_out_that_cannot_be_written_is_bad_input(tmp_path, capsys):
    blocker = tmp_path / "F"
    blocker.write_text("")
    folder = tmp_path / "D"
    folder.mkdir()
    cases = [
        (["osc", "--config", PLANE_BUMP], blocker / "x.txt", "cannot write"),
        (["cocycle", "--config", PLANE_BUMP], f"{blocker}/", "cannot write"),
        (["twist-check", "--config", CYLINDER_TWIST, "--twist", "quad"], folder,
         "names a directory"),
        (["twist-check", "--config", CYLINDER_TWIST, "--twist", "quad"],
         f"{tmp_path / 'new'}/", "names a directory"),
    ]
    for argv, out, why in cases:
        assert cli.main(argv + ["--out", str(out)]) == 2, out
        err = capsys.readouterr().err
        assert "validation error: --out" in err and why in err, err
    assert blocker.read_text() == "" and not list(folder.iterdir())
    assert not (tmp_path / "new").exists()


def test_out_that_cannot_be_written_fails_before_any_work(tmp_path, monkeypatch, capsys):
    def computed(*a, **k):
        raise AssertionError("the command ran before its --out was checked")

    for name in ("cocycle_by_path", "cocycle_by_action", "twist_boundary_difference"):
        monkeypatch.setattr(cli, name, computed)
    blocker = tmp_path / "F"
    blocker.write_text("")
    folder = tmp_path / "D"
    folder.mkdir()
    twist = ["twist-check", "--config", CYLINDER_TWIST, "--twist", "quad"]
    cases = [
        (["cocycle", "--config", PLANE_BUMP], blocker / "x.csv", "cannot write"),
        (["cocycle", "--config", PLANE_BUMP, "--method", "action"],
         blocker / "sub" / "x.csv", "cannot write"),
        (["osc", "--config", PLANE_BUMP], blocker / "x.txt", "cannot write"),
        (twist, folder, "names a directory"),
        (twist, f"{tmp_path / 'new'}/", "names a directory"),
        (twist, blocker / "x.txt", "cannot write"),
    ]
    for argv, out, why in cases:
        assert cli.main(argv + ["--out", str(out)]) == 2, out
        err = capsys.readouterr().err
        assert "validation error: --out" in err and why in err, err
    assert blocker.read_text() == "" and not list(folder.iterdir())
    assert not (tmp_path / "new").exists()


def test_cocycle_action_route_succeeds(tmp_path, capsys):
    out = tmp_path / "k.csv"
    code = cli.main(["cocycle", "--config", DISJOINT_PAIR, "--word", "a",
                     "--method", "action", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert out.read_text().splitlines()[0] == "p,q,value"


def test_distortion_table_csv(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = cli.main(["distortion", "--config", DISJOINT_PAIR, "--word", "a",
                     "--method", "action", "--n-max", "2",
                     "--x=-2,0", "--y=-4,-4", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,bound,empirical_norm,ratio"
    assert len(lines) == 3
    for expect_n, line in zip((1, 2), lines[1:]):
        n, bound, norm, ratio = line.split(",")
        assert int(n) == expect_n
        assert int(norm) == expect_n
        assert abs(float(ratio) - float(bound) / float(norm)) < 1e-15


def test_distortion_rejects_negative_seed(tmp_path, capsys):
    # a negative seed would start the Halton index at or below zero and put
    # all probes on one point, where every word matches the identity
    path = write_variant(tmp_path, DISJOINT_PAIR, integrator={"h": 0.02})
    code = cli.main(["distortion", "--config", path, "--word", "a b",
                     "--method", "action", "--n-max", "2", "--seed", "-1",
                     "--out", str(tmp_path / "table.csv")])
    assert code == 2
    assert "seed must be nonnegative" in capsys.readouterr().err


def test_verify_rejects_an_invalid_tol_before_any_check(monkeypatch, capsys):
    # the gate's tolerances are fixed, so verify has no --tol: any value
    # is an argument error, raised before the gate starts
    ran = []
    monkeypatch.setattr(cli.verify_mod, "run_all", lambda seed: ran.append(seed))
    assert cli.main(["verify", "--config", PLANE_BUMP, "--tol", "-1"]) == 2
    assert "unrecognized arguments: --tol -1" in capsys.readouterr().err
    assert ran == []


def test_verify_rejects_negative_seed(capsys):
    # the check workbench refuses the seed before any check runs, so the
    # command fails as invalid input rather than as a failed check
    assert cli.main(["verify", "--config", PLANE_BUMP, "--seed", "-1"]) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err


def test_fixed_points_csv(tmp_path, capsys):
    out = tmp_path / "fp.csv"
    code = cli.main(["fixed-points", "--config", PLANE_BUMP,
                     "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p,q,residual,action,contractible,region_representative"
    # the corners, which g moves by 6.2e-9, sort ahead of the center
    (row,) = [r.split(",") for r in lines[1:]
              if tuple(map(float, r.split(",")[:2])) == (0.0, 0.0)]
    _, _, _, action, contractible, region = row
    # a single flow letter keeps its per-orbit action values
    assert abs(float(action) - 0.2) < 1e-6
    assert contractible == "yes"
    assert region == "no"


def test_fixed_points_action_of_a_word_in_flows(tmp_path, capsys):
    # the default word "a b" is two flows, whose actions add along the
    # concatenated orbit: each bump adds 0.1 at its own center
    out = tmp_path / "fp.csv"
    code = cli.main(["fixed-points", "--config", DISJOINT_PAIR,
                     "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(float(r[0]), float(r[1])) for r in rows] == [(-4, -4), (-2, 0), (2, 0)]
    assert [float(r[3]) for r in rows] == pytest.approx([0.0, 0.1, 0.1], abs=1e-12)


def test_flux_and_lift_on_compact_flow(tmp_path, capsys):
    code = cli.main(["flux", "--config", CYLINDER_TWIST, "--word", "rotate"])
    out = capsys.readouterr().out
    assert code == 0
    report = dict(
        line.rsplit(" ", 1) for line in out.strip().splitlines()
    )
    assert abs(float(report["flux"])) < 1e-12
    assert abs(float(report["growth rate"])) < 1e-3
    assert report["bounded"] == "yes"

    target = tmp_path / "lift.csv"
    code = cli.main(["lift", "--config", CYLINDER_TWIST, "--word", "rotate",
                     "--out", str(target)])
    out = capsys.readouterr().out
    assert code == 0
    assert "periodicity residual" in out
    lines = target.read_text().splitlines()
    assert lines[0] == "p,q,value"
    # base grid is 41x41 and the cover spans 3 fundamental domains
    assert len(lines) == 1 + 41 * (3 * 40 + 1)


@pytest.mark.parametrize("source", ["flag", "scenario"])
def test_flux_reads_the_tolerance_as_lift_does(tmp_path, capsys, source):
    # no lifted grid of 41 nodes meets 1e-14, so both commands refuse it
    if source == "flag":
        config, flags = CYLINDER_TWIST, ["--tol", "1e-14"]
    else:
        config = write_variant(tmp_path, CYLINDER_TWIST,
                               tolerances={"tol": 1e-14})
        flags = []
    for command in ("lift", "flux"):
        code = cli.main([command, "--config", config, "--word", "rotate",
                         "--out", str(tmp_path / command), *flags])
        assert code == 3, command
        assert "numerical error" in capsys.readouterr().err


def test_flux_compare_hands_basepoint_and_tol_to_the_lift(monkeypatch):
    seen = {}

    def lifted(f, alpha, **kwargs):
        seen.update(kwargs)
        raise LookupError

    monkeypatch.setattr(invariants, "lifted_cocycle", lifted)
    sc = cli.load_scenario(CYLINDER_TWIST)
    with pytest.raises(LookupError):
        invariants.flux_compare(sc.maps["rotate"], sc.primitive, grid=sc.grid,
                                basepoint=(0.5, 1.0), tol=1e-9)
    assert (seen["basepoint"], seen["tol"]) == ((0.5, 1.0), 1e-9)


def test_lift_requires_cylinder(capsys):
    assert cli.main(["lift", "--config", PLANE_BUMP]) == 2
    capsys.readouterr()


# ------------------------------------------------------------
# the README's command lines
# ------------------------------------------------------------


def readme_command_lines():
    """Argument lists of the ``symcocycle`` lines in README's "Command
    line" block, continued lines joined."""
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```", 2)[1].replace("\\\n", " ")
    return [
        shlex.split(line)[1:] for line in block.splitlines()
        if line.startswith("symcocycle ")
    ]


README_LINES = readme_command_lines()


def line_ids(lines):
    """Each line's command, numbered from its second line on."""
    seen = collections.Counter()
    ids = []
    for argv in lines:
        seen[argv[0]] += 1
        ids.append(argv[0] if seen[argv[0]] == 1 else f"{argv[0]}{seen[argv[0]]}")
    return ids


def test_readme_command_block_lists_the_commands():
    assert [argv[0] for argv in README_LINES] == [
        "cocycle", "calabi", "polterovich", "osc", "twist-check", "lift",
        "flux", "distortion", "fixed-points", "fixed-points", "verify",
    ]


# verify is run end to end by the acceptance gate's own test
RUN_LINES = [argv for argv in README_LINES if argv[0] != "verify"]


@pytest.mark.parametrize("argv", RUN_LINES, ids=line_ids(RUN_LINES))
def test_readme_command_line_exits_0(argv, tmp_path, monkeypatch, capsys):
    # configs resolve from the repo root; grids land under tmp_path
    monkeypatch.chdir(tmp_path)
    i = argv.index("--config") + 1
    argv = [*argv[:i], str(ROOT / argv[i]), *argv[i + 1:]]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err


def test_fixed_points_off_the_grid_found_by_newton(tmp_path, capsys):
    # the README's line: the bump's center lies between the nodes of the
    # 61x61 scan grid, so only the Newton refinement reaches it
    argv = ["fixed-points", "--config", "scenarios/plane_bump.json", "--word", "off"]
    assert argv in README_LINES
    out = tmp_path / "fp.csv"
    assert cli.main([*argv[:2], PLANE_BUMP, *argv[3:], "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    near = [r for r in rows
            if math.dist((float(r[0]), float(r[1])), (0.13, -0.07)) < 1e-8]
    assert len(near) == 1
    assert near[0][5] == "no"


def readme_flag_lists():
    """``{command: flags}`` from README's "Flags by command" list."""
    section = (ROOT / "README.md").read_text().split(
        "\nFlags by command", 1)[1].split("\n\n", 2)[1]
    out = {}
    for line in section.splitlines():
        name, *flags = re.findall(r"`([^`]+)`", line)
        out[name] = flags
    return out


def test_readme_flag_list_matches_the_parser():
    readme = readme_flag_lists()
    commands = subparsers()
    assert list(readme) == list(commands)
    for name, flags in readme.items():
        assert len(set(flags)) == len(flags), name
        assert set(flags) == long_options(commands[name]), name
