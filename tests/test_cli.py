import json
import math
import warnings
from pathlib import Path

import pytest

from symcocycle import cli
from symcocycle.cocycle import cocycle_by_action
from symcocycle.dynamics import FlowMap, TwistMap
from symcocycle.errors import ValidationError
from symcocycle.invariants import NoFixedPointFound

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
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


@pytest.mark.parametrize("scheme", ["implicit_midpoint", "euler"])
def test_only_rk4_integrator_accepted(tmp_path, capsys, scheme):
    path = write_variant(
        tmp_path, PLANE_BUMP, integrator={"scheme": scheme, "h": 0.005}
    )
    with pytest.raises(ValidationError, match="scheme must be 'rk4'"):
        cli.load_scenario(path)
    assert cli.main(["osc", "--config", path]) == 2
    assert "scheme" in capsys.readouterr().err


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
    capsys.readouterr()


def test_polterovich_between_center_and_far_corner(capsys):
    code = cli.main(["polterovich", "--config", PLANE_BUMP,
                     "--x", "0,0", "--y", "4,4"])
    out = capsys.readouterr().out
    assert code == 0
    value = float(out.split()[1])
    assert abs(value - 0.2) < 1e-3


def test_polterovich_auto_fixed_points(capsys):
    code = cli.main(["polterovich", "--config", DISJOINT_PAIR, "--word", "a",
                     "--method", "action", "--auto-fixed-points"])
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
    code = cli.main(["polterovich", "--config", PLANE_BUMP, "--word", "flat",
                     "--auto-fixed-points"])
    assert code == 3
    assert "fewer than two fixed points" in capsys.readouterr().err


def test_polterovich_needs_points_or_auto(capsys):
    assert cli.main(["polterovich", "--config", PLANE_BUMP]) == 2
    capsys.readouterr()


def test_scalar_out_file(tmp_path, capsys):
    target = tmp_path / "osc.txt"
    code = cli.main(["osc", "--config", PLANE_BUMP, "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    text = target.read_text()
    assert text.startswith("oscillation ")
    assert 0.2 < float(text.split()[1]) < 0.3


def test_threads_flag_changes_nothing(tmp_path, capsys):
    one = tmp_path / "one.txt"
    four = tmp_path / "four.txt"
    assert cli.main(["osc", "--config", PLANE_BUMP, "--out", str(one)]) == 0
    assert cli.main(["osc", "--config", PLANE_BUMP, "--threads", "4",
                     "--out", str(four)]) == 0
    capsys.readouterr()
    assert one.read_bytes() == four.read_bytes()


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
    assert "non-finite" in err


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


def test_fixed_points_csv(tmp_path, capsys):
    out = tmp_path / "fp.csv"
    code = cli.main(["fixed-points", "--config", PLANE_BUMP,
                     "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p,q,residual,action,contractible,region_representative"
    p, q, _, action, contractible, region = lines[1].split(",")
    assert (float(p), float(q)) == (0.0, 0.0)
    # a single flow letter keeps its per-orbit action values
    assert abs(float(action) - 0.2) < 1e-6
    assert contractible == "yes"
    assert region == "no"


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


def test_lift_requires_cylinder(capsys):
    assert cli.main(["lift", "--config", PLANE_BUMP]) == 2
    capsys.readouterr()
