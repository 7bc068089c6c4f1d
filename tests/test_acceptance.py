"""The release gate: every named verification check at its stated tolerance.

Each test prints one PASS/FAIL line with the measured numbers (visible
under ``pytest -s`` or on failure), then asserts.  The final test drives
the ``verify`` subcommand end to end, which reports the same suite and
must exit 0; within one process ``run_check`` keeps each check's result,
so that second pass runs no check again.
"""

from pathlib import Path

import pytest

from symcocycle import cli
from symcocycle.verify import CHECK_NAMES, run_check

PLANE_BUMP = str(
    Path(__file__).resolve().parent.parent / "scenarios" / "plane_bump.json"
)

_IDS = [f"{i:02d}-{name}" for i, name in enumerate(CHECK_NAMES, start=1)]


@pytest.mark.parametrize("name", CHECK_NAMES, ids=_IDS)
def test_property(name):
    result = run_check(name)
    print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}")
    assert result.passed, result.detail


def test_verify_subcommand_runs_the_suite_and_exits_0(capsys):
    code = cli.main(["verify", "--config", PLANE_BUMP])
    out = capsys.readouterr().out
    print(f"{'PASS' if code == 0 else 'FAIL'} verify-subcommand: exit {code}")
    assert f"all {len(CHECK_NAMES)} checks passed" in out
    assert code == 0
