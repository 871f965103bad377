"""The artifacts, stderr and exit code of every ``cglb`` command, to the byte.

The digest table ``golden_digests.json`` is written by
``tools/golden_digests.py``; this test reruns the seed-0 entries and the
runs that fail on purpose.  The digests hold for the build the table records
(numpy and scipy versions, their BLAS, numpy's CPU features); on any other
the test fails naming what differs.
"""

import importlib.util
from pathlib import Path

import pytest

from cglburgers.cli import COMMANDS, SCHEMA

_SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "golden_digests.py"
_spec = importlib.util.spec_from_file_location("golden_digests", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.fixture(scope="module")
def table():
    table = golden.load_table()
    mismatch = golden.version_mismatch(table)
    if mismatch:
        pytest.fail(mismatch)
    return table


@pytest.mark.parametrize("command", sorted(golden.RUNS))
def test_seed_zero_matches_the_golden_digests(table, command):
    assert golden.run_digests(command, 0) == table["runs"][golden.key(command, 0)]


@pytest.mark.parametrize("name", sorted(golden.FAILING))
def test_the_failing_runs_match_the_golden_digests(table, name):
    assert golden.edited_digests(name) == table["runs"][name]


@pytest.mark.parametrize("name", sorted(golden.EDITED))
def test_the_edited_runs_match_the_golden_digests(table, name):
    assert golden.edited_digests(name) == table["runs"][name]


def test_the_table_covers_every_command_and_seed(table):
    expected = {golden.key(c, s) for c in golden.RUNS for s in golden.SEEDS}
    assert set(table["runs"]) == expected | set(golden.EDITED) | set(golden.FAILING)
    assert set(golden.RUNS) == set(COMMANDS)
    # An edit names a config key: a misspelt one would fail for that reason alone.
    for _, _, edits in (*golden.EDITED.values(), *golden.FAILING.values()):
        for section, values in edits.items():
            assert set(values) <= set(SCHEMA[section])
    # The edited runs succeed and write their artifacts.
    for name in golden.EDITED:
        assert table["runs"][name]["exit_code"] == 0
        assert table["runs"][name]["artifacts"]
    # The failing runs fail: exit 1, no artifact, an error on stderr.
    for name in golden.FAILING:
        assert table["runs"][name]["exit_code"] == 1
        assert table["runs"][name]["artifacts"] == {}
        assert table["runs"][name]["stderr"] != golden._sha256(b"")


def test_a_table_from_another_build_is_refused_by_name():
    here = golden.versions()
    message = golden.version_mismatch({"versions": dict(here, numpy="1.0.0")})
    assert f"numpy 1.0.0 in the table, {here['numpy']} here" in message
    assert "scipy" not in message
    message = golden.version_mismatch({"versions": dict(here, **{"CPU features": "X86_V2"})})
    assert f"CPU features X86_V2 in the table, {here['CPU features']} here" in message
    assert golden.version_mismatch({"versions": here}) is None
