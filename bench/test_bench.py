"""Smoke tests of the benchmark itself (about two minutes).

    python3 -m pytest -q bench/test_bench.py

Each workload runs once untraced and once traced with ``--seconds 0``, so
every run makes exactly one pass.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@functools.lru_cache(maxsize=None)
def result(workload: str, trace: int) -> dict:
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES) == list(run.WORKLOADS)
    per_layer = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert per_layer == list(tracing.LAYER_METRICS + tracing.RUN_METRICS)


def test_every_wrapped_entry_point_has_a_workload():
    wrapped = set(tracing.ENTRY_POINTS) | {tracing.FFT}
    wrapped |= {tracing.command_span(c) for c in tracing.COMMANDS}
    expected = set().union(*workloads.EXPECTED.values())
    assert wrapped == expected


def test_tracer_wraps_names_where_they_are_looked_up():
    import cglburgers.cli as cli
    import cglburgers.model as model
    import numpy as np

    originals = (model.solve_plane_wave, cli.COMMANDS["decay-fit"], np.fft.fftn)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.solve_plane_wave is model.solve_plane_wave
        assert cli.solve_plane_wave is not originals[0]
        assert cli.COMMANDS["decay-fit"] is not originals[1]
        np.fft.fftn(np.ones(8))
        assert tracer.names == ["numpy.fft.fftn"]
    finally:
        tracer.uninstall()
    assert (model.solve_plane_wave, cli.COMMANDS["decay-fit"], np.fft.fftn) == originals


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run(workload, trace):
    res = result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    names = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in names}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == units
    if not trace:
        assert res["metrics"]["ok_frac"]["value"] == 1.0
        for name in ("wall_s", "setup_s", "peak_rss_mb"):
            assert res["metrics"][name]["value"] > 0


def test_exact_counters_repeat():
    first = result("field-1d", 1)["metrics"]
    proc = run_bench("field-1d", 1)
    assert proc.returncode == 0, proc.stderr
    second = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    for name in tracing.EXACT:
        assert first[name] == second[name], name
    assert first["spectral.fft_calls_per_step"]["value"] == pytest.approx(38.0025)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("field-1d", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
