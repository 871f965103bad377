"""The summary that ``tools/bench_pairs.py`` writes, on fixed numbers."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

BETTER = {"wall_s": "lower", "ok_frac": "higher"}


def _run(seed, side, wall, ok=1.0):
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "ok_frac": {"value": ok, "unit": "ratio"}}
    return {"seed": seed, "side": side, "result": {"metrics": metrics}}


def test_quartiles_interpolate_between_order_statistics():
    assert pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == [1.75, 2.5, 3.25]
    assert pairs.quartiles([0.2]) == [0.2, 0.2, 0.2]


def test_summary_pairs_runs_by_seed_and_counts_no_tie_as_a_win():
    walls = {1: (0.30, 0.27), 2: (0.32, 0.28), 3: (0.31, 0.31), 4: (0.29, 0.30)}
    runs = []
    for seed, (parent, change) in walls.items():
        runs += [_run(seed, "change", change), _run(seed, "parent", parent, ok=0.5 + seed / 10)]
    runs.append(_run(5, "parent", 9.0))  # a seed without its change run is no pair
    summary = pairs.summarize(runs, BETTER)
    assert summary["wall_s"] == {
        "parent_q1_median_q3": pytest.approx([0.2975, 0.305, 0.3125]),
        "change_q1_median_q3": pytest.approx([0.2775, 0.29, 0.3025]),
        "change_better_pairs": 2,
        "pairs": 4,
    }
    # Higher is better: the change's 1.0 beats the parent's 0.6 .. 0.9.
    assert summary["ok_frac"]["change_better_pairs"] == 4


@pytest.mark.parametrize(
    "change, met",
    [
        ([0.90] * 9 + [1.10], True),
        ([0.90] * 8 + [1.10] * 2, False),
        # Every pair won, by 0.005: less than the parent's spread of 0.015.
        ([0.995, 1.015, 0.975, 1.005, 0.985, 0.995, 1.025, 0.965, 0.995, 0.995], False),
    ],
    ids=["nine-of-ten", "eight-of-ten", "inside-the-spread"],
)
def test_a_claim_needs_nine_wins_in_ten_and_a_gap_beyond_the_parent_spread(change, met):
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.00]
    runs = [_run(s, "parent", p) for s, p in enumerate(parent)]
    runs += [_run(s, "change", c) for s, c in enumerate(change)]
    summary = pairs.summarize(runs, BETTER)
    check = pairs.claim_check(summary, "wall_s", "lower")
    assert check["met"] is met
    assert check["change_better_pairs"] == summary["wall_s"]["change_better_pairs"]
    assert check["parent_median"] == 1.0
    assert check["parent_iqr"] == pytest.approx(1.0075 - 0.9925)
    assert check["median_gap"] == pytest.approx(1.0 - check["change_median"])


def test_a_run_entry_keeps_the_result_line_and_the_raw_timings():
    context = {
        "python": "3.11", "numpy": "2", "scipy": "1", "platform": "x", "nproc": 2,
        "affinity": 2, "raw_pass_s": [0.1, 0.2, 0.3], "raw_wall_s": 0.2,
        "raw_setup_s": 0.3, "host_scale": 1.5, "cpu_steal_frac": 0.0, "seed": 7,
    }
    result = {"correct": True, "attempted": 3, "failed": 0, "metrics": {}}
    stdout = "progress\n" + json.dumps({"context": context}) + "\n" + json.dumps(result) + "\n"
    entry = pairs.record(stdout, 7, "change")
    assert entry["result"] == result
    assert entry["passes"] == 3
    assert (entry["seed"], entry["side"], entry["host_scale"]) == (7, "change", 1.5)
    assert entry["host"] == {
        "python": "3.11", "numpy": "2", "scipy": "1", "platform": "x", "nproc": 2, "affinity": 2
    }


def test_seed_ranges():
    assert pairs.parse_seeds("5001-5003,5007") == [5001, 5002, 5003, 5007]


def test_clean_removes_every_bytecode_cache_and_the_bench_work(tmp_path):
    for path in ("src/pkg/__pycache__/a.pyc", "bench/__pycache__/b.pyc", ".bench_work/w/x"):
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_text("")
    (tmp_path / "src/pkg/mod.py").write_text("")
    pairs.clean(tmp_path)
    left = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*"))
    assert left == ["bench", "src", "src/pkg", "src/pkg/mod.py"]
