"""Alternating parent/change runs of ``bench/run.py``, summarized in a ``BENCH_<tag>.json`` file.

Each side runs from its own ``git archive`` of a commit, extracted under
``--work``.  Before every run the side's tree loses every ``__pycache__``
and its ``.bench_work``, so that no run reuses what another left.  Pair i
(counted from 0) runs the parent first when i is even and the change first
when it is odd.

    python tools/bench_pairs.py --parent e1bce64 --change HEAD \\
        --workload field-1d --seeds 5001-5010 --claim wall_s --out BENCH_pr32.json

The file holds, per workload, every run's result line with its raw timings
(``runs``) and per end-to-end metric both sides' quartiles and the number of
pairs the change won (``summary``); ``--claim`` adds a ``claim_check`` and
``--trace-seed`` one traced run per side.  A claim is met when the change
wins at least nine pairs in ten, ties counting for neither side, and the
medians differ by more than the parent's interquartile range.  When
``--out`` names an existing file, this workload's entries are replaced and
everything else in it is kept, hand-written notes included.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
HOST_KEYS = ("python", "numpy", "scipy", "platform", "nproc", "affinity")


def commit(rev: str) -> str:
    """The abbreviated hash of ``rev``."""
    return subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--short", rev],
        capture_output=True, text=True, check=True,
    ).stdout.strip()


def extract(rev: str, dest: Path) -> Path:
    """A fresh ``git archive`` of ``rev`` at ``dest``."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        capture_output=True, check=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def clean(tree: Path) -> None:
    """Remove every ``__pycache__`` and the ``.bench_work`` of ``tree``."""
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache)
    shutil.rmtree(tree / ".bench_work", ignore_errors=True)


def record(stdout: str, seed: int, side: str) -> dict:
    """One run's entry from the standard output of ``bench/run.py``."""
    lines = stdout.strip().splitlines()
    context = json.loads(lines[-2])["context"]
    return {
        "seed": seed,
        "side": side,
        "result": json.loads(lines[-1]),
        "raw_wall_s": context["raw_wall_s"],
        "raw_setup_s": context["raw_setup_s"],
        "host_scale": context["host_scale"],
        "passes": len(context["raw_pass_s"]),
        "cpu_steal_frac": context["cpu_steal_frac"],
        "host": {k: context[k] for k in HOST_KEYS},
    }


def run_bench(tree: Path, workload: str, seed: int, side: str, seconds: float, trace: int) -> dict:
    clean(tree)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{side} {workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    return record(proc.stdout, seed, side)


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3] by linear interpolation between order statistics."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: both sides' quartiles and the pairs (by seed) the change won.

    ``better`` maps each metric to "lower" or "higher"; a tie wins for neither.
    """
    by_seed = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run["result"]["metrics"]
    pairs = [p for p in by_seed.values() if set(p) == set(SIDES)]
    summary = {}
    for name, direction in better.items():
        values = {side: [p[side][name]["value"] for p in pairs] for side in SIDES}
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        summary[name] = {
            "parent_q1_median_q3": quartiles(values["parent"]),
            "change_q1_median_q3": quartiles(values["change"]),
            "change_better_pairs": wins,
            "pairs": len(pairs),
        }
    return summary


def claim_check(summary: dict, metric: str, direction: str) -> dict:
    """Whether the change's gain on ``metric`` is claimable from ``summary``."""
    s = summary[metric]
    (q1, parent_median, q3), change_median = s["parent_q1_median_q3"], s["change_q1_median_q3"][1]
    gap = parent_median - change_median if direction == "lower" else change_median - parent_median
    return {
        "metric": metric,
        "pairs": s["pairs"],
        "change_better_pairs": s["change_better_pairs"],
        "parent_median": parent_median,
        "change_median": change_median,
        "median_gap": gap,
        "parent_iqr": q3 - q1,
        "met": s["change_better_pairs"] >= 0.9 * s["pairs"] and gap > q3 - q1,
    }


def parse_seeds(text: str) -> list[int]:
    """``"5001-5003,5007"`` -> [5001, 5002, 5003, 5007]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="commit of the parent side")
    ap.add_argument("--change", required=True, help="commit of the change side")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 5001-5010")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--claim", default=None, help="end-to-end metric the change claims")
    ap.add_argument("--trace-seed", type=int, default=None, help="seed of one traced run a side")
    ap.add_argument("--work", type=Path, default=ROOT / ".bench_pairs")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    revs = (args.parent, args.change)
    trees = {side: extract(rev, args.work / side) for side, rev in zip(SIDES, revs)}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = []
    for i, seed in enumerate(args.seeds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs.append(run_bench(trees[side], args.workload, seed, side, args.seconds, 0))
            print(f"{args.workload} {seed} {side}: {runs[-1]['result']['metrics']}", file=sys.stderr)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["host"] = runs[0]["host"]
    entry = {
        "commits": dict(zip(SIDES, map(commit, revs))),
        "seconds": args.seconds,
        "runs": runs,
        "summary": summarize(runs, better),
    }
    if args.claim is not None:
        entry["claim_check"] = claim_check(entry["summary"], args.claim, better[args.claim])
    doc.setdefault("workloads", {})[args.workload] = entry
    if args.trace_seed is not None:
        doc.setdefault("traced", {})[args.workload] = {
            side: run_bench(trees[side], args.workload, args.trace_seed, side, args.seconds, 1)
            for side in SIDES
        }
    for tree in trees.values():
        clean(tree)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
