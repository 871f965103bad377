"""Benchmark of cglburgers: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload field-2d --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (wall_s, setup_s, peak_rss_mb,
ok_frac); times are rescaled to a reference host speed (see worker.py).
``--trace 1`` prints the per-layer metrics of a traced pass.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
run context.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("field-2d", "field-1d", "polar-1d", "analysis")
# Fresh interpreters whose set-up is timed; setup_s is their median.
SETUP_SAMPLES = 5
# Stay inside the 180 s a run may take.
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_times() -> list[int] | None:
    """Aggregate CPU jiffies from /proc/stat (user .. steal), if readable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return [int(v) for v in fields[1:9]]


def steal_fraction(before, after) -> float | None:
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) > 0 else 0.0


def spawn(args, work: Path, deadline: float, setup_only: bool) -> tuple[float, dict]:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work),
    ]
    if setup_only:
        cmd.append("--setup-only")
    started = monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - started, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the run deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return started, json.loads(lines[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    for needed in (ROOT / "src" / "cglburgers" / "__init__.py", ROOT / "configs"):
        if not needed.exists():
            sys.stderr.write(f"bench: {needed.relative_to(ROOT)} is missing\n")
            return 2

    deadline = monotonic() + DEADLINE_S
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    stat0 = cpu_times()
    try:
        setups = []  # (raw seconds, host-speed scale)
        for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
            started, res = spawn(args, work, deadline, setup_only=True)
            setups.append((res["ready_at"] - started, res["setup_scale"]))
        started, res = spawn(args, work, deadline, setup_only=False)
        setups.append((res["ready_at"] - started, res["setup_scale"]))
    except BenchError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work / "out", ignore_errors=True)

    context = dict(res["versions"])
    context.update(
        platform=platform.platform(),
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        thread_env={name: os.environ.get(name) for name in THREAD_VARS},
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        raw_pass_s=res["walls"],
        raw_wall_s=statistics.median(res["walls"]),
        raw_setup_s=statistics.median(raw for raw, _ in setups),
        host_scale=statistics.median(scale for _, scale in setups),
        cpu_steal_frac=steal_fraction(stat0, cpu_times()),
    )
    for error in res["errors"]:
        sys.stderr.write(f"bench: {error}\n")

    wall = statistics.median(res["scaled_walls"])
    if args.trace:
        units = dict(tracing.LAYER_METRICS)
        metrics = {k: metric(v, units[k]) for k, v in res["layers"].items()}
        metrics["run.cpu_util"] = metric(res["cpu_util"], "ratio")
        metrics["run.trace_overhead_frac"] = metric(
            statistics.median(res["traced_walls"]) / wall - 1.0, "ratio"
        )
    else:
        metrics = {
            "wall_s": metric(wall, "s"),
            "setup_s": metric(statistics.median(raw * scale for raw, scale in setups), "s"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MiB"),
            "ok_frac": metric((res["attempted"] - res["failed"]) / res["attempted"], "ratio"),
        }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
