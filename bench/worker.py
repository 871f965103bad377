"""One benchmark process: set up a workload, then time passes over it.

run.py starts this script from the repository root, once per set-up sample:

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --work DIR [--setup-only]

It prints one JSON line.  ``ready_at`` is read from CLOCK_MONOTONIC, which
all processes of the host share, so the parent subtracts the time at which
it started this process to get the set-up time.  A coverage or counter
failure in a traced run ends the process with code 3 and no result.

Host speed.  The shared host this was written on swings between fast and
slow phases of seconds to minutes, up to 2x apart, with CPU time following
wall time and almost no steal.  So a fixed calibration kernel runs before
and after every operation, and each operation's time is rescaled to the
host speed at which the kernel takes ``CAL_REF_S``: ``scale = CAL_REF_S /
kernel time``.  Raw times are reported alongside.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# Kernel time, in seconds, that defines the reference host speed.
CAL_REF_S = 0.016
_CAL_DATA = np.exp(1j * np.arange(256.0))
# Bound before the tracer wraps numpy.fft, so calibration records no spans.
_fft, _ifft = np.fft.fft, np.fft.ifft


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter work and small FFTs."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(80_000):
        acc += i * i % 7
    for _ in range(400):
        _ifft(_fft(_CAL_DATA))
    return time.perf_counter() - t0


def host_scale() -> float:
    return CAL_REF_S / statistics.median(calibrate() for _ in range(3))


def run_op(label, op, tally) -> None:
    tally["attempted"] += 1
    try:
        op()
    except workloads.CheckFailed as exc:
        tally["failed"] += 1
        tally["errors"].append(f"{label}: wrong output: {exc}")
    except Exception:  # an operation that raises counts as failed; keep going
        tally["failed"] += 1
        tally["errors"].append(f"{label}: raised\n{traceback.format_exc()}")


def run_passes(ops, budget, tally, after_pass=None) -> tuple[list[float], list[float]]:
    """Repeat passes over all operations until ``budget`` seconds have passed.

    Returns the raw wall time of each pass and the same time rescaled to the
    reference host speed.
    """
    walls, scaled = [], []
    start = time.perf_counter()
    cal = calibrate()
    while not walls or time.perf_counter() - start < budget:
        wall = norm = 0.0
        for label, op in ops:
            t0 = time.perf_counter()
            run_op(label, op, tally)
            dt = time.perf_counter() - t0
            cal_next = calibrate()
            wall += dt
            norm += dt * CAL_REF_S / (0.5 * (cal + cal_next))
            cal = cal_next
        walls.append(wall)
        scaled.append(norm)
        if after_pass is not None:
            after_pass()
    return walls, scaled


def traced_passes(workload, ops, budget, tally, trace_file: Path):
    tracer = tracing.Tracer()
    per_pass, dumps = [], []

    def collect():
        spans = tracer.spans()
        metrics, calls = tracing.layer_metrics(spans)
        missing = tracing.check_coverage(calls, workloads.EXPECTED[workload])
        if missing:
            raise RuntimeError(
                f"coverage: {workload} never reached {', '.join(missing)}; "
                "a wrapper is bypassed or the entry point moved"
            )
        per_pass.append(metrics)
        dumps.append(_compact(spans))
        tracer.clear()

    tracer.install()
    try:
        _, scaled = run_passes(ops, budget, tally, collect)
    finally:
        tracer.uninstall()
    trace_file.write_text(json.dumps({"workload": workload, "passes": dumps}))
    return scaled, tracing.combine_passes(per_pass)


def _compact(spans: dict) -> dict:
    names = sorted(set(spans["name"]))
    index = {n: i for i, n in enumerate(names)}
    return {
        "names": names,
        "columns": ["name", "start", "end", "parent", "raised"],
        "spans": [
            [index[n], s, e, p, r]
            for n, s, e, p, r in zip(
                spans["name"], spans["start"], spans["end"], spans["parent"], spans["raised"]
            )
        ],
        "notes": {str(k): v for k, v in spans["notes"].items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import scipy

    wl = workloads.create(args.workload, args.seed, args.work, workloads.load_reference())
    ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    setup_scale = host_scale()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at, "setup_scale": setup_scale}))
        return 0

    tally = {"attempted": 0, "failed": 0, "errors": []}
    ops = wl.operations()
    budget = args.seconds / 2 if args.trace else args.seconds
    cpu0, wall0 = time.process_time(), time.perf_counter()
    walls, scaled = run_passes(ops, budget, tally)
    cpu_util = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
    result = {
        "ready_at": ready_at,
        "setup_scale": setup_scale,
        "walls": walls,
        "scaled_walls": scaled,
        "cpu_util": cpu_util,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if args.trace:
        try:
            traced, layers = traced_passes(
                args.workload, ops, budget, tally, args.work / "trace.json"
            )
        except RuntimeError as exc:
            sys.stderr.write(f"bench: {exc}\n")
            return 3
        result.update(traced_walls=traced, layers=layers)
    for label, op in wl.reference_operations():
        run_op(label, op, tally)
    result.update(tally)
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
