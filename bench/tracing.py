"""Spans and exact counters around the public entry points of cglburgers.

The tracer wraps functions from outside the program: it replaces each entry
point, and every FFT of ``numpy.fft`` and ``scipy.fft``, with a wrapper that
records a span (name, start, end, parent, raised?) in memory.  A function is
replaced wherever it is looked up -- its own module, every ``cglburgers``
module that imported the name, and ``cli.COMMANDS`` -- so calls that go
through ``from x import y`` are seen too.  No file of the program changes.

Per-layer metrics are derived from the spans of one pass of a workload:
a span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from pathlib import Path

FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_FUNCTIONS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
    "hfft", "ihfft", "hfft2", "ihfft2", "hfftn", "ihfftn",
)

# span name -> (module that defines it, attribute)
ENTRY_POINTS = {
    "solver.evolve": ("cglburgers.solver", "evolve"),
    "littlewood_paley.smallness_monitor": ("cglburgers.littlewood_paley", "smallness_monitor"),
    "littlewood_paley.besov_norm": ("cglburgers.littlewood_paley", "besov_norm"),
    "littlewood_paley.bony_split": ("cglburgers.littlewood_paley", "bony_split"),
    "littlewood_paley.check_smoothing_estimate": ("cglburgers.littlewood_paley", "check_smoothing_estimate"),
    "littlewood_paley.check_semigroup_decay": ("cglburgers.littlewood_paley", "check_semigroup_decay"),
    "perturbation.evolve_polar": ("cglburgers.perturbation", "evolve_polar"),
    "perturbation.decay_experiment": ("cglburgers.perturbation", "decay_experiment"),
    "perturbation.instability_experiment": ("cglburgers.perturbation", "instability_experiment"),
    "perturbation.quadratic_order_check": ("cglburgers.perturbation", "quadratic_order_check"),
    "dispersion.spectrum_table": ("cglburgers.dispersion", "spectrum_table"),
    "dispersion.classify_spectrum": ("cglburgers.dispersion", "classify_spectrum"),
    "dispersion.build_matrices": ("cglburgers.dispersion", "build_matrices"),
    "model.solve_plane_wave": ("cglburgers.model", "solve_plane_wave"),
    "scipy.linalg.expm": ("scipy.linalg", "expm"),
    "numpy.linalg.eigvals": ("numpy.linalg", "eigvals"),
}
# ``simulate`` is left out: it ignores --seed, so no workload runs it.
COMMANDS = (
    "dispersion", "stability-scan", "decay-fit",
    "instability", "besov-check", "quadratic-check",
)
FFT = "fft"  # pseudo entry point: any transform of numpy.fft or scipy.fft


def command_span(command: str) -> str:
    return "cli.cmd_" + command.replace("-", "_")


def is_fft(name: str) -> bool:
    return name.startswith(FFT_MODULES)


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.clear()
        self._restore: list[tuple[dict, str, object]] = []

    def clear(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.raised: list[bool] = []
        self.notes: dict[int, dict] = {}
        self.fft_bytes = 0
        self._stack = [-1]

    def spans(self) -> dict:
        return {
            "name": self.names,
            "start": self.starts,
            "end": self.ends,
            "parent": self.parents,
            "raised": self.raised,
            "notes": self.notes,
            "fft_bytes": self.fft_bytes,
        }

    def _wrap(self, name: str, fn, note=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # The lists are replaced by clear(); look them up on each call.
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1])
            self.raised.append(False)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = True
                raise
            finally:
                self.ends[idx] = clock()
                self._stack.pop()
            if note is not None:
                note(self, idx, fn, args, kwargs, result)
            return result

        return wrapper

    def _replace_everywhere(self, orig, wrapper, namespaces) -> int:
        hits = 0
        for ns in namespaces:
            for key, value in list(ns.items()):
                if value is orig:
                    self._restore.append((ns, key, orig))
                    ns[key] = wrapper
                    hits += 1
        return hits

    def install(self) -> None:
        """Wrap every entry point, FFT and CLI command where it is looked up."""
        import numpy.fft
        import numpy.linalg
        import scipy.fft
        import scipy.linalg
        import cglburgers.cli as cli

        program = [
            vars(mod)
            for key, mod in sorted(sys.modules.items())
            if key == "cglburgers" or key.startswith("cglburgers.")
        ]
        libraries = [vars(numpy.fft), vars(scipy.fft), vars(numpy.linalg), vars(scipy.linalg)]
        namespaces = program + libraries
        for span, (module, attr) in ENTRY_POINTS.items():
            orig = getattr(sys.modules[module], attr)
            wrapper = self._wrap(span, orig, _NOTES.get(span))
            if self._replace_everywhere(orig, wrapper, namespaces) == 0:
                raise RuntimeError(f"entry point {module}.{attr} not found")
        for module in FFT_MODULES:
            ns = vars(sys.modules[module])
            for attr in FFT_FUNCTIONS:
                if attr in ns:
                    orig = ns[attr]
                    wrapper = self._wrap(f"{module}.{attr}", orig, _note_fft)
                    self._replace_everywhere(orig, wrapper, namespaces)
        for command in COMMANDS:
            orig = cli.COMMANDS[command]
            wrapper = self._wrap(command_span(command), orig, _note_command)
            self._replace_everywhere(orig, wrapper, [cli.COMMANDS] + program)

    def uninstall(self) -> None:
        for ns, key, orig in reversed(self._restore):
            ns[key] = orig
        self._restore.clear()


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _note_fft(tracer, idx, fn, args, kwargs, result):
    data = args[0] if args else kwargs.get("x", kwargs.get("a"))
    tracer.fft_bytes += getattr(data, "nbytes", 0) + getattr(result, "nbytes", 0)


def _note_steps(tracer, idx, fn, args, kwargs, result):
    """Steps, rows and scheme of a ``solver.evolve`` or ``evolve_polar`` call."""
    from cglburgers import solver

    bound = _bound(fn, args, kwargs)
    config = bound.get("config") or solver.SolverConfig()
    steps = round((result.final.t - bound["state0"].t) / config.dt)
    tracer.notes[idx] = {"steps": steps, "rows": len(result.rows), "scheme": config.scheme}


def _note_spectrum_table(tracer, idx, fn, args, kwargs, result):
    ks = args[1] if len(args) > 1 else kwargs["ks"]
    tracer.notes[idx] = {"wavenumbers": len(ks)}


def _note_command(tracer, idx, fn, args, kwargs, result):
    out = Path(args[1] if len(args) > 1 else kwargs["out"])
    size = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    tracer.notes[idx] = {"artifact_bytes": size}


_NOTES = {
    "solver.evolve": _note_steps,
    "perturbation.evolve_polar": _note_steps,
    "dispersion.spectrum_table": _note_spectrum_table,
}

# (metric, unit) of every per-layer metric, in the order they are printed.
LAYER_METRICS = (
    ("spectral.fft_calls", "count"),
    ("spectral.scipy_fft_calls", "count"),
    ("spectral.fft_calls_per_step", "count/step"),
    ("spectral.fft_calls_per_bdf2_step", "count/step"),
    ("spectral.fft_s", "s"),
    ("spectral.fft_bytes_computed", "B"),
    ("solver.steps", "count"),
    ("solver.rows", "count"),
    ("solver.step_ms", "ms"),
    ("solver.self_s", "s"),
    ("littlewood_paley.monitor_calls", "count"),
    ("littlewood_paley.monitor_ms", "ms"),
    ("littlewood_paley.besov_norm_calls", "count"),
    ("littlewood_paley.smoothing_s", "s"),
    ("littlewood_paley.fft_calls", "count"),
    ("littlewood_paley.self_s", "s"),
    ("dispersion.spectrum_table_calls", "count"),
    ("dispersion.wavenumbers", "count"),
    ("dispersion.eigvals_calls", "count"),
    ("dispersion.spectrum_table_s", "s"),
    ("dispersion.classify_s", "s"),
    ("dispersion.residual_failures", "count"),
    ("dispersion.self_s", "s"),
    ("perturbation.steps", "count"),
    ("perturbation.step_ms", "ms"),
    ("perturbation.fft_calls_per_step", "count/step"),
    ("perturbation.expm_calls", "count"),
    ("perturbation.expm_s", "s"),
    ("perturbation.self_s", "s"),
    ("model.solve_calls", "count"),
    ("model.wave_found_ratio", "ratio"),
    ("model.solve_s", "s"),
    ("cli.self_s", "s"),
    ("cli.artifact_bytes", "B"),
)
RUN_METRICS = (
    ("run.cpu_util", "ratio"),
    ("run.trace_overhead_frac", "ratio"),
)
# Counts, bytes and ratios of counts repeat exactly from pass to pass.
EXACT = {
    name for name, unit in LAYER_METRICS if unit in ("count", "count/step", "B")
} | {"model.wave_found_ratio"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one pass, and the call count of each entry point."""
    names, parents, raised, notes = spans["name"], spans["parent"], spans["raised"], spans["notes"]
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    child = [0.0] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += dur[i]

    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_by_layer: dict[str, float] = {}
    for i, name in enumerate(names):
        key = FFT if is_fft(name) else name
        calls[key] = calls.get(key, 0) + 1
        total[key] = total.get(key, 0.0) + dur[i]
        layer = name.split(".")[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + dur[i] - child[i]

    def parent_name(i):
        return names[parents[i]] if parents[i] >= 0 else ""

    steppers = ("solver.evolve", "perturbation.evolve_polar")
    steps = {name: {"exponential-rk2": 0, "imex-bdf2": 0} for name in steppers}
    for i, note in notes.items():
        if names[i] in steps:
            steps[names[i]][note["scheme"]] += note["steps"]
    step_ffts = {name: {"exponential-rk2": 0, "imex-bdf2": 0} for name in steppers}
    lp_ffts = 0
    monitor_in_evolve = 0.0
    expm_in_polar = 0.0
    for i, name in enumerate(names):
        pname = parent_name(i)
        if is_fft(name):
            if pname in step_ffts and parents[i] in notes:
                step_ffts[pname][notes[parents[i]]["scheme"]] += 1
            elif pname.startswith("littlewood_paley."):
                lp_ffts += 1
        elif name == "littlewood_paley.smallness_monitor" and pname == "solver.evolve":
            monitor_in_evolve += dur[i]
        elif name == "scipy.linalg.expm" and pname == "perturbation.evolve_polar":
            expm_in_polar += dur[i]

    solver_steps = sum(steps["solver.evolve"].values())
    polar_steps = sum(steps["perturbation.evolve_polar"].values())
    etd2_steps = steps["solver.evolve"]["exponential-rk2"] + steps["perturbation.evolve_polar"]["exponential-rk2"]
    etd2_ffts = step_ffts["solver.evolve"]["exponential-rk2"] + step_ffts["perturbation.evolve_polar"]["exponential-rk2"]
    bdf2_steps = steps["solver.evolve"]["imex-bdf2"] + steps["perturbation.evolve_polar"]["imex-bdf2"]
    bdf2_ffts = step_ffts["solver.evolve"]["imex-bdf2"] + step_ffts["perturbation.evolve_polar"]["imex-bdf2"]
    solves = calls.get("model.solve_plane_wave", 0)
    solves_failed = sum(
        1 for i, name in enumerate(names) if name == "model.solve_plane_wave" and raised[i]
    )
    c, t = calls.get, total.get
    metrics = {
        "spectral.fft_calls": c(FFT, 0),
        "spectral.scipy_fft_calls": sum(1 for name in names if name.startswith("scipy.fft.")),
        "spectral.fft_calls_per_step": _ratio(etd2_ffts, etd2_steps),
        "spectral.fft_calls_per_bdf2_step": _ratio(bdf2_ffts, bdf2_steps),
        "spectral.fft_s": t(FFT, 0.0),
        "spectral.fft_bytes_computed": spans["fft_bytes"],
        "solver.steps": solver_steps,
        "solver.rows": sum(n["rows"] for i, n in notes.items() if names[i] == "solver.evolve"),
        "solver.step_ms": 1e3 * _ratio(t("solver.evolve", 0.0) - monitor_in_evolve, solver_steps),
        "solver.self_s": self_by_layer.get("solver", 0.0),
        "littlewood_paley.monitor_calls": c("littlewood_paley.smallness_monitor", 0),
        "littlewood_paley.monitor_ms": 1e3 * _ratio(
            t("littlewood_paley.smallness_monitor", 0.0), c("littlewood_paley.smallness_monitor", 0)
        ),
        "littlewood_paley.besov_norm_calls": c("littlewood_paley.besov_norm", 0),
        "littlewood_paley.smoothing_s": t("littlewood_paley.check_smoothing_estimate", 0.0),
        "littlewood_paley.fft_calls": lp_ffts,
        "littlewood_paley.self_s": self_by_layer.get("littlewood_paley", 0.0),
        "dispersion.spectrum_table_calls": c("dispersion.spectrum_table", 0),
        "dispersion.wavenumbers": sum(
            n["wavenumbers"] for i, n in notes.items() if names[i] == "dispersion.spectrum_table"
        ),
        "dispersion.eigvals_calls": c("numpy.linalg.eigvals", 0),
        "dispersion.spectrum_table_s": t("dispersion.spectrum_table", 0.0),
        "dispersion.classify_s": t("dispersion.classify_spectrum", 0.0),
        "dispersion.residual_failures": sum(
            1 for i, name in enumerate(names) if name == "dispersion.spectrum_table" and raised[i]
        ),
        "dispersion.self_s": self_by_layer.get("dispersion", 0.0),
        "perturbation.steps": polar_steps,
        "perturbation.step_ms": 1e3 * _ratio(t("perturbation.evolve_polar", 0.0) - expm_in_polar, polar_steps),
        "perturbation.fft_calls_per_step": _ratio(
            sum(step_ffts["perturbation.evolve_polar"].values()), polar_steps
        ),
        "perturbation.expm_calls": c("scipy.linalg.expm", 0),
        "perturbation.expm_s": t("scipy.linalg.expm", 0.0),
        "perturbation.self_s": self_by_layer.get("perturbation", 0.0),
        "model.solve_calls": solves,
        "model.wave_found_ratio": _ratio(solves - solves_failed, solves),
        "model.solve_s": t("model.solve_plane_wave", 0.0),
        "cli.self_s": self_by_layer.get("cli", 0.0),
        "cli.artifact_bytes": sum(
            n["artifact_bytes"] for i, n in notes.items() if names[i].startswith("cli.cmd_")
        ),
    }
    return metrics, calls


def check_coverage(calls: dict, expected) -> list[str]:
    """Entry points the workload is meant to exercise that it never reached."""
    return [name for name in expected if calls.get(name, 0) == 0]


def combine_passes(per_pass: list[dict]) -> dict:
    """Median of each metric over passes; exact counters must agree on every pass."""
    out = {}
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        if key in EXACT:
            if len(set(values)) != 1:
                raise RuntimeError(f"counter {key} differs between passes: {values}")
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    return out
