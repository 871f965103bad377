"""The four benchmark workloads: seeded inputs, operations and output checks.

Every workload is built from ``--seed`` alone, once per process (set-up),
and then exposes a list of operations.  One pass runs every operation once;
the timed phase repeats passes on the same inputs.  An operation raises
``CheckFailed`` when the program's output is wrong.

Why these four (see README.md for the layer map):

* field-2d -- ``solver.evolve`` on the 2D 128x128 problem of acceptance
  criterion 10; large transforms dominate (70 FFTs per ETD2 step).
* field-1d -- the same physics in 1D, n=256, one ETD2 and one IMEX-BDF2
  trajectory with a diagnostics row every 2 steps: bound by per-call
  overhead, with the Littlewood-Paley monitor on the hot path.
* polar-1d -- ``cglb decay-fit`` and ``cglb instability``: the polar
  perturbation integrator and its matrix-exponential workspace.
* analysis -- ``cglb stability-scan`` over a 360-job atlas, ``besov-check``,
  ``quadratic-check`` and ``dispersion``: no time stepping; dispersion
  eigen-solves, plane-wave solves and the dyadic-analysis checks.
"""

from __future__ import annotations

import functools
import json
import shutil
from pathlib import Path

import numpy as np

from tracing import FFT

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Inputs of the reference operations, recorded in reference.json.
REFERENCE_SEED = 0
# Allows round-off drift from reordered floating-point sums; scaling the
# cubic term by 0.99 already moves the final 2D L2_P by 5e-8.
REFERENCE_RTOL = 1e-8
FINAL_NORMS = ("L2_P", "L2_Omega", "Hs_P", "Hs_Omega")

# Constants of acceptance criterion 10.
FIELD_PARAMS = dict(u=0.3, v=0.2, xi=0.0, m=1.0, kappa=0.5, s1=0.1)
FIELD_SPECS = {
    "field-2d": dict(dim=2, n=128, max_index=6, amplitude=5e-4, besov_p=2.0,
                     dt=1e-2, steps=50, cadence=50, schemes=("exponential-rk2",)),
    "field-1d": dict(dim=1, n=256, max_index=8, amplitude=2e-3, besov_p=1.0,
                     dt=5e-3, steps=400, cadence=2, schemes=("exponential-rk2", "imex-bdf2")),
}

# The 360-job atlas (5 m x 3 w0 x 4 u0 x 3 v0 x 2 kappa0) runs as one
# stability-scan per m value: the same jobs in the same row order, in
# operations short enough for the host-speed calibration between them
# to follow the host (see worker.py).
ATLAS_M = (-1.0, -0.5, 0.5, 1.0, 2.0)
ATLAS_INI = """\
[dispersion]
k_extent = 16.0
samples = 2048
coupling = kappa_gradient

[scan]
m = {m}
w0 = 0.0, 0.5, 1.0
u0 = -0.5, 0.0, 0.5, 1.0
v0 = -0.5, 0.0, 0.5
kappa0 = 0.0, 0.5
"""
ATLAS_ROWS = 72  # jobs per m value

# Entry points (span names of tracing.py) each workload must reach.
EXPECTED = {
    "field-2d": ("solver.evolve", "littlewood_paley.smallness_monitor",
                 "littlewood_paley.besov_norm", FFT),
    "field-1d": ("solver.evolve", "littlewood_paley.smallness_monitor",
                 "littlewood_paley.besov_norm", FFT),
    "polar-1d": ("cli.cmd_decay_fit", "cli.cmd_instability",
                 "perturbation.decay_experiment", "perturbation.instability_experiment",
                 "perturbation.evolve_polar", "scipy.linalg.expm",
                 "dispersion.build_matrices", "dispersion.spectrum_table",
                 "numpy.linalg.eigvals", FFT),
    "analysis": ("cli.cmd_stability_scan", "cli.cmd_besov_check",
                 "cli.cmd_quadratic_check", "cli.cmd_dispersion",
                 "model.solve_plane_wave", "dispersion.build_matrices",
                 "dispersion.spectrum_table", "dispersion.classify_spectrum",
                 "numpy.linalg.eigvals", "littlewood_paley.bony_split",
                 "littlewood_paley.check_smoothing_estimate",
                 "littlewood_paley.check_semigroup_decay",
                 "littlewood_paley.besov_norm", "perturbation.quadratic_order_check", FFT),
}
NAMES = tuple(EXPECTED)


class CheckFailed(Exception):
    """The program returned, but its output is wrong."""


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def _band_limited(grid, rng, max_index, amplitude, real):
    """Zero-mean random field with spectral support |index| <= max_index."""
    from cglburgers.spectral import SpectralField

    idx = np.abs(np.fft.fftfreq(grid.n, d=1.0 / grid.n))
    keep = idx <= max_index
    mask = keep if grid.dim == 1 else keep[:, None] & keep[None, :]
    coeffs = amplitude * (rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)) * mask
    coeffs[(0,) * grid.dim] = 0.0
    if real:
        return SpectralField.from_physical(grid, np.fft.ifftn(coeffs * grid.size).real)
    return SpectralField.from_spectral(grid, coeffs)


class FieldWorkload:
    """Full-field evolution from seeded band-limited noise."""

    def __init__(self, name: str, seed: int, reference: dict | None):
        from cglburgers import model, solver, spectral

        spec = FIELD_SPECS[name]
        self.name = name
        self.grid = spectral.Grid(dim=spec["dim"], n=spec["n"])
        self.params = model.SystemParams.constants(**FIELD_PARAMS)
        self.spec = spec
        self.configs = [
            solver.SolverConfig(
                dt=spec["dt"], t_end=spec["steps"] * spec["dt"], cadence=spec["cadence"],
                besov_p=spec["besov_p"], scheme=scheme,
            )
            for scheme in spec["schemes"]
        ]
        self.state = self.initial_state(seed)
        self.reference_state = self.initial_state(REFERENCE_SEED)
        self.reference = None if reference is None else reference[name]

    def initial_state(self, seed: int):
        from cglburgers import solver

        rng = np.random.default_rng(seed)
        s = self.spec
        P = _band_limited(self.grid, rng, s["max_index"], s["amplitude"], real=False)
        omega = tuple(
            _band_limited(self.grid, rng, s["max_index"], s["amplitude"], real=True)
            for _ in range(self.grid.dim)
        )
        return solver.FieldState(P=P, omega=omega)

    def evolve(self, state, config) -> dict:
        """One trajectory; checks every row and returns the final one."""
        from cglburgers import solver

        rows = solver.evolve(state, self.params, config=config).rows
        for row in rows:
            if not all(np.isfinite(v) for v in row.values()):
                raise CheckFailed(f"non-finite diagnostics at t={row['t']}")
        s0 = rows[0]["besov_proxy"]
        peak = max(row["besov_proxy"] for row in rows)
        if not peak <= 2.0 * s0:
            raise CheckFailed(f"smallness monitor {peak:.6g} exceeds 2*s0 = {2 * s0:.6g}")
        return rows[-1]

    def operations(self):
        return [
            (f"evolve[{c.scheme}]", functools.partial(self.evolve, self.state, c))
            for c in self.configs
        ]

    def final_norms(self, config) -> dict:
        final = self.evolve(self.reference_state, config)
        return {key: final[key] for key in FINAL_NORMS}

    def check_reference(self, config) -> None:
        got = self.final_norms(config)
        want = self.reference[config.scheme]
        for key in FINAL_NORMS:
            if not abs(got[key] - want[key]) <= REFERENCE_RTOL * abs(want[key]):
                raise CheckFailed(
                    f"{config.scheme} final {key} = {got[key]!r}, reference {want[key]!r}"
                )

    def reference_operations(self):
        return [
            (f"reference[{c.scheme}]", functools.partial(self.check_reference, c))
            for c in self.configs
        ]

    def record_reference(self) -> dict:
        return {c.scheme: self.final_norms(c) for c in self.configs}


def _json_pass(path: Path) -> None:
    if json.loads(path.read_text()).get("pass") is not True:
        raise CheckFailed(f"{path.name} does not report pass: true")


def _atlas_verdicts(path: Path) -> list[str]:
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    col = header.index("verdict")
    return [line.split(",")[col] for line in lines[2:]]


class CliWorkload:
    """``cglb`` commands run in-process through ``cli.main``."""

    def __init__(self, name: str, seed: int, reference: dict | None, work: Path):
        from cglburgers import cli

        self.name = name
        self.seed = seed
        self.work = work
        self.reference = None if reference is None else reference[name]
        # (command, config, report that must say pass: true, atlas rows checked)
        if name == "polar-1d":
            commands = [
                ("decay-fit", CONFIGS / "decay_reference.ini", "decay.json", None),
                ("instability", CONFIGS / "instability_negative_m.ini", "growth.json", None),
            ]
        else:
            commands = []
            for i, m in enumerate(ATLAS_M):
                atlas = work / f"atlas_{i}.ini"
                atlas.write_text(ATLAS_INI.format(m=m))
                rows = slice(i * ATLAS_ROWS, (i + 1) * ATLAS_ROWS)
                commands.append(("stability-scan", atlas, None, rows))
            commands += [
                ("besov-check", CONFIGS / "besov_suite.ini", "besov_report.json", None),
                ("quadratic-check", CONFIGS / "decay_reference.ini", "quadratic.json", None),
                ("dispersion", CONFIGS / "dispersion_reference.ini", None, None),
            ]
        for _, config, _, _ in commands:
            cli.load_config(str(config))
        self.commands = commands

    def run(self, command: str, config: Path, report: str | None, rows: slice | None) -> Path:
        from cglburgers import cli

        out = self.work / "out" / command
        shutil.rmtree(out, ignore_errors=True)
        argv = [command, "--config", str(config), "--out", str(out), "--seed", str(self.seed)]
        if command == "stability-scan":
            argv += ["--threads", "1"]
        code = cli.main(argv)
        if code != 0:
            raise CheckFailed(f"cglb {command} exited with code {code}")
        if report is not None:
            _json_pass(out / report)
        if rows is not None and self.reference is not None:
            if _atlas_verdicts(out / "atlas.csv") != self.reference["atlas_verdicts"][rows]:
                raise CheckFailed(f"atlas verdicts of {config.name} differ from the reference")
        return out

    def operations(self):
        return [(cmd[0], functools.partial(self.run, *cmd)) for cmd in self.commands]

    def reference_operations(self):
        return []

    def record_reference(self) -> dict:
        if self.name != "analysis":
            return {}
        verdicts = []
        for cmd in self.commands:
            if cmd[3] is not None:
                verdicts += _atlas_verdicts(self.run(*cmd) / "atlas.csv")
        return {"atlas_verdicts": verdicts}


def create(name: str, seed: int, work: Path, reference: dict | None):
    if name in FIELD_SPECS:
        return FieldWorkload(name, seed, reference)
    return CliWorkload(name, seed, reference, work)
