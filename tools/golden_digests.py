"""SHA-256 digests of what the seven ``cglb`` commands write on the sample configs.

Each command runs in its own process, from the ``src`` tree beside this
script, on its sample config in ``configs/``.  For every (command, seed) the
table records the digest of each artifact, the digest of stderr and the exit
code.  Two more sets run on edited sample configs, seed 0 alone: ``EDITED``
runs succeed, and pin what the sample configs never reach; ``FAILING`` runs
are refused on purpose, so that an error path (exit code and JSON error
line) is pinned too.  The digests hold for one numpy and scipy build on one
kind of CPU: numpy picks its exp/sin kernels by the CPU features it finds, and
``eig``/``eigvals``/``expm`` round as their BLAS does.  So the table records
the numpy and scipy versions, the BLAS each links and the CPU features numpy
dispatches to; a table from another build or CPU is refused by name, not
compared.

    python tools/golden_digests.py      # rewrite the table, seeds 0-2

``git diff`` of the rewritten table then names every run that changed.  A
change that alters an artifact on purpose commits the new table with it.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "golden_digests.json"
SEEDS = (0, 1, 2)
# command -> its sample config
RUNS = {
    "simulate": "smallness_run.ini",
    "dispersion": "dispersion_reference.ini",
    "stability-scan": "stability_atlas.ini",
    "decay-fit": "decay_reference.ini",
    "instability": "instability_negative_m.ini",
    "besov-check": "besov_suite.ini",
    "quadratic-check": "decay_reference.ini",
}
# Runs on edited sample configs: table key -> (command, sample config,
# {section: {key: value}} set over the config's own values).
EDITED = {
    # The m = 0.5 slice of the 360-job atlas in bench/workloads.py: real
    # waves, no-wave classes and a u = v = 0 class.  The sample atlas has
    # u = v = 0, so each of its classes solves to the wave r0 = 1, theta0 = 0.
    "stability-scan --config configs/stability_atlas.ini as the m = 0.5 atlas slice --seed 0": (
        "stability-scan", "stability_atlas.ini", {
            "dispersion": {"samples": "2048", "coupling": "kappa_gradient"},
            "scan": {
                "m": "0.5",
                "w0": "0.0, 0.5, 1.0",
                "u0": "-0.5, 0.0, 0.5, 1.0",
                "v0": "-0.5, 0.0, 0.5",
                "kappa0": "0.0, 0.5",
            },
        },
    ),
    # A coupled wave, which the default placement reads: r0 is unset, so it
    # comes from the unit circle at theta0.
    "dispersion --config configs/dispersion_reference.ini with kappa0 = 0.5, theta0 = 0.5 --seed 0": (
        "dispersion", "dispersion_reference.ini", {
            "model": {"kappa0": "0.5"},
            "wave": {"r0": "", "theta0": "0.5"},
        },
    ),
}
# The same, for runs refused before they compute anything.
FAILING = {
    "simulate --config configs/smallness_run.ini with besov_p = 0 --seed 0": (
        "simulate", "smallness_run.ini", {"solver": {"besov_p": "0"}},
    ),
    "besov-check --config configs/besov_suite.ini with mu = -1 --seed 0": (
        "besov-check", "besov_suite.ini", {"besov": {"mu": "-1"}},
    ),
    "stability-scan --config configs/stability_atlas.ini with samples = 1 --seed 0": (
        "stability-scan", "stability_atlas.ini", {"dispersion": {"samples": "1"}},
    ),
    "dispersion --config configs/dispersion_reference.ini with v0 = 0.3 --seed 0": (
        "dispersion", "dispersion_reference.ini", {"model": {"v0": "0.3"}},
    ),
    "stability-scan --config configs/stability_atlas.ini with r0 = 0.6 --seed 0": (
        "stability-scan", "stability_atlas.ini", {"wave": {"r0": "0.6"}},
    ),
    "stability-scan --config configs/stability_atlas.ini with branch = -1 --seed 0": (
        "stability-scan", "stability_atlas.ini", {"wave": {"branch": "-1"}},
    ),
    "dispersion --config configs/dispersion_reference.ini with drift_compatibility = true --seed 0": (
        "dispersion", "dispersion_reference.ini", {"wave": {"drift_compatibility": "true"}},
    ),
    "simulate --config configs/smallness_run.ini with w0 = 0.7 --seed 0": (
        "simulate", "smallness_run.ini", {"wave": {"w0": "0.7"}},
    ),
    "decay-fit --config configs/decay_reference.ini with hs_exponent = 3 --seed 0": (
        "decay-fit", "decay_reference.ini", {"solver": {"hs_exponent": "3"}},
    ),
    "quadratic-check --config configs/decay_reference.ini with k_cutoff = 3 --seed 0": (
        "quadratic-check", "decay_reference.ini", {"solver": {"k_cutoff": "3"}},
    ),
    "stability-scan --config configs/stability_atlas.ini with m = --seed 0": (
        "stability-scan", "stability_atlas.ini", {"scan": {"m": ""}},
    ),
    "quadratic-check --config configs/decay_reference.ini with blowup = 1e-9 --seed 0": (
        "quadratic-check", "decay_reference.ini", {"solver": {"blowup": "1e-9"}},
    ),
    "besov-check --config configs/besov_suite.ini with q_list = 1.5 --seed 0": (
        "besov-check", "besov_suite.ini", {"besov": {"q_list": "1.5"}},
    ),
    "besov-check --config configs/besov_suite.ini with p = 0.5 --seed 0": (
        "besov-check", "besov_suite.ini", {"besov": {"p": "0.5"}},
    ),
    "besov-check --config configs/besov_suite.ini with u_disp = nan --seed 0": (
        "besov-check", "besov_suite.ini", {"besov": {"u_disp": "nan"}},
    ),
    "decay-fit --config configs/decay_reference.ini with coupling = kappa_constant --seed 0": (
        "decay-fit", "decay_reference.ini", {"dispersion": {"coupling": "kappa_constant"}},
    ),
}


def versions() -> dict:
    """The build the digests hold for: versions, BLAS and numpy's CPU features."""
    import numpy
    import scipy

    def blas(lib) -> str:
        info = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    simd = numpy.show_config(mode="dicts")["SIMD Extensions"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy BLAS": blas(numpy),
        "scipy BLAS": blas(scipy),
        "CPU features": " ".join(simd["found"]),
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _edited_config(config: str, edits: dict) -> str:
    """The text of a sample config with the values of ``edits`` set over its own."""
    parser = configparser.ConfigParser()
    parser.read(ROOT / "configs" / config)
    parser.read_dict(edits)
    text = io.StringIO()
    parser.write(text)
    return text.getvalue()


def run_digests(command: str, seed: int, config_text: str | None = None) -> dict:
    """Exit code and digests of stderr and of every artifact of one run.

    The run reads the command's sample config, or ``config_text`` if given.
    """
    # PYTHON* variables (PYTHONWARNINGS, PYTHONHASHSEED, ...) would change the output.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        config = ROOT / "configs" / RUNS[command]
        if config_text is not None:
            config = Path(tmp) / "config.ini"
            config.write_text(config_text)
        proc = subprocess.run(
            [sys.executable, "-m", "cglburgers.cli", command,
             "--config", str(config), "--out", str(out), "--seed", str(seed)],
            cwd=tmp, env=env, capture_output=True, check=False,
        )
        artifacts = {
            p.name: _sha256(p.read_bytes()) for p in sorted(out.iterdir()) if p.is_file()
        } if out.is_dir() else {}
    return {"exit_code": proc.returncode, "stderr": _sha256(proc.stderr), "artifacts": artifacts}


def key(command: str, seed: int) -> str:
    return f"{command} --config configs/{RUNS[command]} --seed {seed}"


def edited_digests(name: str) -> dict:
    """:func:`run_digests` of the run that ``EDITED[name]`` or ``FAILING[name]`` describes."""
    command, config, edits = {**EDITED, **FAILING}[name]
    return run_digests(command, 0, _edited_config(config, edits))


def build_table() -> dict:
    runs = {key(c, s): run_digests(c, s) for s in SEEDS for c in RUNS}
    runs.update({name: edited_digests(name) for name in (*EDITED, *FAILING)})
    return {"versions": versions(), "runs": runs}


def load_table(path: Path = TABLE) -> dict:
    return json.loads(path.read_text())


def version_mismatch(table: dict) -> str | None:
    """Why the table's digests do not apply to this build, or None if they do."""
    here = versions()
    diffs = [
        f"{lib} {table['versions'].get(lib)} in the table, {ver} here"
        for lib, ver in here.items()
        if table["versions"].get(lib) != ver
    ]
    if not diffs:
        return None
    return (
        "the golden digests were made with another build ("
        + "; ".join(diffs)
        + "); regenerate them with `python tools/golden_digests.py` on purpose"
    )


def main() -> int:
    TABLE.write_text(json.dumps(build_table(), indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
