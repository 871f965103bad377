"""Command-line driver: config parsing, experiments, deterministic artifacts.

Configuration is a flat INI file (sections of key=value pairs); unknown
sections or keys are rejected, and the file is the whole configuration.
All CSV and JSON artifacts are byte-stable for a fixed (config, seed)
pair: floats are written with 17 significant digits and JSON keys are
sorted.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import itertools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import dispersion, littlewood_paley as lp, perturbation, solver
from .model import NoRealSolution, PlaneWave, SystemParams, plane_wave_key, solve_plane_wave
from .spectral import Grid, band_limited_noise

_TWO_PI = 2.0 * np.pi

# section -> key -> (type tag, default); REQUIRED-less: everything defaulted.
SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "model": {
        "u0": ("float", 0.0),
        "u1": ("float", 0.0),
        "v0": ("float", 0.0),
        "v1": ("float", 0.0),
        "xi": ("float", 1.0),
        "m": ("float", 1.0),
        "kappa0": ("float", 0.0),
        "kappa1": ("float", 0.0),
        "s1_0": ("float", 0.0),
        "s1_1": ("float", 0.0),
        "s2_0": ("float", 0.0),
        "s2_1": ("float", 0.0),
    },
    "wave": {
        "r0": ("optfloat", None),
        "theta0": ("optfloat", None),
        "w0": ("float", 0.0),
        "branch": ("int", 0),
        "drift_compatibility": ("bool", False),
    },
    "initial": {
        "amplitude": ("optfloat", None),
    },
    "grid": {
        "dim": ("int", 1),
        "n": ("int", 256),
        "length": ("float", _TWO_PI),
    },
    "solver": {
        "dt": ("float", 1e-3),
        "t_end": ("float", 1.0),
        "scheme": ("str", "exponential-rk2"),
        "cadence": ("int", 10),
        "blowup": ("float", 1e6),
        "k_cutoff": ("optfloat", None),
        "hs_exponent": ("float", 1.0),
        "besov_p": ("float", 2.0),
    },
    "dispersion": {
        "k_extent": ("float", 16.0),
        "samples": ("int", 1024),
        "coupling": ("str", "kappa_gradient"),
    },
    "scan": {
        "m": ("floatlist", None),
        "w0": ("floatlist", None),
        "u0": ("floatlist", None),
        "v0": ("floatlist", None),
        "kappa0": ("floatlist", None),
        "s1_0": ("floatlist", None),
        "s2_0": ("floatlist", None),
    },
    "experiment": {
        "amp": ("float", 1e-6),
        "k_seed": ("float", 2.0),
        "s": ("float", 1.0),
        "eps_list": ("floatlist", [1e-1, 1e-2, 1e-3, 1e-4]),
        "directions": ("int", 5),
        "init_modes": ("int", 4),
    },
    "besov": {
        "n": ("int", 64),
        "p": ("float", 2.0),
        "mu": ("float", 1.0),
        "u_disp": ("float", 0.0),
        "q_list": ("floatlist", [1.0, 2.0, 3.0, 4.0]),
        "cases": ("int", 50),
        "ratio_ceiling": ("float", 4.0),
    },
}


class ConfigError(ValueError):
    pass


def _convert(tag: str, raw: str):
    if tag == "float":
        return float(raw)
    if tag == "optfloat":
        return None if raw.strip() == "" else float(raw)
    if tag == "int":
        return int(raw)
    if tag == "bool":
        value = raw.strip().lower()
        if value in ("true", "1", "yes", "on"):
            return True
        if value in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"not a boolean: {raw!r}")
    if tag == "str":
        return raw.strip()
    if tag == "floatlist":
        return [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    raise ConfigError(f"unknown schema tag {tag}")


def load_config(path: str | None) -> dict:
    """Parse and validate a config file; ``None`` gives the defaults."""
    cfg = {sec: {k: default for k, (_, default) in keys.items()} for sec, keys in SCHEMA.items()}
    if path is not None:
        parser = configparser.ConfigParser()
        try:
            if not parser.read(path, encoding="utf-8"):
                raise ConfigError(f"config file not found: {path}")
            items = {section: parser.items(section) for section in parser.sections()}
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}")
        for section, pairs in items.items():
            if section not in SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in pairs:
                if key not in SCHEMA[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                try:
                    cfg[section][key] = _convert(SCHEMA[section][key][0], raw)
                except ValueError as exc:
                    raise ConfigError(f"bad value for {key!r} in section [{section}]: {exc}")
    if cfg["wave"]["branch"] < 0:
        raise ConfigError(
            f"[wave] branch counts the amplitude roots from 0, got {cfg['wave']['branch']}"
        )
    return cfg


def params_from_config(cfg: dict) -> SystemParams:
    m = cfg["model"]
    return SystemParams(
        u_coeffs=(m["u0"], m["u1"]),
        v_coeffs=(m["v0"], m["v1"]),
        xi=m["xi"],
        m=m["m"],
        kappa_coeffs=(m["kappa0"], m["kappa1"]),
        s1_coeffs=(m["s1_0"], m["s1_1"]),
        s2_coeffs=(m["s2_0"], m["s2_1"]),
    )


def _refuse_coupling(cfg: dict, command: str) -> None:
    """Refuse a ``[dispersion] coupling`` other than the placement the dynamics step."""
    why = f"{command} linearizes the dynamics, whose coupling is kappa_gradient"
    _refuse_keys(cfg, "dispersion", ("coupling",), why)


def _refuse_keys(cfg: dict, section: str, keys: tuple[str, ...], why: str) -> None:
    """Refuse, by name, each of ``keys`` whose ``[section]`` value is not its default.

    A key set to its schema default is not refused: the parsed config
    cannot tell it from a key left unset.
    """
    values = cfg[section]
    named = ", ".join(k for k in keys if values[k] != SCHEMA[section][k][1])
    if named:
        raise ValueError(f"{why}; it cannot honour [{section}] {named}")


def wave_from_config(cfg: dict, params: SystemParams) -> PlaneWave:
    """The ``[wave]`` plane wave: solved from ``params``, or given by r0, theta0 or both.

    A wave given by one of r0 and theta0 takes the other from the unit
    circle, and must satisfy the constraints of ``params``.  It is not
    solved, so a nonzero branch or drift_compatibility beside it is refused.
    """
    w = cfg["wave"]
    r0, theta0 = w["r0"], w["theta0"]
    if r0 is None and theta0 is None:
        return solve_plane_wave(
            params,
            branch=w["branch"],
            w0=w["w0"],
            drift_compatibility=w["drift_compatibility"],
        )
    given = ", ".join(k for k in ("r0", "theta0") if w[k] is not None)
    why = f"a [wave] given by {given} is not solved"
    _refuse_keys(cfg, "wave", ("branch", "drift_compatibility"), why)
    if r0 is None:
        r0 = float(np.sqrt(max(1.0 - theta0**2, 0.0)))
    if theta0 is None:
        theta0 = float(np.sqrt(max(1.0 - r0**2, 0.0)))
    wave = PlaneWave(r0=r0, theta0=theta0, w0=w["w0"])
    wave.validate(params)
    return wave


def grid_from_config(cfg: dict) -> Grid:
    g = cfg["grid"]
    return Grid(dim=g["dim"], n=g["n"], length=g["length"])


def solver_config_from_config(cfg: dict) -> solver.SolverConfig:
    s = cfg["solver"]
    return solver.SolverConfig(
        dt=s["dt"],
        t_end=s["t_end"],
        scheme=s["scheme"],
        cadence=s["cadence"],
        blowup_threshold=s["blowup"],
        k_cutoff=s["k_cutoff"],
        hs_exponent=s["hs_exponent"],
        besov_p=s["besov_p"],
    )


def _fmt(x) -> str:
    if x is None:
        return "nan"
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return f"{float(x):.17g}"


def write_csv(path: Path, schema: str, header: list[str], rows) -> None:
    lines = [f"# schema={schema}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, schema: str, payload: dict) -> None:
    doc = {"schema": schema}
    doc.update(payload)
    # JSON (RFC 8259) has no inf or NaN: a round trip writes them as null.
    doc = json.loads(json.dumps(doc), parse_constant=lambda _: None)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _fail_json(message: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": message, "exit_code": code}) + "\n")
    return code


def _slice_summary(cfg: dict, wave: PlaneWave) -> dict:
    model = cfg["model"]
    return {
        "r0": wave.r0,
        "theta0": wave.theta0,
        "w0": wave.w0,
        "m": model["m"],
        "u": [model["u0"], model["u1"]],
        "v": [model["v0"], model["v1"]],
        "kappa": [model["kappa0"], model["kappa1"]],
    }


def _noise_state(cfg: dict, grid: Grid, seed: int) -> solver.FieldState:
    """The ``[initial]`` state: band-limited noise in P, then in each drift component.

    Each field is drawn by ``band_limited_noise`` from one generator seeded
    with ``seed``, P first, as acceptance criterion 10 draws its 1D data:
    modes |index| <= 8 per axis, the mean mode zeroed.
    """
    amplitude = cfg["initial"]["amplitude"]
    if not np.isfinite(amplitude):
        raise ValueError(f"[initial] amplitude must be finite, not {amplitude!r}")
    rng = np.random.default_rng(seed)
    noise = functools.partial(
        band_limited_noise, grid, rng, max_index=8, zero_mean=True, amplitude=amplitude
    )
    return solver.FieldState(P=noise(), omega=tuple(noise(real=True) for _ in range(grid.dim)))


def cmd_simulate(cfg: dict, out: Path, seed: int) -> int:
    params = params_from_config(cfg)
    grid = grid_from_config(cfg)
    sconf = solver_config_from_config(cfg)
    state = solver.FieldState.zeros(grid)
    w = cfg["wave"]
    if cfg["initial"]["amplitude"] is not None:
        why = "simulate starts from the [initial] noise or from a [wave], not both"
        _refuse_keys(cfg, "wave", tuple(SCHEMA["wave"]), why)
        state = _noise_state(cfg, grid, seed)
    if w["r0"] is None and w["theta0"] is None:
        why = "simulate starts from P = Omega = 0 unless [wave] gives r0 or theta0"
        _refuse_keys(cfg, "wave", ("w0", "branch", "drift_compatibility"), why)
    elif grid.dim != 1:
        raise ValueError(f"a [wave] initial state needs [grid] dim = 1, not dim = {grid.dim}")
    else:
        wave = wave_from_config(cfg, params)
        pst = perturbation.PerturbationState.zeros(grid)
        P, omega = perturbation.compose_polar(wave, pst)
        state = solver.FieldState(P=P, omega=(omega,), t=0.0)
    status = "completed"
    try:
        summary = solver.evolve(state, params, config=sconf)
        rows = summary.rows
    except solver.StepUnstable as exc:
        status = f"unstable@{exc.t:.6g}"
        rows = exc.rows
    header = ["t", "L2_P", "L2_Omega", "Hs_P", "Hs_Omega", "besov_proxy"]
    write_csv(
        out / "diagnostics.csv",
        "cglb.diagnostics.v1",
        header,
        ([row[h] for h in header] for row in rows),
    )
    write_json(out / "summary.json", "cglb.summary.v1", {"status": status, "seed": seed})
    return 0


def cmd_dispersion(cfg: dict, out: Path, seed: int) -> int:
    params = params_from_config(cfg)
    wave = wave_from_config(cfg, params)
    d = cfg["dispersion"]
    mats = dispersion.build_matrices(params, wave, d["coupling"])
    ks = dispersion.default_k_grid(d["k_extent"], d["samples"])
    lams = dispersion.spectrum_table(mats, ks)
    rows = (
        [k, l[0].real, l[0].imag, l[1].real, l[1].imag, l[2].real, l[2].imag]
        for k, l in zip(ks, lams)
    )
    write_csv(
        out / "spectrum.csv",
        "cglb.spectrum.v1",
        ["k", "re1", "im1", "re2", "im2", "re3", "im3"],
        rows,
    )
    verdict = dispersion.classify_spectrum(ks, lams)
    write_json(out / "verdict.json", "cglb.verdict.v1", verdict.to_json_dict())
    return 0


def cmd_stability_scan(cfg: dict, out: Path, seed: int) -> int:
    d, w, scan = cfg["dispersion"], cfg["wave"], cfg["scan"]
    why = "stability-scan solves the plane wave of each job at its own w0"
    _refuse_keys(cfg, "wave", ("r0", "theta0", "drift_compatibility"), why)
    empty = ", ".join(k for k in SCHEMA["scan"] if scan[k] == [])
    if empty:
        raise ValueError(f"[scan] {empty} lists no value; an empty axis scans nothing")
    # The axes in the atlas's column order; an unset one holds the value of
    # [wave] w0 or of [model].
    axes = {
        k: [w["w0"] if k == "w0" else cfg["model"][k]] if scan[k] is None else scan[k]
        for k in SCHEMA["scan"]
    }
    class_keys = [k for k in axes if k != "w0"]
    ks = dispersion.check_grid(dispersion.default_k_grid(d["k_extent"], d["samples"]))
    # Checked here, not only by build_matrices: a class without a wave builds no pencil.
    dispersion.check_coupling(d["coupling"])

    # A class is the jobs that differ only in w0.  The plane wave (r0,
    # theta0) does not depend on w0, and w0 enters the pencil only as
    # -i*k*w0*I.  So a class takes the plane wave of the class before when
    # their amplitude polynomials are equal (plane_wave_key), validated
    # against its own parameters, and one eigen-solve of its drift-free
    # (w0 = 0) pencil, shared with the class before when their pencils are
    # equal.  Its jobs classify those eigenvalues shifted by their own w0,
    # checked against their own pencils in one shifted_verdicts call, on the
    # grid checked once above.  One class's eigenvalues are live at a time.
    cells = {}
    wave_key = solved_key = None
    for cls in itertools.product(*(axes[k] for k in class_keys)):
        params = params_from_config({"model": dict(cfg["model"], **dict(zip(class_keys, cls)))})
        poly_key = plane_wave_key(params)
        try:
            if poly_key != wave_key:
                wave_key, wave = poly_key, None  # stays None if the solve raises
                wave = solve_plane_wave(params, branch=w["branch"])
            elif wave is None:
                raise NoRealSolution("the class before found no wave")
            wave.validate(params)
        except (NoRealSolution, ValueError):
            for w0 in axes["w0"]:
                cells[cls, w0] = [None, None, "no_wave", None, None, None, None]
            continue
        drift_free = dispersion.build_matrices(params, wave, d["coupling"])
        key = b"".join(x.tobytes() for x in (drift_free.A, drift_free.B, drift_free.C))
        if key != solved_key:
            solved_key, solved = key, dispersion.solved_eigvals(drift_free, ks)
        job_mats = [
            dispersion.build_matrices(params, replace(wave, w0=w0), d["coupling"])
            for w0 in axes["w0"]
        ]
        verdicts = dispersion.shifted_verdicts(job_mats, ks, solved, axes["w0"])
        for w0, verdict in zip(axes["w0"], verdicts):
            cells[cls, w0] = [
                wave.r0,
                wave.theta0,
                verdict.kind,
                verdict.parabola_constant,
                verdict.omega_plus,
                *(verdict.unstable_band or (None, None)),
            ]
    # The rows run in the product order of all seven axes, w0 second.
    rows = (
        [*job, *cells[job[:1] + job[2:], job[1]]] for job in itertools.product(*axes.values())
    )
    header = [*axes, "r0", "theta0", "verdict", "C", "omega_plus", "band_lo", "band_hi"]
    write_csv(out / "atlas.csv", "cglb.atlas.v1", header, rows)
    return 0


def cmd_decay_fit(cfg: dict, out: Path, seed: int) -> int:
    why = "decay-fit measures the H^(s+1) norm of [experiment] s"
    _refuse_keys(cfg, "solver", ("hs_exponent",), why)
    _refuse_coupling(cfg, "decay-fit")
    params = params_from_config(cfg)
    wave = wave_from_config(cfg, params)
    grid = grid_from_config(cfg)
    sconf = solver_config_from_config(cfg)
    exp = cfg["experiment"]
    rng = np.random.default_rng(seed)
    pi0 = perturbation.seeded_state(grid, sconf.k_cutoff, exp["init_modes"], exp["amp"], rng)
    report = perturbation.decay_experiment(params, wave, pi0, exp["s"], sconf)
    payload = {"slice": _slice_summary(cfg, wave)}
    payload.update(report.to_json_dict())
    write_json(out / "decay.json", "cglb.decay.v1", payload)
    write_csv(
        out / "decay_series.csv",
        "cglb.decay_series.v1",
        ["t", "hs_norm"],
        zip(report.times, report.norms),
    )
    return 0 if report.passed else 2


def cmd_instability(cfg: dict, out: Path, seed: int) -> int:
    _refuse_coupling(cfg, "instability")
    params = params_from_config(cfg)
    wave = wave_from_config(cfg, params)
    grid = grid_from_config(cfg)
    sconf = solver_config_from_config(cfg)
    exp = cfg["experiment"]
    report = perturbation.instability_experiment(
        params, wave, exp["k_seed"], exp["amp"], sconf, grid=grid
    )
    payload = {"slice": _slice_summary(cfg, wave)}
    payload.update(report.to_json_dict())
    write_json(out / "growth.json", "cglb.growth.v1", payload)
    write_csv(
        out / "growth_series.csv",
        "cglb.growth_series.v1",
        ["t", "mode_amplitude"],
        zip(report.times, report.amplitudes),
    )
    return 0 if report.passed else 2


def cmd_besov_check(cfg: dict, out: Path, seed: int) -> int:
    b = cfg["besov"]
    # Without a case or a scale the check would pass having checked nothing.
    if b["cases"] < 1:
        raise ValueError(f"cases must be at least 1, not {b['cases']}")
    if not b["q_list"]:
        raise ValueError("q_list must hold at least one scale")
    fractional = ", ".join(f"{q:g}" for q in b["q_list"] if not q.is_integer())
    if fractional:
        raise ValueError(f"q_list must hold integer dyadic scales, not {fractional}")
    # mu < 0 is a backward heat equation, and the fitted constants divide by mu.
    if not 0.0 < b["mu"] < np.inf:
        raise ValueError(f"mu must be positive and finite, not {b['mu']!r}")
    if not np.isfinite(b["u_disp"]):
        raise ValueError(f"u_disp must be finite, not {b['u_disp']!r}")
    # Below 1 the L^p "norm" of the decay check is no norm.
    if not 1.0 <= b["p"] <= np.inf:
        raise ValueError(f"p must lie in [1, inf], not {b['p']!r}")
    grid = Grid(dim=1, n=b["n"], length=_TWO_PI)
    rng = np.random.default_rng(seed)
    part = lp.partition_for(grid)
    dev_nh, dev_h = part.partition_deviation()
    qmin, qmax = part.quadratic_sum_bounds()

    u = band_limited_noise(grid, rng, max_index=grid.n // 8, real=True)
    v = band_limited_noise(grid, rng, max_index=grid.n // 8, real=True)
    tuv, tvu, ruv = lp.bony_split(u, v)
    product = u.physical() * v.physical()
    bony_err = float(
        np.max(np.abs(tuv.physical() + tvu.physical() + ruv.physical() - product))
    )

    t_grid = np.linspace(0.0, 0.1, 9)
    decay_reports = []
    for q in b["q_list"]:
        rep = lp.check_semigroup_decay(
            grid, int(q), b["mu"], b["u_disp"], t_grid, p=b["p"], rng=rng
        )
        decay_reports.append(rep.to_json_dict())

    # All cases in one check: they share its heat propagators.
    cases = [
        band_limited_noise(grid, rng, max_index=grid.n // 4, zero_mean=True)
        for _ in range(b["cases"])
    ]
    idx = lp.BesovIndex(s=0.0, p=2.0, r=1.0, rho=1.0)
    reports = lp.check_smoothing_estimate(cases, None, b["mu"], b["u_disp"], idx, rho1=1.0)
    max_ratio = max(rep.ratio for rep in reports)

    passed = (
        dev_nh <= 1e-12
        and dev_h <= 1e-12
        and bony_err <= 1e-10
        and all(rep["pass"] for rep in decay_reports)
        and max_ratio <= b["ratio_ceiling"]
    )
    write_json(
        out / "besov_report.json",
        "cglb.besov.v1",
        {
            "partition_deviation_nonhomogeneous": dev_nh,
            "partition_deviation_homogeneous": dev_h,
            "quadratic_sum_min": qmin,
            "quadratic_sum_max": qmax,
            "bony_identity_error": bony_err,
            "semigroup_decay": decay_reports,
            "smoothing_ratio_max": max_ratio,
            "ratio_ceiling_calibrated": True,
            "ratio_ceiling": b["ratio_ceiling"],
            "pass": passed,
        },
    )
    return 0 if passed else 2


def cmd_quadratic_check(cfg: dict, out: Path, seed: int) -> int:
    why = "quadratic-check takes the remainder on the 2/3-rule band"
    _refuse_keys(cfg, "solver", ("k_cutoff",), why)
    why = "quadratic-check guards the remainder with the default blow-up threshold"
    _refuse_keys(cfg, "solver", ("blowup",), why)
    _refuse_coupling(cfg, "quadratic-check")
    params = params_from_config(cfg)
    wave = wave_from_config(cfg, params)
    grid = grid_from_config(cfg)
    exp = cfg["experiment"]
    if exp["directions"] < 1:
        raise ValueError(f"directions must be at least 1, not {exp['directions']}")
    rng = np.random.default_rng(seed)
    reports = []
    all_pass = True
    for _ in range(exp["directions"]):
        pi_dir = perturbation.seeded_state(grid, None, exp["init_modes"], 1.0, rng)
        rep = perturbation.quadratic_order_check(pi_dir, params, wave, exp["eps_list"])
        reports.append(rep.to_json_dict())
        all_pass = all_pass and rep.passed
    write_json(
        out / "quadratic.json",
        "cglb.quadratic.v1",
        {"directions": reports, "pass": all_pass},
    )
    return 0 if all_pass else 2


COMMANDS = {
    "simulate": cmd_simulate,
    "dispersion": cmd_dispersion,
    "stability-scan": cmd_stability_scan,
    "decay-fit": cmd_decay_fit,
    "instability": cmd_instability,
    "besov-check": cmd_besov_check,
    "quadratic-check": cmd_quadratic_check,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="cglb",
        description="Simulation and spectral-stability toolkit for coupled "
        "complex Ginzburg-Landau / Burgers dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1, help="accepted; runs serially")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        return _fail_json(str(exc), 1)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        return COMMANDS[args.command](cfg, out, args.seed)
    except (ValueError, ArithmeticError) as exc:
        return _fail_json(str(exc), 1)
    except solver.GuardTripped as exc:
        return _fail_json(f"{type(exc).__name__} at t = {exc.t:.6g}: {exc}", 1)


if __name__ == "__main__":
    sys.exit(main())
