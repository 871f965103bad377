import configparser
import itertools
import json
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cglburgers import cli, dispersion, solver
from cglburgers.cli import ConfigError, load_config, main
from cglburgers.model import SystemParams, solve_plane_wave
from cglburgers.spectral import Grid, band_limited_noise


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_config_defaults():
    cfg = load_config(None)
    assert cfg["model"]["m"] == 1.0
    assert cfg["grid"]["n"] == 256
    assert cfg["solver"]["scheme"] == "exponential-rk2"


def test_load_config_rejects_unknown_key(tmp_path):
    path = write(tmp_path, "bad.ini", "[model]\nbogus = 1\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_rejects_unknown_section(tmp_path):
    path = write(tmp_path, "bad.ini", "[mystery]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[wave]\nbranch =\n",
         "bad value for 'branch' in section [wave]: invalid literal for int() with base 10: ''"),
        ("[grid]\nn = 3.5\n",
         "bad value for 'n' in section [grid]: invalid literal for int() with base 10: '3.5'"),
        ("[wave]\ndrift_compatibility = maybe\n",
         "bad value for 'drift_compatibility' in section [wave]: not a boolean: 'maybe'"),
    ],
    ids=["branch", "n", "drift_compatibility"],
)
def test_a_value_that_does_not_parse_is_refused_by_its_key(tmp_path, capsys, text, message):
    # An int that did not parse used to end the run with a traceback.
    code = main(["dispersion", "--config", write(tmp_path, "bad.ini", text),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error == {"error": message, "exit_code": 1}


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "cglb: error: the following arguments are required: command"),
        (["bogus"], "cglb: error: argument command: invalid choice: 'bogus'"),
        (["dispersion", "--seed", "x"], "cglb dispersion: error: argument --seed: invalid int value: 'x'"),
        (["dispersion", "--bogus"], "cglb: error: unrecognized arguments: --bogus"),
    ],
    ids=["no-command", "unknown-command", "bad-seed", "unknown-option"],
)
def test_a_bad_invocation_exits_1_with_the_usage_error(capsys, argv, message):
    # The parser is built once per process; each call still parses afresh.
    for _ in range(2):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: cglb") and message in err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: cglb")


def test_main_looks_up_the_command_at_call_time(tmp_path, monkeypatch):
    # A wrapper put into COMMANDS after the parser was built is what runs.
    main(["--help"])
    calls = []
    monkeypatch.setitem(cli.COMMANDS, "dispersion", lambda cfg, out, seed: calls.append(seed) or 0)
    assert main(["dispersion", "--out", str(tmp_path), "--seed", "7"]) == 0
    assert calls == [7]


def test_missing_config_file_exit_code(tmp_path):
    code = main(["dispersion", "--config", str(tmp_path / "absent.ini"), "--out", str(tmp_path)])
    assert code == 1


@pytest.mark.parametrize(
    "text",
    [
        b"[model]\nm = 1.0\n\n[model]\nu0 = 0.5\n",
        b"[model]\nm = 1.0\nm = 2.0\n",
        b"m = 1.0\n\n[model]\nu0 = 0.5\n",
        b"[model]\nm = 1.0\xff\n",
        b"[model]\nm = 1.0%\n",
    ],
    ids=["duplicate-section", "duplicate-key", "no-section-header", "not-utf8", "percent"],
)
def test_a_config_file_that_does_not_parse_is_refused_by_its_path(tmp_path, capsys, text):
    # Each of these used to end the run with a traceback and no JSON line.
    path = tmp_path / "bad.ini"
    path.write_bytes(text)
    out = tmp_path / "out"
    assert main(["dispersion", "--config", str(path), "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error.keys() == {"error", "exit_code"} and error["exit_code"] == 1
    assert error["error"].startswith(f"cannot parse config file {path}: ")
    assert not out.exists()


DISPERSION_INI = """
[model]
m = 1.0

[wave]
r0 = 1.0
theta0 = 0.0
w0 = 0.0

[dispersion]
k_extent = 8.0
samples = 17
"""


def test_dispersion_reference_row(tmp_path):
    path = write(tmp_path, "disp.ini", DISPERSION_INI)
    out = tmp_path / "out"
    code = main(["dispersion", "--config", path, "--out", str(out)])
    assert code == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0].startswith("# schema=cglb.spectrum.v1")
    header = lines[1].split(",")
    assert header == ["k", "re1", "im1", "re2", "im2", "re3", "im3"]
    rows = {float(line.split(",")[0]): line.split(",") for line in lines[2:]}
    row = [float(v) for v in rows[1.0]]
    assert row[1:] == pytest.approx([-1.0, 0.0, -1.0, 0.0, -3.0, 0.0], abs=1e-12)
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["verdict"] == "stable"
    assert verdict["C_unconstrained"] is True


def test_dispersion_reads_the_kappa_of_its_config(tmp_path):
    # The default placement used to drop kappa: the coupled wave was written
    # "stable" (sup_real -2.4e-4), exactly as the wave with kappa = 0 is.
    verdicts = {}
    for kappa0 in ("0.0", "0.5"):
        text = f"[model]\nkappa0 = {kappa0}\n\n[wave]\ntheta0 = 0.5\n"
        path = write(tmp_path, f"k{kappa0}.ini", text)
        out = tmp_path / kappa0
        assert main(["dispersion", "--config", path, "--out", str(out)]) == 0
        verdicts[kappa0] = json.loads((out / "verdict.json").read_text())
    assert verdicts["0.0"]["verdict"] == "stable"
    coupled = verdicts["0.5"]
    assert coupled["verdict"] == "unstable"
    assert coupled["sup_real"] == pytest.approx(0.05808, abs=1e-5)
    assert coupled["unstable_band"] == pytest.approx([-0.45357, 0.45357], abs=1e-5)


# Every class of this scan writes no_wave, so it builds no pencil; such a
# scan used to accept any placement and exit 0.
NO_WAVE_SCAN_INI = "[scan]\nu0 = 1.0\nv0 = 0.5\n\n[dispersion]\nsamples = 16\n"


@pytest.mark.parametrize(
    "command, text",
    [
        ("dispersion", DISPERSION_INI + "coupling = kappa_zero\n"),
        ("stability-scan", NO_WAVE_SCAN_INI + "coupling = kappa_zero\n"),
        ("stability-scan", NO_WAVE_SCAN_INI + "coupling = bogus\n"),
    ],
    ids=["dispersion", "stability-scan-no-wave", "stability-scan-bogus"],
)
def test_a_placement_that_is_gone_is_refused(tmp_path, capsys, command, text):
    path = write(tmp_path, "zero.ini", text)
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error == {
        "error": "coupling must be one of ('kappa_constant', 'kappa_gradient')",
        "exit_code": 1,
    }
    assert not any(out.iterdir())


def test_simulate_zero_data_all_zero(tmp_path):
    path = write(
        tmp_path,
        "sim.ini",
        "[grid]\nn = 32\n\n[solver]\ndt = 0.01\nt_end = 0.05\ncadence = 1\nbesov_p = 1.0\n",
    )
    out = tmp_path / "out"
    code = main(["simulate", "--config", path, "--out", str(out)])
    assert code == 0
    lines = (out / "diagnostics.csv").read_text().splitlines()
    for line in lines[2:]:
        values = [float(v) for v in line.split(",")[1:]]
        assert all(v == 0.0 for v in values)


def test_simulate_refuses_a_cutoff_that_is_not_positive(tmp_path, capsys):
    # Such a run used to write a diagnostics.csv whose state was zero after
    # the first step, and exit 0.
    path = write(
        tmp_path,
        "cut.ini",
        "[grid]\nn = 32\n\n[solver]\ndt = 0.01\nt_end = 0.05\nk_cutoff = -1.0\n",
    )
    out = tmp_path / "out"
    code = main(["simulate", "--config", path, "--out", str(out)])
    assert code == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error == {"error": "k_cutoff must be positive, not -1.0", "exit_code": 1}
    assert not (out / "diagnostics.csv").exists()


@pytest.mark.parametrize("besov_p", ["0", "0.5", "-1", "nan"])
def test_simulate_refuses_a_besov_exponent_below_one(tmp_path, capsys, besov_p):
    # besov_p = 0 used to stop at the first diagnostics row with "float
    # division by zero", and 0.5, -1 and nan with an error naming no setting.
    path = write(
        tmp_path,
        "besov.ini",
        f"[grid]\nn = 32\n\n[solver]\ndt = 0.01\nt_end = 0.05\nbesov_p = {besov_p}\n",
    )
    out = tmp_path / "out"
    code = main(["simulate", "--config", path, "--out", str(out)])
    assert code == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error == {
        "error": f"besov_p must lie in [1, inf], not {float(besov_p)!r}", "exit_code": 1
    }
    assert not (out / "diagnostics.csv").exists()


@pytest.mark.parametrize(
    "section, key, value, named",
    [
        ("solver", "dt", "nan", "dt"),
        ("solver", "dt", "inf", "dt"),
        ("solver", "t_end", "inf", "t_end"),
        ("solver", "t_end", "nan", "t_end"),
        ("solver", "hs_exponent", "nan", "hs_exponent"),
        ("solver", "hs_exponent", "inf", "hs_exponent"),
        ("solver", "blowup", "nan", "blowup"),
        ("grid", "length", "nan", "length"),
        ("grid", "length", "inf", "length"),
    ],
)
def test_simulate_refuses_a_non_finite_setting(tmp_path, capsys, section, key, value, named):
    # hs_exponent = nan used to exit 0 with NaN H^s columns, blowup = nan
    # with "unstable@0" on zero data; the others exited 1 with an error that
    # named no setting ("cannot convert float NaN to integer", "math domain
    # error").
    sections = {"grid": {"n": "32"}, "solver": {"dt": "0.01", "t_end": "0.05"}}
    sections[section][key] = value
    text = "".join(
        f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
        for sec, keys in sections.items()
    )
    path = write(tmp_path, "sim.ini", text)
    out = tmp_path / "out"
    code = main(["simulate", "--config", path, "--out", str(out)])
    assert code == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["exit_code"] == 1
    assert named in error["error"]
    assert not (out / "diagnostics.csv").exists()


def test_simulate_refuses_a_wave_in_two_dimensions(tmp_path, capsys):
    # Such a run used to evolve zeros and exit 0.
    path = write(
        tmp_path,
        "sim2d.ini",
        "[grid]\ndim = 2\nn = 16\n\n[wave]\nr0 = 0.8\n\n[solver]\ndt = 0.01\nt_end = 0.02\n",
    )
    code = main(["simulate", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "dim = 2" in error["error"]


# Criterion 10's 1D physics and data, over four steps.
NOISE_RUN_INI = """
[model]
u0 = 0.3
v0 = 0.2
xi = 0.0
kappa0 = 0.5
s1_0 = 0.1

[initial]
amplitude = 2e-3

[grid]
n = 256

[solver]
dt = 0.005
t_end = 0.02
cadence = 1
besov_p = 1.0
"""


def _simulate_artifacts(root, text, seed):
    root.mkdir(exist_ok=True)
    out = root / "out"
    path = write(root, "noise.ini", text)
    assert main(["simulate", "--config", path, "--out", str(out), "--seed", str(seed)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_simulate_draws_the_data_of_criterion_10(tmp_path):
    # simulate used to start from P = Omega = 0 whatever --seed said.
    grid = Grid(dim=1, n=256)
    rng = np.random.default_rng(17)
    state = solver.FieldState(
        P=band_limited_noise(grid, rng, max_index=8, amplitude=2e-3, zero_mean=True),
        omega=(
            band_limited_noise(grid, rng, max_index=8, amplitude=2e-3, real=True, zero_mean=True),
        ),
    )
    params = SystemParams.constants(u=0.3, v=0.2, xi=0.0, m=1.0, kappa=0.5, s1=0.1)
    config = solver.SolverConfig(dt=5e-3, t_end=0.02, cadence=1, besov_p=1.0)
    rows = solver.evolve(state, params, config=config).rows
    header = ["t", "L2_P", "L2_Omega", "Hs_P", "Hs_Omega", "besov_proxy"]
    want = [",".join(cli._fmt(row[h]) for h in header) for row in rows]
    got = _simulate_artifacts(tmp_path, NOISE_RUN_INI, 17)["diagnostics.csv"]
    assert got.decode().splitlines()[2:] == want
    assert rows[0]["besov_proxy"] > 0.0


def test_simulate_draws_its_initial_noise_from_the_seed(tmp_path):
    runs = [_simulate_artifacts(tmp_path / str(i), NOISE_RUN_INI, seed)
            for i, seed in enumerate((0, 0, 1))]
    assert runs[0] == runs[1]
    assert runs[0]["diagnostics.csv"] != runs[2]["diagnostics.csv"]


@pytest.mark.parametrize(
    "text, message",
    [
        (NOISE_RUN_INI + "\n[wave]\nr0 = 0.8\n",
         "simulate starts from the [initial] noise or from a [wave], not both; "
         "it cannot honour [wave] r0"),
        (NOISE_RUN_INI + "\n[wave]\nw0 = 0.7\nbranch = 1\n",
         "simulate starts from the [initial] noise or from a [wave], not both; "
         "it cannot honour [wave] w0, branch"),
        ("[initial]\namplitude = nan\n", "[initial] amplitude must be finite, not nan"),
    ],
    ids=["wave", "wave-keys", "nan"],
)
def test_simulate_refuses_initial_noise_it_cannot_draw(tmp_path, capsys, text, message):
    out = tmp_path / "out"
    assert main(["simulate", "--config", write(tmp_path, "bad.ini", text), "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error == {"error": message, "exit_code": 1}
    assert not any(out.iterdir())


# theta0 = 0.6 is the lowest wavenumber of the grid, so simulate can compose its wave.
WAVE_RUN_INI = """
[grid]
n = 32
length = 10.471975511965978

[solver]
dt = 0.01
t_end = 0.02
cadence = 1

[dispersion]
k_extent = 8.0
samples = 17

[wave]
"""


def _wave_artifacts(out, command, wave):
    """The artifacts of a run of ``command`` whose ``[wave]`` section reads ``wave``."""
    out.mkdir()
    assert main([command, "--config", write(out, "run.ini", WAVE_RUN_INI + wave),
                 "--out", str(out / "out")]) == 0
    return {p.name: p.read_bytes() for p in sorted((out / "out").iterdir())}


@pytest.mark.parametrize("command", ["dispersion", "simulate"])
def test_a_wave_given_by_theta0_alone_takes_r0_from_the_unit_circle(tmp_path, command):
    # theta0 alone used to be dropped: the run solved the wave r0 = 1, theta0 = 0.
    alone = _wave_artifacts(tmp_path / "alone", command, "theta0 = 0.6\n")
    both = _wave_artifacts(tmp_path / "both", command, "r0 = 0.8\ntheta0 = 0.6\n")
    # The solve's keys at their defaults, written out, are no request to refuse.
    spelled = _wave_artifacts(
        tmp_path / "spelled", command, "theta0 = 0.6\nbranch = 0\ndrift_compatibility = false\n"
    )
    unit = _wave_artifacts(tmp_path / "unit", command, "r0 = 1.0\n")
    assert alone == both == spelled != unit


@pytest.mark.parametrize("command", ["dispersion", "simulate"])
def test_an_explicit_wave_off_the_constraints_of_the_model_is_refused(tmp_path, capsys, command):
    # At r0 = 1 the second constraint reads v(r0) = 0.3; such a run used to exit 0.
    text = "[model]\nu0 = 0.5\nv0 = 0.3\n" + WAVE_RUN_INI + "r0 = 1.0\n"
    out = tmp_path / "out"
    assert main([command, "--config", write(tmp_path, "off.ini", text), "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error == {
        "error": "plane wave violates constraints: residuals (0.000e+00, 3.000e-01)",
        "exit_code": 1,
    }
    assert not any(out.iterdir())


@pytest.mark.parametrize("command", ["decay-fit", "instability", "quadratic-check"])
def test_polar_commands_refuse_a_two_dimensional_grid(tmp_path, capsys, command):
    # These commands used to build a 1D grid whatever [grid] dim said.
    path = write(
        tmp_path,
        "polar2d.ini",
        "[wave]\nr0 = 1.0\ntheta0 = 0.0\n\n[grid]\ndim = 2\nn = 16\n\n"
        "[solver]\ndt = 0.01\nt_end = 0.02\n",
    )
    code = main([command, "--config", path, "--out", str(tmp_path / "out")])
    assert code == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error == {"error": "polar perturbations are one-dimensional", "exit_code": 1}


def test_dealias_is_an_unknown_solver_key(tmp_path, capsys):
    # Every run dealiases; the key used to be accepted and ignored by the polar runs.
    path = write(tmp_path, "alias.ini", DISPERSION_INI + "\n[solver]\ndealias = false\n")
    code = main(["dispersion", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error == {"error": "unknown key 'dealias' in section [solver]", "exit_code": 1}


SCAN_INI = """
[grid]
n = 32

[dispersion]
k_extent = 8.0
samples = 65

[scan]
m = -1.0, 1.0
"""


def test_stability_scan_verdicts(tmp_path):
    path = write(tmp_path, "scan.ini", SCAN_INI)
    out = tmp_path / "out"
    code = main(["stability-scan", "--config", path, "--out", str(out)])
    assert code == 0
    lines = (out / "atlas.csv").read_text().splitlines()
    header = lines[1].split(",")
    verdict_col = header.index("verdict")
    m_col = header.index("m")
    verdicts = {float(l.split(",")[m_col]): l.split(",")[verdict_col] for l in lines[2:]}
    assert verdicts[-1.0] == "unstable"
    assert verdicts[1.0] == "stable"


def test_stability_scan_reads_the_kappa_of_each_job(tmp_path):
    # The default placement used to drop kappa: all three rows were
    # "stable" with C = 0.12530.  kappa0 = 0.5 sits at the long-wave
    # threshold of this wave and is not asserted.
    text = "[scan]\nm = 0.5\nu0 = -0.5\nv0 = 0.5\nkappa0 = 0.0, 0.5, 2.0\n"
    out = tmp_path / "out"
    assert main(["stability-scan", "--config", write(tmp_path, "k.ini", text),
                 "--out", str(out)]) == 0
    lines = (out / "atlas.csv").read_text().splitlines()
    header = lines[1].split(",")
    rows = {row[header.index("kappa0")]: row for row in (l.split(",") for l in lines[2:])}
    assert rows["0"][header.index("verdict")] == "stable"
    assert float(rows["0"][header.index("C")]) == pytest.approx(0.12530, abs=1e-5)
    assert rows["2"][header.index("verdict")] == "unstable"


def test_stability_scan_thread_independence(tmp_path):
    path = write(tmp_path, "scan.ini", SCAN_INI)
    outs = []
    for threads in (1, 2):
        out = tmp_path / f"out{threads}"
        code = main(
            ["stability-scan", "--config", path, "--out", str(out), "--threads", str(threads)]
        )
        assert code == 0
        outs.append((out / "atlas.csv").read_bytes())
    assert outs[0] == outs[1]


DRIFT_SCAN_INI = """
[dispersion]
k_extent = 8.0
samples = 65
coupling = kappa_gradient

[scan]
m = 0.5, 1.0
w0 = 0.0, 0.5, 1.0
u0 = -0.5, 0.5
v0 = 0.5
kappa0 = 0.0, 0.5
"""


def test_stability_scan_solves_once_per_drift_free_class(tmp_path, monkeypatch):
    # 24 jobs in 8 classes of three w0 values.  u0 = 0.5 shares the sign of
    # v0, so half the classes have no wave; the other four have distinct
    # pencils and take one eigen-solve each, not one per job.
    calls = []
    eigvals = np.linalg.eigvals

    def counting(Ms):
        calls.append(len(Ms))
        return eigvals(Ms)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    out = tmp_path / "out"
    assert main(["stability-scan", "--config", write(tmp_path, "scan.ini", DRIFT_SCAN_INI),
                 "--out", str(out)]) == 0
    lines = (out / "atlas.csv").read_text().splitlines()
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    with_wave = [row for row in rows if row[header.index("verdict")] != "no_wave"]
    assert len(rows) == 24 and len(with_wave) == 12
    assert calls == [33] * 4
    # The rows stay in the product order of the scan axes, w0 second.
    axes = [(0.5, 1.0), (0.0, 0.5, 1.0), (-0.5, 0.5), (0.5,), (0.0, 0.5), (0.0,), (0.0,)]
    assert [tuple(float(x) for x in row[:7]) for row in rows] == list(itertools.product(*axes))


# The m = 0.5 slice of the benchmark's 360-job atlas: 24 classes of three
# w0 values, with real waves, no-wave classes and a u = v = 0 class.
ATLAS_SLICE_INI = """
[dispersion]
k_extent = 16.0
samples = 2048
coupling = kappa_gradient

[scan]
m = 0.5
w0 = 0.0, 0.5, 1.0
u0 = -0.5, 0.0, 0.5, 1.0
v0 = -0.5, 0.0, 0.5
kappa0 = 0.0, 0.5
"""


def _per_job_atlas(path, out):
    """The atlas of ``path`` with each job's plane wave solved on its own, at its w0."""
    cfg = load_config(path)
    d = cfg["dispersion"]
    ks = dispersion.default_k_grid(d["k_extent"], d["samples"])
    header = ["m", "w0", "u0", "v0", "kappa0", "s1_0", "s2_0", "r0", "theta0",
              "verdict", "C", "omega_plus", "band_lo", "band_hi"]
    axes = [cfg["scan"][k] or [cfg["wave"]["w0"] if k == "w0" else cfg["model"][k]]
            for k in header[:7]]
    rows = []
    for values in itertools.product(*axes):
        job = dict(zip(header[:7], values))
        base = list(values)
        model = dict(cfg["model"], **{k: v for k, v in job.items() if k != "w0"})
        params = cli.params_from_config({"model": model})
        try:
            wave = solve_plane_wave(params, w0=job["w0"])
        except ValueError:  # NoRealSolution included
            rows.append(base + ["nan", "nan", "no_wave", "nan", "nan", "nan", "nan"])
            continue
        mats = dispersion.build_matrices(params, wave, d["coupling"])
        drift_free = dispersion.build_matrices(params, replace(wave, w0=0.0), d["coupling"])
        solved = dispersion.solved_eigvals(drift_free, ks)
        [verdict] = dispersion.shifted_verdicts([mats], ks, solved, [wave.w0])
        c, band = verdict.parabola_constant, verdict.unstable_band
        rows.append(base + [
            wave.r0,
            wave.theta0,
            verdict.kind,
            "inf" if c is not None and np.isinf(c) else ("nan" if c is None else c),
            "nan" if verdict.omega_plus is None else verdict.omega_plus,
            "nan" if band is None else band[0],
            "nan" if band is None else band[1],
        ])
    cli.write_csv(out, "cglb.atlas.v1", header, rows)
    return out.read_bytes()


def test_stability_scan_writes_the_atlas_of_per_job_solves(tmp_path):
    path = write(tmp_path, "slice.ini", ATLAS_SLICE_INI)
    want = _per_job_atlas(path, tmp_path / "reference.csv")
    out = tmp_path / "out"
    assert main(["stability-scan", "--config", path, "--out", str(out)]) == 0
    got = (out / "atlas.csv").read_bytes()
    assert got == want
    verdicts = {line.split(",")[9] for line in got.decode().splitlines()[2:]}
    assert {"stable", "unstable", "no_wave"} <= verdicts


def _runs(keys):
    """The number of runs of equal consecutive entries of ``keys``."""
    return sum(1 for i, key in enumerate(keys) if i == 0 or key != keys[i - 1])


@pytest.mark.parametrize(
    "config, wave_solves, eigen_solves",
    [("stability_atlas.ini", 1, 4), ("atlas-slice", 12, 16)],
)
def test_stability_scan_solves_each_wave_and_pencil_once_per_run(
    tmp_path, monkeypatch, config, wave_solves, eigen_solves
):
    # One plane-wave solve per run of classes with equal amplitude
    # polynomials u(r)*(1 - r^2) + v(r)*r^2, and one eigen-solve per run of
    # equal drift-free pencils, each run in the order the scan walks its
    # classes: the product of the six non-w0 axes.  (On the slice one of the
    # 15 distinct pencils comes back after another, and is solved twice.)
    if config == "atlas-slice":
        path = write(tmp_path, "slice.ini", ATLAS_SLICE_INI)
    else:
        path = str(Path(__file__).resolve().parents[1] / "configs" / config)
    cfg = load_config(path)
    keys = [k for k in cli.SCHEMA["scan"] if k != "w0"]
    polynomials, pencils = [], []
    for values in itertools.product(*(cfg["scan"][k] or [cfg["model"][k]] for k in keys)):
        params = cli.params_from_config({"model": dict(cfg["model"], **dict(zip(keys, values)))})
        (u0, u1), (v0, v1) = params.u_coeffs, params.v_coeffs
        polynomials.append((v1 - u1, v0 - u0, u1, u0))
        try:
            wave = solve_plane_wave(params, branch=cfg["wave"]["branch"])
        except ValueError:  # NoRealSolution included: a no_wave class
            continue
        mats = dispersion.build_matrices(params, wave, cfg["dispersion"]["coupling"])
        pencils.append(b"".join(x.tobytes() for x in (mats.A, mats.B, mats.C)))
    assert (_runs(polynomials), _runs(pencils)) == (wave_solves, eigen_solves)

    solves, eigen = [], []
    eigvals = np.linalg.eigvals

    def counting_solve(*args, **kwargs):
        solves.append(args)
        return solve_plane_wave(*args, **kwargs)

    def counting_eigvals(Ms):
        eigen.append(Ms.shape)
        return eigvals(Ms)

    monkeypatch.setattr(cli, "solve_plane_wave", counting_solve)
    monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
    assert main(["stability-scan", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert (len(solves), len(eigen)) == (wave_solves, eigen_solves)


def test_stability_scan_sorts_no_eigenvalues(tmp_path, monkeypatch):
    # The scan classifies each job's unsorted eigenvalues; dispersion still
    # writes sorted tables.
    calls = []
    lexsort = np.lexsort

    def counting(*args, **kwargs):
        calls.append(args)
        return lexsort(*args, **kwargs)

    monkeypatch.setattr(np, "lexsort", counting)
    assert main(["stability-scan", "--config", write(tmp_path, "scan.ini", DRIFT_SCAN_INI),
                 "--out", str(tmp_path / "scan")]) == 0
    assert calls == []
    assert main(["dispersion", "--config", write(tmp_path, "disp.ini", DISPERSION_INI),
                 "--out", str(tmp_path / "disp")]) == 0
    assert len(calls) == 2  # the solved k >= 0 half and its mirror


@pytest.mark.parametrize("value", [complex(np.nan, 0.0), complex(-1.0, np.inf)], ids=["nan", "inf"])
def test_stability_scan_refuses_a_non_finite_eigenvalue(tmp_path, monkeypatch, capsys, value):
    solved_eigvals = dispersion.solved_eigvals

    def poisoned(mats, ks):
        lams = solved_eigvals(mats, ks)
        lams[3, 1] = value
        return lams

    monkeypatch.setattr(dispersion, "solved_eigvals", poisoned)
    out = tmp_path / "out"
    assert main(["stability-scan", "--config", write(tmp_path, "scan.ini", DRIFT_SCAN_INI),
                 "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error == {"error": "spectrum table holds non-finite eigenvalues", "exit_code": 1}
    assert not (out / "atlas.csv").exists()


@pytest.mark.parametrize(
    "wave, named",
    [
        ("r0 = 0.6\n", "r0"),
        ("theta0 = 0.8\n", "theta0"),
        ("r0 = 0.6\ntheta0 = 0.8\n", "r0, theta0"),
        ("drift_compatibility = true\n", "drift_compatibility"),
    ],
    ids=["r0", "theta0", "r0-theta0", "drift_compatibility"],
)
def test_stability_scan_refuses_the_wave_keys_it_cannot_honour(tmp_path, capsys, wave, named):
    # The scan solves the wave of each job.  These keys used to be ignored:
    # the atlas was byte for byte the one without them.
    out = tmp_path / "out"
    text = SCAN_INI + "\n[wave]\n" + wave
    assert main(["stability-scan", "--config", write(tmp_path, "scan.ini", text),
                 "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error == {
        "error": "stability-scan solves the plane wave of each job at its own w0; "
        f"it cannot honour [wave] {named}",
        "exit_code": 1,
    }
    assert not (out / "atlas.csv").exists()


@pytest.mark.parametrize(
    "scan, named",
    [("m =\n", "m"), ("m = 1.0\nw0 = ,\n", "w0"), ("m = 1.0\nu0 =\ns2_0 =\n", "u0, s2_0")],
    ids=["m", "w0", "u0-s2_0"],
)
def test_stability_scan_refuses_an_axis_that_lists_no_value(
    tmp_path, capsys, monkeypatch, scan, named
):
    # An empty axis used to scan nothing: the atlas held its two header
    # lines alone, and the run exited 0.
    calls = []
    monkeypatch.setattr(cli, "solve_plane_wave", lambda *a, **k: calls.append(a))
    out = tmp_path / "out"
    text = "[dispersion]\nk_extent = 8.0\nsamples = 65\n\n[scan]\n" + scan
    assert main(["stability-scan", "--config", write(tmp_path, "scan.ini", text),
                 "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error == {
        "error": f"[scan] {named} lists no value; an empty axis scans nothing",
        "exit_code": 1,
    }
    assert calls == []
    assert not (out / "atlas.csv").exists()


# u changes sign inside [0, 1], so every class has two amplitude roots.
BRANCH_SCAN_INI = """
[model]
u0 = -1.73
u1 = 6.646
v0 = 0.452
v1 = -0.705

[dispersion]
k_extent = 8.0
samples = 33

[scan]
m = 0.5, 1.0
w0 = 0.0, 0.5
"""


def test_stability_scan_solves_the_wave_of_the_configured_branch(tmp_path):
    # The scan used to solve branch 0 whatever [wave] branch said.
    params = cli.params_from_config(load_config(write(tmp_path, "model.ini", BRANCH_SCAN_INI)))
    atlases = {}
    for branch in (0, 1, 2):
        out = tmp_path / f"branch{branch}"
        text = BRANCH_SCAN_INI + f"\n[wave]\nbranch = {branch}\n"
        assert main(["stability-scan", "--config", write(tmp_path, f"b{branch}.ini", text),
                     "--out", str(out)]) == 0
        lines = (out / "atlas.csv").read_text().splitlines()[2:]
        atlases[branch] = [line.split(",") for line in lines]
    for branch in (0, 1):
        r0 = cli._fmt(solve_plane_wave(params, branch=branch).r0)
        assert {row[7] for row in atlases[branch]} == {r0}
        assert {row[9] for row in atlases[branch]} != {"no_wave"}
    assert atlases[0] != atlases[1]
    assert {row[9] for row in atlases[2]} == {"no_wave"}


@pytest.mark.parametrize(
    "command, artifact",
    [("dispersion", "spectrum.csv"), ("stability-scan", "atlas.csv")],
)
@pytest.mark.parametrize("branch", [-1, -2])
def test_a_negative_branch_is_refused_by_its_key(tmp_path, capsys, command, artifact, branch):
    # Python indexing counted a negative branch from the end: on this
    # two-root model branch = -1 wrote the artifacts of branch = 1 and
    # exited 0.  The scan would have turned a refusal raised by the solve
    # into no_wave rows, so the config is refused before any solve.
    out = tmp_path / "out"
    text = BRANCH_SCAN_INI + f"\n[wave]\nbranch = {branch}\n"
    assert main([command, "--config", write(tmp_path, "neg.ini", text), "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error == {
        "error": f"[wave] branch counts the amplitude roots from 0, got {branch}",
        "exit_code": 1,
    }
    assert not (out / artifact).exists()


@pytest.mark.parametrize(
    "extra, named",
    [
        ("branch = 1\n", "branch"),
        ("drift_compatibility = true\n", "drift_compatibility"),
        ("branch = 1\ndrift_compatibility = true\n", "branch, drift_compatibility"),
    ],
    ids=["branch", "drift_compatibility", "both"],
)
@pytest.mark.parametrize(
    "given, keys",
    [("r0 = 0.8\n", "r0"), ("theta0 = 0.6\n", "theta0"), ("r0 = 0.8\ntheta0 = 0.6\n", "r0, theta0")],
    ids=["r0", "theta0", "r0-theta0"],
)
@pytest.mark.parametrize("command", ["dispersion", "simulate"])
def test_an_explicit_wave_refuses_the_keys_of_a_solved_one(
    tmp_path, capsys, command, given, keys, extra, named
):
    # A wave given by r0 or theta0 is not solved, and these keys used to be
    # ignored: with drift_compatibility = true, w0 kept its configured value.
    out = tmp_path / "out"
    text = WAVE_RUN_INI + given + extra
    assert main([command, "--config", write(tmp_path, "wave.ini", text), "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error == {
        "error": f"a [wave] given by {keys} is not solved; it cannot honour [wave] {named}",
        "exit_code": 1,
    }
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "wave, named",
    [
        ("w0 = 0.7\n", "w0"),
        ("branch = 3\n", "branch"),
        ("drift_compatibility = true\n", "drift_compatibility"),
        ("w0 = 0.7\nbranch = 3\ndrift_compatibility = true\n", "w0, branch, drift_compatibility"),
    ],
    ids=["w0", "branch", "drift_compatibility", "all"],
)
def test_simulate_from_rest_refuses_the_wave_keys_it_cannot_honour(tmp_path, capsys, wave, named):
    # Without r0 or theta0 simulate evolves P = Omega = 0, and these keys
    # used to be ignored: the run wrote all-zero rows and exited 0.
    out = tmp_path / "out"
    text = "[grid]\nn = 32\n\n[solver]\ndt = 0.01\nt_end = 0.02\n\n[wave]\n" + wave
    assert main(["simulate", "--config", write(tmp_path, "rest.ini", text), "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error == {
        "error": "simulate starts from P = Omega = 0 unless [wave] gives r0 or theta0; "
        f"it cannot honour [wave] {named}",
        "exit_code": 1,
    }
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("samples", "0", "samples must be at least 2, got 0"),
        ("samples", "1", "samples must be at least 2, got 1"),
        ("samples", "-5", "samples must be at least 2, got -5"),
        ("k_extent", "0", "k_extent must be positive and finite, got 0.0"),
        ("k_extent", "-1", "k_extent must be positive and finite, got -1.0"),
        ("k_extent", "nan", "k_extent must be positive and finite, got nan"),
        ("k_extent", "inf", "k_extent must be positive and finite, got inf"),
        ("k_extent", "-inf", "k_extent must be positive and finite, got -inf"),
    ],
)
@pytest.mark.parametrize(
    "command, text, artifact",
    [("dispersion", DISPERSION_INI, "spectrum.csv"), ("stability-scan", SCAN_INI, "atlas.csv")],
    ids=["dispersion", "stability-scan"],
)
def test_a_degenerate_wavenumber_grid_is_refused_by_its_key(
    tmp_path, capsys, command, text, artifact, key, value, message
):
    # These used to run: samples = 0 or 1 and k_extent = 0 classified k = 0
    # alone as "marginal", k_extent = -1 ran as +1, and nan, inf and
    # samples = -5 failed in numpy with messages that named no key.
    parser = configparser.ConfigParser()
    parser.read_string(text)
    parser["dispersion"][key] = value
    path = tmp_path / "grid.ini"
    with path.open("w") as f:
        parser.write(f)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--config", str(path), "--out", str(out)])
    assert code == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error == {"error": message, "exit_code": 1}
    assert not (out / artifact).exists()


RERUN_CONFIGS = {
    "dispersion": DISPERSION_INI,
    "besov-check": "[besov]\nn = 32\ncases = 3\n",
    "decay-fit": (
        "[wave]\nr0 = 1.0\ntheta0 = 0.0\n\n[grid]\nn = 32\n\n"
        "[solver]\ndt = 0.01\nt_end = 0.5\ncadence = 5\n"
    ),
}


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=3)
def test_byte_identical_reruns(seed):
    # A temporary directory per example: pytest's tmp_path is one per test.
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for command, text in RERUN_CONFIGS.items():
            path = write(root, f"{command}.ini", text)
            runs = []
            for tag in ("a", "b"):
                out = root / command / tag
                code = main([command, "--config", path, "--out", str(out), "--seed", str(seed)])
                runs.append((code, {f.name: f.read_bytes() for f in out.iterdir()}))
            assert runs[0][1], command
            assert runs[0] == runs[1], command


def test_quadratic_check_exit_codes(tmp_path):
    good = write(
        tmp_path,
        "quad.ini",
        "[model]\nu1 = 0.7\nkappa0 = 1.0\ns1_0 = 0.125\ns1_1 = 0.4\n\n"
        "[wave]\nr0 = 1.0\ntheta0 = 0.0\n\n[grid]\nn = 64\n",
    )
    out = tmp_path / "out"
    assert main(["quadratic-check", "--config", good, "--out", str(out)]) == 0
    report = json.loads((out / "quadratic.json").read_text())
    assert report["pass"] is True


def test_quadratic_check_failure_exit_code_two(tmp_path):
    # Carrier wave from the equilibrium family: the remainder leaks linear
    # terms, the quadratic-scaling check fails, and the command signals it.
    bad = write(
        tmp_path,
        "quad_bad.ini",
        "[wave]\nr0 = 0.6\ntheta0 = 0.8\n\n[grid]\nn = 64\nlength = 7.853981633974483\n",
    )
    out = tmp_path / "out"
    assert main(["quadratic-check", "--config", bad, "--out", str(out)]) == 2
    report = json.loads((out / "quadratic.json").read_text())
    assert report["pass"] is False


QUAD_UNIT_INI = "[wave]\nr0 = 1.0\ntheta0 = 0.0\n\n[grid]\nn = 64\n"


def test_quadratic_check_refuses_xi_other_than_one(tmp_path, capsys):
    # This used to report on the xi = 1 dynamics and exit 0.
    path = write(tmp_path, "quad_xi.ini", "[model]\nxi = 0.5\n\n" + QUAD_UNIT_INI)
    out = tmp_path / "out"
    assert main(["quadratic-check", "--config", path, "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error == {"error": "the polar dynamics are normalized to xi = 1", "exit_code": 1}
    assert not (out / "quadratic.json").exists()


def test_quadratic_check_refuses_a_k_cutoff(tmp_path, capsys):
    # The remainder is taken on the 2/3-rule band: k_cutoff = 3 used to be
    # ignored, and quadratic.json was byte for byte the one without it.
    path = write(tmp_path, "quad.ini", QUAD_UNIT_INI + "\n[solver]\nk_cutoff = 3.0\n")
    out = tmp_path / "out"
    assert main(["quadratic-check", "--config", path, "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error == {
        "error": "quadratic-check takes the remainder on the 2/3-rule band; "
        "it cannot honour [solver] k_cutoff",
        "exit_code": 1,
    }
    assert not any(out.iterdir())


def test_quadratic_check_refuses_a_blowup(tmp_path, capsys):
    # The remainder is guarded by the default threshold: blowup = 1e-9 used
    # to be replaced by it, and quadratic.json was byte for byte the one
    # without it, while decay-fit on the same config stops at t = 0.
    path = write(tmp_path, "quad.ini", QUAD_UNIT_INI + "\n[solver]\nblowup = 1e-9\n")
    out = tmp_path / "out"
    assert main(["quadratic-check", "--config", path, "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error == {
        "error": "quadratic-check guards the remainder with the default blow-up threshold; "
        "it cannot honour [solver] blowup",
        "exit_code": 1,
    }
    assert not any(out.iterdir())


def test_quadratic_check_refuses_scales_that_leave_the_polar_chart(tmp_path, capsys):
    # eps = 3 takes r0 + rho across zero: this used to exit 2 with psi
    # computed across r = 0.
    path = write(
        tmp_path, "quad_chart.ini", QUAD_UNIT_INI + "\n[experiment]\neps_list = 3.0, 1.0, 0.1\n"
    )
    out = tmp_path / "out"
    assert main(["quadratic-check", "--config", path, "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["exit_code"] == 1
    assert error["error"].startswith("ChartBreakdown at t = 0: ")
    assert not (out / "quadratic.json").exists()


@pytest.mark.parametrize(
    "extra, named",
    [
        ("directions = 0\n", "directions"),
        ("directions = -2\n", "directions"),
        ("eps_list = 0.1\n", "eps_list"),
        ("eps_list =\n", "eps_list"),
    ],
    ids=["no-direction", "negative-directions", "one-eps", "no-eps"],
)
def test_quadratic_check_refuses_a_check_of_nothing(tmp_path, capsys, extra, named):
    # directions = 0 used to write "directions": [] and one eps a spread of
    # 0, and both passed with exit 0.
    path = write(tmp_path, "quad.ini", QUAD_UNIT_INI + "\n[experiment]\n" + extra)
    out = tmp_path / "out"
    assert main(["quadratic-check", "--config", path, "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["exit_code"] == 1
    assert named in error["error"]
    assert not (out / "quadratic.json").exists()


@pytest.mark.parametrize(
    "extra, named",
    [("cases = 0\n", "cases"), ("cases = -1\n", "cases"), ("cases = 5\nq_list =\n", "q_list")],
    ids=["no-case", "negative-cases", "no-scale"],
)
def test_besov_check_refuses_a_check_of_nothing(tmp_path, capsys, extra, named):
    # cases = 0 used to check no smoothing ratio and an empty q_list no
    # semigroup decay, and both passed with exit 0.
    path = write(tmp_path, "besov.ini", "[besov]\nn = 64\n" + extra)
    out = tmp_path / "out"
    assert main(["besov-check", "--config", path, "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["exit_code"] == 1
    assert named in error["error"]
    assert not (out / "besov_report.json").exists()


@pytest.mark.parametrize("mu", ["-1", "0", "nan", "inf"])
def test_besov_check_refuses_a_viscosity_that_is_not_positive(tmp_path, capsys, mu):
    # mu = -1 (a backward heat equation) used to pass with exit 0, and mu = 0
    # to exit 2 after dividing by zero in the fitted constant.
    path = write(tmp_path, "besov.ini", f"[besov]\nn = 64\ncases = 5\nmu = {mu}\n")
    out = tmp_path / "out"
    assert main(["besov-check", "--config", path, "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["exit_code"] == 1
    assert "mu" in error["error"]
    assert not (out / "besov_report.json").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        ("p = 0.5", "p must lie in [1, inf], not 0.5"),
        ("p = 0", "p must lie in [1, inf], not 0.0"),
        ("p = nan", "p must lie in [1, inf], not nan"),
        ("u_disp = nan", "u_disp must be finite, not nan"),
        ("u_disp = -inf", "u_disp must be finite, not -inf"),
    ],
    ids=["p-half", "p-zero", "p-nan", "u_disp-nan", "u_disp-inf"],
)
def test_besov_check_refuses_an_exponent_below_one_or_a_drift_that_is_not_finite(
    tmp_path, capsys, monkeypatch, edit, message
):
    # p = 0.5 used to pass with exit 0 (an L^p "norm" below 1 is no norm),
    # and u_disp = nan to exit 2 with every fitted constant NaN.  Both are
    # refused before any check runs.
    calls = []
    monkeypatch.setattr(cli.lp, "partition_for", lambda *a: calls.append(a))
    path = write(tmp_path, "besov.ini", f"[besov]\nn = 64\ncases = 5\n{edit}\n")
    out = tmp_path / "out"
    assert main(["besov-check", "--config", path, "--out", str(out)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(line) for line in lines] == [{"error": message, "exit_code": 1}]
    assert calls == []
    assert not (out / "besov_report.json").exists()


def test_besov_check_accepts_the_exponents_one_and_infinity(tmp_path):
    for p in ("1", "inf"):
        path = write(tmp_path, "besov.ini", f"[besov]\nn = 64\ncases = 5\np = {p}\n")
        assert main(["besov-check", "--config", path, "--out", str(tmp_path / p)]) == 0


@pytest.mark.parametrize(
    "q_list, named", [("1.9, 2.5, 3.7, 4.2", "1.9, 2.5, 3.7, 4.2"), ("1, nan", "nan")]
)
def test_besov_check_refuses_a_scale_that_is_not_an_integer(tmp_path, capsys, q_list, named):
    # The scales used to be truncated: 1.9, 2.5, 3.7, 4.2 wrote the report
    # of 1, 2, 3, 4 and exited 0, and nan failed naming no key.
    path = write(tmp_path, "besov.ini", f"[besov]\nn = 64\ncases = 5\nq_list = {q_list}\n")
    out = tmp_path / "out"
    assert main(["besov-check", "--config", path, "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error == {
        "error": f"q_list must hold integer dyadic scales, not {named}",
        "exit_code": 1,
    }
    assert not (out / "besov_report.json").exists()


def test_besov_check_runs(tmp_path):
    path = write(tmp_path, "besov.ini", "[besov]\nn = 64\ncases = 5\n")
    out = tmp_path / "out"
    assert main(["besov-check", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "besov_report.json").read_text())
    assert report["pass"] is True
    assert report["ratio_ceiling_calibrated"] is True


def test_instability_cli(tmp_path):
    path = write(
        tmp_path,
        "inst.ini",
        "[model]\nm = -1.0\n\n[wave]\nr0 = 1.0\ntheta0 = 0.0\n\n[grid]\nn = 64\n\n"
        "[solver]\ndt = 0.001\nt_end = 2.0\ncadence = 20\n\n[experiment]\nk_seed = 2.0\n",
    )
    out = tmp_path / "out"
    assert main(["instability", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "growth.json").read_text())
    assert report["pass"] is True
    assert report["reference_rate"] == pytest.approx(4.0)


def test_decay_fit_cli(tmp_path):
    path = write(
        tmp_path,
        "decay.ini",
        "[wave]\nr0 = 1.0\ntheta0 = 0.0\n\n[grid]\nn = 128\n\n"
        "[solver]\ndt = 0.002\nt_end = 12.0\ncadence = 25\n\n[experiment]\ns = 1.0\n",
    )
    out = tmp_path / "out"
    assert main(["decay-fit", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "decay.json").read_text())
    assert report["pass"] is True
    assert report["alpha_reference"] == pytest.approx(-1.25)


def test_decay_fit_refuses_an_hs_exponent(tmp_path, capsys):
    # decay-fit measures the H^(s+1) norm: hs_exponent = 3 used to be
    # ignored, and both artifacts were byte for byte the ones without it.
    path = write(
        tmp_path,
        "decay.ini",
        "[wave]\nr0 = 1.0\ntheta0 = 0.0\n\n[grid]\nn = 32\n\n"
        "[solver]\ndt = 0.01\nt_end = 0.5\nhs_exponent = 3.0\n",
    )
    out = tmp_path / "out"
    assert main(["decay-fit", "--config", path, "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error == {
        "error": "decay-fit measures the H^(s+1) norm of [experiment] s; "
        "it cannot honour [solver] hs_exponent",
        "exit_code": 1,
    }
    assert not any(out.iterdir())


POLAR_INI = (
    "[wave]\nr0 = 1.0\ntheta0 = 0.0\n\n[grid]\nn = 32\n\n[solver]\ndt = 0.01\nt_end = 0.5\n"
)


@pytest.mark.parametrize("command", ["decay-fit", "instability", "quadratic-check"])
@pytest.mark.parametrize("coupling", ["kappa_constant", "kappa_zero"])
def test_polar_commands_refuse_a_coupling_other_than_the_dynamics(
    tmp_path, capsys, command, coupling
):
    # Each linearizes the dynamics with the gradient placement.  decay-fit
    # with kappa_constant used to exit 0 with a byte-identical decay.json.
    text = POLAR_INI + f"\n[dispersion]\ncoupling = {coupling}\n"
    out = tmp_path / "out"
    assert main([command, "--config", write(tmp_path, "c.ini", text), "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error == {
        "error": f"{command} linearizes the dynamics, whose coupling is kappa_gradient; "
        "it cannot honour [dispersion] coupling",
        "exit_code": 1,
    }
    assert not any(out.iterdir())


def test_decay_fit_takes_the_dynamics_coupling_spelled_out(tmp_path):
    # The default, written out, is no request to refuse.
    # The fit on this short run fails (exit 2); both runs fail alike.
    runs = {}
    for name, extra in (("unset", ""), ("spelled", "\n[dispersion]\ncoupling = kappa_gradient\n")):
        out = tmp_path / name
        path = write(tmp_path, f"{name}.ini", POLAR_INI + extra)
        code = main(["decay-fit", "--config", path, "--out", str(out)])
        runs[name] = code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert runs["unset"] == runs["spelled"]
    assert runs["unset"][1]


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "command, text, artifact, nulls",
    [
        # Too short to decay through the fit window: a degenerate fit.
        ("decay-fit", "[wave]\nr0 = 1.0\ntheta0 = 0.0\n\n[grid]\nn = 128\n\n"
         "[solver]\ndt = 0.002\nt_end = 0.05\ncadence = 25\n",
         "decay.json", ["rel_err"]),
        # Two rows: too few to fit a rate.
        ("instability", "[model]\nm = -1.0\n\n[wave]\nr0 = 1.0\ntheta0 = 0.0\n\n"
         "[grid]\nn = 256\n\n[solver]\ndt = 0.001\nt_end = 0.02\ncadence = 20\n",
         "growth.json", ["rate", "rel_err"]),
    ],
    ids=["decay-fit", "instability"],
)
def test_a_failed_fit_writes_json_that_strict_parsers_accept(
    tmp_path, command, text, artifact, nulls
):
    # These used to write the non-JSON tokens Infinity and NaN.
    out = tmp_path / "out"
    assert main([command, "--config", write(tmp_path, "fit.ini", text), "--out", str(out)]) == 2
    report = json.loads((out / artifact).read_text(), parse_constant=_refuse_constant)
    assert [k for k, v in report.items() if v is None] == nulls


def test_csv_float_format_full_precision(tmp_path):
    path = write(tmp_path, "disp.ini", DISPERSION_INI)
    out = tmp_path / "out"
    main(["dispersion", "--config", path, "--out", str(out)])
    text = (out / "spectrum.csv").read_text()
    # 17 significant digits survive a parse round trip.
    value = text.splitlines()[2].split(",")[0]
    assert float(value) == -8.0


UNSTABLE_DECAY_INI = (
    "[model]\nm = -1.0\n\n[wave]\nr0 = 1.0\ntheta0 = 0.0\n\n[grid]\nn = 64\n\n"
    "[solver]\ndt = 0.002\nt_end = 4.0\ncadence = 25\nk_cutoff = 3.0\n{extra}\n"
    "[experiment]\ns = 1.0\namp = {amp}\ninit_modes = 3\n"
)


@pytest.mark.parametrize(
    "amp, extra, cause",
    [
        # r0 + rho reaches zero at t = 0.844: this used to end in a
        # ChartBreakdown traceback.
        ("0.05", "", "ChartBreakdown"),
        ("1e-6", "blowup = 1e-3\n", "StepUnstable"),
    ],
)
def test_unstable_polar_run_exits_with_json_error(tmp_path, capsys, amp, extra, cause):
    path = write(tmp_path, "decay.ini", UNSTABLE_DECAY_INI.format(amp=amp, extra=extra))
    code = main(["decay-fit", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["exit_code"] == 1
    assert error["error"].startswith(cause + " at t = ")
    assert float(error["error"].split()[4].rstrip(":")) > 0.0


CHART_INSTABILITY_INI = (
    "[model]\nm = -1.0\ns1_0 = 1.0\n\n[wave]\nr0 = 1.0\ntheta0 = 0.0\n\n[grid]\nn = 128\n\n"
    "[solver]\ndt = 1e-3\nt_end = 8.0\n\n[experiment]\nk_seed = 2.0\namp = 1e-3\n"
)


def test_instability_keeps_the_growth_series_when_the_run_leaves_the_chart(tmp_path):
    # This slice leaves the polar chart at t = 1.042; the command used to
    # exit 1 with a ChartBreakdown error and write no growth series.
    out = tmp_path / "out"
    code = main(["instability", "--config", write(tmp_path, "inst.ini", CHART_INSTABILITY_INI),
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "growth.json").read_text())
    assert report["status"] == "chart_breakdown"
    assert report["pass"] is True
    lines = (out / "growth_series.csv").read_text().splitlines()
    times = [float(line.split(",")[0]) for line in lines[2:]]
    assert times == pytest.approx(np.arange(105) / 100)


def test_decay_fit_refuses_data_outside_the_polar_chart(tmp_path, capsys):
    # amp = 0.5 starts with r0 + rho below the chart floor: this used to be
    # reported as "ChartBreakdown at t = 0" by the first right-hand side.
    path = write(tmp_path, "decay.ini", UNSTABLE_DECAY_INI.format(amp="0.5", extra=""))
    out = tmp_path / "out"
    assert main(["decay-fit", "--config", path, "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "polar chart" in error["error"]
    assert not (out / "decay.json").exists()


SIM_BLOWUP_INI = """
[model]
m = -1.0
kappa0 = 0.5

[wave]
r0 = 0.8
theta0 = 0.6

[grid]
n = 32
length = 10.471975511965976

[solver]
dt = 0.01
t_end = 2.0
cadence = 5
"""


def test_simulate_keeps_the_rows_recorded_before_a_blowup(tmp_path):
    # The CSV used to hold only its header after a blow-up.
    path = write(tmp_path, "sim.ini", SIM_BLOWUP_INI)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    status = json.loads((out / "summary.json").read_text())["status"]
    assert status.startswith("unstable@")
    failed_at = float(status.split("@")[1])
    lines = (out / "diagnostics.csv").read_text().splitlines()
    times = [float(line.split(",")[0]) for line in lines[2:]]
    assert len(times) > 1 and times[0] == 0.0 and times[-1] < failed_at


def test_instability_refuses_a_seed_outside_the_kept_band(tmp_path, capsys):
    # n = 32 keeps |j| <= 10; the seeded mode 12 used to be projected away
    # at t = 0, with exit 2 and "rate": NaN in growth.json.
    path = write(
        tmp_path,
        "inst.ini",
        "[model]\nm = -1.0\n\n[wave]\nr0 = 1.0\ntheta0 = 0.0\n\n[grid]\nn = 32\n\n"
        "[solver]\ndt = 0.001\nt_end = 0.1\ncadence = 20\n\n[experiment]\nk_seed = 12.0\n",
    )
    out = tmp_path / "out"
    assert main(["instability", "--config", path, "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "k_seed = 12" in error["error"] and "|k| <= 10" in error["error"]
    assert not (out / "growth.json").exists()


def test_decay_fit_refuses_init_modes_outside_the_kept_band(tmp_path, capsys):
    # n = 16 keeps |j| <= 5; init_modes = 8 used to keep modes 1..5 without
    # saying so.
    path = write(
        tmp_path,
        "decay.ini",
        "[wave]\nr0 = 1.0\ntheta0 = 0.0\n\n[grid]\nn = 16\n\n"
        "[solver]\ndt = 0.002\nt_end = 0.1\ncadence = 25\n\n"
        "[experiment]\ns = 1.0\ninit_modes = 8\n",
    )
    out = tmp_path / "out"
    assert main(["decay-fit", "--config", path, "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "init_modes = 8" in error["error"] and "index 5 " in error["error"]
    assert not (out / "decay.json").exists()


def test_quadratic_check_seeds_init_modes(tmp_path):
    # quadratic-check used to seed modes 1..4 whatever init_modes said.
    reports = {}
    for modes in (2, 4):
        path = write(
            tmp_path, f"quad_{modes}.ini", QUAD_UNIT_INI + f"\n[experiment]\ninit_modes = {modes}\n"
        )
        out = tmp_path / f"out_{modes}"
        assert main(["quadratic-check", "--config", path, "--out", str(out)]) == 0
        reports[modes] = (out / "quadratic.json").read_bytes()
    default = tmp_path / "out_default"
    assert main(["quadratic-check", "--config", write(tmp_path, "q.ini", QUAD_UNIT_INI),
                 "--out", str(default)]) == 0
    assert reports[4] == (default / "quadratic.json").read_bytes()
    assert reports[2] != reports[4]


def test_quadratic_check_refuses_init_modes_outside_the_kept_band(tmp_path, capsys):
    # n = 16 keeps |j| <= 5.
    path = write(
        tmp_path,
        "quad.ini",
        "[wave]\nr0 = 1.0\ntheta0 = 0.0\n\n[grid]\nn = 16\n\n[experiment]\ninit_modes = 8\n",
    )
    out = tmp_path / "out"
    assert main(["quadratic-check", "--config", path, "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "init_modes = 8" in error["error"] and "index 5 " in error["error"]
    assert not (out / "quadratic.json").exists()


@pytest.mark.parametrize("modes", [0, -1])
@pytest.mark.parametrize("command", ["decay-fit", "quadratic-check"])
def test_polar_commands_refuse_init_modes_below_one(tmp_path, capsys, command, modes):
    # decay-fit with 0 used to write a degenerate report and exit 2; -1 used
    # to fail with numpy's "negative dimensions are not allowed", naming no key.
    path = write(
        tmp_path,
        "polar.ini",
        "[wave]\nr0 = 1.0\ntheta0 = 0.0\n\n[grid]\nn = 16\n\n"
        f"[solver]\ndt = 0.002\nt_end = 0.1\ncadence = 25\n\n[experiment]\ninit_modes = {modes}\n",
    )
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert f"init_modes = {modes}" in error["error"]
    assert not any(out.iterdir())
