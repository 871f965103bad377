import numpy as np
import pytest

from cglburgers.model import (
    NoRealSolution,
    PlaneWave,
    SystemParams,
    eval_coeff,
    solve_plane_wave,
)


def test_eval_coeff_zero_pair():
    assert eval_coeff((0.0, 0.0), 0.5) == 0.0


def test_eval_coeff_constant_one():
    assert eval_coeff((1.0, 0.0), 0.3) == 1.0


def test_eval_coeff_affine():
    assert eval_coeff((2.0, -3.0), 0.5) == pytest.approx(0.5, abs=1e-15)


def test_params_accessors():
    p = SystemParams(u_coeffs=(1.0, 2.0), v_coeffs=(0.5, -1.0), s1_coeffs=(0.1, 0.2))
    assert p.u(0.5) == pytest.approx(2.0)
    assert p.v(1.0) == pytest.approx(-0.5)
    assert p.v_prime(0.3) == -1.0
    assert p.s1(1.0) == pytest.approx(0.3)
    assert not p.is_constant
    assert SystemParams.constants(u=1.0).is_constant


def test_require_constant_rejects_slopes():
    p = SystemParams(u_coeffs=(1.0, 0.5))
    with pytest.raises(ValueError):
        p.require_constant()
    c = SystemParams.constants(s1=0.25, s2=-1.0).require_constant()
    assert c.r1 == pytest.approx(0.25 - 1.0j)


def test_unit_amplitude_wave_when_both_vanish():
    params = SystemParams.constants()
    for branch in (0, 3):
        wave = solve_plane_wave(params, branch=branch, w0=0.5)
        assert wave == PlaneWave(r0=1.0, theta0=0.0, w0=0.5)


def test_pure_dispersion_forces_unit_amplitude():
    params = SystemParams.constants(u=1.0)
    wave = solve_plane_wave(params)
    assert wave.r0 == pytest.approx(1.0, abs=1e-12)
    assert wave.theta0 == pytest.approx(0.0, abs=1e-12)


def test_balanced_signs_give_diagonal_wave():
    params = SystemParams.constants(u=1.0, v=-1.0)
    wave = solve_plane_wave(params)
    assert wave.r0 == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
    assert wave.theta0 == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)


def test_same_sign_coefficients_no_solution():
    with pytest.raises(NoRealSolution):
        solve_plane_wave(SystemParams.constants(u=1.0, v=0.5))
    with pytest.raises(NoRealSolution):
        solve_plane_wave(SystemParams.constants(u=-0.5, v=-2.0))


def test_constraint_residuals_below_tolerance():
    rng = np.random.default_rng(7)
    found = 0
    for _ in range(200):
        params = SystemParams(
            u_coeffs=tuple(rng.normal(size=2)),
            v_coeffs=tuple(rng.normal(size=2)),
        )
        try:
            wave = solve_plane_wave(params)
        except NoRealSolution:
            continue
        res1, res2 = wave.residuals(params)
        assert abs(res1) < 1e-12
        assert abs(res2) < 1e-12
        found += 1
    assert found > 50


def test_drift_compatibility_solves_w0():
    params = SystemParams.constants(u=1.0, v=-1.0)
    wave = solve_plane_wave(params, drift_compatibility=True)
    assert wave.drift_residual(params) == pytest.approx(0.0, abs=1e-12)
    # theta0 = 0 leaves the drift free.
    free = solve_plane_wave(
        SystemParams.constants(u=2.0), w0=3.7, drift_compatibility=True
    )
    assert free.w0 == 3.7


def test_branch_selection_on_multiple_roots():
    # u changes sign inside [0, 1], giving two admissible amplitude roots.
    params = SystemParams(u_coeffs=(-1.73, 6.646), v_coeffs=(0.452, -0.705))
    first = solve_plane_wave(params, branch=0)
    second = solve_plane_wave(params, branch=1)
    assert first.r0 > second.r0
    for wave in (first, second):
        res1, res2 = wave.residuals(params)
        assert abs(res1) < 1e-12 and abs(res2) < 1e-12
    with pytest.raises(NoRealSolution):
        solve_plane_wave(params, branch=5)


@pytest.mark.parametrize(
    "params",
    [SystemParams(u_coeffs=(-1.73, 6.646), v_coeffs=(0.452, -0.705)), SystemParams()],
    ids=["two-roots", "u-v-zero"],
)
@pytest.mark.parametrize("branch", [-1, -2])
def test_a_negative_branch_is_refused(params, branch):
    # Python indexing counted a negative branch from the end: on the
    # two-root model branch = -1 returned the branch = 1 wave, r0 = 0.2574.
    with pytest.raises(ValueError, match=f"counts the amplitude roots from 0, got {branch}"):
        solve_plane_wave(params, branch=branch)


def test_plane_wave_rejects_off_circle():
    with pytest.raises(ValueError):
        PlaneWave(r0=0.5, theta0=0.5)
    with pytest.raises(ValueError):
        PlaneWave(r0=-1.0, theta0=0.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "field", ["u_coeffs", "v_coeffs", "xi", "m", "kappa_coeffs", "s1_coeffs", "s2_coeffs"]
)
def test_system_params_refuse_a_non_finite_value_by_name(field, value):
    # m = nan, u0 = inf and kappa0 = nan used to run, and report "unstable".
    bad = (0.0, value) if field.endswith("_coeffs") else value
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        SystemParams(**{field: bad})


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["r0", "theta0", "w0"])
def test_plane_wave_refuses_a_non_finite_value_by_name(field, value):
    # w0 = nan used to run to a NaN row, and fail in numpy in dispersion.
    values = {"r0": 1.0, "theta0": 0.0, "w0": 0.0, field: value}
    with pytest.raises(ValueError, match=f"^plane-wave {field} must be finite"):
        PlaneWave(**values)
