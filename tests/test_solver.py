import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cglburgers import solver
from cglburgers.model import SystemParams
from cglburgers.solver import (
    SCHEMES,
    FieldState,
    Forcing,
    SolverConfig,
    StepUnstable,
    evolve,
    rhs_nonlinear,
)
from cglburgers.littlewood_paley import heat_solution_series, partition_for
from cglburgers.spectral import Grid, SpectralField, band_limited_noise

from helpers import burgers_single_hump, diagnostics_row


@pytest.fixture
def grid():
    return Grid(dim=1, n=64, length=2.0 * np.pi)


def roll_derivative(values, dx, order=1):
    """Sixth-order centered periodic finite difference."""
    w1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
    w2 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
    weights = w1 if order == 1 else w2
    out = np.zeros_like(values)
    for shift, w in zip(range(-3, 4), weights):
        out = out + w * np.roll(values, -shift)
    return out / dx**order


def test_propagator_dt_zero_is_identity(grid):
    rng = np.random.default_rng(0)
    f = band_limited_noise(grid, rng)
    out = heat_solution_series(f, None, 1.0, 0.7, [0.0, 0.0])[-1]
    assert np.max(np.abs(out.spectral() - f.spectral())) == 0.0


def test_propagator_single_mode_factor(grid):
    coeffs = np.zeros(grid.shape, dtype=complex)
    coeffs[3] = 1.0
    f = SpectralField.from_spectral(grid, coeffs)
    out = heat_solution_series(f, None, 1.0, 0.0, [0.0, 1.0])[-1]
    assert out.spectral()[3] == pytest.approx(np.exp(-9.0), rel=1e-14)


def test_propagator_dispersion_is_unimodular(grid):
    rng = np.random.default_rng(1)
    f = band_limited_noise(grid, rng)
    plain = heat_solution_series(f, None, 1.0, 0.0, [0.0, 0.3])[-1].spectral()
    rotated = heat_solution_series(f, None, 1.0, 5.0, [0.0, 0.3])[-1].spectral()
    assert np.allclose(np.abs(rotated), np.abs(plain), atol=1e-14)


def test_rhs_zero_state(grid):
    params = SystemParams.constants(u=0.3, v=0.5, kappa=1.0)
    state = FieldState.zeros(grid)
    dP, dO = rhs_nonlinear(state, params)
    assert np.max(np.abs(dP.physical())) == 0.0
    assert np.max(np.abs(dO[0].physical())) == 0.0


def test_rhs_constant_state(grid):
    c = 0.4 + 0.3j
    params = SystemParams.constants(xi=1.0, v=0.0, kappa=2.0)
    state = FieldState(
        P=SpectralField.from_physical(grid, np.full(grid.shape, c)),
        omega=(SpectralField.zeros(grid),),
    )
    dP, dO = rhs_nonlinear(state, params)
    expected = c - abs(c) ** 2 * c
    assert np.max(np.abs(dP.physical() - expected)) < 1e-13
    assert np.max(np.abs(dO[0].physical())) < 1e-13


def test_rhs_matches_refined_finite_differences(grid):
    rng = np.random.default_rng(2)
    params = SystemParams.constants(u=0.4, v=-0.7, xi=1.0, kappa=0.8, s1=0.3, s2=-0.2)
    # Bands narrow enough that even the cubic term stays inside the
    # dealiasing cutoff, so truncation cannot shadow the comparison.
    amp = 1e-2
    P = band_limited_noise(grid, rng, max_index=grid.n // 16, amplitude=amp)
    W = band_limited_noise(grid, rng, max_index=grid.n // 16, amplitude=amp, real=True)
    state = FieldState(P=P, omega=(W,))
    dP, dO = rhs_nonlinear(state, params)

    fine = Grid(dim=1, n=4 * grid.n, length=grid.length)

    def upsample(f):
        fhat = f.spectral()
        out = np.zeros(fine.shape, dtype=complex)
        half = grid.n // 2
        out[:half] = fhat[:half]
        out[-half:] = fhat[-half:]
        return np.fft.ifftn(out * fine.size)

    Pf = upsample(P)
    Wf = upsample(W).real
    dx = fine.dx
    consts = params.require_constant()
    dPf = (
        -Wf * roll_derivative(Pf, dx)
        + consts.xi * Pf
        - (1.0 + 1j * consts.v) * np.abs(Pf) ** 2 * Pf
        - consts.r1 * Pf * roll_derivative(Wf, dx)
    )
    dWf = -Wf * roll_derivative(Wf, dx) - consts.kappa * roll_derivative(
        np.abs(Pf) ** 2, dx
    )
    scale = np.max(np.abs(dPf))
    assert np.max(np.abs(dP.physical() - dPf[::4])) < 1e-6 * scale
    assert np.max(np.abs(dO[0].physical() - dWf[::4])) < 1e-6 * max(np.max(np.abs(dWf)), 1e-12)


def test_zero_state_remains_zero_bit_exact(grid):
    params = SystemParams.constants(m=0.7)
    summary = evolve(
        FieldState.zeros(grid),
        params,
        config=SolverConfig(dt=0.01, t_end=0.2, cadence=5),
    )
    assert np.all(summary.final.P.spectral() == 0.0)
    assert np.all(summary.final.omega[0].spectral() == 0.0)


def test_evolve_t_end_zero_records_initial_only(grid):
    params = SystemParams.constants()
    rng = np.random.default_rng(3)
    state = FieldState(
        P=band_limited_noise(grid, rng, amplitude=0.01),
        omega=(band_limited_noise(grid, rng, amplitude=0.01, real=True),),
    )
    summary = evolve(state, params, config=SolverConfig(dt=0.01, t_end=0.0))
    assert len(summary.rows) == 1
    assert summary.rows[0]["t"] == 0.0


def test_burgers_matches_heat_kernel_solution(grid):
    m, a = 1.0, 0.5
    params = SystemParams.constants(m=m, kappa=0.0, xi=0.0)
    x = grid.axis_coordinates()
    omega0 = burgers_single_hump(x, 0.0, m, a)
    state = FieldState(
        P=SpectralField.zeros(grid),
        omega=(SpectralField.from_physical(grid, omega0),),
    )
    config = SolverConfig(dt=5e-4, t_end=0.5, cadence=100)
    summary = evolve(state, params, config=config)
    exact = burgers_single_hump(x, 0.5, m, a)
    got = summary.final.omega[0].physical().real
    assert np.max(np.abs(got - exact)) < 1e-6


def test_single_mode_linear_growth_rate(grid):
    # Small amplitude: per-mode amplitude follows exp((xi - k^2) t).
    params = SystemParams.constants(u=0.9, v=2.0, xi=1.0, m=1.0)
    eps, k_mode, t_end = 1e-8, 2, 1.0
    x = grid.axis_coordinates()
    state = FieldState(
        P=SpectralField.from_physical(grid, eps * np.exp(1j * k_mode * x)),
        omega=(SpectralField.zeros(grid),),
    )
    config = SolverConfig(dt=2e-4, t_end=t_end, cadence=500)
    summary = evolve(state, params, config=config)
    amp = np.abs(summary.final.P.spectral()[k_mode])
    expected = eps * np.exp((1.0 - k_mode**2) * t_end)
    assert amp == pytest.approx(expected, rel=1e-6)


def test_plane_wave_is_equilibrium():
    # Carrier wave fitted to the domain: theta0 = 1 on length 2*pi*sqrt(2)
    # requires theta0 to be the fundamental wavenumber.
    length = 2.0 * np.pi * np.sqrt(2.0)
    grid = Grid(dim=1, n=64, length=length)
    theta0 = 2.0 * np.pi / length  # = 1/sqrt(2)
    r0 = np.sqrt(1.0 - theta0**2)
    params = SystemParams.constants(u=1.0, v=-1.0, xi=1.0, m=1.0, kappa=0.5)
    x = grid.axis_coordinates()
    state = FieldState(
        P=SpectralField.from_physical(grid, r0 * np.exp(1j * theta0 * x)),
        omega=(SpectralField.zeros(grid),),
    )
    config = SolverConfig(dt=1e-3, t_end=10.0, cadence=1000, hs_exponent=1.0)
    summary = evolve(state, params, config=config)
    drift_P = summary.final.P.spectral() - state.P.spectral()
    drift_O = summary.final.omega[0].spectral()
    assert np.sqrt(np.sum(np.abs(drift_P) ** 2)) < 1e-8
    assert np.sqrt(np.sum(np.abs(drift_O) ** 2)) < 1e-8


def _smooth_initial_state(grid, rng, amplitude=0.5):
    P = band_limited_noise(grid, rng, max_index=4, amplitude=amplitude)
    W = band_limited_noise(grid, rng, max_index=4, amplitude=amplitude, real=True)
    return FieldState(P=P, omega=(W,))


def _final_fields(state, params, dt, t_end, scheme):
    config = SolverConfig(dt=dt, t_end=t_end, cadence=10**9, scheme=scheme)
    summary = evolve(state, params, config=config)
    return summary.final


def _state_distance(a, b):
    dP = a.P.spectral() - b.P.spectral()
    dO = a.omega[0].spectral() - b.omega[0].spectral()
    return float(np.sqrt(np.sum(np.abs(dP) ** 2) + np.sum(np.abs(dO) ** 2)))


@pytest.mark.parametrize("scheme", ["exponential-rk2", "imex-bdf2"])
def test_self_convergence_second_order(grid, scheme):
    rng = np.random.default_rng(4)
    params = SystemParams.constants(u=0.5, v=-0.4, xi=1.0, m=0.8, kappa=0.6)
    state = _smooth_initial_state(grid, rng)
    dt = 2e-3
    ref = _final_fields(state, params, dt / 8.0, 0.5, scheme)
    err1 = _state_distance(_final_fields(state, params, dt, 0.5, scheme), ref)
    err2 = _state_distance(_final_fields(state, params, dt / 2.0, 0.5, scheme), ref)
    order = np.log2(err1 / err2)
    assert order >= 1.9


def test_scaling_equivariance(grid):
    rng = np.random.default_rng(5)
    params = SystemParams.constants(u=0.7, v=-0.3, xi=0.0, m=1.0, kappa=0.4, s1=0.2, s2=0.1)
    state = _smooth_initial_state(grid, rng, amplitude=0.3)
    t_end, dt = 0.4, 1e-3
    coarse = _final_fields(state, params, dt, t_end, "exponential-rk2")

    fine_grid = Grid(dim=1, n=grid.n, length=grid.length / 2.0)
    P2 = SpectralField.from_physical(fine_grid, 2.0 * state.P.physical())
    W2 = SpectralField.from_physical(fine_grid, 2.0 * state.omega[0].physical())
    state2 = FieldState(P=P2, omega=(W2,))
    fine = _final_fields(state2, params, dt / 4.0, t_end / 4.0, "exponential-rk2")

    scale = np.max(np.abs(coarse.P.physical()))
    err = np.max(np.abs(fine.P.physical() - 2.0 * coarse.P.physical()))
    assert err < 1e-4 * max(scale, 1.0)
    errO = np.max(np.abs(fine.omega[0].physical() - 2.0 * coarse.omega[0].physical()))
    assert errO < 1e-4


def _fields_at_one(P, W):
    """P and Omega at t = 1 from the physical data (P, W), n = 128 and dt = 1e-2."""
    grid = Grid(dim=1, n=128, length=2.0 * np.pi)
    params = SystemParams.constants(u=0.3, v=0.2, xi=1.0, m=1.0, kappa=0.5, s1=0.1, s2=0.2)
    state = FieldState(
        P=SpectralField.from_physical(grid, P), omega=(SpectralField.from_physical(grid, W),)
    )
    final = _final_fields(state, params, 1e-2, 1.0, "exponential-rk2")
    return final.P.physical(), final.omega[0].physical()


@pytest.mark.parametrize("symmetry", ["reflection", "shift", "phase"])
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shift=st.integers(1, 127), alpha=st.floats(-np.pi, np.pi))
def test_the_field_dynamics_keep_the_symmetries_of_the_equations(symmetry, seed, shift, alpha):
    # x -> -x with Omega -> -Omega, a shift by whole grid points and the
    # phase rotation P -> exp(i*alpha)*P each map solutions to solutions,
    # and the spectral step commutes with them to round-off.
    def act(P, W):
        if symmetry == "reflection":
            return _reflect(P), -_reflect(W)
        if symmetry == "shift":
            return np.roll(P, shift), np.roll(W, shift)
        return np.exp(1j * alpha) * P, W

    state = _smooth_initial_state(Grid(dim=1, n=128), np.random.default_rng(seed), 0.1)
    P, W = state.P.physical(), state.omega[0].physical()
    for got, want in zip(_fields_at_one(*act(P, W)), act(*_fields_at_one(P, W))):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _reflect(f, axis=0):
    """f(-x) along ``axis`` on the grid x_j = j*dx."""
    return np.roll(np.flip(f, axis), 1, axis)


def _fields_2d_at_half(P, W1, W2):
    """P, Omega1 and Omega2 at t = 0.5 from physical data, 2D n = 32 and dt = 1e-2."""
    grid = Grid(dim=2, n=32, length=2.0 * np.pi)
    params = SystemParams.constants(u=0.3, v=0.2, xi=1.0, m=1.0, kappa=0.5, s1=0.1, s2=0.2)
    state = FieldState(
        P=SpectralField.from_physical(grid, P),
        omega=tuple(SpectralField.from_physical(grid, W) for W in (W1, W2)),
    )
    final = _final_fields(state, params, 1e-2, 0.5, "exponential-rk2")
    return (final.P.physical(), *(W.physical() for W in final.omega))


@pytest.mark.parametrize("symmetry", ["axis-swap", "rotation"])
@pytest.mark.parametrize("seed", [0, 1])
def test_the_2d_field_dynamics_keep_the_symmetries_of_the_square(symmetry, seed):
    # The axis swap (x, y) -> (y, x) with (Omega1, Omega2) -> (Omega2,
    # Omega1), and the rotation by 90 degrees, f -> f(y, -x) with Omega ->
    # (-Omega2, Omega1), map solutions to solutions.  The rotation catches
    # Omega1*d2 + Omega2*d1 in place of Omega . grad; the swap does not.
    def act(P, W1, W2):
        if symmetry == "axis-swap":
            return P.T, W2.T, W1.T
        rotate = lambda f: _reflect(f.T)  # noqa: E731
        return rotate(P), -rotate(W2), rotate(W1)

    grid = Grid(dim=2, n=32, length=2.0 * np.pi)
    rng = np.random.default_rng(seed)
    P = band_limited_noise(grid, rng, max_index=4, amplitude=0.05).physical()
    W1, W2 = (
        band_limited_noise(grid, rng, max_index=4, amplitude=0.05, real=True).physical().real
        for _ in range(2)
    )
    for got, want in zip(_fields_2d_at_half(*act(P, W1, W2)), act(*_fields_2d_at_half(P, W1, W2))):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_forced_linear_duhamel(grid):
    # kappa = xi = 0 and P = 0: the drift obeys a forced heat equation whose
    # single-mode solution is available in closed form.
    m = 0.9
    params = SystemParams.constants(m=m, xi=0.0)
    x = grid.axis_coordinates()
    g = 0.2 * np.cos(x)

    forcing = Forcing(f2=lambda t: (g,))
    state = FieldState.zeros(grid)
    config = SolverConfig(dt=1e-3, t_end=1.0, cadence=10**9)
    summary = evolve(state, params, forcing, config)
    # Linear regime: advection of the small response is second order, so
    # compare against the exact forced-heat mode with a loose tolerance.
    expected = 0.2 * (1.0 - np.exp(-m)) / m * np.cos(x)
    got = summary.final.omega[0].physical().real
    assert np.max(np.abs(got - expected)) < 2e-3


def test_blowup_raises_step_unstable(grid):
    params = SystemParams.constants(m=-1.0, xi=1.0)
    rng = np.random.default_rng(6)
    state = FieldState(
        P=SpectralField.zeros(grid),
        omega=(band_limited_noise(grid, rng, amplitude=0.1, real=True),),
    )
    config = SolverConfig(dt=5e-3, t_end=50.0, cadence=100, blowup_threshold=1e3)
    with pytest.raises(StepUnstable) as excinfo:
        evolve(state, params, config=config)
    assert 0.0 < excinfo.value.t <= 50.0


def test_smallness_persistence_short(grid):
    from cglburgers.littlewood_paley import smallness_monitor

    params = SystemParams.constants(u=0.3, v=0.2, xi=0.0, m=1.0, kappa=0.5)
    rng = np.random.default_rng(7)
    state = FieldState(
        P=band_limited_noise(grid, rng, max_index=8, amplitude=1e-3, zero_mean=True),
        omega=(
            band_limited_noise(
                grid, rng, max_index=8, amplitude=1e-3, real=True, zero_mean=True
            ),
        ),
    )
    s0 = smallness_monitor(state, p=1.0)
    config = SolverConfig(dt=5e-3, t_end=5.0, cadence=20, besov_p=1.0)
    summary = evolve(state, params, config=config)
    assert max(summary.column("besov_proxy")) <= 2.0 * s0


def test_2d_single_mode_linear_growth_rate():
    grid2 = Grid(dim=2, n=32, length=2.0 * np.pi)
    params = SystemParams.constants(u=0.4, v=1.0, xi=1.0, m=1.0)
    eps, t_end = 1e-8, 0.5
    x, y = grid2.coordinates()
    kx, ky = 1, 2
    state = FieldState(
        P=SpectralField.from_physical(grid2, eps * np.exp(1j * (kx * x + ky * y))),
        omega=(SpectralField.zeros(grid2), SpectralField.zeros(grid2)),
    )
    config = SolverConfig(dt=2e-4, t_end=t_end, cadence=10**9)
    summary = evolve(state, params, config=config)
    amp = np.abs(summary.final.P.spectral()[kx, ky])
    expected = eps * np.exp((1.0 - (kx**2 + ky**2)) * t_end)
    assert amp == pytest.approx(expected, rel=1e-6)


def test_2d_drift_stays_real():
    grid2 = Grid(dim=2, n=32, length=2.0 * np.pi)
    params = SystemParams.constants(u=0.3, v=-0.2, xi=1.0, m=0.8, kappa=0.5)
    rng = np.random.default_rng(8)
    state = FieldState(
        P=band_limited_noise(grid2, rng, max_index=4, amplitude=0.05),
        omega=tuple(
            band_limited_noise(grid2, rng, max_index=4, amplitude=0.05, real=True)
            for _ in range(2)
        ),
    )
    summary = evolve(state, params, config=SolverConfig(dt=1e-3, t_end=0.2, cadence=100))
    for w in summary.final.omega:
        assert w.is_real_valued(tol=1e-9)


def test_cfl_guard(grid):
    params = SystemParams.constants(m=1.0)
    x = grid.axis_coordinates()
    state = FieldState(
        P=SpectralField.zeros(grid),
        omega=(SpectralField.from_physical(grid, 50.0 * np.cos(x)),),
    )
    with pytest.raises(ValueError):
        evolve(state, params, config=SolverConfig(dt=0.1, t_end=1.0))


def test_cfl_crossed_mid_run_raises_step_unstable(grid):
    # A uniform source drives a uniform drift Omega = 10*t, which crosses
    # dt*max|Omega|*k_max = 1 at t = 0.3125; the state stays smooth throughout.
    forcing = Forcing(f2=lambda t: (np.full(grid.shape, 10.0),))
    config = SolverConfig(dt=0.01, t_end=0.5)
    with pytest.raises(StepUnstable, match="CFL") as excinfo:
        evolve(FieldState.zeros(grid), SystemParams.constants(), forcing, config)
    assert 0.31 <= excinfo.value.t <= 0.33


@pytest.mark.parametrize("scheme", ["exponential-rk2", "imex-bdf2"])
@pytest.mark.parametrize("field", ["P", "omega", "omega_2"])
def test_nan_state_raises_step_unstable(grid, scheme, field):
    if field == "omega_2":
        grid = Grid(dim=2, n=16, length=2.0 * np.pi)
    rng = np.random.default_rng(9)
    P = band_limited_noise(grid, rng, amplitude=0.01).physical().copy()
    W = [
        band_limited_noise(grid, rng, amplitude=0.01, real=True).physical().copy()
        for _ in range(grid.dim)
    ]
    target = {"P": P, "omega": W[0], "omega_2": W[-1]}[field]
    target[(5,) * grid.dim] = np.nan
    state = FieldState(
        P=SpectralField.from_physical(grid, P),
        omega=tuple(SpectralField.from_physical(grid, w) for w in W),
    )
    config = SolverConfig(dt=0.01, t_end=0.1, scheme=scheme)
    with pytest.raises(StepUnstable):
        evolve(state, params=SystemParams.constants(), config=config)


def test_evolve_ends_at_t_end_or_refuses_to_start(grid):
    # dt = 0.3 used to stop at t = 0.9 for t_end = 1.0.
    params = SystemParams.constants()
    for t_end in (1.0, -0.3):
        with pytest.raises(ValueError, match="whole number of steps"):
            evolve(FieldState.zeros(grid), params, config=SolverConfig(dt=0.3, t_end=t_end))
    summary = evolve(FieldState.zeros(grid), params, config=SolverConfig(dt=0.3, t_end=0.9))
    assert summary.final.t == pytest.approx(0.9, rel=1e-12)


@pytest.mark.parametrize("k_cutoff", [0.0, -1.0, float("nan")])
def test_solver_config_refuses_a_cutoff_that_is_not_positive(k_cutoff):
    # A full-field evolve with k_cutoff = -1 used to zero the state in its
    # first step, and evolve_polar died with numpy's "argmax of an empty
    # sequence".
    with pytest.raises(ValueError, match="k_cutoff must be positive"):
        SolverConfig(dt=1e-3, k_cutoff=k_cutoff)


@pytest.mark.parametrize("besov_p", [0.0, 0.5, -1.0, float("nan"), float("-inf")])
def test_solver_config_refuses_a_besov_exponent_below_one(besov_p):
    # evolve used to take the exponent and fail at its first diagnostics
    # row: ZeroDivisionError for 0, an error naming no setting otherwise.
    with pytest.raises(ValueError, match=r"besov_p must lie in \[1, inf\]"):
        SolverConfig(dt=1e-3, besov_p=besov_p)


@pytest.mark.parametrize("besov_p", [1.0, 3.0, float("inf")])
def test_solver_config_takes_a_besov_exponent_from_one_to_inf(besov_p):
    assert SolverConfig(dt=1e-3, besov_p=besov_p).besov_p == besov_p


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "make, named",
    [
        (lambda v: SolverConfig(dt=v), "dt"),
        (lambda v: SolverConfig(t_end=v), "t_end"),
        (lambda v: SolverConfig(hs_exponent=v), "hs_exponent"),
        (lambda v: Grid(length=v), "length"),
    ],
    ids=["dt", "t_end", "hs_exponent", "length"],
)
@pytest.mark.parametrize("value", [NAN, INF, -INF])
def test_non_finite_settings_are_refused_by_name(make, named, value):
    # These used to be taken, and a run then wrote NaN columns, or stopped
    # with "cannot convert float NaN to integer" or "math domain error".
    with pytest.raises(ValueError, match=named):
        make(value)


def test_blowup_threshold_may_be_infinite_but_not_nan():
    assert SolverConfig(blowup_threshold=INF).blowup_threshold == INF
    with pytest.raises(ValueError, match="blowup_threshold"):
        SolverConfig(blowup_threshold=NAN)


def test_blowup_keeps_the_rows_recorded_before_it(grid):
    params = SystemParams.constants(m=-1.0, xi=1.0)
    rng = np.random.default_rng(6)
    state = FieldState(
        P=SpectralField.zeros(grid),
        omega=(band_limited_noise(grid, rng, amplitude=1e-3, real=True),),
    )
    config = SolverConfig(dt=5e-3, t_end=50.0, cadence=10, k_cutoff=4.0)
    with pytest.raises(StepUnstable) as excinfo:
        evolve(state, params, config=config)
    rows = excinfo.value.rows
    times = [row["t"] for row in rows]
    assert len(rows) > 1 and times[0] == 0.0
    assert times == sorted(times) and times[-1] < excinfo.value.t


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scheme=st.sampled_from(SCHEMES),
    k_cutoff=st.sampled_from([None, 4.0]),
)
def test_drift_stays_real_under_evolve(dim, seed, scheme, k_cutoff):
    # Noise on every mode, the Nyquist modes included: a real drift has a
    # real Nyquist coefficient, and kappa*grad|P|^2 must not add an
    # imaginary one.
    grid = Grid(dim=dim, n=64 if dim == 1 else 32, length=5.0)
    params = SystemParams.constants(u=0.3, v=-0.7, xi=1.2, m=0.8, kappa=0.6, s1=0.4, s2=-0.9)
    rng = np.random.default_rng(seed)
    top = grid.n // 2
    state = FieldState(
        P=band_limited_noise(grid, rng, max_index=top, amplitude=0.05),
        omega=tuple(
            band_limited_noise(grid, rng, max_index=top, amplitude=0.05, real=True)
            for _ in range(dim)
        ),
    )
    config = SolverConfig(dt=1e-3, t_end=0.02, scheme=scheme, k_cutoff=k_cutoff)
    final = evolve(state, params, config=config).final
    for w in final.omega:
        assert w.is_real_valued(tol=1e-13)


def _projected_integrate(u, t0, N, ops, config, mask):
    """The step loop with the cutoff as a projection after each ETD2 stage
    and each BDF2 solve, applied to operators that keep every mode."""
    dt = config.dt
    n_steps = round((config.t_end - t0) / dt)
    history = None
    for i in range(n_steps):
        t = t0 + i * dt
        N0 = N(u, t)
        if history is None:
            a = (ops.E * u + ops.phi1 * N0) * mask
            new = (a + ops.phi2 * (N(a, t + dt) - N0)) * mask
        else:
            u_prev, N_prev = history
            new = ops.bdf2 * (4.0 * u - u_prev + 2.0 * dt * (2.0 * N0 - N_prev)) * mask
        if config.scheme == "imex-bdf2":
            history = u, N0
        u = new
        yield u, t0 + (i + 1) * dt, (i + 1) % config.cadence == 0 or i == n_steps - 1


def _projected_evolve(state0, params, config):
    """Rows and final state of :func:`evolve` by the projection loop."""
    grid = state0.grid
    ops, N = solver._field_system(grid, params, None, replace(config, k_cutoff=None))
    keep, lay = grid.kmax_mask(config.k_cutoff), solver._layout(grid)
    mask = lay.pack(keep, lay.half(keep))

    weight = (1.0 + grid.k_squared) ** config.hs_exponent

    def row(u, t):
        state = solver._unstack(grid, u, t)
        return diagnostics_row(state, weight, config.besov_p)

    u, t = solver._stack(state0), state0.t
    rows = [row(u, t)]
    for u, t, row_due in _projected_integrate(u, t, N, ops, config, mask):
        if row_due:
            rows.append(row(u, t))
    return rows, solver._unstack(grid, u, t)


def _spectra(state):
    return np.stack([state.P.spectral(), *(w.spectral() for w in state.omega)])


def _per_state_evolve(state0, params, config, forcing):
    """Rows and final state of :func:`evolve`, every row computed from its state alone.

    A StepUnstable comes back in place of the final state.
    """
    grid = state0.grid
    ops, N = solver._field_system(grid, params, forcing, config)
    weight = (1.0 + grid.k_squared) ** config.hs_exponent
    row = lambda u, t: diagnostics_row(solver._unstack(grid, u, t), weight, config.besov_p)
    try:
        rows, u, t = solver.run(solver._stack(state0), state0.t, N, ops, config, row)
    except StepUnstable as exc:
        return exc.rows, exc
    return rows, solver._unstack(grid, u, t)


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 16)])
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scheme=st.sampled_from(SCHEMES),
    besov_p=st.sampled_from([1.0, 2.0, 3.0, np.inf]),
    batch=st.integers(1, 5),
    steps=st.integers(1, 24),
    cadence=st.integers(1, 3),
    nan_at=st.one_of(st.none(), st.integers(0, 24)),
)
# Seven rows in batches of three: the last batch holds one.
@example(seed=0, scheme="exponential-rk2", besov_p=3.0, batch=3, steps=6, cadence=1, nan_at=None)
# A NaN source from t = 4 dt on: the fifth step makes the state NaN and the
# sixth trips the guard, with rows 0-5 recorded and rows 4 and 5 in an
# unfinished batch.
@example(seed=1, scheme="imex-bdf2", besov_p=1.0, batch=4, steps=12, cadence=1, nan_at=4)
def test_batched_rows_match_the_per_state_rows(
    dim, n, seed, scheme, besov_p, batch, steps, cadence, nan_at
):
    grid = Grid(dim=dim, n=n, length=5.0)
    params = SystemParams.constants(u=0.3, v=-0.7, xi=1.2, m=0.8, kappa=0.6, s1=0.4, s2=-0.9)
    rng = np.random.default_rng(seed)
    state = FieldState(
        P=band_limited_noise(grid, rng, max_index=n // 4, amplitude=0.05),
        omega=tuple(
            band_limited_noise(grid, rng, max_index=n // 4, amplitude=0.05, real=True)
            for _ in range(dim)
        ),
    )
    dt = 1e-3
    config = SolverConfig(
        dt=dt, t_end=steps * dt, scheme=scheme, cadence=cadence, besov_p=besov_p
    )
    # A source that turns NaN from step nan_at on trips the blow-up guard
    # one evaluation later, wherever that falls in a batch.
    nan_from = None if nan_at is None else (nan_at - 0.5) * dt
    source = lambda t: np.full(grid.shape, np.nan if nan_from is not None and t > nan_from else 0.0)
    forcing = Forcing(f1=source)
    blocks = len(partition_for(grid).homogeneous_blocks[0])
    want_rows, want = _per_state_evolve(state, params, config, forcing)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "ROW_BATCH_BYTES", batch * blocks * grid.size * 16)
        assert solver._DiagnosticsRows(grid, config).size == batch
        # assert_equal: exact, with a NaN equal to a NaN in the same place.
        if isinstance(want, StepUnstable):
            with pytest.raises(StepUnstable) as excinfo:
                evolve(state, params, forcing=forcing, config=config)
            assert str(excinfo.value) == str(want) and excinfo.value.t == want.t
            np.testing.assert_equal(excinfo.value.rows, want_rows)
        else:
            summary = evolve(state, params, forcing=forcing, config=config)
            np.testing.assert_equal(summary.rows, want_rows)
            np.testing.assert_equal(_spectra(summary.final), _spectra(want))
            assert summary.final.t == want.t


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 32)])
def test_evolve_reaches_the_benchmark_entry_points(monkeypatch, dim, n):
    # The benchmark's coverage check wraps these two functions by name and
    # refuses a field workload that never calls them.
    from cglburgers import littlewood_paley

    calls = {"smallness_monitor": 0, "besov_norm": 0}
    for name in calls:
        def counted(*args, _f=getattr(littlewood_paley, name), _name=name, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(littlewood_paley, name, counted)
    grid = Grid(dim=dim, n=n)
    evolve(FieldState.zeros(grid), SystemParams.constants(), config=SolverConfig(t_end=4e-3))
    assert calls["smallness_monitor"] >= 1 and calls["besov_norm"] >= 1


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 32)])
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("k_cutoff", [4.0, 0.5])
@pytest.mark.parametrize("seed", [0, 1])
def test_cutoff_in_the_operators_matches_the_projection_loop(dim, n, scheme, k_cutoff, seed):
    # Noise on every mode: the data has energy above k_cutoff, which the
    # first step must remove.
    grid = Grid(dim=dim, n=n, length=2.0 * np.pi)
    params = SystemParams.constants(u=0.3, v=-0.7, xi=1.2, m=0.8, kappa=0.6, s1=0.4, s2=-0.9)
    rng = np.random.default_rng(seed)
    state = FieldState(
        P=band_limited_noise(grid, rng, max_index=n // 2, amplitude=0.05),
        omega=tuple(
            band_limited_noise(grid, rng, max_index=n // 2, amplitude=0.05, real=True)
            for _ in range(dim)
        ),
    )
    assert np.any(_spectra(state)[:, ~grid.kmax_mask(k_cutoff)] != 0.0)
    config = SolverConfig(dt=1e-3, t_end=0.02, cadence=5, scheme=scheme, k_cutoff=k_cutoff)
    summary = evolve(state, params, config=config)
    rows, final = _projected_evolve(state, params, config)
    assert summary.rows == rows
    assert np.array_equal(_spectra(summary.final), _spectra(final))
    assert summary.final.t == final.t

    one_step = replace(config, scheme="exponential-rk2", t_end=config.dt)
    _, final = _projected_evolve(state, params, one_step)
    assert np.array_equal(_spectra(evolve(state, params, config=one_step).final), _spectra(final))


def test_evolve_refuses_a_drift_that_is_not_real(grid):
    # The packed state keeps the rfftn half of each drift spectrum, which
    # would drop an imaginary part without a word.
    rng = np.random.default_rng(5)
    drift = band_limited_noise(grid, rng, max_index=8, amplitude=0.1)
    state = FieldState(P=band_limited_noise(grid, rng, max_index=8), omega=(drift,))
    params = SystemParams.constants(u=0.3, v=0.2, xi=0.5, m=1.0, kappa=0.5, s1=0.1)
    with pytest.raises(ValueError, match="drift Omega must be real"):
        evolve(state, params, config=SolverConfig(dt=1e-3, t_end=0.01))
    real = FieldState(P=state.P, omega=(SpectralField.from_physical(grid, drift.physical().real),))
    evolve(real, params, config=SolverConfig(dt=1e-3, t_end=0.01))


def test_rhs_refuses_a_drift_that_is_not_real(grid):
    # Only evolve used to check; on this state the imaginary part of the
    # drift moved the dP/dt of rhs_nonlinear by up to 29.
    rng = np.random.default_rng(5)
    drift = band_limited_noise(grid, rng, max_index=8, amplitude=0.1)
    state = FieldState(P=band_limited_noise(grid, rng, max_index=8), omega=(drift,))
    params = SystemParams.constants(u=0.3, v=0.2, xi=0.5, m=1.0, kappa=0.5, s1=0.1)
    with pytest.raises(ValueError, match="drift Omega must be real"):
        rhs_nonlinear(state, params)
    nyquist = np.zeros(grid.n, dtype=complex)
    nyquist[grid.n // 2] = 1e-3j
    state.omega = (SpectralField.from_spectral(grid, nyquist),)
    with pytest.raises(ValueError, match="drift Omega must be real"):
        rhs_nonlinear(state, params)
    # In 2D, a mode outside the packed rfftn half that breaks the symmetry.
    grid2 = Grid(dim=2, n=16, length=2.0 * np.pi)
    real = [band_limited_noise(grid2, rng, max_index=4, amplitude=0.1, real=True) for _ in range(2)]
    state2 = FieldState(P=band_limited_noise(grid2, rng, max_index=4), omega=real)
    rhs_nonlinear(state2, params)
    spectrum = real[1].spectral().copy()
    spectrum[1, 13] += 1e-3
    state2.omega = (real[0], SpectralField.from_spectral(grid2, spectrum))
    with pytest.raises(ValueError, match="drift Omega must be real"):
        rhs_nonlinear(state2, params)


@settings(max_examples=10, deadline=None)
@given(
    n=st.sampled_from([8, 16, 32, 64]),
    seed=st.integers(0, 2**32 - 1),
    scheme=st.sampled_from(SCHEMES),
)
def test_drift_stays_real_under_2d_evolve_on_every_grid(n, seed, scheme):
    grid = Grid(dim=2, n=n, length=5.0)
    params = SystemParams.constants(u=0.3, v=-0.7, xi=1.2, m=0.8, kappa=0.6, s1=0.4, s2=-0.9)
    rng = np.random.default_rng(seed)
    state = FieldState(
        P=band_limited_noise(grid, rng, max_index=n // 2, amplitude=0.05),
        omega=tuple(
            band_limited_noise(grid, rng, max_index=n // 2, amplitude=0.05, real=True)
            for _ in range(2)
        ),
    )
    config = SolverConfig(dt=1e-3, t_end=0.02, scheme=scheme)
    final = evolve(state, params, config=config).final
    for w in final.omega:
        assert w.is_real_valued(tol=1e-13)


def test_bdf2_run_frees_its_start_up_operators(monkeypatch):
    # Only the ETD2 start-up step reads E, phi1 and phi2; a BDF2 run that
    # kept them held three state-sized arrays to its end.
    grid = Grid(dim=2, n=16, length=2.0 * np.pi)
    params = SystemParams.constants(u=0.3, v=0.2, m=1.0, kappa=0.5, s1=0.1)
    rng = np.random.default_rng(0)
    state = FieldState(
        P=band_limited_noise(grid, rng, max_index=3, amplitude=1e-3),
        omega=tuple(
            band_limited_noise(grid, rng, max_index=3, amplitude=1e-3, real=True)
            for _ in range(grid.dim)
        ),
    )
    config = SolverConfig(dt=1e-3, t_end=4e-3, cadence=2, scheme="imex-bdf2")
    field_system = solver._field_system
    refs, alive = [], []

    def spied(*args):
        ops, N = field_system(*args)
        refs.extend(weakref.ref(op) for op in (ops.E, ops.phi1, ops.phi2))

        def counted(u, t):
            alive.append(sum(r() is not None for r in refs))
            return N(u, t)

        return ops, counted

    monkeypatch.setattr(solver, "_field_system", spied)
    summary = evolve(state, params, config=config)
    monkeypatch.undo()
    # Two evaluations in the ETD2 start-up step, then one per BDF2 step.
    assert alive == [3, 3, 0, 0, 0]
    want = evolve(state, params, config=config)
    assert summary.rows == want.rows
    assert np.array_equal(_spectra(summary.final), _spectra(want.final))
