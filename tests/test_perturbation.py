import numpy as np
import pytest

from cglburgers import dispersion, perturbation
from cglburgers.dispersion import true_linearization
from cglburgers.model import PlaneWave, SystemParams
from cglburgers.perturbation import (
    ChartBreakdown,
    PerturbationState,
    compose_polar,
    decay_experiment,
    evolve_polar,
    instability_experiment,
    quadratic_order_check,
    remainder,
)
from cglburgers.solver import SCHEMES, FieldState, SolverConfig, StepUnstable, evolve
from cglburgers.spectral import Grid, SpectralField

from helpers import AmplitudeVanishes, polar_decompose


@pytest.fixture
def grid():
    return Grid(dim=1, n=64, length=2.0 * np.pi)


def unit_wave(w0=0.0):
    return PlaneWave(r0=1.0, theta0=0.0, w0=w0)


def state_from_modes(grid, mode_table, t=0.0):
    """Build a real perturbation state from {mode_index: (c_rho, c_phi, c_h)}."""
    n = grid.n
    hats = np.zeros((n // 2 + 1, 3), dtype=complex)
    for j, coeffs in mode_table.items():
        hats[j] = coeffs
    fields = tuple(np.fft.irfft(hats[:, i] * n, n=n) for i in range(3))
    return PerturbationState(grid=grid, rho=fields[0], phi=fields[1], h=fields[2], t=t)


# ---------------------------------------------------------------- decompose


def test_decompose_pure_wave(grid):
    wave = unit_wave()
    x = grid.axis_coordinates()
    P = SpectralField.from_physical(grid, np.full(grid.shape, 1.0 + 0.0j))
    rho, phi = polar_decompose(P, wave)
    assert np.max(np.abs(rho)) < 1e-14
    assert np.max(np.abs(phi)) < 1e-14


def test_decompose_carrier_wave():
    length = 2.0 * np.pi * np.sqrt(2.0)
    grid = Grid(dim=1, n=64, length=length)
    theta0 = grid.k_min_positive
    r0 = float(np.sqrt(1.0 - theta0**2))
    wave = PlaneWave(r0=r0, theta0=theta0)
    x = grid.axis_coordinates()
    P = SpectralField.from_physical(grid, (r0 + 0.01 * np.cos(x * theta0)) * np.exp(1j * theta0 * x))
    rho, phi = polar_decompose(P, wave)
    assert np.max(np.abs(rho - 0.01 * np.cos(theta0 * x))) < 1e-12
    assert np.max(np.abs(phi)) < 1e-12


def test_decompose_compose_round_trip(grid):
    rng = np.random.default_rng(0)
    wave = unit_wave(w0=0.4)
    state = state_from_modes(
        grid,
        {j: 0.02 * (rng.normal(size=3) + 1j * rng.normal(size=3)) for j in (1, 2, 3)},
    )
    P, omega = compose_polar(wave, state)
    rho, phi = polar_decompose(P, wave)
    assert np.max(np.abs(rho - state.rho)) < 1e-10
    assert np.max(np.abs(phi - state.phi)) < 1e-10
    assert np.max(np.abs(omega.physical().real - (wave.w0 + state.h))) < 1e-12


def test_decompose_rejects_vanishing_amplitude(grid):
    wave = unit_wave()
    x = grid.axis_coordinates()
    P = SpectralField.from_physical(grid, 0.05 + 0.01 * np.cos(x) + 0j)
    with pytest.raises(AmplitudeVanishes):
        polar_decompose(P, wave)


# ---------------------------------------------------------------- remainder


def test_remainder_zero_on_compatible_slice(grid):
    params = SystemParams.constants(u=0.0, v=0.0, m=1.0, kappa=1.0, s1=0.3)
    wave = unit_wave(w0=0.7)  # theta0 = 0 so the drift compatibility holds
    psi = remainder(PerturbationState.zeros(grid), params, wave)
    assert psi.joint_l2() == pytest.approx(0.0, abs=1e-15)


def test_remainder_single_term(grid):
    params = SystemParams.constants()
    wave = unit_wave()
    x = grid.axis_coordinates()
    state = PerturbationState(
        grid=grid, rho=np.zeros(grid.shape), phi=np.zeros(grid.shape), h=np.sin(x)
    )
    psi = remainder(state, params, wave)
    assert np.max(np.abs(psi.h + np.sin(x) * np.cos(x))) < 1e-12
    assert np.max(np.abs(psi.rho)) < 1e-12


def test_remainder_refuses_states_outside_the_polar_chart(grid):
    # psi used to be computed across r = 0.
    x = grid.axis_coordinates()
    params = SystemParams.constants(m=1.0)
    zero = np.zeros(grid.n)
    for depth in (1.5, 1.0):
        state = PerturbationState(grid=grid, rho=-depth * np.cos(x), phi=zero, h=zero, t=0.5)
        with pytest.raises(ChartBreakdown) as info:
            remainder(state, params, unit_wave())
        assert info.value.t == 0.5
    state = PerturbationState(grid=grid, rho=-0.98 * np.cos(x), phi=zero, h=zero)
    assert np.isfinite(remainder(state, params, unit_wave()).stack()).all()


def test_remainder_refuses_xi_other_than_one(grid):
    params = SystemParams.constants(xi=0.5, m=1.0)
    with pytest.raises(ValueError, match="normalized to xi = 1"):
        remainder(PerturbationState.zeros(grid), params, unit_wave())


def _psi_printed_reference(state, params, wave):
    """The remainder formulas written out as printed term lists."""
    grid = state.grid
    n = grid.n
    k = 2.0 * np.pi / grid.length * np.arange(n // 2 + 1)

    def dx(f, m=1):
        return np.fft.irfft(((1j * k) ** m) * np.fft.rfft(f), n=n)

    rho, phi, h = state.rho, state.phi, state.h
    r0, th0, w0 = wave.r0, wave.theta0, wave.w0
    c0, c1 = params.u_coeffs
    r = r0 + rho

    def affine(pair, at):
        return pair[0] + pair[1] * at

    s1r, s10 = affine(params.s1_coeffs, r), affine(params.s1_coeffs, r0)
    s2r, s20 = affine(params.s2_coeffs, r), affine(params.s2_coeffs, r0)
    vr, v0 = affine(params.v_coeffs, r), affine(params.v_coeffs, r0)

    terms1 = [
        -2.0 * th0 * c1 * rho * dx(rho),
        -2.0 * (c0 + c1 * r) * phi * dx(rho),
        -(c0 + c1 * r0) * rho * dx(phi, 2),
        -h * dx(rho),
        -r0 * rho**2,
        -r0 * dx(phi) ** 2,
        -r0 * (s1r - s10) * dx(h),
        -rho * (2.0 * r0 * rho + rho**2),
        -rho * (2.0 * th0 * dx(phi) + dx(phi) ** 2),
        -rho * s1r * dx(h),
    ]
    terms2 = [
        -h * dx(phi),
        np.full(grid.shape, -w0 * th0),
        -(c0 + c1 * r0) * (th0**2 + dx(phi) ** 2),
        c0 * dx(rho, 2) / r,
        -c1 * (2.0 * th0 * dx(phi) + dx(phi) ** 2),
        -2.0 * dx(rho) * (th0 + dx(phi)) / r,
        -vr * rho**2,
        -(s2r - s20) * dx(h),
        -(r0**2) * (vr - params.v_prime(r0) * rho),
        -2.0 * r0 * rho * (v0 - vr),
    ]
    terms3 = [-h * dx(h), -2.0 * params.kappa(r0) * rho * dx(rho)]

    mask = np.arange(n // 2 + 1) <= n / 3.0

    def total(terms):
        out = np.zeros(grid.shape)
        for term in terms:
            out = out + term
        return np.fft.irfft(np.fft.rfft(out) * mask, n=n)

    return total(terms1), total(terms2), total(terms3)


def test_remainder_dual_transcription():
    # The printed term list against the remainder of the stepped dynamics.
    # The list carries -2*rho_x*(theta0+phi_x)/r in psi2 where (1+iu)*P_xx
    # gives +2, so on the unit wave the two differ by exactly the 2/3-rule
    # projection of 4*rho_x*(theta0+phi_x)/r, and agree in psi1 and psi3.
    rng = np.random.default_rng(1)
    g = Grid(dim=1, n=64, length=2.0 * np.pi * np.sqrt(2.0))
    state = state_from_modes(
        g, {j: 0.1 * (rng.normal(size=3) + 1j * rng.normal(size=3)) for j in (1, 2, 4)}
    )
    params = SystemParams(
        u_coeffs=(0.0, 0.0),
        v_coeffs=(0.0, 0.0),
        m=1.2,
        kappa_coeffs=(0.0, 0.0),
        s1_coeffs=(0.125, 0.3),
        s2_coeffs=(-0.2, 0.1),
    )
    wave = PlaneWave(r0=1.0, theta0=0.0, w0=0.3)
    psi = remainder(state, params, wave)
    ref1, ref2, ref3 = _psi_printed_reference(state, params, wave)
    assert np.max(np.abs(psi.rho - ref1)) < 1e-14
    assert np.max(np.abs(psi.h - ref3)) < 1e-14
    n = g.n
    k = g.k_min_positive * np.arange(n // 2 + 1)
    rho_x, phi_x = (np.fft.irfft(1j * k * np.fft.rfft(f), n=n) for f in (state.rho, state.phi))
    gap = 4.0 * rho_x * (wave.theta0 + phi_x) / (wave.r0 + state.rho)
    gap = np.fft.irfft(np.fft.rfft(gap) * (np.arange(n // 2 + 1) <= n / 3.0), n=n)
    assert np.max(np.abs(gap)) > 1e-3
    assert np.max(np.abs(psi.phi - ref2 - gap)) < 1e-14

    # Every coefficient amplitude-dependent and a carrier wave: psi3 agrees.
    params = SystemParams(
        u_coeffs=(0.3, -0.4),
        v_coeffs=(0.2, 0.5),
        m=1.2,
        kappa_coeffs=(0.8, 0.0),
        s1_coeffs=(0.125, 0.3),
        s2_coeffs=(-0.2, 0.1),
    )
    theta0 = g.k_min_positive
    wave = PlaneWave(r0=float(np.sqrt(1 - theta0**2)), theta0=theta0, w0=0.3)
    psi = remainder(state, params, wave)
    assert np.max(np.abs(psi.h - _psi_printed_reference(state, params, wave)[2])) < 1e-14


def test_remainder_derivative_lipschitz_spot_check(grid):
    # Finite-difference directional derivatives of the remainder at nearby
    # base points differ by an amount controlled by the base-point distance.
    rng = np.random.default_rng(21)
    params = quadratic_slice_params()
    wave = unit_wave()

    def directional(base, direction, eps=1e-6):
        plus = PerturbationState(
            grid=grid,
            rho=base.rho + eps * direction.rho,
            phi=base.phi + eps * direction.phi,
            h=base.h + eps * direction.h,
        )
        minus = PerturbationState(
            grid=grid,
            rho=base.rho - eps * direction.rho,
            phi=base.phi - eps * direction.phi,
            h=base.h - eps * direction.h,
        )
        return (remainder(plus, params, wave).stack() - remainder(minus, params, wave).stack()) / (
            2.0 * eps
        )

    ratios = []
    for _ in range(5):
        base = state_from_modes(
            grid, {j: 0.05 * (rng.normal(size=3) + 1j * rng.normal(size=3)) for j in (1, 2)}
        )
        delta = state_from_modes(
            grid, {j: 0.01 * (rng.normal(size=3) + 1j * rng.normal(size=3)) for j in (1, 3)}
        )
        other = PerturbationState(
            grid=grid, rho=base.rho + delta.rho, phi=base.phi + delta.phi, h=base.h + delta.h
        )
        direction = state_from_modes(
            grid, {j: rng.normal(size=3) + 1j * rng.normal(size=3) for j in (1, 2)}
        )
        scale = direction.joint_l2()
        diff = directional(base, direction) - directional(other, direction)
        dist = delta.joint_l2()
        ratios.append(float(np.sqrt(np.mean(diff**2))) / (dist * scale))
    # The constant is not quantified; it only needs to stay bounded.
    assert max(ratios) < 50.0


def test_polar_rhs_vanishes_at_equilibrium():
    # Carrier wave with zero drift is a genuine fixed point of the polar
    # tendency (semi-discrete residual at machine precision).
    length = 2.0 * np.pi * np.sqrt(2.0)
    g = Grid(dim=1, n=64, length=length)
    theta0 = g.k_min_positive
    r0 = float(np.sqrt(1.0 - theta0**2))
    params = SystemParams.constants(u=1.0, v=-1.0, m=1.0, kappa=0.3)
    wave = PlaneWave(r0=r0, theta0=theta0, w0=0.0)
    wave.validate(params, tol=1e-12)
    config = SolverConfig(dt=1e-3, t_end=1e-3, cadence=1)
    traj = evolve_polar(PerturbationState.zeros(g), params, wave, config)
    drift = max(
        np.max(np.abs(traj.final.rho)),
        np.max(np.abs(traj.final.phi)),
        np.max(np.abs(traj.final.h)),
    )
    assert drift / config.dt < 1e-10


# ---------------------------------------------------------- quadratic order


def quadratic_slice_params():
    # theta0 = 0, zero dispersion offset, no nonlinear dispersion, unit wave.
    return SystemParams(
        u_coeffs=(0.0, 0.7),
        v_coeffs=(0.0, 0.0),
        m=1.0,
        kappa_coeffs=(1.0, 0.0),
        s1_coeffs=(0.125, 0.4),
        s2_coeffs=(0.3, -0.2),
    )


def test_quadratic_check_zero_direction(grid):
    # A zero direction used to pass with spread 0, the remainder never evaluated.
    with pytest.raises(ValueError, match="direction"):
        quadratic_order_check(
            PerturbationState.zeros(grid), quadratic_slice_params(), unit_wave(), [0.1, 0.01]
        )


def test_quadratic_check_flat_ratios(grid):
    x = grid.axis_coordinates()
    pi_dir = PerturbationState(
        grid=grid, rho=np.cos(x), phi=np.sin(x), h=np.cos(2 * x)
    )
    report = quadratic_order_check(
        pi_dir, quadratic_slice_params(), unit_wave(), [1e-1, 1e-2, 1e-3, 1e-4]
    )
    assert report.passed, f"spread {report.spread:.3f}"
    assert np.all(report.quadratic_ratios > 0.0)


def test_quadratic_check_detects_linear_leakage(grid):
    # Carrier wave from the equilibrium family: remainder has first-order
    # terms, so ||psi||/eps stays bounded away from zero.
    length = 2.0 * np.pi * np.sqrt(2.0)
    g = Grid(dim=1, n=64, length=length)
    theta0 = g.k_min_positive
    wave = PlaneWave(r0=float(np.sqrt(1 - theta0**2)), theta0=theta0, w0=0.0)
    params = SystemParams.constants(u=0.0, v=0.0, m=1.0)
    x = g.axis_coordinates()
    k1 = g.k_min_positive
    pi_dir = PerturbationState(
        grid=g, rho=np.cos(k1 * x), phi=np.sin(k1 * x), h=np.cos(2 * k1 * x)
    )
    report = quadratic_order_check(params=params, wave=wave, pi_dir=pi_dir, eps_list=[1e-1, 1e-2, 1e-3, 1e-4])
    assert not report.passed
    lin = report.linear_ratios
    assert lin[-1] > 1e-3
    assert abs(lin[-1] - lin[-2]) / lin[-2] < 0.2


# ------------------------------------------------------------------ evolve


def test_polar_rejects_nonunit_growth(grid):
    params = SystemParams.constants(xi=2.0, m=1.0)
    config = SolverConfig(dt=1e-2, t_end=0.1)
    with pytest.raises(ValueError):
        evolve_polar(PerturbationState.zeros(grid), params, unit_wave(), config)


def test_equilibrium_is_fixed_point(grid):
    params = SystemParams.constants(u=0.0, v=0.0, m=1.0, kappa=0.5, s1=0.2)
    wave = unit_wave(w0=0.6)
    config = SolverConfig(dt=1e-2, t_end=2.0, cadence=50)
    traj = evolve_polar(PerturbationState.zeros(grid), params, wave, config)
    assert traj.rows[-1]["Hs_pi"] < 1e-13
    assert max(abs(traj.final.rho).max(), abs(traj.final.phi).max(), abs(traj.final.h).max()) < 1e-13


def test_linear_rates_match_eigenvalues_diagonal_slice(grid):
    params = SystemParams.constants(u=0.0, v=0.0, m=0.7)
    wave = unit_wave()
    amp = 1e-6
    state0 = state_from_modes(
        grid, {1: (amp, amp, amp), 2: (amp, amp, amp), 3: (amp, amp, amp)}
    )
    config = SolverConfig(dt=1e-3, t_end=1.0, cadence=100)
    traj = evolve_polar(state0, params, wave, config)
    times = traj.times
    kmin = grid.k_min_positive
    for j in (1, 2, 3):
        k = j * kmin
        expected = {0: -(k**2) - 2.0, 1: -(k**2), 2: -0.7 * k**2}
        for comp, rate in expected.items():
            amps = np.abs(np.array(traj.hats)[:, j, comp])
            fit = np.polyfit(times, np.log(amps), 1)[0]
            assert fit == pytest.approx(rate, rel=1e-3)


def test_linear_rates_match_eigenvalues_coupled_slice(grid):
    params = SystemParams.constants(u=0.0, v=0.0, m=1.3, kappa=0.8, s1=0.5, s2=0.3)
    wave = unit_wave(w0=0.2)
    mats = true_linearization(params, wave)
    j, kmin = 2, grid.k_min_positive
    k = j * kmin
    M = dispersion.pencil(mats, k)
    vals, vecs = np.linalg.eig(M)
    lead = int(np.argmax(vals.real))
    amp = 1e-6
    state0 = state_from_modes(grid, {j: amp * vecs[:, lead]})
    config = SolverConfig(dt=1e-3, t_end=2.0, cadence=100)
    traj = evolve_polar(state0, params, wave, config)
    amps = traj.mode_amplitudes(j)
    fit = np.polyfit(traj.times, np.log(amps), 1)[0]
    assert fit == pytest.approx(vals[lead].real, rel=1e-3)


def test_linear_rate_converges_with_amplitude(grid):
    # The fitted rate approaches the dispersion eigenvalue as the seed
    # amplitude shrinks; the deviation is dominated by the quadratic terms
    # and drops by roughly the amplitude ratio.
    params = SystemParams.constants(u=0.0, v=0.0, m=1.1, kappa=0.8, s1=0.4)
    wave = unit_wave()
    mats = true_linearization(params, wave)
    j = 1
    k = j * grid.k_min_positive
    M = dispersion.pencil(mats, k)
    vals, vecs = np.linalg.eig(M)
    lead = int(np.argmax(vals.real))
    config = SolverConfig(dt=1e-3, t_end=1.0, cadence=50)
    deviations = []
    for amp in (1e-4, 1e-6, 1e-8):
        state0 = state_from_modes(grid, {j: amp * vecs[:, lead]})
        traj = evolve_polar(state0, params, wave, config)
        fit = np.polyfit(traj.times, np.log(traj.mode_amplitudes(j)), 1)[0]
        deviations.append(abs(fit - vals[lead].real))
    assert deviations[1] < deviations[0] / 10.0
    assert deviations[2] <= deviations[1]
    assert deviations[2] < 1e-6


def test_polar_matches_full_system(grid):
    # Dual-formulation agreement on a constant-coefficient carrier slice.
    length = 2.0 * np.pi * np.sqrt(2.0)
    g = Grid(dim=1, n=64, length=length)
    theta0 = g.k_min_positive
    r0 = float(np.sqrt(1.0 - theta0**2))
    params = SystemParams.constants(u=1.0, v=-1.0, xi=1.0, m=1.0, kappa=0.5)
    wave = PlaneWave(r0=r0, theta0=theta0, w0=0.0)
    wave.validate(params, tol=1e-12)
    rng = np.random.default_rng(2)
    state0 = state_from_modes(
        g, {j: 1e-3 * (rng.normal(size=3) + 1j * rng.normal(size=3)) for j in (1, 2)}
    )
    config = SolverConfig(dt=5e-4, t_end=0.5, cadence=10**9)
    polar = evolve_polar(state0, params, wave, config)

    P0, W0 = compose_polar(wave, state0)
    full = evolve(
        FieldState(P=P0, omega=(W0,)), params, config=config
    )
    rho_f, phi_f = polar_decompose(full.final.P, wave)
    h_f = full.final.omega[0].physical().real - wave.w0
    err = np.sqrt(
        np.mean(
            (polar.final.rho - rho_f) ** 2
            + (polar.final.phi - phi_f) ** 2
            + (polar.final.h - h_f) ** 2
        )
    )
    assert err < 1e-5


@pytest.mark.parametrize("scheme", ["exponential-rk2", "imex-bdf2"])
def test_polar_scheme_convergence(grid, scheme):
    params = SystemParams.constants(u=0.2, v=0.0, m=1.0, kappa=0.4, s1=0.1)
    wave = unit_wave()
    rng = np.random.default_rng(3)
    state0 = state_from_modes(
        grid, {j: 0.05 * (rng.normal(size=3) + 1j * rng.normal(size=3)) for j in (1, 2)}
    )

    def run(dt):
        config = SolverConfig(dt=dt, t_end=0.5, cadence=10**9, scheme=scheme)
        traj = evolve_polar(state0, params, wave, config)
        return traj.final.stack()

    ref = run(2.5e-4)
    err1 = np.max(np.abs(run(2e-3) - ref))
    err2 = np.max(np.abs(run(1e-3) - ref))
    assert np.log2(err1 / err2) >= 1.8


# -------------------------------------------------------------- experiments


def test_decay_experiment_reference_case():
    grid = Grid(dim=1, n=128, length=2.0 * np.pi)
    params = SystemParams.constants(u=0.0, v=0.0, m=1.0)
    wave = unit_wave()
    rng = np.random.default_rng(4)
    state0 = state_from_modes(
        grid,
        {j: 1e-6 * (rng.normal(size=3) + 1j * rng.normal(size=3)) for j in (1, 2, 3, 4)},
    )
    config = SolverConfig(dt=2e-3, t_end=12.0, cadence=25)
    report = decay_experiment(params, wave, state0, s=1.0, config=config)
    assert report.spectral_gap == pytest.approx(-1.0, abs=1e-12)
    assert report.alpha_reference == pytest.approx(-1.25)
    assert not report.degenerate
    assert report.passed, f"sigma_fit={report.sigma_fit:.4f} vs gap={report.spectral_gap}"


def test_decay_experiment_zero_data_degenerate(grid):
    params = SystemParams.constants(m=1.0)
    config = SolverConfig(dt=1e-2, t_end=1.0, cadence=10)
    report = decay_experiment(
        params, unit_wave(), PerturbationState.zeros(grid), s=1.0, config=config
    )
    assert report.degenerate
    assert not report.passed
    # Zero data leave the fit window empty: nothing is fitted and nothing passes.
    assert report.to_json_dict() == {
        "fit_type": "exponential",
        "rate": 0.0,
        "reference_rate": perturbation.resolved_spectral_gap(params, unit_wave(), grid),
        "rel_err": np.inf,
        "alpha_fit": 0.0,
        "alpha_reference": -0.5 * (1.5 + 1.0),
        "pass": False,
        "degenerate": True,
    }
    assert np.all(report.norms == 0.0)


def test_instability_negative_diffusivity():
    grid = Grid(dim=1, n=128, length=2.0 * np.pi)
    params = SystemParams.constants(u=0.0, v=0.0, m=-1.0)
    wave = unit_wave()
    config = SolverConfig(dt=1e-3, t_end=2.0, cadence=20)
    report = instability_experiment(params, wave, k_seed=2.0, amp=1e-6, config=config, grid=grid)
    assert report.reference_rate == pytest.approx(4.0, abs=1e-9)
    assert report.passed, f"rate={report.rate:.4f}"
    assert report.omega_plus == pytest.approx(1.0, abs=1e-9)


def test_instability_omega_plus_stays_in_the_kept_band(monkeypatch):
    # n = 32 keeps |index| <= 10; the default cutoff 2*k_seed = 16 used to
    # let omega_plus range over k = 1..16.
    grid = Grid(dim=1, n=32, length=2.0 * np.pi)
    params = SystemParams.constants(u=0.0, v=0.0, m=-1.0)
    config = SolverConfig(dt=1e-3, t_end=0.02, cadence=5)
    captured = []

    def spectrum_table(mats, ks):
        captured.append(np.atleast_1d(ks))
        return real_spectrum_table(mats, ks)

    real_spectrum_table = dispersion.spectrum_table
    monkeypatch.setattr(dispersion, "spectrum_table", spectrum_table)
    instability_experiment(params, unit_wave(), k_seed=8.0, amp=1e-6, config=config, grid=grid)
    ks = np.concatenate(captured)
    assert ks.size > 0
    assert np.max(ks) <= 10.0


@pytest.mark.parametrize("k_cutoff", [None, 4.0])
def test_polar_entry_points_refuse_a_two_dimensional_grid(k_cutoff):
    # The kept band is a band of 1D real-FFT modes; a 2D grid used to fail
    # inside it with numpy's "too many indices for array", and a 2D
    # transform of the hats would fail to unpack into (rho, phi, h).
    grid = Grid(dim=2, n=16)
    params = SystemParams.constants(u=0.0, v=0.0, m=1.0)
    config = SolverConfig(dt=1e-3, t_end=0.01, k_cutoff=k_cutoff)
    with pytest.raises(ValueError, match="polar perturbations are one-dimensional"):
        perturbation.resolved_spectral_gap(params, unit_wave(), grid, k_cutoff)
    with pytest.raises(ValueError, match="polar perturbations are one-dimensional"):
        instability_experiment(params, unit_wave(), 1.0, 1e-6, config, grid=grid)
    with pytest.raises(ValueError, match="polar perturbations are one-dimensional"):
        PerturbationState.from_hats(grid, np.zeros((grid.n // 2 + 1, 3), dtype=complex))


def test_instability_contrapositive_stable_slice():
    grid = Grid(dim=1, n=128, length=2.0 * np.pi)
    params = SystemParams.constants(u=0.0, v=0.0, m=1.0)
    wave = unit_wave()
    config = SolverConfig(dt=1e-3, t_end=2.0, cadence=20)
    report = instability_experiment(params, wave, k_seed=2.0, amp=1e-6, config=config, grid=grid)
    assert report.rate < 0.0
    assert report.omega_plus == 0.0


def test_instability_positive_diffusivity_dispersive_band():
    # Positive drift diffusivity with strong amplitude-dependent nonlinear
    # dispersion: the fast branch grows on a finite band.
    grid = Grid(dim=1, n=128, length=2.0 * np.pi)
    params = SystemParams(
        u_coeffs=(0.0, -0.5),
        v_coeffs=(-10.0, 10.0),
        m=1.0,
        kappa_coeffs=(0.0, 0.0),
    )
    wave = unit_wave()
    wave.validate(params, tol=1e-12)
    mats = dispersion.build_matrices(params, wave, "kappa_gradient")
    lam = dispersion.spectrum_table(mats, np.array([1.0]))[0]
    assert lam[0].real > 0.0  # growing branch with positive diffusivity
    config = SolverConfig(dt=2e-3, t_end=14.0, cadence=50)
    report = instability_experiment(params, wave, k_seed=1.0, amp=1e-6, config=config, grid=grid)
    assert report.passed, f"rate={report.rate:.4f} vs {report.reference_rate:.4f}"


# ------------------------------------------------------------------- guards


def _small_polar_state(grid):
    return state_from_modes(grid, {1: 1e-3 * np.ones(3), 2: 1e-3 * np.array([1.0, -1.0, 0.5])})


@pytest.mark.parametrize("scheme", ["exponential-rk2", "imex-bdf2"])
@pytest.mark.parametrize("field", ["rho", "phi", "h"])
def test_polar_nan_raises_step_unstable(grid, scheme, field):
    state = _small_polar_state(grid)
    getattr(state, field)[7] = np.nan
    params = SystemParams.constants(u=0.2, m=1.0, kappa=0.4)
    config = SolverConfig(dt=1e-3, t_end=1e-2, scheme=scheme)
    with pytest.raises(StepUnstable):
        evolve_polar(state, params, unit_wave(), config)
    traj = evolve_polar(state, params, unit_wave(), config, tolerate_blowup=True)
    assert traj.status == "unstable"


@pytest.mark.parametrize("scheme", SCHEMES)
def test_polar_step_unstable_keeps_the_recorded_rows(grid, scheme):
    # An m < 0 band grows until the blow-up guard trips in the step from
    # t = 0.74; the error used to reach the caller with no rows, though 8
    # were recorded.
    hats = np.zeros((grid.n // 2 + 1, 3), dtype=complex)
    hats[2] = 1e-3
    state = PerturbationState.from_hats(grid, hats)
    params = SystemParams.constants(m=-1.0)
    wave = PlaneWave(1.0, 0.0)
    config = SolverConfig(
        dt=1e-2, t_end=20.0, cadence=10, blowup_threshold=0.1, k_cutoff=4.0, scheme=scheme
    )
    with pytest.raises(StepUnstable) as excinfo:
        evolve_polar(state, params, wave, config)
    traj = evolve_polar(state, params, wave, config, tolerate_blowup=True)
    assert traj.status == "unstable"
    assert len(traj.rows) == len(traj.hats) == 8
    assert excinfo.value.rows == traj.rows
    assert excinfo.value.last[1] == traj.final.t == pytest.approx(0.74)
    # ETD2 trips in its second stage, at t + dt; BDF2 at the step's start.
    assert excinfo.value.t == pytest.approx(0.75 if scheme == "exponential-rk2" else 0.74)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_polar_chart_breakdown_keeps_the_recorded_rows(grid, scheme):
    # The same m < 0 band with the default blow-up threshold leaves the
    # chart in the step from t = 1.25; the error used to reach the caller
    # with no rows, though 13 were recorded.  Under tolerate_blowup the run
    # ends early with those rows, as after a StepUnstable.
    hats = np.zeros((grid.n // 2 + 1, 3), dtype=complex)
    hats[2] = 1e-3
    state = PerturbationState.from_hats(grid, hats)
    params = SystemParams.constants(m=-1.0)
    config = SolverConfig(dt=1e-2, t_end=20.0, cadence=10, k_cutoff=4.0, scheme=scheme)
    with pytest.raises(ChartBreakdown) as excinfo:
        evolve_polar(state, params, unit_wave(), config)
    exc = excinfo.value
    assert exc.t == pytest.approx(1.26)
    assert [row["t"] for row in exc.rows] == pytest.approx(np.arange(13) / 10)
    # ETD2 trips in its second stage, at t + dt; BDF2 at the step's start.
    assert exc.last[1] == pytest.approx(1.25 if scheme == "exponential-rk2" else 1.26)
    assert exc.last[0].shape == (5, 3)
    traj = evolve_polar(state, params, unit_wave(), config, tolerate_blowup=True)
    assert traj.status == "chart_breakdown"
    assert traj.rows == exc.rows
    assert len(traj.hats) == 13
    assert traj.final.t == exc.last[1]


def test_evolve_polar_ends_at_t_end_or_refuses_to_start(grid):
    params = SystemParams.constants(m=1.0)
    state = _small_polar_state(grid)
    for t_end in (1.0, -0.3):
        with pytest.raises(ValueError, match="whole number of steps"):
            evolve_polar(state, params, unit_wave(), SolverConfig(dt=0.3, t_end=t_end))
    traj = evolve_polar(state, params, unit_wave(), SolverConfig(dt=0.3, t_end=0.9))
    assert traj.final.t == pytest.approx(0.9, rel=1e-12)


def test_polar_bdf2_first_step_evaluates_rhs_twice(grid, monkeypatch):
    calls = []
    rhs = perturbation._PolarWorkspace.rhs_hats

    def counting(self, hats, t):
        calls.append(t)
        return rhs(self, hats, t)

    monkeypatch.setattr(perturbation._PolarWorkspace, "rhs_hats", counting)
    params = SystemParams.constants(u=0.2, m=1.0, kappa=0.4)
    for steps, evaluations in ((1, 2), (3, 4)):
        calls.clear()
        config = SolverConfig(dt=1e-3, t_end=steps * 1e-3, scheme="imex-bdf2")
        evolve_polar(_small_polar_state(grid), params, unit_wave(), config)
        assert len(calls) == evaluations


def test_ill_posed_band_is_refused_before_the_first_step(monkeypatch):
    # With m < 0 and no cutoff, one step of exp(M*dt) amplified the kept
    # mode k = 341 by about 3e50; the run then died in its first step with
    # a magnitude error that did not say why.
    grid = Grid(dim=1, n=1024, length=2.0 * np.pi)
    params = SystemParams.constants(m=-1.0)
    monkeypatch.setattr(perturbation._PolarWorkspace, "rhs_hats", None)
    config = SolverConfig(dt=1e-3, t_end=1e-2)
    with pytest.raises(ValueError, match=r"k = 341\b.*k_cutoff"):
        evolve_polar(_small_polar_state(grid), params, unit_wave(), config)
    # A threshold below 1 bounds the data, not a gain: the magnitude guard
    # stops such a run in its first step.
    config = SolverConfig(dt=1e-3, t_end=1e-2, blowup_threshold=0.5)
    monkeypatch.undo()
    with pytest.raises(StepUnstable):
        evolve_polar(_small_polar_state(grid), params, unit_wave(), config)


def test_cutoff_keeps_a_negative_diffusivity_band_well_posed():
    grid = Grid(dim=1, n=1024, length=2.0 * np.pi)
    params = SystemParams.constants(m=-1.0)
    config = SolverConfig(dt=1e-3, t_end=1e-2, k_cutoff=4.0)
    traj = evolve_polar(_small_polar_state(grid), params, unit_wave(), config)
    assert traj.final.t == pytest.approx(1e-2)


def test_evolve_polar_refuses_data_outside_the_chart(grid, monkeypatch):
    # decay-fit with amp = 0.5 used to report "ChartBreakdown at t = 0"
    # from the first right-hand side; evolve refuses bad data before stepping.
    x = grid.axis_coordinates()
    params = SystemParams.constants(m=1.0)
    calls = []
    rhs = perturbation._PolarWorkspace.rhs_hats

    def counting(self, hats, t):
        calls.append(t)
        return rhs(self, hats, t)

    monkeypatch.setattr(perturbation._PolarWorkspace, "rhs_hats", counting)
    for scheme in SCHEMES:
        config = SolverConfig(dt=1e-3, t_end=1e-2, scheme=scheme)
        for depth in (1.5, 1.0):
            state = PerturbationState(
                grid=grid, rho=-depth * np.cos(x), phi=np.zeros(grid.n), h=np.zeros(grid.n)
            )
            for tolerate in (False, True):
                calls.clear()
                with pytest.raises(ValueError, match="polar chart"):
                    evolve_polar(state, params, unit_wave(), config, tolerate_blowup=tolerate)
                assert calls == [0.0]
    state = PerturbationState(
        grid=grid, rho=-0.98 * np.cos(x), phi=np.zeros(grid.n), h=np.zeros(grid.n)
    )
    config = SolverConfig(dt=1e-3, t_end=1e-3)
    assert evolve_polar(state, params, unit_wave(), config).final.t == pytest.approx(1e-3)
