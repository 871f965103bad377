from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cglburgers.littlewood_paley import (
    BesovIndex,
    OutOfRange,
    annulus_field,
    besov_norm,
    bony_split,
    check_semigroup_decay,
    check_smoothing_estimate,
    chi_profile,
    dyadic_block,
    heat_solution_series,
    partition_for,
    phi_profile,
    smallness_monitor,
)
from cglburgers.solver import FieldState, Forcing
from cglburgers.spectral import Grid, SpectralField, band_limited_noise, lp_norm


@pytest.fixture
def grid():
    return Grid(dim=1, n=128, length=2.0 * np.pi)


def test_profile_supports():
    xi = np.linspace(0.0, 4.0, 2001)
    chi = chi_profile(xi)
    phi = phi_profile(xi)
    assert np.all(chi[xi <= 0.75] == 1.0)
    assert np.all(chi[xi >= 4.0 / 3.0] == 0.0)
    assert np.all(phi[xi < 0.75] == 0.0)
    assert np.all(phi[xi > 8.0 / 3.0] == 0.0)
    assert np.all((0.0 <= phi) & (phi <= 1.0))


def test_partitions_of_unity(grid):
    part = partition_for(grid)
    dev_nh, dev_h = part.partition_deviation()
    assert dev_nh <= 1e-12
    assert dev_h <= 1e-12


def test_partition_of_unity_2d():
    part = partition_for(Grid(dim=2, n=32, length=2.0 * np.pi))
    dev_nh, dev_h = part.partition_deviation()
    assert dev_nh <= 1e-12
    assert dev_h <= 1e-12


def test_quadratic_sum_bounds(grid):
    lo, hi = partition_for(grid).quadratic_sum_bounds()
    assert lo >= 1.0 / 3.0 - 1e-12
    assert hi <= 1.0 + 1e-12


def test_support_disjointness(grid):
    part = partition_for(grid)
    kmag = grid.k_magnitude
    for q in part.homogeneous_range():
        for p in part.homogeneous_range():
            if abs(p - q) >= 2:
                overlap = np.min(part.phi(q) * part.phi(p))
                assert np.max(part.phi(q) * part.phi(p)) == 0.0
    # Low-pass against annulus blocks at q >= 1.
    for q in part.nonhomogeneous_range():
        if q >= 1:
            assert np.max(part.chi * part.phi(q)) == 0.0


def test_low_pass_telescopes(grid):
    # The multiplier chi(k / 2**q) of S_q equals the sum of all blocks below
    # scale q, exactly.
    part = partition_for(grid)
    for q in (0, 1, 3, part.q_max):
        total = part.chi.copy()
        for p in range(0, q):
            total = total + part.phi(p)
        assert np.max(np.abs(chi_profile(grid.k_magnitude / 2.0**q) - total)) < 1e-14


def test_single_mode_block_locality(grid):
    q0 = 2
    coeffs = np.zeros(grid.shape, dtype=complex)
    coeffs[2**q0] = 1.0  # |k| = 2^q0
    f = SpectralField.from_spectral(grid, coeffs)
    assert lp_norm(dyadic_block(f, q0), 2.0) > 0.0
    for dq in (-2, 2):
        assert lp_norm(dyadic_block(f, q0 + dq), 2.0) == pytest.approx(0.0, abs=1e-15)


def test_homogeneous_blocks_reconstruct(grid):
    rng = np.random.default_rng(0)
    f = band_limited_noise(grid, rng, zero_mean=True)
    part = partition_for(grid)
    total = np.zeros(grid.shape, dtype=complex)
    for q in part.homogeneous_range():
        total = total + dyadic_block(f, q).spectral()
    scale = np.max(np.abs(f.spectral()))
    assert np.max(np.abs(total - f.spectral())) <= 1e-10 * scale


def test_parseval_split_bracket(grid):
    rng = np.random.default_rng(1)
    for _ in range(10):
        f = band_limited_noise(grid, rng, zero_mean=True)
        part = partition_for(grid)
        total = sum(
            lp_norm(dyadic_block(f, q), 2.0) ** 2 for q in part.homogeneous_range()
        )
        ratio = total / lp_norm(f, 2.0) ** 2
        assert 1.0 / 3.0 - 1e-10 <= ratio <= 1.0 + 1e-10


def test_block_out_of_range(grid):
    f = SpectralField.zeros(grid)
    part = partition_for(grid)
    with pytest.raises(OutOfRange):
        dyadic_block(f, part.q_max + 1)
    with pytest.raises(OutOfRange):
        dyadic_block(f, part.q_min - 1)
    # No nonhomogeneous block lies below the low-pass block q = -1.
    assert part.nonhomogeneous_blocks[0][0] == -1.0


def test_besov_zero(grid):
    assert besov_norm(SpectralField.zeros(grid), BesovIndex(s=0.5)) == 0.0


def test_besov_exact_single_block(grid):
    # |k| = 6 sits where phi(q=2) is identically one and neighbors vanish.
    coeffs = np.zeros(grid.shape, dtype=complex)
    coeffs[6] = 2.0
    f = SpectralField.from_spectral(grid, coeffs)
    for s in (0.0, 1.0, -0.5):
        for r in (1.0, 2.0, np.inf):
            idx = BesovIndex(s=s, p=2.0, r=r)
            assert besov_norm(f, idx) == pytest.approx(
                2.0**(2 * s) * lp_norm(f, 2.0), rel=1e-12
            )


def test_besov_single_mode_bracket(grid):
    # A mode at |k| = 2^q0 splits over blocks q0-1 and q0 with weights
    # summing to one; the r = 1 norm is then bracketed by the scale weights.
    q0, s = 3, 1.0
    coeffs = np.zeros(grid.shape, dtype=complex)
    coeffs[2**q0] = 1.0
    f = SpectralField.from_spectral(grid, coeffs)
    norm = besov_norm(f, BesovIndex(s=s, p=2.0, r=1.0))
    base = lp_norm(f, 2.0)
    assert 2.0 ** ((q0 - 1) * s) * base - 1e-12 <= norm <= 2.0 ** (q0 * s) * base + 1e-12


def test_besov_l2_within_parseval_bracket(grid):
    rng = np.random.default_rng(2)
    f = band_limited_noise(grid, rng, zero_mean=True)
    norm = besov_norm(f, BesovIndex(s=0.0, p=2.0, r=2.0))
    l2 = lp_norm(f, 2.0)
    assert 1.0 / np.sqrt(3.0) * l2 - 1e-12 <= norm <= l2 + 1e-12


def test_bony_zero(grid):
    u = SpectralField.zeros(grid)
    rng = np.random.default_rng(3)
    v = band_limited_noise(grid, rng, max_index=grid.n // 8)
    tuv, tvu, ruv = bony_split(u, v)
    for part_field in (tuv, tvu, ruv):
        assert np.max(np.abs(part_field.physical())) == 0.0


def test_bony_identity(grid):
    rng = np.random.default_rng(4)
    for _ in range(5):
        u = band_limited_noise(grid, rng, max_index=grid.n // 8)
        v = band_limited_noise(grid, rng, max_index=grid.n // 8)
        tuv, tvu, ruv = bony_split(u, v)
        product = u.physical() * v.physical()
        err = np.max(np.abs(tuv.physical() + tvu.physical() + ruv.physical() - product))
        assert err <= 1e-10 * max(np.max(np.abs(product)), 1.0)


def test_bony_rejects_wide_band(grid):
    rng = np.random.default_rng(5)
    u = band_limited_noise(grid, rng, max_index=grid.n // 3)
    v = band_limited_noise(grid, rng, max_index=grid.n // 8)
    with pytest.raises(ValueError):
        bony_split(u, v)


def test_bony_scale_separation(grid):
    # Low mode times a mode four dyadic scales higher: the product lives in
    # the paraproduct with the low-frequency factor.
    lowc = np.zeros(grid.shape, dtype=complex)
    lowc[1] = 1.0
    highc = np.zeros(grid.shape, dtype=complex)
    highc[16] = 1.0
    u = SpectralField.from_spectral(grid, lowc)
    v = SpectralField.from_spectral(grid, highc)
    tuv, tvu, ruv = bony_split(u, v)
    product = u.physical() * v.physical()
    scale = np.max(np.abs(product))
    assert np.max(np.abs(tuv.physical() - product)) < 1e-12 * scale
    assert np.max(np.abs(tvu.physical())) < 1e-12 * scale
    assert np.max(np.abs(ruv.physical())) < 1e-12 * scale


def test_semigroup_decay_single_mode(grid):
    t_grid = np.linspace(0.0, 0.2, 9)
    for q in (1, 2, 3):
        field = annulus_field(grid, q, single_mode=True)
        rep = check_semigroup_decay(grid, q, mu=1.3, u_disp=0.0, t_grid=t_grid, test_field=field)
        # Single mode at |k| = 2^q: fitted c * 4^q equals |k|^2 exactly.
        assert rep.fitted_c * 4.0**q == pytest.approx(4.0**q, rel=1e-8)
        assert rep.passed


def test_semigroup_decay_dispersion_invariance(grid):
    t_grid = np.linspace(0.0, 0.2, 9)
    field = annulus_field(grid, 2, rng=np.random.default_rng(6))
    plain = check_semigroup_decay(grid, 2, 1.0, 0.0, t_grid, p=2.0, test_field=field)
    rotated = check_semigroup_decay(grid, 2, 1.0, 4.0, t_grid, p=2.0, test_field=field)
    assert rotated.fitted_c == pytest.approx(plain.fitted_c, rel=1e-12)


def test_semigroup_decay_random_annulus_sup_norm(grid):
    t_grid = np.linspace(0.0, 0.05, 11)
    rep = check_semigroup_decay(
        grid, 3, mu=0.7, u_disp=0.0, t_grid=t_grid, p=np.inf,
        rng=np.random.default_rng(7),
    )
    assert rep.passed


@pytest.mark.parametrize("p", [0.5, 0.0, np.nan])
def test_semigroup_decay_refuses_an_exponent_below_one(grid, p):
    # As BesovIndex does: below 1 the L^p "norm" is no norm.
    with pytest.raises(ValueError, match=r"p must lie in \[1, inf\]"):
        check_semigroup_decay(grid, 3, mu=0.7, u_disp=0.0, t_grid=np.linspace(0.0, 0.05, 3), p=p)


def test_semigroup_scaling_law(grid):
    t_grids = {q: np.linspace(0.0, 0.2 / 4.0**q, 9) for q in (1, 2, 3, 4)}
    fitted = {}
    for q in (1, 2, 3, 4):
        field = annulus_field(grid, q, single_mode=True)
        rep = check_semigroup_decay(
            grid, q, mu=1.0, u_disp=0.0, t_grid=t_grids[q], test_field=field
        )
        fitted[q] = rep.fitted_c * 4.0**q
    for q in (1, 2, 3):
        assert fitted[q + 1] / fitted[q] == pytest.approx(4.0, rel=0.05)


def test_heat_series_pure_decay(grid):
    coeffs = np.zeros(grid.shape, dtype=complex)
    coeffs[4] = 1.0
    f0 = SpectralField.from_spectral(grid, coeffs)
    times = np.linspace(0.0, 0.5, 33)
    fields = heat_solution_series(f0, None, mu=1.0, u_disp=0.3, times=times)
    got = np.array([np.abs(f.spectral()[4]) for f in fields])
    assert np.max(np.abs(got - np.exp(-16.0 * times))) < 1e-12


def test_heat_series_constant_source(grid):
    coeffs = np.zeros(grid.shape, dtype=complex)
    coeffs[2] = 0.5
    source = SpectralField.from_spectral(grid, coeffs)
    f0 = SpectralField.zeros(grid)
    times = np.linspace(0.0, 1.0, 257)
    fields = heat_solution_series(
        f0, Forcing(f1=lambda t: source), mu=1.0, u_disp=0.0, times=times
    )
    z = 4.0
    exact = 0.5 * (1.0 - np.exp(-z)) / z
    assert np.abs(fields[-1].spectral()[2] - exact) < 1e-10


def test_smoothing_single_block_closed_form(grid):
    # One mode, no source: every norm in the estimate is a one-term integral.
    k0, mu, sigma, t_end = 4, 1.0, 0.0, 1.0
    coeffs = np.zeros(grid.shape, dtype=complex)
    coeffs[k0] = 1.0
    f0 = SpectralField.from_spectral(grid, coeffs)
    idx = BesovIndex(s=sigma, p=2.0, r=1.0, rho=1.0)
    rep = check_smoothing_estimate(f0, None, mu, 0.0, idx, rho1=1.0, t_end=t_end, n_steps=2048)
    part = partition_for(grid)
    expected_lhs = 0.0
    for q in part.homogeneous_range():
        weight = float(part.phi(q)[k0])
        if weight == 0.0:
            continue
        integral = (1.0 - np.exp(-mu * k0**2 * t_end)) / (mu * k0**2)
        expected_lhs += 2.0 ** (q * (sigma + 2.0)) * weight * integral
    assert rep.lhs == pytest.approx(mu * expected_lhs, rel=1e-4)
    assert rep.ratio > 0.0 and np.isfinite(rep.ratio)


def test_smoothing_zero_data_ratio_zero(grid):
    rep = check_smoothing_estimate(
        SpectralField.zeros(grid), None, 1.0, 0.0, BesovIndex(s=0.0, rho=1.0), rho1=1.0
    )
    assert rep.ratio == 0.0


def test_smoothing_mu_rescaling(grid):
    rng = np.random.default_rng(8)
    f0 = band_limited_noise(grid, rng, max_index=grid.n // 4, zero_mean=True)
    idx = BesovIndex(s=0.5, p=2.0, r=1.0, rho=1.0)
    reps = [
        check_smoothing_estimate(f0, None, mu, 0.0, idx, rho1=1.0, t_end=6.0, n_steps=512)
        for mu in (1.0, 2.0)
    ]
    assert reps[1].ratio == pytest.approx(reps[0].ratio, rel=1e-3)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    cases=st.integers(1, 5),
    forced=st.booleans(),
    p=st.sampled_from((1.0, 2.0, 3.0, np.inf)),
    r=st.sampled_from((1.0, 2.0, np.inf)),
    rho=st.sampled_from((1.0, 2.0)),
    rho1=st.sampled_from((1.0, 2.0, np.inf)),
)
def test_smoothing_estimate_sequence_matches_the_single_calls_bitwise(
    seed, cases, forced, p, r, rho, rho1
):
    grid = Grid(dim=1, n=64, length=2.0 * np.pi)
    rng = np.random.default_rng(seed)
    fields = [
        band_limited_noise(grid, rng, max_index=grid.n // 4, zero_mean=True) for _ in range(cases)
    ]
    g = None
    if forced:
        src = band_limited_noise(grid, rng, max_index=grid.n // 4, zero_mean=True)
        g = Forcing(f1=lambda t: src.physical() * (1.0 + t))
    idx = BesovIndex(s=1.0 / p - 1.0, p=p, r=r, rho=rho)
    args = (g, 1.3, 0.4, idx, rho1)
    reports = check_smoothing_estimate(fields, *args, t_end=2.0, n_steps=16)
    assert isinstance(reports, list) and len(reports) == cases
    for f, rep in zip(fields, reports):
        single = check_smoothing_estimate(f, *args, t_end=2.0, n_steps=16)
        assert [float(v).hex() for v in astuple(rep)] == [float(v).hex() for v in astuple(single)]


def test_smallness_monitor_zero_and_homogeneity(grid):
    state = FieldState.zeros(grid)
    assert smallness_monitor(state, p=2.0) == 0.0
    rng = np.random.default_rng(9)
    P = band_limited_noise(grid, rng, zero_mean=True)
    W = band_limited_noise(grid, rng, real=True, zero_mean=True)
    state = FieldState(P=P, omega=(W,))
    base = smallness_monitor(state, p=2.0)
    scaled = FieldState(
        P=SpectralField.from_spectral(grid, 3.0 * P.spectral()),
        omega=(SpectralField.from_spectral(grid, 3.0 * W.spectral()),),
    )
    assert smallness_monitor(scaled, p=2.0) == pytest.approx(3.0 * base, rel=1e-12)


def test_smallness_monitor_single_block_bracket(grid):
    coeffs = np.zeros(grid.shape, dtype=complex)
    coeffs[6] = 1.0  # exact single block at q = 2
    f = SpectralField.from_spectral(grid, coeffs)
    state = FieldState(P=f, omega=(SpectralField.zeros(grid),))
    p = 2.0
    s = grid.dim / p - 1.0
    assert smallness_monitor(state, p=p) == pytest.approx(
        2.0 ** (2 * s) * lp_norm(f, p), rel=1e-12
    )


# A period of 2 puts the lowest annulus at q_min = 1, above the first
# nonhomogeneous block q = 0, which is then empty on the grid.
SHORT = Grid(dim=1, n=64, length=2.0)


def test_short_period_nonhomogeneous_blocks():
    part = partition_for(SHORT)
    assert part.q_min == 1
    assert part.partition_deviation()[0] <= 1e-15
    f = band_limited_noise(SHORT, np.random.default_rng(12))
    blocks = dict(zip(*part.nonhomogeneous_blocks))
    assert np.all(f.spectral() * blocks[0] == 0.0)
    for q in range(part.q_min, part.q_max + 1):
        np.testing.assert_array_equal(f.spectral() * blocks[q], dyadic_block(f, q).spectral())


def test_short_period_bony_identity():
    rng = np.random.default_rng(13)
    u = band_limited_noise(SHORT, rng, max_index=SHORT.n // 8)
    v = band_limited_noise(SHORT, rng, max_index=SHORT.n // 8)
    tuv, tvu, ruv = bony_split(u, v)
    product = u.physical() * v.physical()
    err = np.max(np.abs(tuv.physical() + tvu.physical() + ruv.physical() - product))
    assert err <= 1e-10 * max(np.max(np.abs(product)), 1.0)
