import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cglburgers import dispersion
from cglburgers.dispersion import (
    COUPLING_MODES,
    EmptySampleSet,
    build_matrices,
    classify_spectrum,
    closed_form_lambda,
    closed_form_ab,
    closed_form_real_parts,
    compare_closed_form,
    default_k_grid,
    pencil,
    spectrum_table,
    stability_conditions,
    true_linearization,
)
from cglburgers.model import (
    NoRealSolution,
    PlaneWave,
    SystemParams,
    solve_plane_wave,
)

from helpers import (
    closed_form_lambda_coupled,
    coupled_case_printed,
    random_constrained_pair,
    sort_triple,
)


def unit_wave(w0=0.0):
    return PlaneWave(r0=1.0, theta0=0.0, w0=w0)


def test_build_matrices_unit_wave():
    params = SystemParams.constants(m=1.0, s1=0.4, s2=-0.2)
    mats = build_matrices(params, unit_wave(w0=0.7))
    assert np.allclose(mats.A, np.eye(3))
    expected_B = np.diag([-0.7, -0.7, -0.7]).astype(float)
    expected_B[0, 2] = -0.4
    expected_B[1, 2] = 0.2
    assert np.allclose(mats.B, expected_B)
    expected_C = np.zeros((3, 3))
    expected_C[0, 0] = -2.0
    assert np.allclose(mats.C, expected_C)


def test_zero_carrier_removes_carrier_entries():
    params = SystemParams.constants(u=0.5, v=0.0, m=2.0)
    mats = build_matrices(params, unit_wave())
    assert mats.B[0, 1] == 0.0
    assert mats.C[1, 2] == 0.0


def test_constant_coupling_entry():
    params = SystemParams.constants(kappa=1.0)
    mats = build_matrices(params, unit_wave(), coupling="kappa_constant")
    assert mats.C[2, 0] == pytest.approx(-2.0)
    grad = build_matrices(params, unit_wave(), coupling="kappa_gradient")
    assert grad.B[2, 0] == pytest.approx(-2.0)
    assert grad.C[2, 0] == 0.0


def test_the_default_placement_is_the_gradient_one():
    # The default used to be a third placement that dropped kappa.
    params = SystemParams.constants(kappa=0.5, s1=0.3)
    wave = PlaneWave(r0=0.8, theta0=0.6, w0=0.2)
    default, grad = build_matrices(params, wave), build_matrices(params, wave, "kappa_gradient")
    for got, want in zip((default.A, default.B, default.C), (grad.A, grad.B, grad.C)):
        assert np.array_equal(got, want)
    assert default.B[2, 0] == -2.0 * 0.8 * 0.5
    assert COUPLING_MODES == ("kappa_constant", "kappa_gradient")
    with pytest.raises(ValueError, match="coupling must be one of"):
        build_matrices(params, wave, "kappa_zero")


def test_unit_wave_eigenvalues_k1():
    params = SystemParams.constants(m=1.0)
    mats = build_matrices(params, unit_wave())
    lams = spectrum_table(mats, np.array([1.0]))[0]
    assert np.allclose(sorted(lams.real, reverse=True), [-1.0, -1.0, -3.0], atol=1e-12)
    assert np.allclose(lams.imag, 0.0, atol=1e-12)


def test_k_zero_reduces_to_zeroth_order_matrix():
    params = SystemParams.constants(m=1.0)
    mats = build_matrices(params, unit_wave())
    lams = spectrum_table(mats, np.array([0.0]))[0]
    assert np.allclose(sorted(lams.real, reverse=True), [0.0, 0.0, -2.0], atol=1e-12)


def test_pure_carrier_case():
    # Zero amplitude, unit carrier: two coincident diffusive branches.
    params = SystemParams.constants(u=0.0, v=-0.8, m=1.6)
    wave = PlaneWave(r0=0.0, theta0=1.0, w0=0.4)
    mats = build_matrices(params, wave)
    for k in (0.5, 1.0, 3.3):
        lam = sort_triple(spectrum_table(mats, np.array([k]))[0])
        expected = sort_triple(
            np.array(
                [
                    -(k**2) * 1.6 - 0.4j * k,
                    -(k**2) - 0.4j * k,
                    -(k**2) - 0.4j * k,
                ]
            )
        )
        assert np.max(np.abs(lam - expected)) < 1e-10


def test_zero_dispersion_generic_amplitude_slow_branch():
    # On the circle with u = v = 0, the slow branch of the determinant
    # carries twice the squared amplitude; see the decisions notes for the
    # alternate printed form that coincides only at r0 in {0, 1}.
    params = SystemParams.constants(u=0.0, v=0.0, m=1.1)
    wave = PlaneWave(r0=0.6, theta0=0.8, w0=0.4)
    mats = build_matrices(params, wave)
    for k in (0.7, 1.3, 3.0):
        lam = sort_triple(spectrum_table(mats, np.array([k]))[0])
        drift = -0.4j * k
        expected = sort_triple(
            np.array(
                [
                    -(k**2) * 1.1 + drift,
                    -(k**2) + drift,
                    -2.0 * 0.6**2 - k**2 + drift,
                ]
            )
        )
        assert np.max(np.abs(lam - expected)) < 1e-10


def test_conjugate_symmetry():
    rng = np.random.default_rng(11)
    params, wave = random_constrained_pair(rng)
    mats = build_matrices(params, wave)
    ks = np.array([0.3, 1.7, 4.0])
    plus = spectrum_table(mats, ks)
    minus = spectrum_table(mats, -ks)
    assert np.max(np.abs(sort_triple(np.conj(minus)) - sort_triple(plus))) < 1e-9


def test_closed_form_matches_oracle_on_valid_slices():
    rng = np.random.default_rng(12)
    ks = np.linspace(-8, 8, 101)
    for _ in range(25):
        # Zero-carrier slice with vanishing nonlinear dispersion: the printed
        # radicand coincides with the pencil discriminant.
        c0, c1 = rng.normal(size=2)
        params = SystemParams(
            u_coeffs=(float(c0), float(c1)),
            v_coeffs=(0.0, 0.0),
            m=float(rng.uniform(0.3, 2.0)),
        )
        wave = PlaneWave(r0=1.0, theta0=0.0, w0=float(rng.normal()))
        cmp = compare_closed_form(params, wave, ks)
        assert cmp.agrees, f"deviation {cmp.max_deviation:.2e} at k={cmp.k_worst}"


def test_closed_form_discrepancies_are_explained():
    rng = np.random.default_rng(13)
    ks = np.linspace(-8, 8, 101)
    n_disagree = 0
    for _ in range(25):
        params, wave = random_constrained_pair(rng)
        cmp = compare_closed_form(params, wave, ks)
        assert cmp.explained
        if not cmp.agrees:
            n_disagree += 1
    # Generic draws with carrier and nonlinear dispersion do deviate.
    assert n_disagree > 0


def test_the_closed_form_comparison_refuses_a_coupling():
    # The printed closed form reads no kappa.  The comparison used to build
    # its oracle with kappa dropped too, and reported agreement.
    params = SystemParams.constants(kappa=0.5)
    with pytest.raises(ValueError, match=r"reads no kappa; kappa\(r0\) = 0.5 is not 0"):
        compare_closed_form(params, unit_wave(), np.linspace(-8, 8, 101))


def test_real_parts_match_principal_root():
    rng = np.random.default_rng(14)
    params, wave = random_constrained_pair(rng)
    ks = np.linspace(-5, 5, 41)
    _, lam2, lam3 = closed_form_lambda(params, wave, ks)
    re_plus, re_minus = closed_form_real_parts(params, wave, ks)
    assert np.max(np.abs(lam2.real - re_plus)) < 1e-12
    assert np.max(np.abs(lam3.real - re_minus)) < 1e-12


def test_imaginary_parts_exact_when_radicand_real():
    params = SystemParams(u_coeffs=(0.4, 0.0), v_coeffs=(0.0, 0.0))
    wave = PlaneWave(r0=1.0, theta0=0.0, w0=0.3)
    ks = np.linspace(-4, 4, 33)
    _, lam2, lam3 = closed_form_lambda(params, wave, ks)
    a, b = closed_form_ab(params, wave, ks)
    assert np.max(np.abs(b)) == 0.0
    bracket = wave.w0 + 2.0 * wave.theta0 * params.u(wave.r0)
    assert np.max(np.abs(lam2.imag + bracket * ks)) < 1e-12
    assert np.max(np.abs(lam3.imag + bracket * ks)) < 1e-12


def test_coupled_closed_form_zero_dispersion():
    # Unit wave with unit coupling and s1 = 1/8 reproduces the printed
    # real-part curve and the eigenvalue oracle.
    params = SystemParams.constants(m=1.0, kappa=1.0, s1=1.0 / 8.0, s2=0.77)
    wave = unit_wave(w0=0.2)
    mats = build_matrices(params, wave, coupling="kappa_constant")
    ks = np.linspace(-8, 8, 64)
    oracle = spectrum_table(mats, ks)
    lam = sort_triple(
        np.stack(
            closed_form_lambda_coupled(ks, s1=1.0 / 8.0, s2=0.77, w0=0.2, u=0.0, kappa=1.0),
            axis=-1,
        )
    )
    assert np.max(np.abs(lam - oracle)) < 1e-8
    printed = sort_triple(coupled_case_printed(ks, 1.0 / 8.0, 0.2))
    assert np.max(np.abs(printed - oracle)) < 1e-8
    re_formula = -(ks**2 + 1.0) + np.sqrt(2.0) / 4.0 * np.sqrt(
        4.0 + np.sqrt(16.0 + ks**2)
    )
    assert np.max(np.abs(np.max(lam.real, axis=-1) - np.maximum(re_formula, -ks**2))) < 1e-8


def test_coupled_closed_form_unit_dispersion():
    rng = np.random.default_rng(15)
    ks = np.linspace(-6, 6, 49)
    for _ in range(10):
        s1, s2, w0 = rng.normal(size=3)
        params = SystemParams.constants(u=1.0, m=1.0, kappa=0.5, s1=s1, s2=s2)
        wave = unit_wave(w0=w0)
        mats = build_matrices(params, wave, coupling="kappa_constant")
        oracle = spectrum_table(mats, ks)
        lam = sort_triple(
            np.stack(
                closed_form_lambda_coupled(ks, s1=s1, s2=s2, w0=w0, u=1.0, kappa=0.5),
                axis=-1,
            )
        )
        assert np.max(np.abs(lam - oracle)) < 1e-8


def test_classify_stable_reports_parabola_constant():
    params = SystemParams.constants(m=0.5)
    mats = build_matrices(params, unit_wave(w0=1.3))
    ks = default_k_grid(8.0, 257)
    lams = spectrum_table(mats, ks)
    verdict = classify_spectrum(ks, lams)
    assert verdict.kind == "stable"
    assert verdict.parabola_constant == pytest.approx(0.5 / 1.3**2, rel=1e-12)


def test_classify_stable_unconstrained_sentinel():
    params = SystemParams.constants(m=0.5)
    mats = build_matrices(params, unit_wave(w0=0.0))
    ks = default_k_grid(8.0, 257)
    lams = spectrum_table(mats, ks)
    verdict = classify_spectrum(ks, lams)
    assert verdict.kind == "stable"
    assert np.isinf(verdict.parabola_constant)


def test_classify_unstable_negative_diffusivity():
    params = SystemParams.constants(m=-1.0)
    mats = build_matrices(params, unit_wave())
    ks = default_k_grid(8.0, 257)
    lams = spectrum_table(mats, ks)
    verdict = classify_spectrum(ks, lams)
    assert verdict.kind == "unstable"
    # Growth maximized at the largest sampled wavenumber.
    sup_k = max(abs(verdict.unstable_band[0]), verdict.unstable_band[1])
    assert sup_k == pytest.approx(8.0)
    # Infimum of positive real parts: the smallest sampled nonzero k.
    nonzero = np.abs(ks[np.abs(ks) > 0])
    assert verdict.omega_plus == pytest.approx(float(np.min(nonzero)) ** 2, rel=1e-9)


def test_classify_verdict_stable_under_grid_doubling():
    params = SystemParams.constants(m=-0.3)
    mats = build_matrices(params, unit_wave(w0=0.4))
    for samples_n in (257, 513):
        ks = default_k_grid(8.0, samples_n)
        lams = spectrum_table(mats, ks)
        verdict = classify_spectrum(ks, lams)
        assert verdict.kind == "unstable"


def test_classify_requires_samples_and_symmetry():
    with pytest.raises(EmptySampleSet):
        classify_spectrum(np.array([]), np.empty((0, 3), dtype=complex))
    triple = np.array([[-1.0, -2.0, -3.0]], dtype=complex)
    with pytest.raises(ValueError, match="include k = 0"):
        classify_spectrum(np.array([1.0]), triple)
    with pytest.raises(ValueError, match="symmetric"):
        classify_spectrum(np.array([0.0, 1.0]), np.repeat(triple, 2, axis=0))


def test_stability_conditions_on_reference_case():
    # Unit wave without carrier: a = r0^4 = 1, b = 0.
    for k in (0.5, 1.0, 4.0):
        conds = stability_conditions(1.0, 0.0, 1.0, k, m=1.0)
        assert conds.all_hold


def test_stability_conditions_flag_negative_diffusivity():
    conds = stability_conditions(1.0, 0.0, 1.0, 2.0, m=-1.0)
    assert not conds.diffusion_positive
    assert not conds.all_hold


def test_stability_conditions_violation_matches_growth():
    # Construct a > 2*(r0^2+k^2)^2 at k = 1 and confirm the fast branch grows.
    r0, k = 1.0, 1.0
    a = 2.0 * (r0**2 + k**2) ** 2 + 1.0
    conds = stability_conditions(a, 0.0, r0, k, m=1.0)
    assert not conds.mean_bound
    re_plus = -(r0**2 + k**2) + np.sqrt((np.sqrt(a**2) + a) / 2.0)
    assert re_plus >= 0.0


def test_stability_conditions_random_consistency():
    rng = np.random.default_rng(16)
    held = 0
    for _ in range(500):
        params, wave = random_constrained_pair(rng)
        k = float(rng.uniform(-8, 8))
        a, b = closed_form_ab(params, wave, k)
        conds = stability_conditions(float(a), float(b), wave.r0, k, params.m)
        if conds.all_hold:
            held += 1
            re_plus, _ = closed_form_real_parts(params, wave, k)
            assert re_plus < 0.0
            assert -(k**2) * params.m < 0.0
    assert held > 50


def test_residual_guard_rejects_no_valid_cases():
    params = SystemParams.constants(m=1.0)
    mats = build_matrices(params, unit_wave())
    lams = spectrum_table(mats, np.linspace(-16, 16, 129))
    assert lams.shape == (129, 3)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    zeros=st.floats(0.0, 0.8),
    k_extent=st.floats(0.0, 64.0),
    count=st.integers(1, 64),
)
def test_closed_form_char_coefficients_match_numpy(seed, zeros, k_extent, count):
    # Real A, B and C with entries of magnitude 1e-3 ... 1e3 and random zeros.
    rng = np.random.default_rng(seed)
    A, B, C = 10.0 ** rng.uniform(-3.0, 3.0, (3, 3, 3)) * rng.choice([-1.0, 1.0], (3, 3, 3))
    for entries in (A, B, C):
        entries[rng.random((3, 3)) < zeros] = 0.0
    mats = dispersion.LinearizationMatrices(A=A, B=B, C=C)
    ks = rng.uniform(-k_extent, k_extent, count)
    Ms = pencil(mats, ks[:, None, None])
    tr = np.trace(Ms, axis1=-2, axis2=-1)
    minors = 0.5 * (tr**2 - np.trace(Ms @ Ms, axis1=-2, axis2=-1))
    det = np.linalg.det(Ms)
    # Each coefficient is homogeneous of its degree in the entries.
    size = np.max(np.abs(Ms), axis=(-2, -1))
    got = dispersion._char_coefficients([mats], ks)
    for degree, g, want in zip((1, 2, 3), got, (tr, minors, det)):
        assert np.all(np.abs(g[0] - want) <= 1e-12 * size**degree)


def test_residual_guard_fires_on_shifted_roots(monkeypatch):
    params = SystemParams.constants(m=1.0)
    mats = build_matrices(params, unit_wave(w0=0.4))
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda Ms: eigvals(Ms) + 1e-6)
    with pytest.raises(ArithmeticError, match="eigenvalue residual"):
        spectrum_table(mats, np.linspace(-16, 16, 129))


def _multiset_gap(a, b):
    """Per row, the smallest max |a - b| over the orderings of ``b``."""
    gaps = [np.max(np.abs(a - b[:, perm]), axis=-1) for perm in itertools.permutations(range(3))]
    return np.min(gaps, axis=0)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kappa=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    coupling=st.sampled_from(COUPLING_MODES),
    k_extent=st.floats(0.5, 16.0),
    samples=st.integers(2, 301),
)
def test_spectrum_is_conjugate_symmetric_on_the_default_grid(
    seed, kappa, coupling, k_extent, samples
):
    params, wave = random_constrained_pair(np.random.default_rng(seed))
    params = dataclasses.replace(params, kappa_coeffs=kappa)
    mats = build_matrices(params, wave, coupling)
    ks = default_k_grid(k_extent, samples)
    assert np.array_equal(ks, -ks[::-1])
    assert 0.0 in ks
    lams = spectrum_table(mats, ks)
    scale = np.maximum(np.max(np.abs(lams), axis=-1), 1.0)
    assert np.all(_multiset_gap(lams, lams[::-1].conj()) <= 1e-12 * scale)
    direct = np.stack([np.linalg.eigvals(pencil(mats, k)) for k in ks])
    assert np.all(_multiset_gap(lams, direct) <= 1e-12 * scale)


@pytest.mark.parametrize(
    "ks, rows",
    [
        (default_k_grid(8.0, 256), [129]),
        (default_k_grid(8.0, 257), [129]),
        (np.array([-2.0, -0.5, 0.5, 2.0]), [2]),
        (np.linspace(0.0, 8.0, 65), [65]),
        (np.array([0.3, 1.7, 4.0]), [3]),
    ],
)
def test_mirror_grids_solve_only_the_nonnegative_half(monkeypatch, ks, rows):
    params = SystemParams.constants(m=1.0, s1=0.4, kappa=0.7)
    mats = build_matrices(params, unit_wave(w0=0.4), "kappa_gradient")
    seen = []
    eigvals = np.linalg.eigvals

    def counting(Ms):
        seen.append(len(Ms))
        return eigvals(Ms)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    assert spectrum_table(mats, ks).shape == (len(ks), 3)
    assert seen == rows
    seen.clear()
    spectrum_table(mats, np.array([1.3]))
    assert seen == [1]


def test_residual_guard_fails_closed_on_non_finite_residuals():
    # At |k| = 1e110 the roots are finite (about -1e220) but their cubes
    # overflow, so every residual there is NaN: nothing is verified.
    mats = build_matrices(SystemParams.constants(m=1.0), unit_wave())
    ks = np.array([-1e110, 0.0, 1e110])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ArithmeticError, match="could not be verified"):
            spectrum_table(mats, ks)


def _stable_table(ks):
    return np.stack([-(ks**2) - 1.0 + 0.5j * ks, -(ks**2) - 2.0 * ks * 1j, -(ks**2) - 3.0], axis=-1)


def test_spectrum_table_refuses_an_empty_grid():
    # This used to die in numpy's "zero-size array to reduction operation".
    mats = build_matrices(SystemParams.constants(m=1.0), unit_wave())
    with pytest.raises(EmptySampleSet, match="empty wavenumber grid"):
        spectrum_table(mats, [])


@pytest.mark.parametrize(
    "ks",
    [
        np.array([-1.0, 0.0, np.nan]),
        np.array([np.nan, 0.0, np.nan]),
        np.array([-np.inf, 0.0, np.inf]),
        np.array([-1.0, np.nan, 0.0, np.nan, 1.0]),
    ],
    ids=["one-nan", "two-nan", "infinite", "nan-inside"],
)
def test_classify_refuses_non_finite_wavenumbers(ks):
    # Both grid guards compare with ">", which is false for NaN: [-1, 0, nan]
    # used to read "stable" and [nan, 0, nan] "marginal".
    with pytest.raises(ValueError, match="non-finite wavenumbers"):
        classify_spectrum(ks, _stable_table(np.linspace(-1.0, 1.0, ks.size)))


@pytest.mark.parametrize(
    "row, col, value",
    [
        (slice(None), slice(None), np.nan),
        (3, 1, np.nan),
        (0, 0, complex(-1.0, np.nan)),
        (4, 2, complex(np.inf, 0.0)),
        (8, 0, complex(-np.inf, 0.0)),
    ],
    ids=["all-nan", "one-nan", "nan-imag", "plus-inf", "minus-inf"],
)
def test_classify_refuses_non_finite_tables(row, col, value):
    ks = default_k_grid(4.0, 9)
    lams = _stable_table(ks)
    assert classify_spectrum(ks, lams).kind == "stable"
    lams[row, col] = value
    with pytest.raises(ValueError, match="non-finite"):
        classify_spectrum(ks, lams)


@pytest.mark.parametrize(
    "ks",
    [
        np.array([1.0]),
        np.array([-1.0, 1.0]),
        np.array([-2.0, -0.5, 0.5, 2.0]),
        np.array([-1.0, 1e-6, 1.0]),
    ],
)
def test_classify_refuses_grids_without_k_zero(ks):
    with pytest.raises(ValueError, match="include k = 0"):
        classify_spectrum(ks, _stable_table(ks))


@pytest.mark.parametrize(
    "ks",
    [
        np.array([0.0, 1.0]),
        np.array([-1.0, 0.0, 2.0]),
        np.array([-1.0, 0.0, 1.0, 2.0]),
        np.array([-1.0, 0.0, 1.0 + 1e-8]),
        default_k_grid(8.0, 257)[1:],
    ],
)
def test_classify_refuses_asymmetric_grids(ks):
    with pytest.raises(ValueError, match="symmetric"):
        classify_spectrum(ks, _stable_table(ks))


@pytest.mark.parametrize(
    "ks",
    [
        default_k_grid(8.0, 257),
        np.random.default_rng(3).permutation(default_k_grid(8.0, 257)),
        np.arange(-8.0, 8.05, 0.1),
        np.array([1.0 + 1e-12, 0.0, -1.0]),
        np.array([-1.0, 1e-10, 1.0]),
    ],
    ids=["mirror", "shuffled", "arange", "jittered", "near-zero"],
)
def test_classify_accepts_symmetric_grids_in_any_order(ks):
    assert classify_spectrum(ks, _stable_table(ks)).kind == "stable"


def _reference_sort_lambdas(lams: np.ndarray) -> np.ndarray:
    """The ordering rule written out as one lexsort: the bitwise reference."""
    scale = np.maximum(np.max(np.abs(lams), axis=-1, keepdims=True), 1.0)
    key = np.round(lams.real / (1e-9 * scale))
    order = np.lexsort((lams.imag, -key), axis=-1)
    return np.take_along_axis(lams, order, axis=-1)


def _reference_pencil(mats, k):
    return -(k**2) * mats.A + 1j * k * mats.B + mats.C


def _reference_spectrum_table(mats, ks):
    """The full-grid spectrum table: every row is built, sorted and checked."""
    ks = np.asarray(ks, dtype=float)
    Ms = _reference_pencil(mats, ks[:, None, None])
    if np.array_equal(ks, -ks[::-1]):
        half = np.linalg.eigvals(Ms[ks.size // 2 :])
        raw = np.concatenate([half[::-1][: ks.size // 2].conj(), half])
    else:
        raw = np.linalg.eigvals(Ms)
    lams = _reference_sort_lambdas(raw)
    res = dispersion._char_residuals([mats], ks, lams[None])
    worst = float(np.max(res))
    if worst > dispersion.RESIDUAL_TOL:
        raise ArithmeticError(
            f"eigenvalue residual {worst:.2e} exceeds {dispersion.RESIDUAL_TOL:g}"
        )
    return lams


def _assert_same_bits(got, want):
    assert np.array_equal(got, want)
    # array_equal treats -0.0 and 0.0 as equal; the bytes do not.
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _grid(layout, k_extent, samples):
    ks = default_k_grid(k_extent, samples)
    if layout == "mirror-without-zero":
        return ks[ks != 0.0]
    if layout == "positive":
        return ks[ks > 0.0]
    if layout == "asymmetric":
        return ks[ks > -k_extent / 3.0]
    if layout == "single":
        return ks[-1:]
    return ks


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kappa=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    coupling=st.sampled_from(COUPLING_MODES),
    k_extent=st.floats(0.5, 16.0),
    samples=st.integers(2, 2049),
    layout=st.sampled_from(
        ["mirror", "mirror-without-zero", "positive", "asymmetric", "single"]
    ),
)
def test_spectrum_table_is_bitwise_the_full_grid_table(
    seed, kappa, coupling, k_extent, samples, layout
):
    params, wave = random_constrained_pair(np.random.default_rng(seed))
    params = dataclasses.replace(params, kappa_coeffs=kappa)
    mats = build_matrices(params, wave, coupling)
    ks = _grid(layout, k_extent, samples)
    assert np.array_equal(ks, -ks[::-1]) == layout.startswith("mirror")
    _assert_same_bits(pencil(mats, ks[:, None, None]), _reference_pencil(mats, ks[:, None, None]))
    want = _reference_spectrum_table(mats, ks)
    _assert_same_bits(spectrum_table(mats, ks), want)
    if layout.startswith("mirror"):
        # The k < 0 residuals, which the half-grid check skips, are the k > 0 ones.
        res = dispersion._char_residuals([mats], ks, want[None])[0]
        assert np.array_equal(res, res[::-1])


def _diagonal_mats(a, b, c):
    return dispersion.LinearizationMatrices(A=np.diag(a), B=np.diag(b), C=np.asarray(c, dtype=float))


@pytest.mark.parametrize(
    "mats",
    [
        # A triple root at every k: full ties, the stable order decides.
        _diagonal_mats([1.0, 1.0, 1.0], [0.3, 0.3, 0.3], np.diag([-1.0, -1.0, -1.0])),
        # Real parts equal after quantization but not bitwise, equal imaginary parts.
        _diagonal_mats([1.0, 1.0, 1.0], [0.3, 0.3, 0.3], np.diag([-1.0, -1.0 + 1e-13, -1.0 - 1e-13])),
        # Equal real parts, imaginary parts of both signs and a duplicate.
        _diagonal_mats([1.0, 1.0, 1.0], [0.5, -0.5, 0.5], np.diag([-2.0, -2.0, -2.0])),
        # A conjugate pair at k = 0 beside a real root with the same real part.
        dispersion.LinearizationMatrices(
            A=np.eye(3), B=np.zeros((3, 3)), C=np.array([[-1.0, 2.0, 0.0], [-2.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
        ),
        # Two coincident diffusive branches of the pure-carrier wave.
        build_matrices(
            SystemParams.constants(u=0.0, v=-0.8, m=1.6), PlaneWave(r0=0.0, theta0=1.0, w0=0.4)
        ),
        build_matrices(SystemParams.constants(m=1.0), unit_wave()),
    ],
    ids=["triple", "quantized", "imag-ties", "conjugate-pair", "carrier", "unit"],
)
@pytest.mark.parametrize("layout", ["mirror", "mirror-without-zero", "positive", "asymmetric"])
def test_ordering_with_forced_ties_is_bitwise_the_full_grid_table(mats, layout):
    ks = _grid(layout, 4.0, 33)
    _assert_same_bits(spectrum_table(mats, ks), _reference_spectrum_table(mats, ks))


def test_sort_lambdas_with_forced_ties_is_bitwise_the_reference():
    lams = np.array(
        [
            [-1.0 + 2.0j, -1.0 - 2.0j, -1.0 + 0.0j],
            [-1.0 + 1e-12 + 1.0j, -1.0 + 1.0j, -1.0 - 1e-12 + 1.0j],
            [-2.0 + 0.0j, -2.0 + 0.0j, -2.0 + 0.0j],
            [0.5 - 1.0j, -3.0 + 1.0j, 0.5 - 1.0j],
            [complex(-1.0, -0.0), complex(-1.0, 0.0), complex(-1.0, -0.0)],
            [1e12 + 1.0j, 1e12 + 100.0 + 0.5j, 1e12 - 100.0 + 0.0j],
        ]
    )
    for table in (lams, lams.conj()):
        _assert_same_bits(dispersion._sort_lambdas(table), _reference_sort_lambdas(table))


_scan_values = st.floats(-2.0, 2.0)


def _scan_slice(m, u0, v0, kappa, s1, s2, w0):
    """The parameters and wave of one stability-scan job, or None without a wave."""
    params = SystemParams.constants(u=u0, v=v0, m=m, kappa=kappa, s1=s1, s2=s2)
    try:
        return params, solve_plane_wave(params, w0=w0)
    except (NoRealSolution, ValueError):  # as stability-scan: a "no_wave" row
        return None


@settings(max_examples=80, deadline=None)
@given(
    m=_scan_values, u0=_scan_values, v0=_scan_values, kappa=_scan_values,
    s1=_scan_values, s2=_scan_values, w0=_scan_values, coupling=st.sampled_from(COUPLING_MODES),
)
def test_the_drift_enters_the_pencil_as_a_shift_of_the_diagonal(
    m, u0, v0, kappa, s1, s2, w0, coupling
):
    # stability-scan shares one eigen-solve among the w0 of a class on this.
    drifting = _scan_slice(m, u0, v0, kappa, s1, s2, w0)
    still = _scan_slice(m, u0, v0, kappa, s1, s2, 0.0)
    assume(drifting is not None)
    (params, wave), (_, wave0) = drifting, still
    assert (wave.r0, wave.theta0, wave.w0) == (wave0.r0, wave0.theta0, w0)
    mats, mats0 = build_matrices(params, wave, coupling), build_matrices(params, wave0, coupling)
    _assert_same_bits(mats.A, mats0.A)
    _assert_same_bits(mats.C, mats0.C)
    want = mats0.B.copy()
    want[np.diag_indices(3)] -= w0
    # Equal as numbers; where w0 + 2*theta0*u0 is zero the signs of the zeros differ.
    assert np.array_equal(mats.B, want)


def _shifted_table(ks, drift_free, w0):
    """The drift-free eigenvalues shifted by -i*k*w0, conjugate-filled and sorted.

    The reference for shifted_verdicts: the full table, ordered as
    spectrum_table orders the eigenvalues it solves.
    """
    ks = np.asarray(ks, dtype=float)
    n_neg = ks.size // 2 if np.array_equal(ks, -ks[::-1]) else 0
    half = drift_free.copy()
    half.imag -= ks[n_neg:, None] * w0
    return _reference_sort_lambdas(np.concatenate([half[::-1][:n_neg].conj(), half]))


def _verdict_bits(verdict):
    """Every field of a verdict, each float as its bytes: -0.0 is not 0.0."""

    def bits(x):
        return None if x is None else np.float64(x).tobytes()

    band = verdict.unstable_band
    return (
        verdict.kind,
        bits(verdict.parabola_constant),
        bits(verdict.omega_plus),
        None if band is None else (bits(band[0]), bits(band[1])),
        bits(verdict.sup_real),
    )


@settings(max_examples=60, deadline=None)
@given(
    m=_scan_values, u0=_scan_values, v0=_scan_values, kappa=_scan_values,
    s1=_scan_values, s2=_scan_values, w0=_scan_values, coupling=st.sampled_from(COUPLING_MODES),
    k_extent=st.floats(0.5, 16.0),
    samples=st.integers(2, 513),
    layout=st.sampled_from(["mirror", "mirror-without-zero", "positive", "asymmetric", "single"]),
)
def test_a_shared_drift_free_solve_gives_the_table_of_each_drift(
    m, u0, v0, kappa, s1, s2, w0, coupling, k_extent, samples, layout
):
    job = _scan_slice(m, u0, v0, kappa, s1, s2, w0)
    assume(job is not None)
    params, wave = job
    mats = build_matrices(params, wave, coupling)
    ks = _grid(layout, k_extent, samples)
    drift_free = dispersion.solved_eigvals(
        build_matrices(params, dataclasses.replace(wave, w0=0.0), coupling), ks
    )
    try:
        direct = spectrum_table(mats, ks)
    except ArithmeticError:  # a near-defective pencil that no route verifies
        assume(False)
    # Every shifted eigenvalue passes the residual check against this job's pencil.
    [verdict] = dispersion.shifted_verdicts([mats], ks, drift_free, [w0])
    shared = _shifted_table(ks, drift_free, w0)
    scale = np.maximum(np.max(np.abs(direct), axis=-1), 1.0)
    # Two roots a gap apart move by up to scale/gap times a perturbation, so
    # near-double roots agree more loosely (u0 = 1e-10 splits one by 2e-5,
    # and the two routes differ by 8e-12 there).
    gap = np.min(np.abs(direct[:, [0, 0, 1]] - direct[:, [1, 2, 2]]), axis=-1)
    with np.errstate(divide="ignore"):
        tol = 1e-12 * scale * np.maximum(1.0, scale / gap)
    # Round-off can tie-break two equal real parts the other way round.
    assert np.all(_multiset_gap(shared, direct) <= tol)
    if w0 == 0.0 and not np.signbit(w0):  # the w0 = 0 job is the drift-free pencil itself
        _assert_same_bits(shared, direct)
    if 0.0 in ks and np.array_equal(ks, -ks[::-1]):
        assert verdict.kind == classify_spectrum(ks, direct).kind
        assert _verdict_bits(verdict) == _verdict_bits(classify_spectrum(ks, shared))


@pytest.mark.parametrize("wrong", [0, 1, 2])
def test_a_wrong_shift_fails_the_residual_check(wrong):
    # One batch of three drifts: the job at position ``wrong`` is given the
    # pencil of w0 but the shift of -w0, and the whole batch is refused.
    params = SystemParams.constants(u=-0.5, v=0.5, m=0.5, kappa=0.5, s1=0.3)
    wave = solve_plane_wave(params)
    ks = default_k_grid(8.0, 65)
    drift_free = dispersion.solved_eigvals(build_matrices(params, wave, "kappa_gradient"), ks)
    w0s = [0.5, 1.0, 1.5]
    job_mats = [
        build_matrices(params, dataclasses.replace(wave, w0=w0), "kappa_gradient") for w0 in w0s
    ]
    verdicts = dispersion.shifted_verdicts(job_mats, ks, drift_free, w0s)
    for mats, verdict in zip(job_mats, verdicts):
        assert verdict.kind == classify_spectrum(ks, spectrum_table(mats, ks)).kind
    shifts = list(w0s)
    shifts[wrong] = -shifts[wrong]
    with pytest.raises(ArithmeticError, match="eigenvalue residual"):
        dispersion.shifted_verdicts(job_mats, ks, drift_free, shifts)


def test_each_pencil_takes_one_drift():
    params = SystemParams.constants(m=0.5)
    wave = solve_plane_wave(params)
    ks = default_k_grid(8.0, 65)
    mats = build_matrices(params, wave)
    drift_free = dispersion.solved_eigvals(mats, ks)
    with pytest.raises(ValueError, match="one w0 per pencil"):
        dispersion.shifted_verdicts([mats, mats], ks, drift_free, [0.0])


def _assert_the_shifted_verdict_is_the_table_verdict(mats, ks, drift_free, w0):
    table = _shifted_table(ks, drift_free, w0)
    try:
        [got] = dispersion.shifted_verdicts([mats], ks, drift_free, [w0])
    except ArithmeticError:  # refused only where the table's own check refuses
        ks = np.asarray(ks, dtype=float)
        assert not np.max(dispersion._char_residuals([mats], ks, table[None])) <= dispersion.RESIDUAL_TOL
        return None
    assert _verdict_bits(got) == _verdict_bits(classify_spectrum(ks, table))
    return got


@settings(max_examples=80, deadline=None)
@given(
    m=_scan_values, u0=_scan_values, v0=_scan_values, kappa=_scan_values,
    s1=_scan_values, s2=_scan_values, w0=_scan_values, coupling=st.sampled_from(COUPLING_MODES),
    k_extent=st.floats(0.5, 16.0),
    samples=st.integers(2, 513),
    layout=st.sampled_from(["mirror", "symmetric-unordered", "single"]),
    order_seed=st.integers(0, 2**32 - 1),
)
def test_the_shifted_verdict_is_the_verdict_of_the_sorted_table(
    m, u0, v0, kappa, s1, s2, w0, coupling, k_extent, samples, layout, order_seed
):
    job = _scan_slice(m, u0, v0, kappa, s1, s2, w0)
    assume(job is not None)
    params, wave = job
    ks = default_k_grid(k_extent, samples)
    if layout == "symmetric-unordered":
        ks = np.random.default_rng(order_seed).permutation(ks)
        assume(not np.array_equal(ks, -ks[::-1]))
    elif layout == "single":
        ks = np.array([0.0])
    drift_free = dispersion.solved_eigvals(
        build_matrices(params, dataclasses.replace(wave, w0=0.0), coupling), ks
    )
    mats = build_matrices(params, wave, coupling)
    _assert_the_shifted_verdict_is_the_table_verdict(mats, ks, drift_free, w0)


@pytest.mark.parametrize("zero", [0.0, -0.0], ids=["plus-zero", "minus-zero"])
@pytest.mark.parametrize("w0", [0.0, 0.7])
def test_growth_at_k_zero_alone_keeps_the_sign_of_the_grid_zero(zero, w0):
    # Only k = 0 grows: 0.5 - 50*k^2 < 0 from the first nonzero k on.
    ks = default_k_grid(4.0, 33)
    ks[ks.size // 2] = zero  # still a mirror grid: -0.0 == 0.0
    assert np.array_equal(ks, -ks[::-1])
    C = np.diag([0.5, -1.0, -2.0])
    drift_free = dispersion.solved_eigvals(_diagonal_mats([50.0] * 3, [0.0] * 3, C), ks)
    mats = _diagonal_mats([50.0] * 3, [-w0] * 3, C)
    verdict = _assert_the_shifted_verdict_is_the_table_verdict(mats, ks, drift_free, w0)
    assert verdict.kind == "unstable" and verdict.omega_plus == 0.5
    assert _verdict_bits(verdict)[3] == (np.float64(zero).tobytes(),) * 2


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), zeros=st.integers(0, 6))
def test_the_verdict_does_not_depend_on_the_order_within_a_triple(seed, zeros):
    # Zeros of both signs tie in np.max and np.min, which keep the one they
    # meet last; the verdict takes +0.0 as the greater whatever the order.
    # Neutral oscillatory modes at k = 0 give C = 0.0 and -0.0 ...
    rng = np.random.default_rng(seed)
    ks = default_k_grid(4.0, 9)
    lams = _stable_table(ks)
    lams[ks == 0.0] = [complex(0.0, 1.0), complex(-0.0, -1.0), -1.0]
    # ... and zero real parts at k != 0 a marginal sup_real of both signs.
    rows = rng.choice(np.flatnonzero(ks != 0.0), zeros)
    cols = rng.integers(0, 3, zeros)
    lams.real[rows, cols] = rng.choice([0.0, -0.0], zeros)
    want = _verdict_bits(classify_spectrum(ks, lams))
    for _ in range(4):
        order = rng.permuted(np.tile([0, 1, 2], (ks.size, 1)), axis=1)
        shuffled = np.take_along_axis(lams, order, axis=1)
        assert _verdict_bits(classify_spectrum(ks, shuffled)) == want


@pytest.mark.parametrize("theta0", [0.5, 0.55, 0.6, 0.7])
def test_the_exact_pencil_has_the_eckhaus_growth_rate(theta0):
    # An oracle from outside the code.  With u = v = 0 and kappa = 0 nothing
    # drives h, and the (rho, phi) block linearizes A_t = A + A_xx - |A|^2 A
    # about the plane wave r0*exp(i*theta0*x).  Its leading rate is
    # Eckhaus's, and the wave is unstable exactly when theta0^2 > 1/3
    # (Eckhaus 1965; Stuart & DiPrima, Proc. R. Soc. Lond. A 362, 1978).
    # build_matrices, which lacks the 2*theta0/r0 coupling, calls the waves
    # theta0 = 0.6 and 0.7 "stable"; that gap of the closed form is not
    # asserted here.
    r0 = float(np.sqrt(1.0 - theta0**2))
    mats = true_linearization(SystemParams(), PlaneWave(r0=r0, theta0=theta0))
    ks = default_k_grid()
    lams = spectrum_table(mats, ks)
    eckhaus = -(r0**2 + ks**2) + np.sqrt(r0**4 + 4.0 * theta0**2 * ks**2)
    assert np.max(np.abs(lams[:, 0].real - eckhaus)) <= 1e-12
    assert (classify_spectrum(ks, lams).kind == "unstable") == (theta0**2 > 1.0 / 3.0)


_affine = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


@settings(max_examples=60, deadline=None)
@given(
    psi=st.floats(0.05, np.pi / 2 - 0.05),
    u=_affine, v1=st.floats(-2.0, 2.0), m=st.floats(0.2, 2.0),
    kappa=_affine, s1=_affine, s2=_affine, w0=st.floats(-2.0, 2.0),
    placement=st.sampled_from(["kappa_gradient", "exact"]),
)
def test_the_reflection_of_the_wave_conjugates_its_spectrum(
    psi, u, v1, m, kappa, s1, s2, w0, placement
):
    # x -> -x with Omega -> -Omega maps the wave (r0, theta0, w0) to
    # (r0, -theta0, -w0) and the perturbation (rho, phi, h)(x) to
    # (rho, phi, -h)(-x), so its pencil at k is F conj(M(k)) F with
    # F = diag(1, 1, -1), and its spectrum is the conjugate one.
    # kappa_constant is left out: it writes the coupling kappa*(|P|^2)_x,
    # which is odd in x, as a zeroth-order entry, which is even, so its
    # spectra are no mirror images: all of 200 random draws differ.
    r0, theta0 = float(np.cos(psi)), float(np.sin(psi))
    v0 = -(u[0] + u[1] * r0) * theta0**2 / r0**2 - v1 * r0
    params = SystemParams(
        u_coeffs=u, v_coeffs=(v0, v1), m=m, kappa_coeffs=kappa, s1_coeffs=s1, s2_coeffs=s2
    )

    def matrices(sign):
        wave = PlaneWave(r0=r0, theta0=sign * theta0, w0=sign * w0)
        if placement == "exact":
            return true_linearization(params, wave)
        return build_matrices(params, wave, placement)

    mats, mirror = matrices(1.0), matrices(-1.0)
    ks = default_k_grid()
    flip = np.diag([1.0, 1.0, -1.0])
    # Equal as numbers: the signs of zeros may differ.
    assert np.array_equal(
        pencil(mirror, ks[:, None, None]), flip @ pencil(mats, ks[:, None, None]).conj() @ flip
    )
    lams, mirrored = spectrum_table(mats, ks), spectrum_table(mirror, ks)
    # Equal to round-off.  LAPACK's eigenvalues of conj(M) are those of M
    # conjugated bit for bit, but not always under the sign flips of F:
    # beside a coupling below round-off (kappa1 = 4.4e-20) one moved by an ulp.
    want = _reference_sort_lambdas(lams.conj())
    scale = np.maximum(np.max(np.abs(lams), axis=1, keepdims=True), 1.0)
    assert np.all(np.abs(mirrored - want) <= 1e-12 * scale)
    assert classify_spectrum(ks, mirrored).kind == classify_spectrum(ks, lams).kind


@settings(max_examples=150, deadline=None)
@given(
    theta0=st.floats(0.02, 0.98), u=st.floats(-5.0, 5.0), m=st.floats(0.2, 2.0),
    s1=st.floats(-2.0, 2.0), s2=st.floats(-2.0, 2.0), w0=st.floats(-2.0, 2.0),
)
def test_the_exact_pencil_has_the_stability_region_of_stuart_and_diprima(
    theta0, u, m, s1, s2, w0
):
    # An oracle from outside the code.  With constant coefficients and
    # kappa = 0 nothing drives h, and the (rho, phi) block linearizes a
    # Ginzburg-Landau equation about the plane wave r0*exp(i*theta0*x).
    # The wave is stable exactly when the Benjamin-Feir-Newell condition
    # 1 + u*v > 0 and the Eckhaus bound theta0^2 < (1 + u*v)/(3 + u*v + 2*v^2)
    # both hold (Stuart & DiPrima, Proc. R. Soc. Lond. A 362, 1978).
    # Draws within 2e-2 of either boundary are left to the sampled grid.
    r0 = float(np.sqrt(1.0 - theta0**2))
    v = -u * theta0**2 / r0**2
    newell = 1.0 + u * v
    eckhaus = newell / (3.0 + u * v + 2.0 * v**2)
    assume(abs(newell) > 2e-2 and abs(theta0**2 - eckhaus) > 2e-2)
    params = SystemParams.constants(u=u, v=v, m=m, s1=s1, s2=s2)
    mats = true_linearization(params, PlaneWave(r0=r0, theta0=theta0, w0=w0))
    ks = default_k_grid()
    verdict = classify_spectrum(ks, spectrum_table(mats, ks))
    assert (verdict.kind == "stable") == (newell > 0.0 and theta0**2 < eckhaus)
