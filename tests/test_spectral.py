import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cglburgers.spectral import (
    Grid,
    SpectralField,
    band_limited_noise,
    fft_axes,
    ifft_axes,
    irfft_axes,
    lp_norm,
    lp_norms,
    rfft_axes,
)


@pytest.fixture
def grid1d():
    return Grid(dim=1, n=64, length=2.0 * np.pi)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(dim=3, n=64)
    with pytest.raises(ValueError):
        Grid(dim=1, n=48)  # not a power of two
    with pytest.raises(ValueError):
        Grid(dim=1, n=4)
    with pytest.raises(ValueError):
        Grid(dim=1, n=64, length=-1.0)


def test_round_trip(grid1d):
    rng = np.random.default_rng(0)
    f = band_limited_noise(grid1d, rng)
    back = SpectralField.from_spectral(grid1d, f.spectral()).as_physical()
    scale = np.max(np.abs(f.physical()))
    assert np.max(np.abs(back.physical() - f.physical())) <= 1e-12 * scale


def test_real_field_conjugate_symmetry(grid1d):
    rng = np.random.default_rng(1)
    f = band_limited_noise(grid1d, rng, real=True)
    fhat = f.spectral()
    sym = fhat - np.conj(fhat[np.r_[0, grid1d.n - 1 : 0 : -1]])
    assert np.max(np.abs(sym)) < 1e-12 * np.max(np.abs(fhat))
    assert f.is_real_valued()


# Property tests draw a grid of dimension 1 or 2 and a power-of-two size.
DIMS = st.sampled_from([1, 2])
LOG2_N = st.integers(3, 6)
SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=25, deadline=None)
@given(dim=DIMS, log2_n=LOG2_N, seed=SEEDS, real=st.booleans())
def test_dealias_idempotent(dim, log2_n, seed, real):
    grid = Grid(dim=dim, n=2**log2_n, length=3.0)
    f = band_limited_noise(grid, np.random.default_rng(seed), max_index=grid.n // 2, real=real)
    once = f.spectral() * grid.dealias_mask()
    assert np.array_equal(once * grid.dealias_mask(), once)


def _on_fine_grid(f: SpectralField, fine: Grid) -> SpectralField:
    """The same trigonometric polynomial, sampled on the finer grid."""
    pos = np.fft.fftfreq(f.grid.n, d=1.0 / f.grid.n).astype(int) % fine.n
    out = np.zeros(fine.shape, dtype=complex)
    out[np.ix_(*[pos] * f.grid.dim)] = f.spectral()
    return SpectralField.from_spectral(fine, out)


@settings(max_examples=25, deadline=None)
@given(dim=DIMS, log2_n=LOG2_N, seed=SEEDS)
def test_dealiased_product_matches_fine_grid(dim, log2_n, seed):
    # Inputs up to n/3: the coarse product aliases, but only onto the modes
    # the 2/3 rule discards.  The doubled grid holds the product exactly.
    grid = Grid(dim=dim, n=2**log2_n, length=2.0 * np.pi)
    fine = Grid(dim=dim, n=2 * grid.n, length=grid.length)
    rng = np.random.default_rng(seed)
    u, v = (band_limited_noise(grid, rng, max_index=grid.n // 3) for _ in range(2))
    coarse = SpectralField.from_physical(grid, u.physical() * v.physical()).spectral()
    coarse = coarse * grid.dealias_mask()
    exact = SpectralField.from_physical(
        fine, _on_fine_grid(u, fine).physical() * _on_fine_grid(v, fine).physical()
    )
    pos = np.fft.fftfreq(grid.n, d=1.0 / grid.n).astype(int) % fine.n
    kept = exact.spectral()[np.ix_(*[pos] * dim)] * grid.dealias_mask()
    scale = max(np.max(np.abs(kept)), 1.0)
    assert np.max(np.abs(coarse - kept)) < 1e-12 * scale


@settings(max_examples=25, deadline=None)
@given(dim=DIMS, log2_n=LOG2_N, seed=SEEDS, amplitude=st.floats(1e-6, 1e6))
@example(dim=2, log2_n=5, seed=6, amplitude=1.0)
def test_parseval(dim, log2_n, seed, amplitude):
    # The p = 2 Besov block norms take this identity instead of a transform.
    grid = Grid(dim=dim, n=2**log2_n, length=2.0 * np.pi)
    f = band_limited_noise(grid, np.random.default_rng(seed), amplitude=amplitude).as_physical()
    want = np.sqrt(np.sum(np.abs(f.spectral()) ** 2))
    assert abs(lp_norm(f, 2.0) - want) <= 1e-13 * want


def test_lp_norm_infinity(grid1d):
    x = grid1d.axis_coordinates()
    f = SpectralField.from_physical(grid1d, 2.0 * np.cos(x))
    assert lp_norm(f, np.inf) == pytest.approx(2.0, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    dim_log2_n=st.one_of(
        st.tuples(st.just(1), st.integers(3, 9)), st.tuples(st.just(2), st.integers(3, 7))
    ),
    seed=SEEDS,
    lead=st.sampled_from([(), (3,)]),
    exponent=st.integers(-30, 30),
)
def test_transform_helpers_match_the_scaled_transforms_bitwise(dim_log2_n, seed, lead, exponent):
    # The forward normalization is exact on power-of-two grids, so each
    # helper gives the bits of the unnormalized transform scaled by size.
    dim, log2_n = dim_log2_n
    n = 2**log2_n
    grid = Grid(dim=dim, n=n)
    size, axes = grid.size, tuple(range(-dim, 0))
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    half = (*lead, *grid.shape[:-1], n // 2 + 1)
    x = scale * (rng.normal(size=(*lead, *grid.shape)) + 1j * rng.normal(size=(*lead, *grid.shape)))
    xr = scale * rng.normal(size=(*lead, *grid.shape))
    xh = scale * (rng.normal(size=half) + 1j * rng.normal(size=half))
    assert np.array_equal(fft_axes(grid, x), np.fft.fftn(x, axes=axes) / size)
    assert np.array_equal(ifft_axes(grid, x), np.fft.ifftn(x * size, axes=axes))
    assert np.array_equal(rfft_axes(grid, xr), np.fft.rfftn(xr, axes=axes) / size)
    assert np.array_equal(
        irfft_axes(grid, xh), np.fft.irfftn(xh * size, s=grid.shape, axes=axes)
    )


@settings(max_examples=60, deadline=None)
@given(
    log2_n=st.integers(3, 9),
    seed=SEEDS,
    lead=st.sampled_from([(1,), (2,), (3, 3), (5,)]),
    exponent=st.integers(-30, 30),
)
def test_a_stacked_1d_transform_is_bitwise_its_per_row_transforms(log2_n, seed, lead, exponent):
    # The full-field step takes P and dP/dx from one transform of a (2, n)
    # stack, and the polar step inverts a (3, 3, n/2 + 1) stack in one call.
    n = 2**log2_n
    grid = Grid(dim=1, n=n)
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    x = scale * (rng.normal(size=(*lead, n)) + 1j * rng.normal(size=(*lead, n)))
    xr = scale * rng.normal(size=(*lead, n))
    xh = scale * (rng.normal(size=(*lead, n // 2 + 1)) + 1j * rng.normal(size=(*lead, n // 2 + 1)))
    for helper, data in ((fft_axes, x), (ifft_axes, x), (rfft_axes, xr), (irfft_axes, xh)):
        stacked = helper(grid, data)
        rows = [helper(grid, row) for row in data.reshape(-1, data.shape[-1])]
        assert stacked.tobytes() == np.array(rows).tobytes(), helper.__name__


# Magnitudes as the L^p kernel meets them, with the values that end a sum early.
MAGNITUDES = st.one_of(
    st.floats(0.0, 1e300), st.sampled_from([0.0, np.inf, np.nan]), st.floats(0.0, 1e-300)
)


@settings(max_examples=100, deadline=None)
@given(
    mag=arrays(float, st.tuples(st.integers(1, 4), st.integers(1, 9)), elements=MAGNITUDES),
    axes=st.sampled_from([(-1,), (0,), (0, 1)]),
)
def test_lp_norms_at_p_one_is_bitwise_the_per_scalar_root(mag, axes):
    # The mean is returned without the root: x ** 1.0 == x.
    means = np.mean(mag**1.0, axis=axes)
    want = np.array([m ** (1.0 / 1.0) for m in means.ravel()]).reshape(means.shape)
    assert np.asarray(lp_norms(mag, 1.0, axes)).tobytes() == want.tobytes()
