"""Besov norms and the Bony split against references that transform one block at a time."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cglburgers.littlewood_paley import (
    BesovIndex,
    OutOfRange,
    besov_norm,
    bony_split,
    check_smoothing_estimate,
    dyadic_block,
    graded_times,
    heat_solution_series,
    partition_for,
    smallness_monitor,
)
from cglburgers.solver import FieldState, Forcing
from cglburgers.spectral import Grid, SpectralField, band_limited_noise, lp_norm

GRIDS = {1: Grid(dim=1, n=128), 2: Grid(dim=2, n=32, length=5.0)}
EXPONENTS = (1.0, 2.0, 3.0, np.inf)
TRANSFORMS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn",
)


def reference_block_norms(f, idx):
    """(scales q, L^p norms of the blocks), one inverse transform per block."""
    part = partition_for(f.grid)
    fhat = f.spectral().copy()
    fhat[(0,) * f.grid.dim] = 0.0
    qs = list(part.homogeneous_range())
    mults = [part.phi(q) for q in qs]
    norms = [
        lp_norm(SpectralField.from_spectral(f.grid, fhat * m), idx.p) for m in mults
    ]
    return np.array(qs, dtype=float), np.array(norms)


def reference_ell_r(values, r):
    if np.isinf(r):
        return float(np.max(values))
    return float(np.sum(values**r) ** (1.0 / r))


def reference_besov_norm(f, idx):
    qs, norms = reference_block_norms(f, idx)
    return reference_ell_r(2.0 ** (qs * idx.s) * norms, idx.r)


def reference_smallness_monitor(state, p):
    idx = BesovIndex(s=state.grid.dim / p - 1.0, p=p, r=1.0)
    total = reference_besov_norm(state.P, idx)
    for w in state.omega:
        total += reference_besov_norm(w, idx)
    return float(total)


def reference_bony_split(u, v):
    """T_u v, T_v u and R(u, v) from one inverse transform per block per field."""
    grid = u.grid
    part = partition_for(grid)
    qs = [-1] + list(part.nonhomogeneous_range())

    def blocks(fhat):
        out = {}
        for q in qs:
            mult = part.chi if q == -1 else part.phi(q)
            out[q] = np.fft.ifftn(fhat * mult * grid.size)
        return out

    bu, bv = blocks(u.spectral()), blocks(v.spectral())
    zero = np.zeros(grid.shape, dtype=complex)

    def low_pass(bdict, q):
        acc = zero.copy()
        for p in qs:
            if p <= q - 1:
                acc = acc + bdict[p]
        return acc

    Tuv, Tvu, Ruv = zero.copy(), zero.copy(), zero.copy()
    for q in qs:
        Tuv = Tuv + low_pass(bu, q - 1) * bv[q]
        Tvu = Tvu + low_pass(bv, q - 1) * bu[q]
        near = zero.copy()
        for shift in (-1, 0, 1):
            if q + shift in bv:
                near = near + bv[q + shift]
        Ruv = Ruv + bu[q] * near
    return Tuv, Tvu, Ruv


def reference_space_time_norm(fields, times, sigma, p, r, rho):
    """Block norms of each time sample separately, then a time norm per block."""
    idx = BesovIndex(s=sigma, p=p, r=np.inf)
    per_time = [reference_block_norms(f, idx) for f in fields]
    qs = per_time[0][0]
    time_norms = []
    for j in range(len(qs)):
        series = np.array([norms[j] for _, norms in per_time])
        if np.isinf(rho):
            time_norms.append(float(np.max(series)))
        else:
            time_norms.append(float(np.trapezoid(series**rho, times) ** (1.0 / rho)))
    return reference_ell_r(2.0 ** (qs * sigma) * np.array(time_norms), r)


def reference_smoothing_sides(f0, g, mu, u_disp, idx, rho1, t_end, n_steps):
    """(LHS, RHS) of the smoothing estimate, one field per time sample."""
    rho = idx.rho
    times = graded_times(t_end, n_steps)
    fields = heat_solution_series(f0, g, mu, u_disp, times)
    lhs = mu ** (1.0 / rho) * reference_space_time_norm(
        fields, times, idx.s + 2.0 / rho1, idx.p, idx.r, rho1
    )
    rhs = reference_besov_norm(f0, BesovIndex(s=idx.s, p=idx.p, r=idx.r))
    if g is not None:
        sources = []
        for t in times:
            src = g.f1(t)
            if not isinstance(src, SpectralField):
                src = SpectralField.from_physical(f0.grid, src)
            sources.append(src)
        rhs = rhs + mu ** (1.0 / rho - 1.0) * reference_space_time_norm(
            sources, times, idx.s - 2.0 + 2.0 / rho, idx.p, idx.r, rho
        )
    return lhs, rhs


def _assert_matches(got, want, p):
    """Bitwise away from p = 2; Parseval at p = 2 may move the last digits."""
    if p == 2.0:
        assert abs(got - want) <= 1e-13 * abs(want)
    else:
        assert got == want


def _field(grid, seed, amplitude, real):
    return band_limited_noise(
        grid, np.random.default_rng(seed), amplitude=amplitude, real=real
    )


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    amplitude=st.floats(1e-6, 1e3),
    p=st.sampled_from(EXPONENTS),
    real=st.booleans(),
)
def test_besov_norm_matches_per_block_reference(dim, seed, amplitude, p, real):
    f = _field(GRIDS[dim], seed, amplitude, real)
    s = dim / p - 1.0
    for r in (1.0, 2.0, np.inf):
        idx = BesovIndex(s=s, p=p, r=r)
        _assert_matches(besov_norm(f, idx), reference_besov_norm(f, idx), p)


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    amplitude=st.floats(1e-6, 1e3),
    p=st.sampled_from(EXPONENTS),
)
def test_smallness_monitor_matches_per_block_reference(dim, seed, amplitude, p):
    grid = GRIDS[dim]
    state = FieldState(
        P=_field(grid, seed, amplitude, real=False),
        omega=tuple(_field(grid, seed + 1 + a, amplitude, real=True) for a in range(dim)),
    )
    _assert_matches(smallness_monitor(state, p), reference_smallness_monitor(state, p), p)


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 5),
    p=st.sampled_from(EXPONENTS),
)
def test_sequence_forms_match_the_single_calls_bitwise(dim, seed, count, p):
    # One value per item, each the single call's to the last bit, also at
    # p = 2 and for a sequence of one.
    grid = GRIDS[dim]
    rng = np.random.default_rng(seed)
    amplitudes = 10.0 ** rng.uniform(-6, 3, size=count)
    fields = [_field(grid, seed + i, a, real=bool(i % 2)) for i, a in enumerate(amplitudes)]
    for r in (1.0, 2.0, np.inf):
        idx = BesovIndex(s=dim / p - 1.0, p=p, r=r)
        assert besov_norm(fields, idx) == [besov_norm(f, idx) for f in fields]
    states = [
        FieldState(P=f, omega=tuple(_field(grid, seed + i + a, 1.0, real=True) for a in range(dim)))
        for i, f in enumerate(fields)
    ]
    assert smallness_monitor(states, p) == [smallness_monitor(s, p) for s in states]


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), amplitude=st.floats(1e-6, 1e3))
def test_bony_split_matches_per_block_reference_bitwise(dim, seed, amplitude):
    grid = GRIDS[dim]
    rng = np.random.default_rng(seed)
    u = band_limited_noise(grid, rng, max_index=grid.n // 6, amplitude=amplitude)
    v = band_limited_noise(grid, rng, max_index=grid.n // 6, real=True)
    for got, want in zip(bony_split(u, v), reference_bony_split(u, v)):
        assert np.array_equal(got.physical(), want)


def _source(kind, grid, seed):
    if kind == "none":
        return None
    gs = _field(grid, seed + 1, 1.0, real=True)
    if kind == "spectral":
        return Forcing(f1=lambda t: SpectralField.from_spectral(grid, gs.spectral() * np.cos(t)))
    return Forcing(f1=lambda t: gs.physical() * (1.0 + t))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("source", ["none", "spectral", "physical"])
@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.sampled_from(EXPONENTS),
    r=st.sampled_from((1.0, 2.0, np.inf)),
    rho=st.sampled_from((1.0, 2.0)),
    rho1=st.sampled_from((1.0, 2.0, np.inf)),
)
def test_smoothing_estimate_matches_per_time_reference(dim, source, seed, p, r, rho, rho1):
    grid = GRIDS[dim]
    f0 = band_limited_noise(grid, np.random.default_rng(seed), max_index=grid.n // 4, zero_mean=True)
    g = _source(source, grid, seed)
    idx = BesovIndex(s=dim / p - 1.0, p=p, r=r, rho=rho)
    rep = check_smoothing_estimate(f0, g, 1.3, 0.4, idx, rho1, t_end=2.0, n_steps=16)
    lhs, rhs = reference_smoothing_sides(f0, g, 1.3, 0.4, idx, rho1, t_end=2.0, n_steps=16)
    _assert_matches(rep.lhs, lhs, p)
    _assert_matches(rep.rhs, rhs, p)


SHORT = Grid(dim=1, n=64, length=2.0)


@pytest.mark.parametrize("grid", [GRIDS[1], GRIDS[2], SHORT], ids=["1d", "2d", "short"])
def test_dyadic_block_matches_multiplier_products(grid):
    part = partition_for(grid)
    f = _field(grid, 3, 1.0, real=False)
    fhat = f.spectral()
    for q in part.homogeneous_range():
        assert np.array_equal(dyadic_block(f, q).spectral(), fhat * part.phi(q))
    # The nonhomogeneous blocks: the low-pass chi at q = -1, then phi_q for q >= 0.
    qs, mults = part.nonhomogeneous_blocks
    assert np.array_equal(qs, np.arange(-1.0, part.q_max + 1))
    assert np.array_equal(fhat * mults[0], fhat * part.chi)
    for q in part.nonhomogeneous_range():
        assert np.array_equal(fhat * mults[q + 1], fhat * part.phi(q))
    for q in (part.q_min - 1, part.q_max + 1):
        with pytest.raises(OutOfRange):
            dyadic_block(f, q)
    assert np.shares_memory(part.homogeneous_blocks[1], part.phi(part.q_max))


def _count_ffts(monkeypatch):
    calls = []
    for name in TRANSFORMS:
        def counted(*args, _f=getattr(np.fft, name), **kwargs):
            calls.append(_f)
            return _f(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


# One inverse transform of a stack.  In 2D, a stack that is zero outside the
# 2/3-rule band, as these band-limited fields are, takes the pruned passes of
# ``spectral.ifft_axes``: three numpy calls for one transform.
NUMPY_CALLS_PER_INVERSE = {1: 1, 2: 3}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("p, transforms", [(2.0, 0), (1.0, 1), (3.0, 1), (np.inf, 1)])
def test_besov_norm_fft_count(monkeypatch, dim, p, transforms):
    f = _field(GRIDS[dim], 0, 1.0, real=False)
    assert f.space == "spectral"
    calls = _count_ffts(monkeypatch)
    besov_norm(f, BesovIndex(s=0.5, p=p))
    assert len(calls) == transforms * NUMPY_CALLS_PER_INVERSE[dim]


@pytest.mark.parametrize("dim", [1, 2])
def test_bony_split_fft_count(monkeypatch, dim):
    grid = GRIDS[dim]
    rng = np.random.default_rng(0)
    u, v = (band_limited_noise(grid, rng, max_index=grid.n // 6) for _ in range(2))
    calls = _count_ffts(monkeypatch)
    bony_split(u, v)
    assert len(calls) == 2 * NUMPY_CALLS_PER_INVERSE[dim]
