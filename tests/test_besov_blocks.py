"""Besov norms and the Bony split against references that transform one block at a time."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cglburgers.littlewood_paley import (
    BesovIndex,
    besov_norm,
    bony_split,
    partition_for,
    smallness_monitor,
)
from cglburgers.solver import FieldState
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
    if idx.homogeneous:
        fhat[(0,) * f.grid.dim] = 0.0
        qs = list(part.homogeneous_range())
        mults = [part.phi(q) for q in qs]
    else:
        qs = [-1] + list(part.nonhomogeneous_range())
        mults = [part.chi] + [part.phi(q) for q in part.nonhomogeneous_range()]
    norms = [
        lp_norm(SpectralField.from_spectral(f.grid, fhat * m), idx.p) for m in mults
    ]
    return np.array(qs, dtype=float), np.array(norms)


def reference_besov_norm(f, idx):
    qs, norms = reference_block_norms(f, idx)
    values = 2.0 ** (qs * idx.s) * norms
    if np.isinf(idx.r):
        return float(np.max(values))
    return float(np.sum(values**idx.r) ** (1.0 / idx.r))


def reference_smallness_monitor(state, p):
    idx = BesovIndex(s=state.grid.dim / p - 1.0, p=p, r=1.0, homogeneous=True)
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
    homogeneous=st.booleans(),
    real=st.booleans(),
)
def test_besov_norm_matches_per_block_reference(dim, seed, amplitude, p, homogeneous, real):
    f = _field(GRIDS[dim], seed, amplitude, real)
    s = dim / p - 1.0
    for r in (1.0, 2.0, np.inf):
        idx = BesovIndex(s=s, p=p, r=r, homogeneous=homogeneous)
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
@given(seed=st.integers(0, 2**32 - 1), amplitude=st.floats(1e-6, 1e3))
def test_bony_split_matches_per_block_reference_bitwise(dim, seed, amplitude):
    grid = GRIDS[dim]
    rng = np.random.default_rng(seed)
    u = band_limited_noise(grid, rng, max_index=grid.n // 6, amplitude=amplitude)
    v = band_limited_noise(grid, rng, max_index=grid.n // 6, real=True)
    for got, want in zip(bony_split(u, v), reference_bony_split(u, v)):
        assert np.array_equal(got.physical(), want)


def _count_ffts(monkeypatch):
    calls = []
    for name in TRANSFORMS:
        def counted(*args, _f=getattr(np.fft, name), **kwargs):
            calls.append(_f)
            return _f(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("p, expected", [(2.0, 0), (1.0, 1), (3.0, 1), (np.inf, 1)])
def test_besov_norm_fft_count(monkeypatch, dim, p, expected):
    f = _field(GRIDS[dim], 0, 1.0, real=False)
    assert f.space == "spectral"
    calls = _count_ffts(monkeypatch)
    for homogeneous in (True, False):
        besov_norm(f, BesovIndex(s=0.5, p=p, homogeneous=homogeneous))
    assert len(calls) == 2 * expected


@pytest.mark.parametrize("dim", [1, 2])
def test_bony_split_fft_count(monkeypatch, dim):
    grid = GRIDS[dim]
    rng = np.random.default_rng(0)
    u, v = (band_limited_noise(grid, rng, max_index=grid.n // 6) for _ in range(2))
    calls = _count_ffts(monkeypatch)
    bony_split(u, v)
    assert len(calls) == 2
