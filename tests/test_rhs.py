"""The full-field right-hand side against a reference that dealiases every product."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cglburgers import solver
from cglburgers.model import SystemParams
from cglburgers.solver import FieldState, Forcing, SolverConfig, _physical, rhs_nonlinear
from cglburgers.spectral import Grid, SpectralField, band_limited_noise
from helpers import dealias_mask

PARAMS = SystemParams.constants(u=0.3, v=-0.7, xi=1.2, m=0.8, kappa=0.6, s1=0.4, s2=-0.9)
GRIDS = {1: Grid(dim=1, n=64), 2: Grid(dim=2, n=32, length=5.0)}
TRANSFORMS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn",
)


def _mask_product(a, b, mask):
    """Pointwise product with the 2/3-rule mask applied to the result."""
    prod = a * b
    if mask is None:
        return prod
    return np.fft.ifftn(np.fft.fftn(prod) * mask)


def reference_hats(grid, consts, u, t, forcing, use_dealias):
    """Stacked spectral N, every product projected through its own FFT round trip."""
    size = grid.size
    mask = dealias_mask(grid) if use_dealias else None
    Ph, Ohs = u[0], u[1:]
    P = np.fft.ifftn(Ph * size)
    O = [np.fft.ifftn(oh * size) for oh in Ohs]
    ks = grid.wavenumbers()

    dP = [np.fft.ifftn(1j * ks[a] * Ph * size) for a in range(grid.dim)]
    divO = np.zeros(grid.shape, dtype=complex)
    for a in range(grid.dim):
        divO = divO + np.fft.ifftn(1j * ks[a] * Ohs[a] * size)
    # Omega is real, and so is div Omega: a Nyquist mode has no derivative on the grid.
    divO = divO.real

    adv_P = np.zeros(grid.shape, dtype=complex)
    for a in range(grid.dim):
        adv_P = adv_P + _mask_product(O[a], dP[a], mask)

    absP2 = _mask_product(P, np.conj(P), mask)
    cubic = _mask_product(absP2, P, mask)

    NP = (
        -adv_P
        + consts.xi * P
        - (1.0 + 1j * consts.v) * cubic
        - consts.r1 * _mask_product(P, divO, mask)
    )
    if forcing.f1 is not None:
        f1 = forcing.f1(t)
        NP = NP + (f1.physical() if isinstance(f1, SpectralField) else np.asarray(f1))

    NOs = []
    grad_absP2 = np.fft.fftn(absP2) / size
    for a in range(grid.dim):
        adv_O = np.zeros(grid.shape, dtype=complex)
        for b in range(grid.dim):
            dOa = np.fft.ifftn(1j * ks[b] * Ohs[a] * size)
            adv_O = adv_O + _mask_product(O[b], dOa, mask)
        grad_term = np.fft.ifftn(1j * ks[a] * grad_absP2 * size)
        NOs.append(-adv_O - consts.kappa * grad_term)
    if forcing.f2 is not None:
        f2 = forcing.f2(t)
        for a in range(grid.dim):
            comp = f2[a]
            NOs[a] = NOs[a] + (
                comp.physical() if isinstance(comp, SpectralField) else np.asarray(comp)
            )

    N = np.empty_like(u)
    N[0] = np.fft.fftn(NP)
    for a, NO in enumerate(NOs):
        N[1 + a] = np.fft.fftn(NO.real)
    N /= size
    if mask is not None:
        N *= mask
    return N


def _packed_dealias_mask(grid):
    """The 2/3-rule mask in the packed layout of the full-field state."""
    lay, mask = solver._layout(grid), dealias_mask(grid)
    return lay.pack(mask, lay.half(mask))


class _ScaledLayout(solver._Layout):
    """The layout with the multipliers of the unnormalized inverse transforms."""

    def __init__(self, grid):
        super().__init__(grid)
        self.axes = tuple(range(-grid.dim, 0))
        self.ikP = tuple(ik * grid.size for ik in self.ikP)
        self.value_grad = self.value_grad * grid.size
        self.dealias_half = self.half(dealias_mask(grid))


def _reference_nonlinear_hats(grid, consts, u, t, forcing):
    """The right-hand side with explicit 1/size scalings and sums from 0."""
    lay = _ScaledLayout(grid)
    size, dim, axes = lay.size, lay.dim, lay.axes
    Ph, Ohs = lay.split(u)
    P = np.fft.ifftn(Ph * size)
    dP = [np.fft.ifftn(ik * Ph) for ik in lay.ikP]
    # V[a, 0] = Omega_a and V[a, 1 + b] = d_b Omega_a, all real.
    V = np.fft.irfftn(Ohs[:, None] * lay.value_grad, s=grid.shape, axes=axes)
    O = V[:, 0]

    absP2_hat = np.fft.rfftn(P.real**2 + P.imag**2) / size * lay.dealias_half
    absP2 = np.fft.irfftn(absP2_hat * size, s=grid.shape, axes=axes)

    NP = (
        -sum(O[a] * dP[a] for a in range(dim))
        + consts.xi * P
        - (1.0 + 1j * consts.v) * absP2 * P
        - consts.r1 * P * sum(V[a, 1 + a] for a in range(dim))
    )
    if forcing.f1 is not None:
        NP = NP + _physical(forcing.f1(t))
    f2 = forcing.f2(t) if forcing.f2 is not None else None

    NO = np.empty((dim, *grid.shape))
    for a in range(dim):
        NO[a] = -sum(O[b] * V[a, 1 + b] for b in range(dim))
        if f2 is not None:
            NO[a] += _physical(f2[a]).real

    N = np.empty_like(u)
    N[:size] = np.fft.fftn(NP).ravel() / size
    NOh = np.fft.rfftn(NO, axes=axes) / size - consts.kappa * lay.ik_half * absP2_hat
    N[size:] = NOh.ravel()
    N *= _packed_dealias_mask(grid)
    vmax = float(np.max(np.abs(O)))
    return N, float(np.max([np.max(np.abs(P)), vmax])), vmax


def _state(grid, seed, amplitude):
    # Noise on every mode, the Nyquist modes included, so that undealiased
    # runs see every product.
    rng = np.random.default_rng(seed)
    top = grid.n // 2
    return FieldState(
        P=band_limited_noise(grid, rng, max_index=top, amplitude=amplitude),
        omega=tuple(
            band_limited_noise(grid, rng, max_index=top, amplitude=amplitude, real=True)
            for _ in range(grid.dim)
        ),
        t=0.3,
    )


def _forcing(grid, seed):
    rng = np.random.default_rng(seed + 1)
    f1 = band_limited_noise(grid, rng).physical()
    f2 = [band_limited_noise(grid, rng, real=True) for _ in range(grid.dim)]
    return Forcing(
        f1=lambda t: np.cos(t) * f1,
        f2=lambda t: tuple(
            SpectralField.from_spectral(grid, np.sin(t) * w.spectral()) for w in f2
        ),
    )


def _spectra(state):
    """Stacked full spectra of (P, Omega_1..Omega_d)."""
    return np.stack([state.P.spectral(), *(w.spectral() for w in state.omega)])


def _assert_close(got, want):
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    amplitude=st.floats(1e-3, 10.0),
    k_cutoff=st.sampled_from([None, 4.0]),
    forced=st.booleans(),
)
def test_field_system_rhs_matches_reference(dim, seed, amplitude, k_cutoff, forced):
    grid = GRIDS[dim]
    forcing = _forcing(grid, seed) if forced else Forcing()
    config = SolverConfig(dt=1e-9, k_cutoff=k_cutoff)
    _, N = solver._field_system(grid, PARAMS, forcing, config)
    state = _state(grid, seed, amplitude)
    u, full = solver._stack(state), _spectra(state)
    if k_cutoff is not None:
        keep, lay = grid.kmax_mask(k_cutoff), solver._layout(grid)
        u, full = u * lay.pack(keep, lay.half(keep)), full * keep
    want = reference_hats(grid, PARAMS.require_constant(), full, state.t, forcing, True)
    _assert_close(_spectra(solver._unstack(grid, N(u, state.t), state.t)), want)


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), amplitude=st.floats(1e-3, 10.0), forced=st.booleans()
)
def test_rhs_nonlinear_matches_reference(dim, seed, amplitude, forced):
    grid = GRIDS[dim]
    forcing = _forcing(grid, seed) if forced else None
    state = _state(grid, seed, amplitude)
    want = reference_hats(
        grid, PARAMS.require_constant(), _spectra(state), state.t,
        forcing or Forcing(), True,
    )
    dP, dO = rhs_nonlinear(state, PARAMS, forcing)
    _assert_close(np.stack([dP.spectral(), *(w.spectral() for w in dO)]), want)


def _count_transforms(monkeypatch) -> list:
    """The numpy transforms called from now on, one entry each."""
    calls = []
    for name in TRANSFORMS:
        def counted(*args, _f=getattr(np.fft, name), **kwargs):
            calls.append(_f)
            return _f(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.mark.parametrize(
    "dim, in_band, expected", [(1, False, 6), (1, True, 6), (2, False, 13), (2, True, 20)]
)
def test_rhs_evaluation_fft_count(monkeypatch, dim, in_band, expected):
    # A 2D transform that skips the lines outside the 2/3-rule band makes two
    # numpy calls if real, three if complex.  The three masked forwards and
    # the inverse of the masked |P|^2 always skip them; the inverses of P,
    # grad P and the drift only for a state inside the band.
    grid = GRIDS[dim]
    _, N = solver._field_system(grid, PARAMS, None, SolverConfig(dt=1e-9))
    u = solver._stack(_state(grid, 0, 0.1))
    if in_band:
        u = u * _packed_dealias_mask(grid)
    calls = _count_transforms(monkeypatch)
    N(u, 0.0)
    assert len(calls) == expected


@pytest.mark.parametrize("n", [32, 128])
@pytest.mark.parametrize(
    "part, sign, outside, expected",
    [
        # One line at |index| = n//3 + 1, just outside the band, takes numpy's
        # n-d transforms: the inverses of P and grad P for a row of P's
        # spectrum, the drift's inverse for a column of the drift halves.
        ("P", 1, True, 14), ("P", -1, True, 14), ("drift", 1, True, 19),
        # The same lines at n//3, the edge of the band, take none.
        ("P", 1, False, 20), ("P", -1, False, 20), ("drift", 1, False, 20),
    ],
)
def test_a_line_just_outside_the_band_takes_numpys_route(
    monkeypatch, n, part, sign, outside, expected
):
    grid = Grid(dim=2, n=n, length=5.0)
    consts = PARAMS.require_constant()
    lay = solver._layout(grid)
    u = solver._stack(_state(grid, n, 0.5)) * _packed_dealias_mask(grid)
    Ph, Ohs = lay.split(u)
    index = sign * (n // 3 + outside)
    rng = np.random.default_rng(n)
    line = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    if part == "P":
        Ph[index] = line[0]
    else:
        Ohs[:, :, index] = line
    calls = _count_transforms(monkeypatch)
    N, amax, vmax = solver._nonlinear_hats(grid, consts, u, 0.3, Forcing())
    assert len(calls) == expected
    monkeypatch.undo()
    N_ref, amax_ref, vmax_ref = _reference_nonlinear_hats(grid, consts, u, 0.3, Forcing())
    assert np.array_equal(N, N_ref)
    assert amax == amax_ref and vmax == vmax_ref


@pytest.mark.parametrize("dim", [1, 2])
def test_nyquist_drift_has_no_divergence(dim):
    # A pure Nyquist mode along each axis has zero derivative at every grid
    # point, so r1*P*div(Omega) vanishes and N_P cannot depend on r1.  P
    # carries modes outside the kept band, whose products with the Nyquist
    # mode alias into it.
    grid = Grid(dim=dim, n=16)
    P = band_limited_noise(grid, np.random.default_rng(0), max_index=grid.n // 2)
    x = np.indices(grid.shape)
    omega = tuple(
        SpectralField.from_physical(grid, 0.7 * (-1.0) ** x[a]) for a in range(dim)
    )
    state = FieldState(P=P, omega=omega)
    coupled, _ = rhs_nonlinear(state, PARAMS)
    uncoupled, _ = rhs_nonlinear(
        state, SystemParams.constants(u=0.3, v=-0.7, xi=1.2, m=0.8, kappa=0.6)
    )
    _assert_close(coupled.spectral(), uncoupled.spectral())


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([8, 16, 32, 64]), seed=st.integers(0, 2**32 - 1))
def test_pack_round_trip(dim, n, seed):
    grid = Grid(dim=dim, n=n)
    rng = np.random.default_rng(seed)
    state = FieldState(
        P=band_limited_noise(grid, rng, max_index=n // 2),
        omega=tuple(
            band_limited_noise(grid, rng, max_index=n // 2, real=True) for _ in range(dim)
        ),
    )
    want = _spectra(state)
    got = _spectra(solver._unstack(grid, solver._stack(state), state.t))
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=20, deadline=None)
@given(
    n=st.sampled_from([8, 16, 32, 64]),
    seed=st.integers(0, 2**32 - 1),
    amplitude=st.floats(1e-3, 10.0),
)
def test_packed_rhs_matches_reference_on_band_limited_data(dim, n, seed, amplitude):
    grid = Grid(dim=dim, n=n, length=5.0)
    rng = np.random.default_rng(seed)
    state = FieldState(
        P=band_limited_noise(grid, rng, amplitude=amplitude),
        omega=tuple(
            band_limited_noise(grid, rng, amplitude=amplitude, real=True) for _ in range(dim)
        ),
    )
    _, N = solver._field_system(grid, PARAMS, None, SolverConfig(dt=1e-9))
    got = _spectra(solver._unstack(grid, N(solver._stack(state), 0.0), 0.0))
    want = reference_hats(
        grid, PARAMS.require_constant(), _spectra(state), 0.0, Forcing(), True
    )
    _assert_close(got, want)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("k_cutoff", [None, 4.0])
@pytest.mark.parametrize("forced", [False, True])
def test_nonlinear_hats_match_the_scaled_reference_bitwise(dim, seed, k_cutoff, forced):
    # Every scaling by the grid size is an exact power of two, so moving it
    # into the transforms' normalization changes no bit.
    grid = GRIDS[dim]
    consts = PARAMS.require_constant()
    forcing = _forcing(grid, seed) if forced else Forcing()
    u = solver._stack(_state(grid, seed, 0.5))
    if k_cutoff is not None:
        keep, lay = grid.kmax_mask(k_cutoff), solver._layout(grid)
        u = u * lay.pack(keep, lay.half(keep))
    N, amax, vmax = solver._nonlinear_hats(grid, consts, u, 0.3, forcing)
    N_ref, amax_ref, vmax_ref = _reference_nonlinear_hats(grid, consts, u, 0.3, forcing)
    assert np.array_equal(N, N_ref)
    assert amax == amax_ref and vmax == vmax_ref
