"""The batched polar right-hand side against the per-field reference transforms."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cglburgers import dispersion, perturbation
from cglburgers.model import PlaneWave, SystemParams
from cglburgers.perturbation import (
    CHART_FLOOR_FRACTION,
    ChartBreakdown,
    PerturbationState,
    evolve_polar,
    remainder,
)
from cglburgers.solver import SolverConfig, StepUnstable, check_magnitude
from cglburgers.spectral import Grid

# Every coefficient amplitude-dependent, and a carrier wave, so that every
# term of the tendencies is exercised.
PARAMS = SystemParams(
    u_coeffs=(0.3, 0.7),
    v_coeffs=(-0.4, 0.2),
    m=0.8,
    kappa_coeffs=(0.5, 0.3),
    s1_coeffs=(0.125, 0.4),
    s2_coeffs=(0.3, -0.2),
)
LENGTH = 2.0 * np.pi * np.sqrt(2.0)
TRANSFORMS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn",
)


def _wave(grid):
    theta0 = grid.k_min_positive
    return PlaneWave(r0=float(np.sqrt(1.0 - theta0**2)), theta0=theta0, w0=0.3)


def _workspace(n, k_cutoff=None, params=PARAMS, wave=None):
    grid = Grid(dim=1, n=n, length=LENGTH)
    config = SolverConfig(dt=1e-3, k_cutoff=k_cutoff)
    return perturbation._PolarWorkspace(grid, params, wave or _wave(grid), config)


def reference_hats(ws, state):
    n = ws.grid.n
    return np.stack(
        [np.fft.rfft(state.rho) / n, np.fft.rfft(state.phi) / n, np.fft.rfft(state.h) / n],
        axis=-1,
    )


def reference_fields(ws, hats):
    n = ws.grid.n
    return tuple(np.fft.irfft(hats[:, i] * n, n=n) for i in range(3))


def reference_tendency_hats(ws, kept, t):
    """The full polar tendency with one transform per field and derivative: 12 FFTs.

    Works in the full rfft layout: the kept modes are zero-padded to all
    n//2 + 1 modes, the tendencies projected by the full-layout mask of the
    kept band, and only the kept modes returned.
    """
    n = ws.grid.n
    k = 2.0 * np.pi / ws.grid.length * np.arange(n // 2 + 1)
    keep = np.arange(n // 2 + 1) <= n / 3.0
    if ws.config.k_cutoff is not None:
        keep &= k <= ws.config.k_cutoff + 1e-12
    hats = np.zeros((n // 2 + 1, 3), dtype=complex)
    hats[: ws.nk] = kept
    rho, phi, h = reference_fields(ws, hats)
    r = ws.wave.r0 + rho
    floor = CHART_FLOOR_FRACTION * ws.wave.r0
    if float(np.min(r)) <= floor:
        raise ChartBreakdown("polar amplitude r0 + rho reached zero", t)
    amax = float(np.max(np.abs((rho, phi, h))))
    check_magnitude(amax, ws.config.blowup_threshold, t, "perturbation")
    ik = 1j * k
    d = lambda col, order: np.fft.irfft((ik**order) * hats[:, col] * n, n=n)
    rho_x, rho_xx = d(0, 1), d(0, 2)
    phi_x, phi_xx = d(1, 1), d(1, 2)
    h_x, h_xx = d(2, 1), d(2, 2)
    p = ws.params
    w = ws.wave
    tx = w.theta0 + phi_x
    u_r = p.u_coeffs[0] + p.u_coeffs[1] * r
    v_r = p.v_coeffs[0] + p.v_coeffs[1] * r
    s1_r = p.s1_coeffs[0] + p.s1_coeffs[1] * r
    s2_r = p.s2_coeffs[0] + p.s2_coeffs[1] * r
    kap_r = p.kappa_coeffs[0] + p.kappa_coeffs[1] * r

    rho_t = (
        rho_xx
        - (w.w0 + h) * rho_x
        - u_r * (2.0 * rho_x * tx + r * phi_xx)
        + r * (1.0 - r**2 - tx**2 - s1_r * h_x)
    )
    phi_t = (
        -(w.w0 + h) * tx
        + (2.0 * rho_x * tx + u_r * rho_xx) / r
        - u_r * tx**2
        + phi_xx
        - v_r * r**2
        - s2_r * h_x
    )
    h_t = p.m * h_xx - (w.w0 + h) * h_x - 2.0 * kap_r * r * rho_x

    full = np.stack(
        [np.fft.rfft(rho_t) / n, np.fft.rfft(phi_t) / n, np.fft.rfft(h_t) / n],
        axis=-1,
    )
    return (full * keep[:, None])[: ws.nk]


def reference_rhs_hats(ws, kept, t):
    """The polar remainder: the reference tendency minus the exact linear part."""
    return reference_tendency_hats(ws, kept, t) - np.einsum("mij,mj->mi", ws.M, kept)


def _state(grid, seed, amplitude):
    # Noise on every mode, the Nyquist mode included.
    rng = np.random.default_rng(seed)
    rho, phi, h = amplitude * rng.standard_normal((3, grid.n))
    return PerturbationState(grid=grid, rho=rho, phi=phi, h=h, t=0.25)


_COEFF_PAIR = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
_PARAMS_PAIRS = (
    PARAMS.u_coeffs, PARAMS.v_coeffs, PARAMS.kappa_coeffs, PARAMS.s1_coeffs, PARAMS.s2_coeffs
)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    amplitude=st.floats(1e-8, 0.2),
    n=st.sampled_from([128, 256]),
    k_cutoff=st.sampled_from([None, 4.0]),
    pairs=st.tuples(*[_COEFF_PAIR] * 5),
    m=st.floats(-1.0, 2.0),
    theta0=st.floats(-0.95, 0.95),
    w0=st.floats(-1.0, 1.0),
)
# Always run: PARAMS with the wave of _wave, and a wave with theta0 < 0.
@example(seed=139, amplitude=0.1875, n=256, k_cutoff=None, pairs=_PARAMS_PAIRS, m=0.8,
         theta0=2.0 * np.pi / LENGTH, w0=0.3)
@example(seed=5, amplitude=0.05, n=128, k_cutoff=4.0, pairs=_PARAMS_PAIRS, m=0.8,
         theta0=-0.6, w0=-0.3)
def test_polar_rhs_matches_reference_bitwise(seed, amplitude, n, k_cutoff, pairs, m, theta0, w0):
    # The coefficients, m and the wave are drawn too, theta0 of either sign,
    # so that no coefficient of the tendency can drop out unseen.
    u, v, kappa, s1, s2 = pairs
    params = SystemParams(
        u_coeffs=u, v_coeffs=v, m=m, kappa_coeffs=kappa, s1_coeffs=s1, s2_coeffs=s2
    )
    wave = PlaneWave(r0=float(np.sqrt(1.0 - theta0**2)), theta0=theta0, w0=w0)
    ws = _workspace(n, k_cutoff, params, wave)
    state = _state(ws.grid, seed, amplitude)
    hats = state.hats()
    assert np.array_equal(hats, reference_hats(ws, state))
    assert np.array_equal(
        PerturbationState.from_hats(ws.grid, hats).stack(),
        np.stack(reference_fields(ws, hats)),
    )
    # Large noise can leave the polar chart; then both must refuse alike.
    got, want = (
        _outcome(rhs, hats[: ws.nk], state.t)
        for rhs in (ws.rhs_hats, lambda u, t: reference_rhs_hats(ws, u, t))
    )
    if isinstance(want, type):
        assert got is want
    else:
        assert np.array_equal(got, want)


def _outcome(rhs, hats, t):
    """The right-hand side, or the class of the guard exception it raised."""
    try:
        return rhs(hats, t)
    except (StepUnstable, ChartBreakdown) as exc:
        return type(exc)


@pytest.mark.parametrize("bad, error", [(np.nan, StepUnstable), (-2.0, ChartBreakdown)])
def test_polar_rhs_guards_match_reference(bad, error):
    ws = _workspace(128)
    state = _state(ws.grid, 0, 1e-3)
    state.rho[5] = bad
    hats = state.hats()
    for rhs in (ws.rhs_hats, lambda u, t: reference_rhs_hats(ws, u, t)):
        with pytest.raises(error):
            rhs(hats[: ws.nk], 0.5)


@pytest.mark.parametrize("n, k_cutoff", [(128, None), (256, 4.0)])
def test_one_workspace_serves_evaluations_in_a_row(n, k_cutoff):
    # The workspace keeps its transform buffer from call to call: no call
    # may see what the one before it left there.
    ws = _workspace(n, k_cutoff)
    first, second = (_state(ws.grid, seed, 1e-2).hats()[: ws.nk] for seed in (3, 4))
    for kept in (first, second, first):
        want = reference_tendency_hats(ws, kept, 0.25)
        assert np.array_equal(ws.tendency_hats(kept, 0.25), want)
    bad = _state(ws.grid, 5, 1e-2)
    bad.phi[7] = np.nan
    with pytest.raises(StepUnstable):
        ws.tendency_hats(bad.hats()[: ws.nk], 0.5)
    assert np.array_equal(ws.tendency_hats(second, 0.25), reference_tendency_hats(ws, second, 0.25))


@pytest.mark.parametrize("scheme", ["exponential-rk2", "imex-bdf2"])
def test_evolve_polar_matches_reference_bitwise(monkeypatch, scheme):
    grid = Grid(dim=1, n=128, length=LENGTH)
    state0 = _state(grid, 7, 1e-2)
    state0.t = 0.0
    config = SolverConfig(dt=1e-3, t_end=50e-3, cadence=10, scheme=scheme, k_cutoff=20.0)
    got = evolve_polar(state0, PARAMS, _wave(grid), config)
    monkeypatch.setattr(perturbation._PolarWorkspace, "rhs_hats", reference_rhs_hats)
    want = evolve_polar(state0, PARAMS, _wave(grid), config)
    assert got.final.t == want.final.t == pytest.approx(50e-3)
    assert np.array_equal(got.final.stack(), want.final.stack())
    assert len(got.hats) == len(want.hats) == 6
    for a, b in zip(got.hats, want.hats):
        assert np.array_equal(a, b)
    assert got.rows == want.rows


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    amplitude=st.floats(1e-8, 0.2),
    n=st.sampled_from([64, 128, 256]),
)
def test_remainder_matches_reference_bitwise(seed, amplitude, n):
    # The stepped tendency minus the closed-form pencil, both on the
    # kept-band projection of the state, transformed back to fields.
    ws = _workspace(n)
    state = _state(ws.grid, seed, amplitude)
    kept = reference_hats(ws, state)[: ws.nk]
    k = (2.0 * np.pi / LENGTH * np.arange(ws.nk))[:, None, None]
    mats = dispersion.build_matrices(PARAMS, ws.wave, "kappa_gradient")
    closed = -(k**2) * mats.A + 1j * k * mats.B + mats.C

    def reference(u, t):
        psi = np.zeros((n // 2 + 1, 3), dtype=complex)
        psi[: ws.nk] = reference_tendency_hats(ws, u, t) - np.einsum("mij,mj->mi", closed, u)
        return np.stack(reference_fields(ws, psi))

    # Large noise can leave the polar chart; then both must refuse alike.
    got, want = (
        _outcome(psi, kept, state.t)
        for psi in (lambda u, t: remainder(state, PARAMS, ws.wave).stack(), reference)
    )
    if isinstance(want, type):
        assert got is want
    else:
        assert np.array_equal(got, want)


def _count_ffts(monkeypatch):
    calls = []
    for name in TRANSFORMS:
        def counted(*args, _f=getattr(np.fft, name), **kwargs):
            calls.append(_f)
            return _f(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def test_polar_fft_counts(monkeypatch):
    ws = _workspace(128)
    state = _state(ws.grid, 0, 1e-3)
    calls = _count_ffts(monkeypatch)
    hats = state.hats()
    assert len(calls) == 1
    PerturbationState.from_hats(ws.grid, hats)
    assert len(calls) == 2
    ws.rhs_hats(hats[: ws.nk], 0.0)
    assert len(calls) == 4
    remainder(state, PARAMS, ws.wave)
    assert len(calls) == 8


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([8, 16, 32, 64, 128, 256, 512]),
    length=st.floats(0.5, 50.0),
    k_cutoff=st.one_of(st.none(), st.floats(1e-3, 1e3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_kept_band_is_a_prefix_and_snapshots_stay_in_it(n, length, k_cutoff, seed):
    # The kept band |k| <= bound starts at k = 0, so the polar state can
    # store its first nk modes and nothing else.
    grid = Grid(dim=1, n=n, length=length)
    _, keep = perturbation._kept_band(grid, k_cutoff)
    nk = int(np.count_nonzero(keep))
    assert np.array_equal(keep, np.arange(n // 2 + 1) < nk)

    rng = np.random.default_rng(seed)
    rho, phi, h = 1e-3 * rng.standard_normal((3, n))
    state = PerturbationState(grid=grid, rho=rho, phi=phi, h=h)
    params = SystemParams.constants(m=1.0)
    wave = PlaneWave(r0=1.0, theta0=0.0)
    dt = 1e-3 * min(1.0, (length / n) ** 2)
    config = SolverConfig(dt=dt, t_end=2 * dt, cadence=1, k_cutoff=k_cutoff)
    traj = evolve_polar(state, params, wave, config)
    assert len(traj.hats) == 3
    for snap in traj.hats:
        assert snap.shape == (n // 2 + 1, 3)
        assert not np.any(snap[nk:])


def test_the_linear_part_is_the_derivative_of_the_tendency():
    # The integrator subtracts M u in rhs_hats and adds it back exactly, so a
    # wrong M changes only the stiffness, and no trajectory shows it.  The
    # derivative check does: |(T(eps d) - T(0))/eps - M d| / |M d| is first
    # order in eps.  With the sign of the 2*theta0/r0 entry of
    # true_linearization flipped it stays at about 1.  The slice has
    # theta0 != 0 and c0 != 0, where the exact and closed-form pencils differ.
    grid = Grid(dim=1, n=64, length=LENGTH)
    theta0 = grid.k_min_positive
    r0 = float(np.sqrt(1.0 - theta0**2))
    params = SystemParams.constants(
        u=0.6, v=-0.6 * theta0**2 / r0**2, m=1.2, kappa=0.5, s1=0.3, s2=0.2
    )
    ws = perturbation._PolarWorkspace(grid, params, PlaneWave(r0=r0, theta0=theta0), SolverConfig(dt=1e-3))
    rng = np.random.default_rng(0)
    d = rng.standard_normal((ws.nk, 3)) + 1j * rng.standard_normal((ws.nk, 3))
    d[0] = d[0].real  # the k = 0 mode of a real field
    t0 = ws.tendency_hats(np.zeros_like(d), 0.0)
    assert not np.any(t0)  # the wave is an equilibrium
    md = np.einsum("mij,mj->mi", ws.M, d)
    errors = [
        np.linalg.norm((ws.tendency_hats(eps * d, 0.0) - t0) / eps - md) / np.linalg.norm(md)
        for eps in (1e-3, 1e-4, 1e-5, 1e-6)
    ]
    assert errors[-1] < 1e-4, errors
    for coarse, fine in zip(errors, errors[1:]):
        assert 7.0 < coarse / fine < 13.0, errors


@pytest.mark.parametrize("seed", [0, 1])
def test_evolve_polar_keeps_the_reflection_symmetry(seed):
    # x -> -x maps the wave (theta0, w0) to (-theta0, -w0) and the
    # perturbation (rho, phi, h)(x) to (rho, phi, -h)(-x); the polar
    # dynamics commute with it to round-off.  A parity slip, such as theta0
    # where theta0^2 belongs, breaks it.
    grid = Grid(dim=1, n=64, length=LENGTH)
    theta0 = 0.9 * grid.k_min_positive
    wave = PlaneWave(r0=float(np.sqrt(1.0 - theta0**2)), theta0=theta0, w0=0.4)
    mirror = PlaneWave(r0=wave.r0, theta0=-wave.theta0, w0=-wave.w0)
    config = SolverConfig(dt=1e-2, t_end=1.0, cadence=100)

    def reflect(state):
        rho, phi, h = (np.roll(f[::-1], 1) for f in state.stack())
        return PerturbationState(grid=grid, rho=rho, phi=phi, h=-h, t=state.t)

    state0 = _state(grid, seed, 1e-3)
    state0.t = 0.0
    want = reflect(evolve_polar(state0, PARAMS, wave, config).final).stack()
    got = evolve_polar(reflect(state0), PARAMS, mirror, config).final.stack()
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
