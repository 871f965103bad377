"""Discrete Littlewood-Paley decomposition, Besov norms and estimate checks.

The dyadic multipliers are built from one smooth cutoff profile: ``chi`` is a
C-infinity radial bump equal to 1 on |xi| <= 3/4 and supported in |xi| <= 4/3,
and ``phi(xi) = chi(xi/2) - chi(xi)`` is supported in the annulus
3/4 <= |xi| <= 8/3.  By telescoping, the partitions of unity

    chi(xi) + sum_{q >= 0} phi(xi / 2**q) = 1          (nonhomogeneous)
    sum_{q in Z} phi(xi / 2**q) = 1   for xi != 0      (homogeneous)

hold exactly (to round-off) at every discrete wavenumber, and adjacent
multipliers are the only ones whose supports overlap.

On a grid the multipliers phi(. / 2**q) are the rows of one stacked array
(:class:`DyadicPartition`), and every block computation (block norms of a
field or a trajectory, the Bony split) is one array expression over it.

Physical-space L^p norms use the grid's normalized measure (see
:mod:`cglburgers.spectral`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .solver import FieldState, Forcing, diagonal_operators, etd2_step
from .spectral import Grid, SpectralField, ifft_axes, lp_norms

ANNULUS_INNER = 0.75
ANNULUS_OUTER = 8.0 / 3.0
BALL_RADIUS = 4.0 / 3.0
GRADED_T_MIN_FRACTION = 1e-7  # first positive sample of graded_times, over t_end


class OutOfRange(ValueError):
    """Requested dyadic scale is not resolvable on the grid."""


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity monotone transition: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


def chi_profile(xi: np.ndarray) -> np.ndarray:
    """Radial low-pass cutoff: 1 for |xi| <= 3/4, 0 for |xi| >= 4/3."""
    r = np.abs(np.asarray(xi, dtype=float))
    return 1.0 - _smooth_step((r - ANNULUS_INNER) / (BALL_RADIUS - ANNULUS_INNER))


def phi_profile(xi: np.ndarray) -> np.ndarray:
    """Annulus cutoff supported in 3/4 <= |xi| <= 8/3."""
    xi = np.asarray(xi, dtype=float)
    return chi_profile(xi / 2.0) - chi_profile(xi)


@dataclass(frozen=True)
class BesovIndex:
    """Regularity/integrability indices of a homogeneous (space-time) Besov norm."""

    s: float
    p: float = 2.0
    r: float = 1.0
    rho: float | None = None

    def __post_init__(self):
        for name, value in (("p", self.p), ("r", self.r)):
            if not (value >= 1.0):
                raise ValueError(f"exponent {name} must lie in [1, inf]")
        if self.rho is not None and not (self.rho >= 1.0):
            raise ValueError("time exponent rho must lie in [1, inf]")


class DyadicPartition:
    """Dyadic multiplier family evaluated on a grid's wavenumber set.

    One stack holds phi_q for q = min(q_min, 0)..q_max (rows below q_min are
    zero on short periods); :meth:`phi` returns a row.  The pairs (scales,
    multipliers) ``homogeneous_blocks`` (a view of rows q_min..q_max) and
    ``nonhomogeneous_blocks`` (``chi``, then rows q >= 0, built on first
    use) feed the block sums.  The rows are evaluated one scale at a time,
    so the profile's temporaries stay grid-sized: on the whole stack at
    once they peaked at 8.25 MiB traced on a 128^2 grid, against 2.37 MiB.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        kmag = grid.k_magnitude
        kmin = grid.k_min_positive
        kmax = grid.k_max
        # Smallest/largest scales whose annulus meets the resolvable band.
        self.q_min = math.ceil(math.log2(3.0 * kmin / 8.0))
        self.q_max = math.floor(math.log2(4.0 * kmax / 3.0))
        self.chi = chi_profile(kmag)
        self._q_lo = lo = min(self.q_min, 0)
        qs = np.arange(lo, self.q_max + 1)
        self._phis = np.empty((qs.size, *grid.shape))
        for row, q in zip(self._phis, qs):
            # ldexp scales by 2**-q exactly, as kmag / 2.0**q does.
            row[...] = phi_profile(np.ldexp(kmag, -q))
        h = self.q_min - lo
        self.homogeneous_blocks = qs[h:].astype(float), self._phis[h:]

    @cached_property
    def nonhomogeneous_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        lo = self._q_lo
        return (
            np.arange(-1.0, self.q_max + 1),
            np.concatenate([self.chi[None], self._phis[-lo:]]),
        )

    def phi(self, q: int) -> np.ndarray:
        if not self._q_lo <= q <= self.q_max:
            raise KeyError(q)  # a negative row index would wrap around
        return self._phis[q - self._q_lo]

    def homogeneous_range(self) -> range:
        return range(self.q_min, self.q_max + 1)

    def nonhomogeneous_range(self) -> range:
        """Block indices q >= 0; q = -1 is the low-pass block."""
        return range(0, self.q_max + 1)

    def partition_deviation(self) -> tuple[float, float]:
        """Max pointwise deviation from 1 of both partitions of unity."""
        total_nh = self.nonhomogeneous_blocks[1].sum(axis=0)
        total_h = self.homogeneous_blocks[1].sum(axis=0)
        nonzero = self.grid.k_magnitude > 0
        dev_nh = float(np.max(np.abs(total_nh - 1.0)))
        dev_h = float(np.max(np.abs(total_h[nonzero] - 1.0))) if nonzero.any() else 0.0
        return dev_nh, dev_h

    def quadratic_sum_bounds(self) -> tuple[float, float]:
        """Range of chi^2 + sum_q phi_q^2 over the discrete wavenumbers."""
        total = (self.nonhomogeneous_blocks[1] ** 2).sum(axis=0)
        return float(np.min(total)), float(np.max(total))


@lru_cache(maxsize=16)
def partition_for(grid: Grid) -> DyadicPartition:
    return DyadicPartition(grid)


def dyadic_block(f: SpectralField, q: int) -> SpectralField:
    """Frequency-annulus projection of ``f`` at homogeneous dyadic scale ``q``."""
    qs, mults = partition_for(f.grid).homogeneous_blocks
    lo, hi = int(qs[0]), int(qs[-1])
    if not lo <= q <= hi:
        raise OutOfRange(f"dyadic scale {q} outside resolvable range [{lo}, {hi}]")
    return SpectralField.from_spectral(f.grid, f.spectral() * mults[q - lo])


def _block_lp_norms(grid: Grid, spectra: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """(scales q, L^p norms of the homogeneous blocks).

    ``spectra`` has shape ``(..., *grid.shape)`` and the norms come back as
    ``(..., blocks)``, all from one product with the stacked multipliers.
    At p = 2 the norms follow from Parseval with no transform; any other p
    takes one inverse transform over the spatial axes.  The mean needs no
    removal: every phi_q vanishes at k = 0.
    """
    qs, mults = partition_for(grid).homogeneous_blocks
    lead = spectra.shape[: spectra.ndim - grid.dim]
    blocks = spectra.reshape(*lead, 1, *grid.shape) * mults
    axes = tuple(range(-grid.dim, 0))
    if p == 2.0:
        mag = np.abs(blocks)
        del blocks
        return qs, np.sqrt(np.sum(np.square(mag, out=mag), axis=axes))
    blocks = ifft_axes(grid, blocks)  # rebound, so that the product is freed
    mag = np.abs(blocks)
    del blocks
    return qs, lp_norms(mag, p, axes)


def _ell_r(values: np.ndarray, r: float) -> np.ndarray:
    """ell^r norms over the last axis of ``values``, shaped ``values.shape[:-1]``."""
    if np.isinf(r):
        return np.max(values, axis=-1)
    sums = np.sum(values**r, axis=-1)
    # The root per scalar: numpy's vectorized power can differ in the last bit.
    return np.array([s ** (1.0 / r) for s in sums.flat]).reshape(sums.shape)


def besov_norm(f: SpectralField | Sequence[SpectralField], idx: BesovIndex):
    """Discrete homogeneous Besov norm: ell^r over scales of 2**(q*s) * ||Delta_q f||_p.

    ``f`` is one field, or a sequence of fields on one grid; a sequence gets
    a list with one norm per field, each bitwise the norm of that field
    alone, from one stacked multiplier product and one inverse transform.
    """
    fields = [f] if isinstance(f, SpectralField) else f
    if len(fields) == 1:
        spectra = fields[0].spectral()[None]  # a view: np.stack would copy it
    else:
        spectra = np.stack([g.spectral() for g in fields])
    qs, norms = _block_lp_norms(fields[0].grid, spectra, idx.p)
    norms = _ell_r(2.0 ** (qs * idx.s) * norms, idx.r)
    return float(norms[0]) if isinstance(f, SpectralField) else norms.tolist()


def bony_split(u: SpectralField, v: SpectralField):
    """Paraproduct/remainder splitting of the pointwise product u*v.

    Returns (T_u v, T_v u, R(u, v)) built from nonhomogeneous blocks; the
    three parts sum to the product exactly for band-limited input.  Both
    inputs must be band-limited to one third of the Nyquist index so every
    block product is exactly representable on the grid.
    """
    grid = u.grid
    if v.grid != grid:
        raise ValueError("fields must share one grid")
    mask_over = ~grid.index_mask(grid.n / 6.0)
    hats = u.spectral(), v.spectral()
    for name, fhat in zip("uv", hats):
        excess = float(np.max(np.abs(fhat[mask_over]), initial=0.0))
        if excess > 1e-13 * max(1.0, float(np.max(np.abs(fhat)))):
            raise ValueError(
                f"{name} carries energy above one third of the Nyquist index"
            )

    mults = partition_for(grid).nonhomogeneous_blocks[1]
    bu, bv = (ifft_axes(grid, fhat * mults) for fhat in hats)
    zeros = np.zeros((2, *grid.shape), dtype=complex)
    # S_{q-1} of block q: the running sum of the blocks up to q - 2.
    Su, Sv = (np.concatenate([zeros, np.cumsum(b, axis=0)[:-2]]) for b in (bu, bv))
    padded = np.concatenate([zeros[:1], bv, zeros[:1]])
    near = padded[:-2] + padded[1:-1] + padded[2:]
    Tuv = (Su * bv).sum(axis=0)
    Tvu = (Sv * bu).sum(axis=0)
    Ruv = (bu * near).sum(axis=0)
    make = lambda arr: SpectralField.from_physical(grid, arr)
    return make(Tuv), make(Tvu), make(Ruv)


@dataclass
class SemigroupDecayReport:
    q: int
    p: float
    mu: float
    fitted_c: float
    bracket_lo: float = ANNULUS_INNER**2
    bracket_hi: float = ANNULUS_OUTER**2
    passed: bool = False

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "p": self.p,
            "mu": self.mu,
            "fitted_c": self.fitted_c,
            "bracket_lo": self.bracket_lo,
            "bracket_hi": self.bracket_hi,
            "pass": self.passed,
        }


def annulus_field(
    grid: Grid, q: int, rng: np.random.Generator | None = None, single_mode: bool = False
) -> SpectralField:
    """Field spectrally supported in the dyadic annulus at scale ``q``."""
    kmag = grid.k_magnitude
    lo, hi = ANNULUS_INNER * 2.0**q, ANNULUS_OUTER * 2.0**q
    inside = (kmag >= lo) & (kmag <= hi)
    if not inside.any():
        raise OutOfRange(f"annulus at scale {q} contains no grid wavenumber")
    if single_mode:
        coeffs = np.zeros(grid.shape, dtype=complex)
        target = np.abs(kmag - 2.0**q)
        target[~inside] = np.inf
        coeffs[np.unravel_index(np.argmin(target), grid.shape)] = 1.0
    else:
        rng = rng or np.random.default_rng(0)
        coeffs = (rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)) * inside
    return SpectralField.from_spectral(grid, coeffs)


def check_semigroup_decay(
    grid: Grid,
    q: int,
    mu: float,
    u_disp: float,
    t_grid: np.ndarray,
    p: float = 2.0,
    test_field: SpectralField | None = None,
    rng: np.random.Generator | None = None,
) -> SemigroupDecayReport:
    """Fit the heat-semigroup decay rate of an annulus-supported field.

    The L^p norm ratio of exp(mu*(1+i*u)*t*Laplacian) applied to a field
    supported in the annulus at scale 2**q decays like exp(-c*mu*4**q*t)
    with c between the squared inner and outer annulus radii.
    """
    if not 1.0 <= p <= np.inf:
        raise ValueError(f"p must lie in [1, inf], not {p!r}")
    f = test_field if test_field is not None else annulus_field(grid, q, rng=rng)
    times = np.asarray(t_grid, dtype=float)
    decay = -mu * (1.0 + 1j * u_disp) * grid.k_squared
    fhat = f.spectral()
    # Row 0 is f, row 1 + j is f propagated to times[j]: one product, one transform.
    spectra = np.concatenate(
        [fhat[None], fhat * np.exp(decay * times.reshape(-1, *(1,) * grid.dim))]
    )
    mags = np.abs(ifft_axes(grid, spectra))
    norms = lp_norms(mags, p, tuple(range(1, mags.ndim))).tolist()
    base = norms[0]
    logs = [np.log(norm / base) for norm in norms[1:]]
    slope = np.polyfit(times, np.array(logs), 1)[0]
    fitted_c = float(-slope / (mu * 4.0**q))
    report = SemigroupDecayReport(q=q, p=p, mu=mu, fitted_c=fitted_c)
    report.passed = report.bracket_lo <= fitted_c <= report.bracket_hi
    return report


def _source_spectrum(g: Forcing, grid: Grid, t: float) -> np.ndarray:
    """Spectrum of the source g.f1(t), given as a field or a physical array."""
    src = g.f1(t)
    if not isinstance(src, SpectralField):
        src = SpectralField.from_physical(grid, src)
    return src.spectral()


def _heat_spectra(
    fields: Sequence[SpectralField],
    g: Forcing | None,
    mu: float,
    u_disp: float,
    times: np.ndarray,
):
    """Spectra at ``times`` of the solutions of df/dt = mu*(1+i*u)*Lap(f) + g from ``fields``.

    Yields each field's spectra in one (times, *grid.shape) buffer, refilled
    for the next field.  The propagators exp(L*dt_j) are exact per mode and built once
    for all fields; a source enters through the shared ETD2 step, a
    second-order exponential quadrature of the variation-of-constants integral.
    """
    grid = fields[0].grid
    L = -mu * (1.0 + 1j * u_disp) * grid.k_squared
    forced = g is not None and g.f1 is not None
    dts = np.diff(times)
    steps = [diagonal_operators(L, dt) if forced else np.exp(L * dt) for dt in dts]
    source = lambda f, t: _source_spectrum(g, grid, t)
    spectra = np.empty((times.size, *grid.shape), dtype=complex)
    for f in fields:
        spectra[0] = f.spectral()
        for j, (dt, op) in enumerate(zip(dts, steps)):
            if forced:
                spectra[j + 1] = etd2_step(spectra[j], times[j], source, op, dt)[0]
            else:
                np.multiply(op, spectra[j], out=spectra[j + 1])
        yield spectra


def heat_solution_series(
    f0: SpectralField,
    g: Forcing | None,
    mu: float,
    u_disp: float,
    times: np.ndarray,
) -> list[SpectralField]:
    """Integrate df/dt = mu*(1+i*u)*Lap(f) + g on the given time grid (see :func:`_heat_spectra`)."""
    spectra = next(_heat_spectra([f0], g, mu, u_disp, np.asarray(times, dtype=float)))
    return [SpectralField.from_spectral(f0.grid, row) for row in spectra]


_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def graded_times(t_end: float, n_steps: int) -> np.ndarray:
    """Geometrically graded time grid resolving all diffusive scales.

    A uniform grid cannot resolve the decay of the fastest dyadic blocks
    without an absurd step count; log spacing keeps the trapezoid error of
    every block's time integral uniformly small.
    """
    inner = np.geomspace(t_end * GRADED_T_MIN_FRACTION, t_end, n_steps)
    return np.concatenate([[0.0], inner])


def _time_norm(series: np.ndarray, times: np.ndarray, rho: float) -> float:
    if np.isinf(rho):
        return float(np.max(series))
    return float(_trapezoid(series**rho, times) ** (1.0 / rho))


def space_time_besov_norm(
    grid: Grid,
    spectra: np.ndarray,
    times: np.ndarray,
    sigma: float,
    p: float,
    r: float,
    rho: float,
) -> float:
    """Block-wise time-integrated Besov norm of a trajectory of spectra.

    ``spectra`` stacks one spectrum per time sample: ``(times, *grid.shape)``.
    """
    qs, per_block = _block_lp_norms(grid, spectra, p)  # (times, blocks)
    # One time norm per block: a vectorized trapezoid or power moves the last bits.
    time_norms = np.array([_time_norm(series, times, rho) for series in per_block.T])
    return float(_ell_r(2.0 ** (qs * sigma) * time_norms, r))


@dataclass
class SmoothingRatioReport:
    lhs: float
    rhs: float
    ratio: float


def check_smoothing_estimate(
    f0: SpectralField | Sequence[SpectralField],
    g: Forcing | None,
    mu: float,
    u_disp: float,
    idx: BesovIndex,
    rho1: float,
    t_end: float = 1.0,
    n_steps: int = 64,
):
    """Evaluate both sides of the parabolic smoothing estimate.

    LHS = mu**(1/rho) * |||f|||_{rho1, sigma + 2/rho1} for the solution of
    the forced diffusion equation, RHS = ||f0||_{sigma} +
    mu**(1/rho - 1) * |||g|||_{rho, sigma - 2 + 2/rho}; the report carries
    the ratio LHS/RHS (0 when both sides vanish).  The admissible ceiling
    for the ratio is empirically calibrated, not derived.

    ``f0`` is one field, or a sequence of fields on one grid; a sequence
    gets a list with one report per field, each bitwise the report of that
    field alone.  The source's norm is taken once for all of them, and so
    are the heat propagators (see :func:`_heat_spectra`).  The fields are
    handled one at a time, so the peak memory is that of one.
    """
    fields = [f0] if isinstance(f0, SpectralField) else f0
    rho = idx.rho if idx.rho is not None else 1.0
    times = graded_times(t_end, n_steps)
    grid = fields[0].grid
    source_norm = 0.0  # the norms are >= 0, so adding 0.0 keeps their bits
    if g is not None and g.f1 is not None:
        sources = np.stack([_source_spectrum(g, grid, t) for t in times])
        source_norm = mu ** (1.0 / rho - 1.0) * space_time_besov_norm(
            grid, sources, times, idx.s - 2.0 + 2.0 / rho, idx.p, idx.r, rho
        )
    reports = []
    for f, spectra in zip(fields, _heat_spectra(fields, g, mu, u_disp, times)):
        lhs = mu ** (1.0 / rho) * space_time_besov_norm(
            grid, spectra, times, idx.s + 2.0 / rho1, idx.p, idx.r, rho1
        )
        rhs = besov_norm(f, idx) + source_norm
        ratio = 0.0 if (lhs == 0.0 and rhs == 0.0) else lhs / max(rhs, 1e-300)
        reports.append(SmoothingRatioReport(lhs=lhs, rhs=rhs, ratio=ratio))
    return reports[0] if isinstance(f0, SpectralField) else reports


def smallness_monitor(state: FieldState | Sequence[FieldState], p: float):
    """Critical-space smoothness monitor of (P, Omega).

    Sum of the homogeneous Besov norms with regularity N/p - 1 and
    summation exponent 1 over the amplitude and drift components.  A
    sequence of states on one grid gets a list with one value per state,
    each bitwise the value of that state alone, from one :func:`besov_norm`
    call per component over all of them.
    """
    states = [state] if isinstance(state, FieldState) else state
    idx = BesovIndex(s=states[0].grid.dim / p - 1.0, p=p, r=1.0)
    total = np.array(besov_norm([s.P for s in states], idx))
    for a in range(states[0].grid.dim):
        total += besov_norm([s.omega[a] for s in states], idx)
    return float(total[0]) if isinstance(state, FieldState) else total.tolist()
