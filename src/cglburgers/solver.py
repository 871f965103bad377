"""Time integration of the coupled complex-amplitude / drift system.

One semilinear core advances du/dt = L*u + N(u, t) with L exact per Fourier
mode: diagonal for the full fields here, a stack of 3x3 blocks for the polar
dynamics of :mod:`cglburgers.perturbation`.  The nonlinear rest (advection,
cubic saturation, growth and coupling) is explicit at second order: an
exponential two-stage Runge-Kutta method (ETD2) by default, or semi-implicit
BDF2 for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .model import ConstantCoefficients, SystemParams
from .spectral import Grid, SpectralField, fft_axes, ifft_axes, irfft_axes, rfft_axes

BLOWUP_DEFAULT = 1e6
# Largest ratio of the anti-Hermitian to the Hermitian part of a drift
# spectrum (the imaginary and real parts of Omega) that the packing accepts.
DRIFT_IMAG_TOL = 1e-10

SCHEMES = ("exponential-rk2", "imex-bdf2")
# Bytes that the dyadic block stack of one batch of diagnostics rows may
# take, per field component (see _DiagnosticsRows): glibc's default mmap
# threshold.  Larger stacks were mapped or trimmed and faulted in again on
# every batch: about 10 800 minor page faults per field-1d pass in batches
# of 7 (256 KiB), none in batches of 3.
ROW_BATCH_BYTES = 2**17


class GuardTripped(RuntimeError):
    """A guard on the stepped state tripped at time ``t``.

    Raised out of :func:`run`, ``rows`` holds the records made before the
    failure (the diagnostics rows of :func:`evolve` or
    :func:`cglburgers.perturbation.evolve_polar`) and ``last`` the last
    completed (u, t) of the stepped state.
    """

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t
        self.rows: list = []
        self.last: tuple | None = None


class StepUnstable(GuardTripped):
    """A blow-up, NaN or advective CFL guard tripped during time stepping."""


@dataclass
class FieldState:
    """Complex amplitude P and real drift field Omega at time t."""

    P: SpectralField
    omega: tuple[SpectralField, ...]
    t: float = 0.0

    def __post_init__(self):
        self.omega = tuple(self.omega)
        if len(self.omega) != self.P.grid.dim:
            raise ValueError("omega must have one component per spatial dimension")
        for w in self.omega:
            if w.grid != self.P.grid:
                raise ValueError("all fields must share one grid")

    @property
    def grid(self) -> Grid:
        return self.P.grid

    @classmethod
    def zeros(cls, grid: Grid, t: float = 0.0) -> "FieldState":
        return cls(
            P=SpectralField.zeros(grid),
            omega=tuple(SpectralField.zeros(grid) for _ in range(grid.dim)),
            t=t,
        )


@dataclass
class Forcing:
    """External source terms; ``None`` components mean zero forcing.

    ``f1(t)`` returns the complex source of the amplitude equation and
    ``f2(t)`` a tuple of real sources for the drift components, either as
    SpectralFields or as physical-space arrays.
    """

    f1: Callable[[float], object] | None = None
    f2: Callable[[float], object] | None = None


@dataclass
class SolverConfig:
    dt: float = 1e-3
    t_end: float = 1.0
    scheme: str = "exponential-rk2"
    cadence: int = 10
    blowup_threshold: float = BLOWUP_DEFAULT
    k_cutoff: float | None = None
    hs_exponent: float = 1.0
    besov_p: float = 2.0

    def __post_init__(self):
        for name in ("dt", "t_end", "hs_exponent"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, not {getattr(self, name)!r}")
        if np.isnan(self.blowup_threshold):  # inf switches the blow-up guard off
            raise ValueError("blowup_threshold must be a number, not nan")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.cadence < 1:
            raise ValueError("diagnostics cadence must be >= 1")
        if self.k_cutoff is not None and not self.k_cutoff > 0:
            raise ValueError(f"k_cutoff must be positive, not {self.k_cutoff!r}")
        # Refused here, not at the first diagnostics row: rows are computed
        # in batches, after steps were taken.
        if not 1.0 <= self.besov_p <= np.inf:
            raise ValueError(f"besov_p must lie in [1, inf], not {self.besov_p!r}")


@dataclass
class TrajectorySummary:
    """Diagnostics rows recorded by :func:`run`, each with its time "t", and the final state."""

    rows: list[dict]
    final: FieldState

    @property
    def times(self) -> np.ndarray:
        return np.array([row["t"] for row in self.rows])

    def column(self, name: str) -> np.ndarray:
        return np.array([row[name] for row in self.rows])


def phi_functions(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi1(z) = (exp(z) - 1) / z and phi2(z) = (exp(z) - 1 - z) / z**2.

    Both are summed from their Taylor series where |z| < 0.05, which avoids
    the cancellation of the closed forms near z = 0.
    """
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 0.05
    zs = np.where(small, 1.0, z)
    e = np.exp(zs)
    s1, s2 = np.zeros_like(z), np.zeros_like(z)
    t1, t2 = np.ones_like(z), np.full_like(z, 0.5)
    for j in range(1, 9):
        s1, t1 = s1 + t1, t1 * z / (j + 1)
        s2, t2 = s2 + t2, t2 * z / (j + 2)
    return np.where(small, s1, (e - 1.0) / zs), np.where(small, s2, (e - 1.0 - zs) / zs**2)


def _physical(f) -> np.ndarray:
    return f.physical() if isinstance(f, SpectralField) else np.asarray(f)


class _Layout:
    """Packed layout of the full-field state, and its per-grid constants.

    The state is one flat complex vector: the ``fftn`` coefficients of P,
    then the ``rfftn`` coefficients (last axis n//2 + 1) of each real drift
    component.  Every operator and mask is elementwise, so each is packed
    the same way.  The drift's derivative multipliers are zero at the
    Nyquist index of their axis: that mode's derivative vanishes on the
    grid, and a nonzero multiplier would give a real field an imaginary
    derivative (Trefethen 2000, ch. 3).
    """

    def __init__(self, grid: Grid):
        n, dim = grid.n, grid.dim
        self.dim, self.size, self.shape = dim, grid.size, grid.shape
        self.h = n // 2 + 1
        self.ikP = tuple(1j * k for k in grid.wavenumbers())
        idx = grid.mode_indices()
        # Index of -k for each mode of the half: a real field has
        # F[-k] = conj(F[k]), and every pair (k, -k) has a member in the half.
        neg = -np.arange(n) % n
        self.mirror = np.ix_(*[neg] * (dim - 1), neg[: self.h])
        k = np.where(np.abs(idx) == n // 2, 0.0, grid.k_min_positive * idx)
        axes_k = [k] * (dim - 1) + [k[: self.h]]
        self.ik_half = 1j * np.array(np.meshgrid(*axes_k, indexing="ij"))
        # [1, ik_1, .., ik_d]: one irfftn gives each Omega_a and its gradient.
        ones = np.ones((1, *self.ik_half.shape[1:]))
        self.value_grad = np.concatenate([ones, self.ik_half])
        self.k2_half = self.half(grid.k_squared)
        self.dealias_half = self.half(grid.dealias_mask())
        self.dealias = self.pack(grid.dealias_mask(), self.dealias_half)
        self.dealias_P, self.dealias_O = self.split(self.dealias)

    def half(self, full: np.ndarray) -> np.ndarray:
        """The rfftn half (last axis 0..n/2) of a full-layout array."""
        return full[..., : self.h]

    def pack(self, p: np.ndarray, o_half: np.ndarray) -> np.ndarray:
        """Flat vector of a P-layout array and one drift-layout array per component."""
        return np.concatenate([np.ravel(p)] + [np.ravel(o_half)] * self.dim)

    def split(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Views of P's full spectrum and of the (dim, ...) stack of drift halves.

        ``u`` may carry leading axes, one packed state per entry; they lead
        both views.
        """
        lead = u.shape[:-1]
        return (
            u[..., : self.size].reshape(*lead, *self.shape),
            u[..., self.size :].reshape(*lead, self.dim, *self.shape[:-1], self.h),
        )

    def full(self, half: np.ndarray) -> np.ndarray:
        """Full spectra of real fields from their rfftn halves (Hermitian symmetry).

        ``half`` holds one half per entry of its leading axes.
        """
        n = self.shape[-1]
        out = np.empty((*half.shape[:-1], n), dtype=complex)
        out[..., : self.h] = half
        tail = half[..., n // 2 - 1 : 0 : -1]
        if self.dim == 2:
            tail = tail[..., -np.arange(n) % n, :]
        out[..., self.h :] = np.conj(tail)
        return out


@lru_cache(maxsize=16)
def _layout(grid: Grid) -> _Layout:
    return _Layout(grid)


def _nonlinear_hats(
    grid: Grid,
    consts: ConstantCoefficients,
    u: np.ndarray,
    t: float,
    forcing: Forcing,
):
    """Explicit right-hand sides of both equations, in the packed layout.

    ``u`` is the packed state (see :class:`_Layout`).  Each equation is
    assembled in physical space, transformed once and projected by the
    2/3-rule mask.  Masking is linear and idempotent, so the products
    need no projection of their own; only |P|^2 is masked first, because it
    is a factor of the cubic term.  P and grad P are complex: in 1D one
    ``ifft`` of the stack [P, dP/dx], in 2D one ``ifftn`` each, since a
    stacked (3, n, n) ``ifftn`` measured slower than three calls.  The drift
    and its gradient are real and come from one stacked ``irfftn``, and the
    drift tendencies go back through one stacked ``rfftn``: 6 transforms
    in 1D, 8 in 2D.  Returns the packed N, where
    dP/dt = (1+iu)*Lap(P) + N_P and dOmega_a/dt = m*Lap(Omega_a) + N_a,
    the largest physical field magnitude and the largest drift magnitude
    max|Omega| (each NaN when a field value it covers is NaN).

    The working set is kept small on purpose: sums accumulate in place,
    each array is dropped after its last reader, and the masked transforms
    are written straight into N.  A 2D call whose temporaries outgrow
    glibc's heap trim threshold hands those pages back to the OS and
    faults them in again on every call: a 50-step 128^2 trajectory took
    15 000 to 52 000 minor page faults in a fresh process, now about 1 400.
    """
    lay = _layout(grid)
    dim = lay.dim
    Ph, Ohs = lay.split(u)
    # V[a, 0] = Omega_a and V[a, 1 + b] = d_b Omega_a, all real.  Its
    # transform holds three stack-sized arrays at once; it goes first, while
    # nothing else is live.
    V = irfft_axes(grid, Ohs[:, None] * lay.value_grad)
    O = V[:, 0]
    if dim == 1:
        # At n = 256 a transform costs more in call overhead than in arithmetic.
        PdP = np.empty((2, lay.size), dtype=complex)
        PdP[0] = Ph
        np.multiply(lay.ikP[0], Ph, out=PdP[1])
        P, *dP = ifft_axes(grid, PdP)
    else:
        P = ifft_axes(grid, Ph)
        dP = [ifft_axes(grid, ik * Ph) for ik in lay.ikP]
    vmax = float(np.abs(O).max())
    amax = float(np.maximum(np.abs(P).max(), vmax))

    absP2_hat = rfft_axes(grid, P.real**2 + P.imag**2)
    absP2_hat *= lay.dealias_half
    absP2 = irfft_axes(grid, absP2_hat)

    # Sums over the axes start from their first term; a sum from 0 costs a pass.
    adv, div = O[0] * dP[0], V[0, 1]
    for a in range(1, dim):
        adv += O[a] * dP[a]
        div = div + V[a, 1 + a]
    del dP
    NP = consts.xi * P
    NP -= adv
    del adv
    NP -= (1.0 + 1j * consts.v) * absP2 * P
    NP -= consts.r1 * P * div
    if forcing.f1 is not None:
        NP += _physical(forcing.f1(t))

    # NO[a] = -sum_b Omega_b * d_b Omega_a.
    NO = V[:, 1] * O[0]
    for b in range(1, dim):
        NO += V[:, 1 + b] * O[b]
    del V, O
    np.negative(NO, out=NO)
    if forcing.f2 is not None:
        f2 = forcing.f2(t)
        for a in range(dim):
            NO[a] += _physical(f2[a]).real

    # Each transform is masked straight into its part of the packed N.
    N = np.empty_like(u)
    NPh, NOh = lay.split(N)
    np.multiply(fft_axes(grid, NP), lay.dealias_P, out=NPh)
    del NP
    NO_hat = rfft_axes(grid, NO)
    NO_hat -= consts.kappa * lay.ik_half * absP2_hat
    np.multiply(NO_hat, lay.dealias_O, out=NOh)
    return N, amax, vmax


def _stack(state: FieldState) -> np.ndarray:
    """Pack a state; each drift keeps the rfftn half of its spectrum.

    Raises ValueError if a drift is not real, because the half would drop
    its imaginary part.  The test is Hermitian symmetry of the spectrum, so
    it takes no transform.  A NaN passes; the blow-up guard reports it.
    """
    lay = _layout(state.grid)
    halves = []
    for w in state.omega:
        F = w.spectral()
        half, mirrored = lay.half(F), np.conj(F[lay.mirror])
        imag, real = np.max(np.abs(half - mirrored)), np.max(np.abs(half + mirrored))
        if imag > DRIFT_IMAG_TOL * real:
            raise ValueError(
                f"the drift Omega must be real: the imaginary part of its spectrum has "
                f"max {imag / 2:.3g} against max {real / 2:.3g} for the real part"
            )
        halves.append(half.ravel())
    return np.concatenate([state.P.spectral().ravel()] + halves)


def _unstack(grid: Grid, u: np.ndarray, t: float) -> FieldState:
    lay = _layout(grid)
    Ph, Ohs = lay.split(u)
    return FieldState(
        P=SpectralField.from_spectral(grid, Ph),
        omega=tuple(SpectralField.from_spectral(grid, lay.full(oh)) for oh in Ohs),
        t=t,
    )


def rhs_nonlinear(state: FieldState, params: SystemParams, forcing: Forcing | None = None):
    """Non-diffusive right-hand sides (dP, dOmega) of the coupled system.

    Raises ValueError if the drift is not real.
    """
    consts = params.require_constant()
    grid = state.grid
    forcing = forcing or Forcing()
    N, _, _ = _nonlinear_hats(grid, consts, _stack(state), state.t, forcing)
    rates = _unstack(grid, N, state.t)
    return rates.P.as_physical(), tuple(w.as_physical() for w in rates.omega)


def check_magnitude(value: float, threshold: float, t: float, what: str) -> None:
    """Raise StepUnstable unless ``value`` <= ``threshold``; NaN never passes."""
    if not value <= threshold:
        raise StepUnstable(f"{what} magnitude {value:g} exceeded {threshold:g}", t)


class Operators(NamedTuple):
    """Exact per-mode propagators of du/dt = L*u over one step dt.

    Each holds one entry per mode: an array of the state's shape for a
    diagonal L, or one block per mode for a block-diagonal L.
    """

    E: np.ndarray  # exp(L*dt)
    phi1: np.ndarray  # dt * phi1(L*dt)
    phi2: np.ndarray  # dt * phi2(L*dt)
    bdf2: np.ndarray | None  # (3 - 2*dt*L)^-1, the implicit solve of BDF2


def diagonal_operators(L: np.ndarray, dt: float) -> Operators:
    """Operators of a diagonal L, from the elementwise phi-functions."""
    z = L * dt
    phi1, phi2 = phi_functions(z)
    return Operators(np.exp(z), dt * phi1, dt * phi2, 1.0 / (3.0 - 2.0 * z))


def block_operators(M: np.ndarray, dt: float) -> Operators:
    """Operators of a stack of b x b blocks M, one per mode, by one batched expm.

    The first block row of exp([[M*dt, I, 0], [0, 0, I], [0, 0, 0]]) is
    [exp(M*dt), phi1(M*dt), phi2(M*dt)] (Hochbruck & Ostermann 2010).
    """
    # Imported here, not with the module: expm is the only use of
    # scipy.linalg, and loading it cost 187-208 ms and 22 MiB of peak RSS
    # on a 2-core x86 host, which ``import cglburgers`` would pay also in
    # runs that never build a block operator.
    import scipy.linalg

    nm, b, _ = M.shape
    eye = np.eye(b)
    W = np.zeros((nm, 3 * b, 3 * b), dtype=complex)
    W[:, :b, :b] = M * dt
    W[:, :b, b : 2 * b] = eye
    W[:, b : 2 * b, 2 * b :] = eye
    EW = scipy.linalg.expm(W)
    return Operators(
        EW[:, :b, :b].copy(),
        dt * EW[:, :b, b : 2 * b],
        dt * EW[:, :b, 2 * b :],
        np.linalg.inv(3.0 * eye - 2.0 * dt * M),
    )


def _apply(op: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Elementwise product for a diagonal operator, per-mode blocks otherwise."""
    if op.ndim == u.ndim:
        return op * u
    return np.einsum("mij,mj->mi", op, u)


def etd2_step(u, t, N, ops: Operators, dt: float):
    """One ETD2 step (Cox & Matthews 2002); returns (u at t + dt, N(u, t))."""
    N0 = N(u, t)
    a = _apply(ops.E, u) + _apply(ops.phi1, N0)
    return a + _apply(ops.phi2, N(a, t + dt) - N0), N0


def run(u, t0: float, N, ops: Operators, config: SolverConfig, record):
    """Advance du/dt = L*u + N(u, t) from t0 to ``config.t_end``; return (records, u, t).

    ETD2, or BDF2 whose first step is ETD2.  ``record(u, t)`` is called at
    t0, every ``cadence`` steps and after the last step, and ``records``
    lists what it returned.  A GuardTripped leaves with those records in
    ``exc.rows`` and the last completed (u, t) in ``exc.last``.  Raises
    ValueError before the first step unless t_end - t0 is a whole number
    of steps (relative tolerance 1e-9).  After BDF2's start-up step no
    reference to E, phi1 and phi2 is left here, so a caller that holds
    none frees them.
    """
    dt = config.dt
    span = (config.t_end - t0) / dt
    n_steps = round(span)
    if n_steps < 0 or abs(span - n_steps) > 1e-9 * max(n_steps, 1):
        raise ValueError(
            f"t_end - t0 = {config.t_end - t0!r} is not a whole number of steps of {dt!r}"
        )
    bdf2 = config.scheme == "imex-bdf2"
    solve = ops.bdf2
    history = None
    t = t0
    records = [record(u, t)]
    try:
        for i in range(n_steps):
            if history is None:
                new, N0 = etd2_step(u, t, N, ops, dt)
            else:
                u_prev, N_prev = history
                N0 = N(u, t)
                new = _apply(solve, 4.0 * u - u_prev + 2.0 * dt * (2.0 * N0 - N_prev))
            if bdf2:
                history = u, N0
                ops = None  # E, phi1 and phi2 serve the start-up step only
            del N0  # held into the next step, it would cost a state's memory
            u, t = new, t0 + (i + 1) * dt
            if (i + 1) % config.cadence == 0 or i == n_steps - 1:
                records.append(record(u, t))
    except GuardTripped as exc:
        exc.rows, exc.last = records, (u, t)
        raise
    return records, u, t


def _field_system(grid: Grid, params: SystemParams, forcing, config: SolverConfig):
    """Operators and right-hand side of the packed (P, Omega).

    A ``k_cutoff`` zeroes every operator entry of the modes above it, so
    those modes are zero after every step.
    """
    consts = params.require_constant()
    forcing = forcing or Forcing()
    lay = _layout(grid)
    # One evaluation per distinct diagonal: P, and Omega on the rfftn half.
    ops_P = diagonal_operators(-(1.0 + 1j * consts.u) * grid.k_squared, config.dt)
    ops_O = diagonal_operators(-consts.m * lay.k2_half, config.dt)
    ops = Operators(*(lay.pack(p, o) for p, o in zip(ops_P, ops_O)))
    if config.scheme == "exponential-rk2":
        # ETD2 never reads the BDF2 solve; kept, it would hold a state's memory.
        ops = ops._replace(bdf2=None)
    if config.k_cutoff is not None:
        keep = grid.kmax_mask(config.k_cutoff)
        keep = lay.pack(keep, lay.half(keep))
        ops = Operators(*(None if op is None else op * keep for op in ops))

    k_max = grid.k_max

    def N(u, t):
        Nu, amax, vmax = _nonlinear_hats(grid, consts, u, t, forcing)
        # The blow-up guard goes first, so that a NaN is reported as one.
        check_magnitude(amax, config.blowup_threshold, t, "field")
        check_magnitude(config.dt * vmax * k_max, 1.0, t, "advective CFL")
        return Nu

    return ops, N


class _DiagnosticsRows:
    """The diagnostics rows of :func:`evolve`, computed a batch of recorded states at a time.

    :meth:`record` keeps the packed state it is handed, which :func:`run`
    never writes into after stepping past it, and returns the state's row:
    {"t": t} until its batch is full or :meth:`flush` runs, then also the L^2
    and H^s norms of P and Omega and the Besov smallness monitor.  A batch
    takes one reduction per norm and one
    :func:`cglburgers.littlewood_paley.smallness_monitor` call over all its
    states, and every value is bitwise the one-state value.  A batch holds
    as many states as fit their dyadic block stack into ``ROW_BATCH_BYTES``,
    and at least one.
    """

    def __init__(self, grid: Grid, config: SolverConfig):
        from . import littlewood_paley as lp

        self.grid, self.besov_p = grid, config.besov_p
        self.weight = (1.0 + grid.k_squared) ** config.hs_exponent
        blocks = len(lp.partition_for(grid).homogeneous_blocks[0])
        self.size = max(1, ROW_BATCH_BYTES // (blocks * grid.size * 16))
        self.pending: list[tuple[np.ndarray, dict]] = []

    def record(self, u: np.ndarray, t: float) -> dict:
        row = {"t": t}
        self.pending.append((u, row))
        if len(self.pending) == self.size:
            self.flush()
        return row

    def flush(self) -> None:
        """Fill in the rows of the pending states."""
        from . import littlewood_paley as lp

        if not self.pending:
            return
        grid, lay = self.grid, _layout(self.grid)
        us, rows = zip(*self.pending)
        self.pending = []
        Ph, Ohs = lay.split(us[0][None] if len(us) == 1 else np.stack(us))  # one: a view
        Of = lay.full(Ohs)  # (batch, dim, *shape)
        states = [
            FieldState(
                P=SpectralField.from_spectral(grid, p),
                omega=tuple(SpectralField.from_spectral(grid, o) for o in os),
                t=row["t"],
            )
            for p, os, row in zip(Ph, Of, rows)
        ]
        besov = lp.smallness_monitor(states, self.besov_p)
        axes = tuple(range(-grid.dim, 0))
        sqP, sqO = np.abs(Ph) ** 2, np.abs(Of) ** 2
        # The drift sums add at most two components, so their order keeps the bits.
        norms = zip(
            np.sqrt(np.sum(sqP, axis=axes)),
            np.sqrt(np.sum(np.sum(sqO, axis=axes), axis=1)),
            np.sqrt(np.sum(self.weight * sqP, axis=axes)),
            np.sqrt(np.sum(np.sum(self.weight * sqO, axis=axes), axis=1)),
        )
        for row, (l2p, l2o, hsp, hso), b in zip(rows, norms, besov):
            row.update(
                L2_P=float(l2p), L2_Omega=float(l2o), Hs_P=float(hsp), Hs_Omega=float(hso),
                besov_proxy=b,
            )


def _check_initial_cfl(state: FieldState, config: SolverConfig) -> None:
    """Refuse a drift whose advective CFL number dt * max|Omega| * k_max exceeds 1.

    A NaN passes; the blow-up guard reports it in the first step.
    """
    vmax = np.max(np.abs(np.array([w.physical() for w in state.omega]).real))
    if config.dt * vmax * state.grid.k_max > 1.0:
        raise ValueError("advective CFL exceeds 1 for the initial state; reduce dt")


def evolve(
    state0: FieldState,
    params: SystemParams,
    forcing: Forcing | None = None,
    config: SolverConfig | None = None,
) -> TrajectorySummary:
    """Advance to t_end recording diagnostics every ``cadence`` steps.

    Raises StepUnstable (carrying the failure time and the rows recorded
    before it) if a field magnitude crosses the blow-up threshold or is NaN,
    or if the advective CFL number exceeds 1.  Raises ValueError if the
    initial state already exceeds that CFL bound, or if t_end is not a whole
    number of steps away, or if the initial drift is not real.
    """
    config = config or SolverConfig()
    grid = state0.grid
    system = list(_field_system(grid, params, forcing, config))  # [ops, N]
    u = _stack(state0)
    _check_initial_cfl(state0, config)

    batch = _DiagnosticsRows(grid, config)
    try:
        # Popped, not named: run then holds the only reference to the
        # operators, and a BDF2 run frees its start-up ones after its first step.
        rows, u, t = run(u, state0.t, system.pop(), system.pop(), config, batch.record)
    except GuardTripped:
        batch.flush()  # the rows in exc.rows
        raise
    batch.flush()
    return TrajectorySummary(rows=rows, final=_unstack(grid, u, t))
