"""Polar-form dynamics about a plane wave and nonlinear decay/growth runs.

Writing P = (r0 + rho) * exp(i*(theta0*x + phi)) and Omega = w0 + h turns the
coupled system (with unit linear growth) into real evolution equations for
pi = (rho, phi, h) on a 1D periodic domain:

    rho_t = rho_xx - (w0+h)*rho_x - u(r)*(2*rho_x*(theta0+phi_x) + r*phi_xx)
            + r*(1 - r^2 - (theta0+phi_x)^2 - s1(r)*h_x)
    phi_t = (2*rho_x*(theta0+phi_x) + u(r)*rho_xx)/r - (w0+h)*(theta0+phi_x)
            - u(r)*(theta0+phi_x)^2 + phi_xx - v(r)*r^2 - s2(r)*h_x
    h_t   = m*h_xx - (w0+h)*h_x - 2*kappa(r)*r*rho_x

with r = r0 + rho.  The integrator advances the exact linearization of this
system by per-mode 3x3 matrix exponentials and treats the strictly nonlinear
remainder explicitly, so per-mode growth/decay rates in the linear regime
reproduce the dispersion eigenvalues to round-off plus O(amplitude).

The polar chart requires r0 + rho > 0 pointwise; breakdown raises
:class:`ChartBreakdown`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import dispersion
from .model import PlaneWave, SystemParams
from .solver import (
    GuardTripped,
    Operators,
    SolverConfig,
    StepUnstable,
    TrajectorySummary,
    block_operators,
    check_magnitude,
    run,
)
from .spectral import Grid, SpectralField, band_gap, irfft_axes, rfft_axes

CHART_FLOOR_FRACTION = 0.01
QUADRATIC_SPREAD_TOLERANCE = 0.10  # passing spread of ||psi(eps*dir)|| / eps^2
DECAY_FIT_WINDOW = (1e-4, 1e-1)  # fitted band of the norm, times its initial value
GROWTH_RATE_TOLERANCE = 0.05  # passing relative error of the fitted growth rate
GROWTH_FIT_CEILING = 1e-4  # growth fits stay below max(this, 4 * initial amplitude)


class ChartBreakdown(GuardTripped):
    """The polar amplitude r0 + rho reached zero during evolution."""


def _require_1d(grid: Grid) -> None:
    if grid.dim != 1:
        raise ValueError("polar perturbations are one-dimensional")


@dataclass
class PerturbationState:
    """Real perturbation fields (rho, phi, h) on a 1D periodic grid."""

    grid: Grid
    rho: np.ndarray
    phi: np.ndarray
    h: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        _require_1d(self.grid)
        for name in ("rho", "phi", "h"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != self.grid.shape:
                raise ValueError(f"{name} does not match the grid shape")
            setattr(self, name, arr)

    @classmethod
    def zeros(cls, grid: Grid, t: float = 0.0) -> "PerturbationState":
        z = np.zeros(grid.shape)
        return cls(grid=grid, rho=z.copy(), phi=z.copy(), h=z.copy(), t=t)

    @classmethod
    def from_hats(cls, grid: Grid, hats: np.ndarray, t: float = 0.0) -> "PerturbationState":
        """The state whose 1/n-scaled rfft coefficients are ``hats``, by one transform."""
        _require_1d(grid)
        rho, phi, h = irfft_axes(grid, hats.T)
        return cls(grid=grid, rho=rho, phi=phi, h=h, t=t)

    def hats(self) -> np.ndarray:
        """rfft coefficients / n, one column per field, by one transform."""
        return rfft_axes(self.grid, self.stack()).T

    def stack(self) -> np.ndarray:
        return np.stack([self.rho, self.phi, self.h])

    def joint_l2(self) -> float:
        return float(np.sqrt(np.mean(self.rho**2 + self.phi**2 + self.h**2)))


def compose_polar(
    wave: PlaneWave, state: PerturbationState
) -> tuple[SpectralField, SpectralField]:
    """Return the full fields (P, Omega) represented by the polar state.

    The carrier wavenumber theta0 must be a multiple of 2*pi/L for the
    composed amplitude field to be periodic on the grid.
    """
    grid = state.grid
    kmin = grid.k_min_positive
    if abs(wave.theta0 / kmin - round(wave.theta0 / kmin)) > 1e-9:
        raise ValueError(
            "theta0 must be a multiple of 2*pi/length to compose periodic fields"
        )
    x = grid.axis_coordinates()
    P = (wave.r0 + state.rho) * np.exp(1j * (wave.theta0 * x + state.phi))
    omega = wave.w0 + state.h
    return (
        SpectralField.from_physical(grid, P),
        SpectralField.from_physical(grid, omega),
    )


def _kept_band(grid: Grid, k_cutoff: float | None) -> tuple[np.ndarray, int]:
    """rfft wavenumbers k of a 1D grid and the number nk of modes a run keeps.

    The kept modes are the grid's 2/3-rule band, cut at |k| <= ``k_cutoff``
    if given.  Both keep |k| up to a bound, so they are the prefix k[:nk].
    Raises ValueError unless the grid is 1D.
    """
    _require_1d(grid)
    nk = band_gap(grid.n).start
    if k_cutoff is not None:
        nk = int(np.count_nonzero(grid.kmax_mask(k_cutoff)[:nk]))
    return grid.k_min_positive * np.arange(grid.n // 2 + 1), nk


def seeded_state(
    grid: Grid, k_cutoff: float | None, modes: int, amp: float, rng
) -> PerturbationState:
    """The state with random complex normal coefficients times ``amp`` on modes 1..``modes``.

    Raises ValueError if ``modes`` is below 1 or exceeds the largest mode
    index of the kept band of ``grid`` and ``k_cutoff``.
    """
    if modes < 1:
        raise ValueError(f"init_modes = {modes} seeds no mode; it must be at least 1")
    top = _kept_band(grid, k_cutoff)[1] - 1
    if modes > top:
        raise ValueError(
            f"init_modes = {modes} exceeds the largest kept mode index {top} "
            "of this grid and k_cutoff"
        )
    hats = np.zeros((grid.n // 2 + 1, 3), dtype=complex)
    hats[1 : modes + 1] = amp * (rng.normal(size=(modes, 3)) + 1j * rng.normal(size=(modes, 3)))
    return PerturbationState.from_hats(grid, hats)


class _PolarWorkspace:
    """Precomputed spectral data of the polar tendency, for the integrator and :func:`remainder`.

    The integrator's state holds only the ``nk`` kept modes, shaped (nk, 3):
    the transforms zero-pad it to the grid's n//2 + 1 rfft modes and drop
    the rest again, so the dropped modes cost no operator block and no
    product.  The workspace owns the zero-padded buffer that the inverse
    transform reads, and so serves one evaluation at a time.
    """

    def __init__(self, grid: Grid, params: SystemParams, wave: PlaneWave, config: SolverConfig):
        if params.xi != 1.0:
            raise ValueError("the polar dynamics are normalized to xi = 1")
        self.grid = grid
        self.params = params
        self.wave = wave
        self.config = config
        k_full, self.nk = _kept_band(grid, config.k_cutoff)
        self.k = k_full[: self.nk]
        # [1, ik, (ik)**2], shaped (order, 1, mode) to broadcast over field rows.
        self.ik_powers = (1j * self.k) ** np.arange(3)[:, None, None]
        # ik_powers times the kept modes, zero beyond them: the input of the
        # inverse transform, written in place by every evaluation.
        self._derivative_hats = np.zeros((3, 3, grid.n // 2 + 1), dtype=complex)
        mats = dispersion.true_linearization(params, wave)
        self.M = dispersion.pencil(mats, self.k[:, None, None])
        # (c0, c1) of u, v, s1, s2 and kappa, each shaped (5, 1) against r.
        p = params
        coeffs = [p.u_coeffs, p.v_coeffs, p.s1_coeffs, p.s2_coeffs, p.kappa_coeffs]
        self.coeffs = np.array(coeffs).T[:, :, None]
        # rfft multiplicities (n is even) and H^s weights of the diagnostics
        # rows, which see the padded snapshots.
        self.mult = np.full(k_full.shape, 2.0)
        self.mult[[0, -1]] = 1.0
        self.hs_weight = (1.0 + k_full**2) ** config.hs_exponent

    def operators(self) -> Operators:
        """The exact linear step of every kept mode, by one batched expm.

        Raises ValueError if it amplifies a kept mode by more than the
        blow-up threshold (m < 0 at high k): the first step would fail, and
        not say why.  A threshold below 1 bounds the data, not a gain.
        """
        config = self.config
        ops = block_operators(self.M, config.dt)
        gain = np.max(np.abs(ops.E), axis=(1, 2))
        worst = int(np.argmax(gain))
        if config.blowup_threshold >= 1.0 and not gain[worst] <= config.blowup_threshold:
            raise ValueError(
                f"ill-posed band: one step of dt = {config.dt:g} amplifies the mode k = "
                f"{self.k[worst]:g} by {gain[worst]:.3g}, more than the blow-up "
                f"threshold {config.blowup_threshold:g}; set k_cutoff to keep the band well posed"
            )
        return ops

    def padded(self, hats: np.ndarray) -> np.ndarray:
        """The kept-band state zero-padded to all n//2 + 1 rfft modes."""
        out = np.zeros((self.grid.n // 2 + 1, 3), dtype=complex)
        out[: self.nk] = hats
        return out

    def tendency_hats(self, hats: np.ndarray, t: float) -> np.ndarray:
        """The full polar tendency of the kept modes ``hats``.

        One inverse transform, zero-padding them, gives the fields and their
        first and second derivatives; one forward transform gives the three
        tendencies, of which the kept modes stay.  Both are scaled by 1/n
        forward, the layout of :meth:`PerturbationState.hats`.  Raises
        ChartBreakdown where min(r0 + rho) is at or below the chart floor and
        StepUnstable where a field exceeds the blow-up threshold or is NaN.
        """
        spec = self._derivative_hats
        np.multiply(self.ik_powers, hats.T, out=spec[:, :, : self.nk])
        fields = irfft_axes(self.grid, spec)
        # Rows by index: unpacking iterates the stack, which costs more per call.
        rho, rho_x, rho_xx = fields[0, 0], fields[1, 0], fields[2, 0]
        phi_x, phi_xx = fields[1, 1], fields[2, 1]
        h, h_x, h_xx = fields[0, 2], fields[1, 2], fields[2, 2]
        r = self.wave.r0 + rho
        if float(r.min()) <= CHART_FLOOR_FRACTION * self.wave.r0:
            raise ChartBreakdown("polar amplitude r0 + rho reached zero", t)
        amax = float(np.abs(fields[0]).max())
        check_magnitude(amax, self.config.blowup_threshold, t, "perturbation")
        tx = self.wave.theta0 + phi_x
        coef = self.coeffs[0] + self.coeffs[1] * r
        u_r, v_r, s1_r, s2_r, kap_r = coef[0], coef[1], coef[2], coef[3], coef[4]
        wh = self.wave.w0 + h
        rx_tx = 2.0 * rho_x * tx
        tx2 = tx**2
        r2 = r**2

        tend = np.empty((3, self.grid.n))
        tend[0] = rho_xx - wh * rho_x - u_r * (rx_tx + r * phi_xx) + r * (1.0 - r2 - tx2 - s1_r * h_x)
        tend[1] = (rx_tx + u_r * rho_xx) / r - wh * tx - u_r * tx2 + phi_xx - v_r * r2 - s2_r * h_x
        tend[2] = self.params.m * h_xx - wh * h_x - 2.0 * kap_r * r * rho_x

        return rfft_axes(self.grid, tend)[:, : self.nk].T

    def rhs_hats(self, hats: np.ndarray, t: float) -> np.ndarray:
        """Nonlinear remainder (full polar tendency minus the linear part)."""
        return self.tendency_hats(hats, t) - np.einsum("mij,mj->mi", self.M, hats)


@dataclass
class PolarTrajectory(TrajectorySummary):
    """Recorded polar evolution: rows of norms and their spectral snapshots."""

    final: PerturbationState
    hats: list[np.ndarray]
    status: str = "completed"

    def mode_amplitudes(self, mode_index: int) -> np.ndarray:
        """Euclidean norm of the (rho, phi, h) coefficients of one mode."""
        return np.array([np.linalg.norm(h[mode_index]) for h in self.hats])


def evolve_polar(
    state0: PerturbationState,
    params: SystemParams,
    wave: PlaneWave,
    config: SolverConfig,
    tolerate_blowup: bool = False,
) -> PolarTrajectory:
    """Integrate the polar perturbation dynamics.

    The per-mode linearization advances exactly through matrix exponentials;
    the strictly nonlinear remainder is integrated with the two-stage
    exponential scheme (or extrapolated semi-implicit BDF2).  Raises
    ChartBreakdown or StepUnstable unless ``tolerate_blowup`` ends the run
    there, keeping what was recorded before it, with status
    ``"chart_breakdown"`` or ``"unstable"``; and ValueError if
    t_end is not a whole number of steps away or if the initial data,
    projected onto the kept band, leaves the polar chart.  Snapshots and the
    final state span all n//2 + 1 rfft modes, zero beyond the kept band.
    """
    ws = _PolarWorkspace(state0.grid, params, wave, config)
    snaps = []

    def record(hats, t):
        full = ws.padded(hats)
        snaps.append(full)
        return _polar_row(ws, full, t)

    status = "completed"
    try:
        hats = state0.hats()[: ws.nk]
        rows, hats, t = run(hats, state0.t, ws.rhs_hats, ws.operators(), config, record)
    except (ChartBreakdown, StepUnstable) as exc:
        # Only the first evaluation, on the projected initial data, runs at
        # t0; its chart guard refuses the data before any step is taken.
        if isinstance(exc, ChartBreakdown) and exc.t == state0.t:
            raise ValueError(
                "the initial data leaves the polar chart: min(r0 + rho) is at or below "
                f"{CHART_FLOOR_FRACTION:g} * r0 on the kept band"
            ) from exc
        if not tolerate_blowup:
            raise
        rows, (hats, t) = exc.rows, exc.last
        status = "chart_breakdown" if isinstance(exc, ChartBreakdown) else "unstable"

    return PolarTrajectory(
        rows=rows,
        final=PerturbationState.from_hats(state0.grid, ws.padded(hats), t),
        hats=snaps,
        status=status,
    )


def _polar_row(ws: _PolarWorkspace, hats: np.ndarray, t: float) -> dict:
    sq = np.abs(hats) ** 2
    l2 = np.sqrt(np.sum(ws.mult[:, None] * sq, axis=0))
    power = np.sum(sq, axis=-1)
    power[0] = 0.0  # the mean is neutral; H^s measures the rest
    return {
        "t": t,
        "L2_rho": float(l2[0]),
        "L2_phi": float(l2[1]),
        "L2_h": float(l2[2]),
        "Hs_pi": float(np.sqrt(np.sum(ws.mult * ws.hs_weight * power))),
    }


def remainder(
    state: PerturbationState, params: SystemParams, wave: PlaneWave
) -> PerturbationState:
    """The remainder fields (psi1, psi2, psi3) paired with the closed-form linearization.

    They come back as a state at ``state.t`` whose rows rho, phi and h hold
    psi1, psi2 and psi3, the remainders of those three equations.  psi is
    the polar tendency that the integrator steps
    (:meth:`_PolarWorkspace.tendency_hats`) minus the (gradient-placed)
    pencil of :func:`dispersion.build_matrices`, both evaluated on the
    state's projection onto the 2/3-rule band, and it is band-limited to
    that band.  It vanishes at pi = 0 when the wave is an equilibrium of
    the dynamics, and it is quadratic in pi on slices where the pencil is
    the exact linearization (see :func:`dispersion.true_linearization`).  Raises
    ChartBreakdown (at ``state.t``) where the projection leaves the polar
    chart, StepUnstable where it holds a NaN or exceeds the default blow-up
    threshold, and ValueError unless xi = 1.
    """
    return _remainder_on(state.grid, params, wave)(state)


def _remainder_on(grid: Grid, params: SystemParams, wave: PlaneWave):
    """:func:`remainder` as a function of states on ``grid``.

    The polar workspace and the closed-form pencil are built once, here, and
    serve every call.
    """
    ws = _PolarWorkspace(grid, params, wave, SolverConfig())
    closed = dispersion.build_matrices(params, wave)
    pencil = dispersion.pencil(closed, ws.k[:, None, None])

    def psi_of(state: PerturbationState) -> PerturbationState:
        hats = state.hats()[: ws.nk]
        psi = ws.tendency_hats(hats, state.t) - np.einsum("mij,mj->mi", pencil, hats)
        return PerturbationState.from_hats(grid, ws.padded(psi), state.t)

    return psi_of


@dataclass
class QuadraticOrderReport:
    """Scaling of the remainder norm against perturbation size."""

    eps: np.ndarray
    quadratic_ratios: np.ndarray  # ||psi(eps*dir)|| / eps^2
    linear_ratios: np.ndarray  # ||psi(eps*dir)|| / eps
    spread: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "eps": list(self.eps),
            "quadratic_ratios": list(self.quadratic_ratios),
            "linear_ratios": list(self.linear_ratios),
            "spread": self.spread,
            "pass": self.passed,
        }


def quadratic_order_check(
    pi_dir: PerturbationState,
    params: SystemParams,
    wave: PlaneWave,
    eps_list,
) -> QuadraticOrderReport:
    """Measure ||psi(eps*dir)||_{L2} / eps^2 across scales.

    The direction is normalized to unit joint L2 norm.  On parameter slices
    where the remainder has vanishing derivative at zero the quadratic
    ratios are bounded and flat (spread below the tolerance); elsewhere the
    linear ratios stay bounded away from zero, revealing first-order
    leakage.  Raises ValueError for a zero direction or fewer than two
    scales.
    """
    eps = np.asarray(list(eps_list), dtype=float)
    if eps.size < 2:  # one scale has spread 0 and would always pass
        raise ValueError(f"eps_list must hold at least two scales, not {eps.size}")
    scale = pi_dir.joint_l2()
    if scale == 0.0:  # it would pass with spread 0, the remainder never evaluated
        raise ValueError("the direction must not be zero")
    base = PerturbationState(
        grid=pi_dir.grid,
        rho=pi_dir.rho / scale,
        phi=pi_dir.phi / scale,
        h=pi_dir.h / scale,
    )
    psi_of = _remainder_on(base.grid, params, wave)
    norms = []
    for e in eps:
        state = PerturbationState(
            grid=base.grid, rho=e * base.rho, phi=e * base.phi, h=e * base.h
        )
        norms.append(psi_of(state).joint_l2())
    norms = np.array(norms)
    quad = norms / eps**2
    lin = norms / eps
    spread = float(np.max(quad) / max(np.min(quad), 1e-300) - 1.0)
    return QuadraticOrderReport(
        eps=eps,
        quadratic_ratios=quad,
        linear_ratios=lin,
        spread=spread,
        passed=spread < QUADRATIC_SPREAD_TOLERANCE,
    )


@dataclass
class DecayReport:
    sigma_fit: float
    spectral_gap: float
    rel_err: float
    alpha_fit: float
    alpha_reference: float
    passed: bool
    degenerate: bool
    times: np.ndarray
    norms: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "fit_type": "exponential",
            "rate": self.sigma_fit,
            "reference_rate": self.spectral_gap,
            "rel_err": self.rel_err,
            "alpha_fit": self.alpha_fit,
            "alpha_reference": self.alpha_reference,
            "pass": self.passed,
            "degenerate": self.degenerate,
        }


def resolved_spectral_gap(
    params: SystemParams, wave: PlaneWave, grid: Grid, k_cutoff: float | None = None
) -> float:
    """max Re(lambda) over the nonzero wavenumbers resolved on the grid."""
    mats = dispersion.build_matrices(params, wave)
    k, nk = _kept_band(grid, k_cutoff)
    lams = dispersion.spectrum_table(mats, k[1:nk])
    return float(np.max(lams.real))


def decay_experiment(
    params: SystemParams,
    wave: PlaneWave,
    pi0: PerturbationState,
    s: float,
    config: SolverConfig,
) -> DecayReport:
    """Fit the decay rate of ||pi||_{H^{s+1}} against the spectral gap.

    The k = 0 modes (neutral translation/phase/drift directions) are
    projected out of the data and of the recorded norms.  An exponential
    rate is fitted on the window where the norm lies in
    ``DECAY_FIT_WINDOW`` times its initial value; the algebraic exponent
    -0.5*(1.5+s) is reported alongside as a whole-line reference, not as a
    pass/fail gate.
    """
    grid = pi0.grid
    state0 = PerturbationState(
        grid=grid,
        rho=pi0.rho - np.mean(pi0.rho),
        phi=pi0.phi - np.mean(pi0.phi),
        h=pi0.h - np.mean(pi0.h),
        t=pi0.t,
    )
    cfg = replace(config, hs_exponent=s + 1.0)
    traj = evolve_polar(state0, params, wave, cfg)
    times = traj.times
    norms = traj.column("Hs_pi")
    norm0 = norms[0]
    alpha_ref = -0.5 * (1.5 + s)
    gap = resolved_spectral_gap(params, wave, grid, config.k_cutoff)
    lo, hi = DECAY_FIT_WINDOW
    mask = (norms >= lo * norm0) & (norms <= hi * norm0) & (norms > 0)
    degenerate = int(np.sum(mask)) < 3
    if degenerate:
        sigma_fit, alpha_fit = 0.0, 0.0
        rel_err = np.inf
    else:
        sigma_fit = float(np.polyfit(times[mask], np.log(norms[mask]), 1)[0])
        alpha_fit = float(
            np.polyfit(np.log1p(times[mask]), np.log(norms[mask]), 1)[0]
        )
        rel_err = abs(sigma_fit - gap) / abs(gap) if gap != 0 else np.inf
    return DecayReport(
        sigma_fit=sigma_fit,
        spectral_gap=gap,
        rel_err=rel_err,
        alpha_fit=alpha_fit,
        alpha_reference=alpha_ref,
        passed=bool(rel_err <= 0.10),
        degenerate=degenerate,
        times=times,
        norms=norms,
    )


@dataclass
class GrowthReport:
    rate: float
    reference_rate: float
    rel_err: float
    omega_plus: float
    passed: bool
    k_seed: float
    times: np.ndarray
    amplitudes: np.ndarray
    status: str

    def to_json_dict(self) -> dict:
        return {
            "fit_type": "exponential-growth",
            "rate": self.rate,
            "reference_rate": self.reference_rate,
            "rel_err": self.rel_err,
            "omega_plus": self.omega_plus,
            "pass": self.passed,
            "k_seed": self.k_seed,
            "status": self.status,
        }


def instability_experiment(
    params: SystemParams,
    wave: PlaneWave,
    k_seed: float,
    amp: float,
    config: SolverConfig,
    grid: Grid,
) -> GrowthReport:
    """Seed one Fourier mode along its fastest eigenvector and fit its growth.

    The linear-regime growth rate of the seeded mode is compared against the
    largest real part of the dispersion eigenvalues at ``k_seed`` (relative
    tolerance ``GROWTH_RATE_TOLERANCE``).  Also reports the infimum of positive
    real parts over the resolved band.  A spectral cutoff (default twice the
    seeded wavenumber) pins the resolved band, since negative drift
    diffusivity grows without bound in k.  Blow-up after the linear window
    is tolerated; failure to grow on an unstable slice fails the report.
    Raises ValueError if the run's kept band drops the seeded mode.
    """
    kmin = grid.k_min_positive
    j_seed = int(round(k_seed / kmin))
    if abs(k_seed - j_seed * kmin) > 1e-9 or j_seed <= 0 or j_seed > grid.n // 2:
        raise ValueError("k_seed must be a positive resolvable grid wavenumber")
    if config.k_cutoff is None:
        config = replace(config, k_cutoff=2.0 * abs(k_seed))

    k, nk = _kept_band(grid, config.k_cutoff)
    if not j_seed < nk:
        k_kept = np.max(k[:nk], initial=0.0)
        raise ValueError(
            f"k_seed = {k_seed:g} lies outside the kept band |k| <= {k_kept:g} "
            "of this grid and k_cutoff"
        )

    mats = dispersion.build_matrices(params, wave)
    eigvals, eigvecs = np.linalg.eig(dispersion.pencil(mats, k_seed))
    vec = eigvecs[:, int(np.argmax(eigvals.real))]
    vec = vec / np.linalg.norm(vec)

    n = grid.n
    hats = np.zeros((n // 2 + 1, 3), dtype=complex)
    hats[j_seed] = amp * vec
    state0 = PerturbationState.from_hats(grid, hats)
    # The kept band is a prefix from k = 0, so row j_seed - 1 is the seeded mode.
    lams = dispersion.spectrum_table(mats, k[1:nk])
    reference = float(lams[j_seed - 1, 0].real)

    traj = evolve_polar(state0, params, wave, config, tolerate_blowup=True)
    amps = traj.mode_amplitudes(j_seed)
    times = traj.times
    # Fit inside the linear window: before the amplitude peaks (nonlinear
    # saturation bends the curve) and below the smallness ceiling.
    peak = int(np.argmax(amps))
    if amps[peak] > 2.0 * amps[0]:
        idx = np.arange(len(amps))
        mask = (idx <= peak) & (amps > 0) & (amps <= max(GROWTH_FIT_CEILING, 4.0 * amps[0]))
    else:
        mask = amps > 0
    if int(np.sum(mask)) >= 3:
        rate = float(np.polyfit(times[mask], np.log(amps[mask]), 1)[0])
    else:
        rate = float("nan")
    rel_err = abs(rate - reference) / abs(reference) if reference != 0 else np.inf

    positive = lams.real[lams.real > 0]
    omega_plus = float(np.min(positive)) if positive.size else 0.0

    grew = bool(np.isfinite(rate) and rate > 0) if reference > 0 else bool(rate <= 0)
    passed = bool(np.isfinite(rate) and rel_err <= GROWTH_RATE_TOLERANCE and grew)
    return GrowthReport(
        rate=rate,
        reference_rate=reference,
        rel_err=float(rel_err),
        omega_plus=omega_plus,
        passed=passed,
        k_seed=float(k_seed),
        times=times,
        amplitudes=amps,
        status=traj.status,
    )
