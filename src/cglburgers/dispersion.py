"""Linearized operator about a plane wave and its spectrum.

The linearization of the polar-form dynamics about a plane wave
(r0, theta0, w0) is pi_t = A*pi_xx + B*pi_x + C*pi with 3x3 real matrices.
Its spectrum on the periodic domain is the set of roots lambda of the cubic

    det(-k^2*A + i*k*B + (C - lambda*I)) = 0

per wavenumber k.  Three placements of the density-coupling strength kappa
are supported:

* ``kappa_zero``       -- no coupling row (drift decouples);
* ``kappa_constant``   -- entry -2*r0*kappa(r0) in C[2,0] (zeroth order);
* ``kappa_gradient``   -- entry -2*r0*kappa(r0) in B[2,0] (first order, the
  placement obtained by differentiating the density coupling).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import PlaneWave, SystemParams

COUPLING_MODES = ("kappa_zero", "kappa_constant", "kappa_gradient")

RESIDUAL_TOL = 1e-9


class EmptySampleSet(ValueError):
    """classify_spectrum received an empty spectrum table."""


@dataclass(frozen=True)
class LinearizationMatrices:
    """Coefficient matrices of pi_t = A*pi_xx + B*pi_x + C*pi."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    coupling_mode: str = "kappa_zero"


def _gamma(params: SystemParams, wave: PlaneWave) -> float:
    r0, th0 = wave.r0, wave.theta0
    c1 = params.u_coeffs[1]
    return c1 * th0**2 + r0**2 * params.v_prime(r0) + 2.0 * r0 * params.v(r0)


def build_matrices(
    params: SystemParams, wave: PlaneWave, coupling: str = "kappa_zero"
) -> LinearizationMatrices:
    """Assemble the linearization matrices about ``wave``."""
    if coupling not in COUPLING_MODES:
        raise ValueError(f"coupling must be one of {COUPLING_MODES}")
    r0, th0, w0 = wave.r0, wave.theta0, wave.w0
    c0, c1 = params.u_coeffs
    u0 = c0 + c1 * r0
    bracket = w0 + 2.0 * th0 * u0

    A = np.array([[1.0, -r0 * u0, 0.0], [c1, 1.0, 0.0], [0.0, 0.0, params.m]])
    B = np.array(
        [
            [-bracket, -2.0 * th0 * r0, -params.s1(r0) * r0],
            [0.0, -bracket, -params.s2(r0)],
            [0.0, 0.0, -w0],
        ]
    )
    C = np.array(
        [
            [-2.0 * r0**2, 0.0, 0.0],
            [-_gamma(params, wave), 0.0, -th0],
            [0.0, 0.0, 0.0],
        ]
    )
    if coupling == "kappa_constant":
        C[2, 0] = -2.0 * r0 * params.kappa(r0)
    elif coupling == "kappa_gradient":
        B[2, 0] = -2.0 * r0 * params.kappa(r0)
    return LinearizationMatrices(A=A, B=B, C=C, coupling_mode=coupling)


def pencil(mats: LinearizationMatrices, k) -> np.ndarray:
    """-k^2*A + i*k*B + C; k shaped (n, 1, 1) gives the (n, 3, 3) stack."""
    # Summed in place; IEEE addition commutes, so the bits are those of
    # (-k^2*A + i*k*B) + C.
    M = 1j * k * mats.B
    M += -(k**2) * mats.A
    M += mats.C
    return M


def _order_key(lams: np.ndarray) -> np.ndarray:
    """Real parts quantized at 1e-9 of each triple's magnitude (at least 1).

    Round-off jitter on analytically equal real parts then ties, so the
    ordering falls through to the imaginary part.  Conjugation leaves the key
    unchanged.
    """
    # Column by column: numpy reduces a length-3 last axis slowly.
    mag = np.abs(lams)
    scale = np.maximum(np.maximum(mag[..., 0], mag[..., 1]), np.maximum(mag[..., 2], 1.0))
    return np.round(lams.real / (1e-9 * scale[..., None]))


def _order_by(lams: np.ndarray, key: np.ndarray, imag: np.ndarray) -> np.ndarray:
    """Each triple by descending ``key``, ties by ascending ``imag``, then by position."""
    order = np.lexsort((imag, -key), axis=-1)
    return np.take_along_axis(lams, order, axis=-1)


def _sort_lambdas(lams: np.ndarray) -> np.ndarray:
    """Descending real part (quantized by :func:`_order_key`), ties by ascending imaginary part."""
    return _order_by(lams, _order_key(lams), lams.imag)


def _char_coefficients(Ms: np.ndarray):
    """Trace, sum of principal 2x2 minors and determinant of 3x3 matrices.

    Closed form in the nine entries, elementwise over the leading axes.
    """
    (a, b, c), (d, e, f), (g, h, i) = (
        [Ms[..., row, col] for col in range(3)] for row in range(3)
    )
    ei_fh = e * i - f * h
    tr = a + e + i
    minors = (a * e - b * d) + (a * i - c * g) + ei_fh
    det = a * ei_fh - b * (d * i - f * g) + c * (d * h - e * g)
    return tr, minors, det


def _char_residuals(Ms: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Relative characteristic-polynomial residual of each eigenvalue."""
    tr, minors, det = (x[..., None] for x in _char_coefficients(Ms))
    p = lams**3 - tr * lams**2 + minors * lams - det
    mag = np.abs(lams)
    terms = (mag**3, np.abs(tr) * mag**2, np.abs(minors) * mag, np.abs(det), 1.0)
    return np.abs(p) / functools.reduce(np.maximum, terms)


def spectrum_table(mats: LinearizationMatrices, ks: np.ndarray) -> np.ndarray:
    """Sorted eigenvalue triples of M(k) = -k^2*A + i*k*B + C for every k in ``ks``.

    A, B and C are real, so M(-k) = conj M(k).  On a mirror grid
    (ks[i] == -ks[-1-i]) only the k >= 0 half is solved, sorted and checked
    against the characteristic polynomial of its own M(k) to 1e-9; row n-1-i
    holds the exact conjugates of row i, whose residuals are the same numbers.
    On any other grid every row is solved and checked.
    """
    ks = np.asarray(ks, dtype=float)
    n_neg = ks.size // 2 if np.array_equal(ks, -ks[::-1]) else 0
    Ms = pencil(mats, ks[n_neg:, None, None])
    raw = np.linalg.eigvals(Ms)
    key = _order_key(raw)
    lams = _order_by(raw, key, raw.imag)
    worst = float(np.max(_char_residuals(Ms, lams)))
    if not worst <= RESIDUAL_TOL:
        raise ArithmeticError(
            f"eigenvalue residual {worst:.2e} could not be verified to {RESIDUAL_TOL:g}"
        )
    if n_neg:
        # Conjugation keeps the key and flips the imaginary tie-break.
        mirrored = slice(raw.shape[0] - n_neg, None)
        neg = _order_by(raw[mirrored], key[mirrored], -raw.imag[mirrored])
        lams = np.concatenate([neg[::-1].conj(), lams])
    return lams


def closed_form_ab(params: SystemParams, wave: PlaneWave, k):
    """Radicand components (a, b) of the decoupled closed-form eigenvalues."""
    k = np.asarray(k, dtype=float)
    r0, th0 = wave.r0, wave.theta0
    c0, c1 = params.u_coeffs
    u0 = c0 + c1 * r0
    a = (
        r0**4
        - c1 * r0 * u0 * k**4
        + r0 * (c0 * th0**2 + r0**2 * params.v_prime(r0) + 2.0 * r0 * params.v(r0)) * k
    )
    b = 2.0 * r0 * th0 * c1 * k**3
    return a, b


def closed_form_lambda(params: SystemParams, wave: PlaneWave, k):
    """Closed-form eigenvalue triple on the uncoupled (kappa = 0) slice.

    lambda1 = -k^2*m - i*w0*k and lambda_{2,3} are the two branches of the
    quadratic factor with principal square root of a + i*b.  The printed
    radicand is exact only on restricted parameter slices; use
    :func:`compare_closed_form` to detect and report deviations from the
    eigenvalues of M(k).
    """
    k = np.asarray(k, dtype=float)
    r0, th0, w0 = wave.r0, wave.theta0, wave.w0
    c0, c1 = params.u_coeffs
    u0 = c0 + c1 * r0
    a, b = closed_form_ab(params, wave, k)
    root = np.sqrt(a + 1j * b)
    shift = -(r0**2 + k**2 + 1j * (w0 + 2.0 * th0 * u0) * k)
    lam1 = -(k**2) * params.m - 1j * w0 * k
    return lam1, shift + root, shift - root


def closed_form_real_parts(params: SystemParams, wave: PlaneWave, k):
    """Real parts of the decoupled branches: -(r0^2+k^2) +- sqrt((|z|+a)/2)."""
    k = np.asarray(k, dtype=float)
    a, b = closed_form_ab(params, wave, k)
    mag = np.sqrt(np.sqrt(a**2 + b**2) + a) / np.sqrt(2.0)
    base = -(wave.r0**2 + k**2)
    return base + mag, base - mag


def oracle_discriminant(params: SystemParams, wave: PlaneWave, k):
    """Radicand of the quadratic factor derived directly from the pencil.

    Differs from the printed (a, b) radicand by the terms
    -r0*u0*Gamma*k^2 + i*2*r0*theta0*Gamma*k - r0*c0*theta0^2*k
    - r0*(r0^2*v' + 2*r0*v)*k; used to explain discrepancy reports.
    """
    k = np.asarray(k, dtype=float)
    r0, th0 = wave.r0, wave.theta0
    c0, c1 = params.u_coeffs
    u0 = c0 + c1 * r0
    gam = _gamma(params, wave)
    return (
        r0**4
        - c1 * r0 * u0 * k**4
        - r0 * u0 * gam * k**2
        + 1j * (2.0 * r0 * th0 * c1 * k**3 + 2.0 * r0 * th0 * gam * k)
    )


@dataclass
class ClosedFormComparison:
    """Outcome of checking the closed form against the eigenvalue oracle."""

    max_deviation: float
    k_worst: float
    agrees: bool
    explained: bool
    params_summary: dict

    def to_json_dict(self) -> dict:
        return {
            "max_deviation": self.max_deviation,
            "k_worst": self.k_worst,
            "agrees": self.agrees,
            "explained": self.explained,
            "params": self.params_summary,
        }


def compare_closed_form(
    params: SystemParams, wave: PlaneWave, ks, tol: float = 1e-8
) -> ClosedFormComparison:
    """Compare the printed closed form with the eigenvalues of M(k).

    When the two disagree beyond ``tol`` the comparison additionally checks
    that replacing the printed radicand by the pencil-derived discriminant
    reproduces the oracle, so every discrepancy is explained rather than
    silently reconciled.
    """
    ks = np.asarray(ks, dtype=float)
    mats = build_matrices(params, wave, "kappa_zero")
    oracle = spectrum_table(mats, ks)
    lam1, lam2, lam3 = closed_form_lambda(params, wave, ks)
    closed = _sort_lambdas(np.stack([lam1, lam2, lam3], axis=-1))
    dev = np.max(np.abs(closed - oracle), axis=-1)
    i_worst = int(np.argmax(dev))
    max_dev = float(dev[i_worst])
    agrees = max_dev <= tol

    explained = agrees
    if not agrees:
        disc = oracle_discriminant(params, wave, ks)
        root = np.sqrt(disc)
        r0, th0, w0 = wave.r0, wave.theta0, wave.w0
        u0 = params.u(r0)
        shift = -(r0**2 + ks**2 + 1j * (w0 + 2.0 * th0 * u0) * ks)
        fixed = _sort_lambdas(
            np.stack([lam1, shift + root, shift - root], axis=-1)
        )
        explained = bool(np.max(np.abs(fixed - oracle)) <= tol)

    summary = {
        "r0": wave.r0,
        "theta0": wave.theta0,
        "w0": wave.w0,
        "u_coeffs": list(params.u_coeffs),
        "v_coeffs": list(params.v_coeffs),
        "m": params.m,
    }
    return ClosedFormComparison(
        max_deviation=max_dev,
        k_worst=float(ks[i_worst]),
        agrees=agrees,
        explained=explained,
        params_summary=summary,
    )


def closed_form_lambda_coupled(
    k,
    s1: float,
    s2: float = 0.0,
    w0: float = 0.0,
    u: float = 0.0,
    kappa: float = 1.0,
    m: float = 1.0,
):
    """Closed-form spectrum on the coupled unit-amplitude slice.

    Valid for the plane wave r0 = 1, theta0 = 0 with v = 0 and the
    zeroth-order (``kappa_constant``) coupling placement.  For u = 0 the
    cubic factors into a simple eigenvalue -k^2 - i*w0*k and a quadratic
    pair; for u = 1 (with m = 1) the three roots come from the Cardano
    solution of  z^3 + 2*z^2 - 2i*kappa*k*s1*z - 2i*kappa*k^3*s2 = 0
    shifted by -(2/3 + k^2 + i*k*w0).
    """
    k = np.asarray(k, dtype=float)
    drift = -1j * w0 * k
    if u == 0.0:
        lam1 = -(k**2) + drift
        half_trace = -(k**2) * (1.0 + m) / 2.0 - 1.0 + drift
        half_gap = -1.0 + k**2 * (m - 1.0) / 2.0
        # For m = 1 the radicand reduces to 1 + 2i*kappa*k*s1.
        root = np.sqrt(half_gap**2 + 2j * kappa * k * s1)
        return lam1, half_trace + root, half_trace - root
    if u == 1.0:
        if m != 1.0:
            raise ValueError("the u = 1 closed form requires m = 1")
        # Cardano data for z^3 + 2 z^2 - 2i kappa k s1 z - 2i kappa k^3 s2 = 0,
        # written via a = -27q and b = -3p of the depressed cubic.
        p = -2j * kappa * k * s1 - 4.0 / 3.0
        q = 16.0 / 27.0 + 4j * kappa * k * s1 / 3.0 - 2j * kappa * k**3 * s2
        a = -27.0 * q
        b = -3.0 * p
        W = (a + np.sqrt(a**2 - 4.0 * b**3 + 0j)) ** (1.0 / 3.0)
        shift = -(2.0 / 3.0 + k**2) + drift
        cbrt2 = 2.0 ** (1.0 / 3.0)
        omega = np.exp(2j * np.pi / 3.0)
        S = W / (3.0 * cbrt2)
        T = cbrt2 * b / (3.0 * W)
        lam1 = shift + S + T
        lam2 = shift + omega * S + np.conj(omega) * T
        lam3 = shift + np.conj(omega) * S + omega * T
        return lam1, lam2, lam3
    raise ValueError("closed forms are available for u = 0 and u = 1 only")


@dataclass
class SpectralVerdict:
    """Classification of a sampled spectrum."""

    kind: str  # 'stable' | 'unstable' | 'marginal'
    parabola_constant: float | None = None
    omega_plus: float | None = None
    unstable_band: tuple[float, float] | None = None
    sup_real: float = 0.0

    def to_json_dict(self) -> dict:
        c = self.parabola_constant
        return {
            "verdict": self.kind,
            "C": None if c is None or np.isinf(c) else c,
            "C_unconstrained": bool(c is not None and np.isinf(c)),
            "omega_plus": self.omega_plus,
            "unstable_band": list(self.unstable_band) if self.unstable_band else None,
            "sup_real": self.sup_real,
        }


def default_k_grid(k_extent: float = 16.0, samples: int = 1024) -> np.ndarray:
    """Grid including k = 0, mirror-symmetric bit for bit: ks[i] == -ks[-1-i]."""
    ks = np.linspace(-k_extent, k_extent, samples)
    ks = 0.5 * (ks - ks[::-1])
    return np.unique(np.concatenate([ks, [0.0]]))


def classify_spectrum(
    ks: np.ndarray, lams: np.ndarray, tol: float = 1e-9
) -> SpectralVerdict:
    """Classify spectral stability from a sampled spectrum.

    ``ks`` holds the ``(n,)`` sampled wavenumbers and ``lams`` the ``(n, 3)``
    eigenvalue triples at them, as returned by :func:`spectrum_table`.  The
    grid must include k = 0 and be symmetric about it, and every eigenvalue
    must be finite.

    Stable verdicts report the largest admissible C > 0 with
    Re(lambda) <= -C * Im(lambda)^2 at every sample (infinity when no sample
    constrains it); purely real eigenvalues only need Re(lambda) <= 0, with
    the neutral k = 0 eigenvalues meeting the bound with equality.  Unstable
    verdicts report the sampled band of growing wavenumbers and the infimum
    of the positive real parts.
    """
    ks = np.asarray(ks, dtype=float)
    lams = np.asarray(lams)
    if ks.size == 0:
        raise EmptySampleSet("no spectrum samples supplied")
    if float(np.min(np.abs(ks))) > tol:
        raise ValueError("sample grid must include k = 0")
    if not np.array_equal(ks, -ks[::-1]):
        ordered = np.sort(ks)
        if np.max(np.abs(ordered + ordered[::-1])) > 1e-9:
            raise ValueError("sample grid must be symmetric about k = 0")
    if not np.isfinite(lams).all():
        raise ValueError("spectrum table holds non-finite eigenvalues")

    re = lams.real
    nonzero_k = np.abs(ks) > tol
    sup_real = float(np.max(re[nonzero_k])) if nonzero_k.any() else 0.0

    growing = re > tol
    if growing.any():
        # Genuine growth anywhere (including k = 0) beats the neutral modes.
        grow = ks[np.any(growing, axis=1)]
        return SpectralVerdict(
            kind="unstable",
            omega_plus=float(np.min(re[growing])),
            unstable_band=(float(np.min(grow)), float(np.max(grow))),
            sup_real=float(np.max(re)),
        )
    if sup_real > -tol:
        return SpectralVerdict(kind="marginal", sup_real=sup_real)

    im = lams.imag
    oscillatory = np.abs(im) > 1e-12
    if oscillatory.any():
        constant = float(np.min(-re[oscillatory] / im[oscillatory] ** 2))
    else:
        constant = float("inf")
    return SpectralVerdict(kind="stable", parabola_constant=constant, sup_real=sup_real)


@dataclass(frozen=True)
class StabilityConditions:
    """The three closed-form inequalities guaranteeing decay at one k."""

    diffusion_positive: bool  # k^2 * m > 0
    mean_bound: bool  # 2*(r0^2+k^2)^2 >= a
    discriminant_bound: bool  # 4*(r0^2+k^2)^4 - 4*a*(r0^2+k^2)^2 > b^2

    @property
    def all_hold(self) -> bool:
        return self.diffusion_positive and self.mean_bound and self.discriminant_bound


def stability_conditions(
    a: float, b: float, r0: float, k: float, m: float
) -> StabilityConditions:
    """Evaluate the three stability inequalities at one wavenumber.

    The implication is verified as a safety check: when all three hold, the
    closed-form real parts are strictly negative.
    """
    s = r0**2 + k**2
    conds = StabilityConditions(
        diffusion_positive=k**2 * m > 0.0,
        mean_bound=2.0 * s**2 >= a,
        discriminant_bound=4.0 * s**4 - 4.0 * a * s**2 > b**2,
    )
    if conds.all_hold:
        re_plus = -s + np.sqrt((np.sqrt(a**2 + b**2) + a) / 2.0)
        re_lam1 = -(k**2) * m
        if not (re_plus < 0.0 and re_lam1 < 0.0):
            raise ArithmeticError(
                "stability conditions hold but a closed-form real part is "
                f"nonnegative (re_plus={re_plus:.3e}, re_lam1={re_lam1:.3e})"
            )
    return conds
