"""Linearized operator about a plane wave and its spectrum.

The linearization of the polar-form dynamics about a plane wave
(r0, theta0, w0) is pi_t = A*pi_xx + B*pi_x + C*pi with 3x3 real matrices.
Its spectrum on the periodic domain is the set of roots lambda of the cubic

    det(-k^2*A + i*k*B + (C - lambda*I)) = 0

per wavenumber k.  Two placements of the density-coupling strength kappa
are supported:

* ``kappa_gradient``   -- entry -2*r0*kappa(r0) in B[2,0] (first order, the
  placement obtained by differentiating the density coupling, and the one
  the dynamics step; the default);
* ``kappa_constant``   -- entry -2*r0*kappa(r0) in C[2,0] (zeroth order).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .model import PlaneWave, SystemParams

COUPLING_MODES = ("kappa_constant", "kappa_gradient")

RESIDUAL_TOL = 1e-9
# Largest deviation of the printed closed form from the eigenvalues of M(k)
# that :func:`compare_closed_form` counts as agreement.
CLOSED_FORM_TOL = 1e-8
# Wavenumbers and real parts within this of zero count as zero in
# :func:`classify_spectrum`.
CLASSIFY_TOL = 1e-9


class EmptySampleSet(ValueError):
    """An empty wavenumber grid reached spectrum_table or classify_spectrum."""


@dataclass(frozen=True)
class LinearizationMatrices:
    """Coefficient matrices of pi_t = A*pi_xx + B*pi_x + C*pi."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray


def _gamma(params: SystemParams, wave: PlaneWave) -> float:
    r0, th0 = wave.r0, wave.theta0
    c1 = params.u_coeffs[1]
    return c1 * th0**2 + r0**2 * params.v_prime(r0) + 2.0 * r0 * params.v(r0)


def check_coupling(coupling: str) -> None:
    """Refuse a coupling placement that is not one of ``COUPLING_MODES``."""
    if coupling not in COUPLING_MODES:
        raise ValueError(f"coupling must be one of {COUPLING_MODES}")


def build_matrices(
    params: SystemParams, wave: PlaneWave, coupling: str = "kappa_gradient"
) -> LinearizationMatrices:
    """Assemble the linearization matrices about ``wave``."""
    check_coupling(coupling)
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
    (C if coupling == "kappa_constant" else B)[2, 0] = -2.0 * r0 * params.kappa(r0)
    return LinearizationMatrices(A=A, B=B, C=C)


def true_linearization(params: SystemParams, wave: PlaneWave) -> LinearizationMatrices:
    """Exact Frechet derivative of the polar dynamics at pi = 0.

    Extends the gradient-placed matrices of :func:`build_matrices` by the
    two entries that the closed-form analysis keeps inside its remainder:
    the rho_xx coefficient c0/r0 in the phase equation and the advective
    phase/amplitude coupling 2*theta0/r0.
    """
    if wave.r0 <= 0:
        raise ValueError("the polar linearization requires r0 > 0")
    mats = build_matrices(params, wave)
    mats.A[1, 0] += params.u_coeffs[0] / wave.r0
    mats.B[1, 0] += 2.0 * wave.theta0 / wave.r0
    # Exact rho-coefficient without assuming the circle constraint.
    mats.C[0, 0] = (1.0 - wave.r0**2 - wave.theta0**2) - 2.0 * wave.r0**2
    return mats


def pencil(mats: LinearizationMatrices, k) -> np.ndarray:
    """-k^2*A + i*k*B + C; k shaped (n, 1, 1) gives the (n, 3, 3) stack."""
    # Summed in place; IEEE addition commutes, so the bits are those of
    # (-k^2*A + i*k*B) + C.
    M = 1j * k * mats.B
    M += -(k**2) * mats.A
    M += mats.C
    return M


def _sort_lambdas(lams: np.ndarray) -> np.ndarray:
    """Each triple by descending real part, ties by ascending imaginary part, then by position.

    Real parts are quantized at 1e-9 of the triple's magnitude (at least 1),
    so round-off jitter on analytically equal real parts ties and falls
    through to the imaginary part.  Conjugating a triple keeps the key and
    flips the tie-break.
    """
    # Column by column: numpy reduces a length-3 last axis slowly.
    mag = np.abs(lams)
    scale = np.maximum(np.maximum(mag[..., 0], mag[..., 1]), np.maximum(mag[..., 2], 1.0))
    key = np.round(lams.real / (1e-9 * scale[..., None]))
    order = np.lexsort((lams.imag, -key), axis=-1)
    return np.take_along_axis(lams, order, axis=-1)


def _expansion(order: int):
    """The signed products of entries that sum to the principal ``order``-minor sum in z.

    Orders 1, 2 and 3 give the trace, the sum of principal 2x2 minors and
    the determinant.

    The entries of C + z*B + z^2*A are quadratics in z.  Each product takes
    one entry per row of a principal minor, entry (``rows[i]``, ``cols[i]``)
    at its coefficient of z^``powers[i]``, with the sign of the permutation.
    The products are sorted by their total power n of z, whose run starts at
    ``starts[n]``.
    """
    terms = []
    for rows in itertools.combinations(range(3), order):
        for cols in itertools.permutations(rows):
            sign = (-1.0) ** sum(a > b for a, b in itertools.combinations(cols, 2))
            for powers in itertools.product(range(3), repeat=order):
                terms.append((sum(powers), rows, cols, powers, sign))
    n, rows, cols, powers, signs = (np.array(x) for x in zip(*sorted(terms)))
    return rows.T, cols.T, powers.T, signs, np.searchsorted(n, np.arange(2 * order + 1))


_EXPANSIONS = tuple(_expansion(order) for order in (1, 2, 3))
# Re i^(2m) = Im i^(2m+1) = (-1)^m.
_I_POWER_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])


def _char_polynomials(job_mats) -> np.ndarray:
    """Coefficients in z of tr, the principal 2x2 minor sum and det of C + z*B + z^2*A.

    ``(jobs, 3, 7)``: per job the three polynomials, of degrees 2, 4 and 6,
    lowest power first and padded with zeros.
    """
    # (job, row, column, power of z)
    P = np.stack([np.stack([m.C, m.B, m.A], axis=-1) for m in job_mats])
    polys = np.zeros((len(job_mats), 3, 7))
    for i, (rows, cols, powers, signs, starts) in enumerate(_EXPANSIONS):
        products = signs * P[:, rows[0], cols[0], powers[0]]
        for r, c, d in zip(rows[1:], cols[1:], powers[1:]):
            products *= P[:, r, c, d]
        polys[:, i, : starts.size] = np.add.reduceat(products, starts, axis=-1)
    return polys


def _char_coefficients(job_mats, ks: np.ndarray):
    """Trace, sum of principal 2x2 minors and determinant of each job's M(k), each (jobs, rows).

    Each is a polynomial in z = i*k with real coefficients: its even powers
    give the real part and its odd powers the imaginary part, each by Horner
    in k^2, so no (rows, 3, 3) stack is built and the values at -k are bit
    for bit the conjugates of those at k.
    """
    polys = _char_polynomials(job_mats)
    even = polys[..., ::2] * _I_POWER_SIGNS
    odd = polys[..., 1::2] * _I_POWER_SIGNS[:3]
    k2 = ks * ks
    re, im = even[..., 3, None], odd[..., 2, None]
    for j in (2, 1, 0):
        re = re * k2 + even[..., j, None]
    for j in (1, 0):
        im = im * k2 + odd[..., j, None]
    coefficients = np.empty(re.shape, dtype=complex)
    coefficients.real = re
    coefficients.imag = im * ks
    return coefficients[:, 0], coefficients[:, 1], coefficients[:, 2]


def _char_residuals(job_mats, ks: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Relative residual of each eigenvalue of ``lams`` (jobs, rows, 3) in its job's M(k)."""
    tr, minors, det = (x[..., None] for x in _char_coefficients(job_mats, ks))
    p = ((lams - tr) * lams + minors) * lams - det
    mag = np.abs(lams)
    mag2 = mag * mag
    terms = (mag2 * mag, np.abs(tr) * mag2, np.abs(minors) * mag, np.abs(det), 1.0)
    return np.abs(p) / functools.reduce(np.maximum, terms)


def _solved_rows(ks) -> tuple[np.ndarray, int]:
    """``ks`` as floats and the number of leading rows that are conjugates, not solved."""
    ks = np.asarray(ks, dtype=float)
    if ks.size == 0:
        raise EmptySampleSet("empty wavenumber grid: no spectrum to solve")
    return ks, ks.size // 2 if np.array_equal(ks, -ks[::-1]) else 0


def _check_residuals(job_mats, ks: np.ndarray, lams: np.ndarray) -> None:
    """Refuse ``lams`` unless each solves the characteristic polynomial of its job's M(k)."""
    worst = float(np.max(_char_residuals(job_mats, ks, lams)))
    if not worst <= RESIDUAL_TOL:
        raise ArithmeticError(
            f"eigenvalue residual {worst:.2e} could not be verified to {RESIDUAL_TOL:g}"
        )


def solved_eigvals(mats: LinearizationMatrices, ks: np.ndarray) -> np.ndarray:
    """Unsorted eigenvalues of M(k) on the rows of ``ks`` that :func:`spectrum_table` solves."""
    ks, n_neg = _solved_rows(ks)
    return np.linalg.eigvals(pencil(mats, ks[n_neg:, None, None]))


def spectrum_table(mats: LinearizationMatrices, ks: np.ndarray) -> np.ndarray:
    """Sorted eigenvalue triples of M(k) = -k^2*A + i*k*B + C for every k in ``ks``.

    A, B and C are real, so M(-k) = conj M(k).  On a mirror grid
    (ks[i] == -ks[-1-i]) only the k >= 0 half is solved, sorted and checked
    against the characteristic polynomial of its own M(k) to 1e-9; row n-1-i
    holds the exact conjugates of row i, sorted by the same rule, whose
    residuals are the same numbers.
    On any other grid every row is solved and checked.
    """
    ks, n_neg = _solved_rows(ks)
    raw = solved_eigvals(mats, ks)
    lams = _sort_lambdas(raw)
    _check_residuals([mats], ks[n_neg:], lams[None])
    if n_neg:
        lams = np.concatenate([_sort_lambdas(raw[::-1][:n_neg].conj()), lams])
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
    a, b = closed_form_ab(params, wave, k)
    return _closed_form_branches(params, wave, k, a + 1j * b)


def _closed_form_branches(params: SystemParams, wave: PlaneWave, k, radicand):
    """lambda1 = -k^2*m - i*w0*k and the quadratic factor's shift +- sqrt(radicand)."""
    r0, th0, w0 = wave.r0, wave.theta0, wave.w0
    root = np.sqrt(radicand)
    shift = -(r0**2 + k**2 + 1j * (w0 + 2.0 * th0 * params.u(r0)) * k)
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


def compare_closed_form(params: SystemParams, wave: PlaneWave, ks) -> ClosedFormComparison:
    """Compare the printed closed form with the eigenvalues of M(k).

    When the two disagree beyond ``CLOSED_FORM_TOL`` the comparison
    additionally checks that replacing the printed radicand by the
    pencil-derived discriminant reproduces the oracle, so every discrepancy
    is explained rather than silently reconciled.  The printed closed form
    reads no kappa, so a wave with kappa(r0) != 0 is refused (ValueError).
    """
    kappa = params.kappa(wave.r0)
    if kappa != 0.0:
        raise ValueError(f"the closed form reads no kappa; kappa(r0) = {kappa!r} is not 0")
    ks = np.asarray(ks, dtype=float)
    oracle = spectrum_table(build_matrices(params, wave), ks)

    def deviation(branches):
        return np.max(np.abs(_sort_lambdas(np.stack(branches, axis=-1)) - oracle), axis=-1)

    dev = deviation(closed_form_lambda(params, wave, ks))
    i_worst = int(np.argmax(dev))
    max_dev = float(dev[i_worst])
    agrees = max_dev <= CLOSED_FORM_TOL
    explained = agrees
    if not agrees:
        fixed = _closed_form_branches(params, wave, ks, oracle_discriminant(params, wave, ks))
        explained = bool(np.max(deviation(fixed)) <= CLOSED_FORM_TOL)

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
            "C": c,  # an unbounded C is written as null
            "C_unconstrained": bool(c is not None and np.isinf(c)),
            "omega_plus": self.omega_plus,
            "unstable_band": list(self.unstable_band) if self.unstable_band else None,
            "sup_real": self.sup_real,
        }


def default_k_grid(k_extent: float = 16.0, samples: int = 1024) -> np.ndarray:
    """Grid including k = 0, mirror-symmetric bit for bit: ks[i] == -ks[-1-i].

    Raises ValueError unless ``k_extent`` is positive and finite and
    ``samples`` is at least 2: anything less samples k = 0 alone.
    """
    if not (np.isfinite(k_extent) and k_extent > 0.0):
        raise ValueError(f"k_extent must be positive and finite, got {k_extent!r}")
    if samples < 2:
        raise ValueError(f"samples must be at least 2, got {samples!r}")
    ks = np.linspace(-k_extent, k_extent, samples)
    ks = 0.5 * (ks - ks[::-1])
    return np.unique(np.concatenate([ks, [0.0]]))


def check_grid(ks) -> np.ndarray:
    """``ks`` as floats; refused unless finite, including k = 0 and symmetric about it."""
    ks = np.asarray(ks, dtype=float)
    if ks.size == 0:
        raise EmptySampleSet("no spectrum samples supplied")
    if not np.isfinite(ks).all():
        raise ValueError("sample grid holds non-finite wavenumbers")
    if float(np.min(np.abs(ks))) > CLASSIFY_TOL:
        raise ValueError("sample grid must include k = 0")
    if not np.array_equal(ks, -ks[::-1]):
        ordered = np.sort(ks)
        if np.max(np.abs(ordered + ordered[::-1])) > 1e-9:
            raise ValueError("sample grid must be symmetric about k = 0")
    return ks


def _refuse_non_finite(lams: np.ndarray) -> None:
    if not np.isfinite(lams).all():
        raise ValueError("spectrum table holds non-finite eigenvalues")


def _greatest(x: np.ndarray) -> float:
    """The largest entry of ``x``, with +0.0 above -0.0.

    ``np.max`` returns whichever zero it meets last; this does not depend on
    the order of ``x``, and ``-_greatest(-x)`` is the least entry likewise.
    """
    top = float(np.max(x))
    if top == 0.0:
        return -0.0 if np.signbit(x[x == 0.0]).all() else 0.0
    return top


def _classify(
    ks: np.ndarray, lams: np.ndarray, mirrors: np.ndarray | None = None
) -> SpectralVerdict:
    """The verdict of the finite eigenvalue rows ``lams`` at the wavenumbers ``ks``.

    ``mirrors`` holds, row for row, the k at the mirror index of a grid
    whose rows there, left out, are the exact conjugates of ``lams``: the
    same real parts and Im(lambda)^2 bit for bit.  Every reduction is a
    least or greatest value, with ties of zeros settled by sign, so the
    verdict depends neither on the order of the eigenvalues in a row nor on
    the rows left out.
    """
    re = lams.real
    nonzero_k = np.abs(ks) > CLASSIFY_TOL
    sup_real = _greatest(re[nonzero_k]) if nonzero_k.any() else 0.0

    growing = re > CLASSIFY_TOL
    if growing.any():
        # Genuine growth anywhere (including k = 0) beats the neutral modes.
        rows = np.any(growing, axis=1)
        grow = ks[rows] if mirrors is None else np.concatenate([ks[rows], mirrors[rows]])
        return SpectralVerdict(
            kind="unstable",
            omega_plus=float(np.min(re[growing])),
            unstable_band=(-_greatest(-grow), _greatest(grow)),
            sup_real=float(np.max(re)),
        )
    if sup_real > -CLASSIFY_TOL:
        return SpectralVerdict(kind="marginal", sup_real=sup_real)

    im = lams.imag
    oscillatory = np.abs(im) > 1e-12
    if oscillatory.any():
        constant = -_greatest(re[oscillatory] / im[oscillatory] ** 2)
    else:
        constant = float("inf")
    return SpectralVerdict(kind="stable", parabola_constant=constant, sup_real=sup_real)


def classify_spectrum(ks: np.ndarray, lams: np.ndarray) -> SpectralVerdict:
    """Classify spectral stability from a sampled spectrum.

    ``ks`` holds the ``(n,)`` sampled wavenumbers and ``lams`` the ``(n, 3)``
    eigenvalue triples at them, as returned by :func:`spectrum_table`.  The
    grid must pass :func:`check_grid`, and every eigenvalue must be finite.

    Stable verdicts report the largest admissible C > 0 with
    Re(lambda) <= -C * Im(lambda)^2 at every sample (infinity when no sample
    constrains it); purely real eigenvalues only need Re(lambda) <= 0, with
    the neutral k = 0 eigenvalues meeting the bound with equality.  Unstable
    verdicts report the sampled band of growing wavenumbers and the infimum
    of the positive real parts.
    """
    ks = check_grid(ks)
    lams = np.asarray(lams)
    _refuse_non_finite(lams)
    return _classify(ks, lams)


def shifted_verdicts(
    job_mats, ks: np.ndarray, drift_free: np.ndarray, w0s
) -> list[SpectralVerdict]:
    """The :func:`classify_spectrum` verdict of each job from one drift-free solve.

    The jobs differ only in their drift w0, which enters M(k) only as
    -i*k*w0*I.  ``drift_free`` is the :func:`solved_eigvals` of their common
    pencil with w0 = 0 on a grid ``ks`` that :func:`check_grid` accepts, and
    ``job_mats[j]`` is the pencil of ``w0s[j]``.  The eigenvalues shifted by
    -i*k*w0 for every job (real parts bit for bit) are refused if not finite
    and checked unsorted, all in one call, against the characteristic
    polynomial of each job's own M(k) to 1e-9, so a wrong shift raises
    ArithmeticError.  On a mirror grid only the solved rows are classified:
    the k < 0 rows are their exact conjugates, and the band's ends are grid
    values, a growing k or its mirror.
    """
    ks, n_neg = _solved_rows(ks)
    w0s = np.asarray(w0s, dtype=float)
    if w0s.shape != (len(job_mats),):
        raise ValueError(f"one w0 per pencil: {len(job_mats)} pencils, w0s shaped {w0s.shape}")
    lams = np.repeat(drift_free[None], w0s.size, axis=0)
    lams.imag -= ks[n_neg:, None] * w0s[:, None, None]
    _refuse_non_finite(lams)
    _check_residuals(job_mats, ks[n_neg:], lams)
    mirrors = ks[ks.size - n_neg - 1 :: -1] if n_neg else None
    return [_classify(ks[n_neg:], job_lams, mirrors) for job_lams in lams]


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
