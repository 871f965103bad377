"""System parameters and plane-wave equilibria.

The coupled amplitude/drift system is parameterized by a dispersion
coefficient ``u``, a nonlinear-dispersion coefficient ``v``, a linear growth
coefficient ``xi``, a drift diffusivity ``m``, a density-coupling strength
``kappa`` and the complex coupling ``r1 = s1 + i*s2``.  Except for ``xi`` and
``m``, every coefficient may depend affinely on the local wave amplitude
``r``; a constant coefficient is the special case of zero slope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CONSTRAINT_TOL = 1e-12
# Newton steps that polish each amplitude root of np.roots.
POLISH_ITERATIONS = 3

CoeffPair = tuple[float, float]


class NoRealSolution(ValueError):
    """No real plane-wave amplitude satisfies the constraint equations."""


def eval_coeff(coeffs: CoeffPair, r: float) -> float:
    """Evaluate the affine coefficient ``c0 + c1*r``."""
    c0, c1 = coeffs
    return c0 + c1 * r


@dataclass(frozen=True)
class SystemParams:
    """Coefficients of the coupled system, each affine in the amplitude r.

    Attributes:
        u_coeffs: (c0, c1) defining the dispersion coefficient u(r) = c0 + c1*r.
        v_coeffs: affine pair for the nonlinear dispersion v(r).
        xi: linear growth coefficient (the polar-form dynamics require xi == 1).
        m: drift diffusivity; may be negative in instability studies.
        kappa_coeffs: affine pair for the density coupling kappa(r).
        s1_coeffs, s2_coeffs: affine pairs for the real and imaginary parts of
            the complex coupling r1(r) = s1(r) + i*s2(r).
    """

    u_coeffs: CoeffPair = (0.0, 0.0)
    v_coeffs: CoeffPair = (0.0, 0.0)
    xi: float = 1.0
    m: float = 1.0
    kappa_coeffs: CoeffPair = (0.0, 0.0)
    s1_coeffs: CoeffPair = (0.0, 0.0)
    s2_coeffs: CoeffPair = (0.0, 0.0)

    @classmethod
    def constants(cls, u=0.0, v=0.0, xi=1.0, m=1.0, kappa=0.0, s1=0.0, s2=0.0):
        """Build constant-coefficient parameters (all slopes zero)."""
        return cls(
            u_coeffs=(float(u), 0.0),
            v_coeffs=(float(v), 0.0),
            xi=float(xi),
            m=float(m),
            kappa_coeffs=(float(kappa), 0.0),
            s1_coeffs=(float(s1), 0.0),
            s2_coeffs=(float(s2), 0.0),
        )

    def u(self, r: float) -> float:
        return eval_coeff(self.u_coeffs, r)

    def v(self, r: float) -> float:
        return eval_coeff(self.v_coeffs, r)

    def v_prime(self, r: float) -> float:
        """Derivative of v at r (constant for affine coefficients)."""
        return self.v_coeffs[1]

    def kappa(self, r: float) -> float:
        return eval_coeff(self.kappa_coeffs, r)

    def s1(self, r: float) -> float:
        return eval_coeff(self.s1_coeffs, r)

    def s2(self, r: float) -> float:
        return eval_coeff(self.s2_coeffs, r)

    @property
    def is_constant(self) -> bool:
        """True when every coefficient function has zero slope."""
        return all(
            pair[1] == 0.0
            for pair in (
                self.u_coeffs,
                self.v_coeffs,
                self.kappa_coeffs,
                self.s1_coeffs,
                self.s2_coeffs,
            )
        )

    def require_constant(self) -> "ConstantCoefficients":
        """Return the scalar coefficient values.

        The full-field integrator only supports constant coefficients;
        amplitude-dependent coefficients live in the polar formulation.
        """
        if not self.is_constant:
            raise ValueError(
                "full-field dynamics require constant coefficients; "
                "set all affine slopes to zero (amplitude-dependent "
                "coefficients are supported by the polar formulation only)"
            )
        return ConstantCoefficients(
            u=self.u_coeffs[0],
            v=self.v_coeffs[0],
            xi=self.xi,
            m=self.m,
            kappa=self.kappa_coeffs[0],
            s1=self.s1_coeffs[0],
            s2=self.s2_coeffs[0],
        )


@dataclass(frozen=True)
class ConstantCoefficients:
    """Scalar coefficient values for the constant-coefficient system."""

    u: float
    v: float
    xi: float
    m: float
    kappa: float
    s1: float
    s2: float

    @property
    def r1(self) -> complex:
        return complex(self.s1, self.s2)


@dataclass(frozen=True)
class PlaneWave:
    """Plane-wave equilibrium P = r0*exp(i*theta0*x), Omega = w0.

    Instances must sit on the unit circle r0**2 + theta0**2 = 1; the second
    constraint u(r0)*theta0**2 + v(r0)*r0**2 = 0 couples the wave to a
    parameter set and is checked by :meth:`residuals`.
    """

    r0: float
    theta0: float
    w0: float = 0.0

    def __post_init__(self):
        if self.r0 < 0:
            raise ValueError("plane-wave amplitude r0 must be nonnegative")
        res = abs(self.r0**2 + self.theta0**2 - 1.0)
        if res > CONSTRAINT_TOL:
            raise ValueError(
                f"plane wave violates r0^2 + theta0^2 = 1 (residual {res:.3e})"
            )

    def residuals(self, params: SystemParams) -> tuple[float, float]:
        """Residuals of the two constraint equations under ``params``."""
        res1 = self.r0**2 + self.theta0**2 - 1.0
        res2 = params.u(self.r0) * self.theta0**2 + params.v(self.r0) * self.r0**2
        return res1, res2

    def drift_residual(self, params: SystemParams) -> float:
        """Residual of the drift compatibility w0*theta0 + u(r0)*theta0**2."""
        return self.w0 * self.theta0 + params.u(self.r0) * self.theta0**2

    def validate(self, params: SystemParams, tol: float = CONSTRAINT_TOL) -> None:
        res1, res2 = self.residuals(params)
        if abs(res1) > tol or abs(res2) > tol:
            raise ValueError(
                f"plane wave violates constraints: residuals ({res1:.3e}, {res2:.3e})"
            )


def _amplitude_polynomial(params: SystemParams) -> np.ndarray:
    # u(r)*(1 - r^2) + v(r)*r^2 = 0, expanded in descending powers of r.
    c0, c1 = params.u_coeffs
    d0, d1 = params.v_coeffs
    return np.array([d1 - c1, d0 - c0, c1, c0], dtype=float)


def plane_wave_key(params: SystemParams) -> bytes:
    """The bytes of the amplitude polynomial that :func:`solve_plane_wave` roots.

    Two parameter sets with equal keys have the same amplitude roots, so at
    equal ``branch`` they find the same (r0, theta0), or none; whether that
    wave meets each set's own constraints is for :meth:`PlaneWave.validate`
    to say.
    """
    return _amplitude_polynomial(params).tobytes()


def _polish_root(poly: np.ndarray, r: float) -> float:
    deriv = np.polyder(poly)
    for _ in range(POLISH_ITERATIONS):
        p = np.polyval(poly, r)
        dp = np.polyval(deriv, r)
        if dp == 0.0:
            break
        r = r - p / dp
    return float(r)


def solve_plane_wave(
    params: SystemParams,
    branch: int = 0,
    w0: float = 0.0,
    drift_compatibility: bool = False,
) -> PlaneWave:
    """Solve the plane-wave constraint equations.

    With several real amplitude roots, roots are ordered by descending r0 and
    ``branch`` selects by index.  When u and v both vanish identically every
    point of the unit circle solves the constraints, and any branch gives the
    wave r0 = 1, theta0 = 0.

    With ``drift_compatibility`` and theta0 != 0 the drift is solved from
    w0*theta0 = -u(r0)*theta0**2; otherwise ``w0`` is a free input (in
    particular it is unconstrained whenever theta0 = 0).

    Raises:
        NoRealSolution: no real r0 in [0, 1] satisfies the amplitude
            constraint (e.g. u(r0) and v(r0) share a strict sign).
        ValueError: ``branch`` is negative.
    """
    if branch < 0:
        raise ValueError(f"branch counts the amplitude roots from 0, got {branch}")
    poly = _amplitude_polynomial(params)
    if np.all(poly == 0.0):
        return PlaneWave(r0=1.0, theta0=0.0, w0=float(w0))

    roots = np.roots(poly) if np.any(poly[:-1] != 0.0) else np.array([])
    candidates = []
    for root in np.atleast_1d(roots):
        if abs(root.imag) > 1e-9 * max(1.0, abs(root)):
            continue
        r = float(root.real)
        if -1e-9 <= r <= 1.0 + 1e-9:
            r = min(max(r, 0.0), 1.0)
            r = _polish_root(poly, r)
            r = min(max(r, 0.0), 1.0)
            candidates.append(r)
    # Deduplicate nearly identical roots.
    candidates = sorted(set(round(r, 14) for r in candidates), reverse=True)
    if not candidates:
        raise NoRealSolution(
            "no real plane-wave amplitude in [0, 1]; u(r0) and v(r0) "
            "sign conditions exclude an equilibrium"
        )

    try:
        r0 = candidates[branch]
    except IndexError:
        raise NoRealSolution(
            f"branch {branch} requested but only {len(candidates)} root(s) exist"
        ) from None

    theta0 = float(np.sqrt(max(1.0 - r0**2, 0.0)))
    if drift_compatibility and theta0 != 0.0:
        w0 = -params.u(r0) * theta0

    wave = PlaneWave(r0=r0, theta0=theta0, w0=float(w0))
    wave.validate(params)
    return wave
