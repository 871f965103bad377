"""Shared oracles and generators for the test suite."""

from __future__ import annotations

import numpy as np

from cglburgers.littlewood_paley import smallness_monitor
from cglburgers.model import PlaneWave, SystemParams


def dealias_mask(grid) -> np.ndarray:
    """Boolean mask keeping modes with |index| <= n/3 on every axis: the 2/3 rule.

    n is a power of two so n/3 is never an integer and quadratic products
    of kept modes alias only onto discarded modes.
    """
    keep = np.abs(grid.mode_indices()) <= grid.n / 3.0
    return keep if grid.dim == 1 else keep[:, None] & keep[None, :]


def random_constrained_pair(rng: np.random.Generator):
    """Random (params, wave) satisfying both plane-wave constraints.

    Draws a point on the unit circle and free dispersion coefficients, then
    solves the nonlinear-dispersion value at r0 from the second constraint;
    the slope of v stays free.
    """
    psi = rng.uniform(0.05, np.pi / 2 - 0.05)
    r0, th0 = float(np.cos(psi)), float(np.sin(psi))
    c0, c1 = rng.normal(scale=1.0, size=2)
    u0 = c0 + c1 * r0
    v_at_r0 = -u0 * th0**2 / r0**2
    v1 = rng.normal(scale=1.0)
    v0 = v_at_r0 - v1 * r0
    params = SystemParams(
        u_coeffs=(float(c0), float(c1)),
        v_coeffs=(float(v0), float(v1)),
        xi=1.0,
        m=float(rng.uniform(0.2, 2.0)),
        kappa_coeffs=(0.0, 0.0),
        s1_coeffs=(float(rng.normal(scale=0.5)), 0.0),
        s2_coeffs=(float(rng.normal(scale=0.5)), 0.0),
    )
    wave = PlaneWave(r0=r0, theta0=th0, w0=float(rng.normal(scale=0.5)))
    wave.validate(params, tol=1e-10)
    return params, wave


def reference_case_constant_amplitude(k, m, w0):
    """Unit-amplitude wave, zero carrier: (-k^2 m - i w0 k, -k^2 - i w0 k, -2 - k^2 - i w0 k)."""
    k = np.asarray(k, dtype=float)
    drift = -1j * w0 * k
    return np.stack(
        [-(k**2) * m + drift, -(k**2) + drift, -2.0 - k**2 + drift], axis=-1
    )


def reference_case_zero_dispersion(k, m, w0, r0):
    """Zero-dispersion wave on the circle; the slow branch carries -2*r0^2.

    The printed source states -(2*r0 + k^2 + i w0 k) for the slow branch,
    which coincides with the determinant only at r0 in {0, 1}; the test
    configurations pin r0 there and the generic-r0 mismatch is reported
    separately.
    """
    k = np.asarray(k, dtype=float)
    drift = -1j * w0 * k
    return np.stack(
        [-(k**2) * m + drift, -(k**2) + drift, -(2.0 * r0 + k**2) + drift], axis=-1
    )


def reference_case_pure_carrier(k, m, w0):
    """Zero-amplitude, unit-carrier wave: (-k^2 m - i w0 k, -k^2 - i w0 k x2)."""
    k = np.asarray(k, dtype=float)
    drift = -1j * w0 * k
    return np.stack([-(k**2) * m + drift, -(k**2) + drift, -(k**2) + drift], axis=-1)


def coupled_case_printed(k, s1, w0):
    """Unit-wave coupled slice, zero dispersion: quadratic-factor roots."""
    k = np.asarray(k, dtype=float)
    drift = -1j * w0 * k
    root = np.sqrt(1.0 + 2j * k * s1)
    return np.stack(
        [-(k**2) + drift, -(k**2) - 1.0 + root + drift, -(k**2) - 1.0 - root + drift],
        axis=-1,
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


def sort_triple(lams: np.ndarray) -> np.ndarray:
    """Descending real part (round-off tolerant), ties by ascending imag."""
    lams = np.asarray(lams)
    scale = np.maximum(np.max(np.abs(lams), axis=-1, keepdims=True), 1.0)
    key = np.round(lams.real / (1e-9 * scale))
    order = np.lexsort((lams.imag, -key), axis=-1)
    return np.take_along_axis(lams, order, axis=-1)


def burgers_single_hump(x, t, m, a=0.5, k1=1.0):
    """Exact periodic Burgers solution via the heat-kernel substitution.

    With potential 1 + a*exp(-m*k1^2*t)*cos(k1*x) the velocity field
    -2*m*d_x(log potential) solves u_t + u*u_x = m*u_xx exactly.
    """
    decay = a * np.exp(-m * k1**2 * t)
    return 2.0 * m * k1 * decay * np.sin(k1 * x) / (1.0 + decay * np.cos(k1 * x))


def diagnostics_row(state, weight, besov_p):
    """One diagnostics row of ``evolve``, computed from one state alone.

    ``weight`` holds the H^s weights (1 + |k|^2)^s.  ``evolve`` computes its
    rows a batch of states at a time; this is the per-state reference.
    """
    Ph, Ohs = state.P.spectral(), [w.spectral() for w in state.omega]
    l2o = float(np.sqrt(sum(np.sum(np.abs(oh) ** 2) for oh in Ohs)))
    hso = float(np.sqrt(sum(np.sum(weight * np.abs(oh) ** 2) for oh in Ohs)))
    return {
        "t": state.t,
        "L2_P": float(np.sqrt(np.sum(np.abs(Ph) ** 2))),
        "L2_Omega": l2o,
        "Hs_P": float(np.sqrt(np.sum(weight * np.abs(Ph) ** 2))),
        "Hs_Omega": hso,
        "besov_proxy": smallness_monitor(state, besov_p),
    }


class AmplitudeVanishes(ValueError):
    """|P| is not bounded away from zero; the polar chart does not apply."""


def polar_decompose(P, wave: PlaneWave):
    """Split a 1D complex field into (rho, phi) relative to the carrier wave.

    The reference that maps a full-field P back to the polar chart.  The
    phase is unwrapped along x and the gauge is fixed by shifting the mean
    of phi into [-pi, pi).  Requires min|P| > 0.1*r0.
    """
    grid = P.grid
    if grid.dim != 1:
        raise ValueError("polar decomposition is one-dimensional")
    values = P.physical()
    amplitude = np.abs(values)
    if float(np.min(amplitude)) <= 0.1 * wave.r0:
        raise AmplitudeVanishes(
            "min |P| <= 0.1*r0; the polar chart has broken down"
        )
    rho = amplitude - wave.r0
    x = grid.axis_coordinates()
    theta = np.unwrap(np.angle(values))
    phi = theta - wave.theta0 * x
    phi = phi - 2.0 * np.pi * np.floor((np.mean(phi) + np.pi) / (2.0 * np.pi))
    return rho, phi
