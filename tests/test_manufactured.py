"""Manufactured solutions of the full coupled system, through ``Forcing``.

An exact solution (P, Omega) is chosen in closed form, and f1, f2 are the
residuals it leaves in the equations

    P_t = (1 + iu) lap(P) + xi P - Omega . grad(P) - (1 + iv)|P|^2 P - r1 P div(Omega) + f1
    Omega_t = m lap(Omega) - (Omega . grad) Omega - kappa grad(|P|^2) + f2

with r1 = s1 + i s2, written in physical space from the closed-form
derivatives.  Every product of the solution lies inside the kept band, so
the 2/3-rule projection leaves it exact and the only error left is the
scheme's O(dt^2): each halving of dt must divide it by 4.  This checks every
term and coupling of both right-hand sides against mathematics, not against
a second transcription of the code (Roache, J. Fluids Eng. 124, 2002).
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from cglburgers.model import SystemParams
from cglburgers.solver import FieldState, Forcing, SolverConfig, evolve
from cglburgers.spectral import Grid, SpectralField

A = 0.3
PHYSICS = dict(u=0.5, v=-0.4, xi=1.0, m=0.8, kappa=0.6, s1=0.3, s2=0.2)
DTS = (4e-3, 2e-3, 1e-3)
RATIO, RATIO_SLACK = 4.0, 0.3
FINEST_ERROR = 1e-6


class Modes:
    """sum_j c_j(t) exp(i k_j . x) with its exact derivatives.

    ``terms`` holds (c, dc/dt, k) per mode, c and dc/dt as functions of t.
    """

    def __init__(self, terms):
        self.terms = terms

    def _sum(self, x, weight):
        return sum(weight(c, dc, k) * np.exp(1j * sum(ka * xa for ka, xa in zip(k, x)))
                   for c, dc, k in self.terms)

    def value(self, x, t):
        return self._sum(x, lambda c, dc, k: c(t))

    def dt(self, x, t):
        return self._sum(x, lambda c, dc, k: dc(t))

    def grad(self, x, t):
        return [self._sum(x, lambda c, dc, k, a=a: 1j * k[a] * c(t)) for a in range(len(x))]

    def lap(self, x, t):
        return self._sum(x, lambda c, dc, k: -sum(ka**2 for ka in k) * c(t))


def _const(value):
    return (lambda t: value + 0j, lambda t: 0j)


def _travelling(amplitude, omega):
    """amplitude * exp(-i omega t) and its time derivative."""
    return (lambda t: amplitude * np.exp(-1j * omega * t),
            lambda t: -1j * omega * amplitude * np.exp(-1j * omega * t))


# P = A (1 + sin(t)/5) e^{it} (1 + e^{ix}/2) e^{2ix} in 1D, e^{2iy} in place
# of e^{2ix} in 2D.
_g = (lambda t: A * (1.0 + 0.2 * np.sin(t)) * np.exp(1j * t),
      lambda t: A * (0.2 * np.cos(t) + 1j * (1.0 + 0.2 * np.sin(t))) * np.exp(1j * t))
_half_g = (lambda t: 0.5 * _g[0](t), lambda t: 0.5 * _g[1](t))

CASES = {
    # Omega = A (0.4 + cos(x - t)), the real part of the modes below.
    1: dict(
        n=64,
        t_end=1.0,
        P=Modes([(*_g, (2,)), (*_half_g, (3,))]),
        omega=[Modes([(*_const(0.4 * A), (0,)), (*_travelling(A, 1.0), (1,))])],
    ),
    # Omega = A (0.4 + cos(x - t), 0.2 + sin(y + t)).
    2: dict(
        n=32,
        t_end=0.5,
        P=Modes([(*_g, (0, 2)), (*_half_g, (1, 2))]),
        omega=[
            Modes([(*_const(0.4 * A), (0, 0)), (*_travelling(A, 1.0), (1, 0))]),
            Modes([(*_const(0.2 * A), (0, 0)), (*_travelling(-1j * A, -1.0), (0, 1))]),
        ],
    ),
}


def _exact(case, x, t):
    """P, P_t, grad P, lap P and Omega, Omega_t, grad Omega, lap Omega at t."""
    P = case["P"]
    pv = (P.value(x, t), P.dt(x, t), P.grad(x, t), P.lap(x, t))
    ov = [(o.value(x, t).real, o.dt(x, t).real, [g.real for g in o.grad(x, t)], o.lap(x, t).real)
          for o in case["omega"]]
    return pv, ov


def _forcing(case, x, params) -> Forcing:
    c = params.require_constant()

    @functools.lru_cache(maxsize=1)
    def residuals(t):
        (P, P_t, dP, lapP), omega = _exact(case, x, t)
        dim = len(x)
        absP2 = P.real**2 + P.imag**2
        d_absP2 = [2.0 * (P.conj() * dP[a]).real for a in range(dim)]
        div = sum(omega[a][2][a] for a in range(dim))
        f1 = (
            P_t
            - (1.0 + 1j * c.u) * lapP
            - c.xi * P
            + sum(omega[a][0] * dP[a] for a in range(dim))
            + (1.0 + 1j * c.v) * absP2 * P
            + complex(c.s1, c.s2) * P * div
        )
        f2 = tuple(
            O_t - c.m * lapO + sum(omega[b][0] * dO[b] for b in range(dim)) + c.kappa * d_absP2[a]
            for a, (O, O_t, dO, lapO) in enumerate(omega)
        )
        return f1, f2

    return Forcing(f1=lambda t: residuals(t)[0], f2=lambda t: residuals(t)[1])


def _error(dim, dt, scheme, k_cutoff):
    case = CASES[dim]
    grid = Grid(dim=dim, n=case["n"], length=2.0 * np.pi)
    x = grid.coordinates()
    params = SystemParams.constants(**PHYSICS)
    (P0, *_), omega0 = _exact(case, x, 0.0)
    state0 = FieldState(
        P=SpectralField.from_physical(grid, P0),
        omega=tuple(SpectralField.from_physical(grid, o[0]) for o in omega0),
    )
    t_end = case["t_end"]
    steps = round(t_end / dt)
    config = SolverConfig(dt=dt, t_end=t_end, scheme=scheme, cadence=steps, k_cutoff=k_cutoff)
    final = evolve(state0, params, _forcing(case, x, params), config).final
    (P, *_), omega = _exact(case, x, final.t)
    errors = [np.abs(final.P.physical() - P).max()]
    errors += [np.abs(w.physical().real - o[0]).max() for w, o in zip(final.omega, omega)]
    return float(max(errors))


@pytest.mark.parametrize(
    "dim, scheme, k_cutoff",
    [
        (1, "exponential-rk2", None),
        (1, "imex-bdf2", None),
        (1, "exponential-rk2", 6.0),
        (1, "imex-bdf2", 6.0),
        (2, "exponential-rk2", None),
        (2, "imex-bdf2", 6.0),
    ],
)
def test_manufactured_solution_converges_at_second_order(dim, scheme, k_cutoff):
    errors = [_error(dim, dt, scheme, k_cutoff) for dt in DTS]
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert all(abs(r - RATIO) <= RATIO_SLACK for r in ratios), (errors, ratios)
    assert errors[-1] <= FINEST_ERROR, errors
