"""Properties of the shared semilinear integrator core in ``solver``."""

import numpy as np
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from cglburgers.solver import (
    SCHEMES,
    SolverConfig,
    block_operators,
    diagonal_operators,
    etd2_step,
    run,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _diagonal_blocks(L):
    M = np.zeros(L.shape + (L.shape[-1],), dtype=complex)
    for i in range(L.shape[-1]):
        M[:, i, i] = L[:, i]
    return M


def _saturating(u, t):
    return np.cos(3.0 * t) - 0.5 * u * np.abs(u) ** 2 / (1.0 + np.abs(u) ** 2)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, dt=st.floats(1e-4, 1.0), scheme=st.sampled_from(SCHEMES))
def test_block_path_on_diagonal_blocks_matches_diagonal_path(seed, dt, scheme):
    rng = np.random.default_rng(seed)
    L = -rng.uniform(0.0, 50.0, (8, 3)) + 1j * rng.uniform(-20.0, 20.0, (8, 3))
    u0 = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
    config = SolverConfig(dt=dt, t_end=4 * dt, scheme=scheme)

    def final(ops):
        return run(u0, 0.0, _saturating, ops, config, lambda u, t: None)[1]

    diagonal = final(diagonal_operators(L, dt))
    block = final(block_operators(_diagonal_blocks(L), dt))
    assert np.max(np.abs(block - diagonal)) <= 1e-10 * np.max(np.abs(diagonal))


@settings(max_examples=100, deadline=None)
@given(
    re=st.floats(-1e3, 0.0),
    im=st.floats(-1e3, 1e3),
    dt=st.floats(1e-6, 10.0),
)
# L*dt is subnormal here, where expm1(z)/z overflows to inf+nanj.
@example(re=0.0, im=4.795468447606649e-306, dt=1e-06)
def test_etd2_is_exact_for_a_constant_source_diagonal(re, im, dt):
    L = np.array([complex(re, im)])
    u0, c = np.array([1.3 + 0.4j]), 0.7 - 0.2j
    u, _ = etd2_step(u0, 0.0, lambda u, t: np.full_like(u, c), diagonal_operators(L, dt), dt)
    # exp([[L, c], [0, 0]] * dt) maps (u0, 1) to the exact solution.
    aug = np.array([[L[0] * dt, c * dt], [0.0, 0.0]])
    exact = (scipy.linalg.expm(aug) @ np.array([u0[0], 1.0]))[0]
    assert np.abs(u - exact)[0] <= 1e-12 * (np.abs(u0)[0] + abs(c) * dt)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, dt=st.floats(1e-6, 10.0))
def test_etd2_is_exact_for_a_constant_source_blocks(seed, dt):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    # Shift every block so that its spectrum lies in Re <= 0.
    shift = np.max(np.linalg.eigvals(M).real, axis=-1) + rng.uniform(0.0, 5.0, 4)
    M = M - shift[:, None, None] * np.eye(3)
    u0 = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    c = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    u, _ = etd2_step(u0, 0.0, lambda u, t: c, block_operators(M, dt), dt)
    for j in range(4):
        # exp([[M, c], [0, 0]] * dt) maps (u0, 1) to the exact solution.
        aug = np.zeros((4, 4), dtype=complex)
        aug[:3, :3], aug[:3, 3] = M[j], c[j]
        exact = (scipy.linalg.expm(aug * dt) @ np.append(u0[j], 1.0))[:3]
        scale = np.linalg.norm(u0[j]) + np.linalg.norm(c[j]) * dt
        assert np.linalg.norm(u[j] - exact) <= 1e-9 * scale
