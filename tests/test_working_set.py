"""Memory held by the 2D full-field path, and the row-by-row dyadic multipliers.

tracemalloc sees every numpy array allocation, so the traced peaks below
are deterministic for a given numpy.  A 2D right-hand side whose transient
memory outgrows the heap's trim threshold hands pages back to the OS and
faults them in again on every evaluation; these bounds keep its working set
small.
"""

import math
import tracemalloc

import numpy as np
import pytest

from cglburgers import solver
from cglburgers.littlewood_paley import DyadicPartition, chi_profile, phi_profile
from cglburgers.model import SystemParams
from cglburgers.solver import SCHEMES, FieldState, Forcing, SolverConfig
from cglburgers.spectral import Grid, band_limited_noise

MiB = 2.0**20
FIELD_GRID = Grid(dim=2, n=128)
# Measured at 2.37 MiB (the 1 MiB stack, chi and one scale's temporaries)
# and 2.38 MiB (the stacked drift transform's three arrays); the bounds
# leave about 25 % for other numpy builds.  Whole-stack evaluation and a
# right-hand side that starts with P and grad P read 8.25 and 3.90 MiB.
PARTITION_PEAK_MIB = 3.0
RHS_PEAK_MIB = 3.0
# A 1D n = 256 trajectory with a row every 2 steps, as the field-1d
# benchmark runs it: 0.23-0.24 MiB with one row at a time, 0.49-0.50 MiB in
# batches of 3 (ROW_BATCH_BYTES = 128 KiB); batches of 7 and 14 read 0.78
# and 1.43 MiB.
TRAJECTORY_1D_PEAK_MIB = 1.0


def _traced_peak(fn):
    """(result, peak of traced memory above what was live before ``fn``, in MiB)."""
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, (peak - live) / MiB


def _whole_stack(grid):
    """The multiplier stacks as one profile evaluation over every scale at once."""
    kmag = grid.k_magnitude
    q_min = math.ceil(math.log2(3.0 * grid.k_min_positive / 8.0))
    q_max = math.floor(math.log2(4.0 * grid.k_max / 3.0))
    lo = min(q_min, 0)
    qs = np.arange(lo, q_max + 1)
    phis = phi_profile(np.ldexp(kmag, -qs.reshape(-1, *(1,) * grid.dim)))
    homogeneous = phis[q_min - lo :]
    nonhomogeneous = np.concatenate([chi_profile(kmag)[None], phis[-lo:]])
    return homogeneous, nonhomogeneous


@pytest.mark.parametrize(
    "grid",
    [Grid(dim=1, n=256), Grid(dim=2, n=64), Grid(dim=1, n=128, length=5.0),
     Grid(dim=2, n=32, length=0.7)],
    ids=["1d", "2d", "1d-L5", "2d-L0.7"],
)
def test_partition_rows_match_the_whole_stack_profile(grid):
    part = DyadicPartition(grid)
    homogeneous, nonhomogeneous = _whole_stack(grid)
    assert np.array_equal(part.homogeneous_blocks[1], homogeneous)
    assert np.array_equal(part.nonhomogeneous_blocks[1], nonhomogeneous)
    assert np.array_equal(part.homogeneous_blocks[0], np.arange(part.q_min, part.q_max + 1))
    assert np.array_equal(part.nonhomogeneous_blocks[0], np.arange(-1, part.q_max + 1))


def test_partition_build_peak_is_bounded():
    _, peak = _traced_peak(lambda: DyadicPartition(FIELD_GRID))
    assert peak <= PARTITION_PEAK_MIB


def test_nonlinear_hats_peak_above_live_is_bounded():
    grid = FIELD_GRID
    params = SystemParams.constants(u=0.3, v=0.2, xi=0.0, m=1.0, kappa=0.5, s1=0.1)
    consts = params.require_constant()
    rng = np.random.default_rng(0)
    state = FieldState(
        P=band_limited_noise(grid, rng, max_index=6, amplitude=5e-4),
        omega=tuple(
            band_limited_noise(grid, rng, max_index=6, amplitude=5e-4, real=True)
            for _ in range(grid.dim)
        ),
    )
    u, forcing = solver._stack(state), Forcing()
    want = solver._nonlinear_hats(grid, consts, u, 0.0, forcing)  # builds the cached layout
    got, peak = _traced_peak(lambda: solver._nonlinear_hats(grid, consts, u, 0.0, forcing))
    assert np.array_equal(got[0], want[0])
    assert peak <= RHS_PEAK_MIB


@pytest.mark.parametrize("scheme", SCHEMES)
def test_batched_rows_keep_a_1d_trajectory_under_one_mib(scheme):
    grid = Grid(dim=1, n=256)
    params = SystemParams.constants(u=0.3, v=0.2, xi=0.0, m=1.0, kappa=0.5, s1=0.1)
    rng = np.random.default_rng(0)
    state = FieldState(
        P=band_limited_noise(grid, rng, max_index=8, amplitude=2e-3),
        omega=(band_limited_noise(grid, rng, max_index=8, amplitude=2e-3, real=True),),
    )
    config = SolverConfig(dt=5e-3, t_end=2.0, cadence=2, besov_p=1.0, scheme=scheme)
    want = solver.evolve(state, params, config=config)  # builds the cached layout and partition
    got, peak = _traced_peak(lambda: solver.evolve(state, params, config=config))
    assert got.rows == want.rows
    assert peak <= TRAJECTORY_1D_PEAK_MIB
