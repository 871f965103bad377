"""Periodic grids, Fourier transforms, fields and L^p norms.

Conventions used throughout the package:

* Spectral coefficients are the normalized discrete Fourier coefficients
  ``fhat = fftn(f) / f.size``, so a single mode ``exp(i*k*x)`` has the
  coefficient 1 at wavenumber ``k``.  Every transform of the package goes
  through :func:`fft_axes`, :func:`ifft_axes`, :func:`rfft_axes` and
  :func:`irfft_axes`, which put the 1/size factor on the forward side
  (``norm="forward"``).  The grid size is a power of two, so that scaling
  is exact and gives the same bits as dividing after the transform.
  ``band=True`` on a forward returns the 2/3-rule projection: every mode
  |index| <= n/3 on each axis keeps the full transform's bits, and every
  other mode is +0.0.  A 2D inverse whose input is zero outside that band
  skips the lines it would transform from zero, and gives numpy's n-d
  values bit for bit.
* Physical-space L^p norms use the normalized measure ``dx / L`` (equal
  quadrature weights summing to one), making Parseval read
  ``mean(|f|^2) == sum(|fhat|^2)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid in 1 or 2 dimensions.

    Attributes:
        dim: spatial dimension, 1 or 2.
        n: points per axis (power of two, >= 8).
        length: domain period per axis.
    """

    dim: int = 1
    n: int = 64
    length: float = 2.0 * np.pi

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("grid dimension must be 1 or 2")
        if self.n < 8 or not _is_power_of_two(self.n):
            raise ValueError("grid resolution must be a power of two >= 8")
        if not 0 < self.length < np.inf:
            raise ValueError(f"grid length must be positive and finite, not {self.length!r}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def size(self) -> int:
        return self.n**self.dim

    @property
    def dx(self) -> float:
        return self.length / self.n

    def axis_coordinates(self) -> np.ndarray:
        return np.arange(self.n) * self.dx

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays of the grid points (meshgrid for dim 2)."""
        x = self.axis_coordinates()
        if self.dim == 1:
            return (x,)
        return tuple(np.meshgrid(x, x, indexing="ij"))

    def mode_indices(self) -> np.ndarray:
        """Signed integer mode indices along one axis (fft layout)."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n)

    def wavenumbers(self) -> tuple[np.ndarray, ...]:
        """Broadcastable wavenumber component arrays (2*pi/L * index)."""
        k1 = 2.0 * np.pi / self.length * self.mode_indices()
        if self.dim == 1:
            return (k1,)
        return (k1[:, None], k1[None, :])

    @property
    def k_squared(self) -> np.ndarray:
        ks = self.wavenumbers()
        out = np.zeros(self.shape)
        for k in ks:
            out = out + k**2
        return out

    @property
    def k_magnitude(self) -> np.ndarray:
        return np.sqrt(self.k_squared)

    @property
    def k_min_positive(self) -> float:
        return 2.0 * np.pi / self.length

    @property
    def k_max(self) -> float:
        return float(np.max(self.k_magnitude))

    def index_mask(self, max_index: float) -> np.ndarray:
        """Boolean mask keeping modes with |index| <= max_index on every axis."""
        keep = np.abs(self.mode_indices()) <= max_index
        if self.dim == 1:
            return keep
        return keep[:, None] & keep[None, :]

    def kmax_mask(self, k_cutoff: float) -> np.ndarray:
        """Boolean mask keeping modes with |k| <= k_cutoff."""
        return self.k_magnitude <= k_cutoff + 1e-12


# The helpers look ``np.fft.<name>`` up at every call, so that a wrapper set
# on the module attribute (a tracer, a call counter) sees each transform.
# A 1D grid goes through the 1D functions: the n-d ones cost about 5 us of
# argument handling per call, which is most of a small transform.
#
# A 2D transform is two passes of 1D transforms, each line transformed on its
# own: ``ifftn`` transforms the rows (axis -1), then the columns; ``irfftn``
# the n/2 + 1 half-columns, then the rows; ``fftn`` and ``rfftn`` the rows,
# then the columns.  A 2D helper skips the lines of one pass that lie outside
# the 2/3-rule band |index| <= n/3 (:func:`band_gap`): an inverse those its
# first pass would transform from zero input, which it finds by one ``any``
# over them; a forward, with ``band``, those its second pass would compute
# only for the projection to zero, and then zeroes the gap rows and columns.
# The kept lines go through numpy's 1D calls, written with ``out=`` (numpy >=
# 2.0) into a buffer whose skipped lines are zero, and a line of +0.0
# transforms to +0.0, so every value computed is bit for bit numpy's n-d one
# (but for the sign of a NaN, which depends on how numpy batches the lines,
# and the sign of a zero where a skipped line held -0.0).  A second pass
# writes over its own input, which saves allocating, and faulting in, one
# more array per transform.  At n = 128 a pass skips 43 of 128 rows or
# columns, or 22 of 65 half-columns.  A 1D transform is a single pass.


def band_gap(n: int) -> slice:
    """The indices |index| > n/3 of an fft-ordered axis of length n, or of its rfft half.

    n is a power of two, so n/3 is never an integer: the band keeps the
    indices 0..n//3 and n - n//3..n - 1 (the half keeps 0..n//3).
    """
    return slice(n // 3 + 1, n - n // 3)


def fft_axes(grid: Grid, x: np.ndarray, band: bool = False) -> np.ndarray:
    """Normalized Fourier coefficients over the grid's (last ``dim``) axes.

    With ``band``, their 2/3-rule projection: every mode |index| > n/3 on
    some axis is +0.0, and every other value is bit for bit the full
    transform's.  In 2D the columns past n/3 are not transformed.
    """
    if grid.dim == 2 and not band:
        return np.fft.fftn(x, axes=(-2, -1), norm="forward")
    out = np.fft.fft(x, norm="forward")
    if not band:
        return out
    gap = band_gap(grid.n)
    if grid.dim == 2:
        for kept in (slice(None, gap.start), slice(gap.stop, None)):
            np.fft.fft(out[..., kept], axis=-2, norm="forward", out=out[..., kept])
        out[..., gap, :] = 0.0
    out[..., gap] = 0.0
    return out


def ifft_axes(grid: Grid, x: np.ndarray) -> np.ndarray:
    """Grid values of normalized Fourier coefficients (inverse of :func:`fft_axes`).

    On a 2D grid, rows |index| > n/3 (axis -2) of ``x`` that are all zero
    are not transformed, but taken as +0.0.
    """
    if grid.dim == 1:
        return np.fft.ifft(x, norm="forward")
    gap = band_gap(grid.n)
    if x[..., gap, :].any():
        return np.fft.ifftn(x, axes=(-2, -1), norm="forward")
    rows = np.empty(x.shape, dtype=complex)
    rows[..., gap, :] = 0.0
    for kept in (slice(None, gap.start), slice(gap.stop, None)):
        np.fft.ifft(x[..., kept, :], norm="forward", out=rows[..., kept, :])
    return np.fft.ifft(rows, axis=-2, norm="forward", out=rows)


def rfft_axes(grid: Grid, x: np.ndarray, band: bool = False) -> np.ndarray:
    """Normalized real-FFT coefficients (last axis n//2 + 1) of real grid values.

    ``band`` projects them as :func:`fft_axes` does; in 2D the half-columns
    past index n/3 are not transformed.
    """
    if grid.dim == 2 and not band:
        return np.fft.rfftn(x, axes=(-2, -1), norm="forward")
    out = np.fft.rfft(x, norm="forward")
    if not band:
        return out
    gap = band_gap(grid.n)
    if grid.dim == 2:
        kept = slice(None, gap.start)
        np.fft.fft(out[..., kept], axis=-2, norm="forward", out=out[..., kept])
        out[..., gap, :] = 0.0
    out[..., gap] = 0.0
    return out


def irfft_axes(grid: Grid, x: np.ndarray) -> np.ndarray:
    """Real grid values of normalized real-FFT coefficients, zero-padded to n//2 + 1.

    On a 2D grid, half-columns past index n/3 of ``x`` that are all zero are
    not transformed, but taken as +0.0.
    """
    if grid.dim == 1:
        return np.fft.irfft(x, n=grid.n, norm="forward")
    gap = band_gap(grid.n)
    if x[..., gap].any():
        return np.fft.irfftn(x, s=grid.shape, axes=(-2, -1), norm="forward")
    kept = slice(None, gap.start)
    cols = np.empty(x.shape, dtype=complex)
    cols[..., gap] = 0.0
    np.fft.ifft(x[..., kept], axis=-2, norm="forward", out=cols[..., kept])
    return np.fft.irfft(cols, n=grid.n, norm="forward")


@dataclass
class SpectralField:
    """Field on a periodic grid, stored in physical or spectral form."""

    grid: Grid
    data: np.ndarray
    space: str = "physical"

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.shape != self.grid.shape:
            raise ValueError(
                f"field shape {self.data.shape} does not match grid {self.grid.shape}"
            )
        if self.space not in ("physical", "spectral"):
            raise ValueError("space must be 'physical' or 'spectral'")

    @classmethod
    def from_physical(cls, grid: Grid, values) -> "SpectralField":
        return cls(grid=grid, data=np.asarray(values, dtype=complex), space="physical")

    @classmethod
    def from_spectral(cls, grid: Grid, coeffs) -> "SpectralField":
        return cls(grid=grid, data=np.asarray(coeffs, dtype=complex), space="spectral")

    @classmethod
    def zeros(cls, grid: Grid) -> "SpectralField":
        return cls(grid=grid, data=np.zeros(grid.shape, dtype=complex), space="physical")

    def spectral(self) -> np.ndarray:
        """Normalized Fourier coefficients."""
        if self.space == "spectral":
            return self.data
        return fft_axes(self.grid, self.data)

    def physical(self) -> np.ndarray:
        if self.space == "physical":
            return self.data
        return ifft_axes(self.grid, self.data)

    def as_physical(self) -> "SpectralField":
        return SpectralField.from_physical(self.grid, self.physical())

    def is_real_valued(self, tol: float = 1e-10) -> bool:
        """True when the physical field is real (conjugate-symmetric spectrum)."""
        phys = self.physical()
        scale = max(float(np.max(np.abs(phys))), 1e-300)
        return float(np.max(np.abs(phys.imag))) <= tol * scale


def lp_norms(mag: np.ndarray, p: float, axes: tuple[int, ...]) -> np.ndarray:
    """L^p norms over ``axes`` of the magnitudes ``mag``, with the normalized measure.

    For p = inf the max; for p = 1 the mean, bitwise the root below since
    x ** 1.0 == x; otherwise the p-th root of the mean p-th power, taken per
    scalar: numpy's vectorized power can differ in the last bit.
    """
    if np.isinf(p):
        return np.max(mag, axis=axes)
    if p == 1.0:
        return np.mean(mag, axis=axes)
    means = np.mean(mag**p, axis=axes)
    return np.array([m ** (1.0 / p) for m in means.ravel()]).reshape(means.shape)


def lp_norm(f: SpectralField, p: float = 2.0) -> float:
    """Physical-space L^p norm with the normalized measure dx/L, for p in [1, inf]."""
    if not p >= 1.0:
        raise ValueError(f"p must lie in [1, inf], not {p!r}")
    mag = np.abs(f.physical())
    return float(lp_norms(mag, p, tuple(range(mag.ndim))))


def band_limited_noise(
    grid: Grid,
    rng: np.random.Generator,
    max_index: int | None = None,
    real: bool = False,
    zero_mean: bool = False,
    amplitude: float = 1.0,
) -> SpectralField:
    """Random field with spectral support |index| <= max_index per axis."""
    if max_index is None:
        max_index = grid.n // 3
    coeffs = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    coeffs = coeffs * grid.index_mask(max_index)
    if zero_mean:
        coeffs[(0,) * grid.dim] = 0.0
    f = SpectralField.from_spectral(grid, amplitude * coeffs)
    if real:
        f = SpectralField.from_physical(grid, f.physical().real)
    return f
