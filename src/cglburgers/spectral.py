"""Periodic grids, Fourier transforms, fields and L^p norms.

Conventions used throughout the package:

* Spectral coefficients are the normalized discrete Fourier coefficients
  ``fhat = fftn(f) / f.size``, so a single mode ``exp(i*k*x)`` has the
  coefficient 1 at wavenumber ``k``.  Every transform of the package goes
  through :func:`fft_axes`, :func:`ifft_axes`, :func:`rfft_axes` and
  :func:`irfft_axes`, which put the 1/size factor on the forward side
  (``norm="forward"``).  The grid size is a power of two, so that scaling
  is exact and gives the same bits as dividing after the transform.
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

    def dealias_mask(self) -> np.ndarray:
        """Boolean mask keeping modes with |index| <= n/3 on every axis.

        n is a power of two so n/3 is never an integer and quadratic
        products of kept modes alias only onto discarded modes.
        """
        return self.index_mask(self.n / 3.0)

    def kmax_mask(self, k_cutoff: float) -> np.ndarray:
        """Boolean mask keeping modes with |k| <= k_cutoff."""
        return self.k_magnitude <= k_cutoff + 1e-12


# The helpers look ``np.fft.<name>`` up at every call, so that a wrapper set
# on the module attribute (a tracer, a call counter) sees each transform.
# A 1D grid goes through the 1D functions: the n-d ones cost about 5 us of
# argument handling per call, which is most of a small transform.


def fft_axes(grid: Grid, x: np.ndarray) -> np.ndarray:
    """Normalized Fourier coefficients over the grid's (last ``dim``) axes."""
    if grid.dim == 1:
        return np.fft.fft(x, norm="forward")
    return np.fft.fftn(x, axes=(-2, -1), norm="forward")


def ifft_axes(grid: Grid, x: np.ndarray) -> np.ndarray:
    """Grid values of normalized Fourier coefficients (inverse of :func:`fft_axes`)."""
    if grid.dim == 1:
        return np.fft.ifft(x, norm="forward")
    return np.fft.ifftn(x, axes=(-2, -1), norm="forward")


def rfft_axes(grid: Grid, x: np.ndarray) -> np.ndarray:
    """Normalized real-FFT coefficients (last axis n//2 + 1) of real grid values."""
    if grid.dim == 1:
        return np.fft.rfft(x, norm="forward")
    return np.fft.rfftn(x, axes=(-2, -1), norm="forward")


def irfft_axes(grid: Grid, x: np.ndarray) -> np.ndarray:
    """Real grid values of normalized real-FFT coefficients, zero-padded to n//2 + 1."""
    if grid.dim == 1:
        return np.fft.irfft(x, n=grid.n, norm="forward")
    return np.fft.irfftn(x, s=grid.shape, axes=(-2, -1), norm="forward")


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
    """Physical-space L^p norm with the normalized measure dx/L."""
    mag = np.abs(f.physical())
    if p <= 0:
        raise ValueError("p must be positive")
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
