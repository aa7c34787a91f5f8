"""Shared substrate: grids, discrete Fourier transforms, norms, sectors.

The real line is modeled as the periodic interval [-L, L) sampled at N
uniform points x_j = -L + j*h with h = 2L/N.  The dual frequencies are
xi_k = pi*m_k/L where m_k is the signed DFT index running over
[-N/2, N/2), so exactly one grid frequency equals zero.  The transform
pair is normalized like the continuum transform,

    (F f)(xi_k)     = h * sum_j f(x_j) exp(-i xi_k x_j),
    (Finv g)(x_j)   = 1/(2L) * sum_k g(xi_k) exp(+i xi_k x_j),

which round-trips exactly and makes multiplier symbols act the same way
they do on the line.  The expansion ("mode") coefficient of the basis
function e^{i xi_k x} is the transform value divided by 2L.

Norm quadrature is the rectangle rule in x (identical to the trapezoid
rule on the periodic interval) and the trapezoid rule in t for
space-time fields, so constants integrate exactly in both variables.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SpatialGrid",
    "GridFunction",
    "SpectralFunction",
    "SpaceTimeFunction",
    "Sector",
    "forward_transform",
    "inverse_transform",
    "apply_multiplier",
    "multiplier_norm",
    "lp_norm",
    "mixed_norm",
    "band_limited_spectrum",
    "random_band_limited",
]

# Seed of every random draw (probes, forcings, samples) unless one is given.
DEFAULT_SEED = 0xF5EC


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform sampling of the periodic interval [-half_width, half_width)
    together with its dual frequencies.

    Parameters
    ----------
    half_width : float
        Finite L > 0; the interval is [-L, L).
    size : int
        Number of samples N; must be even and at least 4.
    """

    half_width: float
    size: int

    def __post_init__(self) -> None:
        if not 0.0 < self.half_width < math.inf:
            raise ValueError(f"grid half-width must be finite and positive, got {self.half_width}")
        if self.size < 4 or self.size % 2 != 0:
            raise ValueError(f"grid size must be even and >= 4, got {self.size}")

    @property
    def spacing(self) -> float:
        """Sample spacing h = 2L/N."""
        return 2.0 * self.half_width / self.size

    @property
    def points(self) -> np.ndarray:
        """Sample locations x_j = -L + j*h, j = 0..N-1."""
        return -self.half_width + self.spacing * np.arange(self.size)

    @property
    def indices(self) -> np.ndarray:
        """Signed integer DFT indices m_k in [-N/2, N/2), DFT storage order."""
        n = self.size
        m = np.arange(n)
        m[m >= n // 2] -= n
        return m

    @property
    def frequencies(self) -> np.ndarray:
        """Dual frequencies xi_k = pi*m_k/L in DFT order."""
        return (math.pi / self.half_width) * self.indices

    @property
    def parity(self) -> np.ndarray:
        """(-1)^{m_k}; the boundary phase relating the DFT to the x_j = -L origin."""
        return np.where(self.indices % 2 == 0, 1.0, -1.0)

    def to_spectral(self, values: np.ndarray) -> np.ndarray:
        """Forward transform along the grid axis -2 of an (..., N, d) array."""
        return self.spacing * np.fft.fft(values, axis=-2) * self.parity[:, None]

    def to_physical(self, values: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`to_spectral`; carries the 1/(2L) weight."""
        return np.fft.ifft(values * self.parity[:, None], axis=-2) / self.spacing


def _as_samples(values: np.ndarray, length: int) -> np.ndarray:
    v = np.asarray(values, dtype=complex)
    if v.ndim == 1:
        v = v[:, None]
    if v.ndim != 2 or v.shape[0] != length:
        raise ValueError(
            f"sample array of shape {np.shape(values)} does not match grid size {length}"
        )
    if not np.all(np.isfinite(v)):
        raise ValueError("sample array contains non-finite entries")
    return v


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Samples of an H-valued function on a SpatialGrid, stored as (N, d)."""

    grid: SpatialGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_samples(self.values, self.grid.size))

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @classmethod
    def from_callable(cls, grid: SpatialGrid, func: Callable, dim: int = 1) -> "GridFunction":
        """Sample ``func(x)`` on the grid; func may return scalars or length-d vectors."""
        vals = np.asarray([func(x) for x in grid.points], dtype=complex)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape[1] != dim:
            raise ValueError(f"callable returned dimension {vals.shape[1]}, expected {dim}")
        return cls(grid, vals)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        if self.grid != other.grid:
            raise ValueError("grid mismatch in GridFunction arithmetic")
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        if self.grid != other.grid:
            raise ValueError("grid mismatch in GridFunction arithmetic")
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, scalar: complex) -> "GridFunction":
        return GridFunction(self.grid, self.values * scalar)

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class SpectralFunction:
    """Transform values at the grid's frequencies, stored as (N, d) in DFT order."""

    grid: SpatialGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_samples(self.values, self.grid.size))

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def mode_coefficients(self) -> np.ndarray:
        """Expansion coefficients of e^{i xi_k x}: transform values / (2L)."""
        return self.values / (2.0 * self.grid.half_width)


@dataclass(frozen=True, eq=False)
class SpaceTimeFunction:
    """Samples of a field on [0, T] x [-L, L), stored as (Nt+1, N, d).

    ``times`` must be uniform starting at 0; it carries both endpoints, so
    Nt steps mean Nt+1 slices.
    """

    grid: SpatialGrid
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 2 or t[0] != 0.0:
            raise ValueError("times must be a 1-D array starting at 0 with at least 2 samples")
        dt = np.diff(t)
        if not np.allclose(dt, dt[0], rtol=1e-12, atol=0.0) or dt[0] <= 0.0:
            raise ValueError("times must be uniformly spaced and increasing")
        v = np.asarray(self.values, dtype=complex)
        if v.ndim == 2:
            v = v[:, :, None]
        if v.ndim != 3 or v.shape[0] != t.size or v.shape[1] != self.grid.size:
            raise ValueError(
                f"value array of shape {np.shape(self.values)} does not match "
                f"{t.size} time slices on a grid of size {self.grid.size}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("sample array contains non-finite entries")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[2]

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @classmethod
    def from_callable(
        cls, grid: SpatialGrid, times: np.ndarray, func: Callable, dim: int = 1
    ) -> "SpaceTimeFunction":
        """Sample ``func(t, x)`` slice by slice."""
        x = grid.points
        vals = np.empty((len(times), grid.size, dim), dtype=complex)
        for m, t in enumerate(times):
            slab = np.asarray([func(t, xj) for xj in x], dtype=complex)
            vals[m] = slab[:, None] if slab.ndim == 1 else slab
        return cls(grid, np.asarray(times, float), vals)

    def slice_at(self, m: int) -> GridFunction:
        return GridFunction(self.grid, self.values[m])


def forward_transform(f: GridFunction) -> SpectralFunction:
    """h-weighted DFT approximating the continuum transform on [-L, L)."""
    return SpectralFunction(f.grid, f.grid.to_spectral(f.values))


def inverse_transform(g: SpectralFunction) -> GridFunction:
    """Inverse of :func:`forward_transform`; carries the 1/(2L) weight."""
    return GridFunction(g.grid, g.grid.to_physical(g.values))


def _multiply(spec: SpectralFunction, mult: np.ndarray) -> SpectralFunction:
    if np.ndim(mult) == 1:
        vals = mult[:, None] * spec.values
    else:
        vals = np.einsum("kij,kj->ki", mult, spec.values)
    return SpectralFunction(spec.grid, vals)


def apply_multiplier(spec: SpectralFunction, mult: np.ndarray) -> GridFunction:
    """Inverse transform of a multiplier times ``spec``.

    ``mult`` is either a scalar multiplier of shape (N,), scaling every
    component, or a symbol stack of shape (N, d, d) acting on the vector
    at each frequency.
    """
    return inverse_transform(_multiply(spec, mult))


def multiplier_norm(spec: SpectralFunction, mult: np.ndarray, p: float) -> float:
    """``lp_norm(apply_multiplier(spec, mult), p)``.

    At p = 2 the norm is read off the spectrum by discrete Parseval,
    h * sum_j |g(x_j)|^2 = sum_k |(F g)(xi_k)|^2 / (2L), with no inverse
    transform; every other p takes the physical-space path.
    """
    p = _check_exponent(p)
    if p != 2.0:
        return lp_norm(apply_multiplier(spec, mult), p)
    vals = _multiply(spec, mult).values.ravel()
    return math.sqrt(np.vdot(vals, vals).real / (2.0 * spec.grid.half_width))


def _check_exponent(p: float) -> float:
    p = float(p)
    if not (1.0 < p < math.inf):
        raise ValueError(f"Lebesgue exponent must lie in (1, inf), got {p}")
    return p


def lp_norm(f: GridFunction, p: float) -> float:
    """Rectangle-rule L_p norm, (h * sum_j |f(x_j)|_2^p)^(1/p)."""
    p = _check_exponent(p)
    mags = np.linalg.norm(f.values, axis=1)
    return float((f.grid.spacing * np.sum(mags**p)) ** (1.0 / p))


def _trapezoid_weights(times: np.ndarray) -> np.ndarray:
    dt = times[1] - times[0]
    w = np.full(times.size, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def mixed_norm(f: SpaceTimeFunction, p: float, p1: float, swap: bool = False) -> float:
    """Mixed norm with inner x-integral (exponent p) and outer t-integral (p1).

    ``swap=True`` selects the transposed reading: inner t-integral with
    exponent p1 and outer x-integral with exponent p.
    """
    p = _check_exponent(p)
    p1 = _check_exponent(p1)
    mags = np.linalg.norm(f.values, axis=2)  # (Nt+1, N)
    h = f.grid.spacing
    w = _trapezoid_weights(f.times)
    if not swap:
        inner = (h * np.sum(mags**p, axis=1)) ** (1.0 / p)
        return float(np.sum(w * inner**p1) ** (1.0 / p1))
    inner = np.sum(w[:, None] * mags**p1, axis=0) ** (1.0 / p1)
    return float((h * np.sum(inner**p)) ** (1.0 / p))


@dataclass(frozen=True)
class Sector:
    """Closed sector {z != 0 : |arg z| <= angle} together with the origin."""

    angle: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.angle < math.pi:
            raise ValueError(f"sector angle must lie in [0, pi), got {self.angle}")

    def contains(self, z: complex) -> bool:
        z = complex(z)
        if z == 0:
            return True
        return abs(cmath.phase(z)) <= self.angle

    @classmethod
    def enclosing(cls, lam: complex) -> "Sector":
        """Narrowest sector holding ``lam``, with 1e-12 slack and kept below pi."""
        if lam == 0:
            return cls(0.0)
        return cls(min(abs(cmath.phase(lam)) + 1e-12, math.pi - 1e-9))


def band_limited_spectrum(
    grid: SpatialGrid, dim: int = 1, rng: np.random.Generator | int | None = None
) -> SpectralFunction:
    """Random spectrum on the central half of the modes.

    Values are complex Gaussians on |m_k| <= N/4 and zero elsewhere, so
    the function they transform is exactly representable on the grid and
    free of periodization error.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    keep = np.abs(grid.indices) <= grid.size // 4
    coeffs = np.zeros((grid.size, dim), dtype=complex)
    coeffs[keep] = rng.standard_normal((int(keep.sum()), dim)) + 1j * rng.standard_normal(
        (int(keep.sum()), dim)
    )
    if not np.any(coeffs):
        raise RuntimeError("degenerate random draw")
    return SpectralFunction(grid, coeffs)


def random_band_limited(
    grid: SpatialGrid, dim: int = 1, rng: np.random.Generator | int | None = None
) -> GridFunction:
    """Unit-L2 inverse transform of :func:`band_limited_spectrum`."""
    u = inverse_transform(band_limited_spectrum(grid, dim, rng))
    return GridFunction(grid, u.values / lp_norm(u, 2.0))
