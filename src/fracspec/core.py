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
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_SEED",
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


def _sample_values(values, lead: tuple[int, ...]) -> np.ndarray:
    """``values`` as finite complex samples of shape lead + (d,); d = 1 for shape ``lead``."""
    v = np.asarray(values, dtype=complex)
    if v.ndim == len(lead):
        v = v[..., None]
    if v.shape[:-1] != lead:
        raise ValueError(f"sample array of shape {np.shape(values)} does not match {lead} + (d,)")
    if not np.all(np.isfinite(v)):
        raise ValueError("sample array contains non-finite entries")
    return v


@dataclass(frozen=True, eq=False)
class _Samples:
    """Finite complex samples on a SpatialGrid, stored as (N, d); 1-D values have d = 1."""

    grid: SpatialGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _sample_values(self.values, (self.grid.size,)))

    @property
    def dim(self) -> int:
        return self.values.shape[-1]


@dataclass(frozen=True, eq=False)
class GridFunction(_Samples):
    """Samples of an H-valued function on a SpatialGrid, stored as (N, d)."""

    def __add__(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(self.grid, self.values + self._same_grid(other).values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(self.grid, self.values - self._same_grid(other).values)

    def __mul__(self, scalar: complex) -> "GridFunction":
        return GridFunction(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def _same_grid(self, other: "GridFunction") -> "GridFunction":
        if self.grid != other.grid:
            raise ValueError("grid mismatch in GridFunction arithmetic")
        return other


@dataclass(frozen=True, eq=False)
class SpectralFunction(_Samples):
    """Transform values at the grid's frequencies, stored as (N, d) in DFT order."""


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
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", _sample_values(self.values, (t.size, self.grid.size)))

    dim = _Samples.dim

    @property
    def step(self) -> float:
        """The time step T / Nt."""
        return _time_step(self.times)


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
    two_l = 2.0 * spec.grid.half_width
    vals = _multiply(spec, mult).values
    # a 0-d sum, whose root numpy takes by np.sqrt
    return float(_power_norm(vals, 2.0, lambda v: np.asarray(np.vdot(v, v).real / two_l)))


def _at_fault(arg: str, exc: Exception) -> Exception:
    """``exc`` tagged with ``arg``, the name of the argument at fault, so that a
    caller that knows where the argument came from can name its source."""
    exc.arg = arg
    return exc


def _check_exponent(p: float) -> float:
    p = float(p)
    if not (1.0 < p < math.inf):
        raise ValueError(f"Lebesgue exponent must lie in (1, inf), got {p}")
    return p


def _power_norm(v: np.ndarray, p: float, power_sum, axis: int | None = None):
    """``power_sum(v) ** (1/p)``: one p-norm, or one per index of ``axis``,
    whose weighted sum of the p-th powers of the magnitudes of v's vectors
    (its last axis; any grouping at p = 2) ``power_sum`` takes in the caller's
    order.  A numpy scalar sum takes its root by C pow, an array (0-d too) by
    np.sqrt at p = 2.

    A norm whose sum leaves [float min, inf) sums again the magnitudes of
    its vectors scaled exactly by 2^-e, e the binary exponent of its largest
    |component|, as 1-vectors divided by the largest of them, M, so that no
    power under- or overflows at any p: the norm is 2^e M sum^(1/p), finite
    when v and the norm are, and homogeneous bit for bit under powers of two."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = power_sum(v)
        norm = s ** (1.0 / p)
        bad = ~((s >= sys.float_info.min) & (s < math.inf))
        if not bad.any():
            return norm
        if axis is not None:
            v = np.compress(bad, v, axis=axis)
        parts = np.ascontiguousarray(v).view(float)
        rest = tuple(i for i in range(v.ndim) if i != axis)
        e = np.frexp(np.abs(parts).max(axis=rest, keepdims=True))[1]
        x = np.ldexp(parts, -e)
        mags = np.sqrt(np.sum(x * x, axis=-1, keepdims=True))
        top = mags.max(axis=rest, keepdims=True)
        s = power_sum(mags / np.where(top > 0.0, top, 1.0))
        scaled = np.ldexp(top.reshape(np.shape(s)) * s ** (1.0 / p), e.reshape(np.shape(s)))
    if axis is None:
        return scaled
    norm[bad] = scaled
    return norm


def _rectangle_norm(values: np.ndarray, h: float, p: float, axis: int | None = None):
    """Rectangle-rule L_p norm (h * sum_j |v_j|_2^p)^(1/p) over the grid axis
    -2 of (..., N, d) ``values``: one norm, or one per index of ``axis``."""
    return _power_norm(values, p, lambda v: h * np.sum(np.linalg.norm(v, axis=-1) ** p, -1), axis)


def lp_norm(f: GridFunction, p: float) -> float:
    """Rectangle-rule L_p norm, (h * sum_j |f(x_j)|_2^p)^(1/p)."""
    return float(_rectangle_norm(f.values, f.grid.spacing, _check_exponent(p)))


def _time_step(times: np.ndarray) -> float:
    """T / Nt of the uniform ``times`` 0 = t_0 < ... < t_Nt = T."""
    return float(times[-1]) / (times.size - 1)


def _trapezoid_weights(times: np.ndarray) -> np.ndarray:
    dt = _time_step(times)
    w = np.full(times.size, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def mixed_norm(f: SpaceTimeFunction, p: float, p1: float) -> float:
    """Mixed norm with inner x-integral (exponent p) and outer t-integral (p1)."""
    p, p1 = _check_exponent(p), _check_exponent(p1)
    w = _trapezoid_weights(f.times)
    # The inner norms run over each slice's (N, d) values; the outer norm
    # takes them as a (K, 1) vector.
    inner = _rectangle_norm(f.values, f.grid.spacing, p, axis=0)
    return float(_power_norm(inner[:, None], p1, lambda v: np.sum(w * v[:, 0] ** p1)))


def _mixed_l2_of_spectra(grid: SpatialGrid, times: np.ndarray, spectra: np.ndarray) -> float:
    """``mixed_norm`` at p = p1 = 2 of the field whose slices have the
    (Nt+1, N, d) ``spectra``, with no inverse transform.

    Discrete Parseval per slice, as in :func:`multiplier_norm`, under the
    trapezoid weights w_m in t: sqrt(sum_m w_m sum_k |g^_mk|^2 / 2L).
    The sums run over a C-ordered copy, so they do not depend on the layout.
    """
    w = _trapezoid_weights(times)
    two_l = 2.0 * grid.half_width

    def power_sum(v):
        return np.asarray(np.dot(w, np.sum(np.abs(v) ** 2, axis=(1, 2))) / two_l)

    return float(_power_norm(np.ascontiguousarray(spectra), 2.0, power_sum))


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
    grid: SpatialGrid, dim: int, rng: np.random.Generator | int
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
    coeffs[keep] = _band_limited_block(rng, 1, int(keep.sum()), dim)[0].T
    if not np.any(coeffs):
        raise RuntimeError("degenerate random draw")
    return SpectralFunction(grid, coeffs)


def _band_limited_block(rng: np.random.Generator, trials: int, modes: int, dim: int) -> np.ndarray:
    """Complex Gaussians on ``modes`` kept modes for ``trials`` spectra, as a
    (trials, dim, modes) stack from one draw.  Each trial takes (modes, dim)
    real parts, then as many imaginary parts, so the block is the stream of
    ``trials`` consecutive ``band_limited_spectrum`` calls."""
    z = rng.standard_normal((trials, 2, modes, dim)).transpose(1, 0, 3, 2)
    spec = np.empty(z.shape[1:], dtype=complex)
    spec.real, spec.imag = z
    return spec


def random_band_limited(
    grid: SpatialGrid, dim: int, rng: np.random.Generator | int
) -> GridFunction:
    """Unit-L2 inverse transform of :func:`band_limited_spectrum`."""
    u = inverse_transform(band_limited_spectrum(grid, dim, rng))
    return GridFunction(grid, u.values / lp_norm(u, 2.0))
