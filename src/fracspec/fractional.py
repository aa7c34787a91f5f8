"""Fractional differentiation: the (i*xi)^s branch, the spectral Liouville
derivative, a Grunwald-Letnikov time-domain oracle, and fractional powers
of SPD matrices.

The multiplier branch is fixed once for the whole package:

    (i*xi)^alpha = exp[alpha * (ln|xi| + i*(pi/2)*sgn xi)],   xi != 0,

and exactly 0 at xi = 0 for alpha > 0.  For alpha = 0 the limit value 1 is
used everywhere (including xi = 0) so the order-0 derivative is the
identity.  The Grunwald-Letnikov oracle discretizes the same derivative
from the left end of a right-supported sample array and is first-order
accurate; it exists so the spectral path can be checked against an
implementation that never touches a Fourier transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GridFunction, apply_multiplier, forward_transform

__all__ = [
    "FractionalOrder",
    "frac_power_i_xi",
    "liouville_derivative",
    "gl_weights",
    "rl_derivative_oracle",
    "matrix_fractional_power",
]


@dataclass(frozen=True)
class FractionalOrder:
    """Principal equation order gamma, restricted to (1, 2]."""

    gamma: float

    def __post_init__(self) -> None:
        if not 1.0 < self.gamma <= 2.0:
            raise ValueError(f"fractional order {self.gamma} out of (1, 2]")


def frac_power_i_xi(xi, alpha: float):
    """Evaluate (i*xi)^alpha on the fixed branch; vectorized over xi.

    Returns exp[alpha*(ln|xi| + i*(pi/2)*sgn xi)] for xi != 0 and exactly 0
    at xi = 0 when alpha > 0; for alpha = 0 the value is 1 everywhere.
    """
    if alpha < 0.0:
        raise ValueError(f"multiplier exponent must be >= 0, got {alpha}")
    scalar = np.ndim(xi) == 0
    arr = np.atleast_1d(np.asarray(xi, dtype=float))
    if alpha == 0.0:
        out = np.ones(arr.shape, dtype=complex)
    else:
        out = np.zeros(arr.shape, dtype=complex)
        nz = arr != 0.0
        out[nz] = np.exp(
            alpha * (np.log(np.abs(arr[nz])) + 0.5j * np.pi * np.sign(arr[nz]))
        )
    return complex(out[0]) if scalar else out


def liouville_derivative(f: GridFunction, s: float) -> GridFunction:
    """Spectral derivative of order s >= 0: conjugate (i*xi)^s by the transform."""
    if s < 0.0:
        raise ValueError(f"derivative order must be >= 0, got {s}")
    return apply_multiplier(forward_transform(f), frac_power_i_xi(f.grid.frequencies, s))


def gl_weights(gamma: float, n: int) -> np.ndarray:
    """First n+1 Grunwald-Letnikov weights: w_0 = 1, w_k = w_{k-1}(k-1-gamma)/k."""
    if n < 0:
        raise ValueError("weight count must be non-negative")
    k = np.arange(1, n + 1)
    return np.concatenate(([1.0], np.cumprod((k - 1.0 - gamma) / k)))


def rl_derivative_oracle(samples: np.ndarray, gamma: float, spacing: float) -> np.ndarray:
    """Grunwald-Letnikov derivative of order gamma on a uniform grid over [0, X].

    ``samples`` holds f(0), f(h), ..., with h = ``spacing``; the value at
    x_j uses only samples up to x_j, so the result equals the line
    derivative wherever f vanishes left of the base point.  First-order
    accurate in h.
    """
    if not 1.0 < gamma < 2.0:
        raise ValueError(
            f"Grunwald-Letnikov oracle requires an order inside (1, 2), got {gamma}"
        )
    if spacing <= 0.0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    vals = np.asarray(samples)
    if vals.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    w = gl_weights(gamma, vals.size - 1)
    return np.convolve(vals, w)[: vals.size] * spacing ** (-gamma)


def matrix_fractional_power(mat: np.ndarray, theta: float) -> np.ndarray:
    """A^theta for symmetric positive definite A via eigendecomposition."""
    a = np.asarray(mat)
    if np.iscomplexobj(a):
        scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
        if a.size and float(np.max(np.abs(a.imag))) > 1e-12 * scale:
            raise ValueError("matrix must be real symmetric")
        a = a.real
    a = a.astype(float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.T))) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric to 1e-12")
    eigvals, eigvecs = np.linalg.eigh(a)
    if eigvals[0] <= 0.0:
        raise ValueError(
            f"matrix is not positive definite: eigenvalue {eigvals[0]:.12g}"
        )
    return (eigvecs * eigvals**theta) @ eigvecs.T
