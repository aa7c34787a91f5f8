"""Fractional differentiation: the (i*xi)^s branch, which is the multiplier
of the spectral Liouville derivative D^s, and fractional powers of SPD
matrices.

The multiplier branch is fixed once for the whole package:

    (i*xi)^alpha = exp[alpha * (ln|xi| + i*(pi/2)*sgn xi)],   xi != 0,

and exactly 0 at xi = 0 for alpha > 0.  For alpha = 0 the limit value 1 is
used everywhere (including xi = 0) so the order-0 derivative is the
identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _at_fault

__all__ = [
    "FractionalOrder",
    "frac_power_i_xi",
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


def matrix_fractional_power(mat: np.ndarray, theta: float) -> np.ndarray:
    """A^theta for symmetric positive definite A via eigendecomposition; a
    matrix that is not one raises a ValueError at fault ``A``."""
    a = np.asarray(mat)
    if np.iscomplexobj(a):
        scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
        if a.size and float(np.max(np.abs(a.imag))) > 1e-12 * scale:
            raise _at_fault("A", ValueError("matrix must be real symmetric"))
        a = a.real
    a = a.astype(float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise _at_fault("A", ValueError(f"expected a square matrix, got shape {a.shape}"))
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.T))) > 1e-12 * scale:
        raise _at_fault("A", ValueError("matrix is not symmetric to 1e-12"))
    eigvals, eigvecs = np.linalg.eigh(a)
    if eigvals[0] <= 0.0:
        raise _at_fault(
            "A", ValueError(f"matrix is not positive definite: eigenvalue {eigvals[0]:.12g}")
        )
    return (eigvecs * eigvals**theta) @ eigvecs.T
