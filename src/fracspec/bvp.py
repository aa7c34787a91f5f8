"""Second-order boundary operator on the cross-section (0, 1), coupled to
the fractional convolution in x.

The transverse derivative convention is D = -i d/dy, so the principal part
b2(y) D^2 is -b2(y) d^2/dy^2 and ellipticity of positive b2 comes out
right.  Dirichlet conditions at both ends are realized by the standard
central-difference matrix on the interior mesh y_i = i*h_y, h_y = 1/(m+1).
The solved problem treats the m interior values as the components of a
vector-valued function of x, reusing the spectral machinery with the
discretized cross-section operator as a constant operator symbol; the
cross-section norm is the h_y-weighted Euclidean norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    GridFunction,
    Sector,
    SpatialGrid,
    apply_multiplier,
    forward_transform,
    lp_norm,
)
from .elliptic import SolveReport, solve_elliptic
from .fractional import FractionalOrder, frac_power_i_xi
from .symbols import (
    CoefficientSymbol,
    ConditionReport,
    EllipticProblem,
    Witness,
    constant_operator,
)

__all__ = [
    "BVPCoefficients",
    "discretize_bvp",
    "check_ellipticity",
    "solve_anisotropic",
]

_B2_FLOOR = 1e-8
_ELLIPTICITY_FLOOR = 1e-8


@dataclass(frozen=True, eq=False)
class BVPCoefficients:
    """Coefficients of b2(y) D^2 + b1(y) D + b0(y) on (0, 1), Dirichlet ends.

    The operator order is fixed at 2 and the boundary realization is
    homogeneous Dirichlet at y = 0 and y = 1.  ``mesh_size`` is the number
    of interior mesh points m.
    """

    b2: Callable[[np.ndarray], np.ndarray]
    b1: Callable[[np.ndarray], np.ndarray]
    b0: Callable[[np.ndarray], np.ndarray]
    mesh_size: int

    def __post_init__(self) -> None:
        if self.mesh_size < 1:
            raise ValueError(f"interior mesh size must be >= 1, got {self.mesh_size}")

    @property
    def mesh_spacing(self) -> float:
        return 1.0 / (self.mesh_size + 1)

    @property
    def mesh(self) -> np.ndarray:
        """Interior mesh points y_i = i*h_y, i = 1..m."""
        return self.mesh_spacing * np.arange(1, self.mesh_size + 1)

    def coefficient_values(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        y = self.mesh
        vals = []
        for label, fn in (("b2", self.b2), ("b1", self.b1), ("b0", self.b0)):
            v = np.asarray(fn(y), dtype=float)
            v = np.broadcast_to(v, y.shape).copy() if v.shape != y.shape else v
            if not np.all(np.isfinite(v)):
                raise ValueError(f"coefficient {label} is not finite on the mesh")
            vals.append(v)
        return vals[0], vals[1], vals[2]


def discretize_bvp(coeffs: BVPCoefficients) -> np.ndarray:
    """Central-difference matrix of the boundary operator on the interior mesh.

    The principal coefficient must stay away from zero, |b2| >= 1e-8, on
    the mesh.  With b1 = 0 the matrix is real symmetric; b1 enters through
    the skew stencil of -i d/dy.
    """
    b2v, b1v, b0v = coeffs.coefficient_values()
    small = np.abs(b2v) < _B2_FLOOR
    if small.any():
        y_bad = float(coeffs.mesh[int(np.nonzero(small)[0][0])])
        raise ValueError(
            f"principal coefficient b2 degenerates at y={y_bad:.6g}: |b2| < {_B2_FLOOR:g}"
        )
    m = coeffs.mesh_size
    hy = coeffs.mesh_spacing
    mat = np.zeros((m, m), dtype=complex)
    idx = np.arange(m)
    mat[idx, idx] = 2.0 * b2v / hy**2 + b0v
    mat[idx[:-1], idx[:-1] + 1] = -b2v[:-1] / hy**2 - 1j * b1v[:-1] / (2.0 * hy)
    mat[idx[1:], idx[1:] - 1] = -b2v[1:] / hy**2 + 1j * b1v[1:] / (2.0 * hy)
    if np.all(mat.imag == 0.0):
        return mat.real.copy()
    return mat


def check_ellipticity(
    coeffs: BVPCoefficients,
    phi0: Sector,
    xi_values: Sequence[float] | None = None,
    sigma_radii: Sequence[float] | None = None,
    sigma_angles: int = 9,
) -> ConditionReport:
    """Parameter-ellipticity check: min |sigma + b2(y) xi^2| / (|sigma| + xi^2)
    over the coefficient mesh, a real xi grid, and a sigma lattice in the
    phi0-sector (plus sigma = 0), skipping |xi| + |sigma| = 0.

    For every (y, xi) the analytic candidate minimizer sigma* = -b2(y) xi^2
    is also tested whenever it lies in the sector, so exact cancellations
    (e.g. negative b2) are always caught.  Pass threshold is 1e-8.
    """
    if not phi0.angle < math.pi / 2.0:
        raise ValueError(f"sector angle must be below pi/2, got {phi0.angle}")
    if xi_values is None:
        pos = np.logspace(-2.0, 2.0, 21)
        xi_values = np.concatenate([-pos[::-1], [0.0], pos])
    xi = np.asarray(xi_values, dtype=float)
    if sigma_radii is None:
        sigma_radii = np.logspace(-2.0, 2.0, 21)
    angles = np.linspace(-phi0.angle, phi0.angle, sigma_angles) if phi0.angle > 0 else np.array([0.0])
    sigma = np.concatenate(
        [[0.0 + 0.0j], (np.asarray(sigma_radii)[:, None] * np.exp(1j * angles)[None, :]).ravel()]
    )

    y = np.concatenate([[0.0], coeffs.mesh, [1.0]])
    b2v = np.broadcast_to(np.asarray(coeffs.b2(y), dtype=float), y.shape)

    best = math.inf
    best_at = None
    witnesses: list[Witness] = []

    # lattice sweep, vectorized over (sigma, xi) for each y
    for yi, b2i in zip(y, b2v):
        c = b2i * xi**2  # (nxi,)
        denom = np.abs(sigma)[:, None] + xi[None, :] ** 2
        ok = denom > 0.0
        vals = np.abs(sigma[:, None] + c[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            normed = np.where(ok, vals / denom, math.inf)
        k = int(np.argmin(normed))
        if normed.flat[k] < best:
            best = float(normed.flat[k])
            best_at = {"y": float(yi), "sigma": complex(sigma[k // xi.size]), "xi": float(xi[k % xi.size])}
        low = normed < _ELLIPTICITY_FLOOR
        for flat in np.nonzero(low.ravel())[0][:4]:
            witnesses.append(
                Witness(
                    label="ellipticity",
                    location={
                        "y": float(yi),
                        "sigma": complex(sigma[flat // xi.size]),
                        "xi": float(xi[flat % xi.size]),
                    },
                    magnitude=float(normed.flat[flat]),
                )
            )
        # analytic candidate sigma* = -b2(y) xi^2 whenever it sits in the sector
        for xij in xi[xi != 0.0]:
            cand = -b2i * xij**2
            if cand == 0.0 or abs(np.angle(cand)) > phi0.angle:
                continue
            val = abs(cand + b2i * xij**2) / (abs(cand) + xij**2)
            if val < best:
                best = float(val)
                best_at = {"y": float(yi), "sigma": complex(cand), "xi": float(xij)}
            if val < _ELLIPTICITY_FLOOR:
                witnesses.append(
                    Witness(
                        label="ellipticity",
                        location={"y": float(yi), "sigma": complex(cand), "xi": float(xij)},
                        magnitude=float(val),
                    )
                )

    witnesses = witnesses[:16]
    return ConditionReport(
        name="parameter-ellipticity",
        passed=not witnesses,
        constants={"min_normalized": best},
        witnesses=tuple(witnesses),
        meta={
            "argmin": {
                "y": best_at["y"],
                "sigma": {"re": best_at["sigma"].real, "im": best_at["sigma"].imag},
                "xi": best_at["xi"],
            },
            "phi0": phi0.angle,
            "mesh_size": coeffs.mesh_size,
        },
    )


def _y_derivative_stencils(values: np.ndarray, hy: float):
    """D^0, D^1, D^2 of the interior values with Dirichlet zero padding.

    D = -i d/dy, so D^1 is skew and D^2 = -d^2/dy^2; norms are unaffected
    by the -i factors.
    """
    n, m = values.shape
    padded = np.zeros((n, m + 2), dtype=complex)
    padded[:, 1:-1] = values
    d1 = -1j * (padded[:, 2:] - padded[:, :-2]) / (2.0 * hy)
    d2 = -(padded[:, 2:] - 2.0 * padded[:, 1:-1] + padded[:, :-2]) / hy**2
    return values, d1, d2


def solve_anisotropic(
    coeffs: BVPCoefficients,
    order: FractionalOrder,
    a: CoefficientSymbol,
    lam: complex,
    f: GridFunction,
    grid: SpatialGrid,
    sector: Sector | None = None,
    p: float = 2.0,
    s_set: Sequence[float] | None = None,
) -> SolveReport:
    """Solve a*D_x^gamma u + (boundary operator in y) u + lambda u = f.

    ``f`` carries the m interior-mesh values as its vector components.
    The report's norms use the h_y-weighted Euclidean norm in y inside an
    L_p norm in x, and the coercive ledger adds the transverse derivative
    norms ||D_y^b u|| for b = 0, 1, 2 to the weighted x-terms.
    """
    lam = complex(lam)
    mat = discretize_bvp(coeffs)
    if f.dim != coeffs.mesh_size:
        raise ValueError(
            f"forcing carries {f.dim} components, expected mesh size {coeffs.mesh_size}"
        )
    core = EllipticProblem(
        order=order,
        a=a,
        A=constant_operator(mat, name="boundary-operator"),
        sector=Sector.enclosing(lam) if sector is None else sector,
        grid=grid,
    )
    rep = solve_elliptic(core, f, lam, p=p)
    u = rep.solution

    hy = coeffs.mesh_spacing
    sqrt_hy = math.sqrt(hy)
    gamma = order.gamma
    if s_set is None:
        s_set = (0.0, gamma / 2.0, gamma)

    xi = grid.spectral().frequencies
    u_spec = forward_transform(u)
    terms: dict[str, float] = {}
    lhs = 0.0
    for s in s_set:
        mult = core.a(xi) * frac_power_i_xi(xi, s)
        val = sqrt_hy * lp_norm(apply_multiplier(u_spec, mult), p)
        terms[f"a*Dx^{s:g} u"] = val
        lhs += abs(lam) ** (1.0 - s / gamma) * val
    d0, d1, d2 = _y_derivative_stencils(u.values, hy)
    for b, dv in enumerate((d0, d1, d2)):
        val = sqrt_hy * lp_norm(GridFunction(grid, dv), p)
        terms[f"Dy^{b} u"] = val
        lhs += val
    f_norm = sqrt_hy * lp_norm(f, p)

    meta = dict(rep.meta)
    meta.update(
        {
            "mesh_size": coeffs.mesh_size,
            "mesh_spacing": hy,
            "forcing_norm": f_norm,
            "s_set": list(s_set),
        }
    )
    return SolveReport(
        solution=u,
        residual=rep.residual,
        residual_rel=rep.residual_rel,
        term_norms=terms,
        coercive_ratio=lhs / f_norm if f_norm > 0.0 else math.inf,
        meta=meta,
    )
