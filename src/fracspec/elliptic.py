"""Spectral solution of a*D^gamma u + A*u + lambda*u = f on the line, plus
the empirical estimate machinery built on top of it: coercivity ledgers,
resolvent sweeps over sectors, separability ratios, and the
embedding-inequality probe.

Every accepted solve passes the residual gate
|| (O + lambda) u - f ||_2 <= tol * ||f||_2 computed in physical space,
which exercises the full transform round trip rather than the spectral
division alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_SEED,
    GridFunction,
    Sector,
    SpatialGrid,
    SpectralFunction,
    apply_multiplier,
    forward_transform,
    inverse_transform,
    lp_norm,
    random_band_limited,
)
from .fractional import frac_power_i_xi, matrix_fractional_power
from .symbols import (
    ConditionReport,
    EllipticProblem,
    Witness,
    _json_value,
    q_matrices,
    smallest_singular_values,
)

__all__ = [
    "SolveError",
    "SolveReport",
    "SectorialityReport",
    "solve_elliptic",
    "apply_operator",
    "coercive_report",
    "resolvent_sweep",
    "separability_check",
    "embedding_probe",
]

# Default residual gate: ||(O + lambda) u - f||_2 <= tol * ||f||_2.
_RESIDUAL_TOL = 1e-9


class SolveError(RuntimeError):
    """A solve could not be completed or failed its residual gate."""


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Solution plus the norms the estimates are phrased in."""

    solution: object  # GridFunction or SpaceTimeFunction
    residual: float
    residual_rel: float
    term_norms: dict
    coercive_ratio: float | None
    meta: dict

    def to_jsonable(self) -> dict:
        return {
            "residual": self.residual,
            "residual_rel": self.residual_rel,
            "term_norms": _json_value(self.term_norms),
            "coercive_ratio": self.coercive_ratio,
            "meta": _json_value(self.meta),
        }


@dataclass(frozen=True, eq=False)
class SectorialityReport:
    """Per-lambda operator norms of lambda (O + lambda)^{-1} over a sector lattice."""

    lambdas: tuple
    values: tuple
    probe_values: tuple | None
    bound: float
    refinement_drift: float | None
    stable: bool | None
    witnesses: tuple[Witness, ...]
    meta: dict

    def __post_init__(self) -> None:
        if any(v > self.bound * (1.0 + 1e-12) for v in self.values):
            raise ValueError("per-lambda values must not exceed the reported bound")

    def to_jsonable(self) -> dict:
        return {
            "lambdas": _json_value(list(self.lambdas)),
            "values": list(self.values),
            "probe_values": None if self.probe_values is None else list(self.probe_values),
            "bound": self.bound,
            "refinement_drift": self.refinement_drift,
            "stable": self.stable,
            "witnesses": [w.to_jsonable() for w in self.witnesses],
            "meta": _json_value(self.meta),
        }


def apply_operator(prob: EllipticProblem, u: GridFunction) -> GridFunction:
    """Apply the lambda-free operator O, i.e. the assembled symbol at lambda = 0."""
    if u.grid != prob.grid:
        raise ValueError("grid mismatch between function and problem")
    return apply_multiplier(forward_transform(u), q_matrices(prob, 0.0))


def _lambda_coupling(prob: EllipticProblem, lam: complex, u: GridFunction) -> GridFunction:
    """The lambda-term of the selected symbol form applied to u."""
    if prob.q_form == "unfactored":
        return lam * u
    xi = prob.grid.spectral().frequencies
    return lam * apply_multiplier(forward_transform(u), prob.a(xi))


def solve_elliptic(
    prob: EllipticProblem,
    f: GridFunction,
    lam: complex,
    p: float = 2.0,
    residual_tol: float = _RESIDUAL_TOL,
) -> SolveReport:
    """Solve (O + lambda) u = f by per-frequency division of the symbol.

    lambda must lie in the problem sector.  The physical-space residual
    must come in below ``residual_tol * ||f||_2`` or the solve is rejected.
    """
    return _solve_with_spectrum(prob, f, lam, p, residual_tol)[0]


def _solve_with_spectrum(
    prob: EllipticProblem, f: GridFunction, lam: complex, p: float, residual_tol: float
) -> tuple[SolveReport, SpectralFunction]:
    """``solve_elliptic`` plus the transform of u its norm ledger was built from."""
    if f.grid != prob.grid:
        raise ValueError("grid mismatch between forcing and problem")
    if f.dim != prob.dim:
        raise ValueError(f"forcing dimension {f.dim} does not match problem dimension {prob.dim}")
    lam = complex(lam)
    if not prob.sector.contains(lam):
        raise ValueError(
            f"lambda {lam} lies outside the problem sector (angle {prob.sector.angle:.6g})"
        )

    xi = prob.grid.spectral().frequencies
    q = q_matrices(prob, lam)
    _, bad = smallest_singular_values(q, 1e-14)
    if bad is not None:
        raise SolveError(f"singular symbol at frequency xi={xi[bad]:.6g} for lambda={lam}")

    spec = forward_transform(f)
    uhat = np.linalg.solve(q, spec.values[:, :, None])[:, :, 0]
    u = inverse_transform(SpectralFunction(spec.grid, uhat))

    resid_fun = apply_operator(prob, u) + _lambda_coupling(prob, lam, u) - f
    resid = lp_norm(resid_fun, 2.0)
    f_norm = lp_norm(f, 2.0)
    if resid > residual_tol * max(f_norm, np.finfo(float).tiny):
        raise SolveError(
            f"residual {resid:.3e} exceeds {residual_tol:.1e} * ||f|| = {residual_tol * f_norm:.3e}"
        )

    gamma = prob.order.gamma
    u_spec = forward_transform(u)
    frac_mult = prob.a(xi) * frac_power_i_xi(xi, gamma)
    term_norms = {
        f"a*D^{gamma:g} u": lp_norm(apply_multiplier(u_spec, frac_mult), p),
        "A*u": lp_norm(apply_multiplier(u_spec, prob.A(xi)), p),
        "lambda*u": abs(lam) * lp_norm(u, p),
    }
    return SolveReport(
        solution=u,
        residual=resid,
        residual_rel=resid / f_norm if f_norm > 0.0 else 0.0,
        term_norms=term_norms,
        coercive_ratio=None,
        meta={"lambda": lam, "p": p, "grid_size": prob.grid.size, "q_form": prob.q_form},
    ), u_spec


def _coercive_weights(gamma: float, lam: complex, s_set: Sequence[float]) -> list[float]:
    return [abs(lam) ** (1.0 - s / gamma) for s in s_set]


def coercive_report(
    prob: EllipticProblem,
    f: GridFunction,
    lam: complex,
    s_set: Sequence[float] | None = None,
    p: float = 2.0,
) -> SolveReport:
    """Solve and assemble the weighted term sums

        sum_s |lambda|^(1-s/gamma) ||a * D^s u||_p + ||A*u||_p   (convolution form)
        sum_s |lambda|^(1-s/gamma) ||D^s u||_p     + ||A*u||_p   (plain form)

    over the finite probe set ``s_set`` (default {0, gamma/2, gamma}).
    ``coercive_ratio`` is the convolution-form sum divided by ||f||_p; the
    plain-form ratio rides along in ``meta``.
    """
    gamma = prob.order.gamma
    if s_set is None:
        s_set = (0.0, gamma / 2.0, gamma)
    for s in s_set:
        if not 0.0 <= s <= gamma:
            raise ValueError(f"probe order {s} outside [0, {gamma}]")

    rep, u_spec = _solve_with_spectrum(prob, f, lam, p, _RESIDUAL_TOL)
    u = rep.solution
    weights = _coercive_weights(gamma, complex(lam), s_set)

    xi = prob.grid.spectral().frequencies
    term_norms = dict(rep.term_norms)
    conv_sum = 0.0
    plain_sum = 0.0
    for s, w in zip(s_set, weights):
        frac = frac_power_i_xi(xi, s)
        if s == gamma:
            # the solve's ledger already holds a*D^gamma u
            n_conv = rep.term_norms[f"a*D^{s:g} u"]
        else:
            n_conv = lp_norm(apply_multiplier(u_spec, prob.a(xi) * frac), p)
        n_plain = lp_norm(apply_multiplier(u_spec, frac), p)
        term_norms[f"a*D^{s:g} u"] = n_conv
        term_norms[f"D^{s:g} u"] = n_plain
        conv_sum += w * n_conv
        plain_sum += w * n_plain
    op_norm = term_norms["A*u"]
    conv_sum += op_norm
    plain_sum += op_norm

    f_norm = lp_norm(f, p)
    meta = dict(rep.meta)
    meta.update(
        {
            "s_set": list(s_set),
            "weights": weights,
            "plain_form_ratio": plain_sum / f_norm if f_norm > 0.0 else math.inf,
            "forcing_norm": f_norm,
        }
    )
    return SolveReport(
        solution=u,
        residual=rep.residual,
        residual_rel=rep.residual_rel,
        term_norms=term_norms,
        coercive_ratio=conv_sum / f_norm if f_norm > 0.0 else math.inf,
        meta=meta,
    )


def _exact_l2_values(prob: EllipticProblem, lams: np.ndarray):
    """max_k ||lambda Q(xi_k, lambda)^{-1}||_2 per lambda; singular points become witnesses."""
    xi = prob.grid.spectral().frequencies
    values = []
    witnesses = []
    for lam in lams:
        smin, bad = smallest_singular_values(q_matrices(prob, complex(lam)), 1e-14)
        if bad is not None:
            witnesses.append(
                Witness(
                    label="singular-symbol",
                    location={"xi": float(xi[bad]), "lambda": complex(lam)},
                    magnitude=math.inf,
                )
            )
            values.append(math.nan)
            continue
        values.append(float(abs(lam) / smin.min()) if lam != 0 else 0.0)
    return values, witnesses


def resolvent_sweep(
    prob: EllipticProblem,
    phi: Sector,
    radii: Sequence[float],
    angles: int,
    probes: int = 0,
    p: float = 2.0,
    seed: int = DEFAULT_SEED,
    refine: bool = True,
    threads: int = 1,
) -> SectorialityReport:
    """Sweep lambda over a radius x angle lattice in the sector and record
    the exact L2 operator norm of lambda (O + lambda)^{-1} at each point.

    The exact value at one lambda is the max over grid frequencies of the
    spectral matrix norm ||lambda Q(xi, lambda)^{-1}||.  With ``probes`` > 0,
    random band-limited forcings give L_p lower bounds alongside.  With
    ``refine`` the sweep reruns on a grid with doubled N; the sup must move
    by at most 5% to be flagged stable.  If every lambda is singular on the
    refined grid, the sweep is unstable with no drift and carries the
    refined grid's singular-symbol witnesses.
    """
    if angles < 2:
        raise ValueError("angle count must be at least 2")
    thetas = np.linspace(-phi.angle, phi.angle, angles)
    lams = np.array([r * np.exp(1j * t) for r in radii for t in thetas])

    if threads and threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        chunks = np.array_split(np.arange(lams.size), threads)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda ix: _exact_l2_values(prob, lams[ix]), chunks))
        values = [v for vs, _ in parts for v in vs]
        witnesses = [w for _, ws in parts for w in ws]
    else:
        values, witnesses = _exact_l2_values(prob, lams)

    probe_values = None
    if probes > 0:
        rng = np.random.default_rng(seed)
        draws = [random_band_limited(prob.grid, prob.dim, rng) for _ in range(probes)]
        probe_values = []
        for lam, exact in zip(lams, values):
            if math.isnan(exact):
                probe_values.append(math.nan)
                continue
            best = 0.0
            for f in draws:
                u = solve_elliptic(prob, f, complex(lam)).solution
                best = max(best, abs(lam) * lp_norm(u, p) / lp_norm(f, p))
            probe_values.append(best)

    finite = [v for v in values if not math.isnan(v)]
    bound = max(finite) if finite else math.nan

    drift = None
    stable = None
    if refine and finite:
        fine = prob.with_grid(SpatialGrid(prob.grid.half_width, prob.grid.size * 2))
        fine_values, fine_witnesses = _exact_l2_values(fine, lams)
        fine_finite = [v for v in fine_values if not math.isnan(v)]
        if fine_finite:
            drift = abs(max(fine_finite) - bound) / bound if bound > 0.0 else 0.0
            stable = drift <= 0.05
        else:
            # every refined lambda is singular: no drift to measure
            stable = False
            witnesses = witnesses + fine_witnesses

    return SectorialityReport(
        lambdas=tuple(complex(l) for l in lams),
        values=tuple(values),
        probe_values=None if probe_values is None else tuple(probe_values),
        bound=bound,
        refinement_drift=drift,
        stable=stable,
        witnesses=tuple(witnesses),
        meta={
            "phi": phi.angle,
            "radii": list(map(float, radii)),
            "angles": int(angles),
            "probes": int(probes),
            "p": p,
            "seed": int(seed),
            "grid_size": prob.grid.size,
        },
    )


def separability_check(
    prob: EllipticProblem,
    trials: int,
    p: float = 2.0,
    s_set: Sequence[float] | None = None,
    seed: int = DEFAULT_SEED,
) -> ConditionReport:
    """Two-sided comparison of the term sum against ||O u||_p on random
    band-limited u.

    The lower direction holds with constant 1 by the triangle inequality
    whenever gamma is in the probe set, so any ratio below 1 is a witness.
    Empirical constants C1 (min ratio) and C2 (max ratio) are reported;
    per-trial ratios ride in ``meta`` for stability studies.
    """
    if trials < 1:
        raise ValueError("trial count must be positive")
    gamma = prob.order.gamma
    if s_set is None:
        s_set = (0.0, gamma / 2.0, gamma)
    xi = prob.grid.spectral().frequencies
    q0 = q_matrices(prob, 0.0)
    a_mats = prob.A(xi)
    frac_mults = [prob.a(xi) * frac_power_i_xi(xi, s) for s in s_set]
    rng = np.random.default_rng(seed)
    ratios = []
    witnesses: list[Witness] = []
    for t in range(trials):
        u = random_band_limited(prob.grid, prob.dim, rng)
        u_spec = forward_transform(u)
        ou_norm = lp_norm(apply_multiplier(u_spec, q0), p)
        term_sum = sum(lp_norm(apply_multiplier(u_spec, m), p) for m in frac_mults)
        term_sum += lp_norm(apply_multiplier(u_spec, a_mats), p)
        ratio = term_sum / ou_norm
        ratios.append(ratio)
        if term_sum < ou_norm:
            witnesses.append(
                Witness(label="lower-bound", location={"trial": t}, magnitude=ratio)
            )
    return ConditionReport(
        name="separability",
        passed=not witnesses,
        constants={"C1": float(min(ratios)), "C2": float(max(ratios))},
        witnesses=tuple(witnesses),
        meta={
            "ratios": [float(r) for r in ratios],
            "trials": int(trials),
            "p": p,
            "s_set": list(s_set),
            "seed": int(seed),
        },
    )


def embedding_probe(
    prob: EllipticProblem,
    u: GridFunction,
    alpha: float,
    s: float,
    p: float,
    q: float,
    mu: float,
    h_set: Sequence[float],
) -> ConditionReport:
    """Probe the interpolation-style inequality

        ||A^(1-kappa-mu) D^alpha u||_q <= C [ h^mu ||u||_W + h^(mu-1) ||u||_p ]

    with kappa = (alpha + 1/p - 1/q)/s and the W-norm
    ||A u||_p + ||Finv (1+xi^2)^(s/2) F u||_p, over every h in ``h_set``.
    Requires a constant SPD operator symbol.
    """
    if prob.A.constant_matrix is None:
        raise ValueError("embedding probe requires a constant operator symbol")
    if u.grid != prob.grid or u.dim != prob.dim:
        raise ValueError("probe function does not match the problem grid/dimension")
    if s <= 0.0 or alpha < 0.0:
        raise ValueError("need s > 0 and alpha >= 0")
    if q < p:
        raise ValueError(f"exponents must satisfy p <= q, got p={p}, q={q}")
    kappa = (alpha + 1.0 / p - 1.0 / q) / s
    if kappa > 1.0 + 1e-15:
        raise ValueError(f"kappa = {kappa:.6g} exceeds 1; the inequality does not apply")
    if not -1e-15 <= mu <= 1.0 - kappa + 1e-15:
        raise ValueError(f"mu = {mu} outside [0, 1 - kappa] = [0, {1.0 - kappa:.6g}]")
    if not h_set:
        raise ValueError("h_set must be non-empty")

    a_mat = prob.A.constant_matrix
    power = matrix_fractional_power(a_mat, 1.0 - kappa - mu)

    xi = prob.grid.spectral().frequencies
    u_spec = forward_transform(u)
    du = apply_multiplier(u_spec, frac_power_i_xi(xi, alpha))
    lhs = lp_norm(GridFunction(u.grid, du.values @ power.T), q)

    au = GridFunction(u.grid, u.values @ np.asarray(a_mat, dtype=complex).T)
    bessel = apply_multiplier(u_spec, (1.0 + xi**2) ** (s / 2.0) + 0j)
    w_norm = lp_norm(au, p) + lp_norm(bessel, p)
    u_norm = lp_norm(u, p)

    per_h = {}
    for h in h_set:
        if h <= 0.0:
            raise ValueError(f"h must be positive, got {h}")
        rhs = h**mu * w_norm + h ** (mu - 1.0) * u_norm
        per_h[float(h)] = lhs / rhs

    return ConditionReport(
        name="embedding-probe",
        passed=True,
        constants={"max_ratio": float(max(per_h.values())), "kappa": float(kappa)},
        witnesses=(),
        meta={
            "ratios_by_h": {f"{h:g}": float(r) for h, r in per_h.items()},
            "lhs": float(lhs),
            "w_norm": float(w_norm),
            "u_norm": float(u_norm),
            "alpha": alpha,
            "s": s,
            "p": p,
            "q": q,
            "mu": mu,
        },
    )
