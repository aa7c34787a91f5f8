"""Spectral solution of a*D^gamma u + A*u + lambda*u = f on the line, plus
the empirical estimate machinery built on top of it: coercivity ledgers,
resolvent sweeps over sectors, separability ratios, and the
embedding-inequality probe.

Every accepted solve passes the residual gate
|| (O + lambda) u - f ||_2 <= 1e-9 * ||f||_2 computed in physical space,
which exercises the full transform round trip rather than the spectral
division alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_SEED,
    GridFunction,
    Sector,
    SpaceTimeFunction,
    SpatialGrid,
    SpectralFunction,
    _at_fault,
    _band_limited_block,
    _check_exponent,
    _power_norm,
    _rectangle_norm,
    apply_multiplier,
    forward_transform,
    inverse_transform,
    lp_norm,
    multiplier_norm,
    random_band_limited,
)
from .fractional import frac_power_i_xi, matrix_fractional_power
from .symbols import (
    ConditionReport,
    EllipticProblem,
    JsonRecord,
    Witness,
    _in_sector,
    _symmetrized_gate,
    q_matrices,
    symbol_kernel,
    symbol_smin,
)

__all__ = [
    "SolveError",
    "SolveReport",
    "SectorialityReport",
    "solve_elliptic",
    "coercive_report",
    "resolvent_sweep",
    "separability_check",
    "embedding_probe",
]

# Residual gate: ||(O + lambda) u - f||_2 <= _RESIDUAL_TOL * ||f||_2.
_RESIDUAL_TOL = 1e-9

# Trials separability_check draws and evaluates at once: its working set.
_TRIAL_BLOCK = 8


class SolveError(RuntimeError):
    """A solve could not be completed or failed its residual gate."""


@dataclass(frozen=True, eq=False)
class SolveReport(JsonRecord):
    """Solution plus the norms the estimates are phrased in; the JSON form
    leaves the solution out."""

    solution: object = field(metadata={"json": False})  # GridFunction or SpaceTimeFunction
    residual: float
    residual_rel: float
    term_norms: dict
    coercive_ratio: float | None
    meta: dict


@dataclass(frozen=True, eq=False)
class SectorialityReport(JsonRecord):
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


def _lambda_coupling(
    prob: EllipticProblem, lam: complex, u: GridFunction, u_spec: SpectralFunction
) -> GridFunction:
    """The lambda-term of the selected symbol form applied to u (transform ``u_spec``)."""
    if prob.q_form == "unfactored":
        return lam * u
    return lam * apply_multiplier(u_spec, prob._symbol.a)


def solve_elliptic(
    prob: EllipticProblem,
    f: GridFunction,
    lam: complex,
    p: float = 2.0,
) -> SolveReport:
    """Solve (O + lambda) u = f by per-frequency division of the symbol.

    lambda must lie in the problem sector.  The physical-space residual
    must come in below ``1e-9 * ||f||_2`` or the solve is rejected.
    """
    rep, u_spec = _solve_with_spectrum(prob, f, lam, p)
    return replace(rep, term_norms=_term_norms(prob, rep, u_spec))


def _check_forcing(prob: EllipticProblem, f: GridFunction | SpaceTimeFunction) -> None:
    """ValueError unless the forcing ``f`` lies on the problem grid and has its dimension."""
    if f.grid != prob.grid:
        raise ValueError("grid mismatch between forcing and problem")
    if f.dim != prob.dim:
        raise ValueError(f"forcing dimension {f.dim} does not match problem dimension {prob.dim}")


def _solve_with_spectrum(
    prob: EllipticProblem, f: GridFunction, lam: complex, p: float
) -> tuple[SolveReport, SpectralFunction]:
    """``solve_elliptic`` without its term norms, plus the transform of u
    that a norm ledger is built from."""
    _check_forcing(prob, f)
    lam = _in_sector(prob.sector, lam)

    # A symmetrizable Q = S^-1 (c I + J) S is gated by its bounds and solved
    # in J's eigenbasis, with no Q stack and no LU; any other Q takes both.
    sym, rec, q = prob._symbol, prob._symmetrizer, None
    if rec is None:
        q = q_matrices(prob, lam)
        _, bad = symbol_smin(prob, lam, q)
    else:
        nu, bad = _symmetrized_gate(prob, lam)
    if bad is not None:
        raise SolveError(f"singular symbol at frequency xi={sym.xi[bad]:.6g} for lambda={lam}")

    spec = forward_transform(f)
    f_norm = lp_norm(f, 2.0)
    tol = _RESIDUAL_TOL * max(f_norm, np.finfo(float).tiny)
    if rec is not None:
        uhat = (spec.values * rec.s) @ rec.W / nu.T @ rec.W.T / rec.s
        u, u_spec, resid = _round_trip(prob, lam, f, spec, uhat)
    # The modal residual carries a factor up to kappa that an LU's does not:
    # a modal solution the gate does not accept is solved again by LU.
    if rec is None or not resid <= tol:
        q = q_matrices(prob, lam) if q is None else q
        uhat = np.linalg.solve(q, spec.values[:, :, None])[:, :, 0]
        u, u_spec, resid = _round_trip(prob, lam, f, spec, uhat)
    if resid > tol:
        raise SolveError(
            f"residual {resid:.3e} exceeds {_RESIDUAL_TOL:.1e} * ||f|| "
            f"= {_RESIDUAL_TOL * f_norm:.3e}"
        )

    return SolveReport(
        solution=u,
        residual=resid,
        residual_rel=resid / f_norm if f_norm > 0.0 else 0.0,
        term_norms={},
        coercive_ratio=None,
        meta={"lambda": lam, "p": p, "grid_size": prob.grid.size, "q_form": prob.q_form},
    ), u_spec


def _round_trip(prob, lam, f, spec, uhat):
    """u from its transform ``uhat`` (on the grid of ``spec``, the transform of
    f), u's transform taken again, and the physical-space residual
    ||(O + lambda) u - f||_2."""
    u = inverse_transform(SpectralFunction(spec.grid, uhat))
    u_spec = forward_transform(u)
    ou = apply_multiplier(u_spec, prob._q0)
    return u, u_spec, lp_norm(ou + _lambda_coupling(prob, lam, u, u_spec) - f, 2.0)


def _term_norms(prob: EllipticProblem, rep: SolveReport, u_spec: SpectralFunction) -> dict:
    """The ledger of ``solve_elliptic``: the p-norms of a*D^gamma u, A*u and
    lambda*u for the solve ``rep`` of ``prob``, with u_spec the transform of u."""
    sym, p = prob._symbol, rep.meta["p"]
    return {
        f"a*D^{prob.order.gamma:g} u": multiplier_norm(u_spec, sym.a * sym.frac, p),
        "A*u": multiplier_norm(u_spec, sym.A, p),
        "lambda*u": abs(rep.meta["lambda"]) * lp_norm(rep.solution, p),
    }


def _probe_orders(gamma: float, s_set: Sequence[float] | None = None) -> Sequence[float]:
    """The probe orders of the term sums: ``s_set``, each checked to lie in
    [0, gamma] and to print unlike every other under ``:g``, the form that
    keys its ledger terms (a ValueError at fault ``s_set``), or by default
    {0, gamma/2, gamma}."""
    if s_set is None:
        return (0.0, gamma / 2.0, gamma)
    labels: dict[str, float] = {}
    for s in s_set:
        if not 0.0 <= s <= gamma:
            raise _at_fault("s_set", ValueError(f"probe order {s} outside [0, {gamma}]"))
        label = f"{s:g}"
        if label in labels:
            alike = f"probe orders {labels[label]} and {s} share the ledger key D^{label}"
            raise _at_fault("s_set", ValueError(alike))
        labels[label] = s
    return s_set


def _coercive_weights(gamma: float, lam: complex, s_set: Sequence[float]) -> list[float]:
    """The weight |lambda|^(1-s/gamma) of each probe order s."""
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
    s_set = _probe_orders(gamma, s_set)
    rep, u_spec = _solve_with_spectrum(prob, f, lam, p)
    weights = _coercive_weights(gamma, complex(lam), s_set)

    sym = prob._symbol
    term_norms = _term_norms(prob, rep, u_spec)
    conv_sum = 0.0
    plain_sum = 0.0
    # the solve's ledger holds ||a*D^gamma u|| already, with the same bits
    conv_at_gamma = term_norms[f"a*D^{gamma:g} u"]
    for s, w in zip(s_set, weights):
        frac = frac_power_i_xi(sym.xi, s)
        n_conv = conv_at_gamma if s == gamma else multiplier_norm(u_spec, sym.a * frac, p)
        n_plain = multiplier_norm(u_spec, frac, p)
        term_norms[f"a*D^{s:g} u"] = n_conv
        term_norms[f"D^{s:g} u"] = n_plain
        conv_sum += w * n_conv
        plain_sum += w * n_plain
    op_norm = term_norms["A*u"]
    conv_sum += op_norm
    plain_sum += op_norm

    f_norm = lp_norm(f, p)
    return replace(
        rep,
        term_norms=term_norms,
        coercive_ratio=conv_sum / f_norm if f_norm > 0.0 else math.inf,
        meta={
            **rep.meta,
            "s_set": list(s_set),
            "weights": weights,
            "plain_form_ratio": plain_sum / f_norm if f_norm > 0.0 else math.inf,
            "forcing_norm": f_norm,
        },
    )


def _exact_l2_values(prob: EllipticProblem, lams: np.ndarray):
    """max_k ||lambda Q(xi_k, lambda)^{-1}||_2 per lambda; singular points become witnesses."""
    xi = prob.grid.frequencies
    values = []
    witnesses = []
    for lam in lams:
        smin, bad = symbol_smin(prob, complex(lam))
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
) -> SectorialityReport:
    """Sweep lambda over a radius x angle lattice in the sector and record
    the exact L2 operator norm of lambda (O + lambda)^{-1} at each point.

    The exact value at one lambda is the max over grid frequencies of the
    spectral matrix norm ||lambda Q(xi, lambda)^{-1}||.  With ``probes`` > 0,
    random band-limited forcings give L_p lower bounds alongside.  With
    ``refine`` the sweep reruns on a grid with doubled N; the sup must move
    by at most 5% to be flagged stable.  If every lambda is singular on the
    refined grid, the sweep is unstable with no drift and carries the
    refined grid's singular-symbol witnesses.  The probes solve at every
    lambda, so with ``probes`` > 0 a ``phi`` wider than the problem sector is
    a ValueError at fault ``phi``.
    """
    if angles < 2:
        raise ValueError("angle count must be at least 2")
    if probes > 0 and phi.angle > prob.sector.angle:
        wider = f"sweep angle {phi.angle:.6g} exceeds the problem sector angle {prob.sector.angle:.6g}"
        raise _at_fault("phi", ValueError(f"{wider}: the probes solve only inside it"))
    thetas = np.linspace(-phi.angle, phi.angle, angles)
    lams = np.array([r * np.exp(1j * t) for r in radii for t in thetas])

    values, witnesses = _exact_l2_values(prob, lams)

    probe_values = None
    if probes > 0:
        rng = np.random.default_rng(seed)
        draws = [random_band_limited(prob.grid, prob.dim, rng) for _ in range(probes)]
        draw_norms = [lp_norm(f, p) for f in draws]
        probe_values = []
        for lam, exact in zip(lams, values):
            if math.isnan(exact):
                probe_values.append(math.nan)
                continue
            best = 0.0
            for f, f_norm in zip(draws, draw_norms):
                u = _solve_with_spectrum(prob, f, complex(lam), 2.0)[0].solution
                best = max(best, abs(lam) * lp_norm(u, p) / f_norm)
            probe_values.append(best)

    finite = [v for v in values if not math.isnan(v)]
    bound = max(finite) if finite else math.nan

    drift = None
    stable = None
    if refine and finite:
        fine = replace(prob, grid=SpatialGrid(prob.grid.half_width, prob.grid.size * 2))
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
            "symbol_kernel": symbol_kernel(prob),
        },
    )


def _image_norms(
    grid: SpatialGrid, keep: np.ndarray, spec: np.ndarray, mult: np.ndarray, p: float
) -> np.ndarray:
    """``multiplier_norm`` of each (d, K) spectrum in ``spec`` (zero off ``keep``) under
    ``mult`` on the kept modes: a scalar (K,) or the transposed matrices as (d, d, K)."""
    if mult.ndim == 1:
        image = mult * spec
    else:
        image = mult[0] * spec[:, :1]
        for j in range(1, spec.shape[1]):
            image += mult[j] * spec[:, j : j + 1]
    if p == 2.0:
        two_l = 2.0 * grid.half_width

        def power_sum(v):
            parts = v.view(float).reshape(len(v), -1)
            return np.einsum("ij,ij->i", parts, parts) / two_l

        return _power_norm(image, 2.0, power_sum, axis=0)
    full = np.zeros((len(image), grid.size, spec.shape[1]), dtype=complex)
    full[:, keep] = image.transpose(0, 2, 1)
    return _rectangle_norm(grid.to_physical(full), grid.spacing, p, axis=0)


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
    per-trial ratios ride in ``meta`` for stability studies. The ratio is
    scale-invariant, so trials use their drawn spectra as is, ``_TRIAL_BLOCK``
    at a time on the kept modes; p = 2 runs no transform. A trial whose norms
    are not finite, because a multiplier or its image of the trial is not,
    raises ``OverflowError`` at fault ``a`` or ``A``, whichever of max|a(xi)|
    and max|A(xi)| is larger.  A zero ||O u||_p is a ``ZeroDivisionError``
    at fault ``grid``.
    """
    if trials < 1:
        raise ValueError("trial count must be positive")
    _check_exponent(p)
    s_set = _probe_orders(prob.order.gamma, s_set)
    grid = prob.grid
    keep = np.abs(grid.indices) <= grid.size // 4
    rng = np.random.default_rng(seed)
    ratios: list[float] = []
    witnesses: list[Witness] = []
    with np.errstate(over="ignore", invalid="ignore"):
        sym = prob._symbol

        def band(m):
            # off the band a non-finite multiplier meets inf * 0 = nan in every trial
            return bool(np.isfinite(m).all()), np.ascontiguousarray(m[keep].T)

        # Each multiplier is built on the full grid in turn, and only its band
        # is kept; Q(xi, 0) is the problem's own stack.
        ou = band(prob._q0)
        checked = [band(sym.a * frac_power_i_xi(sym.xi, s)) for s in s_set] + [band(sym.A), ou]
        finite = all(ok for ok, _ in checked)
        mults = [m for _, m in checked]
        for start in range(0, trials, _TRIAL_BLOCK):
            spec = _band_limited_block(rng, min(_TRIAL_BLOCK, trials - start), keep.sum(), prob.dim)
            *terms, ou_norm = [_image_norms(grid, keep, spec, m, p) for m in mults]
            term_sum = sum(terms)
            ok = finite & np.isfinite(term_sum) & np.isfinite(ou_norm)
            bad = np.flatnonzero(~ok | (ou_norm == 0.0))
            if bad.size:
                i = bad[0]
                trial = f"separability trial {start + i + 1}"
                if ok[i]:
                    raise _at_fault("grid", ZeroDivisionError(f"||O u|| of {trial} is 0"))
                err = OverflowError(f"the norms of {trial} overflow")
                raise _at_fault("a" if np.abs(sym.a).max() >= np.abs(sym.A).max() else "A", err)
            ratios += (term_sum / ou_norm).tolist()
            witnesses += [
                Witness(label="lower-bound", location={"trial": t}, magnitude=ratios[t])
                for t in (start + np.flatnonzero(term_sum < ou_norm)).tolist()
            ]
    return ConditionReport(
        name="separability",
        passed=not witnesses,
        constants={"C1": float(min(ratios)), "C2": float(max(ratios))},
        witnesses=tuple(witnesses),
        meta={
            "ratios": ratios,
            "trials": int(trials),
            "p": p,
            "s_set": list(s_set),
            "seed": int(seed),
        },
    )


def embedding_probe(
    prob: EllipticProblem,
    us: Sequence[GridFunction],
    alpha: float,
    s: float,
    p: float,
    q: float,
    mu: float,
    h_set: Sequence[float],
) -> list[ConditionReport]:
    """Probe the interpolation-style inequality

        ||A^(1-kappa-mu) D^alpha u||_q <= C [ h^mu ||u||_W + h^(mu-1) ||u||_p ]

    with kappa = (alpha + 1/p - 1/q)/s and the W-norm
    ||A u||_p + ||Finv (1+xi^2)^(s/2) F u||_p, over every h in ``h_set``,
    for each probe function u of ``us``: one report per u, in order.
    Requires a constant SPD operator symbol.  The rules are checked, and the
    power of A and the multipliers built, once for all of ``us``; the error of
    a rule or an overflow is at fault ``prob`` (a symbol that is not
    constant), ``A`` (its matrix), ``q``, ``alpha``, ``mu`` or ``s``.
    ``meta["ratios"]`` holds the ratio of each h in ``h_set`` order.  Raises
    ``OverflowError`` when the Bessel multiplier or the norms of some u are
    not finite: at fault ``A`` when ||A^theta D^alpha u||_q or ||A u||_p is
    not, else at fault ``s``.
    """
    a_mat = prob.A.constant_matrix
    if a_mat is None:
        raise _at_fault("prob", ValueError("embedding probe requires a constant operator symbol"))
    if any(u.grid != prob.grid or u.dim != prob.dim for u in us):
        raise ValueError("probe function does not match the problem grid/dimension")
    if s <= 0.0 or alpha < 0.0:
        raise _at_fault("s" if s <= 0.0 else "alpha", ValueError("need s > 0 and alpha >= 0"))
    if q < p:
        raise _at_fault("q", ValueError(f"exponents must satisfy p <= q, got p={p}, q={q}"))
    kappa = (alpha + 1.0 / p - 1.0 / q) / s
    if kappa > 1.0 + 1e-15:
        exceeds = f"kappa = {kappa:.6g} exceeds 1; the inequality does not apply"
        raise _at_fault("alpha", ValueError(exceeds))
    if not -1e-15 <= mu <= 1.0 - kappa + 1e-15:
        outside = f"mu = {mu} outside [0, 1 - kappa] = [0, {1.0 - kappa:.6g}]"
        raise _at_fault("mu", ValueError(outside))
    if not h_set:
        raise ValueError("h_set must be non-empty")
    for h in h_set:
        if h <= 0.0:
            raise ValueError(f"h must be positive, got {h}")

    power_t = matrix_fractional_power(a_mat, 1.0 - kappa - mu).T
    xi = prob.grid.frequencies
    with np.errstate(over="ignore"):
        bessel = (1.0 + xi**2) ** (s / 2.0) + 0j
    if not np.isfinite(bessel).all():
        at = f"at xi = {xi[np.argmin(np.isfinite(bessel))]:.6g}"
        raise _at_fault("s", OverflowError(f"(1 + xi^2)^(s/2) overflows the float range {at}"))
    frac = frac_power_i_xi(xi, alpha)
    a_t = np.asarray(a_mat, dtype=complex).T

    reports = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k, u in enumerate(us, 1):
            u_spec = forward_transform(u)
            du = apply_multiplier(u_spec, frac)
            # A^theta D^alpha u and A u need not be finite: norm their values
            lhs = float(_rectangle_norm(du.values @ power_t, u.grid.spacing, _check_exponent(q)))
            a_norm = float(_rectangle_norm(u.values @ a_t, u.grid.spacing, _check_exponent(p)))
            b_norm = multiplier_norm(u_spec, bessel, p)
            u_norm = lp_norm(u, p)
            if not math.isfinite(lhs + a_norm + b_norm + u_norm):
                overflow = OverflowError(f"the norms of embedding draw {k} overflow")
                raise _at_fault("A" if not math.isfinite(lhs + a_norm) else "s", overflow)
            w_norm = a_norm + b_norm
            ratios = [float(lhs / (h**mu * w_norm + h ** (mu - 1.0) * u_norm)) for h in h_set]
            reports.append(
                ConditionReport(
                    name="embedding-probe",
                    passed=True,
                    constants={"max_ratio": max(ratios), "kappa": float(kappa)},
                    witnesses=(),
                    meta={
                        "ratios": ratios,
                        "ratios_by_h": {f"{h:g}": r for h, r in zip(h_set, ratios)},
                        "lhs": float(lhs),
                        "w_norm": float(w_norm),
                        "u_norm": float(u_norm),
                        **dict(alpha=alpha, s=s, p=p, q=q, mu=mu),
                    },
                )
            )
    return reports
