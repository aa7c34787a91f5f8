"""Transverse boundary-operator discretization and the anisotropic solver."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import fracspec as fs
from conftest import make_problem
from fracspec import symbols
from fracspec.symbols import (
    _SINGULAR_TOL,
    _cleared,
    _eigenvalues,
    _row_extremes,
    _symmetrized_gate,
)


def _const(c):
    return lambda y: np.full_like(y, c)


def _coeffs(m, b2=1.0, b1=0.0, b0=0.0):
    return fs.BVPCoefficients(_const(b2), _const(b1), _const(b0), m)


def test_discretize_tridiagonal_entries():
    mat = fs.discretize_bvp(_coeffs(4))
    h = 1.0 / 5.0
    want = np.zeros((4, 4))
    np.fill_diagonal(want, 2.0 / h**2)
    for i in range(3):
        want[i, i + 1] = want[i + 1, i] = -1.0 / h**2
    np.testing.assert_allclose(mat, want, rtol=0.0, atol=1e-12)
    assert mat.dtype == np.float64


def test_discretize_smallest_eigenvalue_approaches_pi_squared():
    m = 127
    mat = fs.discretize_bvp(_coeffs(m))
    h = 1.0 / (m + 1)
    lo = np.linalg.eigvalsh(mat)[0]
    # discrete Dirichlet Laplacian eigenvalue for the sin(pi y) mode
    assert lo == pytest.approx((2.0 - 2.0 * math.cos(math.pi * h)) / h**2, rel=1e-12)
    assert lo == pytest.approx(math.pi**2, rel=1e-3)


def test_discretize_b0_is_a_diagonal_shift():
    base = fs.discretize_bvp(_coeffs(8))
    shifted = fs.discretize_bvp(_coeffs(8, b0=3.0))
    np.testing.assert_allclose(shifted, base + 3.0 * np.eye(8), atol=1e-12)


def test_discretize_b1_gives_hermitian_complex_matrix():
    mat = fs.discretize_bvp(_coeffs(8, b1=1.0))
    assert np.iscomplexobj(mat)
    assert np.max(np.abs(mat.imag)) > 0.0
    np.testing.assert_allclose(mat, mat.conj().T, atol=1e-12)


@pytest.mark.parametrize(
    "b2, b1, kernel",
    [(lambda y: 1.0 + 0.5 * y, _const(0.0), "svd"), (_const(1.0), _const(1.0), "hermitian-eig")],
    ids=["varying-b2", "constant-b2-b1"],
)
def test_boundary_matrix_is_hermitian_only_for_constant_b2_and_b1(b2, b1, kernel):
    """A b2 that varies gives a real matrix that is not symmetric, which
    takes the SVD gate; constant b2 and b1 give a Hermitian one."""
    mat = fs.discretize_bvp(fs.BVPCoefficients(b2, b1, _const(1.0), 9))
    assert np.array_equal(mat, mat.conj().T) == (kernel == "hermitian-eig")
    prob = fs.EllipticProblem(
        order=fs.FractionalOrder(2.0),
        a=fs.constant_coefficient(-1.0),
        A=fs.constant_operator(mat),
        sector=fs.Sector(0.5),
        grid=fs.SpatialGrid(10.0, 32),
    )
    assert fs.symbol_kernel(prob) == kernel


def test_degenerate_principal_coefficient_is_rejected():
    coeffs = fs.BVPCoefficients(lambda y: y - 0.5, _const(0.0), _const(0.0), 31)
    with pytest.raises(ValueError, match="degenerates at y=0.5"):
        fs.discretize_bvp(coeffs)


def test_coefficient_validations():
    with pytest.raises(ValueError, match="mesh size"):
        fs.BVPCoefficients(_const(1.0), _const(0.0), _const(0.0), 0)
    bad = fs.BVPCoefficients(lambda y: y / (y - y), _const(0.0), _const(0.0), 4)
    with pytest.raises(ValueError, match="b2 is not finite"):
        with np.errstate(divide="ignore", invalid="ignore"):
            fs.discretize_bvp(bad)


def test_ellipticity_constant_coefficient_value():
    rep = fs.check_ellipticity(_coeffs(9), fs.Sector(math.pi / 4.0))
    assert rep.passed
    # min over the quarter-sector of |sigma + r| / (|sigma| + r)
    assert rep.constants["min_normalized"] == pytest.approx(math.cos(math.pi / 8.0), abs=1e-12)
    assert rep.meta["mesh_size"] == 9
    assert "argmin" in rep.meta


def test_ellipticity_negative_coefficient_fails():
    rep = fs.check_ellipticity(_coeffs(9, b2=-1.0), fs.Sector(math.pi / 4.0))
    assert not rep.passed
    assert rep.witnesses
    assert rep.constants["min_normalized"] < 1e-8


def test_ellipticity_variable_coefficient_passes():
    coeffs = fs.BVPCoefficients(lambda y: 1.0 + y, _const(0.0), _const(0.0), 16)
    rep = fs.check_ellipticity(coeffs, fs.Sector(math.pi / 4.0))
    assert rep.passed
    assert rep.constants["min_normalized"] >= math.cos(math.pi / 8.0) - 1e-9


# Reports of the per-(y, xi) candidate loop that the closed-form rule replaced,
# recorded under tests/data/ellipticity: b2 < 0 everywhere, and b2 crossing
# zero on the mesh (y = 0.5 at mesh_size = 9) from either side.
_ELLIPTICITY_GOLDENS = {
    "b2-minus-one": (_const(-1.0), math.pi / 4.0),
    "b2-y-minus-half": (lambda y: y - 0.5, math.pi / 4.0),
    "b2-half-minus-y": (lambda y: 0.5 - y, math.pi / 4.0),
    "b2-half-minus-y-phi0-zero": (lambda y: 0.5 - y, 0.0),
}


@pytest.mark.parametrize("name", sorted(_ELLIPTICITY_GOLDENS))
def test_ellipticity_report_matches_golden(name):
    b2, phi0 = _ELLIPTICITY_GOLDENS[name]
    rep = fs.check_ellipticity(fs.BVPCoefficients(b2, _const(0.0), _const(0.0), 9), fs.Sector(phi0))
    golden = Path(__file__).parent / "data" / "ellipticity" / f"{name}.json"
    assert json.dumps(rep.to_jsonable(), sort_keys=True, indent=1) + "\n" == golden.read_text()


def test_ellipticity_sector_gate():
    with pytest.raises(ValueError, match="below pi/2"):
        fs.check_ellipticity(_coeffs(9), fs.Sector(math.pi / 2.0))


def test_anisotropic_manufactured_solution_converges():
    g = fs.SpatialGrid(10.0, 256)
    x = g.points
    order = fs.FractionalOrder(2.0)
    a = fs.constant_coefficient(-1.0)
    lam = 1.0
    gauss = np.exp(-(x**2))
    errs = []
    for m in (15, 31, 63):
        coeffs = _coeffs(m)
        y = coeffs.mesh
        f_vals = (gauss * (2.0 - 4.0 * x**2 + math.pi**2 + lam))[:, None] * np.sin(
            math.pi * y
        )[None, :]
        rep = fs.solve_anisotropic(coeffs, order, a, lam, fs.GridFunction(g, f_vals))
        want = gauss[:, None] * np.sin(math.pi * y)[None, :]
        errs.append(np.max(np.abs(rep.solution.values - want)))
        assert rep.residual_rel < 1e-9
    # second order in the transverse mesh
    for i in range(2):
        assert 3.5 < errs[i] / errs[i + 1] < 4.5, errs


def test_anisotropic_report_terms_and_dim_gate():
    g = fs.SpatialGrid(10.0, 64)
    coeffs = _coeffs(7)
    order = fs.FractionalOrder(2.0)
    a = fs.constant_coefficient(-1.0)
    f_vals = np.exp(-(g.points**2))[:, None] * np.sin(math.pi * coeffs.mesh)[None, :]
    rep = fs.solve_anisotropic(coeffs, order, a, 1.0, fs.GridFunction(g, f_vals))
    for key in ("a*Dx^0 u", "a*Dx^1 u", "a*Dx^2 u", "Dy^0 u", "Dy^1 u", "Dy^2 u"):
        assert key in rep.term_norms
    assert math.isfinite(rep.coercive_ratio)
    assert rep.meta["mesh_spacing"] == pytest.approx(1.0 / 8.0)
    wrong = fs.GridFunction(g, np.ones((64, 5)))
    with pytest.raises(ValueError, match="expected mesh size"):
        fs.solve_anisotropic(coeffs, order, a, 1.0, wrong)


def test_anisotropic_report_computes_only_the_norms_it_reports(monkeypatch):
    """Six term norms and the forcing norm: the solve's own term norms are not built."""
    from fracspec import bvp, elliptic

    calls = []

    def counting(norm):
        def counted(*args):
            calls.append(norm.__name__)
            return norm(*args)
        return counted

    for module in (bvp, elliptic):
        for name in ("lp_norm", "multiplier_norm"):
            monkeypatch.setattr(module, name, counting(getattr(module, name)))
    g = fs.SpatialGrid(10.0, 64)
    coeffs = _coeffs(7)
    f_vals = np.exp(-(g.points**2))[:, None] * np.sin(math.pi * coeffs.mesh)[None, :]
    order, a = fs.FractionalOrder(2.0), fs.constant_coefficient(-1.0)
    rep = fs.solve_anisotropic(coeffs, order, a, 1.0, fs.GridFunction(g, f_vals))
    # the solve's residual gate takes two L2 norms, of the residual and of f
    assert len(calls) - 2 == len(rep.term_norms) + 1 == 7
    assert calls.count("multiplier_norm") == 3


def _poly(cs):
    """The polynomial sum_k cs[k] y^k on the mesh."""
    return lambda y: np.polyval(np.asarray(cs, dtype=float)[::-1], y) + 0.0 * y


def _boundary_problem(b2, b0=0.0, m=9, n=32, q_form="unfactored"):
    """The elliptic problem of a*D^2 u + L u + lambda u with a = -1 and L the
    real boundary matrix of b2, b1 = 0 and the constant b0."""
    coeffs = fs.BVPCoefficients(b2, _const(0.0), _const(b0), m)
    mat = fs.discretize_bvp(coeffs)
    return make_problem(fs.SpatialGrid(10.0, n), gamma=2.0, mat=mat, sector_angle=1.0,
                        q_form=q_form), coeffs


def _solve_gate(prob, lam):
    """The first frequency the solve's singular-symbol gate flags, or None."""
    if prob._symmetrizer is None:
        return fs.symbol_smin(prob, lam)[1]
    return _symmetrized_gate(prob, lam)[1]


@pytest.fixture
def linalg_calls(monkeypatch):
    """The shapes of the first arguments of np.linalg.svd and np.linalg.solve calls."""
    calls = {"svd": [], "solve": []}
    for name in calls:
        real = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _real=real, **kwargs):
            calls[_name].append(np.shape(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


_VARYING_B2 = {
    "half-slope": [1.0, 0.5],
    "quartic-kappa-960": [1e-8, 0.0, 0.0, 0.0, 1.0],
    "steep": [1e-3, 1e3],
    "overflowing-at-the-ends": [1e304, 1e304],
}


@pytest.mark.parametrize("name", sorted(_VARYING_B2))
def test_symmetrizer_makes_the_boundary_matrix_symmetric(name):
    """S L S^-1 is symmetric, equal to W diag(mu) W^T, and kappa = cond(S) is
    sqrt(max b2 / min b2) on the mesh: s_k = sqrt(b2_0 / b2_k) when b1 = 0."""
    with np.errstate(all="raise"):
        prob, coeffs = _boundary_problem(_poly(_VARYING_B2[name]), b0=1.0, m=31)
        rec = prob._symmetrizer
    mat = prob.A.constant_matrix.real
    scale = np.abs(mat).max()
    j = rec.s[:, None] * mat / rec.s[None, :]
    np.testing.assert_allclose(j, j.T, rtol=0.0, atol=1e-14 * scale)
    np.testing.assert_allclose((rec.W * rec.mu) @ rec.W.T, j, rtol=0.0, atol=1e-12 * scale)
    b2 = _poly(_VARYING_B2[name])(coeffs.mesh)
    np.testing.assert_allclose(rec.s, np.sqrt(b2[0] / b2), rtol=1e-13)
    assert rec.kappa == pytest.approx(math.sqrt(b2.max() / b2.min()), rel=1e-13)


@pytest.mark.parametrize("seed", range(6))
def test_cleared_or_svd_verdict_is_the_svd_verdict(seed):
    """Over random b2 > 0, constant or varying, b0, q_form and lambda in the
    sector, with lambdas placed on and near eigenvalues of Q, the gate that
    clears by the bounds and takes the SVD elsewhere flags the first frequency
    the SVD flags."""
    rng = np.random.default_rng(seed)
    for _ in range(4):
        cs = [10.0 ** rng.uniform(-3, 1)] + ([] if rng.random() < 0.3 else
                                             list(10.0 ** rng.uniform(-2, 2, rng.integers(1, 5))))
        m = int(rng.choice([3, 9, 15]))
        q_form = str(rng.choice(["unfactored", "factored"]))
        prob, _ = _boundary_problem(_poly(cs), m=m, q_form=q_form)
        mu = np.linalg.eigvals(prob.A.constant_matrix).real
        # b0 puts part of L's spectrum below 0, where nu_j = xi^2 + lambda + mu_j
        # can vanish (factored, a = -1: nu_j = xi^2 - lambda - mu_j)
        b0 = -rng.uniform(mu.min(), mu.max())
        prob, _ = _boundary_problem(_poly(cs), b0=b0, m=m, q_form=q_form)
        xi2 = prob._symbol.xi[:4, None] ** 2
        roots = -(xi2 + mu + b0) if q_form == "unfactored" else xi2 - (mu + b0)
        roots = roots[roots > 0.0][:3]
        lams = [r * (1.0 + t) for r in roots for t in (0.0, 1e-15, 1e-13, 1e-11, 1e-8)]
        lams += list(10.0 ** rng.uniform(-2, 3, 4) * np.exp(1j * rng.uniform(-1.0, 1.0, 4)))
        for lam in lams:
            want = fs.smallest_singular_values(fs.q_matrices(prob, lam), _SINGULAR_TOL)[1]
            assert _solve_gate(prob, lam) == want


def test_gate_bounds_carry_the_symmetrizer_condition():
    """Q = [[lam, 100], [0.01, lam]] at xi = 0 has eigenvalues lam -+ 1, but
    its smallest singular value is about 2 (lam - 1) / 100: at
    lam = 1 + 1e-11 the eigenvalue moduli alone would clear it, the SVD flags
    it, and the gate's bounds, widened by kappa = 100, leave it to the SVD."""
    prob = make_problem(fs.SpatialGrid(10.0, 16), gamma=2.0, mat=[[0.0, 100.0], [0.01, 0.0]])
    rec = prob._symmetrizer
    assert rec.kappa == pytest.approx(100.0, rel=1e-15)
    lam = 1.0 + 1e-11
    nu = _eigenvalues(prob, lam, rec.mu)
    assert _cleared(*_row_extremes(np.abs(nu)), 1.0).all()
    want = fs.smallest_singular_values(fs.q_matrices(prob, lam), _SINGULAR_TOL)[1]
    assert prob._symbol.xi[want] == 0.0
    assert _symmetrized_gate(prob, lam)[1] == want
    with pytest.raises(fs.SolveError, match="singular symbol at frequency xi=0 "):
        fs.solve_elliptic(prob, fs.GridFunction(prob.grid, np.ones((16, 2))), lam)


def test_gate_at_kappa_one_is_the_normal_gate_bit_for_bit():
    """_cleared at kappa = 1 negates the normal-Q rule
    smin <= _SINGULAR_TOL * max(smax, 1), on values at and around its edges."""
    rng = np.random.default_rng(5)
    hi = np.concatenate([10.0 ** rng.uniform(-320, 308, 500), [0.0, 1.0, 1e308, 5e-324]])
    edge = _SINGULAR_TOL * np.maximum(hi, 1.0)
    lo = np.concatenate([edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf), hi * 1e-15])
    hi = np.tile(hi, 4)
    normal_gate = lo <= _SINGULAR_TOL * np.maximum(hi, 1.0)
    np.testing.assert_array_equal(_cleared(lo, hi, 1.0), ~normal_gate)


@pytest.mark.parametrize("q_form", ["unfactored", "factored"])
@pytest.mark.parametrize("name", sorted(_VARYING_B2))
def test_modal_solve_matches_the_lu_solve(monkeypatch, linalg_calls, name, q_form):
    """A symmetrizable Q is solved as S^-1 W (nu^-1 (W^T S fhat)), with no
    Q(xi, lambda) stack, no SVD and no LU, to 1e-12 of the LU solution."""
    prob, _ = _boundary_problem(_poly(_VARYING_B2[name]), b0=1.0, m=15, n=64, q_form=q_form)
    f = fs.random_band_limited(prob.grid, 15, 7)
    lam = 2.0 + 1.0j
    spec = fs.forward_transform(f)
    uhat = np.linalg.solve(fs.q_matrices(prob, lam), spec.values[:, :, None])[:, :, 0]
    want = fs.inverse_transform(fs.SpectralFunction(prob.grid, uhat)).values
    stacks = []
    real_q_stack = symbols._q_stack

    def counting_q_stack(prob, xi, lam):
        stacks.append(lam)
        return real_q_stack(prob, xi, lam)

    monkeypatch.setattr(symbols, "_q_stack", counting_q_stack)
    linalg_calls.update(svd=[], solve=[])
    rep = fs.solve_elliptic(prob, f, lam)
    assert linalg_calls == {"svd": [], "solve": []}
    assert stacks == [0.0]  # only the residual's Q(xi, 0)
    assert np.abs(rep.solution.values - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize(
    "b2, b1", [(lambda y: y - 0.5, _const(0.0)), (_const(1.0), lambda y: y)],
    ids=["b2-changes-sign", "varying-b1"],
)
def test_sign_change_in_b2_or_varying_b1_takes_the_svd_and_the_lu(linalg_calls, b2, b1):
    """An off-diagonal product that is negative (b2 changes sign) or complex
    (b1 varies) has no symmetrizer: the solve takes the SVD gate and the LU."""
    coeffs = fs.BVPCoefficients(b2, b1, _const(1.0), 8)
    g = fs.SpatialGrid(10.0, 32)
    f = fs.GridFunction(g, np.exp(-(g.points**2))[:, None] * np.sin(math.pi * coeffs.mesh)[None, :])
    order, a = fs.FractionalOrder(2.0), fs.constant_coefficient(-1.0)
    linalg_calls.update(svd=[], solve=[])
    rep = fs.solve_anisotropic(coeffs, order, a, 1.0 + 1.0j, f)
    # the operator symbol's check of A(1) is the first SVD
    assert linalg_calls == {"svd": [(1, 8, 8), (32, 8, 8)], "solve": [(32, 8, 8)]}
    assert rep.meta["symmetrizer_cond"] is None


def test_report_names_the_symmetrizer_condition():
    """solve_anisotropic reports kappa when the problem has a symmetrizer, else null."""
    g = fs.SpatialGrid(10.0, 32)
    order, a = fs.FractionalOrder(2.0), fs.constant_coefficient(-1.0)
    for b2, want in ((_poly([1.0, 1.0]), math.sqrt(1.9 / 1.1)), (_const(1.0), None)):
        coeffs = fs.BVPCoefficients(b2, _const(0.0), _const(1.0), 9)
        f = fs.GridFunction(g, np.exp(-(g.points**2))[:, None] * np.ones(9)[None, :])
        rep = fs.solve_anisotropic(coeffs, order, a, 1.0, f)
        got = rep.to_jsonable()["meta"]["symmetrizer_cond"]
        assert got == want if want is None else got == pytest.approx(want, rel=1e-14)


def test_a_modal_solution_the_residual_gate_rejects_is_solved_again_by_lu(linalg_calls):
    """The modal residual carries a factor up to kappa that an LU's does not.
    b2 = 1e-3 + 3e5 y^7 (kappa about 1.5e4) and b0 = 5.7 at
    lambda = 0.5 - 0.4i leave a modal residual of about 3.5e-9 ||f|| and an LU
    residual of about 1.6e-10 ||f||: the solve returns the LU solution."""
    prob, coeffs = _boundary_problem(_poly([1e-3, 0, 0, 0, 0, 0, 0, 3e5]), b0=5.7, m=31)
    assert prob._symmetrizer.kappa > 1e4
    profile = np.sin(math.pi * coeffs.mesh)
    f = fs.GridFunction(prob.grid, np.exp(-(prob.grid.points**2))[:, None] * profile[None, :])
    lam = 0.5 - 0.4j
    spec = fs.forward_transform(f)
    uhat = np.linalg.solve(fs.q_matrices(prob, lam), spec.values[:, :, None])[:, :, 0]
    want = fs.inverse_transform(fs.SpectralFunction(prob.grid, uhat)).values
    linalg_calls.update(svd=[], solve=[])
    rep = fs.solve_elliptic(prob, f, lam)
    assert linalg_calls["solve"] == [(32, 31, 31)]
    np.testing.assert_array_equal(rep.solution.values, want)
    assert rep.residual_rel < 1e-9
