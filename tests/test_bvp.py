"""Transverse boundary-operator discretization and the anisotropic solver."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import fracspec as fs


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
