"""Symbol assembly and the admissibility checks."""

import json
import math

import numpy as np
import pytest

import fracspec as fs
from conftest import make_problem

SQ2 = math.sqrt(0.5)


def test_q_symbol_unfactored_examples():
    g = fs.SpatialGrid(10.0, 64)
    prob = make_problem(g, gamma=2.0, mat=np.diag([1.0, 2.0]))
    q = fs.q_symbol(prob, 1.0, 0.0)
    # a = -1 and (i*1)^2 = -1, so the fractional part contributes +1 on the diagonal
    np.testing.assert_allclose(q, np.diag([2.0, 3.0]), atol=1e-14)

    prob = make_problem(g, gamma=1.5, mat=np.array([[0.5]]))
    q = fs.q_symbol(prob, 1.0, 2.0)
    want = -np.exp(0.75j * math.pi) + 0.5 + 2.0
    assert q[0, 0] == pytest.approx(want, abs=1e-13)
    assert q[0, 0] == pytest.approx(SQ2 - SQ2 * 1j + 2.5, abs=1e-13)


def test_q_symbol_factored_form():
    g = fs.SpatialGrid(10.0, 64)
    prob = make_problem(g, gamma=1.5, mat=np.array([[0.5]]), q_form="factored")
    xi, lam = 2.0, 1.0 + 0.5j
    a_val = -1.0
    want = a_val * (fs.frac_power_i_xi(xi, 1.5) + 0.5 + lam)
    assert fs.q_symbol(prob, xi, lam)[0, 0] == pytest.approx(want, abs=1e-13)
    with pytest.raises(ValueError, match="q_form"):
        make_problem(g, q_form="diagonal")


def test_q_matrices_stack_shape_and_zero_frequency():
    g = fs.SpatialGrid(10.0, 16)
    prob = make_problem(g, gamma=1.5, mat=np.diag([1.0, 2.0]))
    stack = fs.q_matrices(prob, 3.0)
    assert stack.shape == (16, 2, 2)
    # (i*0)^gamma = 0, so the zero mode holds A + lambda alone
    np.testing.assert_allclose(stack[0], np.diag([4.0, 5.0]), atol=1e-14)


def test_coefficient_symbols():
    c = fs.constant_coefficient(-2.0 + 1.0j)
    xi = np.array([-3.0, 0.0, 5.0])
    np.testing.assert_allclose(c(xi), np.full(3, -2.0 + 1.0j))
    np.testing.assert_allclose(c.derivative_at(xi), np.zeros(3), atol=1e-15)

    gamma = 1.5
    a = fs.scaled_decay_coefficient(-1.0, gamma)
    assert a(np.array([0.0]))[0] == 0.0
    big = a(np.array([1e6]))[0]
    assert big == pytest.approx(-1.0, rel=1e-6)
    # |a(xi)| |xi|^gamma / xi^2 = (1 + xi^2)^(-(2-gamma)/2) <= 1
    vals = np.abs(a(xi)) * np.abs(xi) ** gamma
    quad = xi**2
    ratio = vals[quad > 0] / quad[quad > 0]
    np.testing.assert_allclose(ratio, (1.0 + xi[quad > 0] ** 2) ** (-0.25), rtol=1e-12)

    flat = fs.scaled_decay_coefficient(0.7, 2.0)
    np.testing.assert_allclose(flat(xi), np.full(3, 0.7), atol=1e-14)


def test_symbol_derivatives_match_finite_differences():
    a = fs.scaled_decay_coefficient(-1.0, 1.5)
    xi = np.array([-2.0, -0.5, 0.7, 5.0])
    np.testing.assert_allclose(
        a.derivative_at(xi), a.derivative_at(xi, force_fd=True), atol=1e-6
    )
    op = fs.perturbed_operator(np.diag([2.0, 3.0]), np.array([[0.5, 0.2], [0.2, 0.1]]))
    np.testing.assert_allclose(
        op.derivative_at(xi), op.derivative_at(xi, force_fd=True), atol=1e-6
    )


def test_operator_symbol_validation():
    with pytest.raises(ValueError, match="singular at the reference"):
        fs.constant_operator(np.array([[0.0]]))
    with pytest.raises(ValueError, match="xi0"):
        fs.OperatorSymbol(name="bad", dim=1, func=lambda xi: np.ones((xi.size, 1, 1)), xi0=0.0)
    op = fs.constant_operator(np.array([[1.0, 0.0], [0.0, 2.0]]))
    assert op.at(3.0).shape == (2, 2)
    assert op.constant_matrix is not None
    with pytest.raises(ValueError, match="shape"):
        bad = fs.OperatorSymbol(name="bad", dim=2, func=lambda xi: np.ones((xi.size, 1, 1)))
        bad(np.array([1.0]))
    with pytest.raises(ValueError, match="does not match"):
        fs.perturbed_operator(np.eye(2), np.eye(3))


def test_smallest_singular_values_gate():
    stack = np.array([np.diag([3.0, 2.0]), np.diag([4.0, 1e-15]), np.diag([5e-13, 1e-13])])
    smin, bad = fs.smallest_singular_values(stack, 1e-14)
    np.testing.assert_allclose(smin, [2.0, 1e-15, 1e-13])
    # relative to max(largest, 1): 1e-15 <= 1e-14 * 4 fails, 1e-13 > 1e-14 * 1 passes
    assert bad == 1
    assert fs.smallest_singular_values(stack[[0, 2]], 1e-14)[1] is None
    assert fs.smallest_singular_values(stack[[0, 2]], 1e-12)[1] == 1


def test_sector_growth_constant_coefficient_diverges():
    g = fs.SpatialGrid(10.0, 64)
    prob = make_problem(g, gamma=1.5)
    rep = fs.check_sector_growth(prob, fs.Sector(math.pi / 4.0))
    assert not rep.passed
    labels = {w.label for w in rep.witnesses}
    assert labels == {"growth"}
    assert rep.meta["sector_pass"] is True
    # ratio |a||xi|^1.5 / xi^2 = |xi|^(-1/2) peaks at the smallest frequency pi/10
    assert rep.constants["C0"] == pytest.approx((math.pi / 10.0) ** -0.5, rel=1e-12)
    assert all(abs(w.location["xi"]) < 1.0 for w in rep.witnesses)


def test_sector_growth_scaled_decay_passes():
    g = fs.SpatialGrid(10.0, 64)
    prob = make_problem(g, gamma=1.5, a_family="scaled_decay")
    rep = fs.check_sector_growth(prob, fs.Sector(math.pi / 4.0))
    assert rep.passed
    assert rep.constants["C0"] == pytest.approx(
        (1.0 + (math.pi / 10.0) ** 2) ** -0.25, rel=1e-12
    )


def test_sector_growth_gamma_two_flat_ratio_passes():
    g = fs.SpatialGrid(10.0, 64)
    prob = make_problem(g, gamma=2.0)
    rep = fs.check_sector_growth(prob, fs.Sector(math.pi / 4.0))
    assert rep.passed
    assert rep.constants["C0"] == pytest.approx(1.0, rel=1e-12)


def test_sector_growth_angle_violation():
    g = fs.SpatialGrid(10.0, 64)
    # a = +1 puts a(xi)(i xi)^1.5 at angle 3pi/4, far outside pi/4
    prob = make_problem(g, gamma=1.5, a_value=1.0)
    rep = fs.check_sector_growth(prob, fs.Sector(math.pi / 4.0))
    assert not rep.passed
    sector_witnesses = [w for w in rep.witnesses if w.label == "sector"]
    assert sector_witnesses and len(sector_witnesses) <= 16
    assert sector_witnesses[0].magnitude == pytest.approx(math.pi / 2.0, rel=1e-10)


def test_mikhlin_bounds_constant_problem():
    g = fs.SpatialGrid(10.0, 64)
    rep = fs.check_mikhlin_bounds(make_problem(g, gamma=1.5))
    assert rep.passed
    assert rep.constants["C1"] == pytest.approx(1.0, abs=1e-12)
    assert rep.constants["C2"] == pytest.approx(1.0, abs=1e-12)
    # forcing finite differences must not change the verdict
    rep_fd = fs.check_mikhlin_bounds(make_problem(g, gamma=1.5), use_fd=True)
    assert rep_fd.passed
    assert rep_fd.meta["used_fd"] is True


def test_mikhlin_bounds_flags_unbounded_growth():
    g = fs.SpatialGrid(10.0, 64)
    growing = fs.CoefficientSymbol(
        name="bessel-growth", func=lambda xi: np.sqrt(1.0 + xi**2) + 0j
    )
    prob = fs.EllipticProblem(
        order=fs.FractionalOrder(1.5),
        a=growing,
        A=fs.constant_operator(np.array([[1.0]])),
        sector=fs.Sector(math.pi / 4.0),
        grid=g,
    )
    rep = fs.check_mikhlin_bounds(prob)
    assert not rep.passed
    assert {w.label for w in rep.witnesses} <= {"coeff_b0", "coeff_b1"}
    edge = max(abs(w.location["xi"]) for w in rep.witnesses)
    assert edge >= 0.5 * np.abs(g.spectral().frequencies).max()


def test_mikhlin_bounds_perturbed_operator_passes():
    g = fs.SpatialGrid(10.0, 64)
    op = fs.perturbed_operator(np.diag([2.0, 3.0]), 0.4 * np.eye(2))
    prob = fs.EllipticProblem(
        order=fs.FractionalOrder(1.5),
        a=fs.constant_coefficient(-1.0),
        A=op,
        sector=fs.Sector(math.pi / 4.0),
        grid=g,
    )
    rep = fs.check_mikhlin_bounds(prob)
    assert rep.passed
    assert rep.constants["C2"] >= 1.0


def test_symbol_resolvent_bound_canonical():
    g = fs.SpatialGrid(10.0, 64)
    prob = make_problem(g, gamma=2.0)
    rep = fs.symbol_resolvent_bound(prob, [0.0, 1.0, 10.0])
    assert rep.passed
    # (1 + lambda + xi^2) / (xi^2 + 1 + lambda) is identically 1
    assert rep.constants["C"] == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError, match="sector"):
        fs.symbol_resolvent_bound(prob, [-1.0])


def test_symbol_resolvent_bound_counts_a_generator():
    prob = make_problem(fs.SpatialGrid(10.0, 64), gamma=2.0)
    listed = fs.symbol_resolvent_bound(prob, [0.0, 1.0, 10.0])
    streamed = fs.symbol_resolvent_bound(prob, (lam for lam in (0.0, 1.0, 10.0)))
    assert streamed.meta["lambda_count"] == listed.meta["lambda_count"] == 3
    assert streamed.constants == listed.constants


def test_symbol_resolvent_bound_singular_is_hard_error():
    g = fs.SpatialGrid(math.pi, 8)  # integer frequencies, so xi = 1 is on the grid
    prob = make_problem(g, gamma=2.0, mat=np.array([[-1.0]]))
    with pytest.raises(ValueError, match="singular symbol at xi=.*1"):
        fs.symbol_resolvent_bound(prob, [0.0])


def test_scalar_inequality_suite():
    phi = fs.Sector(math.pi / 4.0)
    rep = fs.scalar_inequality_suite(phi, phi, samples=5000, seed=123)
    assert rep.passed
    assert rep.constants["weighted_product_violations"] == 0
    assert rep.constants["weighted_product_max_quotient"] <= 1.0 + 1e-12
    # worst lattice pair: equal radii at opposite boundary angles
    assert rep.constants["angle_separation_min"] == pytest.approx(
        math.cos(math.pi / 4.0), rel=1e-12
    )
    rep2 = fs.scalar_inequality_suite(phi, phi, samples=5000, seed=123)
    assert rep2.constants == rep.constants
    with pytest.raises(ValueError, match="phi1 \\+ phi2"):
        fs.scalar_inequality_suite(fs.Sector(math.pi / 2.0), fs.Sector(math.pi / 2.0))


def test_condition_report_invariant_and_json():
    with pytest.raises(ValueError, match="witnesses"):
        fs.ConditionReport(
            name="x",
            passed=True,
            constants={},
            witnesses=(fs.Witness("w", {"xi": 1.0}, 2.0),),
            meta={},
        )
    w = fs.Witness("w", {"xi": 1.0, "value": 1.0 + 2.0j}, 3.0)
    rep = fs.ConditionReport(name="x", passed=False, constants={"C": 1.0}, witnesses=(w,), meta={})
    blob = json.dumps(rep.to_jsonable(), sort_keys=True)
    assert '"im": 2.0' in blob and '"re": 1.0' in blob
