"""Direct solver against the dense reference, and the estimate machinery."""

import math

import numpy as np
import pytest

import fracspec as fs
from conftest import dense_operator, dense_solve, make_problem, rel_linf


def test_single_mode_closed_form():
    g = fs.SpatialGrid(10.0, 64)
    prob = make_problem(g, gamma=2.0, mat=np.array([[2.0]]))
    ones = fs.GridFunction(g, np.ones(64))
    # zero mode: q(0, 1) = 0 + 2 + 1 = 3
    rep = fs.solve_elliptic(prob, ones, 1.0)
    np.testing.assert_allclose(rep.solution.values, np.ones((64, 1)) / 3.0, atol=1e-13)

    xi5 = g.frequencies[5]
    mode = fs.GridFunction.from_callable(g, lambda x: np.exp(1j * xi5 * x))
    rep = fs.solve_elliptic(prob, mode, 1.0)
    # a = -1, gamma = 2: symbol xi^2 + 2 + 1
    np.testing.assert_allclose(
        rep.solution.values, mode.values / (xi5**2 + 3.0), atol=1e-13
    )


def test_matches_dense_reference_across_configurations():
    rng = np.random.default_rng(2024)
    cases = []
    for gamma in (1.25, 1.5, 2.0):
        for d in (1, 2, 3):
            cases.append((gamma, d, "unfactored", "constant"))
    cases += [(1.5, 2, "factored", "constant"), (1.5, 1, "unfactored", "scaled_decay")]
    for gamma, d, q_form, a_family in cases:
        g = fs.SpatialGrid(8.0, 32)
        w = rng.standard_normal((d, d))
        mat = w @ w.T + d * np.eye(d)
        prob = make_problem(g, gamma=gamma, mat=mat, q_form=q_form, a_family=a_family)
        f = fs.random_band_limited(g, d, rng)
        for lam in (0.0, 1.0, 10.0 * np.exp(1j * math.pi / 6.0)):
            got = fs.solve_elliptic(prob, f, lam).solution
            want = dense_solve(prob, f, lam)
            assert rel_linf(got.values, want.values) < 1e-9, (gamma, d, q_form, lam)


def test_matches_dense_reference_perturbed_operator():
    rng = np.random.default_rng(77)
    g = fs.SpatialGrid(8.0, 32)
    base = np.diag([2.0, 3.0])
    bump = np.array([[0.5, 0.2], [0.2, 0.4]])
    prob = make_problem(g, gamma=1.5, operator=fs.perturbed_operator(base, bump))
    f = fs.random_band_limited(g, 2, rng)
    got = fs.solve_elliptic(prob, f, 1.0).solution
    want = dense_solve(prob, f, 1.0)
    assert rel_linf(got.values, want.values) < 1e-9


def test_apply_operator_matches_dense_multiply():
    g = fs.SpatialGrid(8.0, 32)
    prob = make_problem(g, gamma=1.5, mat=np.array([[2.0, 0.5], [0.5, 1.0]]))
    u = fs.random_band_limited(g, 2, 5)
    got = fs.apply_operator(prob, u).values.reshape(-1)
    want = dense_operator(prob, 0.0) @ u.values.reshape(-1)
    assert rel_linf(got, want) < 1e-10


def test_solve_validations():
    g = fs.SpatialGrid(10.0, 64)
    prob = make_problem(g)
    with pytest.raises(ValueError, match="sector"):
        fs.solve_elliptic(prob, fs.GridFunction(g, np.ones(64)), -1.0)
    with pytest.raises(ValueError, match="grid"):
        fs.solve_elliptic(prob, fs.GridFunction(fs.SpatialGrid(5.0, 64), np.ones(64)), 1.0)
    with pytest.raises(ValueError, match="dimension"):
        fs.solve_elliptic(prob, fs.GridFunction(g, np.ones((64, 2))), 1.0)


def test_singular_symbol_is_rejected():
    g = fs.SpatialGrid(math.pi, 8)  # xi = 1 on the grid makes xi^2 - 1 vanish
    prob = make_problem(g, gamma=2.0, mat=np.array([[-1.0]]))
    with pytest.raises(fs.SolveError, match="singular symbol"):
        fs.solve_elliptic(prob, fs.GridFunction(g, np.ones(8)), 0.0)


def test_factored_form_with_vanishing_coefficient_is_singular():
    g = fs.SpatialGrid(10.0, 64)
    prob = make_problem(g, gamma=1.5, a_family="scaled_decay", q_form="factored")
    with pytest.raises(fs.SolveError, match="singular symbol"):
        fs.solve_elliptic(prob, fs.GridFunction(g, np.ones(64)), 1.0)


def test_coercive_report_canonical_bound():
    g = fs.SpatialGrid(10.0, 128)
    prob = make_problem(g, gamma=2.0)
    f = fs.GridFunction.from_callable(g, lambda x: math.exp(-(x**2)))
    for k in range(-2, 5):
        rep = fs.coercive_report(prob, f, 10.0**k)
        assert rep.coercive_ratio <= 3.01
        assert rep.residual_rel < 1e-12
        # |a| = 1 makes the convolution and plain ledgers agree
        assert rep.meta["plain_form_ratio"] == pytest.approx(rep.coercive_ratio, rel=1e-12)
    rep = fs.coercive_report(prob, f, 1.0, s_set=(0.0, 1.0, 2.0))
    for key in ("a*D^0 u", "a*D^1 u", "a*D^2 u", "D^1 u", "A*u", "lambda*u"):
        assert key in rep.term_norms
    with pytest.raises(ValueError, match="probe order"):
        fs.coercive_report(prob, f, 1.0, s_set=(3.0,))


def test_coercive_report_lambda_zero_uses_zero_power_convention():
    g = fs.SpatialGrid(10.0, 64)
    prob = make_problem(g, gamma=1.5)
    f = fs.GridFunction.from_callable(g, lambda x: math.exp(-(x**2)))
    rep = fs.coercive_report(prob, f, 0.0)
    # 0^0 = 1 keeps the s = gamma weight alive at lambda = 0
    assert rep.meta["weights"] == [0.0, 0.0, 1.0]
    assert math.isfinite(rep.coercive_ratio)


def test_resolvent_sweep_gamma_two_is_contractive():
    g = fs.SpatialGrid(10.0, 64)
    prob = make_problem(g, gamma=2.0)
    rep = fs.resolvent_sweep(
        prob, fs.Sector(math.pi / 4.0), radii=np.logspace(-2.0, 2.0, 9), angles=5
    )
    assert rep.bound <= 1.0 + 1e-10
    assert rep.bound >= 0.9
    assert rep.stable is True
    assert rep.refinement_drift <= 0.05
    assert len(rep.lambdas) == 45 == len(rep.values)
    assert rep.probe_values is None
    with pytest.raises(ValueError, match="angle count"):
        fs.resolvent_sweep(prob, fs.Sector(0.1), radii=[1.0], angles=1)


def test_resolvent_sweep_probes_are_lower_bounds():
    g = fs.SpatialGrid(10.0, 32)
    prob = make_problem(g, gamma=1.5)
    rep = fs.resolvent_sweep(
        prob,
        fs.Sector(math.pi / 4.0),
        radii=[0.1, 1.0, 10.0],
        angles=3,
        probes=2,
        refine=False,
        seed=99,
    )
    assert rep.stable is None
    for exact, probe in zip(rep.values, rep.probe_values):
        assert probe <= exact * (1.0 + 1e-10)
    assert max(rep.probe_values) > 0.0


def test_resolvent_sweep_refined_grid_entirely_singular():
    # xi_k = k on [-pi, pi); Q = xi^2 - 26 + lambda vanishes at xi = +-5, a
    # frequency only the refined N = 16 grid carries.
    g = fs.SpatialGrid(math.pi, 8)
    prob = make_problem(g, gamma=2.0, mat=np.array([[-26.0]]), sector_angle=0.0)
    rep = fs.resolvent_sweep(prob, fs.Sector(0.0), radii=[1.0], angles=2)
    assert all(math.isfinite(v) for v in rep.values)
    assert rep.bound == max(rep.values)
    assert rep.stable is False
    assert rep.refinement_drift is None
    assert [w.label for w in rep.witnesses] == ["singular-symbol"] * 2
    for w in rep.witnesses:
        assert abs(w.location["xi"]) == 5.0
        assert w.location["lambda"] == 1.0
        assert w.magnitude == math.inf


def test_resolvent_sweep_threaded_matches_serial():
    g = fs.SpatialGrid(10.0, 32)
    prob = make_problem(g, gamma=1.5)
    kw = dict(radii=np.logspace(-1, 1, 5), angles=5, refine=False)
    serial = fs.resolvent_sweep(prob, fs.Sector(math.pi / 4.0), threads=1, **kw)
    pooled = fs.resolvent_sweep(prob, fs.Sector(math.pi / 4.0), threads=4, **kw)
    assert serial.values == pooled.values
    assert serial.lambdas == pooled.lambdas


def test_resolvent_large_lambda_limit():
    g = fs.SpatialGrid(10.0, 128)
    prob = make_problem(g, gamma=1.5)
    f = fs.GridFunction.from_callable(g, lambda x: math.exp(-(x**2)))
    rep = fs.solve_elliptic(prob, f, 1e6)
    ratio = rep.term_norms["lambda*u"] / fs.lp_norm(f, 2.0)
    assert 0.98 <= ratio <= 1.0 + 1e-9


def test_separability_constants():
    g = fs.SpatialGrid(10.0, 64)
    prob = make_problem(g, gamma=2.0)
    rep = fs.separability_check(prob, trials=25, seed=31)
    assert rep.passed
    assert rep.constants["C1"] >= 1.0 - 1e-12
    # sup over frequencies of (2 + |xi| + xi^2)/(1 + xi^2) is 1 + (1+sqrt2)/2
    assert rep.constants["C2"] <= 1.0 + (1.0 + math.sqrt(2.0)) / 2.0 + 1e-9
    assert len(rep.meta["ratios"]) == 25
    again = fs.separability_check(prob, trials=25, seed=31)
    assert again.meta["ratios"] == rep.meta["ratios"]
    with pytest.raises(ValueError, match="trial count"):
        fs.separability_check(prob, trials=0)


def test_embedding_probe_single_mode_closed_form():
    g = fs.SpatialGrid(10.0, 64)
    prob = make_problem(g, gamma=2.0, mat=np.array([[4.0]]))
    xi6 = g.frequencies[6]
    u = fs.GridFunction.from_callable(g, lambda x: np.exp(1j * xi6 * x))
    rep = fs.embedding_probe(prob, u, alpha=1.0, s=2.0, p=2.0, q=2.0, mu=0.0, h_set=[0.1, 1.0])
    assert rep.constants["kappa"] == pytest.approx(0.5)
    norm_u = fs.lp_norm(u, 2.0)
    # A^(1/2) = 2, |D^1 u| = xi6 |u|, W-norm = (4 + 1 + xi6^2)|u|
    for h in (0.1, 1.0):
        want = 2.0 * xi6 * norm_u / ((5.0 + xi6**2) * norm_u + norm_u / h)
        assert rep.meta["ratios_by_h"][f"{h:g}"] == pytest.approx(want, rel=1e-10)
    assert rep.constants["max_ratio"] == pytest.approx(
        max(rep.meta["ratios_by_h"].values())
    )


def test_embedding_probe_trivial_power_is_bounded_by_one():
    g = fs.SpatialGrid(10.0, 64)
    prob = make_problem(g, gamma=2.0, mat=np.diag([1.0, 4.0]))
    u = fs.random_band_limited(g, 2, 13)
    rep = fs.embedding_probe(prob, u, alpha=0.0, s=2.0, p=2.0, q=2.0, mu=0.0, h_set=[1.0])
    # kappa = 0, power = A, and ||A u|| is one of the right-hand terms
    assert rep.constants["max_ratio"] < 1.0


def test_embedding_probe_validations():
    g = fs.SpatialGrid(10.0, 64)
    prob = make_problem(g, gamma=2.0, mat=np.diag([1.0, 4.0]))
    u = fs.random_band_limited(g, 2, 13)
    with pytest.raises(ValueError, match="p <= q"):
        fs.embedding_probe(prob, u, alpha=1.0, s=2.0, p=4.0, q=2.0, mu=0.0, h_set=[1.0])
    with pytest.raises(ValueError, match="kappa"):
        fs.embedding_probe(prob, u, alpha=3.0, s=2.0, p=2.0, q=2.0, mu=0.0, h_set=[1.0])
    with pytest.raises(ValueError, match="mu"):
        fs.embedding_probe(prob, u, alpha=1.0, s=2.0, p=2.0, q=2.0, mu=0.9, h_set=[1.0])
    with pytest.raises(ValueError, match="h must be positive"):
        fs.embedding_probe(prob, u, alpha=1.0, s=2.0, p=2.0, q=2.0, mu=0.0, h_set=[0.0])
    pert = make_problem(g, operator=fs.perturbed_operator(np.eye(2), 0.1 * np.eye(2)))
    with pytest.raises(ValueError, match="constant operator"):
        fs.embedding_probe(pert, u, alpha=1.0, s=2.0, p=2.0, q=2.0, mu=0.0, h_set=[1.0])


def _counting_ffts(monkeypatch):
    """Count every np.fft.fft and np.fft.ifft call; returns the live counter."""
    calls = {"n": 0}
    for name in ("fft", "ifft"):
        original = getattr(np.fft, name)

        def counted(*args, _original=original, **kwargs):
            calls["n"] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.mark.parametrize(
    "case, want",
    [("unfactored", 4), ("factored", 5), ("coercive", 4), ("anisotropic", 4)],
)
def test_each_solution_is_transformed_once(monkeypatch, case, want):
    # f in, u back, u once more for the residual, then one inverse for O u
    # (and one for the factored lambda-term); the p = 2 ledger norms are
    # read off that single spectrum with no transform
    g = fs.SpatialGrid(10.0, 256)
    mat = np.array([[2.0, 1.0], [1.0, 2.0]])
    f = fs.random_band_limited(g, 2, 5)
    calls = _counting_ffts(monkeypatch)
    if case == "anisotropic":
        ones = lambda y: np.ones_like(y)  # noqa: E731
        coeffs = fs.BVPCoefficients(ones, ones, ones, mesh_size=2)
        order, a = fs.FractionalOrder(1.5), fs.constant_coefficient(-1.0)
        fs.solve_anisotropic(coeffs, order, a, 1.0, f, g)
    else:
        prob = make_problem(g, mat=mat, q_form="factored" if case == "factored" else "unfactored")
        if case == "coercive":
            fs.coercive_report(prob, f, 1.0)
        else:
            fs.solve_elliptic(prob, f, 1.0)
    assert calls["n"] == want


def _perturbed_problem(g):
    op = fs.perturbed_operator(np.array([[3.0, 1.0], [1.0, 3.0]]), np.eye(2))
    return make_problem(g, a_family="scaled_decay", operator=op)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_separability_matches_physical_ledger(p):
    g = fs.SpatialGrid(10.0, 128)
    prob = _perturbed_problem(g)
    rep = fs.separability_check(prob, trials=6, p=p, seed=17)
    # each trial in physical space: unit-L2 random u, its transform, and
    # one inverse transform and L_p norm per term
    xi = g.frequencies
    gamma = prob.order.gamma
    mults = [prob.a(xi) * fs.frac_power_i_xi(xi, s) for s in (0.0, gamma / 2.0, gamma)]
    rng = np.random.default_rng(17)
    for ratio in rep.meta["ratios"]:
        u_spec = fs.forward_transform(fs.random_band_limited(g, 2, rng))

        def norm(m):
            return fs.lp_norm(fs.apply_multiplier(u_spec, m), p)

        term_sum = sum(norm(m) for m in mults)
        term_sum += norm(prob.A(xi))
        want = term_sum / norm(fs.q_matrices(prob, 0.0))
        assert abs(ratio - want) <= 1e-12 * want


def test_separability_trials_run_no_transform(monkeypatch):
    prob = _perturbed_problem(fs.SpatialGrid(10.0, 128))
    calls = _counting_ffts(monkeypatch)
    fs.separability_check(prob, trials=5)
    assert calls["n"] == 0
