"""Direct solver against the dense reference, and the estimate machinery."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracspec as fs
from conftest import dense_operator, dense_solve, make_problem, rel_linf
from fracspec.core import _band_limited_block
from fracspec.elliptic import _TRIAL_BLOCK


def test_single_mode_closed_form():
    g = fs.SpatialGrid(10.0, 64)
    prob = make_problem(g, gamma=2.0, mat=np.array([[2.0]]))
    ones = fs.GridFunction(g, np.ones(64))
    # zero mode: q(0, 1) = 0 + 2 + 1 = 3
    rep = fs.solve_elliptic(prob, ones, 1.0)
    np.testing.assert_allclose(rep.solution.values, np.ones((64, 1)) / 3.0, atol=1e-13)

    xi5 = g.frequencies[5]
    mode = fs.GridFunction(g, np.exp(1j * xi5 * g.points))
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


@settings(max_examples=60)
@given(
    gamma=st.floats(1.05, 2.0),
    d=st.sampled_from([1, 2, 3]),
    q_form=st.sampled_from(["unfactored", "factored"]),
    radius=st.floats(0.0, 1e3),
    angle=st.floats(-1.0, 1.0),
    half=st.integers(2, 16),
    seed=st.integers(0, 2**32 - 1),
)
def test_matches_dense_reference_property(gamma, d, q_form, radius, angle, half, seed):
    rng = np.random.default_rng(seed)
    g = fs.SpatialGrid(8.0, 2 * half)
    w = rng.standard_normal((d, d))
    prob = make_problem(g, gamma=gamma, mat=w @ w.T + d * np.eye(d), q_form=q_form)
    lam = radius * np.exp(1j * angle * prob.sector.angle)
    f = fs.random_band_limited(g, d, rng)
    got = fs.solve_elliptic(prob, f, lam).solution
    want = dense_solve(prob, f, lam)
    assert rel_linf(got.values, want.values) < 1e-9


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
    got = fs.apply_multiplier(fs.forward_transform(u), fs.q_matrices(prob, 0.0)).values.reshape(-1)
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


def test_residual_gate_rejects_a_solve_that_misses_it():
    # a = -1e8 widens the symbol's range until rounding alone leaves a
    # residual of 1.5e-7, far above the gate of 1e-9 * ||f|| = 1.1e-9
    g = fs.SpatialGrid(10.0, 64)
    prob = make_problem(g, gamma=2.0, a_value=-1e8)
    with pytest.raises(fs.SolveError, match="^residual"):
        fs.solve_elliptic(prob, fs.GridFunction(g, np.exp(-g.points**2)), 1.0)


def test_coercive_report_canonical_bound():
    g = fs.SpatialGrid(10.0, 128)
    prob = make_problem(g, gamma=2.0)
    f = fs.GridFunction(g, np.exp(-g.points**2))
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
    f = fs.GridFunction(g, np.exp(-g.points**2))
    rep = fs.coercive_report(prob, f, 0.0)
    # 0^0 = 1 keeps the s = gamma weight alive at lambda = 0
    assert rep.meta["weights"] == [0.0, 0.0, 1.0]
    assert math.isfinite(rep.coercive_ratio)


@pytest.mark.parametrize("s_set,count", [(None, 7), ((0.5, 1.0), 6)])
def test_coercive_report_takes_a_star_d_gamma_u_once(monkeypatch, s_set, count):
    """The solve's ledger takes ||a*D^gamma u|| and ||A*u||; the probe loop
    takes ||a*D^s u|| and ||D^s u|| at each s, except ||a*D^gamma u||, which
    it reads from the ledger."""
    from fracspec import elliptic

    calls = []
    norm = elliptic.multiplier_norm

    def counted(*args):
        calls.append(args)
        return norm(*args)

    monkeypatch.setattr(elliptic, "multiplier_norm", counted)
    g = fs.SpatialGrid(10.0, 64)
    prob = make_problem(g, gamma=1.5, a_family="scaled_decay")
    rep = fs.coercive_report(prob, fs.GridFunction(g, np.exp(-g.points**2)), 1.0, s_set=s_set)
    assert len(calls) == count
    # the ledger's value has the bits of a fresh norm
    u_spec = fs.forward_transform(rep.solution)
    fresh = norm(u_spec, prob.a(g.frequencies) * fs.frac_power_i_xi(g.frequencies, 1.5), 2.0)
    assert rep.term_norms["a*D^1.5 u"] == fresh


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


def test_resolvent_large_lambda_limit():
    g = fs.SpatialGrid(10.0, 128)
    prob = make_problem(g, gamma=1.5)
    f = fs.GridFunction(g, np.exp(-g.points**2))
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
    u = fs.GridFunction(g, np.exp(1j * xi6 * g.points))
    rep = fs.embedding_probe(
        prob, [u], alpha=1.0, s=2.0, p=2.0, q=2.0, mu=0.0, h_set=[0.1, 1.0]
    )[0]
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
    rep = fs.embedding_probe(prob, [u], alpha=0.0, s=2.0, p=2.0, q=2.0, mu=0.0, h_set=[1.0])[0]
    # kappa = 0, power = A, and ||A u|| is one of the right-hand terms
    assert rep.constants["max_ratio"] < 1.0


@pytest.mark.parametrize(
    "scale, overflows, a", [(1e306, False, 100.0), (3e306, True, 100.0), (1e300, True, 1e10)]
)
def test_embedding_draw_whose_norms_overflow_is_at_fault_a(scale, overflows, a):
    """With A = 100 I a unit draw scaled by 3e306 has a finite field A u whose
    norms overflow, and with A = 1e10 I one scaled by 1e300 a field A u that
    is not finite: each an OverflowError at fault ``A``; with A = 100 I and
    scaled by 1e306 it passes."""
    g = fs.SpatialGrid(10.0, 64)
    prob = make_problem(g, gamma=1.5, mat=a * np.eye(2))
    u = scale * fs.random_band_limited(g, 2, 5)
    args = dict(alpha=1.0, s=2.0, p=2.0, q=2.0, mu=0.0, h_set=[0.1, 1.0])
    if not overflows:
        assert math.isfinite(fs.embedding_probe(prob, [u], **args)[0].meta["lhs"])
        return
    with pytest.raises(OverflowError, match="^the norms of embedding draw 1 overflow$") as info:
        fs.embedding_probe(prob, [u], **args)
    assert info.value.arg == "A"


def test_embedding_probe_validations():
    g = fs.SpatialGrid(10.0, 64)
    prob = make_problem(g, gamma=2.0, mat=np.diag([1.0, 4.0]))
    u = fs.random_band_limited(g, 2, 13)
    with pytest.raises(ValueError, match="p <= q"):
        fs.embedding_probe(prob, [u], alpha=1.0, s=2.0, p=4.0, q=2.0, mu=0.0, h_set=[1.0])
    with pytest.raises(ValueError, match="kappa"):
        fs.embedding_probe(prob, [u], alpha=3.0, s=2.0, p=2.0, q=2.0, mu=0.0, h_set=[1.0])
    with pytest.raises(ValueError, match="mu"):
        fs.embedding_probe(prob, [u], alpha=1.0, s=2.0, p=2.0, q=2.0, mu=0.9, h_set=[1.0])
    with pytest.raises(ValueError, match="h must be positive"):
        fs.embedding_probe(prob, [u], alpha=1.0, s=2.0, p=2.0, q=2.0, mu=0.0, h_set=[0.0])
    pert = make_problem(g, operator=fs.perturbed_operator(np.eye(2), 0.1 * np.eye(2)))
    with pytest.raises(ValueError, match="constant operator"):
        fs.embedding_probe(pert, [u], alpha=1.0, s=2.0, p=2.0, q=2.0, mu=0.0, h_set=[1.0])
    # every draw is checked before any is probed
    other = fs.random_band_limited(fs.SpatialGrid(10.0, 32), 2, 13)
    with pytest.raises(ValueError, match="does not match the problem grid"):
        fs.embedding_probe(prob, [u, other], alpha=1.0, s=2.0, p=2.0, q=2.0, mu=0.0, h_set=[1.0])


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
        fs.solve_anisotropic(coeffs, order, a, 1.0, f)
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


def _per_trial_separability(prob, trials, p, seed):
    """``separability_check`` one trial at a time: each trial's spectrum from
    ``band_limited_spectrum`` and its five norms from ``multiplier_norm``.
    Returns the ratios and the lower-bound witness trials, or the number of
    the first trial whose norms are not finite."""
    xi = prob.grid.frequencies
    gamma = prob.order.gamma
    rng = np.random.default_rng(seed)
    ratios, witnesses = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        mults = [prob.a(xi) * fs.frac_power_i_xi(xi, s) for s in (0.0, gamma / 2.0, gamma)]
        mults += [prob.A(xi), fs.q_matrices(prob, 0.0)]
        for t in range(trials):
            u_spec = fs.band_limited_spectrum(prob.grid, prob.dim, rng)
            try:
                *terms, ou_norm = [fs.multiplier_norm(u_spec, m, p) for m in mults]
            except ValueError:  # a non-finite image
                return t + 1
            term_sum = sum(terms)
            if not (math.isfinite(term_sum) and math.isfinite(ou_norm)):
                return t + 1
            ratios.append(term_sum / ou_norm)
            if term_sum < ou_norm:
                witnesses.append(t)
    return ratios, witnesses


def _separability_problem(d, perturbed, q_form, weights=(-1.0, 1.0), scale=1.0):
    """A problem on N = 64 with a d x d operator, not symmetric for d > 1,
    and the weights (a_value, operator weight). Its symbol images all scale
    with ``scale``, except A u in the factored form."""
    g = fs.SpatialGrid(10.0, 64)
    a_value, op_weight = weights
    base = np.diag(np.arange(2.0, d + 2.0)) + 0.5 * np.eye(d, k=1) + 0.25 * np.eye(d, k=-1)
    base *= op_weight * (scale if q_form == "unfactored" else 1.0)
    if perturbed:
        op = fs.perturbed_operator(base, np.eye(d) * base[0, 0])
    else:
        op = fs.constant_operator(base)
    return make_problem(
        g, a_value=scale * a_value, a_family="scaled_decay", operator=op, q_form=q_form
    )


_SEPARABILITY_CASES = dict(
    d=st.sampled_from([1, 2, 3]),
    perturbed=st.booleans(),
    q_form=st.sampled_from(["unfactored", "factored"]),
    p=st.sampled_from([2.0, 3.0]),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=40)
@given(
    # the factored form with the heavy weights has ratios on both sides of 1
    weights=st.sampled_from([(-1.0, 1.0), (-20.0, 5.0)]),
    trials=st.integers(1, 3 * _TRIAL_BLOCK).filter(lambda t: t % _TRIAL_BLOCK),
    **_SEPARABILITY_CASES,
)
def test_separability_blocks_match_per_trial_norms(d, perturbed, q_form, p, seed, weights, trials):
    prob = _separability_problem(d, perturbed, q_form, weights)
    ratios, witnesses = _per_trial_separability(prob, trials, p, seed)
    rep = fs.separability_check(prob, trials=trials, p=p, seed=seed)
    np.testing.assert_allclose(rep.meta["ratios"], ratios, rtol=1e-13, atol=0.0)
    assert [w.location["trial"] for w in rep.witnesses] == witnesses
    assert rep.passed == (not witnesses)


@settings(max_examples=20)
@given(**{**_SEPARABILITY_CASES, "q_form": st.just("unfactored")}, k=st.sampled_from([600, 1000]))
def test_separability_ratios_hold_where_the_power_sums_leave_the_float_range(
    d, perturbed, q_form, p, seed, k
):
    """Every symbol image of the unfactored form scales with the symbol, so
    the ratios do not: at a scale 2^k whose raw power sums of every norm
    under- or overflow, they match the per-trial ratios of the unscaled
    problem to rounding."""
    trials = _TRIAL_BLOCK + 3
    ratios, _ = _per_trial_separability(_separability_problem(d, perturbed, q_form), trials, p, seed)
    big = _separability_problem(d, perturbed, q_form, scale=2.0**k)
    rep = fs.separability_check(big, trials=trials, p=p, seed=seed)
    np.testing.assert_allclose(rep.meta["ratios"], ratios, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_separability_multiplier_not_finite_off_the_band_fails_trial_one(p):
    g = fs.SpatialGrid(10.0, 64)
    cut = g.frequencies[g.size // 4]
    spike = fs.CoefficientSymbol(
        "spike", lambda xi: np.where(np.abs(xi) > cut, np.inf, -1.0), lambda xi: np.zeros(xi.shape)
    )
    prob = fs.EllipticProblem(
        fs.FractionalOrder(1.5), spike, fs.constant_operator(np.eye(2)), fs.Sector(0.5), g
    )
    # finite on every kept mode, so only inf * 0 off the band fails the trial
    assert np.isfinite(spike(g.frequencies[np.abs(g.indices) <= g.size // 4])).all()
    assert _per_trial_separability(prob, 3, p, 5) == 1
    with pytest.raises(OverflowError, match="^the norms of separability trial 1 overflow$"):
        fs.separability_check(prob, trials=3, p=p, seed=5)


def test_separability_zero_operator_norm_raises_at_its_trial():
    # 2L overflows, so Parseval's weight 1/(2L) takes every p = 2 norm to 0
    prob = make_problem(fs.SpatialGrid(1e308, 64))
    with pytest.raises(ZeroDivisionError):
        _per_trial_separability(prob, 3, 2.0, 5)
    with pytest.raises(ZeroDivisionError, match=r"^\|\|O u\|\| of separability trial 1 is 0$"):
        fs.separability_check(prob, trials=3, seed=5)


def test_separability_block_draw_is_the_per_trial_stream():
    g = fs.SpatialGrid(10.0, 64)
    keep = np.abs(g.indices) <= g.size // 4
    block_rng, trial_rng = np.random.default_rng(5), np.random.default_rng(5)
    block = _band_limited_block(block_rng, _TRIAL_BLOCK + 3, int(keep.sum()), 3)
    for spec in block:
        want = fs.band_limited_spectrum(g, 3, trial_rng).values
        assert np.ascontiguousarray(spec.T).tobytes() == want[keep].tobytes()
        assert not want[~keep].any()
    assert block_rng.bit_generator.state == trial_rng.bit_generator.state


def test_separability_memory_does_not_grow_with_trials():
    prob = _perturbed_problem(fs.SpatialGrid(10.0, 4096))

    def peak(trials):
        tracemalloc.start()
        try:
            fs.separability_check(prob, trials=trials)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    fs.separability_check(prob, trials=1)
    one, small, large = peak(1), peak(10), peak(100)
    # One trial keeps the band of each multiplier, building the full-grid ones
    # in turn: 0.63 MB, where holding all five full ones took 0.96 MB.
    assert one < 0.75 * 2**20
    # The draws of 100 trials alone are 100 x 2049 x 2 complex values, 6.6 MB;
    # one block of them is 0.5 MB, beside the symbol stacks of the problem.
    assert small < 3 * 2**20
    assert large < small + 2**16
