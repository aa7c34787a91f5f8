"""Time stepping against per-mode closed forms, plus the system solver."""

import math

import numpy as np
import pytest

import fracspec as fs
from fracspec import parabolic
from conftest import make_problem


def _profiled(grid, times, profile, phi_vals):
    """Separable forcing profile(t) * phi(x) as a SpaceTimeFunction."""
    return fs.SpaceTimeFunction(grid, times, profile[:, None] * phi_vals[None, :])


def _gauss(grid):
    return np.exp(-grid.points**2)


def test_zero_forcing_stays_zero():
    g = fs.SpatialGrid(10.0, 32)
    prob = fs.ParabolicProblem(make_problem(g), 1.0, 8)
    f = fs.SpaceTimeFunction(g, prob.times, np.zeros((9, 32)))
    assert np.all(fs.solve_parabolic(prob, f).values == 0.0)
    for scheme in ("implicit-euler", "crank-nicolson"):
        assert np.all(fs.solve_parabolic(prob, f, scheme).values == 0.0)


def test_initial_slice_is_zero():
    g = fs.SpatialGrid(10.0, 32)
    prob = fs.ParabolicProblem(make_problem(g), 1.0, 8)
    f = _profiled(g, prob.times, np.ones(9), _gauss(g))
    u = fs.solve_parabolic(prob, f)
    assert np.all(u.values[0] == 0.0)


def test_single_mode_constant_forcing_closed_form():
    g = fs.SpatialGrid(10.0, 64)
    prob = fs.ParabolicProblem(make_problem(g, gamma=2.0, mat=np.array([[2.0]])), 2.0, 16)
    xi5 = g.frequencies[5]
    q = xi5**2 + 2.0
    phi = np.exp(1j * xi5 * g.points)
    f = _profiled(g, prob.times, np.ones(17), phi)
    u = fs.solve_parabolic(prob, f)
    # u_t = -q u + 1 per mode: u(t) = (1 - e^(-q t)) / q
    want = ((1.0 - np.exp(-q * prob.times)) / q)[:, None] * phi[None, :]
    assert np.max(np.abs(u.values[:, :, 0] - want)) < 1e-9


def test_long_horizon_reaches_elliptic_steady_state():
    g = fs.SpatialGrid(10.0, 64)
    core = make_problem(g, gamma=1.5)
    prob = fs.ParabolicProblem(core, 50.0, 200)
    phi = _gauss(g)
    f = _profiled(g, prob.times, np.ones(201), phi)
    u_final = fs.solve_parabolic(prob, f).values[-1]
    steady = fs.solve_elliptic(core, fs.GridFunction(g, phi), 0.0).solution.values
    assert np.max(np.abs(u_final - steady)) < 1e-6


def _sine_reference(grid, times, phi_vals, diag_a):
    """Per-mode closed form for u_t = -q u + sin(t) phi, u(0) = 0."""
    xi = 2.0 * np.pi * np.fft.fftfreq(grid.size, d=grid.spacing)
    q = xi**2 + diag_a
    phat = np.fft.fft(phi_vals)
    t = times[:, None]
    shape = (q * np.sin(t) - np.cos(t) + np.exp(-q * t)) / (1.0 + q**2)
    return np.fft.ifft(phat[None, :] * shape, axis=1).real


@pytest.mark.parametrize(
    "scheme,order",
    [("implicit-euler", 1.0), ("crank-nicolson", 2.0)],
)
def test_scheme_convergence_order(scheme, order):
    g = fs.SpatialGrid(10.0, 64)
    core = make_problem(g, gamma=2.0, mat=np.array([[2.0]]))
    horizon = 2.0
    phi = _gauss(g)
    errs = []
    for steps in (64, 128, 256, 512):
        prob = fs.ParabolicProblem(core, horizon, steps)
        f = _profiled(g, prob.times, np.sin(prob.times), phi)
        u = fs.solve_parabolic(prob, f, scheme)
        want = _sine_reference(g, prob.times, phi, 2.0)
        errs.append(np.max(np.abs(u.values[-1, :, 0] - want[-1])))
    slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
    for slope in slopes:
        assert abs(slope - order) < 0.15, (scheme, errs, slopes)


def test_exact_solver_second_order_on_smooth_forcing():
    g = fs.SpatialGrid(10.0, 64)
    core = make_problem(g, gamma=2.0, mat=np.array([[2.0]]))
    phi = _gauss(g)
    errs = []
    for steps in (64, 128, 256):
        prob = fs.ParabolicProblem(core, 2.0, steps)
        f = _profiled(g, prob.times, np.sin(prob.times), phi)
        u = fs.solve_parabolic(prob, f)
        want = _sine_reference(g, prob.times, phi, 2.0)
        errs.append(np.max(np.abs(u.values[-1, :, 0] - want[-1])))
    # piecewise-linear interpolation of sin is second order
    for i in range(2):
        assert 3.4 < errs[i] / errs[i + 1] < 4.6


def test_causality_of_ramp_forcing():
    g = fs.SpatialGrid(10.0, 32)
    prob = fs.ParabolicProblem(make_problem(g), 1.0, 16)
    m0 = 6
    profile = np.maximum(prob.times - prob.times[m0], 0.0)
    f = _profiled(g, prob.times, profile, _gauss(g))
    u = fs.solve_parabolic(prob, f)
    assert np.all(u.values[: m0 + 1] == 0.0)
    assert np.max(np.abs(u.values[m0 + 1 :])) > 0.0
    for scheme in ("implicit-euler", "crank-nicolson"):
        v = fs.solve_parabolic(prob, f, scheme)
        assert np.all(v.values[: m0 + 1] == 0.0)


def test_linearity():
    g = fs.SpatialGrid(10.0, 32)
    prob = fs.ParabolicProblem(make_problem(g, gamma=1.25), 1.0, 12)
    rng = np.random.default_rng(8)
    f1 = fs.SpaceTimeFunction(g, prob.times, rng.standard_normal((13, 32)))
    f2 = fs.SpaceTimeFunction(g, prob.times, rng.standard_normal((13, 32)))
    fsum = fs.SpaceTimeFunction(g, prob.times, f1.values + 2.0 * f2.values)
    u1 = fs.solve_parabolic(prob, f1).values
    u2 = fs.solve_parabolic(prob, f2).values
    usum = fs.solve_parabolic(prob, fsum).values
    scale = np.max(np.abs(usum))
    assert np.max(np.abs(usum - (u1 + 2.0 * u2))) < 1e-12 * max(scale, 1.0)


def test_coercive_report_residual_shrinks_with_dt():
    g = fs.SpatialGrid(10.0, 64)
    core = make_problem(g, gamma=1.5)
    phi = _gauss(g)
    rels = {}
    for steps in (256, 1024):
        prob = fs.ParabolicProblem(core, 2.0, steps)
        f = _profiled(g, prob.times, np.sin(prob.times), phi)
        rep = fs.parabolic_coercive_report(prob, f)
        rels[steps] = rep.residual_rel
        assert math.isfinite(rep.coercive_ratio)
        for key in ("d_t u", "a*D^1.5 u", "A*u"):
            assert key in rep.term_norms
    assert rels[256] <= 2e-2
    assert rels[1024] <= 5e-4
    # central differencing is second order in dt
    assert rels[1024] < rels[256] / 8.0


def test_coercive_report_shape_gate():
    g = fs.SpatialGrid(10.0, 32)
    prob = fs.ParabolicProblem(make_problem(g), 1.0, 8)
    f = _profiled(g, prob.times, np.ones(9), _gauss(g))
    other = fs.SpaceTimeFunction(g, np.linspace(0.0, 1.0, 5), np.ones((5, 32)))
    with pytest.raises(ValueError, match="shapes do not match"):
        fs.parabolic_coercive_report(prob, f, u=other)


def test_dissipativity_gate():
    g = fs.SpatialGrid(10.0, 32)
    prob = fs.ParabolicProblem(make_problem(g, mat=np.array([[-2.0]])), 1.0, 8)
    f = _profiled(g, prob.times, np.ones(9), _gauss(g))
    with pytest.raises(fs.SolveError, match="not dissipative"):
        fs.solve_parabolic(prob, f)


def test_problem_and_forcing_validations():
    g = fs.SpatialGrid(10.0, 32)
    core = make_problem(g)
    with pytest.raises(ValueError, match="horizon"):
        fs.ParabolicProblem(core, 0.0, 8)
    with pytest.raises(ValueError, match="time steps"):
        fs.ParabolicProblem(core, 1.0, 1)
    prob = fs.ParabolicProblem(core, 1.0, 8)
    wrong_grid = fs.SpaceTimeFunction(fs.SpatialGrid(5.0, 32), prob.times, np.ones((9, 32)))
    with pytest.raises(ValueError, match="grid mismatch"):
        fs.solve_parabolic(prob, wrong_grid)
    wrong_times = fs.SpaceTimeFunction(g, np.linspace(0.0, 1.0, 5), np.ones((5, 32)))
    with pytest.raises(ValueError, match="time samples"):
        fs.solve_parabolic(prob, wrong_times)
    ok = fs.SpaceTimeFunction(g, prob.times, np.ones((9, 32)))
    with pytest.raises(ValueError, match="unknown scheme"):
        fs.solve_parabolic(prob, ok, "leapfrog")


def test_system_matrix_gates():
    mat = fs.SystemMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert mat.size == 2
    assert mat.coercivity == pytest.approx(1.0)
    with pytest.raises(ValueError, match="positive definite.*-1"):
        fs.SystemMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        fs.SystemMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        fs.SystemMatrix(np.ones((2, 3)))


def test_expm_matches_scipy_bit_for_bit():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    g = fs.SpatialGrid(10.0, 32)
    core = make_problem(g, mat=np.array([[2.0, 1.0], [1.0, 2.0]]))
    q0 = fs.q_matrices(core, 0.0)
    dt = 0.25
    e, p1, p2 = parabolic._step_matrices(q0, dt)
    d = q0.shape[1]
    for k in (0, 5, 31):
        aug = np.zeros((3 * d, 3 * d), dtype=complex)
        aug[:d, :d] = -dt * q0[k]
        aug[:d, d : 2 * d] = np.eye(d)
        aug[d : 2 * d, 2 * d :] = np.eye(d)
        want = scipy_linalg.expm(aug)
        assert parabolic.expm(aug).tobytes() == want.tobytes()
        blocks = np.concatenate([e[k], p1[k], p2[k]], axis=1)
        assert blocks.tobytes() == want[:d].tobytes()


def test_system_elliptic_diagonal_decouples():
    g = fs.SpatialGrid(10.0, 32)
    mat = fs.SystemMatrix(np.diag([2.0, 5.0]))
    order = fs.FractionalOrder(1.5)
    a = fs.constant_coefficient(-1.0)
    f = fs.random_band_limited(g, 2, 3)
    rep = fs.solve_system(mat, order, a, 1.0, f, grid=g)
    for i, diag in enumerate((2.0, 5.0)):
        scalar = make_problem(g, gamma=1.5, mat=np.array([[diag + 1.0]]))
        fi = fs.GridFunction(g, f.values[:, i])
        want = fs.solve_elliptic(scalar, fi, 0.0).solution.values[:, 0]
        assert np.max(np.abs(rep.solution.values[:, i] - want)) < 1e-12
    assert "A-weighted u" in rep.term_norms
    assert rep.meta["mode"] == "elliptic"
    assert rep.meta["coercivity"] == pytest.approx(2.0)


def test_system_literal_shift_moves_lambda_into_coupling():
    g = fs.SpatialGrid(10.0, 32)
    mat = fs.SystemMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    f = fs.random_band_limited(g, 2, 4)
    order = fs.FractionalOrder(1.5)
    a = fs.constant_coefficient(-1.0)
    rep = fs.solve_system(mat, order, a, 1.0, f, grid=g, literal_shift=True)
    explicit = make_problem(g, gamma=1.5, mat=np.array([[3.0, 2.0], [2.0, 3.0]]))
    want = fs.solve_elliptic(explicit, f, 0.0).solution.values
    assert np.max(np.abs(rep.solution.values - want)) < 1e-12
    assert rep.meta["literal_shift"] is True


def test_system_parabolic_mode():
    g = fs.SpatialGrid(10.0, 32)
    mat = fs.SystemMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    order = fs.FractionalOrder(1.5)
    a = fs.constant_coefficient(-1.0)
    steps = 128
    times = np.linspace(0.0, 1.0, steps + 1)
    phi = fs.random_band_limited(g, 2, 5)
    f = fs.SpaceTimeFunction(g, times, np.broadcast_to(phi.values, (steps + 1, 32, 2)).copy())
    rep = fs.solve_system(mat, order, a, 0.5, f, mode="parabolic", grid=g,
                          horizon=1.0, steps=steps)
    assert rep.residual_rel <= 1e-2
    for key in ("d_t u", "a*D^1.5 u", "A*u", "A-weighted u"):
        assert key in rep.term_norms
    assert rep.meta["mode"] == "parabolic"
    with pytest.raises(ValueError, match="horizon and steps"):
        fs.solve_system(mat, order, a, 0.5, f, mode="parabolic", grid=g)
    with pytest.raises(ValueError, match="GridFunction"):
        fs.solve_system(mat, order, a, 0.5, f, mode="elliptic", grid=g)
    with pytest.raises(ValueError, match="SpaceTimeFunction"):
        fs.solve_system(mat, order, a, 0.5, phi, mode="parabolic", grid=g,
                        horizon=1.0, steps=steps)
    with pytest.raises(ValueError, match="mode must be"):
        fs.solve_system(mat, order, a, 0.5, phi, mode="banana", grid=g)
