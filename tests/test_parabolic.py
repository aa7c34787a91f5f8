"""Time stepping against per-mode closed forms, plus the system solver."""

import math
import warnings

import numpy as np
import pytest

import fracspec as fs
from fracspec import parabolic, symbols
from conftest import dense_evolve, make_problem, rel_linf


def _profiled(grid, times, profile, phi_vals):
    """Separable forcing profile(t) * phi(x) as a SpaceTimeFunction."""
    return fs.SpaceTimeFunction(grid, times, profile[:, None] * phi_vals[None, :])


def _gauss(grid):
    return np.exp(-grid.points**2)


@pytest.mark.parametrize("scheme", parabolic.SCHEMES)
def test_overflowing_time_step_is_at_fault_dt(scheme):
    prob = make_problem(fs.SpatialGrid(10.0, 64))
    f = _profiled(prob.grid, np.linspace(0.0, 1e308, 5), np.ones(5), _gauss(prob.grid))
    with pytest.raises(OverflowError, match="time step") as exc:
        fs.solve_parabolic(prob, f, scheme)
    assert exc.value.arg == "dt"


def test_zero_forcing_stays_zero():
    g = fs.SpatialGrid(10.0, 32)
    prob = make_problem(g)
    f = fs.SpaceTimeFunction(g, np.linspace(0.0, 1.0, 9), np.zeros((9, 32)))
    assert np.all(fs.solve_parabolic(prob, f).values == 0.0)
    for scheme in ("implicit-euler", "crank-nicolson"):
        assert np.all(fs.solve_parabolic(prob, f, scheme).values == 0.0)


def test_initial_slice_is_zero():
    g = fs.SpatialGrid(10.0, 32)
    prob = make_problem(g)
    f = _profiled(g, np.linspace(0.0, 1.0, 9), np.ones(9), _gauss(g))
    u = fs.solve_parabolic(prob, f)
    assert np.all(u.values[0] == 0.0)


def test_single_mode_constant_forcing_closed_form():
    g = fs.SpatialGrid(10.0, 64)
    prob = make_problem(g, gamma=2.0, mat=np.array([[2.0]]))
    times = np.linspace(0.0, 2.0, 17)
    xi5 = g.frequencies[5]
    q = xi5**2 + 2.0
    phi = np.exp(1j * xi5 * g.points)
    f = _profiled(g, times, np.ones(17), phi)
    u = fs.solve_parabolic(prob, f)
    # u_t = -q u + 1 per mode: u(t) = (1 - e^(-q t)) / q
    want = ((1.0 - np.exp(-q * times)) / q)[:, None] * phi[None, :]
    assert np.max(np.abs(u.values[:, :, 0] - want)) < 1e-9


def test_solve_and_ledger_take_the_forcing_time_grid():
    g = fs.SpatialGrid(10.0, 64)
    prob = make_problem(g, gamma=2.0, mat=np.array([[2.0]]))
    times = np.linspace(0.0, 0.75, 7)
    xi3 = g.frequencies[3]
    q = xi3**2 + 2.0
    phi = np.exp(1j * xi3 * g.points)
    f = _profiled(g, times, np.ones(7), phi)
    rep = fs.parabolic_coercive_report(prob, f)
    assert rep.meta["steps"] == 6
    assert rep.meta["horizon"] == 0.75
    assert np.array_equal(rep.solution.times, f.times)
    want = ((1.0 - np.exp(-q * times)) / q)[:, None] * phi[None, :]
    assert np.max(np.abs(rep.solution.values[:, :, 0] - want)) < 1e-9


def test_long_horizon_reaches_elliptic_steady_state():
    g = fs.SpatialGrid(10.0, 64)
    core = make_problem(g, gamma=1.5)
    phi = _gauss(g)
    f = _profiled(g, np.linspace(0.0, 50.0, 201), np.ones(201), phi)
    u_final = fs.solve_parabolic(core, f).values[-1]
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
        times = np.linspace(0.0, horizon, steps + 1)
        f = _profiled(g, times, np.sin(times), phi)
        u = fs.solve_parabolic(core, f, scheme)
        want = _sine_reference(g, times, phi, 2.0)
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
        times = np.linspace(0.0, 2.0, steps + 1)
        f = _profiled(g, times, np.sin(times), phi)
        u = fs.solve_parabolic(core, f)
        want = _sine_reference(g, times, phi, 2.0)
        errs.append(np.max(np.abs(u.values[-1, :, 0] - want[-1])))
    # piecewise-linear interpolation of sin is second order
    for i in range(2):
        assert 3.4 < errs[i] / errs[i + 1] < 4.6


def test_causality_of_ramp_forcing():
    g = fs.SpatialGrid(10.0, 32)
    prob = make_problem(g)
    times = np.linspace(0.0, 1.0, 17)
    m0 = 6
    profile = np.maximum(times - times[m0], 0.0)
    f = _profiled(g, times, profile, _gauss(g))
    u = fs.solve_parabolic(prob, f)
    assert np.all(u.values[: m0 + 1] == 0.0)
    assert np.max(np.abs(u.values[m0 + 1 :])) > 0.0
    for scheme in ("implicit-euler", "crank-nicolson"):
        v = fs.solve_parabolic(prob, f, scheme)
        assert np.all(v.values[: m0 + 1] == 0.0)


def test_linearity():
    g = fs.SpatialGrid(10.0, 32)
    prob = make_problem(g, gamma=1.25)
    times = np.linspace(0.0, 1.0, 13)
    rng = np.random.default_rng(8)
    f1 = fs.SpaceTimeFunction(g, times, rng.standard_normal((13, 32)))
    f2 = fs.SpaceTimeFunction(g, times, rng.standard_normal((13, 32)))
    fsum = fs.SpaceTimeFunction(g, times, f1.values + 2.0 * f2.values)
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
        times = np.linspace(0.0, 2.0, steps + 1)
        f = _profiled(g, times, np.sin(times), phi)
        rep = fs.parabolic_coercive_report(core, f)
        rels[steps] = rep.residual_rel
        assert math.isfinite(rep.coercive_ratio)
        for key in ("d_t u", "a*D^1.5 u", "A*u"):
            assert key in rep.term_norms
    assert rels[256] <= 2e-2
    assert rels[1024] <= 5e-4
    # central differencing is second order in dt
    assert rels[1024] < rels[256] / 8.0


def test_coercive_report_residual_uses_the_factored_symbol():
    # a = -1 makes a ((i xi)^gamma - A) = a (i xi)^gamma + A: one operator O
    # in two forms, so the two ledgers must report one residual
    g = fs.SpatialGrid(10.0, 64)
    mat = np.array([[2.0, 1.0], [1.0, 2.0]])
    rels = []
    for q_form, sign in (("unfactored", 1.0), ("factored", -1.0)):
        prob = make_problem(g, mat=sign * mat, q_form=q_form)
        times = np.linspace(0.0, 1.0, 17)
        phi = np.tile(_gauss(g)[:, None], (1, 2))
        f = fs.SpaceTimeFunction(g, times, np.sin(times)[:, None, None] * phi)
        rels.append(fs.parabolic_coercive_report(prob, f).residual_rel)
    assert rels[0] < 1e-2
    assert rels[1] == pytest.approx(rels[0], rel=1e-12)


def _random_forcing(grid, dim, seed):
    """Non-separable complex Gaussian forcing on 16 steps over [0, 1]."""
    rng = np.random.default_rng(seed)
    shape = (17, grid.size, dim)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return fs.SpaceTimeFunction(grid, np.linspace(0.0, 1.0, 17), vals)


_COUPLED = np.array([[2.0, 1.0], [1.0, 2.0]])


_NON_NORMAL = np.array([[2.0, 1.5], [0.0, 1.0]])


@pytest.mark.parametrize(
    "scheme, mat",
    [pytest.param(s, _COUPLED, id=s) for s in parabolic.SCHEMES]
    + [pytest.param("exact", _NON_NORMAL, id="exact-non-normal")],
)
def test_spectral_evolution_matches_solve_parabolic(scheme, mat):
    g = fs.SpatialGrid(10.0, 64)
    prob = make_problem(g, mat=mat, a_family="scaled_decay")
    f = _random_forcing(g, 2, 5)
    q0 = parabolic._dissipative_gate(prob)
    fhat = g.to_spectral(f.values).transpose(0, 2, 1)
    uhat = parabolic._evolve(q0, 1.0 / 16, 16, fhat.__getitem__, scheme)
    u = fs.solve_parabolic(prob, f, scheme)
    assert u.values.flags.c_contiguous
    want = g.to_physical(uhat.T)
    if scheme == "exact" and prob._symbol.normal is not None:
        # a normal Q steps in its eigenbasis, which rounds otherwise
        assert rel_linf(u.values[-1], want) <= 1e-12
    else:
        assert np.array_equal(want, u.values[-1])


def _phi_case_points():
    """z = r e^(i theta) over r from 1e-12 to 1e4, both sides of |z| = 1
    included, and theta on [pi/2, pi] and its mirror: Re z <= 0."""
    radii = np.concatenate([np.logspace(-12, 4, 65), [1.0 - 1e-15, 1.0, 1.0 + 1e-15, 1.0 + 1e-9]])
    angles = np.linspace(0.5 * np.pi, np.pi, 9)
    return (radii[:, None] * np.exp(1j * np.concatenate([angles, -angles]))[None, :]).ravel()


def test_phi_matches_the_augmented_scalar_exponential():
    """e^z, phi1(z), phi2(z) against the top row of scipy's expm of the 3x3
    block [[z, 1, 0], [0, 0, 1], [0, 0, 0]], the d = 1 augmented matrix."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    z = _phi_case_points()
    got = np.stack(parabolic._phi(z), axis=1)
    aug = np.zeros((z.size, 3, 3), dtype=complex)
    aug[:, 0, 0], aug[:, 0, 1], aug[:, 1, 2] = z, 1.0, 1.0
    want = np.array([scipy_linalg.expm(m)[0] for m in aug])
    # e^z underflows to 0 in both at Re z below about -745
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def _reference_evolve(q0, dt, fhat, scheme):
    """All states of the time loop on (N, d) spectra, with its step matrices
    stacked (N, d, d) and contracted frequency by frequency."""
    eye = np.eye(q0.shape[1])[None, :, :]

    def mul(m, v):
        return np.einsum("kij,kj->ki", m, v)

    if scheme == "exact":
        e, p1, p2 = parabolic._step_matrices(q0, dt)

        def step(u, f0, f1):
            return mul(e, u) + dt * (mul(p1, f0) + mul(p2, f1 - f0))
    elif scheme == "implicit-euler":
        inv = np.linalg.inv(eye + dt * q0)

        def step(u, f0, f1):
            return mul(inv, u + dt * f1)
    else:
        back = np.linalg.inv(eye + 0.5 * dt * q0)
        fwd = eye - 0.5 * dt * q0

        def step(u, f0, f1):
            return mul(back, mul(fwd, u) + 0.5 * dt * (f0 + f1))

    states = [np.zeros_like(fhat[0])]
    for m in range(1, len(fhat)):
        states.append(step(states[-1], fhat[m - 1], fhat[m]))
    return np.array(states)


_PERTURBED_3 = fs.perturbed_operator(
    np.array([[3.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 3.0]]),
    np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]),
)


@pytest.mark.parametrize("scheme", parabolic.SCHEMES)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_planar_evolution_matches_frequency_major_loop_bit_for_bit(scheme, dim):
    g = fs.SpatialGrid(10.0, 64)
    if dim == 3:
        prob = make_problem(g, operator=_PERTURBED_3, a_family="scaled_decay")
    else:
        prob = make_problem(g, mat=_COUPLED[:dim, :dim], a_family="scaled_decay")
    fhat = g.to_spectral(_random_forcing(g, dim, 20 + dim).values)
    q0 = parabolic._dissipative_gate(prob)
    states = np.zeros((17, dim, g.size), dtype=complex)
    final = parabolic._evolve(
        q0, 1.0 / 16, 16, np.ascontiguousarray(fhat.transpose(0, 2, 1)).__getitem__, scheme, states
    )
    want = _reference_evolve(q0, 1.0 / 16, fhat, scheme)
    assert np.array_equal(states.transpose(0, 2, 1), want)
    assert np.array_equal(final.T, want[-1])


def _physical_ledger(prob, f, scheme, p, p1):
    """The a*D^gamma u and A*u mixed norms of the solve's u, each field
    inverse transformed from the solve's own spectra of u."""
    g = prob.grid
    xi = g.frequencies
    uhat = parabolic._solve_spectral(prob, f, scheme)[1]
    mult = prob.a(xi) * fs.frac_power_i_xi(xi, prob.order.gamma)
    spectra = (mult[None, :, None] * uhat, np.einsum("kij,mkj->mki", prob.A(xi), uhat))
    return [
        fs.mixed_norm(fs.SpaceTimeFunction(g, f.times, g.to_physical(s)), p, p1) for s in spectra
    ]


def _ledger_case():
    g = fs.SpatialGrid(10.0, 64)
    prob = make_problem(g, mat=_COUPLED, a_family="scaled_decay")
    return prob, _random_forcing(g, 2, 11)


@pytest.mark.parametrize("scheme", ["exact", "crank-nicolson"])
def test_p2_ledger_from_spectrum_matches_physical_path(scheme):
    prob, f = _ledger_case()
    rep = fs.parabolic_coercive_report(prob, f, scheme, p=2.0, p1=2.0)
    got = [rep.term_norms["a*D^1.5 u"], rep.term_norms["A*u"]]
    want = _physical_ledger(prob, f, scheme, 2.0, 2.0)
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("p, p1", [(2.0, 3.0), (3.0, 3.0)])
def test_ledger_off_p2_is_the_physical_path(p, p1):
    prob, f = _ledger_case()
    rep = fs.parabolic_coercive_report(prob, f, "exact", p=p, p1=p1)
    got = [rep.term_norms["a*D^1.5 u"], rep.term_norms["A*u"]]
    assert got == _physical_ledger(prob, f, "exact", p, p1)


def test_dissipativity_gate():
    g = fs.SpatialGrid(10.0, 32)
    prob = make_problem(g, mat=np.array([[-2.0]]))
    f = _profiled(g, np.linspace(0.0, 1.0, 9), np.ones(9), _gauss(g))
    with pytest.raises(fs.SolveError, match="not dissipative"):
        fs.solve_parabolic(prob, f)


def test_problem_and_forcing_validations():
    g = fs.SpatialGrid(10.0, 32)
    prob = make_problem(g)
    times = np.linspace(0.0, 1.0, 9)
    wrong_grid = fs.SpaceTimeFunction(fs.SpatialGrid(5.0, 32), times, np.ones((9, 32)))
    with pytest.raises(ValueError, match="grid mismatch"):
        fs.solve_parabolic(prob, wrong_grid)
    one_step = fs.SpaceTimeFunction(g, np.array([0.0, 1.0]), np.ones((2, 32)))
    with pytest.raises(ValueError, match="need at least 2 time steps, got 1"):
        fs.solve_parabolic(prob, one_step)
    with pytest.raises(ValueError, match="need at least 2 time steps, got 1"):
        fs.parabolic_coercive_report(prob, one_step)
    ok = fs.SpaceTimeFunction(g, times, np.ones((9, 32)))
    with pytest.raises(ValueError, match="unknown scheme"):
        fs.solve_parabolic(prob, ok, "leapfrog")


def test_elliptic_and_parabolic_solves_reject_a_forcing_alike():
    """A forcing on another grid, or of another dimension, gets the same
    message from the elliptic and the parabolic solve."""
    g = fs.SpatialGrid(10.0, 32)
    prob = make_problem(g)
    times = np.linspace(0.0, 1.0, 9)
    other = fs.SpatialGrid(5.0, 32)
    cases = [
        (other, 1, "grid mismatch between forcing and problem"),
        (g, 2, "forcing dimension 2 does not match problem dimension 1"),
    ]
    for grid, dim, message in cases:
        with pytest.raises(ValueError) as in_elliptic:
            fs.solve_elliptic(prob, fs.GridFunction(grid, np.ones((32, dim))), 1.0)
        with pytest.raises(ValueError) as in_parabolic:
            fs.solve_parabolic(prob, fs.SpaceTimeFunction(grid, times, np.ones((9, 32, dim))))
        assert str(in_elliptic.value) == str(in_parabolic.value) == message


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
    rep = fs.solve_system(mat, order, a, 1.0, f)
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
    rep = fs.solve_system(mat, order, a, 1.0, f, literal_shift=True)
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
    rep = fs.solve_system(mat, order, a, 0.5, f)
    assert rep.residual_rel <= 1e-2
    for key in ("d_t u", "a*D^1.5 u", "A*u", "A-weighted u"):
        assert key in rep.term_norms
    assert rep.meta["mode"] == "parabolic"
    assert rep.meta["horizon"] == 1.0 and rep.meta["steps"] == steps
    with pytest.raises(ValueError, match="GridFunction or a SpaceTimeFunction, got ndarray"):
        fs.solve_system(mat, order, a, 0.5, phi.values)


# Operators of the dense time oracle, each built with a sign: the unfactored
# form takes +1, the factored form (a = -2) takes -1, which keeps Q(xi, 0)
# dissipative in both forms, and makes the two forms' Q differ.
_ORACLE_OPERATORS = {
    "d1": lambda sign: fs.constant_operator(sign * np.array([[1.5]])),
    "d2-normal": lambda sign: fs.constant_operator(sign * np.array([[2.0, 1.0], [1.0, 2.0]])),
    "d2-non-normal": lambda sign: fs.constant_operator(sign * np.array([[2.0, 1.5], [0.0, 1.0]])),
    "d3-perturbed": lambda sign: fs.perturbed_operator(
        sign * np.array([[3.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 3.0]]),
        sign * np.diag([1.0, 0.0, 1.0]),
    ),
}


def _oracle_problems(grid):
    for operator in _ORACLE_OPERATORS.values():
        for q_form, sign in (("unfactored", 1.0), ("factored", -1.0)):
            yield make_problem(grid, a_value=-2.0, q_form=q_form, operator=operator(sign))


def _random_field(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("scheme", parabolic.SCHEMES)
def test_solve_parabolic_matches_dense_time_oracle(scheme):
    g = fs.SpatialGrid(10.0, 16)
    rng = np.random.default_rng(23)
    times = np.linspace(0.0, 1.0, 9)
    for prob in _oracle_problems(g):
        f = fs.SpaceTimeFunction(g, times, _random_field(rng, (9, 16, prob.dim)))
        got = fs.solve_parabolic(prob, f, scheme).values
        assert rel_linf(got, dense_evolve(prob, f, scheme)) <= 1e-12


def test_eigenbasis_solve_matches_the_augmented_path():
    """Every normal oracle problem, at d = 1, 2 and 3 and in both q_forms,
    gives the states of the augmented-expm loop to 1e-12 relative."""
    g = fs.SpatialGrid(10.0, 16)
    rng = np.random.default_rng(37)
    steps, dt = 8, 1.0 / 8
    times = np.linspace(0.0, 1.0, steps + 1)
    seen = set()
    for prob in _oracle_problems(g):
        if prob._symbol.normal is None:
            continue
        seen.add((prob.dim, prob.q_form))
        f = fs.SpaceTimeFunction(g, times, _random_field(rng, (steps + 1, 16, prob.dim)))
        fhat = g.to_spectral(f.values)
        q0 = parabolic._dissipative_gate(prob)
        want = np.zeros(fhat.shape, dtype=complex)
        planar = np.ascontiguousarray(fhat.transpose(0, 2, 1))
        parabolic._evolve(q0, dt, steps, planar.__getitem__, "exact", want.transpose(0, 2, 1))
        got = parabolic._solve_spectral(prob, f, "exact")[1]
        assert rel_linf(got, want) <= 1e-12
    assert seen == {(d, form) for d in (1, 2, 3) for form in ("unfactored", "factored")}


def _eigenbasis_recurrence(prob, f):
    """The exact scheme's states for a normal Q(xi, 0) = V diag(nu) V^H,
    written out: the forcing rotated into the eigenbasis, each mode stepped
    with the scalars of ``_phi`` at -dt nu, and the states rotated back."""
    steps = f.times.size - 1
    dt = float(f.times[-1]) / steps
    fhat = prob.grid.to_spectral(f.values)
    mu, v = (None, None) if prob.dim == 1 else np.linalg.eigh(prob._symbol.normal)
    g = fhat if v is None else np.einsum("...j,...ji->...i", fhat, v.conj())
    e, p1, p2 = parabolic._phi(-dt * symbols._eigenvalues(prob, 0.0, mu).T)
    w = np.zeros_like(g)
    for m in range(1, steps + 1):
        w[m] = e * w[m - 1] + dt * (p1 * g[m - 1] + p2 * (g[m] - g[m - 1]))
    return w if v is None else np.einsum("...ij,...j->...i", v, w)


def test_eigenbasis_states_are_the_written_out_recurrence_bit_for_bit():
    """The one time loop, given the eigenvalues of a normal Q, steps the
    recurrence of ``_eigenbasis_recurrence`` in its order of operations: a
    complex d = 1 operator, the constant d = 2 and the perturbed d = 3 one."""
    g = fs.SpatialGrid(10.0, 32)
    rng = np.random.default_rng(41)
    times = np.linspace(0.0, 0.7, 11)
    probs = [
        make_problem(g, operator=fs.constant_operator(np.array([[1.0 + 0.5j]]))),
        make_problem(g, a_value=-2.0, operator=_ORACLE_OPERATORS["d2-normal"](1.0)),
        make_problem(g, a_value=-2.0, operator=_ORACLE_OPERATORS["d3-perturbed"](1.0)),
    ]
    for prob in probs:
        assert prob._symbol.normal is not None
        f = fs.SpaceTimeFunction(g, times, _random_field(rng, (11, 32, prob.dim)))
        got = parabolic._solve_spectral(prob, f, "exact")[1]
        assert got.flags.c_contiguous
        assert got.tobytes() == _eigenbasis_recurrence(prob, f).tobytes()


@pytest.mark.parametrize("scheme", ["exact", "crank-nicolson"])
def test_states_overflowing_after_the_pre_step_test_are_at_fault_dt(scheme):
    """A forcing near the top of the float range over a long horizon, with Q
    near 0 at xi = 0: dt * Q is finite, the first state is not, and the loop
    raises with no warning, in the eigenbasis (exact, normal Q) and with
    matrices (Crank-Nicolson)."""
    prob = make_problem(fs.SpatialGrid(10.0, 64), mat=np.array([[1e-3]]))
    times = np.linspace(0.0, 100.0, 9)
    f = _profiled(prob.grid, times, np.ones(9), 1e307 * _gauss(prob.grid))
    assert np.isfinite(12.5 * fs.q_matrices(prob, 0.0)).all()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(OverflowError, match="time step 12.5 overflows") as exc:
            fs.solve_parabolic(prob, f, scheme)
    assert exc.value.arg == "dt"
    assert caught == []


@pytest.mark.parametrize("scheme", parabolic.SCHEMES)
def test_state_overflowing_midway_is_at_fault_dt(scheme):
    """A finite forcing that peaks at 1e308 at step 4 of 8 drives the state
    past the float range there; the later, unit forcing leaves it not
    finite, and the loop raises after its last step with no warning."""
    q = np.full((16, 1, 1), 1e-3 + 0j)
    peak = np.ones((9, 1, 16), dtype=complex)
    peak[4] = 1e308
    states = np.zeros((9, 1, 16), dtype=complex)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(OverflowError, match="^time step 10 overflows the spectral "
                           "solution; shorten the horizon$") as exc:
            parabolic._evolve(q, 10.0, 8, peak.__getitem__, scheme, states)
    assert exc.value.arg == "dt"
    assert caught == []
    assert np.isfinite(states[:4]).all() and not np.isfinite(states[4:]).all(axis=(1, 2)).any()


def _normal_oracle_problems(grid, gamma):
    """The normal problems of ``_oracle_problems``, each with its negation
    -Q(xi, 0), which is normal and not dissipative: a = 2 in both forms, and
    the operator negated too in the unfactored form."""
    seen = set()
    for operator in _ORACLE_OPERATORS.values():
        for q_form, sign in (("unfactored", 1.0), ("factored", -1.0)):
            prob = make_problem(grid, gamma, -2.0, q_form=q_form, operator=operator(sign))
            if prob._symbol.normal is None:
                continue
            seen.add((prob.dim, q_form))
            neg_sign = -sign if q_form == "unfactored" else sign
            yield prob, make_problem(grid, gamma, 2.0, q_form=q_form, operator=operator(neg_sign))
    assert seen == {(d, form) for d in (1, 2, 3) for form in ("unfactored", "factored")}


_GAMMAS = pytest.mark.parametrize("gamma", [1.1, 1.5, 2.0])


@_GAMMAS
def test_symbol_eigenvalues_match_eigvals_of_the_stack(gamma):
    g = fs.SpatialGrid(10.0, 16)
    for prob, neg in _normal_oracle_problems(g, gamma):
        for p in (prob, neg):
            got = np.sort(symbols._eigenvalues(p, 0.0).T, axis=1)
            want = np.sort(np.linalg.eigvals(fs.q_matrices(p, 0.0)), axis=1)
            assert rel_linf(got, want) <= 1e-12


@_GAMMAS
def test_gate_names_the_least_eigenvalue_of_a_negated_normal_problem(gamma):
    """A negated normal problem fails the gate at the frequency and with the
    eigenvalue of least real part that ``eigvals`` of its stack gives."""
    g = fs.SpatialGrid(10.0, 16)
    for _, neg in _normal_oracle_problems(g, gamma):
        assert neg._symbol.normal is not None
        eigs = np.linalg.eigvals(fs.q_matrices(neg, 0.0))
        k = int(np.argmin(eigs.real.min(axis=1)))
        j = int(np.argmin(eigs[k].real))
        xi = g.frequencies[k]
        want = f"operator symbol is not dissipative at xi={xi:.6g}: eigenvalue {eigs[k, j]:.6g}"
        with pytest.raises(fs.SolveError) as exc:
            parabolic._dissipative_gate(neg)
        assert str(exc.value) == want


@pytest.mark.parametrize("dt", [1.0 / 256, 1.0 / 64, 1.0], ids=["dt=1/256", "dt=1/64", "dt=1"])
def test_stacked_step_matrices_match_a_per_frequency_expm_loop_bit_for_bit(dt):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    g = fs.SpatialGrid(10.0, 16)
    probs = [*_oracle_problems(g), make_problem(g, operator=_PERTURBED_3, a_family="scaled_decay")]
    assert {(p.dim, p._symbol.normal is None) for p in probs} == {
        (1, False), (2, False), (2, True), (3, False), (3, True)
    }
    for prob in probs:
        q0 = fs.q_matrices(prob, 0.0)
        d = prob.dim
        got = np.concatenate(parabolic._step_matrices(q0, dt), axis=2)
        for k in range(g.size):
            aug = np.zeros((3 * d, 3 * d), dtype=complex)
            aug[:d, :d] = -dt * q0[k]
            aug[:d, d : 2 * d] = aug[d : 2 * d, 2 * d :] = np.eye(d)
            assert got[k].tobytes() == scipy_linalg.expm(aug)[:d].tobytes()


def test_system_parabolic_matches_dense_time_oracle():
    g = fs.SpatialGrid(10.0, 16)
    mat = np.array([[2.0, 1.0], [1.0, 2.0]])
    lam = 0.5
    f = fs.SpaceTimeFunction(
        g, np.linspace(0.0, 1.0, 9), _random_field(np.random.default_rng(29), (9, 16, 2))
    )
    got = fs.solve_system(
        fs.SystemMatrix(mat), fs.FractionalOrder(1.5), fs.constant_coefficient(-1.0), lam, f
    ).solution.values
    # the system's core problem: the coupling matrix shifted by lambda
    core = make_problem(g, a_value=-1.0, mat=mat + lam * np.eye(2))
    assert rel_linf(got, dense_evolve(core, f, "exact")) <= 1e-12


@pytest.mark.parametrize("scheme", parabolic.SCHEMES)
def test_convergence_levels_match_dense_time_oracle(scheme):
    g = fs.SpatialGrid(10.0, 16)
    rng = np.random.default_rng(31)
    levels, horizon = [4, 8, 16], 1.0
    for prob in _oracle_problems(g):
        spatial = fs.GridFunction(g, _random_field(rng, (16, prob.dim)))
        got = parabolic._convergence_errors(prob, spatial, np.sin, horizon, levels, scheme)

        def final(steps, integrator):
            times = np.linspace(0.0, horizon, steps + 1)
            f = fs.SpaceTimeFunction(g, times, np.sin(times)[:, None, None] * spatial.values)
            return dense_evolve(prob, f, integrator)[-1]

        exact = final(levels[-1], "exact")
        want = [fs.lp_norm(fs.GridFunction(g, final(n, scheme) - exact), 2.0) for n in levels]
        scale = fs.lp_norm(fs.GridFunction(g, exact), 2.0)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale)
