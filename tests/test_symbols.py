"""Symbol assembly and the admissibility checks."""

import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracspec as fs
from conftest import central_difference, make_problem
from fracspec.bvp import BVPCoefficients, discretize_bvp
from fracspec import parabolic, symbols
from fracspec.symbols import _grouped_by_magnitude

SQ2 = math.sqrt(0.5)


def test_q_symbol_unfactored_examples():
    g = fs.SpatialGrid(math.pi, 8)  # xi_k = k
    prob = make_problem(g, gamma=2.0, mat=np.diag([1.0, 2.0]))
    q = fs.q_matrices(prob, 0.0)[1]
    # a = -1 and (i*1)^2 = -1, so the fractional part contributes +1 on the diagonal
    np.testing.assert_allclose(q, np.diag([2.0, 3.0]), atol=1e-14)

    prob = make_problem(g, gamma=1.5, mat=np.array([[0.5]]))
    q = fs.q_matrices(prob, 2.0)[1]
    want = -np.exp(0.75j * math.pi) + 0.5 + 2.0
    assert q[0, 0] == pytest.approx(want, abs=1e-13)
    assert q[0, 0] == pytest.approx(SQ2 - SQ2 * 1j + 2.5, abs=1e-13)


def test_q_symbol_factored_form():
    g = fs.SpatialGrid(math.pi, 8)  # xi_k = k
    prob = make_problem(g, gamma=1.5, mat=np.array([[0.5]]), q_form="factored")
    xi, lam = 2.0, 1.0 + 0.5j
    a_val = -1.0
    want = a_val * (fs.frac_power_i_xi(xi, 1.5) + 0.5 + lam)
    assert fs.q_matrices(prob, lam)[2, 0, 0] == pytest.approx(want, abs=1e-13)
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


@pytest.mark.parametrize(
    "symbol",
    [
        fs.constant_coefficient(-1.0 + 0.5j),
        fs.scaled_decay_coefficient(-1.0, 1.5),
        fs.scaled_decay_coefficient(0.7 - 0.2j, 1.2),
        fs.scaled_decay_coefficient(0.7, 2.0),
        fs.constant_operator(np.array([[2.0, 1.0], [1.0, 3.0]])),
        fs.perturbed_operator(np.diag([2.0, 3.0]), np.array([[0.5, 0.2], [0.2, 0.1]])),
    ],
    ids=lambda symbol: symbol.name,
)
def test_symbol_derivatives_match_the_central_difference(symbol):
    xi = np.array([-40.0, -2.0, -0.5, 0.3, 0.7, 1.0, 5.0, 40.0])
    np.testing.assert_allclose(
        symbol.derivative_at(xi), central_difference(symbol, xi), rtol=0.0, atol=1e-6
    )


def test_operator_matrices_are_square():
    """A 0-d matrix is the 1 x 1 matrix of its value; a (2, 3) one is not square."""
    op = fs.constant_operator(np.array(2.0))
    assert op.dim == 1
    np.testing.assert_array_equal(op.constant_matrix, [[2.0 + 0j]])
    square = r"matrix must be a square matrix, got shape \(2, 3\)$"
    with pytest.raises(ValueError, match="^operator " + square):
        fs.constant_operator(np.ones((2, 3)))
    with pytest.raises(ValueError, match="^perturbation " + square):
        fs.perturbed_operator(np.eye(2), np.ones((2, 3)))


def test_operator_symbol_validation():
    with pytest.raises(ValueError, match="singular at the reference"):
        fs.constant_operator(np.array([[0.0]]))
    op = fs.constant_operator(np.array([[1.0, 0.0], [0.0, 2.0]]))
    assert op.at(3.0).shape == (2, 2)
    assert op.constant_matrix is not None
    ones = lambda xi: np.ones((xi.size, 1, 1))  # noqa: E731
    with pytest.raises(ValueError, match=r"^operator symbol 'bad' returned shape \(1, 1, 1\)"):
        fs.OperatorSymbol(name="bad", dim=2, func=ones, derivative=op.derivative)
    bad_derivative = fs.OperatorSymbol(name="bad", dim=2, func=op.func, derivative=ones)
    with pytest.raises(ValueError, match=r"^derivative of operator symbol 'bad' returned shape"):
        bad_derivative.derivative_at(np.array([1.0]))
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


def _hermitian(rng, dim, complex_entries):
    m = rng.standard_normal((dim, dim))
    if complex_entries:
        m = m + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2.0


@settings(max_examples=60)
@given(
    gamma=st.floats(1.05, 2.0),
    dim=st.sampled_from([1, 2, 3]),
    q_form=st.sampled_from(["unfactored", "factored"]),
    perturbed=st.booleans(),
    complex_entries=st.booleans(),
    radius=st.floats(1e-3, 1e3),
    angle=st.floats(-1.0, 1.0),
    half=st.integers(2, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_symbol_smin_hermitian_matches_svd(
    gamma, dim, q_form, perturbed, complex_entries, radius, angle, half, seed
):
    rng = np.random.default_rng(seed)
    base = _hermitian(rng, dim, complex_entries)
    if perturbed:
        op = fs.perturbed_operator(base, _hermitian(rng, dim, complex_entries))
    else:
        op = fs.constant_operator(base)
    sector = fs.Sector(math.pi / 3.0)
    prob = fs.EllipticProblem(
        order=fs.FractionalOrder(gamma),
        a=fs.scaled_decay_coefficient(-1.0 + 0.3j, gamma),
        A=op,
        sector=sector,
        grid=fs.SpatialGrid(10.0, 2 * half),
        q_form=q_form,
    )
    lam = radius * np.exp(1j * angle * sector.angle)
    assert fs.symbol_kernel(prob) == "hermitian-eig"
    smin, bad = fs.symbol_smin(prob, lam)
    q = fs.q_matrices(prob, lam)
    largest = np.linalg.svd(q, compute_uv=False)[:, 0]
    want, want_bad = fs.smallest_singular_values(q, 1e-14)
    assert np.all(np.abs(smin - want) <= 1e-12 * largest)
    assert bad == want_bad


@pytest.mark.parametrize("q_form", ["unfactored", "factored"])
@pytest.mark.parametrize("kind", ["scalar", "constant", "perturbed"])
def test_symbol_smin_flags_the_svd_first_bad_index(kind, q_form):
    # with gamma = 2 and a = -1, Q = xi^2 + lambda + A (unfactored) or
    # -(-xi^2 + lambda + A) (factored): at lambda = 0 singular at xi = +-3
    # when A has the eigenvalue -9 (unfactored) or 9 (factored)
    g = fs.SpatialGrid(math.pi, 16)  # integer frequencies
    sign = 1.0 if q_form == "unfactored" else -1.0
    if kind == "scalar":
        op = fs.constant_operator(np.array([[-9.0 * sign]]))
    else:
        rot = np.array([[0.6, -0.8], [0.8, 0.6]])
        base = rot @ np.diag([-9.0 * sign, sign]) @ rot.T
        base = (base + base.T) / 2.0
        op = fs.constant_operator(base) if kind == "constant" else fs.perturbed_operator(
            base, np.zeros((2, 2))
        )
    prob = make_problem(g, gamma=2.0, operator=op, q_form=q_form)
    xi = g.frequencies
    assert fs.symbol_kernel(prob) == "hermitian-eig"
    smin, bad = fs.symbol_smin(prob, 0.0)
    want_smin, want_bad = fs.smallest_singular_values(fs.q_matrices(prob, 0.0), 1e-14)
    assert bad == want_bad == 3 and xi[bad] == 3.0
    assert smin[3] <= 1e-13 and want_smin[3] <= 1e-13
    with pytest.raises(fs.SolveError, match="xi=3"):
        fs.solve_elliptic(prob, fs.GridFunction(g, np.ones((16, op.dim))), 0.0)


@pytest.fixture
def svd_calls(monkeypatch):
    calls = []
    real_svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


def _gate_problem(mat):
    return fs.EllipticProblem(
        order=fs.FractionalOrder(1.5),
        a=fs.scaled_decay_coefficient(-1.0, 1.5),
        A=fs.constant_operator(mat),
        sector=fs.Sector(math.pi / 4.0),
        grid=fs.SpatialGrid(10.0, 32),
    )


def test_non_hermitian_operators_keep_the_svd(svd_calls):
    variable_b2 = discretize_bvp(
        BVPCoefficients(
            b2=lambda y: 1.0 + 0.5 * y, b1=lambda y: 0.0 * y, b0=lambda y: 1.0 + 0.0 * y,
            mesh_size=7,
        )
    )
    # a literal shift by lambda = 1 + i adds it to every entry of the coupling
    literal = np.array([[2.0, 1.0], [1.0, 2.0]]) + (1.0 + 1.0j) * np.ones((2, 2))
    for mat in (variable_b2, literal):
        prob = _gate_problem(mat)
        assert fs.symbol_kernel(prob) == "svd"
        svd_calls.clear()
        smin, bad = fs.symbol_smin(prob, 1.0)
        assert svd_calls == [(32, mat.shape[0], mat.shape[0])]
        want = fs.smallest_singular_values(fs.q_matrices(prob, 1.0), 1e-14)
        np.testing.assert_array_equal(smin, want[0])
        assert bad == want[1]
    # the Hermitian form of the same coupling takes no SVD at all
    prob = _gate_problem(np.array([[2.0, 1.0], [1.0, 2.0]]))
    svd_calls.clear()
    fs.symbol_smin(prob, 1.0)
    assert svd_calls == []


@pytest.mark.parametrize("mat", [np.array([[2.0, 1.0], [0.0, 2.0]]), np.diag([1.0, 2.0])])
def test_solve_builds_its_symbol_stack_once(monkeypatch, svd_calls, mat):
    """Q(xi, lambda) is built once per solve for the gate and the solve,
    whichever kernel the gate takes, and Q(xi, 0) once per problem for the
    residual: a second solve builds only Q(xi, lambda) again."""
    stacks = []
    real_q_stack = symbols._q_stack

    def counting_q_stack(prob, xi, lam):
        stacks.append(lam)
        return real_q_stack(prob, xi, lam)

    prob = _gate_problem(mat)
    f = fs.random_band_limited(prob.grid, 2, 5)
    monkeypatch.setattr(symbols, "_q_stack", counting_q_stack)
    svd_calls.clear()
    fs.solve_elliptic(prob, f, 1.0)
    assert stacks == [1.0, 0.0]
    assert len(svd_calls) == (fs.symbol_kernel(prob) == "svd")
    fs.solve_elliptic(prob, f, 1.0)
    assert stacks == [1.0, 0.0, 1.0]
    assert len(svd_calls) == 2 * (fs.symbol_kernel(prob) == "svd")


_BASES = {
    1: (np.array([[2.0]]), np.array([[0.5]]), np.array([[0.5 + 0.5j]])),
    2: (
        np.array([[3.0, 1.0], [1.0, 3.0]]),
        np.array([[1.0, 0.5], [0.5, 1.0]]),
        np.array([[1.0, 0.5], [0.0, 1.0]]),
    ),
    3: (
        np.array([[3.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 3.0]]),
        np.diag([1.0, 0.0, 1.0]),
        np.array([[1.0, 0.5, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
    ),
}


def _symbol_case(dim, family, q_form, n=64):
    """A problem with a constant, perturbed Hermitian or perturbed
    non-Hermitian A; the factored form takes a = -1 and -A, so that Q(xi, 0)
    stays dissipative."""
    base, hermitian, skew = _BASES[dim]
    sign = 1.0 if q_form == "unfactored" else -1.0
    if family == "constant":
        op = fs.constant_operator(sign * base)
    else:
        op = fs.perturbed_operator(sign * base, sign * (hermitian if family == "hermitian" else skew))
    a_family = "scaled_decay" if q_form == "unfactored" else "constant"
    return make_problem(
        fs.SpatialGrid(10.0, n), gamma=1.5, operator=op, q_form=q_form, a_family=a_family
    )


def _sine_forcing(prob, steps=4):
    f = fs.random_band_limited(prob.grid, prob.dim, 9)
    times = np.linspace(0.0, 0.5, steps + 1)
    return fs.SpaceTimeFunction(prob.grid, times, np.sin(3.0 * times)[:, None, None] * f.values)


@pytest.mark.parametrize("family", ["hermitian", "non-hermitian"])
def test_each_problem_evaluates_its_grid_symbol_once(monkeypatch, family):
    """a(xi), (i xi)^gamma and A(xi) are taken once per problem, and A's
    eigenvalues at most once, across a solve, a resolvent bound over three
    lambdas and a parabolic ledger."""
    prob = _symbol_case(2, family, "unfactored")
    f = fs.random_band_limited(prob.grid, 2, 5)
    forcing = _sine_forcing(prob)
    calls = {"a": 0, "A": 0, "frac": 0, "eigvalsh": 0}

    def counting(key, real):
        def call(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr(fs.CoefficientSymbol, "__call__", counting("a", fs.CoefficientSymbol.__call__))
    monkeypatch.setattr(fs.OperatorSymbol, "__call__", counting("A", fs.OperatorSymbol.__call__))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    real_frac = fs.frac_power_i_xi

    def frac(xi, alpha):
        if alpha == prob.order.gamma:
            calls["frac"] += 1
        return real_frac(xi, alpha)

    for name, mod in list(sys.modules.items()):
        if name.startswith("fracspec") and getattr(mod, "frac_power_i_xi", None) is real_frac:
            monkeypatch.setattr(mod, "frac_power_i_xi", frac)

    fs.solve_elliptic(prob, f, 1.0)
    fs.symbol_resolvent_bound(prob, [0.5, 1.0, 2.0 + 0.5j])
    fs.parabolic_coercive_report(prob, forcing, scheme="implicit-euler")
    assert calls == {"a": 1, "A": 1, "frac": 1, "eigvalsh": int(family == "hermitian")}


def _direct_q(prob, lam):
    xi = prob.grid.frequencies
    a, frac, mats = prob.a(xi), fs.frac_power_i_xi(xi, prob.order.gamma), prob.A(xi)
    eye = np.eye(prob.dim)
    if prob.q_form == "unfactored":
        return (a * frac + lam)[:, None, None] * eye + mats
    return a[:, None, None] * ((frac + lam)[:, None, None] * eye + mats)


def _direct_smin(prob, lam):
    """The singular-symbol gate evaluated from scratch: |eigenvalues| of a
    normal Q, else the SVD."""
    xi = prob.grid.frequencies
    mats = prob.A.constant_matrix if prob.A.constant_matrix is not None else prob.A(xi)
    if prob.dim > 1 and not np.array_equal(mats, np.conj(np.swapaxes(mats, -1, -2))):
        return fs.smallest_singular_values(_direct_q(prob, lam), 1e-14)[0]
    mu = mats[..., 0] if prob.dim == 1 else np.linalg.eigvalsh(mats)
    a = prob.a(xi)[:, None]
    frac = fs.frac_power_i_xi(xi, prob.order.gamma)[:, None]
    mods = np.abs(a * frac + lam + mu if prob.q_form == "unfactored" else a * (frac + lam + mu))
    return mods.min(axis=1)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("family", ["constant", "hermitian", "non-hermitian"])
@pytest.mark.parametrize("q_form", ["unfactored", "factored"])
def test_grid_symbol_consumers_match_a_direct_evaluation_bit_for_bit(dim, family, q_form):
    from fracspec.core import _mixed_l2_of_spectra

    prob = _symbol_case(dim, family, q_form)
    xi, grid, lam = prob.grid.frequencies, prob.grid, 1.0 + 0.25j
    a, frac, mats = prob.a(xi), fs.frac_power_i_xi(xi, prob.order.gamma), prob.A(xi)
    np.testing.assert_array_equal(fs.q_matrices(prob, lam), _direct_q(prob, lam))
    smin, bad = fs.symbol_smin(prob, lam)
    np.testing.assert_array_equal(smin, _direct_smin(prob, lam))
    assert bad is None

    rep = fs.coercive_report(prob, fs.random_band_limited(grid, dim, 3), lam)
    u_spec = fs.forward_transform(rep.solution)
    assert rep.term_norms["a*D^1.5 u"] == fs.multiplier_norm(u_spec, a * frac, 2.0)
    assert rep.term_norms["A*u"] == fs.multiplier_norm(u_spec, mats, 2.0)
    half = fs.frac_power_i_xi(xi, 0.75)
    assert rep.term_norms["a*D^0.75 u"] == fs.multiplier_norm(u_spec, a * half, 2.0)

    forcing = _sine_forcing(prob)
    par = fs.parabolic_coercive_report(prob, forcing, scheme="implicit-euler")
    uhat = parabolic._solve_spectral(prob, forcing, "implicit-euler")[1]
    planar = np.ascontiguousarray(mats.transpose(1, 2, 0))
    au = np.einsum("ijk,mjk->mik", planar, uhat.transpose(0, 2, 1)).transpose(0, 2, 1)
    times = forcing.times
    assert par.term_norms["a*D^1.5 u"] == _mixed_l2_of_spectra(
        grid, times, (a * frac)[None, :, None] * uhat
    )
    assert par.term_norms["A*u"] == _mixed_l2_of_spectra(grid, times, au)


@pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 31])
def test_planar_extremes_match_the_row_reductions_bit_for_bit(dim):
    """The min and max over axis 0 of planar (d, N) moduli, the layout of
    ``_eigenvalues``, equal min(axis=1) and max(axis=1) of the (N, d) ones,
    on moduli with ties, zeros, subnormals and huge values."""
    rng = np.random.default_rng(dim)
    mods = 10.0 ** rng.uniform(-320.0, 308.0, (257, dim))
    mods[::5] = rng.choice([0.0, 5e-324, 1.0, 1.7e308], (len(mods[::5]), dim))
    mods[1::7, : (dim + 1) // 2] = mods[1::7, -1:]
    planar = np.ascontiguousarray(mods.T)
    assert planar.min(axis=0).tobytes() == mods.min(axis=1).tobytes()
    assert planar.max(axis=0).tobytes() == mods.max(axis=1).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3, 7, 8])
@pytest.mark.parametrize("q_form", ["unfactored", "factored"])
def test_normal_symbol_smin_is_the_row_minimum_of_the_eigenvalue_moduli(dim, q_form):
    """The gate of a normal Q reads the row minimum of the (N, d) moduli
    |a (i xi)^gamma + lambda + mu_j| (factored: |a ((i xi)^gamma + lambda + mu_j)|),
    byte for byte, for a constant and, at d = 3, a perturbed Hermitian A."""
    g = fs.SpatialGrid(10.0, 32)
    rng = np.random.default_rng(dim)
    base = rng.standard_normal((dim, dim))
    base = base + base.T + 2.0 * dim * np.eye(dim)
    operators = [fs.constant_operator(base)]
    if dim == 3:
        operators.append(fs.perturbed_operator(base, np.diag([1.0, 0.0, 2.0])))
    lam = 2.0 + 0.5j
    for operator in operators:
        prob = make_problem(g, a_value=-2.0, q_form=q_form, operator=operator)
        assert fs.symbol_kernel(prob) == "hermitian-eig"
        sym = prob._symbol
        mu = np.linalg.eigvalsh(sym.normal) if dim > 1 else sym.normal[..., 0]
        a_vals, frac = sym.a[:, None], sym.frac[:, None]
        if q_form == "unfactored":
            rows = a_vals * frac + lam + mu
        else:
            rows = a_vals * (frac + lam + mu)
        smin, bad = fs.symbol_smin(prob, lam)
        assert bad is None
        assert smin.tobytes() == np.abs(rows).min(axis=1).tobytes()


def test_symbol_smin_leaves_an_overflowed_modulus_to_the_svd(svd_calls):
    prob = make_problem(fs.SpatialGrid(10.0, 16), a_value=1e308, mat=np.diag([1.0, 2.0]))
    assert fs.symbol_kernel(prob) == "hermitian-eig"
    svd_calls.clear()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(np.linalg.LinAlgError):
            fs.smallest_singular_values(fs.q_matrices(prob, 1.0), 1e-14)
        with pytest.raises(np.linalg.LinAlgError):
            fs.symbol_smin(prob, 1.0)
    assert len(svd_calls) == 2


def test_grouped_by_magnitude_matches_the_per_value_scan():
    rng = np.random.default_rng(5)
    for n in (4, 16, 64, 4096):
        xi = fs.SpatialGrid(10.0, n).frequencies
        xi = xi[xi != 0.0]
        for vals in (rng.standard_normal(xi.size), np.abs(xi) ** 1.5 / xi**2, np.ones(xi.size)):
            mags = np.abs(xi)
            uniq = np.unique(mags)
            want = np.array([vals[mags == m].max() for m in uniq])
            got_uniq, got = _grouped_by_magnitude(xi, vals)
            np.testing.assert_array_equal(got_uniq, uniq)
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype


def test_mikhlin_constant_operator_matches_the_stacked_norms():
    g = fs.SpatialGrid(10.0, 256)
    mat = np.array([[3.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 3.0]])
    const = fs.constant_operator(mat)
    # the same symbol without constant_matrix takes the per-frequency stacks
    stacked = fs.OperatorSymbol(name="stacked", dim=3, func=const.func, derivative=const.derivative)
    reps = []
    for op in (const, stacked):
        prob = make_problem(g, gamma=1.5, a_family="scaled_decay", operator=op)
        reps.append(fs.check_mikhlin_bounds(prob))
    got, want = (r.meta["term_sups"] for r in reps)
    assert got.keys() == want.keys()
    for key in got:
        assert abs(got[key] - want[key]) <= 1e-15 * abs(want[key])
    assert got["op_b1"] == want["op_b1"] == 0.0
    assert abs(reps[0].constants["C2"] - reps[1].constants["C2"]) <= 1e-15 * reps[1].constants["C2"]
    assert reps[0].passed == reps[1].passed


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
    prob = make_problem(g, gamma=1.5)
    rep = fs.check_mikhlin_bounds(prob)
    assert rep.passed
    assert rep.constants["C1"] == pytest.approx(1.0, abs=1e-12)
    assert rep.constants["C2"] == pytest.approx(1.0, abs=1e-12)


def test_mikhlin_bounds_flags_unbounded_growth():
    g = fs.SpatialGrid(10.0, 64)
    growing = fs.CoefficientSymbol(
        name="bessel-growth",
        func=lambda xi: np.sqrt(1.0 + xi**2) + 0j,
        derivative=lambda xi: xi / np.sqrt(1.0 + xi**2) + 0j,
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
    assert edge >= 0.5 * np.abs(g.frequencies).max()


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


def test_symbol_resolvent_bound_needs_a_lambda():
    prob = make_problem(fs.SpatialGrid(10.0, 64), gamma=2.0)
    with pytest.raises(ValueError, match="non-empty"):
        fs.symbol_resolvent_bound(prob, iter(()))


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


@pytest.mark.parametrize("angles", [(math.pi / 4.0, math.pi / 4.0), (0.3, 1.5), (1.56, 0.01)])
def test_scalar_lattice_matches_whole_lattice(angles):
    """The radius-by-radius minimum is the whole 800 x 800 lattice's first argmin."""
    phi1, phi2 = (fs.Sector(a) for a in angles)
    radii = np.logspace(-3.0, 3.0, 25)
    lam = (radii[:, None] * np.exp(1j * np.linspace(-phi2.angle, phi2.angle, 32))).ravel()
    nu = (radii[:, None] * np.exp(1j * np.linspace(-phi1.angle, phi1.angle, 32))).ravel()
    quot = np.abs(lam[:, None] + nu[None, :]) / (np.abs(lam)[:, None] + np.abs(nu)[None, :])
    k = int(np.argmin(quot))
    rep = fs.scalar_inequality_suite(phi1, phi2, samples=10)
    assert rep.constants["angle_separation_min"] == float(quot.flat[k])
    assert rep.meta["argmin"] == {"lambda": lam[k // nu.size], "nu": nu[k % nu.size]}


def test_scalar_inequality_suite_working_set():
    phi = fs.Sector(math.pi / 4.0)
    tracemalloc.start()
    try:
        fs.scalar_inequality_suite(phi, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The whole 800 x 800 complex lattice alone is 9.8 MiB.
    assert peak < 2 * 2**20


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
    solve = fs.SolveReport(
        solution=fs.GridFunction(fs.SpatialGrid(5.0, 8), np.ones(8)),
        residual=0.0,
        residual_rel=0.0,
        term_norms={"A*u": 1.0},
        coercive_ratio=None,
        meta={"lambda": 2.0 - 3.0j},
    )
    enc = solve.to_jsonable()
    assert "solution" not in enc
    assert enc["meta"] == {"lambda": {"re": 2.0, "im": -3.0}}
    assert enc["term_norms"] == {"A*u": 1.0} and enc["coercive_ratio"] is None
