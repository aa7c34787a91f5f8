"""Fractional powers and derivatives, spectral against time-domain."""

import math

import numpy as np
import pytest
from scipy.special import binom, gamma as gamma_fn

import fracspec as fs
from conftest import gl_weights, rl_derivative_oracle

# D^gamma x^2 = Gamma(3)/Gamma(3-gamma) x^(2-gamma); value at x = 1, gamma = 1.5
POWER_RULE_X2 = 2.0 / gamma_fn(1.5)
# D^gamma x = Gamma(2)/Gamma(2-gamma) x^(1-gamma); value at x = 1, gamma = 1.5
POWER_RULE_X1 = 1.0 / gamma_fn(0.5)


def test_branch_point_values():
    assert fs.frac_power_i_xi(1.0, 2.0) == pytest.approx(-1.0, abs=1e-14)
    assert fs.frac_power_i_xi(-1.0, 2.0) == pytest.approx(-1.0, abs=1e-14)
    assert fs.frac_power_i_xi(2.0, 1.0) == pytest.approx(2.0j, abs=1e-14)
    assert fs.frac_power_i_xi(-3.0, 1.0) == pytest.approx(-3.0j, abs=1e-14)
    assert fs.frac_power_i_xi(0.0, 1.5) == 0.0
    assert fs.frac_power_i_xi(0.0, 0.0) == 1.0
    assert isinstance(fs.frac_power_i_xi(1.0, 1.5), complex)
    with pytest.raises(ValueError):
        fs.frac_power_i_xi(1.0, -0.5)


def test_branch_modulus_and_semigroup():
    xi = np.array([-5.0, -0.3, 0.7, 2.0, 40.0])
    for alpha in (0.5, 1.0, 1.5, 2.0):
        np.testing.assert_allclose(
            np.abs(fs.frac_power_i_xi(xi, alpha)), np.abs(xi) ** alpha, rtol=1e-13
        )
    a, b = 0.7, 1.1
    prod = fs.frac_power_i_xi(xi, a) * fs.frac_power_i_xi(xi, b)
    np.testing.assert_allclose(prod, fs.frac_power_i_xi(xi, a + b), rtol=1e-9)


def _liouville(f, s):
    """D^s f as the package's ledgers take it: the (i*xi)^s multiplier on the transform."""
    return fs.apply_multiplier(fs.forward_transform(f), fs.frac_power_i_xi(f.grid.frequencies, s))


def test_liouville_matches_classical_derivatives():
    g = fs.SpatialGrid(math.pi, 64)
    sin = fs.GridFunction(g, np.sin(g.points))
    cos = fs.GridFunction(g, np.cos(g.points))
    d2 = _liouville(sin, 2.0)
    np.testing.assert_allclose(d2.values, -sin.values, atol=1e-12)
    d1 = _liouville(cos, 1.0)
    np.testing.assert_allclose(d1.values, -sin.values, atol=1e-12)


def test_liouville_order_zero_is_identity():
    g = fs.SpatialGrid(5.0, 32)
    u = fs.random_band_limited(g, 1, 0)
    same = _liouville(u, 0.0)
    assert np.max(np.abs(same.values - u.values)) < 1e-13


def test_liouville_semigroup_on_band_limited():
    g = fs.SpatialGrid(5.0, 64)
    u = fs.random_band_limited(g, 1, 7)
    once = _liouville(_liouville(u, 0.6), 0.9)
    direct = _liouville(u, 1.5)
    assert np.max(np.abs(once.values - direct.values)) < 1e-9


def test_gl_weights_recurrence_and_binomial():
    gamma = 1.5
    w = gl_weights(gamma, 4)
    np.testing.assert_allclose(w, [1.0, -1.5, 0.375, 0.0625, 0.0234375], rtol=1e-14)
    n = 12
    k = np.arange(n + 1)
    np.testing.assert_allclose(
        gl_weights(1.3, n), (-1.0) ** k * binom(1.3, k), rtol=1e-12, atol=1e-15
    )
    with pytest.raises(ValueError):
        gl_weights(1.5, -1)


@pytest.mark.parametrize(
    "func,exact", [(lambda x: x**2, POWER_RULE_X2), (lambda x: x, POWER_RULE_X1)]
)
def test_gl_power_rule(func, exact):
    gamma = 1.5
    n = 4096
    h = 1.0 / n
    x = h * np.arange(n + 1)
    got = rl_derivative_oracle(func(x), gamma, h)[-1]
    assert abs(got - exact) < 1e-3


def test_gl_oracle_domain():
    with pytest.raises(ValueError):
        rl_derivative_oracle(np.ones(8), 2.0, 0.1)
    with pytest.raises(ValueError):
        rl_derivative_oracle(np.ones(8), 1.0, 0.1)
    with pytest.raises(ValueError):
        rl_derivative_oracle(np.ones(8), 1.5, 0.0)
    with pytest.raises(ValueError):
        rl_derivative_oracle(np.ones((4, 2)), 1.5, 0.1)


def _bump(x):
    t = (x - 4.0) / 2.0
    out = np.zeros_like(x)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


def test_gl_matches_spectral_on_bump():
    """Two unrelated discretizations of the same derivative must converge
    to each other at the oracle's first-order rate."""
    gamma = 1.5
    L = 20.0
    errors = []
    for n in (1024, 2048, 4096, 8192):
        g = fs.SpatialGrid(L, n)
        f = fs.GridFunction(g, _bump(g.points))
        spectral = _liouville(f, gamma).values[:, 0].real
        gl = rl_derivative_oracle(f.values[:, 0].real, gamma, g.spacing)
        window = (g.points >= 3.0) & (g.points <= 5.0)
        errors.append(np.max(np.abs(spectral[window] - gl[window])))
    for coarse, fine in zip(errors, errors[1:]):
        assert 1.8 < coarse / fine < 2.2, f"halving ratios off: {errors}"


def test_matrix_power_sqrt_and_inverse_pair():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    root = fs.matrix_fractional_power(a, 0.5)
    s = math.sqrt(3.0)
    want = 0.5 * np.array([[s + 1.0, s - 1.0], [s - 1.0, s + 1.0]])
    np.testing.assert_allclose(root, want, atol=1e-12)
    np.testing.assert_allclose(root @ root, a, atol=1e-12)
    np.testing.assert_allclose(
        fs.matrix_fractional_power(a, -0.5) @ root, np.eye(2), atol=1e-12
    )


def test_matrix_power_addition_law():
    rng = np.random.default_rng(11)
    w = rng.standard_normal((4, 4))
    a = w @ w.T + 4.0 * np.eye(4)
    theta = 0.3
    prod = fs.matrix_fractional_power(a, theta) @ fs.matrix_fractional_power(a, 1.0 - theta)
    np.testing.assert_allclose(prod, a, atol=1e-10)
    np.testing.assert_allclose(fs.matrix_fractional_power(a, 1.0), a, atol=1e-10)
    np.testing.assert_allclose(fs.matrix_fractional_power(a, 0.0), np.eye(4), atol=1e-12)


def test_matrix_power_gates():
    with pytest.raises(ValueError, match="symmetric"):
        fs.matrix_fractional_power(np.array([[1.0, 2.0], [0.0, 1.0]]), 0.5)
    with pytest.raises(ValueError, match="positive definite.*-1"):
        fs.matrix_fractional_power(np.array([[1.0, 2.0], [2.0, 1.0]]), 0.5)
    with pytest.raises(ValueError, match="real symmetric"):
        fs.matrix_fractional_power(np.array([[1.0 + 1.0j, 0.0], [0.0, 1.0]]), 0.5)
    # a real matrix arriving with complex dtype and rounding-level imaginary part is fine
    almost_real = np.array([[2.0, 1.0], [1.0, 2.0]]) + 1e-15j
    np.testing.assert_allclose(
        fs.matrix_fractional_power(almost_real, 0.5),
        fs.matrix_fractional_power(np.array([[2.0, 1.0], [1.0, 2.0]]), 0.5),
        atol=1e-12,
    )
    with pytest.raises(ValueError, match="square"):
        fs.matrix_fractional_power(np.ones((2, 3)), 0.5)


def test_fractional_order_domain():
    assert fs.FractionalOrder(2.0).gamma == 2.0
    assert fs.FractionalOrder(1.25).gamma == 1.25
    for bad in (1.0, 2.5, 0.5, -1.0):
        with pytest.raises(ValueError, match="out of"):
            fs.FractionalOrder(bad)
