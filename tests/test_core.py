"""Grids, transforms, norms, sectors."""

import importlib
import math

import numpy as np
import pytest

import fracspec as fs
from conftest import dft_matrices

GAUSS_L2 = (math.pi / 2.0) ** 0.25  # ||exp(-x^2)||_2 on the line
GAUSS_L4 = (math.pi / 4.0) ** 0.125


def test_grid_validation():
    with pytest.raises(ValueError):
        fs.SpatialGrid(10.0, 7)
    with pytest.raises(ValueError):
        fs.SpatialGrid(10.0, 2)
    with pytest.raises(ValueError):
        fs.SpatialGrid(0.0, 8)
    with pytest.raises(ValueError):
        fs.SpatialGrid(-1.0, 8)
    for half_width in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            fs.SpatialGrid(half_width, 16)


def test_grid_points_and_frequencies():
    g = fs.SpatialGrid(4.0, 8)
    assert g.spacing == 1.0
    np.testing.assert_allclose(g.points, np.arange(-4.0, 4.0))
    sg = g.spectral()
    np.testing.assert_array_equal(sg.indices, [0, 1, 2, 3, -4, -3, -2, -1])
    np.testing.assert_allclose(sg.frequencies, np.pi / 4.0 * sg.indices)
    np.testing.assert_array_equal(sg.parity, [1, -1, 1, -1, 1, -1, 1, -1])


@pytest.mark.parametrize("n", [8, 64, 256])
def test_transform_round_trip(n):
    g = fs.SpatialGrid(7.0, n)
    rng = np.random.default_rng(n)
    f = fs.GridFunction(g, rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)))
    back = fs.inverse_transform(fs.forward_transform(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-12
    spec = fs.SpectralFunction(g.spectral(), f.values)
    again = fs.forward_transform(fs.inverse_transform(spec))
    assert np.max(np.abs(again.values - spec.values)) < 1e-12


def test_forward_transform_matches_quadrature():
    g = fs.SpatialGrid(5.0, 32)
    rng = np.random.default_rng(3)
    f = fs.GridFunction(g, rng.standard_normal((32, 1)) + 1j * rng.standard_normal((32, 1)))
    fwd, _, xi = dft_matrices(g)
    want = fwd @ f.values
    got = fs.forward_transform(f).values
    np.testing.assert_allclose(got, want, atol=1e-11)
    np.testing.assert_allclose(g.spectral().frequencies, xi)


def test_parseval():
    g = fs.SpatialGrid(6.0, 128)
    rng = np.random.default_rng(9)
    f = fs.GridFunction(g, rng.standard_normal((128, 3)) + 1j * rng.standard_normal((128, 3)))
    spec = fs.forward_transform(f)
    phys = g.spacing * np.sum(np.abs(f.values) ** 2)
    dual = np.sum(np.abs(spec.values) ** 2) / (2.0 * g.half_width)
    assert abs(phys - dual) < 1e-10 * phys


def test_mode_coefficients_pick_out_modes():
    g = fs.SpatialGrid(10.0, 64)
    xi3 = g.spectral().frequencies[3]
    f = fs.GridFunction.from_callable(g, lambda x: np.exp(1j * xi3 * x))
    coeff = fs.forward_transform(f).mode_coefficients()[:, 0]
    want = np.zeros(64, dtype=complex)
    want[3] = 1.0
    np.testing.assert_allclose(coeff, want, atol=1e-12)

    ones = fs.GridFunction(g, np.ones(64))
    coeff0 = fs.forward_transform(ones).mode_coefficients()[:, 0]
    want0 = np.zeros(64, dtype=complex)
    want0[0] = 1.0
    np.testing.assert_allclose(coeff0, want0, atol=1e-12)


def test_lp_norm_gaussian():
    g = fs.SpatialGrid(10.0, 1024)
    f = fs.GridFunction.from_callable(g, lambda x: math.exp(-(x**2)))
    assert abs(fs.lp_norm(f, 2.0) - GAUSS_L2) < 1e-10
    assert abs(fs.lp_norm(f, 4.0) - GAUSS_L4) < 1e-10


def test_lp_norm_vector_components():
    # Euclidean row magnitude: a two-component copy scales the norm by sqrt(2).
    g = fs.SpatialGrid(10.0, 256)
    vals = np.exp(-g.points**2)
    single = fs.GridFunction(g, vals)
    double = fs.GridFunction(g, np.column_stack([vals, vals]))
    assert abs(fs.lp_norm(double, 2.0) - math.sqrt(2.0) * fs.lp_norm(single, 2.0)) < 1e-12


def test_lp_norm_exponent_domain():
    g = fs.SpatialGrid(1.0, 4)
    f = fs.GridFunction(g, np.ones(4))
    for bad in (1.0, 0.5, math.inf):
        with pytest.raises(ValueError):
            fs.lp_norm(f, bad)


def test_mixed_norm_constant_exact():
    g = fs.SpatialGrid(3.0, 16)
    times = np.linspace(0.0, 2.0, 9)
    f = fs.SpaceTimeFunction(g, times, 2.0 * np.ones((9, 16, 1)))
    want = 2.0 * (2.0 * g.half_width) ** 0.5 * 2.0**0.5
    assert abs(fs.mixed_norm(f, 2.0, 2.0) - want) < 1e-12
    want4 = 2.0 * (2.0 * g.half_width) ** 0.5 * 2.0**0.25
    assert abs(fs.mixed_norm(f, 2.0, 4.0) - want4) < 1e-12
    # for constants the transposed reading agrees
    assert abs(fs.mixed_norm(f, 2.0, 4.0, swap=True) - want4) < 1e-12


def test_mixed_norm_homogeneity_and_swap():
    g = fs.SpatialGrid(3.0, 16)
    times = np.linspace(0.0, 1.0, 7)
    rng = np.random.default_rng(17)
    vals = rng.standard_normal((7, 16, 2)) + 1j * rng.standard_normal((7, 16, 2))
    f = fs.SpaceTimeFunction(g, times, vals)
    f3 = fs.SpaceTimeFunction(g, times, 3.0 * vals)
    assert abs(fs.mixed_norm(f3, 2.0, 4.0) - 3.0 * fs.mixed_norm(f, 2.0, 4.0)) < 1e-12
    # p = p1 = 2 is Fubini-symmetric; distinct exponents are genuinely ordered
    assert abs(fs.mixed_norm(f, 2.0, 2.0) - fs.mixed_norm(f, 2.0, 2.0, swap=True)) < 1e-12
    assert abs(fs.mixed_norm(f, 2.0, 4.0) - fs.mixed_norm(f, 2.0, 4.0, swap=True)) > 1e-6


def test_mixed_norm_matches_manual_loops():
    g = fs.SpatialGrid(2.0, 8)
    times = np.linspace(0.0, 1.0, 5)
    rng = np.random.default_rng(23)
    vals = rng.standard_normal((5, 8, 1))
    f = fs.SpaceTimeFunction(g, times, vals)
    p, p1 = 2.0, 3.0
    h = g.spacing
    w = np.full(5, 0.25)
    w[0] = w[-1] = 0.125
    inner = [(h * np.sum(np.abs(vals[m, :, 0]) ** p)) ** (1 / p) for m in range(5)]
    want = float(np.sum(w * np.array(inner) ** p1) ** (1 / p1))
    assert abs(fs.mixed_norm(f, p, p1) - want) < 1e-12


def test_space_time_validation():
    g = fs.SpatialGrid(2.0, 8)
    with pytest.raises(ValueError):
        fs.SpaceTimeFunction(g, np.array([0.5, 1.0]), np.ones((2, 8)))
    with pytest.raises(ValueError):
        fs.SpaceTimeFunction(g, np.array([0.0, 0.5, 2.0]), np.ones((3, 8)))
    with pytest.raises(ValueError):
        fs.SpaceTimeFunction(g, np.array([0.0, 0.5, 1.0]), np.ones((2, 8)))
    f = fs.SpaceTimeFunction(g, np.array([0.0, 0.5, 1.0]), np.ones((3, 8)))
    assert f.dt == 0.5
    assert f.dim == 1
    np.testing.assert_array_equal(f.slice_at(1).values, np.ones((8, 1)))


def test_grid_function_arithmetic_and_validation():
    g = fs.SpatialGrid(2.0, 8)
    other = fs.SpatialGrid(3.0, 8)
    f = fs.GridFunction(g, np.ones(8))
    with pytest.raises(ValueError):
        _ = f + fs.GridFunction(other, np.ones(8))
    with pytest.raises(ValueError):
        fs.GridFunction(g, np.ones(7))
    with pytest.raises(ValueError):
        fs.GridFunction(g, np.full(8, np.nan))
    np.testing.assert_allclose(((2.0 * f) - f).values, f.values)


def test_sector():
    s = fs.Sector(math.pi / 4.0)
    assert s.contains(0.0)
    assert s.contains(1.0 + 1.0j)
    assert not s.contains(1.0j)
    assert not s.contains(-1.0)
    # boundary slack
    z = np.exp(1j * (math.pi / 4.0 + 1e-13))
    assert not s.contains(z)
    assert s.contains(z, tol=1e-12)
    with pytest.raises(ValueError):
        fs.Sector(math.pi)
    with pytest.raises(ValueError):
        fs.Sector(-0.1)
    assert fs.Sector(0.0).contains(5.0)
    assert not fs.Sector(0.0).contains(5.0 + 1e-6j)
    # the narrowest sector around a given lambda
    assert fs.Sector.enclosing(0.0).angle == 0.0
    assert fs.Sector.enclosing(2.0).angle == 1e-12
    assert fs.Sector.enclosing(1.0j).angle == math.pi / 2.0 + 1e-12
    assert fs.Sector.enclosing(-1.0).angle == math.pi - 1e-9
    for lam in (3.0, 1.0 + 2.0j, -1.0 - 1e-3j):
        assert fs.Sector.enclosing(lam).contains(lam)


def test_random_band_limited():
    g = fs.SpatialGrid(10.0, 64)
    u1 = fs.random_band_limited(g, 2, 42)
    u2 = fs.random_band_limited(g, 2, 42)
    np.testing.assert_array_equal(u1.values, u2.values)
    assert abs(fs.lp_norm(u1, 2.0) - 1.0) < 1e-12
    spec = fs.forward_transform(u1)
    outside = np.abs(g.spectral().indices) > 16
    assert np.max(np.abs(spec.values[outside])) < 1e-12
    # explicit generators advance state
    rng = np.random.default_rng(42)
    a = fs.random_band_limited(g, 1, rng)
    b = fs.random_band_limited(g, 1, rng)
    assert np.max(np.abs(a.values - b.values)) > 1e-3


def test_export_surface_has_no_stale_entries():
    layers = ("core", "fractional", "symbols", "elliptic", "parabolic", "bvp")
    union = set()
    for layer in layers:
        mod = importlib.import_module(f"fracspec.{layer}")
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert missing == [], (layer, missing)
        assert len(set(mod.__all__)) == len(mod.__all__), layer
        union |= set(mod.__all__)
    assert len(set(fs.__all__)) == len(fs.__all__)
    assert set(fs.__all__) == union | {"DEFAULT_SEED", "__version__"}
    assert all(hasattr(fs, name) for name in fs.__all__)


def test_one_transform_for_slices_and_stacks():
    # (N, d) and (M, N, d) arrays share one implementation on axis -2, with
    # the arithmetic of the per-axis formulas: h * fft * parity.
    g = fs.SpatialGrid(5.0, 32)
    rng = np.random.default_rng(8)
    parity = g.spectral().parity
    single = rng.standard_normal((32, 2)) + 1j * rng.standard_normal((32, 2))
    stack = rng.standard_normal((3, 32, 2)) + 1j * rng.standard_normal((3, 32, 2))
    f = fs.GridFunction(g, single)
    np.testing.assert_array_equal(
        fs.forward_transform(f).values, g.spacing * np.fft.fft(single, axis=0) * parity[:, None]
    )
    np.testing.assert_array_equal(
        g.to_spectral(stack), g.spacing * np.fft.fft(stack, axis=1) * parity[None, :, None]
    )
    np.testing.assert_array_equal(
        g.to_physical(stack), np.fft.ifft(stack * parity[None, :, None], axis=1) / g.spacing
    )


def test_apply_multiplier_scalar_and_stack():
    g = fs.SpatialGrid(5.0, 32)
    rng = np.random.default_rng(9)
    u = fs.random_band_limited(g, 2, rng)
    spec = fs.forward_transform(u)
    xi = g.spectral().frequencies
    # a scalar multiplier equals the same multiplier as a diagonal stack
    scalar = np.exp(-(xi**2)) + 1j * xi
    diag = scalar[:, None, None] * np.eye(2)
    np.testing.assert_allclose(
        fs.apply_multiplier(spec, scalar).values,
        fs.apply_multiplier(spec, diag).values,
        atol=1e-14,
    )
    # the constant symbol stack M acts as u -> u M^T in physical space
    mat = rng.standard_normal((2, 2))
    got = fs.apply_multiplier(spec, np.broadcast_to(mat, (32, 2, 2))).values
    np.testing.assert_allclose(got, u.values @ mat.T, atol=1e-13)
