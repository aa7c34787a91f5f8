"""Grids, transforms, norms, sectors."""

import ast
import builtins
import importlib
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fracspec as fs
from conftest import dft_matrices
from fracspec.elliptic import _image_norms

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
    np.testing.assert_array_equal(g.indices, [0, 1, 2, 3, -4, -3, -2, -1])
    np.testing.assert_allclose(g.frequencies, np.pi / 4.0 * g.indices)
    np.testing.assert_array_equal(g.parity, [1, -1, 1, -1, 1, -1, 1, -1])


@pytest.mark.parametrize("n", [8, 64, 256])
def test_transform_round_trip(n):
    g = fs.SpatialGrid(7.0, n)
    rng = np.random.default_rng(n)
    f = fs.GridFunction(g, rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)))
    back = fs.inverse_transform(fs.forward_transform(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-12
    spec = fs.SpectralFunction(g, f.values)
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
    np.testing.assert_allclose(g.frequencies, xi)


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
    xi3 = g.frequencies[3]
    f = fs.GridFunction(g, np.exp(1j * xi3 * g.points))
    # the expansion coefficient of e^{i xi_k x} is the transform value / (2L)
    coeff = fs.forward_transform(f).values[:, 0] / (2.0 * g.half_width)
    want = np.zeros(64, dtype=complex)
    want[3] = 1.0
    np.testing.assert_allclose(coeff, want, atol=1e-12)

    ones = fs.GridFunction(g, np.ones(64))
    coeff0 = fs.forward_transform(ones).values[:, 0] / (2.0 * g.half_width)
    want0 = np.zeros(64, dtype=complex)
    want0[0] = 1.0
    np.testing.assert_allclose(coeff0, want0, atol=1e-12)


def test_lp_norm_gaussian():
    g = fs.SpatialGrid(10.0, 1024)
    f = fs.GridFunction(g, np.exp(-g.points**2))
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


def _in_range(sums) -> bool:
    return bool(np.all((sums >= sys.float_info.min) & (sums < math.inf)))


def _scaled(a, k):
    """2^k a, part by part, or None unless each nonzero part stays normal."""
    parts = np.ascontiguousarray(a).view(float)
    out = np.ldexp(parts, k)
    nonzero = np.abs(out[parts != 0.0])
    if not (np.isfinite(out).all() and (nonzero >= sys.float_info.min).all()):
        return None
    return out.view(a.dtype)


def _norm_cases(rng, p, p1, d):
    """Per norm: (name, the field f it is drawn from, the norm of a field,
    the unscaled formula for it with whether every power sum in that lies in
    range, and the field the norm is taken of as a function of the field)."""
    g = fs.SpatialGrid(4.0, 8)
    h, two_l = g.spacing, 2.0 * g.half_width
    times = np.linspace(0.0, 2.0, 5)
    w = np.full(times.size, times[1])
    w[0] = w[-1] = 0.5 * times[1]

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    f, st_f, spec, mult = draw(8, d), draw(5, 8, d), draw(8, d), rng.uniform(0.5, 2.0, 8)
    keep = np.abs(g.indices) <= 2
    block, band = draw(3, d, int(keep.sum())), rng.uniform(0.5, 2.0, int(keep.sum()))

    def mixed_ref(v):
        inner_sums = h * np.sum(np.linalg.norm(v, axis=2) ** p, axis=1)
        inner = inner_sums ** (1.0 / p)
        outer = np.sum(w * inner**p1)
        return outer ** (1.0 / p1), _in_range(inner_sums) and _in_range(outer)

    def lp_ref(v):
        s = h * np.sum(np.linalg.norm(v, axis=1) ** p)
        return float(s ** (1.0 / p)), _in_range(s)

    def mult_ref(v):
        vals = (mult[:, None] * v).ravel()
        s = np.vdot(vals, vals).real / two_l
        return math.sqrt(s), _in_range(s)

    def physical(v):
        full = np.zeros((len(v), g.size, d), dtype=complex)
        full[:, keep] = (band * v).transpose(0, 2, 1)
        return g.to_physical(full)

    def image_ref(v):
        if p == 2.0:
            parts = (band * v).view(float).reshape(len(v), -1)
            s = np.einsum("ij,ij->i", parts, parts) / two_l
            return np.sqrt(s), _in_range(s)
        s = h * np.sum(np.linalg.norm(physical(v), axis=-1) ** p, axis=-1)
        return s ** (1.0 / p), _in_range(s)

    return [
        ("lp_norm", f, lambda v: fs.lp_norm(fs.GridFunction(g, v), p), lp_ref, lambda v: v),
        ("mixed_norm", st_f,
         lambda v: fs.mixed_norm(fs.SpaceTimeFunction(g, times, v), p, p1), mixed_ref, lambda v: v),
        ("multiplier_norm", spec, lambda v: fs.multiplier_norm(fs.SpectralFunction(g, v), mult, 2.0),
         mult_ref, lambda v: mult[:, None] * v),
        ("_image_norms", block, lambda v: _image_norms(g, keep, v, band, p), image_ref,
         (lambda v: band * v) if p == 2.0 else physical),
    ]


@settings(max_examples=10)
@given(
    p=st.sampled_from([1.5, 2.0, 3.0, 4.5, 7.0]),
    p1=st.sampled_from([1.5, 2.0, 3.0, 4.5, 7.0]),
    d=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_power_norms_keep_the_unscaled_bits_in_range_and_scale_exactly_past_it(p, p1, d, seed):
    """Every p-norm of a field 2^k f, at each k from -1100 to 1000 that keeps
    the nonzero parts of the field it takes normal: the unscaled formula bit
    for bit where all of its power sums lie in [float min, inf), and
    2^(k - k0) times its value at k0 bit for bit where every sum leaves that
    range (|k| >= 800 here, as f's norms lie within 2^+-16 of 1), with the
    value at k0 within rounding of 2^k0 times the unscaled one at k = 0."""
    for name, base, run, unscaled, normed in _norm_cases(np.random.default_rng(seed), p, p1, d):
        field = normed(base)
        got = {}
        for k in range(-1100, 1001, 20):
            v = _scaled(base, k)
            # each part of the normed field is 2^k times the unscaled one, and normal
            if v is not None and np.array_equal(normed(v), _scaled(field, k)):
                got[k] = np.asarray(run(v))
        unit = got[0]
        assume(np.all((unit >= 2.0**-16) & (unit <= 2.0**16)))
        deep = [k for k in got if abs(k) >= 800 and np.isfinite(got[k]).all()]
        k0 = min(k for k in deep if k > 0)
        np.testing.assert_allclose(got[k0], np.ldexp(unit, k0), rtol=1e-13, err_msg=name)
        for k, value in got.items():
            with np.errstate(over="ignore"):
                want, in_range = unscaled(_scaled(base, k))
            assert in_range or abs(k) > 40, (name, k)
            if in_range:
                assert np.array_equal(value, want), (name, k)
            elif k in deep:
                assert np.array_equal(value, np.ldexp(got[k0], k - k0)), (name, k)


def test_power_norms_of_zero_fields_are_zero():
    g = fs.SpatialGrid(1.0, 4)
    assert fs.lp_norm(fs.GridFunction(g, np.zeros(4)), 1e308) == 0.0
    zero = fs.SpaceTimeFunction(g, np.linspace(0.0, 1.0, 3), np.zeros((3, 4)))
    assert fs.mixed_norm(zero, 3.0, 1e308) == 0.0


def test_power_norms_at_huge_exponents_are_the_sup_norm():
    g = fs.SpatialGrid(1.0, 4)
    vals = np.array([0.1, -2.0, 1.5, 0.25])
    f = fs.GridFunction(g, vals)
    assert fs.lp_norm(f, 1e308) == 2.0
    times = np.linspace(0.0, 1.0, 3)
    st_f = fs.SpaceTimeFunction(g, times, np.outer([1.0, 4.0, 0.5], vals))
    assert fs.mixed_norm(st_f, 1e308, 1e308) == 8.0


def test_mixed_norm_constant_exact():
    g = fs.SpatialGrid(3.0, 16)
    times = np.linspace(0.0, 2.0, 9)
    f = fs.SpaceTimeFunction(g, times, 2.0 * np.ones((9, 16, 1)))
    want = 2.0 * (2.0 * g.half_width) ** 0.5 * 2.0**0.5
    assert abs(fs.mixed_norm(f, 2.0, 2.0) - want) < 1e-12
    want4 = 2.0 * (2.0 * g.half_width) ** 0.5 * 2.0**0.25
    assert abs(fs.mixed_norm(f, 2.0, 4.0) - want4) < 1e-12


def test_mixed_norm_homogeneity():
    g = fs.SpatialGrid(3.0, 16)
    times = np.linspace(0.0, 1.0, 7)
    rng = np.random.default_rng(17)
    vals = rng.standard_normal((7, 16, 2)) + 1j * rng.standard_normal((7, 16, 2))
    f = fs.SpaceTimeFunction(g, times, vals)
    f3 = fs.SpaceTimeFunction(g, times, 3.0 * vals)
    assert abs(fs.mixed_norm(f3, 2.0, 4.0) - 3.0 * fs.mixed_norm(f, 2.0, 4.0)) < 1e-12


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


def test_mixed_l2_of_spectra_does_not_depend_on_memory_layout():
    """The same values held in planar (M, d, N) memory give the same float."""
    from fracspec.core import _mixed_l2_of_spectra

    times = np.linspace(0.0, 1.0, 9)
    for n in (64, 256):
        g = fs.SpatialGrid(10.0, n)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            spec = rng.standard_normal((9, n, 2)) + 1j * rng.standard_normal((9, n, 2))
            spec *= np.exp(rng.uniform(-20.0, 5.0, size=(9, n, 1)))
            planar = np.ascontiguousarray(spec.transpose(0, 2, 1)).transpose(0, 2, 1)
            assert _mixed_l2_of_spectra(g, times, planar) == _mixed_l2_of_spectra(g, times, spec)


def test_every_sample_record_runs_one_sample_rule():
    """GridFunction, SpectralFunction and SpaceTimeFunction take their values
    alike: complex, a missing component axis added, the leading shape (grid,
    or time x grid) checked, every entry finite."""
    g = fs.SpatialGrid(2.0, 8)
    times = np.array([0.0, 0.5, 1.0])
    records = [
        (lambda v: fs.GridFunction(g, v), (8,), [(7,), (8, 2, 2)]),
        (lambda v: fs.SpectralFunction(g, v), (8,), [(7,), (8, 2, 2)]),
        (lambda v: fs.SpaceTimeFunction(g, times, v), (3, 8), [(2, 8), (3, 7), (3, 8, 2, 2)]),
    ]
    for make, lead, wrong in records:
        scalar = make(np.ones(lead, dtype=int))
        assert scalar.values.shape == (*lead, 1) and scalar.values.dtype == complex
        assert scalar.dim == 1 and make(np.ones((*lead, 3))).dim == 3
        for shape in wrong:
            with pytest.raises(ValueError, match=re.escape(f"shape {shape} does not match {lead}")):
                make(np.ones(shape))
        for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
            vals = np.ones((*lead, 2), dtype=complex)
            vals[(-1,) * len(lead) + (1,)] = bad
            with pytest.raises(ValueError, match="sample array contains non-finite entries"):
                make(vals)


def test_space_time_validation():
    g = fs.SpatialGrid(2.0, 8)
    with pytest.raises(ValueError):
        fs.SpaceTimeFunction(g, np.array([0.5, 1.0]), np.ones((2, 8)))
    with pytest.raises(ValueError):
        fs.SpaceTimeFunction(g, np.array([0.0, 0.5, 2.0]), np.ones((3, 8)))
    with pytest.raises(ValueError):
        fs.SpaceTimeFunction(g, np.array([0.0, 0.5, 1.0]), np.ones((2, 8)))
    f = fs.SpaceTimeFunction(g, np.array([0.0, 0.5, 1.0]), np.ones((3, 8)))
    assert f.dim == 1
    np.testing.assert_array_equal(f.values[1], np.ones((8, 1)))


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
    # no boundary slack
    z = np.exp(1j * (math.pi / 4.0 + 1e-13))
    assert not s.contains(z)
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
    outside = np.abs(g.indices) > 16
    assert np.max(np.abs(spec.values[outside])) < 1e-12
    # explicit generators advance state
    rng = np.random.default_rng(42)
    a = fs.random_band_limited(g, 1, rng)
    b = fs.random_band_limited(g, 1, rng)
    assert np.max(np.abs(a.values - b.values)) > 1e-3


# The package's public names; each is declared once, in its module's __all__.
PUBLIC_NAMES = [
    "BVPCoefficients", "CoefficientSymbol", "ConditionReport", "DEFAULT_SEED",
    "EllipticProblem", "FractionalOrder", "GridFunction", "JsonRecord", "OperatorSymbol",
    "Sector", "SectorialityReport", "SolveError", "SolveReport", "SpaceTimeFunction",
    "SpatialGrid", "SpectralFunction", "SystemMatrix", "Witness",
    "__version__", "apply_multiplier", "band_limited_spectrum", "check_ellipticity",
    "check_mikhlin_bounds", "check_sector_growth", "coercive_report", "constant_coefficient",
    "constant_operator", "discretize_bvp", "embedding_probe", "forward_transform",
    "frac_power_i_xi", "inverse_transform", "lp_norm",
    "matrix_fractional_power", "mixed_norm", "multiplier_norm", "parabolic_coercive_report",
    "perturbed_operator", "q_matrices", "random_band_limited", "resolvent_sweep",
    "scalar_inequality_suite", "scaled_decay_coefficient",
    "separability_check", "smallest_singular_values", "solve_anisotropic", "solve_elliptic",
    "solve_parabolic", "solve_system", "symbol_kernel", "symbol_resolvent_bound", "symbol_smin",
]


def test_export_surface_has_no_stale_entries():
    layers = ("core", "fractional", "symbols", "elliptic", "parabolic", "bvp")
    exported = []
    for layer in layers:
        mod = importlib.import_module(f"fracspec.{layer}")
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert missing == [], (layer, missing)
        exported += mod.__all__
        assert all(getattr(fs, name) is getattr(mod, name) for name in mod.__all__), layer
    assert fs.__all__ == [*exported, "__version__"]
    assert sorted(fs.__all__) == PUBLIC_NAMES


# Public names the package need not call itself: the version, and the
# library's time-stepping entry point, whose solve the CLI reaches through
# parabolic_coercive_report.
UNCALLED_PUBLIC_NAMES = {"solve_parabolic", "__version__"}


def _package_references() -> set[str]:
    """Every name that ``src/fracspec`` reads, by name or as an attribute,
    outside the top-level statement that defines it; imports read nothing."""
    seen = set()
    for path in Path(fs.__file__).parent.glob("*.py"):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            nodes = list(ast.walk(stmt))
            names = [node for node in nodes if isinstance(node, ast.Name)]
            own = {getattr(stmt, "name", None)}
            own |= {node.id for node in names if isinstance(node.ctx, ast.Store)}
            seen |= {node.id for node in names if isinstance(node.ctx, ast.Load)} - own
            seen |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    return seen


def test_every_public_name_has_a_caller_in_the_package():
    assert UNCALLED_PUBLIC_NAMES <= set(fs.__all__)
    assert sorted(set(fs.__all__) - UNCALLED_PUBLIC_NAMES - _package_references()) == []


def _private_module_names() -> set[str]:
    """Every name with one leading underscore that a top-level statement of
    ``src/fracspec`` defines: a function, a class or an assigned name."""
    seen = set()
    for path in Path(fs.__file__).parent.glob("*.py"):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                seen.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                seen |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {name for name in seen if name.startswith("_") and not name.startswith("__")}


def test_every_private_name_has_a_caller_in_the_package():
    """A private helper that no other statement of the package reads is dead code."""
    assert sorted(_private_module_names() - _package_references()) == []


def _literal_messages() -> dict[str, list[str]]:
    """The source text of every literal message that an exception constructor
    of ``src/fracspec`` is called with, to the places that build it.  A
    literal message is a string constant, or an f-string whose literal text
    holds a letter (``f"{label}: {exc}"`` only passes a message on)."""
    errors = {
        name
        for name, obj in {**vars(builtins), **vars(fs)}.items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
    }
    seen: dict[str, list[str]] = {}
    for path in sorted(Path(fs.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = getattr(node.func, "id", getattr(node.func, "attr", None))
            msg = node.args[0]
            if func not in errors or not isinstance(msg, (ast.Constant, ast.JoinedStr)):
                continue
            parts = msg.values if isinstance(msg, ast.JoinedStr) else [msg]
            text = "".join(str(p.value) for p in parts if isinstance(p, ast.Constant))
            if re.search("[A-Za-z]", text):
                seen.setdefault(ast.unparse(msg), []).append(f"{path.name}:{node.lineno}")
    return seen


def test_each_exception_message_has_one_raise_site():
    """Two constructors that build the same literal message are one rule written twice."""
    messages = _literal_messages()
    assert len(messages) > 50
    assert {msg: sites for msg, sites in messages.items() if len(sites) > 1} == {}


def test_one_transform_for_slices_and_stacks():
    # (N, d) and (M, N, d) arrays share one implementation on axis -2, with
    # the arithmetic of the per-axis formulas: h * fft * parity.
    g = fs.SpatialGrid(5.0, 32)
    rng = np.random.default_rng(8)
    parity = g.parity
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
    xi = g.frequencies
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


@settings(max_examples=60)
@given(
    half=st.integers(2, 64),
    dim=st.sampled_from([1, 2, 3]),
    stack=st.booleans(),
    half_width=st.floats(0.5, 50.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_multiplier_norm_parseval_matches_physical_path(half, dim, stack, half_width, seed):
    g = fs.SpatialGrid(half_width, 2 * half)
    rng = np.random.default_rng(seed)
    shape = (g.size, dim)
    spec = fs.SpectralFunction(g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    mshape = (g.size, dim, dim) if stack else (g.size,)
    mult = rng.standard_normal(mshape) + 1j * rng.standard_normal(mshape)
    want = fs.lp_norm(fs.apply_multiplier(spec, mult), 2.0)
    assert abs(fs.multiplier_norm(spec, mult, 2.0) - want) <= 1e-12 * want


def test_multiplier_norm_off_two_is_the_physical_path():
    g = fs.SpatialGrid(5.0, 32)
    spec = fs.forward_transform(fs.random_band_limited(g, 2, 3))
    xi = g.frequencies
    for mult in (np.exp(-(xi**2)) + 1j * xi, np.broadcast_to(np.eye(2) + 1j, (32, 2, 2))):
        for p in (1.5, 3.0, 7.0):
            assert fs.multiplier_norm(spec, mult, p) == fs.lp_norm(fs.apply_multiplier(spec, mult), p)
    for bad in (1.0, math.inf):
        with pytest.raises(ValueError, match="Lebesgue exponent"):
            fs.multiplier_norm(spec, xi, bad)
    nonfinite = np.full(32, np.nan)
    for p in (2.0, 3.0):
        with pytest.raises(ValueError, match="sample array contains non-finite entries"):
            fs.multiplier_norm(spec, nonfinite, p)


def test_random_band_limited_is_the_normalized_spectrum_draw():
    g = fs.SpatialGrid(10.0, 64)
    spec = fs.band_limited_spectrum(g, 2, 42)
    assert np.all(spec.values[np.abs(g.indices) > 16] == 0.0)
    u = fs.inverse_transform(spec)
    want = u.values / fs.lp_norm(u, 2.0)
    np.testing.assert_array_equal(fs.random_band_limited(g, 2, 42).values, want)


def test_all_zero_draw_is_degenerate():
    class Zeros(np.random.Generator):
        def standard_normal(self, size=None, dtype=np.float64, out=None):
            return np.zeros(size)

    g = fs.SpatialGrid(10.0, 16)
    for draw in (fs.band_limited_spectrum, fs.random_band_limited):
        with pytest.raises(RuntimeError, match="degenerate random draw"):
            draw(g, 1, Zeros(np.random.PCG64(0)))
