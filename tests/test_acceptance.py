"""Acceptance gate: twelve go/no-go properties of the whole package.

Each test prints a single PASS/FAIL line (run pytest with -s to see them)
and then asserts, so the suite doubles as a human-readable checklist.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

import fracspec as fs
from fracspec.cli import main as cli_main
from conftest import dense_solve, make_problem, rel_linf, rl_derivative_oracle

SEED = 0xF5EC


def _verdict(num: int, desc: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}")
    assert ok, f"criterion {num} failed: {desc} {detail}".rstrip()


def _gauss_forcing(grid, dim=1):
    vals = np.exp(-grid.points**2)
    return fs.GridFunction(grid, np.tile(vals[:, None], (1, dim)))


def test_criterion_01_dense_oracle_equivalence():
    rng = np.random.default_rng(401)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        gamma = float(rng.choice([1.25, 1.5, 2.0]))
        d = int(rng.integers(1, 4))
        n = int(rng.choice([16, 32, 64, 128]))
        g = fs.SpatialGrid(float(rng.uniform(5.0, 12.0)), n)
        w = rng.standard_normal((d, d))
        mat = w @ w.T + d * np.eye(d)
        q_form = "factored" if rng.random() < 0.3 else "unfactored"
        prob = make_problem(g, gamma=gamma, mat=mat, q_form=q_form)
        f = fs.random_band_limited(g, d, rng)
        lam = rng.uniform(0.0, 100.0) * np.exp(1j * rng.uniform(-0.78, 0.78))
        got = fs.solve_elliptic(prob, f, lam).solution
        want = dense_solve(prob, f, lam)
        worst = max(worst, rel_linf(got.values, want.values))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    _verdict(
        1,
        "20 random spectral solves match the dense quadrature oracle to 1e-9",
        ok,
        f"(worst rel error {worst:.3e}, {elapsed:.2f} s)",
    )


def _bump(x):
    t = (x - 4.0) / 2.0
    out = np.zeros_like(x)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


def test_criterion_02_fractional_derivative_oracle():
    gamma = 1.5
    errors = []
    for n in (1024, 2048, 4096, 8192):
        g = fs.SpatialGrid(20.0, n)
        f = fs.GridFunction(g, _bump(g.points))
        d_gamma = fs.apply_multiplier(
            fs.forward_transform(f), fs.frac_power_i_xi(g.frequencies, gamma)
        )
        spectral = d_gamma.values[:, 0].real
        gl = rl_derivative_oracle(f.values[:, 0].real, gamma, g.spacing)
        window = (g.points >= 3.0) & (g.points <= 5.0)
        errors.append(np.max(np.abs(spectral[window] - gl[window])))
    ratios = [errors[i] / errors[i + 1] for i in range(3)]
    h = 1.0 / 4096
    x = h * np.arange(4097)
    power_rule = rl_derivative_oracle(x**2, gamma, h)[-1]
    power_err = abs(power_rule - 2.0 / gamma_fn(1.5))
    ok = all(1.8 <= r <= 2.2 for r in ratios) and power_err <= 1e-3
    _verdict(
        2,
        "Grunwald-Letnikov cross-check: halving ratios in [1.8, 2.2], power rule to 1e-3",
        ok,
        f"(ratios {['%.3f' % r for r in ratios]}, power-rule error {power_err:.2e})",
    )


def test_criterion_03_residual_identities():
    rng = np.random.default_rng(17)
    worst_elliptic = 0.0
    g = fs.SpatialGrid(10.0, 64)
    for gamma, d in ((1.25, 1), (1.5, 2), (2.0, 1)):
        w = rng.standard_normal((d, d))
        prob = make_problem(g, gamma=gamma, mat=w @ w.T + d * np.eye(d))
        rep = fs.solve_elliptic(prob, fs.random_band_limited(g, d, rng), 1.0)
        worst_elliptic = max(worst_elliptic, rep.residual_rel)
    core = make_problem(fs.SpatialGrid(10.0, 64), gamma=1.5)
    rels = {}
    for steps in (256, 1024):
        times = np.linspace(0.0, 2.0, steps + 1)
        f = fs.SpaceTimeFunction(
            core.grid,
            times,
            np.sin(times)[:, None] * np.exp(-core.grid.points**2)[None, :],
        )
        rels[steps] = fs.parabolic_coercive_report(core, f).residual_rel
    ok = worst_elliptic <= 1e-9 and rels[256] <= 0.02 and rels[1024] <= 0.005
    _verdict(
        3,
        "residuals: elliptic <= 1e-9 rel, parabolic <= 2% at Nt=256 and <= 0.5% at Nt=1024",
        ok,
        f"(elliptic {worst_elliptic:.2e}, parabolic {rels[256]:.2e} / {rels[1024]:.2e})",
    )


def test_criterion_04_sectoriality_lattice():
    radii = np.logspace(-3.0, 3.0, 25)
    g = fs.SpatialGrid(10.0, 256)
    scalar = make_problem(g, gamma=2.0)
    spd = make_problem(g, gamma=1.5, mat=np.array([[2.0, 1.0], [1.0, 2.0]]))
    rep2 = fs.resolvent_sweep(scalar, fs.Sector(math.pi / 4.0), radii, 17)
    rep15 = fs.resolvent_sweep(spd, fs.Sector(math.pi / 4.0), radii, 17)
    ok = (
        math.isfinite(rep2.bound)
        and math.isfinite(rep15.bound)
        and rep2.bound <= 1.0 + 1e-10
        and rep2.stable is True
        and rep15.stable is True
        and rep2.refinement_drift < 0.05
        and rep15.refinement_drift < 0.05
    )
    _verdict(
        4,
        "resolvent sup on the 25x17 sector lattice is finite, grid-stable, <= 1 for gamma=2",
        ok,
        f"(gamma=2 bound {rep2.bound:.6f}, gamma=1.5 bound {rep15.bound:.4f}, "
        f"drifts {rep2.refinement_drift:.3f}/{rep15.refinement_drift:.3f})",
    )


def test_criterion_05_coercive_estimate():
    lams = [10.0**k for k in range(-2, 5)]
    stats = {}
    for gamma in (1.5, 2.0):
        per_n = []
        for n in (128, 256):
            g = fs.SpatialGrid(10.0, n)
            prob = make_problem(g, gamma=gamma)
            f = _gauss_forcing(g)
            per_n.append(max(fs.coercive_report(prob, f, lam).coercive_ratio for lam in lams))
        drift = abs(per_n[1] - per_n[0]) / per_n[0]
        stats[gamma] = (per_n[1], drift)
    ok = (
        all(math.isfinite(v) and d < 0.05 for v, d in stats.values())
        and stats[2.0][0] <= 3.01
    )
    _verdict(
        5,
        "coercive ratio finite over lambda in 1e-2..1e4, <5% grid drift, canonical <= 3.01",
        ok,
        f"(max ratios {stats})",
    )


def test_criterion_06_separability_constants():
    prob = make_problem(fs.SpatialGrid(10.0, 64), gamma=1.5)
    rep50 = fs.separability_check(prob, trials=50, seed=SEED)
    rep200 = fs.separability_check(prob, trials=200, seed=SEED)
    c2_drift = abs(rep200.constants["C2"] - rep50.constants["C2"]) / rep50.constants["C2"]
    ok = (
        rep50.passed
        and rep200.passed
        and rep50.constants["C1"] >= 1.0 - 1e-12
        and rep200.constants["C1"] >= 1.0 - 1e-12
        and not rep200.witnesses
        and c2_drift <= 0.10
    )
    _verdict(
        6,
        "separability lower constant is 1 on every trial; C2 stable within 10% (50 vs 200)",
        ok,
        f"(C1 {rep200.constants['C1']:.6f}, C2 {rep50.constants['C2']:.4f} -> "
        f"{rep200.constants['C2']:.4f}, drift {c2_drift:.3f})",
    )


def test_criterion_07_scalar_inequalities():
    angles = [0.1, math.pi / 6.0, math.pi / 4.0, math.pi / 3.0, 1.2, math.pi / 2.0]
    min_sep = math.inf
    violations = 0
    pairs = 0
    for p1 in angles:
        for p2 in angles:
            if p1 + p2 > math.pi - 0.1:
                continue
            rep = fs.scalar_inequality_suite(
                fs.Sector(p1), fs.Sector(p2), samples=10_000, seed=SEED
            )
            pairs += 1
            min_sep = min(min_sep, rep.constants["angle_separation_min"])
            violations += int(rep.constants["weighted_product_violations"])
    ok = min_sep > 0.0 and violations == 0 and pairs >= 10
    _verdict(
        7,
        "angle-separation minimum positive on all sector pairs; 0 weighted-product "
        "violations in 1e4 samples",
        ok,
        f"(min separation {min_sep:.4f} over {pairs} pairs, {violations} violations)",
    )


def test_criterion_08_parabolic_schemes():
    g = fs.SpatialGrid(10.0, 64)
    core = make_problem(g, gamma=2.0, mat=np.array([[2.0]]))
    slopes = {}
    for scheme in ("implicit-euler", "crank-nicolson"):
        errs = []
        for steps in (32, 64, 128, 256):
            f = fs.SpaceTimeFunction(
                g, np.linspace(0.0, 2.0, steps + 1),
                np.ones(steps + 1)[:, None] * np.exp(-g.points**2)[None, :],
            )
            ref = fs.solve_parabolic(core, f)  # exact for constant forcing
            u = fs.solve_parabolic(core, f, scheme)
            errs.append(np.max(np.abs(u.values[-1] - ref.values[-1])))
        fit = np.polyfit(np.log2([32, 64, 128, 256]), np.log2(errs), 1)
        slopes[scheme] = -fit[0]
    steady_core = make_problem(fs.SpatialGrid(10.0, 64), gamma=1.5)
    phi = np.exp(-steady_core.grid.points**2)
    times = np.linspace(0.0, 50.0, 401)
    f = fs.SpaceTimeFunction(steady_core.grid, times, np.ones(401)[:, None] * phi[None, :])
    u_final = fs.solve_parabolic(steady_core, f).values[-1]
    steady = fs.solve_elliptic(steady_core, fs.GridFunction(steady_core.grid, phi), 0.0)
    steady_err = np.max(np.abs(u_final - steady.solution.values))
    ok = (
        abs(slopes["implicit-euler"] - 1.0) <= 0.15
        and abs(slopes["crank-nicolson"] - 2.0) <= 0.15
        and steady_err <= 1e-6
    )
    _verdict(
        8,
        "scheme orders 1.0/2.0 within 0.15; steady state matches the elliptic solve to 1e-6",
        ok,
        f"(orders IE {slopes['implicit-euler']:.3f}, CN {slopes['crank-nicolson']:.3f}, "
        f"steady error {steady_err:.2e})",
    )


def test_criterion_09_system_gate_and_decoupling():
    accepted = fs.SystemMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    gate_ok = abs(accepted.coercivity - 1.0) <= 1e-12
    try:
        fs.SystemMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        reject_ok = False
        msg = "no error raised"
    except ValueError as exc:
        msg = str(exc)
        reject_ok = "-1" in msg
    g = fs.SpatialGrid(10.0, 32)
    mat = fs.SystemMatrix(np.diag([2.0, 5.0]))
    f = fs.random_band_limited(g, 2, 3)
    rep = fs.solve_system(mat, fs.FractionalOrder(1.5), fs.constant_coefficient(-1.0), 1.0, f)
    decouple_err = 0.0
    for i, diag in enumerate((2.0, 5.0)):
        scalar = make_problem(g, gamma=1.5, mat=np.array([[diag + 1.0]]))
        fi = fs.GridFunction(g, f.values[:, i])
        want = fs.solve_elliptic(scalar, fi, 0.0).solution.values[:, 0]
        decouple_err = max(decouple_err, np.max(np.abs(rep.solution.values[:, i] - want)))
    ok = gate_ok and reject_ok and decouple_err <= 1e-12
    _verdict(
        9,
        "SPD gate accepts [[2,1],[1,2]] and rejects [[1,2],[2,1]] naming eigenvalue -1; "
        "diagonal systems decouple to 1e-12",
        ok,
        f"(rejection message {msg!r}, decoupling error {decouple_err:.2e})",
    )


def test_criterion_10_bvp_manufactured_convergence():
    g = fs.SpatialGrid(10.0, 256)
    x = g.points
    order = fs.FractionalOrder(2.0)
    a = fs.constant_coefficient(-1.0)
    lam = 1.0
    gauss = np.exp(-(x**2))
    errs = []
    for m in (15, 31, 63):
        coeffs = fs.BVPCoefficients(
            lambda y: np.ones_like(y), lambda y: np.zeros_like(y),
            lambda y: np.zeros_like(y), m,
        )
        y = coeffs.mesh
        f_vals = (gauss * (2.0 - 4.0 * x**2 + math.pi**2 + lam))[:, None] * np.sin(
            math.pi * y
        )[None, :]
        rep = fs.solve_anisotropic(coeffs, order, a, lam, fs.GridFunction(g, f_vals))
        want = gauss[:, None] * np.sin(math.pi * y)[None, :]
        errs.append(np.max(np.abs(rep.solution.values - want)))
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    mesh9 = fs.BVPCoefficients(
        lambda y: np.ones_like(y), lambda y: np.zeros_like(y),
        lambda y: np.zeros_like(y), 9,
    )
    neg9 = fs.BVPCoefficients(
        lambda y: -np.ones_like(y), lambda y: np.zeros_like(y),
        lambda y: np.zeros_like(y), 9,
    )
    good = fs.check_ellipticity(mesh9, fs.Sector(math.pi / 4.0))
    bad = fs.check_ellipticity(neg9, fs.Sector(math.pi / 4.0))
    ok = (
        all(3.5 <= r <= 4.5 for r in ratios)
        and good.passed
        and not bad.passed
        and len(bad.witnesses) > 0
    )
    _verdict(
        10,
        "manufactured BVP solution converges at second order in y; ellipticity checker "
        "passes b2=1 and fails b2=-1 with a witness",
        ok,
        f"(error ratios {['%.2f' % r for r in ratios]}, "
        f"witnesses {len(bad.witnesses)})",
    )


def test_criterion_11_embedding_probe_stability():
    g = fs.SpatialGrid(10.0, 64)
    prob = make_problem(g, gamma=2.0, mat=np.diag([1.0, 4.0]))
    h_set = [0.1, 0.3, 1.0]

    def study_constant(seed, draws):
        # one bound for the whole alpha x mu x h x draw lattice, per draw index
        per_draw = np.zeros(draws)
        for alpha in (0.0, 1.0):
            for mu in (0.0, 0.25):
                rng = np.random.default_rng(seed)
                for i in range(draws):
                    u = fs.random_band_limited(g, 2, rng)
                    rep = fs.embedding_probe(
                        prob, [u], alpha=alpha, s=2.0, p=2.0, q=2.0, mu=mu, h_set=h_set
                    )[0]
                    per_draw[i] = max(per_draw[i], rep.constants["max_ratio"])
        return per_draw

    per_draw = study_constant(SEED, 20)
    c10, c20 = per_draw[:10].max(), per_draw.max()
    c_rerun = study_constant(SEED + 1, 20).max()
    nested_drift = abs(c20 - c10) / c10
    seed_drift = abs(c_rerun - c20) / c20
    ok = math.isfinite(c20) and nested_drift <= 0.10 and seed_drift <= 0.10
    _verdict(
        11,
        "embedding-study constant bounded and stable within 10% over h-set and 20 draws",
        ok,
        f"(C = {c20:.4f}, half-sample drift {nested_drift:.3f}, reseed drift {seed_drift:.3f})",
    )


def test_criterion_12_cli_byte_determinism(tmp_path, monkeypatch):
    for name in ("FRACSPEC_CONFIG", "FRACSPEC_OUT", "FRACSPEC_SEED"):
        monkeypatch.delenv(name, raising=False)
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[problem]\ngamma = 1.5\nl = 10.0\nn = 64\n\n[task]\nname = solve-elliptic\n\n"
        "[parameters]\nforcing = random\n\n[output]\ndirectory = out\n"
    )
    sweep_ini = tmp_path / "sweep.ini"
    sweep_ini.write_text(
        "[problem]\ngamma = 2.0\nl = 10.0\nn = 64\n\n[task]\nname = resolvent-sweep\n\n"
        "[parameters]\nradii = 0.1,1,10\nangles = 5\nprobes = 2\n\n[output]\ndirectory = out\n"
    )
    ok = True
    for cfg, artifact in ((ini, "solution.csv"), (sweep_ini, "sweep.csv")):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{cfg.stem}_{run}"
            assert cli_main(["--config", str(cfg), "--out", str(out)]) == 0
            outs.append((out / artifact).read_bytes())
        if outs[0] != outs[1]:
            ok = False
    _verdict(12, "repeated identical-config CLI runs produce byte-identical CSV bodies", ok)
