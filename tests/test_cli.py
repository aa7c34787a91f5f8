"""End-to-end runs of the command-line entry point via main(argv)."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import fracspec
from fracspec import bvp, cli, config, elliptic, parabolic
from fracspec.bvp import BVPCoefficients
from fracspec.cli import (
    CSV_BLOCK_ROWS,
    _parabolic_forcing,
    _profile_weights,
    _write_csv,
    _write_solution,
    main,
)
from fracspec.config import RunConfig, build_forcing, build_problem
from fracspec.core import GridFunction, SpatialGrid, lp_norm

BASE = """\
[problem]
gamma = {gamma}
l = 10.0
n = 64
{problem_extra}
[task]
name = {task}

[parameters]
{params}

[output]
directory = {out}
{output_extra}
"""


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for name in ("FRACSPEC_CONFIG", "FRACSPEC_OUT", "FRACSPEC_SEED"):
        monkeypatch.delenv(name, raising=False)


def _write_ini(tmp_path, task, params="", gamma="1.5", problem_extra="",
               output_extra="", out=None, name="run.ini"):
    out = out or tmp_path / "out"
    ini = tmp_path / name
    ini.write_text(
        BASE.format(task=task, params=params, gamma=gamma, out=out,
                    problem_extra=problem_extra, output_extra=output_extra)
    )
    return ini, out


def _report(out):
    return json.loads((out / "report.json").read_text())


def test_solve_elliptic_artifacts(tmp_path):
    ini, out = _write_ini(tmp_path, "solve-elliptic")
    assert main(["--config", str(ini)]) == 0
    lines = (out / "solution.csv").read_text().splitlines()
    assert lines[0] == "x,re_u,im_u"
    assert len(lines) == 65
    rep = _report(out)
    assert rep["task"] == "solve-elliptic"
    assert rep["failed_checks"] == []
    assert rep["results"]["residual_rel"] < 1e-9
    assert rep["seed"] == 0xF5EC


def test_solve_parabolic_artifacts(tmp_path):
    ini, out = _write_ini(tmp_path, "solve-parabolic", params="nt = 8\nt = 1.0")
    assert main(["--config", str(ini)]) == 0
    lines = (out / "solution.csv").read_text().splitlines()
    assert lines[0] == "t,x,re_u,im_u"
    assert len(lines) == 1 + 9 * 64


def test_solve_parabolic_factored_form(tmp_path):
    # a = -1: the factored form with -A is the unfactored form with A
    rels = []
    for q_form, matrix in (("unfactored", "2,1;1,2"), ("factored", "-2,-1;-1,-2")):
        ini, out = _write_ini(
            tmp_path, "solve-parabolic", params="nt = 16",
            problem_extra=f"q_form = {q_form}\na_op_matrix = {matrix}",
            out=tmp_path / q_form, name=f"{q_form}.ini",
        )
        assert main(["--config", str(ini)]) == 0
        rels.append(_report(out)["results"]["residual_rel"])
    assert rels[0] < 1e-2
    assert rels[1] == pytest.approx(rels[0], rel=1e-12)


def test_byte_determinism_with_random_forcing(tmp_path):
    ini, _ = _write_ini(tmp_path, "solve-elliptic", params="forcing = random")
    out1, out2, out3 = (tmp_path / n for n in ("o1", "o2", "o3"))
    assert main(["--config", str(ini), "--out", str(out1)]) == 0
    assert main(["--config", str(ini), "--out", str(out2)]) == 0
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()
    assert main(["--config", str(ini), "--out", str(out3), "--seed", "7"]) == 0
    assert (out1 / "solution.csv").read_bytes() != (out3 / "solution.csv").read_bytes()
    assert _report(out3)["seed"] == 7


def test_env_overrides_and_flag_precedence(tmp_path, monkeypatch):
    ini, _ = _write_ini(tmp_path, "solve-elliptic", params="forcing = random")
    out_env = tmp_path / "env_out"
    monkeypatch.setenv("FRACSPEC_CONFIG", str(ini))
    monkeypatch.setenv("FRACSPEC_OUT", str(out_env))
    monkeypatch.setenv("FRACSPEC_SEED", "7")
    assert main([]) == 0
    assert _report(out_env)["seed"] == 7
    out_flag = tmp_path / "flag_out"
    assert main(["--seed", "11", "--out", str(out_flag)]) == 0
    assert _report(out_flag)["seed"] == 11


def test_help_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["-h"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: fracspec [-h] [--config CONFIG]")


def test_config_seed_and_threads(tmp_path):
    ini, out = _write_ini(
        tmp_path, "solve-elliptic", params="seed = 123", output_extra="threads = 0"
    )
    assert main(["--config", str(ini)]) == 0
    rep = _report(out)
    assert rep["seed"] == 123
    assert rep["threads"] == 0


def test_threads_environment_variable_has_no_effect(tmp_path, monkeypatch):
    """FRACSPEC_THREADS overrides nothing: a run under FRACSPEC_THREADS=abc
    writes the bytes of one without it, its report.json included."""
    ini, _ = _write_ini(tmp_path, "solve-elliptic", params="forcing = random")
    plain, under_env = tmp_path / "plain", tmp_path / "env"
    assert main(["--config", str(ini), "--out", str(plain)]) == 0
    monkeypatch.setenv("FRACSPEC_THREADS", "abc")
    assert main(["--config", str(ini), "--out", str(under_env)]) == 0
    names = sorted(path.name for path in plain.iterdir())
    assert names == sorted(path.name for path in under_env.iterdir())
    for name in names:
        assert (plain / name).read_bytes() == (under_env / name).read_bytes()
    assert _report(under_env)["threads"] == 1


def test_verify_conditions_flags_constant_coefficient(tmp_path):
    ini, out = _write_ini(tmp_path, "verify-conditions", params="samples = 500")
    assert main(["--config", str(ini)]) == 2
    rep = _report(out)
    assert "sector-growth" in rep["failed_checks"]
    for name in ("sector-growth", "multiplier-bounds", "resolvent-bound",
                 "scalar-inequalities"):
        assert name in rep["results"]


def test_verify_conditions_scaled_decay_passes(tmp_path):
    ini, out = _write_ini(
        tmp_path, "verify-conditions",
        params="samples = 500", problem_extra="a_family = scaled_decay"
    )
    assert main(["--config", str(ini)]) == 0
    assert _report(out)["failed_checks"] == []


def test_resolvent_sweep_artifacts(tmp_path):
    ini, out = _write_ini(
        tmp_path, "resolvent-sweep", gamma="2.0",
        params="radii = 0.1,1,10\nangles = 5",
    )
    assert main(["--config", str(ini)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "re_lambda,im_lambda,value"
    assert len(lines) == 1 + 15
    rep = _report(out)
    assert rep["results"]["stable"] is True


def test_resolvent_sweep_probe_column(tmp_path):
    ini, out = _write_ini(
        tmp_path, "resolvent-sweep", gamma="2.0",
        params="radii = 0.1,1,10\nangles = 3\nprobes = 2\nrefine = false",
    )
    assert main(["--config", str(ini)]) == 0
    header = (out / "sweep.csv").read_text().splitlines()[0]
    assert header == "re_lambda,im_lambda,value,probe_lower"


@pytest.mark.parametrize(
    "gamma, n, problem_extra, radii, failed",
    [
        # A = -1 makes Q(0, 1) = 0 at the sweep's only radius
        ("1.5", "64", "a_op_matrix = -1", "1", "singular-symbol"),
        # at |lambda| = 30 the refined grid's bound drifts by 4.87 relative, past 5%
        ("2.0", "32", "a_value = 1", "30", "refinement-stability"),
    ],
)
def test_resolvent_sweep_failed_checks_exit_two(tmp_path, gamma, n, problem_extra, radii, failed):
    ini, out = _write_ini(
        tmp_path, "resolvent-sweep", gamma=gamma, problem_extra=problem_extra,
        params=f"radii = {radii}\nangles = 3",
    )
    ini.write_text(ini.read_text().replace("n = 64", f"n = {n}"))
    assert main(["--config", str(ini)]) == 2
    assert _report(out)["failed_checks"] == [failed]
    assert (out / "sweep.csv").exists()


def test_separability_artifacts(tmp_path):
    ini, out = _write_ini(tmp_path, "separability", params="trials = 10")
    assert main(["--config", str(ini)]) == 0
    lines = (out / "ratios.csv").read_text().splitlines()
    assert lines[0] == "trial,ratio"
    assert len(lines) == 11


@pytest.mark.parametrize(
    "problem_extra, params, key",
    [
        ("a_value = 1e308", "", "a_value"),
        ("a_op_matrix = 1e308", "p = 3", "a_op_matrix"),
    ],
)
def test_separability_overflow_names_the_scale_key(
    tmp_path, capsys, problem_extra, params, key
):
    ini, out = _write_ini(
        tmp_path, "separability", params=f"trials = 3\n{params}", problem_extra=problem_extra
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", str(ini)]) == 1
    assert caught == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: [problem] {key} = ")
    assert "overflow" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "task", ["solve-elliptic", "verify-conditions", "resolvent-sweep", "solve-parabolic"]
)
def test_overflowing_a_value_names_the_key(tmp_path, capsys, task):
    params = {"resolvent-sweep": "radii = 1\nangles = 2", "solve-parabolic": "nt = 4"}
    ini, out = _write_ini(
        tmp_path, task, params=params.get(task, ""), problem_extra="a_value = 1e308"
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", str(ini)]) == 1
    assert caught == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: [problem] a_value = 1e308: ")
    assert "overflow" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "matrix, kernel", [("2,1;1,2", "hermitian-eig"), ("1,2;0,1", "svd")]
)
def test_reports_name_the_symbol_kernel(tmp_path, matrix, kernel):
    sweep, sweep_out = _write_ini(
        tmp_path, "resolvent-sweep", params="radii = 1\nangles = 2\nrefine = false",
        problem_extra=f"a_op_matrix = {matrix}", out=tmp_path / "sweep", name="sweep.ini",
    )
    verify, verify_out = _write_ini(
        tmp_path, "verify-conditions", problem_extra=f"a_op_matrix = {matrix}",
        out=tmp_path / "verify", name="verify.ini",
    )
    assert main(["--config", str(sweep)]) in (0, 2)
    assert _report(sweep_out)["results"]["meta"]["symbol_kernel"] == kernel
    assert main(["--config", str(verify)]) in (0, 2)
    bound = _report(verify_out)["results"]["resolvent-bound"]
    assert bound["meta"]["symbol_kernel"] == kernel


def test_embedding_probe_artifacts(tmp_path):
    ini, out = _write_ini(
        tmp_path, "embedding-probe", gamma="2.0",
        params="draws = 3\nh_set = 0.5,1.0",
    )
    assert main(["--config", str(ini)]) == 0
    lines = (out / "ratios.csv").read_text().splitlines()
    assert lines[0] == "draw,h,ratio"
    assert len(lines) == 7
    assert _report(out)["results"]["max_ratio"] > 0.0


def test_embedding_probe_ratios_follow_h_set(tmp_path):
    # the first two entries are distinct floats that both format as 0.1 under %g
    h_set = [0.1000001, 0.1000002, 1.0]
    ini, out = _write_ini(
        tmp_path, "embedding-probe", gamma="2.0",
        params="draws = 1\nh_set = " + ",".join(map(str, h_set)),
    )
    assert main(["--config", str(ini)]) == 0
    rows = [line.split(",") for line in (out / "ratios.csv").read_text().splitlines()[1:]]
    ratios = _report(out)["results"]["draws"][0]["meta"]["ratios"]
    assert [float(row[1]) for row in rows] == h_set
    assert [float(row[2]) for row in rows] == ratios
    # with mu = 0 the right-hand side shrinks as h grows, so each ratio grows
    assert ratios[0] < ratios[1] < ratios[2]


def test_embedding_probe_builds_its_multipliers_once(tmp_path, monkeypatch):
    """The power of A and (i xi)^alpha are built once per run, not once per draw,
    and the CLI takes no power of its own to name a key."""
    calls = {"power": 0, "alpha": 0}
    power, frac = elliptic.matrix_fractional_power, elliptic.frac_power_i_xi

    def counting_power(a, theta):
        calls["power"] += 1
        return power(a, theta)

    def counting_frac(xi, alpha):
        calls["alpha"] += alpha == 0.75
        return frac(xi, alpha)

    monkeypatch.setattr(elliptic, "matrix_fractional_power", counting_power)
    monkeypatch.setattr(elliptic, "frac_power_i_xi", counting_frac)
    ini, _ = _write_ini(tmp_path, "embedding-probe", params="draws = 4\nalpha = 0.75")
    assert main(["--config", str(ini)]) == 0
    assert calls == {"power": 1, "alpha": 1}


def test_bvp_artifacts_and_ellipticity_failure(tmp_path):
    ini, out = _write_ini(tmp_path, "bvp", gamma="2.0", params="mesh_size = 7")
    assert main(["--config", str(ini)]) == 0
    lines = (out / "solution.csv").read_text().splitlines()
    assert lines[0] == "x,y,re_u,im_u"
    assert len(lines) == 1 + 64 * 7
    bad_ini, bad_out = _write_ini(
        tmp_path, "bvp", gamma="2.0", params="mesh_size = 7\nb2 = -1",
        out=tmp_path / "bad", name="bad.ini",
    )
    assert main(["--config", str(bad_ini)]) == 2
    assert _report(bad_out)["failed_checks"] == ["parameter-ellipticity"]


def test_system_elliptic_header(tmp_path):
    ini, out = _write_ini(tmp_path, "system", params="matrix = 2,1;1,2")
    assert main(["--config", str(ini)]) == 0
    header = (out / "solution.csv").read_text().splitlines()[0]
    assert header == "x,re_u_1,im_u_1,re_u_2,im_u_2"


def test_system_parabolic_rows(tmp_path):
    ini, out = _write_ini(
        tmp_path, "system",
        params="matrix = 2,1;1,2\nmode = parabolic\nnt = 8\nt = 1.0",
    )
    assert main(["--config", str(ini)]) == 0
    lines = (out / "solution.csv").read_text().splitlines()
    assert lines[0] == "t,x,re_u_1,im_u_1,re_u_2,im_u_2"
    assert len(lines) == 1 + 9 * 64


def test_convergence_order_column(tmp_path):
    ini, out = _write_ini(
        tmp_path, "convergence", gamma="2.0",
        params="levels = 16,32,64\nscheme = crank-nicolson\ntime_profile = sine\nt = 1.0",
    )
    assert main(["--config", str(ini)]) == 0
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "steps,error,order"
    assert len(lines) == 4
    assert lines[1].split(",")[2] == "-"
    measured = float(lines[2].split(",")[2])
    assert 1.7 <= measured <= 2.3


def test_convergence_exact_hits_floor(tmp_path):
    ini, out = _write_ini(
        tmp_path, "convergence", gamma="2.0",
        params="levels = 8,16,32\nscheme = exact\nt = 1.0",
    )
    assert main(["--config", str(ini)]) == 0
    lines = (out / "convergence.csv").read_text().splitlines()[1:]
    assert all(line.split(",")[2] == "floor" for line in lines)


# Config of the convergence golden test. Its artifacts under tests/data/convergence
# were recorded with every level solved by the whole-field solve_parabolic path
# (constant profile) or from whole (steps+1) x N x d forcing spectra (sine and
# ramp); the task must reproduce them byte for byte.
_GOLDEN_INI = """\
[problem]
gamma = 1.5
l = 10.0
n = 64
a_family = scaled_decay
a_op_matrix = 2,1;1,2

[task]
name = convergence

[parameters]
levels = 8,16,32
scheme = {scheme}
forcing = random
time_profile = {profile}
t = 1.0
"""


@pytest.mark.parametrize(
    "scheme, seed, profile",
    [
        pytest.param(scheme, seed, "constant", id=f"{scheme}-{seed}")
        for scheme in ("crank-nicolson", "exact")
        for seed in (3, 7)
    ]
    + [
        pytest.param("crank-nicolson", 3, profile, id=f"crank-nicolson-3-{profile}")
        for profile in ("sine", "ramp")
    ],
)
def test_convergence_bytes_match_golden(tmp_path, scheme, seed, profile):
    ini = tmp_path / "run.ini"
    ini.write_text(_GOLDEN_INI.format(scheme=scheme, profile=profile))
    out = tmp_path / "out"
    assert main(["--config", str(ini), "--out", str(out), "--seed", str(seed)]) == 0
    name = scheme if profile == "constant" else f"{scheme}-{profile}"
    golden = Path(__file__).parent / "data" / "convergence" / f"{name}-seed{seed}"
    for name in ("convergence.csv", "report.json"):
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


@pytest.mark.parametrize("profile", ["constant", "sine", "ramp"])
def test_separable_forcing_spectrum_matches_full_transform(profile):
    params = {"forcing": "random", "time_profile": profile, "nt": "16", "t": "1.0"}
    cfg = RunConfig({"parameters": params})
    grid = SpatialGrid(half_width=10.0, size=64)
    times = np.linspace(0.0, 1.0, 17)
    full = _parabolic_forcing(cfg, grid, 2, np.random.default_rng(3))
    assert np.array_equal(full.times, times)
    want = grid.to_spectral(full.values)
    shat = grid.to_spectral(build_forcing(cfg, grid, 2, np.random.default_rng(3)).values)
    got = _profile_weights(cfg, times)[:, None, None] * shat[None]
    if profile == "constant":
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("profile", ["sine", "ramp"])
def test_convergence_matches_general_path(tmp_path, profile):
    params = f"levels = 8,16,32\nforcing = random\ntime_profile = {profile}\nt = 2.0"
    ini, out = _write_ini(tmp_path, "convergence", params=params)
    assert main(["--config", str(ini), "--seed", "3"]) == 0
    cfg = RunConfig.load(ini)
    prob = build_problem(cfg)

    def final_slice(steps, scheme):
        nt = {**cfg.sections["parameters"], "nt": str(steps)}
        stepped = RunConfig({**cfg.sections, "parameters": nt})
        f = _parabolic_forcing(stepped, prob.grid, 1, np.random.default_rng(3))
        return parabolic.solve_parabolic(prob, f, scheme).values[-1]

    exact = final_slice(32, "exact")
    want = [
        lp_norm(GridFunction(prob.grid, final_slice(n, "crank-nicolson") - exact), 2.0)
        for n in (8, 16, 32)
    ]
    assert _report(out)["results"]["errors"] == pytest.approx(want, rel=1e-10, abs=0.0)


def test_convergence_gates_once(tmp_path, monkeypatch):
    calls = []
    gate = parabolic._dissipative_gate

    def counting_gate(prob):
        calls.append(prob)
        return gate(prob)

    monkeypatch.setattr(parabolic, "_dissipative_gate", counting_gate)
    ini, _ = _write_ini(tmp_path, "convergence", params="levels = 8,16,32\nscheme = exact")
    assert main(["--config", str(ini)]) == 0
    assert len(calls) == 1


def test_exact_convergence_reuses_reference(tmp_path, monkeypatch):
    calls = []
    expm = parabolic.expm

    def counting_expm(m):
        calls.append(m.shape)
        return expm(m)

    monkeypatch.setattr(parabolic, "expm", counting_expm)
    ini, out = _write_ini(tmp_path, "convergence", params="levels = 8,16,32\nscheme = exact")
    assert main(["--config", str(ini)]) == 0
    # The reference and the levels 8 and 16 take one expm call each, on one
    # matrix per frequency; level 32 is the reference and is not evolved again.
    assert len(calls) == 3
    assert sum(shape[0] for shape in calls) == 3 * 64
    assert _report(out)["results"]["errors"][-1] == 0.0


def test_convergence_holds_no_space_time_field(tmp_path):
    levels = ",".join(str(2**k) for k in range(3, 12))
    ini, _ = _write_ini(tmp_path, "convergence", params=f"levels = {levels}")
    tracemalloc.start()
    try:
        assert main(["--config", str(ini)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One 2049 x 64 x 1 complex field alone is 2 MiB.
    assert peak < 2**20


def test_non_dissipative_convergence_exits_one(tmp_path, capsys):
    ini, out = _write_ini(
        tmp_path, "convergence", gamma="2.0", params="levels = 8,16,32", problem_extra="a_value = 1"
    )
    assert main(["--config", str(ini)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: operator symbol is not dissipative at xi=-10.0531: eigenvalue ")
    assert not out.exists()


def test_hard_errors_exit_one(tmp_path, capsys):
    ini, _ = _write_ini(tmp_path, "solve-elliptic", gamma="2.5")
    assert main(["--config", str(ini)]) == 1
    assert "error:" in capsys.readouterr().err

    assert main(["--config", str(tmp_path / "missing.ini")]) == 1
    assert "config file not found" in capsys.readouterr().err

    bad_task, _ = _write_ini(tmp_path, "make-coffee", name="task.ini")
    assert main(["--config", str(bad_task)]) == 1
    assert "[task] name" in capsys.readouterr().err

    bad_mode, _ = _write_ini(
        tmp_path, "solve-elliptic",
        params="forcing = mode\nforcing_mode_index = 64", name="mode.ini",
    )
    assert main(["--config", str(bad_mode)]) == 1
    assert "forcing_mode_index" in capsys.readouterr().err

    assert main([]) == 1
    assert "no config given" in capsys.readouterr().err


_NEGATIVE_SEED = "[parameters] seed must be at least 0, got -1\n"
_BAD_DIRECTORY = "[output] directory must not lie at or below a file, got "


@pytest.mark.parametrize(
    "env, argv, key",
    [
        ({"FRACSPEC_SEED": "-1"}, [], _NEGATIVE_SEED),
        ({}, ["--out", "afile"], _BAD_DIRECTORY),
        ({}, ["--out", "afile/sub"], _BAD_DIRECTORY),
        ({"FRACSPEC_OUT": "afile"}, [], _BAD_DIRECTORY),
    ],
)
def test_overrides_naming_a_bad_seed_or_output_path(tmp_path, capsys, monkeypatch, env, argv, key):
    ini, out = _write_ini(tmp_path, "solve-elliptic")
    (tmp_path / "afile").write_text("")
    monkeypatch.chdir(tmp_path)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main(["--config", str(ini), *argv]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: " + key)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "run.ini"]
    assert not out.exists()


def test_config_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_bytes(b"\xff\xfe[task]\n")
    assert main(["--config", str(ini)]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot parse config {ini}: 'utf-8' codec can't decode byte 0xff "
        "in position 0: invalid start byte\n"
    )


def test_convergence_level_validation(tmp_path, capsys):
    for levels in ("8,16", "8,8,16", "16,8,32"):
        ini, _ = _write_ini(
            tmp_path, "convergence", params=f"levels = {levels}",
            name=f"lv{levels.replace(',', '_')}.ini",
        )
        assert main(["--config", str(ini)]) == 1
        assert "levels" in capsys.readouterr().err


def test_bad_sweep_angle_is_a_config_error(tmp_path, capsys):
    ini, _ = _write_ini(tmp_path, "resolvent-sweep", params=f"sweep_angle = {math.pi}")
    assert main(["--config", str(ini)]) == 1
    assert "sweep_angle" in capsys.readouterr().err


def _task_edit(task, line):
    """Config edit that switches the task to ``task`` and adds one parameter line."""
    return ("solve-elliptic\n\n[parameters]", f"{task}\n\n[parameters]\n{line}")


_PERTURBED = "a_op_family = perturbed\na_op_matrix = 2,1;1,2\na_op_perturbation = "


# phi1 + sector_angle = 4 >= pi in verify-conditions
_PHI_SUM_EDIT = (
    "n = 64\n\n[task]\nname = solve-elliptic\n\n[parameters]",
    "n = 64\nsector_angle = 2\n\n[task]\nname = verify-conditions\n\n[parameters]\nphi1 = 2",
)


def _problem_edit(lines):
    """Config edit that adds ``lines`` to the [problem] section."""
    return ("n = 64", f"n = 64\n{lines}")


def _task_problem_edit(task, lines):
    """Config edit that switches the task to ``task`` and adds ``lines`` to [problem]."""
    return ("n = 64\n\n[task]\nname = solve-elliptic", f"n = 64\n{lines}\n\n[task]\nname = {task}")


def _separability_l_edit(half_width, line):
    """Config edit that switches the task to 3 separability trials, with one
    parameter line, on the half-width ``half_width``."""
    return (
        "l = 10.0\nn = 64\n\n[task]\nname = solve-elliptic\n\n[parameters]",
        f"l = {half_width}\nn = 64\n\n[task]\nname = separability\n\n[parameters]\ntrials = 3\n{line}",
    )


def _task_l_edit(task, half_width):
    """Config edit that switches the task to ``task`` on the half-width ``half_width``."""
    return (
        "l = 10.0\nn = 64\n\n[task]\nname = solve-elliptic",
        f"l = {half_width}\nn = 64\n\n[task]\nname = {task}",
    )


def _retask(task, problem_lines, params, half_width="10.0"):
    """Config edit that switches the task to ``task`` on the half-width
    ``half_width``, adds ``problem_lines`` to [problem] and sets the
    [parameters] lines ``params``."""
    return (
        "l = 10.0\nn = 64\n\n[task]\nname = solve-elliptic\n\n[parameters]",
        f"l = {half_width}\nn = 64\n{problem_lines}\n\n[task]\nname = {task}\n\n"
        f"[parameters]\n{params}",
    )


# A constant operator that is not normal, and a parabolic system whose
# literal complex shift leaves its coupling complex symmetric, not Hermitian.
_NON_NORMAL = "a_op_matrix = 2,1.5;0,1"
_COMPLEX_SHIFT = "mode = parabolic\nmatrix = 2,1;1,2\nliteral_shift = true\nlambda = 1+1j\n"


@pytest.mark.parametrize(
    "task, params",
    [
        ("solve-elliptic", ""),
        ("solve-parabolic", "nt = 4"),
        ("convergence", "levels = 4,8,16"),
        ("embedding-probe", ""),
        ("verify-conditions", ""),
        ("bvp", "mesh_size = 9"),
        ("system", "mode = parabolic\nnt = 4"),
    ],
)
def test_largest_half_width_with_a_finite_square_runs_clean(tmp_path, task, params):
    """l = 1.3407807929942596e154, the largest l whose l^2 is finite, is accepted."""
    ini, _ = _write_ini(tmp_path, task, params=params)
    ini.write_text(ini.read_text().replace("l = 10.0", "l = 1.3407807929942596e154"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", str(ini)]) == 0


# Sizes whose largest complex field exceeds the physical memory of any host
# (n alone is 1.5 TiB; the time fields at n = 64 are about 93 TiB; the
# bvp symbol stack at n = 64 and mesh_size = 40000 is 1.5 TiB; a count of
# 10^12 samples, radii, trials or sweep angles is at least 14.5 TiB, and
# as many probe or draw forcings at n = 64 are 931 TiB).
_OVERSIZED = [
    (("n = 64", "n = 100000000000"), [], "[problem] n = 100000000000: "),
    (_task_edit("solve-parabolic", "nt = 100000000000"), [], "[parameters] nt = 100000000000: "),
    (
        _task_edit("system", "mode = parabolic\nnt = 100000000000"),
        [],
        "[parameters] nt = 100000000000: ",
    ),
    (
        _task_edit("convergence", "levels = 4,8,100000000000"),
        [],
        "[parameters] levels = 4,8,100000000000: ",
    ),
    (_task_edit("bvp", "mesh_size = 40000"), [], "[parameters] mesh_size = 40000: "),
    *[
        (_task_edit(task, f"{key} = {10**12}{extra}"), [], f"[parameters] {key} = {10**12}: ")
        for task, key, extra in [
            ("verify-conditions", "samples", ""),
            ("resolvent-sweep", "angles", "\nrefine = false"),
            ("resolvent-sweep", "probes", ""),
            ("separability", "trials", ""),
            ("embedding-probe", "draws", ""),
        ]
    ],
    (
        _task_edit("resolvent-sweep", f"radii = 1:2:{10**12}\nrefine = false"),
        [],
        f"[parameters] radii count = {10**12}: ",
    ),
]


@pytest.mark.parametrize(
    "edit, argv, key",
    [
        (("l = 10.0", "l = inf"), [], "[problem] l"),
        (("n = 64", "n = 63"), [], "[problem] n"),
        (("directory =", "threads = -3\ndirectory ="), [], "[output] threads"),
        (None, ["--threads", "-3"], "unrecognized arguments: --threads -3\n"),
        (_task_edit("solve-elliptic", "s_set = 0,y"), [], "[parameters] s_set"),
        (_task_edit("verify-conditions", "lambda_set = 1,foo"), [], "[parameters] lambda_set"),
        (_task_edit("embedding-probe", "h_set = 0.5,z"), [], "[parameters] h_set"),
        (_task_edit("convergence", "levels = 32,x,128"), [], "[parameters] levels"),
        (_task_edit("bvp", "b2 = 1,q"), [], "[parameters] b2"),
        (_task_edit("bvp", "b1 = 0;1"), [], "[parameters] b1"),
        (_task_edit("bvp", "b0 = nope"), [], "[parameters] b0"),
        (_task_edit("resolvent-sweep", "radii = 1,x"), [], "[parameters] radii"),
        (_task_edit("resolvent-sweep", "radii = 1:2"), [], "[parameters] radii"),
        (_task_edit("resolvent-sweep", "radii = a:b:3"), [], "[parameters] radii"),
        (_task_edit("solve-parabolic", "t = inf"), [], "[parameters] t"),
        (_task_edit("solve-parabolic", "t = -1"), [], "[parameters] t"),
        (_task_edit("solve-parabolic", "t = nan"), [], "[parameters] t"),
        (_task_edit("solve-parabolic", "nt = 1"), [], "[parameters] nt"),
        (_task_edit("system", "mode = parabolic\nt = inf"), [], "[parameters] t"),
        (_task_edit("system", "mode = parabolic\nt = nan"), [], "[parameters] t"),
        (_task_edit("system", "mode = parabolic\nnt = 1"), [], "[parameters] nt"),
        (_task_edit("convergence", "t = inf"), [], "[parameters] t"),
        (_task_edit("convergence", "t = -1"), [], "[parameters] t"),
        (_problem_edit("a_family = foo"), [], "[problem] a_family"),
        (_problem_edit("a_op_matrix = 0"), [], "[problem] a_op_matrix"),
        (_problem_edit("q_form = sideways"), [], "[problem] q_form"),
        (_task_edit("solve-parabolic", "scheme = leapfrog"), [], "[parameters] scheme"),
        (_task_edit("convergence", "scheme = leapfrog"), [], "[parameters] scheme"),
        (_task_edit("convergence", "levels = 1,2,4"), [], "[parameters] levels"),
        (_task_edit("solve-parabolic", "t = 1e-310\nnt = 4"), [], "[parameters] t"),
        (_task_edit("system", "mode = parabolic\nt = 1e-310\nnt = 4"), [], "[parameters] t"),
        (_task_edit("convergence", "t = 1e-310"), [], "[parameters] t"),
        (_task_edit("system", "matrix = 1,2;3"), [], "[parameters] matrix"),
        (_task_edit("system", "matrix = 1,2"), [], "[parameters] matrix"),
        (_task_edit("system", "matrix = 1,2;3,4"), [], "[parameters] matrix"),
        (_task_edit("system", "matrix = 1,0;0,-1"), [], "[parameters] matrix"),
        (_problem_edit("a_op_matrix = 1,2;3"), [], "[problem] a_op_matrix"),
        (_problem_edit("a_op_matrix = 1,2"), [], "[problem] a_op_matrix"),
        (_problem_edit(_PERTURBED + "1,2;3"), [], "[problem] a_op_perturbation"),
        (_problem_edit(_PERTURBED + "1,2"), [], "[problem] a_op_perturbation"),
        (_task_edit("system", "matrix = 1+1j"), [], "[parameters] matrix"),
        # a Q that is not normal takes the augmented matrix exponential
        (_retask("solve-parabolic", _NON_NORMAL, "t = 1e40\nnt = 4"), [], "[parameters] t"),
        (_retask("solve-parabolic", _NON_NORMAL, "t = 1e300\nnt = 4"), [], "[parameters] t"),
        (_task_edit("system", _COMPLEX_SHIFT + "t = 1e150\nnt = 4"), [], "[parameters] t"),
        (_task_edit("system", _COMPLEX_SHIFT + "t = 1e300\nnt = 4"), [], "[parameters] t"),
        (_task_edit("convergence", "t = 1e40"), [], "[parameters] t"),
        (_task_edit("convergence", "t = 1e300"), [], "[parameters] t"),
        (_task_edit("solve-elliptic", "lambda = inf"), [], "[parameters] lambda"),
        (_task_edit("solve-elliptic", "lambda = nan"), [], "[parameters] lambda"),
        (_task_edit("bvp", "lambda = inf"), [], "[parameters] lambda"),
        (_task_edit("system", "lambda = inf"), [], "[parameters] lambda"),
        (_task_edit("resolvent-sweep", "radii = inf"), [], "[parameters] radii"),
        (_task_edit("resolvent-sweep", "radii = 1:inf:3"), [], "[parameters] radii"),
        (_task_edit("verify-conditions", "lambda_set = 1e400"), [], "[parameters] lambda_set"),
        (_task_edit("system", "matrix = inf"), [], "[parameters] matrix"),
        (_problem_edit("a_op_matrix = 1,nan;nan,1"), [], "[problem] a_op_matrix"),
        (_task_edit("resolvent-sweep", "radii ="), [], "[parameters] radii"),
        (_task_edit("resolvent-sweep", "radii = -1,2"), [], "[parameters] radii"),
        (_task_edit("resolvent-sweep", "probes = -1"), [], "[parameters] probes"),
        (_task_edit("resolvent-sweep", "angles = 1"), [], "[parameters] angles"),
        (_task_edit("embedding-probe", "draws = 0"), [], "[parameters] draws"),
        (_task_edit("embedding-probe", "q_exp = 1"), [], "[parameters] q_exp"),
        (_task_edit("verify-conditions", "samples = 0"), [], "[parameters] samples"),
        (_task_edit("verify-conditions", "samples = -5"), [], "[parameters] samples"),
        (_task_edit("separability", "trials = 0"), [], "[parameters] trials"),
        (_task_edit("bvp", "phi0 = 2"), [], "[parameters] phi0"),
        (_task_edit("bvp", "mesh_size = 0"), [], "[parameters] mesh_size"),
        (_task_edit("solve-elliptic", "p = 1"), [], "[parameters] p"),
        (_task_edit("resolvent-sweep", "p = 1"), [], "[parameters] p"),
        (_task_edit("bvp", "p = 1"), [], "[parameters] p"),
        (_task_edit("system", "p = 1"), [], "[parameters] p"),
        (_task_edit("solve-parabolic", "p1 = 0.5"), [], "[parameters] p1"),
        (_task_edit("verify-conditions", "lambda_set ="), [], "[parameters] lambda_set"),
        (("n = 64", "n = x"), [], "[problem] n must be an integer"),
        (
            _PHI_SUM_EDIT,
            [],
            "[parameters] phi1: sector angles must satisfy phi1 + phi2 < pi, got 4.0, "
            "with phi2 = [problem] sector_angle",
        ),
        # later _OVERSIZED cases are appended at the end, so these ids stay put
        *_OVERSIZED[:4],
        (_task_edit("solve-elliptic", "lamda = 5"), [], "[parameters] lamda: not a key of task "),
        (("directory =", "thraeds = 4\ndirectory ="), [], "[output] thraeds: not a key of task "),
        (("[parameters]", "[paramters]"), [], "[paramters]: not a section of task solve-elliptic"),
        (_task_edit("solve-elliptic", "nt = 4"), [], "[parameters] nt: not a key of task "),
        (_task_edit("solve-elliptic", "lambda = 1%"), [], "[parameters] lambda"),
        (("[problem]", "[DEFAULT]\nn = 64\n\n[problem]"), [], "[DEFAULT]: not a section of task "),
        (
            _task_edit("system", "nt = 8\np1 = 3"),
            [],
            "[parameters] nt: not a key of task system with mode = elliptic",
        ),
        (_task_edit("embedding-probe", "s = 0"), [], "[parameters] s must be "),
        (_task_edit("embedding-probe", "alpha = -1"), [], "[parameters] alpha must be "),
        (_task_edit("embedding-probe", "q_exp = 1.5\np = 2"), [], "[parameters] q_exp: "),
        (_task_edit("embedding-probe", "alpha = 3"), [], "[parameters] alpha: kappa = 1.5"),
        (_task_edit("embedding-probe", "mu = 5"), [], "[parameters] mu: mu = 5.0"),
        (_task_edit("embedding-probe", "h_set = 0,1"), [], "[parameters] h_set must be "),
        (_task_edit("embedding-probe", "h_set ="), [], "[parameters] h_set must be non-empty"),
        (
            _task_problem_edit("embedding-probe", "a_op_matrix = 1,2;2,1"),
            [],
            "[problem] a_op_matrix: matrix is not positive definite",
        ),
        (
            _task_problem_edit("embedding-probe", _PERTURBED + "1,0;0,1"),
            [],
            "[problem] a_op_family: embedding probe requires a constant operator symbol",
        ),
        (_task_edit("bvp", "b2 = -0.5,1\nmesh_size = 9"), [], "[parameters] b2: principal "),
        (_task_edit("bvp", "b1 = 1e308"), [], "[parameters] b1: coefficient b1 = 1e+308"),
        (_task_edit("bvp", "b0 = 1e308"), [], "[parameters] b0: coefficient b0 = 1e+308"),
        (_task_edit("bvp", "b2 = 1e308,1e308"), [], "[parameters] b2: coefficient b2 is not finite"),
        (_task_edit("bvp", "lambda = -1"), [], "[parameters] lambda: lambda (-1+0j) lies outside"),
        (_task_edit("solve-elliptic", "lambda = -1"), [], "[parameters] lambda: lambda (-1+0j)"),
        (_task_edit("verify-conditions", "lambda_set = -1"), [], "[parameters] lambda_set: lambda"),
        (_task_edit("solve-elliptic", "s_set = 5"), [], "[parameters] s_set: probe order 5.0"),
        (_task_edit("separability", "s_set = 5"), [], "[parameters] s_set: probe order 5.0"),
        (
            _task_problem_edit("system", "q_form = factored"),
            [],
            "[problem] q_form: not a key of task system\n",
        ),
        (
            _task_problem_edit("system", "sector_angle = 3.2"),
            [],
            "[problem] sector_angle: not a key of task system\n",
        ),
        (
            _task_problem_edit("bvp", "a_op_matrix = 0"),
            [],
            "[problem] a_op_matrix: not a key of task bvp\n",
        ),
        *_OVERSIZED[4:],
        (_task_edit("system", "lambda = -1"), [], "[parameters] lambda: operator symbol "),
        (
            _task_edit("system", "mode = parabolic\nlambda = -1"),
            [],
            "[parameters] lambda: operator symbol ",
        ),
        (
            _task_edit("system", "lambda = -1\nliteral_shift = true"),
            [],
            "[parameters] lambda: operator symbol ",
        ),
        (
            _task_edit("embedding-probe", "h_set = 0.1,1e-320"),
            [],
            "[parameters] h_set must be finite, positive and normal, got 1e-320",
        ),
        (
            _separability_l_edit("1e308", ""),
            [],
            "[problem] l must have a finite period 2l, got 1e+308\n",
        ),
        (
            ("l = 10.0", "l = 2.2250738585072014e-308"),
            [],
            "[problem] l = 2.2250738585072014e-308 over n = 64 gives a subnormal grid spacing\n",
        ),
        (
            _separability_l_edit("1e-320", ""),
            [],
            "[problem] l = 1e-320 over n = 64 gives a subnormal grid spacing\n",
        ),
        (
            ("l = 10.0", "l = 1e-300"),
            [],
            "[problem] l = 1e-300: a(xi) (i xi)^gamma overflows the float range at xi = "
            "3.14159e+300\n",
        ),
        *[
            (
                _task_l_edit(task, half_width),
                [],
                f"[problem] l = {half_width}: l^2 overflows the float range\n",
            )
            for task, half_width in [
                ("solve-elliptic", "1.4e154"),
                ("solve-parabolic", "1.4e154"),
                ("convergence", "1.4e154"),
                ("embedding-probe", "1e300"),
                ("verify-conditions", "1e300"),
                ("bvp", "1.3407807929942597e154"),
            ]
        ],
        *[
            (
                _task_edit(task, f"{line}t = 1e308\nnt = 4"),
                [],
                "[parameters] t = 1e308: time step 2.5e+307 overflows the spectral solution",
            )
            for task, line in [
                ("solve-parabolic", "scheme = exact\n"),
                ("solve-parabolic", "scheme = implicit-euler\n"),
                ("solve-parabolic", "scheme = crank-nicolson\n"),
                ("system", "mode = parabolic\n"),
            ]
        ],
        (_task_edit("solve-elliptic", "seed = -1"), [], _NEGATIVE_SEED),
        (None, ["--seed", "-1"], _NEGATIVE_SEED),
        (_task_edit("verify-conditions", "seed = -1"), [], _NEGATIVE_SEED),
        # the config file itself stands in for a file at or above the directory
        (("/out\n", "/run.ini\n"), [], _BAD_DIRECTORY),
        (("/out\n", "/run.ini/out\n"), [], _BAD_DIRECTORY),
        (
            _task_edit("embedding-probe", "s = 1e308"),
            [],
            "[parameters] s = 1e308: (1 + xi^2)^(s/2) overflows the float range at xi = ",
        ),
        (
            _task_edit(
                "resolvent-sweep", "sweep_angle = 2.0\nradii = 1,10\nangles = 3\nprobes = 1\nrefine = false"
            ),
            [],
            "[parameters] sweep_angle: sweep angle 2 exceeds the problem sector angle 0.785398",
        ),
        (
            _task_edit("convergence", "t = 1e308"),
            [],
            "[parameters] t = 1e308: time step 3.90625e+305 overflows the spectral solution",
        ),
        (
            _task_edit("solve-elliptic", "s_set = 1.0,1.0000001,1.5"),
            [],
            "[parameters] s_set: probe orders 1.0 and 1.0000001 share the ledger key D^1\n",
        ),
        # a ((i xi)^gamma + A) overflows where a (i xi)^gamma does not: the
        # larger of a and A is named
        (
            _retask("solve-parabolic", "q_form = factored\na_value = -2\na_op_matrix = -1e308", "nt = 4"),
            [],
            "[problem] a_op_matrix = -1e308: Q(xi, 0) overflows the float range at xi = 0\n",
        ),
        (
            _retask("solve-elliptic", "q_form = factored\na_value = 1e300\na_op_matrix = 1e10", ""),
            [],
            "[problem] a_value = 1e300: Q(xi, 0) overflows the float range at xi = ",
        ),
        # the perturbation, not the base matrix, moves A out of the float range
        (
            _retask(
                "solve-elliptic",
                "q_form = factored\na_value = -2\na_op_family = perturbed\n"
                "a_op_matrix = 1,0;0,1\na_op_perturbation = -1e308,0;0,-1e308",
                "",
            ),
            [],
            "[problem] a_op_perturbation = -1e308,0;0,-1e308: Q(xi, 0) overflows the float "
            "range at xi = 0\n",
        ),
        # so does separability when the perturbation overflows its trial norms
        *[
            (
                _retask(
                    "separability",
                    "a_op_family = perturbed\na_op_matrix = 1,0;0,1\n"
                    f"a_op_perturbation = {bump},0;0,{bump}",
                    "trials = 3",
                ),
                [],
                f"[problem] a_op_perturbation = {bump},0;0,{bump}: the norms of separability "
                "trial 1 overflow\n",
            )
            for bump in ("1e308", "-1e308")
        ],
        (
            _task_edit("resolvent-sweep", "refine = maybe"),
            [],
            "[parameters] refine must be a boolean, got 'maybe'\n",
        ),
        (
            _task_edit("resolvent-sweep", "radii = 0:1:5"),
            [],
            "[parameters] radii must have positive endpoints and count, got '0:1:5'\n",
        ),
        # a bad command line is a hard error too
        (None, ["--seed", "x"], "[parameters] seed must be an integer, got 'x'\n"),
        (None, ["--seed"], "argument --seed: expected one argument\n"),
        (None, ["--bogus"], "unrecognized arguments: --bogus\n"),
    ],
)
def test_hostile_grid_and_thread_values(tmp_path, capsys, edit, argv, key):
    ini, out = _write_ini(tmp_path, "solve-elliptic")
    if edit is not None:
        ini.write_text(ini.read_text().replace(*edit))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", str(ini), *argv]) == 1
    assert caught == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: " + key)
    assert not out.exists()


def _finite_numbers(value):
    if isinstance(value, dict):
        return all(_finite_numbers(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_numbers(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


@pytest.mark.parametrize(
    "edit",
    [
        # exponents whose raw power sums leave the float range
        _task_edit("separability", "trials = 3\np = 1e308"),
        _retask("separability", "a_value = -1e-6\na_op_matrix = 1e-6", "trials = 3\np = 1e308"),
        _task_edit("bvp", "p = 1e308"),
        _task_edit("solve-elliptic", "p = 1e308"),
        _retask("solve-elliptic", "a_op_matrix = 0.01", "lambda = 0.01\np = 1e308"),
        _task_edit("solve-parabolic", "p = 1e308\nnt = 4"),
        _task_edit("solve-parabolic", "p1 = 1e308\nnt = 4"),
        _task_edit("system", "mode = parabolic\np1 = 1e308\nnt = 4"),
        _task_edit("resolvent-sweep", "probes = 1\np = 1e308\nradii = 1,10\nangles = 3"),
        _task_edit("embedding-probe", "q_exp = 1e308"),
        _task_edit("embedding-probe", "alpha = 0\nq_exp = 1e308"),
        # fields whose magnitudes leave the range of their p-th powers
        _retask("embedding-probe", "a_op_matrix = 1e300", ""),
        _retask("embedding-probe", "a_op_matrix = 1e308", ""),
        _retask("separability", "a_value = 1e300", "trials = 3"),
        _retask("separability", "a_value = 1e300\nq_form = factored", "trials = 3"),
        _retask("separability", "a_value = 1e300", "trials = 3\np = 3"),
        _retask("separability", "a_op_matrix = 1e200,0;0,1e200", "trials = 3"),
        _separability_l_edit("1e200", "p = 3"),
        _retask("solve-elliptic", "", "p = 3", half_width="1e150"),
        _retask("resolvent-sweep", "", "probes = 1\nradii = 1,10\nangles = 3\np = 3", "1e300"),
    ],
)
def test_ledger_norms_are_finite_past_the_range_of_their_powers(tmp_path, capsys, edit):
    """Runs whose unscaled powers |u|^p leave the float range, at a huge
    exponent or scale, exit 0 without a warning and report finite norms."""
    ini, out = _write_ini(tmp_path, "solve-elliptic")
    ini.write_text(ini.read_text().replace(*edit))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", str(ini)]) == 0
    assert caught == []
    assert capsys.readouterr().err == ""
    results = _report(out)["results"]
    assert _finite_numbers(results)
    if "l = 1e150" in edit[1]:
        assert results["term_norms"]["a*D^1.5 u"] > 0.0


@pytest.mark.parametrize(
    "edit",
    [
        _task_edit("solve-parabolic", "t = 1e40\nnt = 4"),
        _task_edit("solve-parabolic", "t = 1e300\nnt = 4"),
        _task_edit("system", "mode = parabolic\nt = 1e40\nnt = 4"),
        _task_edit("system", "mode = parabolic\nt = 1e300\nnt = 4"),
        # the top frequency pi n / 2l is about 1e152
        _retask("solve-parabolic", "a_op_matrix = 2,1;1,2", "", half_width="1e-150"),
        _retask("system", "", "mode = parabolic\nmatrix = 2,1;1,2", half_width="1e-150"),
    ],
)
def test_normal_exact_solves_run_where_the_augmented_exponential_overflowed(tmp_path, capsys, edit):
    """A normal Q steps its eigenmodes with e^z, phi1(z) and phi2(z), which
    stay finite at any |z|: long steps and huge frequencies exit 0 without a
    warning and report finite numbers."""
    ini, out = _write_ini(tmp_path, "solve-elliptic")
    ini.write_text(ini.read_text().replace(*edit))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", str(ini)]) == 0
    assert caught == []
    assert capsys.readouterr().err == ""
    assert _finite_numbers(_report(out)["results"])


@pytest.mark.parametrize(
    "task, params, edit",
    [
        ("solve-elliptic", "", ("gamma = 1.5", "gamma = 2.5")),
        ("solve-elliptic", "", ("n = 64", "n = 63")),
        ("system", "matrix = 1,2;2,1", None),
        ("convergence", "levels = 64,32,128", None),
        ("solve-elliptic", "", _problem_edit("a_op_matrix = 0")),
        ("embedding-probe", "h_set = 0,1", None),
        ("solve-elliptic", "", _problem_edit("a_op_family = perturbed")),
    ],
)
def test_failed_run_writes_nothing(tmp_path, capsys, task, params, edit):
    """A run that exits 1 leaves no output directory, whichever check fails."""
    ini, out = _write_ini(tmp_path, task, params=params)
    if edit is not None:
        ini.write_text(ini.read_text().replace(*edit))
    assert main(["--config", str(ini)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_every_key_a_rule_can_name_is_a_key_of_its_task():
    """Each argument a library rule tags maps to a key that the task declares,
    in the section the CLI names it under: any [problem] key but the operator
    keys of a scalar task, as RunConfig.load declares them."""
    assert set(cli._ARG_KEYS) == set(config.TASK_PARAMETERS)
    for task, keys in cli._ARG_KEYS.items():
        for key in keys.values():
            if key in config.KEYS["problem"]:
                assert key not in config.OPERATOR_KEYS or task not in config.SCALAR_TASKS
            else:
                assert key in config.TASK_PARAMETERS[task]


def test_bvp_runs_each_stencil_rule_once(tmp_path):
    """The solve holds each coefficient to the stencil rules; the CLI does not
    check them a second time to name a key."""
    code = bvp._stencil_coefficient.__code__
    labels = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            labels.append(frame.f_locals["label"])

    ini, _ = _write_ini(tmp_path, "bvp", gamma="2.0", params="mesh_size = 7")
    sys.setprofile(profile)
    try:
        assert main(["--config", str(ini)]) == 0
    finally:
        sys.setprofile(None)
    assert labels == ["b2", "b1", "b0"]


def test_wide_sweep_without_probes_runs(tmp_path):
    """Without probes the sweep solves nothing, so it may leave the problem sector."""
    ini, out = _write_ini(
        tmp_path, "resolvent-sweep",
        params="sweep_angle = 2.0\nradii = 1,10\nangles = 3\nprobes = 0\nrefine = false",
    )
    assert main(["--config", str(ini)]) == 0
    assert len((out / "sweep.csv").read_text().splitlines()) == 1 + 2 * 3


def test_bvp_coefficient_overflowing_at_the_ends_warns_nothing(tmp_path):
    """b2 = 1e304 (1 + y) is within the stencil bound on the mesh, but b2 xi^2
    overflows at y = 0, 1 in the ellipticity lattice."""
    ini, out = _write_ini(tmp_path, "bvp", gamma="2.0", params="b2 = 1e304,1e304")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", str(ini)]) == 0
    assert _report(out)["failed_checks"] == []


def test_unknown_keys_exit_before_the_output_directory(tmp_path, capsys):
    ini, out = _write_ini(
        tmp_path, "solve-elliptic", params="lamda = 5\nforcng = mode", output_extra="thraeds = 4"
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", str(ini)]) == 1
    assert caught == []
    assert capsys.readouterr().err == "error: [parameters] lamda: not a key of task solve-elliptic\n"
    assert not out.exists()


@pytest.mark.parametrize("edit, argv, key", _OVERSIZED)
def test_oversized_sizes_allocate_nothing(tmp_path, capsys, edit, argv, key):
    ini, _ = _write_ini(tmp_path, "solve-elliptic")
    ini.write_text(ini.read_text().replace(*edit))
    tracemalloc.start()
    try:
        assert main(["--config", str(ini), *argv]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "physical memory" in capsys.readouterr().err
    assert peak < 2**20


_MATRIX_10 = ";".join(",".join("2" if i == j else "0" for j in range(10)) for i in range(10))


@pytest.mark.parametrize(
    "task, params, problem_extra",
    [
        ("solve-elliptic", "", f"a_op_matrix = {_MATRIX_10}"),
        ("system", f"mode = elliptic\nmatrix = {_MATRIX_10}", ""),
        ("system", f"mode = parabolic\nmatrix = {_MATRIX_10}", ""),
    ],
    ids=["solve-elliptic", "system-elliptic", "system-parabolic"],
)
def test_coupling_stack_guard(tmp_path, capsys, monkeypatch, task, params, problem_extra):
    """With 1 MiB of physical memory a 4096 x 10 x 10 symbol stack does not
    fit, whether the operator or the system's coupling matrix sizes it."""
    sysconf = os.sysconf
    pages = {"SC_PHYS_PAGES": 256, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", lambda name: pages.get(name) or sysconf(name))
    ini, out = _write_ini(tmp_path, task, params=params, problem_extra=problem_extra)
    ini.write_text(ini.read_text().replace("n = 64", "n = 4096"))
    assert main(["--config", str(ini)]) == 1
    assert capsys.readouterr().err == (
        "error: [problem] n = 4096: a 4096 x 10 x 10 complex field needs 0.006104 GiB, "
        "more than the 0.0009766 GiB of physical memory\n"
    )
    assert not out.exists()


def _oracle_csv(header, columns) -> bytes:
    def cell(v):
        if isinstance(v, str):
            return v
        if isinstance(v, np.integer):
            return str(int(v))
        return f"{float(v):.16e}"

    lines = [",".join(header)]
    lines += [",".join(cell(col[i]) for col in columns) for i in range(len(columns[0]))]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize(
    "rows", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1]
)
def test_write_csv_matches_per_value_oracle(tmp_path, rows):
    rng = np.random.default_rng(rows)
    special = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308]
    floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    k = min(rows, len(special))
    floats[:k] = special[:k]
    solution = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
    columns = [
        np.arange(1, rows + 1),
        rng.integers(-(2**62), 2**62, rows),
        floats,
        solution.real,
        solution.imag,
        np.array(["floor", "-", "%s", "1.5e+00"] * rows)[:rows],
    ]
    header = ["i", "big", "f", "re_u", "im_u", "order"]
    path = tmp_path / "t.csv"
    _write_csv(path, header, columns)
    assert path.read_bytes() == _oracle_csv(header, columns)


def test_write_csv_checks_column_lengths_before_opening(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="unequal shapes"):
        _write_csv(path, ["a", "b"], [np.zeros(3), np.zeros(2)])
    assert not path.exists()


def _assert_formats_as_percent(values):
    """``_float_cells`` prints each value as ``'%.16e' % v`` does."""
    values = np.asarray(values, dtype=float)
    cells = cli._float_cells(values)
    assert cells.shape == (values.size, 24)
    lines = np.concatenate([cells, np.full((values.size, 1), ord("\n"), np.uint8)], axis=1)
    lines = lines.ravel()
    want = "".join("%.16e\n" % v for v in values.tolist()).encode()
    assert lines[lines != 0].tobytes() == want


def test_float_cells_match_percent_on_random_bit_patterns():
    bits = np.random.default_rng(16).integers(0, 2**64, 200_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    assert values.size > 199_000
    _assert_formats_as_percent(values)


def test_float_cells_match_percent_on_edge_values():
    powers = np.array([float(f"1e{k}") for k in range(-307, 309)])
    ties = (2.0**53 - np.arange(1, 2001)) / 4  # quarters: the 18th digit is an exact 5
    assert "%.17e" % ties[0] == "2.25179981368524775e+15"
    subnormals = np.random.default_rng(5).integers(1, 2**52, 1000, dtype=np.uint64)
    special = [0.0, math.nan, math.inf, sys.float_info.max, sys.float_info.min, 5e-324]
    magnitudes = np.concatenate([
        powers,
        np.nextafter(powers, 0.0),
        np.nextafter(powers, math.inf),
        ties,
        subnormals.view(np.float64),
        special,
    ])
    _assert_formats_as_percent(np.concatenate([magnitudes, -magnitudes]))


def test_write_csv_memory_does_not_grow_with_rows(tmp_path):
    def peak(rows):
        columns = [np.linspace(-1.0, 1.0, rows), np.linspace(0.0, 1e-3, rows)]
        tracemalloc.start()
        try:
            _write_csv(tmp_path / "t.csv", ["x", "y"], columns)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    cli._float_tables()  # built once per process, before either trace
    small, large = peak(66_560), peak(4 * 66_560)
    assert large < small + 2**16


def test_import_builds_no_format_table():
    code = "import fracspec.cli as cli; print(cli._float_tables.cache_info().currsize)"
    src = os.path.dirname(os.path.dirname(fracspec.__file__))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n"


def _oracle_rows(header, rows) -> bytes:
    lines = [",".join(header)] + [",".join("%.16e" % v for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _hostile_lead(rng, size):
    """``size`` lead values, led by -0.0, nan, +-inf, the smallest subnormal and a negative."""
    vals = rng.standard_normal(size)
    vals[:6] = [-0.0, math.nan, math.inf, -math.inf, 5e-324, -7.25]
    return vals


@pytest.mark.parametrize("layout, dim", [("t,x", 1), ("t,x", 2), ("x,y", 1)])
def test_product_lead_solution_matches_per_row_oracle(tmp_path, layout, dim):
    rng = np.random.default_rng(dim)
    outer = _hostile_lead(rng, 7)
    inner = _hostile_lead(rng, CSV_BLOCK_ROWS // 3 + 5)
    # some block boundary falls inside a slice of the outer value
    assert CSV_BLOCK_ROWS % inner.size != 0 and outer.size * inner.size > 2 * CSV_BLOCK_ROWS
    shape = (outer.size, inner.size, dim)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    path = tmp_path / "solution.csv"
    _write_solution(path, dict(zip(layout.split(","), (outer, inner))), values)
    names = ["u"] if dim == 1 else [f"u_{c + 1}" for c in range(dim)]
    header = layout.split(",") + [f"{part}_{n}" for n in names for part in ("re", "im")]
    rows = [
        [a, b] + [part for z in values[i, j] for part in (z.real, z.imag)]
        for i, a in enumerate(outer)
        for j, b in enumerate(inner)
    ]
    assert path.read_bytes() == _oracle_rows(header, rows)


def test_space_time_solution_formats_each_lead_value_once(tmp_path, monkeypatch):
    steps, size, dim = 5, 16, 2
    formatted = []

    def counting(values, cells=cli._float_cells):
        formatted.append(np.size(values))
        return cells(values)

    monkeypatch.setattr(cli, "_float_cells", counting)
    grid = SpatialGrid(half_width=10.0, size=size)
    values = np.random.default_rng(3).standard_normal((steps + 1, size, dim)) + 0j
    axes = {"t": np.linspace(0.0, 1.0, steps + 1), "x": grid.points}
    _write_solution(tmp_path / "solution.csv", axes, values)
    rows = (steps + 1) * size
    assert sum(formatted) == (steps + 1) + size + rows * 2 * dim


def test_bvp_lead_columns_are_x_slowest(tmp_path):
    ini, out = _write_ini(tmp_path, "bvp", gamma="2.0", params="mesh_size = 67")
    assert main(["--config", str(ini)]) == 0
    lines = (out / "solution.csv").read_text().splitlines()[1:]
    points = SpatialGrid(half_width=10.0, size=64).points
    mesh = BVPCoefficients(b2=np.ones_like, b1=np.zeros_like, b0=np.zeros_like, mesh_size=67).mesh
    assert [line.split(",")[:2] for line in lines] == [
        ["%.16e" % x, "%.16e" % y] for x in points for y in mesh
    ]


@pytest.mark.parametrize("module", ["fracspec", "fracspec.cli"])
def test_import_does_not_load_scipy(module):
    """scipy is loaded only by the exact integrator's first matrix exponential."""
    code = (
        f"import sys, {module}; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = os.path.dirname(os.path.dirname(fracspec.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize(
    "task, problem_extra, params, loads",
    [
        ("solve-parabolic", "a_op_matrix = 2,1;1,2", "scheme = exact\nnt = 4", False),
        # a real literal shift keeps the coupling symmetric
        ("system", "", "mode = parabolic\nmatrix = 2,1;1,2\nliteral_shift = true\nnt = 4", False),
        ("solve-parabolic", _NON_NORMAL, "scheme = exact\nnt = 4", True),
        ("system", "", _COMPLEX_SHIFT + "nt = 4", True),
    ],
)
def test_only_an_exact_solve_of_a_q_that_is_not_normal_loads_scipy(
    tmp_path, task, problem_extra, params, loads
):
    """A normal Q steps in its eigenbasis with no matrix exponential, so its
    exact solve leaves scipy unloaded; a Q that is not normal loads it."""
    ini, out = _write_ini(tmp_path, task, params=params, problem_extra=problem_extra)
    code = (
        "import sys; from fracspec.cli import main; "
        f"print(main(['--config', {str(ini)!r}]), "
        "any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    src = os.path.dirname(os.path.dirname(fracspec.__file__))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"0 {loads}\n"
    assert (out / "solution.csv").exists()
