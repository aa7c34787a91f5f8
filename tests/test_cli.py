"""End-to-end runs of the command-line entry point via main(argv)."""

import json
import math
import os
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from fracspec.bvp import BVPCoefficients
from fracspec.cli import (
    CSV_BLOCK_ROWS,
    _product_lead,
    _write_csv,
    _write_solution,
    _write_space_time_solution,
    main,
)
from fracspec.core import SpatialGrid

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
    for name in ("FRACSPEC_CONFIG", "FRACSPEC_OUT", "FRACSPEC_SEED", "FRACSPEC_THREADS"):
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


def test_config_seed_and_threads(tmp_path):
    ini, out = _write_ini(
        tmp_path, "solve-elliptic", params="seed = 123", output_extra="threads = 0"
    )
    assert main(["--config", str(ini)]) == 0
    rep = _report(out)
    assert rep["seed"] == 123
    assert rep["threads"] == (os.cpu_count() or 1)


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


def test_separability_artifacts(tmp_path):
    ini, out = _write_ini(tmp_path, "separability", params="trials = 10")
    assert main(["--config", str(ini)]) == 0
    lines = (out / "ratios.csv").read_text().splitlines()
    assert lines[0] == "trial,ratio"
    assert len(lines) == 11


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


@pytest.mark.parametrize(
    "edit, argv, key",
    [
        (("l = 10.0", "l = inf"), [], "[problem] l"),
        (("n = 64", "n = 63"), [], "[problem] n"),
        (("directory =", "threads = -3\ndirectory ="), [], "[output] threads"),
        (None, ["--threads", "-3"], "[output] threads"),
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
    assert err.count("\n") == 1 and key in err
    assert not (out / "report.json").exists()


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
    if layout == "t,x":
        u = SimpleNamespace(times=outer, grid=SimpleNamespace(points=inner), values=values)
        _write_space_time_solution(path, u)
    else:
        _write_solution(path, ["x", "y"], _product_lead(outer, inner), values)
    names = ["u"] if dim == 1 else [f"u_{c + 1}" for c in range(dim)]
    header = layout.split(",") + [f"{part}_{n}" for n in names for part in ("re", "im")]
    rows = [
        [a, b] + [part for z in values[i, j] for part in (z.real, z.imag)]
        for i, a in enumerate(outer)
        for j, b in enumerate(inner)
    ]
    assert path.read_bytes() == _oracle_rows(header, rows)


def test_bvp_lead_columns_are_x_slowest(tmp_path):
    ini, out = _write_ini(tmp_path, "bvp", gamma="2.0", params="mesh_size = 67")
    assert main(["--config", str(ini)]) == 0
    lines = (out / "solution.csv").read_text().splitlines()[1:]
    points = SpatialGrid(half_width=10.0, size=64).points
    mesh = BVPCoefficients(b2=np.ones_like, b1=np.zeros_like, b0=np.zeros_like, mesh_size=67).mesh
    assert [line.split(",")[:2] for line in lines] == [
        ["%.16e" % x, "%.16e" % y] for x in points for y in mesh
    ]
