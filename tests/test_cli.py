"""Tests for the command-line runner and its exit codes."""

import numpy as np
import pytest

from monoiga import experiments
from monoiga.bspline import SplineSpace
from monoiga.cli import EXIT_CONFIG, EXIT_IO, EXIT_NONCONVERGENCE, EXIT_OK, main
from monoiga.geometry import GeometryMap, builtin_geometry, save_geometry

QUICK_CONFIG = {
    "experiment": {"kind": "solve", "geometry": "unit_interval"},
    "problem": {"source": "custom"},
    "source": {"expression": "chi(t, 0.2, 0.5) * sin(pi * x)", "window_start": "0.2"},
    "discretization": {"degree": "2", "h_space": "2^-2", "h_time": "2^-2"},
    "solver": {"tolerance": "1e-6", "max_iterations": "60"},
    "output": {"times": "1.0", "grid": "5"},
}


def write_quick_config(tmp_path, out_name="out", overrides=()):
    """The quick 1D solve, with ``(section, key, value)`` overrides."""
    sections = {name: dict(keys) for name, keys in QUICK_CONFIG.items()}
    sections["experiment"]["output_dir"] = str(tmp_path / out_name)
    for section, key, value in overrides:
        sections.setdefault(section, {})[key] = value
    path = tmp_path / "run.cfg"
    path.write_text(
        "".join(
            "[%s]\n" % name + "".join("%s = %s\n" % item for item in keys.items())
            for name, keys in sections.items()
        )
    )
    return path


def assert_config_error(tmp_path, capsys, cfg):
    assert main(["solve", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "field_grid.csv").exists()
    return err


def test_solve_success(tmp_path):
    cfg = write_quick_config(tmp_path)
    assert main(["solve", str(cfg)]) == EXIT_OK
    assert (tmp_path / "out" / "field_grid.csv").exists()


def test_output_dir_override(tmp_path):
    cfg = write_quick_config(tmp_path)
    target = tmp_path / "elsewhere"
    assert main(["solve", str(cfg), "--output-dir", str(target)]) == EXIT_OK
    assert (target / "field_grid.csv").exists()


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_bad_config_exits_2(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[experiment]\nkind = nonsense\n")
    assert main(["solve", str(path)]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("solver", "relaxation", "2"),
        ("problem", "D", "-1"),
        ("discretization", "degree", "0"),
        ("problem", "final_time", "0"),
        ("stabilization", "tolerance", "1.5"),
        ("output", "grid", "5 5"),
        ("solver", "max_iterations", "0"),
        ("output", "times", "1.0 1.5"),
        ("solver", "linear_tol", "0"),
        ("solver", "linear_tol", "1"),
        ("convergence", "tolerance", "0"),
        ("discretization", "h_time", "0"),
        ("discretization", "h_space", "0"),
        ("solver", "tolerance", "nan"),
        ("problem", "final_time", "inf"),
        ("problem", "final_time", "nan"),
        ("output", "grid", "1 5"),
        ("output", "grid", "0 5"),
        ("output", "grid", "1"),
        ("output", "grid", "0"),
        ("problem", "D", "nan"),
        ("problem", "a", "nan"),
        ("problem", "C_m", "inf"),
        ("output", "section", "0.1 1.5 5"),
        ("output", "section", "0.1 0.9 -3"),
        ("output", "section", "0.1 0.9 2.5"),
    ],
)
def test_invalid_value_exits_2_before_any_solve(
    tmp_path, capsys, monkeypatch, section, key, value
):
    def no_solve(*args, **kwargs):
        raise AssertionError("an invalid configuration reached the solver")

    monkeypatch.setattr(experiments, "fixed_point_solve", no_solve)
    cfg = write_quick_config(tmp_path, overrides=[(section, key, value)])
    assert_config_error(tmp_path, capsys, cfg)


def test_truncated_geometry_file_exits_2(tmp_path, capsys):
    path = tmp_path / "truncated.geo"
    path.write_text("2\n1 1\n")
    cfg = write_quick_config(tmp_path, overrides=[("experiment", "geometry", path)])
    err = assert_config_error(tmp_path, capsys, cfg)
    assert "has 2 lines, expected at least 5" in err


def test_negative_geometry_dimension_exits_2(tmp_path, capsys):
    path = tmp_path / "negative.geo"
    save_geometry(builtin_geometry("unit_interval"), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(["-1"] + lines[1:]) + "\n")
    cfg = write_quick_config(tmp_path, overrides=[("experiment", "geometry", path)])
    err = assert_config_error(tmp_path, capsys, cfg)
    assert "dimension must be positive, got -1" in err


def test_collapsed_control_net_exits_2(tmp_path, capsys):
    # every control point at one place: the Jacobian vanishes everywhere
    geo = builtin_geometry("unit_interval")
    path = tmp_path / "point.geo"
    save_geometry(GeometryMap(geo.spaces, np.full_like(geo.control_points, 0.5)), path)
    cfg = write_quick_config(tmp_path, overrides=[("experiment", "geometry", path)])
    err = assert_config_error(tmp_path, capsys, cfg)
    assert "singular Jacobian" in err


def test_folded_control_net_exits_2(tmp_path, capsys):
    # x(s) = 3 s - 2 s^2 turns back at s = 3/4: det J changes sign
    path = tmp_path / "folded.geo"
    save_geometry(GeometryMap([SplineSpace.uniform(2, 1)], [[0.0], [1.5], [1.0]]), path)
    cfg = write_quick_config(tmp_path, overrides=[("experiment", "geometry", path)])
    err = assert_config_error(tmp_path, capsys, cfg)
    assert "Jacobian determinant changes sign" in err


@pytest.mark.parametrize(
    "section,key,value,named",
    [
        ("solver", "max_iteration", "1", "solver.max_iteration"),
        ("solver", "tolerence", "1e-14", "solver.tolerence"),
        ("stabilisation", "method", "off", "[stabilisation]"),
        ("DEFAULT", "degree", "2", "[DEFAULT]"),
    ],
)
def test_unknown_config_entry_exits_2_before_any_solve(
    tmp_path, capsys, monkeypatch, section, key, value, named
):
    def no_solve(*args, **kwargs):
        raise AssertionError("a misspelt configuration reached the solver")

    monkeypatch.setattr(experiments, "fixed_point_solve", no_solve)
    cfg = write_quick_config(tmp_path, overrides=[(section, key, value)])
    assert named in assert_config_error(tmp_path, capsys, cfg)


def test_bad_threads_exits_2(tmp_path):
    # --threads and --seed did nothing and are gone: argparse rejects them
    cfg = write_quick_config(tmp_path)
    for flag in ("--threads", "--seed"):
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(cfg), flag, "1"])
        assert exc.value.code == EXIT_CONFIG


def test_nonconvergence_exits_3(tmp_path, capsys):
    path = tmp_path / "hard.cfg"
    path.write_text(
        "[experiment]\n"
        "kind = solve\n"
        "geometry = unit_interval\n"
        "output_dir = %s\n"
        "[problem]\n"
        "source = custom\n"
        "[source]\n"
        "expression = sin(pi * x)\n"
        "[discretization]\n"
        "degree = 2\n"
        "h_space = 2^-2\n"
        "h_time = 2^-2\n"
        "[solver]\n"
        "tolerance = 1e-14\n"
        "max_iterations = 1\n" % (tmp_path / "out3")
    )
    assert main(["solve", str(path)]) == EXIT_NONCONVERGENCE
    assert "did not" in capsys.readouterr().err


def test_failed_decomposition_exits_3(tmp_path, capsys):
    # With C_m = D = a = 0 every per-mode temporal matrix of the
    # preconditioner vanishes, so its inversion fails.
    zero = [("problem", key, "0") for key in ("C_m", "D", "a")]
    cfg = write_quick_config(tmp_path, overrides=zero)
    assert main(["solve", str(cfg)]) == EXIT_NONCONVERGENCE
    err = capsys.readouterr().err
    assert "singular" in err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_io_error_exits_4(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    cfg = write_quick_config(tmp_path, out_name="blocked")
    assert main(["solve", str(cfg)]) == EXIT_IO


def test_convergence_subcommand(tmp_path):
    path = tmp_path / "conv.cfg"
    path.write_text(
        "[experiment]\n"
        "kind = convergence\n"
        "output_dir = %s\n"
        "[convergence]\n"
        "degrees = 2\n"
        "h = 2^-2 2^-3\n"
        "tolerance = 1e-8\n" % (tmp_path / "conv_out")
    )
    assert main(["convergence", str(path)]) == EXIT_OK
    csv = (tmp_path / "conv_out" / "convergence.csv").read_text().splitlines()
    assert csv[0] == "degree,h,rel_l2_error,observed_order"
    assert len(csv) == 3


def test_invalid_late_convergence_level_exits_2_before_any_solve(
    tmp_path, capsys, monkeypatch
):
    def no_solve(*args, **kwargs):
        raise AssertionError("a study with an invalid level reached the solver")

    monkeypatch.setattr(experiments, "fixed_point_solve", no_solve)
    path = tmp_path / "conv.cfg"
    path.write_text(
        "[experiment]\n"
        "kind = convergence\n"
        "output_dir = %s\n"
        "[convergence]\n"
        "degrees = 2 0\n"
        "h = 2^-2 2^-3\n" % (tmp_path / "conv_out")
    )
    assert main(["convergence", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err
    assert not (tmp_path / "conv_out" / "convergence.csv").exists()


def test_compare_subcommand(tmp_path):
    path = tmp_path / "cmp.cfg"
    path.write_text(
        "[experiment]\n"
        "kind = compare\n"
        "geometry = unit_interval\n"
        "output_dir = %s\n"
        "[problem]\n"
        "source = none\n"
        "[discretization]\n"
        "degree = 2\n"
        "h_space = 2^-2\n"
        "h_time = 2^-2\n"
        "[solver]\n"
        "max_iterations = 20\n" % (tmp_path / "cmp_out")
    )
    assert main(["compare", str(path)]) == EXIT_OK
    assert (tmp_path / "cmp_out" / "compare.csv").exists()
    assert (tmp_path / "cmp_out" / "compare_report.txt").exists()


def test_repeat_runs_are_bitwise_identical(tmp_path):
    cfg = write_quick_config(tmp_path)
    assert main(["solve", str(cfg)]) == EXIT_OK
    first = (tmp_path / "out" / "field_grid.csv").read_bytes()
    assert main(["solve", str(cfg)]) == EXIT_OK
    assert (tmp_path / "out" / "field_grid.csv").read_bytes() == first


def test_verbose_logs_each_sweep_to_stderr(tmp_path, capsys):
    cfg = write_quick_config(tmp_path)
    assert main(["solve", str(cfg), "--verbose"]) == EXIT_OK
    err = capsys.readouterr().err
    assert err.count("monoiga.solver: sweep") > 1
    assert "GMRES iterations" in err
    assert main(["solve", str(cfg)]) == EXIT_OK
    assert "monoiga.solver" not in capsys.readouterr().err
