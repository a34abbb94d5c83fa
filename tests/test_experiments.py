"""Tests for sources, configuration parsing, runners and field writers."""

import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from monoiga.bspline import SplineSpace, SpaceTimeSpace
from monoiga.experiments import (
    ConfigError,
    ExperimentConfig,
    build_geometry,
    build_space,
    characteristic,
    make_source,
    manufactured_exact_1d,
    oscillation_metric,
    parse_config,
    run_compare,
    run_convergence,
    run_single,
    write_field,
)
from monoiga.geometry import builtin_geometry
from monoiga.solver import FixedPointConfig
from monoiga.stabilization import ResidualIndicator

RNG = np.random.default_rng(31)

CONSTANTS = {
    "C_m": 1.0,
    "D": 1e-4,
    "a": 0.13,
    "b": 0.013,
    "c1": 0.26,
    "c2": 0.1,
    "d_e": 1.0,
}


class TestSources:
    def test_characteristic_is_exactly_binary(self):
        psi = np.array([-0.1, 0.0, 0.5, 1.0, 1.1])
        vals = characteristic(psi, 0.0, 1.0)
        assert_allclose(vals, [0.0, 1.0, 1.0, 1.0, 0.0], atol=0)
        assert set(np.unique(vals)) <= {0.0, 1.0}

    def test_manufactured_source_solves_pde_exactly(self):
        src = make_source("manufactured_1d", 1.0, CONSTANTS)
        x = RNG.uniform(0.05, 0.95, 40)
        t = RNG.uniform(0.05, 0.95, 40)
        pts = x[:, None]
        u = manufactured_exact_1d(pts, t)
        h = 1e-5
        du_dt = (manufactured_exact_1d(pts, t + h) - manufactured_exact_1d(pts, t - h)) / (2 * h)
        uxx = (
            manufactured_exact_1d(x[:, None] + h, t)
            - 2 * u
            + manufactured_exact_1d(x[:, None] - h, t)
        ) / h**2
        resid = (
            CONSTANTS["C_m"] * du_dt
            - CONSTANTS["D"] * uxx
            + CONSTANTS["c1"] * u * (u - CONSTANTS["a"]) * (u - 1.0)
            - src(pts, t)
        )
        assert np.max(np.abs(resid)) < 1e-5

    def test_gaussian_pulse_window_and_center(self):
        src = make_source("gaussian_pulse_2d", 300.0, CONSTANTS)
        assert src.activation_start == 90.0
        x = np.array([[0.3, 0.0625], [0.3, 0.0625]])
        t = np.array([50.0, 95.0])
        vals = src(x, t)
        assert vals[0] == 0.0
        assert vals[1] > 0.0
        # peak value at the moving center is the full amplitude
        t95 = np.array([95.0])
        center = np.array([[(8.0 / 15.0) * (1.5 / 300.0) * 95.0, 0.0625]])
        assert_allclose(src(center, t95), [0.25], atol=1e-12)

    def test_layer_pulse_3d(self):
        src = make_source("layer_pulse_3d", 300.0, CONSTANTS)
        x = np.array([[0.5, 0.5, 0.95], [0.5, 0.5, 0.5], [0.5, 0.5, 0.95]])
        t = np.array([50.0, 50.0, 10.0])
        assert_allclose(src(x, t), [0.1, 0.0, 0.0], atol=0)
        assert src.activation_start == 45.0

    def test_zero_source(self):
        src = make_source("none", 1.0, CONSTANTS)
        assert src.fn is None
        assert np.all(src(np.zeros((3, 1)), np.zeros(3)) == 0.0)
        assert src.activation_start == np.inf

    def test_custom_expression(self):
        src = make_source(
            "custom",
            1.0,
            CONSTANTS,
            {"expression": "0.5 * chi(t, 0.2, 0.4) * sin(pi * x)"},
        )
        x = np.array([[0.5], [0.5]])
        t = np.array([0.3, 0.6])
        assert_allclose(src(x, t), [0.5, 0.0], atol=1e-15)

    @pytest.mark.parametrize(
        "expression",
        [
            "chi(t, 0.2, 0.5) * sin(pi * x)",
            "sin(pi * x)",
            "0.5 * chi(t, 0.2, 0.4) * sin(pi * x)",
            "0.25 * exp(-500*(x-0.3)**2) * chi(t, 90.0, 100.0)",
            "np.exp(-x**2 / 2.0) * (t > 0.5) + sqrt(abs(y)) - np.cos(+t // 7) % 3",
            "((x > 0.5) & (t < 90.0)) | ~(y >= 0.2)",
        ],
    )
    def test_custom_expression_matches_python_evaluation(self, expression):
        # bit for bit against Python's own evaluation of the expression
        x = RNG.uniform(0.0, 1.0, (40, 2))
        t = np.concatenate([RNG.uniform(0.0, 1.0, 20), RNG.uniform(85.0, 105.0, 20)])
        names = {"np": np, "chi": characteristic, "x": x[:, 0], "y": x[:, 1], "t": t}
        names.update({k: getattr(np, k) for k in ("sin", "cos", "exp", "sqrt", "pi", "abs")})
        ref = eval(expression, {"__builtins__": {}}, names)
        src = make_source("custom", 1.0, CONSTANTS, {"expression": expression})
        assert np.array_equal(src(x, t), np.broadcast_to(np.asarray(ref, dtype=float), t.shape))

    @pytest.mark.parametrize(
        "expression",
        [
            "().__class__.__base__.__subclasses__().__len__() + 0*t",
            "x.real",
            "np.linalg.norm(x)",
            "sin(x, out=x)",
            "0.2 < t < 0.5",
            "t and x",
            "x +",
        ],
    )
    def test_custom_expression_outside_whitelist_raises(self, expression):
        with pytest.raises(ConfigError, match="custom expression"):
            make_source("custom", 1.0, CONSTANTS, {"expression": expression})

    def test_unknown_source_raises(self):
        with pytest.raises(ConfigError, match="unknown source"):
            make_source("warp_field", 1.0, CONSTANTS)


class TestConfig:
    def test_parse_and_defaults(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "[experiment]\n"
            "kind = compare\n"
            "geometry = ellipse_annulus\n"
            "output_dir = results\n"
            "\n"
            "[problem]\n"
            "D = 1e-3\n"
            "final_time = 300\n"
            "source = gaussian_pulse_2d\n"
            "\n"
            "[discretization]\n"
            "degree = 3\n"
            "h_space = 2^-5 2^-3\n"
            "h_time = 2^-4\n"
            "\n"
            "[solver]\n"
            "max_iterations = 42\n"
        )
        cfg = parse_config(path)
        assert cfg.kind == "compare"
        assert cfg.geometry == "ellipse_annulus"
        assert cfg.constants["D"] == 1e-3
        assert cfg.constants["a"] == 0.13
        assert cfg.h_space == [2.0**-5, 2.0**-3]
        assert cfg.h_time == 2.0**-4
        assert cfg.max_iterations == 42
        resolved = cfg.resolved()
        for key in ("constants.a", "constants.b", "constants.c1", "constants.c2"):
            assert key in resolved

    def test_defaults_have_one_source(self):
        # the library defaults, apart from the runner's stabilized method
        cfg = ExperimentConfig()
        assert cfg.solver_config() == FixedPointConfig(stabilization="spline_upwind")
        assert cfg.constants == CONSTANTS

    def test_missing_file_raises(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/nonexistent/path.cfg")

    def test_bad_kind_raises(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[experiment]\nkind = interpolate\n")
        with pytest.raises(ConfigError, match="unknown experiment kind"):
            parse_config(path)

    def test_bad_mesh_size_raises(self):
        geo = builtin_geometry("unit_interval")
        with pytest.raises(ConfigError, match="reciprocal"):
            build_space(geo, 2, [0.3], 0.25)

    def test_build_space_dimensions(self):
        geo = builtin_geometry("unit_square")
        st = build_space(geo, 2, [0.25], 0.5)
        assert st.num_spatial_dims == 2
        assert st.spatial[0].num_elements == 4
        assert st.spatial[1].num_elements == 4
        assert st.time.num_elements == 2

    def test_unknown_geometry_raises(self):
        with pytest.raises(ConfigError, match="neither builtin nor a file"):
            build_geometry("moebius", 1.0)


class TestOscillationMetric:
    def test_zero_solution_gives_zero(self):
        geo = builtin_geometry("unit_interval")
        st = SpaceTimeSpace([SplineSpace.uniform(2, 3)], SplineSpace.uniform(2, 3))
        assert oscillation_metric(st, geo, np.zeros(st.num_dof), np.inf) == 0.0

    def test_no_active_times(self):
        geo = builtin_geometry("unit_interval")
        st = SpaceTimeSpace([SplineSpace.uniform(2, 3)], SplineSpace.uniform(2, 3))
        u = RNG.standard_normal(st.num_dof)
        assert oscillation_metric(st, geo, u, -1.0) == 0.0

    def test_masks_after_activation(self):
        geo = builtin_geometry("unit_interval", final_time=1.0)
        st = SpaceTimeSpace([SplineSpace.uniform(1, 4)], SplineSpace.uniform(1, 4))
        # coefficients grow linearly in time: early-time samples stay small
        gt = st.time_greville()
        u = np.outer(gt, np.ones(st.num_space)).reshape(-1)
        full = oscillation_metric(st, geo, u, np.inf)
        early = oscillation_metric(st, geo, u, 0.3)
        assert early < full
        assert early <= 0.3 + 1e-12


@pytest.fixture
def quick_problem_files(tmp_path):
    cfg = tmp_path / "quick.cfg"
    cfg.write_text(
        "[experiment]\n"
        "kind = solve\n"
        "geometry = unit_interval\n"
        "output_dir = %s\n"
        "[problem]\n"
        "source = custom\n"
        "[source]\n"
        "expression = chi(t, 0.2, 0.5) * sin(pi * x)\n"
        "window_start = 0.2\n"
        "[discretization]\n"
        "degree = 2\n"
        "h_space = 2^-2\n"
        "h_time = 2^-2\n"
        "[solver]\n"
        "tolerance = 1e-6\n"
        "max_iterations = 60\n"
        "[output]\n"
        "times = 0.5 1.0\n"
        "section = 0 1 65\n"
        "grid = 9\n" % (tmp_path / "out")
    )
    return cfg, tmp_path / "out"


class TestRunners:
    def test_run_single_outputs(self, quick_problem_files):
        cfg_path, out = quick_problem_files
        cfg = parse_config(cfg_path)
        result = run_single(cfg)
        assert result.converged
        assert (out / "field_grid.csv").exists()
        assert (out / "field_section.csv").exists()
        assert (out / "theta.csv").exists()
        assert (out / "solve_report.txt").exists()
        assert (out / "field_t0p5.vtk").exists()
        report = (out / "solve_report.txt").read_text()
        for key in ("constants.a", "constants.c1", "tolerance"):
            assert key in report
        header = (out / "field_section.csv").read_text().splitlines()[0]
        assert header.split(",") == ["x1", "t", "u", "w", "theta"]

    def test_theta_csv_dumps_the_indicator(self, quick_problem_files):
        cfg_path, out = quick_problem_files
        indicator = run_single(parse_config(cfg_path)).indicator
        lines = (out / "theta.csv").read_text().splitlines()
        columns = ["s%d" % j for j in range(indicator.values.shape[1])]
        assert lines[0].split(",") == ["t_greville"] + columns
        table = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
        # one row per temporal Greville abscissa, bitwise after the round trip
        assert np.array_equal(
            table, np.column_stack([indicator.time_greville, indicator.values])
        )

    def test_convergence_runner_and_determinism(self, tmp_path):
        cfg = ExperimentConfig(
            kind="convergence",
            output_dir=str(tmp_path / "c1"),
            conv_degrees=[2],
            conv_h=[0.25, 0.125],
            conv_tolerance=1e-8,
        )
        rows1, slopes1 = run_convergence(cfg)
        data1 = (tmp_path / "c1" / "convergence.csv").read_bytes()
        cfg.output_dir = str(tmp_path / "c2")
        rows2, _ = run_convergence(cfg)
        data2 = (tmp_path / "c2" / "convergence.csv").read_bytes()
        assert data1 == data2
        assert rows1[1][2] < rows1[0][2]
        assert slopes1[2] > 2.0

    def test_compare_zero_source_reports_zero_oscillation(self, tmp_path):
        cfg = ExperimentConfig(
            kind="compare",
            geometry="unit_interval",
            degree=2,
            h_space=[0.25],
            h_time=0.25,
            source="none",
            output_dir=str(tmp_path),
            max_iterations=20,
        )
        report = run_compare(cfg)
        assert report["galerkin"]["oscillation"] == 0.0
        assert report["spline_upwind"]["oscillation"] == 0.0
        text = (tmp_path / "compare.csv").read_text().splitlines()
        assert text[0].startswith("method,")
        assert len(text) == 3


class TestWriteField:
    def test_zero_solution_columns_and_round_trip(self, tmp_path):
        geo = builtin_geometry("unit_square")
        st = SpaceTimeSpace(
            [SplineSpace.uniform(2, 2)] * 2, SplineSpace.uniform(2, 2)
        )
        write_field(
            st,
            geo,
            np.zeros(st.num_dof),
            w=np.zeros(st.num_dof),
            times=[0.5],
            grid_shape=(5, 4),
            output_dir=str(tmp_path),
            basename="zero",
        )
        lines = (tmp_path / "zero_grid.csv").read_text().strip().splitlines()
        assert lines[0] == "x1,x2,t,u,w"
        for ln in lines[1:]:
            cells = ln.split(",")
            assert float(cells[3]) == 0.0 and float(cells[4]) == 0.0

    @pytest.mark.parametrize("t", [-0.5, 2.5])
    def test_time_outside_horizon_raises(self, tmp_path, t):
        geo = builtin_geometry("unit_interval", final_time=2.0)
        st = SpaceTimeSpace([SplineSpace.uniform(2, 2)], SplineSpace.uniform(2, 2))
        with pytest.raises(ValueError, match="output times"):
            write_field(
                st, geo, np.zeros(st.num_dof), times=[1.0, t], output_dir=str(tmp_path)
            )
        assert not list(tmp_path.iterdir())

    def test_csv_round_trip_is_bitwise(self, tmp_path):
        geo = builtin_geometry("unit_interval")
        st = SpaceTimeSpace([SplineSpace.uniform(2, 3)], SplineSpace.uniform(2, 3))
        u = RNG.standard_normal(st.num_dof)
        write_field(
            st,
            geo,
            u,
            times=[1.0],
            section=[0.0, 1.0, 7],
            grid_shape=(5,),
            output_dir=str(tmp_path),
            basename="rt",
        )
        from monoiga import evaluate_field

        lines = (tmp_path / "rt_section.csv").read_text().strip().splitlines()[1:]
        xs = np.linspace(0, 1, 7)
        vals = evaluate_field(st, u, np.column_stack([xs, np.ones(7)]))
        for ln, x, v in zip(lines, xs, vals):
            cells = ln.split(",")
            assert float(cells[0]) == x
            assert float(cells[2]) == v  # bitwise after %.17g round trip

    def test_vtk_structure(self, tmp_path):
        geo = builtin_geometry("unit_square")
        st = SpaceTimeSpace(
            [SplineSpace.uniform(1, 2)] * 2, SplineSpace.uniform(1, 2)
        )
        write_field(
            st,
            geo,
            np.ones(st.num_dof),
            times=[1.0],
            grid_shape=(3, 3),
            output_dir=str(tmp_path),
            basename="vtk",
        )
        content = (tmp_path / "vtk_t1.vtk").read_text().splitlines()
        assert content[0].startswith("# vtk DataFile")
        assert "DATASET STRUCTURED_POINTS" in content
        assert "DIMENSIONS 3 3 1" in content
        idx = content.index("LOOKUP_TABLE default")
        values = [float(v) for v in content[idx + 1 : idx + 10]]
        assert len(values) == 9


def test_support_bleed_margin_and_metric_cut():
    from monoiga.experiments import support_bleed_margin

    geo = builtin_geometry("unit_interval", final_time=100.0)
    st = SpaceTimeSpace([SplineSpace.uniform(2, 4)], SplineSpace.uniform(2, 4))
    margin = support_bleed_margin(st, 100.0)
    assert margin == (2 + 1) * 0.25 * 100.0
    gt = st.time_greville()
    u = np.outer(gt, np.ones(st.num_space)).reshape(-1)
    full = oscillation_metric(st, geo, u, 100.0, margin=0.0)
    cut = oscillation_metric(st, geo, u, 100.0, margin=margin)
    assert cut < full


def test_theta_column_matches_multilinear_oracle(tmp_path):
    # The theta column of both CSVs is the multilinear interpolant of the
    # indicator on its Greville grid; t = 0 lies before the first constrained
    # temporal Greville abscissa, where the value is clipped.
    from scipy.interpolate import RegularGridInterpolator

    geo = builtin_geometry("unit_square", final_time=2.0)
    spatial = [SplineSpace.uniform(2, 3), SplineSpace.uniform(3, 2)]
    st = SpaceTimeSpace(spatial, SplineSpace.uniform(2, 4))
    values = RNG.random((st.num_time, st.num_space))
    indicator = ResidualIndicator(
        values, st.time_greville(), [s.greville() for s in spatial], st.spatial_shape
    )
    times = [0.0, 0.7, 2.0]
    start, end, m = [0.1, 0.9], [0.8, 0.2], 9
    write_field(
        st,
        geo,
        np.zeros(st.num_dof),
        indicator=indicator,
        times=times,
        section=start + end + [m],
        grid_shape=(5, 4),
        output_dir=str(tmp_path),
        basename="th",
    )
    coords = (st.time_greville(),) + tuple(reversed(indicator.spatial_grevilles))
    interp = RegularGridInterpolator(
        coords, values.reshape((st.num_time,) + st.spatial_shape), method="linear"
    )
    lo = [c[0] for c in coords]
    hi = [c[-1] for c in coords]

    line = np.array(start) + np.linspace(0, 1, m)[:, None] * (np.array(end) - start)
    axes = [np.linspace(0, 1, 5), np.linspace(0, 1, 4)]
    mesh = np.meshgrid(axes[1], axes[0], indexing="ij")
    grid = np.column_stack([mesh[1].reshape(-1), mesh[0].reshape(-1)])
    for suffix, eta in (("section", line), ("grid", grid)):
        lines = (tmp_path / ("th_%s.csv" % suffix)).read_text().splitlines()
        assert lines[0].split(",")[-1] == "theta"
        theta = np.array([float(ln.split(",")[-1]) for ln in lines[1:]])
        ref = np.concatenate(
            [
                interp(
                    np.clip(
                        np.column_stack([np.full(len(eta), t / 2.0), eta[:, ::-1]]),
                        lo,
                        hi,
                    )
                )
                for t in times
            ]
        )
        assert theta.shape == ref.shape
        assert np.max(np.abs(theta - ref)) <= 1e-14 * np.max(np.abs(ref))


# A small stabilized solve on the annulus runs every dense factorization the
# library has (the exact spatial eigenbasis, GMRES's triangular solve and the
# recovery solve) and every band-matrix product (the Gram assemblies, the
# operator's matvec and the exact factor's stabilizer diagonals), so a lazy
# import inside any of them shows too.
IMPORT_FOOTPRINT_SCRIPT = """
import sys
prefix = sys.argv[1]
def loaded():
    return [m for m in sys.modules if m == prefix or m.startswith(prefix + ".")]
import monoiga
from monoiga import experiments, solver
print(loaded())
cfg = experiments.ExperimentConfig(
    geometry="ellipse_annulus", degree=2, h_space=[0.25, 0.5], h_time=0.25,
    final_time=120.0, source="gaussian_pulse_2d",
)
geo = experiments.build_geometry(cfg.geometry, final_time=cfg.final_time)
space = experiments.build_space(geo, cfg.degree, cfg.h_space, cfg.h_time)
source = experiments.make_source(
    cfg.source, cfg.final_time, cfg.constants, cfg.source_params
)
problem = solver.MonodomainProblem(
    geometry=geo, space=space, source=source, **cfg.constants
)
result = solver.fixed_point_solve(problem, cfg.solver_config())
assert result.converged and max(s["rank"] for s in result.steps) > 0
print(loaded())
"""


@pytest.mark.parametrize(
    "module",
    [
        "scipy.interpolate",
        "scipy.linalg",
        "scipy.sparse",
        "scipy",
        # np.unique loads numpy.ma, leggauss numpy.polynomial; a solve
        # reads no configuration file.
        "numpy.ma",
        "numpy.polynomial",
        "configparser",
    ],
)
def test_import_and_solve_load_no_module(module):
    import monoiga

    src = os.path.dirname(os.path.dirname(monoiga.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_FOOTPRINT_SCRIPT, module],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.splitlines() == ["[]", "[]"]


def test_grid_csv_includes_theta_for_stabilized_runs(quick_problem_files):
    cfg_path, out = quick_problem_files
    cfg = parse_config(cfg_path)
    run_single(cfg)
    header = (out / "field_grid.csv").read_text().splitlines()[0]
    assert header.split(",") == ["x1", "t", "u", "w", "theta"]
