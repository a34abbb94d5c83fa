"""Configuration-driven experiment runners and field output writers."""

import ast
import configparser
import math
import operator
import os
import time as _time
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .assembly import QuadratureRule, field_on_grid
from .bspline import SplineSpace, SpaceTimeSpace
from .fields import evaluate_field
from .geometry import builtin_geometry, load_geometry
from .solver import (
    FixedPointConfig,
    FixedPointDiverged,
    MonodomainProblem,
    fixed_point_solve,
    l2_error,
)
from .stabilization import write_theta_csv

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "SourceTerm",
    "parse_config",
    "make_source",
    "characteristic",
    "manufactured_exact_1d",
    "build_geometry",
    "build_space",
    "run_convergence",
    "run_compare",
    "run_single",
    "oscillation_metric",
    "write_field",
]

FLOAT_FMT = "%.17g"


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def characteristic(psi, lo, hi):
    """Characteristic function of [lo, hi]: exactly 1 inside, 0 outside."""
    psi = np.asarray(psi, dtype=float)
    return np.where((psi >= lo) & (psi <= hi), 1.0, 0.0)


@dataclass
class SourceTerm:
    """Named source with its activation window.

    ``fn`` maps physical points ``(m, d)`` and times ``(m,)`` to values;
    ``None`` represents the zero source.  ``activation_start`` is the time at
    which the source window opens (``inf`` when it never does).
    """

    name: str
    fn: object = None
    activation_start: float = math.inf
    params: dict = field(default_factory=dict)

    def __call__(self, x, t):
        if self.fn is None:
            return np.zeros(np.asarray(t).shape)
        return self.fn(x, t)


def _mfg_parts(x):
    s = np.sin(np.pi * x)
    c = np.pi * np.cos(np.pi * x)
    g1 = 1.0 - np.exp(-x)
    g2 = 1.0 - np.exp(x - 1.0)
    dg1 = np.exp(-x)
    dg2 = -np.exp(x - 1.0)
    X = s * g1 * g2
    dX = c * g1 * g2 + s * dg1 * g2 + s * g1 * dg2
    # second derivatives of the envelopes: g1'' = -e^{-x}, g2'' = -e^{x-1}
    d2X = (
        -np.pi**2 * s * g1 * g2
        + 2.0 * c * (dg1 * g2 + g1 * dg2)
        + s * (-dg1 * g2 + 2.0 * dg1 * dg2 + g1 * dg2)
    )
    return X, dX, d2X


def _mfg_time(t):
    s = np.sin(np.pi * t)
    g3 = 1.0 - np.exp(t - 1.0)
    B = s * g3
    dB = np.pi * np.cos(np.pi * t) * g3 - s * np.exp(t - 1.0)
    return B, dB


def manufactured_exact_1d(x, t):
    """Smooth reference potential for the 1D convergence study."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        x = x[:, 0]
    X, _, _ = _mfg_parts(x)
    B, _ = _mfg_time(np.asarray(t, dtype=float))
    return 10.0 * X * B


def _manufactured_source_1d(constants):
    C_m = constants["C_m"]
    D = constants["D"]
    c1 = constants["c1"]
    a = constants["a"]

    def fn(x, t):
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            x = x[:, 0]
        t = np.asarray(t, dtype=float)
        X, _, d2X = _mfg_parts(x)
        B, dB = _mfg_time(t)
        u = 10.0 * X * B
        du_dt = 10.0 * X * dB
        lap = 10.0 * d2X * B
        return C_m * du_dt - D * lap + c1 * u * (u - a) * (u - 1.0)

    return fn


# What a custom source expression may use: the variables, numeric constants,
# ``pi``, calls of ``chi`` and of the numpy functions (bare or as
# ``np.<name>``, positional arguments only), and arithmetic, comparison and
# element-wise boolean operators.  ``and``, ``or``, ``not`` and chained
# comparisons are left out: on the array variables they need the truth value
# of an array.
_EXPRESSION_VARIABLES = ("x", "y", "z", "t")
_NUMPY_NAMES = ("sin", "cos", "exp", "sqrt", "pi", "abs")
_EXPRESSION_FUNCTIONS = {k: getattr(np, k) for k in _NUMPY_NAMES if k != "pi"}
_EXPRESSION_FUNCTIONS["chi"] = characteristic
_OPERATORS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod,
    ast.Pow: operator.pow,
    ast.Lt: operator.lt,
    ast.LtE: operator.le,
    ast.Gt: operator.gt,
    ast.GtE: operator.ge,
    ast.Eq: operator.eq,
    ast.NotEq: operator.ne,
    ast.BitAnd: operator.and_,
    ast.BitOr: operator.or_,
    ast.UAdd: operator.pos,
    ast.USub: operator.neg,
    ast.Invert: operator.invert,
}


def _expression_name(node):
    """The name a bare ``name`` or an ``np.<numpy name>`` node refers to."""
    if isinstance(node, ast.Name) and node.id != "np":
        return node.id
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "np"
        and node.attr in _NUMPY_NAMES
    ):
        return node.attr
    return None


def _apply(fn, nodes):
    args = [_compile_expression(n) for n in nodes]
    return lambda env: fn(*[a(env) for a in args])


def _compile_expression(node):
    """Closure evaluating a whitelisted expression node on a variable dict.

    Any node outside the whitelist raises :class:`ConfigError`.  The closure
    applies the same operations in the same order as Python's evaluation.
    """
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return lambda env, value=node.value: value
    if isinstance(node, ast.Name) and node.id in _EXPRESSION_VARIABLES:
        return operator.itemgetter(node.id)
    if _expression_name(node) == "pi":
        return lambda env: np.pi
    if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
        return _apply(_OPERATORS[type(node.op)], [node.left, node.right])
    if isinstance(node, ast.UnaryOp) and type(node.op) in _OPERATORS:
        return _apply(_OPERATORS[type(node.op)], [node.operand])
    if (
        isinstance(node, ast.Compare)
        and len(node.ops) == 1
        and type(node.ops[0]) in _OPERATORS
    ):
        return _apply(_OPERATORS[type(node.ops[0])], [node.left] + node.comparators)
    if isinstance(node, ast.Call) and not node.keywords:
        fn = _EXPRESSION_FUNCTIONS.get(_expression_name(node.func))
        if fn is not None:
            return _apply(fn, node.args)
    raise ConfigError("custom expression may not contain %r" % ast.unparse(node))


def make_source(name, final_time, constants, params=None):
    """Build one of the shipped source terms.

    Names: ``none``, ``manufactured_1d``, ``gaussian_pulse_2d``,
    ``layer_pulse_3d``, ``custom`` (with an ``expression`` parameter over
    ``x, y, z, t``, ``chi`` and the numpy names ``sin, cos, exp, sqrt, pi,
    abs``, bare or as ``np.<name>``; other syntax raises :class:`ConfigError`).
    """
    params = dict(params or {})
    if name in ("none", "zero"):
        return SourceTerm("none")
    if name == "manufactured_1d":
        return SourceTerm(name, _manufactured_source_1d(constants), 0.0, params)
    if name == "gaussian_pulse_2d":
        L1 = params.setdefault("L1", 1.5)
        L2 = params.setdefault("L2", 0.125)
        amp = params.setdefault("amplitude", 0.25)
        sharp = params.setdefault("sharpness", 5e2)
        t_lo = params.setdefault("window_start", 90.0)
        t_hi = params.setdefault("window_end", 100.0)
        speed = (8.0 / 15.0) * L1 / final_time

        def fn(x, t):
            x = np.asarray(x, dtype=float)
            t = np.asarray(t, dtype=float)
            r2 = (x[:, 1] - L2 / 2.0) ** 2 + (x[:, 0] - speed * t) ** 2
            return amp * np.exp(-sharp * r2) * characteristic(t, t_lo, t_hi)

        return SourceTerm(name, fn, t_lo, params)
    if name == "layer_pulse_3d":
        amp = params.setdefault("amplitude", 0.1)
        z_lo = params.setdefault("layer_start", 0.9)
        z_hi = params.setdefault("layer_end", 1.0)
        t_lo = params.setdefault("window_start", 45.0)
        t_hi = params.setdefault("window_end", 60.0)

        # The layer window applies to the third parametric coordinate; on the
        # shipped unit cube this coincides with the physical one.
        def fn(x, t):
            x = np.asarray(x, dtype=float)
            t = np.asarray(t, dtype=float)
            return (
                amp
                * characteristic(x[:, 2], z_lo, z_hi)
                * characteristic(t, t_lo, t_hi)
            )

        return SourceTerm(name, fn, t_lo, params)
    if name == "custom":
        expression = params.get("expression")
        if not expression:
            raise ConfigError("custom source requires an 'expression' parameter")
        t_lo = float(params.get("window_start", math.inf))
        try:
            tree = ast.parse(str(expression), mode="eval")
        except SyntaxError as exc:
            raise ConfigError("cannot parse custom expression: %s" % exc) from exc
        evaluate = _compile_expression(tree.body)

        def fn(x, t):
            x = np.asarray(x, dtype=float)
            t = np.asarray(t, dtype=float)
            variables = {
                "x": x[:, 0],
                "y": x[:, 1] if x.shape[1] > 1 else np.zeros(x.shape[0]),
                "z": x[:, 2] if x.shape[1] > 2 else np.zeros(x.shape[0]),
                "t": t,
            }
            return np.broadcast_to(
                np.asarray(evaluate(variables), dtype=float), t.shape
            ).copy()

        return SourceTerm(name, fn, t_lo, params)
    raise ConfigError("unknown source %r" % name)


DEFAULT_CONSTANTS = {
    "C_m": 1.0,
    "D": 1e-4,
    "a": 0.13,
    "b": 0.013,
    "c1": 0.26,
    "c2": 0.1,
    "d_e": 1.0,
}


@dataclass
class ExperimentConfig:
    """Resolved experiment description (all defaults applied)."""

    kind: str = "solve"
    geometry: str = "unit_interval"
    degree: int = 3
    h_space: list = field(default_factory=lambda: [2.0**-5, 2.0**-3])
    h_time: float = 2.0**-5
    final_time: float = 1.0
    constants: dict = field(default_factory=lambda: dict(DEFAULT_CONSTANTS))
    source: str = "none"
    source_params: dict = field(default_factory=dict)
    stabilization: str = "spline_upwind"
    lowrank_tol: float = 0.1
    relaxation: float = 0.5
    tolerance: float = 1e-4
    max_iterations: int = 100
    # Inert: every solve uses preconditioned GMRES, and no solver reads this.
    # Kept only because perfbench/workloads.py still passes it.
    linear_solver: str = "iterative"
    linear_tol: float = 1e-8
    conv_degrees: list = field(default_factory=lambda: [2, 3])
    conv_h: list = field(default_factory=lambda: [2.0**-k for k in range(2, 7)])
    conv_tolerance: float = 1e-10
    output_dir: str = "out"
    output_times: list = field(default_factory=lambda: [0.25, 0.5, 0.75, 1.0])
    section: object = None
    grid_shape: object = None
    verbose: bool = False

    def resolved(self):
        """Flat key/value view for the report echo."""
        out = {}
        for key, val in sorted(self.__dict__.items()):
            if key == "constants":
                for ck, cv in sorted(val.items()):
                    out["constants.%s" % ck] = cv
            elif key == "source_params":
                for ck, cv in sorted(val.items()):
                    out["source.%s" % ck] = cv
            else:
                out[key] = val
        return out

    def solver_config(self, stabilization=None, tolerance=None):
        return FixedPointConfig(
            relaxation=self.relaxation,
            tolerance=self.tolerance if tolerance is None else tolerance,
            max_iterations=self.max_iterations,
            stabilization=self.stabilization if stabilization is None else stabilization,
            lowrank_tol=self.lowrank_tol,
            linear_tol=self.linear_tol,
            verbose=self.verbose,
        )


def _parse_size(token):
    """Mesh-size literal: plain float or dyadic '2^-k'."""
    token = token.strip()
    if "^" in token:
        base, expo = token.split("^")
        return float(base) ** float(expo)
    return float(token)


def _parse_list(value, conv=float):
    return [conv(v) for v in value.replace(",", " ").split()]


def parse_config(path):
    """Read an experiment configuration file (key = value with sections)."""
    if not os.path.exists(path):
        raise ConfigError("configuration file %r not found" % path)
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError("cannot parse %r: %s" % (path, exc)) from exc
    cfg = ExperimentConfig()
    try:
        if cp.has_section("experiment"):
            sec = cp["experiment"]
            cfg.kind = sec.get("kind", cfg.kind).strip()
            cfg.geometry = sec.get("geometry", cfg.geometry).strip()
            cfg.output_dir = sec.get("output_dir", cfg.output_dir).strip()
        if cp.has_section("problem"):
            sec = cp["problem"]
            for key in DEFAULT_CONSTANTS:
                if key in sec:
                    cfg.constants[key] = float(sec[key])
            cfg.final_time = float(sec.get("final_time", cfg.final_time))
            cfg.source = sec.get("source", cfg.source).strip()
        if cp.has_section("source"):
            for key, val in cp["source"].items():
                try:
                    cfg.source_params[key] = float(val)
                except ValueError:
                    cfg.source_params[key] = val
        if cp.has_section("discretization"):
            sec = cp["discretization"]
            cfg.degree = int(sec.get("degree", cfg.degree))
            if "h_space" in sec:
                cfg.h_space = [_parse_size(v) for v in sec["h_space"].split()]
            if "h_time" in sec:
                cfg.h_time = _parse_size(sec["h_time"])
        if cp.has_section("stabilization"):
            sec = cp["stabilization"]
            method = sec.get("method", cfg.stabilization).strip()
            if method in ("none", "off", "galerkin"):
                method = "off"
            cfg.stabilization = method
            cfg.lowrank_tol = float(sec.get("tolerance", cfg.lowrank_tol))
        if cp.has_section("solver"):
            sec = cp["solver"]
            cfg.relaxation = float(sec.get("relaxation", cfg.relaxation))
            cfg.tolerance = float(sec.get("tolerance", cfg.tolerance))
            cfg.max_iterations = int(sec.get("max_iterations", cfg.max_iterations))
            cfg.linear_tol = float(sec.get("linear_tol", cfg.linear_tol))
        if cp.has_section("convergence"):
            sec = cp["convergence"]
            if "degrees" in sec:
                cfg.conv_degrees = _parse_list(sec["degrees"], int)
            if "h" in sec:
                cfg.conv_h = [_parse_size(v) for v in sec["h"].split()]
            cfg.conv_tolerance = float(sec.get("tolerance", cfg.conv_tolerance))
        if cp.has_section("output"):
            sec = cp["output"]
            if "times" in sec:
                cfg.output_times = _parse_list(sec["times"])
            if "grid" in sec:
                cfg.grid_shape = tuple(_parse_list(sec["grid"], int))
            if "section" in sec:
                vals = _parse_list(sec["section"])
                cfg.section = vals
    except (ValueError, KeyError) as exc:
        raise ConfigError("invalid configuration value: %s" % exc) from exc
    if cfg.kind not in ("solve", "convergence", "compare"):
        raise ConfigError("unknown experiment kind %r" % cfg.kind)
    if cfg.stabilization not in ("off", "spline_upwind"):
        raise ConfigError("unknown stabilization method %r" % cfg.stabilization)
    return cfg


def build_geometry(name_or_path, final_time):
    if name_or_path in ("unit_interval", "unit_square", "unit_cube", "ellipse_annulus"):
        return builtin_geometry(name_or_path, final_time=final_time)
    if os.path.exists(name_or_path):
        return load_geometry(name_or_path, final_time=final_time)
    raise ConfigError("geometry %r is neither builtin nor a file" % name_or_path)


def _elements_from_size(h):
    n = 1.0 / h
    ni = int(round(n))
    if ni < 1 or abs(n - ni) > 1e-9:
        raise ConfigError("mesh size %g is not the reciprocal of an integer" % h)
    return ni


def build_space(geometry, degree, h_space, h_time):
    """Discretization spaces from per-direction mesh sizes."""
    d = geometry.dim
    if len(h_space) == 1 and d > 1:
        h_space = list(h_space) * d
    if len(h_space) != d:
        raise ConfigError(
            "expected %d spatial mesh sizes, got %d" % (d, len(h_space))
        )
    spatial = [SplineSpace.uniform(degree, _elements_from_size(h)) for h in h_space]
    time = SplineSpace.uniform(degree, _elements_from_size(h_time))
    return SpaceTimeSpace(spatial, time)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [
                c if isinstance(c, str) else FLOAT_FMT % c for c in row
            ]
            fh.write(",".join(cells) + "\n")


def _write_report(path, title, config, lines):
    with open(path, "w") as fh:
        fh.write(title + "\n")
        fh.write("=" * len(title) + "\n\n")
        for line in lines:
            fh.write(line + "\n")
        fh.write("\n[configuration]\n")
        for key, val in config.resolved().items():
            fh.write("%s = %r\n" % (key, val))


def run_convergence(config):
    """Refinement study on the 1D manufactured problem.

    For each degree, solves on the requested uniform meshes (``h_1 = h_t``),
    records the relative L2 error and the observed order between consecutive
    levels, and writes ``convergence.csv``.  The recovery variable is frozen
    at zero and no relaxation is applied; the fixed-point tolerance is driven
    far below the discretization error so the study measures the latter.
    """
    os.makedirs(config.output_dir, exist_ok=True)
    rows = []
    slopes = {}
    for p in config.conv_degrees:
        errors = []
        for h in config.conv_h:
            geo = build_geometry("unit_interval", final_time=config.final_time)
            st = build_space(geo, p, [h], h)
            constants = dict(config.constants)
            source = make_source("manufactured_1d", config.final_time, constants)
            problem = MonodomainProblem(
                geometry=geo,
                space=st,
                source=source,
                C_m=constants["C_m"],
                D=constants["D"],
                a=constants["a"],
                b=constants["b"],
                c1=constants["c1"],
                c2=constants["c2"],
                d_e=constants["d_e"],
            )
            fp = FixedPointConfig(
                relaxation=1.0,
                tolerance=config.conv_tolerance,
                max_iterations=max(config.max_iterations, 200),
                stabilization=config.stabilization,
                lowrank_tol=config.lowrank_tol,
                indicator_update="frozen",
                linear_tol=config.linear_tol,
                evolve_recovery=False,
                verbose=config.verbose,
            )
            result = fixed_point_solve(problem, fp)
            err = l2_error(st, geo, result.u, manufactured_exact_1d)
            order = (
                math.log2(errors[-1] / err) if errors and err > 0 else float("nan")
            )
            errors.append(err)
            rows.append((str(p), h, err, order))
            if config.verbose:
                print("p=%d h=%g error=%.3e order=%.2f" % (p, h, err, order))
        logs = np.log(np.array(errors))
        slopes[p] = float(
            np.polyfit(np.log(np.array(config.conv_h)), logs, 1)[0]
        )
    _write_csv(
        os.path.join(config.output_dir, "convergence.csv"),
        ["degree", "h", "rel_l2_error", "observed_order"],
        rows,
    )
    _write_report(
        os.path.join(config.output_dir, "convergence_report.txt"),
        "Convergence study",
        config,
        ["degree %d: regression slope %.3f" % (p, s) for p, s in sorted(slopes.items())],
    )
    return rows, slopes


def oscillation_metric(space_time, geo, coeffs, t_open, margin=0.0):
    """Largest potential magnitude before the source window opens.

    Samples the Gauss grid of the discretization; times at or past
    ``t_open - margin`` are excluded.  The margin is used to discount the
    smooth onset ramp: temporal splines of interior smoothness cannot switch
    on sharply, so any discretization bleeds backward by a few elements at
    the activation time.  With no active times the metric is 0.
    """
    st = space_time
    trule = QuadratureRule.for_space(st.time)
    tphys = trule.points * geo.final_time
    mask = tphys < t_open - margin
    if not np.any(mask):
        return 0.0
    srules = [QuadratureRule.for_space(s) for s in st.spatial]
    tc = st.time_collocation(trule.points[mask], 0)
    scs = [s.collocation_matrix(r.points, 0) for s, r in zip(st.spatial, srules)]
    vals = field_on_grid(st, coeffs, tc, scs)
    return float(np.max(np.abs(vals), initial=0.0))


def support_bleed_margin(space_time, final_time):
    """Backward reach of the temporal basis: one support width in time."""
    return (space_time.time.degree + 1) * space_time.time.mesh_size * final_time


def _solve_problem(config, stabilization, propagate=False):
    geo = build_geometry(config.geometry, final_time=config.final_time)
    st = build_space(geo, config.degree, config.h_space, config.h_time)
    constants = dict(config.constants)
    source = make_source(
        config.source, config.final_time, constants, config.source_params
    )
    problem = MonodomainProblem(
        geometry=geo,
        space=st,
        source=source if source.fn is not None else None,
        C_m=constants["C_m"],
        D=constants["D"],
        a=constants["a"],
        b=constants["b"],
        c1=constants["c1"],
        c2=constants["c2"],
        d_e=constants["d_e"],
    )
    fp = config.solver_config(stabilization=stabilization)
    try:
        result = fixed_point_solve(problem, fp)
    except FixedPointDiverged as exc:
        if propagate:
            raise
        result = exc.result
    return problem, source, result


def run_compare(config):
    """Run plain Galerkin and the stabilized method on one discretization.

    Reports fixed-point iterations, average linear-solver iterations, the
    pre-activation oscillation metric and wall time per method.  A method
    that fails to converge is reported with its last iterate rather than
    aborting the other.
    """
    os.makedirs(config.output_dir, exist_ok=True)
    report = {}
    for label, stab in (("galerkin", "off"), ("spline_upwind", "spline_upwind")):
        problem, source, result = _solve_problem(config, stab)
        # cap the onset margin so very coarse meshes keep a nonempty window
        margin = min(
            support_bleed_margin(problem.space, config.final_time),
            0.5 * source.activation_start,
        )
        metric = oscillation_metric(
            problem.space,
            problem.geometry,
            result.u,
            source.activation_start,
            margin=margin,
        )
        report[label] = {
            "fixed_point_iterations": result.iterations,
            "converged": result.converged,
            "avg_gmres": result.avg_gmres,
            "oscillation": metric,
            "wall_time": result.wall_time,
            "result": result,
        }
        if config.verbose:
            print(
                "%s: %d sweeps, oscillation %.3e"
                % (label, result.iterations, metric)
            )
    rows = []
    for label in ("galerkin", "spline_upwind"):
        r = report[label]
        rows.append(
            (
                label,
                str(r["fixed_point_iterations"]),
                "1" if r["converged"] else "0",
                r["avg_gmres"],
                r["oscillation"],
            )
        )
    _write_csv(
        os.path.join(config.output_dir, "compare.csv"),
        [
            "method",
            "fixed_point_iterations",
            "converged",
            "avg_gmres_iterations",
            "oscillation_metric",
        ],
        rows,
    )
    lines = []
    for label in ("galerkin", "spline_upwind"):
        r = report[label]
        lines.append(
            "%-14s iterations=%-4d oscillation=%.6e wall=%.1fs%s"
            % (
                label,
                r["fixed_point_iterations"],
                r["oscillation"],
                r["wall_time"],
                "" if r["converged"] else "  (not converged)",
            )
        )
    _write_report(
        os.path.join(config.output_dir, "compare_report.txt"),
        "Galerkin vs stabilized comparison",
        config,
        lines,
    )
    return report


def run_single(config):
    """Solve once and write field slices, snapshots and the indicator dump."""
    os.makedirs(config.output_dir, exist_ok=True)
    t0 = _time.perf_counter()
    problem, source, result = _solve_problem(
        config, config.stabilization, propagate=True
    )
    times = [t * config.final_time for t in config.output_times]
    write_field(
        problem.space,
        problem.geometry,
        result.u,
        w=result.w,
        indicator=result.indicator,
        times=times,
        section=config.section,
        grid_shape=config.grid_shape,
        output_dir=config.output_dir,
        basename="field",
    )
    if result.indicator is not None:
        write_theta_csv(
            result.indicator, os.path.join(config.output_dir, "theta.csv")
        )
    _write_report(
        os.path.join(config.output_dir, "solve_report.txt"),
        "Single solve",
        config,
        [
            "iterations = %d" % result.iterations,
            "converged = %s" % result.converged,
            "final_increment = %.6e" % (result.increments[-1] if result.increments else 0.0),
            "wall_time = %.2fs" % (_time.perf_counter() - t0),
        ],
    )
    return result


def _indicator_interpolator(indicator):
    d = len(indicator.spatial_grevilles)
    coords = [indicator.time_greville] + [
        indicator.spatial_grevilles[l] for l in reversed(range(d))
    ]
    values = indicator.values.reshape(
        (indicator.time_greville.size,) + indicator.spatial_shape
    )
    interp = RegularGridInterpolator(
        tuple(coords), values, method="linear", bounds_error=False, fill_value=None
    )
    lo = np.array([c[0] for c in coords])
    hi = np.array([c[-1] for c in coords])

    def at(points_tau_first):
        pts = np.clip(points_tau_first, lo, hi)
        return interp(pts)

    return at


def write_field(
    space_time,
    geo,
    u,
    w=None,
    indicator=None,
    times=(),
    section=None,
    grid_shape=None,
    output_dir=".",
    basename="field",
):
    """Write solution samples as CSV plus one VTK snapshot per time.

    ``section``, when given, is ``(start..., end..., samples)`` describing a
    parametric line sampled at every output time; otherwise a uniform
    parametric grid of ``grid_shape`` is used.  CSV columns are the physical
    coordinates, time, the potential, the recovery variable and (when
    available) the stabilizer indicator.
    """
    os.makedirs(output_dir, exist_ok=True)
    d = space_time.num_spatial_dims
    T = geo.final_time
    theta_at = _indicator_interpolator(indicator) if indicator is not None else None

    if section is not None:
        vals = list(section)
        if len(vals) != 2 * d + 1:
            raise ValueError("section must hold start, end and sample count")
        start = np.array(vals[:d])
        end = np.array(vals[d : 2 * d])
        m = int(vals[2 * d])
        line = start[None, :] + np.linspace(0.0, 1.0, m)[:, None] * (end - start)[None, :]
        rows = []
        xs = geo.evaluate(line)
        for t in times:
            tau = min(max(t / T, 0.0), 1.0)
            pts = np.column_stack([line, np.full(m, tau)])
            uv = evaluate_field(space_time, geo, u, pts)
            wv = evaluate_field(space_time, geo, w, pts) if w is not None else None
            th = (
                theta_at(np.column_stack([np.full(m, tau), line[:, ::-1]]))
                if theta_at is not None
                else None
            )
            for i in range(m):
                row = list(xs[i]) + [t, uv[i]]
                if wv is not None:
                    row.append(wv[i])
                if th is not None:
                    row.append(th[i])
                rows.append(row)
        header = ["x%d" % (l + 1) for l in range(d)] + ["t", "u"]
        if w is not None:
            header.append("w")
        if theta_at is not None:
            header.append("theta")
        _write_csv(os.path.join(output_dir, basename + "_section.csv"), header, rows)

    shape = grid_shape if grid_shape is not None else (33,) * d
    if len(shape) != d:
        raise ValueError("grid shape must have %d entries" % d)
    axes = [np.linspace(0.0, 1.0, n) for n in shape]
    collocs = [s.collocation_matrix(ax, 0) for s, ax in zip(space_time.spatial, axes)]
    xgrid = geo.grid_data(axes, order=0)["x"]
    mesh = np.meshgrid(*[axes[l] for l in reversed(range(d))], indexing="ij")
    eta = np.stack([mesh[d - 1 - l].reshape(-1) for l in range(d)], axis=-1)
    rows = []
    for t in times:
        tau = min(max(t / T, 0.0), 1.0)
        tc = space_time.time_collocation([tau], 0)
        ugrid = field_on_grid(space_time, u, tc, collocs)[0]
        wgrid = (
            field_on_grid(space_time, w, tc, collocs)[0] if w is not None else None
        )
        th = (
            theta_at(np.column_stack([np.full(eta.shape[0], tau), eta[:, ::-1]]))
            if theta_at is not None
            else None
        )
        coords = xgrid.reshape(-1, d)
        uflat = ugrid.reshape(-1)
        for i in range(coords.shape[0]):
            row = list(coords[i]) + [t, uflat[i]]
            if wgrid is not None:
                row.append(wgrid.reshape(-1)[i])
            if th is not None:
                row.append(th[i])
            rows.append(row)
        _write_vtk(
            os.path.join(
                output_dir, "%s_t%s.vtk" % (basename, ("%g" % t).replace(".", "p"))
            ),
            shape,
            {"u": ugrid} if wgrid is None else {"u": ugrid, "w": wgrid},
        )
    header = ["x%d" % (l + 1) for l in range(d)] + ["t", "u"]
    if w is not None:
        header.append("w")
    if theta_at is not None:
        header.append("theta")
    _write_csv(os.path.join(output_dir, basename + "_grid.csv"), header, rows)


def _write_vtk(path, shape, fields):
    """Legacy ASCII STRUCTURED_POINTS snapshot on the parametric grid."""
    d = len(shape)
    dims = list(shape) + [1] * (3 - d)
    spacing = [1.0 / (n - 1) if n > 1 else 1.0 for n in shape] + [1.0] * (3 - d)
    npts = int(np.prod(shape))
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("monoiga field snapshot\n")
        fh.write("ASCII\n")
        fh.write("DATASET STRUCTURED_POINTS\n")
        fh.write("DIMENSIONS %d %d %d\n" % tuple(dims))
        fh.write("ORIGIN 0 0 0\n")
        fh.write("SPACING %.17g %.17g %.17g\n" % tuple(spacing))
        fh.write("POINT_DATA %d\n" % npts)
        for name, grid in fields.items():
            fh.write("SCALARS %s double\n" % name)
            fh.write("LOOKUP_TABLE default\n")
            for v in np.asarray(grid).reshape(-1):
                fh.write("%.17g\n" % v)
