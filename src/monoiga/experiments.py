"""Configuration-driven experiment runners and field output writers."""

import ast
import logging
import math
import operator
import os
import dataclasses
import time as _time
from dataclasses import dataclass, field

import numpy as np

from .assembly import QuadratureRule, evaluate_field, field_on_grid
from .bspline import SplineSpace, SpaceTimeSpace
from .geometry import GeometryError, builtin_geometry, load_geometry
from .solver import (
    FixedPointConfig,
    FixedPointDiverged,
    MonodomainProblem,
    fixed_point_solve,
    l2_error,
)
from .stabilization import _hat_matrix, multilinear_grid

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

log = logging.getLogger(__name__)

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
    f.name: f.default
    for f in dataclasses.fields(MonodomainProblem)
    if f.name not in ("geometry", "space", "source")
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
    lowrank_tol: float = FixedPointConfig.lowrank_tol
    relaxation: float = FixedPointConfig.relaxation
    tolerance: float = FixedPointConfig.tolerance
    max_iterations: int = FixedPointConfig.max_iterations
    # Inert: every solve uses preconditioned GMRES, and no solver reads this.
    # Kept only because perfbench/workloads.py still passes it.
    linear_solver: str = "iterative"
    linear_tol: float = FixedPointConfig.linear_tol
    conv_degrees: list = field(default_factory=lambda: [2, 3])
    conv_h: list = field(default_factory=lambda: [2.0**-k for k in range(2, 7)])
    conv_tolerance: float = 1e-10
    output_dir: str = "out"
    output_times: list = field(default_factory=lambda: [0.25, 0.5, 0.75, 1.0])
    section: object = None
    grid_shape: object = None

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


def _parse_sizes(value):
    return [_parse_size(v) for v in value.split()]


def _parse_method(value):
    method = value.strip()
    return "off" if method in ("none", "off", "galerkin") else method


# (section, key) -> (ExperimentConfig field, parser) of every fixed key.  The
# [problem] constants and the free-form [source] section are read apart.
CONFIG_KEYS = {
    ("experiment", "kind"): ("kind", str.strip),
    ("experiment", "geometry"): ("geometry", str.strip),
    ("experiment", "output_dir"): ("output_dir", str.strip),
    ("problem", "final_time"): ("final_time", float),
    ("problem", "source"): ("source", str.strip),
    ("discretization", "degree"): ("degree", int),
    ("discretization", "h_space"): ("h_space", _parse_sizes),
    ("discretization", "h_time"): ("h_time", _parse_size),
    ("stabilization", "method"): ("stabilization", _parse_method),
    ("stabilization", "tolerance"): ("lowrank_tol", float),
    ("solver", "relaxation"): ("relaxation", float),
    ("solver", "tolerance"): ("tolerance", float),
    ("solver", "max_iterations"): ("max_iterations", int),
    ("solver", "linear_tol"): ("linear_tol", float),
    ("convergence", "degrees"): ("conv_degrees", lambda v: _parse_list(v, int)),
    ("convergence", "h"): ("conv_h", _parse_sizes),
    ("convergence", "tolerance"): ("conv_tolerance", float),
    ("output", "times"): ("output_times", _parse_list),
    ("output", "grid"): ("grid_shape", lambda v: tuple(_parse_list(v, int))),
    ("output", "section"): ("section", _parse_list),
}
# configparser lowercases keys: ``C_m`` arrives as ``c_m``.
CONSTANT_KEYS = {name.lower(): name for name in DEFAULT_CONSTANTS}
SECTIONS = {section for section, _ in CONFIG_KEYS} | {"source"}


def parse_config(path):
    """Read an experiment configuration file (key = value with sections).

    A section or key the format does not define, and a non-empty
    ``[DEFAULT]`` section, raise :class:`ConfigError` naming it.
    """
    # Imported here: a solve through the API reads no configuration file.
    import configparser

    if not os.path.exists(path):
        raise ConfigError("configuration file %r not found" % path)
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError("cannot parse %r: %s" % (path, exc)) from exc
    if cp.defaults():
        raise ConfigError("unknown configuration section [DEFAULT]")
    cfg = ExperimentConfig()
    try:
        for section in cp.sections():
            if section not in SECTIONS:
                raise ConfigError("unknown configuration section [%s]" % section)
            for key, value in cp[section].items():
                if section == "source":
                    try:
                        cfg.source_params[key] = float(value)
                    except ValueError:
                        cfg.source_params[key] = value
                elif section == "problem" and key in CONSTANT_KEYS:
                    cfg.constants[CONSTANT_KEYS[key]] = float(value)
                elif (section, key) in CONFIG_KEYS:
                    name, parse = CONFIG_KEYS[section, key]
                    setattr(cfg, name, parse(value))
                else:
                    raise ConfigError(
                        "unknown configuration key %s.%s" % (section, key)
                    )
        cfg.solver_config()
        cfg.solver_config(tolerance=cfg.conv_tolerance)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("invalid configuration value: %s" % exc) from exc
    if cfg.kind not in ("solve", "convergence", "compare"):
        raise ConfigError("unknown experiment kind %r" % cfg.kind)
    return cfg


def build_geometry(name_or_path, final_time):
    if name_or_path in ("unit_interval", "unit_square", "unit_cube", "ellipse_annulus"):
        return builtin_geometry(name_or_path, final_time=final_time)
    if os.path.exists(name_or_path):
        return load_geometry(name_or_path, final_time=final_time)
    raise ConfigError("geometry %r is neither builtin nor a file" % name_or_path)


def _elements_from_size(h):
    if not h > 0.0:
        raise ConfigError("mesh size %g is not positive" % h)
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


def _build_problem(config):
    """The problem and source of a configuration, checked before any solve.

    Values the constructors reject, a ``section`` or ``grid`` of the wrong
    length for the geometry, a ``section`` endpoint outside ``[0, 1]`` or
    sample count that is not a whole number of at least 1, a ``grid``
    entry below 2 and an output time outside ``[0, 1]`` raise
    :class:`ConfigError`.
    """
    try:
        geo = build_geometry(config.geometry, final_time=config.final_time)
        st = build_space(geo, config.degree, config.h_space, config.h_time)
        source = make_source(
            config.source, config.final_time, config.constants, config.source_params
        )
        problem = MonodomainProblem(
            geometry=geo,
            space=st,
            source=source if source.fn is not None else None,
            **config.constants,
        )
    except ConfigError:
        raise
    except (ValueError, GeometryError) as exc:
        raise ConfigError("invalid configuration value: %s" % exc) from exc
    d = geo.dim
    if config.section is not None:
        if len(config.section) != 2 * d + 1:
            raise ConfigError(
                "section must hold %d start and %d end coordinates and a sample count"
                % (d, d)
            )
        *ends, samples = config.section
        if not all(0.0 <= x <= 1.0 for x in ends):
            raise ConfigError("section endpoints must lie in [0, 1]")
        if not (samples >= 1 and float(samples).is_integer()):
            raise ConfigError("section sample count must be a whole number of at least 1")
    if config.grid_shape is not None:
        if min(config.grid_shape, default=2) < 2:
            raise ConfigError("grid entries must be at least 2")
        if len(config.grid_shape) != d:
            raise ConfigError("grid must have %d entries" % d)
    if not all(0.0 <= t <= 1.0 for t in config.output_times):
        raise ConfigError("output times must lie in [0, 1]")
    return problem, source


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
    levels, and writes ``convergence.csv``.  The problem has ``b = 0``, so
    the recovery variable stays zero as the manufactured source assumes, and
    the Newton tolerance is driven far below the discretization error so the
    study measures the latter.  Every level is built before the first solve.
    """
    study = dataclasses.replace(
        config.solver_config(tolerance=config.conv_tolerance),
        indicator_update="frozen",
        max_iterations=max(config.max_iterations, 200),
    )
    # The study writes no fields, so the output shapes are dropped.
    problems = {
        (p, h): _build_problem(
            dataclasses.replace(
                config,
                geometry="unit_interval",
                degree=p,
                h_space=[h],
                h_time=h,
                source="manufactured_1d",
                source_params={},
                constants=dict(config.constants, b=0.0),
                section=None,
                grid_shape=None,
            )
        )[0]
        for p in config.conv_degrees
        for h in config.conv_h
    }
    os.makedirs(config.output_dir, exist_ok=True)
    rows = []
    slopes = {}
    for p in config.conv_degrees:
        errors = []
        for h in config.conv_h:
            problem = problems[p, h]
            result = fixed_point_solve(problem, study)
            err = l2_error(
                problem.space, problem.geometry, result.u, manufactured_exact_1d
            )
            order = (
                math.log2(errors[-1] / err) if errors and err > 0 else float("nan")
            )
            errors.append(err)
            rows.append((str(p), h, err, order))
            log.info("p=%d h=%g error=%.3e order=%.2f", p, h, err, order)
        slopes[p] = float(np.polyfit(np.log(config.conv_h), np.log(errors), 1)[0])
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


def run_compare(config):
    """Run plain Galerkin and the stabilized method on one discretization.

    Reports fixed-point iterations, average linear-solver iterations, the
    pre-activation oscillation metric and wall time per method.  A method
    that fails to converge is reported with its last iterate rather than
    aborting the other.
    """
    problem, source = _build_problem(config)
    os.makedirs(config.output_dir, exist_ok=True)
    # cap the onset margin so very coarse meshes keep a nonempty window
    margin = min(
        support_bleed_margin(problem.space, config.final_time),
        0.5 * source.activation_start,
    )
    report = {}
    rows = []
    lines = []
    for label, stab in (("galerkin", "off"), ("spline_upwind", "spline_upwind")):
        try:
            fp = config.solver_config(stabilization=stab)
            result = fixed_point_solve(problem, fp)
        except FixedPointDiverged as exc:
            result = exc.result
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
        rows.append(
            (
                label,
                str(result.iterations),
                "1" if result.converged else "0",
                result.avg_gmres,
                metric,
            )
        )
        lines.append(
            "%-14s iterations=%-4d oscillation=%.6e wall=%.1fs%s"
            % (
                label,
                result.iterations,
                metric,
                result.wall_time,
                "" if result.converged else "  (not converged)",
            )
        )
        log.info("%s: %d steps, oscillation %.3e", label, result.iterations, metric)
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
    _write_report(
        os.path.join(config.output_dir, "compare_report.txt"),
        "Galerkin vs stabilized comparison",
        config,
        lines,
    )
    return report


def run_single(config):
    """Solve once and write field slices, snapshots and the indicator dump."""
    t0 = _time.perf_counter()
    problem, _ = _build_problem(config)
    os.makedirs(config.output_dir, exist_ok=True)
    result = fixed_point_solve(problem, config.solver_config())
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
    indicator = result.indicator
    if indicator is not None:
        # one row per temporal Greville abscissa
        _write_csv(
            os.path.join(config.output_dir, "theta.csv"),
            ["t_greville"] + ["s%d" % j for j in range(indicator.values.shape[1])],
            np.column_stack([indicator.time_greville, indicator.values]),
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
    parametric line sampled at every output time; a uniform parametric grid
    of ``grid_shape`` is sampled always.  CSV columns are the physical
    coordinates, time, the potential, the recovery variable and (when
    available) the stabilizer indicator; a time outside ``[0, T]`` is an error.
    """
    if not all(0.0 <= t <= geo.final_time for t in times):
        raise ValueError("output times must lie in [0, %g]" % geo.final_time)
    os.makedirs(output_dir, exist_ok=True)
    d = space_time.num_spatial_dims
    coeffs = {"u": u} if w is None else {"u": u, "w": w}
    header = ["x%d" % (l + 1) for l in range(d)] + ["t"] + list(coeffs)
    if indicator is not None:
        header.append("theta")
    rows = {"grid": []}
    if section is not None:
        start = np.array(section[:d])
        end = np.array(section[d : 2 * d])
        m = int(section[2 * d])
        line = start[None, :] + np.linspace(0.0, 1.0, m)[:, None] * (end - start)[None, :]
        xline = geo.evaluate(line)
        rows["section"] = []
    shape = grid_shape if grid_shape is not None else (33,) * d
    axes = [np.linspace(0.0, 1.0, n) for n in shape]
    collocs = [s.collocation_matrix(ax, 0) for s, ax in zip(space_time.spatial, axes)]
    xgrid = geo.tabulate(axes).reshape(-1, d)
    for t in times:
        tau = t / geo.final_time
        tc = space_time.time_collocation([tau], 0)
        grids = {
            k: field_on_grid(space_time, c, tc, collocs)[0] for k, c in coeffs.items()
        }
        block = {"grid": [xgrid, np.full(len(xgrid), t)]}
        block["grid"] += [g.reshape(-1) for g in grids.values()]
        if section is not None:
            pts = np.column_stack([line, np.full(m, tau)])
            block["section"] = [xline, np.full(m, t)]
            block["section"] += [
                evaluate_field(space_time, c, pts) for c in coeffs.values()
            ]
        if indicator is not None:
            # Multilinear interpolation: the hat row in time, then per direction.
            hat_t = _hat_matrix(indicator.time_greville, [tau])
            prof = (hat_t @ indicator.values).reshape(indicator.spatial_shape)
            block["grid"].append(
                multilinear_grid(indicator.spatial_grevilles, prof, axes).reshape(-1)
            )
            if section is not None:
                # On the line, contract the hat rows point by point.
                th = np.broadcast_to(prof, (m,) + prof.shape)
                for l in reversed(range(d)):
                    hat = _hat_matrix(indicator.spatial_grevilles[l], line[:, l])
                    th = np.einsum("qi,qi...->q...", hat, th)
                block["section"].append(th)
        for name, cols in block.items():
            rows[name].extend(np.column_stack(cols))
        _write_vtk(
            os.path.join(
                output_dir, "%s_t%s.vtk" % (basename, ("%g" % t).replace(".", "p"))
            ),
            shape,
            grids,
        )
    for name, table in rows.items():
        path = os.path.join(output_dir, "%s_%s.csv" % (basename, name))
        _write_csv(path, header, table)


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
