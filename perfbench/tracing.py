"""Spans around the calls into each monoiga layer, for the traced run.

A span is one wrapped call: its name, start, end and the span that was open
when it began.  Spans stay in memory; per-layer metrics are computed from
them after the run.  Each patch replaces the name the caller actually looks
up (``solver`` imports ``reaction_mass``, ``gmres`` and the others by name,
``solve_w_system`` reaches ``pcg`` through ``monoiga.linalg``), and
:meth:`Tracer.restore` puts every original back, so untraced solves run the
unmodified library.
"""

import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("solver.sweeps", "count"),
    ("solver.sweep_s", "s"),
    ("solver.self_s", "s"),
    ("assembly.reaction_mass_s", "s"),
    ("assembly.reaction_mass_calls", "count"),
    ("assembly.reaction_mass_nnz", "count"),
    ("assembly.reaction_mass_bytes", "B"),
    ("assembly.matvec_s", "s"),
    ("assembly.matvec_calls", "count"),
    ("assembly.setup_s", "s"),
    ("linalg.gmres_s", "s"),
    ("linalg.gmres_calls", "count"),
    ("linalg.gmres_iters", "count"),
    ("linalg.gmres_orthog_s", "s"),
    ("linalg.precond_apply_s", "s"),
    ("linalg.precond_calls", "count"),
    ("linalg.precond_build_s", "s"),
    ("linalg.recovery_s", "s"),
    ("linalg.pcg_calls", "count"),
    ("linalg.pcg_iters", "count"),
    ("stabilization.theta_s", "s"),
    ("stabilization.theta_calls", "count"),
    ("stabilization.lowrank_s", "s"),
    ("stabilization.rank_mean", "1"),
    ("stabilization.assemble_s", "s"),
    ("stabilization.assemble_calls", "count"),
    ("stabilization.tau_s", "s"),
    ("experiments.geometry_s", "s"),
    ("experiments.check_s", "s"),
    ("trace.overhead_s", "s"),
]

# Counts that must repeat exactly between solves of the same inputs.
EXACT_COUNTS = (
    "solver.sweeps",
    "linalg.gmres_iters",
    "linalg.pcg_iters",
    "assembly.reaction_mass_nnz",
)


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span recorder with reversible patches."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def open(self, name):
        span = Span(name, time.perf_counter(), self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, note=None):
        """``fn`` recording one span per call; ``note(span, result)`` adds attrs."""

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if note is not None:
                note(span, out)
            return out

        return traced

    def patch(self, owner, attr, name, note=None):
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(original.__func__, name, note))
        else:
            wrapped = self.wrap(original, name, note)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _note_sweeps(span, result):
    span.attrs["sweeps"] = result.iterations


def _note_iterations(span, result):
    span.attrs["iterations"] = result[1]


def _note_matrix(span, mat):
    span.attrs["nnz"] = mat.nnz
    span.attrs["bytes"] = sum(
        getattr(mat, a).nbytes
        for a in ("data", "indices", "indptr", "row", "col")
        if hasattr(mat, a)
    )


def _note_rank(span, lowrank):
    span.attrs["rank"] = lowrank.rank


def instrument(tracer):
    """Patch the monoiga names the solve path looks up; undo with ``restore``."""
    from monoiga import assembly, experiments, linalg, solver

    for owner in (solver, experiments):
        tracer.patch(owner, "fixed_point_solve", "solver.fixed_point_solve", _note_sweeps)
    tracer.patch(solver, "reaction_mass", "assembly.reaction_mass", _note_matrix)
    for attr in (
        "SpatialQuadratureData",
        "TimeQuadratureData",
        "time_matrices",
        "spatial_operators",
        "rhs_vectors",
    ):
        tracer.patch(solver, attr, "assembly.setup")
    tracer.patch(assembly.KroneckerOperator, "matvec", "assembly.matvec")
    tracer.patch(solver, "gmres", "linalg.gmres", _note_iterations)
    tracer.patch(linalg.FastDiagPreconditioner, "apply", "linalg.precond_apply")
    tracer.patch(linalg.FastDiagPreconditioner, "build", "linalg.precond_build")
    tracer.patch(solver, "solve_w_system", "linalg.recovery")
    tracer.patch(linalg, "pcg", "linalg.pcg", _note_iterations)
    tracer.patch(solver, "compute_theta", "stabilization.theta")
    tracer.patch(solver, "lowrank_factorize", "stabilization.lowrank", _note_rank)
    tracer.patch(solver, "assemble_stabilization", "stabilization.assemble")
    tracer.patch(solver, "compute_tau", "stabilization.tau")
    tracer.patch(experiments, "build_geometry", "experiments.geometry")


def subtree(spans, root):
    """Indices of ``root`` and every span opened inside it."""
    inside = {root}
    end = spans[root].end
    for i in range(root + 1, len(spans)):
        if spans[i].start >= end:
            break
        if spans[i].parent in inside:
            inside.add(i)
    return sorted(inside)


def solve_metrics(spans, root):
    """Per-layer metrics of the solve recorded under span ``root``."""
    idx = subtree(spans, root)
    child_time = defaultdict(float)
    by_name = defaultdict(list)
    for i in idx:
        by_name[spans[i].name].append(spans[i])
        if i != root:
            child_time[spans[i].parent] += spans[i].duration
    own_time = {id(spans[i]): spans[i].duration - child_time[i] for i in idx}

    def total(name):
        return sum(s.duration for s in by_name[name])

    def own(name):
        return sum(own_time[id(s)] for s in by_name[name])

    def calls(name):
        return len(by_name[name])

    def attrs(name, key):
        return [s.attrs[key] for s in by_name[name] if key in s.attrs]

    fps = "solver.fixed_point_solve"
    top = [s for s in by_name[fps] if spans[s.parent].name != fps]
    sweeps = sum(s.attrs.get("sweeps", 0) for s in top)
    ranks = attrs("stabilization.lowrank", "rank")
    return {
        "solver.sweeps": sweeps,
        "solver.sweep_s": sum(s.duration for s in top) / max(sweeps, 1),
        "solver.self_s": own(fps),
        "assembly.reaction_mass_s": total("assembly.reaction_mass"),
        "assembly.reaction_mass_calls": calls("assembly.reaction_mass"),
        "assembly.reaction_mass_nnz": max(attrs("assembly.reaction_mass", "nnz"), default=0),
        "assembly.reaction_mass_bytes": max(attrs("assembly.reaction_mass", "bytes"), default=0),
        "assembly.matvec_s": total("assembly.matvec"),
        "assembly.matvec_calls": calls("assembly.matvec"),
        "assembly.setup_s": total("assembly.setup"),
        "linalg.gmres_s": total("linalg.gmres"),
        "linalg.gmres_calls": calls("linalg.gmres"),
        "linalg.gmres_iters": sum(attrs("linalg.gmres", "iterations")),
        "linalg.gmres_orthog_s": own("linalg.gmres"),
        "linalg.precond_apply_s": total("linalg.precond_apply"),
        "linalg.precond_calls": calls("linalg.precond_apply"),
        "linalg.precond_build_s": total("linalg.precond_build"),
        "linalg.recovery_s": total("linalg.recovery"),
        "linalg.pcg_calls": calls("linalg.pcg"),
        "linalg.pcg_iters": sum(attrs("linalg.pcg", "iterations")),
        "stabilization.theta_s": total("stabilization.theta"),
        "stabilization.theta_calls": calls("stabilization.theta"),
        "stabilization.lowrank_s": total("stabilization.lowrank"),
        "stabilization.rank_mean": statistics.fmean(ranks) if ranks else 0.0,
        "stabilization.assemble_s": total("stabilization.assemble"),
        "stabilization.assemble_calls": calls("stabilization.assemble"),
        "stabilization.tau_s": total("stabilization.tau"),
    }


def span_total(spans, root, name):
    """Seconds spent in spans called ``name`` under ``root``."""
    return sum(spans[i].duration for i in subtree(spans, root) if spans[i].name == name)
