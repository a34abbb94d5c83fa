"""Benchmark of the monoiga solver: one workload per process, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload annulus2d_upwind --seed 1 --seconds 50 --trace 0

The process imports the library from ``src/``, sets the workload up several
times, and then solves it in a closed loop (one solve at a time, BLAS pinned
to one thread) for ``--seconds``.  Every solve is checked for correctness
and must repeat the first solve's results exactly.

``--trace 0`` reports the end-to-end metrics: ``solve_s`` (median seconds
per solve), ``setup_s`` (median import time of fresh interpreters plus the
median set-up), ``peak_rss_mb`` and ``oscillation`` (of the stabilized
solution).  ``--trace 1`` spends half the time on untraced
solves and half on solves with a span around every call into a library
layer, and reports the per-layer metrics (see ``tracing.py``) plus the
tracing overhead.  Human-readable lines with quartiles, sample counts and
the machine come first; the last line is the JSON result.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
# Run in a fresh interpreter: the seconds it takes to import the library.
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
    "import workloads; print(time.perf_counter() - t)"
)


def quartiles(values):
    """``(median, q1, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def describe(name, values, unit):
    med, q1, q3 = quartiles(values)
    print("%-30s median %.6g  q1 %.6g  q3 %.6g  n=%d  %s" % (name, med, q1, q3, len(values), unit))


def import_times():
    """Import seconds of ``IMPORT_REPEATS`` fresh interpreters, one at a time."""
    out = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(HERE)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        out.append(float(proc.stdout))
    return out


def machine():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "commit": commit,
    }


class Run:
    """The solves of one benchmark process and what their checks found."""

    def __init__(self, workload, config, state, reference):
        self.workload = workload
        self.config = config
        self.state = state
        self.reference = reference
        self.samples = []
        self.first = None

    def solves(self, seconds, tracer=None):
        """Solve for ``seconds`` (at least once); return the samples.

        The loop stops before a solve that, at the last solve's pace, would
        end past the deadline.
        """
        out = []
        start = time.perf_counter()
        while True:
            out.append(self.solve_once(tracer))
            if time.perf_counter() - start + out[-1]["solve_s"] > seconds:
                break
        self.samples.extend(out)
        return out

    def solve_once(self, tracer):
        wl = self.workload
        sample = {"problems": [], "quality": None, "check_s": None}
        if tracer is not None:
            sample["root"] = len(tracer.spans)
            span = tracer.open("bench.solve")
        t = time.perf_counter()
        try:
            outcome = wl.solve(self.config, self.state)
        except Exception as exc:  # a failed solve is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            outcome = None
            sample["problems"].append("%s: %s" % (type(exc).__name__, exc))
        sample["solve_s"] = time.perf_counter() - t
        if tracer is not None:
            tracer.close(span)
        if outcome is None:
            return sample
        if tracer is not None:
            span = tracer.open("bench.check")
        t = time.perf_counter()
        sample["quality"], problems = wl.check(
            self.config, self.state, outcome, self.reference
        )
        sample["check_s"] = time.perf_counter() - t
        if tracer is not None:
            tracer.close(span)
        sample["problems"].extend(problems)
        fingerprint = wl.fingerprint(outcome)
        if self.first is None:
            self.first = fingerprint
        elif fingerprint != self.first:
            sample["problems"].append("determinism: result differs from the first solve")
        return sample

    @property
    def failed(self):
        return sum(1 for s in self.samples if s["problems"])


def traced_part(run, seconds):
    """Setups and solves with spans; returns the per-layer metrics."""
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        geometry = []
        for _ in range(SETUP_REPEATS):
            root = len(tracer.spans)
            span = tracer.open("bench.setup")
            run.workload.setup(run.config)
            tracer.close(span)
            geometry.append(tracing.span_total(tracer.spans, root, "experiments.geometry"))
        samples = run.solves(seconds, tracer)
    finally:
        tracer.restore()

    per_solve = [tracing.solve_metrics(tracer.spans, s["root"]) for s in samples]
    for name in tracing.EXACT_COUNTS:
        seen = {m[name] for m in per_solve}
        if len(seen) > 1:
            for s in samples:
                s["problems"].append("determinism: %s took values %s" % (name, sorted(seen)))
    metrics = {
        name: statistics.median(m[name] for m in per_solve) for name in per_solve[0]
    }
    metrics["experiments.geometry_s"] = statistics.median(geometry)
    checks = [s["check_s"] for s in samples if s["check_s"] is not None]
    metrics["experiments.check_s"] = statistics.median(checks) if checks else 0.0
    return metrics, [s["solve_s"] for s in samples]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "monoiga" / "__init__.py").is_file():
        print("perfbench: no monoiga sources under %s" % src, file=sys.stderr)
        return 2
    # Pinned before numpy is imported, so BLAS starts single-threaded.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    workload = workloads.WORKLOADS[args.workload]
    config = workload.inputs(args.seed)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        state = workload.setup(config)
        setup_times.append(time.perf_counter() - t)
    reference = workload.reference(config, state)
    run = Run(workload, config, state, reference)

    print("perfbench workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("machine: %s" % json.dumps(machine(), sort_keys=True))
    print("inputs: %s" % json.dumps(config.source_params))
    print("reference: %s" % json.dumps(reference))

    if args.trace:
        untraced = [s["solve_s"] for s in run.solves(args.seconds / 2)]
        metrics, traced = traced_part(run, args.seconds / 2)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        describe("solve_s (untraced)", untraced, "s")
        describe("solve_s (traced)", traced, "s")
        units = dict(tracing.LAYER_METRICS)
        for name, unit in tracing.LAYER_METRICS:
            print("%-30s %.6g %s" % (name, metrics[name], unit))
    else:
        imports = import_times()
        run.solves(args.seconds)
        solve_times = [s["solve_s"] for s in run.samples]
        qualities = [s["quality"] for s in run.samples if s["quality"] is not None]
        checks = [s["check_s"] for s in run.samples if s["check_s"] is not None]
        metrics = {
            "solve_s": statistics.median(solve_times),
            "setup_s": statistics.median(imports) + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "oscillation": statistics.median(qualities) if qualities else None,
        }
        units = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "oscillation": "1"}
        describe("solve_s", solve_times, "s")
        print("%-30s %.6g s (median import + median set-up)" % ("setup_s", metrics["setup_s"]))
        describe("import", imports, "s")
        describe("set-up after import", setup_times, "s")
        print("%-30s %.6g MB" % ("peak_rss_mb", metrics["peak_rss_mb"]))
        if qualities:
            describe("oscillation", qualities, "1")
        if checks:
            describe("check_s", checks, "s")

    attempted = len(run.samples)
    failed = run.failed
    for i, s in enumerate(run.samples):
        for problem in s["problems"]:
            print("solve %d failed: %s" % (i, problem))
    print("fail_rate %d/%d = %.6g" % (failed, attempted, failed / attempted))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
