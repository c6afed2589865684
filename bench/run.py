"""widomlab benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 bench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Workloads are ``scan``, ``high_degree`` and ``verify`` (see ``README.md``).
The run is single-core: BLAS is pinned to one thread and scans use
``workers=1``.  It prints one line per metric, one line recording the
environment, and as its last line a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``attempted`` and ``failed`` count
the units of one pass, so they do not depend on how many passes fit in
``--seconds``.  With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` they are the per-layer ones, taken
from spans around every public function of the package's modules, and the
spans are written under ``bench/results/``.  End-to-end times are scaled to
a reference machine speed (see ``REFERENCE_PROBE_S``).

Exit status: 0 when every output passed its check, 1 when a check failed
(no result is printed), 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LAYERS = ("special", "bounds", "minimax", "circle", "widom", "oracle", "cli")
SOLVER_ERRORS = ("ConvergenceError", "ExchangeError", "DegeneracyError")

# the median of several passes is what a run reports
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2

# set-up: a fresh interpreter imports the package and finishes this solve;
# half the launches come before the timed passes and half after, so that
# they meet the machine in more than one state
SETUP_LAUNCHES = 6
SETUP_SOLVE = (0.25, 0.25, 100)
_SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from widomlab import WeightParams, solve\n"
    "solve(WeightParams(float(sys.argv[2]), float(sys.argv[3])), int(sys.argv[4]))\n"
)

# The host is shared and its speed drifts by up to 2.5x over tens of seconds.
# A fixed probe that does not use widomlab is timed around every timed call
# and set-up launch, and each time is scaled by (REFERENCE_PROBE_S over the
# probe's time there) ** SPEED_EXPONENT: setup_s and wall_s read in seconds of
# a machine on which the probe takes REFERENCE_PROBE_S, a round number near
# its median (34-40 ms) on the 2-core x86_64 host the baselines in README.md
# come from.  In the host's slow phases most of widomlab's calls slow down
# less than the probe, so an exponent of 1 overcorrects; 0.85 balances the
# run-to-run spread against following the machine's speed (README.md, Noise).
# The calls of high_degree, large dense solves and matvecs like the probe's,
# slow down with the probe in full, so its wall_s takes an exponent of 1.
# Unscaled times are printed and kept in the results file.
REFERENCE_PROBE_S = 0.04
SPEED_EXPONENT = 0.85
WALL_EXPONENT = {"high_degree": 1.0}

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("failed_frac", "ratio"),
    ("minimax.solve.calls", "count"),
    ("minimax.solve.self_s", "s"),
    ("minimax.solve.p50_ms", "ms"),
    ("minimax.iterations", "count"),
    ("minimax.solve.failed", "count"),
    ("minimax.certified_frac", "ratio"),
    ("minimax.defect_max", "ratio"),
    ("widom.scan.self_s", "s"),
    ("widom.widom_sequence.calls", "count"),
    ("widom.widom_sequence.self_s", "s"),
    ("widom.solves_per_cell", "count"),
    ("special.weighted_monic_jacobi_sup.calls", "count"),
    ("special.weighted_monic_jacobi_sup.self_s", "s"),
    ("special.jacobi_eval.self_s", "s"),
    ("special.jacobi_zeros.self_s", "s"),
    ("bounds.m_bound.calls", "count"),
    ("bounds.m_bound.self_s", "s"),
    ("bounds.verify_m_monotone.self_s", "s"),
    ("bounds.verify_coeff_lemma.self_s", "s"),
    ("circle.verify_cn_relation.self_s", "s"),
    ("circle.circle_sup.calls", "count"),
    ("circle.circle_sup.self_s", "s"),
    ("circle.erdos_lax_check.self_s", "s"),
    ("oracle.brute_minimax.calls", "count"),
    ("oracle.brute_minimax.self_s", "s"),
    ("oracle.max_rel_gap", "ratio"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def speed_probe() -> float:
    """Seconds for a fixed mix of the work widomlab does, without widomlab.

    A Python loop of Clenshaw-style recurrences on small arrays, and one small
    dense linear solve, on fixed data.
    """
    import numpy as np

    x = np.linspace(-1.0, 1.0, 300)
    c = np.linspace(1.0, 2.0, 60)
    a = np.cos(np.outer(np.linspace(0.0, 3.0, 200), np.arange(200))) + 200.0 * np.eye(200)
    start = time.perf_counter()
    for _ in range(240):
        b1 = b2 = np.zeros_like(x)
        for k in range(len(c) - 1, 0, -1):
            b1, b2 = c[k] + 2.0 * x * b1 - b2, b1
    np.linalg.solve(a, x[:200])
    return time.perf_counter() - start


def scaled(
    seconds: float, probe_before: float, probe_after: float, exponent: float = SPEED_EXPONENT
) -> float:
    """``seconds`` at the speed at which the probe takes REFERENCE_PROBE_S."""
    return seconds * (REFERENCE_PROBE_S / (0.5 * (probe_before + probe_after))) ** exponent


class Series:
    """Times, units and failures of the passes made in one mode (traced or not)."""

    def __init__(self, exponent: float = SPEED_EXPONENT, tracer_factory=None):
        self.exponent = exponent
        self.tracer_factory = tracer_factory
        self.times: dict[str, list[float]] = {}
        self.raw_times: dict[str, list[float]] = {}
        self.probes: list[float] = []
        self.passes = 0
        # per task: its units in one pass, and the most of them that failed in a pass
        self.units: dict[str, int] = {}
        self.unit_failures: dict[str, int] = {}
        self.oracle_gap = 0.0
        self.summaries: list[dict] = []
        self.last_spans: list = []

    def run_pass(self, tasks) -> None:
        tracer = self.tracer_factory() if self.tracer_factory else None
        probe = speed_probe()
        self.probes.append(probe)
        with tracer or contextlib.nullcontext():
            for task in tasks:
                start = time.perf_counter()
                out = task.call()
                elapsed = time.perf_counter() - start
                after = speed_probe()
                self.probes.append(after)
                self.raw_times.setdefault(task.label, []).append(elapsed)
                self.times.setdefault(task.label, []).append(
                    scaled(elapsed, probe, after, self.exponent)
                )
                probe = after
                tally = task.check(out)
                self.units[task.label] = tally.units
                self.unit_failures[task.label] = max(
                    tally.failed, self.unit_failures.get(task.label, 0)
                )
                self.oracle_gap = max(self.oracle_gap, tally.oracle_gap)
        self.passes += 1
        if tracer is not None:
            self.summaries.append(pass_summary(tracer.spans))
            self.last_spans = tracer.spans

    @property
    def attempted(self) -> int:
        """Units of one pass: the workload's fixed set, however many passes ran."""
        return sum(self.units.values())

    @property
    def failed(self) -> int:
        """Units of one pass that failed, a task counting its worst pass."""
        return sum(self.unit_failures.values())

    def wall_s(self, raw: bool = False) -> float:
        """Sum over the pass's calls of each call's median (scaled) time."""
        times = self.raw_times if raw else self.times
        return sum(statistics.median(ts) for ts in times.values())


def run_series(tasks, modes, seconds: float, min_rounds: int) -> None:
    """Cycle through ``modes`` pass by pass until ``seconds`` would be overrun."""
    start = time.perf_counter()
    rounds = 0
    while True:
        for mode in modes:
            mode.run_pass(tasks)
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            return


def measure_setup(launches: int) -> list[tuple[float, float]]:
    """(scaled, raw) wall times of fresh interpreters that import the package and solve once."""
    ra, rb, n = SETUP_SOLVE
    argv = [sys.executable, "-c", _SETUP_CODE, str(SRC), str(ra), str(rb), str(n)]
    times = []
    probe = speed_probe()
    for _ in range(launches):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up solve failed:\n{proc.stderr}")
        after = speed_probe()
        times.append((scaled(elapsed, probe, after), elapsed))
        probe = after
    return times


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not itself a git repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(seed: int, numpy, scipy) -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def annotate_solve(result, exc) -> dict:
    if result is not None:
        return {"iterations": result.iterations, "solution": result}
    best = getattr(exc, "best", None)
    return {"iterations": best.iterations} if best is not None else {}


def pass_summary(spans) -> dict:
    """Per-layer numbers of one traced pass.

    ``minimax.certified_frac`` and ``minimax.defect_max`` come from the
    benchmark's own re-check of every returned solution, made here, after
    the pass and outside its spans.
    """
    import checks  # imports widomlab, so not before main() has set the path

    summary = {
        f"{name}.{stat}": value
        for name, stats in tracing.summarise(spans).items()
        for stat, value in stats.items()
    }
    solves = [s for s in spans if s.name == "minimax.solve"]
    infos = [s.info or {} for s in solves]
    returned = [i for i in infos if "raised" not in i]
    summary["minimax.iterations"] = sum(i.get("iterations", 0) for i in infos)
    summary["minimax.solve.failed"] = sum(i.get("raised") in SOLVER_ERRORS for i in infos)
    rechecks = [checks.recertify(i["solution"], "traced minimax.solve") for i in returned]
    summary["minimax.certified_frac"] = (
        sum(r.certified for r in rechecks) / len(solves) if solves else 0.0
    )
    summary["minimax.defect_max"] = max((r.defect for r in rechecks), default=0.0)

    def under_scan(span) -> bool:
        while span.parent >= 0:
            span = spans[span.parent]
            if span.name == "widom.scan":
                return True
        return False

    summary["widom.solves_under_scan"] = sum(under_scan(s) for s in solves)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "widomlab" / "__init__.py").is_file():
        sys.stderr.write(f"no package source at {SRC}; run from a full checkout\n")
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy loads
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import numpy
    import scipy

    import widomlab
    import widomlab.cli  # not imported by the package itself

    if Path(widomlab.__file__).resolve().parent != SRC / "widomlab":
        sys.stderr.write(f"imported widomlab from {widomlab.__file__}, not {SRC}\n")
        return 2

    import checks
    import workloads

    try:
        inputs = workloads.make_inputs(args.workload, args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    tasks = workloads.build_tasks(args.workload, inputs, widomlab)
    env = environment(args.seed, numpy, scipy)

    try:
        setup_times = [] if args.trace else measure_setup(SETUP_LAUNCHES // 2)
        # warm-up: the same solve, in this process, before anything is timed
        ra, rb, n = SETUP_SOLVE
        widomlab.solve(widomlab.WeightParams(ra, rb), n)
        exponent = WALL_EXPONENT.get(args.workload, SPEED_EXPONENT)
        plain = Series(exponent)
        if args.trace:
            traced = Series(
                exponent, lambda: tracing.Tracer(LAYERS, {"minimax.solve": annotate_solve})
            )
            run_series(tasks, (plain, traced), args.seconds, MIN_TRACED_PAIRS)
        else:
            run_series(tasks, (plain,), args.seconds, MIN_PASSES)
            setup_times += measure_setup(SETUP_LAUNCHES - len(setup_times))
    except checks.WrongAnswer as exc:
        sys.stderr.write(f"correctness check failed: {exc}\n")
        return 1

    if args.trace:
        metrics = layer_metrics(traced, plain, workloads.scan_cells(inputs))
        units = PER_LAYER
        report = traced
    else:
        metrics = {
            "setup_s": statistics.median(t for t, _ in setup_times),
            "wall_s": plain.wall_s(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        report = plain

    failed_frac = report.failed / report.attempted
    print(f"workload {args.workload}: {report.passes} passes, "
          f"{report.attempted} units attempted, {report.failed} failed "
          f"(failed_frac {failed_frac:.4f}); unscaled wall {report.wall_s(raw=True):.4g} s, "
          f"probe median {1e3 * statistics.median(report.probes):.4g} ms "
          f"(reference {1e3 * REFERENCE_PROBE_S:g} ms)")
    for name, unit in units:
        print(f"{name:44s} {metrics[name]:.6g} {unit}")
    print("environment " + json.dumps(env))
    write_results(args, env, inputs, metrics, report, setup_times)
    result = {
        "correct": True,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return 0


def layer_metrics(traced: Series, plain: Series, cells_per_pass: int) -> dict:
    """Per-layer metrics: medians over the traced passes."""

    def med(key: str) -> float:
        return statistics.median(s.get(key, 0.0) for s in traced.summaries)

    metrics = {}
    for name, _ in PER_LAYER:
        metrics[name] = med(name)
    metrics["failed_frac"] = traced.failed / traced.attempted
    metrics["widom.solves_per_cell"] = (
        med("widom.solves_under_scan") / cells_per_pass if cells_per_pass else 0.0
    )
    metrics["oracle.max_rel_gap"] = traced.oracle_gap
    metrics["trace.overhead_s"] = traced.wall_s() - plain.wall_s()
    return metrics


def write_results(args, env, inputs, metrics, report: Series, setup_times) -> None:
    """Everything a run measured, and the spans of its last traced pass."""
    RESULTS.mkdir(exist_ok=True)
    doc = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "inputs": inputs,
        "passes": report.passes,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
        "call_times_s": report.times,
        "unscaled_call_times_s": report.raw_times,
        "unscaled_wall_s": report.wall_s(raw=True),
        "probe_s": report.probes,
        "setup_s_scaled_and_unscaled": setup_times,
    }
    if args.trace:
        doc["layer_summaries"] = report.summaries
        doc["last_pass_spans"] = [
            [s.name, s.start, s.end, s.parent] for s in report.last_spans
        ]
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(doc) + "\n")


if __name__ == "__main__":
    sys.exit(main())
