"""End-to-end and per-layer benchmark of diffoplab.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload operators-q --seed 0 --seconds 25 --trace 0

One process, no threads.  The run builds its inputs from ``--seed`` (see
``workloads.py``), times set-up several times, then drives the CLI in-process
(``diffoplab.cli.main``) in a closed loop: one task after another, each
report written with ``--json`` before the next task starts, for about
``--seconds`` seconds of passes over the task list.  Each task is timed
between two runs of a fixed probe of the host's speed, and times are
reported at a reference probe speed (see ``PROBE_REF_S``).  Every report is
checked against ``reference.json`` outside the timed region.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` first times
untraced passes for half the budget, then runs two passes with the per-layer
tracer of ``tracer.py`` installed and reports the per-layer metrics of the
first, whose spans it writes to ``perfbench/.spans/<workload>-<seed>.json``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracer import COUNT_METRICS, METRICS, Tracer
from workloads import (SCENARIO_ALGEBRAS, WORKLOADS, build_tasks, check_report,
                       digest, load_reference)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SPANS = HERE / ".spans"

# set-up is timed SETUP_BLOCKS * SETUP_BLOCK times, with a probe between blocks
SETUP_BLOCKS = 10
SETUP_BLOCK = 20
MIN_PASSES = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# The shared host's speed drifts by 20-45% over minutes, and raw task times
# with it.  Every task is therefore timed between two runs of a fixed probe
# that does not touch diffoplab, and times are reported as seconds *
# PROBE_REF_S / probe seconds, where PROBE_REF_S is the probe's typical time
# on the 2-vCPU VM the benchmark was tuned on.  A change to diffoplab moves
# the task times and leaves the probe alone.
PROBE_REF_S = 0.04
PROBE_P = 32003
PROBE_Q = [[Fraction((7 * i + 3 * j) % 11 - 5, (i + j) % 4 + 1) for j in range(40)]
           for i in range(40)]
PROBE_GFP = [[(7 * i + 3 * j) % PROBE_P for j in range(60)] for i in range(60)]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import diffoplab from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import diffoplab
    except ImportError as exc:
        raise SystemExit(f"error: cannot import diffoplab from {SRC}: {exc}")
    if Path(diffoplab.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: diffoplab imported from {diffoplab.__file__}, "
                         f"not from {SRC}")


def probe():
    """Seconds for a fixed amount of Fraction and mod-p arithmetic."""
    vq = [Fraction(i % 5 - 2, i % 3 + 1) for i in range(40)]
    vp = [(i * i) % PROBE_P for i in range(60)]
    gc.disable()  # the probe makes no cycles; keep the program's heap out of it
    try:
        t0 = perf_counter()
        for _ in range(6):
            vq = [sum(a * b for a, b in zip(row, vq)) / 7 for row in PROBE_Q]
            for _ in range(4):
                vp = [sum(a * b for a, b in zip(row, vp)) % PROBE_P for row in PROBE_GFP]
        return perf_counter() - t0
    finally:
        gc.enable()


def fresh_import():
    """Drop every diffoplab module and import the package again."""
    for name in [n for n in sys.modules if n == "diffoplab" or n.startswith("diffoplab.")]:
        del sys.modules[name]
    return importlib.import_module("diffoplab.cli")


def setup_once(workload, spec_paths):
    """Import, load the workload's specs, build algebras and regular modules."""
    t0 = perf_counter()
    cli = fresh_import()
    algebra = sys.modules["diffoplab.algebra"]
    bimodule = sys.modules["diffoplab.bimodule"]
    if workload == "scenarios":
        for spec in SCENARIO_ALGEBRAS:
            bimodule.regular_bimodule(algebra.catalog(spec))
        sys.modules["diffoplab.scenarios"].builtin_scenarios()
    else:
        for path in spec_paths:
            bimodule.regular_bimodule(algebra.FiniteAlgebra.load(str(path)))
    return perf_counter() - t0, cli


def timed_setups(workload, spec_paths):
    """Repeated set-up; returns (CLI module, seconds, seconds at the reference
    probe speed), each set-up scaled by the probes on either side of its block."""
    raw, scaled, before = [], [], probe()
    for _ in range(SETUP_BLOCKS):
        block = []
        for _ in range(SETUP_BLOCK):
            gc.collect()
            seconds, cli = setup_once(workload, spec_paths)
            block.append(seconds)
        after = probe()
        raw += block
        scaled += [t * PROBE_REF_S / ((before + after) / 2) for t in block]
        before = after
    return cli, raw, scaled


def run_pass(cli, tasks):
    """One closed-loop pass with a probe before the first task and after each.

    Returns (per-task seconds, per-task probe seconds, outcomes); a task's
    probe seconds are the mean of the probes on either side of it.
    """
    times, probes, outcomes = [], [probe()], []
    for task in tasks:
        sink = io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                outcome = cli.main(task.argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed task
            traceback.print_exc()
            outcome = f"raised {exc!r}"
        times.append(perf_counter() - t0)
        outcomes.append(outcome)
        probes.append(probe())
    return times, [(a + b) / 2 for a, b in zip(probes, probes[1:])], outcomes


class Checker:
    """Checks each pass's reports against the reference and the first pass."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.reference = load_reference()
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, tasks, outcomes):
        for task, outcome in zip(tasks, outcomes):
            self.attempted += 1
            reason = ""
            if outcome != 0:
                reason = f"exit {outcome}"
            else:
                try:
                    data = task.report_path.read_bytes()
                    task.report_path.unlink()
                except OSError as exc:
                    data, reason = None, f"no report: {exc}"
                if data is not None:
                    reason = check_report(self.workload, self.seed, task, data,
                                          self.reference)
                    first = self.first.setdefault(task.key, digest(data))
                    if not reason and first != digest(data):
                        reason = "report differs from the first pass"
            if reason:
                self.fail(f"{task.key}: {reason}")

    def fail(self, reason):
        self.failed += 1
        self.reasons.append(reason)


def timed_passes(cli, tasks, checker, seconds, min_passes):
    """Passes for about ``seconds``; returns per-task lists of (seconds, probe seconds)."""
    per_task = [[] for _ in tasks]
    start = perf_counter()
    while len(per_task[0]) < min_passes or perf_counter() - start < seconds:
        gc.collect()
        times, probes, outcomes = run_pass(cli, tasks)
        checker.check(tasks, outcomes)
        for acc, t, p in zip(per_task, times, probes):
            acc.append((t, p))
    return per_task


def scaled_pass(per_task):
    """Pass time at the reference probe speed: the sum over the tasks of the
    median over the passes of seconds * PROBE_REF_S / probe seconds."""
    return sum(statistics.median(t / p for t, p in samples)
               for samples in per_task) * PROBE_REF_S


def traced_passes(cli, tasks, checker, untraced_wall, spans_path):
    """Two traced passes; per-layer metrics of the first, counts compared,
    overhead from both.

    The spans of the first pass are written to ``spans_path``.
    """
    tracer = Tracer()
    tracer.install()
    try:
        results, traced = [], [[] for _ in tasks]
        for _ in range(2):
            tracer.reset()
            per_task = timed_passes(cli, tasks, checker, 0, 1)
            results.append(tracer.metrics(0.0))
            for acc, samples in zip(traced, per_task):
                acc.extend(samples)
            if len(results) == 1:
                write_spans(spans_path, tasks, tracer.spans())
    finally:
        tracer.uninstall()
    for name in COUNT_METRICS:
        if results[0][name] != results[1][name]:
            checker.fail(f"traced count {name} differs between passes: "
                         f"{results[0][name]} vs {results[1][name]}")
    results[0]["trace.overhead_frac"] = scaled_pass(traced) / untraced_wall - 1.0
    return results[0]


def spans_file(workload, seed):
    return SPANS / f"{workload}-{seed}.json"


def write_spans(path, tasks, spans):
    """Spans as [entry, start s, seconds, parent index]; each top-level span
    is the ``cli.main`` call of the task at the same position in ``tasks``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"tasks": [t.key for t in tasks], "spans": spans}, fh)


def main(argv=None):
    args = parse_args(argv)
    work_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    # Imports read and write bytecode in the run's own cache, so set-up
    # times a warm-cache import whatever the environment or the checkout holds.
    sys.pycache_prefix = str(work_dir / "pycache")
    sys.dont_write_bytecode = False
    try:
        import_package()
        tasks, spec_paths = build_tasks(args.workload, args.seed, work_dir)
        cli, setups, scaled_setups = timed_setups(args.workload, spec_paths)
        checker = Checker(args.workload, args.seed)
        budget = args.seconds / 2 if args.trace else args.seconds
        per_task = timed_passes(cli, tasks, checker, budget,
                                2 if args.trace else MIN_PASSES)
        wall = scaled_pass(per_task)
        if args.trace:
            values = traced_passes(cli, tasks, checker, wall,
                                   spans_file(args.workload, args.seed))
            units = METRICS
        else:
            values = {"setup_s": statistics.median(scaled_setups),
                      "wall_s": wall,
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    probes = [p for samples in per_task for _, p in samples]
    print(f"workload {args.workload} seed {args.seed}: {len(per_task[0])} untraced passes "
          f"of {len(tasks)} tasks; unscaled medians: probe {statistics.median(probes):.4f} s, "
          f"set-up {statistics.median(setups):.5f} s; per task, unscaled and scaled:")
    for task, samples in zip(tasks, per_task):
        print(f"  {statistics.median(t for t, _ in samples):9.4f} s "
              f"{statistics.median(t / p for t, p in samples) * PROBE_REF_S:9.4f} s  {task.key}")
    for reason in checker.reasons[:20]:
        print(f"FAILED {reason}")
    failed_frac = checker.failed / checker.attempted
    for name, unit in units.items():
        print(f"{name} = {values[name]!r} {unit}")
    print(f"failed_frac = {failed_frac!r} ratio")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
