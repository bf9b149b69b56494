#!/usr/bin/env python3
"""Closed-loop benchmark of rydgate: one process, one client, seeded workloads.

    python3 perfbench/run.py --workload gate_design --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ./src. Tasks
are generated from the seed in blocks (generate.py) and run back to back;
the timed phase runs whole blocks until --seconds of work at reference
machine speed (speed.py) have run, and every task's outputs are checked.
Times are reported at reference speed. With --trace 0 the last stdout
line holds the end-to-end metrics named in BENCHMARK.json; with --trace 1
it holds the per-layer metrics of a traced run. Run context, informational fields and (traced)
spans are written to perfbench/results/.
"""

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# One BLAS thread, fixed here for every run so no run differs in it.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_SAMPLES = 3       # set-ups timed per untraced run: this process and two fresh ones
TAIL_BEYOND = 10        # the tail percentile keeps this many tasks above it
CALIBRATE_EVERY = 0.5   # seconds of tasks between machine-speed samples
WALL_CAP = 1.2          # end at a block boundary past this many times --seconds of wall time
MAX_OVERRUN = 3.0       # stop mid-block once a run has lasted this many times --seconds
PAIRED_SHARE = 0.4      # share of a traced run whose blocks also run untraced


class SetupError(RuntimeError):
    """The checkout does not hold the program or the files a workload needs."""


def parse_args(argv=None):
    from generate import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time as JSON and exit")
    return ap.parse_args(argv)


def import_program():
    """Import numpy, scipy and rydgate from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "rydgate" / "__init__.py").is_file():
        raise SetupError(f"no rydgate package under {src}")
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    import rydgate

    if Path(rydgate.__file__).resolve().parent != (src / "rydgate").resolve():
        raise SetupError(f"rydgate imported from {rydgate.__file__}, not from {src}")
    return numpy, scipy


def set_up(args):
    """Import, generate the first blocks and warm up; returns (workload, stream)."""
    import warnings

    import workloads
    from generate import TaskStream
    from rydgate.errors import TruncationWarning, WeakDriveWarning

    # diagnostics the program emits on valid inputs; counted in traced runs
    warnings.simplefilter("ignore", TruncationWarning)
    warnings.simplefilter("ignore", WeakDriveWarning)
    workload = workloads.make(args.workload, ROOT, RESULTS / f"cli-{os.getpid()}")
    stream = TaskStream(args.workload, args.seed)
    for b in range(8):
        stream.block(b)
    workload.warm_up()
    return workload, stream


def child_setup(args):
    """(scaled, raw) set-up seconds of a fresh process running the same set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"set-up in a fresh process failed: {proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["raw_setup_s"]


class Speedometer:
    """Machine-slowdown samples between tasks; a task runs in the segment after a sample.

    `reference_s` sums task seconds at reference speed as they complete, so a
    run can stop after a fixed amount of work rather than of wall time.
    """

    def __init__(self):
        import speed

        self._slowdown = speed.slowdown
        self.samples = [self._slowdown(repeats=3)]  # also scales the set-up time
        self._last = time.perf_counter()
        self.reference_s = 0.0

    def segment(self) -> int:
        """Segment of the task about to start, sampling first when one is due."""
        if time.perf_counter() - self._last >= CALIBRATE_EVERY:
            self.samples.append(self._slowdown())
            self._last = time.perf_counter()
        return len(self.samples) - 1

    def spent(self, seconds: float):
        self.reference_s += seconds / self.samples[-1]

    def close(self):
        self.samples.append(self._slowdown())

    def factor(self, segment: int) -> float:
        return 0.5 * (self.samples[segment] + self.samples[segment + 1])


class Phase:
    """Raw timings of the tasks one phase ran, with the speed segment of each."""

    def __init__(self):
        self.latencies = []   # seconds inside workload.run, +inf for a failed task
        self.durations = []   # seconds including the checks
        self.segments = []
        self.task_ids = []
        self.failures = []
        self.blocks = 0

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return len(self.failures)

    def scaled(self, speedometer, first=0, stop=None):
        """(reference-speed latencies, reference-speed busy seconds) of tasks first:stop."""
        factors = [speedometer.factor(s) for s in self.segments[first:stop]]
        return ([lat / f for lat, f in zip(self.latencies[first:stop], factors)],
                sum(d / f for d, f in zip(self.durations[first:stop], factors)))


def run_task(workload, task, task_id, phase, speedometer, tracer=None):
    phase.segments.append(speedometer.segment())
    phase.task_ids.append(task_id)
    root_span = None
    if tracer is not None:
        tracer.task = task_id
        root_span = tracer.open("task")
    t0 = time.perf_counter()
    error = None
    try:
        out = workload.run(task)
    except Exception as exc:  # a failing task is counted, the run goes on
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(root_span, error is not None)
    if error is None:
        try:
            problems = workload.check(task, out)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        error = "; ".join(problems) or None
    phase.durations.append(time.perf_counter() - t0)
    speedometer.spent(phase.durations[-1])
    if error is None:
        phase.latencies.append(latency)
    else:
        phase.latencies.append(float("inf"))
        phase.failures.append({"task": task, "error": error})


def run_block(workload, tasks, task_ids, phase, speedometer, deadline, tracer=None):
    """Run one block, stopping early only past `deadline`."""
    for task in tasks:
        run_task(workload, task, next(task_ids), phase, speedometer, tracer)
        if time.perf_counter() > deadline:
            break
    phase.blocks += 1


def more_blocks(speedometer, start_ref, t0, seconds):
    """True until `seconds` of reference-speed work (or WALL_CAP times that in wall time) ran."""
    return (speedometer.reference_s - start_ref < seconds
            and time.perf_counter() - t0 < WALL_CAP * seconds)


def run_untraced(workload, stream, seconds, speedometer):
    """Blocks 0, 1, ... back to back until `seconds` of work ran, at a block boundary."""
    phase = Phase()
    task_ids = itertools.count()
    t0, start_ref = time.perf_counter(), speedometer.reference_s
    deadline = t0 + MAX_OVERRUN * seconds
    while phase.blocks == 0 or more_blocks(speedometer, start_ref, t0, seconds):
        run_block(workload, stream.block(phase.blocks), task_ids, phase, speedometer, deadline)
        if time.perf_counter() > deadline:
            break
    speedometer.close()
    return phase


def run_traced(workload, stream, seconds, speedometer, tracer):
    """Traced blocks until `seconds` of work ran; early blocks also run untraced.

    While under PAIRED_SHARE of that work has run, each block runs once
    untraced and once traced, alternating which goes first; the tracing
    overhead compares the two on identical tasks. Returns (traced phase,
    untraced phase, overhead fraction).
    """
    from tracing import instrument

    traced, untraced = Phase(), Phase()
    task_ids = itertools.count()
    paired_tasks = 0
    t0, start_ref = time.perf_counter(), speedometer.reference_s
    deadline = t0 + MAX_OVERRUN * seconds
    block = 0
    while block == 0 or more_blocks(speedometer, start_ref, t0, seconds):
        pair = speedometer.reference_s - start_ref < PAIRED_SHARE * seconds
        order = ((False, True) if block % 2 == 0 else (True, False)) if pair else (True,)
        for with_trace in order:
            if not with_trace:
                run_block(workload, stream.block(block), task_ids, untraced, speedometer,
                          deadline)
                continue
            untraced_span, workload.span = workload.span, tracer.span
            probes = instrument(tracer)
            try:
                run_block(workload, stream.block(block), task_ids, traced, speedometer,
                          deadline, tracer)
            finally:
                probes.uninstall()
                workload.span = untraced_span
        if pair:
            paired_tasks = traced.attempted
        block += 1
        if time.perf_counter() > deadline:
            break
    speedometer.close()
    overhead = (traced.scaled(speedometer, 0, paired_tasks)[1]
                / untraced.scaled(speedometer)[1] - 1.0)
    return traced, untraced, overhead


def tail(values):
    """Highest percentile with TAIL_BEYOND values above it: (value, percentile)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def latency_figures(latencies, busy_s, completed):
    """Throughput, p50 and tail in ms; a failed task counts as missing any latency limit."""
    def ms(seconds):
        return 1e3 * (busy_s if seconds == float("inf") else seconds)

    tail_s, tail_pct = tail(latencies)
    return completed / busy_s, ms(statistics.median(latencies)), ms(tail_s), tail_pct


def end_to_end(phase, speedometer, setup_s):
    completed = phase.attempted - phase.failed
    latencies, busy_s = phase.scaled(speedometer)
    throughput, p50, tail_ms, tail_pct = latency_figures(latencies, busy_s, completed)
    metrics = {
        "throughput_tasks_per_s": throughput,
        "task_p50_ms": p50,
        "task_tail_ms": tail_ms,
        "ok_frac": completed / phase.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = latency_figures(phase.latencies, sum(phase.durations), completed)
    info = {"tasks": phase.attempted, "blocks": phase.blocks,
            "tail_percentile": tail_pct,
            "tail_tasks_beyond": min(TAIL_BEYOND, phase.attempted - 1),
            "failed_frac": phase.failed / phase.attempted,
            "raw": dict(zip(("throughput_tasks_per_s", "task_p50_ms", "task_tail_ms"), raw)),
            "raw_busy_s": sum(phase.durations),
            "slowdown_median": statistics.median(speedometer.samples),
            "slowdown_samples": len(speedometer.samples)}
    return metrics, info


def per_layer(spec, tracer, phase, speedometer, overhead):
    """Per-task self time (reference speed), span calls and counters; failed spans."""
    from tracing import self_times

    factor_of_task = {t: speedometer.factor(s) for t, s in zip(phase.task_ids, phase.segments)}
    n_tasks = phase.attempted
    busy, calls, failed, layers_run = {}, {}, {}, set()
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        busy[span.name] = busy.get(span.name, 0.0) + own / factor_of_task[span.task]
        calls[span.name] = calls.get(span.name, 0) + 1
        failed[span.layer] = failed.get(span.layer, 0) + span.failed
        layers_run.add(span.layer)
    metrics, not_observed = {}, []
    for name in (m["name"] for m in spec["per_layer"]):
        base, _, kind = name.rpartition(".")
        if name == "trace.overhead_frac":
            value = overhead
        elif kind == "busy_s":
            value = busy.get(base, 0.0) / n_tasks
        elif kind == "calls":
            value = calls.get(base, 0) / n_tasks
        elif kind == "failed":
            value = failed.get(base, 0)
        else:
            value = tracer.counters.get(name, 0) / n_tasks
            if value == 0 and name.split(".")[0] in layers_run:
                not_observed.append(name)
        metrics[name] = value
    return metrics, not_observed


def context(args, numpy, scipy):
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": {k: os.environ[k] for k in BLAS_ENV}, "src_lines": src_lines,
    }


def write_json(path, payload):
    RESULTS.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def write_spans(path, tracer):
    t_ref = tracer.spans[0].start if tracer.spans else 0.0
    write_json(path, {
        "columns": ["name", "start_s", "end_s", "parent", "task", "failed"],
        "spans": [[s.name, s.start - t_ref, s.end - t_ref, s.parent, s.task, s.failed]
                  for s in tracer.spans]})


def main(argv=None):
    args = parse_args(argv)
    for key in BLAS_ENV:
        os.environ[key] = BLAS_THREADS
    try:
        numpy, scipy = import_program()
        workload, stream = set_up(args)
    except (SetupError, ImportError, OSError, KeyError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    raw_setup_s = time.perf_counter() - T_START
    speedometer = Speedometer()
    setup_s = raw_setup_s / speedometer.samples[0]
    if args.setup_only:
        workload.close()
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            phase, untraced, overhead = run_traced(workload, stream, args.seconds,
                                                   speedometer, tracer)
            metrics, not_observed = per_layer(spec, tracer, phase, speedometer, overhead)
            info = {"tasks": phase.attempted + untraced.attempted,
                    "traced_tasks": phase.attempted, "not_observed": not_observed}
            attempted = phase.attempted + untraced.attempted
            failures = untraced.failures + phase.failures
            write_spans(RESULTS / f"spans-{tag}.json", tracer)
        else:
            setups = [(setup_s, raw_setup_s)]
            setups += [child_setup(args) for _ in range(SETUP_SAMPLES - 1)]
            phase = run_untraced(workload, stream, args.seconds, speedometer)
            metrics, info = end_to_end(phase, speedometer,
                                       statistics.median(s for s, _ in setups))
            info["raw_setup_samples_s"] = [raw for _, raw in setups]
            attempted, failures = phase.attempted, phase.failures
        info.update(workload.summary())
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        workload.close()

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(declared):
        print(f"perfbench: metrics {sorted(metrics)} differ from BENCHMARK.json", file=sys.stderr)
        return 2
    info["failures"] = failures[:5]
    for failure in failures[:5]:
        print(f"perfbench: task failed: {failure['error']}", file=sys.stderr)
    ctx = context(args, numpy, scipy)
    write_json(RESULTS / f"{tag}.json", {"context": ctx, "info": info, "metrics": metrics})
    print(json.dumps({"context": ctx, "info": {k: v for k, v in info.items() if k != "failures"}}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": declared[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
