#!/usr/bin/env python3
"""Time rydgate where its user waits: one fresh interpreter per command.

    python scripts/cli_process_time.py [--parent DIR] [--repeat N] [--json FILE]

Each case is one process: `python -m rydgate CMD --config CFG --output FILE`
for every subcommand (default flags) on every configs/*.cfg of this tree,
and one bare `python -c "import rydgate"`. The wall time of each process,
interpreter start-up included, is taken N times (default 10) in two
bytecode states, each with one BLAS thread:

- cold: each tree's src/rydgate/__pycache__ is deleted and the processes
  run with PYTHONDONTWRITEBYTECODE=1, so rydgate's modules are compiled
  from source in every process (numpy's and the standard library's
  bytecode is read as installed);
- warm: one untimed `python -m rydgate --help` per tree writes rydgate's
  bytecode, which every timed process then reads.

With --parent DIR, a checkout of another tree (for example the parent
commit unpacked with `git archive HEAD~1 | tar -x -C DIR`), each repetition
runs every case on both trees, which tree goes first alternating between
repetitions. The script prints the median milliseconds per case and state,
and with --parent the ratio this tree / parent. --json writes every sample.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SUBCOMMANDS = ("modes", "fc", "dress", "interactions", "gate", "evolve")
STATES = ("cold", "warm")


def cases(out):
    """(name, argv after the interpreter) of every timed process."""
    found = [("import", ["-c", "import rydgate"])]
    for cfg in sorted((ROOT / "configs").glob("*.cfg")):
        found += [(f"{cmd} {cfg.stem}", ["-m", "rydgate", cmd, "--config", str(cfg),
                                         "--output", str(out)]) for cmd in SUBCOMMANDS]
    return found


def environment(src, state):
    env = dict(os.environ, PYTHONPATH=str(src), **{k: "1" for k in BLAS_ENV})
    if state == "cold":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def prepare(src, state):
    """Put src's rydgate bytecode into the given state."""
    shutil.rmtree(src / "rydgate" / "__pycache__", ignore_errors=True)
    if state == "warm":
        subprocess.run([sys.executable, "-m", "rydgate", "--help"], check=True, cwd=ROOT,
                       env=environment(src, state), stdout=subprocess.DEVNULL)


def run_once(argv, env):
    """Wall seconds of one process; a failing command stops the script."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed


def measure(trees, repeat):
    """{state: {tree: {case: [seconds, ...]}}}, trees alternating in order per repetition."""
    samples = {}
    with tempfile.TemporaryDirectory() as tmp:
        timed = cases(Path(tmp) / "out")
        for state in STATES:
            envs = {}
            for name, src in trees.items():
                prepare(src, state)
                envs[name] = environment(src, state)
            samples[state] = {name: {case: [] for case, _ in timed} for name in trees}
            for rep in range(repeat):
                order = list(trees) if rep % 2 == 0 else list(reversed(trees))
                for case, argv in timed:
                    for name in order:
                        samples[state][name][case].append(run_once(argv, envs[name]))
    return samples


def report(samples):
    """One line per state and case: median ms per tree, and the ratio with a parent."""
    lines = []
    for state, by_tree in samples.items():
        names = list(by_tree)
        lines.append(f"{state:5s} {'case':28s} " + " ".join(f"{n + ' ms':>10s}" for n in names)
                     + ("      ratio" if len(names) == 2 else ""))
        for case in by_tree[names[0]]:
            medians = [statistics.median(by_tree[n][case]) * 1e3 for n in names]
            line = f"{state:5s} {case:28s} " + " ".join(f"{m:10.1f}" for m in medians)
            if len(medians) == 2:
                line += f" {medians[0] / medians[1]:10.3f}"
            lines.append(line)
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, help="checkout of the tree to compare against")
    ap.add_argument("--repeat", type=int, default=10, help="timed processes per case and tree")
    ap.add_argument("--json", type=Path, help="write every sample to this file")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")
    trees = {"tree": ROOT / "src"}
    if args.parent is not None:
        trees["parent"] = args.parent.resolve() / "src"
    samples = measure(trees, args.repeat)
    print("\n".join(report(samples)))
    if args.json is not None:
        args.json.write_text(json.dumps(samples, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
