#!/usr/bin/env python3
"""One line per BENCH_*.json at the repository root: the trajectory at a glance.

    python scripts/bench_summary.py [FILE ...]

Each line gives the claimed workload and metric with its pairs, the wins
and the parent -> change median. A file that claims no gain names instead
the end-to-end metric that worsened most, read against BENCHMARK.json's
directions. Every line ends with the src/ line counts. A file without the
fields read here stops the script with its name, so an unreadable BENCH
file fails the check that runs it.
"""

import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _wins(wins, pairs):
    return f"{wins}/{pairs}" if isinstance(wins, int) else wins  # older files count only wins


def _worsening(metric, better):
    """(change - parent) / parent, signed so that a positive value is worse."""
    sign = 1.0 if better == "lower" else -1.0
    return sign * (metric["change_median"] - metric["parent_median"]) / metric["parent_median"]


def summary(path, better):
    """The one-line summary of one BENCH file; better maps metric -> "lower" or "higher"."""
    bench = json.loads(Path(path).read_text(encoding="utf-8"))
    workloads, claim, lines = bench["workloads"], bench["claimed_gain"], bench["src_lines"]
    if claim:
        name, metric = claim["workload"], claim["metric"]
        head = f"{name} {metric}"
    else:
        name, metric = max(((w, m) for w, entry in workloads.items()
                            for m in entry["metrics"] if m in better),
                           key=lambda wm: _worsening(workloads[wm[0]]["metrics"][wm[1]],
                                                     better[wm[1]]))
        worse = _worsening(workloads[name]["metrics"][metric], better[metric])
        head = f"no gain; worst {name} {metric} {worse:+.1%}"
    pairs = workloads[name]["pairs"]
    m = workloads[name]["metrics"][metric]
    wins = _wins(m["change_wins"], pairs)
    return (f"{Path(path).name:14s} {head}: {pairs} pairs, {wins} wins, "
            f"{m['parent_median']:.5g} -> {m['change_median']:.5g}; "
            f"src {lines['parent']} -> {lines['change']}")


def bench_files():
    """The root BENCH_*.json files in PR order."""
    return sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(re.findall(r"\d+", p.name)[0]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("files", nargs="*", type=Path, help="BENCH files (default: all at the root)")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for path in args.files or bench_files():
        try:
            print(summary(path, better))
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            sys.exit(f"{path}: cannot summarise: {type(exc).__name__}: {exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
