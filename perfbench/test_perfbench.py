"""Self-tests of the benchmark harness (not part of the package test suite).

    python3 -m pytest perfbench -q
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from generate import WORKLOADS, TaskStream
from run import TAIL_BEYOND, tail
from schemas import parse_output_schemas
from tracing import COUNTERS, Span, self_times

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    a, b = TaskStream(workload, 7), TaskStream(workload, 7)
    assert [a.block(i) for i in range(3)] == [b.block(i) for i in range(3)]
    # blocks are generated independently of the order they are asked for
    c = TaskStream(workload, 7)
    assert c.block(2) == a.block(2)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_differs_across_seeds(workload):
    assert TaskStream(workload, 7).block(0) != TaskStream(workload, 8).block(0)
    assert TaskStream(workload, 7).block(0) != TaskStream(workload, 7).block(1)


def test_blocks_share_one_work_mix_across_seeds():
    def fc_mix(seed):
        return Counter((t["kind"], t["n_max"]) for t in TaskStream("phonon_fc", seed).block(0))

    assert fc_mix(1) == fc_mix(2)
    assert sum(n for (kind, _), n in fc_mix(1).items() if kind == "rotated") == 4
    for seed in (1, 2):
        cutoffs = sorted(t["n_phonon_max"] for t in TaskStream("gate_dynamics", seed).block(0))
        assert cutoffs == [4, 5, 6, 7, 8]
        names = [t["name"] for t in TaskStream("cli", seed).block(0)]
        assert names == ["modes", "fc", "dress", "interactions", "gate", "gate", "gate",
                         "gate_trace", "gate_optimize", "gate_optimize", "gate_optimize",
                         "evolve"]


def test_stratified_parameters_cover_every_stratum():
    tasks = TaskStream("gate_design", 3).block(0)
    strata = sorted(int((t["omega0_mhz"] - 0.3) / 0.1) for t in tasks)
    assert strata == [0, 1, 2, 3]


def test_self_time_on_hand_built_tree():
    spans = [
        Span("task", 0.0, 10.0, -1, 0),
        Span("gate.optimize_pulse", 1.0, 4.0, 0, 0),
        Span("dynamics.evolve", 5.0, 9.0, 0, 0),
        Span("trap", 6.0, 7.0, 2, 0),
        Span("task", 10.0, 20.0, -1, 1),
        # overlapping children: their union, 12..18, is covered once
        Span("modes", 12.0, 16.0, 4, 1),
        Span("modes", 14.0, 18.0, 4, 1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0, 4.0, 4.0, 4.0])


def test_tail_keeps_ten_tasks_beyond():
    values = list(range(1, 31))
    value, pct = tail(values)
    assert sum(v > value for v in values) == TAIL_BEYOND
    assert value == 20 and pct == pytest.approx(100 * 20 / 30)
    assert tail([3, 1, 2]) == (3, 100.0)


def test_schema_tables_expand_ranges():
    text = "\n".join([
        "## `interactions` (CSV)",
        "| column | type |",
        "|---|---|",
        "| `R0_um` | float |",
        "| `full_branch_1..3_mhz` | float |",
        "## `evolve` (CSV + JSON)",
        "| `t_us` | float |",
        "Summary JSON:",
        "| `a`, `b` | float |",
    ])
    assert parse_output_schemas(text) == {
        "interactions": [["R0_um", "full_branch_1_mhz", "full_branch_2_mhz", "full_branch_3_mhz"]],
        "evolve": [["t_us"], ["a", "b"]],
    }


def test_every_per_layer_metric_has_a_source():
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        assert (name.endswith((".busy_s", ".calls", ".failed")) or name in COUNTERS
                or name == "trace.overhead_frac"), name
