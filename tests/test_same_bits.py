"""The same-bits suite of scripts/same_bits.py on this tree alone.

The kept design-point integrals and the node tables outlive a call, so a
result that depends on what ran before differs between a second run in one
process and a run in a fresh process.
"""

import importlib.util
import os
import subprocess
import sys

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _same_bits():
    spec = importlib.util.spec_from_file_location(
        "same_bits", os.path.join(REPO, "scripts", "same_bits.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_small_suite_repeats_in_process_and_in_a_fresh_one(tmp_path):
    same_bits = _same_bits()
    first, second = same_bits.suite(small=True), same_bits.suite(small=True)
    path = tmp_path / "fresh.npz"
    subprocess.run([sys.executable, os.path.join(REPO, "scripts", "same_bits.py"),
                    "--src", os.path.join(REPO, "src"), "--out", str(path), "--small"],
                   check=True, timeout=300)
    with np.load(path, allow_pickle=False) as data:
        fresh = {name: data[name] for name in data.files}
    for other in (second, fresh):
        lines, differing = same_bits.compare(first, other)
        assert differing == 0, [line for line in lines if not line.endswith(
            ("equal", "identical"))]
    # the slice reaches every part of the suite, a root and a case without one
    assert {name.split(".")[0] for name in first} == {
        "tasks", "designs", "scaling", "corners", "drives", "fc", "dynamics", "cli", "config"}
    assert {"root", "NoRoot"} <= {o.split(":")[0] for o in first["designs.outcome"]}
