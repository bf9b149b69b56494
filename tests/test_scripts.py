"""The experiment scripts in scripts/ are thin callers of rydgate.cli.

Each script's main() runs with small arguments and must write the files
whose headers docs/output_schemas.md documents for the CLI.
"""

import csv
import importlib.util
import json
import os
import re
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _schema_tables(section):
    """Field names of each table under the docs heading "## `section`"."""
    with open(os.path.join(REPO, "docs", "output_schemas.md"), encoding="utf-8") as handle:
        text = handle.read()
    body = re.search(rf"^## `{re.escape(section)}`.*?(?=^## |\Z)", text, re.M | re.S)[0]
    tables = []
    for block in re.findall(r"(?:^\|.*\n?)+", body, re.M):
        names = []
        for row in block.splitlines():
            for name in re.findall(r"`([^`]+)`", row.split("|")[1]):
                span = re.fullmatch(r"(.*?)(\d+)\.\.(\d+)(.*)", name)
                names += ([f"{span[1]}{i}{span[4]}" for i in range(int(span[2]), int(span[3]) + 1)]
                          if span else [name])
        tables.append(names)
    return tables


def _csv_header(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return next(csv.reader(handle))


def _run_script(name, argv, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(REPO, "scripts", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    monkeypatch.delenv("RYDGATE_CONFIG", raising=False)
    module.main()


def test_pair_potential_sweep(tmp_path, monkeypatch, capsys):
    out = tmp_path / "sweep.csv"
    _run_script("pair_potential_sweep",
                ["--r-min", "3", "--r-max", "9", "--points", "4", "--out", str(out)],
                monkeypatch)
    assert _csv_header(out) == _schema_tables("interactions")[0]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"wrote {out} (4 rows)"
    assert lines[1].startswith("projected C3/R0^3 within 2% of the full branch for R0 >=")


def test_design_gate(tmp_path, monkeypatch, capsys):
    out = tmp_path / "trace.csv"
    _run_script("design_gate", ["--blockades-mhz", "2.5", "--trace-out", str(out)],
                monkeypatch)
    assert _csv_header(out) == _schema_tables("gate --trace")[0]
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote {out}"


@pytest.mark.filterwarnings("ignore::rydgate.errors.TruncationWarning")
def test_run_gate_dynamics(tmp_path, monkeypatch, capsys):
    out = tmp_path / "dynamics.csv"
    _run_script("run_gate_dynamics", ["--n-phonon-max", "2", "--out", str(out)], monkeypatch)
    columns, summary_keys = _schema_tables("evolve")
    assert _csv_header(out) == columns
    with open(f"{out}.summary.json", encoding="utf-8") as handle:
        assert sorted(json.load(handle)) == sorted(summary_keys)
    assert capsys.readouterr().out.splitlines()[0] == f"wrote {out} and {out}.summary.json"
