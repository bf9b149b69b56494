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


def test_bench_summary_reads_every_bench_file(monkeypatch, capsys, tmp_path):
    # the trajectory in ROADMAP's aims 1 and 2 is read from these lines
    files = sorted(f for f in os.listdir(REPO) if re.fullmatch(r"BENCH_\d+\.json", f))
    assert files
    _run_script("bench_summary", [], monkeypatch)
    lines = capsys.readouterr().out.splitlines()
    assert sorted(line.split()[0] for line in lines) == files
    for line in lines:
        assert re.fullmatch(r"BENCH_\d+\.json +(\w+ \w+|no gain; worst \w+ \w+ [+-]\d+\.\d%): "
                            r"\d+ pairs, \d+/\d+ wins, \S+ -> \S+; src \d+ -> \d+", line), line
    # a file without the fields it reads stops the script, naming the file
    broken = tmp_path / "BENCH_0.json"
    broken.write_text('{"claimed_gain": null}')
    with pytest.raises(SystemExit, match="BENCH_0.json: cannot summarise"):
        _run_script("bench_summary", [str(broken)], monkeypatch)


def test_cli_process_time(tmp_path, monkeypatch, capsys):
    samples = tmp_path / "samples.json"
    _run_script("cli_process_time", ["--repeat", "1", "--json", str(samples)], monkeypatch)
    configs = sorted(f[:-4] for f in os.listdir(os.path.join(REPO, "configs"))
                     if f.endswith(".cfg"))
    cases = ["import"] + [f"{cmd} {cfg}" for cfg in configs
                          for cmd in ("modes", "fc", "dress", "interactions", "gate", "evolve")]
    timed = json.loads(samples.read_text(encoding="utf-8"))
    assert list(timed) == ["cold", "warm"]
    for by_tree in timed.values():
        assert list(by_tree) == ["tree"]
        assert list(by_tree["tree"]) == cases
        assert all(len(s) == 1 and s[0] > 0 for s in by_tree["tree"].values())
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 * (len(cases) + 1)
    for line in lines:
        assert re.fullmatch(r"(cold|warm) +(case +tree ms|\w+( \w+)? +\d+\.\d)", line), line
