import csv
import io
import json
import math
import os
import re

import numpy as np
import pytest

from rydgate import cli, dynamics, franck_condon, from_secular
from rydgate.cli import build_parser, main
from rydgate.config import RunConfig, load_config
from rydgate.constants import CA40_MASS, mhz
from rydgate.dynamics import N_OUTPUT_LIMIT, N_PHONON_MAX_LIMIT, RTOL_FLOOR, SimConfig
from rydgate.errors import ParseError, RydgateError, TruncationWarning, ValidationError
from rydgate.gate import wrap_angle

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATE_DESIGN_CFG = os.path.join(REPO, "configs", "gate_design.cfg")
GATE_DYNAMICS_CFG = os.path.join(REPO, "configs", "gate_dynamics.cfg")
DEFAULTS_CFG = os.path.join(REPO, "configs", "defaults.cfg")


class TestLoadConfig:
    def test_none_gives_defaults(self):
        cfg = load_config(None)
        assert cfg == RunConfig()

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        assert load_config(path) == RunConfig()

    def test_shipped_defaults_file_matches_builtin_defaults(self):
        cfg = load_config(DEFAULTS_CFG)
        ref = RunConfig()
        assert cfg.dressing == ref.dressing
        assert cfg.pulse == ref.pulse
        assert cfg.simulation == ref.simulation
        assert cfg.trap.alpha == pytest.approx(ref.trap.alpha, rel=1e-12)
        assert cfg.trap.beta == pytest.approx(ref.trap.beta, rel=1e-12)

    def test_gate_design_config_values(self):
        cfg = load_config(GATE_DESIGN_CFG)
        assert cfg.pulse.omega0_mhz == 0.5
        assert cfg.pulse.delta0_mhz == 0.639
        assert cfg.pulse.tau_us == 60.0
        assert cfg.simulation.blockade_mhz == 2.5

    def test_gate_dynamics_config_values(self):
        cfg = load_config(GATE_DYNAMICS_CFG)
        sim = cfg.sim_config()
        assert sim.eta == 0.5
        assert sim.omega_z == pytest.approx(2 * np.pi * 1.0, rel=1e-12)
        assert sim.n_phonon_max == 5

    def test_missing_file_is_parse_error(self):
        with pytest.raises(ParseError):
            load_config("/nonexistent/path.cfg")

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[nonsense]\nx = 1\n")
        with pytest.raises(ValidationError, match="nonsense"):
            load_config(path)

    def test_unknown_key_rejected_by_name(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[pulse]\nomega_mhz = 0.5\n")
        with pytest.raises(ValidationError, match="omega_mhz"):
            load_config(path)

    def test_default_section_is_an_unknown_section(self, tmp_path):
        # [DEFAULT] is a section like any other, in a file or as an override;
        # no key of it reaches another section
        path = tmp_path / "bad.cfg"
        path.write_text("[DEFAULT]\nzzz = 1\n\n[interactions]\nr_min_um = 2.5\nbogus = 3\n")
        with pytest.raises(ValidationError, match=r"^unknown config section \[DEFAULT\]$"):
            load_config(path)
        with pytest.raises(ValidationError, match=r"^unknown config section \[DEFAULT\]$"):
            load_config(None, {"DEFAULT.tau_us": "50", "pulse.tau_us": "50"})

    def test_rtol_below_stepper_floor_rejected(self, tmp_path):
        path = tmp_path / "tight.cfg"
        path.write_text("[simulation]\nrtol = 1e-15\n")
        with pytest.raises(ValidationError, match="rtol"):
            load_config(path)

    def test_negative_mw_rabi_rejected_by_name(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[dressing]\nomega_mw_mhz = -1\n")
        with pytest.raises(ValidationError, match="omega_mw_mhz"):
            load_config(path)

    def test_non_finite_keys_rejected_in_every_section(self, tmp_path):
        for section, key in (("trap", "alpha"), ("trap", "omega_z_mhz_override"),
                             ("dressing", "omega_mw_mhz"), ("interactions", "r_max_um"),
                             ("pulse", "delta0_mhz"), ("simulation", "tau0_us")):
            path = tmp_path / "bad.cfg"
            path.write_text(f"[{section}]\n{key} = inf\n")
            with pytest.raises(ValidationError, match=f"{key} must be finite"):
                load_config(path)

    @pytest.mark.parametrize("raw", [str(dynamics.N_PHONON_MAX_LIMIT + 1), "1000000"])
    def test_phonon_cutoff_above_limit_rejected(self, raw, tmp_path):
        # the file shares SimConfig's limit and refuses before allocating
        path = tmp_path / "big.cfg"
        path.write_text(f"[simulation]\nn_phonon_max = {raw}\n")
        with pytest.raises(ValidationError, match=r"\[simulation\] n_phonon_max must lie in \[1, 40\]"):
            load_config(path)
        path.write_text(f"[simulation]\nn_phonon_max = {dynamics.N_PHONON_MAX_LIMIT}\n")
        assert load_config(path).sim_config().n_phonon_max == 40

    def test_unparseable_float_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[pulse]\ntau_us = sixty\n")
        with pytest.raises(ParseError, match="tau_us"):
            load_config(path)

    def test_malformed_ini_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        for content, match in ((b"tau_us = 60\n", "malformed"),  # key outside any section
                               (b"\xff\xfe[pulse]\n", "cannot read .*'utf-8' codec")):  # not UTF-8
            path.write_bytes(content)
            with pytest.raises(ParseError, match=match):
                load_config(path)

    @pytest.mark.parametrize("overrides", [{"pulse": "1"}, {"a.b.c": "1"},
                                           {"pulse.tau_us": None}],
                             ids=["no_dot", "two_dots", "no_value"])
    def test_malformed_override_is_parse_error(self, overrides, tmp_path):
        # refused before the file is opened: its own error comes second
        (dotted, raw), = overrides.items()
        match = re.escape(f"override {dotted!r} = {raw!r}: ")
        malformed = tmp_path / "bad.cfg"
        malformed.write_bytes(b"tau_us = 60\n")
        for path in (None, GATE_DESIGN_CFG, malformed, tmp_path / "missing.cfg"):
            with pytest.raises(ParseError, match=match):
                load_config(path, overrides)

    def test_output_format_key_is_gone(self, tmp_path):
        # nothing read it; each subcommand's output type is fixed
        path = tmp_path / "bad.cfg"
        path.write_text("[output]\nformat = csv\n")
        with pytest.raises(ValidationError, match="format"):
            load_config(path)

    @pytest.mark.parametrize("key, value, inside", [
        ("n_phonon_max", 1, True),
        ("n_phonon_max", N_PHONON_MAX_LIMIT, True),
        ("n_phonon_max", 0, False),
        ("n_phonon_max", N_PHONON_MAX_LIMIT + 1, False),
        ("rtol", float(RTOL_FLOOR), True),
        ("rtol", 1e-3, True),
        ("rtol", math.nextafter(RTOL_FLOOR, 0.0), False),
        ("rtol", math.nextafter(1e-3, 1.0), False),
        ("atol", 1e-100, True),
        ("atol", 1e-3, True),
        ("atol", 0.0, False),
        ("atol", 5e-324, False),
        ("atol", math.nextafter(1e-100, 0.0), False),
        ("atol", math.nextafter(1e-3, 1.0), False),
        ("n_output", 2, True),
        ("n_output", N_OUTPUT_LIMIT, True),
        ("n_output", 1, False),
        ("n_output", N_OUTPUT_LIMIT + 1, False),
    ])
    def test_simulation_rule_agrees_with_sim_config(self, key, value, inside, tmp_path):
        # the [simulation] key and the SimConfig field of one name obey one
        # rule: both accept or both refuse, in the same words
        path = tmp_path / "t.cfg"
        path.write_text(f"[simulation]\n{key} = {value!r}\n")
        fields = {**vars(RunConfig().sim_config()), key: value}
        if inside:
            assert getattr(load_config(path).sim_config(), key) == value
            assert getattr(SimConfig(**fields), key) == value
            return
        with pytest.raises(ValidationError) as by_file:
            load_config(path)
        with pytest.raises(ValidationError) as by_field:
            SimConfig(**fields)
        assert str(by_file.value) == f"[simulation] {by_field.value}"

    @pytest.mark.parametrize("raw, inside", [("2", True), ("10000", True),
                                             ("1", False), ("10001", False)])
    def test_sweep_points_range(self, raw, inside):
        if inside:
            assert load_config(None, {"interactions.points": raw}).interactions.points == int(raw)
        else:
            with pytest.raises(ValidationError,
                               match=rf"\[interactions\] points must lie in \[2, 10000\], got {raw}$"):
                load_config(None, {"interactions.points": raw})

    def test_default_run_settings_are_sim_config_defaults(self):
        # [simulation]'s n_phonon_max, rtol, atol and n_output default to SimConfig's
        sim = RunConfig().sim_config()
        assert sim == SimConfig(blockade=sim.blockade, omega_z=sim.omega_z, eta=sim.eta,
                                pulse=sim.pulse)

    def test_percent_sign_is_parse_error(self, tmp_path):
        # no interpolation: a stray % is an unparseable value, not a crash
        path = tmp_path / "bad.cfg"
        path.write_text("[pulse]\ntau_us = 60%\n")
        with pytest.raises(ParseError, match="tau_us"):
            load_config(path)

    def test_overrides_replace_file_values_before_validation(self, tmp_path):
        path = tmp_path / "t.cfg"
        path.write_text("[interactions]\npoints = 1\n")
        cfg = load_config(path, {"interactions.points": "7", "pulse.tau_us": "50"})
        assert cfg.interactions.points == 7
        assert cfg.pulse.tau_us == 50.0
        with pytest.raises(ValidationError, match=r"\[pulse\] tau_us"):
            load_config(None, {"pulse.tau_us": "-5"})

    def test_omega_z_override_rederives_beta(self, tmp_path):
        path = tmp_path / "t.cfg"
        path.write_text("[trap]\nomega_z_mhz_override = 2.0\n")
        cfg = load_config(path)
        assert cfg.trap_omega_z() == pytest.approx(2 * np.pi * 2e6, rel=1e-12)

    def test_omega_z_override_is_from_secular_beta(self):
        # the override and from_secular state one axial law, so beta keeps its
        # bits; a reordered product differs in about a quarter of these values
        for omega_z_mhz in np.geomspace(0.1, 10.0, 40).tolist():
            cfg = load_config(None, {"trap.omega_z_mhz_override": repr(omega_z_mhz)})
            omega_z = mhz(omega_z_mhz) * 1e6
            expected = from_secular(omega_z, 4.0 * omega_z, 30.0 * omega_z, CA40_MASS).beta
            beta = cfg.trap.trap_config().beta
            assert np.float64(beta).view(np.uint64) == np.float64(expected).view(np.uint64)


def reference_csv_text(header, rows):
    """The CLI's former table writer, kept as the reference: csv.writer, numbers through fmt."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell if isinstance(cell, str) else cli.fmt(cell) for cell in row])
    return buf.getvalue()


# signed zeros, infinities, NaN, the smallest subnormal, far exponents, values
# that 12 significant digits round, Python and numpy integers and numpy scalars
CSV_NUMBERS = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e300, -1e300,
               1e-300, -1e-300, 0.1 + 0.2, 1 / 3, 123456789012.5, 9.9999999999995, 1e16,
               1e-5, 1e-4, 7, -3, 2**53 + 1, np.int64(-12), np.int32(5), np.uint8(200),
               np.float64(-0.0), np.float64(2.5e-7), np.float64(math.nan), np.float32(0.1)]


@pytest.mark.parametrize("n_text", [0, 1, 2])  # gate --trace and evolve, fc, modes
def test_csv_text_equals_the_csv_writer(n_text):
    rng = np.random.default_rng(n_text)
    numbers = CSV_NUMBERS + list(rng.normal(size=16) * 10.0 ** rng.integers(-30, 30, 16))
    rows = [numbers[i:i + 4] for i in range(0, len(numbers), 4)]
    text = [[f"k={i}.{i % 3}" for i in range(len(rows))],
            ["ground" if i % 2 else "p_state" for i in range(len(rows))],
            ["XYZ"[i % 3] for i in range(len(rows))]][:n_text]
    header = ["bra", "config", "axis"][:n_text] + ["a", "b", "c", "d"]
    expected = reference_csv_text(header, [[*cells, *row] for *cells, row in zip(*text, rows)])
    assert cli._csv_text(header, rows, text) == expected
    assert cli._csv_text(header, np.array(rows, dtype=float), text) == expected


@pytest.mark.filterwarnings("ignore::rydgate.errors.TruncationWarning")
@pytest.mark.filterwarnings("ignore::rydgate.errors.WeakDriveWarning")
class TestCLI:
    def test_deterministic_gate_json(self, tmp_path, capsys):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["gate", "--config", GATE_DESIGN_CFG, "--output", str(out1)]) == 0
        assert main(["gate", "--config", GATE_DESIGN_CFG, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_gate_json_contents(self, tmp_path):
        out = tmp_path / "gate.json"
        assert main(["gate", "--config", GATE_DESIGN_CFG, "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["delta0_mhz"] == 0.639
        assert abs(wrap_angle(payload["phi_ent"] - np.pi)) < 0.05 * np.pi
        assert set(payload) == {
            "omega0_mhz", "delta0_mhz", "tau_us", "blockade_mhz", "phi_dd",
            "phi_de", "phi_ent", "adiabaticity_ratio", "unitary_diag_re",
            "unitary_diag_im",
        }

    def test_gate_optimize_recovers_design_detuning(self, tmp_path):
        out = tmp_path / "opt.json"
        code = main(["gate", "--config", GATE_DESIGN_CFG, "--optimize",
                     "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert abs(payload["delta0_mhz"] - 0.639) / 0.639 < 0.02

    def test_gate_trace_csv(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["gate", "--config", GATE_DESIGN_CFG, "--trace",
                     "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t_us,phi_DD,phi_DE,phi_ent"
        assert len(lines) == 202  # header + 201 grid points

    def test_interactions_row_count(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["interactions", "--r-min", "2", "--r-max", "10",
                     "--points", "50", "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 51
        assert lines[0].startswith("R0_um,vdw_mhz,dd_minus_mhz,full_branch_1_mhz")

    def test_interactions_determinism(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert main(["interactions", "--r-min", "4", "--r-max", "8",
                         "--points", "9", "--output", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_modes_csv_header(self, capsys):
        assert main(["modes"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "config,axis,mode,freq_mhz,v_ion1,v_ion2"
        assert len(lines) == 13  # header + 2 configs x 3 axes x 2 modes

    def test_fc_csv_shape(self, capsys):
        assert main(["fc", "--n-max", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split(",")[0] == "bra"
        assert len(lines) == 10  # header + 9 bra states

    @pytest.mark.parametrize("raw", ["-1", "41", "abc"])
    def test_fc_n_max_out_of_range_exit_code(self, raw, tmp_path, capsys):
        out = tmp_path / "fc.csv"
        with pytest.raises(SystemExit) as exc:
            main(["fc", "--n-max", raw, "--output", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--n-max: must be an integer in [0, 40], got '{raw}'" in err
        assert "_fc_n_max" not in err
        assert not out.exists()

    def test_fc_n_max_limit_is_the_library_limit(self, monkeypatch, tmp_path):
        monkeypatch.setattr(franck_condon, "N_MAX_LIMIT", 2)
        with pytest.raises(SystemExit) as exc:
            main(["fc", "--n-max", "3", "--output", str(tmp_path / "fc.csv")])
        assert exc.value.code == 2

    def test_fc_n_max_zero_accepted(self, tmp_path):
        out = tmp_path / "fc.csv"
        with pytest.warns(TruncationWarning):  # bare P on both ions: row norm 0.907
            assert main(["fc", "--n-max", "0", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "bra,j=0.0"
        assert len(lines) == 2 and lines[1].startswith("k=0.0,")

    def test_dress_json_schema(self, capsys):
        assert main(["dress"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "c_plus", "c_minus", "n_plus", "n_minus", "e_plus", "e_minus",
            "pol_plus", "pol_minus", "e_plus_mhz", "e_minus_mhz",
        }

    def test_validation_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[dressing]\nomega_mw_mhz = -1\n")
        assert main(["dress", "--config", str(bad)]) == 2
        assert "omega_mw_mhz" in capsys.readouterr().err

    def test_rtol_below_stepper_floor_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "tight.cfg"
        bad.write_text("[simulation]\nrtol = 1e-15\n")
        out = tmp_path / "evolve.csv"
        assert main(["evolve", "--config", str(bad), "--output", str(out)]) == 2
        assert "rtol" in capsys.readouterr().err
        assert not out.exists()

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        # schema-valid trap that fails radial confinement
        bad = tmp_path / "unconfined.cfg"
        bad.write_text("[trap]\nalpha = 1e3\n")
        assert main(["modes", "--config", str(bad)]) == 3

    def test_no_root_exit_code(self, capsys):
        code = main(["gate", "--omega0-mhz", "0", "--optimize"])
        assert code == 3

    def test_env_var_config(self, tmp_path, capsys, monkeypatch):
        cfgfile = tmp_path / "env.cfg"
        cfgfile.write_text("[pulse]\ndelta0_mhz = 0.7\n")
        monkeypatch.setenv("RYDGATE_CONFIG", str(cfgfile))
        assert main(["gate"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["delta0_mhz"] == 0.7

    def test_evolve_outputs(self, tmp_path):
        out = tmp_path / "evolve.csv"
        assert main(["evolve", "--config", GATE_DYNAMICS_CFG,
                     "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t_us,p_DD,p_Dm,p_mm,p_init,mean_phonon,norm"
        assert len(lines) == 202
        summary = json.loads((tmp_path / "evolve.csv.summary.json").read_text())
        assert set(summary) == {
            "phi_ent_dynamic", "phi_dd_dynamic", "phi_de_dynamic", "P_loss",
            "tau0_us", "max_p_mm", "max_phonon_deviation", "norm_drift",
        }
        assert summary["norm_drift"] < 1e-8

    def test_evolve_without_output_writes_stdout_and_stderr(self, tmp_path, capsys):
        # the CSV goes to stdout and the summary to stderr, with the file outputs' bytes
        out = tmp_path / "evolve.csv"
        assert main(["evolve", "--config", GATE_DYNAMICS_CFG, "--output", str(out)]) == 0
        capsys.readouterr()
        assert main(["evolve", "--config", GATE_DYNAMICS_CFG]) == 0
        captured = capsys.readouterr()
        assert captured.out.encode() == out.read_bytes()
        assert captured.err.encode() == (tmp_path / "evolve.csv.summary.json").read_bytes()

    @pytest.mark.parametrize("command, written", [
        (["dress"], "x.json"),
        (["evolve", "--config", GATE_DYNAMICS_CFG], "x.json")])  # the CSV is written first
    def test_unwritable_output_exit_code(self, command, written, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert main([*command, "--output", str(missing / "x.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write output file {missing / written}: ")
        assert "Traceback" not in err
        assert not missing.exists()

    @pytest.mark.parametrize("text, line", [
        ("[interactions]\npoints = 40\n  50\n", 3),
        ("[pulse]\n\ttau_us = 55\n", 2),
        ("[pulse]\ntau_us\n", 2),
        ("[pulse]\ntau_us: 55\n", 2),
        ("[pulse]\ntau_us = 55 ; us\n", 2),
        ("[pulse] # design point\n", 1),
        ("# c\ntau_us = 55\n[pulse]\n", 2),
        ("[pulse\ntau_us = 55\n", 1),
        ("[pulse]\n[simulation]\n[pulse]\n", 3),
        ("[pulse]\ntau_us = 55\nTAU_US = 56\n", 3),
    ], ids=["continuation", "indented_key", "no_delimiter", "colon_delimiter", "inline_comment",
            "comment_in_header", "key_before_header", "malformed_header", "repeated_section",
            "repeated_key"])
    def test_refused_config_form_exit_code(self, text, line, tmp_path, capsys):
        # a line outside the plain INI form: exit 2, the file and line on stderr, no file
        cfg = tmp_path / "form.cfg"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "gate.json"
        assert main(["gate", "--config", str(cfg), "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: malformed config file {cfg}, line {line}: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_evolve_output_directory_writes_no_summary(self, tmp_path, capsys):
        # the CSV's failed write ends the run before the summary is written
        target = tmp_path / "adir"
        target.mkdir()
        assert main(["evolve", "--config", GATE_DYNAMICS_CFG, "--output", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write output file {target}: ")
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir"]
        assert list(target.iterdir()) == []

    def test_evolve_unwritable_summary_removes_the_csv(self, tmp_path, capsys):
        # the summary's failed write removes the CSV written before it
        out = tmp_path / "x.csv"
        (tmp_path / "x.csv.summary.json").mkdir()
        assert main(["evolve", "--config", GATE_DYNAMICS_CFG, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write output file {out}.summary.json: ")
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv.summary.json"]
        assert list((tmp_path / "x.csv.summary.json").iterdir()) == []

    def test_evolve_command_returns_its_texts(self, tmp_path, capsys):
        # the subcommand only computes; main writes its outputs, with their bytes
        out = tmp_path / "evolve.csv"
        assert main(["evolve", "--config", GATE_DYNAMICS_CFG, "--output", str(out)]) == 0
        capsys.readouterr()
        args = build_parser().parse_args(["evolve"])
        outputs = cli._cmd_evolve(load_config(GATE_DYNAMICS_CFG), args)
        assert capsys.readouterr() == ("", "")
        assert [(suffix, text.encode()) for suffix, text in outputs] == [
            ("", out.read_bytes()),
            (".summary.json", (tmp_path / "evolve.csv.summary.json").read_bytes())]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "evolve.csv", "evolve.csv.summary.json"]

    @pytest.mark.parametrize("option", ["--config", "--output"])
    def test_option_before_subcommand_rejected(self, tmp_path, option, capsys):
        # options belong to the subcommand; before it they must be rejected,
        # not overwritten by the subcommand's defaults
        bad = tmp_path / "bad.cfg"
        bad.write_text("[pulse]\ntau_us = -1\n")
        value = {"--config": str(bad), "--output": str(tmp_path / "top.json")}[option]
        out = tmp_path / "sub.json"
        with pytest.raises(SystemExit) as exc:
            main([option, value, "gate", "--output", str(out)])
        assert exc.value.code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]

    def test_negative_blockade_flag_rejected_like_config_key(self, capsys):
        assert main(["gate", "--blockade-mhz", "-1"]) == 2
        assert "[simulation] blockade_mhz" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, key", [("--tau-us", "[pulse] tau_us"),
                                           ("--blockade-mhz", "[simulation] blockade_mhz"),
                                           ("--omega0-mhz", "[pulse] omega0_mhz")])
    @pytest.mark.parametrize("raw", ["inf", "nan", "-inf", "-nan"])
    def test_non_finite_flag_exit_code(self, flag, key, raw, tmp_path, capsys):
        # inf passed every range rule and ran the phase ladder to MAX_NODES
        # before exiting 3 with an unconverged integral; argparse took -inf
        # for an unknown option
        out = tmp_path / "gate.json"
        assert main(["gate", flag, raw, "--output", str(out)]) == 2
        assert f"{key} must be finite, got {float(raw)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("raw", ["-1e-1", "-1E-1"])
    def test_negative_exponent_flag_equals_joined_form(self, raw, tmp_path, capsys):
        # argparse alone reads "-1e-1" as an unknown option on some Python versions;
        # both forms reach --delta0-mhz, whose range rule then refuses the value
        spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
        assert main(["gate", "--delta0-mhz", raw, "--output", str(spaced)]) == 2
        spaced_err = capsys.readouterr().err
        assert main(["gate", f"--delta0-mhz={raw}", "--output", str(joined)]) == 2
        assert capsys.readouterr().err == spaced_err
        assert "[pulse] delta0_mhz must be > 0, got -0.1" in spaced_err
        assert not spaced.exists() and not joined.exists()

    @pytest.mark.parametrize("command", ["gate", "evolve"])
    def test_non_positive_delta0_exit_code(self, command, tmp_path, capsys):
        # at delta0 <= 0 the qubit states follow another adiabatic branch than
        # the light shifts the design integrates
        bad = tmp_path / "bad.cfg"
        bad.write_text("[pulse]\ndelta0_mhz = 0\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(bad), "--output", str(out)]) == 2
        assert "[pulse] delta0_mhz must be > 0, got 0.0" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]

    @pytest.mark.parametrize("command", ["gate", "evolve"])
    @pytest.mark.parametrize("section, key, bound, requirement", [
        ("pulse", "tau_us", 500.0, "must lie in (0, 500]"),
        ("simulation", "blockade_mhz", 50.0, "must lie in [0, 50]")])
    def test_above_pulse_bound_exit_code(self, command, section, key, bound, requirement,
                                         tmp_path, capsys):
        # a long or strong enough pulse ran evolve into the stepper's
        # MAX_ATTEMPTS and exited 3; above the bound it is a validation error
        above = math.nextafter(bound, math.inf)
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"[{section}]\n{key} = {above!r}\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(bad), "--output", str(out)]) == 2
        assert f"[{section}] {key} {requirement}, got {above!r}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]
        cfg = load_config(bad, {f"{section}.{key}": repr(bound)})  # the bound itself is admitted
        assert getattr(getattr(cfg, section), key) == bound

    @pytest.mark.parametrize("atol", [1e-200, 1e-300])
    def test_atol_below_floor_exit_code(self, atol, tmp_path, capsys):
        # below the floor the first step's error norm overflowed, and evolve
        # ran into the stepper's MAX_ATTEMPTS (about 6 s) and exited 3
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"[simulation]\natol = {atol!r}\n")
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(bad), "--output", str(out)]) == 2
        assert (f"[simulation] atol must lie in [1e-100, 1e-3], got {atol!r}"
                in capsys.readouterr().err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]

    def test_flag_is_not_taken_as_a_value(self, tmp_path, capsys):
        out = tmp_path / "gate.json"
        with pytest.raises(SystemExit) as exc:
            main(["gate", "--tau-us", "--optimize", "--output", str(out)])
        assert exc.value.code == 2
        assert "--tau-us: expected one argument" in capsys.readouterr().err
        assert not out.exists()

    def test_phonon_cutoff_above_limit_exit_code(self, tmp_path, capsys):
        # a validation error (exit 2), not a MemoryError traceback from numpy
        bad = tmp_path / "big.cfg"
        bad.write_text("[simulation]\nn_phonon_max = 1000000\n")
        out = tmp_path / "evolve.csv"
        assert main(["evolve", "--config", str(bad), "--output", str(out)]) == 2
        assert "[simulation] n_phonon_max must lie in [1, 40]" in capsys.readouterr().err
        assert not out.exists()

    def test_output_grid_above_limit_exit_code(self, tmp_path, capsys):
        # a validation error (exit 2), not a MemoryError traceback from np.linspace
        bad = tmp_path / "big.cfg"
        bad.write_text("[simulation]\nn_output = 1000000000000\n")
        out = tmp_path / "evolve.csv"
        assert main(["evolve", "--config", str(bad), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "[simulation] n_output must lie in [2, 10000], got 1000000000000" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.cfg"]

    def test_sweep_points_above_limit_exit_code(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["interactions", "--points", "1000000000000", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "[interactions] points must lie in [2, 10000], got 1000000000000" in err
        assert not out.exists()

    @pytest.mark.parametrize("error", RydgateError.__subclasses__(), ids=lambda cls: cls.__name__)
    def test_exit_code_follows_error_class(self, error, monkeypatch, tmp_path, capsys):
        # every package error leaves by its class: 2 for the config's, 3 for
        # the numerical failures, never a traceback
        def fail(cfg, args):
            raise error("raised inside the subcommand")

        monkeypatch.setitem(cli._COMMANDS, "dress", fail)
        out = tmp_path / "dress.json"
        code = main(["dress", "--output", str(out)])
        assert code == (2 if error in (ParseError, ValidationError) else 3)
        assert "raised inside the subcommand" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("raw", ["abc", "60%"])
    def test_unparseable_flag_exit_code(self, raw, capsys):
        assert main(["gate", "--tau-us", raw]) == 2
        assert "[pulse] tau_us" in capsys.readouterr().err

    def test_points_flag_overrides_invalid_file_value(self, tmp_path):
        cfgfile = tmp_path / "p.cfg"
        cfgfile.write_text("[interactions]\npoints = 1\n")
        out = tmp_path / "sweep.csv"
        assert main(["interactions", "--config", str(cfgfile), "--points", "50",
                     "--output", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 51

    @pytest.mark.parametrize("r_max", ["3", "2.5"], ids=["equal", "reversed"])
    def test_sweep_bounds_out_of_order_exit_code(self, r_max, tmp_path, capsys):
        cfgfile = tmp_path / "r.cfg"
        cfgfile.write_text(f"[interactions]\nr_min_um = 3\nr_max_um = {r_max}\n")
        out = tmp_path / "sweep.csv"
        assert main(["interactions", "--config", str(cfgfile), "--output", str(out)]) == 2
        assert capsys.readouterr().err == "error: [interactions] r_min_um must be < r_max_um\n"
        assert not out.exists()

    def test_r_max_flag_overrides_file_before_range_check(self, tmp_path):
        cfgfile = tmp_path / "r.cfg"
        cfgfile.write_text("[interactions]\nr_min_um = 12\n")
        out = tmp_path / "sweep.csv"
        assert main(["interactions", "--config", str(cfgfile), "--r-max", "14",
                     "--points", "3", "--output", str(out)]) == 0
        r0 = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert r0 == ["12", "13", "14"]

    @pytest.mark.parametrize("extra", [[], ["--trace"], ["--optimize"]])
    def test_gate_flags_equal_config_keys(self, tmp_path, extra):
        cfgfile = tmp_path / "g.cfg"
        cfgfile.write_text("[pulse]\nomega0_mhz = 0.4876\ndelta0_mhz = 0.65\n"
                           "tau_us = 58.1234\n[simulation]\nblockade_mhz = 2.6543\n")
        by_file, by_flag = tmp_path / "file.out", tmp_path / "flag.out"
        assert main(["gate", *extra, "--config", str(cfgfile), "--output", str(by_file)]) == 0
        assert main(["gate", *extra, "--omega0-mhz", "0.4876", "--delta0-mhz", "0.65",
                     "--tau-us", "58.1234", "--blockade-mhz", "2.6543",
                     "--output", str(by_flag)]) == 0
        assert by_file.read_bytes() == by_flag.read_bytes()

    def test_interactions_flags_equal_config_keys(self, tmp_path):
        cfgfile = tmp_path / "i.cfg"
        cfgfile.write_text("[interactions]\nr_min_um = 3.3\nr_max_um = 7.9\npoints = 37\n")
        by_file, by_flag = tmp_path / "file.csv", tmp_path / "flag.csv"
        assert main(["interactions", "--config", str(cfgfile), "--output", str(by_file)]) == 0
        assert main(["interactions", "--r-min", "3.3", "--r-max", "7.9", "--points", "37",
                     "--output", str(by_flag)]) == 0
        assert by_file.read_bytes() == by_flag.read_bytes()

    def test_cached_parser_keeps_calls_apart(self, tmp_path, capsys):
        # the parser is built once per process; each call must still give the
        # files and exit code of a fresh parser, and no flag may reach the next,
        # not even from a call that fails to parse
        bad_call = ["gate", "--config", GATE_DESIGN_CFG, "--tau-us", "30", "--no-such-flag", "1"]
        calls = [
            ["gate", "--config", GATE_DESIGN_CFG, "--optimize", "--tau-us", "55",
             "--blockade-mhz", "3.1"],
            bad_call,
            ["gate", "--config", GATE_DESIGN_CFG],
            ["evolve", "--config", GATE_DYNAMICS_CFG],
            bad_call,
            ["evolve", "--config", GATE_DYNAMICS_CFG],
        ]

        def run(out_dir, fresh):
            out_dir.mkdir()
            results = []
            for i, argv in enumerate(calls):
                if fresh:
                    build_parser.cache_clear()
                try:
                    code = main(argv + ["--output", str(out_dir / f"{i}.out")])
                except SystemExit as exc:
                    code = exc.code
                files = {p.name: p.read_bytes() for p in out_dir.glob(f"{i}.out*")}
                results.append((code, files))
            return results

        fresh = run(tmp_path / "fresh", fresh=True)
        cached = run(tmp_path / "cached", fresh=False)
        assert build_parser() is build_parser()
        assert [code for code, _ in cached] == [0, 2, 0, 0, 2, 0]
        assert [sorted(files) for _, files in cached] == [
            ["0.out"], [], ["2.out"], ["3.out", "3.out.summary.json"], [],
            ["5.out", "5.out.summary.json"]]
        assert cached == fresh
        assert cached[3][1]["3.out"] == cached[5][1]["5.out"]
        optimized, plain = (json.loads(cached[i][1][f"{i}.out"]) for i in (0, 2))
        assert (optimized["tau_us"], optimized["blockade_mhz"]) == (55, 3.1)
        assert (plain["tau_us"], plain["blockade_mhz"], plain["delta0_mhz"]) == (60, 2.5, 0.639)
