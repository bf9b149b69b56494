import json
import os

import numpy as np
import pytest

from rydgate import franck_condon
from rydgate.cli import build_parser, main
from rydgate.config import RunConfig, load_config
from rydgate.dynamics import SimConfig
from rydgate.errors import ParseError, TruncationWarning, ValidationError
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

    def test_unparseable_float_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[pulse]\ntau_us = sixty\n")
        with pytest.raises(ParseError, match="tau_us"):
            load_config(path)

    def test_malformed_ini_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("tau_us = 60\n")  # key outside any section
        with pytest.raises(ParseError):
            load_config(path)

    def test_output_format_key_is_gone(self, tmp_path):
        # nothing read it; each subcommand's output type is fixed
        path = tmp_path / "bad.cfg"
        path.write_text("[output]\nformat = csv\n")
        with pytest.raises(ValidationError, match="format"):
            load_config(path)

    def test_n_output_rule_agrees_with_sim_config(self, tmp_path):
        path = tmp_path / "t.cfg"
        path.write_text("[simulation]\nn_output = 2\n")
        cfg = load_config(path)
        assert cfg.simulation.n_output == 2
        assert cfg.sim_config().n_output == 2
        path.write_text("[simulation]\nn_output = 1\n")
        with pytest.raises(ValidationError, match="n_output"):
            load_config(path)
        with pytest.raises(ValidationError, match="n_output"):
            SimConfig(**{**vars(cfg.sim_config()), "n_output": 1})

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
    @pytest.mark.parametrize("raw", ["inf", "nan"])
    def test_non_finite_flag_exit_code(self, flag, key, raw, tmp_path, capsys):
        # inf passed every range rule and ran the phase ladder to MAX_NODES
        # before exiting 3 with an unconverged integral
        out = tmp_path / "gate.json"
        assert main(["gate", flag, raw, "--output", str(out)]) == 2
        assert f"{key} must be finite, got {raw}" in capsys.readouterr().err
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
