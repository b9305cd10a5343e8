import argparse
import contextlib
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

import mcmimo.cli as cli
import mcmimo.montecarlo as mc
import mcmimo.network as network
import mcmimo.regions as regions
import mcmimo.scenarios as scenarios
from mcmimo import PRESET_NAMES, SCHEMES
from mcmimo.cli import ConfigError, RunConfig, emit_csv, main, parse_config
from mcmimo.montecarlo import MAX_TRIALS
from mcmimo.scenarios import MAX_GRID_POINTS, preset_scenario, sweep


GOOD_EXPLICIT = {
    "params": {"L": 2, "K": 4, "M": 10000.0, "rho_u": 30.0, "rho_p": 120.0,
               "alpha_pl": 2.0, "d0": 100.0},
    "layout": {"kind": "two_cell", "x": 400.0, "spacing": 800.0,
               "user_angle_deg": 180.0},
    "unit": "bits",
}


class TestParseConfig:
    def test_preset_scenario_a_values(self):
        cfg = parse_config({"preset": "two-cell-scenario-a"})
        p = cfg.scenario.params
        assert (p.K, p.alpha_pl, p.rho_u, p.rho_p, p.d0) == (4, 2.0, 30.0, 120.0, 100.0)
        args = dict(cfg.scenario.layout_args)
        assert (args["x"], args["spacing"]) == (400.0, 800.0)

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigError, match="'antennaz'"):
            parse_config({"preset": "two-cell-scenario-a", "antennaz": 4})

    def test_unknown_params_key_named(self):
        bad = json.loads(json.dumps(GOOD_EXPLICIT))
        bad["params"]["shadowing"] = 8.0
        with pytest.raises(ConfigError, match="'shadowing'"):
            parse_config(bad)

    def test_tau_is_not_a_parameter(self, tmp_path, capsys):
        bad = json.loads(json.dumps(GOOD_EXPLICIT))
        bad["params"]["tau"] = 4
        cfg = tmp_path / "tau.json"
        cfg.write_text(json.dumps(bad))
        assert main(["symrate", "--config", str(cfg)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == ["error: unknown params key 'tau'"]

    def test_negative_radius_named(self):
        bad = json.loads(json.dumps(GOOD_EXPLICIT))
        bad["layout"]["x"] = -50.0
        with pytest.raises(ConfigError, match="'x'"):
            parse_config(bad)

    def test_preset_and_explicit_mutually_exclusive(self):
        bad = dict(GOOD_EXPLICIT)
        bad["preset"] = "two-cell-scenario-a"
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(bad)
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config({"unit": "bits"})

    def test_axis_sweep_without_m_is_fine(self):
        cfg = parse_config({"preset": "two-cell-scenario-a", "axis": "M",
                            "grid": [1e3, 1e4, 1e5]})
        assert cfg.axis == "M"
        assert cfg.grid == (1e3, 1e4, 1e5)

    def test_explicit_params_may_omit_m_when_sweeping_it(self):
        raw = json.loads(json.dumps(GOOD_EXPLICIT))
        del raw["params"]["M"]
        with pytest.raises(ConfigError, match="'M'"):
            parse_config(raw)
        cfg = parse_config(dict(raw, axis="M", grid=[1e3, 1e4]))
        assert cfg.scenario.params.M == 1e3

    def test_explicit_layout_shape_must_match_params(self):
        raw = {
            "params": {"L": 2, "K": 2, "M": 100.0, "rho_u": 1.0, "rho_p": 2.0},
            "layout": {"kind": "explicit",
                       "bs_positions": [[0.0, 0.0], [500.0, 0.0]],
                       "user_positions": [[[100.0, 0.0]], [[600.0, 0.0]]]},
        }
        with pytest.raises(ConfigError, match="users per cell"):
            parse_config(raw)

    def test_grid_object_form(self):
        cfg = parse_config({"preset": "two-cell-scenario-a",
                            "grid": {"scale": "log", "start": 1e3, "stop": 1e5,
                                     "num": 3}})
        assert cfg.grid == pytest.approx((1e3, 1e4, 1e5))

    def test_grid_must_increase(self):
        with pytest.raises(ConfigError, match="increasing"):
            parse_config({"preset": "two-cell-scenario-a", "grid": [2.0, 1.0]})

    def test_bad_unit_rejected(self):
        with pytest.raises(ConfigError, match="unit"):
            parse_config({"preset": "two-cell-scenario-a", "unit": "dB"})

    def test_round_trip_preset(self):
        cfg = parse_config({"preset": "three-cell-theta", "unit": "nats",
                            "scheme": "snd", "seed": 7})
        again = parse_config(cfg.to_dict())
        assert again == cfg

    def test_round_trip_explicit(self):
        cfg = parse_config(dict(GOOD_EXPLICIT, scheme="sd", trials=2000))
        again = parse_config(cfg.to_dict())
        assert again == cfg

    def test_round_trip_explicit_positions(self):
        raw = {
            "params": {"L": 2, "K": 1, "M": 100.0, "rho_u": 1.0, "rho_p": 2.0},
            "layout": {"kind": "explicit",
                       "bs_positions": [[0.0, 0.0], [500.0, 0.0]],
                       "user_positions": [[[100.0, 0.0]], [[600.0, 0.0]]]},
        }
        cfg = parse_config(raw)
        again = parse_config(cfg.to_dict())
        assert again == cfg

    @pytest.mark.parametrize("positions", [
        {}, None, [[0.0, 0.0], [500.0, None]], [[0.0, 0.0], [500.0, "0"]],
        [[True, False], [False, True]], [[0, True], [500, 0]]],
        ids=["object", "null", "null-entry", "string-entry", "booleans", "boolean-entry"])
    def test_explicit_positions_must_be_numbers(self, positions, tmp_path, capsys):
        # an object once escaped as a TypeError, a null entry was read as nan,
        # a string entry as its number and a true beside ints as 1
        raw = {"params": {"L": 2, "K": 1, "M": 100.0, "rho_u": 1.0, "rho_p": 2.0},
               "layout": {"kind": "explicit", "bs_positions": positions,
                          "user_positions": [[[100.0, 0.0]], [[600.0, 0.0]]]}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert run_cli("symrate", "--config", str(path)) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "error: layout: bs positions must be numbers\n")

    @pytest.mark.parametrize("which", ["bs", "user"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_explicit_positions_must_be_finite(self, which, value, tmp_path, capsys):
        # json reads NaN and Infinity; a NaN position once surfaced as an
        # error on the fading tensor, naming no input
        bs, users = [[0.0, 0.0], [500.0, 0.0]], [[[100.0, 0.0]], [[600.0, 0.0]]]
        (bs[1] if which == "bs" else users[1][0])[1] = value
        raw = {"params": {"L": 2, "K": 1, "M": 100.0, "rho_u": 1.0, "rho_p": 2.0},
               "layout": {"kind": "explicit", "bs_positions": bs, "user_positions": users}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert run_cli("symrate", "--config", str(path)) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error: layout: {which} positions must be finite\n")

    def test_explicit_positions_are_kept_as_floats(self):
        # as Scenario.from_layout keeps them, so the config's dict is the same
        raw = {"params": {"L": 2, "K": 1, "M": 100.0, "rho_u": 1.0, "rho_p": 2.0},
               "layout": {"kind": "explicit", "bs_positions": [[0, 0], [500, 0]],
                          "user_positions": [[[100, 0]], [[600, 0]]]}}
        cfg = parse_config(raw)
        assert json.dumps(cfg.to_dict()["layout"]) == json.dumps(
            {"kind": "explicit", "bs_positions": [[0.0, 0.0], [500.0, 0.0]],
             "user_positions": [[[100.0, 0.0]], [[600.0, 0.0]]]})
        scenario = cfg.scenario
        assert scenario == scenarios.Scenario.from_layout(scenario.layout(), scenario.params)

    def test_json_string_source(self):
        cfg = parse_config(json.dumps(GOOD_EXPLICIT))
        assert isinstance(cfg, RunConfig)
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("{not json")

    @pytest.mark.parametrize("key, message", [
        # these five once read null as unset
        ("scheme", f"scheme must be one of {SCHEMES}, got None"),
        ("axis", "axis must be one of ('M', 'radius_x', 'theta'), got None"),
        ("omega", "omega must be a list of nonnegative cell indices"),
        ("m", "m must be a number, got None"),
        ("out", "out must be a path string"),
        ("unit", "unit must be one of ('bits', 'nats'), got None"),
        ("seed", "seed must be an integer, got None"),
        ("trials", "trials must be a positive integer, got None"),
        ("bs", "bs must be a nonnegative integer, got None"),
        ("pilot", "pilot must be a nonnegative integer, got None"),
        ("grid", "grid must be a list of values or a start/stop/num object"),
        ("preset", f"preset must be one of {PRESET_NAMES}, got None"),
    ])
    def test_null_is_refused_for_every_key(self, key, message):
        with pytest.raises(ConfigError) as exc:
            parse_config({"preset": "two-cell-scenario-a", key: None})
        assert str(exc.value) == message


class TestEmitCsv:
    def test_formatting_and_endings(self, tmp_path):
        out = tmp_path / "t.csv"
        emit_csv(["a", "b"], [[1, 0.5], [2, 1.0 / 3.0]], str(out))
        data = out.read_bytes()
        assert data == b"a,b\n1,0.5\n2,0.333333333333\n"

    def test_header_only_for_no_rows(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit_csv(["x", "y"], [], str(out))
        assert out.read_text() == "x,y\n"

    def test_unwritable_path_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot write"):
            emit_csv(["a"], [[1]], str(tmp_path / "nodir" / "t.csv"))


PRESET_A = {"preset": "two-cell-scenario-a"}
BIG_RHO_U = {**GOOD_EXPLICIT, "params": {**GOOD_EXPLICIT["params"], "rho_u": 1e308}}


def ring_config(L: int) -> dict:
    """Explicit config of L cells on a ring, one user per cell."""
    ring = 400.0 / math.sin(math.pi / L)
    bs = [[ring * math.cos(2 * math.pi * l / L), ring * math.sin(2 * math.pi * l / L)]
          for l in range(L)]
    users = [[[x + 200.0, y]] for x, y in bs]
    return {"params": {"L": L, "K": 1, "M": 1e4, "rho_u": 30.0, "rho_p": 120.0},
            "layout": {"kind": "explicit", "bs_positions": bs, "user_positions": users}}


def run_cli(*argv) -> int:
    return main(list(argv))


def _never_sampled(*args, **kwargs):
    raise AssertionError("sampled a run that should have been refused")


class TestCliCommands:
    def test_symrate_runs_and_writes(self, tmp_path):
        out = tmp_path / "rates.csv"
        assert run_cli("symrate", "--preset", "two-cell-scenario-a",
                       "--scheme", "snd", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "scope,rate,theta_mask,omega_mask"
        assert len(lines) == 4  # 2 BSs + network
        assert lines[-1].startswith("network,")

    def test_region_csv_counts(self, tmp_path):
        out = tmp_path / "region.csv"
        assert run_cli("region", "--preset", "two-cell-scenario-a",
                       "--scheme", "snd", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        # parts {0} and {0,1}: 1 + 3 constraints
        assert len(lines) == 1 + 4

    def test_classify_reports_both_bss(self, tmp_path):
        out = tmp_path / "cls.csv"
        assert run_cli("classify", "--preset", "two-cell-scenario-a",
                       "--m", "100000", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert "case_ii" in lines[1]
        assert lines[1].endswith(",1") and lines[2].endswith(",1")

    def test_sweep_writes_rows_and_thresholds(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--preset", "two-cell-scenario-a", "--axis", "M",
                       "--grid", "1e3:1e6:7:log", "--out", str(out)) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "axis,value,r_tin,r_sd,r_ssnd,r_snd,case"
        assert len(rows) == 8
        th = (tmp_path / "sweep.thresholds.csv").read_text().splitlines()
        assert th[0] == "name,before,after,value,rel_tol"
        assert any(line.startswith("case,") for line in th[1:])

    def test_montecarlo_csv(self, tmp_path):
        out = tmp_path / "mc.csv"
        assert run_cli("montecarlo", "--cells", "2", "--users", "2", "--m", "16",
                       "--trials", "1500", "--seed", "3", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "term,empirical,analytic,rel_error"
        assert [l.split(",")[0] for l in lines[1:]] == [
            "desired", "est_error", "other_users", "noise"]
        rels = [float(l.split(",")[3]) for l in lines[1:]]
        assert all(r < 0.5 for r in rels)

    def test_byte_identical_reruns(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for out in (out_a, out_b):
            assert run_cli("montecarlo", "--cells", "2", "--users", "1", "--m", "8",
                           "--trials", "1200", "--seed", "11", "--out", str(out)) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_nats_unit_scales_rates(self, tmp_path):
        out_bits = tmp_path / "bits.csv"
        out_nats = tmp_path / "nats.csv"
        run_cli("symrate", "--preset", "two-cell-scenario-a", "--scheme", "sd",
                "--out", str(out_bits))
        run_cli("symrate", "--preset", "two-cell-scenario-a", "--scheme", "sd",
                "--unit", "nats", "--out", str(out_nats))
        bit_rate = float(out_bits.read_text().splitlines()[1].split(",")[1])
        nat_rate = float(out_nats.read_text().splitlines()[1].split(",")[1])
        assert nat_rate == pytest.approx(bit_rate * math.log(2.0), rel=1e-12)

    def test_config_file_with_flag_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(GOOD_EXPLICIT, scheme="tin")))
        out = tmp_path / "o.csv"
        assert run_cli("symrate", "--config", str(cfg_path), "--scheme", "sd",
                       "--out", str(out)) == 0
        # flag override took effect: at 1e4 antennas SD binds at the cross
        # user's singleton (mask 2 at BS 0), unlike TIN (mask 1)
        assert out.read_text().splitlines()[1].split(",")[2] == "2"

    def test_error_exit_code_and_message(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"preset": "nope"}))
        assert run_cli("symrate", "--config", str(bad)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")

    def test_sweep_requires_axis_and_grid(self, capsys):
        assert run_cli("sweep", "--preset", "two-cell-scenario-a") == 2
        assert "axis" in capsys.readouterr().err

    def test_out_of_range_bs_is_a_clean_error(self, capsys):
        assert run_cli("region", "--preset", "two-cell-scenario-a",
                       "--scheme", "snd", "--bs", "5") == 2
        assert "out of range" in capsys.readouterr().err
        assert run_cli("montecarlo", "--cells", "2", "--users", "1", "--m", "8",
                       "--trials", "1000", "--bs", "7") == 2
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["symrate", "--pilot", "4"],
        ["symrate", "--pilot", "-1"],
        ["symrate", "--scheme", "sd", "--pilot", "-1"],
        ["region", "--bs", "-1"],
        ["region", "--pilot", "4"],
        ["classify", "--pilot", "-1"],
        ["sweep", "--axis", "M", "--grid", "1e3,1e4", "--pilot", "4"],
        ["montecarlo", "--bs", "-1", "--trials", "1000"],
        ["montecarlo", "--pilot", "-1", "--trials", "1000"],
        ["montecarlo", "--bs", "2", "--trials", "1000"],
    ])
    def test_out_of_range_index_is_one_error_line(self, argv, capsys):
        # the preset has L = 2 cells and K = 4 pilots; a negative index is
        # refused by its config key, a too-large one by the library
        assert run_cli(*argv, "--preset", "two-cell-scenario-a") == 2
        out = capsys.readouterr()
        assert out.out == ""
        lines = out.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        if "-1" in argv:
            key = argv[argv.index("-1") - 1].lstrip("-")
            assert lines[0] == f"error: {key} must be a nonnegative integer, got -1"
        else:
            assert "out of range" in lines[0]

    @pytest.mark.parametrize("command, change, message", [
        ("region", {"bs": True}, "bs must be a nonnegative integer, got True"),
        ("symrate", {"pilot": True}, "pilot must be a nonnegative integer, got True"),
        ("symrate", {"seed": 1.5}, "seed must be an integer, got 1.5"),
        ("symrate", {"params": {"K": True}}, "params key 'K' must be an integer, got True"),
        ("symrate", {"params": {"L": 2.7}}, "params key 'L' must be an integer, got 2.7"),
        ("symrate", {"params": {"K": 2.7}}, "params key 'K' must be an integer, got 2.7"),
        ("symrate", {"params": {"rho_u": True}},
         "params key 'rho_u' must be a number, got True"),
        ("symrate", {"layout": {"x": True}}, "layout key 'x' must be a number, got True"),
        ("symrate", {"layout": {"kind": []}},
         "layout kind [] must be one of ['explicit', 'three_cell', 'two_cell']"),
        ("sweep", {"axis": "M", "grid": {"start": 1e3, "stop": 1e4, "num": 2.5}},
         "grid num must be an integer, got 2.5"),
        ("sweep", {"axis": "M", "grid": [1e3, True]}, "grid entry must be a number, got True"),
        ("montecarlo", {"omega": [0, True]},
         "omega entry must be a nonnegative integer, got True"),
    ])
    def test_booleans_and_fractional_counts_are_one_error_line(self, command, change,
                                                               message, tmp_path, capsys):
        # JSON true is a Python int, and int() used to truncate 2.7 to 2
        config = json.loads(json.dumps(GOOD_EXPLICIT))
        for key, val in change.items():
            if isinstance(val, dict) and key in ("params", "layout"):
                config[key].update(val)
            else:
                config[key] = val
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert run_cli(command, "--config", str(path)) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [f"error: {message}"]

    def test_fractional_grid_flag_count_is_one_error_line(self, capsys):
        assert run_cli("sweep", "--preset", "two-cell-scenario-a", "--axis", "M",
                       "--grid", "1e3:1e4:2.5") == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == ["error: grid num must be an integer, got 2.5"]

    @pytest.mark.parametrize("m", ["64.9", "0.5"])
    def test_unsampleable_antenna_count_is_one_error_line(self, m, capsys):
        # Monte Carlo samples whole antennas; it used to truncate M silently
        assert run_cli("montecarlo", "--cells", "2", "--m", m, "--trials", "1000") == 2
        out = capsys.readouterr()
        assert out.out == ""
        lines = out.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert f"M={m}" in lines[0]

    @pytest.mark.parametrize("argv, config", [
        (["symrate", "--m", "1e308"], PRESET_A),
        (["classify", "--m", "1e308"], PRESET_A),
        (["region", "--m", "1e308"], PRESET_A),
        (["sweep", "--axis", "radius_x", "--grid", "300,400", "--m", "1e308"], PRESET_A),
        (["sweep", "--axis", "M", "--grid", "1e3,1e308"], PRESET_A),
        (["symrate"], BIG_RHO_U),
        (["region", "--scheme", "snd"], BIG_RHO_U),
        (["classify"], BIG_RHO_U),
        (["sweep", "--axis", "M", "--grid", "1e3,1e4"], BIG_RHO_U),
    ])
    def test_overflowing_finite_input_is_one_error_line(self, argv, config, tmp_path,
                                                        capsys):
        # finite values whose coherent power overflows used to print nan
        # rates and numpy warnings, and exit 0
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        assert run_cli(*argv, "--config", str(cfg)) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [
            "error: coherent power M sqrt(rho_p) rho_u beta alpha overflows: "
            "M, rho_p or rho_u is too large"]

    @pytest.mark.parametrize("m", ["1e308"])
    def test_trial_over_budget_is_one_error_line(self, m, monkeypatch, capsys):
        # an antenna count above MAX_ANTENNAS (here one whose analytic terms
        # would also overflow) is refused before anything is sampled
        monkeypatch.setattr(mc, "complex_normal", _never_sampled)
        monkeypatch.setattr(mc, "_sample", _never_sampled)
        assert run_cli("montecarlo", "--cells", "2", "--users", "2", "--m", m,
                       "--trials", "1000") == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [
            "error: Monte Carlo needs an integer antenna count 1 <= M <= 2**53, "
            "got M=1e+308"]

    def test_antenna_limit_itself_is_sampled(self, capsys):
        assert run_cli("montecarlo", "--preset", "two-cell-scenario-a", "--m",
                       str(2 ** 53), "--trials", "1000") == 0
        out = capsys.readouterr()
        assert out.err == ""
        assert out.out.splitlines()[0] == "term,empirical,analytic,rel_error"

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_antenna_count_above_the_limit_is_one_error_line(self, via, tmp_path,
                                                             monkeypatch, capsys):
        # 2^53 + 2, the first float64 count above MAX_ANTENNAS
        monkeypatch.setattr(mc, "complex_normal", _never_sampled)
        monkeypatch.setattr(mc, "_sample", _never_sampled)
        if via == "flag":
            argv = ["--preset", "two-cell-scenario-a", "--m", str(2 ** 53 + 2)]
        else:
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps({"preset": "two-cell-scenario-a", "m": 2 ** 53 + 2}))
            argv = ["--config", str(cfg)]
        assert run_cli("montecarlo", *argv, "--trials", "1000") == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [
            "error: Monte Carlo needs an integer antenna count 1 <= M <= 2**53, "
            "got M=9007199254740994.0"]

    @pytest.mark.parametrize("layout, message", [
        ({"kind": "two_cell", "x": 1e300},
         "a BS-to-user distance overflows: positions are too large"),
        ({"kind": "explicit", "bs_positions": [[-1e308, 0.0], [1e308, 0.0]],
          "user_positions": [[[-1e308, 1.0]], [[1e308, 1.0]]]},
         "a BS-to-user distance overflows: positions are too large"),
        ({"kind": "explicit", "bs_positions": [[0.0, 0.0], [800.0, 0.0]],
          "user_positions": [[[1e-156, 0.0]], [[800.5, 0.0]]]},
         "a pathloss gain overflows: a user is too close to a BS"),
    ])
    def test_overflowing_layout_is_one_error_line(self, layout, message, tmp_path, capsys):
        # the distances used to overflow with a numpy warning before the
        # error line
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "params": {"L": 2, "K": 1, "M": 1e4, "rho_u": 30.0, "rho_p": 120.0},
            "layout": layout}))
        assert run_cli("symrate", "--config", str(cfg)) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [f"error: layout: {message}"]

    def test_overflowing_monte_carlo_terms_are_one_error_line(self, tmp_path, monkeypatch,
                                                               capsys):
        # refused before any batch is drawn; it used to print inf and nan
        # terms and six numpy warnings, and exit 0
        def fail(*args, **kwargs):
            raise AssertionError("sampled an overflowing state")

        monkeypatch.setattr(mc, "complex_normal", fail)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "params": {"L": 2, "K": 1, "M": 100, "rho_u": 1e308, "rho_p": 120.0},
            "layout": {"kind": "two_cell", "x": 400.0}}))
        assert run_cli("montecarlo", "--config", str(cfg), "--trials", "1000") == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [
            "error: power terms overflow: M, rho_p or rho_u is too large"]

    @pytest.mark.parametrize("command", ["region", "symrate", "classify", "sweep",
                                         "montecarlo"])
    def test_workers_flag_is_refused_as_one_error_line(self, command, monkeypatch, capsys):
        # the knob is gone: a command line that still sets it is refused,
        # not run with the setting silently dropped
        monkeypatch.setattr(mc, "_sample", _never_sampled)
        assert run_cli(command, "--preset", "two-cell-scenario-a", "--workers", "2") == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == ["error: unrecognized arguments: --workers 2"]

    def test_workers_config_key_is_refused_as_one_error_line(self, tmp_path, monkeypatch,
                                                             capsys):
        monkeypatch.setattr(mc, "_sample", _never_sampled)
        cfg = tmp_path / "workers.json"
        cfg.write_text(json.dumps({"preset": "two-cell-scenario-a", "workers": 2}))
        assert run_cli("montecarlo", "--config", str(cfg)) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == ["error: unknown config key 'workers'"]

    @pytest.mark.parametrize("grid", [f"1e3:1e7:{10 ** 8}:log", f"0:1:{MAX_GRID_POINTS + 1}"])
    def test_grid_point_limit_is_one_error_line(self, grid, monkeypatch, capsys):
        # the count is checked before any grid point is made
        def fail(*args, **kwargs):
            raise AssertionError("built an over-long grid")

        monkeypatch.setattr(np, "geomspace", fail)
        monkeypatch.setattr(np, "linspace", fail)
        assert run_cli("sweep", "--preset", "two-cell-scenario-a", "--axis", "M",
                       "--grid", grid) == 2
        out = capsys.readouterr()
        assert out.out == ""
        lines = out.err.splitlines()
        assert len(lines) == 1
        assert lines[0] == (f"error: grid num must be in [2, {MAX_GRID_POINTS}], "
                            f"got {grid.split(':')[2]}")
        with pytest.raises(ConfigError, match="grid num"):
            parse_config({"preset": "two-cell-scenario-a", "axis": "M",
                          "grid": {"scale": "log", "start": 1e3, "stop": 1e7,
                                   "num": 10 ** 8}})
        with pytest.raises(ConfigError, match=f"at most {MAX_GRID_POINTS}"):
            parse_config({"preset": "two-cell-scenario-a", "axis": "M",
                          "grid": list(range(1, MAX_GRID_POINTS + 2))})

    def test_trial_limit_is_one_error_line(self, monkeypatch, capsys):
        # rejected before a batch is allocated or anything is sampled
        monkeypatch.setattr(mc, "complex_normal", _never_sampled)
        monkeypatch.setattr(mc, "_sample", _never_sampled)
        assert run_cli("montecarlo", "--cells", "2", "--m", "8",
                       "--trials", str(10 ** 12)) == 2
        out = capsys.readouterr()
        assert out.out == ""
        lines = out.err.splitlines()
        assert lines == [f"error: at most {MAX_TRIALS} trials are allowed, got {10 ** 12}"]

    def test_console_entry_point(self, tmp_path):
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "mcmimo.cli", "symrate",
             "--preset", "two-cell-scenario-a", "--scheme", "tin"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stdout.startswith("scope,rate,")

    @pytest.mark.parametrize("stdout, message", [
        pytest.param("full", "[Errno 28] No space left on device",
                     marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                              reason="needs /dev/full")),
        ("closed", "stdout is closed"),
        ("pipe without reader", "[Errno 32] Broken pipe"),
    ])
    def test_failed_stdout_write_is_one_error_line(self, stdout, message):
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p)
        argv = [sys.executable, "-m", "mcmimo.cli", "symrate", "--preset", "three-cell-theta"]
        run = dict(stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        if stdout == "full":
            with open("/dev/full", "w") as full:
                proc = subprocess.run(argv, stdout=full, **run)
        elif stdout == "closed":
            proc = subprocess.run(["bash", "-c", '"$@" >&-', "bash", *argv], **run)
        else:
            read, write = os.pipe()
            os.close(read)  # the reader exits before the run writes
            try:
                proc = subprocess.run(argv, stdout=write, **run)
            finally:
                os.close(write)
        assert (proc.returncode, proc.stderr) == (2, f"error: cannot write output: {message}\n")

    def test_large_network_symrate_runs_but_snd_region_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "ring16.json"
        cfg.write_text(json.dumps(ring_config(16)))
        assert run_cli("symrate", "--config", str(cfg), "--scheme", "snd") == 0
        out = capsys.readouterr()
        assert len(out.out.splitlines()) == 1 + 16 + 1
        assert out.err == ""
        assert run_cli("region", "--config", str(cfg), "--scheme", "snd") == 2
        out = capsys.readouterr()
        assert out.out == ""
        lines = out.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_256_cell_ring_snd_symrate(self, tmp_path, capsys):
        # the SND solve costs O(L^3) per state, so a 256-cell ring (K = 1,
        # within the link limit) takes about a second
        cfg = tmp_path / "ring256.json"
        cfg.write_text(json.dumps(ring_config(256)))
        assert run_cli("symrate", "--config", str(cfg), "--scheme", "snd") == 0
        out = capsys.readouterr()
        assert out.err == ""
        lines = out.out.splitlines()
        assert lines[0] == "scope,rate,theta_mask,omega_mask"
        assert len(lines) == 1 + 256 + 1
        assert [line.split(",")[0] for line in lines[1:]] == [*map(str, range(256)), "network"]
        assert all(math.isfinite(float(line.split(",")[1])) for line in lines[1:])

    @pytest.mark.parametrize("scheme, L", [("sd", 21), ("ssnd", 22), ("snd", 13)])
    def test_region_size_limit_is_one_error_line(self, scheme, L, tmp_path, monkeypatch,
                                                  capsys):
        # the constraint count is checked before any mask is made
        def fail(*args, **kwargs):
            raise AssertionError("enumerated an over-limit region")

        monkeypatch.setattr(regions, "_ordered_masks", fail)
        cfg = tmp_path / "ring.json"
        cfg.write_text(json.dumps(ring_config(L)))
        assert run_cli("region", "--config", str(cfg), "--scheme", scheme) == 2
        out = capsys.readouterr()
        assert out.out == ""
        count = {"sd": 2 ** L - 1, "ssnd": 2 ** (L - 1),
                 "snd": 2 * 3 ** (L - 1) - 2 ** (L - 1)}[scheme]
        assert out.err.splitlines() == [
            f"error: {scheme} region at L={L} has {count} constraints, above the "
            f"limit of {regions.MAX_CONSTRAINTS}"]


class TestNetworkSizeLimit:
    """Too many cells or users per cell are refused with one error line
    before any layout or fading array is allocated."""

    @pytest.fixture(autouse=True)
    def no_allocation(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("allocated a network past the link limit")

        monkeypatch.setattr(network, "_point_array", fail)
        monkeypatch.setattr(network, "fading_stack", fail)
        monkeypatch.setattr(scenarios, "fading_stack", fail)
        monkeypatch.setattr(np, "repeat", fail)

    @staticmethod
    def links(L, K):
        return (f"a network of L={L} cells with K={K} users each has {L * L * K} "
                f"BS-user links; at most {network.MAX_LINKS} are allowed")

    def assert_one_error(self, capsys, argv, message):
        assert run_cli(*argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [f"error: {message}"]

    def test_users_flag(self, capsys):
        self.assert_one_error(capsys, ["montecarlo", "--cells", "2", "--users", "1000000000"],
                              self.links(2, 10 ** 9))

    def test_users_key(self, tmp_path, capsys):
        raw = json.loads(json.dumps(GOOD_EXPLICIT))
        raw["params"]["K"] = 10 ** 9
        cfg = tmp_path / "users.json"
        cfg.write_text(json.dumps(raw))
        self.assert_one_error(capsys, ["symrate", "--config", str(cfg)],
                              f"params: {self.links(2, 10 ** 9)}")

    def test_explicit_layout_of_5000_cells(self, tmp_path, capsys):
        raw = ring_config(5000)
        raw["params"]["K"] = 4
        raw["layout"]["user_positions"] = [cell * 4 for cell in raw["layout"]["user_positions"]]
        cfg = tmp_path / "ring5000.json"
        cfg.write_text(json.dumps(raw))
        self.assert_one_error(capsys, ["symrate", "--config", str(cfg)],
                              f"params: {self.links(5000, 4)}")


class TestOneInputPath:
    """A flag is another way to set its config key: it replaces the key
    before the one validation, and bad argv takes the same error path."""

    PARITY = [
        ("symrate", "pilot", "-1", -1, "pilot must be a nonnegative integer, got -1"),
        ("region", "bs", "-1", -1, "bs must be a nonnegative integer, got -1"),
        ("symrate", "m", "inf", math.inf, "m must be finite, got inf"),
        ("symrate", "m", "-5", -5, "m must be positive, got -5.0"),
        ("sweep", "grid", "1e3,inf", [1e3, math.inf], "grid entry must be finite, got inf"),
        ("montecarlo", "omega", "-1", [-1], "omega entry must be a nonnegative integer, got -1"),
        ("montecarlo", "omega", "0,x", [0, "x"],
         "omega entry must be a nonnegative integer, got 'x'"),
        ("symrate", "scheme", "foo", "foo", f"scheme must be one of {SCHEMES}, got 'foo'"),
        ("symrate", "unit", "dB", "dB", "unit must be one of ('bits', 'nats'), got 'dB'"),
        ("sweep", "axis", "foo", "foo",
         "axis must be one of ('M', 'radius_x', 'theta'), got 'foo'"),
        ("symrate", "preset", "nope", "nope", f"preset must be one of {PRESET_NAMES}, got 'nope'"),
        ("montecarlo", "trials", "2.5", 2.5, "trials must be a positive integer, got 2.5"),
        ("symrate", "seed", "1.5", 1.5, "seed must be an integer, got 1.5"),
        ("symrate", "pilot", "x", "x", "pilot must be a nonnegative integer, got 'x'"),
        ("region", "bs", "x", "x", "bs must be a nonnegative integer, got 'x'"),
        ("sweep", "grid", "1e3,x", [1e3, "x"], "grid entry must be a number, got 'x'"),
    ]

    @pytest.mark.parametrize("command, key, flag, value, message", PARITY,
                             ids=[f"{c[1]}={c[2]}" for c in PARITY])
    def test_flag_and_config_key_give_the_same_error(self, command, key, flag, value,
                                                     message, tmp_path, capsys):
        # json.dumps writes inf as Infinity, which Python's JSON reads back
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "two-cell-scenario-a", key: value}))
        results = []
        for argv in ([command, "--preset", "two-cell-scenario-a", f"--{key}", flag],
                     [command, "--config", str(path)]):
            code = run_cli(*argv)
            out = capsys.readouterr()
            results.append((code, out.out, out.err))
        assert results[0] == results[1] == (2, "", f"error: {message}\n")

    def test_axis_and_grid_flags_let_an_explicit_config_omit_m(self, tmp_path, capsys):
        config = json.loads(json.dumps(GOOD_EXPLICIT))
        del config["params"]["M"]
        flags_path, keys_path = tmp_path / "flags.json", tmp_path / "keys.json"
        flags_path.write_text(json.dumps(config))
        keys_path.write_text(json.dumps(dict(config, axis="M", grid=[1e3, 1e4, 1e5])))
        assert run_cli("sweep", "--config", str(flags_path), "--axis", "M",
                       "--grid", "1e3,1e4,1e5") == 0
        by_flags = capsys.readouterr()
        assert run_cli("sweep", "--config", str(keys_path)) == 0
        by_keys = capsys.readouterr()
        assert by_flags.err == by_keys.err == ""
        assert by_flags.out.encode() == by_keys.out.encode()

    @pytest.mark.parametrize("argv", [
        ["region", "--scheme", "snd"], ["symrate"], ["classify"],
        ["sweep", "--axis", "radius_x", "--grid", "300:440:5"],
        ["montecarlo", "--trials", "1000"],
    ], ids=["region", "symrate", "classify", "sweep", "montecarlo"])
    def test_m_key_supplies_params_m(self, argv, tmp_path, capsys):
        # the m key stands in for a missing params.M, as it replaces one
        by_m, by_params = (json.loads(json.dumps(GOOD_EXPLICIT)) for _ in range(2))
        del by_m["params"]["M"]
        by_m["m"] = by_params["params"]["M"] = 1000
        runs = []
        for name, config in (("m", by_m), ("params", by_params)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(config))
            assert run_cli(*argv, "--config", str(path)) == 0
            runs.append(capsys.readouterr())
        assert runs[0].err == runs[1].err == ""
        assert runs[0].out.encode() == runs[1].out.encode()

    @pytest.mark.parametrize("argv", [
        ["region", "--scheme", "snd", "--bs", "1"],
        ["sweep", "--axis", "radius_x", "--grid", "300:440:5"],
    ], ids=["region", "sweep-radius_x"])
    def test_m_flag_and_key_give_the_same_csv(self, argv, tmp_path, capsys):
        # every subcommand takes --m, as it takes the m key
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "two-cell-scenario-a", "m": 1e5}))
        assert run_cli(*argv, "--preset", "two-cell-scenario-a", "--m", "1e5") == 0
        by_flag = capsys.readouterr()
        assert run_cli(*argv, "--config", str(path)) == 0
        by_key = capsys.readouterr()
        assert by_flag.err == by_key.err == ""
        assert by_flag.out.encode() == by_key.out.encode()
        assert run_cli(*argv, "--preset", "two-cell-scenario-a") == 0
        assert capsys.readouterr().out != by_key.out

    def test_config_m_applies_to_sweep(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "two-cell-scenario-b", "m": 1e3}))
        assert run_cli("sweep", "--config", str(path), "--axis", "radius_x",
                       "--grid", "150,200,240") == 0
        rows, thresholds = capsys.readouterr().out.split("\n\n")
        scenario = preset_scenario("two-cell-scenario-b")
        result = sweep(scenario.with_axis("M", 1e3), "radius_x", [150.0, 200.0, 240.0])
        assert rows.splitlines()[1:] == [
            ",".join(["radius_x", *(f"{v:.12g}" for v in (row.value, *row.rates.values())),
                      row.case]) for row in result.rows]
        assert thresholds.splitlines()[1:] == [
            f"{c.name},{c.before},{c.after},{c.value:.12g},{c.rel_tol:.12g}"
            for c in result.thresholds]
        unchanged = sweep(scenario, "radius_x", [150.0, 200.0, 240.0])
        assert [r.rates for r in unchanged.rows] != [r.rates for r in result.rows]

    # each subcommand's flags: every config key in _OPTIONS that it reads,
    # plus --config, and --cells and --users, which have no config key
    FLAGS = {
        "region": {"config", "preset", "out", "seed", "unit", "pilot",
                   "scheme", "bs", "m"},
        "symrate": {"config", "preset", "out", "seed", "unit", "pilot",
                    "scheme", "m"},
        "classify": {"config", "preset", "out", "seed", "unit", "pilot", "m"},
        "sweep": {"config", "preset", "out", "seed", "unit", "pilot",
                  "axis", "grid", "m"},
        "montecarlo": {"config", "preset", "out", "seed", "unit", "pilot",
                       "m", "trials", "bs", "omega", "cells", "users"},
    }

    def test_flag_sets_are_pinned_and_config_flags_are_plain_strings(self):
        parser = cli._build_parser()
        subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {name: {a.dest for a in sub._actions if a.dest != "help"}
                 for name, sub in subs.choices.items()}
        assert flags == self.FLAGS
        for sub in subs.choices.values():
            for action in sub._actions:
                if action.dest in cli._OPTIONS:
                    # the key's check is the only one a flag passes
                    assert action.type is None and action.choices is None
                    assert action.option_strings == [f"--{action.dest}"]

    @pytest.mark.parametrize("argv", [
        ["montecarlo", "--cells", "3", "--users", "2", "--m", "64"],
        ["montecarlo", "--preset", "two-cell-scenario-b", "--users", "1", "--trials", "2000",
         "--omega", "1"],
        ["symrate", "--preset", "two-cell-scenario-b", "--m", "2e4", "--scheme", "sd"],
        ["region", "--preset", "three-cell-theta", "--scheme", "snd", "--unit", "nats"],
        ["sweep", "--preset", "three-cell-theta", "--axis", "theta", "--grid", "0:90:4"],
        ["montecarlo", "--config", "three-cell-mc.json", "--m", "128", "--bs", "2",
         "--omega", "0,2"],
        ["symrate", "--config", "ring6.json", "--pilot", "3"],
    ])
    def test_to_dict_describes_the_run(self, argv, monkeypatch):
        # the scenario a run uses has m, --cells and --users applied, and its
        # config's dict reproduces it
        monkeypatch.chdir(GOLDEN)
        cfg = cli._load_run(cli._build_parser().parse_args(argv))
        opts = dict(zip(argv[1::2], argv[2::2]))
        p = cfg.scenario.params
        if "--m" in opts:
            assert p.M == float(opts["--m"])
        if "--users" in opts:
            assert p.K == int(opts["--users"])
        if "--cells" in opts:
            assert p.L == int(opts["--cells"])
        again = parse_config(cfg.to_dict())
        assert replace(again.scenario, name=None) == replace(cfg.scenario, name=None)
        assert replace(again, scenario=cfg.scenario) == cfg

    @pytest.mark.parametrize("argv", [
        ["symrate", "--pilot", "x"],
        ["symrate", "--scheme", "foo"],
        ["symrate", "--bogus"],
        [],
    ])
    def test_bad_argv_is_one_error_line(self, argv, capsys):
        assert run_cli(*argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        lines = out.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("argv, message", [
        (["montecarlo", "--config", "three-cell-mc.json", "--preset", "three-cell-theta"],
         "give either --config or --preset, not both"),
        (["montecarlo", "--config", "three-cell-mc.json", "--cells", "2"],
         "--cells picks a canonical scenario; give it without --config or --preset"),
        (["montecarlo", "--preset", "three-cell-theta", "--cells", "2"],
         "--cells picks a canonical scenario; give it without --config or --preset"),
    ])
    def test_scenario_given_twice_is_one_error_line(self, argv, message, monkeypatch,
                                                    capsys):
        # --cells, --preset and --config each name the scenario; only one may
        monkeypatch.chdir(GOLDEN)
        assert run_cli(*argv, "--trials", "1000") == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [f"error: {message}"]


# --- in-process fuzz of the CLI -------------------------------------------

# values mixed into every key: JSON booleans and null, negatives, fractions,
# non-finite and huge magnitudes, strings and containers
_JUNK = st.sampled_from([True, False, None, -1, -2.5, 0, 0.5, 2.5, math.nan, math.inf,
                         -math.inf, 1e300, -1e300, 10 ** 30, "x", "", "1", [], {}, [1]])
_HEADERS = {
    "region": "scheme,bs,pilot,omega_mask,theta_mask,bound",
    "symrate": "scope,rate,theta_mask,omega_mask",
    "classify": "bs,case,lhs,rhs,r_tin,r_sd,r_ssnd,r_snd,ordering_ok",
    "sweep": "axis,value,r_tin,r_sd,r_ssnd,r_snd,case",
    "montecarlo": "term,empirical,analytic,rel_error",
}


def _values(draw, junk: int):
    """A value strategy's draw, replaced by junk ``junk`` % of the time.
    Rare choices sit at the top of each range: hypothesis draws the bottom
    one far more often than its share."""
    def value(valid):
        return draw(_JUNK) if draw(st.integers(0, 99)) >= 100 - junk else draw(valid)
    return value


def _grids():
    lists = st.lists(st.floats(1.0, 400.0), min_size=1, max_size=5, unique=True).map(sorted)
    objects = st.fixed_dictionaries(
        {"start": st.floats(1.0, 100.0), "stop": st.floats(100.0, 400.0),
         "num": st.integers(2, 8), "scale": st.sampled_from(["lin", "log"])})
    return st.one_of(lists, objects)


# the valid values of each option but the preset, drawn as the scenario, and
# out, since a run's output must reach stdout: at most 6 cells, 3 users,
# 256 antennas and 2,000 trials
_VALID = {
    "unit": st.sampled_from(["bits", "nats"]),
    "scheme": st.sampled_from(SCHEMES),
    "seed": st.integers(0, 2 ** 32),
    "pilot": st.integers(0, 3),
    "bs": st.integers(0, 6),
    "m": st.one_of(st.integers(1, 256), st.floats(1.0, 256.0)),
    "axis": st.sampled_from(scenarios.SWEEP_AXES),
    "grid": _grids(),
    "trials": st.integers(1000, 2000),
    "omega": st.lists(st.integers(0, 6), max_size=4),
}


@st.composite
def _layouts(draw, value, kind, L: int, K: int):
    layout = {"kind": value(st.just(kind))}
    if kind == "explicit":
        point = st.lists(st.floats(-2e3, 2e3), min_size=2, max_size=2)
        layout["bs_positions"] = value(st.lists(point, min_size=L, max_size=L))
        layout["user_positions"] = value(st.lists(st.lists(point, min_size=K, max_size=K),
                                                  min_size=L, max_size=L))
    else:
        layout["x"] = value(st.floats(10.0, 500.0))
        angles = ("user_angle_deg",) if kind == "two_cell" else ("theta_deg",
                                                                   "outer_angle_deg")
        for key in ("spacing", *angles):
            if draw(st.booleans()):
                layout[key] = value(st.floats(0.0, 360.0) if key in angles
                                    else st.floats(100.0, 1e3))
    return layout


@st.composite
def cli_runs(draw):
    """A subcommand and one config: a preset, or params with a two_cell,
    three_cell or explicit layout; and for each key whose flag the
    subcommand has, whether to give it as a flag."""
    command = draw(st.sampled_from(sorted(_HEADERS)))
    value = _values(draw, draw(st.sampled_from([0, 10, 50])))
    config = {}
    if draw(st.booleans()):
        config["preset"] = value(st.sampled_from(PRESET_NAMES))
    else:
        kind = draw(st.sampled_from(["two_cell", "three_cell", "explicit"]))
        # mostly the layout's own cell count, at times any other
        L = {"two_cell": 2, "three_cell": 3}.get(kind, 0)
        if not L or draw(st.integers(0, 9)) == 9:
            L = draw(st.integers(1, 6))
        K = draw(st.integers(1, 3))
        params = {"L": value(st.just(L)), "K": value(st.just(K)),
                  "M": value(st.one_of(st.integers(1, 256), st.floats(1.0, 256.0))),
                  "rho_u": value(st.floats(0.1, 1e3)), "rho_p": value(st.floats(0.1, 1e3))}
        for key, valid in (("alpha_pl", st.floats(0.0, 4.0)), ("d0", st.floats(1.0, 200.0))):
            if draw(st.booleans()):
                params[key] = value(valid)
        if draw(st.integers(0, 9)) == 9:
            del params["M"]
        config["params"] = params
        config["layout"] = draw(_layouts(value, kind, L, K))
    keys = draw(st.lists(st.sampled_from(sorted(_VALID)), unique=True, max_size=5))
    if command == "sweep":
        keys = ["axis", "grid", *keys]
    for key in keys:
        config[key] = value(_VALID[key])
    if draw(st.integers(0, 19)) == 19:
        where = draw(st.sampled_from([c for c in (config, config.get("params"),
                                                  config.get("layout"))
                                      if isinstance(c, dict)]))
        where["bogus"] = 1
    flagged = {key for key in config if key in cli._OPTIONS
               and command in cli._OPTIONS[key].commands and draw(st.booleans())}
    return command, config, flagged


def _flag_value(text: str):
    """What the CLI documents a flag string reads as: an int, else a float,
    else the string itself."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def _flag_text(key: str, val):
    """The ``--key=text`` form of a config value, or None where no flag
    string reads back as the same JSON value: lists join their entries with
    commas, and a grid object is ``start:stop:num:scale``."""
    def text(v):
        if isinstance(v, bool) or not isinstance(v, (int, float, str)):
            return None
        t = v if isinstance(v, str) else repr(v)
        return t if json.dumps(_flag_value(t)) == json.dumps(v) else None

    if key in ("omega", "grid") and isinstance(val, list) and val:
        parts, seps = [text(v) for v in val], ",:"
    elif key == "grid" and isinstance(val, dict) and set(val) == {"start", "stop", "num",
                                                                  "scale"}:
        scale = val["scale"] if isinstance(val["scale"], str) else None
        parts, seps = [text(val["start"]), text(val["stop"]), text(val["num"]), scale], ",:"
    elif key not in ("omega", "grid"):
        parts, seps = [text(val)], ""
    else:
        return None
    if None in parts or any(sep in part for part in parts for sep in seps):
        return None
    return f"--{key}={(':' if isinstance(val, dict) else ',').join(parts)}"


def _argv(command: str, config: dict, flagged: set, path: Path) -> list:
    """argv with the ``flagged`` keys as flags and the others in a config
    file at ``path``; the preset goes in the file unless nothing else does."""
    flags = {key: _flag_text(key, config[key]) for key in flagged}
    flags = {key: text for key, text in flags.items() if text is not None}
    keys = {key: val for key, val in config.items() if key not in flags}
    if not keys and "preset" in flags:
        return [command, *flags.values()]
    if "preset" in flags:
        keys["preset"] = config["preset"]
        del flags["preset"]
    path.write_text(json.dumps(keys))
    return [command, "--config", str(path), *flags.values()]


def _run(argv: list):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200)
@given(cli_runs())
def test_cli_fuzz_exits_0_with_finite_csv_or_2_with_one_error_line(run):
    command, config, flagged = run
    with tempfile.TemporaryDirectory() as tmp:
        mixed = _argv(command, config, flagged, Path(tmp) / "mixed.json")
        keyed = _argv(command, config, set(), Path(tmp) / "keyed.json")
        result = _run(mixed)
        assert _run(mixed) == result
        assert _run(keyed) == result
    code, out, err = result
    if code == 0:
        assert err == ""
        assert out.splitlines()[0] == _HEADERS[command]
        for field in re.split(r"[,\n]", out):
            try:
                number = float(field)
            except ValueError:
                continue
            assert math.isfinite(number), field
    else:
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err


def test_every_option_is_documented():
    # the module docstring's key list names every config key, and README's
    # config example sets every key that has a flag
    block = cli.__doc__.split("Config schema")[1].split("\n\n")[1]
    listed = {key for line in block.splitlines() if re.match(r"    \w", line)
              for key in line.strip().split("  ")[0].split(", ")}
    assert listed == cli._CONFIG_KEYS
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("### Config file schema")[1].split("```json")[1].split("```")[0]
    assert set(json.loads(example)) == set(cli._OPTIONS)


GOLDEN = Path(__file__).resolve().parent / "data"
# An explicit 6-cell ring (tests/data/ring6.json): beyond three cells the
# order of the subset sums shows in the last bits.  TIN is left out there,
# its interference sum once ran in numpy index order.
RING = "ring6"
# The "sweep" goldens move M; these move a geometry axis, whose layouts are
# built as one stack: (axis, grid) per preset.
GEOMETRY_SWEEPS = {"two-cell-scenario-b": ("radius_x", "130:240:25"),
                   "three-cell-theta": ("theta", "0:180:25")}
GOLDEN_CASES = [(p, k) for p in PRESET_NAMES for k in ("region", "sweep", "symrate")] + [
    (RING, "region"), (RING, "symrate"), ("three-cell-theta", "region-nats"),
    (RING, "region-nats")] + [(p, f"sweep-{axis}") for p, (axis, _) in GEOMETRY_SWEEPS.items()]


def golden_commands(preset: str, kind: str):
    if preset == RING:
        source = ["--config", str(GOLDEN / f"{RING}.json")]
        schemes, bss = ("sd", "ssnd", "snd"), (0,)
    else:
        source, schemes, bss = ["--preset", preset], SCHEMES, (0, 1)
    if kind == "region-nats":
        # the nats emit of one SND region and one SD region
        scheme, bs = ("sd", "0") if preset == RING else ("snd", "1")
        return [["region", *source, "--scheme", scheme, "--bs", bs, "--unit", "nats"]]
    if kind == "symrate":
        return [["symrate", *source, "--scheme", s] for s in schemes]
    if kind == "region":
        return [["region", *source, "--scheme", s, "--bs", str(bs)]
                for bs in bss for s in schemes]
    if kind.startswith("sweep-"):
        axis, grid = GEOMETRY_SWEEPS[preset]
        return [["sweep", *source, "--axis", axis, "--grid", grid]]
    return [["sweep", *source, "--axis", "M", "--grid", "1e3:1e7:25:log"]]


@pytest.mark.parametrize("preset, kind", GOLDEN_CASES,
                         ids=[f"{p}-{k}" for p, k in GOLDEN_CASES])
def test_preset_output_matches_golden_csv(preset, kind, capsys):
    """CLI output on the presets, and on one 6-cell ring, is byte-identical
    to the recorded files."""
    text = ""
    for argv in golden_commands(preset, kind):
        assert main(argv) == 0
        text += capsys.readouterr().out
    assert text.encode() == (GOLDEN / f"{preset}.{kind}.csv").read_bytes()


# Monte Carlo CSVs: a two-cell run, a three-cell config run at a
# non-default BS and decoded set, a one-user run at M = 1024, and a
# four-user three-cell run at M = 1 in two batches of 4,228 and 1,772 trials.
MC_GOLDEN = {
    "two-cell": ["--cells", "2", "--users", "2", "--m", "64", "--trials", "2100",
                 "--seed", "1"],
    "three-cell": ["--config", str(GOLDEN / "three-cell-mc.json"), "--m", "128",
                   "--bs", "2", "--omega", "0,2"],
    "two-cell-one-user": ["--cells", "2", "--users", "1", "--m", "1024",
                          "--trials", "1100"],
    "three-cell-one-antenna": ["--cells", "3", "--users", "4", "--m", "1",
                               "--trials", "6000", "--seed", "2"],
}


@pytest.mark.parametrize("name", sorted(MC_GOLDEN))
def test_montecarlo_output_matches_golden_csv(name, capsys):
    assert main(["montecarlo", *MC_GOLDEN[name]]) == 0
    assert capsys.readouterr().out.encode() == \
        (GOLDEN / f"montecarlo-{name}.csv").read_bytes()


def test_montecarlo_bytes_do_not_depend_on_the_blas_kernel():
    # OpenBLAS picks its kernel per CPU at run time; Prescott is an SSE
    # kernel whose complex products differ in the last bits from the AVX
    # ones.  The variable acts only on the child processes.
    src = Path(__file__).resolve().parents[1] / "src"
    base = dict(os.environ)
    base["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), base.get("PYTHONPATH")) if p)
    base.pop("OPENBLAS_CORETYPE", None)
    for env in (base, {**base, "OPENBLAS_CORETYPE": "Prescott"}):
        for name, argv in sorted(MC_GOLDEN.items()):
            proc = subprocess.run([sys.executable, "-m", "mcmimo.cli", "montecarlo", *argv],
                                  capture_output=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == (GOLDEN / f"montecarlo-{name}.csv").read_bytes(), \
                (name, env.get("OPENBLAS_CORETYPE"))


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the script names x86-64 SSE features")
def test_console_script_checks_pass(tmp_path):
    """CI's checks of the installed script, tests/console_script.sh, with
    ``mcmimo`` a shim around this interpreter's ``-m mcmimo.cli`` and
    ``python`` (which writes the ring configs) this interpreter."""
    root = Path(__file__).resolve().parents[1]
    shims, run = tmp_path / "bin", tmp_path / "run"
    shims.mkdir()
    run.mkdir()
    for name, command in (("mcmimo", "-m mcmimo.cli"), ("python", "")):
        shim = shims / name
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" {command} "$@"\n')
        shim.chmod(0o755)
    env = {key: val for key, val in os.environ.items()
           if key not in ("OPENBLAS_CORETYPE", "NPY_ENABLE_CPU_FEATURES")}
    env.update(PATH=os.pathsep.join([str(shims), env.get("PATH", "")]),
               PYTHONPATH=os.pathsep.join(p for p in (str(root / "src"),
                                                      env.get("PYTHONPATH")) if p),
               RUNNER_TEMP=str(run), GITHUB_WORKSPACE=str(root))
    proc = subprocess.run(["bash", "-e", "-x", str(root / "tests" / "console_script.sh")],
                          capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stdout + "\n".join(proc.stderr.splitlines()[-20:])
