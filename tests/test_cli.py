"""Runner contract: config parsing, exit codes, determinism, output format."""

import json
import os
import re
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import schrodlab
from schrodlab import cli, transform
from schrodlab.cli import (ConfigError, EXPERIMENTS, list_experiments,
                           load_config, main)
from schrodlab.control import VARIANTS
from schrodlab.solvers import IndefiniteOperatorError

README = Path(__file__).resolve().parents[1] / "README.md"


FAST_UNCERTAINTY = """
# small grid keeps this instant
grid.L = 10.0
grid.M = 64
uncertainty.radii = 0.5, 1.0
tail_tolerance = 1e-6
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def forbid_run(monkeypatch, experiment):
    """Swap the experiment's runner for one that fails the test if called."""
    def no_run(*args, **kwargs):
        raise AssertionError(f"{experiment} must be rejected before it runs")

    monkeypatch.setitem(EXPERIMENTS, experiment,
                        replace(EXPERIMENTS[experiment], runner=no_run))


# one value that breaks each cli._RULES range rule
VIOLATIONS = {"positive": "0", "non-negative": "-1", "at least 1": "0", "in [0, 1]": "2"}


def is_float_key(default) -> bool:
    """Whether a key-table default (a value, list or bare type) is a float's."""
    if isinstance(default, list):
        default = default[0]
    return default is float or isinstance(default, float)


class TestConfigParsing:
    def test_key_value_with_comments(self, tmp_path):
        path = write(tmp_path, "a.cfg", "grid.M = 2048  # fine\n\nx = 1.5\n")
        config = load_config(path)
        assert config == {"grid.M": 2048, "x": 1.5}

    def test_lists_bools_strings(self, tmp_path):
        path = write(tmp_path, "b.cfg",
                     "k = 1, 2, 4\nflag = true\nname = gaussian\n")
        config = load_config(path)
        assert config == {"k": [1, 2, 4], "flag": True, "name": "gaussian"}

    def test_json_alternative_is_flattened(self, tmp_path):
        path = write(tmp_path, "c.json",
                     json.dumps({"grid": {"M": 128, "L": 5.0}, "seedless": True}))
        config = load_config(path)
        assert config == {"grid.M": 128, "grid.L": 5.0, "seedless": True}

    def test_malformed_line_rejected(self, tmp_path):
        path = write(tmp_path, "d.cfg", "just words\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unreadable_path_rejected(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/nowhere.cfg")

    def test_repeated_key_names_both_lines(self, tmp_path, capsys):
        cfg = write(tmp_path, "twice.cfg",
                    "grid.M = 64\ngrid.L = 10.0\ngrid.M = 128\n")
        with pytest.raises(ConfigError,
                           match=r"twice.cfg:3: key 'grid.M' repeats line 1"):
            load_config(cfg)
        assert main(["uncertainty", "--config", cfg,
                     "--out", str(tmp_path / "u.csv")]) == 2
        assert "'grid.M' repeats line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"grid.M": 64, "grid.M": 128}',
                                      '{"grid.M": 64, "grid": {"M": 128}}',
                                      '{"grid": {"M": 128}, "grid.M": 64}'])
    def test_json_key_set_twice_named(self, tmp_path, capsys, monkeypatch, text):
        forbid_run(monkeypatch, "uncertainty")
        cfg = write(tmp_path, "twice.json", text)
        with pytest.raises(ConfigError, match="'grid.M'"):
            load_config(cfg)
        assert main(["uncertainty", "--config", cfg,
                     "--out", str(tmp_path / "u.csv")]) == 2
        assert "'grid.M'" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [[1, 2], 3.5, "grid.M = 64", None])
    def test_json_top_level_must_be_object(self, tmp_path, capsys, data):
        cfg = write(tmp_path, "top.json", json.dumps(data))
        with pytest.raises(ConfigError, match="must hold a JSON object"):
            load_config(cfg)
        assert main(["uncertainty", "--config", cfg,
                     "--out", str(tmp_path / "u.csv")]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "u.csv").exists()


class TestExitCodes:
    def test_unknown_experiment(self, capsys):
        assert main(["does-not-exist"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unreadable_config(self, capsys):
        assert main(["propagate", "--config", "/nonexistent.cfg"]) == 2
        assert "not readable" in capsys.readouterr().err

    def test_odd_grid_rejected_with_parity_message(self, tmp_path, capsys):
        cfg = write(tmp_path, "odd.cfg", "grid.M = 129\n")
        assert main(["uncertainty", "--config", cfg,
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert "even" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, times", [
        ("bridge", "bridge.T = 1.0"),
        # the first two times resolve; the check still precedes every run
        ("verify-identity", "fresnel.times = 2.0, 1.0, 0.25"),
    ])
    def test_aliasing_violation_named(self, tmp_path, capsys, experiment, times):
        # L/(2T) = 10 at T = 1 and 40 at T = 0.25, past the Nyquist ~5 of M = 64
        cfg = write(tmp_path, "alias.cfg", f"grid.L = 20.0\ngrid.M = 64\n{times}\n")
        assert main([experiment, "--config", cfg,
                     "--out", str(tmp_path / "b.csv")]) == 2
        assert "chirp aliasing bound violated" in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("radius", ["20", "25"])
    def test_interpolation_radius_covering_the_box_is_exit_2(
            self, tmp_path, capsys, monkeypatch, radius):
        # every node of [-20, 20] lies in B_r, so every observation is zero;
        # this used to end in a traceback from the fit
        monkeypatch.setattr(cli, "interpolation_report_12",
                            lambda *a, **k: pytest.fail("checked before any report"))
        cfg = write(tmp_path, "r.cfg", f"interpolation.r = {radius}\n")
        assert main(["interpolation-12", "--config", cfg,
                     "--out", str(tmp_path / "i.csv")]) == 2
        err = capsys.readouterr().err
        assert f"interpolation.r = {radius} leaves no node of the box" in err
        assert "(L = 20)" in err
        assert not (tmp_path / "i.csv").exists()

    def test_empirical_constant_needs_two_gaps(self, tmp_path, capsys,
                                               monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("validation must precede the eigenvalue solves")

        monkeypatch.setattr(cli, "empirical_constant", no_solve)
        cfg = write(tmp_path, "gap.cfg", "grid.M = 64\nobservability.gaps = 1.0\n")
        assert main(["empirical-constant", "--config", cfg,
                     "--out", str(tmp_path / "e.csv")]) == 2
        assert ("observability.gaps needs at least two distinct values"
                in capsys.readouterr().err)
        assert not (tmp_path / "e.csv").exists()

    def test_missing_output_directory(self, tmp_path, capsys, monkeypatch):
        forbid_run(monkeypatch, "propagate")
        out = tmp_path / "missing" / "p.csv"
        assert main(["propagate", "--out", str(out)]) == 2
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize("config_name, out_name, clash", [
        ("p.cfg", "taken", "output path '{out}' or its JSON summary is a directory"),
        ("p.cfg", "r.json", "output path '{out}' is also its JSON summary path"),
        ("study.json", "study.csv", "output path '{config}' is the config file '{config}'"),
        ("study.cfg", "study.cfg", "output path '{config}' is the config file '{config}'"),
    ])
    def test_output_path_that_would_clobber_is_refused(self, tmp_path, capsys, monkeypatch,
                                                       config_name, out_name, clash):
        # a directory, a CSV that is its own JSON summary, or an output that
        # is the config: exit 2 before the config is read, nothing written
        forbid_run(monkeypatch, "propagate")
        (tmp_path / "taken").mkdir()
        config = tmp_path / config_name
        config.write_text('{"grid.M": 64}\n' if config.suffix == ".json"
                          else "grid.M = 64\n")
        before = config.read_bytes()
        out = tmp_path / out_name
        assert main(["propagate", "--config", str(config), "--out", str(out)]) == 2
        assert clash.format(out=out, config=config) in capsys.readouterr().err
        assert config.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["taken", config_name])
        assert not any((tmp_path / "taken").iterdir())

    @pytest.mark.parametrize("experiment", ["empirical-constant", "spectral-ineq-27",
                                            "bridge", "control-solve"])
    def test_negative_seed_rejected(self, tmp_path, capsys, monkeypatch, experiment):
        forbid_run(monkeypatch, experiment)
        assert main([experiment, "--seed", "-1",
                     "--out", str(tmp_path / "s.csv")]) == 2
        assert "--seed must be a non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, monkeypatch, threads):
        forbid_run(monkeypatch, "uncertainty")
        assert main(["uncertainty", "--threads", threads,
                     "--out", str(tmp_path / "t.csv")]) == 2
        assert f"--threads must be at least 1, got {threads}" in capsys.readouterr().err

    def test_band_beyond_nyquist_rejected_before_solving(self, tmp_path, capsys,
                                                         monkeypatch):
        for name in ("bandlimited_sample", "extremal_bandlimited_concentration"):
            monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail(
                "validation must precede the spectral solves"))
        # L = 10, M = 64: the Nyquist frequency pi / h is 10.05
        cfg = write(tmp_path, "band.cfg", "grid.M = 64\nspectral.bands = 1.0, 11.0\n")
        assert main(["spectral-ineq-27", "--config", cfg,
                     "--out", str(tmp_path / "s.csv")]) == 2
        assert "band radius 11.0 is not below the Nyquist" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("line, named", [
        ("spectral.bands = 0.0, 1.0", "spectral.bands must be positive"),
        ("spectral.samples = 0", "spectral.samples must be at least 1"),
        ("spectral.radii = -1.0", "spectral.radii must be non-negative"),
    ])
    def test_spectral_values_validated_before_solving(self, tmp_path, capsys,
                                                      monkeypatch, line, named):
        for name in ("bandlimited_sample", "extremal_bandlimited_concentration",
                     "spectral_inequality_report"):
            monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail(
                "validation must precede the spectral solves"))
        cfg = write(tmp_path, "s.cfg", f"grid.M = 64\n{line}\n")
        assert main(["spectral-ineq-27", "--config", cfg,
                     "--out", str(tmp_path / "s.csv")]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("experiment, line", [
        ("two-time-observability", "observability.gaps = 0.0, 1.0"),
        ("two-time-observability", "observability.S = -1.0"),
        ("two-time-observability", "observability.radius = -1.0"),
        ("empirical-constant", "observability.gaps = 0.0, 1.0"),
        ("empirical-constant", "observability.radius = -1.0"),
        ("uncertainty", "uncertainty.radii = -1.0, 1.0"),
        ("moment-34", "moment.times = -1.0, 1.0"),
        ("moment-34", "moment.sigma = 0.0"),
        ("interpolation-12", "interpolation.r = 0.0"),
        ("interpolation-12", "interpolation.scales = 0.0, 1.0"),
        ("two-ball-13", "two_ball.r1 = 0.0"),
        ("two-ball-13", "two_ball.separations = inf"),
        ("propagate", "propagate.sigma = 0.0"),
        ("propagate", "propagate.times = nan"),
        ("propagate", "tail_tolerance = -1.0"),
        ("bridge", "bridge.samples = 0"),
        ("bridge", "bridge.T = 0.0"),
        ("bridge", "bridge.radius = -1.0"),
        ("euler-21", "euler.amplitudes = 0.0"),
        ("euler-21", "euler.amplitudes = nan"),
        ("verify-identity", "fresnel.times = 0.0"),
        ("verify-identity", "fresnel.times = -1.0"),
        ("counterexample", "counterexample.T = 0.0"),
        ("counterexample", "counterexample.S2 = -1.0"),
        ("control-solve", "control.max_iterations = 0"),
    ])
    def test_out_of_range_value_named_before_run(self, tmp_path, capsys, monkeypatch,
                                                 experiment, line):
        # each of these used to end in a traceback, a misnamed exit 2 or,
        # for the infinite separation, an Infinity written to the JSON
        forbid_run(monkeypatch, experiment)
        cfg = write(tmp_path, "r.cfg", f"{line}\n")
        assert main([experiment, "--config", cfg,
                     "--out", str(tmp_path / "r.csv")]) == 2
        assert f"{line.split(' = ')[0]} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, config, named", [
        ("control-solve", "control.variant = shifted_decay_null\ncontrol.b = 60\n",
         "amplitude 60 reaches exponent 780 on this box, past the cap 700"),
        ("control-solve", "control.variant = sobolev_dual_approx\ncontrol.a = 100\n",
         "amplitude 100 reaches exponent 1200 on this box, past the cap 700"),
        ("control-solve", "control.variant = complement_approx\ncontrol.a = 100\n",
         "amplitude 100 reaches exponent 2000 on this box, past the cap 700"),
        ("control-solve", "control.variant = ball_null\ncontrol.a = 100\n",
         "amplitude 100 reaches exponent 1200 on this box, past the cap 700"),
        # a L = 800 on the default box (L = 40), past the cap 700
        ("two-ball-13", "two_ball.a = 20\n",
         "amplitude 20 reaches exponent 800 on this box, past the cap 700"),
        ("interpolation-12", "interpolation.a = 40\n",
         "amplitude 40 reaches exponent 800 on this box, past the cap 700"),
        # this used to exit 0 and write the clamped weighted energy
        ("counterexample", "counterexample.family = modulated\ncounterexample.a = 50\n",
         "amplitude 50 reaches exponent 750 on this box, past the cap 700"),
    ])
    def test_capped_weight_is_exit_2(self, tmp_path, capsys, monkeypatch,
                                     experiment, config, named):
        # a weight whose exponent passes the cap would measure another norm
        # than the one named: evaluating it raises, so the control build
        # refuses it before calibration (this used to crash after the solve,
        # crash inside Lanczos, or exit 0 with the capped norm) and every
        # report or study that measures it stops
        monkeypatch.setattr(cli, "calibrate_observation_weight",
                            lambda *a, **k: pytest.fail(
                                "a capped weight must stop the run before calibration"))
        cfg = write(tmp_path, "cap.cfg", config)
        assert main([experiment, "--config", cfg,
                     "--out", str(tmp_path / "c.csv")]) == 2
        err = capsys.readouterr().err
        assert named in err and "shrink the amplitude or L" in err
        assert not (tmp_path / "c.csv").exists()

    def test_unresolved_empirical_constant_is_exit_3(self, tmp_path, capsys):
        # gaps 0.05 and 0.1 leave lambda_min below the block's rounding floor
        cfg = write(tmp_path, "gaps.cfg",
                    "grid.L = 20.0\ngrid.M = 512\nobservability.radius = 2.0\n"
                    "observability.gaps = 0.05, 0.1, 0.25\n")
        assert main(["empirical-constant", "--config", cfg,
                     "--out", str(tmp_path / "e.csv")]) == 3
        err = capsys.readouterr().err
        failing = re.findall(r"gap ([0-9.]+): lambda_min (\S+), floor ([0-9.e+-]+)", err)
        assert [gap for gap, _, _ in failing] == ["0.05", "0.1"]
        assert all(float(lam) < float(floor) for _, lam, floor in failing)
        assert not (tmp_path / "e.csv").exists()

    def test_radius_covering_the_box_is_exit_3(self, tmp_path, capsys):
        # the ball holds every node, so G = 0: lambda_min 0 is below the
        # floor (this used to write constant inf and a NaN fit slope)
        cfg = write(tmp_path, "r.cfg", "grid.M = 128\nobservability.radius = 30.0\n")
        assert main(["empirical-constant", "--config", cfg,
                     "--out", str(tmp_path / "e.csv")]) == 3
        assert "gap 0.25: lambda_min 0.000e+00, floor" in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()

    def test_prolate_at_one_is_exit_3(self, tmp_path, capsys):
        # at r = 8, N = 16 on the default box the prolate's block is near the
        # identity, and LAPACK's subset solver can return no top eigenvalue;
        # this used to end in an IndexError traceback (exit 1)
        cfg = write(tmp_path, "p.cfg", "spectral.radii = 8.0, 0.5\n"
                                       "spectral.bands = 16.0\nspectral.samples = 1\n")
        assert main(["spectral-ineq-27", "--config", cfg,
                     "--out", str(tmp_path / "p.csv")]) == 3
        assert "extremal concentration not resolved at r 8, N 16" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("experiment, config, named", [
        ("empirical-constant", "grid.M = 4096\nobservability.radius = 30.0\n",
         "observability.radius = 30: dense block of order 8192 is outside 1..4096"),
        # a second radius gives the fit two rN values; r = 8 is solved first
        ("spectral-ineq-27", "grid.dim = 2\ngrid.M = 128\nspectral.radii = 8.0, 4.0\n"
         "spectral.bands = 16.0\nspectral.samples = 1\n",
         "spectral.radii 8, spectral.bands 16: dense block of order"),
    ])
    def test_block_above_the_cap_is_exit_2_before_it_is_built(
            self, tmp_path, capsys, monkeypatch, experiment, config, named):
        # top_singular builds every block through reflection_blocks
        monkeypatch.setattr(transform, "reflection_blocks", lambda *a, **k: pytest.fail(
            "the block order must be checked before the block is built"))
        cfg = write(tmp_path, "cap.cfg", config)
        assert main([experiment, "--config", cfg,
                     "--out", str(tmp_path / "c.csv")]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    def test_counterexample_k_must_be_integers(self, tmp_path, capsys):
        cfg = write(tmp_path, "k.cfg", "grid.M = 64\ncounterexample.k = 1.5, 2, 4\n")
        assert main(["counterexample", "--config", cfg,
                     "--out", str(tmp_path / "k.csv")]) == 2
        assert "integer list" in capsys.readouterr().err

    @pytest.mark.parametrize("line, named", [
        ("counterexample.family = bogus", "unknown family 'bogus'"),
        ("counterexample.profile = bogus", "unknown profile 'bogus'"),
    ])
    def test_counterexample_family_and_profile_named(self, tmp_path, capsys, line,
                                                     named):
        cfg = write(tmp_path, "f.cfg", f"grid.M = 64\n{line}\n")
        assert main(["counterexample", "--config", cfg,
                     "--out", str(tmp_path / "f.csv")]) == 2
        assert named in capsys.readouterr().err

    def test_modulated_counterexample_runs_in_2d(self, tmp_path, capsys):
        # the modulation runs along the first axis in every dimension
        cfg = write(tmp_path, "m.cfg", "grid.dim = 2\ngrid.M = 256\n"
                    "counterexample.family = modulated\n"
                    "counterexample.k = 1, 2, 4, 8, 16\n")
        out = tmp_path / "m.csv"
        assert main(["counterexample", "--config", cfg, "--out", str(out)]) == 0
        header, *lines = out.read_text().splitlines()
        assert header == "k,terminal_inside,weighted"
        rows = [[float(v) for v in line.split(",")] for line in lines]
        assert [row[0] for row in rows] == [1.0, 2.0, 4.0, 8.0, 16.0]
        inside = [row[1] for row in rows]
        assert all(b < a for a, b in zip(inside, inside[1:]))
        assert inside[-1] < 1e-30
        assert all(row[2] == pytest.approx(rows[0][2], rel=1e-12) for row in rows)
        # L = 15, M = 256: k = 32 is above the Nyquist frequency 26.8
        cfg = write(tmp_path, "m32.cfg", "grid.dim = 2\ngrid.M = 256\n"
                    "counterexample.family = modulated\ncounterexample.k = 32\n")
        assert main(["counterexample", "--config", cfg,
                     "--out", str(tmp_path / "m32.csv")]) == 2
        assert "below the Nyquist" in capsys.readouterr().err

    def test_non_numeric_list_entry_named(self, tmp_path, capsys):
        cfg = write(tmp_path, "r.cfg", "grid.M = 64\nuncertainty.radii = 0.5, abc\n")
        assert main(["uncertainty", "--config", cfg,
                     "--out", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert "'uncertainty.radii' must be a number list" in err

    @pytest.mark.parametrize("line, named", [
        ("cost.gaps = 0.0, 1.0", "cost.gaps must be positive"),
        ("cost.gaps = 1.0", "cost.gaps needs at least two distinct values"),
        ("cost.fixed_gap = -0.5", "cost.fixed_gap must be positive"),
        ("cost.radius = 0.0", "cost.radius must be positive"),
        ("cost.penalty = 0.0", "cost.penalty must be positive"),
        ("cost.error_target = -1.0", "cost.error_target must be positive"),
        ("cost.cg_tolerance = -1.0", "cost.cg_tolerance must be positive"),
        ("cost.cg_tolerance = 0.0", "cost.cg_tolerance must be positive"),
    ])
    def test_cost_scaling_validated_before_solving(self, tmp_path, capsys,
                                                   monkeypatch, line, named):
        def no_study(*args, **kwargs):
            raise AssertionError("validation must precede the control solves")

        monkeypatch.setattr(cli, "cost_scaling_study", no_study)
        cfg = write(tmp_path, "c.cfg", f"grid.M = 64\n{line}\n")
        assert main(["cost-scaling", "--config", cfg,
                     "--out", str(tmp_path / "c.csv")]) == 2
        assert named in capsys.readouterr().err

    def test_cost_scaling_study_failure_is_exit_2(self, tmp_path, capsys, monkeypatch):
        def too_few(*args, **kwargs):
            raise ValueError("too few admissible cost samples to fit")

        monkeypatch.setattr(cli, "cost_scaling_study", too_few)
        cfg = write(tmp_path, "c.cfg", "grid.M = 64\n")
        assert main(["cost-scaling", "--config", cfg,
                     "--out", str(tmp_path / "c.csv")]) == 2
        assert "too few admissible cost samples" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("value", ["-1.0", "0.0"])
    def test_control_tolerance_validated_before_solving(self, tmp_path, capsys,
                                                        monkeypatch, value):
        def no_solve(*args, **kwargs):
            raise AssertionError("validation must precede the control solves")

        monkeypatch.setattr(cli, "calibrate_observation_weight", no_solve)
        monkeypatch.setattr(cli, "solve_control", no_solve)
        cfg = write(tmp_path, "t.cfg", f"control.cg_tolerance = {value}\n")
        assert main(["control-solve", "--config", cfg,
                     "--out", str(tmp_path / "t.csv")]) == 2
        assert "control.cg_tolerance must be positive" in capsys.readouterr().err

    def test_bridge_rejects_dim_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "b2.cfg", "grid.dim = 2\ngrid.M = 64\n")
        assert main(["bridge", "--config", cfg,
                     "--out", str(tmp_path / "b.csv")]) == 2
        assert "grid.dim must be 1" in capsys.readouterr().err

    def test_verify_identity_rejects_dim_2_before_any_work(self, tmp_path, capsys,
                                                            monkeypatch):
        monkeypatch.setattr(cli, "fresnel_map", lambda *a, **k: pytest.fail(
            "the dimension must be checked before the Fresnel map runs"))
        # this 2D grid passes the chirp check; the comparison is 1D only
        cfg = write(tmp_path, "v2.cfg", "grid.dim = 2\ngrid.M = 256\ngrid.L = 20.0\n"
                    "fresnel.times = 2.0\n")
        assert main(["verify-identity", "--config", cfg,
                     "--out", str(tmp_path / "v.csv")]) == 2
        assert "grid.dim must be 1, got 2" in capsys.readouterr().err
        assert not (tmp_path / "v.csv").exists()

    def test_uncertified_extremal_is_exit_3(self, tmp_path, capsys):
        # at rN = 24 the top of K is 1 to rounding: 1 - mu is not resolved
        # (r = 2 is solved first; r = 1 gives the fit a second rN value)
        cfg = write(tmp_path, "s.cfg", "grid.M = 512\ngrid.L = 10.0\n"
                    "spectral.bands = 12.0\nspectral.radii = 2.0, 1.0\n"
                    "spectral.samples = 1\n")
        assert main(["spectral-ineq-27", "--config", cfg,
                     "--out", str(tmp_path / "s.csv")]) == 3
        assert re.search(r"not resolved at r 2, N 12: 1 - mu \S+ below the floor \S+",
                         capsys.readouterr().err)
        assert not (tmp_path / "s.csv").exists()

    def test_tail_violation_named(self, tmp_path, capsys):
        cfg = write(tmp_path, "tail.cfg",
                    "grid.L = 4.0\ngrid.M = 64\npropagate.sigma = 3.0\n"
                    "propagate.times = 0.1\n")
        assert main(["propagate", "--config", cfg,
                     "--out", str(tmp_path / "t.csv")]) == 2
        assert "tail tolerance" in capsys.readouterr().err

    def test_solver_nonconvergence_is_exit_3(self, tmp_path, capsys):
        # the Woodbury-preconditioned variants converge in one iteration; the
        # Sobolev variant keeps its diagonal-in-xi preconditioner and stalls
        cfg = write(tmp_path, "stall.cfg",
                    "grid.M = 64\ncontrol.variant = sobolev_dual_approx\n"
                    "control.max_iterations = 1\ncontrol.cg_tolerance = 1e-12\n")
        assert main(["control-solve", "--config", cfg,
                     "--out", str(tmp_path / "c.csv")]) == 3
        assert "residual" in capsys.readouterr().err

    def test_underflowed_cg_direction_is_exit_3(self, tmp_path, capsys):
        # a tolerance of 1e-300 drives the recursive residual so low that the
        # curvature of the next direction underflows to zero; this used to
        # be reported as an indefinite operator (exit 1)
        cfg = write(tmp_path, "tiny.cfg", "control.variant = two_impulse\n"
                                          "control.cg_tolerance = 1e-300\n")
        assert main(["control-solve", "--config", cfg,
                     "--out", str(tmp_path / "c.csv")]) == 3
        assert "CG stalled at relative residual" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("amplitude", ["1e-40", "1e100"])
    def test_euler_amplitude_past_the_float_range_is_exit_2(self, tmp_path, capsys,
                                                           amplitude):
        # a power of a in the integral overflows (this used to end in an
        # OverflowError traceback, exit 1)
        cfg = write(tmp_path, "e.cfg", f"euler.amplitudes = {amplitude}\n")
        assert main(["euler-21", "--config", cfg,
                     "--out", str(tmp_path / "e.csv")]) == 2
        assert (f"Euler integral at amplitude a = {float(amplitude):g} leaves the "
                f"float range") in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()

    @pytest.mark.parametrize("experiment", ["empirical-constant", "spectral-ineq-27"])
    def test_dense_solve_that_did_not_converge_is_exit_3(self, tmp_path, capsys,
                                                         monkeypatch, experiment):
        # LinAlgError is a ValueError, but no input was refused; both the
        # Gram route (the flow block) and the prolate's block end in eigh
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("eigh did not converge")

        monkeypatch.setattr(transform, "eigh", no_convergence)
        cfg = write(tmp_path, "d.cfg", "grid.M = 64\n" + (
            "spectral.samples = 1\n" if experiment == "spectral-ineq-27" else ""))
        assert main([experiment, "--config", cfg, "--out", str(tmp_path / "d.csv")]) == 3
        assert "solver failure: eigh did not converge" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()

    def test_indefinite_operator_in_cost_scaling_is_a_traceback(self, tmp_path,
                                                                monkeypatch):
        # an operator/adjoint bug, not a configuration the study cannot serve
        def indefinite(*args, **kwargs):
            raise IndefiniteOperatorError("nonpositive curvature -1.000e+00 "
                                          "at CG iteration 1")

        monkeypatch.setattr(cli, "cost_scaling_study", indefinite)
        cfg = write(tmp_path, "c.cfg", "grid.M = 64\n")
        with pytest.raises(IndefiniteOperatorError):
            main(["cost-scaling", "--config", cfg, "--out", str(tmp_path / "c.csv")])
        assert not (tmp_path / "c.csv").exists()

    def test_success_writes_csv_and_json(self, tmp_path, capsys):
        cfg = write(tmp_path, "u.cfg", FAST_UNCERTAINTY)
        out = tmp_path / "u.csv"
        assert main(["uncertainty", "--config", cfg, "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "radius,lhs,outside_space,outside_frequency,quotient"
        summary = json.loads(out.with_suffix(".json").read_text())
        assert summary["experiment"] == "uncertainty"
        assert summary["config"]["grid.M"] == 64  # config echo
        assert summary["seed"] == 0
        assert "numpy" in summary["versions"]


class TestKeyTables:
    """Every config key is declared by its experiment's key table; any other
    key is rejected before the experiment runs."""

    @pytest.mark.parametrize("experiment, text, named", [
        ("uncertainty", "grid.m = 64\nuncertainty.radiis = 0.5\n",
         ["'grid.m'", "'uncertainty.radiis'"]),
        ("empirical-constant", "grid.M = 64\ntail_tolerance = 1e-6\n",
         ["'tail_tolerance'"]),
    ])
    def test_unknown_keys_rejected_before_run(self, tmp_path, capsys, monkeypatch,
                                              experiment, text, named):
        forbid_run(monkeypatch, experiment)
        cfg = write(tmp_path, "typo.cfg", text)
        assert main([experiment, "--config", cfg,
                     "--out", str(tmp_path / "t.csv")]) == 2
        err = capsys.readouterr().err
        assert "unknown config key" in err and f"experiment {experiment!r}" in err
        for key in named:
            assert key in err
        assert not (tmp_path / "t.csv").exists()

    def test_parameter_of_another_variant_rejected_before_solving(
            self, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("validation must precede the control solves")

        monkeypatch.setattr(cli, "calibrate_observation_weight", no_solve)
        monkeypatch.setattr(cli, "solve_control", no_solve)
        cfg = write(tmp_path, "v.cfg",
                    "control.variant = ball_null\ncontrol.tau1 = 0\n")
        assert main(["control-solve", "--config", cfg,
                     "--out", str(tmp_path / "v.csv")]) == 2
        err = capsys.readouterr().err
        assert "ball_null" in err and "'tau1'" in err

    @pytest.mark.parametrize("experiment, key, value, rule", [
        (experiment, key, value, spec[1])
        for experiment, entry in EXPERIMENTS.items()
        for key, spec in entry.keys.items() if isinstance(spec, tuple)
        for value in (VIOLATIONS[spec[1]], *(["nan"] if is_float_key(spec[0]) else []))])
    def test_ranged_key_violation_named_before_run(self, tmp_path, capsys, monkeypatch,
                                                   experiment, key, value, rule):
        forbid_run(monkeypatch, experiment)
        cfg = write(tmp_path, "r.cfg", f"{key} = {value}\n")
        assert main([experiment, "--config", cfg,
                     "--out", str(tmp_path / "r.csv")]) == 2
        assert f"{key} must be {rule}, got" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("experiment, key, repeats", [
        (experiment, key, repeats) for experiment, entry in EXPERIMENTS.items()
        for key, spec in entry.keys.items()
        if isinstance(cli._declared(spec)[0], list) for repeats in (1, 2)])
    def test_list_value_never_ends_in_a_traceback(self, tmp_path, experiment, key,
                                                  repeats):
        # a single sweep value, or one value twice, used to leave a fit
        # without a slope: a traceback, or exit 0 with an arbitrary slope
        first = cli._declared(EXPERIMENTS[experiment].keys[key])[0][0]
        cfg = write(tmp_path, "l.cfg", f"{key} = " + ", ".join([repr(first)] * repeats)
                    + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.RankWarning)
            assert main([experiment, "--config", cfg,
                         "--out", str(tmp_path / "l.csv")]) in (0, 2)

    @pytest.mark.parametrize("experiment, key", [
        (experiment, key) for experiment, entry in EXPERIMENTS.items()
        for key, spec in entry.keys.items()
        if not isinstance(spec, tuple) and is_float_key(spec)])
    def test_unranged_float_must_be_finite(self, tmp_path, capsys, monkeypatch,
                                           experiment, key):
        forbid_run(monkeypatch, experiment)
        cfg = write(tmp_path, "f.cfg", f"{key} = inf\n")
        assert main([experiment, "--config", cfg,
                     "--out", str(tmp_path / "f.csv")]) == 2
        assert f"{key} must be finite, got" in capsys.readouterr().err

    def test_defaults_obey_their_rules_and_shared_keys_agree(self):
        rules = {}
        for experiment, entry in EXPERIMENTS.items():
            cli.resolve(entry.keys, {}, experiment)  # every default passes
            for key, spec in entry.keys.items():
                rules.setdefault(key, set()).add(
                    spec[1] if isinstance(spec, tuple) else None)
        assert {key: found for key, found in rules.items() if len(found) > 1} == {}

    def test_tail_tolerance_only_where_the_tail_is_checked(self):
        tail = {"propagate", "verify-identity", "uncertainty", "two-time-observability",
                "interpolation-12", "two-ball-13", "moment-34", "control-solve"}
        assert {name for name, entry in EXPERIMENTS.items()
                if "tail_tolerance" in entry.keys} == tail

    def test_readme_keys_declared(self):
        text = README.read_text()
        # the study.cfg example is a counterexample config
        study = text.split("# study.cfg\n", 1)[1].split("```", 1)[0]
        study_keys = [line.split("=")[0].strip() for line in study.splitlines()]
        assert study_keys
        assert set(study_keys) <= set(EXPERIMENTS["counterexample"].keys)
        # the control-solve paragraph and its variant table, whose last column
        # names each variant's own keys without the control. prefix
        control = text.split("`control-solve` builds its problem", 1)[1]
        control = control.split("\n## ", 1)[0]
        named = re.findall(r"(?<![\w.])((?:grid|control)\.\w+)", control)
        own = [f"control.{key}" for key in re.findall(r"`(\w+) = ", control)]
        assert len(own) == 6
        assert set(named + own) <= set(EXPERIMENTS["control-solve"].keys)
        # every other dotted key is declared by some experiment
        declared = {key for entry in EXPERIMENTS.values() for key in entry.keys}
        dotted = set(re.findall(r"`([a-z_]+\.[A-Za-z_]\w*)", text))
        assert {key for key in dotted if not key.startswith("schrodlab.")} <= declared


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, tmp_path):
        cfg = write(tmp_path, "u.cfg", FAST_UNCERTAINTY)
        outputs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            assert main(["uncertainty", "--config", cfg, "--out", str(out),
                         "--seed", "42"]) == 0
            outputs.append((out.read_bytes(),
                            out.with_suffix(".json").read_bytes()
                            .replace(name.encode(), b"")))
        assert outputs[0][0] == outputs[1][0]

    def test_threads_do_not_change_rows(self, tmp_path):
        cfg = write(tmp_path, "u.cfg", FAST_UNCERTAINTY)
        csvs = []
        for threads, name in ((1, "s.csv"), (4, "p.csv")):
            out = tmp_path / name
            assert main(["uncertainty", "--config", cfg, "--out", str(out),
                         "--threads", str(threads)]) == 0
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]

    def test_sweep_does_not_depend_on_blas_or_worker_threads(self, tmp_path):
        # a 2D-256 Gramian sweep whose CSV moves with the BLAS thread count
        # whenever its workers leave BLAS on the environment's threads
        cfg = write(tmp_path, "g.cfg", "grid.dim = 2\ngrid.M = 256\n")
        src = str(Path(schrodlab.__file__).resolve().parents[1])
        csvs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}.csv"
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            done = subprocess.run([sys.executable, "-m", "schrodlab.cli",
                                   "empirical-constant", "--config", cfg, "--out", str(out),
                                   "--threads", threads],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]

    def test_each_sweep_worker_runs_blas_on_one_thread(self, monkeypatch):
        # a build whose BLAS thread count is kept per thread, starting at 2
        counts = threading.local()

        def setter(count):
            previous, counts.value = getattr(counts, "value", 2), count
            return previous
        monkeypatch.setattr(transform, "_openblas_thread_setters", lambda: (setter,))
        seen = cli._map_ordered(lambda item: getattr(counts, "value", 2), range(8), 4)
        assert seen == [1] * 8

    def test_runs_unchanged_without_openblas(self, tmp_path, capsys, monkeypatch):
        cfg = write(tmp_path, "u.cfg", FAST_UNCERTAINTY)
        outputs = []
        for name in ("found", "none"):
            if name == "none":
                monkeypatch.setattr(transform, "_openblas_thread_setters", lambda: ())
            out = tmp_path / name / "u.csv"
            out.parent.mkdir()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["uncertainty", "--config", cfg, "--out", str(out),
                             "--threads", "2"]) == 0
            outputs.append((out.read_bytes(), out.with_suffix(".json").read_bytes()))
        assert outputs[0] == outputs[1]
        assert capsys.readouterr().err == ""

    def test_extremal_outputs_do_not_depend_on_the_seed(self, tmp_path):
        cfg = write(tmp_path, "s.cfg", "spectral.samples = 1\n")
        empirical, extremal = [], []
        for seed in ("0", "7"):
            out = tmp_path / f"e{seed}.csv"
            assert main(["empirical-constant", "--out", str(out), "--seed", seed]) == 0
            empirical.append(out.read_bytes())
            out = tmp_path / f"s{seed}.csv"
            assert main(["spectral-ineq-27", "--config", cfg, "--out", str(out),
                         "--seed", seed]) == 0
            lines = out.read_text().splitlines()
            column = lines[0].split(",").index("extremal_ratio")
            extremal.append([line.split(",")[column] for line in lines[1:]])
        assert empirical[0] == empirical[1]
        assert extremal[0] == extremal[1]

    @pytest.mark.parametrize("experiment, variant",
                             [("control-solve", name) for name in VARIANTS]
                             + [("cost-scaling", None)])
    def test_control_outputs_do_not_depend_on_the_seed(self, tmp_path, experiment,
                                                       variant):
        args = [experiment]
        if variant is not None:
            args += ["--config", write(tmp_path, "v.cfg", f"control.variant = {variant}\n")]
        outputs = []
        for seed in ("0", "7"):
            out = tmp_path / seed / "out.csv"
            out.parent.mkdir()
            assert main(args + ["--out", str(out), "--seed", seed]) == 0
            summary = json.loads(out.with_suffix(".json").read_text())
            assert summary.pop("seed") == int(seed)
            outputs.append((out.read_bytes(), summary))
        assert outputs[0] == outputs[1]

    def test_csv_floats_round_trip(self, tmp_path):
        cfg = write(tmp_path, "u.cfg", FAST_UNCERTAINTY)
        out = tmp_path / "u.csv"
        main(["uncertainty", "--config", cfg, "--out", str(out)])
        lines = out.read_text().splitlines()
        for line in lines[1:]:
            for cell in line.split(","):
                assert repr(float(cell)) == cell


class TestCatalog:
    def test_all_documented_experiments_present(self):
        # the README's "Experiments:" paragraph lists the catalog, with the
        # control variants in a parenthesis after control-solve
        paragraph = README.read_text().split("\nExperiments:", 1)[1].split("\n\n")[0]
        before, variants = paragraph.split("(`control.variant` one of", 1)
        variants, after = variants.split(")", 1)
        names = re.findall(r"`([^`]+)`", before + after)
        assert names == list(EXPERIMENTS)
        assert re.findall(r"`([^`]+)`", variants) == list(VARIANTS)

    def test_listing_stable_and_tagged(self, capsys):
        first = list_experiments()
        second = list_experiments()
        assert first == second
        for line in first.splitlines()[1:]:
            assert line.count("[") == 1 and line.strip().endswith("]")

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "control-solve" in out

    @pytest.mark.parametrize("experiment", list(EXPERIMENTS))
    def test_list_experiment_is_its_default_config(self, experiment, tmp_path, capsys):
        # `list <experiment>` prints every key with its default and rules in
        # config syntax; read back as a config it resolves to the defaults
        assert main(["list", experiment]) == 0
        listing = capsys.readouterr().out
        keys = EXPERIMENTS[experiment].keys
        assert listing.startswith(f"# {experiment}: ")
        assert [line.lstrip("# ").split(" = ")[0]
                for line in listing.splitlines()[1:]] == list(keys)
        config = load_config(write(tmp_path, "listed.cfg", listing))
        assert cli.resolve(keys, config, experiment) == cli.resolve(keys, {}, experiment)

    def test_list_experiment_shows_rules(self, capsys):
        assert main(["list", "counterexample"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("# counterexample: decay rates of the sharpness "
                            "families [sharpness counterexamples]")
        assert "counterexample.S2 = 0.5  # positive, finite" in lines
        assert "# counterexample.r2 = <float>  # non-negative, finite" in lines
        assert "counterexample.k = 1, 2, 4, 8, 16, 32" in lines

    def test_list_argument_misuse_exits_2(self, capsys):
        assert main(["list", "nonsense"]) == 2
        assert "unknown experiment 'nonsense'" in capsys.readouterr().err
        assert main(["propagate", "bridge"]) == 2
        assert "only 'list' takes an experiment name" in capsys.readouterr().err


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # start-up cost: scipy.special and scipy.integrate load only where a run
    # needs them, so a fresh `import schrodlab.cli` must not pull them in
    code = ("import sys, schrodlab.cli; "
            "print(' '.join(m for m in ('scipy.special', 'scipy.integrate') "
            "if m in sys.modules))")
    src = str(Path(schrodlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
