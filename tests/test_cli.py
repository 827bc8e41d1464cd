"""Runner contract: config parsing, exit codes, determinism, output format."""

import json

import pytest

from schrodlab import cli
from schrodlab.cli import (ConfigError, EXPERIMENTS, list_experiments,
                           load_config, main)


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

    def test_aliasing_violation_named(self, tmp_path, capsys):
        cfg = write(tmp_path, "alias.cfg",
                    "grid.L = 20.0\ngrid.M = 64\nbridge.T = 1.0\n")
        assert main(["bridge", "--config", cfg,
                     "--out", str(tmp_path / "b.csv")]) == 2
        assert "aliasing" in capsys.readouterr().err

    def test_empirical_constant_needs_two_gaps(self, tmp_path, capsys,
                                               monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("validation must precede the eigenvalue solves")

        monkeypatch.setattr(cli, "empirical_constant", no_solve)
        cfg = write(tmp_path, "gap.cfg", "grid.M = 64\nobservability.gaps = 1.0\n")
        assert main(["empirical-constant", "--config", cfg,
                     "--out", str(tmp_path / "e.csv")]) == 2
        assert "at least two gaps" in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()

    def test_bridge_rejects_dim_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "b2.cfg", "grid.dim = 2\ngrid.M = 64\n")
        assert main(["bridge", "--config", cfg,
                     "--out", str(tmp_path / "b.csv")]) == 2
        assert "grid.dim must be 1" in capsys.readouterr().err

    def test_tail_violation_named(self, tmp_path, capsys):
        cfg = write(tmp_path, "tail.cfg",
                    "grid.L = 4.0\ngrid.M = 64\npropagate.sigma = 3.0\n"
                    "propagate.times = 0.1\n")
        assert main(["propagate", "--config", cfg,
                     "--out", str(tmp_path / "t.csv")]) == 2
        assert "tail tolerance" in capsys.readouterr().err

    def test_solver_nonconvergence_is_exit_3(self, tmp_path, capsys):
        cfg = write(tmp_path, "stall.cfg",
                    "grid.M = 64\ngrid.L = 20.0\ncontrol.max_iterations = 1\n"
                    "control.cg_tolerance = 1e-12\n")
        assert main(["control-solve", "--config", cfg,
                     "--out", str(tmp_path / "c.csv")]) == 3
        assert "residual" in capsys.readouterr().err

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
        for name in ("propagate", "verify-identity", "uncertainty",
                     "two-time-observability", "empirical-constant",
                     "interpolation-12", "two-ball-13", "spectral-ineq-27",
                     "moment-34", "euler-21", "counterexample",
                     "control-solve", "cost-scaling"):
            assert name in EXPERIMENTS

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
