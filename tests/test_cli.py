"""CLI surface: flags, config files, CSV schemas, exit codes."""

import argparse
import dataclasses
import hashlib
import math
import os
import shlex
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import foeslab.cli as cli
import foeslab.metrics
import foeslab.rbm_bounds
from foeslab.cli import build_parser, main, merge_config, read_config_file
from foeslab.core import OutcomeSpace
from foeslab.rbm_bounds import RbmBoundsReport
from conftest import CLI_CHILD, child_peak_kb, child_stdout
from test_rbm_bounds import blas_bounds_report, readme_draws


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestLrepCommand:
    def test_bernoulli_example(self, capsys):
        code, out, _ = run_cli(capsys, "lrep", "--model", "bernoulli",
                               "--n", "5", "--theta", "2")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["model", "n", "lrep", "scaled_lrep", "delta_n",
                          "argmax_index", "argmin_index"]
        assert float(rows[0]["lrep"]) == pytest.approx(10.0, abs=1e-12)
        assert float(rows[0]["scaled_lrep"]) == pytest.approx(2.0, abs=1e-12)

    def test_budget_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "lrep", "--model", "bernoulli",
                               "--n", "40", "--theta", "1")
        assert code == 3
        assert "budget" in err

    def test_missing_model_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "lrep", "--n", "5")
        assert code == 2
        assert "model" in err


def joint_rbm_argv(n_visible: int, n_hidden: int, seed: int = 0) -> list:
    """lrep argv for a joint RBM with uniform(-1, 1) parameters."""
    rng = np.random.default_rng(seed)

    def values(size):
        return ",".join(repr(float(v)) for v in rng.uniform(-1, 1, size))

    return ["lrep", "--model", "rbm_joint", "--n-visible", str(n_visible),
            "--n-hidden", str(n_hidden), "--theta-v=" + values(n_visible),
            "--theta-h=" + values(n_hidden),
            "--theta-vh=" + values(n_hidden * n_visible)]


def test_joint_rbm_over_budget_exits_before_any_table(capsys, monkeypatch):
    # 14 + 11 units are 2^25 outcomes: the budget check comes before the
    # enumeration and before the 256 MB table is allocated
    calls = []
    monkeypatch.setattr(OutcomeSpace, "all_outcomes",
                        lambda *args, **kwargs: calls.append(args))
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *joint_rbm_argv(14, 11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, calls) == (3, "", [])
    assert err.count("\n") == 1 and "2^25 = 33554432 outcomes exceed" in err
    assert peak < 2**20


class TestDispatch:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_no_arguments(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0


class TestConfigFile:
    def test_file_plus_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("model = bernoulli\nn = 5\ntheta = 2  # log odds\n")
        code, out, _ = run_cli(capsys, "lrep", "--config", str(cfg))
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["lrep"]) == pytest.approx(10.0)

        code, out, _ = run_cli(capsys, "lrep", "--config", str(cfg),
                               "--theta", "3")
        _, rows = parse_csv(out)
        assert float(rows[0]["lrep"]) == pytest.approx(15.0)

    def test_malformed_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model bernoulli\n")
        assert run_cli(capsys, "lrep", "--config", str(cfg))[0] == 2

    def test_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("modell = bernoulli\n")
        assert run_cli(capsys, "lrep", "--config", str(cfg))[0] == 2

    def test_malformed_float_list(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model = multinomial\nn = 3\nthetas = 1,x\n")
        code, out, err = run_cli(capsys, "lrep", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "comma-separated floats" in err

    @pytest.mark.parametrize("argv, text", [
        ("lrep --n 3", "model = foo"),
        ("psr --n 3", "model = foo"),
        ("gibbs --n 3", "model = foo"),
        ("path --entries 4:1;5:1;6:1", "family = rbm_joint"),
    ])
    def test_value_outside_choices(self, tmp_path, capsys, argv, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text + "\n")
        code, out, err = run_cli(capsys, *argv.split(), "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command, text, choices", [
        ("lrep", "model = nonsense",
         "uniform, bernoulli, multinomial, graph, rbm_marginal, rbm_joint"),
        ("path", "family = uniform", "bernoulli, multinomial, graph"),
    ])
    def test_value_outside_choices_names_them(self, tmp_path, capsys, command,
                                              text, choices):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text + "\n")
        key, _, value = text.partition(" = ")
        assert run_cli(capsys, command, "--config", str(cfg)) == (
            2, "", f"foeslab: error: config key {key} = {value!r}: "
                   f"choose from {choices}\n")

    def test_missing_file(self, capsys):
        assert run_cli(capsys, "lrep", "--config", "/nonexistent.cfg")[0] == 2

    def test_reader_strips_comments(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# full line comment\nn = 4\n\nkey-dash = x\n")
        assert read_config_file(str(cfg)) == {"n": "4", "key_dash": "x"}


class TestOtherCommands:
    def test_lrep_uniform(self, capsys):
        code, out, _ = run_cli(capsys, "lrep", "--model", "uniform", "--n", "3",
                               "--alphabet-size", "3")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows == [{"model": "uniform", "n": "3", "lrep": "0.0",
                         "scaled_lrep": "0.0", "delta_n": "0.0",
                         "argmax_index": "0", "argmin_index": "0"}]

    def test_delta(self, capsys):
        code, out, _ = run_cli(capsys, "delta", "--model", "bernoulli",
                               "--n", "4", "--theta", "1.5")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["delta_n"]) == pytest.approx(1.5, abs=1e-12)

    def test_modeset(self, capsys):
        code, out, _ = run_cli(capsys, "modeset", "--model", "bernoulli",
                               "--n", "5", "--theta", "2", "--epsilon", "0.1")
        assert code == 0
        _, rows = parse_csv(out)
        assert int(rows[0]["n_members"]) == 1
        p = 1 / (1 + math.exp(-2))
        assert float(rows[0]["mass"]) == pytest.approx(p**5, abs=1e-12)

    def test_modeset_bad_epsilon(self, capsys):
        assert run_cli(capsys, "modeset", "--model", "bernoulli", "--n", "5",
                       "--theta", "2", "--epsilon", "1.5")[0] == 2

    def test_path_with_masses(self, capsys):
        code, out, _ = run_cli(capsys, "path", "--family", "bernoulli",
                               "--entries", "4:4;8:8;12:12", "--epsilon", "0.1")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "scaled_lrep", "modal_mass"]
        assert [float(r["scaled_lrep"]) for r in rows] == [4.0, 8.0, 12.0]
        assert "# verdict = empirically-unstable" in out

    def test_path_graph_family_uses_node_counts(self, capsys):
        code, out, _ = run_cli(capsys, "path", "--family", "graph",
                               "--entries", "4:0,1,0;5:0,1,0;6:0,1,0")
        assert code == 0
        _, rows = parse_csv(out)
        assert [float(r["scaled_lrep"]) for r in rows] == \
            pytest.approx([2.0, 3.0, 4.0], abs=1e-9)

    def test_bounds_explicit(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n-visible", "2",
                               "--n-hidden", "1", "--theta-v", "1,-0.5",
                               "--theta-h", "0.3", "--theta-vh", "0.7,-1.1")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["b_n"]) > 0

    def test_bounds_random(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n-visible", "3",
                               "--n-hidden", "2", "--random-draws", "4",
                               "--seed", "5")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 4

    def test_bounds_header_is_draw_then_report_fields(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n-visible", "2",
                               "--random-draws", "1")
        assert code == 0
        header, _ = parse_csv(out)
        assert header == ["draw", *(f.name for f in
                                    dataclasses.fields(RbmBoundsReport))]
        assert header == ["draw", "n_visible", "n_hidden", "visible_l1",
                          "hidden_l1", "interaction_l1", "a_n", "b_n", "c_n",
                          "lrep_joint", "lrep_marginal", "a_n_hidden_first",
                          "lower_witness", "n_h_log2"]

    def test_lrep_rbm_marginal(self, capsys):
        code, out, _ = run_cli(capsys, "lrep", "--model", "rbm_marginal",
                               "--n-visible", "3", "--theta-v", "0.5,-1.5,2.0")
        assert code == 0
        _, rows = parse_csv(out)
        expected = 2.0 * (0.5 + 1.5 + 2.0)
        assert float(rows[0]["lrep"]) == pytest.approx(expected, abs=1e-12)

    def test_psr_reports_marginal_violation(self, capsys):
        code, out, _ = run_cli(capsys, "psr", "--model", "rbm_marginal",
                               "--n-visible", "2", "--n-hidden", "1",
                               "--theta-v", "1,-0.5", "--theta-h", "0.3",
                               "--theta-vh", "0.7,-1.1")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["holds"] == "false"
        assert float(rows[0]["max_violation"]) > 0.1

    def test_psr(self, capsys):
        code, out, _ = run_cli(capsys, "psr", "--model", "bernoulli",
                               "--n", "6", "--theta", "1.5")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["holds"] == "true"
        assert float(rows[0]["max_violation"]) < 1e-9

    def test_lowerbound(self, capsys):
        code, out, _ = run_cli(capsys, "lowerbound", "--nodes", "4",
                               "--theta2", "1")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["bound"]) == pytest.approx(2.0, abs=1e-12)
        assert float(rows[0]["scaled_lrep"]) >= 2.0 - 1e-9

    def test_lowerbound_odd_nodes(self, capsys):
        assert run_cli(capsys, "lowerbound", "--nodes", "5",
                       "--theta2", "1")[0] == 2

    def test_lowerbound_past_256_nodes(self, capsys):
        # the complete graph's degree 257 does not fit in a byte
        code, out, err = run_cli(capsys, "lowerbound", "--nodes", "258",
                                 "--theta2", "1", "--theta3", "-0.2")
        assert (code, err) == (0, "")
        assert out == ("nodes,theta1,theta2,theta3,bound,scaled_lrep\n"
                       "258,0.0,1.0,-0.2,238.93333333333334,\n")

    def test_score(self, capsys):
        code, out, _ = run_cli(capsys, "score", "--model", "bernoulli",
                               "--n", "6", "--theta", "3")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["normalized_score"]) == pytest.approx(
            1 / (1 + math.exp(-3)), abs=1e-9)

    def test_score_multinomial_vector_mean(self, capsys):
        code, out, _ = run_cli(capsys, "score", "--model", "multinomial",
                               "--n", "4", "--thetas", "1,0,-1")
        assert code == 0
        _, rows = parse_csv(out)
        mu = [float(v) for v in rows[0]["mu"].split(";")]
        assert len(mu) == 3
        assert sum(mu) == pytest.approx(4.0, abs=1e-9)  # counts sum to n
        assert rows[0]["normalized_score"] == ""  # one-parameter only

    def test_score_uniform_model_has_no_position(self, capsys):
        code, out, _ = run_cli(capsys, "score", "--model", "bernoulli",
                               "--n", "3", "--theta", "0")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["expected_position"] == ""
        assert float(rows[0]["normalized_score"]) == pytest.approx(0.5)

    def test_gibbs_trace_schema(self, capsys):
        code, out, _ = run_cli(capsys, "gibbs", "--model", "bernoulli",
                               "--n", "4", "--theta", "0.5", "--sweeps", "50",
                               "--seed", "3")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["sweep", "outcome_index", "log_prob", "in_modal_set"]
        assert len(rows) == 50
        assert "# modal_occupancy" in out

    def test_gibbs_deterministic(self, capsys):
        args = ("gibbs", "--model", "bernoulli", "--n", "4", "--theta", "0.5",
                "--sweeps", "30", "--seed", "3")
        _, out_a, _ = run_cli(capsys, *args)
        _, out_b, _ = run_cli(capsys, *args)
        assert out_a == out_b

    def test_mh(self, capsys):
        code, out, _ = run_cli(capsys, "mh", "--model", "bernoulli", "--n", "6",
                               "--data", "1,1,1,1,1,1", "--steps", "50",
                               "--seed", "4", "--theta0", "0")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["step", "theta_0", "accepted", "log_alpha"]
        assert len(rows) == 50
        assert "# acceptance_rate" in out

    def test_mh_starts_from_family_flags(self, capsys):
        args = ("mh", "--model", "bernoulli", "--n", "3", "--data", "1,1,0",
                "--steps", "2")
        code, out, _ = run_cli(capsys, *args, "--theta", "1")
        assert code == 0
        assert out == run_cli(capsys, *args, "--theta0", "1")[1]

    def test_mh_normal_prior(self, capsys):
        code, out, _ = run_cli(capsys, "mh", "--model", "bernoulli", "--n", "3",
                               "--theta", "1", "--data", "1,1,0", "--steps", "2",
                               "--prior", "normal:2")
        assert code == 0
        assert "# prior = normal:2" in out
        assert len(parse_csv(out)[1]) == 2

    def test_mh_multinomial_theta0_sets_categories(self, capsys):
        code, out, _ = run_cli(capsys, "mh", "--model", "multinomial", "--n", "3",
                               "--data", "1,2,3", "--theta0", "1,2,3",
                               "--steps", "2")
        assert code == 0
        header, _ = parse_csv(out)
        assert header == ["step", "theta_0", "theta_1", "theta_2", "accepted",
                          "log_alpha"]

    def test_mh_bad_prior(self, capsys):
        assert run_cli(capsys, "mh", "--model", "bernoulli", "--n", "4",
                       "--data", "1,1,1,1", "--theta0", "0",
                       "--prior", "cauchy")[0] == 2


class TestFigure1Command:
    def test_small_grid_deterministic(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["figure1", "--seed", "42", "--n-visible", "4", "--n-hidden", "1",
                "--n-breaks", "3", "--samples-per-point", "2"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        header, rows = parse_csv(out_a.read_text())
        assert len(rows) == 9
        assert header == ["main_mag", "int_mag", "mean_scaled_lrep",
                          "mean_delta_n", "n_samples"]

    def test_values_roundtrip_exactly(self, tmp_path):
        out = tmp_path / "grid.csv"
        main(["figure1", "--seed", "1", "--n-visible", "4", "--n-hidden", "1",
              "--n-breaks", "2", "--samples-per-point", "2", "--out", str(out)])
        _, rows = parse_csv(out.read_text())
        for row in rows:
            for key in ("main_mag", "int_mag", "mean_scaled_lrep", "mean_delta_n"):
                value = float(row[key])
                assert repr(value) == row[key]

    def test_config_file_driven(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("n_visible = 4\nn_hidden = 1\nn_breaks = 2\n"
                       "samples_per_point = 2\nseed = 9\n")
        code, out, _ = run_cli(capsys, "figure1", "--config", str(cfg))
        assert code == 0
        assert "# seed = 9" in out
        _, rows = parse_csv(out)
        assert len(rows) == 4


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        "lrep --model bernoulli --n 3 --thetas 1,x",
        "mh --model bernoulli --n 3 --data 1,1,1 --theta0 a",
    ])
    def test_malformed_float_list_flag(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "comma-separated floats" in err

    @pytest.mark.parametrize("argv, message", [
        ("bounds --n-visible 3 --random-draws -2", "random_draws must be >= 0"),
        ("mh --model rbm_marginal --n-visible 2 --theta-v 1,2 --data 1,1 "
         "--steps 3", "mh needs a bernoulli, multinomial or graph family"),
        ("figure1 --n-hidden 0 --n-breaks 2", "n_hidden must be >= 1"),
        ("figure1 --n-breaks 2 --magnitude-min -1", "magnitude_min must be >= 0"),
        ("mh --model bernoulli --n 3 --data 1,1,1 --theta0 1,2 --steps 4",
         "params must be (theta,)"),
        ("mh --model bernoulli --n 3 --data 1,1,1 --theta0= --steps 4",
         "params must be (theta,)"),
        ("path --family bernoulli --entries 4:1,2;5:1;6:1",
         "params must be (theta,)"),
        ("mh --model graph --nodes 3 --data 1,1,1 --theta0 1,2 --steps 4",
         "params must be (theta1, theta2, theta3)"),
        ("mh --model multinomial --n 3 --thetas 1,2 --data 1,2,1 "
         "--theta0 1,2,3 --steps 2", "params must be"),
        ("bounds --random-draws 1 --n-visible 2 --half-width inf", "half_width"),
        ("bounds --random-draws 1 --n-visible 2 --half-width nan", "half_width"),
        ("bounds --random-draws 1 --n-visible 2 --half-width 1e308", "half_width"),
        ("bounds --random-draws 1 --n-visible 2 --half-width -1", "half_width"),
        ("figure1 --n-breaks 2 --samples-per-point 1 --magnitude-max 1e306",
         "non-finite log-probability"),
        ("figure1 --n-breaks 2 --samples-per-point 1 --magnitude-max 1e307",
         "non-finite log-probability"),
        ("figure1 --n-breaks 2 --samples-per-point 1 --magnitude-max inf",
         "non-finite log-probability"),
        ("lrep --model bernoulli --n 3 --theta 1e308",
         "non-finite log-probability"),
        ("lowerbound --nodes 4 --theta2 1e308 --budget 1",
         "non-finite log-probability"),
        ("bounds --n-visible 2 --theta-v 1e308,1e308",
         "non-finite log-probability"),
        ("mh --model bernoulli --n 3 --theta 1 --data 1,1,0 --steps 2 "
         "--prior normal:nan", "normal prior scale"),
        ("mh --model bernoulli --n 3 --theta 1 --data 1,1,0 --steps 2 "
         "--prior normal:1e-200", "normal prior scale"),
        ("mh --model bernoulli --n 3 --theta 1 --data 1,1,0 --steps 2 "
         "--prior normal:1e200", "normal prior scale"),
        ("mh --model bernoulli --n 3 --theta 1 --data 1,1,0 --step-size=-1",
         "step_size must be positive and finite"),
        ("mh --model bernoulli --n 3 --theta 1 --data 1,1,0 --step-size 0",
         "step_size must be positive and finite"),
        ("mh --model bernoulli --n 3 --theta 1 --data 1,1,0 --step-size nan",
         "step_size must be positive and finite"),
        ("mh --model bernoulli --n 3 --theta 1 --data 1,1,0 --step-size inf",
         "step_size must be positive and finite"),
    ])
    def test_out_of_range_value(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("argv", [
        "mh --model bernoulli --n 3 --data 1,1,0 --steps 2",
        "mh --model bernoulli --n 3 --theta 1 --data 1,1,0 --steps 2 "
        "--prior normal:0",
        "psr --model multinomial --n 3",
        "psr --model uniform --n 3",
        "score --model rbm_joint --n-visible 2 --theta-v 1,2",
        "lrep --model bernoulli --n 3 --theta 1 --out /nonexistent/dir/x.csv",
        "lrep --model bernoulli --n 3 --theta 1 --out .",
        "figure1 --n-breaks 2 --samples-per-point 1 --metrics=",
        "figure1 --n-breaks 2 --samples-per-point 1 --metrics ,",
        "figure1 --n-breaks 2 --samples-per-point 1 --magnitude-min -1",
        "figure1 --n-breaks 2 --samples-per-point 1 --magnitude-min=-inf",
        "path --family graph --entries 4:0,3,0;5:0,3,0;6:0,3,0 --level nan",
        "path --family graph --entries 4:0,3,0;5:0,3,0;6:0,3,0 --flatness nan",
    ])
    def test_rejected_input_is_one_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        "lrep --model bernoulli --n 3 --theta 1e308",
        "lrep --model graph --nodes 4 --theta1 1e308 --theta2 1e308",
        "figure1 --n-breaks 2 --samples-per-point 1 --magnitude-max 1e307",
    ])
    def test_overflow_is_one_line_in_a_process(self, argv):
        # pytest records numpy's warnings itself, so only a separate process
        # shows what reaches stderr
        src = os.path.dirname(os.path.dirname(foeslab.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-m", "foeslab", *argv.split()],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.count("\n") == 1

    def test_memory_error_is_budget_exit(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 128. GiB for an array")

        monkeypatch.setattr(cli, "make_bernoulli", exhausted)
        code, out, err = run_cli(capsys, "lrep", "--model", "bernoulli",
                                 "--n", "3", "--theta", "1")
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and "out of memory" in err

    def test_failed_certificate_is_one_line_and_exit_2(self, capsys, monkeypatch):
        # b(x) and a(h) grow tenfold, as in test_rbm_bounds'
        # test_finite_violation_is_a_certificate_error
        original = foeslab.rbm_bounds.hidden_absum
        monkeypatch.setattr(foeslab.rbm_bounds, "hidden_absum",
                            lambda *args: 10.0 * original(*args))
        code, out, err = run_cli(capsys, "bounds", "--n-visible", "2", "--n-hidden", "1",
                                 "--theta-v=0.5,-1.0", "--theta-h", "0.3",
                                 "--theta-vh", "0.7,0.2")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith("foeslab: error: proven bound violated")

    def test_bounds_negative_seed_wraps_to_64_bits(self, capsys):
        base = ("bounds", "--n-visible", "3", "--n-hidden", "2",
                "--random-draws", "2")
        code, out_neg, _ = run_cli(capsys, *base, "--seed", "-1")
        assert code == 0
        _, out_max, _ = run_cli(capsys, *base, "--seed", str(2**64 - 1))
        assert parse_csv(out_neg) == parse_csv(out_max)
        assert len(parse_csv(out_neg)[1]) == 2


def subcommand_parsers():
    parser = build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("name", sorted(subcommand_parsers()))
def test_flags_and_config_keys_agree(name, tmp_path):
    actions = [a for a in subcommand_parsers()[name]._actions
               if a.dest not in {"help", "config", "out"}]
    dests = {a.dest for a in actions}
    cfg = tmp_path / "all.cfg"
    # a choice key is checked as it is read, so it takes its first choice
    cfg.write_text("".join(f"{a.dest} = {(a.choices or [1])[0]}\n" for a in actions))
    args = build_parser().parse_args([name, "--config", str(cfg)])
    assert set(merge_config(args, args.options)) == dests


@pytest.mark.parametrize("flags", ["--model graph", "--nodes 9", "--theta 1"])
def test_bounds_rejects_model_flags(capsys, flags):
    code, out, _ = run_cli(capsys, "bounds", "--n-visible", "2",
                           "--theta-v", "1,2", *flags.split())
    assert (code, out) == (2, "")


# sha256 of the stdout of each README CLI example, with a small figure1 grid
# standing in for the README's default one (acceptance criterion 11 runs
# that); a changed digest means changed output bytes
README_EXAMPLES = {
    "lrep --model bernoulli --n 5 --theta 2":
        "fd8e60db4c059db7784bdd239e293094f388a0ecbce83eb63438d50ba2a3646d",
    "delta --model graph --nodes 4 --theta2 1":
        "de67b320a58a8f78a0e7ce856695c4fef71280952f2dad5713e7ec33fa138001",
    "modeset --model bernoulli --n 10 --theta 6 --epsilon 0.1":
        "eeb61bd769c64466e781ff15f38a60ebd2048de53f667f0acfdbb794fed12601",
    "path --family graph --entries '4:0,1,0;5:0,1,0;6:0,1,0' --epsilon 0.1":
        "a7be1c84e791f945c310802a73521df23a7162cba9659652a618502d83f51b78",
    "bounds --n-visible 4 --n-hidden 2 --random-draws 10 --seed 5":
        "173e5aff99bf88c05aa9fa03501c79b882f46321d9e5d28cc397336484d61223",
    "psr --model rbm_joint --n-visible 2 --n-hidden 1 --theta-v 1,-0.5 "
    "--theta-h 0.3 --theta-vh 0.7,-1.1":
        "7d40a736da63def01953264be0dbb8fd7c092d487a74dad57a87991591065b70",
    "lowerbound --nodes 6 --theta2 1 --theta3 -0.2":
        "5ab903fb14897d831ddb41045a8c5517c0c1b7eff1669e0d3f79321da974bd97",
    "gibbs --model graph --nodes 5 --theta2 2 --sweeps 10000 --burn-in 500 "
    "--seed 11 --init 0,0,0,0,0,0,0,0,0,0":
        "2f7411bb2f0ce643425124572f2e36becd2f22c0154f06caff5f0ba03db61090",
    "mh --model bernoulli --n 8 --data 1,1,1,1,1,1,1,1 --theta0 0 "
    "--steps 2000 --seed 5":
        "030d78bb1af00c13453a3428585977c16ce3ebd3b98c0f3d0cb65d8ea3137e52",
    "score --model bernoulli --n 6 --theta 3":
        "e1d90a85b1a83849438ba0fc800eb8f61f3e4982072c9113c8dd34aee758f1e7",
    "figure1 --n-visible 6 --n-hidden 3 --n-breaks 3 --samples-per-point 4 "
    "--seed 42":
        "088db0b5b05becd6f69a136906e45edbd54f64eb184d903749857723c172d752",
}

# (OutcomeSpace.all_outcomes calls, modal_set calls) per example: each
# model is enumerated once however many diagnostics read it, mh's
# proposals all share the start point's one statistic table, and figure1,
# the joint RBM (psr) and both sides of bounds build their scores by signed
# sums without outcome rows
README_EXAMPLE_PASSES = {
    "lrep": (1, 0), "delta": (1, 0), "modeset": (1, 1), "path": (3, 3),
    "bounds": (0, 0), "psr": (0, 0), "lowerbound": (1, 0), "gibbs": (1, 1),
    "mh": (1, 0), "score": (1, 0), "figure1": (0, 0),
}


@pytest.mark.parametrize("command", README_EXAMPLES,
                         ids=lambda c: c.split()[0])
def test_readme_example_bytes(capsys, command):
    code, out, _ = run_cli(capsys, *shlex.split(command))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == README_EXAMPLES[command]


@pytest.mark.parametrize("command", README_EXAMPLES,
                         ids=lambda c: c.split()[0])
def test_readme_example_passes(capsys, monkeypatch, command):
    calls = {"all_outcomes": 0, "modal_set": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(OutcomeSpace, "all_outcomes",
                        counted("all_outcomes", OutcomeSpace.all_outcomes))
    original = foeslab.metrics.modal_set
    wrapped = counted("modal_set", original)
    for name, module in list(sys.modules.items()):
        if name.startswith("foeslab") and \
                getattr(module, "modal_set", None) is original:
            monkeypatch.setattr(module, "modal_set", wrapped)
    assert run_cli(capsys, *shlex.split(command))[0] == 0
    expected = README_EXAMPLE_PASSES[command.split()[0]]
    assert (calls["all_outcomes"], calls["modal_set"]) == expected


# sha256 of the stdout of commands whose tables span more than one chunk:
# 2^21 graph outcomes (2^5 chunks) and 3^12 multinomial outcomes (pieces of
# 3^10 rows, 2 digits above a piece). The graph commands hold all three
# terms, an exact tie (every triangle-free graph of at most one 2-star
# against the rest) and a scale of ~1e8.
MULTI_CHUNK_EXAMPLES = {
    "lrep --model graph --nodes 7 --theta2 0.3 --theta3 -0.1":
        "7616f716524b32183dad6394713389d8c910c86e99086def07e4af6e632588b0",
    "lrep --model graph --nodes 7 --theta1=-0.4 --theta2=0.3 --theta3=-0.1":
        "01fb42d1892cde2900f3b8df698957010cf8b57e63079189d05e2b5e1fee0245",
    "delta --model graph --nodes 7 --theta1=-0.4 --theta2=0.3 --theta3=-0.1":
        "74d3cee1aa33e8c8073a7a103fbd067154985549489b6c536fd1efec654f4877",
    "lrep --model graph --nodes 7 --theta2 1":
        "19ab82eee9a79d665bfc056f854900b760e07b3389c0adcaccde78a303538044",
    "delta --model graph --nodes 7 --theta2 1":
        "486f145e43336aa5ae7cce43c3a7761571432e45c5a2de1f3dd8680df5712261",
    "lrep --model graph --nodes 7 --theta1=-4.1e8 --theta2=3.3e8 --theta3=-1.7e8":
        "845660c22f758daecbf39dec5b7414bf498c6de403a21ecc4e1bcda0c112190e",
    "delta --model graph --nodes 7 --theta1=-4.1e8 --theta2=3.3e8 --theta3=-1.7e8":
        "617cfeb6af300304c3f2ebdb19745e8285f1c0e41265a4007ca1e97a48f0bb9b",
    "delta --model multinomial --n 12 --thetas 0.3,-0.2,0.5":
        "95bbe061e7162bf77dbf86ff071f831f3ecdac3ec4581f0034c7e717267cc0c3",
}


@pytest.mark.parametrize("command", MULTI_CHUNK_EXAMPLES,
                         ids=lambda c: "-".join(c.split()[:1] + c.split()[2:3] + c.split()[4:]))
def test_multi_chunk_example_bytes(capsys, command):
    code, out, _ = run_cli(capsys, *shlex.split(command))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MULTI_CHUNK_EXAMPLES[command]


def count_tabulate(monkeypatch) -> list:
    """Patch OutcomeSpace.all_outcomes, which every table route calls once
    for its low block, to log each call; returns the log."""
    calls = []
    original = OutcomeSpace.all_outcomes
    monkeypatch.setattr(OutcomeSpace, "all_outcomes",
                        lambda *args, **kwargs: calls.append(1) or
                        original(*args, **kwargs))
    return calls


def test_mh_enumerates_its_space_once(capsys, monkeypatch):
    # the benchmark's mh run: a 6-node graph walked for 200 proposals
    calls = count_tabulate(monkeypatch)
    code, out, _ = run_cli(capsys, "mh", "--model", "graph", "--nodes", "6",
                           "--data", "1,0,1,1,0,0,1,0,1,1,0,0,1,0,1",
                           "--theta0=0.1,-0.2,0.3", "--steps", "200",
                           "--step-size", "0.2", "--seed", "7")
    assert code == 0 and len(parse_csv(out)[1]) == 200
    assert len(calls) == 1


@pytest.mark.parametrize("data, message", [
    ("1,1", "outcome must have shape (21,)"),
    ("2" + ",0" * 20, "symbol 2 not in alphabet (0, 1)"),
])
def test_mh_rejects_bad_data_before_enumerating(capsys, monkeypatch, data,
                                                message):
    calls = count_tabulate(monkeypatch)
    code, out, err = run_cli(capsys, "mh", "--model", "graph", "--nodes", "7",
                             "--data", data, "--theta0=0,0,0")
    assert (code, out, len(calls)) == (2, "", 0)
    assert err.count("\n") == 1 and message in err


def test_readme_bounds_evaluates_hidden_absum_twice_per_draw(capsys, monkeypatch):
    # once for b(x) and once for a(h), which is b of the transposed RBM:
    # each side of a 4+2 draw is one run
    calls = []
    original = foeslab.rbm_bounds.hidden_absum
    monkeypatch.setattr(foeslab.rbm_bounds, "hidden_absum",
                        lambda *args: calls.append(1) or original(*args))
    command = next(c for c in README_EXAMPLES if c.startswith("bounds"))
    code, out, _ = run_cli(capsys, *shlex.split(command))
    assert code == 0 and len(calls) == 20
    assert hashlib.sha256(out.encode()).hexdigest() == README_EXAMPLES[command]


def test_readme_bounds_columns_are_the_blas_route_within_ulps(capsys):
    # a(h) and b(x) add their fields in unit order from the bias, where the
    # BLAS route added in BLAS order, so each column may move by ulps of the
    # draw's largest magnitude; lrep_marginal's route is unchanged, and so
    # are its bytes
    command = next(c for c in README_EXAMPLES if c.startswith("bounds"))
    code, out, _ = run_cli(capsys, *shlex.split(command))
    _, rows = parse_csv(out)
    assert code == 0 and len(rows) == 10
    for row, params in zip(rows, readme_draws()):
        want = dataclasses.asdict(blas_bounds_report(params))
        tol = 4.5e-16 * max(abs(v) for v in want.values() if isinstance(v, float))
        assert row["lrep_marginal"] == repr(want["lrep_marginal"])
        for name, value in want.items():
            assert abs(float(row[name]) - value) <= tol, name


def test_lrep_at_two_to_the_21_peaks_near_its_score_table():
    # a 7-node graph has 2^21 outcomes and a 16 MB score table; building
    # the table chunk by chunk keeps the process far below the 2 GB that a
    # dense float64 copy of the outcome matrix would take
    argv = ("lrep --model graph --nodes 7 --theta1 0.3 --theta2 -0.2 "
            "--theta3 0.5")
    assert child_peak_kb(CLI_CHILD, *argv.split()) < 512 * 1024


def test_seven_node_lrep_holds_its_score_table_and_two_chunks(capsys):
    # each chunk of scores is gathered from the score of every count key
    # (84k of them), so no 2^21 key table (8 MB) or (2^21, 3) statistic
    # table (48 MB) is made; a chunk here is a (2^16, 3) float64 block of
    # statistic rows, what the route held per chunk before the keys
    argv = "lrep --model graph --nodes 7 --theta1=-0.4 --theta2=0.3 --theta3=-0.1"
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, *argv.split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out.count("\n") == 2
    assert peak < 2**21 * 8 + 2 * 2**16 * 3 * 8


def test_lrep_on_the_joint_rbm_at_the_cap_peaks_near_its_table():
    # 14 + 10 units: the score table is 128 MB, and the visible and hidden
    # rows are scored once each; a full-size one-flip temporary per
    # variable took the peak to about 295 MB
    argv = " ".join(joint_rbm_argv(14, 10))
    assert child_peak_kb(CLI_CHILD, *argv.split()) < 256 * 1024


def test_mh_at_two_to_the_21_keeps_one_statistic_table():
    # proposals share one 48 MB statistic table (three columns of 2^21
    # rows) and each holds one 16 MB score table while it is scored
    argv = ("mh --model graph --nodes 7 --data " + ",".join("10" * 10 + "1")
            + " --theta0=-0.3,0.1,0.2 --steps 20 --seed 2")
    assert child_peak_kb(CLI_CHILD, *argv.split()) < 512 * 1024


@pytest.mark.parametrize("argv", [
    "bounds --n-visible 22 --random-draws 1",
    "bounds --n-visible 2 --n-hidden 22 --random-draws 1",
])
def test_bounds_at_two_to_the_22_peaks_near_its_tables(argv):
    # each side keeps seven numbers per run of one chunk, and the marginal
    # LREP two; the dense outcome matrix and its float64 copies took near
    # 1 GB on either side
    assert child_peak_kb(CLI_CHILD, *argv.split()) < 512 * 1024


def test_bounds_at_24_hiddens_keeps_one_hidden_table():
    # the hidden side reduces each run of one chunk to seven numbers, so no
    # table of 2^24 rows is kept: about 41 MB in all, against 432 MB for
    # one three-column table (384 MB) and 565 MB with full-size copies of
    # its lower and upper profiles besides
    argv = "bounds --n-visible 1 --n-hidden 24 --random-draws 1"
    assert child_peak_kb(CLI_CHILD, *argv.split()) < 64 * 1024


def test_bounds_at_24_visibles_keeps_no_visible_table():
    # the visible side reduces each run of one chunk to seven numbers and the
    # marginal's scores to two, so no table of 2^24 rows is kept: about 40 MB
    # in all, against about 170 MB for the upper profile and marginal score tables
    argv = "bounds --n-visible 24 --n-hidden 2 --random-draws 1"
    assert child_peak_kb(CLI_CHILD, *argv.split()) < 64 * 1024


@pytest.fixture(scope="module")
def import_peak_kb() -> int:
    """Peak RSS of a CLI run on a 16-outcome model: the import baseline."""
    return child_peak_kb(CLI_CHILD, *"lrep --model bernoulli --n 4 --theta 0.3".split())


TABLE_KB = 2**24 * 8 // 1024  # one float64 table of 2^24 entries
BERNOULLI_24 = "--model bernoulli --n 24 --theta 0.3"


@pytest.mark.parametrize("argv, tables_kb", [
    ("modeset " + BERNOULLI_24, TABLE_KB),
    ("modeset " + " ".join(joint_rbm_argv(14, 10)[1:]), TABLE_KB),
    # every outcome is a member: the score table plus one int64 member array
    ("modeset --model bernoulli --n 24 --theta 0 --epsilon 0.5", 2 * TABLE_KB),
    # three models held at once: 2^24, 2^22 and 2^20 outcomes
    ("path --family bernoulli --entries 20:0.3;22:0.3;24:0.3 --epsilon 0.1",
     TABLE_KB + TABLE_KB // 4 + TABLE_KB // 16),
    ("gibbs --sweeps 10 " + BERNOULLI_24, TABLE_KB),
    # the models at theta and at -theta
    ("psr " + BERNOULLI_24, 2 * TABLE_KB),
    ("psr " + " ".join(joint_rbm_argv(14, 10)[1:]), 2 * TABLE_KB),
    # scores, statistics and probabilities: E[g] is one dense BLAS product,
    # so its bytes do not move
    ("score " + BERNOULLI_24, 3 * TABLE_KB),
], ids=["modeset", "modeset-rbm-joint", "modeset-uniform", "path", "gibbs", "psr",
        "psr-rbm-joint", "score"])
def test_commands_at_the_cap_keep_one_table_per_model(import_peak_kb, argv,
                                                      tables_kb):
    # each normalizing reduction forms fl(s - log Z) one chunk at a time,
    # so past the import a run holds its tables plus a few chunks; full-size
    # log-prob, exp and mask copies took these runs to 413-950 MB
    few_chunks_kb = 16 * 1024
    assert child_peak_kb(CLI_CHILD, *argv.split()) < import_peak_kb + tables_kb + few_chunks_kb


@pytest.mark.parametrize("nodes", ["6", "7"])
def test_score_bytes_do_not_depend_on_the_blas_thread_count(nodes):
    # 2^15 and 2^21 outcomes, past the size where a BLAS dot product splits
    # its sum over threads
    argv = ["score", "--model", "graph", "--nodes", nodes, "--theta1=-0.2",
            "--theta2=0.3", "--theta3=-0.1"]
    single, double = (child_stdout(CLI_CHILD, *argv, OPENBLAS_NUM_THREADS=threads)
                      for threads in ("1", "2"))
    assert single == double and "expected_position" in single


@pytest.mark.parametrize("command", ["lrep", "delta"])
def test_seven_node_diagnostics_do_not_depend_on_the_blas_thread_count(command):
    # a lone graph model scores its table without a statistic table first,
    # unlike score above
    argv = [command, "--model", "graph", "--nodes", "7", "--theta1=-0.4",
            "--theta2=0.3", "--theta3=-0.1"]
    single, double = (child_stdout(CLI_CHILD, *argv, OPENBLAS_NUM_THREADS=threads)
                      for threads in ("1", "2"))
    assert single == double and "delta_n" in single


SPIN_CHILD = """
import io, sys, time
from contextlib import redirect_stdout
from foeslab.cli import main

def busy_cpu_minus_wall():
    cpu, wall = time.process_time(), time.perf_counter()
    while time.perf_counter() - wall < 0.3:
        pass
    return time.process_time() - cpu - (time.perf_counter() - wall)

busy_cpu_minus_wall()  # BLAS workers started at import may spin through this
with redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
print(busy_cpu_minus_wall())
"""


def test_score_leaves_no_blas_worker_spinning():
    # this process's CPU time beyond its wall time, over a busy loop run
    # after score, is time other threads spent; a BLAS dot product's worker
    # spun for about 0.12 s after each call
    out = child_stdout(SPIN_CHILD, "score", "--model", "graph", "--nodes", "6",
                       "--theta2=0.3", "--theta3=-0.1")
    assert float(out) < 0.02
