import copy
import csv
import inspect
import json
import math
import shlex
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crowdselect import cli, profiles


def run(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_matrix(path, ids, matrix):
    lines = [",".join(ids)]
    for row in matrix:
        lines.append(",".join(str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "matrix.csv"
    write_matrix(
        path,
        ["a", "b", "c"],
        [[0.0, 0.5, 0.9], [0.5, 0.0, 0.1], [0.9, 0.1, 0.0]],
    )
    return path


@pytest.fixture
def pool_file(tmp_path):
    path = tmp_path / "pool.csv"
    path.write_text("worker_id,p\nw1,0.1\nw2,0.5\nw3,0.9\n")
    return path


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    rows = [
        {"worker_id": "w1", "task_id": "t1", "text": "cats and dogs and cats"},
        {"worker_id": "w1", "task_id": "t2", "text": "dogs dogs dogs"},
        {"worker_id": "w2", "task_id": "t1", "text": "stocks and bonds"},
        {"worker_id": "w3", "task_id": "t3", "text": "bonds bonds funds"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return path


class TestPbdCommands:
    def test_tau_matches_oracle(self, capsys):
        code, out, _ = run(
            capsys, "pbd", "tau", "--probs", "0.2,0.4,0.6,0.9", "--theta1", "1", "--theta0", "1"
        )
        assert code == 0
        assert json.loads(out)["tau"] == pytest.approx(0.9376, abs=1e-12)

    def test_pmf_methods_agree(self, capsys):
        code, out, _ = run(capsys, "pbd", "pmf", "--probs", "0.2,0.4,0.6,0.9")
        assert code == 0
        fast = json.loads(out)["pmf"]
        code, out, _ = run(
            capsys, "pbd", "pmf", "--probs", "0.2,0.4,0.6,0.9", "--method", "bruteforce"
        )
        assert code == 0
        slow = json.loads(out)["pmf"]
        assert fast == pytest.approx(slow, abs=1e-9)

    def test_bad_probs_exit_2(self, capsys):
        code, _, err = run(capsys, "pbd", "tau", "--probs", "0.2,oops", "--theta1", "1", "--theta0", "1")
        assert code == 2
        assert err.strip()

    @pytest.mark.parametrize("command", [["pmf"], ["tau", "--theta1", "1", "--theta0", "1"]])
    def test_probs_past_dftcf_limit_exit_2(self, capsys, command):
        probs = ",".join(["0.5"] * 4097)
        code, out, err = run(capsys, "pbd", command[0], "--probs", probs, *command[1:])
        assert code == 2
        assert "4096" in err
        assert out == ""

    def test_infeasible_window_exit_2(self, capsys):
        code, out, err = run(capsys, "pbd", "tau", "--probs", "0.5,0.5", "--theta1", "2", "--theta0", "1")
        assert code == 2
        assert "infeasible" in err
        assert out == ""  # diagnostics never pollute the data stream


class TestSelectS:
    def test_exact(self, capsys, matrix_file):
        code, out, _ = run(
            capsys, "select", "s", "--matrix", str(matrix_file), "-k", "2", "--method", "exact"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["subset"] == ["b", "c"]
        assert payload["div"] == pytest.approx(-0.05)

    def test_greedy_and_random(self, capsys, matrix_file):
        for method in ("greedy", "random"):
            code, out, _ = run(
                capsys, "select", "s", "--matrix", str(matrix_file), "-k", "2",
                "--method", method, "--seed", "4",
            )
            assert code == 0
            assert len(json.loads(out)["subset"]) == 2

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_matrix_exit_2(self, capsys, tmp_path, bad):
        path = tmp_path / "bad.csv"
        write_matrix(path, ["a", "b", "c"], [[0.0, bad, 0.9], [bad, 0.0, 0.1], [0.9, 0.1, 0.0]])
        code, out, err = run(
            capsys, "select", "s", "--matrix", str(path), "-k", "2", "--method", "greedy"
        )
        assert code == 2
        assert "similarity matrix has non-finite entries" in err
        assert out == ""

    def test_duplicate_header_id_exit_2(self, capsys, tmp_path):
        # two workers named "b" would make the selected crowd's ids ambiguous
        path = tmp_path / "dup.csv"
        write_matrix(path, ["a", "b", "b"], [[0.0, 0.5, 0.9], [0.5, 0.0, 0.1], [0.9, 0.1, 0.0]])
        code, out, err = run(
            capsys, "select", "s", "--matrix", str(path), "-k", "2", "--method", "exact"
        )
        assert code == 2
        assert "duplicate worker id 'b'" in err
        assert out == ""

    @pytest.mark.parametrize("entry", [1e300, math.nextafter(1e300, 0.0)], ids=["at", "below"])
    def test_matrix_at_overflow_bound(self, capsys, tmp_path, entry):
        # two workers: C(2, 2) * max |entry| must lie below 1e300
        path = tmp_path / "big.csv"
        write_matrix(path, ["a", "b"], [[0.0, entry], [entry, 0.0]])
        code, out, err = run(
            capsys, "select", "s", "--matrix", str(path), "-k", "2", "--method", "exact"
        )
        if entry >= 1e300:
            assert code == 2
            assert "similarity entries too large: C(n, 2) * max |entry| must be below 1e+300" in err
            assert out == ""
        else:
            assert code == 0
            assert json.loads(out)["div"] == -entry / 2

    def test_one_worker_prints_positive_zero(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        write_matrix(path, ["a"], [[0.0]])
        code, out, _ = run(capsys, "select", "s", "--matrix", str(path), "-k", "1")
        assert code == 0
        assert '"div": 0.0' in out

    def test_zero_k_exit_2(self, capsys, matrix_file):
        code, _, err = run(
            capsys, "select", "s", "--matrix", str(matrix_file), "-k", "0", "--method", "exact"
        )
        assert code == 2
        assert err.strip()

    def test_unknown_subcommand_exit_2(self, capsys):
        code, _, _ = run(capsys, "select", "q")
        assert code == 2


class TestSelectT:
    def test_exact_inline_probs(self, capsys):
        code, out, _ = run(
            capsys, "select", "t", "--probs", "0.1,0.5,0.9", "-k", "2",
            "--theta1", "1", "--theta0", "1", "--method", "exact",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["indices"] == [0, 2]
        assert payload["tau"] == pytest.approx(0.82, abs=1e-12)

    def test_pool_file_ids(self, capsys, pool_file):
        code, out, _ = run(
            capsys, "select", "t", "--pool", str(pool_file), "-k", "2",
            "--theta1", "1", "--theta0", "1", "--method", "exact",
        )
        assert code == 0
        assert json.loads(out)["subset"] == ["w1", "w3"]

    def test_sa_deterministic_output(self, capsys, pool_file):
        args = (
            "select", "t", "--pool", str(pool_file), "-k", "2", "--theta1", "1",
            "--theta0", "1", "--method", "dftcf-sa", "--seed", "11", "--sa-r", "25",
        )
        code, first, _ = run(capsys, *args)
        assert code == 0
        code, second, _ = run(capsys, *args)
        assert first == second

    def test_exact_on_pool_past_int16_indices(self, capsys, tmp_path):
        path = tmp_path / "pool.csv"
        rows = [f"w{i},{0.9 if i == 39_000 else 0.1}" for i in range(40_000)]
        path.write_text("worker_id,p\n" + "\n".join(rows) + "\n")
        code, out, _ = run(
            capsys, "select", "t", "--pool", str(path), "-k", "1",
            "--theta1", "1", "--theta0", "0", "--method", "exact",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["subset"] == ["w39000"]
        assert payload["indices"] == [39_000]

    @pytest.mark.parametrize("t_ini", ["inf", "nan"])
    def test_non_finite_t_ini_exit_2(self, capsys, t_ini):
        # an infinite start temperature never cools below t_end
        code, _, err = run(
            capsys, "select", "t", "--probs", "0.1,0.5,0.9,0.3", "-k", "2", "--theta1", "1",
            "--theta0", "1", "--method", "dftcf-sa", "--t-ini", t_ini,
        )
        assert code == 2
        assert "t_ini" in err

    @pytest.mark.parametrize(
        "options, field",
        [(["--sa-c", "0.9999999999999999"], "SA_MAX_STEPS"),
         (["--sa-r", "100000000000"], "SA_MAX_STEPS"),
         (["--t-end", "5e-324"], "t_end")],
        ids=["c-one-ulp-below-1", "r-1e11", "subnormal-t-end"],
    )
    def test_unbounded_schedule_exit_2(self, capsys, options, field):
        # each schedule ran until killed, past 5 s, before it was refused
        code, out, err = run(
            capsys, "select", "t", "--probs", "0.1,0.5,0.9,0.3", "-k", "2", "--theta1", "1",
            "--theta0", "1", "--method", "dftcf-sa", *options,
        )
        assert code == 2
        assert field in err
        assert out == ""

    @pytest.mark.parametrize("method", ["exact", "poisson", "binomial", "normal-sa", "dftcf-sa", "random"])
    def test_crowd_past_dftcf_limit_exit_2(self, capsys, method):
        # refused before any work: exact (C(k, k) = 1 subset) and dftcf-sa
        # would otherwise build a (k + 1)^2 table of roots, 537 MB traced
        probs = ",".join(["0.5"] * 4097)
        started = time.perf_counter()
        code, out, err = run(
            capsys, "select", "t", "--probs", probs, "-k", "4097", "--theta1", "0",
            "--theta0", "0", "--method", method,
        )
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert "4096" in err
        assert out == ""

    @pytest.mark.parametrize("k", [130, 4096])
    def test_dftcf_annealing_tables_past_limit_exit_2(self, capsys, k):
        # 4,097 workers x 65 or 2,048 frequencies is past DFTCF_SA_LIMIT; at
        # k = 4,096 the tables would trace about 0.95 GB. One worker more than
        # k: a pool of k workers is the only pick and builds no tables
        probs = ",".join(["0.3"] * 4097)
        started = time.perf_counter()
        code, out, err = run(
            capsys, "select", "t", "--probs", probs, "-k", str(k), "--theta1", "1",
            "--theta0", "1", "--method", "dftcf-sa",
        )
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert "DFT-CF annealing tables" in err
        assert out == ""

    def test_pool_and_probs_mutually_exclusive(self, capsys, pool_file):
        code, _, err = run(
            capsys, "select", "t", "--pool", str(pool_file), "--probs", "0.5",
            "-k", "1", "--theta1", "0", "--theta0", "0", "--method", "exact",
        )
        assert code == 2
        assert "exactly one" in err


class TestLoaders:
    def test_matrix_asymmetry_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_matrix(path, ["a", "b"], [[0.0, 0.5], [0.4, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            cli.load_matrix_csv(path)

    def test_matrix_row_count_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0.0,0.5\n")
        with pytest.raises(ValueError, match="rows"):
            cli.load_matrix_csv(path)

    def test_matrix_non_numeric_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0.0,x\n0.5,0.0\n")
        with pytest.raises(ValueError, match="row 2"):
            cli.load_matrix_csv(path)

    def test_pool_out_of_range_names_row(self, tmp_path):
        path = tmp_path / "pool.csv"
        path.write_text("worker_id,p\nw1,0.5\nw2,1.5\n")
        with pytest.raises(ValueError, match="row 3"):
            cli.load_pool_csv(path)

    def test_pool_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "pool.csv"
        path.write_text("worker_id,p\nw1,0.5\nw1,0.6\n")
        with pytest.raises(ValueError, match="duplicate"):
            cli.load_pool_csv(path)

    def test_pool_duplicate_late_in_large_pool(self, capsys, tmp_path):
        path = tmp_path / "pool.csv"
        rows = [f"w{i},0.5" for i in range(20_000)] + ["w123,0.25"]
        path.write_text("worker_id,p\n" + "\n".join(rows) + "\n")
        code, out, err = run(
            capsys, "select", "t", "--pool", str(path), "-k", "2",
            "--theta1", "1", "--theta0", "0", "--method", "random",
        )
        assert code == 2
        assert "row 20002: duplicate worker id 'w123'" in err
        assert out == ""

    def test_pool_header_required(self, tmp_path):
        path = tmp_path / "pool.csv"
        path.write_text("id,prob\nw1,0.5\n")
        with pytest.raises(ValueError, match="header"):
            cli.load_pool_csv(path)

    def test_corpus_duplicate_record_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        rows = [
            {"worker_id": "w1", "task_id": "t1", "text": "a"},
            {"worker_id": "w1", "task_id": "t1", "text": "b"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(ValueError, match="one record per task"):
            cli.load_corpus_jsonl(path)

    def test_corpus_missing_field_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"worker_id": "w", "text": "a"}) + "\n")
        with pytest.raises(ValueError, match="line 1"):
            cli.load_corpus_jsonl(path)

    def test_corpus_bad_json_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"worker_id": "w"\n')
        with pytest.raises(ValueError, match="line 1"):
            cli.load_corpus_jsonl(path)

    def test_matrix_round_trip(self, matrix_file):
        ids, matrix = cli.load_matrix_csv(matrix_file)
        assert ids == ["a", "b", "c"]
        assert matrix[0, 2] == 0.9


class TestProfileCommands:
    def test_fit_writes_model(self, capsys, corpus_file, tmp_path):
        model_path = tmp_path / "model.json"
        code, _, _ = run(
            capsys, "profile", "fit", "--corpus", str(corpus_file), "-K", "2",
            "--seed", "1", "--out", str(model_path),
        )
        assert code == 0
        model = json.loads(model_path.read_text())
        assert set(model) == {"pi", "mu", "vocab"}
        assert len(model["pi"]) == 2
        assert all(len(row) == len(model["vocab"]) for row in model["mu"])

    def test_fit_defaults_are_em_fits(self, capsys, corpus_file, tmp_path):
        model_path = tmp_path / "model.json"
        code, _, _ = run(
            capsys, "profile", "fit", "--corpus", str(corpus_file), "-K", "2",
            "--seed", "1", "--out", str(model_path),
        )
        assert code == 0
        _, experiences = profiles.build_experiences(cli.load_corpus_jsonl(corpus_file))
        model = profiles.em_fit(experiences, 2, seed=1)
        assert json.loads(model_path.read_text()) == {
            "pi": model.pi.tolist(), "mu": model.mu.tolist(), "vocab": list(model.vocab),
        }
        defaults = {p.name: p.default for p in cli.profile_fit.params}
        signature = inspect.signature(profiles.em_fit).parameters
        assert (defaults["tol"], defaults["max_iter"]) == (
            signature["tol"].default, signature["max_iter"].default,
        )

    def test_similarity_round_trips_into_smodel(self, capsys, corpus_file, tmp_path):
        model_path = tmp_path / "model.json"
        run(capsys, "profile", "fit", "--corpus", str(corpus_file), "-K", "2",
            "--seed", "1", "--out", str(model_path))
        sim_path = tmp_path / "sim.csv"
        code, _, _ = run(
            capsys, "profile", "similarity", "--corpus", str(corpus_file),
            "--model", str(model_path), "--out", str(sim_path),
        )
        assert code == 0
        ids, matrix = cli.load_matrix_csv(sim_path)
        assert ids == ["w1", "w2", "w3"]
        assert matrix.shape == (3, 3)
        code, out, _ = run(
            capsys, "select", "s", "--matrix", str(sim_path), "-k", "2", "--method", "exact"
        )
        assert code == 0
        assert len(json.loads(out)["subset"]) == 2

    def test_fit_with_too_many_topics_exit_2(self, capsys, corpus_file):
        code, _, err = run(
            capsys, "profile", "fit", "--corpus", str(corpus_file), "-K", "10000000000000"
        )
        assert code == 2
        assert "n_topics" in err

    @pytest.mark.parametrize(
        "options, field",
        [(["--tol", "0", "--max-iter", "1000000000"], "max_iter"),
         (["--tol", "nan", "--max-iter", "1000000000"], "tol"),
         (["--max-iter", "-5"], "max_iter")],
        ids=["zero-tol-1e9-iterations", "nan-tol", "negative-max-iter"],
    )
    def test_fit_unbounded_or_empty_exit_2(self, capsys, corpus_file, options, field):
        # the first two ran until killed at 10 s; the last exited 0 after no iteration
        code, out, err = run(
            capsys, "profile", "fit", "--corpus", str(corpus_file), "-K", "2", *options
        )
        assert code == 2
        assert field in err
        assert out == ""

    def test_fit_on_broken_model_file(self, capsys, corpus_file, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text("{\"pi\": [1.0]}")
        code, _, err = run(
            capsys, "profile", "similarity", "--corpus", str(corpus_file),
            "--model", str(model_path),
        )
        assert code == 2
        assert "model" in err


class TestBenchCommand:
    def test_run_writes_report_and_summary(self, capsys, tmp_path):
        config = {
            "model": "smodel",
            "n": 8,
            "trials": 2,
            "distribution": "uniform",
            "k": [3],
            "methods": ["greedy", "random"],
            "seed": 5,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        code, _, _ = run(
            capsys, "bench", "run", "--config", str(config_path), "--out-dir", str(out_dir)
        )
        assert code == 0
        report = (out_dir / "report.csv").read_text().splitlines()
        assert report[0] == ",".join(
            ["trial", "method", "k", "theta1", "theta0", "objective",
             "tau_or_div", "wall_time_s", "status"]
        )
        assert len(report) == 1 + 2 * 2
        summary = json.loads((out_dir / "summary.json").read_text())
        assert set(summary["methods"]) == {"greedy", "random"}

    @pytest.mark.parametrize(
        "config,field",
        [
            ({"model": "smodel", "trials": 1, "k": [2]}, "'n'"),
            ({"model": "smodel", "n": 6, "trials": 1, "k": 5}, "'k'"),
            ({"model": "smodel", "n": 6, "trials": 1, "k": [2],
              "distribution": {"mean": 1}}, "'distribution'"),
            ({"model": "smodel", "n": 6, "trials": 1, "k": [2], "distribution": 5},
             "'distribution'"),
            (["model", "smodel"], "config"),
            ({"model": "tmodel", "n": 6, "trials": 1, "k": [2], "demands": [[1, "k/0"]],
              "methods": ["random"]}, "demand"),
            ({"model": "smodel", "n": 6, "trials": 1, "k": [2], "methods": "greedy"},
             "'methods'"),
            ({"model": "smodel", "n": 6, "trials": 1, "k": [2, 0],
              "methods": ["greedy"]}, "every k must be at least 1"),
            ({"model": "tmodel", "n": 6, "trials": 1, "k": [2], "demands": [[1, 1]],
              "methods": ["random", "dftcf-sa"], "sa": {"seed": 3}}, "sa: "),
            ({"model": "tmodel", "n": 6, "trials": 1, "k": [2], "demands": [[1, 1]],
              "methods": ["random", "dftcf-sa"], "sa": {"temp": 3}}, "sa: "),
            ({"model": "tmodel", "n": 6, "trials": 1, "k": [2], "demands": [[1, 1]],
              "methods": ["random", "dftcf-sa"], "sa": {"r": 1.5}}, "sa: "),
            ({"model": "smodel", "n": 6, "trials": 1, "k": [2],
              "distribution": {"kind": "normal", "mean": "x"}}, "'distribution'"),
            ({"model": "smodel", "n": 6, "trials": 1, "k": [2],
              "distribution": {"kind": "normal", "mean": [1, 2]}}, "'distribution'"),
            ({"model": "smodel", "n": 6, "trials": 1, "k": [2],
              "distribution": {"kind": "normal", "mean": float("nan")}}, "'distribution'"),
            ({"model": "tmodel", "n": 1e9, "trials": 1, "k": [2], "demands": [[1, 1]],
              "methods": ["random"]}, "'n'"),
            ({"model": "smodel", "n": 5000, "trials": 1, "k": [2], "methods": ["random"]}, "'n'"),
            ({"model": "smodel", "n": 6, "trials": 1e9, "k": [2], "methods": ["random"]},
             "'trials'"),
            ({"model": "tmodel", "n": 0, "trials": 1, "k": [1], "demands": [[0, 0]],
              "methods": ["random"]}, "'n'"),
            ({"model": "smodel", "n": 6.7, "trials": 1, "k": [2], "methods": ["random"]}, "'n'"),
            ({"model": "smodel", "n": 6, "trials": 1.9, "k": [2], "methods": ["random"]},
             "'trials'"),
            ({"model": "smodel", "n": 6, "trials": 1, "k": [2.5], "methods": ["random"]}, "'k'"),
            ({"model": "tmodel", "n": 6, "trials": 1, "k": [2], "demands": [[1, 1]],
              "methods": ["random", "dftcf-sa"], "sa": {"t_ini": float("inf")}}, "sa: "),
            ({"model": "tmodel", "n": 6, "trials": 1, "k": [2], "demands": [[1, 1]],
              "methods": ["random", "dftcf-sa"], "sa": {"r": 10**11}}, "sa: "),
            *(({"model": "smodel", "n": 6, "trials": 1, "k": [2], "methods": ["exact"],
                "exact_budget_s": budget}, "'exact_budget_s'")
              for budget in (float("nan"), float("inf"), -1, True, "7")),
        ],
        ids=["missing-n", "scalar-k", "distribution-no-kind", "distribution-number",
             "top-level-list", "demand-zero-denominator", "methods-string", "zero-k",
             "sa-seed", "sa-unknown-field", "sa-fractional-r",
             "distribution-mean-string", "distribution-mean-list", "distribution-mean-nan",
             "n-1e9", "smodel-n-5000", "trials-1e9", "tmodel-n-0",
             "n-fraction", "trials-fraction", "k-fraction", "sa-infinite-t-ini",
             "sa-schedule-past-cap", "budget-nan", "budget-infinite", "budget-negative",
             "budget-true", "budget-string"],
    )
    def test_config_error_exit_2_before_any_cell(self, capsys, tmp_path, config, field):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        code, _, err = run(
            capsys, "bench", "run", "--config", str(config_path), "--out-dir", str(out_dir)
        )
        assert code == 2
        assert err.startswith("error: ") and field in err
        assert not out_dir.exists()

    def test_missing_config_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "bench", "run", "--config", str(tmp_path / "nope.json"),
            "--out-dir", str(tmp_path),
        )
        assert code == 2
        assert err.strip()


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples() -> list[tuple[str, str]]:
    """Each README command followed by a `# {...}` line: the command, and the JSON it prints."""
    lines = README.read_text().splitlines()
    return [
        (line, comment.removeprefix("# "))
        for line, comment in zip(lines, lines[1:])
        if line.startswith("crowdselect ") and comment.startswith("# {")
    ]


class TestReadmeExamples:
    def test_examples_found(self):
        assert len(readme_examples()) >= 2

    @pytest.mark.parametrize(
        "command,expected",
        readme_examples(),
        ids=[" ".join(command.split()[1:3]) for command, _ in readme_examples()],
    )
    def test_prints_its_comment(self, capsys, command, expected):
        assert run(capsys, *shlex.split(command)[1:]) == (0, expected + "\n", "")


class TestExitCodes:
    def test_deterministic_stdout(self, capsys):
        args = ("pbd", "tau", "--probs", "0.2,0.4,0.6,0.9", "--theta1", "1", "--theta0", "1")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_runtime_error_exit_3(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("backend exploded")

        monkeypatch.setattr(cli.pbd, "window_prob", boom)
        code, _, err = run(
            capsys, "pbd", "tau", "--probs", "0.5,0.5", "--theta1", "1", "--theta0", "1"
        )
        assert code == 3
        assert "backend exploded" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "select" in out


# Byte-exact outputs of every selection method on small seeded inputs. They
# pin behaviour across refactors of the solver dispatch; a change here means
# the CLI or bench output changed.
GOLDEN_MATRIX = """\
a,b,c,d,e,f,g
0.0,-0.76,-0.2,-0.42,-0.91,-0.57,-0.52
-0.76,0.0,-0.89,-0.61,-0.48,-0.57,-0.41
-0.2,-0.89,0.0,-0.35,-0.3,-0.71,-1.0
-0.42,-0.61,-0.35,0.0,-0.41,-0.53,-0.23
-0.91,-0.48,-0.3,-0.41,0.0,-0.07,-0.79
-0.57,-0.57,-0.71,-0.53,-0.07,0.0,-0.34
-0.52,-0.41,-1.0,-0.23,-0.79,-0.34,0.0
"""
GOLDEN_POOL = "worker_id,p\n" + "".join(
    f"w{i},{p}\n" for i, p in enumerate([0.12, 0.85, 0.4, 0.63, 0.27, 0.5, 0.91, 0.05])
)
GOLDEN_S_CONFIG = {
    "model": "smodel", "n": 6, "trials": 2, "distribution": "uniform", "k": [2, 3, 7],
    "methods": ["exact", "greedy", "random"], "seed": 5,
}
GOLDEN_T_CONFIG = {
    "model": "tmodel", "n": 8, "trials": 1, "distribution": "normal", "k": [3, 4],
    "demands": [[1, 1], ["k/2", "k/4"]],
    "methods": ["exact", "poisson", "binomial", "normal-sa", "dftcf-sa", "random"],
    "seed": 2, "sa": {"r": 20},
}
GOLDEN_SELECT = [
    (('s', '--method', 'exact', '--seed', '0'),
     '{"div": 0.7666666666666666, "indices": [1, 2, 6], "method": "exact", "subset": ["b", "c", "g"]}\n'),
    (('s', '--method', 'greedy', '--seed', '0'),
     '{"div": 0.7666666666666666, "indices": [1, 2, 6], "method": "greedy", "subset": ["b", "c", "g"]}\n'),
    (('s', '--method', 'random', '--seed', '0'),
     '{"div": 0.47666666666666674, "indices": [3, 4, 6], "method": "random", "subset": ["d", "e", "g"]}\n'),
    (('s', '--method', 'exact', '--seed', '1'),
     '{"div": 0.7666666666666666, "indices": [1, 2, 6], "method": "exact", "subset": ["b", "c", "g"]}\n'),
    (('s', '--method', 'greedy', '--seed', '1'),
     '{"div": 0.7666666666666666, "indices": [1, 2, 6], "method": "greedy", "subset": ["b", "c", "g"]}\n'),
    (('s', '--method', 'random', '--seed', '1'),
     '{"div": 0.53, "indices": [2, 3, 5], "method": "random", "subset": ["c", "d", "f"]}\n'),
    (('t', '--method', 'exact', '--seed', '0', '--sa-r', '3'),
     '{"indices": [1, 3, 6, 7], "method": "exact", "objective": 0.8876905000000002, "subset": ["w1", "w3", "w6", "w7"], "tau": 0.8876905000000002}\n'),
    (('t', '--method', 'poisson', '--seed', '0', '--sa-r', '3'),
     '{"indices": [1, 3, 5, 6], "method": "poisson", "objective": 0.22357911111139037, "subset": ["w1", "w3", "w5", "w6"], "tau": 0.707695}\n'),
    (('t', '--method', 'binomial', '--seed', '0', '--sa-r', '3'),
     '{"indices": [1, 3, 5, 6], "method": "binomial", "objective": 0.41863596234374956, "subset": ["w1", "w3", "w5", "w6"], "tau": 0.707695}\n'),
    (('t', '--method', 'normal-sa', '--seed', '0', '--sa-r', '3'),
     '{"indices": [1, 3, 6, 7], "method": "normal-sa", "objective": 0.8453641868698465, "subset": ["w1", "w3", "w6", "w7"], "tau": 0.8876905000000002}\n'),
    (('t', '--method', 'dftcf-sa', '--seed', '0', '--sa-r', '3'),
     '{"indices": [1, 3, 6, 7], "method": "dftcf-sa", "objective": 0.8876905000000002, "subset": ["w1", "w3", "w6", "w7"], "tau": 0.8876905000000002}\n'),
    (('t', '--method', 'random', '--seed', '0', '--sa-r', '3'),
     '{"indices": [0, 3, 6, 7], "method": "random", "objective": 0.6345776000000001, "subset": ["w0", "w3", "w6", "w7"], "tau": 0.6345776000000001}\n'),
    (('t', '--method', 'exact', '--seed', '1', '--sa-r', '3'),
     '{"indices": [1, 3, 6, 7], "method": "exact", "objective": 0.8876905000000002, "subset": ["w1", "w3", "w6", "w7"], "tau": 0.8876905000000002}\n'),
    (('t', '--method', 'poisson', '--seed', '1', '--sa-r', '3'),
     '{"indices": [1, 3, 5, 6], "method": "poisson", "objective": 0.22357911111139037, "subset": ["w1", "w3", "w5", "w6"], "tau": 0.707695}\n'),
    (('t', '--method', 'binomial', '--seed', '1', '--sa-r', '3'),
     '{"indices": [1, 3, 5, 6], "method": "binomial", "objective": 0.41863596234374956, "subset": ["w1", "w3", "w5", "w6"], "tau": 0.707695}\n'),
    (('t', '--method', 'normal-sa', '--seed', '1', '--sa-r', '3'),
     '{"indices": [1, 3, 6, 7], "method": "normal-sa", "objective": 0.8453641868698465, "subset": ["w1", "w3", "w6", "w7"], "tau": 0.8876905000000002}\n'),
    (('t', '--method', 'dftcf-sa', '--seed', '1', '--sa-r', '3'),
     '{"indices": [1, 3, 6, 7], "method": "dftcf-sa", "objective": 0.8876905000000002, "subset": ["w1", "w3", "w6", "w7"], "tau": 0.8876905000000002}\n'),
    (('t', '--method', 'random', '--seed', '1', '--sa-r', '3'),
     '{"indices": [0, 2, 4, 7], "method": "random", "objective": 0.18443600000000016, "subset": ["w0", "w2", "w4", "w7"], "tau": 0.18443600000000016}\n'),
    (('t', '--method', 'dftcf-sa', '--seed', '3', '--t-ini', '0.5', '--t-end', '0.2', '--sa-r', '2', '--sa-c', '0.5'),
     '{"indices": [0, 1, 3, 5], "method": "dftcf-sa", "objective": 0.7357400000000001, "subset": ["w0", "w1", "w3", "w5"], "tau": 0.7357400000000001}\n'),
]
# Pools past the enumeration limit: 120 two-decimal probabilities, with
# repeats and p = 1/2 at w47, so that k = 21 anneals on the large-pool DFT-CF
# path with p = 1/2 at odd k, once a zero Nyquist factor; the first 38 of
# them, near the knapsack limit, where many subsets share a mass and the
# last bit of the index-order subset sums decides ties
GOLDEN_LARGE_PROBS = [((37 * i + 11) % 100) / 100 for i in range(120)]
GOLDEN_LARGE_SELECT = [
    ((120, '-k', '21', '--theta1', '8', '--theta0', '8', '--method', 'dftcf-sa', '--seed', '0', '--sa-r', '200'),
     '{"indices": [5, 8, 16, 18, 21, 24, 32, 35, 40, 43, 51, 54, 59, 70, 78, 81, 86, 89, 97, 113, 116], "method": "dftcf-sa", "objective": 0.9939380701383174, "subset": ["w5", "w8", "w16", "w18", "w21", "w24", "w32", "w35", "w40", "w43", "w51", "w54", "w59", "w70", "w78", "w81", "w86", "w89", "w97", "w113", "w116"], "tau": 0.9939380701383177}\n'),
    ((120, '-k', '21', '--theta1', '8', '--theta0', '8', '--method', 'dftcf-sa', '--seed', '1', '--sa-r', '200'),
     '{"indices": [5, 13, 16, 24, 32, 35, 40, 43, 51, 59, 62, 65, 67, 70, 78, 81, 91, 97, 105, 108, 116], "method": "dftcf-sa", "objective": 0.9931036314571826, "subset": ["w5", "w13", "w16", "w24", "w32", "w35", "w40", "w43", "w51", "w59", "w62", "w65", "w67", "w70", "w78", "w81", "w91", "w97", "w105", "w108", "w116"], "tau": 0.993103631457183}\n'),
    ((38, '-k', '13', '--theta1', '4', '--theta0', '4', '--method', 'poisson', '--seed', '0'),
     '{"indices": [1, 2, 6, 9, 14, 17, 22, 28, 29, 32, 33, 36, 37], "method": "poisson", "objective": 0.6582545388207279, "subset": ["w1", "w2", "w6", "w9", "w14", "w17", "w22", "w28", "w29", "w32", "w33", "w36", "w37"], "tau": 0.9389393290515436}\n'),
    ((38, '-k', '13', '--theta1', '4', '--theta0', '4', '--method', 'poisson', '--seed', '1'),
     '{"indices": [1, 2, 6, 9, 14, 17, 22, 28, 29, 32, 33, 36, 37], "method": "poisson", "objective": 0.6582545388207279, "subset": ["w1", "w2", "w6", "w9", "w14", "w17", "w22", "w28", "w29", "w32", "w33", "w36", "w37"], "tau": 0.9389393290515436}\n'),
    ((38, '-k', '13', '--theta1', '4', '--theta0', '4', '--method', 'binomial', '--seed', '0'),
     '{"indices": [2, 4, 13, 16, 18, 19, 24, 25, 27, 29, 31, 35, 37], "method": "binomial", "objective": 0.8382303677888999, "subset": ["w2", "w4", "w13", "w16", "w18", "w19", "w24", "w25", "w27", "w29", "w31", "w35", "w37"], "tau": 0.9743115312249221}\n'),
    ((38, '-k', '13', '--theta1', '4', '--theta0', '4', '--method', 'binomial', '--seed', '1'),
     '{"indices": [2, 4, 13, 16, 18, 19, 24, 25, 27, 29, 31, 35, 37], "method": "binomial", "objective": 0.8382303677888999, "subset": ["w2", "w4", "w13", "w16", "w18", "w19", "w24", "w25", "w27", "w29", "w31", "w35", "w37"], "tau": 0.9743115312249221}\n'),
]
GOLDEN_S_REPORT = """\
trial,method,k,theta1,theta0,objective,tau_or_div,status
0,exact,2,,,0.4808485199161895,0.4808485199161895,ok
0,greedy,2,,,0.4808485199161895,0.4808485199161895,ok
0,random,2,,,0.3236116232415356,0.3236116232415356,ok
0,exact,3,,,0.8328379448258185,0.8328379448258185,ok
0,greedy,3,,,0.8328379448258185,0.8328379448258185,ok
0,random,3,,,0.8328379448258185,0.8328379448258185,ok
0,-,7,,,,,skipped-infeasible
1,exact,2,,,0.4764989012811695,0.4764989012811695,ok
1,greedy,2,,,0.4764989012811695,0.4764989012811695,ok
1,random,2,,,0.26305291877093306,0.26305291877093306,ok
1,exact,3,,,0.8357020116791524,0.8357020116791524,ok
1,greedy,3,,,0.8357020116791524,0.8357020116791524,ok
1,random,3,,,0.5725159501980572,0.5725159501980572,ok
1,-,7,,,,,skipped-infeasible
"""
GOLDEN_T_REPORT = """\
trial,method,k,theta1,theta0,objective,tau_or_div,status
0,exact,3,1,1,0.7615139636938726,0.7615139636938726,ok
0,poisson,3,1,1,0.25994299613478666,0.74554109673837,ok
0,binomial,3,1,1,0.4032868424856872,0.74554109673837,ok
0,normal-sa,3,1,1,0.7588052088092188,0.7609927806984772,ok
0,dftcf-sa,3,1,1,0.7615139636938726,0.7615139636938726,ok
0,random,3,1,1,0.7561305353971475,0.7561305353971475,ok
0,exact,3,1,0,0.9038946409887814,0.9038946409887813,ok
0,poisson,3,1,0,0.40068493215880874,0.9038946409887813,ok
0,binomial,3,1,0,0.5620085041099163,0.9038946409887813,ok
0,normal-sa,3,1,0,0.8890687193538831,0.9038946409887813,ok
0,dftcf-sa,3,1,0,0.9038946409887814,0.9038946409887813,ok
0,random,3,1,0,0.8491159834595401,0.8491159834595401,ok
0,exact,4,1,1,0.881130068153565,0.8811300681535649,ok
0,poisson,4,1,1,0.4607868961734849,0.8726052888536417,ok
0,binomial,4,1,1,0.6535911231470939,0.8726052888536417,ok
0,normal-sa,4,1,1,0.8709407582893611,0.8808491332081231,ok
0,dftcf-sa,4,1,1,0.881130068153565,0.8811300681535649,ok
0,random,4,1,1,0.8799548238309614,0.8799548238309614,ok
0,exact,4,2,1,0.6542843562993709,0.6542843562993708,ok
0,poisson,4,2,1,0.19116090667744448,0.6542843562993708,ok
0,binomial,4,2,1,0.28160714509036233,0.6542843562993708,ok
0,normal-sa,4,2,1,0.6511606770203988,0.6542843562993708,ok
0,dftcf-sa,4,2,1,0.6542843562993708,0.6542843562993708,ok
0,random,4,2,1,0.5949222038754135,0.5949222038754135,ok
"""


class TestGoldenOutput:
    @pytest.mark.parametrize("case,expected", GOLDEN_SELECT)
    def test_select_stdout(self, capsys, tmp_path, case, expected):
        model, *options = case
        if model == "s":
            path = tmp_path / "matrix.csv"
            path.write_text(GOLDEN_MATRIX)
            args = ["select", "s", "--matrix", str(path), "-k", "3"]
        else:
            path = tmp_path / "pool.csv"
            path.write_text(GOLDEN_POOL)
            args = ["select", "t", "--pool", str(path), "-k", "4", "--theta1", "2", "--theta0", "1"]
        code, out, _ = run(capsys, *args, *options)
        assert code == 0
        assert out == expected

    @pytest.mark.parametrize(
        "config,expected",
        [(GOLDEN_S_CONFIG, GOLDEN_S_REPORT), (GOLDEN_T_CONFIG, GOLDEN_T_REPORT)],
        ids=["smodel", "tmodel"],
    )
    def test_bench_report_without_wall_time(self, capsys, tmp_path, config, expected):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        code, _, _ = run(
            capsys, "bench", "run", "--config", str(config_path), "--out-dir", str(tmp_path)
        )
        assert code == 0
        with open(tmp_path / "report.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        wall = rows[0].index("wall_time_s")
        text = "".join(",".join(v for i, v in enumerate(r) if i != wall) + "\n" for r in rows)
        assert text == expected

    @pytest.mark.parametrize("case,expected", GOLDEN_LARGE_SELECT)
    def test_select_large_pool_stdout(self, capsys, tmp_path, case, expected):
        n, *options = case
        path = tmp_path / "pool.csv"
        path.write_text("worker_id,p\n" + "".join(
            f"w{i},{p}\n" for i, p in enumerate(GOLDEN_LARGE_PROBS[:n])
        ))
        code, out, _ = run(capsys, "select", "t", "--pool", str(path), *options)
        assert code == 0
        assert out == expected


# stands for a field longer than the csv module's limit of 131072 characters;
# expanded only when the file is written, so failure reports stay short
LONG_FIELD = "<long>"
# hostile cell text: numbers, non-finite spellings, quotes, separators and
# empty cells
CELLS = st.one_of(
    st.sampled_from([
        "", " ", "a", "b", "w1", "p", "worker_id", "nan", "NaN", "inf", "-inf", "1e309",
        "-0", "0", "0.5", "1", "2", "-1", "1e-400", "0x10", "1_0", '"', '""', ",", "\n",
    ]),
    st.text(max_size=6),
    st.floats().map(repr),
    st.just(LONG_FIELD),
)


# cell values of a well-formed matrix file
PLAIN_VALUES = ["0", "1", "0.5", "-0.25", "2", "1e-300", "0.1"]


def mutated_csv(draw, rows):
    """CSV text of well-formed rows after up to four hostile edits.

    An edit replaces a cell with hostile text, makes a row ragged, inserts an
    empty row, or deletes or repeats a row.
    """
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        edit = draw(st.sampled_from(["cell", "ragged", "empty", "delete", "repeat"]))
        at = draw(st.integers(min_value=0, max_value=len(rows)))
        if edit == "empty":
            rows.insert(at, [])
        elif at < len(rows) and edit == "delete":
            del rows[at]
        elif at < len(rows) and edit == "repeat":
            rows.insert(at, list(rows[at]))
        elif at < len(rows) and rows[at]:
            col = draw(st.integers(min_value=0, max_value=len(rows[at]) - 1))
            if edit == "cell":
                rows[at][col] = draw(CELLS)
            elif draw(st.booleans()):
                rows[at] = rows[at][:col]
            else:
                rows[at].append(draw(CELLS))
    return "\n".join(",".join(row) for row in rows) + draw(st.sampled_from(["", "\n", "\n\n"]))


def worker_ids(draw, n):
    """n worker ids; sometimes the second repeats the first."""
    ids = [f"w{i}" for i in range(n)]
    if n > 1 and draw(st.booleans()):
        ids[1] = ids[0]
    return ids


@st.composite
def hostile_matrix_files(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    values = draw(st.lists(st.sampled_from(PLAIN_VALUES), min_size=n * n, max_size=n * n))
    # the mirror of a value is the value itself, so the file starts symmetric
    rows = [[values[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]
    return mutated_csv(draw, [worker_ids(draw, n), *rows])


@st.composite
def hostile_pool_files(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    probs = draw(st.lists(st.sampled_from(["0", "1", "0.5", "0.1", "1e-300"]), min_size=n, max_size=n))
    rows = [[worker, p] for worker, p in zip(worker_ids(draw, n), probs)]
    return mutated_csv(draw, [["worker_id", "p"], *rows])


class TestHostileFiles:
    @given(text=hostile_matrix_files(), k=st.integers(min_value=-1, max_value=6),
           method=st.sampled_from(sorted(cli.solvers.SOLVERS["smodel"])))
    @example(text=f"w0,w1\n0,{LONG_FIELD}\n1,0\n", k=2, method="greedy")
    @settings(max_examples=150, deadline=None)
    def test_select_s_exits_0_or_2(self, text, k, method):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "matrix.csv"
            path.write_text(text.replace(LONG_FIELD, "9" * 140_000))
            code = cli.main(["select", "s", "--matrix", str(path), "-k", str(k),
                             "--method", method])
        assert code in (0, 2)

    @given(text=hostile_pool_files(), k=st.integers(min_value=-1, max_value=6),
           theta1=st.integers(min_value=-1, max_value=4),
           theta0=st.integers(min_value=-1, max_value=4),
           method=st.sampled_from(sorted(cli.solvers.SOLVERS["tmodel"])))
    @example(text=f"worker_id,p\nw0,{LONG_FIELD}\n", k=1, theta1=1, theta0=0, method="exact")
    @settings(max_examples=150, deadline=None)
    def test_select_t_exits_0_or_2(self, text, k, theta1, theta0, method):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pool.csv"
            path.write_text(text.replace(LONG_FIELD, "9" * 140_000))
            code = cli.main(["select", "t", "--pool", str(path), "-k", str(k),
                             "--theta1", str(theta1), "--theta0", str(theta0),
                             "--method", method])
        assert code in (0, 2)


# items of a well-formed --probs list
PROB_VALUES = ["0", "1", "0.5", "0.1", "1e-300"]


@st.composite
def hostile_prob_lists(draw):
    """A comma-separated probability list after up to four hostile edits.

    An edit replaces an item with hostile text, deletes or repeats an item,
    or inserts an empty one.
    """
    items = draw(st.lists(st.sampled_from(PROB_VALUES), max_size=6))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        edit = draw(st.sampled_from(["cell", "empty", "delete", "repeat"]))
        at = draw(st.integers(min_value=0, max_value=len(items)))
        if edit == "empty":
            items.insert(at, "")
        elif at < len(items) and edit == "delete":
            del items[at]
        elif at < len(items) and edit == "repeat":
            items.insert(at, items[at])
        elif at < len(items):
            items[at] = draw(CELLS)
    return ",".join(items)


class TestHostileProbs:
    @given(probs=hostile_prob_lists(),
           command=st.sampled_from(["pmf-dftcf", "pmf-bruteforce", "tau"]),
           theta1=st.integers(min_value=-1, max_value=4),
           theta0=st.integers(min_value=-1, max_value=4))
    @example(probs=",".join(["0.5"] * 4097), command="pmf-dftcf", theta1=1, theta0=1)
    @example(probs=",".join(["0.5"] * 4097), command="tau", theta1=1, theta0=1)
    @settings(max_examples=150, deadline=None)
    def test_pbd_exits_0_or_2(self, probs, command, theta1, theta0):
        if command == "tau":
            args = ["pbd", "tau", "--probs", probs, "--theta1", str(theta1),
                    "--theta0", str(theta0)]
        else:
            args = ["pbd", "pmf", "--probs", probs, "--method", command.split("-")[1]]
        with tempfile.TemporaryDirectory() as tmp:
            code = cli.main([*args, "--out", str(Path(tmp) / "out.json")])
        assert code in (0, 2)


# hostile JSON values: wrong types, non-finite and out-of-range numbers, and
# nested containers; numbers stay small, so no accepted value asks for a
# large pool, many trials or long annealing
JSON_VALUES = st.sampled_from([
    None, True, False, 0, 1, 2, 7, -1, 0.0, 0.5, 1.5, -0.5, 1e308, float("nan"),
    float("inf"), float("-inf"), "", "x", "a", "1", "k/2", "k/0", "normal", [], [1], [[1]],
    [[1, 1]], ["x"], ["a", "a"], {}, {"kind": "normal"}, {"r": 1.5},
])


def mutated_json(draw, value):
    """value after up to three hostile edits at random depths.

    An edit replaces a value, deletes a key or list item, or appends an item.
    """

    def fresh():
        # hypothesis may hand out one object twice; edits must not reach it
        return copy.deepcopy(draw(JSON_VALUES))

    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        parent, key = None, None
        node = value
        while isinstance(node, (dict, list)) and node and draw(st.booleans()):
            parent = node
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
            node = node[key]
        edit = draw(st.sampled_from(["replace", "delete", "append"]))
        if edit == "append" and isinstance(node, list):
            node.append(fresh())
        elif edit == "delete" and parent is not None:
            del parent[key]
        elif parent is None:
            value = fresh()
        else:
            parent[key] = fresh()
    return value


HOSTILE_CORPUS = "".join(
    json.dumps({"worker_id": w, "task_id": t, "text": text}) + "\n"
    for w, t, text in [("u", "t1", "a b a"), ("v", "t1", "b c"), ("w", "t2", "c d c")]
)


MODEL = {
    "pi": [0.25, 0.75],
    "mu": [[0.5, 0.25, 0.25], [0.125, 0.375, 0.5]],
    "vocab": ["a", "b", "c"],
}
# whole lines that no edit of a record produces: broken JSON, blank lines,
# bare values and a byte that is not UTF-8
RAW_LINES = st.sampled_from(["", " ", "{", "}", "[]", "null", "1", '"x"', "{}", "\udcff"])


@st.composite
def hostile_models(draw):
    return mutated_json(draw, copy.deepcopy(MODEL))


@st.composite
def hostile_corpora(draw):
    """HOSTILE_CORPUS after hostile edits to its records, and up to two raw lines."""
    records = mutated_json(draw, [json.loads(line) for line in HOSTILE_CORPUS.splitlines()])
    lines = [json.dumps(r) for r in records] if isinstance(records, list) else [json.dumps(records)]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), draw(RAW_LINES))
    return "\n".join(lines) + "\n"


def write_corpus(path, corpus):
    path.write_bytes(corpus.encode("utf-8", "surrogateescape"))


@st.composite
def hostile_configs(draw):
    if draw(st.booleans()):
        config = {"model": "smodel", "n": 6, "trials": 1, "k": [2, 3],
                  "methods": ["exact", "greedy", "random"], "seed": 1}
    else:
        config = {"model": "tmodel", "n": 6, "trials": 1, "distribution": "normal(0.5,0.2)",
                  "k": [2, 3], "demands": [[1, 1], ["k/2", 0]],
                  "methods": ["exact", "poisson", "binomial", "normal-sa", "dftcf-sa", "random"],
                  "sa": {"r": 2, "c": 0.5}, "seed": 1}
    return mutated_json(draw, config)


class TestHostileJson:
    @given(model=hostile_models())
    @example(model={"pi": [1.0], "mu": [[1.0]], "vocab": [[1]]})
    @example(model={"pi": [1.0], "mu": [[1.0, 0.0]], "vocab": ["a", "b"]})
    @settings(max_examples=150, deadline=None)
    def test_profile_similarity_exits_0_or_2(self, model):
        with tempfile.TemporaryDirectory() as tmp:
            corpus, model_path = Path(tmp) / "corpus.jsonl", Path(tmp) / "model.json"
            corpus.write_text(HOSTILE_CORPUS)
            model_path.write_text(json.dumps(model))
            code = cli.main(["profile", "similarity", "--corpus", str(corpus),
                             "--model", str(model_path), "--out", str(Path(tmp) / "sim.csv")])
        assert code in (0, 2)

    @given(corpus=hostile_corpora(),
           topics=st.sampled_from(["-1", "0", "1", "2", "1025", "10000000000000"]))
    @example(corpus=HOSTILE_CORPUS + "\udcff\n", topics="2")
    @settings(max_examples=150, deadline=None)
    def test_profile_fit_on_hostile_corpus_exits_0_or_2(self, corpus, topics):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.jsonl"
            write_corpus(path, corpus)
            code = cli.main(["profile", "fit", "--corpus", str(path), "-K", topics,
                             "--max-iter", "20", "--out", str(Path(tmp) / "model.json")])
        assert code in (0, 2)

    @given(corpus=hostile_corpora())
    @settings(max_examples=150, deadline=None)
    def test_profile_similarity_on_hostile_corpus_exits_0_or_2(self, corpus):
        with tempfile.TemporaryDirectory() as tmp:
            path, model_path = Path(tmp) / "corpus.jsonl", Path(tmp) / "model.json"
            write_corpus(path, corpus)
            model_path.write_text(json.dumps(MODEL))
            code = cli.main(["profile", "similarity", "--corpus", str(path),
                             "--model", str(model_path), "--out", str(Path(tmp) / "sim.csv")])
        assert code in (0, 2)

    @given(config=hostile_configs())
    @example(config={"model": "tmodel", "n": 6, "trials": 1, "k": [2], "demands": [[1, 1]],
                     "methods": ["dftcf-sa"], "sa": {"r": 1.5}})
    @example(config={"model": "smodel", "n": float("inf"), "trials": 1, "k": [2]})
    @example(config={"model": "tmodel", "n": 1e9, "trials": 1, "k": [2], "demands": [[1, 1]],
                     "methods": ["random"]})
    @example(config={"model": "smodel", "n": 5000, "trials": 1, "k": [2], "methods": ["random"]})
    @example(config={"model": "smodel", "n": 6, "trials": 1e9, "k": [2], "methods": ["random"]})
    @example(config={"model": "smodel", "n": 6, "trials": 1, "k": [2], "methods": [[1]]})
    @example(config={"model": "smodel", "n": 6.7, "trials": 1.9, "k": [2.5],
                     "methods": ["random"]})
    @example(config={"model": "smodel", "n": 6, "trials": 1, "k": [2],
                     "distribution": {"kind": "normal", "mean": "x"}})
    @example(config={"model": "smodel", "n": 6, "trials": 1, "k": [2],
                     "distribution": {"kind": "normal", "mean": [1, 2]}})
    @example(config={"model": "smodel", "n": 6, "trials": 1, "k": [2],
                     "distribution": {"kind": "normal", "mean": float("nan")}})
    @example(config={"model": "tmodel", "n": 6, "trials": 1, "k": [2], "demands": [[1, 1]],
                     "methods": ["dftcf-sa"], "sa": {"t_ini": float("inf")}})
    @example(config={"model": "tmodel", "n": 6, "trials": 1, "k": [2], "demands": [[1, 1]],
                     "methods": ["dftcf-sa"], "sa": {"t_ini": 10**400}})
    @settings(max_examples=150, deadline=None)
    def test_bench_run_exits_0_or_2(self, config):
        with tempfile.TemporaryDirectory() as tmp:
            config_path = Path(tmp) / "config.json"
            config_path.write_text(json.dumps(config))
            code = cli.main(["bench", "run", "--config", str(config_path),
                             "--out-dir", str(Path(tmp) / "out")])
        assert code in (0, 2)
