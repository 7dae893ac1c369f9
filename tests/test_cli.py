import json

import pytest

from crowdselect import cli


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
            cli.load_inputs(path, "matrix")

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
            cli.load_inputs(path, "pool")

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

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="kind"):
            cli.load_inputs(tmp_path / "x", "graph")

    def test_matrix_round_trip(self, matrix_file):
        ids, matrix = cli.load_inputs(matrix_file, "matrix")
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

    def test_missing_config_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "bench", "run", "--config", str(tmp_path / "nope.json"),
            "--out-dir", str(tmp_path),
        )
        assert code == 2
        assert err.strip()


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
