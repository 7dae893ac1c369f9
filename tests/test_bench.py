import csv
import json

import numpy as np
import pytest

from crowdselect import bench
from crowdselect.bench import DistSpec, ExperimentConfig


class TestDistSpec:
    def test_parse_uniform(self):
        assert DistSpec.parse("uniform") == DistSpec(kind="uniform")

    def test_parse_normal_with_params(self):
        spec = DistSpec.parse("normal(0.5,0.1)")
        assert spec == DistSpec(kind="normal", mean=0.5, stddev=0.1)

    def test_parse_bare_normal(self):
        assert DistSpec.parse("normal") == DistSpec(kind="normal")

    def test_parse_mapping(self):
        spec = DistSpec.parse({"kind": "normal", "mean": -0.5, "stddev": 0.2})
        assert spec.mean == -0.5

    def test_parse_garbage_rejected(self):
        with pytest.raises(ValueError):
            DistSpec.parse("lognormal(1,2)")

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            DistSpec(kind="poisson")

    @pytest.mark.parametrize(
        "spec",
        [{"kind": "normal", "mean": "x"}, {"kind": "normal", "mean": [1, 2]},
         {"kind": "normal", "mean": float("nan")}, {"kind": "uniform", "stddev": float("inf")},
         {"kind": "normal", "mean": True}, "normal(nan,0.2)", "normal(0.5,inf)"],
    )
    def test_non_finite_or_non_number_rejected(self, spec):
        with pytest.raises(ValueError, match="finite number"):
            DistSpec.parse(spec)


class TestGenerators:
    def test_matrix_deterministic(self):
        a = bench.gen_similarity_matrix(12, DistSpec("uniform"), seed=5)
        b = bench.gen_similarity_matrix(12, DistSpec("uniform"), seed=5)
        assert np.array_equal(a, b)

    def test_matrix_range_and_shape(self):
        sim = bench.gen_similarity_matrix(30, DistSpec("uniform"), seed=1)
        off_diag = sim[~np.eye(30, dtype=bool)]
        assert np.all(off_diag >= -1.0) and np.all(off_diag <= 0.0)
        assert np.allclose(sim, sim.T)
        assert np.allclose(np.diag(sim), 0.0)

    def test_matrix_uniform_mean(self):
        sim = bench.gen_similarity_matrix(1000, DistSpec("uniform"), seed=2)
        rows, cols = np.triu_indices(1000, 1)
        assert -0.52 <= sim[rows, cols].mean() <= -0.48

    def test_matrix_normal_clamped(self):
        sim = bench.gen_similarity_matrix(100, DistSpec("normal"), seed=3)
        off_diag = sim[~np.eye(100, dtype=bool)]
        assert np.all(off_diag >= -1.0) and np.all(off_diag <= 0.0)

    def test_matrix_too_small(self):
        with pytest.raises(ValueError):
            bench.gen_similarity_matrix(1, DistSpec("uniform"), seed=0)

    def test_opinions_deterministic(self):
        a = bench.gen_opinions(50, DistSpec("uniform"), seed=9)
        b = bench.gen_opinions(50, DistSpec("uniform"), seed=9)
        assert np.array_equal(a.probs, b.probs)

    def test_opinions_uniform_mean(self):
        pool = bench.gen_opinions(10_000, DistSpec("uniform"), seed=4)
        assert 0.49 <= pool.probs.mean() <= 0.51

    def test_opinions_normal_concentrates(self):
        pool = bench.gen_opinions(10_000, DistSpec("normal", 0.5, 0.1), seed=6)
        inside = np.mean((pool.probs >= 0.2) & (pool.probs <= 0.8))
        assert inside >= 0.99
        assert np.all(pool.probs >= 0.0) and np.all(pool.probs <= 1.0)


class TestResolveDemand:
    def test_plain_int(self):
        assert bench.resolve_demand(3, 10) == 3

    def test_fraction_floored(self):
        assert bench.resolve_demand("k/3", 10) == 3
        assert bench.resolve_demand("2k/5", 9) == 3
        assert bench.resolve_demand("4k/5", 10) == 8

    def test_string_int(self):
        assert bench.resolve_demand("2", 10) == 2

    def test_floor_at_zero(self):
        assert bench.resolve_demand(-1, 10) == 0


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert bench.derive_seed(1, "data", 0) == bench.derive_seed(1, "data", 0)
        assert bench.derive_seed(1, "data", 0) != bench.derive_seed(1, "data", 1)
        assert bench.derive_seed(1, "data", 0) != bench.derive_seed(2, "data", 0)


class TestConfigIntegers:
    BASE = {"model": "smodel", "n": 6, "trials": 2, "k": [2], "methods": ["random"], "seed": 1}

    @pytest.mark.parametrize("key", ["n", "trials", "k", "seed"])
    @pytest.mark.parametrize("value", [6.7, 1.9, True, "6", float("inf")])
    def test_non_integers_rejected(self, key, value):
        raw = dict(self.BASE, **{key: [value] if key == "k" else value})
        with pytest.raises(ValueError, match=f"config field '{key}': expected an integer"):
            ExperimentConfig.from_dict(raw)

    def test_integral_floats_accepted(self):
        config = ExperimentConfig.from_dict(dict(self.BASE, n=6.0, trials=2.0, k=[2.0], seed=1.0))
        assert (config.n, config.trials, config.ks, config.seed) == (6, 2, (2,), 1)
        assert all(type(v) is int for v in (config.n, config.trials, *config.ks, config.seed))


def smodel_config(**overrides):
    base = dict(
        model="smodel",
        n=10,
        trials=5,
        distribution=DistSpec("uniform"),
        ks=(3,),
        methods=("exact", "greedy", "random"),
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def tmodel_config(**overrides):
    base = dict(
        model="tmodel",
        n=20,
        trials=20,
        distribution=DistSpec("uniform"),
        ks=(8,),
        demands=((2, 2),),
        methods=("dftcf-sa", "random"),
        seed=3,
        sa_params={"r": 120},
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_smodel_greedy_dominates_random(self):
        report = bench.run_experiment(smodel_config())
        summary = report.summary()
        assert summary["methods"]["greedy"]["mean_score"] >= summary["methods"]["random"]["mean_score"]
        assert summary["methods"]["exact"]["mean_score"] >= summary["methods"]["greedy"]["mean_score"]
        assert all(r.status == "ok" for r in report.rows)
        assert all(r.wall_time_s > 0.0 for r in report.rows)
        assert len(report.rows) == 5 * 3

    def test_tmodel_sa_dominates_random(self):
        report = bench.run_experiment(tmodel_config())
        summary = report.summary()
        assert (
            summary["methods"]["dftcf-sa"]["mean_score"]
            >= summary["methods"]["random"]["mean_score"]
        )

    def test_empty_methods_give_empty_report(self):
        report = bench.run_experiment(smodel_config(methods=()))
        assert report.rows == []

    def test_infeasible_cells_skipped_not_fatal(self):
        cfg = tmodel_config(trials=2, demands=((2, 2), ("4k/5", "3k/5")), sa_params={"r": 10})
        report = bench.run_experiment(cfg)
        statuses = {r.status for r in report.rows}
        assert "skipped-infeasible" in statuses
        assert "ok" in statuses

    def test_enumeration_guard_becomes_status(self):
        cfg = tmodel_config(
            n=30, trials=1, ks=(15,), demands=((5, 5),), methods=("exact", "random")
        )
        report = bench.run_experiment(cfg)
        by_method = {r.method: r for r in report.rows}
        assert by_method["exact"].status == "skipped-guard"
        assert by_method["random"].status == "ok"

    def test_exact_timeout_becomes_status(self):
        cfg = smodel_config(n=12, trials=1, ks=(6,), methods=("exact",), exact_budget_s=0.0)
        report = bench.run_experiment(cfg)
        assert report.rows[0].status == "timeout"

    def test_fractional_demands_resolved(self):
        cfg = tmodel_config(trials=1, ks=(9,), demands=(("k/3", "k/3"),), sa_params={"r": 10})
        report = bench.run_experiment(cfg)
        ok = [r for r in report.rows if r.status == "ok"]
        assert ok and all(r.theta1 == 3 and r.theta0 == 3 for r in ok)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            smodel_config(methods=("annealing",))

    def test_reproducible_modulo_wall_time(self):
        cfg = tmodel_config(trials=3, sa_params={"r": 15})
        first = bench.run_experiment(cfg)
        second = bench.run_experiment(cfg)
        strip = lambda rows: [
            (r.trial, r.method, r.k, r.theta1, r.theta0, r.objective, r.tau_or_div, r.status)
            for r in rows
        ]
        assert strip(first.rows) == strip(second.rows)


class TestReportFiles:
    def test_csv_round_trip(self, tmp_path):
        report = bench.run_experiment(smodel_config(trials=2))
        path = tmp_path / "report.csv"
        report.write_csv(path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == bench.CSV_HEADER
        assert len(rows) == len(report.rows) + 1
        # theta columns are empty for the similarity model
        assert rows[1][3] == "" and rows[1][4] == ""
        assert float(rows[1][6]) == report.rows[0].tau_or_div

    def test_summary_json(self, tmp_path):
        report = bench.run_experiment(smodel_config(trials=2))
        path = tmp_path / "summary.json"
        report.write_summary_json(path)
        summary = json.loads(path.read_text())
        assert summary["model"] == "smodel"
        assert set(summary["methods"]) == {"exact", "greedy", "random"}
        for stats in summary["methods"].values():
            assert stats["runs"] == 2
