import dataclasses

import numpy as np
import pytest

from crowdselect import smodel, solvers, tmodel
from crowdselect.errors import TimeBudgetError
from crowdselect.pbd import DemandWindow
from crowdselect.tmodel import CandidatePool, SaParams


def uniform_matrix(n: int, seed: int) -> np.ndarray:
    upper = np.triu(np.random.default_rng(seed).uniform(-1.0, 0.0, (n, n)), 1)
    return upper + upper.T


class TestTModel:
    POOL = CandidatePool.from_probs(np.random.default_rng(5).uniform(0, 1, 9))
    WINDOW = DemandWindow(theta1=2, theta0=1, k=4)
    DIRECT = {
        "exact": lambda pool, window: tmodel.exact_select(pool, window),
        "poisson": lambda pool, window: tmodel.select_poisson(pool, window),
        "binomial": lambda pool, window: tmodel.select_binomial(pool, window),
        "normal-sa": lambda pool, window: tmodel.sa_select(
            pool, window, "normal", SaParams(r=20, c=0.5, seed=3)
        ),
        "dftcf-sa": lambda pool, window: tmodel.sa_select(
            pool, window, "dftcf", SaParams(r=20, c=0.5, seed=3)
        ),
        "random": lambda pool, window: tmodel.random_select(pool, window, seed=3),
    }

    def test_registry_lists_every_method(self):
        assert list(solvers.SOLVERS["tmodel"]) == list(self.DIRECT)

    @pytest.mark.parametrize("method", list(DIRECT))
    def test_solve_matches_direct_call(self, method):
        got = solvers.solve(
            "tmodel", method, self.POOL, self.WINDOW, seed=3, sa={"r": 20, "c": 0.5}
        )
        want = self.DIRECT[method](self.POOL, self.WINDOW)
        assert (got.subset, got.indices, got.method) == (want.subset, want.indices, method)
        assert (got.score, got.objective) == (want.score, want.objective)
        assert got.tau == got.score


class TestSModel:
    SIM = uniform_matrix(9, seed=8)

    @pytest.mark.parametrize(
        "method,direct",
        [
            ("exact", lambda sim: smodel.exact_select(sim, 4)),
            ("greedy", lambda sim: smodel.greedy_select(sim, 4)),
            ("random", lambda sim: smodel.random_select(sim, 4, seed=2)),
        ],
    )
    def test_solve_matches_direct_call(self, method, direct):
        result = solvers.solve("smodel", method, self.SIM, 4, seed=2)
        crowd = direct(self.SIM)
        assert result.subset == result.indices == crowd
        assert result.method == method
        assert result.score == result.objective == smodel.diversity(crowd, self.SIM)
        assert result.wall_time > 0.0

    def test_exact_budget_applies(self):
        with pytest.raises(TimeBudgetError):
            solvers.solve("smodel", "exact", uniform_matrix(12, seed=1), 6, budget=0.0)


def test_unknown_method_names_model():
    with pytest.raises(ValueError, match="smodel method 'annealing'"):
        solvers.solve("smodel", "annealing", uniform_matrix(4, seed=0), 2)


def test_replace_by_tau_sets_score():
    result = solvers.solve("tmodel", "exact", CandidatePool.from_probs([0.1, 0.5, 0.9]),
                           DemandWindow(1, 1, 2))
    assert dataclasses.replace(result, tau=0.5).score == 0.5
    assert dataclasses.replace(result, score=0.25).tau == 0.25
    assert dataclasses.replace(result, method="x").score == result.score
