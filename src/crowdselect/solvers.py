"""Solver registry: every (model, method) pair and one way to run it.

An entry is called as run(data, target, seed, sa, budget): data and target
are a similarity matrix and k (S-model) or a CandidatePool and DemandWindow
(T-model); sa holds SaParams fields except the seed; budget caps exact
enumeration in seconds.
"""

from __future__ import annotations

import time

from . import smodel, tmodel
from .tmodel import SelectionResult


def _anneal(objective: str):
    def run(pool, window, seed, sa, budget):
        return tmodel.sa_select(pool, window, objective, tmodel.SaParams(seed=seed, **sa))

    return run


SOLVERS = {
    "smodel": {
        "exact": lambda sim, k, seed, sa, budget: smodel.exact_select(sim, k, budget),
        "greedy": lambda sim, k, seed, sa, budget: smodel.greedy_select(sim, k),
        "random": lambda sim, k, seed, sa, budget: smodel.random_select(sim, k, seed),
    },
    "tmodel": {
        "exact": lambda pool, window, seed, sa, budget: tmodel.exact_select(pool, window, budget),
        "poisson": lambda pool, window, seed, sa, budget: tmodel.select_poisson(pool, window),
        "binomial": lambda pool, window, seed, sa, budget: tmodel.select_binomial(pool, window),
        "normal-sa": _anneal("normal"),
        "dftcf-sa": _anneal("dftcf"),
        "random": lambda pool, window, seed, sa, budget: tmodel.random_select(pool, window, seed),
    },
}


def solve(model, method, data, target, seed=0, sa=None, budget=None) -> SelectionResult:
    """Run one registered solver. An S-model result scores the crowd's
    diversity, and its wall time excludes recomputing that diversity."""
    try:
        run = SOLVERS[model][method]
    except KeyError:
        raise ValueError(f"unknown {model} method {method!r}") from None
    if model == "tmodel":
        return run(data, target, seed, sa or {}, budget)
    started = time.perf_counter()
    crowd = run(data, target, seed, sa or {}, budget)
    wall_time = time.perf_counter() - started
    div = smodel.diversity(crowd, data)
    return SelectionResult(
        subset=crowd, score=div, objective=div, method=method, wall_time=wall_time, indices=crowd
    )
