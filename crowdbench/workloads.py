"""Seeded inputs and the operations each workload runs on them.

A workload is a list of groups, and a group is a list of operations that run
in order on one input (a worker pool, a similarity matrix or a corpus). An
operation is one public crowdselect call: the runner times it, then checks its
output against the references in checks.py. Every input comes from the
workload seed alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from checks import CheckFailed
from crowdselect import profiles, smodel, tmodel
from crowdselect.pbd import DemandWindow


@dataclass
class Op:
    """One timed call.

    `solver` labels its time in the per-pass breakdown printed to stdout. A
    `heuristic` operation's score counts towards the quality metric, as a
    share of the best score any operation of its group reached.
    """

    name: str
    call: Callable[[dict], object]
    check: Callable[[object, dict], float | None]
    solver: str | None = None
    heuristic: bool = False
    subset: Callable[[object], tuple] | None = None


@dataclass
class Group:
    """Operations on one input; `verify` compares their checked scores afterwards.

    A failed verify counts against the `referee` operation.
    """

    label: str
    ops: list[Op]
    referee: str | None = None
    verify: Callable[[dict], None] | None = None


def stream_seed(*parts) -> int:
    """Stable 64-bit seed from the workload seed and labels."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def rng_for(*parts) -> np.random.Generator:
    return np.random.default_rng(stream_seed(*parts))


def opinion_probs(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform opinion probabilities, or a normal around 1/2 clamped to [0, 1]."""
    if kind == "uniform":
        return rng.uniform(0.0, 1.0, n)
    return np.clip(rng.normal(0.5, 0.1, n), 0.0, 1.0)


def uniform_similarity(n: int, rng: np.random.Generator) -> np.ndarray:
    upper = np.triu(rng.uniform(-1.0, 0.0, (n, n)), 1)
    return upper + upper.T


# --- T-model ---------------------------------------------------------------

T_METHODS = ("exact", "poisson", "binomial", "normal-sa", "dftcf-sa", "random")
# the approximate methods; exact is the referee and random the baseline
T_HEURISTICS = ("poisson", "binomial", "normal-sa", "dftcf-sa")


def t_call(method: str, pool, window, seed: int):
    if method == "exact":
        return lambda out: tmodel.exact_select(pool, window)
    if method == "poisson":
        return lambda out: tmodel.select_poisson(pool, window)
    if method == "binomial":
        return lambda out: tmodel.select_binomial(pool, window)
    if method in ("normal-sa", "dftcf-sa"):
        params = tmodel.SaParams(seed=seed)
        objective = method.split("-")[0]
        return lambda out: tmodel.sa_select(pool, window, objective, params)
    return lambda out: tmodel.random_select(pool, window, seed=seed)


def t_group(label, probs, k, theta1, theta0, methods, seed, extra_check=None):
    """Run `methods` on one pool and window."""
    pool = tmodel.CandidatePool.from_probs(probs)
    window = DemandWindow(theta1=theta1, theta0=theta0, k=k)
    plain = [float(p) for p in probs]
    theta2 = k - theta0

    def check(result, out):
        tau = checks.check_t_result(result, plain, k, theta1, theta2)
        if extra_check is not None:
            extra_check(tau)
        return tau

    ops = [
        Op(
            name=method,
            call=t_call(method, pool, window, stream_seed(seed, label, method)),
            check=check,
            solver=method,
            heuristic=method in T_HEURISTICS,
            subset=lambda result: tuple(result.indices),
        )
        for method in methods
    ]
    group = Group(label=label, ops=ops)
    if "exact" in methods and len(methods) > 1:
        group.referee = "exact"
        group.verify = verify_exact_dominates
    return group


def verify_exact_dominates(values: dict) -> None:
    exact = values.get("exact")
    if exact is None:
        return
    for method, tau in values.items():
        if tau > exact + checks.ORDER_TOL:
            raise CheckFailed(f"exact tau {exact!r} is below {method}'s {tau!r}")


def t_grid(seed: int) -> list[Group]:
    """Paper-style synthetic grid at n = 20; exact enumeration is the referee.

    Calls follow bench.run_experiment's pool -> k -> demand -> method order,
    and k alternates within each pool, as a grid over k does.
    """
    groups = []
    for p, kind in enumerate(("uniform", "normal")):
        probs = opinion_probs(kind, 20, rng_for(seed, "t-grid", p))
        for k in (8, 10):
            theta = 2 * k // 5
            label = f"pool{p}-{kind}/n20/k{k}/demand({theta},{theta})"
            groups.append(
                t_group(label, probs, k, theta, theta, T_METHODS, seed)
            )
    # a pool small enough for the benchmark to enumerate on its own
    probs = opinion_probs("uniform", 12, rng_for(seed, "t-grid", "small"))
    best = checks.best_tau_by_enumeration([float(p) for p in probs], 6, 2, 4)

    def matches_enumeration(tau):
        checks.require(abs(tau - best) <= checks.TAU_TOL,
                       f"exact tau {tau!r} differs from enumeration's {best!r}")

    groups.append(
        t_group("small/n12/k6/demand(2,2)", probs, 6, 2, 2, ("exact",), seed,
                extra_check=matches_enumeration)
    )
    return groups


def t_large(seed: int) -> list[Group]:
    """Pools beyond enumeration: knapsack near its size limit, annealing on big pools."""
    probs = opinion_probs("uniform", 38, rng_for(seed, "t-large", "knapsack"))
    groups = [
        t_group("knapsack/n38/k13/demand(4,4)", probs, 13, 4, 4, ("poisson", "binomial"), seed)
    ]
    for n, k, kind in ((100, 20, "uniform"), (200, 30, "normal")):
        theta = 2 * k // 5
        probs = opinion_probs(kind, n, rng_for(seed, "t-large", n))
        groups.append(
            t_group(f"sa-{kind}/n{n}/k{k}/demand({theta},{theta})", probs, k, theta, theta,
                    ("normal-sa", "dftcf-sa"), seed)
        )
    return groups


# --- S-model and profiles --------------------------------------------------

CORPUS_WORKERS = 300
VOCABULARY = 16
TRUE_TOPICS = 3
FIT_TOPICS = 3
PROFILE_KS = (4, 8)
MATRIX_SIZES = ((22, 8), (24, 8), (25, 7))


def synthetic_corpus(seed: int) -> list[tuple[str, str, str]]:
    """(worker_id, task_id, text) records of short task histories.

    Few words per worker over a small, overlapping vocabulary keep the fitted
    topic posteriors mixed; long histories would make them one-hot and push
    every KL similarity to its smoothing floor.
    """
    rng = rng_for(seed, "s-profile", "corpus")
    words = [f"w{i:02d}" for i in range(VOCABULARY)]
    topics = rng.dirichlet(np.full(VOCABULARY, 5.0), size=TRUE_TOPICS)
    records = []
    for w in range(CORPUS_WORKERS):
        mixture = rng.dirichlet(np.full(TRUE_TOPICS, 0.5))
        for t in range(int(rng.integers(1, 3))):
            topic = rng.choice(TRUE_TOPICS, p=mixture)
            drawn = rng.choice(VOCABULARY, size=int(rng.integers(2, 4)), p=topics[topic])
            records.append((f"u{w:03d}", f"task{w:03d}-{t}", " ".join(words[i] for i in drawn)))
    return records


def crowd_op(name, call, sim_of, k, solver="greedy", heuristic=False, extra_check=None):
    def check(crowd, out):
        sim = sim_of(out)
        checks.check_crowd(crowd, sim.shape[0], k)
        div = checks.crowd_diversity(tuple(crowd), sim)
        if extra_check is not None:
            extra_check(div)
        return div

    return Op(name=name, call=call, check=check, solver=solver, heuristic=heuristic,
              subset=lambda crowd: tuple(crowd))


def verify_exact_diverser(values: dict) -> None:
    exact, greedy = values.get("exact"), values.get("greedy")
    if exact is not None and greedy is not None and greedy > exact + checks.ORDER_TOL:
        raise CheckFailed(f"exact diversity {exact!r} is below greedy's {greedy!r}")


def matrix_group(label, sim, k, extra_check=None):
    exact = crowd_op("exact", lambda out: smodel.exact_select(sim, k), lambda out: sim, k,
                     solver="exact", extra_check=extra_check)
    greedy = crowd_op("greedy", lambda out: smodel.greedy_select(sim, k), lambda out: sim, k,
                      heuristic=True)
    return Group(label=label, ops=[exact, greedy], referee="exact", verify=verify_exact_diverser)


def s_profile(seed: int) -> list[Group]:
    """S-model pipeline from worker histories, plus exact-vs-greedy on small matrices."""
    records = synthetic_corpus(seed)
    em_seed = stream_seed(seed, "s-profile", "em") % (1 << 32)
    ops = [
        Op("build_experiences", lambda out: profiles.build_experiences(records),
           lambda res, out: checks.check_experiences(res, records), solver="profile",
           subset=lambda res: tuple(res[0])),
        Op("em_fit", lambda out: profiles.em_fit(out["build_experiences"][1], FIT_TOPICS, seed=em_seed),
           lambda model, out: checks.check_topic_model(model), solver="profile"),
        Op("experience_similarity_matrix",
           lambda out: profiles.experience_similarity_matrix(out["build_experiences"][1], out["em_fit"]),
           lambda sim, out: checks.check_similarity(sim, out["em_fit"], records),
           solver="profile"),
    ]
    for k in PROFILE_KS:
        ops.append(crowd_op(
            f"greedy_k{k}",
            lambda out, k=k: smodel.greedy_select(out["experience_similarity_matrix"], k),
            lambda out: out["experience_similarity_matrix"], k,
        ))
    groups = [Group(label=f"corpus/{CORPUS_WORKERS}-workers", ops=ops)]
    for n, k in MATRIX_SIZES:
        sim = uniform_similarity(n, rng_for(seed, "s-profile", "matrix", n))
        groups.append(matrix_group(f"uniform/n{n}/k{k}", sim, k))
    # small enough for the benchmark to enumerate on its own
    tiny = uniform_similarity(9, rng_for(seed, "s-profile", "tiny"))
    best = checks.best_diversity_by_enumeration(tiny, 4)

    def matches_enumeration(div):
        checks.require(abs(div - best) <= checks.DIV_TOL,
                       f"exact diversity {div!r} differs from enumeration's {best!r}")

    groups.append(matrix_group("tiny/n9/k4", tiny, 4, extra_check=matches_enumeration))
    return groups


WORKLOADS = {"t-grid": t_grid, "t-large": t_large, "s-profile": s_profile}
