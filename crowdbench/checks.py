"""Independent references and output checks.

Nothing here calls crowdselect: every reference is recomputed from the inputs
the benchmark generated, so a check can only pass when the program agrees with
a computation made apart from it. A failed check raises CheckFailed, which the
runner counts as a failed operation.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

TAU_TOL = 1e-9
ORDER_TOL = 1e-12
DIV_TOL = 1e-9
KL_TOL = 1e-9
SUM_TOL = 1e-9
# Symmetrized KL of two almost equal posteriors may round a hair below zero.
SIGN_TOL = 1e-12
# Additive smoothing the program applies to distributions before taking KL.
KL_SMOOTHING = 1e-10


class CheckFailed(Exception):
    """An operation's output disagrees with the benchmark's own reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- T-model ---------------------------------------------------------------


def window_tau(probs, theta1: int, theta2: int) -> float:
    """Window probability by the O(k^2) Poisson-binomial recursion."""
    mass = [1.0]
    for p in probs:
        p = float(p)
        q = 1.0 - p
        nxt = [0.0] * (len(mass) + 1)
        for j, m in enumerate(mass):
            nxt[j] += m * q
            nxt[j + 1] += m * p
        mass = nxt
    return sum(mass[theta1 : theta2 + 1])


def best_tau_by_enumeration(probs, k: int, theta1: int, theta2: int) -> float:
    """Largest window probability over every size-k subset of the pool."""
    return max(
        window_tau([probs[i] for i in combo], theta1, theta2)
        for combo in itertools.combinations(range(len(probs)), k)
    )


def check_t_result(result, probs, k: int, theta1: int, theta2: int) -> float:
    """Validate one SelectionResult; return the reference tau of its pick."""
    idx = tuple(result.indices)
    n = len(probs)
    require(len(idx) == k, f"picked {len(idx)} workers, expected k = {k}")
    require(len(set(idx)) == len(idx), f"duplicate worker in {idx}")
    require(all(0 <= i < n for i in idx), f"index out of range [0, {n}) in {idx}")
    # pools are generated with ids 0..n-1, so the ids must equal the indices
    require(tuple(result.subset) == idx, f"subset {result.subset} does not match indices {idx}")
    tau = window_tau([probs[i] for i in idx], theta1, theta2)
    require(
        abs(result.tau - tau) <= TAU_TOL,
        f"reported tau {result.tau!r} differs from the recursion's {tau!r}",
    )
    return tau


# --- S-model ---------------------------------------------------------------


def crowd_diversity(crowd, sim) -> float:
    """Negated sum of the crowd's unordered pair similarities, divided by its size."""
    total = sum(float(sim[a, b]) for a, b in itertools.combinations(crowd, 2))
    return -total / len(crowd)


def best_diversity_by_enumeration(sim, k: int) -> float:
    n = sim.shape[0]
    return max(crowd_diversity(c, sim) for c in itertools.combinations(range(n), k))


def check_crowd(crowd, n: int, k: int) -> None:
    crowd = tuple(crowd)
    require(len(crowd) == k, f"crowd has {len(crowd)} workers, expected k = {k}")
    require(len(set(crowd)) == k, f"duplicate worker in {crowd}")
    require(all(0 <= i < n for i in crowd), f"index out of range [0, {n}) in {crowd}")


# --- profiles --------------------------------------------------------------


def group_records(records):
    """Per-worker word counts in order of first appearance (whitespace tokens)."""
    bags: dict[str, Counter] = {}
    for worker_id, _task_id, text in records:
        bags.setdefault(worker_id, Counter()).update(text.split())
    return list(bags), [dict(c) for c in bags.values()]


def check_experiences(output, records) -> None:
    ids, experiences = output
    ref_ids, ref_counts = group_records(records)
    require(list(ids) == ref_ids, "worker order differs from first appearance")
    for wid, exp, ref in zip(ids, experiences, ref_counts):
        require(dict(exp.counts) == ref, f"word counts of {wid} differ from the records")


def check_topic_model(model) -> None:
    trace = model.log_likelihood_trace
    require(len(trace) >= 2, "log-likelihood trace is too short")
    drops = [b - a for a, b in zip(trace, trace[1:]) if b < a - SUM_TOL]
    require(not drops, f"log-likelihood decreased by up to {-min(drops, default=0.0):.3g}")
    require(abs(float(model.pi.sum()) - 1.0) <= SUM_TOL, "topic priors do not sum to 1")
    row_error = float(np.abs(model.mu.sum(axis=1) - 1.0).max())
    require(row_error <= SUM_TOL, f"a topic's word distribution is off 1 by {row_error:.3g}")


def topic_posteriors(counts: np.ndarray, pi: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Posterior topic mixture of each row of a (workers, vocab) count matrix."""
    log_joint = counts @ np.log(mu).T + np.log(pi)
    log_joint -= log_joint.max(axis=1, keepdims=True)
    post = np.exp(log_joint)
    return post / post.sum(axis=1, keepdims=True)


def kl_similarity(post: np.ndarray) -> np.ndarray:
    """Negated symmetrized KL distance between every pair of smoothed posteriors."""
    smooth = post + KL_SMOOTHING
    smooth /= smooth.sum(axis=1, keepdims=True)
    logs = np.log(smooth)
    # div[i, j] = sum_t p_i(t) (log p_i(t) - log p_j(t))
    div = (smooth * logs).sum(axis=1)[:, None] - smooth @ logs.T
    np.fill_diagonal(div, 0.0)
    return -(div + div.T) / 2.0


def counts_matrix(word_counts, vocab) -> np.ndarray:
    column = {w: j for j, w in enumerate(vocab)}
    mat = np.zeros((len(word_counts), len(vocab)))
    for i, counts in enumerate(word_counts):
        for word, c in counts.items():
            mat[i, column[word]] = c
    return mat


def check_similarity(sim, model, records) -> None:
    """Validate the KL similarity matrix against the benchmark's own posteriors and KL."""
    sim = np.asarray(sim)
    _, word_counts = group_records(records)
    n = len(word_counts)
    require(sim.shape == (n, n), f"matrix shape {sim.shape}, expected {(n, n)}")
    require(bool(np.all(np.isfinite(sim))), "matrix has non-finite entries")
    require(bool(np.array_equal(sim, sim.T)), "matrix is not symmetric")
    require(bool(np.all(np.diag(sim) == 0.0)), "diagonal is not zero")
    require(float(sim.max()) <= SIGN_TOL, f"positive similarity {float(sim.max())!r}")
    post = topic_posteriors(counts_matrix(word_counts, model.vocab), model.pi, model.mu)
    error = float(np.abs(sim - kl_similarity(post)).max())
    require(error <= KL_TOL, f"matrix differs from the reference KL by {error:.3g}")
