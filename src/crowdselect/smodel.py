"""Similarity-driven crowd selection.

A crowd's diversity is the negated average of its pairwise similarity scores;
selecting the k most diverse workers is done exactly by a pruned depth-first
search over every size-k crowd (guarded), or approximately by greedy hill
climbing on the equivalent sum-form objective, which is submodular whenever
similarities are non-negative. A uniform random crowd is the baseline.
"""

from __future__ import annotations

import math
import time
from typing import Iterable

import numpy as np

from .errors import EnumerationLimitError, TimeBudgetError

# Exact selection refuses to search more subsets than this.
ENUMERATION_LIMIT = 10_000_000

# finite entries near the float limit can still overflow a crowd's pair sum
_OVERFLOW_MESSAGE = "similarity entries too large: every crowd's diversity overflows"
# greedy_select starts from a pair of workers, so it needs crowds of two or more
GREEDY_MIN_K = 2
# entries per (rows x n) work array of the exact search; 2^16 was the fastest
# of 2^12 to 2^17 on 22-25 worker matrices
_WORK_ENTRIES = 1 << 16
# relative slack before a bound prunes: far above the rounding error of the
# pair sums being compared, so a crowd that ties the best is never dropped
_PRUNE_SLACK = 1e-9
# sums of pair entries stay below this far from the float limit (about 1.8e308)
_NO_OVERFLOW = 1e300
# largest |sim[i, j] - sim[j, i]| a similarity matrix may have
_SYMMETRY_TOL = 1e-9


def check_similarity_matrix(sim) -> np.ndarray:
    """Validate an n x n similarity matrix: square, finite, symmetric within _SYMMETRY_TOL."""
    arr = np.asarray(sim, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("similarity matrix must be square")
    if arr.shape[0] < 1:
        raise ValueError("similarity matrix must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("similarity matrix has non-finite entries")
    # one n x n temporary, reused for the absolute values; a gap that
    # overflows to inf fails the test below
    with np.errstate(over="ignore"):
        gap = arr - arr.T
    if not np.abs(gap, out=gap).max() <= _SYMMETRY_TOL:
        raise ValueError(f"similarity matrix is not symmetric within {_SYMMETRY_TOL}")
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


def _greedy_complete(
    matrix: np.ndarray,
    s0: np.ndarray,
    s1: np.ndarray,
    k: int,
    floor: np.ndarray | None = None,
    limit: float = math.inf,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy completion of each seed pair (s0[i], s1[i]) to k members.

    Each step adds the worker with the least similarity mass to the crowd so
    far, which maximizes the resulting diversity; ties go to the smallest
    index. Returns the (seeds, k) members in order of addition, each crowd's
    pair sum and the positions in s0 of the seeds those rows belong to.

    With a floor (see _completion_floor), a seed is dropped once a lower
    bound on its finished pair sum exceeds limit: with r members still to
    add, the pair sum so far, plus r times this step's least mass, plus
    floor[r]. A NaN bound keeps its seed. Dropping changes no surviving
    row's arithmetic, so every pair sum is the one a full run computes.
    """
    count = s0.size
    idx = np.arange(count)
    seeds = np.arange(count)
    # marginal[s, w] = similarity mass w would add to seed s's crowd
    marginal = matrix[s0]
    marginal += matrix[s1]
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
        margin = marginal[idx, w]
        remaining = k - step
        if floor is not None and remaining > 1:
            keep = ~(pair_sum + remaining * margin + floor[remaining] > limit)
            dropped = keep.size - np.count_nonzero(keep)
            # copying the survivors costs about one pass over marginal and
            # each later step two or three, so seeds go once a quarter can
            if 4 * dropped >= keep.size:
                seeds, w, margin = seeds[keep], w[keep], margin[keep]
                marginal, pair_sum, members = marginal[keep], pair_sum[keep], members[keep]
                idx = idx[: seeds.size]
        pair_sum += margin
        members[:, step] = w
        if step < k - 1:
            marginal += matrix[w]
            marginal[idx, w] = np.inf
    return members, pair_sum, seeds


def _completion_floor(matrix: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lower bounds on what the workers that complete a crowd to k can add.

    Entries are taken as min(sim[i, j], sim[j, i]), so the bounds hold for
    either triangle of a matrix that is symmetric only within tolerance.
    Returns (low, floor):
    - low[w], the sum of the k-2 smallest entries of row w off the diagonal,
      bounds the mass of any k-2 other workers to w;
    - floor[r], for r up to k-2, bounds the pair sum of any r workers: each
      has r-1 partners, whose entries in its row are at least its r-1
      smallest, so the sum is at least the r smallest of half those row sums.
    Rows are scanned in blocks of about _WORK_ENTRIES entries.
    """
    n = matrix.shape[0]
    depth = k - 2
    smallest = np.zeros((n, depth + 1))
    if depth:
        rows = max(1, _WORK_ENTRIES // n)
        for lo in range(0, n, rows):
            hi = min(n, lo + rows)
            block = np.minimum(matrix[lo:hi], matrix[:, lo:hi].T)
            block[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
            block.partition(depth - 1, axis=1)
            part = np.sort(block[:, :depth], axis=1)
            np.cumsum(part, axis=1, out=smallest[lo:hi, 1:])
    floor = np.zeros(max(k - 1, 2))
    for r in range(2, k - 1):
        half = smallest[:, r - 1] / 2.0
        floor[r] = np.partition(half, r - 1)[:r].sum()
    return smallest[:, depth], floor


def _prune_slack(matrix: np.ndarray, k: int) -> float:
    """Absolute rounding slack for comparing the pair sums of size-k crowds.

    Rounding error of a pair sum grows with its number of terms and their
    size; where a sum could overflow, rounding has no bound and nothing prunes.
    """
    scale = math.comb(k, 2) * float(np.abs(matrix).max())
    return _PRUNE_SLACK * (1.0 + scale) if scale < _NO_OVERFLOW else math.inf


def exact_select(sim, k: int, time_budget_s: float | None = None) -> tuple[int, ...]:
    """Most diverse size-k crowd, by a depth-first search over every crowd.

    The search walks the tree of sorted member prefixes in lexicographic
    order. Each prefix carries its pair sum and every worker's similarity
    mass to it, so a child costs O(n) and a complete crowd O(1). A child is
    pruned when a lower bound on all its completions exceeds, by a rounding
    slack, the least pair sum seen so far: that of the best crowd found, or
    of one greedy crowd computed first. With r members still to add, the
    bound is the child's pair sum, plus the r smallest masses among later
    workers, plus a floor on the pair sum of any r workers, the one greedy
    selection also uses (see _completion_floor). Where nothing
    prunes (an all-equal matrix, say) the search visits every crowd, so it
    is guarded by ENUMERATION_LIMIT like full enumeration; the optional
    wall-clock budget is checked after each chunk of at most about 2^16
    array entries.

    Ties resolve to the lexicographically smallest member set: crowds are
    reached in that order, a later one must be strictly better, and a bound
    that only equals the best never prunes. A pair sum that overflows to NaN
    never prunes and never wins.
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
    if k == 1:
        # every single worker has pair sum 0
        return (0,)
    started = time.perf_counter()
    # entries near the float limit overflow to +-inf, and to NaN where both meet
    with np.errstate(over="ignore", invalid="ignore"):
        best = _prefix_search(matrix, k, started, time_budget_s)
    if best is None:
        raise ValueError(_OVERFLOW_MESSAGE)
    return best


def _prefix_search(
    matrix: np.ndarray, k: int, started: float, time_budget_s: float | None
) -> tuple[int, ...] | None:
    """Depth-first branch and bound behind exact_select, for 2 <= k <= n."""
    n = matrix.shape[0]
    cols = np.arange(n)
    chunk = max(1, _WORK_ENTRIES // n)
    # floor[r], for r up to k - 1, bounds the pair sum of any r workers
    floor = np.zeros(k)
    # below three members nothing prunes, so no first bound is needed
    incumbent = math.inf
    if k >= 3:
        _, floor = _completion_floor(matrix, k + 1)
        pair_i, pair_j = np.triu_indices(n, 1)
        upper = matrix[pair_i, pair_j]
        # first bound: one greedy crowd grown from the least-similar pair, in
        # O(n^2 + k n); scored from the upper triangle, as the search scores
        # crowds, since the matrix may be asymmetric within tolerance
        low = int(np.argmin(upper))
        members, _, _ = _greedy_complete(matrix, pair_i[low : low + 1], pair_j[low : low + 1], k)
        crowd = np.sort(members[0])
        incumbent = float(np.triu(matrix[np.ix_(crowd, crowd)], 1).sum())
        if math.isnan(incumbent):
            incumbent = math.inf
    slack = _prune_slack(matrix, k)
    best_sum, best = math.inf, None
    # a frame holds prefixes (rows, depth), their pair sums and (rows, n)
    # masses, plus the (prefix row, next worker) pairs still to expand
    first = np.arange(n - k + 1)
    stack = [(np.empty((1, 0), dtype=np.intp), np.zeros(1), np.zeros((1, n)),
              np.zeros_like(first), first, 0)]
    while stack:
        prefix, pair_sum, mass, rows, nxt, pos = stack.pop()
        if pos + chunk < rows.size:
            stack.append((prefix, pair_sum, mass, rows, nxt, pos + chunk))
        rows, nxt = rows[pos : pos + chunk], nxt[pos : pos + chunk]
        child_sum = pair_sum[rows] + mass[rows, nxt]
        child_mass = mass[rows] + matrix[nxt]
        later = cols > nxt[:, None]
        remaining = k - prefix.shape[1] - 1
        if remaining == 1:
            # each child row completes to a crowd with any one later worker
            sums = np.where(later, child_sum[:, None] + child_mass, np.inf)
            sums[np.isnan(sums)] = np.inf
            top = int(np.argmin(sums))
            row, last = divmod(top, n)
            if sums[row, last] < best_sum:
                best_sum = float(sums[row, last])
                best = (*(int(i) for i in prefix[rows[row]]), int(nxt[row]), last)
        else:
            cheapest = np.partition(np.where(later, child_mass, np.inf), remaining - 1, axis=1)
            bound = child_sum + cheapest[:, :remaining].sum(axis=1) + floor[remaining]
            threshold = min(best_sum, incumbent)
            # a NaN bound compares False, so it keeps its child
            keep = ~(bound > threshold + slack + _PRUNE_SLACK * abs(threshold))
            if keep.any():
                grow_rows, grow_next = np.nonzero(later[keep] & (cols <= n - remaining))
                child_prefix = np.column_stack((prefix[rows[keep]], nxt[keep]))
                stack.append((child_prefix, child_sum[keep], child_mass[keep],
                              grow_rows, grow_next, 0))
        if time_budget_s is not None:
            elapsed = time.perf_counter() - started
            if elapsed > time_budget_s:
                raise TimeBudgetError(time_budget_s, elapsed)
    return best


def _seeds_best_first(
    matrix: np.ndarray, weight: np.ndarray, first: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every seed pair (a, b), a < b, by ascending matrix[a, b] + weight[a] + weight[b].

    Returns the pairs' positions in triu_indices order and their sums, both
    in that ascending order. The sums are formed in blocks of about
    _WORK_ENTRIES entries, and no index arrays are kept.
    """
    n = matrix.shape[0]
    sums = np.empty(int(first[-1]))
    cols = np.arange(n)
    rows = max(1, _WORK_ENTRIES // n)
    for lo in range(0, n - 1, rows):
        hi = min(n - 1, lo + rows)
        block = matrix[lo:hi] + weight
        block += weight[lo:hi, None]
        # a boolean mask reads the upper triangle row by row, as triu_indices does
        sums[first[lo] : first[hi]] = block[cols > cols[lo:hi, None]]
    order = np.argsort(sums)
    sums.sort()
    return order, sums


def greedy_select(sim, k: int) -> tuple[int, ...]:
    """Greedy hill-climbing selection of a size-k crowd.

    Runs the greedy completion (repeatedly add the worker maximizing the
    resulting diversity, ties toward the smallest index) from every
    two-worker seed pair, and keeps the most diverse finished crowd; seed
    ties resolve to the pair that comes first in lexicographic order. A
    single least-similar-pair seed is noticeably weaker (about 5% below the
    exact optimum on random instances); restarting over all pairs closes
    that gap at O(k n) vectorized work per seed. For k = 2 this degenerates
    to the globally least-similar pair.

    Seeds that cannot win are not finished. Before its first step a seed
    (a, b) can finish no lower than sim[a, b] + low[a] + low[b] + floor[k-2]
    (see _completion_floor), and seeds run best-first in ascending order of
    that bound: the first seed alone, then chunks of about 2^16 array
    entries. A chunk's seeds whose bound exceeds the least pair sum found so
    far, plus the rounding slack exact_select uses, are skipped, and the run
    stops at the first chunk that starts above it; later steps drop seeds
    by the same rule (see _greedy_complete). No seed that could tie the
    winner is dropped, and a surviving seed's pair sum is computed exactly
    as before, so the crowd is the one the full all-pairs run returns.
    Where a pair sum could overflow, nothing is dropped.
    """
    matrix = check_similarity_matrix(sim)
    n = matrix.shape[0]
    if not GREEDY_MIN_K <= k <= n:
        raise ValueError(f"k must lie in [{GREEDY_MIN_K}, {n}], got {k}")
    # first[a]: position of the seed pair (a, a + 1) in triu_indices order
    first = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    seeds = int(first[-1])
    slack = _prune_slack(matrix, k)
    best_div, best_pos, best_sum = -math.inf, seeds, math.inf
    best_members: np.ndarray | None = None
    # (seeds, n) work arrays of about 512 KB keep every step's passes in cache;
    # 32 MB arrays made n = 300 three to four times slower on a 2 MB-L2 core
    chunk = max(1, _WORK_ENTRIES // n)
    # entries near the float limit overflow to +-inf, and to NaN where both
    # meet; a NaN crowd never wins, as in exact_select, and if no crowd is
    # comparable that is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        low, floor = _completion_floor(matrix, k)
        order, bound = _seeds_best_first(matrix, low + floor[k - 2] / 2.0, first)
        # the least-bound seed alone gives the first chunk a threshold
        edges = [0, *range(1, seeds, chunk), seeds]
        for start, stop in zip(edges, edges[1:]):
            limit = best_sum + slack + _PRUNE_SLACK * abs(best_sum)
            # a NaN bound or limit compares False, so it keeps its seeds
            if bound[start] > limit:
                break
            pos = order[start:stop][~(bound[start:stop] > limit)]
            s0 = np.searchsorted(first, pos, side="right") - 1
            members, pair_sum, done = _greedy_complete(
                matrix, s0, pos - first[s0] + s0 + 1, k, floor, limit
            )
            pos = pos[done]
            div = -pair_sum / k
            div[np.isnan(div)] = -np.inf
            top_div = div.max(initial=-np.inf)
            if top_div == -np.inf:
                continue
            # the highest diversity wins, and of equals the seed that comes
            # first in triu_indices order, as in a scan in that order
            tied = np.flatnonzero(div == top_div)
            top = tied[np.argmin(pos[tied])]
            if top_div > best_div or (top_div == best_div and pos[top] < best_pos):
                best_div, best_pos = float(top_div), int(pos[top])
                best_sum, best_members = float(pair_sum[top]), members[top]
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
