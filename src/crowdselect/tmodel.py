"""Task-driven crowd selection.

Each candidate carries a probability of holding a positive opinion on the
task; the goal is a size-k subset maximizing the chance that at least theta1
positive and theta0 negative opinions show up. Solvers: exact enumeration,
two knapsack reductions driven by the Poisson and Binomial approximation
peaks, simulated annealing over the Normal-approximate or exact objective,
and a random baseline.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
import time
from dataclasses import dataclass, field
from functools import reduce
from operator import add, mul
from typing import Hashable, Iterator, Sequence

import numpy as np

from . import pbd
from .errors import EnumerationLimitError, TimeBudgetError
from .pbd import DemandWindow, WindowKernel
from .smodel import ENUMERATION_LIMIT

# Annealing defaults: initial/terminal temperature, sweeps per level, cooling ratio.
SA_T_INI = 1.0
SA_T_END = 1e-4
SA_REPEATS = 1000
SA_COOLING = 0.9
# Most annealing steps a schedule may ask for, levels x max(r, 1): about 114
# times the default 88 levels x 1000. The level count matters on its own, as
# each level resyncs the score even at r = 0.
SA_MAX_STEPS = 10**7


@dataclass(frozen=True, eq=False)
class CandidatePool:
    """Candidate workers: parallel tuples of ids and positive-opinion probabilities."""

    ids: tuple[Hashable, ...]
    probs: np.ndarray

    def __post_init__(self):
        probs = pbd.as_prob_array(self.probs)
        object.__setattr__(self, "probs", probs)
        if len(self.ids) != probs.size:
            raise ValueError("ids and probabilities must have equal length")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("worker ids must be unique")

    @classmethod
    def from_probs(cls, probs: Sequence[float]) -> "CandidatePool":
        arr = pbd.as_prob_array(probs)
        return cls(ids=tuple(range(arr.size)), probs=arr)

    def __len__(self) -> int:
        return self.probs.size

    def subset_ids(self, indices: Sequence[int]) -> tuple[Hashable, ...]:
        return tuple(self.ids[i] for i in indices)


@dataclass(frozen=True)
class SaParams:
    """Annealing schedule: geometric cooling from t_ini to t_end, r sweeps per level."""

    t_ini: float = SA_T_INI
    t_end: float = SA_T_END
    r: int = SA_REPEATS
    c: float = SA_COOLING
    seed: int = 0

    def __post_init__(self):
        # an infinite t_ini stays infinite under cooling, and a subnormal
        # temperature can round back to itself, so annealing would never end
        if not (math.isfinite(self.t_ini) and self.t_ini > self.t_end >= sys.float_info.min):
            raise ValueError(
                f"need finite t_ini > t_end >= {sys.float_info.min!r}, "
                f"got {self.t_ini!r} and {self.t_end!r}"
            )
        if not isinstance(self.r, (int, np.integer)) or self.r < 0:
            raise ValueError(f"sweep count r must be a non-negative integer, got {self.r!r}")
        if not 0.0 < self.c < 1.0:
            raise ValueError("cooling ratio c must lie in (0, 1)")
        # levels = ceil(log(t_ini / t_end) / -log(c)), counted without cooling
        # step by step: a c one ulp below 1 would take about 10^17 levels
        levels = math.ceil((math.log(self.t_ini) - math.log(self.t_end)) / -math.log(self.c))
        if levels * max(int(self.r), 1) > SA_MAX_STEPS:
            raise ValueError(
                f"annealing schedule of {levels} levels x {self.r} sweeps exceeds "
                f"SA_MAX_STEPS = {SA_MAX_STEPS}"
            )


@dataclass(frozen=True, init=False)
class SelectionResult:
    """Outcome of one solver run, of either model.

    score is recomputed from the returned subset, so results of different
    solvers compare: the exact window probability tau (T-model) or the
    diversity (S-model, whose subset holds indices). objective is whatever
    internal score the solver maximized.
    """

    subset: tuple[Hashable, ...]
    score: float
    objective: float
    method: str
    wall_time: float
    indices: tuple[int, ...] = field(default=(), repr=False)

    def __init__(self, *, subset, objective, method, wall_time, indices=(), score=None, tau=None):
        # tau, the T-model name of score, wins when both are given, so that
        # dataclasses.replace(result, tau=...) replaces the score
        score = score if tau is None else tau
        values = (subset, score, objective, method, wall_time, indices)
        for name, value in zip(self.__dataclass_fields__, values):
            object.__setattr__(self, name, value)

    @property
    def tau(self) -> float:
        """The score of a T-model result: the exact window probability."""
        return self.score


def _result(
    pool: CandidatePool,
    window: DemandWindow,
    indices: Sequence[int],
    objective: float | None,
    method: str,
    started: float,
) -> SelectionResult:
    idx = tuple(sorted(int(i) for i in indices))
    tau = pbd.window_prob(pool.probs[list(idx)], window)
    return SelectionResult(
        subset=pool.subset_ids(idx),
        score=tau,
        objective=tau if objective is None else float(objective),
        method=method,
        wall_time=time.perf_counter() - started,
        indices=idx,
    )


def _check_feasible(pool: CandidatePool, window: DemandWindow) -> None:
    if window.k > len(pool):
        raise ValueError(f"cannot select k = {window.k} from {len(pool)} candidates")


# Entries per work array of exact enumeration: a (rows, k) block holds about
# this many, 0.5 MB as complex values (tau_many's factor buffer) and 0.25 MB
# as probabilities.
_WORK_ENTRIES = 1 << 15
# Memory the cached enumerations may hold together.
_CACHE_BYTES = 64 << 20
# least recently used first; the arrays together stay within _CACHE_BYTES
_combo_cache: dict[tuple[int, int], np.ndarray] = {}


def _index_combo_blocks(n: int, k: int) -> Iterator[np.ndarray]:
    """Yield (m, k) index arrays covering all combinations in lexicographic order.

    Indices have the narrowest unsigned type that holds n - 1: one byte for
    pools of up to 256 workers. Each block holds about _WORK_ENTRIES indices.
    Small enumerations are materialized once and cached, because benchmark
    loops re-enumerate the same few (n, k) for every trial, often alternating
    between them. The cache holds several entries within _CACHE_BYTES in total
    and evicts the least recently used.
    """
    key = (n, k)
    rows = max(1, _WORK_ENTRIES // k)
    dtype = np.min_scalar_type(n - 1)
    cached = _combo_cache.pop(key, None)
    if cached is None:
        total = math.comb(n, k)
        size = total * k * dtype.itemsize
        if size <= _CACHE_BYTES:
            # evict before building, so old and new never exceed the budget together
            held = sum(a.nbytes for a in _combo_cache.values())
            while held + size > _CACHE_BYTES:
                held -= _combo_cache.pop(next(iter(_combo_cache))).nbytes
            cached = np.fromiter(
                itertools.chain.from_iterable(itertools.combinations(range(n), k)),
                dtype=dtype,
                count=total * k,
            ).reshape(total, k)
        else:
            source = itertools.combinations(range(n), k)
            while True:
                block = list(itertools.islice(source, rows))
                if not block:
                    return
                yield np.asarray(block, dtype=dtype)
    _combo_cache[key] = cached
    for start in range(0, len(cached), rows):
        yield cached[start : start + rows]


def exact_select(
    pool: CandidatePool,
    window: DemandWindow,
    time_budget_s: float | None = None,
) -> SelectionResult:
    """Optimal subset by enumerating every size-k candidate set.

    Ties resolve to the first subset in lexicographic index order. Guarded by
    the enumeration limit and an optional wall-clock budget, checked after
    each block of about _WORK_ENTRIES indices. Each block needs about 0.8 MB
    of work arrays beside the combination cache, whose one-byte indices hold
    C(20, 10) in 1.8 MB.
    """
    started = time.perf_counter()
    _check_feasible(pool, window)
    n, k = len(pool), window.k
    total = math.comb(n, k)
    if total > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"C({n}, {k}) = {total} subsets exceeds the enumeration limit {ENUMERATION_LIMIT}"
        )
    kernel = WindowKernel(window)
    best_tau = -math.inf
    best: tuple[int, ...] | None = None
    for block in _index_combo_blocks(n, k):
        taus = kernel.tau_many(pool.probs[block])
        top = int(np.argmax(taus))
        if taus[top] > best_tau:
            best_tau = float(taus[top])
            best = tuple(int(i) for i in block[top])
        if time_budget_s is not None:
            elapsed = time.perf_counter() - started
            if elapsed > time_budget_s:
                raise TimeBudgetError(time_budget_s, elapsed)
    if best is None:
        raise RuntimeError("no subset has a comparable window probability")
    return _result(pool, window, best, best_tau, "exact", started)


# Exact knapsack stores the sorted subset sums of the light half-pool,
# 2^floor(n/2) floats (32 MB at n = 44), and streams the heavy half; past
# this the table and the O(2^(n/2)) time per query grow too large.
KNAPSACK_LIMIT = 44

# Slack between masses summed in different orders; sums of at most
# KNAPSACK_LIMIT probabilities differ by far less.
_MASS_ROUNDING = 1e-9

# Half-pool subsets are enumerated in blocks of 2^_SUBSET_BLOCK_BITS codes,
# 0.3 MB of low-bit sums and codes per stream. One select_poisson (2 CPUs,
# Python 3.11, numpy 2.4, interleaved medians) at n = 38, 40, 42 and 44
# traces 4.7, 8.7, 16.7 and 32.7 MB and takes 0.04, 0.08, 0.17 and 0.26 s.
# 2^16 traces 0.6 MB more and is 2-16 % faster; 2^14 traces 0.3 MB less but
# is 10-53 % slower, since each block and size costs a few numpy calls.
_SUBSET_BLOCK_BITS = 15


def _size_groups(weights: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Subsets of weights by size: entry s holds the s-subsets' codes and sums, ascending by sum.

    Bit j of a code selects weights[j]. The sums fill by doubling: the codes
    with bit j set are those below 2^j plus weights[j], so each sum adds its
    members in index order. Codes have the narrowest unsigned type that holds
    them.
    """
    sums = np.zeros(1 << weights.size)
    sizes = np.zeros(1 << weights.size, dtype=np.int8)
    for j, weight in enumerate(weights):
        low, high = 1 << j, 2 << j
        np.add(sums[:low], weight, out=sums[low:high])
        np.add(sizes[:low], 1, out=sizes[low:high])
    dtype = np.min_scalar_type(sums.size - 1)
    groups = []
    for size in range(weights.size + 1):
        codes = np.flatnonzero(sizes == size)
        codes = codes[np.argsort(sums[codes])]
        groups.append((codes.astype(dtype), sums[codes]))
    return groups


def _subset_sum_blocks(
    weights: np.ndarray, sizes: range, descending: bool = False
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Each subset of weights with a size in sizes, as groups (size, base, low codes, sums).

    Bit j of a code selects weights[j]. The codes split into blocks of
    2^_SUBSET_BLOCK_BITS that share their high bits (base); a group is the
    subsets of one block and one size, its codes base | low codes, ascending
    by sum (the order of equal sums is unspecified). A block adds its
    high-bit weights to the low-bit sums of _size_groups in index order, so
    every sum adds its members in index order, one IEEE addition per member,
    and is the same on every platform. On pools of round probabilities many
    subsets share a mass, and the last bit of a sum decides which of them a
    knapsack query returns. Blocks come in ascending code order, or
    descending when asked.
    """
    bits = min(weights.size, _SUBSET_BLOCK_BITS)
    groups = _size_groups(weights[:bits])
    high_weights = [float(weight) for weight in weights[bits:]]
    highs = range(1 << len(high_weights))
    for high in reversed(highs) if descending else highs:
        members = [weight for j, weight in enumerate(high_weights) if high >> j & 1]
        for size, (low_codes, sums) in enumerate(groups):
            if size + len(members) in sizes:
                for weight in members:
                    sums = sums + weight
                yield size + len(members), high << bits, low_codes, sums


def _sorted_subset_sums(weights: np.ndarray) -> list[np.ndarray]:
    """Subset sums of one half-pool by size: entry s holds the sums of the s-subsets, sorted."""
    m = weights.size
    table = np.empty(1 << m)
    starts = np.cumsum([0] + [math.comb(m, size) for size in range(m + 1)])
    by_size = [table[lo:hi] for lo, hi in zip(starts[:-1], starts[1:])]
    filled = [0] * (m + 1)
    for size, _, _, sums in _subset_sum_blocks(weights, range(m + 1)):
        by_size[size][filled[size] : filled[size] + sums.size] = sums
        filled[size] += sums.size
    for sums in by_size:
        sums.sort()
    return by_size


def _largest_code(weights: np.ndarray, size: int, total: float) -> int:
    """Largest code of a size-subset of weights whose index-order sum is total."""
    groups = _subset_sum_blocks(weights, range(size, size + 1), descending=True)
    for _, base, low_codes, sums in groups:
        hits = np.flatnonzero(sums == total)
        if hits.size:
            return base | int(low_codes[hits].max())
    raise RuntimeError("a chosen light sum is the sum of a light subset")


def _code_to_indices(code: int, offset: int) -> list[int]:
    out = []
    position = 0
    while code:
        if code & 1:
            out.append(offset + position)
        code >>= 1
        position += 1
    return out


class _Knapsack:
    """k-item knapsack queries over one pool, sharing its light-half table.

    The pool is sorted ascending by probability once and split into a light
    and a heavy half, a meet in the middle (Horowitz & Sahni 1974). Only the
    light half is stored: its per-size sorted subset sums
    (_sorted_subset_sums), built on the first query that needs them. Every
    query streams the heavy half's subsets in blocks (_subset_sum_blocks)
    and pairs each with the heaviest light sum within the rest of the
    capacity (Schroeppel & Shamir 1981 enumerate the second side in order
    the same way). The Poisson and Binomial solvers ask for k items under
    the peak capacity and for n - k items under the rest of the mass, and
    build the light table once. Each stream's groups come ascending by sum,
    so the budgets capacity - heavy search the light table in order. A
    query frees its heavy stream before it streams the light half again to
    recover the light code, so beside the light table a solve holds one
    stream's blocks at a time. One select_poisson on a 2-CPU machine
    (Python 3.11, numpy 2.4) traces a peak of 4.7, 8.7, 16.7 and 32.7 MB and
    takes 0.04, 0.08, 0.17 and 0.26 s at n = 38, 40, 42 and 44; with both
    halves stored and sorted it was 23, 45, 90 and 180 MB and 0.14, 0.33,
    0.69 and 1.7 s.
    """

    def __init__(self, probs: np.ndarray):
        n = probs.size
        if n > KNAPSACK_LIMIT:
            raise EnumerationLimitError(
                f"exact k-item knapsack limited to {KNAPSACK_LIMIT} candidates, got {n}"
            )
        self._order = np.argsort(probs, kind="stable")
        self._weights = probs[self._order]
        self._prefix = np.concatenate(([0.0], np.cumsum(self._weights)))
        self._half = n // 2
        self._light = None

    def lightest(self, k: int) -> tuple[tuple[int, ...], float]:
        """Pool indices of the k lightest workers, and their mass."""
        return tuple(sorted(int(i) for i in self._order[:k])), float(self._prefix[k])

    def best(self, k: int, capacity: float) -> tuple[int, ...] | None:
        """Pool indices of the heaviest size-k subset within capacity, or None.

        Ties go to the highest mass, then the fewest heavy members, then the
        least (heavy sum, heavy code), then the largest light code.
        """
        order, prefix, half = self._order, self._prefix, self._half
        n = order.size
        if prefix[k] > capacity:  # even the lightest selection overflows
            return None
        if float(prefix[n] - prefix[n - k]) <= capacity:  # the heaviest selection fits
            return tuple(sorted(int(order[i]) for i in range(n - k, n)))
        if self._light is None:
            self._light = _sorted_subset_sums(self._weights[:half])
        pairing = self._best_pairing(k, capacity)
        if pairing is None:
            # rounding in the budgets capacity - heavy rejects every pairing only
            # when each k-subset weighs the capacity to within rounding; the k
            # lightest, which fit by the first check, are then the answer. The
            # lightest heavy subset of a size is its first members, summed in order.
            light_size = min(k, half)
            heavy_least = reduce(add, self._weights[half : half + k - light_size].tolist(), 0.0)
            lightest = self._light[light_size][0] + heavy_least
            if not lightest <= capacity + _MASS_ROUNDING:
                raise RuntimeError("minimal-load check guarantees a feasible pairing")
            return self.lightest(k)[0]
        heavy_code, light_size, light_sum = pairing
        light_code = _largest_code(self._weights[:half], light_size, light_sum)
        chosen = _code_to_indices(light_code, 0) + _code_to_indices(heavy_code, half)
        return tuple(sorted(int(order[i]) for i in chosen))

    def _best_pairing(self, k: int, capacity: float) -> tuple[int, int, float] | None:
        """(heavy code, light size, light sum) of best()'s pick, or None if nothing pairs.

        Streams the heavy half; its block arrays are freed on return, before
        _largest_code streams the light half.
        """
        light, half = self._light, self._half
        best_key = best_light = None
        heavy_groups = _subset_sum_blocks(self._weights[half:], range(k - half, k + 1))
        for heavy_size, base, low_codes, heavy_sums in heavy_groups:
            light_size = k - heavy_size
            light_sums = light[light_size]
            pos = np.searchsorted(light_sums, capacity - heavy_sums, side="right") - 1
            values = np.where(pos >= 0, light_sums[np.maximum(pos, 0)] + heavy_sums, -np.inf)
            value = float(values.max())
            if value == -math.inf or (best_key is not None and -value > best_key[0]):
                continue
            ties = np.flatnonzero(values == value)
            least = heavy_sums[ties].min()
            ties = ties[heavy_sums[ties] == least]
            top = int(ties[np.argmin(low_codes[ties])])
            key = (-value, heavy_size, float(least), base | int(low_codes[top]))
            if best_key is None or key < best_key:
                best_key, best_light = key, (light_size, float(light_sums[pos[top]]))
        return None if best_key is None else (best_key[3], *best_light)


def exact_knapsack(
    k: int, capacity: float, pool: CandidatePool
) -> tuple[int, ...] | None:
    """Size-k subset maximizing total opinion mass without exceeding capacity.

    Candidates are sorted ascending by probability so infeasibility is checked
    against the minimal attainable load (the k lightest workers); returns None
    when even they overflow, and the k heaviest when they fit. Recursive
    include/exclude search is correct here but degenerates to full
    enumeration whenever the capacity falls in the bulk of the subset-sum
    distribution (no useful value bound exists), so the search instead splits
    the pool in two halves, stores the per-size sorted subset sums of the
    light half and streams the heavy half's subsets against them, which is
    exact in O(2^(n/2)) time and space: at n = 44 a 32 MB table, built in
    about 0.07 s, and 0.1-0.14 s per query (_Knapsack). One call builds the
    table; the Poisson and Binomial solvers query one _Knapsack twice instead.
    """
    n = len(pool)
    if k < 0 or k > n:
        raise ValueError(f"k must lie in [0, {n}], got {k}")
    if k == 0:
        return () if capacity >= 0.0 else None
    return _Knapsack(pool.probs).best(k, capacity)


def _two_sided_knapsack(
    pool: CandidatePool,
    window: DemandWindow,
    capacity: float,
    score_of_mass,
    method: str,
) -> SelectionResult:
    """Shared pipeline of the Poisson/Binomial solvers.

    Finds the feasible subset whose opinion mass lands just below the peak
    capacity, and (through the complement construction) the one just above,
    then keeps whichever scores higher under the approximation. Both queries
    share one _Knapsack, so the light-half table is built once per solve.
    """
    started = time.perf_counter()
    _check_feasible(pool, window)
    n, k = len(pool), window.k
    knapsack = _Knapsack(pool.probs)
    below = knapsack.best(k, capacity)
    complement = knapsack.best(n - k, float(pool.probs.sum()) - capacity)
    above = (
        None
        if complement is None
        else tuple(sorted(set(range(n)) - set(complement)))
    )
    if below is None and above is None:
        # the k lightest overflow the capacity and the k heaviest fall short of
        # it only when each k-subset weighs the capacity to within rounding
        below, mass = knapsack.lightest(k)
        if not abs(mass - capacity) <= _MASS_ROUNDING:
            raise RuntimeError("a feasible k-subset always exists on at least one side of the peak")
    if below is not None and above is not None:
        score_below = score_of_mass(float(pool.probs[list(below)].sum()))
        score_above = score_of_mass(float(pool.probs[list(above)].sum()))
        chosen, objective = (
            (below, score_below) if score_below > score_above else (above, score_above)
        )
    else:
        chosen = above if below is None else below
        objective = score_of_mass(float(pool.probs[list(chosen)].sum()))
    return _result(pool, window, chosen, objective, method, started)


def select_poisson(pool: CandidatePool, window: DemandWindow) -> SelectionResult:
    """Knapsack selection against the Poisson approximation peak.

    A zero-width window makes the peak formula (and the window score)
    degenerate; in that case the target becomes theta1, the mode of the
    approximating Poisson, scored by its mass at theta1.
    """
    if window.width > 0:
        capacity = pbd.poisson_window_peak(window)
        score = lambda mass: pbd.poisson_window_prob(mass, window)
    else:
        capacity = float(window.theta1)
        score = lambda mass: pbd.poisson_pmf(window.theta1, mass)
    return _two_sided_knapsack(pool, window, capacity, score, "poisson")


def select_binomial(pool: CandidatePool, window: DemandWindow) -> SelectionResult:
    """Knapsack selection against the Binomial approximation peak.

    Same pipeline as the Poisson variant with the Binomial peak capacity and
    score; the zero-width special case targets theta1 and scores by the
    Binomial mass there.
    """
    k = window.k
    if window.width > 0:
        _, capacity = pbd.binomial_window_peak(k, window)
        score = lambda mass: pbd.binomial_window_prob(mass / k, k, window)
    else:
        capacity = float(window.theta1)
        score = lambda mass: pbd.binomial_pmf(window.theta1, k, mass / k)
    return _two_sided_knapsack(pool, window, capacity, score, "binomial")


# Upper bound on the move draws (steps x swap cap) generated per batch, so a
# long level does not allocate in proportion to its sweep count.
_DRAW_BLOCK = 1 << 16

# Largest (pool size)^2 x (frequencies) for which the DFT-CF score keeps a
# table of per-(outgoing, incoming) factor ratios in Python lists; larger
# pools score a swap with numpy from a table of factors and reciprocals.
# The faster path follows the frequency count L = (k + 1) // 2 more than n.
# us per dftcf-sa step, list / numpy path forced (2 CPUs, Python 3.11, numpy
# 2.4, median of 5), at n = 60, 80, 100, 120: k = 10 4.1/7.4, 5.1/7.5,
# 4.5/7.2, 5.0/6.6; k = 20 7.7/8.4, 9.0/7.9, 10.1/8.2, 9.9/7.6. So n = 120,
# k = 10 and n = 80, k = 20 take the slower path; moving the limit would
# change the rounding.
_PAIR_TABLE_LIMIT = 1 << 16


class _SwapScore:
    """Annealing state: a k-subset of range(n) and its objective, kept under member swaps.

    The subset lives in two index lists, members and outsiders. A step
    exchanges `swaps` members for as many outsiders, picked by a partial
    Fisher-Yates shuffle of each list's front: step s reads its picks at
    start = 2 s swap_cap, and for j < swaps positions[start + j] lies in
    [j, k) and positions[start + swap_cap + j] in [j, n - k).

    run_block(counts, positions, bars) runs a block of such steps in one
    loop with all state in locals. Each step moves its picks to the fronts
    and scores the candidate in O(swaps) from the kept state; it accepts
    when candidate - value >= bar, exchanging the two fronts, and a rejected
    step leaves the subset as it was, reordered. Per-step method calls cost
    as much as the scoring: at n = 20, k = 8 a Normal step took 3.4 us with
    them and 2.1 us fused. resync recomputes the score from scratch,
    discarding the rounding that incremental updates accumulate.
    """

    def __init__(self, n: int, members: Sequence[int]):
        self.members = list(members)
        inside = set(self.members)
        self.outsiders = [i for i in range(n) if i not in inside]
        self.swap_cap = max(1, min(len(self.members), len(self.outsiders)) // 2)
        self.resync()

    def resync(self) -> None:
        self._state = self._from_scratch(self.members)
        self.value = self._value(self._state)


class _NormalScore(_SwapScore):
    """Continuity-corrected Normal window score over a running mean and variance."""

    def __init__(self, probs: Sequence[float], window: DemandWindow, members: Sequence[int]):
        self._probs = list(probs)
        self._var_terms = [p * (1.0 - p) for p in self._probs]
        self._window = window
        super().__init__(len(self._probs), members)

    def _from_scratch(self, members):
        mean = var = 0.0
        for i in members:
            mean += self._probs[i]
            var += self._var_terms[i]
        return mean, var

    def _value(self, state):
        mean, var = state
        # a running variance can end a rounding step below an exact 0
        return pbd.normal_window_prob(mean, math.sqrt(max(var, 0.0)), self._window)

    def run_block(self, counts, positions, bars) -> None:
        members, outsiders = self.members, self.outsiders
        probs, var_terms = self._probs, self._var_terms
        # _value inlined operation for operation, so every candidate is the
        # same float; sqrt(v) > 0 for every v > 0, so v > 0 decides stddev == 0
        sqrt, erf, root2 = math.sqrt, math.erf, math.sqrt(2.0)
        hi = self._window.theta2 + 0.5
        lo = self._window.theta1 - 0.5
        mean, var = self._state
        current = self.value
        middle = self.swap_cap
        for swaps, start, bar in zip(counts, range(0, len(positions), 2 * middle), bars):
            m, v = mean, var
            mid = start + middle
            for j in range(swaps):
                a, b = positions[start + j], positions[mid + j]
                members[j], members[a] = members[a], members[j]
                outsiders[j], outsiders[b] = outsiders[b], outsiders[j]
                o, i = members[j], outsiders[j]
                m += probs[i] - probs[o]
                v += var_terms[i] - var_terms[o]
            if v > 0.0:
                scale = sqrt(v) * root2
                candidate = 0.5 * (erf((hi - m) / scale) - erf((lo - m) / scale))
            else:
                candidate = 1.0 if lo < m <= hi else 0.0
            if candidate - current >= bar:
                members[:swaps], outsiders[:swaps] = outsiders[:swaps], members[:swaps]
                mean, var, current = m, v, candidate
        self._state = mean, var
        self.value = current


class _DftcfScore(_SwapScore):
    """Exact window probability over incrementally kept characteristic-function terms.

    The state holds, per frequency l of WindowKernel.half_terms, its weight
    times z_l, the product over members of 1 - p (1 - w_l); the score is the
    real part of their sum plus WindowKernel.w0, clamped to [0, 1]. A swap
    multiplies in the incoming factors and divides out the outgoing ones, in
    one of two block loops:

    - n^2 L <= _PAIR_TABLE_LIMIT (n workers, L frequencies): the terms are a
      Python list, and each swapped pair multiplies it by a precomputed row
      of incoming factor over outgoing factor (_run_pairs): about 3.2 us
      per step at n = 20, k = 8.
    - larger pools: the terms are a numpy vector, and a (2n, L) table stacks
      the factor rows on the reciprocal rows. A step takes the 2 x swaps
      rows of the move, multiplies them down to one ratio vector and scores
      the move with one dot product against the terms, O(swaps L) in three
      numpy calls; acceptance multiplies the ratio in (_run_table): about
      9 us per step at n = 100, k = 20.

    A factor vanishes only at p = 1/2 on the Nyquist frequency (k odd); the
    rounded root leaves a residue near 1e-16 there, whose powers underflow
    once enough such workers are members, so a step that removes one
    rebuilds the terms from scratch instead of dividing, on either path. A
    pool without such a worker skips that test.
    """

    def __init__(self, probs: Sequence[float], window: DemandWindow, members: Sequence[int]):
        kernel = WindowKernel(window)
        self._w0 = kernel.w0
        self._weights = [weight for _, weight in kernel.half_terms]
        self._factors = [
            [1.0 - p * one_minus_root for one_minus_root, _ in kernel.half_terms]
            for p in probs
        ]
        # 1 - p (1 - w) is exactly 0 only for p = 1/2 at w = -1, the Nyquist
        # frequency that exists for odd k
        self._singular = {i for i, p in enumerate(probs) if p == 0.5 and window.k % 2 == 1}
        # a singular worker's reciprocal row is never read: removing it rebuilds
        nan_row = [math.nan] * len(self._weights)
        inverses = [
            nan_row if i in self._singular else [1.0 / f for f in row]
            for i, row in enumerate(self._factors)
        ]
        n = len(self._factors)
        self._pairs = None
        if n * n * len(self._weights) <= _PAIR_TABLE_LIMIT:
            self._pairs = [
                [list(map(mul, row, inverse)) for row in self._factors] for inverse in inverses
            ]
            self.run_block = self._run_pairs
        else:
            self._table = np.array(self._factors + inverses)
            self.run_block = self._run_table
        super().__init__(n, members)

    def _from_scratch(self, members):
        terms = self._weights
        for i in members:
            terms = list(map(mul, terms, self._factors[i]))
        return terms if self._pairs is not None else np.array(terms)

    def _value(self, terms):
        value = sum(terms, self._w0).real
        if value > 1.0:
            return 1.0
        return value if value > 0.0 else 0.0

    def _run_pairs(self, counts, positions, bars) -> None:
        members, outsiders, pairs = self.members, self.outsiders, self._pairs
        singular, w0 = self._singular, self._w0
        terms, current = self._state, self.value
        middle = self.swap_cap
        for swaps, start, bar in zip(counts, range(0, len(positions), 2 * middle), bars):
            # chain lazy element-wise products and build one list at the end;
            # a singular worker's chain is dropped unread
            moved = terms
            mid = start + middle
            for j in range(swaps):
                a, b = positions[start + j], positions[mid + j]
                members[j], members[a] = members[a], members[j]
                outsiders[j], outsiders[b] = outsiders[b], outsiders[j]
                moved = map(mul, moved, pairs[members[j]][outsiders[j]])
            if singular and not singular.isdisjoint(members[:swaps]):
                moved = self._from_scratch(outsiders[:swaps] + members[swaps:])
            else:
                moved = [*moved]
            value = sum(moved, w0).real
            candidate = 1.0 if value > 1.0 else value if value > 0.0 else 0.0
            if candidate - current >= bar:
                members[:swaps], outsiders[:swaps] = outsiders[:swaps], members[:swaps]
                terms, current = moved, candidate
        self._state, self.value = terms, current

    def _run_table(self, counts, positions, bars) -> None:
        members, outsiders = self.members, self.outsiders
        singular, w0 = self._singular, self._w0
        take, product = self._table.take, np.multiply.reduce
        n = len(self._factors)
        terms, current = self._state, self.value
        middle = self.swap_cap
        for swaps, start, bar in zip(counts, range(0, len(positions), 2 * middle), bars):
            rows = []
            mid = start + middle
            for j in range(swaps):
                a, b = positions[start + j], positions[mid + j]
                members[j], members[a] = members[a], members[j]
                outsiders[j], outsiders[b] = outsiders[b], outsiders[j]
                rows += (outsiders[j], n + members[j])
            if singular and not singular.isdisjoint(members[:swaps]):
                ratio = None
                moved = self._from_scratch(outsiders[:swaps] + members[swaps:])
                candidate = self._value(moved)
            else:
                ratio = product(take(rows, axis=0))
                value = w0 + float(terms.dot(ratio).real)
                candidate = 1.0 if value > 1.0 else value if value > 0.0 else 0.0
            if candidate - current >= bar:
                members[:swaps], outsiders[:swaps] = outsiders[:swaps], members[:swaps]
                terms = moved if ratio is None else terms * ratio
                current = candidate
        self._state, self.value = terms, current


_SWAP_SCORES = {"normal": _NormalScore, "dftcf": _DftcfScore}


def sa_select(
    pool: CandidatePool,
    window: DemandWindow,
    objective: str = "dftcf",
    params: SaParams | None = None,
) -> SelectionResult:
    """Simulated annealing over size-k subsets.

    Each step swaps a random handful of members for outsiders; improvements
    (including ties) are always kept, degradations survive with probability
    exp(delta / T) under geometric cooling. objective selects the score:
    'normal' uses the continuity-corrected Normal approximation, 'dftcf' the
    exact window probability.

    Members and outsiders live in two index lists. A step picks its swaps by
    a partial Fisher-Yates shuffle of each list's front and an accepted step
    exchanges the two fronts, so a step costs O(swaps); the score follows
    incrementally at the same cost and is recomputed from scratch at the end
    of every temperature level to bound rounding drift. Each level draws its
    swap counts, positions and acceptance thresholds T log u in batches, so
    no exponential is evaluated per step, and hands each batch to one
    run_block call of the score (_SwapScore). The initial subset is
    sorted(random.Random(seed).sample(range(n), k)); the run is deterministic
    for a fixed params.seed.
    """
    started = time.perf_counter()
    _check_feasible(pool, window)
    if params is None:
        params = SaParams()
    if objective not in _SWAP_SCORES:
        raise ValueError(f"unknown objective {objective!r}; use 'normal' or 'dftcf'")
    make_score = _SWAP_SCORES[objective]
    n, k = len(pool), window.k
    # plain floats: the annealing loop evaluates the objective tens of
    # thousands of times, and numpy scalar arithmetic is an order of
    # magnitude slower there
    probs = [float(p) for p in pool.probs]

    method = f"{objective}-sa"
    if n == k:
        full = list(range(n))
        return _result(pool, window, full, make_score(probs, window, full).value, method, started)

    rng = random.Random(params.seed)
    score = make_score(probs, window, sorted(rng.sample(range(n), k)))
    draws = np.random.default_rng(rng.getrandbits(64))
    swap_cap = score.swap_cap
    block = max(1, min(params.r, _DRAW_BLOCK // swap_cap))
    # a step's positions: swap_cap member picks uniform on [j, k), then
    # swap_cap outsider picks on [j, n - k); floor(u * span) < span for every
    # double u < 1. One flat list per block: per-step lists would outlive
    # many young-generation collections and trigger full ones.
    stride = 2 * swap_cap
    lows = np.tile(np.arange(swap_cap), 2)
    spans = np.repeat([k, n - k], swap_cap) - lows

    temp = params.t_ini
    while temp > params.t_end:
        for start in range(0, params.r, block):
            size = min(block, params.r - start)
            counts = draws.integers(1, swap_cap + 1, size).tolist()
            picks = draws.random((size, stride)) * spans
            positions = (picks.astype(np.intp) + lows).ravel().tolist()
            # accept iff u < exp(delta / T), i.e. delta > T log u, for u = 1 - random()
            # uniform on (0, 1]; T log u <= 0, so ties and gains always pass
            bars = (temp * np.log1p(-draws.random(size))).tolist()
            score.run_block(counts, positions, bars)
        score.resync()
        temp *= params.c
    return _result(pool, window, score.members, score.value, method, started)


def random_select(pool: CandidatePool, window: DemandWindow, seed: int) -> SelectionResult:
    """Uniform random size-k subset; the baseline.

    There is no internal objective to report, so the objective field mirrors
    the exact tau. Identity of the draw is fixed entirely by the seed.
    """
    started = time.perf_counter()
    _check_feasible(pool, window)
    rng = random.Random(seed)
    subset = sorted(rng.sample(range(len(pool)), window.k))
    return _result(pool, window, subset, None, "random", started)
