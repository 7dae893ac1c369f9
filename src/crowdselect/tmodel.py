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
import time
from dataclasses import dataclass, field
from operator import mul
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
        if not self.t_ini > self.t_end > 0.0:
            raise ValueError("need t_ini > t_end > 0")
        if not isinstance(self.r, (int, np.integer)) or self.r < 0:
            raise ValueError(f"sweep count r must be a non-negative integer, got {self.r!r}")
        if not 0.0 < self.c < 1.0:
            raise ValueError("cooling ratio c must lie in (0, 1)")


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
# this many, 1 MB as complex values.
_WORK_ENTRIES = 1 << 16
# Memory the cached enumerations may hold together.
_CACHE_BYTES = 64 << 20
# least recently used first; the arrays together stay within _CACHE_BYTES
_combo_cache: dict[tuple[int, int], np.ndarray] = {}


def _index_combo_blocks(n: int, k: int) -> Iterator[np.ndarray]:
    """Yield (m, k) index arrays covering all combinations in lexicographic order.

    Each block holds about _WORK_ENTRIES indices. Small enumerations are
    materialized once and cached, because benchmark loops re-enumerate the
    same few (n, k) for every trial, often alternating between them. The cache
    holds several entries within _CACHE_BYTES in total and evicts the least
    recently used.
    """
    key = (n, k)
    rows = max(1, _WORK_ENTRIES // k)
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
                block = list(itertools.islice(source, rows))
                if not block:
                    return
                yield np.asarray(block, dtype=np.int16)
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
    each block of about _WORK_ENTRIES indices.
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


# Exact knapsack enumerates 2**ceil(n/2) half-pool subsets; beyond this the
# tables no longer fit comfortably in memory.
KNAPSACK_LIMIT = 44

# Slack between masses summed in different orders; sums of at most
# KNAPSACK_LIMIT probabilities differ by far less.
_MASS_ROUNDING = 1e-9


def _subset_sum_tables(
    weights: np.ndarray,
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Per-size subset sums of one half-pool: size -> (sorted sums, matching bitmasks).

    Bit j of a code selects weights[j]. Both tables fill by doubling: the
    codes with bit j set are those below 2^j plus weights[j], so every sum
    adds its members in index order, one IEEE addition per member, and is
    the same on every platform. On pools of round probabilities many subsets
    share a mass, and the last bit of a sum decides which of them a knapsack
    query returns. One stable sort by (size, sum) splits the codes into the
    per-size tables, ties in code order.
    """
    m = weights.size
    sums = np.zeros(1 << m)
    sizes = np.zeros(1 << m, dtype=np.int8)
    for j, weight in enumerate(weights):
        low, high = 1 << j, 2 << j
        np.add(sums[:low], weight, out=sums[low:high])
        np.add(sizes[:low], 1, out=sizes[low:high])
    order = np.argsort(sums, kind="stable")
    order = order[np.argsort(sizes[order], kind="stable")]
    sorted_sums, sorted_codes = sums[order], order.astype(np.uint32)
    bounds = np.cumsum([0] + [math.comb(m, size) for size in range(m + 1)])
    return {
        size: (sorted_sums[lo:hi], sorted_codes[lo:hi])
        for size, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
    }


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
    """k-item knapsack queries over one pool, sharing its half-pool tables.

    The pool is sorted ascending by probability once and split into a light
    and a heavy half. The per-size subset-sum tables of both halves
    (_subset_sum_tables) are built on the first query that needs them and
    answer every later query, of any size and capacity: the Poisson and
    Binomial solvers ask for k items under the peak capacity and for n - k
    items under the rest of the mass, and build each table once.
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
        self._tables = None

    def lightest(self, k: int) -> tuple[tuple[int, ...], float]:
        """Pool indices of the k lightest workers, and their mass."""
        return tuple(sorted(int(i) for i in self._order[:k])), float(self._prefix[k])

    def best(self, k: int, capacity: float) -> tuple[int, ...] | None:
        """Pool indices of the heaviest size-k subset within capacity, or None."""
        order, prefix, half = self._order, self._prefix, self._half
        n = order.size
        if prefix[k] > capacity:  # even the lightest selection overflows
            return None
        if float(prefix[n] - prefix[n - k]) <= capacity:  # the heaviest selection fits
            return tuple(sorted(int(order[i]) for i in range(n - k, n)))
        if self._tables is None:
            self._tables = (
                _subset_sum_tables(self._weights[:half]),
                _subset_sum_tables(self._weights[half:]),
            )
        light, heavy = self._tables
        best_value = -math.inf
        best_light = best_heavy = 0
        for heavy_size, (heavy_sums, heavy_codes) in heavy.items():
            light_size = k - heavy_size
            if light_size < 0 or light_size > half:
                continue
            light_sums, light_codes = light[light_size]
            budgets = capacity - heavy_sums
            pos = np.searchsorted(light_sums, budgets, side="right") - 1
            valid = pos >= 0
            if not valid.any():
                continue
            values = np.where(valid, light_sums[np.maximum(pos, 0)] + heavy_sums, -np.inf)
            top = int(np.argmax(values))
            if values[top] > best_value:
                best_value = float(values[top])
                best_light = int(light_codes[pos[top]])
                best_heavy = int(heavy_codes[top])
        if best_value == -math.inf:
            # rounding in the budgets capacity - heavy rejects every pairing only
            # when each k-subset weighs the capacity to within rounding; the k
            # lightest, which fit by the first check, are then the answer
            light_size = min(k, half)
            lightest = light[light_size][0][0] + heavy[k - light_size][0][0]
            if not lightest <= capacity + _MASS_ROUNDING:
                raise RuntimeError("minimal-load check guarantees a feasible pairing")
            return self.lightest(k)[0]
        chosen = _code_to_indices(best_light, 0) + _code_to_indices(best_heavy, half)
        return tuple(sorted(int(order[i]) for i in chosen))


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
    the pool and combines per-size subset-sum tables of the two halves, which
    is exact in O(2^(n/2)) time and space. One call builds both tables; the
    Poisson and Binomial solvers query one _Knapsack twice instead.
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
    share one _Knapsack, so each half-pool table is built once per solve.
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


def _poisson_pmf_at(i: int, rate: float) -> float:
    if rate == 0.0:
        return 1.0 if i == 0 else 0.0
    return math.exp(i * math.log(rate) - math.lgamma(i + 1) - rate)


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
        score = lambda mass: _poisson_pmf_at(window.theta1, mass)
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
_PAIR_TABLE_LIMIT = 1 << 16


class _SwapScore:
    """Annealing state: a k-subset of range(n) and its objective, kept under member swaps.

    The subset lives in two index lists, members and outsiders. A move
    exchanges `swaps` members for as many outsiders, picked by a partial
    Fisher-Yates shuffle of each list's front: for j < swaps,
    positions[start + j] lies in [j, k) and positions[start + swap_cap + j]
    in [j, n - k). try_swap moves the picks to the fronts, scores the move in
    O(swaps) and leaves the subset as it was; accept adopts the last move
    tried by exchanging the two fronts. resync recomputes the score from
    scratch, discarding the rounding that incremental updates accumulate.
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

    def accept(self) -> None:
        swaps, self._state, self.value = self._pending
        members, outsiders = self.members, self.outsiders
        members[:swaps], outsiders[:swaps] = outsiders[:swaps], members[:swaps]


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
        return pbd.normal_window_raw(mean, math.sqrt(max(var, 0.0)), self._window)

    def try_swap(self, swaps: int, positions: Sequence[int], start: int) -> float:
        members, outsiders = self.members, self.outsiders
        probs, var_terms = self._probs, self._var_terms
        mean, var = self._state
        middle = start + self.swap_cap
        for j in range(swaps):
            a, b = positions[start + j], positions[middle + j]
            members[j], members[a] = members[a], members[j]
            outsiders[j], outsiders[b] = outsiders[b], outsiders[j]
            o, i = members[j], outsiders[j]
            mean += probs[i] - probs[o]
            var += var_terms[i] - var_terms[o]
        state = mean, var
        value = self._value(state)
        self._pending = swaps, state, value
        return value


class _DftcfScore(_SwapScore):
    """Exact window probability over incrementally kept characteristic-function terms.

    The state holds, per frequency l of WindowKernel.half_terms, its weight
    times z_l, the product over members of 1 - p (1 - w_l); the score is the
    real part of their sum plus WindowKernel.w0, clamped to [0, 1]. A swap
    multiplies in the incoming factors and divides out the outgoing ones, in
    one of two ways:

    - n^2 L <= _PAIR_TABLE_LIMIT (n workers, L frequencies): the terms are a
      Python list, and each swapped pair multiplies it by a precomputed row
      of incoming factor over outgoing factor. Python lists beat numpy calls
      at these sizes: about 3.7 us against 5.5 us per annealing step at
      n = 20, k = 10.
    - larger pools: the terms are a numpy vector, and a (2n, L) table stacks
      the factor rows on the reciprocal rows. try_swap takes the 2 x swaps
      rows of the move, multiplies them down to one ratio vector and scores
      the move with one dot product against the terms, O(swaps L) in three
      numpy calls; accept multiplies the ratio in.

    A factor vanishes only at p = 1/2 on the Nyquist frequency (k odd); the
    rounded root leaves a residue near 1e-16 there, whose powers underflow
    once enough such workers are members, so a swap that removes one
    rebuilds the terms from scratch instead of dividing, on either path.
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
        self._inverses = [
            None if i in self._singular else [1.0 / f for f in row]
            for i, row in enumerate(self._factors)
        ]
        n = len(self._factors)
        self._pairs = None
        if n * n * len(self._weights) <= _PAIR_TABLE_LIMIT:
            self._pairs = [
                None if inverse is None else [list(map(mul, row, inverse)) for row in self._factors]
                for inverse in self._inverses
            ]
        else:
            # a singular worker's reciprocal row is never read: removing it rebuilds
            nan_row = [math.nan] * len(self._weights)
            self._table = np.array(
                self._factors + [nan_row if row is None else row for row in self._inverses]
            )
            # chosen once per instance, so the pair-table step pays no branch
            self.try_swap, self.accept = self._try_swap_table, self._accept_ratio
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

    def try_swap(self, swaps: int, positions: Sequence[int], start: int) -> float:
        members, outsiders, pairs = self.members, self.outsiders, self._pairs
        middle = start + self.swap_cap
        singular = self._singular
        rebuild = False
        # chain lazy element-wise products and build one list at the end
        terms = self._state
        for j in range(swaps):
            a, b = positions[start + j], positions[middle + j]
            members[j], members[a] = members[a], members[j]
            outsiders[j], outsiders[b] = outsiders[b], outsiders[j]
            o, i = members[j], outsiders[j]
            if o in singular:
                rebuild = True
            else:
                terms = map(mul, terms, pairs[o][i])
        if rebuild:
            terms = self._from_scratch(outsiders[:swaps] + members[swaps:])
        else:
            terms = [*terms]
        value = self._value(terms)
        self._pending = swaps, terms, value
        return value

    def _try_swap_table(self, swaps: int, positions: Sequence[int], start: int) -> float:
        members, outsiders = self.members, self.outsiders
        middle = start + self.swap_cap
        n = len(self._factors)
        rows = []
        for j in range(swaps):
            a, b = positions[start + j], positions[middle + j]
            members[j], members[a] = members[a], members[j]
            outsiders[j], outsiders[b] = outsiders[b], outsiders[j]
            rows += (outsiders[j], n + members[j])
        if self._singular.isdisjoint(members[:swaps]):
            ratio = np.multiply.reduce(self._table.take(rows, axis=0))
            value = self._w0 + float(self._state.dot(ratio).real)
            value = 1.0 if value > 1.0 else value if value > 0.0 else 0.0
            self._pending = swaps, ratio, None, value
        else:
            terms = self._from_scratch(outsiders[:swaps] + members[swaps:])
            value = self._value(terms)
            self._pending = swaps, None, terms, value
        return value

    def _accept_ratio(self) -> None:
        swaps, ratio, terms, self.value = self._pending
        self._state = self._state * ratio if terms is None else terms
        members, outsiders = self.members, self.outsiders
        members[:swaps], outsiders[:swaps] = outsiders[:swaps], members[:swaps]


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
    no exponential is evaluated per step. The initial subset is
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
    try_swap, accept = score.try_swap, score.accept
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
        current_score = score.value
        for start in range(0, params.r, block):
            size = min(block, params.r - start)
            counts = draws.integers(1, swap_cap + 1, size).tolist()
            picks = draws.random((size, stride)) * spans
            positions = (picks.astype(np.intp) + lows).ravel().tolist()
            # accept iff u < exp(delta / T), i.e. delta > T log u, for u = 1 - random()
            # uniform on (0, 1]; T log u <= 0, so ties and gains always pass
            bars = (temp * np.log1p(-draws.random(size))).tolist()
            for swaps, offset, bar in zip(counts, range(0, size * stride, stride), bars):
                candidate_score = try_swap(swaps, positions, offset)
                if candidate_score - current_score >= bar:
                    accept()
                    current_score = candidate_score
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
