import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crowdselect import pbd, tmodel
from crowdselect.errors import EnumerationLimitError, TimeBudgetError
from crowdselect.pbd import DemandWindow
from crowdselect.tmodel import CandidatePool, SaParams


def pool_of(*probs) -> CandidatePool:
    return CandidatePool.from_probs(list(probs))


def brute_force_best(pool: CandidatePool, window: DemandWindow):
    """Independent oracle: enumerate subsets, score each from the brute-force PMF."""
    best_tau, best_subset = -1.0, None
    for combo in itertools.combinations(range(len(pool)), window.k):
        mass = pbd.pmf_bruteforce(pool.probs[list(combo)])
        tau = float(mass[window.theta1 : window.theta2 + 1].sum())
        if tau > best_tau + 1e-15:
            best_tau, best_subset = tau, combo
    return best_subset, best_tau


class TestCandidatePool:
    def test_from_probs_assigns_indices(self):
        pool = pool_of(0.1, 0.5)
        assert pool.ids == (0, 1)
        assert len(pool) == 2

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            CandidatePool(ids=("a", "a"), probs=np.array([0.1, 0.2]))

    def test_out_of_range_probs_rejected(self):
        with pytest.raises(ValueError):
            pool_of(0.5, 1.5)


class TestExactSelect:
    def test_three_worker_pool(self):
        result = tmodel.exact_select(pool_of(0.1, 0.5, 0.9), DemandWindow(1, 1, 2))
        assert result.subset == (0, 2)
        assert result.tau == pytest.approx(0.82, abs=1e-12)
        assert result.method == "exact"

    def test_k_equals_pool_size(self):
        pool = pool_of(0.3, 0.6, 0.8)
        result = tmodel.exact_select(pool, DemandWindow(1, 1, 3))
        assert result.subset == (0, 1, 2)

    def test_six_worker_pool_matches_independent_oracle(self):
        # six spread-out opinions; the argmax is pinned by the brute-force oracle
        pool = pool_of(0.2, 0.3, 0.4, 0.6, 0.8, 0.9)
        window = DemandWindow(theta1=1, theta0=1, k=4)
        expected_subset, expected_tau = brute_force_best(pool, window)
        result = tmodel.exact_select(pool, window)
        assert result.indices == expected_subset
        assert result.tau == pytest.approx(expected_tau, abs=1e-12)

    def test_random_pools_match_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(4, 9))
            k = int(rng.integers(2, n + 1))
            theta1 = int(rng.integers(0, k + 1))
            theta0 = int(rng.integers(0, k - theta1 + 1))
            pool = CandidatePool.from_probs(rng.uniform(0, 1, n))
            window = DemandWindow(theta1=theta1, theta0=theta0, k=k)
            subset, tau = brute_force_best(pool, window)
            result = tmodel.exact_select(pool, window)
            assert result.tau == pytest.approx(tau, abs=1e-9)

    def test_infeasible_k(self):
        with pytest.raises(ValueError):
            tmodel.exact_select(pool_of(0.5, 0.5), DemandWindow(1, 1, 3))

    def test_enumeration_guard(self):
        pool = CandidatePool.from_probs(np.full(80, 0.5))
        with pytest.raises(EnumerationLimitError):
            tmodel.exact_select(pool, DemandWindow(2, 2, 12))

    def test_time_budget(self):
        rng = np.random.default_rng(9)
        pool = CandidatePool.from_probs(rng.uniform(0, 1, 25))
        with pytest.raises(TimeBudgetError):
            tmodel.exact_select(pool, DemandWindow(3, 3, 12), time_budget_s=0.0)


class TestComboCache:
    def test_alternating_keys_reuse_arrays(self, monkeypatch):
        monkeypatch.setattr(tmodel, "_combo_cache", {})
        first = next(tmodel._index_combo_blocks(10, 4))
        second = next(tmodel._index_combo_blocks(12, 5))
        for _ in range(3):
            assert next(tmodel._index_combo_blocks(10, 4)).base is first.base
            assert next(tmodel._index_combo_blocks(12, 5)).base is second.base
        assert len(tmodel._combo_cache) == 2

    def test_evicts_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(tmodel, "_combo_cache", {})
        sizes = {key: math.comb(*key) * key[1] * 2 for key in [(10, 4), (12, 5), (11, 3)]}
        # room for the two largest entries, not for all three
        budget = sizes[(12, 5)] + sizes[(10, 4)]
        monkeypatch.setattr(tmodel, "_CACHE_BYTES", budget)
        for key in [(10, 4), (12, 5), (10, 4), (11, 3)]:
            list(tmodel._index_combo_blocks(*key))
            assert sum(a.nbytes for a in tmodel._combo_cache.values()) <= budget
        # (12, 5) was used least recently, so it made room for (11, 3)
        assert list(tmodel._combo_cache) == [(10, 4), (11, 3)]


class TestExactKnapsack:
    def test_mid_capacity(self):
        assert tmodel.exact_knapsack(2, 1.0, pool_of(0.2, 0.3, 0.4, 0.6)) == (2, 3)

    def test_infeasible_capacity(self):
        assert tmodel.exact_knapsack(2, 0.4, pool_of(0.2, 0.3, 0.4, 0.6)) is None

    def test_whole_pool(self):
        pool = pool_of(0.2, 0.3, 0.4, 0.6)
        assert tmodel.exact_knapsack(4, 2.0, pool) == (0, 1, 2, 3)
        assert tmodel.exact_knapsack(4, 1.0, pool) is None

    def test_zero_items(self):
        pool = pool_of(0.5)
        assert tmodel.exact_knapsack(0, 0.0, pool) == ()
        assert tmodel.exact_knapsack(0, -0.5, pool) is None

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            tmodel.exact_knapsack(3, 1.0, pool_of(0.5, 0.5))

    def test_size_guard(self):
        pool = CandidatePool.from_probs(np.full(60, 0.5))
        with pytest.raises(EnumerationLimitError):
            tmodel.exact_knapsack(5, 2.0, pool)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(60):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(1, n + 1))
            probs = rng.uniform(0, 1, n)
            pool = CandidatePool(ids=tuple(range(n)), probs=probs)
            cap = float(rng.uniform(0, n))
            got = tmodel.exact_knapsack(k, cap, pool)
            feasible = [
                float(probs[list(c)].sum())
                for c in itertools.combinations(range(n), k)
                if probs[list(c)].sum() <= cap
            ]
            if got is None:
                assert not feasible
            else:
                total = float(probs[list(got)].sum())
                assert total <= cap + 1e-12
                assert total == pytest.approx(max(feasible), abs=1e-9)


# tolerance for rounding in subset masses near the capacity
KNAPSACK_TOL = 1e-12

knapsack_probs = st.one_of(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12),
    st.lists(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.9, 1.0]), min_size=1, max_size=12),
)


def subset_masses(probs, k):
    return [math.fsum(probs[i] for i in c) for c in itertools.combinations(range(len(probs)), k)]


def check_knapsack_side(mass, masses, capacity):
    """mass is the heaviest of `masses` within capacity, or None when none fits.

    Masses within KNAPSACK_TOL of the capacity may count on either side.
    """
    fits = [m for m in masses if m <= capacity - KNAPSACK_TOL]
    if mass is None:
        assert not fits
    else:
        assert mass <= capacity + KNAPSACK_TOL
        assert mass >= max(fits, default=-math.inf) - KNAPSACK_TOL


@st.composite
def knapsack_cases(draw):
    probs = draw(knapsack_probs)
    k = draw(st.integers(min_value=0, max_value=len(probs)))
    sums = subset_masses(probs, k)
    capacity = draw(st.one_of(
        st.floats(min_value=-0.5, max_value=len(probs) + 0.5),
        st.sampled_from(sums),  # a capacity on a subset mass: the tie boundary
    ))
    return probs, k, capacity


class TestKnapsackProperties:
    """exact_knapsack and both sides of the Poisson/Binomial pipeline against brute force."""

    @given(knapsack_cases())
    # budgets capacity - heavy that round below every pairing
    @example(case=([0.0, 0.0, 0.0, 0.1, 0.1, 0.3, 0.3, 0.3], 6, 0.5))
    @example(case=([1.0, 0.7, 0.2], 2, 1.9 - 1.0))
    @example(case=([0.2, 0.8, 0.1, 0.9, 0.3, 0.3, 0.4], 7, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_exact_knapsack_matches_brute_force(self, case):
        probs, k, capacity = case
        got = tmodel.exact_knapsack(k, capacity, CandidatePool.from_probs(probs))
        if got is not None:
            assert len(got) == len(set(got)) == k
        mass = None if got is None else math.fsum(probs[i] for i in got)
        check_knapsack_side(mass, subset_masses(probs, k), capacity)

    @given(knapsack_cases())
    # budgets capacity - heavy that round below every pairing
    @example(case=([0.0, 0.0, 0.0, 0.1, 0.1, 0.3, 0.3, 0.3], 6, 0.5))
    @example(case=([1.0, 0.7, 0.2], 2, 1.9 - 1.0))
    @example(case=([0.2, 0.8, 0.1, 0.9, 0.3, 0.3, 0.4], 7, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_two_sided_knapsack_matches_brute_force(self, case):
        probs, k, capacity = case
        assume(k >= 1)
        pool = CandidatePool.from_probs(probs)
        scored = []
        result = tmodel._two_sided_knapsack(
            pool, DemandWindow(0, 0, k), capacity, lambda m: scored.append(m) or m, "test"
        )
        masses = subset_masses(probs, k)
        assert len(result.indices) == k
        assert math.fsum(probs[i] for i in result.indices) == pytest.approx(max(scored), abs=1e-12)
        # below: the heaviest k-subset within capacity; above: the lightest
        # k-subset at or over it, the complement of the heaviest (n - k)-subset
        # within the rest of the mass. A missing side is not scored.
        below_needed = any(m <= capacity - KNAPSACK_TOL for m in masses)
        above_needed = any(m >= capacity + KNAPSACK_TOL for m in masses)
        if len(scored) == 2:
            below, above = scored
        else:
            # one side: the needed one, or either when every mass is within the tolerance
            assert not (below_needed and above_needed)
            on_below = below_needed or (not above_needed and scored[0] <= capacity)
            below, above = (scored[0], None) if on_below else (None, scored[0])
        check_knapsack_side(below, masses, capacity)
        check_knapsack_side(None if above is None else -above, [-m for m in masses], -capacity)

    def test_solver_builds_each_half_table_once(self, monkeypatch):
        built = []

        def counting(weights):
            built.append(weights.size)
            return build(weights)

        build = tmodel._subset_sum_tables
        monkeypatch.setattr(tmodel, "_subset_sum_tables", counting)
        pool = CandidatePool.from_probs(np.random.default_rng(12).uniform(0, 1, 17))
        window = DemandWindow(theta1=2, theta0=2, k=6)
        tmodel.select_poisson(pool, window)
        assert sorted(built) == [8, 9]
        built.clear()
        tmodel.select_binomial(pool, window)
        assert sorted(built) == [8, 9]


    @pytest.mark.parametrize("half", range(1, 20))
    def test_table_sums_add_in_index_order(self, half):
        # round probabilities share masses, and the last bit of a sum decides
        # which subset a query returns, so each sum must be the same float on
        # every platform: its members added one by one in index order
        rng = np.random.default_rng(half)
        weights = np.sort(np.round(rng.uniform(0, 1, half), int(rng.integers(1, 3))))
        tables = tmodel._subset_sum_tables(weights)
        assert sorted(tables) == list(range(half + 1))
        entries = [
            (size, float(total), int(code))
            for size, (sums, codes) in tables.items()
            for total, code in zip(sums, codes)
        ]
        assert sorted(code for _, _, code in entries) == list(range(1 << half))
        if half > 14:
            entries = random.Random(half).sample(entries, 3000)
        for size, total, code in entries:
            members = [float(weights[j]) for j in range(half) if code >> j & 1]
            expected = 0.0
            for weight in members:
                expected += weight
            assert len(members) == size
            assert total.hex() == expected.hex()


def traced_peak_mb(call) -> float:
    """Peak of memory traced by tracemalloc (numpy arrays included) during call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestWorkMemory:
    """Work arrays stay near _WORK_ENTRIES entries, whatever the enumeration size."""

    def test_exact_select_peak(self):
        pool = CandidatePool.from_probs(np.random.default_rng(20).uniform(0, 1, 20))
        window = DemandWindow(theta1=3, theta0=3, k=10)
        tmodel.exact_select(pool, window)  # the cached combinations are not work memory
        assert traced_peak_mb(lambda: tmodel.exact_select(pool, window)) <= 8

    def test_knapsack_solver_peak(self):
        # half-pools of 19 workers: 2^19 subset sums per table
        pool = CandidatePool.from_probs(np.random.default_rng(38).uniform(0, 1, 38))
        window = DemandWindow(theta1=4, theta0=4, k=13)
        assert traced_peak_mb(lambda: tmodel.select_poisson(pool, window)) <= 32


class TestSelectPoisson:
    @pytest.mark.parametrize("solver", [tmodel.select_poisson, tmodel.select_binomial])
    @pytest.mark.parametrize(
        "probs,window,expected",
        [
            # capacity 1 leaves 1.9 - 1 = 0.8999999999999999 for the complement,
            # which 0.2 + 0.7 fills to the last bit
            ((1.0, 0.7, 0.2), DemandWindow(theta1=1, theta0=0, k=1), (0,)),
            # the whole pool weighs 3 in one summation order and not in another,
            # so by rounding neither side of capacity 3 holds a k-subset
            ((0.2, 0.8, 0.1, 0.9, 0.3, 0.3, 0.4), DemandWindow(theta1=3, theta0=4, k=7),
             tuple(range(7))),
        ],
        ids=["complement", "whole-pool"],
    )
    def test_subset_mass_on_the_capacity(self, solver, probs, window, expected):
        assert solver(pool_of(*probs), window).indices == expected

    def test_small_pool_example(self):
        pool = pool_of(0.1, 0.5, 0.9)
        result = tmodel.select_poisson(pool, DemandWindow(theta1=1, theta0=0, k=2))
        assert result.subset == (1, 2)
        assert result.tau == pytest.approx(0.95, abs=1e-12)
        # here the approximation lands on the global optimum
        exact = tmodel.exact_select(pool, DemandWindow(theta1=1, theta0=0, k=2))
        assert result.tau == pytest.approx(exact.tau, abs=1e-12)

    def test_identical_probabilities(self):
        pool = CandidatePool.from_probs(np.full(6, 0.5))
        window = DemandWindow(theta1=1, theta0=1, k=3)
        result = tmodel.select_poisson(pool, window)
        exact = tmodel.exact_select(pool, window)
        assert len(result.subset) == 3
        assert result.tau == pytest.approx(exact.tau, abs=1e-12)

    def test_degenerate_window(self):
        pool = pool_of(0.1, 0.4, 0.5, 0.9)
        result = tmodel.select_poisson(pool, DemandWindow(theta1=1, theta0=1, k=2))
        assert len(result.subset) == 2
        assert 0.0 <= result.tau <= 1.0

    def test_knapsack_optimality_brackets_peak(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(4, 12))
            k = int(rng.integers(2, n + 1))
            theta1 = int(rng.integers(0, k))
            theta0 = int(rng.integers(0, k - theta1))
            window = DemandWindow(theta1=theta1, theta0=theta0, k=k)
            if window.width == 0:
                continue
            pool = CandidatePool.from_probs(rng.uniform(0, 1, n))
            peak = pbd.poisson_window_peak(window)
            result = tmodel.select_poisson(pool, window)
            chosen = float(pool.probs[list(result.indices)].sum())
            sums = [
                float(pool.probs[list(c)].sum())
                for c in itertools.combinations(range(n), k)
            ]
            if chosen <= peak:
                assert not any(chosen + 1e-9 < s <= peak for s in sums)
            else:
                assert not any(peak <= s < chosen - 1e-9 for s in sums)

    def test_beats_random_on_average(self):
        rng = np.random.default_rng(1234)
        window = DemandWindow(theta1=3, theta0=3, k=10)
        poisson_taus, random_taus = [], []
        for trial in range(100):
            pool = CandidatePool.from_probs(rng.uniform(0, 1, 30))
            poisson_taus.append(tmodel.select_poisson(pool, window).tau)
            random_taus.append(tmodel.random_select(pool, window, seed=trial).tau)
        assert np.mean(poisson_taus) >= np.mean(random_taus)


class TestSelectBinomial:
    def test_small_pool_example(self):
        # the peak formula degenerates to p*=1, so the capacity is the full k
        pool = pool_of(0.1, 0.5, 0.9)
        result = tmodel.select_binomial(pool, DemandWindow(theta1=1, theta0=0, k=2))
        assert result.subset == (1, 2)
        assert result.tau == pytest.approx(0.95, abs=1e-12)

    def test_identical_probabilities(self):
        pool = CandidatePool.from_probs(np.full(5, 0.4))
        window = DemandWindow(theta1=1, theta0=1, k=3)
        result = tmodel.select_binomial(pool, window)
        exact = tmodel.exact_select(pool, window)
        assert result.tau == pytest.approx(exact.tau, abs=1e-12)

    def test_degenerate_window(self):
        pool = pool_of(0.2, 0.3, 0.8)
        result = tmodel.select_binomial(pool, DemandWindow(theta1=1, theta0=1, k=2))
        assert len(result.subset) == 2

    def test_tracks_poisson_solver(self):
        rng = np.random.default_rng(77)
        window = DemandWindow(theta1=5, theta0=5, k=15)
        binom_taus, poisson_taus = [], []
        for _ in range(100):
            pool = CandidatePool.from_probs(rng.uniform(0, 1, 30))
            binom_taus.append(tmodel.select_binomial(pool, window).tau)
            poisson_taus.append(tmodel.select_poisson(pool, window).tau)
        assert abs(np.mean(binom_taus) - np.mean(poisson_taus)) <= 0.05


class TestSaSelect:
    def test_pool_equals_k(self):
        pool = pool_of(0.2, 0.7)
        result = tmodel.sa_select(pool, DemandWindow(1, 1, 2), params=SaParams(seed=5))
        assert result.subset == (0, 1)

    def test_finds_optimum_in_tiny_space(self):
        pool = pool_of(0.1, 0.5, 0.9)
        result = tmodel.sa_select(
            pool, DemandWindow(1, 1, 2), objective="dftcf", params=SaParams(seed=3)
        )
        assert result.subset == (0, 2)
        assert result.tau == pytest.approx(0.82, abs=1e-12)

    def test_normal_objective_runs(self):
        rng = np.random.default_rng(5)
        pool = CandidatePool.from_probs(rng.uniform(0, 1, 12))
        result = tmodel.sa_select(
            pool,
            DemandWindow(2, 2, 6),
            objective="normal",
            params=SaParams(r=50, seed=1),
        )
        assert len(result.subset) == 6
        assert 0.0 <= result.tau <= 1.0

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(8)
        pool = CandidatePool.from_probs(rng.uniform(0, 1, 15))
        window = DemandWindow(2, 2, 6)
        params = SaParams(r=100, seed=99)
        first = tmodel.sa_select(pool, window, objective="dftcf", params=params)
        second = tmodel.sa_select(pool, window, objective="dftcf", params=params)
        assert first.subset == second.subset
        assert first.objective == second.objective

    def test_no_op_schedule_returns_initial_subset(self):
        rng = np.random.default_rng(21)
        pool = CandidatePool.from_probs(rng.uniform(0, 1, 10))
        params = SaParams(t_ini=1.0 + 1e-9, t_end=1.0, r=0, seed=17)
        result = tmodel.sa_select(pool, DemandWindow(1, 1, 4), params=params)
        expected = tuple(sorted(random.Random(17).sample(range(10), 4)))
        assert result.indices == expected

    def test_swap_cap_clamped_when_pool_barely_larger(self):
        pool = pool_of(0.2, 0.5, 0.8)
        result = tmodel.sa_select(
            pool, DemandWindow(1, 1, 2), params=SaParams(r=20, seed=2)
        )
        assert len(result.subset) == 2

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="objective"):
            tmodel.sa_select(pool_of(0.2, 0.5, 0.8), DemandWindow(1, 1, 2), objective="exact")

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            SaParams(t_ini=0.5, t_end=1.0)
        with pytest.raises(ValueError):
            SaParams(c=1.0)
        with pytest.raises(ValueError):
            SaParams(r=-1)
        with pytest.raises(ValueError, match="integer"):
            SaParams(r=1.5)

    def test_paper_defaults(self):
        params = SaParams()
        assert (params.t_ini, params.t_end, params.r, params.c) == (1.0, 1e-4, 1000, 0.9)


def from_scratch_score(objective: str, probs, subset, window: DemandWindow) -> float:
    """Reference objective of one subset, evaluated without any incremental state."""
    members = [probs[i] for i in subset]
    if objective == "dftcf":
        return pbd.window_prob(members, window)
    mean = sum(members)
    stddev = math.sqrt(sum(p * (1.0 - p) for p in members))
    return pbd.normal_window_raw(mean, stddev, window)


class TestSwapScore:
    """The incremental annealing scores agree with a from-scratch evaluation."""

    POOLS = {
        # pair-ratio table, even k
        "uniform": (np.random.default_rng(41).uniform(0, 1, 25).tolist(), 10),
        # p = 1/2 with odd k zeroes the Nyquist factor: from-scratch fallback
        "nyquist": ([0.0, 0.5, 1.0, 0.5, 0.2, 0.9, 0.5, 0.0, 1.0, 0.35, 0.65, 0.5, 0.1, 0.8], 7),
        "extremes": ([0.0, 0.5, 1.0] * 5, 5),
        # too large for the pair table: factor and reciprocal per swap
        "large": (
            np.random.default_rng(43).choice([0.0, 0.5, 1.0, 0.3, 0.7, 0.05], 120).tolist(),
            21,
        ),
    }

    @pytest.mark.parametrize("objective", ["dftcf", "normal"])
    @pytest.mark.parametrize("pool_name", sorted(POOLS))
    def test_random_swap_sequences_track_from_scratch(self, objective, pool_name):
        probs, k = self.POOLS[pool_name]
        n = len(probs)
        window = DemandWindow(theta1=k // 3, theta0=k // 4, k=k)

        def gap(value, subset):
            return abs(value - from_scratch_score(objective, probs, subset, window))

        rng = random.Random(f"{objective}-{pool_name}")
        score = tmodel._SWAP_SCORES[objective](probs, window, rng.sample(range(n), k))
        members = set(score.members)
        assert gap(score.value, members) <= 1e-12
        cap = score.swap_cap
        for step in range(400):
            swaps = rng.randint(1, cap)
            positions = [rng.randrange(j, k) for j in range(cap)]
            positions += [rng.randrange(j, n - k) for j in range(cap)]
            value = score.try_swap(swaps, positions, 0)
            assert set(score.members) == members  # trying leaves the subset as it was
            outgoing, incoming = score.members[:swaps], score.outsiders[:swaps]
            candidate = (members - set(outgoing)) | set(incoming)
            assert gap(value, candidate) <= 1e-12
            if rng.random() < 0.5:
                score.accept()
                members = candidate
            assert set(score.members) == members
            assert set(score.outsiders) == set(range(n)) - members
            assert gap(score.value, members) <= 1e-12
            if step % 100 == 99:
                score.resync()
                assert gap(score.value, members) <= 1e-12

    def test_underflowed_nyquist_term_recovers(self):
        # 25 members at p = 1/2 drive the Nyquist product below the smallest
        # double; swapping them out one by one must restore it
        self.check_nyquist_recovery([0.5] * 25 + [0.05, 0.95] * 12 + [0.05], pairs=True)

    def test_underflowed_nyquist_term_recovers_on_large_pool(self):
        # 30 more outsiders put the pool past the pair table: the numpy path
        self.check_nyquist_recovery([0.5] * 25 + [0.05, 0.95] * 12 + [0.05] + [0.3] * 30, pairs=False)

    @staticmethod
    def check_nyquist_recovery(probs, pairs):
        window = DemandWindow(theta1=3, theta0=12, k=25)
        score = tmodel._DftcfScore(probs, window, range(25))
        assert (score._pairs is not None) == pairs
        padding = [0] * (score.swap_cap - 1)
        for half, other in zip(range(25), range(25, 50)):
            positions = [score.members.index(half), *padding]
            positions += [score.outsiders.index(other), *padding]
            value = score.try_swap(1, positions, 0)
            score.accept()
            assert abs(value - from_scratch_score("dftcf", probs, score.members, window)) <= 1e-12

    def test_zero_factor_only_at_half_with_odd_k(self):
        probs, k = self.POOLS["nyquist"]
        halves = {i for i, p in enumerate(probs) if p == 0.5}
        odd = tmodel._DftcfScore(probs, DemandWindow(1, 1, k), range(k))
        even = tmodel._DftcfScore(probs, DemandWindow(1, 1, k + 1), range(k + 1))
        assert odd._singular == halves
        assert even._singular == set()

    def test_pair_table_only_for_small_pools(self):
        for name, has_table in (("uniform", True), ("large", False)):
            probs, k = self.POOLS[name]
            score = tmodel._DftcfScore(probs, DemandWindow(1, 1, k), range(k))
            assert (score._pairs is not None) == has_table


class TestRandomSelect:
    def test_full_pool(self):
        pool = pool_of(0.2, 0.8)
        result = tmodel.random_select(pool, DemandWindow(1, 1, 2), seed=0)
        assert result.subset == (0, 1)

    def test_deterministic(self):
        rng = np.random.default_rng(31)
        pool = CandidatePool.from_probs(rng.uniform(0, 1, 12))
        window = DemandWindow(1, 1, 5)
        assert (
            tmodel.random_select(pool, window, seed=7).subset
            == tmodel.random_select(pool, window, seed=7).subset
        )

    def test_uniform_over_subsets(self):
        pool = CandidatePool.from_probs(np.linspace(0.05, 0.95, 10))
        window = DemandWindow(1, 1, 3)
        counts = {}
        draws = 1000
        for seed in range(draws):
            subset = tmodel.random_select(pool, window, seed=seed).indices
            counts[subset] = counts.get(subset, 0) + 1
        n_subsets = math.comb(10, 3)
        expected = draws / n_subsets
        sigma = math.sqrt(draws * (1 / n_subsets) * (1 - 1 / n_subsets))
        worst = max(abs(c - expected) for c in counts.values())
        assert len(counts) <= n_subsets
        assert worst <= 4 * sigma


class TestResultInvariants:
    def test_all_solvers_dominated_by_exact(self):
        rng = np.random.default_rng(2024)
        for trial in range(12):
            pool = CandidatePool.from_probs(rng.uniform(0, 1, 10))
            theta1 = int(rng.integers(0, 3))
            theta0 = int(rng.integers(0, 3))
            window = DemandWindow(theta1=theta1, theta0=theta0, k=4)
            exact = tmodel.exact_select(pool, window)
            solvers = [
                tmodel.select_poisson(pool, window),
                tmodel.select_binomial(pool, window),
                tmodel.sa_select(pool, window, "dftcf", SaParams(r=40, seed=trial)),
                tmodel.sa_select(pool, window, "normal", SaParams(r=40, seed=trial)),
                tmodel.random_select(pool, window, seed=trial),
            ]
            for result in solvers:
                assert len(result.subset) == window.k
                assert result.tau <= exact.tau + 1e-12
                recomputed = pbd.window_prob(pool.probs[list(result.indices)], window)
                assert result.tau == recomputed

    def test_wall_time_positive(self):
        pool = pool_of(0.2, 0.5, 0.9)
        result = tmodel.exact_select(pool, DemandWindow(1, 1, 2))
        assert result.wall_time > 0.0

    def test_exact_select_invariant_under_pool_permutation(self):
        rng = np.random.default_rng(404)
        window = DemandWindow(1, 1, 4)
        for _ in range(5):
            probs = rng.uniform(0.05, 0.95, 9)
            pool = CandidatePool(ids=tuple(f"w{i}" for i in range(9)), probs=probs)
            perm = rng.permutation(9)
            shuffled = CandidatePool(
                ids=tuple(f"w{i}" for i in perm), probs=probs[perm]
            )
            original = tmodel.exact_select(pool, window)
            permuted = tmodel.exact_select(shuffled, window)
            assert set(original.subset) == set(permuted.subset)
            assert original.tau == pytest.approx(permuted.tau, abs=1e-12)


class TestInvariantChecks:
    """Broken internal invariants raise RuntimeError, also under python -O."""

    def test_exact_select_without_comparable_tau(self, monkeypatch):
        monkeypatch.setattr(
            pbd.WindowKernel, "tau_many", lambda self, rows: np.full(len(rows), np.nan)
        )
        with pytest.raises(RuntimeError, match="window probability"):
            tmodel.exact_select(pool_of(0.2, 0.5, 0.9), DemandWindow(1, 1, 2))

    def test_knapsack_without_feasible_pairing(self, monkeypatch):
        def overflowing_tables(weights):
            return {
                size: (np.full(1, np.inf), np.zeros(1, dtype=np.uint32))
                for size in range(weights.size + 1)
            }

        monkeypatch.setattr(tmodel, "_subset_sum_tables", overflowing_tables)
        with pytest.raises(RuntimeError, match="feasible pairing"):
            tmodel.exact_knapsack(2, 0.9, pool_of(0.2, 0.3, 0.4, 0.6))

    @pytest.mark.parametrize("solver", [tmodel.select_poisson, tmodel.select_binomial])
    def test_knapsack_solver_without_either_side(self, monkeypatch, solver):
        monkeypatch.setattr(tmodel._Knapsack, "best", lambda self, k, capacity: None)
        with pytest.raises(RuntimeError, match="feasible k-subset"):
            solver(pool_of(0.2, 0.3, 0.4, 0.6), DemandWindow(1, 1, 2))
