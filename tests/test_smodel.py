import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crowdselect import smodel
from crowdselect.errors import EnumerationLimitError, TimeBudgetError


def make_matrix(pair_values: dict[tuple[int, int], float], n: int) -> np.ndarray:
    sim = np.zeros((n, n))
    for (i, j), v in pair_values.items():
        sim[i, j] = sim[j, i] = v
    return sim


# Six workers A..F with similarities on a 0.1 grid; {A, D, E} is the unique
# k=3 diversity optimum (pair sum 1.3, Div -0.4333), handy as a worked case.
SIX_WORKERS = make_matrix(
    {
        (0, 1): 0.5, (0, 2): 0.6, (0, 3): 0.7, (0, 4): 0.2, (0, 5): 0.9,
        (1, 2): 0.3, (1, 3): 0.9, (1, 4): 0.7, (1, 5): 0.8,
        (2, 3): 0.6, (2, 4): 0.8, (2, 5): 0.7,
        (3, 4): 0.4, (3, 5): 0.9,
        (4, 5): 0.6,
    },
    6,
)


def random_symmetric(rng: np.random.Generator, n: int, low=-1.0, high=1.0) -> np.ndarray:
    draws = rng.uniform(low, high, size=(n, n))
    sim = np.triu(draws, 1)
    return sim + sim.T


class TestDiversity:
    def test_single_pair(self):
        sim = make_matrix({(0, 1): 0.6}, 2)
        assert smodel.diversity([0, 1], sim) == pytest.approx(-0.3)

    def test_singleton_crowd(self):
        assert smodel.diversity([0], SIX_WORKERS) == 0.0

    def test_six_worker_optimum_value(self):
        # crowd {A, D, E}: pair sum 0.7 + 0.2 + 0.4 = 1.3
        assert smodel.diversity([0, 3, 4], SIX_WORKERS) == pytest.approx(-1.3 / 3)
        assert smodel.diversity([0, 3, 4], SIX_WORKERS) == pytest.approx(-0.433, abs=5e-4)

    def test_empty_crowd_rejected(self):
        with pytest.raises(ValueError):
            smodel.diversity([], SIX_WORKERS)

    def test_duplicate_members_rejected(self):
        with pytest.raises(ValueError):
            smodel.diversity([1, 1], SIX_WORKERS)

    def test_asymmetric_matrix_rejected(self):
        bad = np.array([[0.0, 0.5], [0.4, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            smodel.diversity([0, 1], bad)

    @given(st.integers(min_value=1, max_value=5).flatmap(lambda n: st.tuples(
        st.lists(st.one_of(st.sampled_from([0.0, 0.1, 1e308, -1e308]), st.floats(-2.0, 2.0)),
                 min_size=n * n, max_size=n * n),
        st.lists(st.sampled_from([0.0, 1e-9, -1e-9, 1.0000000000000002e-9, 5e-10, 1e-3]),
                 min_size=n * n, max_size=n * n),
    )))
    @settings(max_examples=200, deadline=None)
    def test_symmetry_check_matches_allclose(self, case):
        # a symmetric matrix with small gaps added above the diagonal; the
        # check accepts exactly what allclose(atol=1e-9, rtol=0) accepts
        values, gaps = case
        n = math.isqrt(len(values))
        lower = np.tril(np.array(values).reshape(n, n))
        sim = lower + np.tril(lower, -1).T + np.triu(np.array(gaps).reshape(n, n), 1)
        if np.allclose(sim, sim.T, atol=1e-9, rtol=0.0):
            smodel.check_similarity_matrix(sim)
        else:
            with pytest.raises(ValueError, match="symmetric"):
                smodel.check_similarity_matrix(sim)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_asymmetry_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            smodel.check_similarity_matrix([[0.0, 1e308], [-1e308, 0.0]])

    def test_diagonal_ignored(self):
        sim = make_matrix({(0, 1): 0.6}, 2)
        sim[0, 0] = 5.0
        sim[1, 1] = -3.0
        assert smodel.diversity([0, 1], sim) == pytest.approx(-0.3)


class TestSumObjective:
    def test_single_pair(self):
        sim = make_matrix({(0, 1): 0.6}, 2)
        assert smodel.sum_objective([0, 1], sim) == pytest.approx(-0.6)

    def test_empty_crowd(self):
        assert smodel.sum_objective([], SIX_WORKERS) == 0.0

    def test_matches_direct_pair_iteration(self):
        rng = np.random.default_rng(11)
        sim = random_symmetric(rng, 5)
        crowd = (0, 2, 4)
        direct = -sum(sim[i, j] for i, j in itertools.combinations(crowd, 2))
        assert smodel.sum_objective(crowd, sim) == pytest.approx(direct, abs=1e-12)

    def test_size_times_diversity(self):
        rng = np.random.default_rng(3)
        sim = random_symmetric(rng, 7)
        crowd = (1, 2, 5, 6)
        assert smodel.sum_objective(crowd, sim) == pytest.approx(
            4 * smodel.diversity(crowd, sim), abs=1e-12
        )


class TestExactSelect:
    def test_six_worker_optimum(self):
        assert smodel.exact_select(SIX_WORKERS, 3) == (0, 3, 4)

    def test_k_equals_n(self):
        assert smodel.exact_select(SIX_WORKERS, 6) == (0, 1, 2, 3, 4, 5)

    def test_matches_independent_rescan(self):
        rng = np.random.default_rng(29)
        sim = random_symmetric(rng, 8)
        best = max(
            itertools.combinations(range(8), 3),
            key=lambda c: (smodel.diversity(c, sim), [-i for i in c]),
        )
        assert smodel.exact_select(sim, 3) == best

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            smodel.exact_select(SIX_WORKERS, 0)
        with pytest.raises(ValueError):
            smodel.exact_select(SIX_WORKERS, 7)

    def test_enumeration_guard(self):
        sim = np.zeros((80, 80))
        with pytest.raises(EnumerationLimitError):
            smodel.exact_select(sim, 10)

    def test_time_budget(self):
        rng = np.random.default_rng(5)
        sim = random_symmetric(rng, 25)  # C(25, 12) is inside the guard
        with pytest.raises(TimeBudgetError):
            smodel.exact_select(sim, 12, time_budget_s=0.0)

    def test_tie_break_lexicographic(self):
        sim = np.zeros((5, 5))  # every crowd ties at diversity 0
        assert smodel.exact_select(sim, 3) == (0, 1, 2)

    def test_budget_checked_within_the_search(self):
        # nothing prunes on a zero matrix, so this would visit all C(25, 12) crowds
        started = time.perf_counter()
        with pytest.raises(TimeBudgetError):
            smodel.exact_select(np.zeros((25, 25)), 12, time_budget_s=0.05)
        assert time.perf_counter() - started < 1.0


def brute_force_exact(sim: np.ndarray, k: int) -> tuple[tuple[int, ...] | None, float]:
    """Best sum_objective over itertools.combinations; the first such crowd wins ties.

    A NaN objective compares False, so it never wins.
    """
    best, best_score = None, -math.inf
    for crowd in itertools.combinations(range(len(sim)), k):
        score = smodel.sum_objective(crowd, sim)
        if score > best_score:
            best, best_score = crowd, score
    return best, best_score


@st.composite
def selection_cases(draw):
    """(kind, matrix, k): tie-heavy integers, all-equal entries or mixed-sign floats."""
    n = draw(st.integers(min_value=1, max_value=10))
    kind = draw(st.sampled_from(["ties", "equal", "floats"]))
    if kind == "ties":
        entries = st.integers(min_value=-2, max_value=2).map(float)
    else:
        entries = st.floats(min_value=-1.0, max_value=1.0, allow_subnormal=False)
    if kind == "equal":
        sim = np.full((n, n), draw(entries))
    else:
        upper = np.triu(np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n)))
                        .reshape(n, n))
        sim = upper + np.triu(upper, 1).T
    return kind, sim, draw(st.integers(min_value=1, max_value=n))


@st.composite
def asymmetric_cases(draw):
    """(matrix, k): sparse upper triangle, lower triangle off its mirror by up to 0.9e-9.

    Upper entries are small multiples of 2^-20, so their sums are exact and
    smaller than the rounding slack would forgive the asymmetry.
    """
    n = draw(st.integers(min_value=3, max_value=8))
    # mostly zeros, so that bounds are tight and the asymmetry decides pruning
    steps = draw(st.lists(st.sampled_from([0, 0, 0, 0, -1, 1, -2, 2]),
                          min_size=n * n, max_size=n * n))
    upper = np.triu(np.array(steps, dtype=float).reshape(n, n) * 2.0**-20, 1)
    skew = draw(st.lists(st.sampled_from([-0.9e-9, 0.0, 0.9e-9]), min_size=n * n, max_size=n * n))
    sim = upper + upper.T + np.tril(np.array(skew).reshape(n, n), -1)
    return sim, draw(st.integers(min_value=1, max_value=n))


def upper_triangle_reference(sim: np.ndarray, k: int) -> tuple[int, ...]:
    """First crowd of itertools.combinations with the least sum of sim[i, j], i < j."""
    return min(
        itertools.combinations(range(len(sim)), k),
        key=lambda c: sum(sim[i, j] for i, j in itertools.combinations(c, 2)),
    )


def worked_asymmetric_matrix() -> np.ndarray:
    # upper entries 0 except (4, 5), every other lower entry -0.9e-9: the
    # mirrored sums of a greedy crowd sit C(k,2) * 0.9e-9 below its true sum
    sim = np.tril(np.full((6, 6), -0.9e-9), -1)
    sim[4, 5] = sim[5, 4] = -1e-6
    return sim


def overflowing_matrix() -> np.ndarray:
    """Eight workers whose crowds overflow to NaN unless drawn from workers 3-7.

    Workers 0-2 are near the float limit with everyone: 0 and 2, and 1 and 2,
    at -1e308, all their other pairs at +1e308. From four members on, every
    crowd with one of them sums to at least 2e308, but the prefix (0, 1, 2)
    reaches 1e308 + (-inf) = -inf, and each of its crowds -inf + inf = NaN.
    """
    n = 8
    sim = np.zeros((n, n))
    sim[:3, :] = sim[:, :3] = 1e308
    sim[0, 2] = sim[2, 0] = sim[1, 2] = sim[2, 1] = -1e308
    rng = np.random.default_rng(8)
    small = np.triu(rng.integers(-2, 3, size=(n - 3, n - 3)).astype(float), 1)
    sim[3:, 3:] = small + small.T
    return sim


class TestExactAgainstBruteForce:
    @given(selection_cases())
    @example(("ties", make_matrix({(0, 1): 2.0, (1, 2): -1.0, (0, 3): -2.0}, 5), 1))
    @example(("ties", make_matrix({(0, 1): 2.0, (1, 2): -1.0, (0, 3): -2.0}, 5), 5))
    @example(("equal", np.zeros((8, 8)), 4))
    @settings(max_examples=150, deadline=None)
    def test_matches_enumeration(self, case):
        kind, sim, k = case
        pick = smodel.exact_select(sim, k)
        best, best_score = brute_force_exact(sim, k)
        if kind != "floats":
            # integer sums are exact in any order, so ties are real ties
            assert pick == best
            return
        # float sums round differently in the two searches: the pick must be
        # optimal to rounding, and the reference's crowd where it wins clearly
        tol = 1e-9
        assert smodel.sum_objective(pick, sim) >= best_score - tol
        runner_up = max(
            (smodel.sum_objective(c, sim)
             for c in itertools.combinations(range(len(sim)), k) if c != best),
            default=-math.inf,
        )
        if runner_up < best_score - tol:
            assert pick == best

    @given(asymmetric_cases())
    @example((worked_asymmetric_matrix(), 4))
    @settings(max_examples=100, deadline=None)
    def test_asymmetric_within_tolerance_scores_upper_triangle(self, case):
        sim, k = case
        assert smodel.exact_select(sim, k) == upper_triangle_reference(sim, k)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_to_nan_neither_prunes_nor_wins(self):
        sim = overflowing_matrix()
        n = len(sim)
        for k in range(4, n + 1):
            with np.errstate(over="ignore", invalid="ignore"):
                best, best_score = brute_force_exact(sim, k)
            if best is None:
                with pytest.raises(ValueError, match="too large"):
                    smodel.exact_select(sim, k)
            else:
                assert smodel.exact_select(sim, k) == best


class TestGreedySelect:
    def test_k2_returns_least_similar_pair(self):
        assert smodel.greedy_select(SIX_WORKERS, 2) == (0, 4)

    def test_outlier_always_selected(self):
        # worker 4 is dissimilar to everyone; all other pairs are strongly similar
        pairs = {(i, j): 0.9 for i, j in itertools.combinations(range(4), 2)}
        pairs.update({(i, 4): 0.0 for i in range(4)})
        sim = make_matrix(pairs, 5)
        assert 4 in smodel.greedy_select(sim, 3)

    def test_k_bounds(self):
        assert smodel.greedy_select(SIX_WORKERS, 1) == (0,)
        with pytest.raises(ValueError):
            smodel.greedy_select(SIX_WORKERS, 0)
        with pytest.raises(ValueError):
            smodel.greedy_select(SIX_WORKERS, 7)

    def test_result_size_and_uniqueness(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            sim = random_symmetric(rng, 12, low=-1.0, high=0.0)
            k = int(rng.integers(2, 12))
            crowd = smodel.greedy_select(sim, k)
            assert len(crowd) == k
            assert len(set(crowd)) == k

    def test_near_optimal_on_negative_similarities(self):
        # scaled-down version of the synthetic effectiveness benchmark
        rng = np.random.default_rng(101)
        greedy_scores, exact_scores = [], []
        for _ in range(25):
            sim = random_symmetric(rng, 12, low=-1.0, high=0.0)
            greedy_scores.append(smodel.diversity(smodel.greedy_select(sim, 4), sim))
            exact_scores.append(smodel.diversity(smodel.exact_select(sim, 4), sim))
        assert np.mean(greedy_scores) >= 0.95 * np.mean(exact_scores)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [4, 5])
    def test_nan_crowds_never_win(self, k):
        # seed chunks holding a NaN crowd must still offer their finite crowds
        sim = overflowing_matrix()
        crowd = smodel.greedy_select(sim, k)
        assert len(crowd) == k
        assert set(crowd) <= set(range(3, 8))
        assert math.isfinite(smodel.diversity(crowd, sim))

    def test_beats_random_in_expectation(self):
        rng = np.random.default_rng(202)
        wins = 0
        trials = 100
        for _ in range(trials):
            sim = random_symmetric(rng, 15, low=-1.0, high=0.0)
            greedy = smodel.diversity(smodel.greedy_select(sim, 5), sim)
            pick = rng.choice(15, size=5, replace=False)
            rand = smodel.diversity([int(i) for i in pick], sim)
            wins += greedy >= rand
        assert wins >= 90


def greedy_reference(sim: np.ndarray, k: int) -> tuple[int, ...]:
    """Plain-Python greedy from every seed pair; ties go to the smallest index/pair."""
    n = len(sim)
    best_div, best = -math.inf, None
    for a, b in itertools.combinations(range(n), 2):
        crowd, total = [a, b], float(sim[a, b])
        while len(crowd) < k:
            margin, w = min(
                (sum(float(sim[w, m]) for m in crowd), w) for w in range(n) if w not in crowd
            )
            crowd.append(w)
            total += margin
        if -total / k > best_div:
            best_div, best = -total / k, tuple(sorted(crowd))
    return best


def kl_similarity(posteriors: np.ndarray) -> np.ndarray:
    """Negated symmetrized KL divergence between rows, as profiles builds it."""
    post = posteriors + 1e-10
    post = post / post.sum(axis=1, keepdims=True)
    logs = np.log(post)
    div = (post * logs).sum(axis=1)[:, None] - post @ logs.T
    np.fill_diagonal(div, 0.0)
    return -(div + div.T) / 2.0


# values a few units in the last place apart, so that greedy steps nearly tie
NEAR_TIES = [-0.5, -0.5 + 2**-52, -0.5 - 2**-53, 0.0, 1e-300, 0.25, 0.25 + 2**-54, 1.0]


@st.composite
def greedy_cases(draw):
    """(matrix, k): symmetric integer, all-equal, near-tie float or KL-like matrices."""
    n = draw(st.integers(min_value=2, max_value=9))
    kind = draw(st.sampled_from(["ties", "equal", "floats", "kl"]))
    if kind == "kl":
        # skewed topic mixtures: many pairs near the smoothing floor
        weights = st.floats(min_value=0.0, max_value=1.0, allow_subnormal=False)
        post = np.array(draw(st.lists(weights, min_size=3 * n, max_size=3 * n))).reshape(n, 3)
        post[:, 0] += 1e-3
        sim = kl_similarity(post / post.sum(axis=1, keepdims=True))
    else:
        if kind == "ties":
            entries = st.integers(min_value=-2, max_value=2).map(float)
        else:
            entries = st.one_of(
                st.floats(min_value=-1.0, max_value=1.0, allow_subnormal=False),
                st.sampled_from(NEAR_TIES),
            )
        if kind == "equal":
            sim = np.full((n, n), draw(entries))
        else:
            upper = np.triu(np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n)))
                            .reshape(n, n))
            sim = upper + np.triu(upper, 1).T
    return sim, draw(st.integers(min_value=2, max_value=n))


def skewed_matrix(n: int, seed: int) -> np.ndarray:
    """KL similarities of n workers over three topics with skewed mixtures."""
    rng = np.random.default_rng(seed)
    return kl_similarity(rng.dirichlet(np.full(3, 0.3), size=n))


class TestGreedyReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_on_tie_heavy_matrices(self, seed):
        # small integers are exact in floating point, so ties are real ties
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(5, 13))
        sim = np.triu(rng.integers(-2, 3, size=(n, n)).astype(float), 1)
        sim = sim + sim.T
        for k in range(2, n + 1):
            assert smodel.greedy_select(sim, k) == greedy_reference(sim, k)

    @given(greedy_cases())
    @example((overflowing_matrix(), 4))
    @example((overflowing_matrix(), 6))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, case):
        # the reference adds each margin in the order greedy_select does, so
        # on a symmetric matrix every pair sum is the same float
        sim, k = case
        expected = greedy_reference(sim, k)
        if expected is None:
            with pytest.raises(ValueError, match="too large"):
                smodel.greedy_select(sim, k)
        else:
            assert smodel.greedy_select(sim, k) == expected


def completed_seed_rows(monkeypatch, sim: np.ndarray, k: int) -> int:
    """Seed rows that greedy_select runs to a full crowd."""
    full = smodel._greedy_complete
    completed = []

    def counting(*args):
        out = full(*args)
        completed.append(out[2].size)
        return out

    monkeypatch.setattr(smodel, "_greedy_complete", counting)
    smodel.greedy_select(sim, k)
    return sum(completed)


class TestGreedyPruning:
    SEEDS = 60 * 59 // 2

    def test_most_seeds_dropped_on_skewed_matrix(self, monkeypatch):
        assert completed_seed_rows(monkeypatch, skewed_matrix(60, 3), 4) < self.SEEDS / 2

    def test_nothing_dropped_near_overflow_scale(self, monkeypatch):
        # pair sums of four such workers could reach the overflow scale, where
        # rounding has no bound and no seed may be dropped
        sim = skewed_matrix(60, 3) * 1e299
        assert completed_seed_rows(monkeypatch, sim, 4) == self.SEEDS


SOLVERS = {
    "exact": smodel.exact_select,
    "greedy": smodel.greedy_select,
    "random": lambda sim, k: smodel.random_select(sim, k, seed=0),
}


class TestSelectionContract:
    @pytest.mark.parametrize("method", SOLVERS)
    def test_one_worker(self, method):
        assert SOLVERS[method](np.zeros((1, 1)), 1) == (0,)

    @pytest.mark.parametrize("method", SOLVERS)
    def test_crowd_of_one(self, method):
        crowd = SOLVERS[method](SIX_WORKERS, 1)
        assert len(crowd) == 1 and 0 <= crowd[0] < 6

    def test_greedy_equals_exact_at_k_1(self):
        rng = np.random.default_rng(24)
        for n in (1, 2, 5, 13):
            sim = random_symmetric(rng, n)
            assert smodel.greedy_select(sim, 1) == smodel.exact_select(sim, 1) == (0,)

    @pytest.mark.parametrize("method", SOLVERS)
    @pytest.mark.parametrize("k", [0, 7, 2.0, 2.5, True, np.float64(3), "2", None])
    def test_bad_k_rejected_with_one_message(self, method, k):
        with pytest.raises(ValueError, match=r"k must lie in \[1, 6\] as an integer"):
            SOLVERS[method](SIX_WORKERS, k)

    @pytest.mark.parametrize("method", SOLVERS)
    def test_numpy_integer_k_accepted(self, method):
        assert SOLVERS[method](SIX_WORKERS, np.int64(3)) == SOLVERS[method](SIX_WORKERS, 3)


class TestRandomSelect:
    def test_sorted_numpy_choice_stream(self):
        draw = np.random.default_rng(3).choice(6, size=3, replace=False)
        assert smodel.random_select(SIX_WORKERS, 3, seed=3) == tuple(sorted(int(i) for i in draw))

    @pytest.mark.parametrize("k", [0, 7])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError, match="k must lie"):
            smodel.random_select(SIX_WORKERS, k, seed=0)


class TestNonFiniteMatrices:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("solver", [smodel.greedy_select, smodel.exact_select])
    def test_rejected_by_solvers(self, solver, bad):
        sim = SIX_WORKERS.copy()
        sim[1, 3] = sim[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            solver(sim, 3)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("solver", [smodel.greedy_select, smodel.exact_select])
    def test_overflowing_pair_sums_raise(self, solver):
        sim = np.full((4, 4), 1e308)
        with pytest.raises(ValueError, match="too large"):
            solver(sim, 3)


class TestSubmodularity:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_marginal_identity(self, seed):
        # Sum(C+{a}) + Sum(C+{b}) - Sum(C+{a,b}) - Sum(C) == Sim(a, b)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 10))
        sim = random_symmetric(rng, n)
        size = int(rng.integers(1, n - 1))
        members = rng.choice(n, size=size + 2, replace=False)
        crowd, w0, w1 = (
            [int(i) for i in members[:-2]],
            int(members[-2]),
            int(members[-1]),
        )
        lhs = smodel.sum_objective(crowd + [w0], sim) + smodel.sum_objective(crowd + [w1], sim)
        rhs = smodel.sum_objective(crowd + [w0, w1], sim) + smodel.sum_objective(crowd, sim)
        assert lhs - rhs == pytest.approx(sim[w0, w1], abs=1e-12)

    def test_submodular_inequality_for_nonnegative_sims(self):
        # with non-negative similarities the identity makes Sum submodular
        rng = np.random.default_rng(7)
        sim = random_symmetric(rng, 8, low=0.0, high=1.0)
        for _ in range(50):
            members = rng.choice(8, size=5, replace=False)
            crowd = [int(i) for i in members[:3]]
            w0, w1 = int(members[3]), int(members[4])
            lhs = smodel.sum_objective(crowd + [w0], sim) + smodel.sum_objective(
                crowd + [w1], sim
            )
            rhs = smodel.sum_objective(crowd + [w0, w1], sim) + smodel.sum_objective(
                crowd, sim
            )
            assert lhs >= rhs - 1e-12


class TestPermutationEquivariance:
    def test_relabeling_preserves_scores(self):
        rng = np.random.default_rng(23)
        sim = random_symmetric(rng, 9)
        perm = rng.permutation(9)
        permuted = sim[np.ix_(perm, perm)]
        crowd = (0, 4, 7)
        relabeled = tuple(sorted(int(np.where(perm == i)[0][0]) for i in crowd))
        assert smodel.diversity(crowd, sim) == pytest.approx(
            smodel.diversity(relabeled, permuted), abs=1e-12
        )
        assert smodel.sum_objective(crowd, sim) == pytest.approx(
            smodel.sum_objective(relabeled, permuted), abs=1e-12
        )
