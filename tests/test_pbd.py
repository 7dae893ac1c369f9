import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from crowdselect import pbd
from crowdselect.errors import DegenerateWindowError, EnumerationLimitError
from crowdselect.pbd import DemandWindow, WindowKernel

prob_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=12
)


class TestDemandWindow:
    def test_theta2_derived(self):
        w = DemandWindow(theta1=1, theta0=1, k=4)
        assert w.theta2 == 3
        assert w.width == 2

    def test_infeasible_demand_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            DemandWindow(theta1=3, theta0=2, k=4)

    def test_negative_thresholds_rejected(self):
        with pytest.raises(ValueError):
            DemandWindow(theta1=-1, theta0=0, k=4)

    def test_zero_k_rejected(self):
        with pytest.raises(ValueError):
            DemandWindow(theta1=0, theta0=0, k=0)


class TestPmfBruteforce:
    def test_two_fair_coins(self):
        assert pbd.pmf_bruteforce([0.5, 0.5]) == pytest.approx([0.25, 0.5, 0.25])

    def test_single_bernoulli(self):
        assert pbd.pmf_bruteforce([0.3]) == pytest.approx([0.7, 0.3])

    def test_hand_enumerated_extremes(self):
        mass = pbd.pmf_bruteforce([0.2, 0.4, 0.6, 0.9])
        # all-negative: 0.8*0.6*0.4*0.1, all-positive: 0.2*0.4*0.6*0.9
        assert mass[0] == pytest.approx(0.0192, abs=1e-12)
        assert mass[4] == pytest.approx(0.0432, abs=1e-12)

    def test_size_guard(self):
        with pytest.raises(EnumerationLimitError):
            pbd.pmf_bruteforce([0.5] * 26)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pbd.pmf_bruteforce([])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pbd.pmf_bruteforce([0.5, 1.2])


class TestPmfDftcf:
    def test_single_bernoulli(self):
        assert pbd.pmf_dftcf([0.3]) == pytest.approx([0.7, 0.3])

    def test_identical_probs_reduce_to_binomial(self):
        expected = [0.0625, 0.25, 0.375, 0.25, 0.0625]
        assert pbd.pmf_dftcf([0.5] * 4) == pytest.approx(expected, abs=1e-12)

    def test_matches_bruteforce_on_fixed_vector(self):
        p = [0.2, 0.4, 0.6, 0.9]
        assert pbd.pmf_dftcf(p) == pytest.approx(pbd.pmf_bruteforce(p), abs=1e-9)

    @given(prob_lists)
    @settings(max_examples=80, deadline=None)
    def test_oracle_equivalence(self, probs):
        exact = pbd.pmf_bruteforce(probs)
        fast = pbd.pmf_dftcf(probs)
        assert np.abs(exact - fast).max() <= 1e-9

    @given(prob_lists)
    @settings(max_examples=80, deadline=None)
    def test_mass_sums_to_one_both_methods(self, probs):
        assert abs(pbd.pmf_bruteforce(probs).sum() - 1.0) <= 1e-9
        assert abs(pbd.pmf_dftcf(probs).sum() - 1.0) <= 1e-9

    @given(
        # scipy's binom.pmf itself overflows for p within ~1e-10 of the edges
        st.floats(min_value=1e-9, max_value=1.0 - 1e-9, allow_nan=False),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_identical_probs_binomial_property(self, p, n):
        expected = stats.binom.pmf(np.arange(n + 1), n, p)
        assert np.abs(pbd.pmf_dftcf([p] * n) - expected).max() <= 1e-9

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_identical_probs_at_boundaries(self, p):
        mass = pbd.pmf_dftcf([p] * 5)
        expected = np.zeros(6)
        expected[5 if p == 1.0 else 0] = 1.0
        assert mass == pytest.approx(expected, abs=1e-12)


    @staticmethod
    def unblocked(probs):
        """pmf_dftcf with the whole (n+1) x n factor table formed at once."""
        p = np.asarray(probs, dtype=float)
        n = p.size
        roots = np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
        z = np.prod(1.0 - p[None, :] * (1.0 - roots[:, None]), axis=1)
        return np.clip((np.fft.fft(z) / (n + 1)).real, 0.0, 1.0)

    @pytest.mark.parametrize("n", [1, 2, 7, 255, 256, 257, 1000, 1500])
    def test_blocks_match_one_table(self, n):
        # 2^16 // n rows per block: one block up to n = 255, several with a
        # short last block above
        rng = np.random.default_rng(n)
        for probs in (rng.uniform(0, 1, n), rng.choice([0.0, 0.5, 1.0], n)):
            assert np.array_equal(pbd.pmf_dftcf(probs), self.unblocked(probs))

    def test_memory_bounded(self):
        # one (4001 x 4000) complex table would take 256 MB
        probs = np.random.default_rng(4).uniform(0, 1, 4000)
        tracemalloc.start()
        try:
            mass = pbd.pmf_dftcf(probs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20
        assert abs(mass.sum() - 1.0) <= 1e-9

    def test_size_limit(self, monkeypatch):
        # O(n^2) work: refused before any is done
        with pytest.raises(EnumerationLimitError, match="4096"):
            pbd.pmf_dftcf([0.5] * (pbd.DFTCF_LIMIT + 1))
        monkeypatch.setattr(pbd, "DFTCF_LIMIT", 8)
        assert pbd.pmf_dftcf([0.5] * 8).size == 9
        with pytest.raises(EnumerationLimitError):
            pbd.window_prob([0.5] * 9, DemandWindow(1, 1, 9))

    def test_imaginary_residue_raises(self, monkeypatch):
        fft = np.fft.fft
        monkeypatch.setattr(np.fft, "fft", lambda z: fft(z) + 1e-3j)
        with pytest.raises(RuntimeError, match="imaginary residue"):
            pbd.pmf_dftcf([0.2, 0.7])


class TestWindowProb:
    def test_hand_enumerated_window(self):
        w = DemandWindow(theta1=1, theta0=1, k=4)
        assert pbd.window_prob([0.2, 0.4, 0.6, 0.9], w) == pytest.approx(0.9376, abs=1e-12)

    def test_full_support_window(self):
        w = DemandWindow(theta1=0, theta0=0, k=2)
        assert pbd.window_prob([0.5, 0.5], w) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_window_value(self):
        w = DemandWindow(theta1=1, theta0=1, k=2)
        assert pbd.window_prob([0.1, 0.9], w) == pytest.approx(0.82, abs=1e-12)

    def test_length_mismatch_rejected(self):
        w = DemandWindow(theta1=1, theta0=1, k=4)
        with pytest.raises(ValueError, match="length"):
            pbd.window_prob([0.5, 0.5], w)

    def test_equals_pmf_slice_exactly(self):
        p = [0.13, 0.5, 0.77, 0.2, 0.9]
        w = DemandWindow(theta1=1, theta0=2, k=5)
        mass = pbd.pmf_dftcf(p)
        assert pbd.window_prob(p, w) == float(mass[1 : w.theta2 + 1].sum())

    @given(prob_lists, st.data())
    @settings(max_examples=60, deadline=None)
    def test_in_unit_interval(self, probs, data):
        k = len(probs)
        theta1 = data.draw(st.integers(min_value=0, max_value=k))
        theta0 = data.draw(st.integers(min_value=0, max_value=k - theta1))
        w = DemandWindow(theta1=theta1, theta0=theta0, k=k)
        assert 0.0 <= pbd.window_prob(probs, w) <= 1.0


class TestWindowKernel:
    @given(prob_lists, st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_pmf_path(self, probs, data):
        k = len(probs)
        theta1 = data.draw(st.integers(min_value=0, max_value=k))
        theta0 = data.draw(st.integers(min_value=0, max_value=k - theta1))
        w = DemandWindow(theta1=theta1, theta0=theta0, k=k)
        kernel = WindowKernel(w)
        reference = pbd.window_prob(probs, w)
        # the scalar constants of the annealing score, over conjugate frequency pairs
        scalar = kernel.w0
        for one_minus_root, weight in kernel.half_terms:
            scalar += (weight * math.prod(1.0 - p * one_minus_root for p in probs)).real
        assert scalar == pytest.approx(reference, abs=1e-12)
        batch = kernel.tau_many(np.asarray([probs]))
        assert batch[0] == pytest.approx(reference, abs=1e-12)

    def test_batch_shape_validated(self):
        kernel = WindowKernel(DemandWindow(1, 1, 4))
        with pytest.raises(ValueError):
            kernel.tau_many(np.zeros((3, 5)))


class TestPoissonPmf:
    def test_matches_scipy(self):
        # i = 1000 would overflow a factorial
        for i, rate in itertools.product((0, 1, 5, 40, 1000), (0.5, 2.0, 30.0, 1000.0)):
            expected = stats.poisson.pmf(i, rate)
            assert pbd.poisson_pmf(i, rate) == pytest.approx(expected, rel=1e-9, abs=1e-300)

    def test_zero_rate_is_point_mass_at_zero(self):
        assert pbd.poisson_pmf(0, 0.0) == 1.0
        assert pbd.poisson_pmf(3, 0.0) == 0.0


class TestPoissonWindow:
    def test_zero_rate(self):
        assert pbd.poisson_window_prob(0.0, DemandWindow(1, 1, 4)) == 0.0

    def test_unit_rate(self):
        w = DemandWindow(theta1=1, theta0=1, k=4)
        expected = math.exp(-1) * (1 / 2 + 1 / 6)
        assert pbd.poisson_window_prob(1.0, w) == pytest.approx(expected, abs=1e-12)

    def test_value_at_peak(self):
        w = DemandWindow(theta1=1, theta0=1, k=4)
        rate = math.sqrt(6)
        expected = math.exp(-rate) * (3 + rate)
        assert pbd.poisson_window_prob(rate, w) == pytest.approx(expected, abs=1e-12)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            pbd.poisson_window_prob(-0.1, DemandWindow(1, 1, 4))

    def test_matches_poisson_cmf_difference(self):
        w = DemandWindow(theta1=2, theta0=3, k=9)
        for rate in (0.5, 2.0, 4.5, 8.0):
            expected = stats.poisson.cdf(w.theta2, rate) - stats.poisson.cdf(w.theta1, rate)
            assert pbd.poisson_window_prob(rate, w) == pytest.approx(expected, abs=1e-12)

    def test_degenerate_window_is_zero(self):
        # zero-width window: the CMF difference vanishes identically
        assert pbd.poisson_window_prob(2.0, DemandWindow(2, 2, 4)) == 0.0


class TestPoissonPeak:
    @pytest.mark.parametrize(
        "theta1,theta0,k,expected",
        [
            (1, 1, 4, math.sqrt(6)),
            (0, 1, 4, 6 ** (1 / 3)),
            (2, 1, 4, 3.0),
        ],
    )
    def test_closed_form(self, theta1, theta0, k, expected):
        w = DemandWindow(theta1=theta1, theta0=theta0, k=k)
        assert pbd.poisson_window_peak(w) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_window_rejected(self):
        with pytest.raises(DegenerateWindowError):
            pbd.poisson_window_peak(DemandWindow(theta1=2, theta0=2, k=4))

    def test_large_thresholds_do_not_overflow(self):
        w = DemandWindow(theta1=150, theta0=10, k=200)
        peak = pbd.poisson_window_peak(w)
        assert 150.0 < peak < 190.0

    def test_unimodal_on_grid(self):
        w = DemandWindow(theta1=1, theta0=1, k=6)
        peak = pbd.poisson_window_peak(w)
        grid = np.linspace(1e-9, w.k, 500)
        values = np.array([pbd.poisson_window_prob(x, w) for x in grid])
        turn = int(np.argmax(values))
        assert np.all(np.diff(values[: turn + 1]) >= -1e-12)
        assert np.all(np.diff(values[turn:]) <= 1e-12)
        assert abs(grid[turn] - peak) <= grid[1] - grid[0]


class TestBinomialWindow:
    def test_zero_p(self):
        assert pbd.binomial_window_prob(0.0, 4, DemandWindow(1, 1, 4)) == 0.0

    def test_fair_coin(self):
        w = DemandWindow(theta1=1, theta0=1, k=4)
        assert pbd.binomial_window_prob(0.5, 4, w) == pytest.approx(0.625, abs=1e-12)

    def test_one_p(self):
        assert pbd.binomial_window_prob(1.0, 4, DemandWindow(1, 1, 4)) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pbd.binomial_window_prob(1.5, 4, DemandWindow(1, 1, 4))

    def test_matches_binom_cmf_difference(self):
        w = DemandWindow(theta1=2, theta0=2, k=10)
        for p in (0.1, 0.35, 0.8):
            expected = stats.binom.cdf(w.theta2, 10, p) - stats.binom.cdf(w.theta1, 10, p)
            assert pbd.binomial_window_prob(p, 10, w) == pytest.approx(expected, abs=1e-12)


class TestBinomialPeak:
    def test_example_window(self):
        p_star, capacity = pbd.binomial_window_peak(4, DemandWindow(1, 1, 4))
        assert p_star == pytest.approx(1 / (1 + math.sqrt(1 / 3)), rel=1e-12)
        assert capacity == pytest.approx(4 * p_star, rel=1e-12)

    def test_full_window_peaks_at_one(self):
        p_star, capacity = pbd.binomial_window_peak(4, DemandWindow(0, 0, 4))
        assert p_star == 1.0
        assert capacity == 4.0

    def test_small_case(self):
        p_star, capacity = pbd.binomial_window_peak(2, DemandWindow(0, 1, 2))
        assert p_star == pytest.approx(0.5, rel=1e-12)
        assert capacity == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_window_rejected(self):
        with pytest.raises(DegenerateWindowError):
            pbd.binomial_window_peak(4, DemandWindow(2, 2, 4))

    def test_unimodal_on_grid(self):
        w = DemandWindow(theta1=2, theta0=3, k=9)
        p_star, _ = pbd.binomial_window_peak(9, w)
        grid = np.linspace(0, 1, 502)[1:-1]
        values = np.array([pbd.binomial_window_prob(p, 9, w) for p in grid])
        turn = int(np.argmax(values))
        assert np.all(np.diff(values[: turn + 1]) >= -1e-12)
        assert np.all(np.diff(values[turn:]) <= 1e-12)
        assert abs(grid[turn] - p_star) <= grid[1] - grid[0]


class TestNormalWindow:
    def test_standard_case(self):
        w = DemandWindow(theta1=1, theta0=1, k=4)
        expected = math.erf(1.5 / math.sqrt(2))  # Phi(1.5) - Phi(-1.5)
        assert pbd.normal_window_prob(2.0, 1.0, w) == pytest.approx(expected, abs=1e-12)

    def test_degenerate_sigma_inside(self):
        w = DemandWindow(theta1=1, theta0=1, k=4)
        assert pbd.normal_window_prob(2.0, 0.0, w) == 1.0

    def test_degenerate_sigma_outside(self):
        w = DemandWindow(theta1=2, theta0=0, k=4)
        assert pbd.normal_window_prob(0.5, 0.0, w) == 0.0

    def test_mean_on_lower_edge_with_far_top(self):
        # mean sits exactly on the corrected lower edge; the top is far away
        w = DemandWindow(theta1=2, theta0=0, k=200)
        assert pbd.normal_window_prob(1.5, 1.0, w) == pytest.approx(0.5, abs=1e-9)


class TestErrorBounds:
    def test_poisson_bound_examples(self):
        assert pbd.poisson_error_bound([0.5, 0.5]) == pytest.approx(0.5)
        assert pbd.poisson_error_bound([0.0]) == 0.0
        assert pbd.poisson_error_bound([1, 1, 1, 1]) == pytest.approx(1.0)

    def test_binomial_bound_examples(self):
        # zero dispersion up to the float error of the mean
        assert pbd.binomial_error_bound([0.4, 0.4, 0.4]) == pytest.approx(0.0, abs=1e-30)
        assert pbd.binomial_error_bound([0.2, 0.8]) == pytest.approx(0.18)
        # mean 0.5 gives prefactor 1 and dispersion 0.5
        assert pbd.binomial_error_bound([0.0, 1.0]) == pytest.approx(0.5)

    @given(prob_lists)
    @settings(max_examples=80, deadline=None)
    def test_poisson_bound_in_unit_interval(self, probs):
        bound = pbd.poisson_error_bound(probs)
        assert 0.0 <= bound <= 1.0

    @given(prob_lists)
    @settings(max_examples=60, deadline=None)
    def test_poisson_bound_dominates_cmf_deviation(self, probs):
        mass = pbd.pmf_bruteforce(probs)
        exact_cmf = np.cumsum(mass)
        approx_cmf = stats.poisson.cdf(np.arange(len(probs) + 1), float(np.sum(probs)))
        deviation = float(np.abs(exact_cmf - approx_cmf).max())
        assert deviation <= pbd.poisson_error_bound(probs) + 1e-12

    @given(prob_lists)
    @example(probs=[1.1125369292536007e-308] * 2)  # scipy's binom.pmf overflows here
    @settings(max_examples=60, deadline=None)
    def test_binomial_bound_dominates_half_l1(self, probs):
        n = len(probs)
        mass = pbd.pmf_bruteforce(probs)
        p_bar = float(np.mean(probs))
        # closed form, which stays finite for subnormal p_bar
        approx = np.array(
            [math.comb(n, j) * p_bar**j * (1.0 - p_bar) ** (n - j) for j in range(n + 1)]
        )
        half_l1 = 0.5 * float(np.abs(mass - approx).sum())
        assert half_l1 <= pbd.binomial_error_bound(probs) + 1e-12
