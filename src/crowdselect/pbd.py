"""Poisson-Binomial opinion-count distributions.

The number of positive opinions in a selected crowd is a sum of independent,
non-identical Bernoulli variables. This module computes its probability mass
function exactly (subset enumeration, and a DFT of the characteristic
function), evaluates the window probability that the count lands inside a
demand window, provides the Poisson / Binomial / Normal approximations of that
window probability together with the closed-form arguments at which the
approximations peak, and bounds the approximation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateWindowError, EnumerationLimitError

# Guard for pmf_bruteforce: enumerating 2**25 subsets is the practical ceiling.
BRUTEFORCE_LIMIT = 25

# Imaginary residue allowed in the DFT output before it is discarded.
IMAG_TOL = 1e-9

# Entries of the characteristic-function factor table that pmf_dftcf forms
# at once: 1 MB of complex values per block.
_PMF_BLOCK = 1 << 16


def as_prob_array(probs: Sequence[float]) -> np.ndarray:
    """Validate and convert a sequence of Bernoulli probabilities."""
    arr = np.asarray(probs, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a non-empty 1-d sequence of probabilities")
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError("probabilities must lie in [0, 1]")
    return arr


@dataclass(frozen=True)
class DemandWindow:
    """Demand on a crowd of size k: at least theta1 positive and theta0 negative opinions.

    The positive-opinion count must land in [theta1, theta2] with
    theta2 = k - theta0. Feasibility requires theta1 + theta0 <= k.
    """

    theta1: int
    theta0: int
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("crowd size k must be positive")
        if self.theta1 < 0 or self.theta0 < 0:
            raise ValueError("demand thresholds must be non-negative")
        if self.theta1 + self.theta0 > self.k:
            raise ValueError(
                f"infeasible demand: theta1 + theta0 = "
                f"{self.theta1 + self.theta0} exceeds k = {self.k}"
            )

    @property
    def theta2(self) -> int:
        return self.k - self.theta0

    @property
    def width(self) -> int:
        return self.theta2 - self.theta1


@dataclass(frozen=True)
class ApproximationStats:
    """Moments of a selected set's opinion probabilities.

    mean is both the Poisson rate and the Normal mean of the positive-opinion
    count; stddev is the Normal standard deviation sqrt(sum p(1-p)); mean_prob
    is the Binomial success probability mean / size.
    """

    mean: float
    stddev: float
    size: int

    def __post_init__(self):
        if self.stddev < 0.0:
            raise ValueError("stddev must be non-negative")
        if not 0.0 <= self.mean <= self.size:
            raise ValueError("mean must lie in [0, size]")

    @property
    def mean_prob(self) -> float:
        return self.mean / self.size

    @classmethod
    def from_probs(cls, probs: Sequence[float]) -> "ApproximationStats":
        p = as_prob_array(probs)
        return cls(
            mean=float(p.sum()),
            stddev=float(math.sqrt(float((p * (1.0 - p)).sum()))),
            size=int(p.size),
        )


def pmf_bruteforce(probs: Sequence[float]) -> np.ndarray:
    """Exact PMF of the positive-opinion count by full subset enumeration.

    mass[i] sums, over every subset A of size i, the probability that exactly
    the members of A are positive. Serves as the independent oracle for every
    other distribution computation in this package; O(2^n), guarded.
    """
    p = as_prob_array(probs)
    n = p.size
    if n > BRUTEFORCE_LIMIT:
        raise EnumerationLimitError(
            f"brute-force PMF limited to {BRUTEFORCE_LIMIT} workers, got {n}"
        )
    q = 1.0 - p
    mass = np.zeros(n + 1)
    total = 1 << n
    chunk = 1 << 18
    shifts = np.arange(n, dtype=np.uint32)
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.uint32)
        bits = (codes[:, None] >> shifts) & 1
        weights = np.where(bits.astype(bool), p, q).prod(axis=1)
        mass += np.bincount(bits.sum(axis=1), weights=weights, minlength=n + 1)
    return mass


def pmf_dftcf(probs: Sequence[float]) -> np.ndarray:
    """Exact PMF via the discrete Fourier transform of the characteristic function.

    Evaluates the characteristic function of the opinion-count sum at the
    k+1 roots of unity and inverts with a DFT. The (k+1) x k table of factors
    is formed a block of about 2^16 entries at a time, so memory stays O(k);
    each root's product is computed as in one whole table, so the result is
    the same. Imaginary residue is purely a floating-point artifact; it is
    checked against IMAG_TOL and dropped, and real parts are clamped to
    [0, 1].
    """
    p = as_prob_array(probs)
    n = p.size
    roots = np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    z = np.empty(n + 1, dtype=complex)
    rows = max(1, _PMF_BLOCK // n)
    for start in range(0, n + 1, rows):
        block = roots[start : start + rows, None]
        z[start : start + rows] = np.prod(1.0 - p[None, :] * (1.0 - block), axis=1)
    raw = np.fft.fft(z) / (n + 1)
    if not float(np.abs(raw.imag).max()) <= IMAG_TOL:
        raise RuntimeError("non-negligible imaginary residue")
    return np.clip(raw.real, 0.0, 1.0)


def window_prob(
    probs: Sequence[float],
    window: DemandWindow,
    pmf: Callable[[Sequence[float]], np.ndarray] = pmf_dftcf,
) -> float:
    """Exact probability that the positive count lands in [theta1, theta2], both ends inclusive."""
    p = as_prob_array(probs)
    if p.size != window.k:
        raise ValueError(
            f"probability vector has length {p.size}, demand window expects k = {window.k}"
        )
    mass = pmf(p)
    total = float(mass[window.theta1 : window.theta2 + 1].sum())
    return min(1.0, max(0.0, total))


class WindowKernel:
    """Window probability for a fixed demand window, with precomputed DFT constants.

    Folding the window sum into per-frequency weights turns each evaluation
    into one characteristic-function product per frequency. tau() is a scalar
    fast path (conjugate symmetry halves the work) for annealing loops;
    tau_many() scores a batch of candidate subsets at once for exact
    enumeration.
    """

    def __init__(self, window: DemandWindow):
        self.window = window
        n = window.k + 1
        freqs = np.arange(n)
        self._roots = np.exp(2j * np.pi * freqs / n)
        counts = np.arange(window.theta1, window.theta2 + 1)
        self._weights = np.exp(-2j * np.pi * np.outer(freqs, counts) / n).sum(axis=1) / n
        # Python-scalar mirrors for the tight scalar loop; frequency l and
        # n - l are conjugate, so only the lower half is evaluated, with the
        # middle frequency (even n) counted once and the rest twice.
        self._w0 = float(self._weights[0].real)
        self._half_terms = []
        for l in range(1, n // 2 + 1):
            factor = 1.0 if 2 * l == n else 2.0
            self._half_terms.append(
                (complex(1.0 - self._roots[l]), factor * complex(self._weights[l]))
            )

    def tau(self, probs: Sequence[float]) -> float:
        """Exact window probability of one subset; pure-Python hot path."""
        acc = self._w0  # frequency 0: the characteristic function is 1
        for one_minus_root, weight in self._half_terms:
            z = complex(1.0)
            for p in probs:
                z *= 1.0 - p * one_minus_root
            acc += (weight * z).real
        return min(1.0, max(0.0, acc))

    def tau_many(self, prob_matrix: np.ndarray) -> np.ndarray:
        """Exact window probabilities for a batch of subsets, one row each."""
        mat = np.asarray(prob_matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[1] != self.window.k:
            raise ValueError(f"expected a (m, {self.window.k}) probability matrix")
        acc = np.zeros(mat.shape[0], dtype=complex)
        for root, weight in zip(self._roots, self._weights):
            acc += weight * np.prod(1.0 - mat * (1.0 - root), axis=1)
        return np.clip(acc.real, 0.0, 1.0)


def poisson_window_prob(rate: float, window: DemandWindow) -> float:
    """Window probability under the Poisson approximation of the opinion count.

    This is the CMF difference F(theta2) - F(theta1), whose expansion sums the
    Poisson mass strictly above theta1 (the exact window includes theta1; the
    approximation, taken as written, does not).
    """
    if rate < 0.0:
        raise ValueError("Poisson rate must be non-negative")
    if rate == 0.0:
        return 0.0
    log_rate = math.log(rate)
    return sum(
        math.exp(i * log_rate - math.lgamma(i + 1) - rate)
        for i in range(window.theta1 + 1, window.theta2 + 1)
    )


def poisson_window_peak(window: DemandWindow) -> float:
    """Rate at which the Poisson window probability peaks.

    The window probability is non-decreasing below this value and
    non-increasing above it; computed through log-gamma so large thresholds
    do not overflow.
    """
    t1, t2 = window.theta1, window.theta2
    if t1 >= t2:
        raise DegenerateWindowError(
            f"window [{t1}, {t2}] has no width; the peak formula is undefined"
        )
    return math.exp((math.lgamma(t2 + 1) - math.lgamma(t1 + 1)) / (t2 - t1))


def binomial_pmf(i: int, n: int, p: float) -> float:
    """Binomial(n, p) mass at i, through log-gamma so large n cannot overflow."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("success probability must lie in [0, 1]")
    if not 0 <= i <= n:
        return 0.0
    if p == 0.0:
        return 1.0 if i == 0 else 0.0
    if p == 1.0:
        return 1.0 if i == n else 0.0
    return math.exp(
        math.lgamma(n + 1)
        - math.lgamma(i + 1)
        - math.lgamma(n - i + 1)
        + i * math.log(p)
        + (n - i) * math.log1p(-p)
    )


def binomial_window_prob(p: float, n: int, window: DemandWindow) -> float:
    """Window probability under the Binomial(n, p) approximation.

    CMF difference F(theta2) - F(theta1), summed directly over the integer
    PMF (exact for integer thresholds); excludes theta1 like the Poisson form.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("success probability must lie in [0, 1]")
    lo = window.theta1 + 1
    hi = min(window.theta2, n)
    return sum(binomial_pmf(i, n, p) for i in range(lo, hi + 1))


def binomial_window_peak(n: int, window: DemandWindow) -> tuple[float, float]:
    """Success probability at which the Binomial window probability peaks.

    Returns (p_star, capacity) where capacity = k * p_star is the total
    opinion mass a selected set should carry to sit at the peak.
    """
    t1, t2 = window.theta1, window.theta2
    if t1 >= t2:
        raise DegenerateWindowError(
            f"window [{t1}, {t2}] has no width; the peak formula is undefined"
        )
    if n < t2:
        raise ValueError(f"Binomial size n = {n} is below the window top {t2}")
    if n == t2:
        p_star = 1.0
    else:
        # log of ((n-t2) C(n,t2)) / ((n-t1) C(n,t1)); the lgamma(n+1) terms cancel
        log_ratio = (
            math.log(n - t2)
            - math.lgamma(t2 + 1) - math.lgamma(n - t2 + 1)
            - math.log(n - t1)
            + math.lgamma(t1 + 1) + math.lgamma(n - t1 + 1)
        ) / (t2 - t1)
        p_star = 1.0 / (1.0 + math.exp(log_ratio))
    return p_star, window.k * p_star


def normal_window_raw(mean: float, stddev: float, window: DemandWindow) -> float:
    """normal_window_prob without the stats wrapper, for hot loops."""
    hi = window.theta2 + 0.5
    lo = window.theta1 - 0.5
    if stddev == 0.0:
        return 1.0 if lo < mean <= hi else 0.0
    scale = stddev * math.sqrt(2.0)
    return 0.5 * (math.erf((hi - mean) / scale) - math.erf((lo - mean) / scale))


def normal_window_prob(stats: ApproximationStats, window: DemandWindow) -> float:
    """Window probability under the Normal approximation with continuity correction.

    The discrete window [theta1, theta2] widens by half a unit on each side.
    A zero-variance set degenerates to a point mass at the mean, so the result
    is the indicator of the corrected window.
    """
    return normal_window_raw(stats.mean, stats.stddev, window)


def poisson_error_bound(probs: Sequence[float]) -> float:
    """Upper bound on the CMF deviation of the Poisson approximation.

    min(1/mean, 1) * sum p_j^2, valid uniformly over all thresholds; always
    lies in [0, 1].
    """
    p = as_prob_array(probs)
    mean = float(p.sum())
    square_sum = float((p * p).sum())
    if mean == 0.0:
        return 0.0
    return min(1.0 / mean, 1.0) * square_sum


def binomial_error_bound(probs: Sequence[float]) -> float:
    """Upper bound on half the L1 PMF distance to the matched Binomial.

    The Binomial shares the mean (success probability mean/n); the bound
    scales the dispersion sum (p_i - p_bar)^2. At p_bar in {0, 1} every p_i
    equals p_bar, so the bound degenerates to 0.
    """
    p = as_prob_array(probs)
    n = p.size
    p_bar = float(p.mean())
    if p_bar <= 0.0 or p_bar >= 1.0:
        return 0.0
    dispersion = float(((p - p_bar) ** 2).sum())
    prefactor = (1.0 - p_bar ** (n + 1) - (1.0 - p_bar) ** (n + 1)) / (
        (n + 1) * p_bar * (1.0 - p_bar)
    )
    return prefactor * dispersion
