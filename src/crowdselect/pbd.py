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
from typing import Sequence

import numpy as np

from .errors import DegenerateWindowError, EnumerationLimitError

# Guard for pmf_bruteforce: enumerating 2**25 subsets is the practical ceiling.
BRUTEFORCE_LIMIT = 25

# Guard for pmf_dftcf, whose cost grows as n^2: 0.4 s at 4096 workers, 1.9 s
# at 8192.
DFTCF_LIMIT = 4096

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
    the same. The cost is O(k^2), so k is guarded by DFTCF_LIMIT. Imaginary
    residue is purely a floating-point artifact; it is checked against
    IMAG_TOL and dropped, and real parts are clamped to [0, 1].
    """
    p = as_prob_array(probs)
    n = p.size
    if n > DFTCF_LIMIT:
        raise EnumerationLimitError(f"DFT-CF PMF limited to {DFTCF_LIMIT} workers, got {n}")
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


def window_prob(probs: Sequence[float], window: DemandWindow) -> float:
    """Exact probability that the positive count lands in [theta1, theta2], both ends inclusive."""
    p = as_prob_array(probs)
    if p.size != window.k:
        raise ValueError(
            f"probability vector has length {p.size}, demand window expects k = {window.k}"
        )
    mass = pmf_dftcf(p)
    total = float(mass[window.theta1 : window.theta2 + 1].sum())
    return min(1.0, max(0.0, total))


class WindowKernel:
    """Window probability for a fixed demand window, with precomputed DFT constants.

    Folding the window sum into per-frequency weights turns each evaluation
    into one characteristic-function product per frequency. tau_many() scores
    a batch of candidate subsets at once for exact enumeration.

    w0 and half_terms hold the same constants as Python scalars for the
    annealing score. Frequencies l and k + 1 - l are conjugate, so the window
    probability is w0 plus the real part of the sum, over the (one_minus_root,
    weight) pairs of half_terms, of weight times the product over members of
    1 - p * one_minus_root; weight counts the middle frequency (k odd) once
    and the others twice.
    """

    def __init__(self, window: DemandWindow):
        self.window = window
        n = window.k + 1
        freqs = np.arange(n)
        self._roots = np.exp(2j * np.pi * freqs / n)
        counts = np.arange(window.theta1, window.theta2 + 1)
        self._weights = np.exp(-2j * np.pi * np.outer(freqs, counts) / n).sum(axis=1) / n
        # frequency 0: the characteristic function is 1
        self.w0 = float(self._weights[0].real)
        self.half_terms = []
        for l in range(1, n // 2 + 1):
            factor = 1.0 if 2 * l == n else 2.0
            self.half_terms.append(
                (complex(1.0 - self._roots[l]), factor * complex(self._weights[l]))
            )

    def tau_many(self, prob_matrix: np.ndarray) -> np.ndarray:
        """Exact window probabilities for a batch of subsets, one row each.

        Every frequency's factors 1 - p(1 - root) are formed in one reused
        (m, k) complex buffer, so the batch needs no other array of that size.
        """
        mat = np.asarray(prob_matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[1] != self.window.k:
            raise ValueError(f"expected a (m, {self.window.k}) probability matrix")
        acc = np.zeros(mat.shape[0], dtype=complex)
        factors = np.empty(mat.shape, dtype=complex)
        for root, weight in zip(self._roots, self._weights):
            np.multiply(mat, 1.0 - root, out=factors)
            np.subtract(1.0, factors, out=factors)
            acc += weight * np.prod(factors, axis=1)
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
    return sum(poisson_pmf(i, rate) for i in range(window.theta1 + 1, window.theta2 + 1))


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


def poisson_pmf(i: int, rate: float) -> float:
    """Poisson(rate) mass at i >= 0, through log-gamma so large i cannot overflow."""
    if rate == 0.0:
        return 1.0 if i == 0 else 0.0
    return math.exp(i * math.log(rate) - math.lgamma(i + 1) - rate)


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


def normal_window_prob(mean: float, stddev: float, window: DemandWindow) -> float:
    """Window probability under the Normal approximation with continuity correction.

    mean and stddev are those of the positive-opinion count: sum p and
    sqrt(sum p(1 - p)). The discrete window [theta1, theta2] widens by half a
    unit on each side. A zero-variance set degenerates to a point mass at the
    mean, so the result is the indicator of the corrected window.
    """
    hi = window.theta2 + 0.5
    lo = window.theta1 - 0.5
    if stddev == 0.0:
        return 1.0 if lo < mean <= hi else 0.0
    scale = stddev * math.sqrt(2.0)
    return 0.5 * (math.erf((hi - mean) / scale) - math.erf((lo - mean) / scale))


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
