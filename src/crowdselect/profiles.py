"""Worker similarity from task histories, feeding the similarity-driven model.

Groups (worker, task, text) records into per-worker bags of words, fits a
multinomial-mixture topic model over them with EM, and turns the workers'
topic posteriors into a KL-based experience distance, symmetrized into a
similarity matrix consumable by the S-Model solvers.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

SMOOTHING = 1e-10
# Most topics em_fit fits: its word table holds n_topics x vocabulary floats,
# so an unchecked count would allocate in proportion to one number.
MAX_TOPICS = 1024
# Most EM iterations em_fit runs. Fits of the benchmark's 300-worker corpora
# took 172-2,098 iterations to reach tol = 1e-7; the cap is about 5 times
# that, so a zero tol still ends.
EM_MAX_ITER = 10_000
# em_fit's tol and max_iter defaults, which `profile fit` shows.
EM_TOL = 1e-7
EM_ITER = 200

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase runs of letters and digits."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True, eq=False)
class Experience:
    """A worker's task history as a bag of words."""

    counts: Mapping[str, int]

    def __post_init__(self):
        # NaN fails every comparison, so it is rejected by name
        if any(not math.isfinite(c) for c in self.counts.values()):
            raise ValueError("word counts must be finite")
        if any(c < 0 for c in self.counts.values()):
            raise ValueError("word counts must be non-negative")

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "Experience":
        return cls(counts=dict(Counter(tokens)))


@dataclass(frozen=True, eq=False)
class TopicModel:
    """Multinomial mixture over a fixed vocabulary.

    pi holds the topic priors, mu the per-topic word distributions (rows sum
    to one), and log_likelihood_trace one log-likelihood per parameter set EM
    visited, from the initial set to the final one.
    """

    pi: np.ndarray
    mu: np.ndarray
    vocab: tuple[str, ...]
    log_likelihood_trace: tuple[float, ...] = field(default=())

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "mu", mu)
        if pi.ndim != 1 or mu.ndim != 2:
            raise ValueError("pi must be a vector and mu a matrix")
        if not all(isinstance(word, str) for word in self.vocab):
            raise ValueError("vocabulary entries must be strings")
        if len(set(self.vocab)) != len(self.vocab):
            raise ValueError("vocabulary entries must be unique")
        if mu.shape != (pi.size, len(self.vocab)):
            raise ValueError("mu must be (topics, vocabulary) shaped")
        if not (np.all(np.isfinite(pi)) and np.all(np.isfinite(mu))):
            raise ValueError("mixture parameters must be finite")
        if np.any(pi < 0) or np.any(mu < 0):
            raise ValueError("mixture parameters must be non-negative")
        if abs(pi.sum() - 1.0) > 1e-9:
            raise ValueError("topic priors must sum to 1")
        if np.abs(mu.sum(axis=1) - 1.0).max() > 1e-9:
            raise ValueError("each topic's word distribution must sum to 1")

    @property
    def n_topics(self) -> int:
        return self.pi.size


def _counts_matrix(
    experiences: Sequence[Experience], vocab: Sequence[str]
) -> np.ndarray:
    index = {w: j for j, w in enumerate(vocab)}
    mat = np.zeros((len(experiences), len(vocab)))
    for i, exp in enumerate(experiences):
        for word, count in exp.counts.items():
            j = index.get(word)
            if j is not None:
                mat[i, j] = count
    return mat


def _smoothed(dist: np.ndarray) -> np.ndarray:
    """Distributions along the last axis, plus SMOOTHING and renormalized, so none is zero."""
    dist = dist + SMOOTHING
    return dist / dist.sum(axis=-1, keepdims=True)


def _smooth_rows(mat: np.ndarray) -> np.ndarray:
    """Normalize rows into distributions, then smooth them.

    A row with no mass at all (a dead mixture component) falls back to
    uniform rather than dividing by zero.
    """
    totals = mat.sum(axis=1, keepdims=True)
    safe = np.where(totals > 0.0, totals, 1.0)
    return _smoothed(np.where(totals > 0.0, mat / safe, 1.0 / mat.shape[1]))


def _e_step(counts: np.ndarray, pi: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Topic posteriors and log evidence per count row: the one place the log-joint is formed.

    The log evidence is the log-sum-exp of each row of the log-joint, in the
    arithmetic of scipy.special.logsumexp (Blanchard, Higham and Higham
    2021, "Accurately computing the log-sum-exp and softmax functions"):
    with M the row's largest entry, m the number of entries equal to it and
    s the sum of exp(a - M) over the others, it is log1p(s / m) + log(m) + M.
    A non-finite maximum is the result itself: -inf where every entry is
    -inf, +inf where one is, NaN where one is NaN.
    """
    log_joint = counts @ np.log(mu).T + np.log(pi)  # (rows, topics)
    top = log_joint.max(axis=1, keepdims=True)
    is_top = log_joint == top
    count = is_top.sum(axis=1, keepdims=True)
    # a non-finite maximum makes inf - inf, 0 / 0 or log(0) here; such rows
    # are replaced below
    with np.errstate(divide="ignore", invalid="ignore"):
        rest = np.exp(np.where(is_top, -np.inf, log_joint) - top).sum(axis=1, keepdims=True)
        log_evidence = np.log1p(rest / count) + np.log(count) + top
    log_evidence = np.where(np.isfinite(top), log_evidence, top)
    return np.exp(log_joint - log_evidence), log_evidence[:, 0]


def em_fit(
    experiences: Sequence[Experience],
    n_topics: int,
    tol: float = EM_TOL,
    max_iter: int = EM_ITER,
    seed: int = 0,
) -> TopicModel:
    """Fit the multinomial mixture by expectation-maximization.

    E-step computes per-collection topic posteriors in log space; M-step
    re-estimates priors as posterior averages and word distributions as
    posterior-weighted relative frequencies, smoothed so no word probability
    can collapse to zero. Stops one M-step after the log-likelihood gain
    drops below tol, or after max_iter M-steps.
    Deterministic for a fixed seed: priors start uniform, word rows start at
    seeded Dirichlet draws. tol must be finite and non-negative, and
    max_iter lie in [1, EM_MAX_ITER].
    """
    if not 1 <= n_topics <= MAX_TOPICS:
        raise ValueError(f"n_topics must lie in [1, {MAX_TOPICS}], got {n_topics}")
    # NaN fails every comparison, so a NaN tol would never stop the loop
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    if not 1 <= max_iter <= EM_MAX_ITER:
        raise ValueError(f"max_iter must lie in [1, {EM_MAX_ITER}], got {max_iter}")
    if not experiences:
        raise ValueError("need at least one experience collection")
    if any(e.total == 0 for e in experiences):
        raise ValueError("experience collections must be non-empty")
    vocab = tuple(sorted({w for e in experiences for w in e.counts}))
    counts = _counts_matrix(experiences, vocab)

    rng = np.random.default_rng(seed)
    pi = np.full(n_topics, 1.0 / n_topics)
    mu = _smooth_rows(rng.dirichlet(np.ones(len(vocab)), size=n_topics))

    posteriors, log_evidence = _e_step(counts, pi, mu)
    trace = [float(log_evidence.sum())]
    for _ in range(max_iter):
        pi = _smoothed(posteriors.mean(axis=0))
        mu = _smooth_rows(posteriors.T @ counts)
        posteriors, log_evidence = _e_step(counts, pi, mu)
        trace.append(float(log_evidence.sum()))
        # the gain into the parameters this M-step started from
        if len(trace) > 2 and abs(trace[-2] - trace[-3]) < tol:
            break
    return TopicModel(pi=pi, mu=mu, vocab=vocab, log_likelihood_trace=tuple(trace))


def topic_posterior(experience: Experience, model: TopicModel) -> np.ndarray:
    """Posterior topic distribution of one worker's experience; unknown words dropped."""
    # a model file's zero probability makes a NaN row, returned as it is
    with np.errstate(divide="ignore", invalid="ignore"):
        return _e_step(_counts_matrix([experience], model.vocab), model.pi, model.mu)[0][0]


def kl_divergence(p: Sequence[float], q: Sequence[float]) -> float:
    """KL divergence (nats) between two distributions, smoothed against zeros."""
    pa = np.asarray(p, dtype=float)
    qa = np.asarray(q, dtype=float)
    if pa.shape != qa.shape or pa.ndim != 1:
        raise ValueError("distributions must be 1-d with equal length")
    for arr in (pa, qa):
        if not np.all(np.isfinite(arr)):
            raise ValueError("distributions must be finite")
        if np.any(arr < 0.0):
            raise ValueError("distributions must be non-negative")
        if abs(float(arr.sum()) - 1.0) > 1e-6:
            raise ValueError("distributions must sum to 1 within 1e-6")
    pa, qa = _smoothed(pa), _smoothed(qa)
    # KL is non-negative, but rounding leaves about -1e-16 for near-equal
    # inputs; np.maximum clamps that and still passes NaN through
    return float(np.maximum((pa * np.log(pa / qa)).sum(), 0.0))


def experience_similarity_matrix(
    experiences: Sequence[Experience], model: TopicModel
) -> np.ndarray:
    """Pairwise worker similarity as negated symmetrized topic KL distance.

    The raw KL distance is asymmetric; averaging both directions yields the
    symmetric matrix the S-Model requires. Diagonal is +0.0. All pairs come
    from one (workers, topics) posterior matrix: with smoothed rows p,
    KL(p_i || p_j) = sum_t p_i log p_i - (p @ log(p).T)[i, j], the same value
    kl_divergence gives for the pair, clamped at 0 as it is there, so no
    similarity is positive.
    """
    # a model file's zero probability makes NaN rows (0 * log 0, then -inf - -inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        post = _e_step(_counts_matrix(experiences, model.vocab), model.pi, model.mu)[0]
    # kl_divergence's checks, written so that NaN rows fail them too
    if not (np.all(post >= 0.0) and np.all(np.abs(post.sum(axis=1) - 1.0) <= 1e-6)):
        raise ValueError("topic posteriors must be distributions summing to 1 within 1e-6")
    smooth = _smoothed(post)
    logs = np.log(smooth)
    div = (smooth * logs).sum(axis=1)[:, None] - smooth @ logs.T
    # clamp the rounding below zero, as kl_divergence does
    np.maximum(div, 0.0, out=div)
    sim = -(div + div.T) / 2.0
    np.fill_diagonal(sim, 0.0)  # +0.0, where negating a zeroed div gives -0.0
    return sim


def build_experiences(
    records: Sequence[tuple[str, str, str]],
) -> tuple[list[str], list[Experience]]:
    """Group (worker_id, task_id, text) records into per-worker bags of words.

    Workers come back in order of first appearance; each worker's texts are
    tokenized and pooled into a single experience collection.
    """
    bags: dict[str, Counter] = {}
    order: list[str] = []
    for worker_id, _task_id, text in records:
        if worker_id not in bags:
            bags[worker_id] = Counter()
            order.append(worker_id)
        bags[worker_id].update(tokenize(text))
    return order, [Experience(counts=dict(bags[w])) for w in order]
