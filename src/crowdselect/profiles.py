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
    to one), and log_likelihood_trace the objective after each EM iteration.
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


def _smooth_rows(mat: np.ndarray) -> np.ndarray:
    """Normalize rows into distributions, then smooth additively and renormalize.

    A row with no mass at all (a dead mixture component) falls back to
    uniform rather than dividing by zero.
    """
    totals = mat.sum(axis=1, keepdims=True)
    safe = np.where(totals > 0.0, totals, 1.0)
    rows = np.where(totals > 0.0, mat / safe, 1.0 / mat.shape[1])
    rows = rows + SMOOTHING
    return rows / rows.sum(axis=1, keepdims=True)


def _logsumexp(a: np.ndarray, axis: int, keepdims: bool = False) -> np.ndarray:
    """log(sum(exp(a))) along axis, computed without overflow.

    The arithmetic of scipy.special.logsumexp (Blanchard, Higham and Higham
    2021, "Accurately computing the log-sum-exp and softmax functions"):
    with M the largest entry, m the number of entries equal to it and s the
    sum of exp(a - M) over the others, the result is
    log1p(s / m) + log(m) + M. A non-finite maximum is the result itself:
    -inf where every entry is -inf, +inf where one is, NaN where one is NaN.
    """
    top = np.max(a, axis=axis, keepdims=True)
    is_top = a == top
    count = is_top.sum(axis=axis, keepdims=True)
    # a non-finite maximum makes inf - inf, 0 / 0 or log(0) here; such rows
    # are replaced below
    with np.errstate(divide="ignore", invalid="ignore"):
        rest = np.exp(np.where(is_top, -np.inf, a) - top).sum(axis=axis, keepdims=True)
        out = np.log1p(rest / count) + np.log(count) + top
    out = np.where(np.isfinite(top), out, top)
    return out if keepdims else np.squeeze(out, axis=axis)


def em_fit(
    experiences: Sequence[Experience],
    n_topics: int,
    tol: float = 1e-7,
    max_iter: int = 200,
    seed: int = 0,
) -> TopicModel:
    """Fit the multinomial mixture by expectation-maximization.

    E-step computes per-collection topic posteriors in log space; M-step
    re-estimates priors as posterior averages and word distributions as
    posterior-weighted relative frequencies, smoothed so no word probability
    can collapse to zero. Stops when the log-likelihood gain drops below tol.
    Deterministic for a fixed seed: priors start uniform, word rows start at
    seeded Dirichlet draws.
    """
    if not 1 <= n_topics <= MAX_TOPICS:
        raise ValueError(f"n_topics must lie in [1, {MAX_TOPICS}], got {n_topics}")
    if not experiences:
        raise ValueError("need at least one experience collection")
    if any(e.total == 0 for e in experiences):
        raise ValueError("experience collections must be non-empty")
    vocab = tuple(sorted({w for e in experiences for w in e.counts}))
    counts = _counts_matrix(experiences, vocab)

    rng = np.random.default_rng(seed)
    pi = np.full(n_topics, 1.0 / n_topics)
    mu = _smooth_rows(rng.dirichlet(np.ones(len(vocab)), size=n_topics))

    trace: list[float] = []
    previous = -math.inf
    for _ in range(max_iter):
        log_joint = counts @ np.log(mu).T + np.log(pi)  # (collections, topics)
        log_evidence = _logsumexp(log_joint, axis=1)
        posteriors = np.exp(log_joint - log_evidence[:, None])

        pi = posteriors.mean(axis=0)
        pi = (pi + SMOOTHING) / (pi + SMOOTHING).sum()
        mu = _smooth_rows(posteriors.T @ counts)

        log_likelihood = float(log_evidence.sum())
        trace.append(log_likelihood)
        if abs(log_likelihood - previous) < tol:
            break
        previous = log_likelihood

    # objective at the final parameters, so the trace covers the last M-step
    final = float(
        _logsumexp(counts @ np.log(mu).T + np.log(pi), axis=1).sum()
    )
    trace.append(final)
    return TopicModel(pi=pi, mu=mu, vocab=vocab, log_likelihood_trace=tuple(trace))


def _posteriors(counts: np.ndarray, model: TopicModel) -> np.ndarray:
    """Posterior topic distribution of each row of a (workers, vocabulary) count matrix."""
    # a zero probability makes NaN rows (0 * log 0, then -inf - -inf), which
    # callers reject
    with np.errstate(divide="ignore", invalid="ignore"):
        log_joint = counts @ np.log(model.mu).T + np.log(model.pi)
        return np.exp(log_joint - _logsumexp(log_joint, axis=1, keepdims=True))


def topic_posterior(experience: Experience, model: TopicModel) -> np.ndarray:
    """Posterior topic distribution of one worker's experience; unknown words dropped."""
    return _posteriors(_counts_matrix([experience], model.vocab), model)[0]


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
    pa = (pa + SMOOTHING) / (pa + SMOOTHING).sum()
    qa = (qa + SMOOTHING) / (qa + SMOOTHING).sum()
    # KL is non-negative, but rounding leaves about -1e-16 for near-equal
    # inputs; np.maximum clamps that and still passes NaN through
    return float(np.maximum((pa * np.log(pa / qa)).sum(), 0.0))


def experience_similarity_matrix(
    experiences: Sequence[Experience], model: TopicModel
) -> np.ndarray:
    """Pairwise worker similarity as negated symmetrized topic KL distance.

    The raw KL distance is asymmetric; averaging both directions yields the
    symmetric matrix the S-Model requires. Diagonal is zero. All pairs come
    from one (workers, topics) posterior matrix: with smoothed rows p,
    KL(p_i || p_j) = sum_t p_i log p_i - (p @ log(p).T)[i, j], the same value
    kl_divergence gives for the pair.
    """
    if len(experiences) < 2:
        raise ValueError("need at least two workers")
    post = _posteriors(_counts_matrix(experiences, model.vocab), model)
    # kl_divergence's checks, written so that NaN rows fail them too
    if not (np.all(post >= 0.0) and np.all(np.abs(post.sum(axis=1) - 1.0) <= 1e-6)):
        raise ValueError("topic posteriors must be distributions summing to 1 within 1e-6")
    smooth = post + SMOOTHING
    smooth /= smooth.sum(axis=1, keepdims=True)
    logs = np.log(smooth)
    div = (smooth * logs).sum(axis=1)[:, None] - smooth @ logs.T
    np.fill_diagonal(div, 0.0)
    return -(div + div.T) / 2.0


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
