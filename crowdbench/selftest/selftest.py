"""Self-test of the benchmark itself, on tiny inputs.

    python3 crowdbench/selftest/selftest.py

Checks that the independent references in checks.py agree with direct
enumeration, and that the runner counts a corrupted result (a wrong tau, a
duplicate index, a wrong size, a subset that changes between passes) as a
failed operation, and that the quality metric is a heuristic's score as a
share of its group's best. Exits 0 when every check holds.
"""

import dataclasses
import itertools
import math
import random
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TOL = 1e-12


def expect(condition, message="") -> None:
    """A check that also holds under python -O."""
    if not condition:
        raise AssertionError(message)


def outcome_tau(probs, theta1, theta2):
    """Window probability by summing over all 2^k opinion outcomes."""
    total = 0.0
    for outcome in itertools.product((0, 1), repeat=len(probs)):
        if theta1 <= sum(outcome) <= theta2:
            total += math.prod(p if o else 1.0 - p for p, o in zip(probs, outcome))
    return total


def test_window_tau(rng):
    for _ in range(40):
        k = rng.randint(1, 8)
        probs = [rng.random() for _ in range(k)] + [0.0, 1.0, 0.5][: rng.randint(0, 3)]
        k = len(probs)
        theta1 = rng.randint(0, k)
        theta2 = rng.randint(theta1, k)
        expect(abs(checks.window_tau(probs, theta1, theta2) - outcome_tau(probs, theta1, theta2)) <= TOL)


def test_best_tau(rng):
    probs = [rng.random() for _ in range(7)]
    want = max(outcome_tau([probs[i] for i in c], 1, 2) for c in itertools.combinations(range(7), 3))
    expect(abs(checks.best_tau_by_enumeration(probs, 3, 1, 2) - want) <= TOL)


def test_diversity(rng):
    n = 7
    sim = workloads.uniform_similarity(n, np.random.default_rng(rng.getrandbits(32)))
    best = -math.inf
    for crowd in itertools.combinations(range(n), 3):
        pair_sum = sum(sim[i, j] for i in crowd for j in crowd if i != j) / 2.0
        div = -pair_sum / 3
        expect(abs(checks.crowd_diversity(crowd, sim) - div) <= TOL)
        best = max(best, div)
    expect(abs(checks.best_diversity_by_enumeration(sim, 3) - best) <= TOL)


def test_posteriors_and_kl(rng):
    topics, vocab, workers = 3, 5, 6
    gen = np.random.default_rng(rng.getrandbits(32))
    pi = gen.dirichlet(np.ones(topics))
    mu = gen.dirichlet(np.ones(vocab), size=topics)
    counts = gen.integers(0, 4, size=(workers, vocab)).astype(float)
    post = checks.topic_posteriors(counts, pi, mu)
    for i in range(workers):
        joint = [pi[t] * math.prod(mu[t, w] ** counts[i, w] for w in range(vocab)) for t in range(topics)]
        for t in range(topics):
            expect(abs(post[i, t] - joint[t] / sum(joint)) <= 1e-12)
    sim = checks.kl_similarity(post)
    smooth = [[(p + checks.KL_SMOOTHING) / sum(q + checks.KL_SMOOTHING for q in row) for p in row]
              for row in post]
    for i in range(workers):
        for j in range(workers):
            kl_ij = sum(a * math.log(a / b) for a, b in zip(smooth[i], smooth[j]))
            kl_ji = sum(b * math.log(b / a) for a, b in zip(smooth[i], smooth[j]))
            want = 0.0 if i == j else -(kl_ij + kl_ji) / 2.0
            expect(abs(sim[i, j] - want) <= 1e-12)


def test_group_records():
    records = [("b", "t1", "x y"), ("a", "t1", "y"), ("b", "t2", "x")]
    expect(checks.group_records(records) == (["b", "a"], [{"x": 2, "y": 1}, {"y": 1}]))


def small_group(rng):
    probs = [rng.random() for _ in range(8)]
    group = workloads.t_group("selftest/n8/k4", probs, 4, 1, 1, ("exact", "random"), 0)
    return group, probs


def corrupt(op, change):
    call = op.call
    op.call = lambda out: change(call(out))


def test_clean_pass_has_no_failures(rng):
    result = run.run_pass([small_group(rng)[0]])
    expect(result.attempted == 2 and not result.failures, result.failures)


def test_corrupted_results_fail(rng):
    corruptions = [
        lambda r: dataclasses.replace(r, tau=r.tau + 1e-6),
        lambda r: dataclasses.replace(r, indices=(r.indices[0],) * len(r.indices)),
        lambda r: dataclasses.replace(r, indices=r.indices[:-1], subset=r.subset[:-1]),
    ]
    groups = []
    for change in corruptions:
        group = small_group(rng)[0]
        corrupt(group.ops[1], change)  # the random pick: exact stays the referee
        groups.append(group)
    result = run.run_pass(groups)
    failed = sorted(label for label, _ in result.failures)
    expect(result.attempted == 6 and failed == ["selftest/n8/k4/random"] * 3, result.failures)


def test_lost_optimum_fails_referee(rng):
    group, probs = small_group(rng)
    worst = min(itertools.combinations(range(8), 4),
                key=lambda c: checks.window_tau([probs[i] for i in c], 1, 3))
    worst_tau = checks.window_tau([probs[i] for i in worst], 1, 3)
    # a valid subset with its true tau, but worse than the random pick
    corrupt(group.ops[0], lambda r: dataclasses.replace(r, indices=worst, subset=worst, tau=worst_tau))
    result = run.run_pass([group])
    expect([label for label, _ in result.failures] == ["selftest/n8/k4/exact"], result.failures)


def test_quality_is_share_of_best(rng):
    probs = [rng.random() for _ in range(8)]
    group = workloads.t_group("selftest/n8/k4", probs, 4, 1, 1, ("exact", "poisson", "random"), 0)
    result = run.run_pass([group])
    exact, poisson = (tuple(s) for s in result.subsets[:2])
    share = (checks.window_tau([probs[i] for i in poisson], 1, 3)
             / checks.window_tau([probs[i] for i in exact], 1, 3))
    expect(len(result.quality) == 1 and abs(result.quality[0] - share) <= TOL, result.quality)


def test_changed_subset_fails(rng):
    group = small_group(rng)[0]
    warm = run.run_pass([group])
    again = run.run_pass([group])
    again.subsets[0] = tuple(reversed(again.subsets[0]))
    run.compare_subsets(warm, again, ["a", "b"])
    expect([label for label, _ in again.failures] == ["a"])


def main() -> int:
    rng = random.Random(20260101)
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    for name, fn in tests:
        fn(rng) if fn.__code__.co_argcount else fn()
        print(f"ok {name}")
    print(f"selftest: {len(tests)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
