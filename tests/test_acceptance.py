"""Acceptance suite: one test per headline criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Budgets and tolerances are pinned in the assertions.
"""

import math
import time

import numpy as np
from scipy import stats

from crowdselect import bench, pbd, profiles, smodel, tmodel
from crowdselect.bench import DistSpec, derive_seed
from crowdselect.pbd import DemandWindow
from crowdselect.tmodel import CandidatePool, SaParams

BASE_SEED = 20240817


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion} failed: {detail}"


def random_windows(rng: np.random.Generator, count: int):
    for _ in range(count):
        theta2 = int(rng.integers(1, 21))
        theta1 = int(rng.integers(0, theta2))
        theta0 = int(rng.integers(0, 4))
        k = theta2 + theta0
        yield DemandWindow(theta1=theta1, theta0=theta0, k=k)


def test_c01_pmf_oracle_equivalence():
    rng = np.random.default_rng(derive_seed(BASE_SEED, "c1"))
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        probs = rng.uniform(0.0, 1.0, n)
        gap = float(np.abs(pbd.pmf_dftcf(probs) - pbd.pmf_bruteforce(probs)).max())
        worst = max(worst, gap)
    elapsed = time.perf_counter() - started
    report(
        "C01 pmf-oracle",
        worst <= 1e-9 and elapsed < 10.0,
        f"worst entrywise gap {worst:.2e} over 1000 vectors in {elapsed:.1f}s",
    )


def test_c02_window_probability_oracle():
    value = pbd.window_prob([0.2, 0.4, 0.6, 0.9], DemandWindow(theta1=1, theta0=1, k=4))
    gap = abs(value - 0.9376)
    report("C02 window-oracle", gap <= 1e-12, f"tau {value!r}, gap {gap:.2e}")


def _unimodal_with_peak(grid, values, peak) -> bool:
    """Non-decreasing then non-increasing (1e-12 slack), maximum at the peak.

    Near a flat top the float increments vanish, so the argmax may sit many
    grid points from the analytic peak while the function values there are
    identical to slack; accept either the position or the value agreeing.
    """
    turn = int(np.argmax(values))
    step = grid[1] - grid[0]
    if not (
        np.all(np.diff(values[: turn + 1]) >= -1e-12)
        and np.all(np.diff(values[turn:]) <= 1e-12)
    ):
        return False
    nearest = int(np.argmin(np.abs(grid - peak)))
    return (
        abs(grid[turn] - peak) <= step + 1e-12
        or values[turn] - values[nearest] <= 1e-12
    )


def test_c03_window_score_unimodality():
    rng = np.random.default_rng(derive_seed(BASE_SEED, "c3"))
    started = time.perf_counter()
    failures = []
    for window in random_windows(rng, 100):
        peak = pbd.poisson_window_peak(window)
        grid = np.linspace(0.0, window.k, 1002)[1:-1]
        values = np.array([pbd.poisson_window_prob(x, window) for x in grid])
        if not _unimodal_with_peak(grid, values, peak):
            failures.append(("poisson", window))
        p_star, _ = pbd.binomial_window_peak(window)
        p_grid = np.linspace(0.0, 1.0, 1002)[1:-1]
        p_values = np.array([pbd.binomial_window_prob(p, window) for p in p_grid])
        if not _unimodal_with_peak(p_grid, p_values, p_star):
            failures.append(("binomial", window))
    elapsed = time.perf_counter() - started
    report(
        "C03 unimodality",
        not failures and elapsed < 5.0,
        f"{len(failures)} violations over 100 windows x 2 families in {elapsed:.1f}s",
    )


def test_c04_submodularity_identity():
    rng = np.random.default_rng(derive_seed(BASE_SEED, "c4"))
    draws = rng.uniform(-1.0, 1.0, (20, 20))
    sim = np.triu(draws, 1)
    sim = sim + sim.T
    worst = 0.0
    for _ in range(10_000):
        size = int(rng.integers(1, 11))
        picks = rng.choice(20, size=size + 2, replace=False)
        crowd = [int(i) for i in picks[:-2]]
        w0, w1 = int(picks[-2]), int(picks[-1])
        lhs = smodel.sum_objective(crowd + [w0], sim) + smodel.sum_objective(crowd + [w1], sim)
        rhs = smodel.sum_objective(crowd + [w0, w1], sim) + smodel.sum_objective(crowd, sim)
        worst = max(worst, abs((lhs - rhs) - sim[w0, w1]))
    report("C04 submodularity", worst <= 1e-12, f"worst identity error {worst:.2e} over 10000 triples")


def test_c05_smodel_effectiveness():
    started = time.perf_counter()
    details = []
    ok = True
    for k in (3, 5, 7):
        greedy_scores, exact_scores = [], []
        wins = 0
        for trial in range(100):
            sim = bench.gen_similarity_matrix(
                30, DistSpec("uniform"), derive_seed(BASE_SEED, "c5", trial)
            )
            greedy_div = smodel.diversity(smodel.greedy_select(sim, k), sim)
            exact_div = smodel.diversity(smodel.exact_select(sim, k), sim)
            rng = np.random.default_rng(derive_seed(BASE_SEED, "c5", trial, k, "rand"))
            random_div = smodel.diversity(
                [int(i) for i in rng.choice(30, size=k, replace=False)], sim
            )
            greedy_scores.append(greedy_div)
            exact_scores.append(exact_div)
            wins += greedy_div > random_div
        ratio = float(np.mean(greedy_scores) / np.mean(exact_scores))
        ok = ok and ratio >= 0.95 and wins >= 95
        details.append(f"k{k}: ratio={ratio:.4f} wins={wins}")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 120.0
    report("C05 smodel-effectiveness", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_c06_tmodel_solver_ordering():
    started = time.perf_counter()
    window = DemandWindow(theta1=2, theta0=2, k=8)
    taus = {"exact": [], "dftcf-sa": [], "normal-sa": [], "random": []}
    for trial in range(100):
        pool = bench.gen_opinions(
            20, DistSpec("uniform"), derive_seed(BASE_SEED, "c6", trial)
        )
        taus["exact"].append(tmodel.exact_select(pool, window).tau)
        taus["dftcf-sa"].append(
            tmodel.sa_select(
                pool, window, "dftcf", SaParams(seed=derive_seed(BASE_SEED, "c6", trial, "d"))
            ).tau
        )
        taus["normal-sa"].append(
            tmodel.sa_select(
                pool, window, "normal", SaParams(seed=derive_seed(BASE_SEED, "c6", trial, "n"))
            ).tau
        )
        taus["random"].append(
            tmodel.random_select(pool, window, seed=derive_seed(BASE_SEED, "c6", trial, "r")).tau
        )
    means = {name: float(np.mean(vals)) for name, vals in taus.items()}
    elapsed = time.perf_counter() - started
    ordered = (
        means["exact"] >= means["dftcf-sa"] >= means["normal-sa"] >= means["random"]
    )
    close = means["dftcf-sa"] >= 0.98 * means["exact"]
    per_trial = sum(
        sa >= 0.98 * ex for sa, ex in zip(taus["dftcf-sa"], taus["exact"])
    )
    report(
        "C06 tmodel-ordering",
        ordered and close and per_trial >= 95 and elapsed < 600.0,
        " ".join(f"{name}={value:.5f}" for name, value in means.items())
        + f"; dftcf/exact={means['dftcf-sa'] / means['exact']:.5f};"
        + f" per-trial 0.98x in {per_trial}/100; {elapsed:.0f}s",
    )


def test_c07_error_bounds():
    rng = np.random.default_rng(derive_seed(BASE_SEED, "c7"))
    worst_poisson = worst_binomial = -1.0
    bounds_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        probs = rng.uniform(0.0, 1.0, n)
        mass = pbd.pmf_bruteforce(probs)
        exact_cmf = np.cumsum(mass)
        mean = float(probs.sum())
        poisson_dev = float(
            np.abs(exact_cmf - stats.poisson.cdf(np.arange(n + 1), mean)).max()
        )
        poisson_bound = pbd.poisson_error_bound(probs)
        bounds_ok = bounds_ok and 0.0 <= poisson_bound <= 1.0
        worst_poisson = max(worst_poisson, poisson_dev - poisson_bound)
        p_bar = mean / n
        half_l1 = 0.5 * float(
            np.abs(mass - stats.binom.pmf(np.arange(n + 1), n, p_bar)).sum()
        )
        worst_binomial = max(worst_binomial, half_l1 - pbd.binomial_error_bound(probs))
    report(
        "C07 error-bounds",
        worst_poisson <= 1e-12 and worst_binomial <= 1e-12 and bounds_ok,
        f"max (deviation - bound): poisson {worst_poisson:.2e}, binomial {worst_binomial:.2e}",
    )


def test_c08_sa_determinism():
    rng = np.random.default_rng(derive_seed(BASE_SEED, "c8"))
    mismatches = 0
    for trial in range(20):
        n = int(rng.integers(10, 17))
        k = int(rng.integers(4, 9))
        pool = CandidatePool.from_probs(rng.uniform(0.0, 1.0, n))
        window = DemandWindow(theta1=1, theta0=1, k=k)
        objective = "dftcf" if trial % 2 == 0 else "normal"
        params = SaParams(seed=int(rng.integers(0, 2**62)))  # paper-default schedule
        first = tmodel.sa_select(pool, window, objective, params)
        second = tmodel.sa_select(pool, window, objective, params)
        mismatches += first.subset != second.subset
    report("C08 sa-determinism", mismatches == 0, f"{mismatches} mismatches over 20 instances")


def test_c09_em_ascent():
    rng = np.random.default_rng(derive_seed(BASE_SEED, "c9"))
    worst_drop = -math.inf
    invariants_ok = True
    for trial in range(50):
        n_docs = int(rng.integers(2, 51))
        vocab_size = int(rng.integers(5, 201))
        n_topics = int(rng.integers(1, 6))
        words = [f"w{i}" for i in range(vocab_size)]
        docs = [
            profiles.Experience.from_tokens(
                rng.choice(words, size=int(rng.integers(3, 40))).tolist()
            )
            for _ in range(n_docs)
        ]
        model = profiles.em_fit(docs, n_topics, seed=trial)
        trace = np.asarray(model.log_likelihood_trace)
        worst_drop = max(worst_drop, float((-np.diff(trace)).max(initial=-math.inf)))
        invariants_ok = (
            invariants_ok
            and abs(model.pi.sum() - 1.0) <= 1e-9
            and float(np.abs(model.mu.sum(axis=1) - 1.0).max()) <= 1e-9
        )
        if trial < 5:
            # prefix runs revalidate the normalization invariants mid-trajectory
            # (each construction re-checks them) and must extend the trace
            for horizon in (1, 2, 3):
                partial = profiles.em_fit(docs, n_topics, max_iter=horizon, seed=trial)
                prefix = np.asarray(partial.log_likelihood_trace)[:horizon]
                assert np.allclose(prefix, trace[: len(prefix)], atol=1e-9)
    report(
        "C09 em-ascent",
        worst_drop <= 1e-8 and invariants_ok,
        f"worst per-step drop {worst_drop:.2e} over 50 corpora",
    )


def test_c10_efficiency_shape():
    rng = np.random.default_rng(derive_seed(BASE_SEED, "c10"))
    details = []
    ok = True

    sim = bench.gen_similarity_matrix(25, DistSpec("uniform"), derive_seed(BASE_SEED, "c10s"))
    started = time.perf_counter()
    smodel.exact_select(sim, 10)
    t_exact_s = time.perf_counter() - started
    for name, call in (
        ("greedy", lambda: smodel.greedy_select(sim, 10)),
        ("random", lambda: rng.choice(25, size=10, replace=False)),
    ):
        started = time.perf_counter()
        call()
        elapsed = max(time.perf_counter() - started, 1e-9)
        ok = ok and t_exact_s >= 10.0 * elapsed
        details.append(f"s:{name} x{t_exact_s / elapsed:.0f}")

    pool = bench.gen_opinions(25, DistSpec("uniform"), derive_seed(BASE_SEED, "c10t"))
    window = DemandWindow(theta1=3, theta0=3, k=10)
    started = time.perf_counter()
    tmodel.exact_select(pool, window)
    t_exact_t = time.perf_counter() - started
    for name, call in (
        ("poisson", lambda: tmodel.select_poisson(pool, window)),
        ("binomial", lambda: tmodel.select_binomial(pool, window)),
        ("normal-sa", lambda: tmodel.sa_select(pool, window, "normal", SaParams(seed=1))),
        ("dftcf-sa", lambda: tmodel.sa_select(pool, window, "dftcf", SaParams(seed=1))),
    ):
        started = time.perf_counter()
        call()
        elapsed = max(time.perf_counter() - started, 1e-9)
        ok = ok and t_exact_t >= 10.0 * elapsed
        details.append(f"t:{name} x{t_exact_t / elapsed:.0f}")

    report(
        "C10 efficiency-shape",
        ok,
        f"exact s={t_exact_s:.2f}s t={t_exact_t:.2f}s; ratios " + " ".join(details),
    )


def test_example_pool_cross_solver_consistency():
    """End-to-end sanity on the running example pool, tying the suite together."""
    pool = CandidatePool.from_probs([0.2, 0.3, 0.4, 0.6, 0.8, 0.9])
    window = DemandWindow(theta1=1, theta0=1, k=4)
    exact = tmodel.exact_select(pool, window)
    sa = tmodel.sa_select(pool, window, "dftcf", SaParams(seed=0))
    assert sa.tau <= exact.tau + 1e-12
    assert sa.tau >= 0.98 * exact.tau
    specific = pbd.window_prob([0.2, 0.4, 0.6, 0.9], window)
    assert abs(specific - 0.9376) <= 1e-12
