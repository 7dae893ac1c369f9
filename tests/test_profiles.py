import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from crowdselect import profiles, smodel
from crowdselect.profiles import Experience, TopicModel


def experience(*tokens) -> Experience:
    return Experience.from_tokens(tokens)


def random_corpus(rng: np.random.Generator, n_docs=8, vocab_size=12):
    words = [f"w{i}" for i in range(vocab_size)]
    docs = []
    for _ in range(n_docs):
        length = int(rng.integers(3, 30))
        docs.append(Experience.from_tokens(rng.choice(words, size=length).tolist()))
    return docs


class TestEmFit:
    def test_single_topic_closed_form(self):
        docs = [experience("a", "a", "b"), experience("b", "c")]
        model = profiles.em_fit(docs, n_topics=1, seed=0)
        assert model.pi == pytest.approx([1.0])
        # corpus frequencies: a 2/5, b 2/5, c 1/5 over sorted vocab (a, b, c)
        assert model.mu[0] == pytest.approx([0.4, 0.4, 0.2], abs=1e-6)

    def test_separable_corpus(self):
        left = [experience(*(["cat", "dog", "pet"] * 5)) for _ in range(3)]
        right = [experience(*(["stock", "bond", "fund"] * 5)) for _ in range(3)]
        model = profiles.em_fit(left + right, n_topics=2, seed=1)
        for doc in left + right:
            posterior = profiles.topic_posterior(doc, model)
            assert posterior.max() >= 1.0 - 1e-6
        # each topic concentrates on one vocabulary half
        left_words = [model.vocab.index(w) for w in ("cat", "dog", "pet")]
        for row in model.mu:
            share = row[left_words].sum()
            assert share >= 1.0 - 1e-6 or share <= 1e-6

    def test_log_likelihood_non_decreasing(self):
        rng = np.random.default_rng(123)
        for seed in range(5):
            docs = random_corpus(rng)
            model = profiles.em_fit(docs, n_topics=3, seed=seed)
            trace = np.asarray(model.log_likelihood_trace)
            assert np.all(np.diff(trace) >= -1e-8)

    def test_normalization_invariants(self):
        rng = np.random.default_rng(5)
        model = profiles.em_fit(random_corpus(rng), n_topics=4, seed=2)
        assert model.pi.sum() == pytest.approx(1.0, abs=1e-9)
        assert model.mu.sum(axis=1) == pytest.approx(np.ones(4), abs=1e-9)
        assert np.all(model.pi >= 0) and np.all(model.mu >= 0)

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(6)
        docs = random_corpus(rng)
        a = profiles.em_fit(docs, n_topics=3, seed=11)
        b = profiles.em_fit(docs, n_topics=3, seed=11)
        assert np.array_equal(a.pi, b.pi)
        assert np.array_equal(a.mu, b.mu)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            profiles.em_fit([experience("a")], n_topics=0)
        with pytest.raises(ValueError):
            profiles.em_fit([], n_topics=1)
        with pytest.raises(ValueError):
            profiles.em_fit([Experience(counts={})], n_topics=1)

    def test_topic_count_bounded(self):
        # the word table holds n_topics x vocabulary floats
        with pytest.raises(ValueError, match="n_topics"):
            profiles.em_fit([experience("a")], n_topics=profiles.MAX_TOPICS + 1)
        model = profiles.em_fit([experience("a")], n_topics=profiles.MAX_TOPICS, max_iter=1)
        assert model.mu.shape == (profiles.MAX_TOPICS, 1)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-7])
    def test_tol_must_be_finite_and_non_negative(self, tol):
        # NaN fails the stopping test on every iteration
        with pytest.raises(ValueError, match="tol"):
            profiles.em_fit([experience("a")], n_topics=1, tol=tol)

    @pytest.mark.parametrize("max_iter", [-5, 0, profiles.EM_MAX_ITER + 1])
    def test_iteration_count_bounded(self, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            profiles.em_fit([experience("a")], n_topics=1, max_iter=max_iter)

    def test_zero_tol_stops_at_max_iter(self):
        docs = [experience("a", "b"), experience("b", "c"), experience("c", "a")]
        model = profiles.em_fit(docs, n_topics=2, tol=0.0, max_iter=25, seed=3)
        # one entry per iteration, and one for the final parameters
        assert len(model.log_likelihood_trace) == 26

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("tol, max_iter", [(profiles.EM_TOL, profiles.EM_ITER), (0.0, 7), (0.0, 1)])
    def test_trace_ends_at_the_returned_parameters(self, seed, tol, max_iter):
        docs = random_corpus(np.random.default_rng(100 + seed), n_docs=12)
        model = profiles.em_fit(docs, n_topics=3, tol=tol, max_iter=max_iter, seed=seed)
        counts = np.array([[doc.counts.get(w, 0) for w in model.vocab] for doc in docs])
        log_joint = counts @ np.log(model.mu).T + np.log(model.pi)
        expected = special.logsumexp(log_joint, axis=1).sum()
        assert model.log_likelihood_trace[-1] == pytest.approx(expected, rel=1e-9)
        if tol == 0.0:
            assert len(model.log_likelihood_trace) == max_iter + 1


class TestTopicPosterior:
    def test_single_topic(self):
        model = profiles.em_fit([experience("a", "b")], n_topics=1, seed=0)
        assert profiles.topic_posterior(experience("a"), model) == pytest.approx([1.0])

    def test_symmetric_model_gives_uniform(self):
        model = TopicModel(
            pi=np.array([0.5, 0.5]),
            mu=np.array([[0.25, 0.75], [0.25, 0.75]]),
            vocab=("a", "b"),
        )
        posterior = profiles.topic_posterior(experience("a", "b", "b"), model)
        assert posterior == pytest.approx([0.5, 0.5])

    def test_unknown_words_dropped(self):
        model = TopicModel(
            pi=np.array([0.5, 0.5]),
            mu=np.array([[0.9, 0.1], [0.1, 0.9]]),
            vocab=("a", "b"),
        )
        with_unknown = profiles.topic_posterior(experience("a", "zzz"), model)
        without = profiles.topic_posterior(experience("a"), model)
        assert with_unknown == pytest.approx(without)

    def test_posterior_sums_to_one(self):
        rng = np.random.default_rng(3)
        docs = random_corpus(rng)
        model = profiles.em_fit(docs, n_topics=3, seed=4)
        for doc in docs:
            assert profiles.topic_posterior(doc, model).sum() == pytest.approx(1.0)


class TestKlDivergence:
    def test_identical_is_zero(self):
        assert profiles.kl_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_hand_computed_value(self):
        expected = 0.5 * math.log(5 / 9) + 0.5 * math.log(5)
        got = profiles.kl_divergence([0.5, 0.5], [0.9, 0.1])
        assert got == pytest.approx(expected, abs=1e-6)

    def test_non_normalized_rejected(self):
        with pytest.raises(ValueError):
            profiles.kl_divergence([0.5, 0.6], [0.5, 0.5])

    def test_zero_entries_smoothed(self):
        value = profiles.kl_divergence([1.0, 0.0], [0.0, 1.0])
        assert math.isfinite(value) and value > 0

    @given(
        st.integers(min_value=2, max_value=6).flatmap(
            lambda size: st.tuples(*[
                st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=size, max_size=size)
            ] * 2)
        )
    )
    # near-equal distributions, whose unclamped divergence rounds to -1.1e-16
    @example(pair=([0.010000000000000002, 0.01], [0.01, 0.01]))
    @settings(max_examples=60, deadline=None)
    def test_non_negative(self, pair):
        raw, other = pair
        p = np.asarray(raw) / np.sum(raw)
        q = np.asarray(other) / np.sum(other)
        assert profiles.kl_divergence(p, q) >= 0.0


@pytest.mark.parametrize("vocab", [("x", "x"), ([1], "y"), ("x", 2)])
def test_topic_model_vocabulary_of_unique_strings(vocab):
    with pytest.raises(ValueError, match="vocabulary"):
        TopicModel(pi=np.array([1.0]), mu=np.array([[0.5, 0.5]]), vocab=vocab)


class TestNonFiniteRejected:
    @pytest.mark.parametrize("p, q", [
        ([math.nan, 1.0], [0.5, 0.5]),
        ([0.5, 0.5], [math.nan, 1.0]),
        ([math.inf, 0.0], [0.5, 0.5]),
    ])
    def test_kl_divergence(self, p, q):
        with pytest.raises(ValueError, match="finite"):
            profiles.kl_divergence(p, q)

    @pytest.mark.parametrize("pi, mu", [
        ([math.nan, 1.0], [[0.5, 0.5], [0.5, 0.5]]),
        ([0.5, 0.5], [[math.nan, 1.0], [0.5, 0.5]]),
    ])
    def test_topic_model(self, pi, mu):
        with pytest.raises(ValueError, match="finite"):
            TopicModel(pi=np.array(pi), mu=np.array(mu), vocab=("a", "b"))

    @pytest.mark.parametrize("count", [math.nan, math.inf])
    def test_experience_counts(self, count):
        with pytest.raises(ValueError, match="finite"):
            Experience(counts={"a": count})


class TestLogsumexp:
    @staticmethod
    def rows() -> np.ndarray:
        a = np.random.default_rng(5).normal(0.0, 30.0, size=(40, 6))
        a[5:10, 2] = -np.inf  # some -inf entries
        a[10] = -np.inf  # every entry -inf
        a[11, 3] = np.nan
        a[12, 1] = np.inf
        a[13, :3] = a[13].max()  # a tied maximum
        a[14] = 700.0  # exp would overflow without the shift
        return a

    @pytest.mark.parametrize("keepdims", [False, True])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_matches_scipy(self, axis, keepdims):
        a = self.rows()
        got = profiles._logsumexp(a, axis=axis, keepdims=keepdims)
        expected = special.logsumexp(a, axis=axis, keepdims=keepdims)
        assert got.shape == expected.shape
        np.testing.assert_allclose(got, expected, rtol=1e-15, atol=0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_special_rows(self):
        got = profiles._logsumexp(self.rows(), axis=1)
        assert got[10] == -np.inf
        assert np.isnan(got[11])
        assert got[12] == np.inf
        assert got[14] == pytest.approx(700.0 + math.log(6), rel=1e-15)


def test_package_imports_without_scipy():
    # scipy is a test dependency only; no module of the package may load it
    src = Path(profiles.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "import crowdselect, crowdselect.cli, crowdselect.profiles\n"
        "import crowdselect.smodel, crowdselect.tmodel, crowdselect.bench\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, cwd=src,
    )
    assert out.stdout.strip() == "[]"


class TestExperienceSimilarityMatrix:
    def test_identical_workers_give_zero_matrix(self):
        docs = [experience("a", "b")] * 3
        model = profiles.em_fit(docs, n_topics=2, seed=0)
        sim = profiles.experience_similarity_matrix(docs, model)
        assert np.allclose(sim, 0.0, atol=1e-9)

    def test_symmetric_with_zero_diagonal(self):
        rng = np.random.default_rng(9)
        docs = random_corpus(rng, n_docs=4)
        model = profiles.em_fit(docs, n_topics=2, seed=1)
        sim = profiles.experience_similarity_matrix(docs, model)
        assert np.array_equal(sim, sim.T)
        assert np.all(np.diag(sim) == 0.0)
        smodel.check_similarity_matrix(sim)

    @pytest.mark.parametrize("n_topics", [1, 2, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_per_pair_kl_reference(self, seed, n_topics):
        rng = np.random.default_rng(50 + seed)
        docs = random_corpus(rng, n_docs=12, vocab_size=8)
        model = profiles.em_fit(docs, n_topics=n_topics, seed=seed)
        sim = profiles.experience_similarity_matrix(docs, model)
        post = [profiles.topic_posterior(doc, model) for doc in docs]
        n = len(docs)
        reference = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    reference[i, j] = -(
                        profiles.kl_divergence(post[i], post[j])
                        + profiles.kl_divergence(post[j], post[i])
                    ) / 2.0
        assert np.abs(sim - reference).max() <= 1e-10
        assert np.array_equal(sim, sim.T)
        assert np.all(np.diag(sim) == 0.0)

    def test_identical_bags_have_zero_similarity(self):
        rng = np.random.default_rng(11)
        docs = random_corpus(rng, n_docs=6)
        docs.append(Experience(counts=dict(docs[2].counts)))
        model = profiles.em_fit(docs, n_topics=3, seed=5)
        sim = profiles.experience_similarity_matrix(docs, model)
        assert abs(sim[2, 6]) <= 1e-12
        assert abs(sim[6, 2]) <= 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_undefined_posteriors_rejected(self):
        # a zero word probability makes 0 * log(0) = NaN in the log-joint of
        # every worker who never used that word
        model = TopicModel(
            pi=np.array([0.5, 0.5]),
            mu=np.array([[1.0, 0.0], [0.5, 0.5]]),
            vocab=("a", "b"),
        )
        with pytest.raises(ValueError, match="posteriors"):
            profiles.experience_similarity_matrix([experience("a"), experience("b")], model)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_single_topic_with_zero_word_probability_rejected(self):
        # the one topic gives "b" probability 0, so a worker who used "b" has
        # a log-joint of -inf and log-evidence of -inf; their difference is
        # NaN, which must not escape as a RuntimeWarning
        model = TopicModel(pi=np.array([1.0]), mu=np.array([[1.0, 0.0]]), vocab=("a", "b"))
        with pytest.raises(ValueError, match="posteriors"):
            profiles.experience_similarity_matrix([experience("a"), experience("b")], model)

    def test_outlier_selected_by_smodel(self):
        twin_a = experience(*(["cat", "dog"] * 10))
        twin_b = experience(*(["cat", "dog", "dog"] * 10))
        outlier = experience(*(["bond", "fund"] * 10))
        docs = [twin_a, twin_b, outlier]
        model = profiles.em_fit(docs, n_topics=2, seed=2)
        sim = profiles.experience_similarity_matrix(docs, model)
        crowd = smodel.exact_select(sim, 2)
        assert 2 in crowd

    def test_one_worker_is_a_zero_matrix(self):
        docs = [experience("a", "b")]
        model = profiles.em_fit(docs, n_topics=2, seed=0)
        sim = profiles.experience_similarity_matrix(docs, model)
        assert sim.shape == (1, 1) and sim[0, 0] == 0.0

    @pytest.mark.parametrize("n_docs", [1, 4])
    def test_diagonal_is_positive_zero(self, n_docs):
        docs = random_corpus(np.random.default_rng(n_docs), n_docs=n_docs)
        model = profiles.em_fit(docs, n_topics=2, seed=0)
        sim = profiles.experience_similarity_matrix(docs, model)
        assert all(math.copysign(1.0, x) == 1.0 and x == 0.0 for x in np.diag(sim))

    def test_rounding_never_makes_a_positive_similarity(self):
        # near-equal posteriors of w2 and w3 leave the KL sums of their pair
        # a rounding error below zero; clamped as in kl_divergence
        records = [("w1", "t0", "bonds and funds"), ("w2", "t1", "funds"), ("w3", "t2", "funds")]
        docs = profiles.build_experiences(records)[1]
        model = profiles.em_fit(docs, n_topics=2, seed=1)
        sim = profiles.experience_similarity_matrix(docs, model)
        assert not np.any(sim > 0.0)
        assert np.array_equal(sim, sim.T)


class TestBuildExperiences:
    def test_groups_by_worker_in_first_seen_order(self):
        records = [
            ("w2", "t1", "Alpha beta!"),
            ("w1", "t1", "gamma"),
            ("w2", "t2", "beta beta"),
        ]
        ids, exps = profiles.build_experiences(records)
        assert ids == ["w2", "w1"]
        assert exps[0].counts == {"alpha": 1, "beta": 3}
        assert exps[1].counts == {"gamma": 1}

    def test_tokenize_default(self):
        assert profiles.tokenize("Hello, world! 42x") == ["hello", "world", "42x"]
