import array
import json
import math
import random
import re
import struct
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from godspell import _sweep, statefile, topics
from godspell.corpus import Segment
from godspell.topics import (
    DEFAULT_BETA,
    VocabularyError,
    authorless_downsample,
    build_vocabulary,
    doc_topic_rows,
    gibbs_sweep,
    init_state,
    load_state,
    log_likelihood,
    optimize_alpha,
    optimize_beta,
    prominence_from_doc_topic,
    save_state,
    top_words,
    train,
)

import oracles
from oracles import (
    authorless_downsample_numpy,
    authorless_downsample_reference,
    build_vocabulary_numpy,
    build_vocabulary_reference,
    count_views,
    doc_topic_proportions_reference,
    load_state_reference,
    lda_log_likelihood_direct,
    log_likelihood_reference,
    maximize_dirichlet_alpha,
    maximize_symmetric_beta,
    optimize_alpha_reference,
    optimize_beta_reference,
    prominence_reference,
    randbelow,
    save_state_by_row_reference,
    save_state_reference,
    save_state_whole_reference,
    topic_conditional,
    uniforms,
)


def seg(words, novel_id="n1"):
    return Segment(novel_id=novel_id, words=list(words))


def rows(flat, cols: int) -> list[list]:
    """A flat row-major matrix as the list of its rows."""
    return [list(flat[i:i + cols]) for i in range(0, len(flat), cols)]


def topic_rows(n_kw, k: int) -> list[list]:
    """A word-major n_kw as the list of its K topic rows."""
    return [list(n_kw[t::k]) for t in range(k)]


class TestRngBridge:
    """The oracles' numpy bridge against random.Random's own calls: the same
    values and the same state afterwards."""

    @pytest.mark.parametrize("seed", [0, 1, 2024])
    @pytest.mark.parametrize("n", [0, 1, 100_000])
    @pytest.mark.parametrize("k", [1, 2, 5, 64, 65, 2**16 + 1])
    def test_randbelow_matches_randrange(self, k, n, seed):
        ref, rng = random.Random(seed), random.Random(seed)
        expected = [ref.randrange(k) for _ in range(n)]
        assert randbelow(rng, k, n).tolist() == expected
        assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("seed", [0, 1, 2024])
    @pytest.mark.parametrize("n", [0, 1, 100_000])
    def test_uniforms_match_random(self, n, seed):
        ref, rng = random.Random(seed), random.Random(seed)
        expected = [ref.random() for _ in range(n)]
        assert uniforms(rng, n).tolist() == expected
        assert rng.getstate() == ref.getstate()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64), k=st.integers(1, 2**32 - 1), n=st.integers(0, 2000),
           before=st.integers(0, 700), gauss=st.booleans())
    def test_any_stream_position(self, seed, k, n, before, gauss):
        ref = random.Random(seed)
        for _ in range(before):
            ref.random()
        if gauss:
            ref.gauss(0.0, 1.0)  # leaves a cached gauss_next in the state
        rng = random.Random()
        rng.setstate(ref.getstate())
        expected_z = [ref.randrange(k) for _ in range(n)]
        expected_u = [ref.random() for _ in range(n)]
        assert randbelow(rng, k, n).tolist() == expected_z
        assert uniforms(rng, n).tolist() == expected_u
        assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("k", [0, 2**32, 2**40])
    def test_bound_outside_one_word_raises(self, k):
        rng = random.Random(3)
        before = rng.getstate()
        with pytest.raises(ValueError, match="randrange bound"):
            randbelow(rng, k, 5)
        assert rng.getstate() == before


class TestBuildVocabulary:
    def test_case_folding_and_stopwords(self):
        vocab, docs = build_vocabulary(
            [seg(["The", "God", "the", "god"])], {"the"}, min_count=1
        )
        assert vocab.words == ["god"]
        assert [d.tolist() for d in docs] == [[0, 0]]

    def test_min_count_threshold(self):
        segments = [seg(["rare"] * 3 + ["common"] * 5)]
        vocab, _ = build_vocabulary(segments, set(), min_count=5)
        assert "rare" not in vocab.ids
        assert "common" in vocab.ids

    def test_edge_punctuation_stripped(self):
        vocab, docs = build_vocabulary(
            [seg(['"Amen,"', "amen.", "(amen)"])], set(), min_count=1
        )
        assert vocab.words == ["amen"]
        assert [d.tolist() for d in docs] == [[0, 0, 0]]

    def test_token_count_matches_brute_force(self):
        rng = random.Random(13)
        pool = ["god", "the", "word", "hope", "amen", "grace", "dust"]
        segments = [seg([rng.choice(pool) for _ in range(rng.randint(5, 40))])
                    for _ in range(25)]
        stop = {"the"}
        vocab, docs = build_vocabulary(segments, stop, min_count=3)
        # independent filter pass
        raw = [w.lower() for s in segments for w in s.words if w.lower() not in stop]
        counts = {}
        for w in raw:
            counts[w] = counts.get(w, 0) + 1
        expected = sum(1 for w in raw if counts[w] >= 3)
        assert sum(len(d) for d in docs) == expected
        assert sum(vocab.frequencies) == expected

    def test_empty_vocabulary_fatal(self):
        with pytest.raises(VocabularyError):
            build_vocabulary([seg(["the", "the"])], {"the"}, min_count=1)

    @pytest.mark.parametrize("min_count", [1, 3, 30])
    def test_matches_per_token_reference(self, min_count):
        rng = random.Random(21)
        pool = ["God", "god,", "GOD", "—", "...", '"', "“”", "The", "the", "(amen)", "Amen.",
                "grace", "Grace!", "dust", "hope—", "and", "And,", "x"]
        pool += [f"w{i}" for i in range(40)]
        segments = [seg([rng.choice(pool) for _ in range(rng.choice([0, 1, 7, 60]))])
                    for _ in range(80)]
        stop = {"the", "AND"}
        words, frequencies, expected = build_vocabulary_reference(
            [s.words for s in segments], stop, min_count)
        for given in (segments, (s for s in segments)):
            vocab, docs = build_vocabulary(given, stop, min_count=min_count)
            assert vocab.words == words
            assert vocab.ids == {w: i for i, w in enumerate(words)}
            assert vocab.frequencies == frequencies
            assert [d.tolist() for d in docs] == expected
            # int32 views of one flat array
            assert {d.format for d in docs} == {"i"}
            assert len({id(d.obj) for d in docs}) == 1

    def test_no_segment_is_kept(self):
        """Each segment is freed once the pass has moved past it: when the
        generator yields segment i + 2, segment i is gone."""
        alive = []

        def segments():
            for i in range(6):
                if i >= 2:
                    assert alive[i - 2]() is None, f"segment {i - 2} still referenced"
                made = seg(["grace", "dust", f"w{i}"])
                alive.append(weakref.ref(made))
                yield made

        vocab, docs = build_vocabulary(segments(), set(), min_count=1)
        assert len(docs) == 6 and vocab.frequencies[vocab.ids["grace"]] == 6


class TestAuthorlessDownsample:
    def test_overrepresented_word_thinned_to_quarter(self):
        # novel b: word 0 at rate 0.04; corpus rate 0.01 -> retention 0.25
        docs = [[0] * 400 + [1] * 9600, [1] * 10000, [1] * 10000, [1] * 10000]
        novels = ["b", "x", "y", "z"]
        reduced = authorless_downsample(docs, novels, rng_seed=5)
        kept_w = sum(1 for w in reduced[0] if w == 0)
        assert 80 <= kept_w <= 120  # 400 * 0.25 within +-20%

    def test_uniform_word_always_kept(self):
        docs = [[0, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1]]
        novels = ["a", "b", "c"]
        reduced = authorless_downsample(docs, novels, rng_seed=1)
        assert [d.tolist() for d in reduced] == docs

    def test_counts_never_increase_and_order_preserved(self):
        rng = random.Random(3)
        docs = [[rng.randrange(6) for _ in range(rng.randint(0, 50))] for _ in range(20)]
        novels = [f"n{i % 4}" for i in range(20)]
        reduced = [d.tolist() for d in authorless_downsample(docs, novels, rng_seed=8)]
        for before, after in zip(docs, reduced):
            it = iter(before)
            assert all(any(w == v for v in it) for w in after)  # subsequence
            for w in set(after):
                assert after.count(w) <= before.count(w)

    def test_alignment_checked(self):
        with pytest.raises(ValueError):
            authorless_downsample([[0]], ["a", "b"], rng_seed=0)

    @pytest.mark.parametrize("docs", [[], [[]], [[], [], []]])
    def test_no_tokens(self, docs):
        reduced = authorless_downsample(docs, ["a"] * len(docs), rng_seed=0)
        assert [d.tolist() for d in reduced] == docs

    @pytest.mark.parametrize("seed", [0, 9, 77])
    def test_matches_per_token_reference(self, monkeypatch, seed):
        rng = random.Random(seed)
        docs = [[rng.randrange(30) for _ in range(rng.choice([0, 3, 50]))] for _ in range(60)]
        docs.append([0] * 40 + [1] * 5)  # word 0 overrepresented in its novel
        novels = [rng.choice("abcd") for _ in docs]  # interleaved, not contiguous
        expected_rng = random.Random(seed)
        expected = authorless_downsample_reference(docs, novels, expected_rng)
        made = []

        class Recorded(random.Random):
            def __init__(self, x):
                super().__init__(x)
                made.append(self)

        monkeypatch.setattr(topics, "random", SimpleNamespace(Random=Recorded))
        reduced = authorless_downsample(docs, novels, rng_seed=seed)
        assert [d.tolist() for d in reduced] == expected
        assert [r.getstate() for r in made] == [expected_rng.getstate()]


class TestInitState:
    def test_counts_match_token_loop(self):
        rng = random.Random(3)
        docs = [[rng.randrange(9) for _ in range(rng.randint(0, 20))] for _ in range(12)]
        state = init_state(docs, k=4, vocabulary_size=11, rng_seed=8)
        draws = random.Random(8)
        n_dk = np.zeros((12, 4), dtype=np.int32)
        n_kw = np.zeros((4, 11), dtype=np.int32)
        z = []
        for d, doc in enumerate(docs):
            for w in doc:
                topic = draws.randrange(4)
                z.append(topic)
                n_dk[d, topic] += 1
                n_kw[topic, w] += 1
        assert state.z.tolist() == z
        assert {getattr(state, name).typecode for name in _sweep.STATE_ARRAYS} == {"i"}
        assert np.array_equal(state.n_dk, n_dk.reshape(-1))
        assert np.array_equal(state.n_kw, n_kw.T.reshape(-1))  # word-major
        assert np.array_equal(state.n_k, n_kw.sum(axis=1))
        assert state.rng.getstate() == draws.getstate()
        assert state.words.tolist() == [w for doc in docs for w in doc]
        assert state.offsets.tolist() == np.cumsum([0] + [len(d) for d in docs]).tolist()

    @pytest.mark.parametrize("k", [0, 2**31])  # topics are int32
    def test_k_out_of_range_rejected(self, k):
        with pytest.raises(ValueError, match="k must be"):
            init_state([[0, 1]], k=k, vocabulary_size=2, rng_seed=0)

    @pytest.mark.parametrize("bad", [-1, 3, 1000])
    def test_word_id_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match="word ids"):
            init_state([[0, bad, 2]], k=2, vocabulary_size=3, rng_seed=0)

    @pytest.mark.parametrize("n_docs, vocabulary_size", [(2, 1), (1, 2)])
    def test_flat_counts_past_int32_rejected(self, n_docs, vocabulary_size):
        """D * K or K * V of 2**31 is refused before any array is made: the
        K doubles of alpha alone would take 8 GiB."""
        with pytest.raises(ValueError, match=r"must be below 2\*\*31"):
            init_state([[0]] * n_docs, k=2**30, vocabulary_size=vocabulary_size, rng_seed=0)

    def test_no_documents(self):
        state = init_state([], k=3, vocabulary_size=2, rng_seed=0)
        assert len(state.n_dk) == 0
        gibbs_sweep(state, [])
        assert state.n_k.tolist() == [0, 0, 0]


class TestGibbsSweep:
    def test_hand_evaluated_conditional(self):
        probs = topic_conditional(
            n_dk_row=[1, 0], n_kw_col=[2, 1], n_k=[10, 5],
            alpha=[0.5, 0.5], beta=0.1, vocabulary_size=5,
        )
        assert probs[0] == pytest.approx(0.75, abs=1e-12)
        assert probs[1] == pytest.approx(0.25, abs=1e-12)

    def test_conditional_is_probability_vector(self):
        rng = random.Random(17)
        for _ in range(50):
            k = rng.randint(1, 6)
            probs = topic_conditional(
                [rng.randint(0, 20) for _ in range(k)],
                [rng.randint(0, 20) for _ in range(k)],
                [rng.randint(1, 200) for _ in range(k)],
                [rng.uniform(0.01, 2.0) for _ in range(k)],
                rng.uniform(0.001, 1.0),
                rng.randint(2, 500),
            )
            assert all(p > 0 for p in probs)
            assert sum(probs) == pytest.approx(1.0)

    def test_single_topic_state_unchanged(self):
        docs = [[0, 1, 2], [2, 1]]
        state = init_state(docs, k=1, vocabulary_size=3, rng_seed=0)
        before = state.z.tolist()
        gibbs_sweep(state, docs)
        assert state.z.tolist() == before
        state.validate(docs)

    def test_counts_conserved_after_sweeps(self):
        rng = random.Random(2)
        docs = [[rng.randrange(12) for _ in range(rng.randint(1, 30))] for _ in range(15)]
        state = init_state(docs, k=3, vocabulary_size=12, rng_seed=4)
        for _ in range(10):
            gibbs_sweep(state, docs)
            state.validate(docs)
            for d, doc in enumerate(docs):
                assert sum(state.n_dk[d * 3:(d + 1) * 3]) == len(doc)

    def test_corrupted_state_detected(self):
        docs = [[0, 1], [1, 1]]
        state = init_state(docs, k=2, vocabulary_size=2, rng_seed=0)
        state.n_k[0] += 1
        with pytest.raises(RuntimeError, match="corrupted"):
            gibbs_sweep(state, docs)

    @pytest.mark.parametrize("field, index, value", [
        ("z", 0, 2), ("z", 1, -1), ("words", 2, 2), ("words", 0, -1),
    ])
    def test_id_out_of_range_detected(self, field, index, value):
        docs = [[0, 1], [1, 1]]
        state = init_state(docs, k=2, vocabulary_size=2, rng_seed=0)
        getattr(state, field)[index] = value
        with pytest.raises(RuntimeError, match="out of range"):
            gibbs_sweep(state, docs)

    def test_documents_of_another_shape_detected(self):
        docs = [[0, 1], [1, 1]]
        state = init_state(docs, k=2, vocabulary_size=2, rng_seed=0)
        with pytest.raises(RuntimeError, match="shapes"):
            gibbs_sweep(state, [[0], [1, 1, 0]])
        with pytest.raises(RuntimeError, match="shapes"):
            gibbs_sweep(state, docs + [[]])


class TestLogLikelihood:
    @pytest.mark.parametrize("k", [1, 7])
    def test_equals_direct_gammaln_form(self, k):
        rng = random.Random(31)
        docs = [[rng.randrange(40) for _ in range(rng.choice([0, 1, 30, 200]))]
                for _ in range(50)]
        state = init_state(docs, k=k, vocabulary_size=43, rng_seed=2)
        for sweep in range(1, 9):
            assert log_likelihood(state) == lda_log_likelihood_direct(
                state.n_dk, state.n_kw, state.n_k, state.alpha, state.beta)
            gibbs_sweep(state, docs)
            if sweep % 2 == 0:
                optimize_alpha(state)
                optimize_beta(state)

    @pytest.mark.parametrize("name", ["n_dk", "n_kw"])
    def test_negative_count_rejected(self, name):
        # a -1 would index the last entry of the table of its terms
        docs = [[0, 1, 1], [1, 1]]
        state = init_state(docs, k=2, vocabulary_size=3, rng_seed=0)
        getattr(state, name)[2] = -1  # row 1, column 0 of n_dk; word 1, topic 0 of n_kw
        with pytest.raises(ValueError, match=f"{name} holds a negative count"):
            log_likelihood(state)

    def test_row_sum_past_int32_rejected(self):
        """A caller may set n_dk; a row whose sum does not fit int32 is refused
        before any table is built."""
        state = init_state([[0, 1]], k=2, vocabulary_size=2, rng_seed=0)
        state.n_dk = array.array("i", [2**31 - 1, 1])
        with pytest.raises(ValueError, match="does not fit int32"):
            log_likelihood(state)

    def test_no_documents(self):
        state = init_state([], k=3, vocabulary_size=2, rng_seed=0)
        assert log_likelihood(state) == lda_log_likelihood_direct(
            state.n_dk, state.n_kw, state.n_k, state.alpha, state.beta)


class TestOptimizeAlpha:
    def _state_with_counts(self, n_dk, alpha=None):
        n_dk = np.array(n_dk, dtype=np.int32)
        docs = [[0] * int(row.sum()) for row in n_dk]
        state = init_state(docs, k=n_dk.shape[1], vocabulary_size=1, rng_seed=0)
        state.n_dk = n_dk.reshape(-1)
        if alpha is not None:
            state.alpha = np.array(alpha, dtype=float)
        # rebuild consistent word counts for validation-free optimizer use
        return state

    def test_identical_mixtures_keep_topic_ordering(self):
        state = self._state_with_counts([[30, 10]] * 8)
        alpha = optimize_alpha(state)
        assert alpha[0] > alpha[1] > 0

    def test_matches_numerical_maximizer(self, monkeypatch):
        rng = np.random.RandomState(11)
        n_dk = rng.randint(0, 25, size=(12, 2)).astype(np.int32)
        n_dk[0] += 1  # ensure nonempty docs
        state = self._state_with_counts(n_dk)
        # drive the update to its actual fixed point, then compare optima
        monkeypatch.setattr(topics, "FIXED_POINT_TOL", 1e-12)
        monkeypatch.setattr(topics, "FIXED_POINT_MAX_ITER", 100_000)
        fixed_point = optimize_alpha(state)
        oracle = maximize_dirichlet_alpha(n_dk, np.array([2.5, 2.5]))
        assert np.all(np.abs(fixed_point - oracle) < 1e-4)

    def test_alpha_stays_positive_over_rounds(self):
        rng = np.random.RandomState(23)
        for _ in range(100):
            n_dk = rng.randint(0, 8, size=(6, 3)).astype(np.int32)
            n_dk[:, 2] = 0  # an unused topic must clamp, not die
            n_dk[0, 0] += 1
            state = self._state_with_counts(n_dk)
            alpha = optimize_alpha(state)
            assert np.all(np.asarray(alpha) > 0)


class TestOptimizeBeta:
    def test_uniform_counts_finite_positive(self):
        docs = [[0, 1, 2, 3]] * 4
        state = init_state(docs, k=2, vocabulary_size=4, rng_seed=1)
        state.n_kw = np.full(2 * 4, 5, dtype=np.int32)
        state.n_k = np.full(2, 20, dtype=np.int32)
        beta = optimize_beta(state)
        assert math.isfinite(beta) and beta > 0

    def test_matches_numerical_maximizer(self, monkeypatch):
        rng = np.random.RandomState(7)
        n_kw = rng.randint(0, 30, size=(3, 8)).astype(np.int32)
        docs = [[0]]
        state = init_state(docs, k=3, vocabulary_size=8, rng_seed=0)
        state.n_kw = n_kw.T.reshape(-1)  # word-major
        state.n_k = n_kw.sum(axis=1, dtype=np.int32)
        monkeypatch.setattr(topics, "FIXED_POINT_TOL", 1e-12)
        monkeypatch.setattr(topics, "FIXED_POINT_MAX_ITER", 100_000)
        fixed_point = optimize_beta(state)
        oracle = maximize_symmetric_beta(n_kw)
        assert abs(fixed_point - oracle) < 1e-4

    def test_beta_unchanged_before_burn_in(self):
        docs = [[0, 1, 2], [1, 2, 0]] * 3
        state, _ = train(docs, vocabulary_size=3, k=2, sweeps=10, burn_in=50,
                         optimize_interval=10, rng_seed=3)
        assert state.beta == DEFAULT_BETA


def two_theme_corpus(rng, docs_per_theme=40, doc_len=20, vocab_half=25):
    docs = []
    labels = []
    for theme in (0, 1):
        lo = theme * vocab_half
        for _ in range(docs_per_theme):
            docs.append([lo + rng.randrange(vocab_half) for _ in range(doc_len)])
            labels.append(theme)
    return docs, labels, 2 * vocab_half


def float_bits(values) -> list[int]:
    """The bits of each float64 of values (a float, a buffer or an array)."""
    return np.asarray(values, dtype=np.float64).reshape(-1).view(np.int64).tolist()


def random_state(seed: int, n_docs: int, k: int, v: int, empty_topic: bool) -> tuple:
    """(docs, state) after two sweeps over random documents, empty ones
    among them; with empty_topic, topic k - 1 then holds no token."""
    rng = random.Random(seed)
    docs = [[rng.randrange(v) for _ in range(rng.choice([0, 1, 5, 40]))] for _ in range(n_docs)]
    state = init_state(docs, k, v, rng_seed=seed)
    for _ in range(2):
        gibbs_sweep(state, docs)
    if empty_topic:
        z = np.asarray(state.z)
        z[z == k - 1] = 0
        for counts in count_views(state):
            counts[...] = 0
        assert _sweep.count(state)
        state.validate(docs)
    return docs, state


class TestAgainstNumpyReferences:
    """The likelihood, the optimisers and the proportions against the numpy
    code they replaced (tests/oracles.py), bit for bit, on random states."""

    CASES = {
        "no documents": (1, 0, 3, 5, False),
        "one topic": (2, 30, 1, 20, False),
        "an empty topic": (3, 40, 5, 30, True),
        "k65": (4, 60, 65, 200, False),
        "one word": (5, 12, 4, 1, False),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_bitwise_numpy(self, case):
        docs, state = random_state(*self.CASES[case])
        _, twin = random_state(*self.CASES[case])
        for _ in range(2):
            assert float_bits(log_likelihood(state)) == float_bits(log_likelihood_reference(twin))
            d = len(docs)
            assert float_bits(doc_topic_rows(state, 0, d)) == float_bits(
                doc_topic_proportions_reference(twin))
            assert float_bits(doc_topic_rows(state, d // 3, d - 1)) == float_bits(
                doc_topic_proportions_reference(twin)[d // 3:d - 1])
            assert float_bits(optimize_alpha(state)) == float_bits(optimize_alpha_reference(twin))
            assert float_bits(state.alpha) == float_bits(twin.alpha)
            assert float_bits(optimize_beta(state)) == float_bits(optimize_beta_reference(twin))
            assert float_bits(state.beta) == float_bits(twin.beta)
            gibbs_sweep(state, docs)
            gibbs_sweep(twin, docs)

    def test_optimisers_revert_without_documents(self, caplog):
        _, state = random_state(*self.CASES["no documents"])
        alpha = state.alpha
        with caplog.at_level("WARNING"):
            assert optimize_alpha(state) is alpha
        assert "reverting" in caplog.text

    def test_vocabulary_and_downsample_at_benchmark_size(self):
        """A corpus the size of the benchmark's: 0.5M words of Zipf-like forms
        with punctuation and case variants, in 8 novels of 300-word documents."""
        rng = random.Random(65)
        forms = [f"w{i}" for i in range(40_000)]
        weights = [1.0 / (i + 2.7) for i in range(len(forms))]
        edges = ["", "", "", ",", ".", "'"]
        words = [rng.choice(edges) + (w.upper() if rng.random() < 0.05 else w) + rng.choice(edges)
                 for w in rng.choices(forms, weights, k=500_000)]
        segments = [seg(words[i:i + 300], f"n{i // 62_500}") for i in range(0, len(words), 300)]
        novels = [s.novel_id for s in segments]
        stop = {"w0", "w3"}
        vocab_words, frequencies, expected = build_vocabulary_reference(
            [s.words for s in segments], stop, 5)
        vocab, docs = build_vocabulary(segments, stop, min_count=5)
        assert (vocab.words, vocab.frequencies) == (vocab_words, frequencies)
        assert [d.tolist() for d in docs] == expected
        numpy_vocab, numpy_docs = build_vocabulary_numpy(segments, stop, 5)
        assert numpy_vocab == vocab
        reduced = authorless_downsample(docs, novels, rng_seed=3)
        assert [d.tolist() for d in reduced] == authorless_downsample_reference(
            expected, novels, random.Random(3))
        assert [d.tolist() for d in reduced] == [
            d.tolist() for d in authorless_downsample_numpy(numpy_docs, novels, 3)]
        assert 0.5 < sum(map(len, reduced)) / sum(map(len, docs)) < 1.0


class TestStateTypes:
    """The kernel reads a state's arrays as their C types and never casts:
    another item format is a TypeError that names the field."""

    # int64 is the wrong type for every integer field
    @pytest.mark.parametrize("name, wrong", [
        *((name, lambda s, name=name: np.asarray(getattr(s, name)).astype(np.int64))
          for name in _sweep.STATE_ARRAYS),
        ("alpha", lambda s: np.asarray(s.alpha).astype(np.float32)),
        pytest.param("n_k", lambda s: np.asarray(s.n_k).astype(np.float64), id="n_k-float64"),
        pytest.param("words", lambda s: list(s.words), id="words-list"),
    ])
    def test_wrong_item_format_names_the_field(self, name, wrong):
        docs = [[0, 1, 2], [2, 2]]
        state = init_state(docs, 2, 3, rng_seed=0)
        setattr(state, name, wrong(state))
        with pytest.raises(TypeError, match=name):
            gibbs_sweep(state, docs)

    def test_numpy_arrays_of_the_kernel_types_are_read(self):
        docs = [[0, 1, 2], [2, 2]]
        state = init_state(docs, 2, 3, rng_seed=0)
        twin = init_state(docs, 2, 3, rng_seed=0)
        for name in ("n_dk", "n_kw", "n_k", "alpha"):
            setattr(twin, name, np.array(getattr(twin, name)))
        gibbs_sweep(state, docs)
        gibbs_sweep(twin, docs)
        assert state.z.tolist() == twin.z.tolist()
        assert np.array_equal(state.n_kw, twin.n_kw)
        assert log_likelihood(state) == log_likelihood(twin)



class TestTrain:
    def test_seeded_determinism(self):
        rng = random.Random(1)
        docs, _, v = two_theme_corpus(rng, docs_per_theme=10, doc_len=10)
        state1, lls1 = train(docs, v, k=2, sweeps=20, burn_in=5,
                             optimize_interval=5, rng_seed=99)
        state2, lls2 = train(docs, v, k=2, sweeps=20, burn_in=5,
                             optimize_interval=5, rng_seed=99)
        assert np.array_equal(state1.z, state2.z)
        assert np.array_equal(state1.n_kw, state2.n_kw)
        assert lls1 == lls2

    def test_two_theme_separation(self):
        rng = random.Random(6)
        docs, labels, v = two_theme_corpus(rng, docs_per_theme=30, doc_len=20)
        state, _ = train(docs, v, k=2, sweeps=100, burn_in=20,
                         optimize_interval=10, rng_seed=5)
        for theme in (0, 1):
            token_labels = np.repeat(labels, [len(d) for d in docs]).tolist()
            assignments = [
                z for doc_label, z in zip(token_labels, state.z.tolist()) if doc_label == theme
            ]
            dominant = max(assignments.count(0), assignments.count(1))
            assert dominant / len(assignments) >= 0.9

    def test_log_likelihood_improves(self):
        rng = random.Random(8)
        docs, _, v = two_theme_corpus(rng, docs_per_theme=20, doc_len=15)
        _, lls = train(docs, v, k=2, sweeps=40, burn_in=10,
                       optimize_interval=10, rng_seed=2)
        assert lls[-1] > lls[0]

    def test_check_counts_path(self):
        docs = [[0, 1], [1, 0], [0, 0]]
        state, _ = train(docs, 2, k=2, sweeps=5, burn_in=2, optimize_interval=2, rng_seed=0)
        state.validate(docs)

    def test_log_likelihood_finite(self):
        docs = [[0, 1, 1], []]  # empty documents are legal
        state, lls = train(docs, 2, k=2, sweeps=3, burn_in=1,
                           optimize_interval=0, rng_seed=0)
        assert all(math.isfinite(ll) for ll in lls)
        assert math.isfinite(log_likelihood(state))


class TestTopWords:
    def _top(self, words, counts, n=10, k=0):
        ids = top_words(counts, list(words), k, n=n)
        return [words[w] for w in ids]

    def test_tie_break_lexicographic(self):
        assert self._top(["amen", "church", "god"], [[3, 3, 5]], n=3) == ["god", "amen", "church"]

    def test_n_larger_than_vocabulary(self):
        assert len(self._top(["a", "b"], [[1, 0]])) == 2

    def test_out_of_range_topic(self):
        with pytest.raises(ValueError):
            self._top(["a"], [[1]], k=1)

    def test_negative_n_rejected(self):
        """A negative n would have cut the last words off the full sort."""
        with pytest.raises(ValueError, match="n >= 0"):
            self._top(["a", "b", "c"], [[1, 2, 3]], n=-1)
        assert self._top(["a", "b"], [[1, 2]], n=0) == []

    @pytest.mark.parametrize("n", [1, 3, 10, 29, 30, 31])
    def test_every_n_matches_the_full_sort(self, n):
        """nsmallest against sorted(...)[:n], ties among the counts
        included."""
        rng = random.Random(n)
        words = [f"w{i:02d}" for i in range(30)]
        rng.shuffle(words)
        counts = [rng.randint(0, 4) for _ in range(30)]
        oracle = sorted(range(30), key=lambda w: (-counts[w], words[w]))[:n]
        assert top_words([counts], words, 0, n=n) == oracle

    def test_matches_full_sort_oracle(self):
        rng = random.Random(19)
        words = [f"w{i:02d}" for i in range(30)]
        rng.shuffle(words)
        counts = [rng.randint(0, 9) for _ in range(30)]
        oracle = [w for _, w in sorted(((-counts[i], w) for i, w in enumerate(words)))]
        assert self._top(words, [counts], n=30) == oracle


class TestNovelProminence:
    def test_pure_topic_limit(self):
        docs = [[1, 1, 1, 1]] * 3
        state = init_state(docs, k=2, vocabulary_size=2, rng_seed=0)
        state.alpha = np.array([1e-12, 1e-12])
        state.n_dk = np.array([0, 4] * 3, dtype=np.int32)
        result = prominence_from_doc_topic(rows(doc_topic_rows(state, 0, 3), 2),
                                           ["n1", "n1", "n1"])
        assert result["n1"][1] == pytest.approx(100.0, abs=1e-6)

    def test_hand_average(self):
        doc_topic = [[0.2, 0.8], [0.4, 0.6]]
        result = prominence_from_doc_topic(doc_topic, ["n1", "n1"])
        assert result["n1"] == pytest.approx([30.0, 70.0])

    def test_rows_sum_to_100(self):
        rng = random.Random(44)
        docs = [[rng.randrange(10) for _ in range(rng.randint(1, 25))] for _ in range(12)]
        state = init_state(docs, k=4, vocabulary_size=10, rng_seed=3)
        gibbs_sweep(state, docs)
        novels = [f"n{i % 3}" for i in range(12)]
        doc_topic = rows(doc_topic_rows(state, 0, 12), 4)
        for row in prominence_from_doc_topic(doc_topic, novels).values():
            assert sum(row) == pytest.approx(100.0, abs=1e-6)

    def test_zero_segment_novel_warned(self, caplog):
        with caplog.at_level("WARNING"):
            result = prominence_from_doc_topic([[1.0]], ["n1"], all_novel_ids=["n1", "n2"])
        assert list(result) == ["n1"]
        assert "n2" in caplog.text

    @staticmethod
    def assert_bitwise_reference(doc_topic, novels):
        """prominence_from_doc_topic against numpy's mean in tests/oracles.py:
        the same novels in the same order, with the same float bits."""
        result = prominence_from_doc_topic(doc_topic, novels)
        expected = prominence_reference(doc_topic, novels)
        assert list(result) == list(expected)
        for novel_id, row in result.items():
            assert [type(x) for x in row] == [float] * len(row)
            assert struct.pack(f"{len(row)}d", *row) == struct.pack(
                f"{len(row)}d", *expected[novel_id]), novel_id

    @pytest.mark.parametrize("k", range(2, 12))
    def test_bitwise_numpy_mean(self, k):
        """Novels of 1 to 5000 rows, interleaved, with values from 1e-6 to 1e6."""
        rng = random.Random(k)
        sizes = {"n1": 1, "n2": 2, "n17": 17, "n129": 129, "n1000": 1000, "n5000": 5000}
        novels = [novel_id for novel_id, n in sizes.items() for _ in range(n)]
        rng.shuffle(novels)
        doc_topic = [[rng.random() * 10.0 ** rng.uniform(-6, 6) for _ in range(k)]
                     for _ in novels]
        self.assert_bitwise_reference(doc_topic, novels)

    def test_bitwise_numpy_mean_single_topic(self):
        """K = 1, where numpy sums the one column pairwise: a trained
        state's shares are all 1.0, whose sum is exact in any order."""
        rng = random.Random(5)
        docs = [[rng.randrange(6) for _ in range(rng.randint(1, 9))] for _ in range(300)]
        novels = [rng.choice(["a", "b", "c"]) for _ in docs]
        state, _ = train(docs, 6, k=1, sweeps=2, burn_in=0, optimize_interval=1,
                         rng_seed=1)
        self.assert_bitwise_reference(rows(doc_topic_rows(state, 0, 300), 1), novels)

    def test_bitwise_numpy_mean_of_golden_state(self):
        model = load_state(Path(__file__).parent / "golden" / "topics" / "state.json")
        self.assert_bitwise_reference(model["doc_topic"], model["doc_novels"])


class TestStateIO:
    def test_round_trip(self, tmp_path):
        rng = random.Random(1)
        docs, _, v = two_theme_corpus(rng, docs_per_theme=5, doc_len=8)
        novels = ["a"] * 5 + ["b"] * 5
        vocab, _ = build_vocabulary(
            [seg([f"w{i}" for i in range(v)])], set(), min_count=1
        )
        state, lls = train(docs, v, k=2, sweeps=5, burn_in=1,
                           optimize_interval=2, rng_seed=7)
        path = tmp_path / "state.json"
        save_state(path, state, lls, vocab, novels)
        loaded = load_state(path)
        assert list(loaded) == list(topics.STATE_FIELDS)
        assert loaded["k"] == 2
        assert loaded["seed"] == 7
        assert loaded["n_kw"] == topic_rows(state.n_kw, 2)
        assert loaded["doc_topic"] == rows(doc_topic_rows(state, 0, 10), 2)
        assert loaded["doc_novels"] == novels
        assert loaded["log_likelihood"] == lls
        assert loaded["vocabulary"] == vocab.words
        assert top_words(loaded["n_kw"], loaded["vocabulary"], 0, n=3) == top_words(
            topic_rows(state.n_kw, 2), vocab.words, 0, n=3)

    @staticmethod
    def damaged_state(tmp_path, damage) -> Path:
        """A small trained state, loadable as saved, after damage(payload)."""
        docs = [[0, 1, 2], [2, 1], [0, 0, 1]]
        vocab, _ = build_vocabulary([seg(["w0", "w1", "w2"])], set(), min_count=1)
        state, lls = train(docs, 3, k=2, sweeps=2, burn_in=1, optimize_interval=1,
                           rng_seed=0)
        path = tmp_path / "state.json"
        save_state(path, state, lls, vocab, ["a", "a", "b"])
        assert load_state(path)["k"] == 2
        payload = json.loads(path.read_text(encoding="utf-8"))
        damage(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    DAMAGE = {
        "alpha": lambda p: p["alpha"].append(0.1),
        "n_kw": lambda p: p["n_kw"].pop(),
        "doc_topic": lambda p: p["doc_topic"].append(p["doc_topic"][0]),
    }

    @pytest.mark.parametrize("field", DAMAGE)
    def test_shape_mismatch_rejected(self, tmp_path, field):
        path = self.damaged_state(tmp_path, self.DAMAGE[field])
        with pytest.raises(ValueError, match=re.escape(f"{path}: {field} has shape")):
            load_state(path)

    # damage -> the message after the path; numpy cast these or failed
    # without naming the file, and the commands failed on the array items
    # without naming it, or read them
    MALFORMED = {
        "ragged n_kw row": (lambda p: p["n_kw"][1].pop(), "n_kw has rows of 2 to 3 values"),
        "n_kw row not a list": (lambda p: p["n_kw"].__setitem__(0, 5),
                                "n_kw holds 5, not list"),
        "float count": (lambda p: p["n_kw"][0].__setitem__(2, 1.5), "n_kw holds 1.5, not int"),
        "bool count": (lambda p: p["n_kw"][1].__setitem__(0, True), "n_kw holds True, not int"),
        "string share": (lambda p: p["doc_topic"][2].__setitem__(1, "0.5"),
                         "doc_topic holds '0.5', not float or int"),
        "list novel": (lambda p: p["doc_novels"].__setitem__(0, [1]),
                       "doc_novels holds [1], not str"),
        "null word": (lambda p: p["vocabulary"].__setitem__(1, None),
                      "vocabulary holds None, not str"),
        "string alpha": (lambda p: p["alpha"].__setitem__(0, "x"),
                         "alpha holds 'x', not float or int"),
        "bool log-likelihood": (lambda p: p["log_likelihood"].__setitem__(1, False),
                                "log_likelihood holds False, not float or int"),
    }

    @pytest.mark.parametrize("damage", MALFORMED)
    def test_malformed_matrix_rejected(self, tmp_path, damage):
        change, message = self.MALFORMED[damage]
        path = self.damaged_state(tmp_path, change)
        with pytest.raises(ValueError, match=re.escape(f"topic state {path}: {message}")):
            load_state(path)

    @pytest.mark.parametrize("damage, message", [
        (lambda text: text[:120], "{} is not valid JSON"),
        (lambda text: "[" + text + "]", "{}: must hold a JSON object, got list"),
        (lambda text: text.replace('"format"', '"form"'), "unrecognized topic state file: {}"),
    ])
    def test_unreadable_file_names_path(self, tmp_path, damage, message):
        docs = [[0, 1, 2], [2, 1], [0, 0, 1]]
        vocab, _ = build_vocabulary([seg(["w0", "w1", "w2"])], set(), min_count=1)
        state, lls = train(docs, 3, k=2, sweeps=2, burn_in=1, optimize_interval=1,
                           rng_seed=0)
        path = tmp_path / "state.json"
        save_state(path, state, lls, vocab, ["a", "a", "b"])
        path.write_text(damage(path.read_text(encoding="utf-8")), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(message.format(path))):
            load_state(path)

    @pytest.mark.parametrize("field", ["k", "alpha", "beta", "seed", "vocabulary", "n_kw",
                                       "doc_topic", "doc_novels", "log_likelihood"])
    def test_missing_field_named(self, tmp_path, field):
        path = self.damaged_state(tmp_path, lambda p: p.pop(field))
        with pytest.raises(ValueError, match=re.escape(f"topic state {path} lacks the field "
                                                       f"{field!r}")):
            load_state(path)

    def test_version_check(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text('{"format": "other", "version": 9}', encoding="utf-8")
        with pytest.raises(ValueError, match="unrecognized"):
            load_state(path)


class TestStateWriter:
    """save_state against the whole-payload json.dumps, the dict-based row
    writer and the whole-matrix kernel writer it replaced, all in
    tests/oracles.py: the same bytes."""

    @staticmethod
    def assert_same_bytes(tmp_path, n_kw, doc_topic, words, novels, alpha=None):
        """n_kw is given topic-major, (K, V), and the state holds it
        word-major, as a TopicState does. doc_topic stands in for the
        state's shares on every side, so that they can be values no trained
        state holds: save_state takes it a block of rows at a time from
        topics.doc_topic_rows, and the references whole."""
        k, flat = n_kw.shape[0], np.ascontiguousarray(doc_topic, dtype=np.float64).reshape(-1)
        state = SimpleNamespace(k=k, alpha=np.full(k, 0.5) if alpha is None else alpha,
                                beta=0.01, rng_seed=3, n_kw=np.ascontiguousarray(n_kw.T),
                                n_dk=np.zeros(len(novels) * k, dtype=np.int32))
        vocab = SimpleNamespace(words=words)
        lls = [-12.5, -1e-05]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(topics, "doc_topic_rows",
                          lambda _, r0, r1: flat[r0 * k:r1 * k].copy())
            patch.setattr(oracles, "doc_topic_proportions_reference", lambda _: doc_topic)
            save_state(tmp_path / "fast.json", state, lls, vocab, novels)
            save_state_reference(tmp_path / "ref.json", state, lls, vocab, novels)
            save_state_by_row_reference(tmp_path / "rows.json", state, lls, vocab, novels)
            save_state_whole_reference(tmp_path / "whole.json", state, lls, vocab, novels)
        fast = (tmp_path / "fast.json").read_bytes()
        assert fast == (tmp_path / "ref.json").read_bytes()
        assert fast == (tmp_path / "rows.json").read_bytes()
        assert fast == (tmp_path / "whole.json").read_bytes()
        assert json.loads(fast)["n_kw"] == n_kw.tolist()

    def test_more_distinct_shares_than_the_first_table(self, tmp_path):
        """Thousands of distinct shares, each recurring, so the table of
        distinct ones grows twice while the rows are written."""
        rng = np.random.default_rng(3)
        pool = rng.random(3000)
        doc_topic = rng.choice(pool, (2000, 5))
        n_kw = rng.integers(0, 50, (5, 7), dtype=np.int32)
        self.assert_same_bytes(tmp_path, n_kw, doc_topic, list("abcdefg"),
                               [f"n{i % 7}" for i in range(2000)])

    @pytest.mark.parametrize("block", [None, 2000])
    def test_distinct_shares_outgrow_the_table_within_and_across_blocks(self, tmp_path,
                                                                        monkeypatch, block):
        """New shares in every block, more than the first table holds
        (512): in the first block alone at the default block size, and only
        over several blocks of 37 rows (74 shares) when the blocks are small."""
        if block is not None:
            monkeypatch.setattr(_sweep, "BLOCK", block)
        rng = np.random.default_rng(11)
        doc_topic = rng.random((600, 2))
        doc_topic[::3] = doc_topic[1::3][:200]  # and some recur in later blocks
        n_kw = rng.integers(0, 9, (2, 5), dtype=np.int32)
        self.assert_same_bytes(tmp_path, n_kw, doc_topic, list("vwxyz"),
                               [f"n{i % 4}" for i in range(600)])

    def test_rows_not_a_multiple_of_the_block(self, tmp_path, monkeypatch):
        """Blocks of 4 rows (80 bytes a row of 3 shares at most) over 37
        rows, so the last block holds one."""
        monkeypatch.setattr(_sweep, "BLOCK", 320)
        rng = np.random.default_rng(37)
        doc_topic = rng.choice([0.5, 1 / 3, 1e-300, -0.0], (37, 3))
        n_kw = rng.integers(0, 5, (3, 4), dtype=np.int32)
        self.assert_same_bytes(tmp_path, n_kw, doc_topic, list("abcd"), ["a"] * 37)

    def test_no_documents(self, tmp_path):
        """D = 0: doc_topic is written as [] and no share is taken."""
        n_kw = np.array([[1, 0], [0, 2]], dtype=np.int32)
        self.assert_same_bytes(tmp_path, n_kw, np.zeros((0, 2)), ["a", "b"], [])

    @pytest.mark.parametrize("block", [1, 20, 64, 1000])
    def test_rows_in_small_blocks(self, tmp_path, monkeypatch, block):
        """Blocks of one row, or a few, or a row longer than a block: the
        same bytes whatever the block."""
        monkeypatch.setattr(_sweep, "BLOCK", block)
        rng = np.random.default_rng(block)
        doc_topic = rng.choice([0.25, 1 / 3, -0.0, 1e-300, float("nan")], (37, 3))
        n_kw = rng.integers(-2**31, 2**31, (3, 23), dtype=np.int64).astype(np.int32)
        self.assert_same_bytes(tmp_path, n_kw, doc_topic, [f"w{i}" for i in range(23)],
                               ["a"] * 37)

    def test_awkward_values(self, tmp_path):
        """Counts at the int32 edges and shares json writes oddly."""
        doc_topic = np.array([[0.25, 1e-05], [0.25, -0.0], [0.0, float("nan")],
                              [1.0, 2.0], [1 / 3, 1e22]])
        n_kw = np.array([[0, 2**31 - 1, 0, -2**31], [100_000, 0, 1, 256]], dtype=np.int32)
        self.assert_same_bytes(tmp_path, n_kw, doc_topic, ["αβ", "naïve", "日本", "w"],
                               ["ñ", "a", "a", "b", "b"], alpha=np.array([0.1, 1e-05]))

    def test_repeated_and_subnormal_shares(self, tmp_path):
        """Shares as a trained state repeats them, beside subnormal ones: each
        is written as json writes it, wherever it recurs."""
        values = [0.25, 1 / 3, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 0.1]
        rng = random.Random(7)
        doc_topic = np.array([[rng.choice(values) for _ in range(4)] for _ in range(300)])
        n_kw = np.array([[0, 3, 3, 0], [1, 1, 1, 1], [0, 0, 0, 7], [2, 0, 2, 0]], dtype=np.int32)
        self.assert_same_bytes(tmp_path, n_kw, doc_topic, ["a", "b", "c", "d"],
                               [f"n{i % 3}" for i in range(300)])

    @pytest.mark.parametrize("k, v, d", [(1, 1, 0), (1, 1, 1), (3, 4, 5)])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_json_dumps(self, tmp_path_factory, k, v, d, data):
        counts = st.one_of(st.integers(0, 3), st.integers(-3, 1000),
                           st.integers(-2**31, 2**31 - 1))
        n_kw = np.array(data.draw(st.lists(counts, min_size=k * v, max_size=k * v)),
                        dtype=np.int32).reshape(k, v)
        shares = st.one_of(
            st.sampled_from([0.0, -0.0, 1e-05, 1.0, 0.5, 1 / 3, float("nan"), 5e-324]),
            st.floats(),
        )
        doc_topic = np.array(data.draw(st.lists(shares, min_size=d * k, max_size=d * k)),
                             dtype=np.float64).reshape(d, k)
        words = data.draw(st.lists(st.text(), min_size=v, max_size=v))
        novels = data.draw(st.lists(st.text(max_size=3), min_size=d, max_size=d))
        self.assert_same_bytes(tmp_path_factory.mktemp("state"), n_kw, doc_topic, words, novels)


GOLDEN_STATE = Path(__file__).parent / "golden" / "topics" / "state.json"


def read_taking(path) -> tuple[dict, dict]:
    """statefile.read_state with both matrices taken: the fields it returns,
    and the rows it handed on, each checked to be an array of its matrix's
    types and width."""
    taken: dict[str, list] = {"n_kw": [], "doc_topic": []}

    def take(name):
        def keep(row, fields):
            width = fields["k"] if name == "doc_topic" else len(fields["vocabulary"])
            assert type(row) is list and len(row) == width
            assert set(map(type, row)) <= statefile.MATRICES[name]
            taken[name].append(row)
        return keep

    return statefile.read_state(path, {name: take(name) for name in taken}), taken


class TestStateReader:
    """The one decoder of state.json against the whole-string load_state it
    replaced (load_state_reference, tests/oracles.py): the same dict or the
    same ValueError, with the matrices kept or taken a row at a time."""

    @staticmethod
    def assert_as_reference(path):
        try:
            expected = load_state_reference(path)
        except ValueError as e:
            message = re.escape(str(e))
            with pytest.raises(ValueError, match=message):
                load_state(path)
            with pytest.raises(ValueError, match=message):
                read_taking(path)
            return
        assert load_state(path) == expected
        fields, taken = read_taking(path)
        assert fields == {name: value for name, value in expected.items() if name not in taken}
        assert taken == {name: expected[name] for name in taken}

    CHANGES = {
        **{f"{name}: {message}": change for name, (change, message) in
           TestStateIO.MALFORMED.items()},
        **{f"{name} shape": change for name, change in TestStateIO.DAMAGE.items()},
        **{f"no {name}": (lambda name: lambda p: p.pop(name))(name) for name in
           topics.STATE_FIELDS},
        **{f"{name} = {value!r}": (lambda name, value: lambda p: p.__setitem__(name, value))(
            name, value) for name, value in [
               ("vocabulary", None), ("alpha", 3), ("doc_novels", 5), ("k", "5"), ("k", True),
               ("beta", "x"), ("log_likelihood", None), ("n_kw", {}), ("doc_topic", 1.5),
               ("k", 3), ("version", 2), ("doc_topic", [])]},
        "n_kw row of bools": lambda p: p["n_kw"].__setitem__(0, [True] * 3),
        "doc_topic row not a list": lambda p: p["doc_topic"].__setitem__(1, 0.5),
        "ragged doc_topic and a string share": lambda p: (
            p["doc_topic"][0].append(0.5), p["doc_topic"][2].__setitem__(0, "x")),
        "n_kw as wide as k": lambda p: p.__setitem__("n_kw", [[1, 2], [3, 4]]),
        "a field more": lambda p: p.__setitem__("extra", {"n_kw": [[1]]}),
    }

    @pytest.mark.parametrize("change", CHANGES)
    def test_same_dict_or_error_as_the_reference(self, tmp_path, change):
        self.assert_as_reference(TestStateIO.damaged_state(tmp_path, self.CHANGES[change]))

    @pytest.mark.parametrize("read", [1, 7, 100, 4096])
    def test_rows_split_across_reads(self, monkeypatch, read):
        """Reads of a few characters cut every row, key and number of the
        golden state somewhere: each still decodes whole."""
        monkeypatch.setattr(statefile, "READ", read)
        self.assert_as_reference(GOLDEN_STATE)

    def test_whitespace_and_byte_order_mark(self, tmp_path, monkeypatch):
        monkeypatch.setattr(statefile, "READ", 5)
        payload = json.loads(GOLDEN_STATE.read_text(encoding="utf-8"))
        path = tmp_path / "state.json"
        path.write_text("﻿ \n" + json.dumps(payload, indent=1) + "\r\n", encoding="utf-8")
        self.assert_as_reference(path)

    @pytest.mark.parametrize("seed", range(6))
    def test_keys_in_another_order(self, tmp_path, seed):
        """The keys shuffled (seed 0 reverses them): load_state reads the same
        dict, and a caller taking rows gets the same rows, or a ValueError
        naming the file when a matrix comes before a field it follows in
        save_state's order; never other rows."""
        payload = json.loads(GOLDEN_STATE.read_text(encoding="utf-8"))
        keys = list(payload)[::-1] if seed == 0 else random.Random(seed).sample(list(payload),
                                                                               len(payload))
        path = tmp_path / "state.json"
        path.write_text(json.dumps({key: payload[key] for key in keys}), encoding="utf-8")
        expected = load_state_reference(path)
        assert load_state(path) == expected
        late = [name for name in statefile.MATRICES
                if any(keys.index(key) > keys.index(name)
                       for key in statefile.ORDER[:statefile.ORDER.index(name)])]
        if late:
            with pytest.raises(ValueError, match=re.escape(f"topic state {path}: {late[0]} "
                                                           f"comes before")):
                read_taking(path)
        else:
            self.assert_as_reference(path)

    @pytest.mark.parametrize("key", ["k", "n_kw", "doc_topic", "format"])
    def test_repeated_key(self, tmp_path, key):
        """json.loads would keep the last value; the decoder refuses the file."""
        text = GOLDEN_STATE.read_text(encoding="utf-8")
        payload = json.loads(text)
        path = tmp_path / "state.json"
        path.write_text(f'{text[:-1]}, "{key}": {json.dumps(payload[key])}}}', encoding="utf-8")
        for read in (load_state, read_taking):
            with pytest.raises(ValueError, match=re.escape(f"topic state {path}: the key "
                                                           f"{key!r} repeats")):
                read(path)

    @pytest.mark.parametrize("matrix", ["n_kw", "doc_topic"])
    def test_file_ending_mid_row(self, tmp_path, monkeypatch, matrix):
        """Cut inside a row's number: not valid JSON, though every row before
        the cut was handed on."""
        text = GOLDEN_STATE.read_text(encoding="utf-8")
        path = tmp_path / "state.json"
        path.write_text(text[:text.index(f'"{matrix}": [[') + 40], encoding="utf-8")
        self.assert_as_reference(path)
        monkeypatch.setattr(statefile, "READ", 7)
        self.assert_as_reference(path)
        for read in (load_state, read_taking):
            with pytest.raises(ValueError, match=re.escape(f"{path} is not valid JSON")):
                read(path)

    def test_bytes_that_are_not_utf8(self, tmp_path):
        data = GOLDEN_STATE.read_bytes()
        path = tmp_path / "state.json"
        at = data.index(b'"vocabulary": ["') + 16
        path.write_bytes(data[:at] + b"caf\xe9" + data[at:])
        for read in (load_state, read_taking):
            with pytest.raises(ValueError, match=re.escape(f"{path} is not UTF-8")):
                read(path)

    @pytest.mark.parametrize("text, message", [
        ("", "is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ("[1, 2]", ": must hold a JSON object, got list"),
        ('{"k": 1} x', "is not valid JSON: Extra data: line 1 column 10 (char 9)"),
        ('{"k"\n 1}', "is not valid JSON: Expecting ':' delimiter: line 2 column 2 (char 6)"),
        ('{"n_kw": [[1] [2]]}', "is not valid JSON: Expecting ',' delimiter: line 1 column 15 "
                                "(char 14)"),
        # a trailing comma: json.loads' message for it differs from Python 3.13 on
        ('{"k": 1,}', None),
        ('{"n_kw": [[1],]}', None),
        ('{"n_kw": [[1, 2,]]}', None),
        ("{}", "unrecognized topic state file"),
    ])
    def test_json_that_is_not_a_state(self, tmp_path, monkeypatch, text, message):
        """The messages of json.loads on the running Python, line and column
        too, whatever the reads; None stands for json.loads' own."""
        path = tmp_path / "state.json"
        path.write_text(text, encoding="utf-8")
        if message is None:
            with pytest.raises(ValueError) as e:
                json.loads(text)
            message = f"is not valid JSON: {e.value}"
        for read in (4096, 2):
            monkeypatch.setattr(statefile, "READ", read)
            with pytest.raises(ValueError, match=re.escape(message)):
                load_state(path)
        self.assert_as_reference(path)
