"""The compiled Gibbs sweep against the pure-Python reference, the kernel's
random draws against random.Random, its pairwise sums against numpy's, the
compiled gammaln and digamma against scipy.special and their references,
the error without a compiler, and the build cache."""

import array
import collections
import ctypes
import itertools
import json
import logging
import math
import random
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from godspell import _sweep, topics
from godspell.cli import main
from godspell.corpus import Segment
from godspell.topics import (
    authorless_downsample,
    build_vocabulary,
    gibbs_sweep,
    init_state,
    log_likelihood,
    optimize_alpha,
    optimize_beta,
)
from oracles import (
    FormTableReference,
    authorless_downsample_numpy,
    build_vocabulary_numpy,
    count_reference,
    count_views,
    digamma_reference,
    elementwise,
    gammaln_reference,
    gibbs_sweep_reference,
    log_likelihood_reference,
    optimize_alpha_reference,
    optimize_beta_reference,
    pairwise_sums_reference,
    randbelow,
    save_state_reference,
    validate_reference,
    vocabulary_of_numpy,
)

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def compiled():
    """The kernel topics-train runs; without a C compiler this is an error,
    not a skip, as it is for topics-train."""
    return _sweep.kernel()


@pytest.fixture
def fresh_kernel():
    """kernel() with its per-process cache cleared before and after the
    test, so neither a library loaded earlier nor one the test loads
    leaks across tests."""
    _sweep.kernel.cache_clear()
    yield
    _sweep.kernel.cache_clear()


@pytest.fixture
def oracle_sweep(monkeypatch):
    """topics-train through the oracles: the draws, counts and sweep in pure
    Python and numpy, every other layer the numpy code that the kernel and
    the standard-library arrays replaced, with scipy's gammaln and digamma.
    kernel() gives None, so any kernel call left would fail."""
    monkeypatch.setattr(_sweep, "kernel", lambda: None)
    monkeypatch.setattr(_sweep, "randrange", lambda rng, k, n: array.array(
        "i", randbelow(rng, k, n).astype(np.int32).tobytes()))
    monkeypatch.setattr(_sweep, "count", count_reference)
    monkeypatch.setattr(_sweep, "sweep", lambda lib, state: gibbs_sweep_reference(state))
    monkeypatch.setattr(topics.TopicState, "validate", validate_reference)
    monkeypatch.setattr(_sweep, "FormTable", FormTableReference)
    for name, reference in (("build_vocabulary", build_vocabulary_numpy),
                            ("vocabulary_of", vocabulary_of_numpy),
                            ("authorless_downsample", authorless_downsample_numpy),
                            ("log_likelihood", log_likelihood_reference),
                            ("optimize_alpha", optimize_alpha_reference),
                            ("optimize_beta", optimize_beta_reference),
                            ("save_state", save_state_reference)):
        monkeypatch.setattr(topics, name, reference)


def corpus(rng, n_docs, vocabulary_size):
    """Documents with empty ones among them; the last three word ids never occur."""
    docs = [[rng.randrange(vocabulary_size - 3) for _ in range(rng.choice([0, 1, 40]))]
            for _ in range(n_docs)]
    docs[0] = []
    return docs


def assert_same(a, b):
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.n_dk, b.n_dk)
    assert np.array_equal(a.n_kw, b.n_kw)
    assert np.array_equal(a.n_k, b.n_k)
    assert np.array_equal(a.alpha, b.alpha)
    assert a.beta == b.beta
    assert a.rng.getstate() == b.rng.getstate()


@pytest.mark.parametrize("k", [1, 2, 5, 65])
def test_kernel_matches_reference(compiled, k):
    rng = random.Random(k)
    docs = corpus(rng, 60, 50)
    fast = init_state(docs, k, 50, rng_seed=k)
    ref = init_state(docs, k, 50, rng_seed=k)
    for sweep in range(1, 7):
        gibbs_sweep(fast, docs)
        gibbs_sweep_reference(ref)
        assert log_likelihood(fast) == log_likelihood(ref)
        if sweep % 2 == 0:
            optimize_alpha(fast)
            optimize_alpha(ref)
            optimize_beta(fast)
            optimize_beta(ref)
        assert_same(fast, ref)
    fast.validate(docs)


@pytest.mark.parametrize("k, v", [(1, 1), (1, 7), (2, 1), (3, 5), (5, 17), (16, 3), (17, 33),
                                  (65, 11)])
def test_word_major_sweep_matches_the_topic_major_reference(compiled, k, v):
    """The kernel's sweep over the word-major n_kw against the oracles'
    sweep over K topic-major rows, after each of several sweeps: the same
    z, counts and RNG state, and n_kw is each word's K counts side by side,
    for K and V of 1, odd, and on either side of a 16-count cache line."""
    rng = random.Random(100 * k + v)
    docs = [[rng.randrange(v) for _ in range(rng.choice([0, 1, 7, 40]))] for _ in range(30)]
    fast = init_state(docs, k, v, rng_seed=v)
    ref = init_state(docs, k, v, rng_seed=v)
    for _ in range(4):
        gibbs_sweep(fast, docs)
        gibbs_sweep_reference(ref)
        assert_same(fast, ref)
        assert log_likelihood(fast) == log_likelihood_reference(ref)
    by_word = np.zeros((v, k), dtype=np.int32)
    np.add.at(by_word, (np.asarray(fast.words), np.asarray(fast.z)), 1)
    assert np.array_equal(np.asarray(fast.n_kw).reshape(v, k), by_word)
    assert np.array_equal(count_views(fast)[1], by_word.T)


def corrupt(state, change):
    """state's word-major n_kw, n_dk and n_k after change(n_kw, n_dk, n_k),
    a dict of flat index -> added amount for each."""
    for name, edits in zip(("n_kw", "n_dk", "n_k"), change(state.k)):
        for at, amount in edits.items():
            getattr(state, name)[at] += amount


@pytest.mark.parametrize("change, code", [
    (lambda k: ({}, {}, {}), 0),
    # a count moved between two words of one topic keeps every topic's total
    (lambda k: ({0 * k + 1: -1, 3 * k + 1: 1}, {}, {}), 0),
    (lambda k: ({2 * k + 0: -99}, {}, {}), 2),
    (lambda k: ({}, {k + 1: 1}, {}), 3),
    # a count moved between two topics of one word changes both totals
    (lambda k: ({0 * k + 1: -1, 0 * k + 2: 1}, {}, {}), 4),
    (lambda k: ({3 * k + 2: 1}, {}, {2: 1}), 5),
], ids=["intact", "between words", "negative", "document row", "between topics", "total"])
def test_check_reads_the_word_major_counts(compiled, change, code):
    """The kernel's checks (codes 0 and 2-5) on corrupted word-major counts,
    and validate's message, which the numpy reference gives too."""
    docs = [[0, 0, 3, 3, 1], [3, 0, 2]]
    state = init_state(docs, 3, 4, rng_seed=1)
    state.z[:] = array.array("i", [1, 1, 1, 2, 0, 2, 0, 1])
    for name in ("n_dk", "n_kw", "n_k"):
        getattr(state, name)[:] = array.array("i", [0]) * len(getattr(state, name))
    assert _sweep.count(state)
    corrupt(state, change)
    assert _sweep.check(state) == code
    if code == 0:
        state.validate(docs)
        validate_reference(state, docs)
        return
    message = re.escape(topics._CORRUPTED[code])
    for validate in (state.validate, lambda docs: validate_reference(state, docs)):
        with pytest.raises(RuntimeError, match=message):
            validate(docs)


def test_train_samples_with_the_kernel(compiled, request):
    rng = random.Random(4)
    docs = corpus(rng, 40, 30)
    fast, fast_lls = topics.train(docs, 30, k=3, sweeps=12, burn_in=2,
                                  optimize_interval=3, rng_seed=1)
    request.getfixturevalue("oracle_sweep")
    ref, ref_lls = topics.train(docs, 30, k=3, sweeps=12, burn_in=2,
                                optimize_interval=3, rng_seed=1)
    assert fast_lls == ref_lls
    assert_same(fast, ref)


NO_COMPILER = "godspell-no-such-compiler"


@pytest.fixture
def no_compiler(monkeypatch, tmp_path, fresh_kernel):
    monkeypatch.setattr(_sweep, "COMPILER", NO_COMPILER)
    monkeypatch.setattr(_sweep, "cache_dir", lambda: tmp_path / "cache")


def test_build_failure_is_an_error(no_compiler, monkeypatch, tmp_path):
    segments = [Segment("a", ["Grace", "and", "grace"]), Segment("b", ["grace", "fell"])]
    docs = [[0, 2, 2], [2, 1]]
    for _ in range(2):  # a failure is not cached: each call tries to build
        with pytest.raises(_sweep.BuildError, match=NO_COMPILER):
            init_state(docs, 4, 3, rng_seed=2)
    with pytest.raises(_sweep.BuildError, match=NO_COMPILER):
        build_vocabulary(segments, set(), min_count=1)
    with pytest.raises(_sweep.BuildError, match=NO_COMPILER):
        authorless_downsample(docs, ["a", "b"], rng_seed=0)

    config = str(FIXTURES / "runconfig.json")
    out = tmp_path / "train"
    assert main(["topics-train", "--config", config, "--output", str(out)]) == 2
    error = json.loads((out / "error.json").read_text(encoding="utf-8"))
    assert error["subcommand"] == "topics-train"
    assert error["error_kind"] == "BuildError"
    assert NO_COMPILER in error["message"]
    assert not (out / "topics" / "state.json").exists()

    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN, golden)
    for command in ("topics-inspect", "stats"):
        assert main([command, "--config", config, "--output", str(golden)]) == 0
        assert not (golden / "error.json").exists()
    assert (golden / "topics" / "top_words.csv").is_file()
    assert (golden / "stats.json").read_bytes() == (GOLDEN / "stats.json").read_bytes()

    monkeypatch.undo()  # the compiler back: the next call loads the kernel
    assert_works(_sweep.kernel())


def test_reference_topics_train_writes_the_golden_state(oracle_sweep, tmp_path):
    """The oracles' pure-Python sweep and the numpy code the kernel replaced
    train the golden state.json byte for byte."""
    config = str(FIXTURES / "runconfig.json")
    assert main(["topics-train", "--config", config, "--output", str(tmp_path)]) == 0
    assert ((tmp_path / "topics" / "state.json").read_bytes()
            == (GOLDEN / "topics" / "state.json").read_bytes())


def kept(rng, ratio) -> int:
    """How many of one document's words 0..n-1, all of one novel, keep keeps
    against ratio, n entries: one rng.random() < ratio[i] for each, in order."""
    n = len(ratio)
    words, offsets = array.array("i", range(n)), array.array("i", [0, n])
    return _sweep.keep(rng, words, offsets, array.array("i", [0]), ratio, n)


def kernel_random_is(rng, expected) -> bool:
    """Whether the kernel's next len(expected) rng.random() values are
    expected, read through keep, the kernel call that compares what it drew
    with a ratio: u < nextafter(e, 2) and not u < e hold together only for
    u == e. rng ends where one call leaves it."""
    e = np.array(expected, dtype=np.float64)
    twin = random.Random()
    twin.setstate(rng.getstate())
    below = kept(twin, e)
    at_most = kept(rng, np.nextafter(e, 2.0))
    return twin.getstate() == rng.getstate() and below == 0 and at_most == len(e)


@pytest.mark.parametrize("offsets, novel_of", [
    ([0, 2, 4], [0]),        # one novel short
    ([0, 3, 2, 4], [0, 0, 0]),  # falling
    ([0, 2, 5], [0, 0]),     # past the 4 words
    ([1, 2, 4], [0, 0]),     # not from 0
    ([], []),
])
def test_documents_that_do_not_fit_the_words_are_refused(compiled, offsets, novel_of):
    """relabel, novel_ratios and keep write through the offsets: the kernel
    never sees offsets outside the words, nor fewer novels than documents."""
    words = array.array("i", [0, 1, 0, 1])
    rng = random.Random(1)
    before = rng.getstate()
    offsets, novel_of = array.array("i", offsets), array.array("i", novel_of)
    calls = [lambda: _sweep.keep(rng, words, offsets, novel_of, array.array("d", [1.0] * 2), 2),
             lambda: _sweep.novel_ratios(words, offsets, novel_of)]
    if len(novel_of) == len(offsets) - 1:
        calls.append(lambda: _sweep.relabel(words, offsets, array.array("i", [0, 1])))
    for call in calls:
        with pytest.raises(ValueError, match="offsets|novel"):
            call()
    assert rng.getstate() == before and words.tolist() == [0, 1, 0, 1]


class TestKernelDraws:
    """The kernel's Mersenne Twister against random.Random's own calls: the
    same values and the same state afterwards, wherever in the stream."""

    @pytest.mark.parametrize("seed", [0, 1, 2024])
    @pytest.mark.parametrize("n", [0, 1, 100_000])
    @pytest.mark.parametrize("k", [1, 2, 5, 64, 65, 2**16 + 1, 2**31 + 1, 2**32 - 1])
    def test_randrange_matches(self, compiled, k, n, seed):
        ref, rng = random.Random(seed), random.Random(seed)
        expected = [ref.randrange(k) for _ in range(n)]
        assert _sweep.randrange(rng, k, n).tolist() == expected
        assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("seed", [0, 1, 2024])
    @pytest.mark.parametrize("n", [0, 1, 100_000])
    def test_random_matches(self, compiled, n, seed):
        ref, rng = random.Random(seed), random.Random(seed)
        assert kernel_random_is(rng, [ref.random() for _ in range(n)])
        assert rng.getstate() == ref.getstate()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64), k=st.integers(1, 2**32 - 1), n=st.integers(0, 2000),
           before=st.integers(0, 700), gauss=st.booleans())
    def test_any_stream_position(self, compiled, seed, k, n, before, gauss):
        ref = random.Random(seed)
        for _ in range(before):
            ref.random()
        if gauss:
            ref.gauss(0.0, 1.0)  # leaves a cached gauss_next in the state
        rng = random.Random()
        rng.setstate(ref.getstate())
        expected_z = [ref.randrange(k) for _ in range(n)]
        expected_u = [ref.random() for _ in range(n)]
        assert _sweep.randrange(rng, k, n).tolist() == expected_z
        assert kernel_random_is(rng, expected_u)
        assert rng.getstate() == ref.getstate()

    # a fresh rng is at position 624, so its first word twists the state;
    # each earlier word moves the twist one word later
    @pytest.mark.parametrize("before", [0, 1, 2, 311, 312, 313, 622, 623, 624, 625, 700])
    @pytest.mark.parametrize("n", [623, 624, 625, 1248, 1249])
    def test_twist_boundaries(self, compiled, n, before):
        start = random.Random(before)
        for _ in range(before):
            start.getrandbits(32)
        ref, rng = random.Random(), random.Random()
        for draw in ("randrange", "random"):
            ref.setstate(start.getstate())
            rng.setstate(start.getstate())
            if draw == "randrange":  # one word a draw: 2**32 - 1 is the one value retried
                expected = [ref.randrange(2**32 - 1) for _ in range(n)]
                assert _sweep.randrange(rng, 2**32 - 1, n).tolist() == expected
            else:
                assert kernel_random_is(rng, [ref.random() for _ in range(n)])
            assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("seed", [0, 35])
    def test_three_twists_word_for_word(self, compiled, seed):
        """The twist's three loops (words 0-226 read ahead, 227-622 wrap back,
        623 reads word 0) over three twists in a row: every word drawn, and
        after each twist the whole state, which holds every twisted word."""
        ref, rng = random.Random(seed), random.Random(seed)
        for _ in range(3):  # a fresh rng is at position 624: each call twists first
            expected = [ref.randrange(2**32 - 1) for _ in range(624)]
            assert _sweep.randrange(rng, 2**32 - 1, 624).tolist() == expected
            assert rng.getstate() == ref.getstate()
        assert kernel_random_is(rng, [ref.random() for _ in range(3 * 312)])
        assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("k", [0, -1, 2**32, 2**40, 2**70])
    def test_bound_outside_one_word_raises(self, compiled, k):
        rng = random.Random(3)
        before = rng.getstate()
        with pytest.raises(ValueError, match="randrange bound"):
            _sweep.randrange(rng, k, 5)
        assert rng.getstate() == before


def float_bits(x) -> int:
    return int(np.float64(x).view(np.int64))


def test_gathered_sum_is_ndarray_sum_bitwise(compiled):
    """At every length through two levels of numpy's pairwise split; the
    terms' magnitudes spread over twelve orders, so another order of
    addition shows in the last bits."""
    rng = np.random.default_rng(5)
    table = rng.standard_normal(997) * 10.0 ** rng.uniform(-6, 6, 997)
    for n in [*range(301), 1000, 8191, 8192, 8193]:
        index = rng.integers(0, len(table), n, dtype=np.int32)
        expected = float_bits(table[index].sum())
        assert float_bits(_sweep.pairwise_sums(table, index=index)[0]) == expected, n


SUM_LENGTHS = [0, 1, 7, 8, 9, 15, 16, 127, 128, 129, 1000, 8191, 8192, 8193]


@pytest.mark.parametrize("n", SUM_LENGTHS)
def test_weighted_pairwise_sum_is_numpy_bitwise(compiled, n):
    """(weights * table[index]).sum() and its parts, as the optimisers take
    them, against numpy's: the int32 weight is cast to double before the
    multiply, and the products are added pairwise. The weights reach
    2**31 - 1, so a product rounds, and the table spreads over twelve
    orders."""
    rng = np.random.default_rng(n)
    table = rng.standard_normal(n + 3) * 10.0 ** rng.uniform(-6, 6, n + 3)
    weights = rng.integers(1, 2**31, n, dtype=np.int32)
    index = rng.integers(0, len(table), n, dtype=np.int32)
    bounds = sorted({0, n, *rng.integers(0, n + 1, 4).tolist()})
    cases = [(table[:n], {}), (table, {"index": index})]
    for terms_table, kwargs in cases:
        terms = weights * (terms_table[index] if kwargs else terms_table)
        got = _sweep.pairwise_sums(terms_table, bounds, weights=weights, **kwargs)
        want = [terms[a:b].sum() for a, b in zip(bounds, bounds[1:])]
        assert list(map(float_bits, got)) == list(map(float_bits, want))
        assert got.tolist() == pairwise_sums_reference(terms_table, bounds, weights=weights,
                                                       **kwargs)
    assert float_bits(_sweep.pairwise_sums(table[:n])[0]) == float_bits(table[:n].sum())


@pytest.mark.parametrize("d, k", [(0, 3), (1, 1), (17, 5), (300, 65)])
def test_pairwise_sum_by_column_is_numpy_bitwise(compiled, d, k):
    """log_likelihood's document-topic term: table (M + 1, K), flat, read at
    (n_dk[d, t], t) for the int32 (D, K) counts, summed as the (D, K) array."""
    rng = np.random.default_rng(d * k)
    n_dk = rng.integers(0, 40, (d, k), dtype=np.int32)
    table = rng.standard_normal((41, k)) * 10.0 ** rng.uniform(-6, 6, (41, k))
    got = _sweep.pairwise_sums(table, index=n_dk, width=k)[0]
    assert float_bits(got) == float_bits(table[n_dk, np.arange(k)].sum())


@pytest.mark.parametrize("shape", [(65, 19948), (65, 32348)])
def test_gathered_sum_of_count_matrices(compiled, shape):
    """log_likelihood's (K, V) term at the sizes of the benchmark and the
    5M-word corpus: gammaln(c + beta) indexed by int32 counts."""
    rng = np.random.default_rng(shape[1])
    n_kw = rng.negative_binomial(0.05, 0.02, shape).astype(np.int32)
    for beta in (0.01, 0.0731):
        table = scipy.special.gammaln(np.arange(n_kw.max() + 1) + beta)
        got = _sweep.pairwise_sums(table, index=n_kw)[0]
        assert float_bits(got) == float_bits(table[n_kw].sum())
        assert [got] == pairwise_sums_reference(table, index=n_kw)
        word_major = np.ascontiguousarray(n_kw.T)
        assert _sweep.pairwise_sums(table, index=word_major, index_cols=shape[0])[0] == got


@pytest.mark.parametrize("k, v", [(1, 1), (2, 1), (1, 300), (3, 7), (16, 129), (17, 100),
                                  (33, 257), (65, 1000), (2, 127), (2, 128), (3, 128)])
def test_transposed_walk_is_the_topic_major_sum(compiled, k, v):
    """A word-major (V, K) index walked with index_cols=K against the current
    call on the same counts held topic-major, (K, V), and against numpy's
    sum: the same bits, over one part and over parts that cut the columns
    anywhere, and with columns of 127 and 128 terms, one short of and as
    long as numpy's largest leaf (at (2, 128) each leaf is one column)."""
    rng = np.random.default_rng(k * v)
    n_kw = rng.negative_binomial(0.3, 0.1, (k, v)).astype(np.int32)
    top = int(n_kw.max()) + 1
    table = scipy.special.gammaln(np.arange(top) + 0.01) * 10.0 ** rng.uniform(-6, 6, top)
    word_major = np.ascontiguousarray(n_kw.T)
    n = k * v
    for bounds in ([0, n], sorted({0, n, *rng.integers(0, n + 1, 6).tolist()})):
        want = _sweep.pairwise_sums(table, bounds, index=n_kw)
        got = _sweep.pairwise_sums(table, bounds, index=word_major, index_cols=k)
        assert list(map(float_bits, got)) == list(map(float_bits, want))
        assert got.tolist() == pairwise_sums_reference(table, bounds, index=n_kw)
    assert float_bits(got[-1]) == float_bits(want[-1])
    assert (float_bits(_sweep.pairwise_sums(table, index=word_major, index_cols=k)[0])
            == float_bits(table[n_kw].sum()))


def test_transposed_walk_rejects_what_it_cannot_walk(compiled):
    table = np.arange(4.0)
    index = np.array([0, 1, 2, 3, 3, 2], dtype=np.int32)
    for kwargs in ({"index": index, "index_cols": 4}, {"index_cols": 2},
                   {"index": index, "index_cols": 0}):
        with pytest.raises(ValueError, match="index_cols"):
            _sweep.pairwise_sums(table, **kwargs)
    index[5] = 4
    with pytest.raises(ValueError, match="outside"):  # an entry no part reads is checked too
        _sweep.pairwise_sums(table, [0, 2], index=index, index_cols=3)


def test_distinct_numbers_the_patterns_by_first_appearance(compiled):
    """Thousands of distinct doubles, so the table grows several times,
    given whole or in pieces to one Distinct: the values are the distinct
    bit patterns in order of first appearance (-0.0 apart from 0.0, each
    nan apart), and each id points at its own, across the calls too."""
    rng = np.random.default_rng(1)
    other_nan = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)
    pool = np.concatenate([rng.random(5000), [0.0, -0.0, np.nan, -np.nan, np.inf, 5e-324],
                           other_nan])
    x = np.concatenate([rng.choice(pool, 40_000), pool])
    for values_in, pieces in ((x, 1), (x, 7), (x[:0], 1), (x[:1], 1), (np.full(3000, 0.25), 3)):
        numbers = _sweep.Distinct()
        ids = array.array("i")
        for piece in np.array_split(values_in, pieces):
            ids.extend(numbers.ids(np.ascontiguousarray(piece)))
        bits = values_in.view(np.int64).tolist()
        order = list(dict.fromkeys(bits))
        assert len(numbers) == len(order) and numbers.values.typecode == "d"
        assert np.frombuffer(numbers.values, dtype=np.float64)[:len(numbers)].view(
            np.int64).tolist() == order
        assert [order[i] for i in ids] == bits


def test_row_texts_of_numbers(compiled):
    """With texts, each index as the text it points at; an index outside
    the texts is a ValueError, before any row is given."""
    parts = [json.dumps(x) for x in (0.5, -0.0, float("nan"), 1e22, 1 / 3)]
    store = bytearray("".join(parts).encode())
    at = array.array("i", itertools.accumulate(map(len, parts), initial=0))
    ids = array.array("i", [4, 3, 2, 1, 0, 0])
    rows = list(map(bytes, _sweep.row_texts(ids, 2, texts=(store, at))))
    assert rows == [json.dumps([1 / 3, 1e22, float("nan")]).encode(),
                    json.dumps([-0.0, 0.5, 0.5]).encode()]
    for bad in (-1, 5):
        ids[1] = bad
        with pytest.raises(ValueError, match="outside the texts"):
            next(_sweep.row_texts(ids, 2, texts=(store, at)))


@pytest.mark.parametrize("block", [64, 4096])
@pytest.mark.parametrize("k, v", [(1, 1), (1, 300), (65, 1), (3, 7), (16, 129), (65, 1000)])
def test_transposed_row_texts_are_the_topic_major_rows(compiled, monkeypatch, k, v, block):
    """A word-major (V, K) n_kw written as its K topic-major rows, read by
    stride where they lie: each row's text is json.dumps of that row of
    n_kw.T, with blocks small enough to cut between rows."""
    rng = np.random.default_rng(k * v)
    word_major = (rng.negative_binomial(0.3, 0.001, (v, k)) - 1).astype(np.int32)
    monkeypatch.setattr(_sweep, "BLOCK", block)
    rows = list(map(bytes, _sweep.row_texts(word_major, k, transposed=True)))
    assert rows == [json.dumps(row).encode() for row in word_major.T.tolist()]


@pytest.mark.parametrize("bad", [-1, 4])
def test_gathered_sum_index_outside_table_rejected(compiled, bad):
    table = np.arange(4.0)
    with pytest.raises(ValueError, match="outside"):
        _sweep.pairwise_sums(table, index=np.array([0, 3, bad, 1], dtype=np.int32))
    with pytest.raises(ValueError, match="outside"):  # 3 * 2 + 1 is past the table
        _sweep.pairwise_sums(table, index=np.array([0, 3], dtype=np.int32), width=2)
    with pytest.raises(ValueError, match="outside"):
        _sweep.pairwise_sums(table, [0, 5])
    with pytest.raises(ValueError, match="outside"):
        _sweep.pairwise_sums(table, [3, 1])
    with pytest.raises(ValueError, match="width"):  # without an index, term i is table[i]
        _sweep.pairwise_sums(table, width=2)
    with pytest.raises(ValueError, match="width"):
        _sweep.pairwise_sums(table, index=np.array([0], dtype=np.int32), width=0)


def test_index_at_the_last_row_is_read(compiled):
    """The last row of the table is inside it, with and without a width."""
    table = np.arange(1.0, 9.0)
    assert _sweep.pairwise_sums(table, index=np.array([7], dtype=np.int32)).tolist() == [8.0]
    assert _sweep.pairwise_sums(table, index=np.array([3, 3], dtype=np.int32),
                                width=2).tolist() == [15.0]


def test_pairwise_sums_never_cast(compiled):
    """An index and weights are read as the int32 they must hold: any other
    item format, int64 included, is a TypeError naming the argument, not a
    cast, which would read 2**32 + 1 as entry 1."""
    table = np.arange(4.0)
    for name, kwargs in [("index", {"index": np.array([2**32 + 1], dtype=np.int64)}),
                         ("index", {"index": np.array([1], dtype=np.uint32)}),
                         ("index", {"index": np.array([1], dtype=np.int16)}),
                         ("index", {"index": [1]}),
                         ("weights", {"weights": np.array([1, 1, 1, 1], dtype=np.int64)})]:
        with pytest.raises(TypeError, match=name):
            _sweep.pairwise_sums(table, **kwargs)
    with pytest.raises(TypeError, match="table"):
        _sweep.pairwise_sums(np.arange(4.0, dtype=np.float32))


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.one_of(st.integers(-2**31, 2**31 - 1),
                                 st.sampled_from([-2**31, 2**31 - 1, 0])), max_size=50))
def test_span_and_row_texts_at_the_int32_edges(compiled, values):
    """span is min and max with 0, and a row's text is json's, for any int32."""
    buf = array.array("i", values)
    assert _sweep.span(buf) == (min([0, *values]), max([0, *values]))
    assert list(map(bytes, _sweep.row_texts(buf, 1))) == [json.dumps(values).encode()]


@settings(max_examples=60, deadline=None)
@given(cols=st.integers(1, 4), size=st.integers(1, 9), data=st.data())
def test_histogram_counts_each_column(compiled, cols, size, data):
    values = data.draw(st.lists(st.integers(0, size - 1), max_size=12 * cols))
    values = values[:len(values) - len(values) % cols]
    hist = _sweep.histogram(array.array("i", values), size, cols)
    for c in range(cols):
        counts = collections.Counter(values[c::cols])
        assert hist[c * size:(c + 1) * size].tolist() == [counts[x] for x in range(size)]


@settings(max_examples=60, deadline=None)
@given(parts=st.lists(st.tuples(st.lists(st.integers(-2**31, 2**31 - 1), max_size=9),
                                st.floats(allow_nan=False) | st.sampled_from([1e-5, 0.01, 5.0])),
                      max_size=6))
def test_shifted_is_python_int_plus_float(compiled, parts):
    """Each value plus its part's shift is the float Python's int + float gives."""
    values = array.array("i", [n for part, _ in parts for n in part])
    bounds = array.array("i", itertools.accumulate((len(part) for part, _ in parts), initial=0))
    shifts = array.array("d", [shift for _, shift in parts])
    expected = [n + shift for part, shift in parts for n in part]
    assert _sweep.shifted(values, bounds, shifts).tolist() == expected


def test_shifted_refuses_bounds_that_do_not_cover_the_values(compiled):
    values, shifts = array.array("i", [1, 2, 3]), array.array("d", [0.5, 0.25])
    for bounds in ([0, 1, 2], [1, 2, 3], [0, 2, 1], [0, 3], [0, 1, 4]):
        with pytest.raises(ValueError, match="do not rise"):
            _sweep.shifted(values, array.array("i", bounds), shifts)
    assert _sweep.shifted(values, array.array("i", [0, 0, 3]), shifts).tolist() == [
        1.25, 2.25, 3.25]


@pytest.mark.parametrize("cols", [1, 3, 65])
def test_histogram_of_repeated_values(compiled, cols):
    """Long runs of one value, as n_kw's zeros are, then runs of others, and a
    length no multiple of the kernel's lanes: np.bincount of each column. A
    value outside [0, size) is a ValueError, whatever the lanes hold."""
    rng = np.random.default_rng(cols)
    runs = [np.zeros(10_007 * cols), np.full(3 * cols, 5), rng.integers(0, 7, 997 * cols),
            np.full(501 * cols, 6)]
    values = np.concatenate(runs).astype(np.int32)
    hist = _sweep.histogram(values, 7, cols)
    assert len(hist) == 7 * cols
    for c in range(cols):
        expected = np.bincount(values[c::cols], minlength=7)
        assert hist[c * 7:(c + 1) * 7].tolist() == expected.tolist()
    values[-1] = 7
    with pytest.raises(ValueError, match=r"outside \[0, 7\)"):
        _sweep.histogram(values, 7, cols)


def domain_parts():
    """The points on which gammaln and digamma must equal scipy's: n + c for
    n < 200k and five offsets c, the integers 1 to 10**6, 2M log-uniform
    points in [1e-5, 1e9], 2M uniform points in (0, 20), and the edges of
    Cephes' branches, one part at a time."""
    rng = np.random.default_rng(0)
    n = np.arange(200_000, dtype=np.float64)
    for c in (1e-5, 0.01, 5 / 65, 3.7, 200.0):
        yield n + c
    yield np.arange(1, 10**6 + 1, dtype=np.float64)
    yield np.exp(rng.uniform(math.log(1e-5), math.log(1e9), 2_000_000))
    yield rng.uniform(np.nextafter(0.0, 1.0), 20.0, 2_000_000)
    edges = np.array([5e-324, 1e-300, 1e-17, 0.5, 1.0, 2.0, 2.5, 3.0, 10.0, 10.5, 13.0, 999.5,
                      1000.0, 1e8, 1e8 + 1, 1e17, 1e18, 1e200, 2.556348e305, 3e305, 1.7e308])
    yield np.concatenate([edges, np.nextafter(edges[1:], 0.0), np.nextafter(edges, np.inf)])


FUNCTIONS = [("gammaln", scipy.special.gammaln, gammaln_reference),
             ("digamma", scipy.special.digamma, digamma_reference)]


@pytest.mark.parametrize("name, oracle, _", FUNCTIONS)
def test_kernel_functions_equal_scipy_bitwise(compiled, name, oracle, _):
    for x in domain_parts():
        got, want = np.frombuffer(getattr(_sweep, name)(x)), oracle(x)
        differ = got.view(np.int64) != want.view(np.int64)
        assert not differ.any(), (name, x[differ][:5], got[differ][:5], want[differ][:5])


@pytest.mark.parametrize("name, _, reference", FUNCTIONS)
def test_references_equal_the_kernel(compiled, name, _, reference):
    rng = np.random.default_rng(1)
    x = np.concatenate([rng.choice(part, 2_000) for part in domain_parts()])
    got = np.frombuffer(getattr(_sweep, name)(x))
    assert np.array_equal(np.array([reference(v) for v in x.tolist()]).view(np.int64),
                          got.view(np.int64))


@pytest.mark.parametrize("name", ["gammaln", "digamma"])
def test_sequences_and_buffers(compiled, name):
    """Any iterable of numbers, a 1-D buffer included, is read number by
    number. The result is an array of doubles."""
    fn = getattr(_sweep, name)
    oracle = getattr(scipy.special, name)
    x = np.arange(1.0, 13.0)
    want = oracle(x).tolist()
    for given in (x, x.tolist(), iter(x.tolist()), array.array("d", x), x[::2],
                  range(1, 13)):
        got = fn(given)
        assert isinstance(got, array.array) and got.typecode == "d"
        assert got.tolist() == (want[::2] if len(got) == 6 else want)
    assert fn([]) == array.array("d")
    before = x.copy()
    fn(x)
    assert np.array_equal(x, before)  # computed in a copy


@pytest.mark.parametrize("kernel", ["compiled", "reference"])
@pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, -2.5, math.nan, math.inf, -math.inf,
                                 [1.0, 0.0], [[2.0], [math.nan]]])
def test_non_finite_or_non_positive_argument_rejected(request, kernel, bad):
    if kernel == "compiled":
        request.getfixturevalue("compiled")
        functions = (_sweep.gammaln, _sweep.digamma)
    else:
        functions = (elementwise(gammaln_reference), elementwise(digamma_reference))
    for fn in functions:
        with pytest.raises(ValueError, match="finite positive"):
            fn(np.ravel(bad).tolist())


def small_state():
    docs = [[0, 1, 2, 1], [], [2, 2, 3]]
    return docs, init_state(docs, 3, 5, rng_seed=6)


def assert_works(lib):
    docs, state = small_state()
    _, ref = small_state()
    _sweep.sweep(lib, state)
    gibbs_sweep_reference(ref)
    assert_same(state, ref)
    x = np.array([0.25, 3.7, 1e4])
    out = np.empty_like(x)
    lib.digamma(len(x), x.ctypes.data, out.ctypes.data)
    assert np.array_equal(out, scipy.special.digamma(x))


@pytest.mark.parametrize("damage", ["garbage", "truncated", "empty", "no checksum",
                                    "checksum not UTF-8"])
def test_damaged_cached_library_is_rebuilt(compiled, tmp_path, damage):
    good = tmp_path / "good"
    good.mkdir()
    _sweep.build(good / _sweep.library_name())
    built = (good / _sweep.library_name()).read_bytes()
    cache = tmp_path / "cache"
    cache.mkdir()
    cached = cache / _sweep.library_name()
    checksum = (good / (_sweep.library_name() + ".sha256")).read_text()
    if damage == "no checksum":
        cached.write_bytes(built)
    elif damage == "checksum not UTF-8":
        cached.write_bytes(built)
        cached.with_name(cached.name + ".sha256").write_bytes(b"\xff\xfe")
    else:
        cached.write_bytes({"garbage": b"not a shared library",
                            "truncated": built[: len(built) // 3],
                            "empty": b""}[damage])
        cached.with_name(cached.name + ".sha256").write_text(checksum)
    lib = _sweep.load(cache)
    assert_works(lib)
    assert cached.read_bytes() == built


def test_unwritable_cache_still_compiles(compiled, tmp_path, caplog):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("", encoding="utf-8")
    with caplog.at_level(logging.INFO, logger="godspell._sweep"):
        lib = _sweep.load(blocker / "godspell")
    assert_works(lib)
    assert "not writable" in caplog.text
    assert list(tmp_path.iterdir()) == [blocker]


def test_kernel_is_cached_under_xdg_cache_home(compiled, fresh_kernel, monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert_works(_sweep.kernel())
    name = _sweep.library_name()
    assert sorted(p.name for p in (tmp_path / "godspell").iterdir()) == [name, name + ".sha256"]


def test_each_entry_point_is_declared_as_its_prototype(compiled):
    """Every function SOURCE exports has, once loaded, the argtypes of its C
    prototype, one per parameter: c_void_p for a pointer, c_double for
    double and c_int64 for int64_t, relabel's (int64_t, int32_t *,
    int32_t *, const int32_t *, int64_t) included; and returns int64_t."""
    scalar = {"int64_t": ctypes.c_int64, "double": ctypes.c_double}
    defined = re.findall(r"^int64_t (\w+)\((.*?)\)\n\{", _sweep.SOURCE, re.M | re.S)
    assert "relabel" in dict(defined)
    for name, params in defined:
        want = [ctypes.c_void_p if param.split()[-1].startswith("*") else scalar[param.split()[0]]
                for param in params.split(",")]
        fn = getattr(compiled, name)
        assert list(fn.argtypes) == want, name
        assert fn.restype is ctypes.c_int64, name
    assert list(compiled.relabel.argtypes) == [ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
                                               ctypes.c_void_p, ctypes.c_int64]


def test_a_parameter_type_the_loader_does_not_know_is_refused(monkeypatch, tmp_path):
    """An exported function taking an int32_t by value, a type the loader
    has no ctypes type for, stops the load with a TypeError naming the
    function and the parameter."""
    monkeypatch.setattr(_sweep, "SOURCE",
                        _sweep.SOURCE + "\nint64_t halve(int32_t x)\n{\n    return x / 2;\n}\n")
    with pytest.raises(TypeError, match="halve: no ctypes type for 'int32_t x'"):
        _sweep.load(tmp_path)


def test_library_name_keys_source_and_flags(monkeypatch):
    name = _sweep.library_name()
    monkeypatch.setattr(_sweep, "FLAGS", _sweep.FLAGS + ("-g",))
    assert _sweep.library_name() != name
    monkeypatch.undo()
    monkeypatch.setattr(_sweep, "SOURCE", _sweep.SOURCE + "\n")
    assert _sweep.library_name() != name


def test_source_is_ascii():
    """SOURCE stays ASCII, a byte a character in memory: one character past
    Latin-1 would double the str, at every import of the module."""
    assert _sweep.SOURCE.isascii()
