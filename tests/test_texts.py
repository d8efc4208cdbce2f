"""The two text passes of topics-train that Python does around the kernel:
``topics.share_texts``' text of state.json's shares, taken from ``json.dumps`` a
block at a time and copied by the kernel, and ``vocabulary_of``, the
tokens of a FormTable's forms, against the per-form ``vocabulary_of_numpy``
and the two facts about ``str`` it rests on."""

import array
import json
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from godspell import _sweep, topics
from godspell.topics import VocabularyError
from oracles import FormTableReference, vocabulary_of_numpy


@pytest.fixture(scope="module")
def compiled():
    return _sweep.kernel()


def ties() -> list[float]:
    """Doubles m * 2**-k whose exact decimal has 18 significant digits, the
    last a 5: at 17 digits they lie half way between two decimals."""
    found = []
    for k in range(1, 80):
        for m in range(1, 400, 2):
            digits = str(m * 5**k)
            if len(digits) == 18 and digits.endswith("5"):
                found.append(m * 2.0**-k)
    return found


def edge_numbers() -> list[float]:
    """Zeros, the non-finite, the extremes, every power of two, the
    neighbours of the layout switches at 1e-4 and 1e16, and exact ties."""
    switches = [1e-4, 1e-5, 9.999999999999999e-05, 1e15, 1e16, 1e17, 9999999999999998.0,
                1234567890123456.8, 123456789012345680.0, 0.1, 0.5, 1.0, 10.0]
    near = [math.nextafter(x, direction) for x in switches for direction in (0.0, math.inf)]
    extremes = [0.0, math.nan, math.inf, 5e-324, 1e-323, sys.float_info.min,
                math.nextafter(sys.float_info.min, 0.0), sys.float_info.max,
                float(2**53), float(2**53 + 2), float(2**63), float(2**64)]
    powers = [2.0**e for e in range(-1074, 1024)]
    positive = switches + near + extremes + powers + ties()
    return positive + [-x for x in positive]


def test_row_texts_of_numbers_are_json(compiled, monkeypatch):
    """Thousands of distinct doubles in rows of 65, each at least once, in
    blocks of the default size and of 4096 bytes: each row's text from
    share_texts is json.dumps of its numbers, at the edges of float text too."""
    rng = np.random.default_rng(7)
    numbers = np.concatenate([rng.random(8192 + 300), edge_numbers()])
    assert len(np.unique(numbers.view(np.int64))) > 8192
    edges = [-0.0, math.nan, math.inf, -math.inf, 5e-324, sys.float_info.max,
             math.nextafter(1e-5, 0.0), math.nextafter(1e-5, 1.0), math.nextafter(1e16, 0.0),
             math.nextafter(1e16, math.inf)]
    assert set(map(repr, edges)) <= set(map(repr, numbers.tolist()))
    rows, cols = len(numbers) // 65 + 1, 65
    ids = np.concatenate([rng.permutation(len(numbers)),
                          rng.integers(0, len(numbers), rows * cols - len(numbers))])
    matrix = numbers[ids.reshape(rows, cols)]
    for block in (_sweep.BLOCK, 4096):
        monkeypatch.setattr(_sweep, "BLOCK", block)
        texts = list(map(bytes, topics.share_texts(
            lambda r0, r1: np.ascontiguousarray(matrix[r0:r1]).reshape(-1), rows, cols)))
        assert texts == [json.dumps(row).encode() for row in matrix.tolist()]
    with pytest.raises(TypeError, match="x must be"):
        next(topics.share_texts(lambda r0, r1: array.array("f", [1.0]), 1, 1))


# forms at the edges of the vocabulary's rules
FORMS = [
    # final sigma, which the lowered join must give as each form's lower() does
    "ΟΔΟΣ", "ΟΔΟΣ,", "Σ", "ΣΑΣ", "ΑΣ.", "«ΛΟΓΟΣ»", "ΟΔΟΣ’", "ς", "σ", "ΟΔΌΣ",
    # İ lowers to two code points, i and a combining dot
    "İ", "İstanbul", "KALİ", "İ.", "i̇",
    # the edge characters at the edges and inside
    "“word”", "‘word’", "—word—", "–word–", "…word…", "«word»", "word", "word“inside”word",
    "a—b", "don't", "'tis", "rock'n'roll", "(amen)", "Amen.", '"Amen,"', "é", "É",
    # forms that strip to nothing
    "—", "...", "«»", "“”‘’—–…«»", "!!!", "'", "-",
    # bytes alike past the 8 the sort's keys hold, and NULs that pad a key the same
    "understand", "understanding", "understands", "Understandable", "abcdefgh", "abcdefghi",
    "abcdefgh\x00", "ab", "ab\x00", "ab\x00\x00c",
    # stopwords, upper-case and not
    "The", "the", "THE", "and", "AND", "a", "b",
]
# an upper-case stopword, a mixed-case one, and ones holding whitespace or nothing,
# which can never match a token
STOPWORDS = {"THE", "And", "a b", "and\tor", "", "ὈΔΟΣ"}


def documents(words: list[str], size: int) -> tuple[list[str], array.array]:
    """Texts of size words each and the offsets of the documents they make."""
    texts = [" ".join(words[i:i + size]) for i in range(0, len(words), size)]
    return texts, array.array("i", range(0, len(words), size)) + array.array("i", [len(words)])


def same_vocabulary(words: list[str], stopwords, min_count: int, size: int = 7):
    """vocabulary_of on a FormTable against vocabulary_of_numpy on the
    per-word FormTableReference: the same Vocabulary (words, ids, frequencies,
    stopwords) and the same documents, or the same VocabularyError."""
    texts, offsets = documents(words, size)
    table, reference = _sweep.FormTable(), FormTableReference()
    for text in texts:
        table.add(text.encode())
        reference.add(text.encode())
    try:
        expected, expected_docs = vocabulary_of_numpy(reference, offsets, stopwords, min_count)
    except VocabularyError:
        with pytest.raises(VocabularyError):
            topics.vocabulary_of(table, offsets, stopwords, min_count)
        return None
    vocab, docs = topics.vocabulary_of(table, offsets, stopwords, min_count)
    assert vocab == expected
    assert [d.tolist() for d in docs] == [d.tolist() for d in expected_docs]
    return vocab


@pytest.mark.parametrize("min_count", [1, 2, 3])
def test_vocabulary_of_the_edge_forms(compiled, min_count):
    rng = random.Random(min_count)
    words = [rng.choice(FORMS) for _ in range(3000)]
    vocab = same_vocabulary(words, STOPWORDS, min_count)
    assert "οδος" in vocab.ids and "word" in vocab.ids and "the" not in vocab.ids
    assert "i̇" in vocab.ids and "" not in vocab.ids


def test_every_form_of_the_edge_list_once(compiled):
    """min_count 1 keeps each token a form gives; the stopwords drop theirs,
    and "a b" drops neither "a" nor "b"."""
    vocab = same_vocabulary(FORMS, STOPWORDS, 1)
    assert {"the", "and"}.isdisjoint(vocab.ids) and {"a", "b"} <= set(vocab.ids)
    assert vocab.words == sorted(vocab.words)


# letters, marks and every edge character, but no whitespace
ALPHABET = "aAbBΣσςİiΟοé́̇\x00'.,;:!?-()[]\"“”‘’—–…«»"


@settings(max_examples=150, deadline=None)
@given(words=st.lists(st.text(ALPHABET, min_size=1, max_size=6), max_size=120),
       stopwords=st.sets(st.text(ALPHABET + " \t", max_size=4), max_size=5),
       min_count=st.integers(-1, 4), size=st.integers(1, 9))
def test_vocabulary_of_random_forms(compiled, words, stopwords, min_count, size):
    same_vocabulary(words, stopwords, min_count, size)


def test_the_lowered_join_is_each_form_lowered():
    """One str.lower() of the space-separated forms lowers each as it would
    alone: a space ends a final sigma's context as the string's end does."""
    rng = random.Random(35)
    chars = "ΣσςΑαİIi’'́̇ͅ­ǅAa.·"
    forms = ["".join(rng.choice(chars) for _ in range(rng.randint(1, 6)))
             for _ in range(200_000)]
    assert " ".join(forms).lower() == " ".join(form.lower() for form in forms)
    # and no form lowers to a space, which would split it in vocabulary_of
    assert [c for c in range(0x110000) if " " in chr(c).lower()] == [ord(" ")]


def test_utf8_byte_order_is_str_order():
    rng = random.Random(8)
    code_points = [c for c in range(0x110000) if not 0xD800 <= c < 0xE000]
    strings = ["".join(chr(rng.choice(code_points)) for _ in range(rng.randint(0, 4)))
               for _ in range(50_000)]
    strings += ["".join(rng.choice("a\x00\x7f\x80￿\U00010000") for _ in range(3))
                for _ in range(5_000)]
    assert sorted(strings) == sorted(strings, key=str.encode)
