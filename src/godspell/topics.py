"""Topic modeling: vocabulary building, authorless downsampling, and LDA
trained by collapsed Gibbs sampling with Dirichlet hyperparameter
optimization (asymmetric document-topic prior, symmetric topic-word prior).

Every layer works on the flat arrays of the standard library's ``array``
module and is bitwise-identical to a reference in ``tests/oracles.py``,
per-token pure Python or the numpy code it replaced: the same vocabulary
and ids, the same kept tokens, topics and counts, the same RNG stream and
so the same log-likelihood floats and ``state.json``. Each holds little of
the corpus at once: documents are int32 memoryviews of one flat array,
every id, count and offset is int32 (``TopicState`` says why none wraps),
the count matrices are flat, n_kw word-major, which ``log_likelihood`` and
the state writer read topic-major by stride, with no copy, and the state
writer streams blocks of rows, doc_topic's shares taken a block at a time.

A small C kernel (``_sweep``) does every loop over tokens or counts: the
split of each text into form ids (``_sweep.FormTable``), each form's count
and the relabelling of the words to vocabulary ids, while Python normalises
each distinct form once and sorts the vocabulary; the only sampler,
``gibbs_sweep``, bitwise-identical to the oracles' pure-Python
``gibbs_sweep_reference`` because it takes one ``rng.random()`` per token
in token order and does the same float operations in the same order (built
with ``-O2 -ffp-contract=off``, never ``-ffast-math``); every random draw,
with ``random.Random``'s own Mersenne Twister on its state; the counts,
histograms and checks; every float sum, in numpy's pairwise order; the text
of ``state.json``'s matrices, with each distinct share's text taken once
from ``json.dumps``; and the ``gammaln`` and ``digamma`` of
``log_likelihood``, ``optimize_alpha`` and ``optimize_beta``: Cephes
``lgam`` and ``psi``, the code behind ``scipy.special``, with scipy's
floats bit for bit, and the optimisers' arguments, each count plus its
prior (``_sweep.shifted``, the double of Python's int + float). Python
keeps the arithmetic on the priors and on ``log_likelihood``'s tables, on
floats that round as float64 does. So neither numpy nor scipy is a runtime
dependency. The kernel is compiled on first use into
``$XDG_CACHE_HOME/godspell`` (default ``~/.cache/godspell``), so
``topics-train`` needs a C compiler: without one, the first kernel call
raises ``_sweep.BuildError``. Reading a saved state needs no compiler:
``statefile``, the one decoder of ``state.json``, reads it one value at a
time and hands a caller each checked row of the matrix it names as it is
decoded (so ``topics-inspect`` and ``stats`` never hold the file, or a
matrix they do not use), ``top_words`` ranks one topic's row of counts, and
``prominence_from_doc_topic`` averages the doc_topic rows in plain Python.
"""

from __future__ import annotations

import array
import heapq
import itertools
import json
import logging
import math
import operator
import random
import string
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .config import replacing

if TYPE_CHECKING:
    from . import _sweep
    from .corpus import Segment

log = logging.getLogger(__name__)

STATE_FORMAT = "godspell-topic-state"
STATE_VERSION = 1

# The initial priors follow common Gibbs-LDA toolkit conventions: alpha
# sums to 5.0 across topics, beta starts at 0.01.
DEFAULT_ALPHA_SUM = 5.0
DEFAULT_BETA = 0.01

# the characters a form is stripped of at both ends to give its token
_EDGE_CHARS = string.punctuation + "“”‘’—–…«»"


class VocabularyError(ValueError):
    """Raised when filtering leaves no usable vocabulary."""


@dataclass
class Vocabulary:
    words: list[str]                 # id -> word, ids dense in [0, V)
    ids: dict[str, int]
    frequencies: list[int]           # id -> corpus frequency after filtering
    stopwords: frozenset[str]

    @property
    def size(self) -> int:
        return len(self.words)


def _split(words: array.array, offsets: Sequence[int]) -> list[memoryview]:
    """Document d as words[offsets[d]:offsets[d + 1]], a view of the one flat array."""
    view = memoryview(words)
    return [view[a:b] for a, b in itertools.pairwise(offsets)]


def _flat(docs: list[Sequence[int]]) -> tuple[array.array, array.array]:
    """docs (int32 views or sequences of ids) as one int32 token array and its
    int32 offsets, (D + 1,); OverflowError past 2**31 - 1 tokens."""
    words = array.array("i")
    offsets = array.array("i", [0])
    for doc in docs:
        if isinstance(doc, memoryview) and doc.format == "i":
            words.frombytes(doc.cast("B"))
        else:
            words.extend(doc)
        offsets.append(len(words))
    return words, offsets


def build_vocabulary(
    segments: Iterable[Segment],
    stopwords: set[str],
    min_count: int,
) -> tuple[Vocabulary, list[memoryview]]:
    """Tokenize segments into id sequences over a filtered vocabulary.

    Tokens are lowercased and edge-stripped; stopwords and words rarer
    than min_count are removed. Document order follows segment order.
    segments is read once and no segment is kept, so it may be a
    generator. Each segment's words, joined by a space, go through one
    ``_sweep.FormTable`` (a word holds no whitespace, as ``str.split()``
    makes it), one document per segment; ``vocabulary_of`` does the rest.
    """
    from . import _sweep

    table = _sweep.FormTable()
    offsets = array.array("i", [0])
    for seg in segments:
        table.add(" ".join(seg.words).encode())
        offsets.append(len(table.words))
    return vocabulary_of(table, offsets, stopwords, min_count)


def vocabulary_of(
    table: _sweep.FormTable,
    offsets: array.array,
    stopwords: set[str],
    min_count: int,
) -> tuple[Vocabulary, list[memoryview]]:
    """The filtered vocabulary of the words a FormTable has read, and the
    documents at the int32 offsets into ``table.words`` as word ids. Each
    distinct form is normalised once: the forms are lowered in one
    ``str.lower()`` of their space-separated text, which lowers each as it
    would alone (a space ends a final sigma as the end of a string does),
    and each is stripped of the edge characters (string.punctuation and
    “”‘’—–…«») at both ends; ``_sweep.histogram`` counts the words of each
    form. A form whose token is empty, a stopword or rarer than min_count
    over the corpus maps to no id, and its words are dropped. The documents
    are int32 views of ``table.words``, which is relabelled in place."""
    from . import _sweep

    stop = frozenset(w.lower() for w in stopwords)
    tokens = [form.strip(_EDGE_CHARS) for form in table.text.lower().split(" ")[:-1]]
    counts: dict[str, int] = {}
    for token, c in zip(tokens, _sweep.histogram(table.words, len(tokens))):
        if token and token not in stop:
            counts[token] = counts.get(token, 0) + c

    kept = sorted(w for w, c in counts.items() if c >= min_count)
    if not kept:
        raise VocabularyError(
            f"no vocabulary left after stopword and min_count={min_count} filtering"
        )
    ids = {w: i for i, w in enumerate(kept)}
    vocab = Vocabulary(
        words=kept,
        ids=ids,
        frequencies=[counts[w] for w in kept],
        stopwords=stop,
    )
    # stopwords and empty tokens never reach ids, so they map to -1 too
    id_of_form = array.array("i", [ids.get(t, -1) for t in tokens])
    words = table.words
    del words[_sweep.relabel(words, offsets, id_of_form):]
    return vocab, _split(words, offsets)


def authorless_downsample(
    docs: list[Sequence[int]],
    doc_novels: list[str],
    rng_seed: int,
) -> list[memoryview]:
    """Stochastically drop tokens of words overrepresented within one novel.

    A token of word w in novel b survives with probability
    min(1, P(w) / P(w|b)), comparing the corpus unigram rate against the
    within-novel rate; one rng.random() is drawn per token, in token order.
    Tokens are only removed, never added or reordered. The documents are
    int32 views of one flat array.
    """
    from . import _sweep

    if len(docs) != len(doc_novels):
        raise ValueError("docs and doc_novels must align")
    words, offsets = _flat(docs)
    novels: dict[str, int] = {}  # novel id -> its index, in order of first appearance
    novel_of = array.array("i", [novels.setdefault(n, len(novels)) for n in doc_novels])
    ratio, v = _sweep.novel_ratios(words, offsets, novel_of)
    # random() < 1, so comparing with the ratio is comparing with min(1, ratio)
    del words[_sweep.keep(random.Random(rng_seed), words, offsets, novel_of, ratio, v):]
    return _split(words, offsets)


# validate's messages for the codes of the kernel's check
_CORRUPTED = {
    1: "topic or word id out of range",
    2: "negative count",
    3: "document-topic counts != doc lengths",
    4: "topic-word counts != topic totals",
    5: "topic totals != token total",
}


@dataclass
class TopicState:
    """Mutable collapsed-Gibbs sampler state. Tokens are flat, in document
    order: document d's word ids and topic assignments are
    ``words[offsets[d]:offsets[d + 1]]`` and ``z[offsets[d]:offsets[d + 1]]``.

    Every field but the priors is a flat int32 ("i") ``array.array``; n_dk
    is row-major, n_dk[d * K + t] counting topic t in document d, and n_kw
    word-major, n_kw[w * K + t] counting word w in topic t, so that the K
    counts a token's draw reads lie side by side (``state.json`` still
    holds n_kw's topic-major rows). No count wraps: each is at most the
    token count, an entry of the int32 offsets, which refuse 2**31
    (``array('i').append`` raises OverflowError in ``_flat`` and
    ``build_vocabulary``); ``init_state`` refuses D * K or K * V of 2**31, so
    every flat index fits; and ``_sweep.row_sums`` refuses a row sum past
    int32, of counts a caller set. The kernel reads the fields through the
    buffer protocol, numpy arrays included, and raises TypeError naming a
    field whose items are not of the C type given here."""

    k: int
    alpha: array.array       # (K,) doubles: asymmetric document-topic prior
    beta: float              # symmetric topic-word prior
    offsets: array.array     # (D + 1,) token offset of each document
    words: array.array       # (N,) word ids
    z: array.array           # (N,) topic assignments
    n_dk: array.array        # (D * K,) document-topic counts
    n_kw: array.array        # (V * K,) topic-word counts, word-major
    n_k: array.array         # (K,) topic totals
    vocabulary_size: int
    rng_seed: int
    rng: random.Random = field(repr=False)  # seeded by init_state, so that a run replays

    def validate(self, docs: list[Sequence[int]]) -> None:
        """Check the lengths, the id ranges and the count identities against
        the documents and the assignments; fatal if the state is corrupted."""
        from . import _sweep

        k, v = self.k, self.vocabulary_size
        arrays = {name: _sweep.items(name, getattr(self, name), "i")
                  for name in _sweep.STATE_ARRAYS}
        offsets = arrays["offsets"]
        if (len(offsets) != len(docs) + 1 or offsets[0] != 0
                or any(b - a != len(doc) for a, b, doc in zip(offsets, offsets[1:], docs))
                or [len(arrays[name]) for name in ("words", "z", "n_dk", "n_kw", "n_k")]
                != [offsets[-1], offsets[-1], len(docs) * k, k * v, k]
                or len(self.alpha) != k):
            raise RuntimeError("corrupted state: array shapes do not match the documents")
        problem = _sweep.check(self)
        if problem in (1, 2):
            raise RuntimeError(f"corrupted state: {_CORRUPTED[problem]}")
        if any(a <= 0 for a in self.alpha) or self.beta <= 0:
            raise RuntimeError("corrupted state: non-positive prior")
        if problem:
            raise RuntimeError(f"corrupted state: {_CORRUPTED[problem]}")


def init_state(
    docs: list[Sequence[int]],
    k: int,
    vocabulary_size: int,
    rng_seed: int,
) -> TopicState:
    """Assign every token a uniform random topic, drawn in token order,
    and build the counts; the priors start at DEFAULT_ALPHA_SUM / k and
    DEFAULT_BETA. ValueError, before anything is allocated, when the flat
    counts would hold 2**31 or more entries."""
    from . import _sweep

    if not 1 <= k < 2**31:
        raise ValueError(f"k must be in [1, 2**31), not {k}")
    if len(docs) * k >= 2**31 or k * vocabulary_size >= 2**31:
        raise ValueError(f"D * K = {len(docs) * k} and K * V = {k * vocabulary_size} "
                         f"must be below 2**31, the int32 counts' reach")
    rng = random.Random(rng_seed)
    words, offsets = _flat(docs)
    state = TopicState(
        k=k,
        alpha=array.array("d", [DEFAULT_ALPHA_SUM / k]) * k,
        beta=DEFAULT_BETA,
        offsets=offsets,
        words=words,
        z=_sweep.randrange(rng, k, len(words)),
        n_dk=array.array("i", [0]) * (len(docs) * k),
        n_kw=array.array("i", [0]) * (k * vocabulary_size),
        n_k=array.array("i", [0]) * k,
        vocabulary_size=vocabulary_size,
        rng_seed=rng_seed,
        rng=rng,
    )
    if not _sweep.count(state):
        raise ValueError(f"word ids must lie in [0, {vocabulary_size})")
    return state


def gibbs_sweep(state: TopicState, docs: list[Sequence[int]]) -> TopicState:
    """One full collapsed-Gibbs pass over every token, in document order.

    docs must be the documents the state was initialised from; the
    kernel reads the state's flat copy of them. The state is validated
    first, so a corrupted count never reaches the compiled kernel. Raises
    BuildError when the kernel cannot be built (no C compiler)."""
    from . import _sweep

    state.validate(docs)
    _sweep.sweep(_sweep.kernel(), state)
    return state


def log_likelihood(state: TopicState) -> float:
    """Joint log p(words, assignments | alpha, beta) from the count matrices.

    gammaln is evaluated once per distinct count, in tables indexed by the
    counts: each sum adds, in numpy's pairwise order, the same floats in the
    same order as ``ndarray.sum()`` of gammaln of the counts themselves (see
    ``log_likelihood_reference`` in tests/oracles.py). All its arguments go
    to gammaln in one call, and each term takes its slice. ValueError names
    a negative count, and is raised for a row of n_dk whose sum does not
    fit int32."""
    from . import _sweep

    k, v, beta = state.k, state.vocabulary_size, state.beta
    n_dk = _sweep.items("n_dk", state.n_dk, "i")
    n_kw = _sweep.items("n_kw", state.n_kw, "i")
    top = {}
    for name, counts in (("n_dk", n_dk), ("n_kw", n_kw)):
        lo, top[name] = _sweep.span(counts)
        if lo < 0:
            raise ValueError(f"log_likelihood: {name} holds a negative count")
    alpha = _sweep.items("alpha", state.alpha, "d")
    sum_alpha = _sweep.pairwise_sums(alpha)[0]
    vbeta = v * beta
    doc_lens = _sweep.row_sums(n_dk, k)
    parts = (
        [n + sum_alpha for n in range(_sweep.span(doc_lens)[1] + 1)],
        [n + a for n in range(top["n_dk"] + 1) for a in alpha],
        [n + beta for n in range(top["n_kw"] + 1)],
        [n + vbeta for n in state.n_k],
        alpha,
        [sum_alpha, vbeta, beta],
    )
    terms = _sweep.gammaln(itertools.chain(*parts))
    bounds = list(itertools.accumulate(map(len, parts), initial=0))
    len_terms, doc_terms, word_terms = (memoryview(terms)[a:b] for a, b in
                                        itertools.pairwise(bounds[:4]))
    total_sum, alpha_sum = _sweep.pairwise_sums(terms, bounds[3:6])
    g_sum_alpha, g_vbeta, g_beta = terms[-3:]
    d_count = len(doc_lens)
    ll = (
        d_count * g_sum_alpha
        - _sweep.pairwise_sums(len_terms, index=doc_lens)[0]
        + _sweep.pairwise_sums(doc_terms, index=n_dk, width=k)[0]
        - d_count * alpha_sum
    )
    ll += (
        k * g_vbeta
        - total_sum
        + _sweep.pairwise_sums(word_terms, index=n_kw, index_cols=k)[0]
        - k * v * g_beta
    )
    return ll


def _value_counts(counts: memoryview, cols: int = 1) -> list[tuple[array.array, array.array]]:
    """For each column of the flat (rows, cols) counts, the values in it,
    ascending, and how often each occurs, both int32: numpy's ``np.nonzero``
    of the column's ``np.bincount`` and the bincount there."""
    from . import _sweep

    size = _sweep.span(counts)[1] + 1
    hist = _sweep.histogram(counts, size, cols)
    columns = []
    for c in range(cols):
        column = hist[c * size:(c + 1) * size]
        columns.append((array.array("i", itertools.compress(range(size), column)),
                        array.array("i", filter(None, column))))
    return columns


ALPHA_FLOOR = 1e-5
FIXED_POINT_TOL = 1e-5
FIXED_POINT_MAX_ITER = 1000


def optimize_alpha(state: TopicState) -> array.array:
    """Maximum-likelihood fixed-point update of the asymmetric alpha prior
    using histograms of topic counts and document lengths.

    Each iteration takes digamma in one call, over the document lengths
    plus sum(alpha), every topic's counts plus its alpha (the kernel's
    ``shifted`` adds them), alpha and sum(alpha); the weighted sums over the
    lengths and over each topic's counts are taken in one kernel call, each
    part as numpy's ``(weights * psi[part]).sum()`` adds it."""
    from . import _sweep

    k_topics = state.k
    n_dk = _sweep.items("n_dk", state.n_dk, "i")
    doc_lens = _sweep.row_sums(n_dk, k_topics)
    d_count = len(doc_lens)
    [(values, weights)] = _value_counts(doc_lens)
    bounds = array.array("i", [0, len(weights)])
    for topic_values, topic_weights in _value_counts(n_dk, k_topics):
        values.extend(topic_values)
        weights.extend(topic_weights)
        bounds.append(len(weights))
    n_terms = len(weights)

    alpha = array.array("d", state.alpha)
    for _ in range(FIXED_POINT_MAX_ITER):
        sum_alpha = _sweep.pairwise_sums(alpha)[0]
        shifts = array.array("d", [sum_alpha]) + alpha  # the lengths', then each topic's
        psi = _sweep.digamma(_sweep.shifted(values, bounds, shifts) + alpha + shifts[:1])
        denom, *numers = _sweep.pairwise_sums(psi, bounds, weights=weights)
        denom -= d_count * psi[-1]
        # float64 division by a zero denom gives inf or nan, which reverts alike
        new_alpha = array.array("d", [a * (numer - d_count * psi[n_terms + t]) / denom
                                      for t, (a, numer) in enumerate(zip(alpha, numers))]
                                if denom else [math.nan])
        if not all(map(math.isfinite, new_alpha)):
            log.warning("alpha optimization produced non-finite values; reverting")
            return state.alpha
        new_alpha = array.array("d", [max(a, ALPHA_FLOOR) for a in new_alpha])
        rel_change = max(abs(new - old) / old for new, old in zip(new_alpha, alpha))
        alpha = new_alpha
        if rel_change < FIXED_POINT_TOL:
            break
    state.alpha = alpha
    return alpha


def optimize_beta(state: TopicState) -> float:
    """Maximum-likelihood fixed point for the symmetric beta prior over
    the topic-word counts. Each iteration takes digamma in one call, over
    the counts plus beta, the topic totals plus V * beta (the kernel's
    ``shifted`` adds them), beta and V * beta."""
    from . import _sweep

    v = state.vocabulary_size
    k_topics = state.k
    [(values, word_weights)] = _value_counts(_sweep.items("n_kw", state.n_kw, "i"))
    n_words = len(values)
    values.extend(_sweep.items("n_k", state.n_k, "i"))
    bounds = array.array("i", [0, n_words, len(values)])

    beta = state.beta
    for _ in range(FIXED_POINT_MAX_ITER):
        shifts = array.array("d", [beta, v * beta])  # the counts', then the totals'
        psi = _sweep.digamma(_sweep.shifted(values, bounds, shifts) + shifts)
        numer = (_sweep.pairwise_sums(psi, [0, n_words], weights=word_weights)[0]
                 - k_topics * v * psi[-2])
        denom = v * (_sweep.pairwise_sums(psi, [n_words, n_words + k_topics])[0]
                     - k_topics * psi[-1])
        # float64 division by a zero denom gives inf or nan, which reverts alike
        new_beta = beta * numer / denom if denom else math.nan
        if not math.isfinite(new_beta) or new_beta <= 0:
            log.warning("beta optimization produced non-finite value; reverting")
            return state.beta
        new_beta = max(new_beta, ALPHA_FLOOR)
        rel_change = abs(new_beta - beta) / beta
        beta = new_beta
        if rel_change < FIXED_POINT_TOL:
            break
    state.beta = beta
    return beta


def doc_topic_rows(state: TopicState, start: int, stop: int) -> array.array:
    """Rows start..stop-1 of the smoothed (posterior-mean) per-document topic
    proportions, flat doubles: numpy's (n_dk + alpha) / (n_dk.sum(axis=1,
    keepdims=True) + alpha.sum()) of those rows of n_dk."""
    from . import _sweep

    k = state.k
    alpha = _sweep.items("alpha", state.alpha, "d")
    n_dk = _sweep.items("n_dk", state.n_dk, "i")[start * k:stop * k]
    return _sweep.proportions(n_dk, alpha, _sweep.pairwise_sums(alpha)[0])


def train(
    docs: list[Sequence[int]],
    vocabulary_size: int,
    k: int,
    sweeps: int,
    burn_in: int,
    optimize_interval: int,
    rng_seed: int,
) -> tuple[TopicState, list[float]]:
    """Run collapsed Gibbs sampling with periodic hyperparameter updates:
    the final state and the log-likelihood after each sweep.

    Hyperparameters are re-estimated every optimize_interval sweeps once
    past burn_in. Deterministic given rng_seed. The count identities are
    checked before every sweep and once more on the final state."""
    state = init_state(docs, k, vocabulary_size, rng_seed=rng_seed)
    lls = []
    for sweep in range(1, sweeps + 1):
        gibbs_sweep(state, docs)
        lls.append(log_likelihood(state))
        if optimize_interval and sweep > burn_in and sweep % optimize_interval == 0:
            optimize_alpha(state)
            optimize_beta(state)
    state.validate(docs)
    return state, lls


def top_words(counts: Sequence[int], words: list[str], n: int = 10) -> list[int]:
    """Ids of the top-n words of a topic, given its row of n_kw, by count,
    ties broken lexicographically by word: ``heapq.nsmallest``, which is the
    full sort's first n. ValueError for a negative n."""
    if n < 0:
        raise ValueError(f"top_words takes n >= 0, not {n}")
    return heapq.nsmallest(n, range(len(words)), key=lambda w: (-counts[w], words[w]))


def prominence_from_doc_topic(
    doc_topic: Sequence[Sequence[float]],
    doc_novels: list[str],
    all_novel_ids: list[str] | None = None,
) -> dict[str, list[float]]:
    """Novel id -> mean per-topic percentage of its segments (sums to 100),
    in order of first appearance in doc_novels. Novels of all_novel_ids
    with no segment are left out, with a warning.

    Each novel's rows are added in document order, from its first row, and
    each total is then divided by the row count: the floats of numpy's
    ``100.0 * doc_topic[ids].mean(axis=0)`` for K >= 2 (a single column numpy
    sums pairwise, but a trained K = 1 state's shares are all 1.0, whose sum
    is exact in any order)."""
    rows: dict[str, list[int]] = {}  # novel id -> the indices of its documents
    for i, novel_id in enumerate(doc_novels):
        rows.setdefault(novel_id, []).append(i)
    for novel_id in all_novel_ids or ():
        if novel_id not in rows:
            log.warning("novel %s has no segments; excluded from prominence", novel_id)
    prominence = {}
    for novel_id, ids in rows.items():
        totals = doc_topic[ids[0]]
        for i in ids[1:]:
            totals = list(map(operator.add, totals, doc_topic[i]))
        prominence[novel_id] = [100.0 * (total / len(ids)) for total in totals]
    return prominence


# here, not in _sweep: _sweep is compiled last and largest, and code added there
# raised topics-train's memory from its imports on
def share_texts(rows_of: Callable, rows: int, cols: int) -> Iterator[memoryview]:
    """The JSON text of the rows of a (rows, cols) matrix of doubles, as
    json.dumps writes them, a block of rows at a time, as ``_sweep.row_texts``
    gives it: rows_of(r0, r1) gives rows r0..r1-1 flat, and no more of the
    matrix is held. Each distinct double is numbered by one
    ``_sweep.Distinct`` for the whole matrix, its text taken from json.dumps
    in the block where it first appears, and copied by the kernel wherever
    it recurs. Each block is a view that the next overwrites."""
    from . import _sweep

    numbers = _sweep.Distinct()
    store, at = bytearray(), array.array("i", [0])  # each number's text, and where each starts
    per_block = _sweep.block_rows(cols, texts=True)[0]
    for r0 in range(0, rows, per_block):
        r1 = min(rows, r0 + per_block)
        known, ids = len(numbers), numbers.ids(rows_of(r0, r1))
        if len(numbers) > known:  # json writes a float in ASCII, a byte a character
            texts = json.dumps(numbers.values[known:len(numbers)].tolist())[1:-1].split(", ")
            store.extend("".join(texts).encode())
            at.extend(itertools.accumulate(map(len, texts), initial=at.pop()))
        yield from _sweep.row_texts(ids, r1 - r0, texts=(store, at))


def save_state(
    path: Path | str,
    state: TopicState,
    log_likelihoods: list[float],
    vocabulary: Vocabulary,
    doc_novels: list[str],
) -> None:
    """Dump the trained model as versioned JSON: the bytes of
    ``json.dumps(payload, ensure_ascii=False)``, written piece by piece, the
    two matrices a block of rows at a time, as the kernel writes their text:
    n_kw's topic-major rows, each read by stride from the word-major counts
    where they lie, with integers as json writes them, and doc_topic's
    shares (``doc_topic_rows``, a block's rows at a time, so that neither
    the D x K shares nor their indexes are ever held whole), each distinct
    one (by its bits, so that -0.0 and each nan keep their own) formatted
    once by ``json.dumps`` and copied by the kernel wherever it recurs."""
    from . import _sweep

    tail = json.dumps({
        "doc_novels": doc_novels,
        "log_likelihood": log_likelihoods,
    }, ensure_ascii=False)
    k = state.k
    with replacing(path) as tmp, tmp.open("wb") as fh:
        # the head, the vocabulary's text most of it, is not held while the matrices are written
        fh.write(json.dumps({
            "format": STATE_FORMAT,
            "version": STATE_VERSION,
            "k": k,
            "alpha": [float(a) for a in state.alpha],
            "beta": state.beta,
            "seed": state.rng_seed,
            "vocabulary": vocabulary.words,
        }, ensure_ascii=False)[:-1].encode())
        fh.write(b', "n_kw": ')
        _write_rows(fh, _sweep.row_texts(state.n_kw, k, transposed=True))
        fh.write(b', "doc_topic": ')
        _write_rows(fh, share_texts(lambda r0, r1: doc_topic_rows(state, r0, r1),
                                    len(state.n_dk) // k, k))
        fh.write(f", {tail[1:]}".encode())


def _write_rows(fh, blocks: Iterable[memoryview]) -> None:
    """Write a JSON matrix, given the text of each block of its rows, with
    json's separators."""
    fh.write(b"[")
    for i, block in enumerate(blocks):
        if i:
            fh.write(b", ")
        fh.write(block)
    fh.write(b"]")


# each field of a state file -> the types json.loads may give it, and for an
# array the types of its items (a bool is not a number)
STATE_FIELDS = {"k": ((int,), None), "alpha": ((list,), {int, float}),
                "beta": ((int, float), None), "seed": ((int,), None),
                "vocabulary": ((list,), {str}), "n_kw": ((list,), {list}),
                "doc_topic": ((list,), {list}), "doc_novels": ((list,), {str}),
                "log_likelihood": ((list,), {int, float})}
