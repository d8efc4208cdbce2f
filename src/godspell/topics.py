"""Topic modeling: vocabulary building, authorless downsampling, and LDA
trained by collapsed Gibbs sampling with Dirichlet hyperparameter
optimization (asymmetric document-topic prior, symmetric topic-word prior).

Every layer works on flat numpy arrays and is bitwise-identical to a
per-token pure-Python reference in ``tests/oracles.py``: the same
vocabulary and ids, the same kept tokens, topics and counts, the same RNG
stream and so the same log-likelihood floats and ``state.json``. Each holds
little of the corpus at once: documents are int32 views of one flat array,
``n_kw`` is int32, and the state writer streams.

``gibbs_sweep`` runs a small C kernel (``_sweep``), the only sampler. It is
bitwise-identical to the oracles' pure-Python ``gibbs_sweep_reference``,
because it takes one ``rng.random()`` per token in token order and does the
same float operations in the same order (built with ``-O2
-ffp-contract=off``, never ``-ffast-math``). The same kernel makes every
random draw, with ``random.Random``'s own Mersenne Twister on its state,
and holds the ``gammaln`` and ``digamma`` of ``log_likelihood``,
``optimize_alpha`` and ``optimize_beta``: Cephes ``lgam`` and ``psi``, the
code behind ``scipy.special``, with scipy's floats bit for bit, so scipy is
not a runtime dependency. It is compiled on first use into
``$XDG_CACHE_HOME/godspell`` (default ``~/.cache/godspell``), so
``topics-train`` needs a C compiler: without one, the first draw raises
``_sweep.BuildError``. Reading a saved state (``load_state``, and so
``topics-inspect`` and ``stats``) needs no compiler and no numpy: numpy is
imported inside the functions that compute with it, ``load_state`` returns
the matrices as the lists ``json.loads`` gives, and
``prominence_from_doc_topic`` averages those rows in plain Python.
"""

from __future__ import annotations

import array
import collections
import itertools
import json
import logging
import operator
import random
import string
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from .corpus import Segment

log = logging.getLogger(__name__)

STATE_FORMAT = "godspell-topic-state"
STATE_VERSION = 1

# The initial priors follow common Gibbs-LDA toolkit conventions: alpha
# sums to 5.0 across topics, beta starts at 0.01.
DEFAULT_ALPHA_SUM = 5.0
DEFAULT_BETA = 0.01

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


def normalize_token(word: str) -> str:
    """Lowercase and strip punctuation from word edges."""
    return word.lower().strip(_EDGE_CHARS)


def _split(flat: np.ndarray, offsets: np.ndarray, keep: np.ndarray) -> list[np.ndarray]:
    """The kept tokens of each document, as views of one flat array; document
    d is flat[offsets[d]:offsets[d + 1]]. The piece after the last end is empty."""
    import numpy as np

    kept_at = np.flatnonzero(keep)
    return np.split(flat[kept_at], np.searchsorted(kept_at, offsets[1:]))[:-1]


def _flat(docs: list[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """docs (lists or arrays of ids) as one int32 token array and its offsets."""
    import numpy as np

    words = np.concatenate([np.empty(0, np.int32), *(np.asarray(d, np.int32) for d in docs)])
    return words, _offsets(map(len, docs))


def _offsets(lengths) -> np.ndarray:
    """(D + 1,) int64 token offsets of documents of the given lengths."""
    import numpy as np

    lengths = np.fromiter(lengths, dtype=np.int64)
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _docs_by_novel(doc_novels: list[str]) -> dict[str, list[int]]:
    """Novel id -> the indices of its documents, novels in order of first appearance."""
    rows: dict[str, list[int]] = {}
    for i, novel_id in enumerate(doc_novels):
        rows.setdefault(novel_id, []).append(i)
    return rows


def build_vocabulary(
    segments: Iterable[Segment],
    stopwords: set[str],
    min_count: int,
) -> tuple[Vocabulary, list[np.ndarray]]:
    """Tokenize segments into id sequences over a filtered vocabulary.

    Tokens are lowercased and edge-stripped; stopwords and words rarer
    than min_count are removed. Document order follows segment order.
    segments is read once and no segment is kept, so it may be a
    generator. Each distinct raw form is normalised once.
    """
    import numpy as np

    stop = frozenset(w.lower() for w in stopwords)
    # a form seen for the first time gets the next id, in order of appearance
    form_ids: dict[str, int] = collections.defaultdict(itertools.count().__next__)
    form_of = array.array("i")
    lengths = []
    for seg in segments:
        form_of.extend(map(form_ids.__getitem__, seg.words))
        lengths.append(len(seg.words))
    form_of = np.frombuffer(form_of, dtype=np.int32)
    tokens = [normalize_token(form) for form in form_ids]
    counts: dict[str, int] = {}
    for token, c in zip(tokens, np.bincount(form_of, minlength=len(tokens)).tolist()):
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
    id_of_form = np.fromiter((ids.get(t, -1) for t in tokens), dtype=np.int32, count=len(tokens))
    word_ids = id_of_form[form_of]
    return vocab, _split(word_ids, _offsets(lengths), word_ids >= 0)


def authorless_downsample(
    docs: list[Sequence[int]],
    doc_novels: list[str],
    rng_seed: int,
) -> list[np.ndarray]:
    """Stochastically drop tokens of words overrepresented within one novel.

    A token of word w in novel b survives with probability
    min(1, P(w) / P(w|b)), comparing the corpus unigram rate against the
    within-novel rate; one rng.random() is drawn per token, in token order.
    Tokens are only removed, never added or reordered.
    """
    import numpy as np

    from . import _sweep

    if len(docs) != len(doc_novels):
        raise ValueError("docs and doc_novels must align")
    words, offsets = _flat(docs)
    corpus_total = len(words)
    # int -> float64 is exact below 2**53, so each division rounds as
    # Python's int / int does, and in the same order
    p_corpus = np.bincount(words) / corpus_total
    ratio = np.empty(corpus_total)
    for ds in _docs_by_novel(doc_novels).values():
        at = np.concatenate([np.arange(offsets[d], offsets[d + 1]) for d in ds])
        novel_words = words[at]
        ratio[at] = p_corpus[novel_words] / (np.bincount(novel_words) / len(at))[novel_words]
    # random() < 1, so comparing with the ratio is comparing with min(1, ratio)
    return _split(words, offsets, _sweep.keep(random.Random(rng_seed), ratio))


@dataclass
class TopicState:
    """Mutable collapsed-Gibbs sampler state. Tokens are flat, in document
    order: document d's word ids and topic assignments are
    ``words[offsets[d]:offsets[d + 1]]`` and ``z[offsets[d]:offsets[d + 1]]``."""

    k: int
    alpha: np.ndarray        # (K,) asymmetric document-topic prior
    beta: float              # symmetric topic-word prior
    offsets: np.ndarray      # (D + 1,) int64 token offset of each document
    words: np.ndarray        # (N,) int32 word ids
    z: np.ndarray            # (N,) int32 topic assignments
    n_dk: np.ndarray         # (D, K) document-topic counts
    n_kw: np.ndarray         # (K, V) int32 topic-word counts
    n_k: np.ndarray          # (K,) topic totals
    vocabulary_size: int
    rng_seed: int
    rng: random.Random = field(repr=False, default_factory=random.Random)

    def validate(self, docs: list[Sequence[int]]) -> None:
        """Check the shapes, the id ranges and the count identities against
        the documents and the assignments; fatal if the state is corrupted."""
        import numpy as np

        k, v = self.k, self.vocabulary_size
        doc_lens = np.array([len(d) for d in docs], dtype=np.int64)
        if (self.n_dk.shape != (len(docs), k) or self.n_kw.shape != (k, v)
                or self.n_k.shape != (k,) or self.alpha.shape != (k,)
                or self.offsets.shape != (len(docs) + 1,) or self.offsets[0] != 0
                or not np.array_equal(np.diff(self.offsets), doc_lens)
                or self.words.shape != (self.offsets[-1],) or self.z.shape != self.words.shape):
            raise RuntimeError("corrupted state: array shapes do not match the documents")
        if len(self.z) and (self.z.min() < 0 or self.z.max() >= k
                            or self.words.min() < 0 or self.words.max() >= v):
            raise RuntimeError("corrupted state: topic or word id out of range")
        if (self.n_dk < 0).any() or (self.n_kw < 0).any() or (self.n_k < 0).any():
            raise RuntimeError("corrupted state: negative count")
        if (self.alpha <= 0).any() or self.beta <= 0:
            raise RuntimeError("corrupted state: non-positive prior")
        if not np.array_equal(self.n_dk.sum(axis=1), doc_lens):
            raise RuntimeError("corrupted state: document-topic counts != doc lengths")
        if not np.array_equal(self.n_kw.sum(axis=1), self.n_k):
            raise RuntimeError("corrupted state: topic-word counts != topic totals")
        if self.n_k.sum() != doc_lens.sum():
            raise RuntimeError("corrupted state: topic totals != token total")


def init_state(
    docs: list[Sequence[int]],
    k: int,
    vocabulary_size: int,
    rng_seed: int,
) -> TopicState:
    """Assign every token a uniform random topic, drawn in token order,
    and build the counts; the priors start at DEFAULT_ALPHA_SUM / k and
    DEFAULT_BETA."""
    import numpy as np

    from . import _sweep

    if not 1 <= k < 2**31:
        raise ValueError(f"k must be in [1, 2**31), not {k}")
    rng = random.Random(rng_seed)
    words, offsets = _flat(docs)
    # the kernel's count indexes n_kw by these ids unchecked
    if len(words) and (words.min() < 0 or words.max() >= vocabulary_size):
        raise ValueError(f"word ids must lie in [0, {vocabulary_size})")
    state = TopicState(
        k=k,
        alpha=np.full(k, DEFAULT_ALPHA_SUM / k, dtype=float),
        beta=DEFAULT_BETA,
        offsets=offsets,
        words=words,
        z=_sweep.randrange(rng, k, len(words)).view(np.int32),
        n_dk=np.zeros((len(docs), k), dtype=np.int64),
        n_kw=np.zeros((k, vocabulary_size), dtype=np.int32),
        n_k=np.zeros(k, dtype=np.int64),
        vocabulary_size=vocabulary_size,
        rng_seed=rng_seed,
        rng=rng,
    )
    _sweep.count(state)
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
    counts: the indexed arrays hold the same floats in the same shapes as
    gammaln of the counts themselves, so their sums are the same. All its
    arguments go to gammaln in one call, and each term takes its slice; the
    (K, V) one is summed in C, without the gathered array. ValueError names
    a negative count."""
    import numpy as np

    from . import _sweep

    for name in ("n_dk", "n_kw"):
        if getattr(state, name).min(initial=0) < 0:
            raise ValueError(f"log_likelihood: {name} holds a negative count")
    d_count = state.n_dk.shape[0]
    k, v = state.k, state.vocabulary_size
    sum_alpha = state.alpha.sum()
    vbeta = v * state.beta
    doc_lens = state.n_dk.sum(axis=1)
    parts = (
        np.arange(doc_lens.max(initial=0) + 1) + sum_alpha,
        (np.arange(state.n_dk.max(initial=0) + 1)[:, None] + state.alpha).reshape(-1),
        np.arange(state.n_kw.max(initial=0) + 1) + state.beta,
        state.n_k + vbeta,
        state.alpha,
        [sum_alpha, vbeta, state.beta],
    )
    terms = _sweep.gammaln(np.concatenate(parts))
    bounds = itertools.accumulate(map(len, parts), initial=0)
    len_terms, doc_terms, word_terms, total_terms, alpha_terms, (g_sum_alpha, g_vbeta, g_beta) = (
        terms[a:b] for a, b in itertools.pairwise(bounds))
    doc_terms = doc_terms.reshape(-1, k)
    ll = (
        d_count * g_sum_alpha
        - len_terms[doc_lens].sum()
        + doc_terms[state.n_dk, np.arange(k)].sum()
        - d_count * alpha_terms.sum()
    )
    ll += (
        k * g_vbeta
        - total_terms.sum()
        + _sweep.gathered_sum(word_terms, state.n_kw)
        - k * v * g_beta
    )
    return float(ll)


ALPHA_FLOOR = 1e-5
FIXED_POINT_TOL = 1e-5
FIXED_POINT_MAX_ITER = 1000


def optimize_alpha(
    state: TopicState,
    tol: float = FIXED_POINT_TOL,
    max_iter: int = FIXED_POINT_MAX_ITER,
) -> np.ndarray:
    """Maximum-likelihood fixed-point update of the asymmetric alpha prior
    using histograms of topic counts and document lengths.

    Each iteration takes digamma in one call, over the document lengths
    plus sum(alpha), sum(alpha), every topic's counts plus its alpha, and
    alpha; each topic's weighted sum is then taken over its own slice, so
    every sum adds the same floats as a per-topic call would."""
    import numpy as np

    from ._sweep import digamma

    n_dk = state.n_dk
    d_count = n_dk.shape[0]
    doc_lens = n_dk.sum(axis=1)
    len_hist = np.bincount(doc_lens)
    len_values = np.nonzero(len_hist)[0]
    len_weights = len_hist[len_values]
    n_len = len(len_values)
    topic_values, topic_weights = [], []
    for k in range(state.k):
        hist = np.bincount(n_dk[:, k])
        values = np.nonzero(hist)[0]
        topic_values.append(values)
        topic_weights.append(hist[values])
    topic_of = np.repeat(np.arange(state.k), [len(v) for v in topic_values])
    counts = np.concatenate(topic_values)
    bounds = (_offsets(map(len, topic_values)) + n_len + 1).tolist()
    slices = [slice(a, b) for a, b in itertools.pairwise(bounds)]

    alpha = state.alpha.copy()
    for _ in range(max_iter):
        sum_alpha = alpha.sum()
        psi = digamma(np.concatenate((len_values + sum_alpha, [sum_alpha],
                                      counts + alpha[topic_of], alpha)))
        denom = (len_weights * psi[:n_len]).sum() - d_count * psi[n_len]
        alpha_psi = psi[bounds[-1]:]
        new_alpha = np.empty_like(alpha)
        for k, (weights, part) in enumerate(zip(topic_weights, slices)):
            numer = (weights * psi[part]).sum() - d_count * alpha_psi[k]
            new_alpha[k] = alpha[k] * numer / denom
        if not np.all(np.isfinite(new_alpha)):
            log.warning("alpha optimization produced non-finite values; reverting")
            return state.alpha
        new_alpha = np.maximum(new_alpha, ALPHA_FLOOR)
        rel_change = np.max(np.abs(new_alpha - alpha) / alpha)
        alpha = new_alpha
        if rel_change < tol:
            break
    state.alpha = alpha
    return alpha


def optimize_beta(
    state: TopicState,
    tol: float = FIXED_POINT_TOL,
    max_iter: int = FIXED_POINT_MAX_ITER,
) -> float:
    """Maximum-likelihood fixed point for the symmetric beta prior over
    the topic-word counts. Each iteration takes digamma in one call, over
    the counts plus beta, the topic totals plus V * beta, beta and V * beta."""
    import numpy as np

    from ._sweep import digamma

    v = state.vocabulary_size
    k_topics = state.k
    # row by row, since np.bincount copies its input to int64
    top = int(state.n_kw.max(initial=0))
    word_hist = sum(np.bincount(row, minlength=top + 1) for row in state.n_kw)
    word_values = np.nonzero(word_hist)[0]
    word_weights = word_hist[word_values]
    topic_totals = state.n_k
    n_words = len(word_values)

    beta = state.beta
    for _ in range(max_iter):
        psi = digamma(np.concatenate((word_values + beta, topic_totals + v * beta,
                                      [beta, v * beta])))
        numer = (word_weights * psi[:n_words]).sum() - k_topics * v * psi[-2]
        denom = v * (psi[n_words:-2].sum() - k_topics * psi[-1])
        new_beta = beta * numer / denom
        if not np.isfinite(new_beta) or new_beta <= 0:
            log.warning("beta optimization produced non-finite value; reverting")
            return state.beta
        new_beta = max(new_beta, ALPHA_FLOOR)
        rel_change = abs(new_beta - beta) / beta
        beta = new_beta
        if rel_change < tol:
            break
    state.beta = beta
    return beta


@dataclass
class TopicSummary:
    log_likelihoods: list[float]
    doc_topic: np.ndarray    # (D, K) smoothed topic proportions


def doc_topic_proportions(state: TopicState) -> np.ndarray:
    """Smoothed (posterior-mean) per-document topic proportions."""
    import numpy as np

    doc_lens = state.n_dk.sum(axis=1, keepdims=True)
    return (state.n_dk + state.alpha) / (doc_lens + state.alpha.sum())


def train(
    docs: list[Sequence[int]],
    vocabulary_size: int,
    k: int,
    sweeps: int,
    burn_in: int,
    optimize_interval: int,
    rng_seed: int,
) -> tuple[TopicState, TopicSummary]:
    """Run collapsed Gibbs sampling with periodic hyperparameter updates.

    Hyperparameters are re-estimated every optimize_interval sweeps once
    past burn_in. Deterministic given rng_seed. The count identities are
    checked before every sweep and once more on the final state.
    """
    state = init_state(docs, k, vocabulary_size, rng_seed=rng_seed)
    lls = []
    for sweep in range(1, sweeps + 1):
        gibbs_sweep(state, docs)
        lls.append(log_likelihood(state))
        if optimize_interval and sweep > burn_in and sweep % optimize_interval == 0:
            optimize_alpha(state)
            optimize_beta(state)
    state.validate(docs)
    return state, TopicSummary(log_likelihoods=lls, doc_topic=doc_topic_proportions(state))


def top_words(n_kw: Sequence[Sequence[int]], words: list[str], k: int, n: int = 10) -> list[int]:
    """Ids of the top-n words of topic k by count, ties broken
    lexicographically by word."""
    if not 0 <= k < len(n_kw):
        raise ValueError(f"topic index {k} out of range for K={len(n_kw)}")
    counts = n_kw[k]
    return sorted(range(len(words)), key=lambda w: (-counts[w], words[w]))[:n]


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
    rows = _docs_by_novel(doc_novels)
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


def save_state(
    path: Path | str,
    state: TopicState,
    summary: TopicSummary,
    vocabulary: Vocabulary,
    doc_novels: list[str],
) -> None:
    """Dump the trained model as versioned JSON: the bytes of
    ``json.dumps(payload, ensure_ascii=False)``, written piece by piece, the
    two matrices row by row from per-value tables (see _write_matrix)."""
    import numpy as np

    head = json.dumps({
        "format": STATE_FORMAT,
        "version": STATE_VERSION,
        "k": state.k,
        "alpha": [float(a) for a in state.alpha],
        "beta": state.beta,
        "seed": state.rng_seed,
        "vocabulary": vocabulary.words,
    }, ensure_ascii=False)
    tail = json.dumps({
        "doc_novels": doc_novels,
        "log_likelihood": summary.log_likelihoods,
    }, ensure_ascii=False)
    lo, hi = int(state.n_kw.min(initial=0)), int(state.n_kw.max(initial=0))
    doc_topic = np.ascontiguousarray(summary.doc_topic, dtype=np.float64)
    bits, inverse = np.unique(doc_topic.view(np.int64), return_inverse=True)
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(f'{head[:-1]}, "n_kw": ')
        _write_matrix(fh, list(range(lo, hi + 1)), state.n_kw, lo)
        fh.write(', "doc_topic": ')
        _write_matrix(fh, bits.view(np.float64).tolist(), inverse.reshape(doc_topic.shape), 0)
        fh.write(f", {tail[1:]}")


def _write_matrix(fh, values: list, index: np.ndarray, lo: int) -> None:
    """Write the JSON text of the 2-D matrix ``values[index - lo]`` row by row: json
    writes each distinct value once, and the rows are joined with json's separators."""
    import numpy as np

    table = np.array(json.dumps(values)[1:-1].split(", "), dtype=object)
    fh.write("[")
    for i, row in enumerate(index):
        fh.write(("[" if i == 0 else ", [") + ", ".join(table[row - lo].tolist()) + "]")
    fh.write("]")


@dataclass
class LoadedTopicModel:
    k: int
    alpha: list[float]
    beta: float
    seed: int
    vocabulary: list[str]
    n_kw: list[list[int]]
    doc_topic: list[list[float]]
    doc_novels: list[str]
    log_likelihood: list[float]


def _matrix_shape(path: Path | str, name: str, matrix, width: int, kinds: set[type]) -> tuple:
    """(rows, columns) of a JSON matrix, a list of equally long lists of
    numbers of the given types; an empty list has width columns. ValueError
    naming path and name when the rows are not such lists or differ in length,
    or a value is not of kinds (a bool is not an int)."""
    if not isinstance(matrix, list) or not all(isinstance(row, list) for row in matrix):
        raise ValueError(f"topic state {path}: {name} is not a list of lists")
    widths = sorted({len(row) for row in matrix})
    if len(widths) > 1:
        raise ValueError(f"topic state {path}: {name} has rows of {widths[0]} to {widths[-1]} "
                         f"values")
    if not set(map(type, itertools.chain.from_iterable(matrix))) <= kinds:
        bad = next(x for x in itertools.chain.from_iterable(matrix) if type(x) not in kinds)
        expected = " or ".join(sorted(kind.__name__ for kind in kinds))
        raise ValueError(f"topic state {path}: {name} holds {bad!r}, not {expected}")
    return (len(matrix), widths[0] if widths else width)


def load_state(path: Path | str) -> LoadedTopicModel:
    """Read a state file written by save_state; ValueError naming path if
    it is not JSON or not a state file, if n_kw is not a matrix of integer
    counts or doc_topic one of numbers, or if alpha, n_kw and doc_topic
    disagree with k, the vocabulary and doc_novels. The matrices are the
    lists json.loads gives."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ValueError(f"topic state {path} is not valid JSON: {e}") from None
    if (not isinstance(payload, dict) or payload.get("format") != STATE_FORMAT
            or payload.get("version") != STATE_VERSION):
        raise ValueError(f"unrecognized topic state file: {path}")
    model = LoadedTopicModel(
        k=payload["k"],
        alpha=payload["alpha"],
        beta=payload["beta"],
        seed=payload["seed"],
        vocabulary=payload["vocabulary"],
        n_kw=payload["n_kw"],
        doc_topic=payload["doc_topic"],
        doc_novels=payload["doc_novels"],
        log_likelihood=payload["log_likelihood"],
    )
    v, d = len(model.vocabulary), len(model.doc_novels)
    shapes = {
        "alpha": ((len(model.alpha),), (model.k,)),
        "n_kw": (_matrix_shape(path, "n_kw", model.n_kw, v, {int}), (model.k, v)),
        "doc_topic": (_matrix_shape(path, "doc_topic", model.doc_topic, model.k, {int, float}),
                      (d, model.k)),
    }
    for name, (found, expected) in shapes.items():
        if found != expected:
            raise ValueError(f"topic state {path}: {name} has shape {found}, expected {expected}")
    return model
