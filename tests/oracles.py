"""Independent oracles used to derive and check expected values.

These deliberately avoid the code paths they verify: the t-distribution
CDF comes from high-precision numerical integration (mpmath), agreement
from a literal coincidence-matrix enumeration, the Dirichlet fixed points
from a generic numerical maximizer, passage packing from a separate
reference packer written directly against the packing rule, the
collapsed Gibbs conditional straight from its formula, the per-token
collapsed-Gibbs sweep over topic-major counts and the Cephes
``lgam``/``psi`` in pure Python that the compiled kernel
(``godspell._sweep``) matches bit for bit, numpy's MT19937 loaded with a
``random.Random``'s state for the kernel's draws, the per-token counts and
numpy's weighted, gathered sums for the ones it does in C, the per-token
loops that the flat vocabulary and downsampling replace, the per-form
``normalize_token`` that ``topics.vocabulary_of``'s one lowering of all the
forms replaces, the collapsed LDA posterior of a tiny corpus by
enumeration of every assignment, written from the model with
``math.lgamma``, which the sampler's chain must reach, the numpy code
(vocabulary, downsampling, checks, likelihood, optimisers, proportions)
that the standard-library arrays and the kernel replaced, the
whole-payload ``json.dumps``, the dict-based row writer and the
whole-matrix kernel writer that the block-at-a-time text of the state's
matrices replaces, the whole-string ``load_state`` that the one decoder of
``state.json`` replaces, numpy's per-novel mean
that the plain-Python prominence replaces, the cascade's structural rules
checked on a finished annotation, a loop adding floats one at a time
for the fixed-order sum, and the urllib transport, a new connection a
call and ``http.client``'s parser, that the kept-alive one written on a
socket replaces.
"""

from __future__ import annotations

import array
import collections
import functools
import itertools
import json
import math
import random
import string
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

import mpmath
import numpy as np
from scipy.optimize import minimize
from scipy.special import digamma, gammaln

from godspell.topics import STATE_FORMAT, STATE_VERSION


def t_cdf_quad(t: float, df: float, dps: int = 30) -> float:
    """Student-t CDF by numerical integration of the density."""
    with mpmath.workdps(dps):
        df_mp = mpmath.mpf(df)
        coef = mpmath.gamma((df_mp + 1) / 2) / (
            mpmath.sqrt(df_mp * mpmath.pi) * mpmath.gamma(df_mp / 2)
        )

        def pdf(x):
            return coef * (1 + x * x / df_mp) ** (-(df_mp + 1) / 2)

        tail = mpmath.quad(pdf, [abs(t), mpmath.inf])
        return float(tail if t < 0 else 1 - tail)


def t_two_sided_p_quad(t: float, df: float) -> float:
    return float(2 * min(t_cdf_quad(t, df), t_cdf_quad(-t, df)))


def left_fold_sum(values) -> float:
    """values added one at a time, in order, starting from 0."""
    total = 0
    for value in values:
        total = total + value
    return total


def krippendorff_brute(item_labels: list[list[str]]) -> float:
    """Nominal alpha by literal enumeration of ordered within-item pairs."""
    values = sorted({v for labels in item_labels for v in labels})
    index = {v: i for i, v in enumerate(values)}
    o = [[0.0] * len(values) for _ in values]
    for labels in item_labels:
        m = len(labels)
        if m < 2:
            continue
        for i in range(m):
            for j in range(m):
                if i != j:
                    o[index[labels[i]]][index[labels[j]]] += 1.0 / (m - 1)
    n = sum(sum(row) for row in o)
    n_c = [sum(row) for row in o]
    d_o = sum(o[a][b] for a in range(len(values)) for b in range(len(values)) if a != b) / n
    d_e = sum(
        n_c[a] * n_c[b] for a in range(len(values)) for b in range(len(values)) if a != b
    ) / (n * (n - 1))
    return 1.0 - d_o / d_e


def pack_reference(unit_word_counts: list[int], cap: int) -> list[list[int]]:
    """Greedy packing of pre-decomposed units: accumulate while <= cap."""
    groups: list[list[int]] = []
    current: list[int] = []
    total = 0
    for wc in unit_word_counts:
        if current and total + wc > cap:
            groups.append(current)
            current = []
            total = 0
        current.append(wc)
        total += wc
    if current:
        groups.append(current)
    return groups


def dirichlet_multinomial_ll(alpha: np.ndarray, counts: np.ndarray) -> float:
    """Log-likelihood of count rows under a Dirichlet-multinomial with
    (asymmetric) parameter alpha."""
    alpha = np.asarray(alpha, dtype=float)
    counts = np.asarray(counts, dtype=float)
    row_sums = counts.sum(axis=1)
    a0 = alpha.sum()
    return float(
        len(counts) * gammaln(a0)
        - gammaln(row_sums + a0).sum()
        + gammaln(counts + alpha).sum()
        - len(counts) * gammaln(alpha).sum()
    )


def maximize_dirichlet_alpha(counts: np.ndarray, init: np.ndarray) -> np.ndarray:
    """Numerically maximize the Dirichlet-multinomial likelihood in alpha
    (optimizing over log-alpha keeps the parameters positive)."""

    def objective(log_alpha):
        return -dirichlet_multinomial_ll(np.exp(log_alpha), counts)

    result = minimize(objective, np.log(init), method="Nelder-Mead",
                      options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000})
    return np.exp(result.x)


def symmetric_beta_ll(beta: float, n_kw: np.ndarray) -> float:
    """Log-likelihood of topic-word counts under a symmetric beta prior."""
    k, v = n_kw.shape
    n_k = n_kw.sum(axis=1)
    return float(
        k * gammaln(v * beta)
        - gammaln(n_k + v * beta).sum()
        + gammaln(n_kw + beta).sum()
        - k * v * gammaln(beta)
    )


def maximize_symmetric_beta(n_kw: np.ndarray, lo: float = 1e-4, hi: float = 50.0) -> float:
    """Golden-section maximization of the symmetric-beta likelihood."""
    phi = (math.sqrt(5.0) - 1) / 2
    a, b = math.log(lo), math.log(hi)
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc = symmetric_beta_ll(math.exp(c), n_kw)
    fd = symmetric_beta_ll(math.exp(d), n_kw)
    for _ in range(200):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = symmetric_beta_ll(math.exp(c), n_kw)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = symmetric_beta_ll(math.exp(d), n_kw)
        if b - a < 1e-12:
            break
    return math.exp((a + b) / 2)


def topic_conditional(
    n_dk_row: list[int],
    n_kw_col: list[int],
    n_k: list[int],
    alpha: list[float],
    beta: float,
    vocabulary_size: int,
) -> list[float]:
    """Collapsed conditional p(z = k) for one token, given counts with the
    token's own assignment already decremented."""
    vbeta = vocabulary_size * beta
    weights = [
        (n_dk_row[k] + alpha[k]) * (n_kw_col[k] + beta) / (n_k[k] + vbeta)
        for k in range(len(n_k))
    ]
    total = sum(weights)
    return [w / total for w in weights]


def gibbs_sweep_reference(state) -> None:
    """One collapsed-Gibbs sweep over a ``topics.TopicState`` one token at a
    time, counts updated in place: the loop the compiled kernel matches bit
    for bit, with one state.rng.random() per token in token order. It holds
    the topic-word counts topic-major, as K rows of V, the layout the
    kernel's word-major n_kw replaced."""
    k_topics = state.k
    vbeta = state.vocabulary_size * state.beta
    beta = state.beta
    alpha = [float(a) for a in state.alpha]
    n_dk_view, n_kw_view, n_k_view = count_views(state)
    n_dk, n_kw, n_k = n_dk_view.tolist(), n_kw_view.tolist(), n_k_view.tolist()
    offsets = list(state.offsets)
    words = list(state.words)
    z = list(state.z)
    rand = state.rng.random
    cum = [0.0] * k_topics

    for d, row in enumerate(n_dk):
        for i in range(offsets[d], offsets[d + 1]):
            w = words[i]
            old = z[i]
            row[old] -= 1
            n_kw[old][w] -= 1
            n_k[old] -= 1
            total = 0.0
            for k in range(k_topics):
                total += (row[k] + alpha[k]) * (n_kw[k][w] + beta) / (n_k[k] + vbeta)
                cum[k] = total
            u = rand() * total
            new = 0
            while cum[new] < u:
                new += 1
            z[i] = new
            row[new] += 1
            n_kw[new][w] += 1
            n_k[new] += 1

    np.asarray(state.z)[:] = z
    n_dk_view[:] = n_dk
    n_kw_view[:] = n_kw
    n_k_view[:] = n_k


def count_views(state) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A ``topics.TopicState``'s n_dk, n_kw and n_k as numpy views, (D, K),
    (K, V) and (K,), of its flat int32 arrays, whose writes reach the state.
    n_kw is the transpose of the word-major (V, K) array, so it is not
    C-contiguous; ``np.ascontiguousarray`` gives it in topic-major order."""
    return (np.asarray(state.n_dk).reshape(-1, state.k),
            np.asarray(state.n_kw).reshape(state.vocabulary_size, state.k).T,
            np.asarray(state.n_k))


def count_reference(state) -> bool:
    """Add each token of a ``topics.TopicState``, with its topic in state.z,
    to n_dk, n_kw and n_k in place, by unbuffered numpy indexing; True, as
    the kernel's count returns for ids in range."""
    n_dk, n_kw, n_k = count_views(state)
    offsets, z, words = (np.asarray(getattr(state, name)) for name in ("offsets", "z", "words"))
    doc_of = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    np.add.at(n_dk, (doc_of, z), 1)
    np.add.at(n_kw, (z, words), 1)
    np.add.at(n_k, z, 1)
    return True


def pairwise_sums_reference(table, bounds=None, index=None, weights=None,
                            width: int = 1) -> list[float]:
    """``_sweep.pairwise_sums`` through numpy: for each part, ndarray.sum() of
    the part's terms, each weights[i] * table[index[i] * width + i % width]
    (the int32 weights cast to float64 before the multiply), through the
    gathered and weighted arrays the kernel does without."""
    table = np.asarray(table, dtype=np.float64)
    if index is None:
        at = np.arange(len(table))
    else:
        index = np.asarray(index).reshape(-1).astype(np.int64)
        at = index * width + np.arange(len(index)) % width
    terms = table[at]
    if weights is not None:
        weights = np.asarray(weights, dtype=np.int64)
        terms = weights * terms[:len(weights)]
    bounds = (0, len(terms)) if bounds is None else bounds
    return [float(terms[a:b].sum()) for a, b in zip(bounds, bounds[1:])]


@functools.cache
def bit_generator() -> np.random.MT19937:
    """The process's one MT19937; every use loads its own state, and
    building another would seed it from OS entropy for nothing."""
    return np.random.MT19937()


@contextmanager
def mt19937(rng: random.Random) -> Iterator[np.random.MT19937]:
    """numpy's MT19937 at rng's place in its stream; on leaving the block,
    rng is set to where the bit generator stopped, gauss_next kept. The
    blocks are never nested or entered from two threads at once, so they
    share one bit generator."""
    version, internal, gauss_next = rng.getstate()
    bitgen = bit_generator()
    bitgen.state = {"bit_generator": "MT19937",
                    "state": {"key": np.array(internal[:-1], dtype=np.uint32),
                              "pos": internal[-1]}}
    yield bitgen
    state = bitgen.state["state"]
    rng.setstate((version, (*state["key"].tolist(), int(state["pos"])), gauss_next))


def uniforms(rng: random.Random, n: int) -> np.ndarray:
    """The next n values of rng.random(), as float64: two 32-bit words each,
    ``(a * 2**26 + b) / 2**53`` with ``a = w1 >> 5``, ``b = w2 >> 6``."""
    with mt19937(rng) as bitgen:
        words = bitgen.random_raw(2 * n)
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (1.0 / 9007199254740992.0)


def randbelow(rng: random.Random, k: int, n: int) -> np.ndarray:
    """The next n values of rng.randrange(k), as int64:
    ``w >> (32 - k.bit_length())``, rejected while ``>= k``. Each try takes
    one 32-bit word, so drawing only as many words as values are still
    missing never takes a word the calls would not have taken. A bound of
    more than 32 bits raises ValueError, with nothing drawn."""
    bits = k.bit_length()
    if not 1 <= bits <= 32:
        raise ValueError(f"randrange bound {k} is not in [1, 2**32)")
    parts = [np.empty(0, dtype=np.uint64)]
    with mt19937(rng) as bitgen:
        while n:
            tries = bitgen.random_raw(n) >> (32 - bits)
            parts.append(tries[tries < k])
            n -= len(parts[-1])
    return np.concatenate(parts).astype(np.int64)


# Cephes lgam and psi as ``_sweep.SOURCE`` has them: the same constants and
# float operations in the same order, and math.log is libm's log, so their
# floats are the kernel's (and scipy.special's) for finite x > 0.
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4, 7.93650340457716943945E-4,
           -2.77777777730099687205E-3, 8.33333333333331927722E-2)
_LGAM_B = (-1.37825152569120859100E3, -3.88016315134637840924E4, -3.31612992738871184744E5,
           -1.16237097492762307383E6, -1.72173700820839662146E6, -8.53555664245765465627E5)
_LGAM_C = (1.0, -3.51815701436523470549E2, -1.70642106651881159223E4,
           -2.20528590553854454839E5, -1.13933444367982507207E6, -2.53252307177582951285E6,
           -2.01889141433532773231E6)
_PSI_A = (8.33333333333333333333E-2, -2.10927960927960927961E-2, 7.57575757575757575758E-3,
          -4.16666666666666666667E-3, 3.96825396825396825397E-3, -8.33333333333333333333E-3,
          8.33333333333333333333E-2)
_PSI_P = (-0.0020713321167745952, -0.045251321448739056, -0.28919126444774784,
          -0.65031853770896507, -0.32555031186804491, 0.25479851061131551)
_PSI_Q = (-0.55789841321675513e-6, 0.0021284987017821144, 0.054151797245674225,
          0.43593529692665969, 1.4606242909763515, 2.0767117023730469, 1.0)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """Cephes polevl: 0.0 * x + coef[0] is coef[0] for finite x."""
    ans = 0.0
    for c in coef:
        ans = ans * x + c
    return ans


def gammaln_reference(x: float) -> float:
    """Cephes lgam for finite x > 0; ValueError for any other x."""
    if not 0.0 < x < math.inf:
        raise ValueError("gammaln takes finite positive arguments only")
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x = x + (p - 2.0)
        return math.log(z) + x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C)
    if x > 2.556348e305:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + 0.91893853320467274178
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _polevl(p, _LGAM_A) / x


def digamma_reference(x: float) -> float:
    """Cephes psi for finite x > 0; ValueError for any other x."""
    if not 0.0 < x < math.inf:
        raise ValueError("digamma takes finite positive arguments only")
    y = 0.0
    if x <= 10.0 and x == math.floor(x):
        for i in range(1, int(x)):
            y += 1.0 / i
        return y - 0.577215664901532860606512090082402431
    if x < 1.0:
        y -= 1.0 / x
        x += 1.0
    elif x < 10.0:
        while x > 2.0:
            x -= 1.0
            y += 1.0 / x
    if x <= 2.0:
        g = x - 1569415565.0 / 1073741824.0
        g -= (381566830.0 / 1073741824.0) / 1073741824.0
        g -= 0.9016312093258695918615325266959189453125e-19
        r = _polevl(x - 1.0, _PSI_P) / _polevl(x - 1.0, _PSI_Q)
        return y + (g * 0.99558162689208984 + g * r)
    z = 1.0 / (x * x)
    s = z * _polevl(z, _PSI_A) if x < 1.0e17 else 0.0
    return y + (math.log(x) - 0.5 / x - s)


def elementwise(reference):
    """reference (one of the two above) over a sequence of numbers, as
    ``_sweep.gammaln``/``digamma`` take them: a float64 array."""
    def apply(x):
        return np.array([reference(float(v)) for v in x], dtype=np.float64)
    return apply


EDGE_CHARS = string.punctuation + "“”‘’—–…«»"


def normalize_token(word: str) -> str:
    """A form's token, one form at a time: lowercased, edge punctuation stripped."""
    return word.lower().strip(EDGE_CHARS)


def build_vocabulary_reference(
    segment_words: list[list[str]], stopwords: set[str], min_count: int,
) -> tuple[list[str], list[int], list[list[int]]]:
    """(sorted vocabulary, its frequencies, id documents), one token at a
    time: lowercase, strip edge punctuation, drop empty tokens, stopwords
    and words rarer than min_count."""
    stop = {w.lower() for w in stopwords}
    normalized = []
    counts: dict[str, int] = {}
    for words in segment_words:
        tokens = []
        for word in words:
            token = normalize_token(word)
            if token and token not in stop:
                tokens.append(token)
                counts[token] = counts.get(token, 0) + 1
        normalized.append(tokens)
    kept = sorted(w for w, c in counts.items() if c >= min_count)
    ids = {w: i for i, w in enumerate(kept)}
    docs = [[ids[t] for t in tokens if t in ids] for tokens in normalized]
    return kept, [counts[w] for w in kept], docs


def authorless_downsample_reference(
    docs: list[list[int]], doc_novels: list[str], rng: random.Random,
) -> list[list[int]]:
    """Keep a token of word w in novel b when rng.random() < min(1, P(w) /
    P(w|b)), one draw per token in token order."""
    corpus_counts: dict[int, int] = {}
    novel_counts: dict[str, dict[int, int]] = {}
    novel_totals: dict[str, int] = {}
    for doc, novel_id in zip(docs, doc_novels):
        per_novel = novel_counts.setdefault(novel_id, {})
        for w in doc:
            corpus_counts[w] = corpus_counts.get(w, 0) + 1
            per_novel[w] = per_novel.get(w, 0) + 1
        novel_totals[novel_id] = novel_totals.get(novel_id, 0) + len(doc)
    corpus_total = sum(novel_totals.values())
    if corpus_total == 0:
        return [list(doc) for doc in docs]
    reduced = []
    for doc, novel_id in zip(docs, doc_novels):
        n_b = novel_totals[novel_id]
        kept = []
        for w in doc:
            p_corpus = corpus_counts[w] / corpus_total
            p_novel = novel_counts[novel_id][w] / n_b
            if rng.random() < min(1.0, p_corpus / p_novel):
                kept.append(w)
        reduced.append(kept)
    return reduced


def lda_log_likelihood_direct(n_dk, n_kw, n_k, alpha, beta: float) -> float:
    """Joint log p(words, assignments | alpha, beta), gammaln applied to
    every count (of buffers or arrays, flat or not; n_dk is taken as
    (-1, len(alpha)), and n_kw, word-major as a TopicState holds it, as
    (-1, len(alpha)) and summed in topic-major order)."""
    alpha = np.asarray(alpha, dtype=np.float64)
    n_dk, n_kw, n_k = (np.asarray(n_dk).reshape(-1, len(alpha)),
                       np.ascontiguousarray(np.asarray(n_kw).reshape(-1, len(alpha)).T),
                       np.asarray(n_k))
    d_count = n_dk.shape[0]
    k, v = n_kw.shape
    sum_alpha = alpha.sum()
    ll = (
        d_count * gammaln(sum_alpha)
        - gammaln(n_dk.sum(axis=1) + sum_alpha).sum()
        + gammaln(n_dk + alpha).sum()
        - d_count * gammaln(alpha).sum()
    )
    vbeta = v * beta
    ll += (
        k * gammaln(vbeta)
        - gammaln(n_k + vbeta).sum()
        + gammaln(n_kw + beta).sum()
        - k * v * gammaln(beta)
    )
    return float(ll)


def lda_log_joint(docs: list[list[int]], z: list[int], alpha: list[float], beta: float,
                  vocabulary_size: int) -> float:
    """log p(words, z | alpha, beta) of collapsed LDA straight from the model,
    z the topics of the tokens of docs in order: for each document the
    Dirichlet-multinomial of its topics under alpha, and for each topic that
    of its words under a symmetric beta, with math.lgamma."""
    k = len(alpha)
    n_kw = [[0] * vocabulary_size for _ in range(k)]
    log_p = 0.0
    topics = iter(z)
    for doc in docs:
        n_dt = [0] * k
        for w in doc:
            t = next(topics)
            n_dt[t] += 1
            n_kw[t][w] += 1
        log_p += math.lgamma(sum(alpha)) - math.lgamma(len(doc) + sum(alpha))
        log_p += sum(math.lgamma(n + a) - math.lgamma(a) for n, a in zip(n_dt, alpha))
    v_beta = vocabulary_size * beta
    for row in n_kw:
        log_p += math.lgamma(v_beta) - math.lgamma(sum(row) + v_beta)
        log_p += sum(math.lgamma(n + beta) - math.lgamma(beta) for n in row)
    return log_p


def exact_posterior(docs: list[list[int]], alpha: list[float], beta: float,
                    vocabulary_size: int) -> dict[tuple[int, ...], float]:
    """p(z | words, alpha, beta) for every assignment z of the tokens of docs
    to the len(alpha) topics, by enumerating them all: each z's joint over
    the sum of the joints."""
    n_tokens = sum(map(len, docs))
    log_joint = {z: lda_log_joint(docs, list(z), alpha, beta, vocabulary_size)
                 for z in itertools.product(range(len(alpha)), repeat=n_tokens)}
    top = max(log_joint.values())
    weight = {z: math.exp(lp - top) for z, lp in log_joint.items()}
    total = math.fsum(weight.values())
    return {z: w / total for z, w in weight.items()}


# The numpy code that the standard-library layer of ``topics`` replaced, kept
# as its reference: the same floats in the same order of operations, with
# scipy.special for the kernel's gammaln and digamma and numpy's own sums for
# its pairwise ones. Each reads a ``topics.TopicState`` through numpy views.


def _offsets(lengths) -> np.ndarray:
    """(D + 1,) int64 token offsets of documents of the given lengths."""
    lengths = np.fromiter(lengths, dtype=np.int64)
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _split(flat: np.ndarray, offsets: np.ndarray, keep: np.ndarray) -> list[np.ndarray]:
    """The kept tokens of each document, as views of one flat array."""
    kept_at = np.flatnonzero(keep)
    return np.split(flat[kept_at], np.searchsorted(kept_at, offsets[1:]))[:-1]


class FormTableReference:
    """``_sweep.FormTable`` one word at a time: ``str.split()`` of the
    decoded text, each word's form id from a first-appearance defaultdict."""

    def __init__(self):
        self.words = array.array("i")
        self._ids: dict[str, int] = collections.defaultdict(itertools.count().__next__)

    @property
    def forms(self) -> list[str]:
        return list(self._ids)

    def extend(self, words) -> int:
        before = len(self.words)
        self.words.extend(map(self._ids.__getitem__, words))
        return len(self.words) - before

    def add(self, text: bytes) -> int:
        return self.extend(text.decode().split())


def build_vocabulary_numpy(segments, stopwords, min_count):
    """``topics.build_vocabulary`` through numpy: each segment's words through
    a ``FormTableReference``, then ``vocabulary_of_numpy``."""
    table = FormTableReference()
    offsets = [0]
    for seg in segments:
        table.extend(seg.words)
        offsets.append(len(table.words))
    return vocabulary_of_numpy(table, offsets, stopwords, min_count)


def vocabulary_of_numpy(table, offsets, stopwords, min_count):
    """``topics.vocabulary_of`` through numpy: np.bincount of the form ids, then
    a gather, a mask and np.split; int32 documents."""
    from godspell.topics import Vocabulary, VocabularyError

    stop = frozenset(w.lower() for w in stopwords)
    form_of = np.frombuffer(table.words, dtype=np.int32)
    tokens = [normalize_token(form) for form in table.forms]
    counts: dict[str, int] = {}
    for token, c in zip(tokens, np.bincount(form_of, minlength=len(tokens)).tolist()):
        if token and token not in stop:
            counts[token] = counts.get(token, 0) + c
    kept = sorted(w for w, c in counts.items() if c >= min_count)
    if not kept:
        raise VocabularyError(
            f"no vocabulary left after stopword and min_count={min_count} filtering")
    ids = {w: i for i, w in enumerate(kept)}
    vocab = Vocabulary(words=kept, ids=ids, frequencies=[counts[w] for w in kept],
                       stopwords=stop)
    id_of_form = np.fromiter((ids.get(t, -1) for t in tokens), dtype=np.int32, count=len(tokens))
    word_ids = id_of_form[form_of]
    return vocab, _split(word_ids, np.asarray(offsets, dtype=np.int64), word_ids >= 0)


def authorless_downsample_numpy(docs, doc_novels, rng_seed):
    """``topics.authorless_downsample`` through numpy: an N-long float64 ratio
    from np.bincount per novel, compared with one rng.random() per token."""
    if len(docs) != len(doc_novels):
        raise ValueError("docs and doc_novels must align")
    words = np.concatenate([np.empty(0, np.int32), *(np.asarray(d, np.int32) for d in docs)])
    offsets = _offsets(map(len, docs))
    corpus_total = len(words)
    p_corpus = np.bincount(words) / corpus_total
    ratio = np.empty(corpus_total)
    rows: dict[str, list[int]] = {}
    for i, novel_id in enumerate(doc_novels):
        rows.setdefault(novel_id, []).append(i)
    for ds in rows.values():
        at = np.concatenate([np.arange(offsets[d], offsets[d + 1]) for d in ds])
        novel_words = words[at]
        ratio[at] = p_corpus[novel_words] / (np.bincount(novel_words) / len(at))[novel_words]
    return _split(words, offsets, uniforms(random.Random(rng_seed), corpus_total) < ratio)


def validate_reference(state, docs) -> None:
    """``topics.TopicState.validate`` through numpy: the same checks in the
    same order, with the same messages."""
    k, v = state.k, state.vocabulary_size
    n_dk, n_kw, n_k = (np.asarray(getattr(state, name)).reshape(-1)
                       for name in ("n_dk", "n_kw", "n_k"))
    offsets, words, z = (np.asarray(getattr(state, name)) for name in ("offsets", "words", "z"))
    alpha = np.asarray(state.alpha)
    doc_lens = np.array([len(d) for d in docs], dtype=np.int64)
    if (offsets.shape != (len(docs) + 1,) or offsets[0] != 0
            or not np.array_equal(np.diff(offsets), doc_lens)
            or words.shape != (offsets[-1],) or z.shape != words.shape
            or n_dk.shape != (len(docs) * k,) or n_kw.shape != (k * v,)
            or n_k.shape != (k,) or alpha.shape != (k,)):
        raise RuntimeError("corrupted state: array shapes do not match the documents")
    n_dk, n_kw = n_dk.reshape(len(docs), k), n_kw.reshape(v, k).T
    if len(z) and (z.min() < 0 or z.max() >= k or words.min() < 0 or words.max() >= v):
        raise RuntimeError("corrupted state: topic or word id out of range")
    if (n_dk < 0).any() or (n_kw < 0).any() or (n_k < 0).any():
        raise RuntimeError("corrupted state: negative count")
    if (alpha <= 0).any() or state.beta <= 0:
        raise RuntimeError("corrupted state: non-positive prior")
    if not np.array_equal(n_dk.sum(axis=1), doc_lens):
        raise RuntimeError("corrupted state: document-topic counts != doc lengths")
    if not np.array_equal(n_kw.sum(axis=1), n_k):
        raise RuntimeError("corrupted state: topic-word counts != topic totals")
    if n_k.sum() != doc_lens.sum():
        raise RuntimeError("corrupted state: topic totals != token total")


def log_likelihood_reference(state) -> float:
    """``topics.log_likelihood`` through numpy: gammaln tables indexed by the
    counts, gathered into arrays and summed by ndarray.sum()."""
    n_dk, n_kw, n_k = count_views(state)
    for name, counts in (("n_dk", n_dk), ("n_kw", n_kw)):
        if counts.min(initial=0) < 0:
            raise ValueError(f"log_likelihood: {name} holds a negative count")
    alpha = np.asarray(state.alpha, dtype=np.float64)
    d_count = n_dk.shape[0]
    k, v = state.k, state.vocabulary_size
    sum_alpha = alpha.sum()
    vbeta = v * state.beta
    doc_lens = n_dk.sum(axis=1)
    parts = (
        np.arange(doc_lens.max(initial=0) + 1) + sum_alpha,
        (np.arange(n_dk.max(initial=0) + 1)[:, None] + alpha).reshape(-1),
        np.arange(n_kw.max(initial=0) + 1) + state.beta,
        n_k + vbeta,
        alpha,
        [sum_alpha, vbeta, state.beta],
    )
    terms = gammaln(np.concatenate(parts))
    bounds = itertools.accumulate(map(len, parts), initial=0)
    len_terms, doc_terms, word_terms, total_terms, alpha_terms, (g_sum_alpha, g_vbeta, g_beta) = (
        terms[a:b] for a, b in itertools.pairwise(bounds))
    doc_terms = doc_terms.reshape(-1, k)
    ll = (
        d_count * g_sum_alpha
        - len_terms[doc_lens].sum()
        + doc_terms[n_dk, np.arange(k)].sum()
        - d_count * alpha_terms.sum()
    )
    ll += (
        k * g_vbeta
        - total_terms.sum()
        + word_terms[np.ascontiguousarray(n_kw)].sum()
        - k * v * g_beta
    )
    return float(ll)


def optimize_alpha_reference(state, tol: float = 1e-5, max_iter: int = 1000) -> np.ndarray:
    """``topics.optimize_alpha`` through numpy, with np.bincount histograms
    and one ``(weights * psi[part]).sum()`` per topic."""
    n_dk = count_views(state)[0]
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

    alpha = np.array(state.alpha, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
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
                return state.alpha
            new_alpha = np.maximum(new_alpha, 1e-5)
            rel_change = np.max(np.abs(new_alpha - alpha) / alpha)
            alpha = new_alpha
            if rel_change < tol:
                break
    state.alpha = alpha
    return alpha


def optimize_beta_reference(state, tol: float = 1e-5, max_iter: int = 1000) -> float:
    """``topics.optimize_beta`` through numpy, with an np.bincount histogram."""
    _, n_kw, topic_totals = count_views(state)
    v = state.vocabulary_size
    k_topics = state.k
    top = int(n_kw.max(initial=0))
    word_hist = sum(np.bincount(row, minlength=top + 1) for row in n_kw)
    word_values = np.nonzero(word_hist)[0]
    word_weights = word_hist[word_values]
    n_words = len(word_values)

    beta = state.beta
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_iter):
            psi = digamma(np.concatenate((word_values + beta, topic_totals + v * beta,
                                          [beta, v * beta])))
            numer = (word_weights * psi[:n_words]).sum() - k_topics * v * psi[-2]
            denom = v * (psi[n_words:-2].sum() - k_topics * psi[-1])
            new_beta = beta * numer / denom
            if not np.isfinite(new_beta) or new_beta <= 0:
                return state.beta
            new_beta = max(new_beta, 1e-5)
            rel_change = abs(new_beta - beta) / beta
            beta = new_beta
            if rel_change < tol:
                break
    state.beta = beta
    return beta


def doc_topic_proportions_reference(state) -> np.ndarray:
    """``topics.doc_topic_rows`` of every row, through numpy, (D, K)."""
    n_dk = count_views(state)[0]
    alpha = np.asarray(state.alpha, dtype=np.float64)
    return (n_dk + alpha) / (n_dk.sum(axis=1, keepdims=True) + alpha.sum())




def prominence_reference(doc_topic, doc_novels: list[str]) -> dict[str, list[float]]:
    """Novel id -> numpy's mean of its doc-topic rows, in percent, novels in
    order of first appearance: the whole-array mean that the plain-Python
    row sums of prominence_from_doc_topic replace."""
    doc_topic = np.asarray(doc_topic, dtype=np.float64)
    rows: dict[str, list[int]] = {}
    for i, novel_id in enumerate(doc_novels):
        rows.setdefault(novel_id, []).append(i)
    return {novel_id: (100.0 * doc_topic[ids].mean(axis=0)).tolist()
            for novel_id, ids in rows.items()}


def save_state_reference(path, state, log_likelihoods, vocabulary, doc_novels) -> None:
    """state.json as one json.dumps of the whole payload, every matrix cell
    encoded on its own, with the shares of doc_topic_proportions_reference."""
    payload = {
        "format": STATE_FORMAT,
        "version": STATE_VERSION,
        "k": state.k,
        "alpha": [float(a) for a in state.alpha],
        "beta": state.beta,
        "seed": state.rng_seed,
        "vocabulary": vocabulary.words,
        "n_kw": np.asarray(state.n_kw).reshape(-1, state.k).T.tolist(),
        "doc_topic": doc_topic_proportions_reference(state).tolist(),
        "doc_novels": doc_novels,
        "log_likelihood": log_likelihoods,
    }
    Path(path).write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")


def save_state_by_row_reference(path, state, log_likelihoods, vocabulary, doc_novels) -> None:
    """state.json as ``topics.save_state`` wrote it before the kernel wrote
    its rows: json's text of each distinct share in a dict keyed by the
    share's bits (so that -0.0 and each nan keep their own), joined into
    each doc_topic row in Python, and n_kw's topic-major rows read from the
    word-major counts with stride K."""
    k = state.k
    head = json.dumps({
        "format": STATE_FORMAT, "version": STATE_VERSION, "k": k,
        "alpha": [float(a) for a in state.alpha], "beta": state.beta, "seed": state.rng_seed,
        "vocabulary": vocabulary.words,
    }, ensure_ascii=False)
    tail = json.dumps({"doc_novels": doc_novels, "log_likelihood": log_likelihoods},
                      ensure_ascii=False)
    n_kw = np.asarray(state.n_kw).reshape(-1)
    bits = np.asarray(doc_topic_proportions_reference(state), dtype=np.float64).reshape(-1)
    bits = bits.view(np.int64).tolist()
    shares = dict.fromkeys(bits)
    texts = json.dumps(np.array(list(shares), dtype=np.int64).view(np.float64).tolist())
    for key, text in zip(shares, texts[1:-1].split(", ")):
        shares[key] = text
    n_kw_rows = (", ".join(map(str, n_kw[t::k].tolist())) for t in range(k))
    doc_rows = (", ".join(map(shares.__getitem__, bits[d * k:(d + 1) * k]))
                for d in range(len(bits) // k))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{head[:-1]}, "n_kw": [{", ".join(f"[{row}]" for row in n_kw_rows)}]')
        fh.write(f', "doc_topic": [{", ".join(f"[{row}]" for row in doc_rows)}], {tail[1:]}')


def distinct_whole(x) -> tuple[array.array, array.array]:
    """(ids, values) for the doubles x in one pass of the kernel's
    ``distinct``, as ``_sweep.distinct`` gave them before the state writer
    kept one table across its blocks: values holds the distinct 64-bit
    patterns in order of first appearance, ids the number of each of x."""
    from godspell import _sweep

    x = _sweep.items("x", x, "d")
    ids = array.array("i", [0]) * len(x)
    slots = array.array("i", [-1]) * 1024
    values = array.array("d", [0.0]) * (len(slots) // 2)
    tally = array.array("i", [0, 0])
    at, lib, address = 0, _sweep.kernel(), _sweep._address
    while (at := lib.distinct(address(x), len(x), at, address(ids), address(slots), len(slots),
                              address(values), address(tally))) < len(x):
        assert at >= 0
        slots = array.array("i", [-1]) * (4 * len(slots))
        values.frombytes(bytes(8 * (len(slots) // 2 - len(values))))
        tally[1] = 0
    del values[tally[0]:]
    return ids, values


def save_state_whole_reference(path, state, log_likelihoods, vocabulary, doc_novels) -> None:
    """state.json as ``topics.save_state`` wrote it before it took doc_topic
    a block of rows at a time: the whole (D, K) matrix of shares
    (doc_topic_proportions_reference) and its whole int32 index, from one
    pass of the kernel's ``distinct`` (distinct_whole), each distinct share's
    text from one ``json.dumps``, and every row's text from one call of the
    kernel's ``rows_text``."""
    from godspell import _sweep

    k = state.k
    head = json.dumps({
        "format": STATE_FORMAT, "version": STATE_VERSION, "k": k,
        "alpha": [float(a) for a in state.alpha], "beta": state.beta, "seed": state.rng_seed,
        "vocabulary": vocabulary.words,
    }, ensure_ascii=False)
    tail = json.dumps({"doc_novels": doc_novels, "log_likelihood": log_likelihoods},
                      ensure_ascii=False)
    shares = np.ascontiguousarray(doc_topic_proportions_reference(state), dtype=np.float64)
    ids, values = distinct_whole(shares.reshape(-1))
    texts = json.dumps(values.tolist())[1:-1].split(", ") if values else []
    store = bytearray("".join(texts).encode())
    at = array.array("i", itertools.accumulate(map(len, texts), initial=0))
    rows = len(ids) // k
    out = bytearray(rows * (4 + k * 26))
    address = _sweep._address
    end = _sweep.kernel().rows_text(address(ids), k, k, 1, 0, rows, address(store),
                                    address(at), len(values), address(out), len(out))
    assert end >= 0
    n_kw = np.asarray(state.n_kw).reshape(-1)
    n_kw_rows = [json.dumps(n_kw[t::k].tolist()).encode() for t in range(k)]
    with open(path, "wb") as fh:
        fh.write(f'{head[:-1]}, "n_kw": ['.encode() + b", ".join(n_kw_rows))
        fh.write(b'], "doc_topic": [' + out[:end] + f"], {tail[1:]}".encode())


# each field of a state file -> the types json.loads may give it, and for an
# array the types of its items (a bool is not a number)
_STATE_FIELDS = {"k": ((int,), None), "alpha": ((list,), {int, float}),
                 "beta": ((int, float), None), "seed": ((int,), None),
                 "vocabulary": ((list,), {str}), "n_kw": ((list,), {list}),
                 "doc_topic": ((list,), {list}), "doc_novels": ((list,), {str}),
                 "log_likelihood": ((list,), {int, float})}
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a float", bool: "a boolean", type(None): "null"}


def _state_items(path, name: str, rows: list, kinds: set[type]) -> None:
    if not set(map(type, itertools.chain.from_iterable(rows))) <= kinds:
        bad = next(x for x in itertools.chain.from_iterable(rows) if type(x) not in kinds)
        expected = " or ".join(sorted(kind.__name__ for kind in kinds))
        raise ValueError(f"topic state {path}: {name} holds {bad!r}, not {expected}")


def _state_shape(path, name: str, matrix: list[list], width: int, kinds: set[type]) -> tuple:
    widths = sorted({len(row) for row in matrix})
    if len(widths) > 1:
        raise ValueError(f"topic state {path}: {name} has rows of {widths[0]} to {widths[-1]} "
                         f"values")
    _state_items(path, name, matrix, kinds)
    return (len(matrix), widths[0] if widths else width)


def load_state_reference(path) -> dict:
    """``topics.load_state`` as it was before it decoded the file one value at
    a time: the whole file as one string through one ``json.loads``, then
    every check on the whole dict, with the same messages."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except ValueError as e:
        raise ValueError(f"{path} is not valid JSON: {e}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: must hold a JSON object, got {type(payload).__name__}")
    if payload.get("format") != STATE_FORMAT or payload.get("version") != STATE_VERSION:
        raise ValueError(f"unrecognized topic state file: {path}")
    missing = [name for name in _STATE_FIELDS if name not in payload]
    if missing:
        raise ValueError(f"topic state {path} lacks the field {missing[0]!r}")
    model = {name: payload[name] for name in _STATE_FIELDS}
    for name, (kinds, items) in _STATE_FIELDS.items():
        if type(model[name]) not in kinds:
            expected = " or ".join(_JSON_TYPES[kind] for kind in kinds)
            raise ValueError(f"topic state {path}: {name} is {_JSON_TYPES[type(model[name])]}, "
                             f"not {expected}")
        if items is not None:
            _state_items(path, name, [model[name]], items)
    k, v, d = model["k"], len(model["vocabulary"]), len(model["doc_novels"])
    shapes = {
        "alpha": ((len(model["alpha"]),), (k,)),
        "n_kw": (_state_shape(path, "n_kw", model["n_kw"], v, {int}), (k, v)),
        "doc_topic": (_state_shape(path, "doc_topic", model["doc_topic"], k, {int, float}),
                      (d, k)),
    }
    for name, (found, expected) in shapes.items():
        if found != expected:
            raise ValueError(f"topic state {path}: {name} has shape {found}, expected {expected}")
    return model


def check_annotation_invariants(ann) -> None:
    """The cascade's structural rules for a resolved annotation: stage 2
    runs iff stage 1 said YES, the final label is the conjunction of the
    stages, and affect and impact are present iff the final label is YES.
    AssertionError naming the passage otherwise."""
    if ann.status != "ok":
        return
    s1_yes = ann.stage1 is not None and ann.stage1["label"] == "YES"
    s2_yes = ann.stage2 is not None and ann.stage2["label"] == "YES"
    if (ann.stage2 is not None) != s1_yes:
        raise AssertionError(f"{ann.ref}: stage2 presence must track stage1 YES")
    if (ann.final_label == "YES") != (s1_yes and s2_yes):
        raise AssertionError(f"{ann.ref}: final label must be the stage conjunction")
    if (ann.affect is not None) != (ann.final_label == "YES"):
        raise AssertionError(f"{ann.ref}: affect present iff final YES")
    if (ann.impact is not None) != (ann.final_label == "YES"):
        raise AssertionError(f"{ann.ref}: impact present iff final YES")


def http_transport_reference(config, prompt: str, schema) -> str:
    """The urllib transport that annotate.http_transport replaces: one new
    connection a call, through urllib.request's opener (environment proxies
    and redirects included)."""
    import http.client
    import urllib.error
    import urllib.request

    from godspell.annotate import MalformedResponse, TransportError

    url = config.endpoint.rstrip("/") + "/api/generate"
    payload = {
        "model": config.model,
        "prompt": prompt,
        "stream": False,
        "options": {"temperature": config.temperature},
        "format": schema.to_json_schema(),
    }
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=config.timeout) as response:
            body = response.read()
    except urllib.error.HTTPError as e:
        e.close()
        raise TransportError(f"endpoint returned HTTP {e.code}", e.code) from None
    except (OSError, http.client.HTTPException) as e:
        raise TransportError(f"request to {url} failed: {e}") from None
    try:
        return json.loads(body)["response"]
    except (ValueError, KeyError, TypeError):
        raise MalformedResponse("endpoint body lacked a response field") from None
