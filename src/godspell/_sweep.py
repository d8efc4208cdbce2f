"""The compiled inner loops of ``topics``: the corpus pass from text to form
ids, the relabelling of the words to vocabulary ids, the random draws, the
counts and their checks, the collapsed Gibbs sweep, histograms, pairwise
float sums, the text of ``state.json``'s matrices, and ``gammaln`` and
``digamma``.

``forms`` splits UTF-8 text at exactly ``str.split()``'s whitespace and
numbers each word's form by first appearance through an open-addressing
table kept for the whole corpus, so that no word of ``topics-train``'s
corpus becomes a Python string; ``FormTable`` owns its buffers and grows
each one when the kernel stops for room, then lets it resume.

``SOURCE`` holds CPython's Mersenne Twister, run on a copy of a
``random.Random``'s state that ``_draw`` hands back, so every draw and
``rng.getstate()`` afterwards are those of ``rng.randrange(k)`` and
``rng.random()``; its twist is the reference's three loops, with no index
wrapping. The sweep does the same float operations in the same
order as the pure-Python ``gibbs_sweep_reference`` in ``tests/oracles.py``:
built without ``-ffast-math`` and with ``-ffp-contract=off`` (no fused
multiply-add), it gives bit-for-bit the same assignments, counts and RNG
stream. The sweep reads the topic-word counts word-major, ``n_kw[w * K + t]``,
so a token's K counts lie side by side. ``pairwise_sums`` adds in numpy's
pairwise order, so each sum is numpy's ``ndarray.sum()`` of the same terms
bit for bit, and walks a word-major matrix in topic-major order when asked,
reading each entry where it lies, by stride. ``distinct`` numbers the
distinct 64-bit patterns of doubles through a hash table that grows with
their count (``Distinct`` keeps it across calls), and ``row_texts``
writes a matrix's rows as JSON text in bounded blocks, each block's rows
joined by json's ", ", of integers or of indexes into a store of texts, so
that each distinct share of ``state.json`` is formatted once, by
``json.dumps``, and copied by the kernel wherever it recurs; it reads
n_kw's topic-major rows by stride too. ``histogram`` counts the values of
each column, and ``shifted`` adds each of a run of counts to its part's
prior. Beside
them are Cephes ``lgam`` and ``psi`` (Moshier 1989) for x > 0, the code
behind ``scipy.special.gammaln`` and ``digamma``, with the same constants,
the same operation order and libm ``log``; they give scipy's floats bit
for bit, so scipy is not needed at run time. Their pure-Python twins,
``gammaln_reference`` and ``digamma_reference``, are in the oracles too.

The functions here take and return the standard library's ``array.array``
and ``memoryview`` buffers, and numpy is never imported. Every id, count,
offset, bound and weight the kernel reads is int32 (typecode "i"), and
every text a byte ("B"), each matrix flat, row-major but for n_kw, which is
word-major, so each function has one variant;
``topics.TopicState`` says why no count wraps. A buffer handed to the
kernel must hold its C type: ``items`` raises TypeError, naming the
argument, for any other item format, and never casts (a cast would wrap or
misread values). ``gammaln`` and ``digamma`` take an iterable of numbers
and reject an argument that is not finite and positive with ValueError.

It is compiled with ``cc`` on first use into ``$XDG_CACHE_HOME/godspell``
(default ``~/.cache/godspell``), under a file name keyed by the sha256 of
the source, the flags and the machine type, with the library's own sha256
beside it, and loaded with ``ctypes``, each exported function's argument
types read from its prototype in ``SOURCE``. A cached library whose bytes
do not match that checksum is rebuilt, never loaded; a cache directory that
cannot be written is replaced by a temporary one. There is no other
sampler, so ``topics-train`` needs a C compiler: when none works,
``kernel``, and so the first kernel call, raises BuildError, which names the
compiler and its message.
"""

from __future__ import annotations

import array
import ctypes
import functools
import logging
import operator
import os
import re
from collections.abc import Iterator
from pathlib import Path

from .config import read_text, replacing, sha256

log = logging.getLogger(__name__)

COMPILER = "cc"
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
LIBS = ("-lm",)


SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <string.h>

/* Every exported function returns int64_t: 0, a count, or -1 when it refuses its input. */

/* CPython's Mersenne Twister (Matsumoto & Nishimura 1998) on the state
   random.Random.getstate() holds: mt[0..623] and the position mt[624] */
static uint32_t genrand_uint32(uint32_t *mt)
{
    if (mt[624] >= 624) {  /* the twist in the reference's three loops, no index wrapping */
        int i = 0;
        uint32_t y;
        for (; i < 624 - 397; i++) {
            y = (mt[i] & 0x80000000U) | (mt[i + 1] & 0x7fffffffU);
            mt[i] = mt[i + 397] ^ (y >> 1) ^ (y & 1U ? 0x9908b0dfU : 0U);
        }
        for (; i < 623; i++) {
            y = (mt[i] & 0x80000000U) | (mt[i + 1] & 0x7fffffffU);
            mt[i] = mt[i + 397 - 624] ^ (y >> 1) ^ (y & 1U ? 0x9908b0dfU : 0U);
        }
        y = (mt[623] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[623] = mt[396] ^ (y >> 1) ^ (y & 1U ? 0x9908b0dfU : 0U);
        mt[624] = 0;
    }
    uint32_t y = mt[mt[624]++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    return y ^ (y >> 18);
}

/* rng.random(): 53 bits from two words, the first drawn first */
static double random53(uint32_t *mt)
{
    double a = genrand_uint32(mt) >> 5;
    return (a * 67108864.0 + (genrand_uint32(mt) >> 6)) * (1.0 / 9007199254740992.0);
}

/* n values of rng.randrange(k): the top bit_length(k) bits of a word, drawn
   again while >= k; -1 before drawing when k is not in [1, 2**32) */
int64_t randrange(uint32_t *mt, int64_t k, int64_t n, uint32_t *out)
{
    if (k < 1 || k > 0xffffffffLL)
        return -1;
    int shift = __builtin_clzll((unsigned long long)k) - 32;
    for (int64_t i = 0; i < n; i++)
        do
            out[i] = genrand_uint32(mt) >> shift;
        while (out[i] >= k);
    return 0;
}

/* 1 for the ASCII whitespace of str.split(), 2 for the lead bytes of its other whitespace
   in UTF-8 (U+0085 and U+00A0; U+1680; U+2000-U+200A, U+2028, U+2029, U+202F and U+205F;
   U+3000), 0 for every other byte */
static const uint8_t BYTE_CLASS[256] = {
    [0x09] = 1, [0x0a] = 1, [0x0b] = 1, [0x0c] = 1, [0x0d] = 1,
    [0x1c] = 1, [0x1d] = 1, [0x1e] = 1, [0x1f] = 1, [0x20] = 1,
    [0xc2] = 2, [0xe1] = 2, [0xe2] = 2, [0xe3] = 2,
};

/* the byte length of the whitespace code point at s[i] of s[0..n), 0 when it is none */
static int64_t space_len(const uint8_t *s, int64_t i, int64_t n)
{
    if (BYTE_CLASS[s[i]] != 2)
        return BYTE_CLASS[s[i]];
    if (s[i] == 0xc2)
        return i + 1 < n && (s[i + 1] == 0x85 || s[i + 1] == 0xa0) ? 2 : 0;
    if (i + 2 >= n)
        return 0;
    uint8_t b = s[i + 1], c = s[i + 2];
    if (s[i] == 0xe1)
        return b == 0x9a && c == 0x80 ? 3 : 0;
    if (s[i] == 0xe3)
        return b == 0x80 && c == 0x80 ? 3 : 0;
    if (b == 0x80)
        return (c >= 0x80 && c <= 0x8a) || c == 0xa8 || c == 0xa9 || c == 0xaf ? 3 : 0;
    return b == 0x81 && c == 0x9f ? 3 : 0;
}

/* FNV-1a of s[0..n) */
static uint32_t fnv1a(const uint8_t *s, int64_t n)
{
    uint32_t h = 2166136261U;
    for (int64_t i = 0; i < n; i++)
        h = (h ^ s[i]) * 16777619U;
    return h;
}

/* the slot of the form s[0..n), hash h, in the open-addressing table of n_slots (a power
   of two) slots of three int32: the hash, the form id (-1 when empty) and the offset of
   the form's bytes in store; the first empty slot when the form is not there */
static int32_t *slot_of(int32_t *slots, int64_t n_slots, const uint8_t *store, int64_t used,
                        const uint8_t *s, int64_t n, uint32_t h)
{
    for (int64_t i = (int64_t)(h ^ (h >> 16)) & (n_slots - 1);; i = (i + 1) & (n_slots - 1)) {
        int32_t *slot = slots + 3 * i;
        if (slot[1] < 0)
            return slot;
        int64_t at = slot[2];
        if ((uint32_t)slot[0] == h && at + n < used && store[at + n] == ' '
                && memcmp(store + at, s, (size_t)n) == 0)
            return slot;
    }
}

static void put_slot(int32_t *slot, uint32_t h, int64_t id, int64_t at)
{
    slot[0] = (int32_t)h;
    slot[1] = (int32_t)id;
    slot[2] = (int32_t)at;
}

/* The words of text[at..n), split at str.split()'s whitespace, as form ids appended to out.
   A form is a word's bytes; ids count from 0 in order of first appearance, over every call
   on the same table. tally holds the forms so far, how many of them the table holds, the
   bytes of store used and the ids in out. store holds each form's bytes followed by a space,
   in id order; slots (see slot_of) are refilled from it first when the table holds fewer
   forms than there are, as it does after the caller replaces it with a larger empty one.
   Returns the offset where it stopped: n once every word is in out, or the start of the next
   word when out is full, when store has no room for its new form, or when the form would
   fill more than half the table; -1 before reading text when the table or the tallies
   cannot be a state this function left. */
int64_t forms(const uint8_t *text, int64_t n, int64_t at, int32_t *slots, int64_t n_slots,
              uint8_t *store, int64_t store_size, int32_t *out, int64_t out_size, int32_t *tally)
{
    int64_t n_forms = tally[0], used = tally[2], n_out = tally[3];
    if (n_slots < 1 || (n_slots & (n_slots - 1)) || 2 * n_forms > n_slots || tally[1] < 0
            || tally[1] > n_forms || used > store_size || n_out < 0 || n_out > out_size
            || at < 0 || at > n || store_size >= INT32_MAX)
        return -1;
    for (int64_t i = 0, start = 0, id = 0; tally[1] < n_forms && i < used; i++)
        if (store[i] == ' ') {
            if (id >= tally[1]) {
                uint32_t h = fnv1a(store + start, i - start);
                put_slot(slot_of(slots, n_slots, store, used, store + start, i - start, h), h,
                         id, start);
            }
            id++;
            start = i + 1;
        }
    tally[1] = (int32_t)n_forms;
    int64_t i = at;
    while (i < n) {
        int64_t len = space_len(text, i, n);
        if (len) {
            i += len;
            continue;
        }
        if (n_out == out_size)
            break;
        int64_t start = i;
        uint32_t h = 2166136261U;  /* fnv1a of the word, taken as it is scanned */
        do
            h = (h ^ text[i++]) * 16777619U;
        while (i < n && !(BYTE_CLASS[text[i]] && space_len(text, i, n)));
        len = i - start;
        int32_t *slot = slot_of(slots, n_slots, store, used, text + start, len, h);
        if (slot[1] < 0) {
            if (2 * (n_forms + 1) > n_slots || used + len + 1 > store_size) {
                i = start;
                break;
            }
            memcpy(store + used, text + start, (size_t)len);
            store[used + len] = ' ';
            put_slot(slot, h, n_forms++, used);
            used += len + 1;
        }
        out[n_out++] = slot[1];
    }
    tally[0] = tally[1] = (int32_t)n_forms;
    tally[2] = (int32_t)used;
    tally[3] = (int32_t)n_out;
    return i;
}

/* words[i] = ids[words[i]] for each token, the tokens whose id is -1 dropped, in place,
   and offsets rewritten to the kept tokens (a kept count never passes the offset it
   replaces, so it fits int32). Returns the kept count, or -1 before changing anything
   when a word is outside [0, n_ids). */
int64_t relabel(int64_t n_docs, int32_t *offsets, int32_t *words, const int32_t *ids,
                int64_t n_ids)
{
    for (int64_t i = 0; i < offsets[n_docs]; i++)
        if (words[i] < 0 || words[i] >= n_ids)
            return -1;
    int64_t kept = 0, start = offsets[0];
    for (int64_t d = 0; d < n_docs; d++) {
        int64_t end = offsets[d + 1];
        offsets[d] = (int32_t)kept;
        for (int64_t i = start; i < end; i++) {  /* no branch: which words stay is random */
            int32_t id = ids[words[i]];
            words[kept] = id;
            kept += id >= 0;
        }
        start = end;
    }
    offsets[n_docs] = (int32_t)kept;
    return kept;
}

/* ratio[g * v + w] = P(w) / P(w | novel g) = ((double)c[w] / n) / ((double)c_g[w] / n_g),
   numpy's divisions in numpy's order, for c[w] the count of word w among all n tokens and
   c_g[w] among the n_g of novel g. ratio holds zeros on entry and is first the count table
   (a double counts exactly below 2**53); counts is v + n_novels zeros of scratch. A word
   missing from a novel gets inf or nan, which no token reads. The caller guarantees words
   in [0, v) and novel_of in [0, n_novels). */
int64_t novel_ratios(int64_t n_docs, const int32_t *offsets, const int32_t *words,
                     const int32_t *novel_of, int64_t n_novels, int64_t v, int32_t *counts,
                     double *ratio)
{
    int32_t *novel_len = counts + v;
    for (int64_t d = 0; d < n_docs; d++) {
        double *row = ratio + novel_of[d] * v;
        novel_len[novel_of[d]] += offsets[d + 1] - offsets[d];
        for (int64_t i = offsets[d]; i < offsets[d + 1]; i++) {
            counts[words[i]]++;
            row[words[i]] += 1.0;
        }
    }
    double n = (double)offsets[n_docs];
    for (int64_t g = 0; g < n_novels; g++)
        for (int64_t w = 0; w < v; w++)
            ratio[g * v + w] = ((double)counts[w] / n)
                               / (ratio[g * v + w] / (double)novel_len[g]);
    return 0;
}

/* keep token i of document d when rng.random() < ratio[novel_of[d] * v + words[i]], one
   draw per token in token order; the kept tokens move forward in words and offsets are
   rewritten to them. Returns the kept count, or -1 before drawing when a token's entry is
   outside the n_ratio entries of ratio. */
int64_t keep(uint32_t *mt, int64_t n_docs, int32_t *offsets, int32_t *words,
             const int32_t *novel_of, int64_t v, const double *ratio, int64_t n_ratio)
{
    for (int64_t d = 0; d < n_docs; d++)
        for (int64_t i = offsets[d]; i < offsets[d + 1]; i++)
            if (words[i] < 0 || words[i] >= v || novel_of[d] < 0
                    || (novel_of[d] + 1) * v > n_ratio)
                return -1;
    int64_t kept = 0, start = offsets[0];
    for (int64_t d = 0; d < n_docs; d++) {
        const double *row = ratio + novel_of[d] * v;
        int64_t end = offsets[d + 1];
        offsets[d] = (int32_t)kept;
        for (int64_t i = start; i < end; i++)
            if (random53(mt) < row[words[i]])
                words[kept++] = words[i];
        start = end;
    }
    offsets[n_docs] = (int32_t)kept;
    return kept;
}

/* Add each token, its topic in z, to the counts (n_kw word-major, n_kw[w * k_topics + t]);
   -1 before counting when a word is outside [0, v) or a topic outside [0, k_topics). */
int64_t count(int64_t n_docs, const int32_t *offsets, const int32_t *words, const int32_t *z,
              int64_t k_topics, int64_t v, int32_t *n_dk, int32_t *n_kw, int32_t *n_k)
{
    for (int64_t i = 0; i < offsets[n_docs]; i++)
        if (words[i] < 0 || words[i] >= v || z[i] < 0 || z[i] >= k_topics)
            return -1;
    for (int64_t d = 0; d < n_docs; d++)
        for (int64_t i = offsets[d]; i < offsets[d + 1]; i++) {
            n_dk[d * k_topics + z[i]]++;
            n_kw[words[i] * k_topics + z[i]]++;
            n_k[z[i]]++;
        }
    return 0;
}

/* TopicState.validate's checks of counts whose lengths match the documents: 1 when a topic
   or word id is out of range, 2 for a negative count, 3 when a row of n_dk does not sum to
   its document's length, 4 when a topic's counts in n_kw (word-major) do not sum to its
   total, 5 when the totals do not sum to the token count, in that order; 0 when all hold.
   sums is k_topics int64 of scratch, for the topics' sums over one pass of n_kw. */
int64_t check(int64_t n_docs, const int32_t *offsets, const int32_t *words, const int32_t *z,
              int64_t k_topics, int64_t v, const int32_t *n_dk, const int32_t *n_kw,
              const int32_t *n_k, int64_t *sums)
{
    int64_t n = offsets[n_docs], total = 0;
    for (int64_t i = 0; i < n; i++)
        if (z[i] < 0 || z[i] >= k_topics || words[i] < 0 || words[i] >= v)
            return 1;
    for (int64_t i = 0; i < n_docs * k_topics; i++)
        if (n_dk[i] < 0)
            return 2;
    for (int64_t t = 0; t < k_topics; t++)
        sums[t] = 0;
    for (int64_t w = 0; w < v; w++)
        for (int64_t t = 0; t < k_topics; t++) {
            int32_t c = n_kw[w * k_topics + t];
            if (c < 0)
                return 2;
            sums[t] += c;
        }
    for (int64_t t = 0; t < k_topics; t++)
        if (n_k[t] < 0)
            return 2;
    for (int64_t d = 0; d < n_docs; d++) {
        int64_t sum = 0;
        for (int64_t t = 0; t < k_topics; t++)
            sum += n_dk[d * k_topics + t];
        if (sum != offsets[d + 1] - offsets[d])
            return 3;
    }
    for (int64_t t = 0; t < k_topics; t++) {
        if (sums[t] != n_k[t])
            return 4;
        total += n_k[t];
    }
    return total == n ? 0 : 5;
}

/* One collapsed Gibbs sweep, n_kw word-major; v is count's and check's, unread here. The
   counts of the word AHEAD tokens on are fetched into the cache while a token is drawn: they
   are a few cache lines anywhere in n_kw, and the draw's K divisions hide the wait. */
enum { AHEAD = 4 };

int64_t gibbs_sweep(uint32_t *mt, int64_t n_docs, const int32_t *offsets, const int32_t *words,
                    int32_t *z, int64_t k_topics, int64_t v, int32_t *n_dk, int32_t *n_kw,
                    int32_t *n_k, const double *alpha, double beta, double vbeta, double *scratch)
{
    (void)v;
    int64_t n = offsets[n_docs];
    /* doc[k] = row[k] + alpha[k] and den[k] = n_k[k] + vbeta, kept beside cum and
       refreshed at entry t after each count changes: each term is the same double */
    double *cum = scratch, *doc = scratch + k_topics, *den = scratch + 2 * k_topics;
    for (int64_t k = 0; k < k_topics; k++)
        den[k] = (double)n_k[k] + vbeta;
    for (int64_t d = 0; d < n_docs; d++) {
        int32_t *row = n_dk + d * k_topics;
        for (int64_t k = 0; k < k_topics; k++)
            doc[k] = (double)row[k] + alpha[k];
        for (int64_t i = offsets[d]; i < offsets[d + 1]; i++) {
            int32_t *col = n_kw + words[i] * k_topics;  /* the word's K counts, side by side */
            for (int64_t b = 0; i + AHEAD < n && b < k_topics; b += 16)  /* 16 int32 a line */
                __builtin_prefetch(n_kw + words[i + AHEAD] * k_topics + b);
            int64_t t = z[i];
            row[t]--;
            col[t]--;
            n_k[t]--;
            doc[t] = (double)row[t] + alpha[t];
            den[t] = (double)n_k[t] + vbeta;
            double total = 0.0;
            for (int64_t k = 0; k < k_topics; k++) {
                total += doc[k] * ((double)col[k] + beta) / den[k];
                cum[k] = total;
            }
            double x = random53(mt) * total;
            t = 0;
            while (t < k_topics - 1 && cum[t] < x)
                t++;
            z[i] = (int32_t)t;
            row[t]++;
            col[t]++;
            n_k[t]++;
            doc[t] = (double)row[t] + alpha[t];
            den[t] = (double)n_k[t] + vbeta;
        }
    }
    return 0;
}

/* lo_hi = min(0, the least of x[0..n)), max(0, the greatest), as numpy's min(initial=0)
   and max(initial=0) */
int64_t span(const int32_t *x, int64_t n, int32_t *lo_hi)
{
    int32_t lo = 0, hi = 0;
    for (int64_t i = 0; i < n; i++) {
        lo = x[i] < lo ? x[i] : lo;
        hi = x[i] > hi ? x[i] : hi;
    }
    lo_hi[0] = lo;
    lo_hi[1] = hi;
    return 0;
}

/* out[c * size + x]++ for each x in column c of the (rows, cols) matrix x, out zeros on
   entry, or -1 before counting when an x is outside [0, size) */
int64_t histogram(const int32_t *x, int64_t rows, int64_t cols, int64_t size, int32_t *out)
{
    int64_t n = rows * cols;
    for (int64_t i = 0; i < n; i++)
        if (x[i] < 0 || x[i] >= size)
            return -1;
    for (int64_t i = 0, c = 0; i < n; i++) {
        out[c * size + x[i]]++;
        c = c + 1 < cols ? c + 1 : 0;
    }
    return 0;
}

/* murmur3's 64-bit finaliser: every bit of x moves every bit of the hash */
static uint64_t fmix64(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    return x ^ (x >> 33);
}

/* the slot of the pattern x in the open-addressing table of n_slots (a power of two) int32
   numbers of values, -1 when empty: the one holding x's number, or the first empty one */
static int32_t *value_slot(int32_t *slots, int64_t n_slots, const uint64_t *values, uint64_t x)
{
    for (int64_t i = (int64_t)(fmix64(x) & (uint64_t)(n_slots - 1));; i = (i + 1) & (n_slots - 1))
        if (slots[i] < 0 || values[slots[i]] == x)
            return slots + i;
}

/* ids[i], for i from at, = the number of x[i]'s 64-bit pattern among the distinct patterns,
   counted from 0 in order of first appearance; each new one is appended to values, which has
   room for n_slots / 2. slots (see value_slot) are refilled from values first when the table
   holds fewer than tally[0], the patterns in values, as it does after the caller replaces it
   with a larger empty one; tally[1] is how many it holds. Returns where it stopped: n once
   every id is in ids, or the first i whose new pattern would fill more than half the table;
   -1 before reading x when the table or the tally cannot be a state this function left. */
int64_t distinct(const uint64_t *x, int64_t n, int64_t at, int32_t *ids, int32_t *slots,
                 int64_t n_slots, uint64_t *values, int32_t *tally)
{
    int64_t n_values = tally[0];
    if (n_slots < 2 || (n_slots & (n_slots - 1)) || n_slots > INT32_MAX || 2 * n_values > n_slots
            || tally[1] < 0 || tally[1] > n_values || at < 0 || at > n)
        return -1;
    for (int32_t j = tally[1]; j < n_values; j++)
        *value_slot(slots, n_slots, values, values[j]) = j;
    for (; at < n; at++) {
        int32_t *slot = value_slot(slots, n_slots, values, x[at]);
        if (*slot < 0) {
            if (2 * (n_values + 1) > n_slots)
                break;
            values[n_values] = x[at];
            *slot = (int32_t)n_values++;
        }
        ids[at] = *slot;
    }
    tally[0] = tally[1] = (int32_t)n_values;
    return at;
}

/* x's decimal text as json writes an integer, at p; returns the end */
static uint8_t *put_int(uint8_t *p, int32_t x)
{
    if (x >= 0 && x < 10) {  /* most counts */
        *p++ = (uint8_t)('0' + x);
        return p;
    }
    uint8_t digits[10];
    int m = 0;
    uint32_t u = x < 0 ? -(uint32_t)x : (uint32_t)x;
    if (x < 0)
        *p++ = '-';
    do
        digits[m++] = (uint8_t)('0' + u % 10);
    while (u /= 10);
    while (m > 0)
        *p++ = digits[--m];
    return p;
}

/* The JSON text of rows r0..r1-1 of an int32 matrix of cols columns whose entry (r, c) is
   m[r * row_stride + c * stride]: each row "[x, y, ...]" with json's separators, the rows
   joined by ", " in out. So a word-major n_kw gives its topic-major rows with strides 1 and
   K, where it lies. An entry's text is its decimal text, or with offsets at the text of item
   x of the n_texts items in store: item j is store[at[j]..at[j + 1]). Returns the bytes
   written, or -1 when the rows would pass the size bytes of out or an item is outside
   [0, n_texts). */
int64_t rows_text(const int32_t *m, int64_t cols, int64_t row_stride, int64_t stride,
                  int64_t r0, int64_t r1, const uint8_t *store, const int32_t *at,
                  int64_t n_texts, uint8_t *out, int64_t size)
{
    uint8_t *p = out;
    for (int64_t r = r0; r < r1; r++) {
        const int32_t *row = m + r * row_stride;
        int64_t need = 4 + 13 * cols;  /* ", [", "]" and ", -2147483648" an entry at most */
        if (at) {
            need = 4;
            for (int64_t c = 0; c < cols; c++) {
                int32_t x = row[c * stride];
                if (x < 0 || x >= n_texts)
                    return -1;
                need += at[x + 1] - at[x] + 2;
            }
        }
        if (size - (p - out) < need)
            return -1;
        if (r > r0) {
            *p++ = ',';
            *p++ = ' ';
        }
        *p++ = '[';
        for (int64_t c = 0; c < cols; c++) {
            int32_t x = row[c * stride];
            if (c > 0) {
                *p++ = ',';
                *p++ = ' ';
            }
            if (at) {
                int64_t len = at[x + 1] - at[x];
                memcpy(p, store + at[x], (size_t)len);
                p += len;
            } else {
                p = put_int(p, x);
            }
        }
        *p++ = ']';
    }
    return p - out;
}

/* out[r] = the sum of row r of the (rows, cols) matrix m, added in int64; -1 when a sum
   does not fit int32 */
int64_t row_sums(int64_t rows, int64_t cols, const int32_t *m, int32_t *out)
{
    for (int64_t r = 0; r < rows; r++) {
        int64_t sum = 0;
        for (int64_t c = 0; c < cols; c++)
            sum += m[r * cols + c];
        if (sum < INT32_MIN || sum > INT32_MAX)
            return -1;
        out[r] = (int32_t)sum;
    }
    return 0;
}

/* out[i] = x[i] + shifts[p], x[i] as a double, for each i of part p, bounds[p] <= i <
   bounds[p + 1], of the parts: the double Python's int + float gives. -1 before writing
   when the bounds do not rise from 0 to n. */
int64_t shifted(const int32_t *x, int64_t n, const int32_t *bounds, int64_t parts,
                const double *shifts, double *out)
{
    if (parts < 0 || bounds[0] != 0 || bounds[parts] != n)
        return -1;
    for (int64_t p = 0; p < parts; p++)
        if (bounds[p] > bounds[p + 1])
            return -1;
    for (int64_t p = 0; p < parts; p++)
        for (int64_t i = bounds[p]; i < bounds[p + 1]; i++)
            out[i] = (double)x[i] + shifts[p];
    return 0;
}

/* out = numpy's (n_dk + alpha) / (n_dk.sum(axis=1, keepdims=True) + sum_alpha) */
int64_t proportions(int64_t rows, int64_t k, const int32_t *n_dk, const double *alpha,
                    double sum_alpha, double *out)
{
    for (int64_t d = 0; d < rows; d++) {
        int64_t n = 0;
        for (int64_t t = 0; t < k; t++)
            n += n_dk[d * k + t];
        for (int64_t t = 0; t < k; t++)
            out[d * k + t] = ((double)n_dk[d * k + t] + alpha[t]) / ((double)n + sum_alpha);
    }
    return 0;
}

/* The terms of a sum. Term i is weight[i] * table[at], the weight cast to double first
   (table[at] itself without weights); at is x * width + i % width for the index entry x of
   term i, row x and column i % width of the table as (size / width, width), and i itself
   without an index. Term i's entry is index[i], or with cols > 1 the entry of the index as a
   (rows, cols) matrix that a walk down its columns reaches at i, read where it lies: row
   i % rows of column i / rows, index[(i % rows) * cols + i / rows]. */
struct terms {
    const double *table;
    const int32_t *index;
    int64_t width;
    const int32_t *weight;
    int64_t cols, rows;
};

/* x[0..n) = terms lo..lo+n-1, their entries read in runs that step through index by 1, or
   by cols down a column: one division for each run, and one run unless the terms cross
   into the next column */
static void leaf_terms(const struct terms *t, int64_t lo, int64_t n, double *x)
{
    for (int64_t k = 0, run; k < n; k += run) {
        int64_t i = lo + k, step = 1;
        const int32_t *src = t->index ? t->index + i : NULL;
        run = n - k;
        if (t->cols > 1) {
            int64_t r = i % t->rows;
            src = t->index + r * t->cols + i / t->rows;
            step = t->cols;
            run = t->rows - r < run ? t->rows - r : run;
        }
        if (!src)
            for (int64_t m = 0; m < run; m++)
                x[k + m] = t->table[i + m];
        else if (t->width == 1)
            for (int64_t m = 0; m < run; m++)
                x[k + m] = t->table[src[m * step]];
        else
            for (int64_t m = 0, c = i % t->width; m < run; m++, c = c + 1 < t->width ? c + 1 : 0)
                x[k + m] = t->table[(int64_t)src[m * step] * t->width + c];
    }
    if (t->weight)
        for (int64_t k = 0; k < n; k++)
            x[k] = (double)t->weight[lo + k] * x[k];
}

/* ndarray.sum() of the terms lo..lo+n-1 in numpy's pairwise order: above 128 terms, halves
   split at a multiple of 8; else 8 accumulators (-0.0 + x is x), then a plain loop */
static double pairwise(const struct terms *t, int64_t lo, int64_t n)
{
    if (n > 128) {
        int64_t half = n / 2 - n / 2 % 8;
        return pairwise(t, lo, half) + pairwise(t, lo + half, n - half);
    }
    double x[128], r[8] = {-0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0}, res = -0.0;
    leaf_terms(t, lo, n, x);
    int64_t i = 0;
    for (; i < n - n % 8; i += 8)
        for (int k = 0; k < 8; k++)
            r[k] += x[i + k];
    if (n >= 8)
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++)
        res += x[i];
    return res;
}

/* out[p] = ndarray.sum() of terms bounds[p] <= i < bounds[p + 1] (numpy starts from 0.0)
   for each of the parts, of n terms in all; -1 before summing when the bounds are not in
   order within [0, n], a term's entry is outside the size entries of the table (its row
   outside the size / width rows with an index), or cols > 1 does not divide n. With
   cols > 1 every entry of the index is checked. */
int64_t pairwise_sums(const double *table, int64_t size, const int32_t *index, int64_t width,
                      int64_t cols, const int32_t *weight, int64_t n, int64_t parts,
                      const int32_t *bounds, double *out)
{
    struct terms t = {table, index, width, weight, cols, cols > 1 ? n / cols : n};
    int64_t rows = size / width;
    if (cols < 1 || (cols > 1 && (!index || n % cols)))
        return -1;
    for (int64_t i = 0; i < n && cols > 1; i++)
        if (index[i] < 0 || index[i] >= rows)
            return -1;
    for (int64_t p = 0; p < parts; p++) {
        if (bounds[p] < 0 || bounds[p] > bounds[p + 1] || bounds[p + 1] > n)
            return -1;
        if (!index && bounds[p + 1] > size)
            return -1;
        for (int64_t i = bounds[p]; i < bounds[p + 1] && index && cols == 1; i++)
            if (index[i] < 0 || index[i] >= rows)
                return -1;
    }
    for (int64_t p = 0; p < parts; p++)
        out[p] = 0.0 + pairwise(&t, bounds[p], bounds[p + 1] - bounds[p]);
    return 0;
}

/* Cephes lgam and psi (Moshier 1989) as scipy.special has them, for x > 0.
   polevl is Horner's rule, highest degree first; Cephes' p1evl is polevl
   with a leading 1.0, and LGAM_C has it. */

static double polevl(double x, const double *coef, int n)
{
    double ans = coef[0];
    for (int i = 1; i <= n; i++)
        ans = ans * x + coef[i];
    return ans;
}

static const double LGAM_A[] = {8.11614167470508450300E-4, -5.95061904284301438324E-4,
                                7.93650340457716943945E-4, -2.77777777730099687205E-3,
                                8.33333333333331927722E-2};
static const double LGAM_B[] = {-1.37825152569120859100E3, -3.88016315134637840924E4,
                                -3.31612992738871184744E5, -1.16237097492762307383E6,
                                -1.72173700820839662146E6, -8.53555664245765465627E5};
static const double LGAM_C[] = {1.0, -3.51815701436523470549E2, -1.70642106651881159223E4,
                                -2.20528590553854454839E5, -1.13933444367982507207E6,
                                -2.53252307177582951285E6, -2.01889141433532773231E6};

static double lgam(double x)
{
    if (x < 13.0) {
        double z = 1.0, p = 0.0, u = x;
        while (u >= 3.0) {
            p -= 1.0;
            u = x + p;
            z *= u;
        }
        while (u < 2.0) {
            z /= u;
            p += 1.0;
            u = x + p;
        }
        if (u == 2.0)
            return log(z);
        x = x + (p - 2.0);
        return log(z) + x * polevl(x, LGAM_B, 5) / polevl(x, LGAM_C, 6);
    }
    if (x > 2.556348e305)
        return INFINITY;
    double q = (x - 0.5) * log(x) - x + 0.91893853320467274178;  /* log(sqrt(2 pi)) */
    if (x > 1.0e8)
        return q;
    double p = 1.0 / (x * x);
    if (x >= 1000.0)
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x;
    return q + polevl(p, LGAM_A, 4) / x;
}

static const double PSI_A[] = {8.33333333333333333333E-2, -2.10927960927960927961E-2,
                               7.57575757575757575758E-3, -4.16666666666666666667E-3,
                               3.96825396825396825397E-3, -8.33333333333333333333E-3,
                               8.33333333333333333333E-2};
/* rational approximation on [1, 2], from Boost */
static const double PSI_P[] = {-0.0020713321167745952, -0.045251321448739056,
                               -0.28919126444774784, -0.65031853770896507,
                               -0.32555031186804491, 0.25479851061131551};
static const double PSI_Q[] = {-0.55789841321675513e-6, 0.0021284987017821144,
                               0.054151797245674225, 0.43593529692665969,
                               1.4606242909763515, 2.0767117023730469, 1.0};

static double psi(double x)
{
    double y = 0.0;
    if (x <= 10.0 && x == floor(x)) {
        for (int i = 1; i < (int)x; i++)
            y += 1.0 / i;
        return y - 0.577215664901532860606512090082402431;  /* Euler's constant */
    }
    if (x < 1.0) {
        y -= 1.0 / x;
        x += 1.0;
    } else if (x < 10.0) {
        while (x > 2.0) {
            x -= 1.0;
            y += 1.0 / x;
        }
    }
    if (x <= 2.0) {
        /* (x - root) * (Y + P(x - 1) / Q(x - 1)), the root subtracted in three parts */
        double g = x - 1569415565.0 / 1073741824.0;
        g -= (381566830.0 / 1073741824.0) / 1073741824.0;
        g -= 0.9016312093258695918615325266959189453125e-19;
        double r = polevl(x - 1.0, PSI_P, 5) / polevl(x - 1.0, PSI_Q, 6);
        return y + (g * 0.99558162689208984 + g * r);
    }
    double z = 1.0 / (x * x), s = x < 1.0e17 ? z * polevl(z, PSI_A, 6) : 0.0;
    return y + (log(x) - 0.5 / x - s);
}

static int finite_positive(int64_t n, const double *x)
{
    for (int64_t i = 0; i < n; i++)
        if (!(x[i] > 0.0 && x[i] < INFINITY))  /* nan fails too */
            return 0;
    return 1;
}

/* 0 after filling out (which may be x), or -1 before computing anything
   when an argument is not finite and positive */
int64_t gammaln(int64_t n, const double *x, double *out)
{
    if (!finite_positive(n, x))
        return -1;
    for (int64_t i = 0; i < n; i++)
        out[i] = lgam(x[i]);
    return 0;
}

int64_t digamma(int64_t n, const double *x, double *out)
{
    if (!finite_positive(n, x))
        return -1;
    for (int64_t i = 0; i < n; i++)
        out[i] = psi(x[i]);
    return 0;
}
"""


class BuildError(RuntimeError):
    """Raised when the compiler cannot be run or rejects the source."""


def cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "godspell"


def library_name() -> str:
    key = "\0".join((SOURCE, *FLAGS, *LIBS, os.uname().machine))
    digest = sha256(key.encode()).hexdigest()
    return f"gibbs-{digest[:16]}.so"


def _checksum_path(path: Path) -> Path:
    return path.with_name(path.name + ".sha256")


def build(path: Path) -> None:
    """Compile SOURCE into path and record its sha256 in path.sha256, each
    through config.replacing, the checksum first. Concurrent builds can
    leave a checksum that matches neither library; that is only a rebuild."""
    import subprocess

    with replacing(path) as tmp:
        tmp.touch()  # an unwritable directory raises OSError here, so load builds elsewhere
        try:
            proc = subprocess.run([COMPILER, *FLAGS, "-x", "c", "-", "-o", tmp, *LIBS],
                                  input=SOURCE, capture_output=True, text=True, timeout=300)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BuildError(f"cannot run {COMPILER}: {e}") from None
        if proc.returncode:
            raise BuildError(f"{COMPILER} exited {proc.returncode}: {proc.stderr.strip()[:400]}")
        with replacing(_checksum_path(path)) as checksum:
            checksum.write_text(sha256(tmp.read_bytes()).hexdigest())


def _intact(path: Path) -> bool:
    """Whether path's bytes match the checksum its build recorded. A
    truncated library can crash the process in dlopen, so nothing is
    loaded from the cache without this check."""
    try:
        recorded = read_text(_checksum_path(path)).strip()
        return sha256(path.read_bytes()).hexdigest() == recorded
    except (OSError, ValueError):  # ValueError: a checksum that is not UTF-8
        return False


def _open(path: Path):
    """The library at path, each function SOURCE exports (``int64_t name(...)`` at the
    start of a line) declared from its prototype: a pointer is c_void_p, double c_double
    and int64_t c_int64. TypeError for any other parameter type."""
    types = {"*": ctypes.c_void_p, "double": ctypes.c_double, "int64_t": ctypes.c_int64}
    lib = ctypes.CDLL(str(path))
    for name, params in re.findall(r"^int64_t (\w+)\(([^)]*)\)", SOURCE, re.M):
        argtypes = []
        for param in params.split(","):
            c_type = "*" if "*" in param else " ".join(param.split()[:-1])
            if c_type not in types:
                raise TypeError(f"{name}: no ctypes type for {' '.join(param.split())!r}")
            argtypes.append(types[c_type])
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = ctypes.c_int64
    return lib


def load(directory: Path):
    """The compiled library from directory, built there first when it is
    missing or damaged, or built in a temporary directory when directory
    cannot be written. Raises BuildError when the build fails."""
    path = directory / library_name()
    if _intact(path):
        return _open(path)
    if path.exists():
        log.info("rebuilding damaged Gibbs kernel %s", path)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        build(path)
    except OSError as e:
        log.info("kernel cache %s not writable (%s); building in a temporary directory",
                 directory, e)
        import shutil
        import tempfile

        tmp_dir = Path(tempfile.mkdtemp(prefix="godspell-"))
        try:
            build(tmp_dir / path.name)
            return _open(tmp_dir / path.name)
        finally:
            shutil.rmtree(tmp_dir, ignore_errors=True)
    return _open(path)


@functools.cache
def kernel():
    """The compiled library, built and loaded once per process. Raises
    BuildError when it cannot be built and OSError when it cannot be
    loaded; a failure is not cached, so the next call tries again."""
    lib = load(cache_dir())
    log.info("form ids, random draws, counts, Gibbs sweep, sums, gammaln and digamma: "
             "compiled kernel")
    return lib


def items(name: str, buf, code: str) -> memoryview:
    """buf's items as a flat memoryview of code, "i" (int32), "d" (double)
    or "B" (byte), the array typecode of the C type the kernel reads. TypeError
    naming name when buf is not a writable C-contiguous buffer of that
    code: never a cast, which would wrap or misread values."""
    try:
        view = memoryview(buf)
    except TypeError:
        raise TypeError(f"{name} is not a buffer of {code!r} items") from None
    if view.format != code or view.readonly or not view.c_contiguous:
        raise TypeError(f"{name} must be a writable C-contiguous buffer of {code!r} items, "
                        f"not of {view.format!r}")
    # a memoryview with a zero in its shape cannot be cast
    return view.cast("B").cast(code) if view.nbytes else memoryview(bytearray()).cast(code)


def _address(buf) -> int | None:
    """The address of buf's first byte, None (a NULL pointer) when it is empty.
    ``from_buffer`` costs a third of what ``.ctypes.data`` does on numpy."""
    return ctypes.addressof(ctypes.c_char.from_buffer(buf)) if memoryview(buf).nbytes else None


def _elementwise(name: str, x) -> array.array:
    """The library's function ``name`` applied to each number of the
    iterable x: an array of doubles. ValueError when one is not finite and
    positive; the kernel checks them all before it computes any, in place
    in the fresh copy."""
    out = array.array("d", x)
    if out and getattr(kernel(), name)(len(out), _address(out), _address(out)):
        raise ValueError(f"{name} takes finite positive arguments only")
    return out


def gammaln(x) -> array.array:
    """log|Gamma(x)| of each number, bit for bit scipy.special.gammaln;
    every argument must be finite and positive (ValueError otherwise)."""
    return _elementwise("gammaln", x)


def digamma(x) -> array.array:
    """The digamma function of each number, bit for bit scipy.special.digamma;
    every argument must be finite and positive (ValueError otherwise)."""
    return _elementwise("digamma", x)


def shifted(values, bounds, shifts) -> array.array:
    """values[i] + shifts[p] for each i of part p, bounds[p] <= i < bounds[p + 1],
    as doubles: the floats Python's int + float gives, for the int32 values,
    int32 bounds and double shifts, one for each part. ValueError unless the
    bounds rise from 0 to the number of values."""
    values, bounds = items("values", values, "i"), items("bounds", bounds, "i")
    shifts = items("shifts", shifts, "d")
    out = array.array("d", [0.0]) * len(values)
    if (len(bounds) != len(shifts) + 1
            or kernel().shifted(_address(values), len(values), _address(bounds), len(shifts),
                                _address(shifts), _address(out))):
        raise ValueError(f"shifted: the bounds of {len(shifts)} parts do not rise from 0 to "
                         f"{len(values)}")
    return out


def _draw(rng, fn, *args):
    """fn(mt, *args) on rng's Mersenne Twister state mt, uint32[625] (624 words and the
    position); rng is then set where fn left mt, gauss_next kept. Returns fn's result."""
    version, internal, gauss_next = rng.getstate()
    mt = array.array("I", internal)
    result = fn(_address(mt), *args)
    rng.setstate((version, tuple(mt), gauss_next))
    return result


def randrange(rng, k: int, n: int) -> array.array:
    """The next n rng.randrange(k): an array of int32 (typecode "i", as
    topics are), or of uint32 ("I") for a k above 2**31, whose values may
    not fit. ValueError, nothing drawn, unless 1 <= k < 2**32."""
    out = array.array("i" if k <= 2**31 else "I", [0]) * n
    if _draw(rng, kernel().randrange, min(max(k, 0), 2**32), n, _address(out)):
        raise ValueError(f"randrange bound {k} is not in [1, 2**32)")
    return out


def span(values) -> tuple[int, int]:
    """(min(0, the least), max(0, the greatest)) of an int32 buffer: numpy's
    min(initial=0) and max(initial=0)."""
    values = items("values", values, "i")
    out = array.array("i", [0, 0])
    kernel().span(_address(values), len(values), _address(out))
    return out[0], out[1]


class Distinct:
    """Numbers the distinct 64-bit patterns of doubles, call after call, from
    0 by first appearance (-0.0 and each nan keep their own), which fill
    ``values[:len(self)]``. The kernel's hash table is kept; when it would
    pass half full, a table four times larger replaces it, with room in
    values to match, and the kernel refills it and resumes."""

    def __init__(self) -> None:
        self.slots = array.array("i", [-1]) * 1024
        self.values = array.array("d", [0.0]) * 512
        self.tally = array.array("i", [0, 0])  # the patterns in values, those in the table

    def __len__(self) -> int:
        return self.tally[0]

    def ids(self, x) -> array.array:
        """The int32 number of each of the doubles x."""
        x = items("x", x, "d")
        ids = array.array("i", [0]) * len(x)
        at, lib = 0, kernel()
        while (at := lib.distinct(_address(x), len(x), at, _address(ids), _address(self.slots),
                                  len(self.slots), _address(self.values),
                                  _address(self.tally))) < len(x):
            if at < 0:
                raise ValueError("distinct: the table or its tally are not a state it left")
            self.slots = array.array("i", [-1]) * (4 * len(self.slots))
            self.values.frombytes(bytes(8 * (len(self.slots) // 2 - len(self.values))))
            self.tally[1] = 0
        return ids


def histogram(values, size: int, cols: int = 1) -> array.array:
    """How often each of 0..size-1 occurs in each column of an int32
    (rows, cols) matrix, given flat: column c's counts are
    out[c * size:(c + 1) * size]. ValueError for a value outside [0, size)."""
    values = items("values", values, "i")
    out = array.array("i", [0]) * (cols * size)
    if kernel().histogram(_address(values), len(values) // cols, cols, size, _address(out)):
        raise ValueError(f"histogram: a value is outside [0, {size})")
    return out


# the bytes of row text one rows_text call writes, or one row's at most when that is more
BLOCK = 1 << 16


def block_rows(cols: int, texts: bool = False) -> tuple[int, int]:
    """The rows of cols entries in one block of row_texts, and the bytes of
    its buffer: a row takes at most its brackets, the ", " before it and
    each entry with a ", ", 24 bytes with texts (json's longest double) or 11
    without ("-2147483648"), and a block holds as many as BLOCK bytes do, or
    one."""
    row = 4 + cols * ((24 if texts else 11) + 2)
    rows = max(1, BLOCK // row)
    return rows, rows * row


def row_texts(values, rows: int, *, transposed: bool = False,
              texts: tuple | None = None) -> Iterator[memoryview]:
    """The JSON text of the rows of an int32 (rows, cols) matrix given flat,
    a block of rows at a time (``block_rows``), each row with its brackets
    and the block's rows joined by json's ", ": its integers as json writes
    them, or with texts, a pair (store, at), the text each integer x is the
    index of, item x of texts, store[at[x]:at[x + 1]], 24 bytes at most.
    With transposed, values holds the matrix column by column, as a
    word-major n_kw holds the topic-major rows, and the kernel reads each row
    where it lies, by stride. Each block is a view of one buffer, which the
    next block overwrites. ValueError for an index outside the texts."""
    values = items("values", values, "i")
    cols = len(values) // rows if rows else 0
    lib = kernel()
    store, at = texts or (bytearray(), array.array("i"))
    per_block, size = block_rows(cols, texts is not None)
    out = bytearray(size)
    strides = (1, rows) if transposed else (cols, 1)  # from one row, and one entry, to the next
    view = memoryview(out)
    for r0 in range(0, rows, per_block):
        end = lib.rows_text(_address(values), cols, *strides, r0, min(rows, r0 + per_block),
                            _address(store), _address(at), max(len(at) - 1, 0), _address(out),
                            len(out))
        if end < 0:
            raise ValueError("row_texts: an index is outside the texts")
        yield view[:end]


def row_sums(matrix, cols: int) -> array.array:
    """The sum of each row of an int32 (rows, cols) matrix, given flat, as
    int32; ValueError when one does not fit int32."""
    matrix = items("matrix", matrix, "i")
    out = array.array("i", [0]) * (len(matrix) // cols)
    if kernel().row_sums(len(out), cols, _address(matrix), _address(out)):
        raise ValueError("row_sums: a row's sum does not fit int32")
    return out


def proportions(n_dk, alpha, sum_alpha: float) -> array.array:
    """numpy's (n_dk + alpha) / (n_dk.sum(axis=1, keepdims=True) + sum_alpha),
    flat, for the int32 (D, K) counts n_dk given flat and K doubles alpha."""
    n_dk, alpha = items("n_dk", n_dk, "i"), items("alpha", alpha, "d")
    out = array.array("d", [0.0]) * len(n_dk)
    kernel().proportions(len(n_dk) // len(alpha), len(alpha), _address(n_dk), _address(alpha),
                         sum_alpha, _address(out))
    return out


def pairwise_sums(table, bounds=None, *, index=None, weights=None, width: int = 1,
                  index_cols: int = 1) -> array.array:
    """For each part p, numpy's ndarray.sum() of the terms i in
    bounds[p] <= i < bounds[p + 1], bit for bit, without the array of terms:
    term i is table[index[j] * width + i % width], row index[j] and column
    i % width of the table taken as rows of width (table[i] without an
    index), times float(weights[i]) with weights. j is i, or with index_cols
    c > 1 the index is taken as a (n / c, c) matrix and walked column by
    column, j = (i % (n / c)) * c + i // (n / c): the terms of a word-major
    n_kw in topic-major order. bounds default to one part of every term.
    table holds doubles, an index and the weights int32 (TypeError
    otherwise); ValueError when the bounds run past the terms, an index
    points outside the table's rows, width is not 1 without an index or not
    positive with one, or index_cols is below 1, or above 1 without an index
    or not dividing the terms."""
    if width < 1 or (index is None and width != 1):
        raise ValueError(f"pairwise_sums: width {width} needs an index and must be positive")
    table = items("table", table, "d")
    n = len(table)
    if index is not None:
        index = items("index", index, "i")
        n = len(index)
    if weights is not None:
        weights = items("weights", weights, "i")
        n = min(n, len(weights))
    if index_cols < 1 or (index_cols > 1 and (index is None or n % index_cols)):
        raise ValueError(f"pairwise_sums: index_cols {index_cols} needs an index of whole rows")
    bounds = array.array("i", (0, n) if bounds is None else bounds)
    out = array.array("d", [0.0]) * (len(bounds) - 1)
    if kernel().pairwise_sums(_address(table), len(table),
                              None if index is None else _address(index), width, index_cols,
                              None if weights is None else _address(weights), n, len(out),
                              _address(bounds), _address(out)):
        raise ValueError(f"pairwise_sums: a bound or an index is outside the {n} terms or "
                         f"the {len(table)} entries of the table")
    return out


def _documents(words, offsets, novel_of=None) -> tuple[memoryview, ...]:
    """words (int32), the int32 offsets of the documents in them and, when
    given, each document's int32 novel, checked before the kernel reads
    them: ValueError unless the offsets rise from 0 to len(words) and there
    is a novel for each document."""
    views = [items("words", words, "i"), items("offsets", offsets, "i")]
    words, offsets = views
    if (not offsets or offsets[0] != 0 or offsets[-1] != len(words)
            or any(map(operator.gt, offsets, offsets[1:]))):
        raise ValueError("document offsets must rise from 0 to the number of words")
    if novel_of is not None:
        views.append(items("novel_of", novel_of, "i"))
        if len(views[2]) != len(offsets) - 1:
            raise ValueError("novel_of must give one novel for each document")
    return tuple(views)


class FormTable:
    """The word forms of a corpus and every word of it as the int32 id of
    its form. ``add`` reads one text at a time through the kernel's
    ``forms``: it splits at exactly ``str.split()``'s whitespace, so the
    words of ``text.encode()`` are those of ``text.split()``, and a form is
    a word's text as it stands. Ids count from 0 in order of first
    appearance over every text added.

    The kernel hashes each word's UTF-8 bytes into an open-addressing table
    kept for the whole corpus and appends new forms to a byte store, each
    followed by a space; no word becomes a Python string. Its id buffer
    holds as many ids as a text may have words, up to ``OUT``. It stops when
    that buffer is full, which is then appended to ``words``, or when the
    store or the half-full table would overflow, which then grows; the
    kernel resumes where it stopped."""

    OUT = 1 << 16  # the most ids that one kernel call writes

    def __init__(self) -> None:
        self.words = array.array("i")  # each word's form id, in text order
        self._slots = array.array("i", [-1]) * (3 * 1024)  # (hash, form id, store offset)
        self._store = bytearray(1 << 14)
        self._out = array.array("i")  # each text's ids, grown to what a text may hold
        # the forms, those in the table, the store's bytes used, the ids in out
        self._tally = array.array("i", [0, 0, 0, 0])

    def __len__(self) -> int:
        """The number of forms."""
        return self._tally[0]

    @property
    def text(self) -> str:
        """Every form in id order, each followed by a space."""
        return self._store[:self._tally[2]].decode()

    def add(self, text: bytes) -> int:
        """Append the form id of each word of the UTF-8 text to ``words``,
        each new form to the forms; returns how many words there were.
        TypeError unless text is bytes."""
        if not isinstance(text, bytes):
            raise TypeError(f"text must be bytes, not {type(text).__name__}")
        lib, tally = kernel(), self._tally
        n_words = len(self.words)
        need = max(1, min((len(text) + 1) // 2, self.OUT))  # a word and a space: 2 bytes
        if len(self._out) < need:
            self._out = array.array("i", [0]) * need
        at = 0
        while True:
            n_slots = len(self._slots) // 3
            at = lib.forms(text, len(text), at, _address(items("slots", self._slots, "i")),
                           n_slots, _address(items("store", self._store, "B")),
                           len(self._store), _address(items("out", self._out, "i")),
                           len(self._out), _address(items("tally", tally, "i")))
            if at < 0:
                raise ValueError("forms: the table or its tallies are not a state it left")
            out_full = tally[3] == len(self._out)
            self.words.frombytes(memoryview(self._out)[:tally[3]].cast("B"))
            tally[3] = 0
            if at == len(text):
                break
            if out_full:
                continue
            if 2 * (tally[0] + 1) > n_slots:
                self._slots = array.array("i", [-1]) * (6 * n_slots)
                tally[1] = 0  # the kernel refills the empty table from the store
            elif 2 * len(self._store) < 2**31:
                self._store += bytes(len(self._store))
            else:
                raise ValueError("forms: the distinct words pass 2**30 bytes")
        return len(self.words) - n_words


def relabel(words, offsets, ids) -> int:
    """Replace each of the int32 words by its int32 id, in place, dropping
    the words whose id is -1, with the int32 document offsets rewritten to
    the kept words. Returns how many are kept; ValueError, nothing changed,
    for documents that do not fit the words or a word outside [0, len(ids))."""
    words, offsets = _documents(words, offsets)
    ids = items("ids", ids, "i")
    kept = kernel().relabel(len(offsets) - 1, _address(offsets), _address(words),
                            _address(ids), len(ids))
    if kept < 0:
        raise ValueError(f"relabel: a word is outside [0, {len(ids)})")
    return kept


def novel_ratios(words, offsets, novel_of) -> tuple[array.array, int]:
    """(ratio, v): P(w) / P(w | novel g) at ratio[g * v + w] for the int32
    words in documents at the int32 offsets, document d in novel novel_of[d]
    (int32), and v the largest word + 1. ValueError for a negative word or
    novel, or documents that do not fit the words."""
    words, offsets, novel_of = _documents(words, offsets, novel_of)
    (lo, top), (novel_lo, last_novel) = span(words), span(novel_of)
    if lo < 0 or novel_lo < 0:
        raise ValueError("novel_ratios: word and novel ids must be non-negative")
    v, n_novels = top + 1, last_novel + 1
    ratio = array.array("d", [0.0]) * (n_novels * v)
    counts = array.array("i", [0]) * (v + n_novels)
    kernel().novel_ratios(len(offsets) - 1, _address(offsets), _address(words),
                          _address(novel_of), n_novels, v, _address(counts), _address(ratio))
    return ratio, v


def keep(rng, words, offsets, novel_of, ratio, v: int) -> int:
    """Keep word i of document d when rng.random() < ratio[novel_of[d] * v +
    words[i]], one draw each, in order: the kept words move to the front of
    words (int32) and the document offsets (int32) are rewritten to them.
    Returns how many are kept; ValueError, nothing drawn, for documents that
    do not fit the words, a word outside [0, v) or an entry outside ratio
    (doubles)."""
    words, offsets, novel_of = _documents(words, offsets, novel_of)
    ratio = items("ratio", ratio, "d")
    kept = _draw(rng, kernel().keep, len(offsets) - 1, _address(offsets), _address(words),
                 _address(novel_of), v, _address(ratio), len(ratio))
    if kept < 0:
        raise ValueError(f"keep: a word is outside [0, {v}) or its ratio outside the table")
    return kept


# a TopicState's int32 arrays in the order the kernel takes them
STATE_ARRAYS = ("offsets", "words", "z", "n_dk", "n_kw", "n_k")


def _arrays(state) -> tuple:
    """count's and check's arguments, which gibbs_sweep's repeat after mt: the addresses of
    state's arrays; TypeError naming a field whose items are not the kernel's C type."""
    offsets, words, z, n_dk, n_kw, n_k = (
        _address(items(name, getattr(state, name), "i")) for name in STATE_ARRAYS)
    return (len(state.offsets) - 1, offsets, words, z, int(state.k), int(state.vocabulary_size),
            n_dk, n_kw, n_k)


def count(state) -> bool:
    """Add each token of state, its topic in state.z, to the counts in place;
    False, nothing counted, when a word or topic id is out of range."""
    return kernel().count(*_arrays(state)) == 0


def check(state) -> int:
    """The first of the kernel's checks of state's counts that fails (see
    ``check`` in SOURCE), 0 when they all hold; the lengths must match."""
    sums = array.array("q", [0]) * state.k
    return kernel().check(*_arrays(state), _address(sums))


def sweep(lib, state) -> None:
    """One sweep of ``state`` through the compiled library, counts updated in
    place, with one state.rng.random() per token, in token order."""
    args = _arrays(state)
    alpha = items("alpha", state.alpha, "d")
    scratch = array.array("d", [0.0]) * (3 * state.k)
    _draw(state.rng, lib.gibbs_sweep, *args, _address(alpha), float(state.beta),
          float(state.vocabulary_size * state.beta), _address(scratch))
