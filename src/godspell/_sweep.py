"""The compiled inner loops of ``topics``: the random draws, the counts, the
collapsed Gibbs sweep, a gathered sum, and ``gammaln`` and ``digamma``.

``SOURCE`` holds CPython's Mersenne Twister, run on a copy of a
``random.Random``'s state that ``_draw`` hands back, so every draw and
``rng.getstate()`` afterwards are those of ``rng.randrange(k)`` and
``rng.random()``. The sweep does the same float operations in the same
order as the pure-Python ``gibbs_sweep_reference`` in ``tests/oracles.py``:
built without ``-ffast-math`` and with ``-ffp-contract=off`` (no fused
multiply-add), it gives bit-for-bit the same assignments, counts and RNG
stream. ``gathered_sum`` adds in numpy's pairwise order. Beside them are
Cephes ``lgam`` and ``psi`` (Moshier 1989) for x > 0, the code behind
``scipy.special.gammaln`` and ``digamma``, with the same constants, the
same operation order and libm ``log``; they give scipy's floats bit for
bit, so scipy is not needed at run time. Their pure-Python twins,
``gammaln_reference`` and ``digamma_reference``, are in the oracles too.
``gammaln`` and ``digamma`` here take numpy arrays or scalars and reject an
argument that is not finite and positive with ValueError.

It is compiled with ``cc`` on first use into ``$XDG_CACHE_HOME/godspell``
(default ``~/.cache/godspell``), under a file name keyed by the sha256 of
the source, the flags and the machine type, with the library's own sha256
beside it, and loaded with ``ctypes``. A cached library whose bytes do not
match that checksum is rebuilt, never loaded; a cache directory that
cannot be written is replaced by a temporary one. There is no other
sampler, so ``topics-train`` needs a C compiler: when none works,
``kernel``, and so the first draw, raises BuildError, which names the
compiler and its message.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

COMPILER = "cc"
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
LIBS = ("-lm",)

SOURCE = r"""
#include <math.h>
#include <stdint.h>

/* CPython's Mersenne Twister (Matsumoto & Nishimura 1998) on the state
   random.Random.getstate() holds: mt[0..623] and the position mt[624] */
static uint32_t genrand_uint32(uint32_t *mt)
{
    if (mt[624] >= 624) {
        for (int i = 0; i < 624; i++) {
            uint32_t y = (mt[i] & 0x80000000U) | (mt[(i + 1) % 624] & 0x7fffffffU);
            mt[i] = mt[(i + 397) % 624] ^ (y >> 1) ^ (y & 1U ? 0x9908b0dfU : 0U);
        }
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
int randrange(uint32_t *mt, int64_t k, int64_t n, uint32_t *out)
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

/* keep[i] = rng.random() < ratio[i], one draw per token in token order */
void keep(uint32_t *mt, int64_t n, const double *ratio, uint8_t *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = random53(mt) < ratio[i];
}

void count(int64_t n_docs, const int64_t *offsets, const int32_t *words, const int32_t *z,
           int64_t k_topics, int64_t v, int64_t *n_dk, int32_t *n_kw, int64_t *n_k)
{
    for (int64_t d = 0; d < n_docs; d++)
        for (int64_t i = offsets[d]; i < offsets[d + 1]; i++) {
            n_dk[d * k_topics + z[i]]++;
            n_kw[z[i] * v + words[i]]++;
            n_k[z[i]]++;
        }
}

void gibbs_sweep(uint32_t *mt, int64_t n_docs, const int64_t *offsets, const int32_t *words,
                 int32_t *z, int64_t k_topics, int64_t v, int64_t *n_dk, int32_t *n_kw,
                 int64_t *n_k, const double *alpha, double beta, double vbeta, double *cum)
{
    for (int64_t d = 0; d < n_docs; d++) {
        int64_t *row = n_dk + d * k_topics;
        for (int64_t i = offsets[d]; i < offsets[d + 1]; i++) {
            int64_t w = words[i];
            int64_t t = z[i];
            row[t]--;
            n_kw[t * v + w]--;
            n_k[t]--;
            double total = 0.0;
            for (int64_t k = 0; k < k_topics; k++) {
                total += ((double)row[k] + alpha[k]) * ((double)n_kw[k * v + w] + beta)
                         / ((double)n_k[k] + vbeta);
                cum[k] = total;
            }
            double x = random53(mt) * total;
            t = 0;
            while (t < k_topics - 1 && cum[t] < x)
                t++;
            z[i] = (int32_t)t;
            row[t]++;
            n_kw[t * v + w]++;
            n_k[t]++;
        }
    }
}

/* ndarray.sum() of table[index[i]] in numpy's pairwise order: above 128 terms, halves
   split at a multiple of 8; else 8 accumulators (-0.0 + x is x), then a plain loop */
static double pairwise(const double *table, const int32_t *index, int64_t n)
{
    if (n > 128) {
        int64_t half = n / 2 - n / 2 % 8;
        return pairwise(table, index, half) + pairwise(table, index + half, n - half);
    }
    double r[8] = {-0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0}, res = -0.0;
    int64_t i = 0;
    for (; i < n - n % 8; i++)
        r[i % 8] += table[index[i]];
    if (n >= 8)
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++)
        res += table[index[i]];
    return res;
}

/* -1 before summing when an index is outside [0, size); numpy starts from 0.0 */
int gathered_sum(const double *table, int64_t size, const int32_t *index, int64_t n,
                 double *out)
{
    for (int64_t i = 0; i < n; i++)
        if (index[i] < 0 || index[i] >= size)
            return -1;
    *out = 0.0 + pairwise(table, index, n);
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
int gammaln(int64_t n, const double *x, double *out)
{
    if (!finite_positive(n, x))
        return -1;
    for (int64_t i = 0; i < n; i++)
        out[i] = lgam(x[i]);
    return 0;
}

int digamma(int64_t n, const double *x, double *out)
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
    key = "\0".join((SOURCE, *FLAGS, *LIBS, platform.machine()))
    digest = hashlib.sha256(key.encode()).hexdigest()
    return f"gibbs-{digest[:16]}.so"


def _checksum_path(path: Path) -> Path:
    return path.with_name(path.name + ".sha256")


def build(path: Path) -> None:
    """Compile SOURCE into a temporary file beside path, record its sha256
    in path.sha256, then os.replace it onto path. Concurrent builds can
    leave a checksum that matches neither library; that is only a rebuild."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}-")
    os.close(fd)
    try:
        try:
            proc = subprocess.run([COMPILER, *FLAGS, "-x", "c", "-", "-o", tmp, *LIBS],
                                  input=SOURCE, capture_output=True, text=True, timeout=300)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BuildError(f"cannot run {COMPILER}: {e}") from None
        if proc.returncode:
            raise BuildError(f"{COMPILER} exited {proc.returncode}: {proc.stderr.strip()[:400]}")
        _checksum_path(path).write_text(hashlib.sha256(Path(tmp).read_bytes()).hexdigest())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _intact(path: Path) -> bool:
    """Whether path's bytes match the checksum its build recorded. A
    truncated library can crash the process in dlopen, so nothing is
    loaded from the cache without this check."""
    try:
        recorded = _checksum_path(path).read_text().strip()
        return hashlib.sha256(path.read_bytes()).hexdigest() == recorded
    except OSError:
        return False


def _open(path: Path):
    lib = ctypes.CDLL(str(path))
    # argument types: i int64_t, p pointer, d double
    types = {"i": ctypes.c_int64, "p": ctypes.c_void_p, "d": ctypes.c_double}
    for name, args in (("randrange", "piip"), ("keep", "pipp"), ("count", "ipppiippp"),
                       ("gibbs_sweep", "pipppiippppddp"), ("gathered_sum", "pipip"),
                       ("gammaln", "ipp"), ("digamma", "ipp")):
        fn = getattr(lib, name)
        fn.argtypes = [types[c] for c in args]
        fn.restype = None if name in ("keep", "count", "gibbs_sweep") else ctypes.c_int
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
    log.info("random draws, Gibbs sweep, gammaln and digamma: compiled kernel")
    return lib


def _elementwise(name: str, x):
    """The library's function ``name`` applied to each element of x (an
    array or a scalar): a float64 array of x's shape, a numpy float for a
    scalar. ValueError when an element is not finite and positive; the
    kernel checks them all before it computes any.

    The callers make many small calls per run, so the per-call cost
    counts: the kernel checks the arguments (two numpy reductions here
    would cost more than the kernel call), and the values are computed in
    place in a fresh copy of x, whose address ``from_buffer`` gives at a
    third of the cost of ``.ctypes.data``."""
    out = np.array(x, dtype=np.float64, order="C")
    if out.size:
        address = ctypes.addressof(ctypes.c_char.from_buffer(out))
        if getattr(kernel(), name)(out.size, address, address):
            raise ValueError(f"{name} takes finite positive arguments only")
    return out[()]


def gammaln(x):
    """log|Gamma(x)| elementwise, bit for bit scipy.special.gammaln; every
    argument must be finite and positive (ValueError otherwise)."""
    return _elementwise("gammaln", x)


def digamma(x):
    """The digamma function elementwise, bit for bit scipy.special.digamma;
    every argument must be finite and positive (ValueError otherwise)."""
    return _elementwise("digamma", x)


def _draw(rng, fn, *args):
    """fn(mt, *args) on rng's Mersenne Twister state mt, uint32[625] (624 words and the
    position); rng is then set where fn left mt, gauss_next kept. Returns fn's result."""
    version, internal, gauss_next = rng.getstate()
    mt = np.array(internal, dtype=np.uint32)
    result = fn(mt.ctypes.data, *args)
    rng.setstate((version, tuple(mt.tolist()), gauss_next))
    return result


def randrange(rng, k: int, n: int) -> np.ndarray:
    """The next n rng.randrange(k) as uint32; ValueError, nothing drawn, unless 1 <= k < 2**32."""
    out = np.empty(n, dtype=np.uint32)
    if _draw(rng, kernel().randrange, min(max(k, 0), 2**32), n, out.ctypes.data):
        raise ValueError(f"randrange bound {k} is not in [1, 2**32)")
    return out


def keep(rng, ratio: np.ndarray) -> np.ndarray:
    """rng.random() < ratio[i] for each i in order, one draw each, as bool."""
    ratio = np.ascontiguousarray(ratio, dtype=np.float64)
    out = np.empty(len(ratio), dtype=bool)  # one byte each, which the kernel sets to 0 or 1
    _draw(rng, kernel().keep, len(ratio), ratio.ctypes.data, out.ctypes.data)
    return out


def _arrays(state) -> tuple:
    """count's arguments, which gibbs_sweep's repeat after mt, state's arrays made contiguous."""
    for name, dtype in (("offsets", np.int64), ("words", np.int32), ("z", np.int32),
                        ("n_dk", np.int64), ("n_kw", np.int32), ("n_k", np.int64)):
        setattr(state, name, np.ascontiguousarray(getattr(state, name), dtype=dtype))
    return (len(state.offsets) - 1, state.offsets.ctypes.data, state.words.ctypes.data,
            state.z.ctypes.data, int(state.k), int(state.vocabulary_size),
            state.n_dk.ctypes.data, state.n_kw.ctypes.data, state.n_k.ctypes.data)


def count(state) -> None:
    """Add each token of state, its topic in state.z, to the counts in place."""
    kernel().count(*_arrays(state))


def gathered_sum(table: np.ndarray, index: np.ndarray) -> float:
    """table[index].sum() bit for bit, without the gathered array; ValueError for a bad index."""
    table = np.ascontiguousarray(table, dtype=np.float64)
    index = np.ascontiguousarray(np.asarray(index).astype(np.int32, casting="safe", copy=False))
    out = ctypes.c_double()
    if kernel().gathered_sum(table.ctypes.data, table.size, index.ctypes.data, index.size,
                             ctypes.byref(out)):
        raise ValueError(f"gathered_sum: an index is outside a table of {table.size}")
    return out.value


def sweep(lib, state) -> None:
    """One sweep of ``state`` through the compiled library, counts updated in
    place, with one state.rng.random() per token, in token order."""
    alpha = np.ascontiguousarray(state.alpha, dtype=np.float64)
    cum = np.empty(state.k, dtype=np.float64)
    _draw(state.rng, lib.gibbs_sweep, *_arrays(state), alpha.ctypes.data, float(state.beta),
          float(state.vocabulary_size * state.beta), cum.ctypes.data)
