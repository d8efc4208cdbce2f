"""The compiled inner loop of the collapsed Gibbs sweep.

``SOURCE`` is the pure-Python reference loop of ``topics`` written in C,
with the same float operations in the same order: built without
``-ffast-math`` and with ``-ffp-contract=off`` (no fused multiply-add), it
gives bit-for-bit the same assignments, counts and RNG stream.

It is compiled with ``cc`` on first use into ``$XDG_CACHE_HOME/godspell``
(default ``~/.cache/godspell``), under a file name keyed by the sha256 of
the source, the flags and the machine type, with the library's own sha256
beside it, and loaded with ``ctypes``. A cached library whose bytes do not
match that checksum is rebuilt, never loaded; a cache directory that
cannot be written is replaced by a temporary one. When no library can be
built, ``kernel`` returns None and ``topics.gibbs_sweep`` runs the
reference.
"""

from __future__ import annotations

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

SOURCE = r"""
#include <stdint.h>

void gibbs_sweep(int64_t n_docs, const int64_t *offsets, const int32_t *words,
                 int32_t *z, const double *u, int64_t k_topics, int64_t v,
                 const double *alpha, double beta, double vbeta,
                 int64_t *n_dk, int64_t *n_kw, int64_t *n_k, double *cum)
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
            double x = u[i] * total;
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
"""


class BuildError(RuntimeError):
    """Raised when the compiler cannot be run or rejects the source."""


def cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "godspell"


def library_name() -> str:
    key = "\0".join((SOURCE, *FLAGS, platform.machine()))
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
            proc = subprocess.run([COMPILER, *FLAGS, "-x", "c", "-", "-o", tmp],
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
    import ctypes

    fn = ctypes.CDLL(str(path)).gibbs_sweep
    i64, ptr, dbl = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    fn.argtypes = [i64, ptr, ptr, ptr, ptr, i64, i64, ptr, dbl, dbl, ptr, ptr, ptr, ptr]
    fn.restype = None
    return fn


def load(directory: Path):
    """The compiled sweep from directory, built there first when it is
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


_UNSET = object()
_kernel = _UNSET


def kernel():
    """The compiled sweep, loaded once per process; None, after one
    WARNING, when it cannot be built or loaded."""
    global _kernel
    if _kernel is _UNSET:
        try:
            _kernel = load(cache_dir())
            log.info("Gibbs sweep: compiled kernel")
        except (BuildError, OSError) as e:
            log.warning("compiled Gibbs sweep unavailable, using the pure-Python sweep: %s", e)
            _kernel = None
    return _kernel


def sweep(fn, state) -> None:
    """One sweep of ``state`` through the compiled fn, counts updated in
    place. Draws one rng.random() per token, in token order, from state.rng."""
    from .topics import _uniforms

    for name, dtype in (("offsets", np.int64), ("words", np.int32), ("z", np.int32),
                        ("n_dk", np.int64), ("n_kw", np.int64), ("n_k", np.int64)):
        setattr(state, name, np.ascontiguousarray(getattr(state, name), dtype=dtype))
    u = _uniforms(state.rng, len(state.z))
    alpha = np.ascontiguousarray(state.alpha, dtype=np.float64)
    cum = np.empty(state.k, dtype=np.float64)
    fn(len(state.offsets) - 1, state.offsets.ctypes.data, state.words.ctypes.data,
       state.z.ctypes.data, u.ctypes.data, int(state.k), int(state.vocabulary_size),
       alpha.ctypes.data, float(state.beta), float(state.vocabulary_size * state.beta),
       state.n_dk.ctypes.data, state.n_kw.ctypes.data, state.n_k.ctypes.data, cum.ctypes.data)
