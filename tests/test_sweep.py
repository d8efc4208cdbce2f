"""The compiled Gibbs sweep against the pure-Python reference, its fallback,
and its build cache."""

import logging
import random
import shutil

import numpy as np
import pytest

from godspell import _sweep, topics
from godspell.topics import gibbs_sweep, init_state, log_likelihood, optimize_alpha, optimize_beta


@pytest.fixture(scope="module")
def compiled():
    if shutil.which(_sweep.COMPILER) is None:
        pytest.skip(f"no C compiler ({_sweep.COMPILER})")
    fn = _sweep.kernel()
    assert fn is not None, "a compiler is present but the kernel did not build"
    return fn


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
        topics._gibbs_sweep_python(ref)
        assert log_likelihood(fast) == log_likelihood(ref)
        if sweep % 2 == 0:
            optimize_alpha(fast)
            optimize_alpha(ref)
            optimize_beta(fast)
            optimize_beta(ref)
        assert_same(fast, ref)
    fast.validate(docs)


def test_train_samples_with_the_kernel(compiled, monkeypatch):
    rng = random.Random(4)
    docs = corpus(rng, 40, 30)
    fast, fast_summary = topics.train(docs, 30, k=3, sweeps=12, burn_in=2,
                                      optimize_interval=3, rng_seed=1)
    monkeypatch.setattr(_sweep, "_kernel", None)
    ref, ref_summary = topics.train(docs, 30, k=3, sweeps=12, burn_in=2,
                                    optimize_interval=3, rng_seed=1)
    assert fast_summary.log_likelihoods == ref_summary.log_likelihoods
    assert_same(fast, ref)


def test_build_failure_falls_back_with_one_warning(monkeypatch, tmp_path, caplog):
    monkeypatch.setattr(_sweep, "_kernel", _sweep._UNSET)
    monkeypatch.setattr(_sweep, "COMPILER", "godspell-no-such-compiler")
    monkeypatch.setattr(_sweep, "cache_dir", lambda: tmp_path)
    rng = random.Random(9)
    docs = corpus(rng, 20, 12)
    state = init_state(docs, 4, 12, rng_seed=2)
    ref = init_state(docs, 4, 12, rng_seed=2)
    with caplog.at_level(logging.WARNING, logger="godspell._sweep"):
        for _ in range(3):
            gibbs_sweep(state, docs)
            topics._gibbs_sweep_python(ref)
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "godspell-no-such-compiler" in warnings[0].getMessage()
    assert_same(state, ref)


def small_state():
    docs = [[0, 1, 2, 1], [], [2, 2, 3]]
    return docs, init_state(docs, 3, 5, rng_seed=6)


def assert_works(fn):
    docs, state = small_state()
    _, ref = small_state()
    _sweep.sweep(fn, state)
    topics._gibbs_sweep_python(ref)
    assert_same(state, ref)


@pytest.mark.parametrize("damage", ["garbage", "truncated", "empty", "no checksum"])
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
    else:
        cached.write_bytes({"garbage": b"not a shared library",
                            "truncated": built[: len(built) // 3],
                            "empty": b""}[damage])
        cached.with_name(cached.name + ".sha256").write_text(checksum)
    fn = _sweep.load(cache)
    assert_works(fn)
    assert cached.read_bytes() == built


def test_unwritable_cache_still_compiles(compiled, tmp_path, caplog):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("", encoding="utf-8")
    with caplog.at_level(logging.INFO, logger="godspell._sweep"):
        fn = _sweep.load(blocker / "godspell")
    assert_works(fn)
    assert "not writable" in caplog.text
    assert list(tmp_path.iterdir()) == [blocker]


def test_kernel_is_cached_under_xdg_cache_home(compiled, monkeypatch, tmp_path):
    monkeypatch.setattr(_sweep, "_kernel", _sweep._UNSET)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert_works(_sweep.kernel())
    name = _sweep.library_name()
    assert sorted(p.name for p in (tmp_path / "godspell").iterdir()) == [name, name + ".sha256"]


def test_library_name_keys_source_and_flags(monkeypatch):
    name = _sweep.library_name()
    monkeypatch.setattr(_sweep, "FLAGS", _sweep.FLAGS + ("-g",))
    assert _sweep.library_name() != name
    monkeypatch.undo()
    monkeypatch.setattr(_sweep, "SOURCE", _sweep.SOURCE + "\n")
    assert _sweep.library_name() != name
