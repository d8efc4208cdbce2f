"""The synthetic corpus is a pure function of its seed, at the stated size."""

from pathlib import Path

import corpusgen
from godspell import corpus, topics

ROOT = Path(__file__).resolve().parents[2]


def _files(directory: Path) -> dict[str, bytes]:
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    a = corpusgen.generate(ROOT, tmp_path / "a", seed=5, words=20_000)
    b = corpusgen.generate(ROOT, tmp_path / "b", seed=5, words=20_000)
    c = corpusgen.generate(ROOT, tmp_path / "c", seed=6, words=20_000)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert a == b
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert set(a["files"]) == set(c["files"])
    assert a["files"] != c["files"]


def test_topics_corpus_size_and_vocabulary(tmp_path):
    summary = corpusgen.generate(ROOT, tmp_path, seed=0, words=500_000)
    assert 500_000 <= summary["words"] < 510_000
    assert 0.33 < summary["tail_words"] / summary["words"] < 0.39
    loaded = corpus.ingest(tmp_path / "manifest.csv")
    assert len(loaded.novels) == corpusgen.NOVELS
    stopwords = set((ROOT / corpusgen.STOPWORDS).read_text(encoding="utf-8").split())
    segments = corpus.segment_corpus_fixed(loaded, segment_size=300)
    vocab, docs = topics.build_vocabulary(segments, stopwords, min_count=5)
    tokens = sum(len(d) for d in docs)
    assert 18_000 <= vocab.size <= 22_000
    assert 280_000 <= tokens <= 380_000
