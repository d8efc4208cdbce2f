"""The corpus pass of topics-train: the kernel's form table against
``str.split()`` and a first-appearance defaultdict (``FormTableReference``),
and the documents the CLI cuts from it against those of the segment path
that ``bench/`` takes (``segment_corpus_fixed``, ``build_vocabulary``,
``authorless_downsample``)."""

import array
import importlib.util
import json
import random
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from godspell import _sweep, cli, config, corpus, topics
from oracles import FormTableReference

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"

# str.split()'s whitespace, which the kernel's BYTE_CLASS and space_len spell out in UTF-8
WHITESPACE = [c for c in range(0x110000) if chr(c).isspace()]


@pytest.fixture(scope="module")
def compiled():
    return _sweep.kernel()


def same_as_reference(texts: list[str]) -> _sweep.FormTable:
    """The texts through one FormTable and one FormTableReference: the same
    word counts, form ids and forms."""
    table, reference = _sweep.FormTable(), FormTableReference()
    for text in texts:
        assert table.add(text.encode()) == reference.add(text.encode())
    assert table.words == reference.words
    assert table.text.split(" ")[:-1] == reference.forms
    return table


def test_the_whitespace_is_the_kernels_29_code_points():
    assert WHITESPACE == [*range(0x09, 0x0E), *range(0x1C, 0x21), 0x85, 0xA0, 0x1680,
                          *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000]


def test_every_code_point_in_one_kernel_call(compiled):
    text = "".join(f"x{chr(c)}x" for c in range(0x110000) if not 0xD800 <= c < 0xE000).encode()
    n_slots = 1024
    slots = array.array("i", [-1]) * (3 * n_slots)
    store, out = bytearray(len(text) + 1), array.array("i", [0]) * len(text)
    tally = array.array("i", [0, 0, 0, 0])
    address = _sweep._address
    assert compiled.forms(text, len(text), 0, address(slots), n_slots, address(store),
                          len(store), address(out), len(out), address(tally)) == len(text)
    reference = FormTableReference()
    reference.add(text)
    assert out[:tally[3]] == reference.words
    assert store[:tally[2]].decode().split(" ")[:-1] == reference.forms
    assert tally[0] == tally[1] == len(reference.forms)


# ASCII, the whitespace, and the code points that share a lead byte with it in UTF-8
CHARS = st.one_of(st.integers(0, 0x7F), st.sampled_from(WHITESPACE), st.integers(0x80, 0xFF),
                  st.integers(0x1600, 0x16FF), st.integers(0x2000, 0x20FF),
                  st.integers(0x3000, 0x30FF)).map(chr)


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(st.text(CHARS, max_size=80), max_size=6))
def test_texts_near_the_whitespace(compiled, texts):
    same_as_reference(texts)


def test_every_growth_path(compiled):
    """More forms than the first table and store hold, a text of more words
    than the id buffer, a word longer than the first store, and empty and
    whitespace-only novels, each between texts the table has seen."""
    fresh = _sweep.FormTable()
    rng = random.Random(7)
    pool = [f"w{i}" for i in range(30_000)]
    texts = ["", " \t\n　  ",
             " ".join(rng.choice(pool) for _ in range(fresh.OUT + 10)),
             "ü" * len(fresh._store), "", " " * 5]
    texts += [" ".join(rng.choice(pool) for _ in range(5_000)) for _ in range(8)]
    table = same_as_reference(texts)
    assert len(table._slots) > len(fresh._slots) and len(table._store) > len(fresh._store)
    # a full id buffer is emptied into words; nothing else grows for it
    assert fresh.add(b"a " * (3 * fresh.OUT)) == 3 * fresh.OUT
    assert len(fresh._out) == fresh.OUT
    assert len(fresh._store) == len(_sweep.FormTable()._store) and fresh.text == "a "


def test_add_takes_bytes_only(compiled):
    with pytest.raises(TypeError, match="text must be bytes"):
        _sweep.FormTable().add("a str")


def bench_path(config_path: Path, tmp_path: Path):
    """The documents as bench/workloads.py's TopicsK65.setup builds them."""
    run = config.load_run_config(config_path, output_dir=str(tmp_path / "out"))
    loaded = corpus.ingest(run.manifest)
    segments = corpus.segment_corpus_fixed(loaded, segment_size=run.segment_size)
    doc_novels = [s.novel_id for s in segments]
    vocab, docs = topics.build_vocabulary(segments, cli._load_stopwords(run),
                                          min_count=run.topics_min_count)
    docs = topics.authorless_downsample(docs, doc_novels, rng_seed=run.topics_downsample_seed)
    return vocab, [d.tolist() for d in docs], doc_novels


def cli_path(config_path: Path, tmp_path: Path):
    run = config.load_run_config(config_path, output_dir=str(tmp_path / "out"))
    vocab, docs, doc_novels = cli._topic_docs(run)
    return vocab, [d.tolist() for d in docs], doc_novels


def corpusgen_corpus(tmp_path: Path, words: int) -> Path:
    """A bench corpus of the given size with the bench's topic settings,
    and an empty and a whitespace-only novel added to its manifest."""
    spec = importlib.util.spec_from_file_location("corpusgen", ROOT / "bench" / "corpusgen.py")
    corpusgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpusgen)
    directory = tmp_path / "corpus"
    corpusgen.generate(ROOT, directory, seed=0, words=words)
    shutil.copy(ROOT / corpusgen.STOPWORDS, directory / "stopwords.txt")
    manifest = directory / "manifest.csv"
    lines = manifest.read_text(encoding="utf-8").splitlines()
    first = lines[1].split(",")
    for novel_id, text in (("empty", ""), ("blank", " \n\n　\t ")):
        (directory / f"{novel_id}.txt").write_text(text, encoding="utf-8")
        lines.insert(2, ",".join([novel_id, *first[1:-1], f"{novel_id}.txt"]))
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    run = {"manifest": "manifest.csv", "segmentation": {"segment_size": 300},
           "topics": {"min_count": 5, "downsample": True, "downsample_seed": 3,
                      "stopwords": "stopwords.txt"}}
    (directory / "run.json").write_text(json.dumps(run), encoding="utf-8")
    return directory / "run.json"


def test_bench_path_and_cli_path_agree_on_the_fixtures(compiled, tmp_path):
    vocab, docs, doc_novels = cli_path(FIXTURES / "runconfig.json", tmp_path)
    assert bench_path(FIXTURES / "runconfig.json", tmp_path) == (vocab, docs, doc_novels)
    assert len(docs) == 36


def test_bench_path_and_cli_path_agree_on_a_bench_corpus(compiled, tmp_path):
    run = corpusgen_corpus(tmp_path, words=60_000)
    vocab, docs, doc_novels = cli_path(run, tmp_path)
    assert bench_path(run, tmp_path) == (vocab, docs, doc_novels)
    assert len(docs) >= 60_000 // 300 and not {"empty", "blank"} & set(doc_novels)
