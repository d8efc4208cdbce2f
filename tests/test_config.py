"""config's file writer, `replacing`, as every writer of the package uses
it: a write that fails part-way leaves the file at its path as it was and
no temporary file beside it; and its text reader, `read_text`."""

import os
import random
import shutil
import stat
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from godspell import _sweep, annotate, cli, config, corpus, report, topics
from godspell.corpus import Segment
from helpers import make_annotation, make_passage

GOLDEN = Path(__file__).parent / "golden"


class Boom(Exception):
    """The failure a writer meets part-way."""


def fourth_raises(items):
    """items, with Boom raised in place of the 4th."""
    for i, item in enumerate(items):
        if i == 3:
            raise Boom
        yield item


def passages(path, monkeypatch):
    corpus.write_passages(fourth_raises(make_passage("n", i, i / 5) for i in range(5)), path)


def annotations(path, monkeypatch):
    annotate.write_annotations(fourth_raises(make_annotation("n", i) for i in range(5)), path)


def csv_rows(path, monkeypatch):
    config.write_csv(path, ["n"], fourth_raises([i] for i in range(5)))


def state(path, monkeypatch):
    """save_state of a trained K=2 state over 10 documents, in blocks of one
    row, the 4th doc_topic row failing as it is streamed out."""
    rng = random.Random(1)
    docs = [[rng.randrange(6) for _ in range(8)] for _ in range(10)]
    vocab, _ = topics.build_vocabulary([Segment("a", [f"w{i}" for i in range(6)])], set(),
                                       min_count=1)
    trained, lls = topics.train(docs, 6, k=2, sweeps=2, burn_in=1, optimize_interval=1,
                                rng_seed=0)
    write_rows = topics._write_rows
    monkeypatch.setattr(_sweep, "BLOCK", 1)
    monkeypatch.setattr(topics, "_write_rows",
                        lambda fh, rows: write_rows(fh, fourth_raises(rows)))
    topics.save_state(path, trained, lls, vocab, ["a"] * 10)


def cache_entry(path, monkeypatch):
    annotate.AnnotationCache(path.parent.parent).put(path.parent.name, path.stem,
                                                     {"label": object()})


def json_payload(path, monkeypatch):
    cli._dump_json(path, {"stats": {"mean": object()}})


def report_md(path, monkeypatch):
    """cmd_report over the golden stats.json and metrics.json, its summary
    failing to build."""
    def fails(results, metrics):
        raise Boom

    monkeypatch.setattr(report, "figure_data", lambda results, directory: [])
    monkeypatch.setattr(report, "markdown_summary", fails)
    cli.cmd_report(SimpleNamespace(output_dir=path.parent))


def library(path, monkeypatch):
    """_sweep.build with a compiler that writes part of its output, then
    exits 1."""
    compiler = path.parent.parent / "failing-cc"
    compiler.write_text('#!/bin/sh\nwhile [ "$1" != -o ]; do shift; done\n'
                        'printf partial > "$2"\nexit 1\n', encoding="utf-8")
    compiler.chmod(compiler.stat().st_mode | stat.S_IXUSR)
    monkeypatch.setattr(_sweep, "COMPILER", str(compiler))
    _sweep.build(path)


# each writer -> the failing write, the file it writes, the exception, and
# the golden files it reads from the same directory
WRITERS = {
    "write_passages": (passages, "passages.jsonl", Boom, ()),
    "write_annotations": (annotations, "annotations.jsonl", Boom, ()),
    "write_csv": (csv_rows, "top_words.csv", Boom, ()),
    "save_state": (state, "state.json", Boom, ()),
    "AnnotationCache.put": (cache_entry, "stage1/key.json", TypeError, ()),
    "_dump_json": (json_payload, "stats.json", TypeError, ()),
    "report.md": (report_md, "report.md", Boom, ("stats.json", "metrics.json")),
    "_sweep.build": (library, _sweep.library_name(), _sweep.BuildError, ()),
}


@pytest.mark.parametrize("earlier", [None, b"an earlier run's bytes\n"],
                         ids=["no earlier file", "over an earlier file"])
@pytest.mark.parametrize("writer", WRITERS)
def test_failed_write_leaves_the_earlier_file(tmp_path, monkeypatch, writer, earlier):
    """A writer that fails part-way leaves an earlier file byte for byte as
    it was, no file where there was none, and no temporary file."""
    write, name, error, inputs = WRITERS[writer]
    path = tmp_path / "out" / name
    path.parent.mkdir(parents=True)
    if earlier is not None:
        path.write_bytes(earlier)
    for input_name in inputs:
        shutil.copy(GOLDEN / input_name, path.parent / input_name)
    listed = sorted((tmp_path / "out").rglob("*"))
    with pytest.raises(error):
        write(path, monkeypatch)
    assert (path.read_bytes() if path.exists() else None) == earlier
    assert sorted((tmp_path / "out").rglob("*")) == listed


@pytest.mark.parametrize("error", [Boom, KeyboardInterrupt])
def test_replacing_replaces_only_once_the_block_ends(tmp_path, error):
    path = tmp_path / "file.txt"
    path.write_text("earlier", encoding="utf-8")
    with config.replacing(path) as tmp:
        assert tmp.parent == tmp_path and not tmp.exists()
        tmp.write_text("later", encoding="utf-8")
        assert path.read_text(encoding="utf-8") == "earlier"
    assert path.read_text(encoding="utf-8") == "later"
    assert list(tmp_path.iterdir()) == [path]
    with pytest.raises(error), config.replacing(path) as tmp:
        tmp.write_text("never", encoding="utf-8")
        raise error
    assert path.read_text(encoding="utf-8") == "later"
    assert list(tmp_path.iterdir()) == [path]


def test_replacing_unlinks_nothing_after_a_whole_write(tmp_path, monkeypatch):
    """A block that ends well is replaced onto its path with no unlink after
    it: one fewer system call for each of annotate's cache entries."""
    unlinked = []
    monkeypatch.setattr(os, "unlink", lambda *args, **kwargs: unlinked.append(args))
    with config.replacing(tmp_path / "entry.json") as tmp:
        tmp.write_text("{}", encoding="utf-8")
    assert unlinked == []
    assert list(tmp_path.iterdir()) == [tmp_path / "entry.json"]


def test_replacing_removes_what_a_dead_writer_left_and_keeps_a_live_ones(tmp_path):
    """A temporary file named for a reaped child's pid goes before the next
    write into its directory; one named for a live pid, this process, stays,
    and so does one whose name holds no pid."""
    child = subprocess.Popen([sys.executable, "-c", ""])
    child.wait()
    dead = tmp_path / f"state.json.tmp-{child.pid}-00ff00ff00ff00ff"
    live = tmp_path / f"state.json.tmp-{os.getpid()}-00ff00ff00ff00ff"
    unowned = tmp_path / "state.json.tmp-00ff00ff00ff00ff"
    for leftover in (dead, live, unowned):
        leftover.write_text("partial", encoding="utf-8")
    with config.replacing(tmp_path / "state.json") as tmp:
        assert tmp.name.startswith(f"state.json.tmp-{os.getpid()}-")
        tmp.write_text("whole", encoding="utf-8")
    assert sorted(tmp_path.iterdir()) == sorted([tmp_path / "state.json", live, unowned])


@pytest.mark.parametrize("data", [b"plain\r\nlines\n", b"\xef\xbb\xbfmarked"])
def test_read_text_drops_the_mark_and_reads_line_ends_as_open_does(tmp_path, data):
    path = tmp_path / "in.txt"
    path.write_bytes(data)
    assert config.read_text(path) == path.read_text(encoding="utf-8-sig")
    assert config.read_text(path, newline="") == data.decode("utf-8-sig")

