import csv
import random
import re
import shutil
from dataclasses import asdict
from pathlib import Path

import pytest

from godspell import corpus
from godspell.config import ConfigError
from godspell.corpus import (
    ManifestError,
    Passage,
    ingest,
    passage_statistics,
    read_passages,
    segment_capped,
    count_words,
    segment_fixed,
    word_tokenize,
    write_passages,
)

from helpers import make_novel
from oracles import pack_reference

FIXTURES = Path(__file__).parent / "fixtures"
MANIFEST_HEADER = (
    "id,title,authors,genders,publisher,year,series_tag,"
    "award_category,award_status,award_year,path"
)


def write_corpus(tmp_path, rows, texts):
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(MANIFEST_HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return manifest


class TestWordTokenize:
    def test_basic(self):
        assert word_tokenize("In the beginning") == ["In", "the", "beginning"]

    def test_empty(self):
        assert word_tokenize("") == []

    def test_mixed_whitespace(self):
        # brute-force whitespace scan: maximal non-whitespace runs
        text = "word-count  test\nline"
        expected = []
        current = ""
        for ch in text:
            if ch.isspace():
                if current:
                    expected.append(current)
                current = ""
            else:
                current += ch
        if current:
            expected.append(current)
        assert word_tokenize(text) == expected == ["word-count", "test", "line"]


# str.split()'s whitespace: the 29 code points for which str.isspace() holds
WHITESPACE = [chr(c) for c in range(0x110000) if chr(c).isspace()]


class TestCountWords:
    """count_words against len(str.split()) of the whole text, where its
    slices are cut."""

    def test_the_whitespace_is_str_splits(self):
        assert len(WHITESPACE) == 29
        assert all(len(f"a{ws}b".split()) == 2 for ws in WHITESPACE)

    @pytest.mark.parametrize("ws", WHITESPACE, ids=lambda ws: f"U+{ord(ws):04X}")
    @pytest.mark.parametrize("shift", [-2, -1, 0, 1, 2])
    def test_each_whitespace_at_a_slice_boundary(self, ws, shift):
        """The code point sits at, just before or just after the first
        slice's end, between words and between runs of itself."""
        at = corpus.COUNT_SLICE + shift
        for text in ("a" * at + ws + "b" * 9 + ws + "c",
                     "a b " * (at // 4) + "x" * (at % 4) + ws * 3 + "tail",
                     ws * at + "w" + ws):
            assert count_words(text) == len(text.split())

    def test_small_slices_over_every_separator(self, monkeypatch):
        """Slices of a few characters, cut at every kind of whitespace."""
        monkeypatch.setattr(corpus, "COUNT_SLICE", 3)
        rng = random.Random(5)
        text = "".join(rng.choice(["ab", "c", "déf", "日本", *WHITESPACE, " "])
                       for _ in range(3000))
        assert count_words(text) == len(text.split())

    def test_word_longer_than_a_slice(self):
        long = "x" * (3 * corpus.COUNT_SLICE + 5)
        for text in (long, f" {long} ", f"a {long}\u3000b", f"{long}\n{long}"):
            assert count_words(text) == len(text.split())

    @pytest.mark.parametrize("text", ["", " ", "\n\n", "one", " one two "])
    def test_short_texts(self, text):
        assert count_words(text) == len(text.split())

    def test_fixture_novels(self):
        for path in sorted((FIXTURES / "novels").glob("*.txt")):
            text = path.read_text(encoding="utf-8")
            assert count_words(text) == len(word_tokenize(text))


class TestIngest:
    def test_two_rows(self, tmp_path):
        manifest = write_corpus(
            tmp_path,
            [
                'a1,First Novel,Jane Roe,female,Pub,2005,,Romance,winner,2006,a1.txt',
                'b2,Second Novel,John Doe;Jane Roe,male;female,Pub,2010,saga,,,,b2.txt',
            ],
            {"a1.txt": "Alpha text here.", "b2.txt": "Beta text here."},
        )
        corpus = ingest(manifest)
        assert [n.id for n in corpus.novels] == ["a1", "b2"]
        assert corpus.text("a1") == "Alpha text here."
        assert corpus.novels[1].series_tag == "saga"
        assert corpus.novels[1].gender_group() == "mixed"
        assert corpus.novels[0].awards[0]["category"] == "Romance"

    def test_duplicate_id_rejected(self, tmp_path):
        manifest = write_corpus(
            tmp_path,
            [
                'lb-01,One,A,female,P,2000,,,,,x.txt',
                'lb-01,Two,B,male,P,2001,,,,,x.txt',
            ],
            {"x.txt": "text"},
        )
        message = f"{manifest}: line 3: repeated id 'lb-01'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ingest(manifest)

    def test_missing_gender_becomes_unknown(self, tmp_path):
        manifest = write_corpus(
            tmp_path,
            ['a1,Title,Jane Roe;John Doe,female,P,2000,,,,,x.txt'],
            {"x.txt": "text"},
        )
        corpus = ingest(manifest)
        genders = [a.gender for a in corpus.novels[0].authors]
        assert genders == ["female", "unknown"]
        # round-trip through serialization keeps the unknown marker
        assert corpus.novels[0].gender_group() == "unknown"

    def test_missing_file_fatal_names_path(self, tmp_path):
        manifest = write_corpus(
            tmp_path, ['a1,Title,Jane,female,P,2000,,,,,gone.txt'], {}
        )
        with pytest.raises(ManifestError, match="gone.txt"):
            ingest(manifest)

    def test_text_not_utf8_names_novel_and_path(self, tmp_path):
        manifest = write_corpus(tmp_path, ['a1,Title,Jane,female,P,2000,,,,,latin.txt'], {})
        (tmp_path / "latin.txt").write_bytes("Café au lait".encode("latin-1"))
        corpus = ingest(manifest)  # reads no text, so this is not an error yet
        with pytest.raises(ManifestError, match=r"'a1'.*latin\.txt"):
            corpus.text("a1")

    def test_malformed_row_names_its_novel(self, tmp_path):
        manifest = write_corpus(
            tmp_path,
            [
                'a1,Title,Jane,female,P,2000,,,,,x.txt',
                'b2,Other,John,male,P,not-a-year,,,,,x.txt',
            ],
            {"x.txt": "text"},
        )
        with pytest.raises(ManifestError, match=f"^{re.escape(str(manifest))}: novel 'b2': "):
            ingest(manifest)

    @pytest.mark.parametrize("row, message", [
        ("b2, ,Jane,female,P,2000,,,,,x.txt", "missing title"),
        ("b2,Title,Jane,female;male,P,2000,,,,,x.txt", "2 genders for 1 authors"),
        ("b2,Title,Jane,woman,P,2000,,,,,x.txt", "unrecognized gender 'woman'"),
        ("b2,Title,Jane,female,P,2000,,Romance;Visionary,winner,2001,x.txt",
         "award_category/award_status/award_year lengths differ"),
        ("b2,Title,Jane,female,P,2000,,Romance,nominee,2001,x.txt",
         "unrecognized award status 'nominee'"),
        ("b2,Title,Jane,female,P,2000,,Romance,winner,MMI,x.txt",
         "award_year 'MMI' is not an integer"),
        ("b2,Title,Jane,female,P,2000,,,,,", "missing path"),
    ], ids=["title", "gender count", "gender", "award lengths", "award status",
            "award year", "path"])
    def test_malformed_row_names_row_and_check(self, tmp_path, row, message):
        """A row's own error names the manifest and the row's novel id,
        which read_csv has checked to be there and unique."""
        manifest = write_corpus(
            tmp_path, ["a1,Title,Jane,female,P,2000,,,,,x.txt", row], {"x.txt": "text"}
        )
        message = f"{manifest}: novel 'b2': {message}"
        with pytest.raises(ManifestError, match=f"^{re.escape(message)}$"):
            ingest(manifest)

    def test_year_range_enforced(self, tmp_path):
        manifest = write_corpus(
            tmp_path, ['a1,Title,Jane,female,P,1203,,,,,x.txt'], {"x.txt": "text"}
        )
        with pytest.raises(ManifestError, match="1203"):
            ingest(manifest)

    def test_empty_authors_rejected(self, tmp_path):
        manifest = write_corpus(
            tmp_path, ['a1,Title,,,P,2000,,,,,x.txt'], {"x.txt": "text"}
        )
        with pytest.raises(ManifestError, match="authors"):
            ingest(manifest)

    def test_header_validated(self, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("id,title\n1,2\n", encoding="utf-8")
        message = (f"{manifest}: missing column 'authors', 'genders', 'publisher', 'year', "
                   "'series_tag', 'award_category', 'award_status', 'award_year', 'path'")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ingest(manifest)

    def test_spreadsheet_export_ingests_like_the_plain_file(self, tmp_path):
        """The fixture manifest as a spreadsheet's "CSV UTF-8" export writes
        it: a byte-order mark, every cell quoted, CRLF line ends, a title
        holding a comma and a newline, and one absolute text path. It gives
        the novels of the plain file, apart from that title."""
        plain = ingest(FIXTURES / "manifest.csv").novels
        with (FIXTURES / "manifest.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        rows[1][1] = "The Quiet Harvest,\nA Novel"
        rows[2][-1] = str(FIXTURES.resolve() / rows[2][-1])
        shutil.copytree(FIXTURES / "novels", tmp_path / "novels")
        exported = tmp_path / "manifest.csv"
        with exported.open("w", newline="", encoding="utf-8-sig") as fh:
            csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(rows)
        assert exported.read_bytes().startswith(b'\xef\xbb\xbf"id","title",')

        novels = ingest(exported).novels
        assert novels[0].title == "The Quiet Harvest,\nA Novel"
        assert novels[1].source_path == FIXTURES.resolve() / "novels" / "ashes-b.txt"
        novels[0].title = plain[0].title

        def described(novels):
            return [{**asdict(n), "source_path": n.source_path.read_bytes()} for n in novels]

        assert described(novels) == described(plain)


def _words(n, prefix="w"):
    return " ".join(f"{prefix}{i}" for i in range(n))


class TestSegmentFixed:
    def test_650_words(self):
        novel = make_novel("n1")
        segments = segment_fixed(novel, _words(650), segment_size=300)
        assert [len(s.words) for s in segments] == [300, 300, 50]

    def test_exact_multiple(self):
        novel = make_novel("n1")
        segments = segment_fixed(novel, _words(300), segment_size=300)
        assert len(segments) == 1

    def test_empty_novel(self):
        assert segment_fixed(make_novel("n1"), "", segment_size=300) == []

    def test_corpus_scale_document_count(self):
        # 88 synthetic novels of 30k words at size 300 -> 100 segments each
        novel = make_novel("n1")
        text = "lorem " * 30_000
        segments = segment_fixed(novel, text, segment_size=300)
        assert len(segments) == 100
        assert 88 * len(segments) == 8_800

    def test_reassembly(self):
        novel = make_novel("n1")
        text = _words(1234)
        segments = segment_fixed(novel, text, segment_size=300)
        joined = [w for s in segments for w in s.words]
        assert joined == word_tokenize(text)


class TestSegmentCapped:
    def test_two_paragraphs_fit(self):
        novel = make_novel("n1")
        text = _words(250, "a") + "\n\n" + _words(200, "b")
        passages = segment_capped(novel, text, cap=500)
        assert [p.word_count for p in passages] == [450]

    def test_overflow_forces_break(self):
        novel = make_novel("n1")
        text = _words(300, "a") + "\n\n" + _words(300, "b")
        passages = segment_capped(novel, text, cap=500)
        assert [p.word_count for p in passages] == [300, 300]

    def test_matches_reference_packer(self):
        rng = random.Random(42)
        counts = [rng.randint(20, 480) for _ in range(10)]
        text = "\n\n".join(_words(c, f"p{i}_") for i, c in enumerate(counts))
        passages = segment_capped(make_novel("n1"), text, cap=500)
        expected = [sum(group) for group in pack_reference(counts, 500)]
        assert [p.word_count for p in passages] == expected

    def test_oversized_paragraph_splits_at_sentences(self):
        sentences = [f"{_words(200, f's{i}_')}." for i in range(4)]
        text = " ".join(sentences)  # one 800-word paragraph, 200 words/sentence
        passages = segment_capped(make_novel("n1"), text, cap=500)
        assert all(p.word_count <= 500 for p in passages)
        assert [p.word_count for p in passages] == [400, 400]

    def test_oversized_sentence_hard_split(self):
        text = _words(1100)  # no sentence punctuation at all
        passages = segment_capped(make_novel("n1"), text, cap=500)
        assert [p.word_count for p in passages] == [500, 500, 100]

    def test_trailing_fragment_kept(self):
        text = _words(500, "a") + "\n\nSo ends."
        passages = segment_capped(make_novel("n1"), text, cap=500)
        assert passages[-1].word_count == 2

    def test_single_newline_is_soft_wrap(self):
        text = _words(10, "a") + "\n" + _words(10, "b")
        passages = segment_capped(make_novel("n1"), text, cap=500)
        assert len(passages) == 1
        assert passages[0].word_count == 20

    def test_positions_match_midpoint_formula(self):
        text = "\n\n".join(_words(100, f"p{i}_") for i in range(7))
        passages = segment_capped(make_novel("n1"), text, cap=250)
        total = 700
        for p in passages:
            assert p.normalized_position == (p.word_start + p.word_end) / (2 * total)


class TestSegmentationInvariants:
    def _random_novel(self, rng):
        paragraphs = []
        for _ in range(rng.randint(0, 12)):
            sentences = []
            for _ in range(rng.randint(1, 6)):
                n = rng.randint(1, rng.choice([8, 40, 180]))
                sentences.append(" ".join(
                    rng.choice(["God", "word", "hope", "the", "12th", "road?!", "x-y"])
                    for _ in range(n)
                ) + rng.choice([".", "!", "?", ""]))
            paragraphs.append(" ".join(sentences))
        sep = rng.choice(["\n\n", "\n \n", "\n\n\n"])
        return sep.join(paragraphs)

    def test_fuzz_invariants(self):
        rng = random.Random(1234)
        novel = make_novel("n1")
        for _ in range(150):
            text = self._random_novel(rng)
            cap = rng.choice([30, 120, 500])
            passages = segment_capped(novel, text, cap=cap)
            words = word_tokenize(text)
            rebuilt = [w for p in passages for w in word_tokenize(p.text)]
            assert rebuilt == words
            cursor = 0
            last_pos = -1.0
            for p in passages:
                assert 1 <= p.word_count <= cap
                assert p.word_start == cursor
                assert p.word_end - p.word_start == p.word_count
                assert p.normalized_position > last_pos
                last_pos = p.normalized_position
                cursor = p.word_end
            assert cursor == len(words)

    def test_determinism(self):
        rng = random.Random(9)
        text = self._random_novel(rng)
        novel = make_novel("n1")
        first = segment_capped(novel, text, cap=200)
        second = segment_capped(novel, text, cap=200)
        assert first == second


class TestPassageStatistics:
    def test_three_passage_mean(self):
        passages = [
            Passage("n1", 0, _words(400), 400, 0, 400, 0.2),
            Passage("n1", 1, _words(400), 400, 400, 800, 0.6),
            Passage("n1", 2, _words(200), 200, 800, 1000, 0.9),
        ]
        summary = passage_statistics(passages)
        assert summary["mean_word_length"] == 333.33
        assert summary["passage_count"] == 3
        assert summary["min_per_novel"] == summary["max_per_novel"] == 3

    def test_matches_brute_force_recount(self):
        rng = random.Random(21)
        passages = []
        for novel_i in range(5):
            for idx in range(rng.randint(1, 9)):
                wc = rng.randint(2, 500)
                passages.append(Passage(f"n{novel_i}", idx, "", wc, 0, wc, 0.5))
        summary = passage_statistics(passages)
        per_novel = {}
        for p in passages:
            per_novel.setdefault(p.novel_id, []).append(p)
        assert summary["passage_count"] == len(passages)
        assert summary["novel_count"] == len(per_novel)
        assert summary["min_per_novel"] == min(len(v) for v in per_novel.values())
        assert summary["max_per_novel"] == max(len(v) for v in per_novel.values())
        assert summary["mean_word_length"] == round(
            sum(p.word_count for p in passages) / len(passages), 2
        )

    def test_empty(self):
        assert passage_statistics([])["passage_count"] == 0


class TestPassageIO:
    def test_round_trip(self, tmp_path):
        novel = make_novel("n1")
        text = "\n\n".join(_words(80, f"p{i}_") for i in range(5))
        passages = segment_capped(novel, text, cap=150)
        path = tmp_path / "passages.jsonl"
        write_passages(passages, path)
        loaded = read_passages(path)
        assert loaded == passages

    @pytest.mark.parametrize("line", ['{"novel_id": "n1"', '["n1", 0]', '{"novel_id": "n1"}',
                                      '{"novel_id": "n1", "extra": 1}'])
    def test_bad_line_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "passages.jsonl"
        write_passages(segment_capped(make_novel("n1"), _words(40, "w"), cap=150), path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write("\n" + line + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path} line 3 is not a passage")):
            read_passages(path)
