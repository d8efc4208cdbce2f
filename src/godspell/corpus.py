"""Corpus ingestion and segmentation.

Reads a manifest of novels through ``config.read_csv``, the one CSV reader:
``ingest`` checks that each text file exists but reads none, and
``Corpus.text`` reads one when asked, keeping nothing. Each novel splits
two ways: fixed word-count segments for topic modeling and word-capped
passages (greedy paragraph packing) for annotation.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from .config import read_csv, read_records, read_text, replacing

GENDERS = ("female", "male", "unknown")
AWARD_STATUSES = ("winner", "finalist")

MANIFEST_COLUMNS = (
    "id", "title", "authors", "genders", "publisher", "year",
    "series_tag", "award_category", "award_status", "award_year", "path",
)

_PARAGRAPH_RE = re.compile(r"\n\s*\n")
_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+")


class ManifestError(ValueError):
    """Raised for unreadable or inconsistent corpus manifests."""


@dataclass
class Author:
    name: str
    gender: str = "unknown"


@dataclass
class Novel:
    id: str
    title: str
    authors: list[Author]
    publisher: str
    year: int
    series_tag: str | None
    awards: list[dict]               # {"category", "status", "award_year"}
    source_path: Path

    def gender_group(self) -> str:
        """'female' or 'male' for single-gender author teams, 'mixed' for
        male+female co-authorship, 'unknown' when any gender is unknown."""
        genders = {a.gender for a in self.authors}
        if "unknown" in genders:
            return "unknown"
        if genders == {"female"}:
            return "female"
        if genders == {"male"}:
            return "male"
        return "mixed"


@dataclass
class Passage:
    """A word-capped annotation unit with word offsets into its novel."""

    novel_id: str
    index: int
    text: str
    word_count: int
    word_start: int
    word_end: int
    normalized_position: float

    @property
    def ref(self) -> str:
        return f"{self.novel_id}:{self.index}"


@dataclass
class Segment:
    """A fixed-size topic-modeling unit (word list, order preserved)."""

    novel_id: str
    words: list[str]


@dataclass
class Corpus:
    novels: list[Novel]

    def text(self, novel_id: str) -> str:
        """The novel's text, read on each call, without a byte-order mark;
        ManifestError naming the file if it is not UTF-8."""
        path = next(n.source_path for n in self.novels if n.id == novel_id)
        try:
            return read_text(path)
        except ValueError as e:
            raise ManifestError(f"text file for novel {novel_id!r}: {e}") from None


def word_tokenize(text: str) -> list[str]:
    """Split into words: maximal runs of non-whitespace."""
    return text.split()


# the characters count_words reads per split: its largest transient is one slice's words
COUNT_SLICE = 1 << 16
_SPACE_RE = re.compile(r"\s")  # str.split()'s whitespace: both are Py_UNICODE_ISSPACE


def count_words(text: str) -> int:
    """len(word_tokenize(text)) without the list of every word: the text is
    split in slices of about COUNT_SLICE characters, each ending at a
    whitespace character found by a regex search, so no word straddles two
    slices (a word longer than a slice makes its slice longer)."""
    total = start = 0
    while start < len(text):
        cut = _SPACE_RE.search(text, start + COUNT_SLICE)
        end = cut.start() if cut else len(text)
        total += len(text[start:end].split())
        start = end
    return total


def _novel(manifest: Path, novel_id: str, cells: tuple[str, ...]) -> Novel:
    """The novel of one manifest row, from its stripped cells after the id,
    whose text file must exist; ManifestError naming the manifest and the
    novel otherwise."""
    def bad(msg: str) -> ManifestError:
        return ManifestError(f"{manifest}: novel {novel_id!r}: {msg}")

    (title, authors, genders, publisher, year, series_tag, award_category, award_status,
     award_year, path) = cells
    if not title:
        raise bad("missing title")

    names = [a.strip() for a in authors.split(";") if a.strip()]
    if not names:
        raise bad("authors must be non-empty")
    genders = [g.strip().lower() for g in genders.split(";") if g.strip()]
    # A missing or short genders field falls back to unknown per author.
    genders += ["unknown"] * (len(names) - len(genders))
    if len(genders) != len(names):
        raise bad(f"{len(genders)} genders for {len(names)} authors")
    for g in genders:
        if g not in GENDERS:
            raise bad(f"unrecognized gender {g!r}")

    try:
        year = int(year)
    except ValueError:
        raise bad(f"year {year!r} is not an integer") from None
    if not 1400 <= year <= 2100:
        raise bad(f"year {year} outside [1400, 2100]")

    categories = [c.strip() for c in award_category.split(";") if c.strip()]
    statuses = [s.strip().lower() for s in award_status.split(";") if s.strip()]
    years_raw = [y.strip() for y in award_year.split(";") if y.strip()]
    if not (len(categories) == len(statuses) == len(years_raw)):
        raise bad("award_category/award_status/award_year lengths differ")
    awards = []
    for cat, status, ystr in zip(categories, statuses, years_raw):
        if status not in AWARD_STATUSES:
            raise bad(f"unrecognized award status {status!r}")
        try:
            awards.append({"category": cat, "status": status, "award_year": int(ystr)})
        except ValueError:
            raise bad(f"award_year {ystr!r} is not an integer") from None

    if not path:
        raise bad("missing path")
    source_path = manifest.parent / path  # an absolute path stays as it is
    if not source_path.is_file():
        raise bad(f"text file not found: {source_path}")

    return Novel(
        id=novel_id,
        title=title,
        authors=[Author(name=n, gender=g) for n, g in zip(names, genders)],
        publisher=publisher,
        year=year,
        series_tag=series_tag or None,
        awards=awards,
        source_path=source_path,
    )


def ingest(manifest: Path | str) -> Corpus:
    """Load a manifest CSV through read_csv and check that every novel text
    it references exists; no text is read.

    Fatal on a missing column, an empty or repeated id, a malformed row and
    a missing text file.
    """
    manifest = Path(manifest)
    if not manifest.is_file():
        raise ManifestError(f"manifest not found: {manifest}")
    rows = read_csv(manifest, ("id",), MANIFEST_COLUMNS[1:])
    return Corpus(novels=[_novel(manifest, novel_id, cells)
                          for (novel_id,), cells in rows.items()])


def segment_fixed(novel: Novel, text: str, segment_size: int) -> list[Segment]:
    """Chop a novel into consecutive segments of exactly segment_size words;
    only the final segment may be shorter."""
    if segment_size < 1:
        raise ValueError("segment_size must be >= 1")
    words = word_tokenize(text)
    return [Segment(novel_id=novel.id, words=words[start:start + segment_size])
            for start in range(0, len(words), segment_size)]


def _paragraph_units(paragraph: str, para_id: int, cap: int) -> list[tuple[int, str, int]]:
    """Decompose one paragraph into packable (para_id, text, word_count) units.

    A paragraph within the cap is a single unit; an oversized paragraph
    splits at sentence boundaries; an oversized sentence is hard-split
    into cap-word chunks.
    """
    wc = len(word_tokenize(paragraph))
    if wc <= cap:
        return [(para_id, paragraph, wc)]
    units = []
    for sentence in _SENTENCE_RE.split(paragraph):
        words = word_tokenize(sentence)
        if not words:
            continue
        if len(words) <= cap:
            units.append((para_id, sentence.strip(), len(words)))
        else:
            for start in range(0, len(words), cap):
                chunk = words[start:start + cap]
                units.append((para_id, " ".join(chunk), len(chunk)))
    return units


def segment_capped(novel: Novel, text: str, cap: int) -> list[Passage]:
    """Greedy paragraph packing into passages of at most cap words.

    Paragraphs (blank-line delimited) accumulate into a passage while the
    running total stays within the cap. Trailing fragments are kept as
    standalone passages.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    units: list[tuple[int, str, int]] = []
    for para_id, paragraph in enumerate(_PARAGRAPH_RE.split(text)):
        paragraph = paragraph.strip()
        if not paragraph:
            continue
        units.extend(_paragraph_units(paragraph, para_id, cap))
    # the paragraph and sentence splits cut only at whitespace, so every
    # word of the text lies in exactly one unit
    total_words = sum(unit[2] for unit in units)

    passages: list[Passage] = []
    current: list[tuple[int, str, int]] = []
    current_wc = 0
    word_start = 0

    def flush() -> None:
        nonlocal current, current_wc, word_start
        if not current:
            return
        parts = [current[0][1]]
        for (prev_para, _, _), (para, unit_text, _) in zip(current, current[1:]):
            parts.append(("\n\n" if para != prev_para else " ") + unit_text)
        passage_text = "".join(parts)
        end = word_start + current_wc
        passages.append(Passage(
            novel_id=novel.id,
            index=len(passages),
            text=passage_text,
            word_count=current_wc,
            word_start=word_start,
            word_end=end,
            normalized_position=(word_start + end) / (2 * total_words),
        ))
        word_start = end
        current = []
        current_wc = 0

    for unit in units:
        if current and current_wc + unit[2] > cap:
            flush()
        current.append(unit)
        current_wc += unit[2]
    flush()
    return passages


def segment_corpus(corpus: Corpus, cap: int) -> list[Passage]:
    """Annotation passages for every novel, in manifest order."""
    passages = []
    for novel in corpus.novels:
        passages.extend(segment_capped(novel, corpus.text(novel.id), cap=cap))
    return passages


def segment_corpus_fixed(corpus: Corpus, segment_size: int) -> list[Segment]:
    """Fixed topic-modeling segments for every novel, in manifest order."""
    segments = []
    for novel in corpus.novels:
        segments.extend(segment_fixed(novel, corpus.text(novel.id), segment_size=segment_size))
    return segments


def passage_statistics(passages: list[Passage]) -> dict:
    """Per-corpus passage summary; means rounded to 2 decimals."""
    if not passages:
        return {"passage_count": 0, "novel_count": 0, "mean_per_novel": 0.0,
                "min_per_novel": 0, "max_per_novel": 0, "mean_word_length": 0.0}
    per_novel: dict[str, int] = {}
    for p in passages:
        per_novel[p.novel_id] = per_novel.get(p.novel_id, 0) + 1
    counts = list(per_novel.values())
    mean_len = sum(p.word_count for p in passages) / len(passages)
    return {
        "passage_count": len(passages),
        "novel_count": len(per_novel),
        "mean_per_novel": round(len(passages) / len(per_novel), 2),
        "min_per_novel": min(counts),
        "max_per_novel": max(counts),
        "mean_word_length": round(mean_len, 2),
    }


def write_passages(passages: list[Passage], path: Path | str) -> None:
    """One JSON line per passage, through config.replacing."""
    with replacing(path) as tmp, tmp.open("w", encoding="utf-8") as fh:
        for p in passages:
            # vars, not asdict: the fields in order, without asdict's deep copy
            fh.write(json.dumps(vars(p), ensure_ascii=False) + "\n")


def iter_passages(path: Path | str) -> Iterator[Passage]:
    """The passages of a passages.jsonl file, one line read per passage by
    config.read_records, whose ValueError names the file and any bad line."""
    return read_records(path, lambda d: Passage(**d), "a passage")


def read_passages(path: Path | str) -> list[Passage]:
    """Every passage of the file, as iter_passages reads them."""
    return list(iter_passages(path))
