"""Seeded synthetic corpus: fixture paragraphs resampled, plus a Zipf tail.

Paragraphs are drawn with replacement from the fixture novels. After each
fixture word, minted word forms follow while a uniform draw stays below
``TAIL_SHARE``, so about that share of all words are minted. Minted forms
follow a Zipf-Mandelbrot law p(r) ~ 1 / (r + q)^s over ``forms`` ranks.
The default law puts about 19k minted forms at five or more occurrences in
180k tail words, so that a 0.5M-word corpus reaches V ~ 20k at
``min_count=5`` with about 0.3M tokens left after filtering.

Ranks are drawn by bisecting a precomputed cumulative weight table:
calling ``random.choices(weights=...)`` once per word rebuilds that table
on every call and is orders of magnitude slower.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import itertools
import random
import re
from pathlib import Path

FIXTURE_NOVELS = Path("tests") / "fixtures" / "novels"
STOPWORDS = Path("tests") / "fixtures" / "stopwords.txt"

TAIL_SHARE = 0.36
TAIL_FORMS = 32000
TAIL_EXPONENT = 1.0
TAIL_OFFSET = 20000.0
NOVELS = 8

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "br", "dr",
           "gr", "kl", "st", "th")
_VOWELS = ("a", "e", "i", "o", "u", "ae", "ou")
_CODAS = ("", "", "", "n", "r", "s", "l", "m")
# (genders, series_tag) per generated novel, cycled: both gender groups and a
# series group exist, so that the stats command's group comparisons have data.
_NOVEL_META = (
    ("female", ""), ("male;male", "synthetic-cycle"), ("female", ""), ("male", ""),
    ("female;male", "synthetic-cycle"), ("male", "synthetic-cycle"), ("female", ""),
    ("male", ""),
)
MANIFEST_HEADER = [
    "id", "title", "authors", "genders", "publisher", "year", "series_tag",
    "award_category", "award_status", "award_year", "path",
]


def fixture_paragraphs(root: Path) -> list[list[str]]:
    """Every blank-line delimited paragraph of the fixture novels, as words."""
    paragraphs = []
    for path in sorted((root / FIXTURE_NOVELS).glob("*.txt")):
        for block in re.split(r"\n\s*\n", path.read_text(encoding="utf-8")):
            words = block.split()
            if words:
                paragraphs.append(words)
    if not paragraphs:
        raise FileNotFoundError(f"no fixture paragraphs under {root / FIXTURE_NOVELS}")
    return paragraphs


def mint_forms(rng: random.Random, count: int, avoid: set[str]) -> list[str]:
    """``count`` distinct lower-case word forms of two to four syllables."""
    forms: list[str] = []
    seen = set(avoid)
    while len(forms) < count:
        form = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
            for _ in range(rng.randint(2, 4))
        )
        if form not in seen:
            seen.add(form)
            forms.append(form)
    return forms


def zipf_table(forms: int, exponent: float, offset: float) -> list[float]:
    """Cumulative Zipf-Mandelbrot weights over ranks 0..forms-1."""
    return list(itertools.accumulate(1.0 / (r + offset) ** exponent for r in range(forms)))


def generate(root: Path, out_dir: Path, seed: int, words: int) -> dict:
    """Write ``novels/*.txt`` and ``manifest.csv`` under ``out_dir``.

    Returns a summary with the word counts and the sha256 of every file
    written. The same (seed, words) gives the same bytes.
    """
    rng = random.Random(seed)
    pool = fixture_paragraphs(root)
    fixture_vocab = {w.lower() for para in pool for w in para}
    forms = mint_forms(rng, TAIL_FORMS, fixture_vocab)
    cum = zipf_table(TAIL_FORMS, TAIL_EXPONENT, TAIL_OFFSET)
    total_weight = cum[-1]
    rand = rng.random
    choose = rng.choice

    out_dir = Path(out_dir)
    (out_dir / "novels").mkdir(parents=True, exist_ok=True)
    per_novel = words // NOVELS
    summary = {"seed": seed, "words": 0, "tail_words": 0, "files": {}}
    rows = []
    for n in range(NOVELS):
        novel_id = f"synth-{n:02d}"
        paragraphs = []
        count = 0
        while count < per_novel:
            out = []
            for word in choose(pool):
                out.append(word)
                while rand() < TAIL_SHARE:
                    out.append(forms[bisect.bisect(cum, rand() * total_weight)])
                    summary["tail_words"] += 1
            paragraphs.append(" ".join(out))
            count += len(out)
        rel = f"novels/{novel_id}.txt"
        (out_dir / rel).write_text("\n\n".join(paragraphs) + "\n", encoding="utf-8")
        summary["words"] += count
        genders, series = _NOVEL_META[n % len(_NOVEL_META)]
        authors = ";".join(f"Author {novel_id}-{i}" for i in range(len(genders.split(";"))))
        rows.append([
            novel_id, f"Synthetic Novel {n}", authors, genders, "Seeded Press",
            2000 + n, series, "", "", "", rel,
        ])
    with (out_dir / "manifest.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MANIFEST_HEADER)
        writer.writerows(rows)
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            rel = path.relative_to(out_dir).as_posix()
            summary["files"][rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return summary

