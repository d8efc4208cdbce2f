"""The annotation records the later commands read: `ActAnnotation`, the
cascade's verdict for one passage, `read_annotations` for annotations.jsonl,
`FACETS`, the label sets of the characterization prompts by facet, and
`left_sum`, the one float sum of both commands. `eval` and `stats` read
annotations through this module alone, so neither loads the cascade.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from pathlib import Path

from .config import read_records

# each characterization facet, an ActAnnotation field, -> its labels
FACETS = {"affect": ("INDIVIDUAL", "GROUP"), "impact": ("LOVING", "PUNISHING", "BOTH", "NEUTRAL")}


def left_sum(values) -> float:
    """values added one by one, left to right from 0: bit for bit the sum()
    of Python 3.10 and 3.11, whose float sum 3.12 made compensated, so
    metrics.json and stats.json read the same on every Python."""
    return functools.reduce(operator.add, values, 0)


@dataclass
class ActAnnotation:
    """The cascade's verdict for one passage."""

    novel_id: str
    index: int
    status: str                      # "ok" | "unresolved"
    stage1: dict | None = None
    stage2: dict | None = None
    final_label: str | None = None
    affect: str | None = None
    impact: str | None = None
    cache_key: str | None = None
    failed_stage: str | None = None
    error: str | None = None

    @property
    def ref(self) -> str:
        return f"{self.novel_id}:{self.index}"

    @property
    def is_act(self) -> bool:
        """Resolved, and both stages said YES."""
        return self.status == "ok" and self.final_label == "YES"


def read_annotations(path: Path | str) -> list[ActAnnotation]:
    """Each line's annotation, its "passage" dropped, read by
    config.read_records, whose ValueError names the file and any bad line."""
    return list(read_records(path, lambda d: ActAnnotation(
        **{k: v for k, v in d.items() if k != "passage"}), "an annotation"))
