"""The annotation records the later commands read: `ActAnnotation`, the
cascade's verdict for one passage, `read_annotations` for annotations.jsonl,
`FACETS`, the label sets of the characterization prompts by facet, and
`left_sum`, the one float sum of both commands. `eval` and `stats` read
annotations through this module alone, so neither loads the cascade.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass
from pathlib import Path

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
    """Each line's annotation, its "passage" dropped; ValueError naming the
    file and the line of a line that is not one."""
    annotations = []
    with Path(path).open(encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if line.strip():
                try:
                    d = json.loads(line)
                    d.pop("passage", None)
                    annotations.append(ActAnnotation(**d))
                except (ValueError, TypeError, AttributeError) as e:
                    raise ValueError(f"{path} line {number} is not an annotation: {e}") from None
    return annotations
