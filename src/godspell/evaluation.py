"""Inter-annotator agreement, gold-label resolution, and scoring.

Krippendorff's alpha is computed from the coincidence matrix with the
nominal difference function, tolerating missing labels. The three human
inputs (annotation rounds, gold overrides, the spot-check) are read here,
and `evaluate` scores the model's annotations against them into the
metrics.json payload.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .report import read_csv

if TYPE_CHECKING:
    from .annotate import ActAnnotation

MISSING = "MISSING"
RELIABILITY_LABELS = ("YES", "MAYBE", "NO")


@dataclass
class ReliabilityData:
    """Items x annotators label matrix; MISSING marks absent judgments."""

    items: list[str]
    annotators: list[str]
    labels: list[list[str]]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.items):
            raise ValueError("label matrix rows must match item count")
        for row in self.labels:
            if len(row) != len(self.annotators):
                raise ValueError("label matrix columns must match annotator count")
        for item, row in zip(self.items, self.labels):
            if all(v == MISSING for v in row):
                raise ValueError(f"item {item!r} has no labels")

    def item_labels(self, i: int) -> list[str]:
        return [v for v in self.labels[i] if v != MISSING]


def _matrix(rows: list[tuple[str, str, str]]) -> ReliabilityData:
    """Label matrix from (item, annotator, label) triples; items and
    annotators in sorted order."""
    items = sorted({r[0] for r in rows})
    annotators = sorted({r[1] for r in rows})
    index = {it: i for i, it in enumerate(items)}
    col = {a: j for j, a in enumerate(annotators)}
    matrix = [[MISSING] * len(annotators) for _ in items]
    for item, annotator, label in rows:
        matrix[index[item]][col[annotator]] = label
    return ReliabilityData(items=items, annotators=annotators, labels=matrix)


def read_annotation_csv(path: Path | str) -> ReliabilityData:
    """Load a `passage_id,annotator_id,label` CSV into a label matrix."""
    rows = []
    for row in read_csv(path, ("passage_id", "annotator_id", "label")):
        label = row["label"].strip().upper()
        if label not in RELIABILITY_LABELS:
            raise ValueError(f"unrecognized label {row['label']!r} in {path}")
        rows.append((row["passage_id"].strip(), row["annotator_id"].strip(), label))
    return _matrix(rows)


def merge_reliability(rounds: dict[str, ReliabilityData]) -> ReliabilityData:
    """Combine annotation rounds into one matrix; annotator columns are
    namespaced by round so the same person in two rounds stays distinct."""
    rows = []
    for name, data in rounds.items():
        for i, item in enumerate(data.items):
            for j, annotator in enumerate(data.annotators):
                label = data.labels[i][j]
                if label != MISSING:
                    rows.append((item, f"{name}:{annotator}", label))
    if not rows:
        raise ValueError("no labels in any round")
    return _matrix(rows)


def krippendorff_alpha(data: ReliabilityData) -> float:
    """Nominal-metric Krippendorff's alpha over the coincidence matrix.

    Each item with m >= 2 labels contributes its ordered label pairs with
    weight 1/(m-1); items with a single label are ignored.
    """
    values = sorted({v for row in data.labels for v in row if v != MISSING})
    coincidence = {a: {b: 0.0 for b in values} for a in values}
    for i in range(len(data.items)):
        labels = data.item_labels(i)
        m = len(labels)
        if m < 2:
            continue
        weight = 1.0 / (m - 1)
        for j, a in enumerate(labels):
            for k, b in enumerate(labels):
                if j != k:
                    coincidence[a][b] += weight

    n = sum(sum(row.values()) for row in coincidence.values())
    if n == 0:
        raise ValueError("no pairable items: every item has fewer than 2 labels")
    totals = {a: sum(coincidence[a].values()) for a in values}

    observed = sum(coincidence[a][b] for a in values for b in values if a != b) / n
    expected = sum(
        totals[a] * totals[b] for a in values for b in values if a != b
    ) / (n * (n - 1))
    if expected == 0:
        raise ValueError("alpha undefined: zero expected disagreement")
    return 1.0 - observed / expected


def convert_maybe(labels: list[str]) -> list[str]:
    """Collapse the three-way scheme to binary: MAYBE becomes YES."""
    return ["YES" if v == "MAYBE" else v for v in labels]


@dataclass
class GoldSet:
    """Resolved binary labels per passage, with resolution provenance."""

    labels: dict[str, str]
    resolved_by_discussion: set[str] = field(default_factory=set)
    notes: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for ref, label in self.labels.items():
            if label not in ("YES", "NO"):
                raise ValueError(f"gold label for {ref!r} must be YES or NO, got {label!r}")


def read_gold_overrides(path: Path | str) -> dict[str, tuple[str, str]]:
    """Load a `passage_id,label,resolution_note` override CSV."""
    return {
        row["passage_id"].strip(): (
            row["label"].strip().upper(),
            (row.get("resolution_note") or "").strip(),
        )
        for row in read_csv(path, ("passage_id", "label"))
    }


def build_gold(
    data: ReliabilityData,
    overrides: dict[str, tuple[str, str]] | None = None,
) -> GoldSet:
    """Resolve annotator labels to a binary gold set.

    Labels are binarized (MAYBE -> YES) first. Unanimous items resolve
    directly; disagreements require an override row. Overrides always win.
    """
    overrides = overrides or {}
    labels: dict[str, str] = {}
    resolved = set()
    notes = {}
    unresolved = []
    for i, item in enumerate(data.items):
        if item in overrides:
            label, note = overrides[item]
            labels[item] = label
            resolved.add(item)
            if note:
                notes[item] = note
            continue
        binary = set(convert_maybe(data.item_labels(i)))
        if len(binary) == 1:
            labels[item] = binary.pop()
        else:
            unresolved.append(item)
    if unresolved:
        raise ValueError(
            "unresolved annotator disagreement (no override) for: " + ", ".join(unresolved)
        )
    return GoldSet(labels=labels, resolved_by_discussion=resolved, notes=notes)


@dataclass
class Confusion:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion(gold: GoldSet, predicted: dict[str, str]) -> Confusion:
    """2x2 counts with YES as the positive class; ref sets must match."""
    gold_refs = set(gold.labels)
    pred_refs = set(predicted)
    if gold_refs != pred_refs:
        diff = sorted(gold_refs.symmetric_difference(pred_refs))
        raise ValueError(f"passage ref mismatch between gold and predictions: {diff}")
    tp = fp = fn = tn = 0
    for ref, g in gold.labels.items():
        p = predicted[ref]
        if g == "YES" and p == "YES":
            tp += 1
        elif g == "NO" and p == "YES":
            fp += 1
        elif g == "YES" and p == "NO":
            fn += 1
        else:
            tn += 1
    return Confusion(tp=tp, fp=fp, fn=fn, tn=tn)


@dataclass
class MetricReport:
    yes: dict[str, float]
    no: dict[str, float]
    micro_f1: float
    accuracy: float
    zero_division: list[str]


def _prf_row(tp: int, fp: int, fn: int, flags: list[str], label: str) -> dict[str, float]:
    if tp + fp:
        precision = tp / (tp + fp)
    else:
        precision = 0.0
        flags.append(f"{label}.precision")
    if tp + fn:
        recall = tp / (tp + fn)
    else:
        recall = 0.0
        flags.append(f"{label}.recall")
    if precision + recall:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
        flags.append(f"{label}.f1")
    return {"precision": precision, "recall": recall, "f1": f1}


def prf(matrix: Confusion) -> MetricReport:
    """Per-label precision/recall/F1 plus micro-averaged F1.

    The NO row treats NO as positive. Micro-F1 equals accuracy for this
    single-label binary task. Zero denominators yield 0 and a flag.
    """
    flags: list[str] = []
    yes_row = _prf_row(matrix.tp, matrix.fp, matrix.fn, flags, "yes")
    no_row = _prf_row(matrix.tn, matrix.fn, matrix.fp, flags, "no")
    if matrix.total:
        accuracy = (matrix.tp + matrix.tn) / matrix.total
    else:
        accuracy = 0.0
        flags.append("accuracy")
    return MetricReport(
        yes=yes_row,
        no=no_row,
        micro_f1=accuracy,
        accuracy=accuracy,
        zero_division=flags,
    )


def spotcheck_agreement(human: dict[str, str], model: dict[str, str]) -> float:
    """Percent of exact label matches over a reviewed subset."""
    if set(human) != set(model):
        diff = sorted(set(human).symmetric_difference(model))
        raise ValueError(f"spot-check ref mismatch: {diff}")
    if not human:
        raise ValueError("empty spot-check set")
    matches = sum(1 for ref in human if human[ref] == model[ref])
    return 100.0 * matches / len(human)


def read_spotcheck(path: Path | str) -> dict[str, dict[str, str]]:
    """Load a `passage_id,affect,impact` spot-check CSV: facet -> passage
    id -> human label."""
    human: dict[str, dict[str, str]] = {"affect": {}, "impact": {}}
    for row in read_csv(path, ("passage_id", *human)):
        ref = row["passage_id"].strip()
        for facet, labels in human.items():
            labels[ref] = row[facet].strip().upper()
    return human


def evaluate(
    rounds: dict[str, ReliabilityData],
    overrides: dict[str, tuple[str, str]],
    annotations: Sequence["ActAnnotation"],
    spotcheck_path: Path | None,
) -> dict:
    """The metrics.json payload: alpha per round, the gold set built from
    the merged rounds and overrides, and the model scored against it. A
    passage is predicted YES when its annotation is an act; an unresolved
    one counts as NO and is tallied. With spotcheck_path, the percent
    agreement on affect and impact over its passages, each of which must be
    an act."""
    alpha_per_round = {name: krippendorff_alpha(data) for name, data in rounds.items()}
    gold = build_gold(merge_reliability(rounds), overrides)
    by_ref = {a.ref: a for a in annotations}
    missing = sorted(set(gold.labels) - set(by_ref))
    if missing:
        raise ValueError(f"gold passages missing from annotations: {missing}")
    scored = [by_ref[ref] for ref in gold.labels]
    matrix = confusion(gold, {a.ref: "YES" if a.is_act else "NO" for a in scored})
    payload = {
        "alpha_per_round": alpha_per_round,
        "gold_size": len(gold.labels),
        "gold_yes": sum(1 for v in gold.labels.values() if v == "YES"),
        "gold_no": sum(1 for v in gold.labels.values() if v == "NO"),
        "resolved_by_discussion": len(gold.resolved_by_discussion),
        "confusion": asdict(matrix),
        "metrics": asdict(prf(matrix)),
        "unresolved_scored_as_no": sum(1 for a in scored if a.status != "ok"),
    }
    if spotcheck_path is not None:
        human = read_spotcheck(spotcheck_path)
        for ref in human["affect"]:
            ann = by_ref.get(ref)
            if ann is None or not ann.is_act:
                raise ValueError(f"spot-check passage {ref} is not a resolved YES annotation")
        payload["spotcheck"] = {
            facet: spotcheck_agreement(
                labels, {ref: getattr(by_ref[ref], facet) for ref in labels})
            for facet, labels in human.items()
        }
    return payload
