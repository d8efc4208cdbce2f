"""Inter-annotator agreement, gold-label resolution, and scoring.

Human judgments have one shape, `Judgments`: passage id -> coder -> label.
A coder who did not judge a passage is absent from its mapping.
Krippendorff's alpha is computed from the coincidence matrix with the
nominal difference function, which needs only each passage's labels. The
three human inputs (annotation rounds, gold overrides, the spot-check) are
read here, and `evaluate` scores the model's annotations against them into
the metrics.json payload. `confusion` and `prf` return the JSON objects
that metrics.json holds under confusion and metrics.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from .config import read_csv
from .records import FACETS, ActAnnotation, left_sum

RELIABILITY_LABELS = ("YES", "MAYBE", "NO")
Judgments = dict[str, dict[str, str]]


def read_annotation_csv(path: Path | str) -> Judgments:
    """Load a `passage_id,annotator_id,label` CSV; a passage judged twice
    by one annotator is an error."""
    judgments: Judgments = {}
    rows = read_csv(path, ("passage_id", "annotator_id"), ("label",),
                    {"label": RELIABILITY_LABELS})
    for (ref, annotator), (label,) in rows.items():
        judgments.setdefault(ref, {})[annotator] = label
    return judgments


def merge_reliability(rounds: dict[str, Judgments]) -> Judgments:
    """Combine annotation rounds into one mapping; coders are namespaced by
    round (`round:annotator`) so the same person in two rounds stays
    distinct."""
    merged: Judgments = {}
    for name, judgments in rounds.items():
        for ref, coders in judgments.items():
            merged.setdefault(ref, {}).update(
                (f"{name}:{coder}", label) for coder, label in coders.items())
    if not merged:
        raise ValueError("no labels in any round")
    return merged


def krippendorff_alpha(judgments: Judgments) -> float:
    """Nominal-metric Krippendorff's alpha over the coincidence matrix.

    Each passage with m >= 2 labels contributes its ordered label pairs
    with weight 1/(m-1); passages with a single label are ignored. Passages
    are visited in sorted order, which with records.left_sum fixes the
    order of the float sums.
    """
    values = sorted({v for coders in judgments.values() for v in coders.values()})
    coincidence = {a: {b: 0.0 for b in values} for a in values}
    for ref in sorted(judgments):
        labels = list(judgments[ref].values())
        m = len(labels)
        if m < 2:
            continue
        weight = 1.0 / (m - 1)
        for j, a in enumerate(labels):
            for k, b in enumerate(labels):
                if j != k:
                    coincidence[a][b] += weight

    n = left_sum(left_sum(row.values()) for row in coincidence.values())
    if n == 0:
        raise ValueError("no pairable items: every item has fewer than 2 labels")
    totals = {a: left_sum(coincidence[a].values()) for a in values}

    observed = left_sum(coincidence[a][b] for a in values for b in values if a != b) / n
    expected = left_sum(
        totals[a] * totals[b] for a in values for b in values if a != b
    ) / (n * (n - 1))
    if expected == 0:
        raise ValueError("alpha undefined: zero expected disagreement")
    return 1.0 - observed / expected


def convert_maybe(labels: Iterable[str]) -> list[str]:
    """Collapse the three-way scheme to binary: MAYBE becomes YES."""
    return ["YES" if v == "MAYBE" else v for v in labels]


def read_gold_overrides(path: Path | str) -> dict[str, str]:
    """Load a `passage_id,label` override CSV (other columns, such as a
    resolution note, are ignored): passage id -> YES or NO; a passage
    overridden twice is an error."""
    rows = read_csv(path, ("passage_id",), ("label",), {"label": ("YES", "NO")})
    return {ref: label for (ref,), (label,) in rows.items()}


def build_gold(judgments: Judgments, overrides: dict[str, str] | None = None) -> dict[str, str]:
    """Resolve annotator labels to a binary gold set: passage id -> YES or NO.

    Labels are binarized (MAYBE -> YES) first. Unanimous passages resolve
    directly; disagreements require an override. Overrides always win, and
    an override for a passage no annotator judged is an error.
    """
    overrides = overrides or {}
    unjudged = sorted(overrides.keys() - judgments.keys())
    if unjudged:
        raise ValueError("gold overrides for passages no round judged: " + ", ".join(unjudged))
    gold: dict[str, str] = {}
    unresolved = []
    for ref in sorted(judgments):
        labels = [overrides[ref]] if ref in overrides else judgments[ref].values()
        binary = set(convert_maybe(labels))
        if len(binary) == 1:
            gold[ref] = binary.pop()
        else:
            unresolved.append(ref)
    if unresolved:
        raise ValueError(
            "unresolved annotator disagreement (no override) for: " + ", ".join(unresolved)
        )
    return gold


def confusion(gold: dict[str, str], predicted: dict[str, str]) -> dict[str, int]:
    """2x2 counts tp/fp/fn/tn with YES as the positive class; ref sets must match."""
    gold_refs = set(gold)
    pred_refs = set(predicted)
    if gold_refs != pred_refs:
        diff = sorted(gold_refs.symmetric_difference(pred_refs))
        raise ValueError(f"passage ref mismatch between gold and predictions: {diff}")
    tp = fp = fn = tn = 0
    for ref, g in gold.items():
        p = predicted[ref]
        if g == "YES" and p == "YES":
            tp += 1
        elif g == "NO" and p == "YES":
            fp += 1
        elif g == "YES" and p == "NO":
            fn += 1
        else:
            tn += 1
    return {"tp": tp, "fp": fp, "fn": fn, "tn": tn}


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


def prf(matrix: dict[str, int]) -> dict:
    """Per-label precision/recall/F1 plus micro-averaged F1.

    The NO row treats NO as positive. Micro-F1 equals accuracy for this
    single-label binary task. Zero denominators yield 0 and a flag.
    """
    tp, fp, fn, tn = matrix["tp"], matrix["fp"], matrix["fn"], matrix["tn"]
    flags: list[str] = []
    yes_row = _prf_row(tp, fp, fn, flags, "yes")
    no_row = _prf_row(tn, fn, fp, flags, "no")
    total = tp + fp + fn + tn
    if total:
        accuracy = (tp + tn) / total
    else:
        accuracy = 0.0
        flags.append("accuracy")
    return {"yes": yes_row, "no": no_row, "micro_f1": accuracy, "accuracy": accuracy,
            "zero_division": flags}


def spotcheck_agreement(human: dict[str, str], model: dict[str, str]) -> float:
    """Percent of exact label matches over a non-empty reviewed subset."""
    if set(human) != set(model):
        diff = sorted(set(human).symmetric_difference(model))
        raise ValueError(f"spot-check ref mismatch: {diff}")
    matches = sum(1 for ref in human if human[ref] == model[ref])
    return 100.0 * matches / len(human)


def read_spotcheck(path: Path | str) -> dict[str, dict[str, str]]:
    """Load a `passage_id,affect,impact` spot-check CSV: facet -> passage
    id -> human label. A file with no rows, a passage checked twice, or a
    label outside its facet's, is an error."""
    rows = read_csv(path, ("passage_id",), tuple(FACETS), FACETS)
    if not rows:
        raise ValueError(f"empty spot-check set in {path}")
    return {facet: {ref: cells[i] for (ref,), cells in rows.items()}
            for i, facet in enumerate(FACETS)}


def evaluate(
    rounds: dict[str, Judgments],
    overrides: dict[str, str],
    annotations: Sequence[ActAnnotation],
    spotcheck: dict[str, dict[str, str]] | None,
) -> dict:
    """The metrics.json payload: alpha per round, the gold set built from
    the merged rounds and overrides, and the model scored against it. A
    passage is predicted YES when its annotation is an act; an unresolved
    one counts as NO and is tallied. With spotcheck (from read_spotcheck),
    the percent agreement on affect and impact over its passages, each of
    which must be an act."""
    alpha_per_round = {name: krippendorff_alpha(judgments) for name, judgments in rounds.items()}
    gold = build_gold(merge_reliability(rounds), overrides)
    by_ref = {a.ref: a for a in annotations}
    missing = sorted(set(gold) - set(by_ref))
    if missing:
        raise ValueError(f"gold passages missing from annotations: {missing}")
    scored = [by_ref[ref] for ref in gold]
    matrix = confusion(gold, {a.ref: "YES" if a.is_act else "NO" for a in scored})
    payload = {
        "alpha_per_round": alpha_per_round,
        "gold_size": len(gold),
        "gold_yes": sum(1 for v in gold.values() if v == "YES"),
        "gold_no": sum(1 for v in gold.values() if v == "NO"),
        "resolved_by_discussion": len(overrides),
        "confusion": matrix,
        "metrics": prf(matrix),
        "unresolved_scored_as_no": sum(1 for a in scored if a.status != "ok"),
    }
    if spotcheck is not None:
        for ref in spotcheck["affect"]:
            ann = by_ref.get(ref)
            if ann is None or not ann.is_act:
                raise ValueError(f"spot-check passage {ref} is not a resolved YES annotation")
        payload["spotcheck"] = {
            facet: spotcheck_agreement(
                labels, {ref: getattr(by_ref[ref], facet) for ref in labels})
            for facet, labels in spotcheck.items()
        }
    return payload
