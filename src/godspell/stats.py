"""Statistical tests and descriptive analyses over annotations and topics,
and `analyze`, which turns an analysis.json request into the stats.json
payload. Each analysis returns the JSON object it contributes to
stats.json, so a value is defined once, as a key where it is computed.

The t-distribution CDF is computed from scratch via the regularized
incomplete beta function (continued fraction), so p-values do not depend
on an external stats library; the module imports the stdlib only. Every
float sum is `records.left_sum`, so stats.json reads the same on every
Python.
"""

from __future__ import annotations

import json
import logging
import math
from typing import Callable, Sequence

from .corpus import Novel, Passage, passage_statistics
from .records import FACETS, ActAnnotation, left_sum

log = logging.getLogger(__name__)

_CF_TOL = 1e-12
_CF_MAX_ITER = 300
_FPMIN = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function, evaluated with
    the modified Lentz scheme."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_TOL:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError("betainc_reg requires a > 0 and b > 0")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_cdf(t: float, df: float) -> float:
    """CDF of Student's t distribution with df degrees of freedom."""
    if df <= 0:
        raise ValueError("df must be positive")
    p = _two_sided_p(t, df)
    return 0.5 * p if t < 0 else 1.0 - 0.5 * p


def _two_sided_p(t: float, df: float) -> float:
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    return betainc_reg(df / 2.0, 0.5, df / (df + t * t))


def pearson(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Pearson correlation and two-sided p-value (t transform, n-2 df)."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 3:
        raise ValueError("pearson requires at least 3 points")
    mx = left_sum(x) / n
    my = left_sum(y) / n
    sxx = left_sum((xi - mx) ** 2 for xi in x)
    syy = left_sum((yi - my) ** 2 for yi in y)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("undefined correlation: constant input")
    sxy = left_sum((xi - mx) * (yi - my) for xi, yi in zip(x, y))
    r = sxy / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        return r, 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return r, _two_sided_p(t, n - 2)


def ttest_ind(a: Sequence[float], b: Sequence[float]) -> dict:
    """Independent two-sample Student t-test with pooled variance, two-sided;
    flag is "zero variance" when the pooled variance is 0."""
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        raise ValueError("each group needs at least 2 values")
    ma = left_sum(a) / na
    mb = left_sum(b) / nb
    va = left_sum((v - ma) ** 2 for v in a) / (na - 1)
    vb = left_sum((v - mb) ** 2 for v in b) / (nb - 1)
    df = float(na + nb - 2)
    pooled = ((na - 1) * va + (nb - 1) * vb) / df
    se = math.sqrt(pooled * (1.0 / na + 1.0 / nb))
    result = {"df": df, "mean_a": ma, "mean_b": mb, "n_a": na, "n_b": nb, "flag": None}

    if se == 0.0:
        if ma == mb:
            return {**result, "statistic": 0.0, "p_two_sided": 1.0, "flag": "zero variance"}
        t = math.inf if ma > mb else -math.inf
        return {**result, "statistic": t, "p_two_sided": 0.0, "flag": "zero variance"}

    t = (ma - mb) / se
    return {**result, "statistic": t, "p_two_sided": _two_sided_p(t, df)}


def group_compare(
    values: dict[str, float],
    novels: Sequence["Novel"],
    grouping: str,
    series_tag: str | None = None,
) -> dict:
    """Compare per-novel means between two groups of the novels in values:
    ttest_ind of the two groups, with their labels as group_a and group_b.

    grouping='series' contrasts novels carrying series_tag (any tag if not
    named) against the rest. grouping='gender' contrasts female- vs
    male-authored novels after dropping tagged-series novels and
    mixed/unknown-gender author teams.
    """
    novel = {n.id: n for n in novels}
    if grouping == "series":
        if series_tag is None:
            in_group = [i for i in values if novel[i].series_tag]
        else:
            in_group = [i for i in values if novel[i].series_tag == series_tag]
        out_group = [i for i in values if i not in in_group]
        label_a = series_tag or "series"
        label_b = "rest"
        if not in_group:
            raise ValueError(f"empty group after series filter (tag={series_tag!r})")
        if not out_group:
            raise ValueError("empty comparison group: every novel carries the series tag")
    elif grouping == "gender":
        untagged = [i for i in values if not novel[i].series_tag]
        in_group = [i for i in untagged if novel[i].gender_group() == "female"]
        out_group = [i for i in untagged if novel[i].gender_group() == "male"]
        label_a, label_b = "female", "male"
        if not in_group:
            raise ValueError("empty female group after gender filters")
        if not out_group:
            raise ValueError("empty male group after gender filters")
    else:
        raise ValueError(f"unknown grouping {grouping!r}")

    result = ttest_ind([values[i] for i in in_group], [values[i] for i in out_group])
    return {**result, "group_a": label_a, "group_b": label_b}


def act_proportions(annotations: Sequence[ActAnnotation]) -> dict:
    """Per-novel share of passages whose final verdict is YES, and, when
    there are any, the per-novel shares' mean, min and max.

    Unresolved annotations count as NO and are tallied separately.
    """
    totals: dict[str, int] = {}
    yes: dict[str, int] = {}
    unresolved = 0
    for ann in annotations:
        totals[ann.novel_id] = totals.get(ann.novel_id, 0) + 1
        if ann.status != "ok":
            unresolved += 1
        elif ann.is_act:
            yes[ann.novel_id] = yes.get(ann.novel_id, 0) + 1
    total = sum(totals.values())
    yes_total = sum(yes.values())
    per_novel = {nid: yes.get(nid, 0) / count for nid, count in totals.items()}
    result = {
        "per_novel": per_novel,
        "corpus_share": (yes_total / total) if total else 0.0,
        "yes_count": yes_total,
        "total": total,
        "unresolved_count": unresolved,
    }
    if per_novel:
        shares = list(per_novel.values())
        result.update(per_novel_mean=left_sum(shares) / len(shares), per_novel_min=min(shares),
                      per_novel_max=max(shares))
    return result


def position_density(
    annotations: Sequence[ActAnnotation],
    passages: Sequence["Passage"],
    bins: int,
) -> dict:
    """Histogram of YES passages over normalized narrative position [0, 1],
    normalized to unit area, with the mean position (None without acts)."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    position = {p.ref: p.normalized_position for p in passages}
    act_refs = [ann.ref for ann in annotations if ann.is_act]
    acts = [position[ref] for ref in act_refs if ref in position]
    if len(acts) < len(act_refs):
        log.warning("%d acts have no passage in the passage list; left out of the position density",
                    len(act_refs) - len(acts))
    counts = [0] * bins
    for pos in acts:
        counts[min(int(pos * bins), bins - 1)] += 1
    n = len(acts)
    return {
        "bin_edges": [i / bins for i in range(bins + 1)],
        "counts": counts,
        "density": [c * bins / n if n else 0.0 for c in counts],
        "mean_position": left_sum(acts) / n if n else None,
        "n_acts": n,
    }


def characterization_shares(annotations: Sequence[ActAnnotation]) -> dict:
    """For each facet of FACETS, per-novel shares of its labels among YES
    acts (per_novel_<facet>: label -> novel id -> share), plus corpus-level
    aggregates (corpus_<facet>: label -> share). Novels without YES acts are
    excluded."""
    acts: dict[str, list] = {}
    for ann in annotations:
        if ann.is_act:
            acts.setdefault(ann.novel_id, []).append(ann)

    all_ids = {ann.novel_id for ann in annotations}
    for novel_id in sorted(all_ids - set(acts)):
        log.warning("novel %s has no YES acts; excluded from characterization shares", novel_id)

    def share(group: list, facet: str, label: str) -> float:
        return sum(1 for a in group if getattr(a, facet) == label) / len(group) if group else 0.0

    flat = [a for group in acts.values() for a in group]
    shares = {}
    for facet, labels in FACETS.items():
        shares[f"per_novel_{facet}"] = {
            label: {novel_id: share(group, facet, label) for novel_id, group in acts.items()}
            for label in labels
        }
        shares[f"corpus_{facet}"] = {label: share(flat, facet, label) for label in labels}
    return shares


class AnalysisError(ValueError):
    """analysis.json as a whole is unusable, as opposed to one bad entry."""


def _topic_index(value) -> int:
    """An analysis.json topic index: an integer, or a string of one."""
    try:
        return int(value)
    except (TypeError, OverflowError):
        raise ValueError(f"topic index {value!r} is not an integer") from None


def _comparison_name(spec) -> str:
    if not isinstance(spec, dict):
        return json.dumps(spec)
    return spec.get("name") or f"{spec.get('kind')}~{spec.get('grouping')}"


def _analysis_entry(entry: dict, compute: Callable[..., dict], *args) -> dict:
    """entry with the fields compute(*args) returns, or with the error it
    raised: a bad analysis entry spoils only itself."""
    try:
        entry.update(compute(*args))
    except (KeyError, ValueError) as e:
        entry["error"] = str(e)
    return entry


def analyze(
    analysis: dict,
    novels: Sequence["Novel"],
    passages: Sequence["Passage"],
    annotations: Sequence[ActAnnotation],
    prominence: dict[str, list[float]],
    k: int,
) -> dict:
    """The stats.json payload: act shares, the act position density,
    per-novel topic prominence (novel id -> K percentages) and its mean, the
    correlations and group comparisons that analysis (the parsed
    analysis.json) asks for, and the characterization shares.

    An analysis entry that cannot be computed (too few novels, an unknown
    topic, an empty group, a malformed entry) carries an error and leaves
    the others alone. Topic pairs correlate over the novels in prominence
    order; act share against a topic over the sorted shared novel ids.
    AnalysisError naming the field when position_bins is not a positive
    integer or an entry list is not a list.
    """
    bins = analysis.get("position_bins", 20)
    if isinstance(bins, bool) or not isinstance(bins, int) or bins < 1:
        raise AnalysisError(f"position_bins must be an integer >= 1, got {bins!r}")
    for key in ("topic_correlations", "act_share_topic_correlations", "comparisons"):
        if not isinstance(analysis.get(key, []), list):
            raise AnalysisError(f"{key} must be a list, got {analysis[key]!r}")
    act = act_proportions(annotations)
    act_share = act["per_novel"]
    density = position_density(annotations, passages, bins=bins)
    mean_prominence = [
        left_sum(p[t] for p in prominence.values()) / len(prominence) for t in range(k)
    ] if prominence else []
    characterization = characterization_shares(annotations)

    def topic_values(topic: int) -> dict[str, float]:
        if not 0 <= topic < k:
            raise ValueError(f"topic index {topic} out of range for K={k}")
        return {novel_id: p[topic] for novel_id, p in prominence.items()}

    def topic_pair(pair) -> dict:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"a topic pair is a list [a, b], not {pair!r}")
        a, b = _topic_index(pair[0]), _topic_index(pair[1])
        r, p = pearson(list(topic_values(a).values()), list(topic_values(b).values()))
        return {"topics": [a, b], "r": r, "p": p}

    def act_topic(entry) -> dict:
        topic = _topic_index(entry)
        values = topic_values(topic)
        shared = sorted(set(act_share) & set(values))
        r, p = pearson([act_share[n] for n in shared], [values[n] for n in shared])
        return {"topic": topic, "r": r, "p": p}

    def comparison(spec) -> dict:
        if not isinstance(spec, dict):
            raise ValueError(f"a comparison is an object, not {spec!r}")
        kind = spec.get("kind")
        if kind == "act_share":
            values = act_share
        elif kind == "topic_prominence":
            values = topic_values(_topic_index(spec["topic"]))
        elif kind == "characterization":
            facet, label = spec["facet"], spec["label"]
            if facet not in FACETS:
                raise ValueError(f"unknown characterization facet {facet!r}")
            table = characterization[f"per_novel_{facet}"]
            if not isinstance(label, str) or label.upper() not in table:
                raise ValueError(f"unknown {facet} label {label!r}")
            values = table[label.upper()]
        else:
            raise ValueError(f"unknown comparison kind {kind!r}")
        return group_compare(values, novels, spec["grouping"],
                             series_tag=analysis.get("series_tag"))

    return {
        "passages": passage_statistics(passages),
        "novels": {
            n.id: {"title": n.title, "series_tag": n.series_tag, "gender_group": n.gender_group()}
            for n in novels
        },
        "act_proportions": act,
        "position_density": density,
        "topic_prominence": {"per_novel": prominence, "mean": mean_prominence},
        "topic_correlations": [
            _analysis_entry({"topics": pair}, topic_pair, pair)
            for pair in analysis.get("topic_correlations", [])
        ],
        "act_share_topic_correlations": [
            _analysis_entry({"topic": t}, act_topic, t)
            for t in analysis.get("act_share_topic_correlations", [])
        ],
        "comparisons": [
            _analysis_entry({"name": _comparison_name(spec)}, comparison, spec)
            for spec in analysis.get("comparisons", [])
        ],
        "characterization": characterization,
    }
