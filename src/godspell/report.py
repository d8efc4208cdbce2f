"""Report emission: the figure data and the Markdown summary, written from
the stats (and optional metrics) JSON.

Figure data ships as CSV (plot-toolkit agnostic) and the human-readable
summary as markdown. Every number in the summary is formatted straight
from the JSON results; nothing is recomputed at the report layer.
"""

from __future__ import annotations

from pathlib import Path

from .config import write_csv


def fmt(value) -> str:
    """Render one JSON value for the markdown summary."""
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def figure_data(results: dict, figures_dir: Path | str) -> list[Path]:
    """Emit plot-ready CSV tables from the stats results."""
    figures_dir = Path(figures_dir)
    figures_dir.mkdir(parents=True, exist_ok=True)
    novels = results.get("novels", {})
    written = []

    density = results["position_density"]
    edges = density["bin_edges"]
    rows = [
        [edges[i], edges[i + 1], density["counts"][i], density["density"][i]]
        for i in range(len(density["counts"]))
    ]
    path = figures_dir / "position_density.csv"
    write_csv(path, ["bin_start", "bin_end", "count", "density"], rows)
    written.append(path)

    characterization = results.get("characterization", {})
    for filename, column, table in (
        ("act_share_by_novel.csv", "act_share", results["act_proportions"]["per_novel"]),
        ("individual_share_by_novel.csv", "share",
         characterization.get("per_novel_affect", {}).get("INDIVIDUAL", {})),
        ("loving_share_by_novel.csv", "share",
         characterization.get("per_novel_impact", {}).get("LOVING", {})),
    ):
        rows = []
        for novel_id in sorted(table, key=lambda n: (-table[n], n)):
            meta = novels.get(novel_id, {})
            rows.append([novel_id, meta.get("title", ""), table[novel_id],
                         meta.get("series_tag") or ""])
        path = figures_dir / filename
        write_csv(path, ["novel_id", "title", column, "series_tag"], rows)
        written.append(path)

    prominence = results.get("topic_prominence", {})
    means = prominence.get("mean", [])
    labels = results.get("topic_labels", {})
    order = sorted(range(len(means)), key=lambda t: (-means[t], t))
    rows = [[t, labels.get(str(t), ""), means[t]] for t in order]
    path = figures_dir / "topic_prominence_ranking.csv"
    write_csv(path, ["topic", "label", "mean_prominence"], rows)
    written.append(path)
    return written


def _comparison_rows(results: dict) -> list[str]:
    lines = [
        "| comparison | group A | group B | mean A | mean B | t | df | p (two-sided) |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for comp in results.get("comparisons", []):
        name = comp.get("name", "?")
        if "error" in comp:
            lines.append(f"| {name} | - | - | - | - | - | - | {comp['error']} |")
            continue
        lines.append(
            f"| {name} | {comp['group_a']} ({fmt(comp['n_a'])}) "
            f"| {comp['group_b']} ({fmt(comp['n_b'])}) "
            f"| {fmt(comp['mean_a'])} | {fmt(comp['mean_b'])} "
            f"| {fmt(comp['statistic'])} | {fmt(comp['df'])} | {fmt(comp['p_two_sided'])} |"
        )
    return lines


def markdown_summary(results: dict, metrics: dict | None = None) -> str:
    """Human-readable report over the stats (and optional metrics) JSON."""
    lines = ["# Corpus report", ""]

    passages = results.get("passages")
    if passages:
        lines += [
            "## Passages",
            "",
            f"- passages: {fmt(passages['passage_count'])} across "
            f"{fmt(passages['novel_count'])} novels",
            f"- per novel: mean {fmt(passages['mean_per_novel'])}, "
            f"min {fmt(passages['min_per_novel'])}, max {fmt(passages['max_per_novel'])}",
            f"- mean passage length: {fmt(passages['mean_word_length'])} words",
            "",
        ]

    if metrics:
        lines += ["## Annotation quality", ""]
        alpha = metrics.get("alpha_per_round", {})
        if alpha:
            lines.append("- agreement (Krippendorff's alpha) per round: " + ", ".join(
                f"{name} = {fmt(value)}" for name, value in alpha.items()
            ))
        report = metrics.get("metrics")
        if report:
            lines += [
                "",
                "| label | recall | precision | F1 |",
                "|---|---|---|---|",
                f"| YES | {fmt(report['yes']['recall'])} | {fmt(report['yes']['precision'])} "
                f"| {fmt(report['yes']['f1'])} |",
                f"| NO | {fmt(report['no']['recall'])} | {fmt(report['no']['precision'])} "
                f"| {fmt(report['no']['f1'])} |",
                f"| overall (micro-F1) | - | - | {fmt(report['micro_f1'])} |",
            ]
        if "unresolved_scored_as_no" in metrics:
            lines.append(
                f"- unresolved pipeline outputs scored as NO: "
                f"{fmt(metrics['unresolved_scored_as_no'])}"
            )
        spotcheck = metrics.get("spotcheck")
        if spotcheck:
            lines.append("- spot-check agreement: " + ", ".join(
                f"{facet} = {fmt(value)}%" for facet, value in spotcheck.items()
            ))
        lines.append("")

    acts = results.get("act_proportions")
    if acts:
        lines += ["## Acts of God", ""]
        if acts["yes_count"] == 0:
            lines += ["No acts detected.", ""]
        else:
            lines += [
                f"- passages with acts: {fmt(acts['yes_count'])} of {fmt(acts['total'])} "
                f"(corpus share {fmt(acts['corpus_share'])})",
                f"- per-novel share: mean {fmt(acts['per_novel_mean'])}, "
                f"min {fmt(acts['per_novel_min'])}, max {fmt(acts['per_novel_max'])}",
            ]
            if acts.get("unresolved_count"):
                lines.append(f"- unresolved passages (counted NO): {fmt(acts['unresolved_count'])}")
            density = results.get("position_density", {})
            if density.get("mean_position") is not None:
                lines.append(f"- mean normalized act position: {fmt(density['mean_position'])}")
            lines.append("")

    for key, title, column in (
        ("topic_correlations", "Topic correlations", "topics"),
        ("act_share_topic_correlations", "Act share vs topic prominence", "topic"),
    ):
        if not results.get(key):
            continue
        lines += [f"## {title}", "", f"| {column} | r | p (two-sided) |", "|---|---|---|"]
        for row in results[key]:
            name = " vs ".join(map(str, row["topics"])) if "topics" in row else row["topic"]
            if "error" in row:
                lines.append(f"| {name} | - | {row['error']} |")
            else:
                lines.append(f"| {name} | {fmt(row['r'])} | {fmt(row['p'])} |")
        lines.append("")

    if results.get("comparisons"):
        lines += ["## Group comparisons", ""]
        lines += _comparison_rows(results)
        lines.append("")

    characterization = results.get("characterization")
    if characterization and acts and acts["yes_count"]:
        lines += ["## Characterization of acts", ""]
        affect = characterization["corpus_affect"]
        impact = characterization["corpus_impact"]
        lines.append("- affect shares: " + ", ".join(
            f"{label} = {fmt(affect[label])}" for label in sorted(affect)
        ))
        lines.append("- impact shares: " + ", ".join(
            f"{label} = {fmt(impact[label])}" for label in sorted(impact)
        ))
        lines.append("")

    return "\n".join(lines).rstrip() + "\n"
