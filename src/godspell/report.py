"""Run configuration and report emission.

Figure data ships as CSV (plot-toolkit agnostic) and the human-readable
summary as markdown. Every number in the summary is formatted straight
from the JSON results; nothing is recomputed at the report layer.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .annotate import ModelConfig

ENDPOINT_ENV_VAR = "GODSPELL_ENDPOINT"


class ConfigError(ValueError):
    """Raised for unreadable, inconsistent, or incomplete run configs."""


@dataclass
class RunConfig:
    manifest: Path
    output_dir: Path
    model: ModelConfig
    segment_size: int = 300
    passage_cap: int = 500
    topics_k: int = 65
    topics_sweeps: int = 1000
    topics_burn_in: int = 50
    topics_optimize_interval: int = 10
    topics_seed: int = 0
    topics_min_count: int = 5
    topics_downsample: bool = True
    topics_downsample_seed: int = 0
    stopwords_path: Path | None = None
    topic_labels_path: Path | None = None
    model_backend: str = "http"
    workers: int = 4
    cache_dir: Path | None = None
    prompt_registry_path: Path | None = None
    prompt_versions: dict = field(default_factory=dict)
    annotation_rounds: list[Path] = field(default_factory=list)
    gold_overrides_path: Path | None = None
    spotcheck_path: Path | None = None
    analysis_path: Path | None = None

    def resolved_cache_dir(self) -> Path:
        return self.cache_dir if self.cache_dir is not None else self.output_dir / "cache"


def _resolve(base: Path, value: str) -> Path:
    path = Path(value)
    return path if path.is_absolute() else base / path


def _require_file(path: Path, what: str) -> Path:
    if not path.is_file():
        raise ConfigError(f"{what} not found: {path}")
    return path


def load_run_config(config_path: Path | str, overrides: dict | None = None) -> RunConfig:
    """Load a run config JSON; relative paths resolve against the config
    file. Overrides (from CLI flags) take precedence; GODSPELL_ENDPOINT
    beats the config file for the endpoint."""
    config_path = Path(config_path)
    if not config_path.is_file():
        raise ConfigError(f"config file not found: {config_path}")
    try:
        payload = json.loads(config_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    base = config_path.parent
    overrides = overrides or {}

    def override(name: str, default):
        value = overrides.get(name)
        return default if value is None else value

    if "manifest" not in payload:
        raise ConfigError("config must name a manifest")
    manifest = _require_file(_resolve(base, payload["manifest"]), "manifest")

    seg = payload.get("segmentation", {})
    topics = payload.get("topics", {})
    model = payload.get("model", {})
    prompts = payload.get("prompts", {})
    evaluation = payload.get("evaluation", {})

    stopwords = topics.get("stopwords")
    stopwords_path = (
        _require_file(_resolve(base, stopwords), "stopword file") if stopwords else None
    )
    labels = topics.get("labels")
    labels_path = _require_file(_resolve(base, labels), "topic label file") if labels else None
    registry = prompts.get("registry")
    registry_path = (
        _require_file(_resolve(base, registry), "prompt registry") if registry else None
    )
    rounds = [
        _require_file(_resolve(base, p), "annotation round file")
        for p in evaluation.get("rounds", [])
    ]
    gold = evaluation.get("gold_overrides")
    gold_path = _require_file(_resolve(base, gold), "gold override file") if gold else None
    spotcheck = evaluation.get("spotcheck")
    spotcheck_path = (
        _require_file(_resolve(base, spotcheck), "spot-check file") if spotcheck else None
    )
    analysis = payload.get("analysis")
    analysis_path = (
        _require_file(_resolve(base, analysis), "analysis config") if analysis else None
    )

    output_dir = _resolve(base, override("output_dir", payload.get("output_dir", "out")))
    try:
        output_dir.mkdir(parents=True, exist_ok=True)
        probe = output_dir / ".write-probe"
        probe.write_text("", encoding="utf-8")
        probe.unlink()
    except OSError as e:
        raise ConfigError(f"output directory not writable: {output_dir} ({e})") from None

    endpoint = override(
        "endpoint",
        os.environ.get(ENDPOINT_ENV_VAR) or model.get("endpoint", "http://localhost:11434"),
    )
    backend = override("backend", model.get("backend", "http"))
    if backend not in ("http", "mock"):
        raise ConfigError(f"unknown model backend {backend!r}")

    cache_dir = override("cache_dir", payload.get("cache_dir"))
    try:
        model_config = ModelConfig(
            model=override("model", model.get("name", "gemma3n:e4b")),
            endpoint=endpoint,
            temperature=float(override("temperature", model.get("temperature", 0.0))),
            max_retries=int(model.get("max_retries", 3)),
            timeout=float(model.get("timeout", 120.0)),
        )
    except ValueError as e:
        raise ConfigError(f"model: {e}") from None

    config = RunConfig(
        manifest=manifest,
        output_dir=output_dir,
        model=model_config,
        segment_size=int(seg.get("segment_size", 300)),
        passage_cap=int(seg.get("passage_cap", 500)),
        topics_k=int(override("k", topics.get("k", 65))),
        topics_sweeps=int(override("sweeps", topics.get("sweeps", 1000))),
        topics_burn_in=int(topics.get("burn_in", 50)),
        topics_optimize_interval=int(topics.get("optimize_interval", 10)),
        topics_seed=int(override("seed", topics.get("seed", 0))),
        topics_min_count=int(topics.get("min_count", 5)),
        topics_downsample=bool(topics.get("downsample", True)),
        topics_downsample_seed=int(topics.get("downsample_seed", 0)),
        stopwords_path=stopwords_path,
        topic_labels_path=labels_path,
        model_backend=backend,
        workers=int(override("workers", model.get("workers", 4))),
        cache_dir=_resolve(base, cache_dir) if cache_dir else None,
        prompt_registry_path=registry_path,
        prompt_versions=dict(prompts.get("versions", {})),
        annotation_rounds=rounds,
        gold_overrides_path=gold_path,
        spotcheck_path=spotcheck_path,
        analysis_path=analysis_path,
    )
    if config.segment_size < 1 or config.passage_cap < 1:
        raise ConfigError("segment_size and passage_cap must be >= 1")
    if config.topics_k < 1:
        raise ConfigError("topics.k must be >= 1")
    if config.topics_sweeps < 1:
        raise ConfigError("topics.sweeps must be >= 1")
    if config.workers < 1:
        raise ConfigError("workers must be >= 1")
    return config


def fmt(value) -> str:
    """Render one JSON value for the markdown summary."""
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def figure_data(results: dict, figures_dir: Path | str) -> list[Path]:
    """Emit plot-ready CSV tables from the stats results."""
    figures_dir = Path(figures_dir)
    figures_dir.mkdir(parents=True, exist_ok=True)
    novels = results.get("novels", {})
    written = []

    def novel_row(novel_id: str) -> tuple[str, str]:
        meta = novels.get(novel_id, {})
        return meta.get("title", ""), meta.get("series_tag") or ""

    shares = results["act_proportions"]["per_novel"]
    rows = []
    for novel_id in sorted(shares, key=lambda n: (-shares[n], n)):
        title, tag = novel_row(novel_id)
        rows.append([novel_id, title, shares[novel_id], tag])
    path = figures_dir / "act_share_by_novel.csv"
    write_csv(path, ["novel_id", "title", "act_share", "series_tag"], rows)
    written.append(path)

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
    for filename, table in (
        ("individual_share_by_novel.csv",
         characterization.get("per_novel_affect", {}).get("INDIVIDUAL", {})),
        ("loving_share_by_novel.csv",
         characterization.get("per_novel_impact", {}).get("LOVING", {})),
    ):
        rows = []
        for novel_id in sorted(table, key=lambda n: (-table[n], n)):
            title, tag = novel_row(novel_id)
            rows.append([novel_id, title, table[novel_id], tag])
        path = figures_dir / filename
        write_csv(path, ["novel_id", "title", "share", "series_tag"], rows)
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

    correlations = results.get("topic_correlations", [])
    if correlations:
        lines += ["## Topic correlations", "", "| topics | r | p (two-sided) |", "|---|---|---|"]
        for row in correlations:
            pair = f"{row['topics'][0]} vs {row['topics'][1]}"
            if "error" in row:
                lines.append(f"| {pair} | - | {row['error']} |")
            else:
                lines.append(f"| {pair} | {fmt(row['r'])} | {fmt(row['p'])} |")
        lines.append("")

    act_topic = results.get("act_share_topic_correlations", [])
    if act_topic:
        lines += [
            "## Act share vs topic prominence",
            "",
            "| topic | r | p (two-sided) |",
            "|---|---|---|",
        ]
        for row in act_topic:
            if "error" in row:
                lines.append(f"| {row['topic']} | - | {row['error']} |")
            else:
                lines.append(f"| {row['topic']} | {fmt(row['r'])} | {fmt(row['p'])} |")
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
