"""Run configuration and report emission.

Figure data ships as CSV (plot-toolkit agnostic) and the human-readable
summary as markdown. Every number in the summary is formatted straight
from the JSON results; nothing is recomputed at the report layer.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
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
    segment_size: int
    passage_cap: int
    topics_k: int
    topics_sweeps: int
    topics_burn_in: int
    topics_optimize_interval: int
    topics_seed: int
    topics_min_count: int
    topics_downsample: bool
    topics_downsample_seed: int
    stopwords_path: Path | None
    topic_labels_path: Path | None
    model_backend: str
    workers: int
    cache_dir: Path
    prompt_registry_path: Path | None
    prompt_versions: dict
    annotation_rounds: list[Path]
    gold_overrides_path: Path | None
    spotcheck_path: Path | None
    analysis_path: Path | None


def _resolve(base: Path, value: str) -> Path:
    path = Path(value)
    return path if path.is_absolute() else base / path


def _require_file(path: Path, what: str) -> Path:
    if not path.is_file():
        raise ConfigError(f"{what} not found: {path}")
    return path


_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string",
               list: "a list", dict: "a JSON object"}


def _typed(key: str, value, kind: type):
    """value, checked to be the JSON type kind stands for (an integer is a
    number too; a boolean is neither); ConfigError naming key otherwise."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, accepted) and (kind is bool or not isinstance(value, bool)):
        return float(value) if kind is float else value
    raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")


def _optional_file(base: Path, key: str, value, what: str) -> Path | None:
    if value is None or value == "":
        return None
    return _require_file(_resolve(base, _typed(key, value, str)), what)


def load_run_config(config_path: Path | str, *, output_dir: str | None = None,
                    cache_dir: str | None = None, endpoint: str | None = None) -> RunConfig:
    """Load a run config JSON; relative paths resolve against the config
    file. Each setting's default is written here and nowhere else. Only
    where things are can be set from outside the file: output_dir,
    cache_dir and endpoint (the CLI flags), when given, beat the config
    file, and GODSPELL_ENDPOINT beats it for the endpoint. A value of the
    wrong JSON type is a ConfigError that names its key."""
    config_path = Path(config_path)
    if not config_path.is_file():
        raise ConfigError(f"config file not found: {config_path}")
    try:
        payload = json.loads(config_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    payload = _typed("config", payload, dict)
    base = config_path.parent

    if "manifest" not in payload:
        raise ConfigError("config must name a manifest")
    manifest = _require_file(_resolve(base, _typed("manifest", payload["manifest"], str)),
                             "manifest")

    seg, topics, model, prompts, evaluation = (
        _typed(name, payload.get(name, {}), dict)
        for name in ("segmentation", "topics", "model", "prompts", "evaluation")
    )

    stopwords_path = _optional_file(base, "topics.stopwords", topics.get("stopwords"),
                                    "stopword file")
    labels_path = _optional_file(base, "topics.labels", topics.get("labels"),
                                 "topic label file")
    registry_path = _optional_file(base, "prompts.registry", prompts.get("registry"),
                                   "prompt registry")
    rounds = [
        _require_file(_resolve(base, _typed("evaluation.rounds", p, str)),
                      "annotation round file")
        for p in _typed("evaluation.rounds", evaluation.get("rounds", []), list)
    ]
    gold_path = _optional_file(base, "evaluation.gold_overrides",
                               evaluation.get("gold_overrides"), "gold override file")
    spotcheck_path = _optional_file(base, "evaluation.spotcheck", evaluation.get("spotcheck"),
                                    "spot-check file")
    analysis_path = _optional_file(base, "analysis", payload.get("analysis"), "analysis config")

    if output_dir is None:
        output_dir = payload.get("output_dir", "out")
    output_dir = _resolve(base, _typed("output_dir", output_dir, str))
    try:
        output_dir.mkdir(parents=True, exist_ok=True)
        probe = output_dir / ".write-probe"
        probe.write_text("", encoding="utf-8")
        probe.unlink()
    except OSError as e:
        raise ConfigError(f"output directory not writable: {output_dir} ({e})") from None

    if endpoint is None:
        endpoint = os.environ.get(ENDPOINT_ENV_VAR) or model.get("endpoint", ModelConfig.endpoint)
    endpoint = _typed("model.endpoint", endpoint, str)
    backend = model.get("backend", "http")
    if backend not in ("http", "mock"):
        raise ConfigError(f"unknown model backend {backend!r}")

    if cache_dir is None:
        cache_dir = payload.get("cache_dir")
    temperature = _typed("model.temperature",
                         model.get("temperature", ModelConfig.temperature), float)
    max_retries = _typed("model.max_retries",
                         model.get("max_retries", ModelConfig.max_retries), int)
    timeout = _typed("model.timeout", model.get("timeout", ModelConfig.timeout), float)
    try:
        model_config = ModelConfig(
            model=_typed("model.name", model.get("name", "gemma3n:e4b"), str),
            endpoint=endpoint,
            temperature=temperature,
            max_retries=max_retries,
            timeout=timeout,
        )
    except ValueError as e:
        raise ConfigError(f"model: {e}") from None

    config = RunConfig(
        manifest=manifest,
        output_dir=output_dir,
        model=model_config,
        segment_size=_typed("segmentation.segment_size", seg.get("segment_size", 300), int),
        passage_cap=_typed("segmentation.passage_cap", seg.get("passage_cap", 500), int),
        topics_k=_typed("topics.k", topics.get("k", 65), int),
        topics_sweeps=_typed("topics.sweeps", topics.get("sweeps", 1000), int),
        topics_burn_in=_typed("topics.burn_in", topics.get("burn_in", 50), int),
        topics_optimize_interval=_typed("topics.optimize_interval",
                                        topics.get("optimize_interval", 10), int),
        topics_seed=_typed("topics.seed", topics.get("seed", 0), int),
        topics_min_count=_typed("topics.min_count", topics.get("min_count", 5), int),
        topics_downsample=_typed("topics.downsample", topics.get("downsample", True), bool),
        topics_downsample_seed=_typed("topics.downsample_seed",
                                      topics.get("downsample_seed", 0), int),
        stopwords_path=stopwords_path,
        topic_labels_path=labels_path,
        model_backend=backend,
        workers=_typed("model.workers", model.get("workers", 4), int),
        cache_dir=(_resolve(base, _typed("cache_dir", cache_dir, str)) if cache_dir
                   else output_dir / "cache"),
        prompt_registry_path=registry_path,
        prompt_versions=dict(_typed("prompts.versions", prompts.get("versions", {}), dict)),
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
        raise ConfigError("model.workers must be >= 1")
    return config


def fmt(value) -> str:
    """Render one JSON value for the markdown summary."""
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def read_csv(path: Path | str, columns: tuple[str, ...]) -> list[dict[str, str]]:
    """The rows of a CSV file with a header line, as dicts; ConfigError
    naming the file when the header lacks one of columns, and the file and
    line when a row is too short to have a cell for one of them."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise ConfigError(f"{path}: missing column {', '.join(map(repr, missing))}")
        rows = []
        for row in reader:
            short = [c for c in columns if row[c] is None]
            if short:
                raise ConfigError(f"{path}: line {reader.line_num}: no cell for column "
                                  f"{', '.join(map(repr, short))}")
            rows.append(row)
        return rows


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
