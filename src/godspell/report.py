"""Run configuration (`RunConfig`, and the `ModelConfig` it builds for
annotate) and report emission.

Figure data ships as CSV (plot-toolkit agnostic) and the human-readable
summary as markdown. Every number in the summary is formatted straight
from the JSON results; nothing is recomputed at the report layer.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

ENDPOINT_ENV_VAR = "GODSPELL_ENDPOINT"


class ConfigError(ValueError):
    """Raised for unreadable, inconsistent, or incomplete run configs."""


# the path kinds: an existing file, a list of them, a directory that is made
# if missing and must be writable
FILE, FILES, DIR = "file", "files", "dir"
REQUIRED = object()


class Setting(NamedTuple):
    """One run setting: its config key (`section.name`, or a top-level
    name); its kind, which is bool, int, float, str or dict (that JSON
    type), a path kind, or a tuple of the strings allowed; its default,
    where None leaves an optional path unset, as does a null or empty value
    in the file; and the lower bound of a number."""

    key: str
    kind: object
    default: object = None
    minimum: int | None = None


@dataclass
class ModelConfig:
    """The inference endpoint's settings, as annotate's transports take them."""

    model: str
    endpoint: str = "http://localhost:11434"
    temperature: float = 0.0
    max_retries: int = 3
    timeout: float = 120.0

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")


def _setting(*declaration):
    return field(metadata={"setting": Setting(*declaration)})


@dataclass
class RunConfig:
    """What a run computes and where things are. Each field but model
    declares one setting, with its config key, kind, default and bound, and
    load_run_config reads the file through these declarations alone. model
    is the ModelConfig built from the model.* settings, under its checks."""

    manifest: Path = _setting("manifest", FILE, REQUIRED)
    analysis_path: Path | None = _setting("analysis", FILE)
    segment_size: int = _setting("segmentation.segment_size", int, 300, 1)
    passage_cap: int = _setting("segmentation.passage_cap", int, 500, 1)
    topics_k: int = _setting("topics.k", int, 65, 1)
    topics_sweeps: int = _setting("topics.sweeps", int, 1000, 1)
    topics_burn_in: int = _setting("topics.burn_in", int, 50, 0)
    topics_optimize_interval: int = _setting("topics.optimize_interval", int, 10, 0)
    topics_seed: int = _setting("topics.seed", int, 0, 0)
    topics_min_count: int = _setting("topics.min_count", int, 5, 1)
    topics_downsample: bool = _setting("topics.downsample", bool, True)
    topics_downsample_seed: int = _setting("topics.downsample_seed", int, 0, 0)
    stopwords_path: Path | None = _setting("topics.stopwords", FILE)
    topic_labels_path: Path | None = _setting("topics.labels", FILE)
    model_backend: str = _setting("model.backend", ("http", "mock"), "http")
    model_name: str = _setting("model.name", str, "gemma3n:e4b")
    endpoint: str = _setting("model.endpoint", str, ModelConfig.endpoint)
    temperature: float = _setting("model.temperature", float, ModelConfig.temperature)
    max_retries: int = _setting("model.max_retries", int, ModelConfig.max_retries)
    timeout: float = _setting("model.timeout", float, ModelConfig.timeout)
    workers: int = _setting("model.workers", int, 4, 1)
    prompt_registry_path: Path | None = _setting("prompts.registry", FILE)
    prompt_versions: dict = _setting("prompts.versions", dict, {})
    annotation_rounds: list[Path] = _setting("evaluation.rounds", FILES, [])
    gold_overrides_path: Path | None = _setting("evaluation.gold_overrides", FILE)
    spotcheck_path: Path | None = _setting("evaluation.spotcheck", FILE)
    output_dir: Path = _setting("output_dir", DIR, "out")
    cache_dir: Path = _setting("cache_dir", DIR)  # unset: output_dir / "cache"
    model: ModelConfig = field(init=False)

    def __post_init__(self) -> None:
        if self.cache_dir is None:
            self.cache_dir = self.output_dir / "cache"
        try:
            self.model = ModelConfig(self.model_name, self.endpoint, self.temperature,
                                     self.max_retries, self.timeout)
        except ValueError as e:
            raise ConfigError(f"model: {e}") from None


# RunConfig attribute -> its declaration
SETTINGS = {f.name: f.metadata["setting"] for f in fields(RunConfig) if f.init}


_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string",
               list: "a list", dict: "a JSON object"}


def _typed(key: str, value, kind: type):
    """value, checked to be the JSON type kind stands for (an integer is a
    number too; a boolean is neither); ConfigError naming key otherwise."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, accepted) and (kind is bool or not isinstance(value, bool)):
        return float(value) if kind is float else value
    raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")


def _value(setting: Setting, value, base: Path):
    """value, checked against setting's kind and lower bound, with a
    relative path taken from base; ConfigError naming the key otherwise."""
    key, kind = setting.key, setting.kind
    if value is REQUIRED:
        raise ConfigError(f"config must name a {key}")
    if setting.default is None and value in (None, ""):
        return None
    if kind == FILES:  # each listed file is required: a null or "" entry is an error
        return [_value(Setting(key, FILE, REQUIRED), path, base)
                for path in _typed(key, value, list)]
    if kind in (FILE, DIR):
        path = base / _typed(key, value, str)
        if kind == FILE and not path.is_file():
            raise ConfigError(f"{key} not found: {path}")
        return path
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{key} must be one of {', '.join(kind)}, got {value!r}")
        return value
    value = _typed(key, value, kind)
    if setting.minimum is not None and value < setting.minimum:
        raise ConfigError(f"{key} must be >= {setting.minimum}")
    return value


def load_run_config(config_path: Path | str, *, output_dir: str | None = None,
                    cache_dir: str | None = None, endpoint: str | None = None) -> RunConfig:
    """Load a run config JSON through SETTINGS, the one declaration of each
    setting. A key that no setting declares is a ConfigError, and so is a
    value of the wrong kind or below its bound. Only where things are can
    be set from outside the file: output_dir, cache_dir and endpoint (the
    CLI flags), when given, beat the file, and GODSPELL_ENDPOINT beats it
    for the endpoint. A relative path in the file resolves against the
    file's directory, a relative flag path against the working directory."""
    config_path = Path(config_path)
    if not config_path.is_file():
        raise ConfigError(f"config file not found: {config_path}")
    try:
        payload = json.loads(config_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    tables = {"": _typed("config", payload, dict)}
    for setting in SETTINGS.values():
        section = setting.key.rpartition(".")[0]
        if section not in tables:
            tables[section] = _typed(section, payload.get(section, {}), dict)
    declared = {setting.key for setting in SETTINGS.values()} | set(tables)
    keys = [f"{section}.{name}" if section else name
            for section, table in tables.items() for name in table]
    unknown = [key for key in keys if key not in declared]
    if unknown:
        raise ConfigError(f"unknown setting {', '.join(unknown)}")

    flags = {"output_dir": output_dir, "cache_dir": cache_dir,
             "model.endpoint": endpoint or os.environ.get(ENDPOINT_ENV_VAR)}
    values = {}
    for attr, setting in SETTINGS.items():
        section, _, name = setting.key.rpartition(".")
        if flags.get(setting.key):
            values[attr] = _value(setting, flags[setting.key], Path())
        else:
            values[attr] = _value(setting, tables[section].get(name, setting.default),
                                  config_path.parent)
    config = RunConfig(**values)
    # a directory is made only once every setting has passed its checks
    for attr, setting in SETTINGS.items():
        path = values[attr]
        if setting.kind == DIR and path is not None:
            try:
                path.mkdir(parents=True, exist_ok=True)
                (path / ".write-probe").write_text("", encoding="utf-8")
                (path / ".write-probe").unlink()
            except OSError as e:
                raise ConfigError(f"{setting.key} not writable: {path} ({e})") from None
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
