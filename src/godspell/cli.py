"""Command-line pipeline: godspell <subcommand> --config run.json [flags].

The run config says what a run computes. Each of its settings is declared
once, as a field of `config.RunConfig` with its key, kind, default and
bound, and a key that no field declares is a config error. The four flags
say only where things are: --config (the run config), --output (the output
directory), --cache-dir (the annotation cache) and --endpoint (the
inference endpoint, which the GODSPELL_ENDPOINT environment variable also
sets). A relative flag path is taken from the working directory, a
relative path in the config from the config's directory.

Subcommands write their artifacts into the configured output directory and
are idempotent given unchanged inputs. Each artifact is written through
`config.replacing`, so an interrupted or failing command leaves each
earlier artifact as it was, and no partial one. A subcommand loads its
inputs, calls the module that owns the work (`stats.analyze` for
stats.json, `evaluation.evaluate` for metrics.json) and writes the result;
no analysis or scoring happens here. Exit codes: 0 success, 1 config error, 2 runtime
error (with error.json in the output directory), 64 unknown subcommand.

Each command imports only the modules it runs, inside its own function;
all of them load `config`. Every command needs the standard library alone:
`topics-train` adds the compiled `_sweep` kernel, and `topics-inspect` and
`stats` read the saved topic state without it, through `statefile`. Only
`annotate` imports the `annotate` module, with its thread pool; `eval` and
`stats` read
annotations through `records`. Only `report` imports `report`, `eval`
imports no `stats`, and `report` and `topics-inspect` import no `corpus`.
No command loads OpenSSL except `annotate` against an https:// endpoint:
every digest is `config.sha256`, CPython's own, and the http transport
writes HTTP/1.1 on a socket, without `http.client` or `email`, and imports
`ssl` only to wrap the socket of an https endpoint.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from contextlib import closing
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

from .config import (ConfigError, RunConfig, load_run_config, read_csv, read_json, read_records,
                     read_text, replacing, write_csv)

if TYPE_CHECKING:
    from . import topics

log = logging.getLogger(__name__)


def _dump_json(path: Path, payload: dict) -> None:
    with replacing(path) as tmp:
        tmp.write_text(json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
                       encoding="utf-8")


def _require_artifact(path: Path, produced_by: str) -> Path:
    if not path.is_file():
        raise FileNotFoundError(f"missing {path.name}; run `godspell {produced_by}` first")
    return path


def _load_stopwords(config: RunConfig) -> set[str]:
    if config.stopwords_path is None:
        return set()
    words = set()
    for line in read_text(config.stopwords_path).splitlines():
        word = line.strip().lower()
        if word:
            words.add(word)
    return words


def cmd_ingest(config: RunConfig) -> None:
    from . import corpus

    loaded = corpus.ingest(config.manifest)
    novels = []
    total = 0
    for novel in loaded.novels:
        words = corpus.count_words(loaded.text(novel.id))
        total += words
        entry = asdict(novel)
        del entry["source_path"]
        novels.append({**entry, "gender_group": novel.gender_group(), "word_count": words})
    _dump_json(config.output_dir / "corpus.json", {"novels": novels, "total_words": total})
    print(f"ingested {len(novels)} novels ({total} words)")


def cmd_segment(config: RunConfig) -> None:
    from . import corpus

    loaded = corpus.ingest(config.manifest)
    passages = corpus.segment_corpus(loaded, cap=config.passage_cap)
    corpus.write_passages(passages, config.output_dir / "passages.jsonl")
    summary = corpus.passage_statistics(passages)
    print(
        f"wrote {summary['passage_count']} passages "
        f"(mean {summary['mean_word_length']} words) for {summary['novel_count']} novels"
    )


def _topic_docs(config: RunConfig) -> tuple[topics.Vocabulary, list[memoryview], list[str]]:
    """The vocabulary, each fixed-size segment's word ids and its novel: the
    documents `corpus.segment_fixed` and `topics.build_vocabulary` give.
    Each novel's UTF-8 text goes whole through one corpus-wide
    `_sweep.FormTable`, which splits it as `str.split()` does and appends
    each word's form id to one flat array, with no string per word; the
    documents are cut from that array every segment_size words, and
    `topics.vocabulary_of` turns the forms into word ids."""
    import array

    from . import _sweep, corpus, topics

    loaded = corpus.ingest(config.manifest)
    table = _sweep.FormTable()
    offsets = array.array("i", [0])
    doc_novels: list[str] = []
    size = config.segment_size
    for novel in loaded.novels:
        start = len(table.words)
        end = start + table.add(loaded.text(novel.id).encode())
        # a novel's last segment may be shorter, and an empty novel has none
        offsets.extend(min(cut, end) for cut in range(start + size, end + size, size))
        doc_novels += [novel.id] * (len(offsets) - 1 - len(doc_novels))
    vocab, docs = topics.vocabulary_of(
        table, offsets, _load_stopwords(config), min_count=config.topics_min_count
    )
    if config.topics_downsample:
        docs = topics.authorless_downsample(
            docs, doc_novels, rng_seed=config.topics_downsample_seed
        )
    return vocab, docs, doc_novels


def cmd_topics_train(config: RunConfig) -> None:
    from . import topics

    vocab, docs, doc_novels = _topic_docs(config)
    state, log_likelihoods = topics.train(
        docs,
        vocab.size,
        k=config.topics_k,
        sweeps=config.topics_sweeps,
        burn_in=config.topics_burn_in,
        optimize_interval=config.topics_optimize_interval,
        rng_seed=config.topics_seed,
    )
    n_docs = len(docs)
    del docs  # the state holds its own copy of the words
    topics_dir = config.output_dir / "topics"
    topics_dir.mkdir(parents=True, exist_ok=True)
    topics.save_state(topics_dir / "state.json", state, log_likelihoods, vocab, doc_novels)
    print(
        f"trained K={config.topics_k} on {n_docs} segments "
        f"(V={vocab.size}, final log-likelihood {log_likelihoods[-1]:.2f})"
    )


def cmd_topics_inspect(config: RunConfig) -> None:
    from . import statefile

    state_path = _require_artifact(config.output_dir / "topics" / "state.json", "topics-train")
    words, top = statefile.top_words(state_path)
    rows = [
        [k, rank, words[w], count]
        for k, ids in enumerate(top)
        for rank, (w, count) in enumerate(ids, start=1)
    ]
    write_csv(
        config.output_dir / "topics" / "top_words.csv",
        ["topic", "rank", "word", "count"],
        rows,
    )
    for k, ids in enumerate(top):
        print(f"topic {k}: " + " ".join(words[w] for w, _ in ids))


def cmd_annotate(config: RunConfig) -> None:
    """Stream the passages through the cascade into annotations.jsonl, which
    is replaced only once every passage is annotated."""
    from . import annotate, corpus

    passages = corpus.iter_passages(
        _require_artifact(config.output_dir / "passages.jsonl", "segment")
    )
    path = config.prompt_registry_path
    try:
        registry = annotate.default_registry() if path is None else annotate.load_registry(path)
        templates = annotate.resolve_templates(registry, config.prompt_versions)
    except (KeyError, ValueError) as e:
        raise ConfigError(e.args[0]) from None
    transport = annotate.MockModel().transport if config.model_backend == "mock" else None
    stream = annotate.stream_pipeline(
        passages,
        config.model,
        cache_dir=config.cache_dir,
        workers=config.workers,
        templates=templates,
        transport=transport,
    )
    total = yes = unresolved = 0

    def counted():
        nonlocal total, yes, unresolved
        for annotation in stream:
            total += 1
            yes += annotation.is_act
            unresolved += annotation.status != "ok"
            yield annotation

    with closing(stream):  # a failed write cancels the passages still queued
        annotate.write_annotations(counted(), config.output_dir / "annotations.jsonl")
    print(f"annotated {total} passages: {yes} YES, {unresolved} unresolved")


def cmd_eval(config: RunConfig) -> None:
    from . import evaluation, records

    if not config.annotation_rounds:
        raise ConfigError("config names no evaluation.rounds")
    # a round's coders are namespaced by its file name, which must be its own
    paths: dict[str, Path] = {}
    for path in config.annotation_rounds:
        if path.stem in paths:
            raise ConfigError(f"rounds {paths[path.stem]} and {path} share the name "
                              f"{path.stem!r}")
        paths[path.stem] = path
    rounds = {name: evaluation.read_annotation_csv(path) for name, path in paths.items()}
    overrides = (
        evaluation.read_gold_overrides(config.gold_overrides_path)
        if config.gold_overrides_path is not None
        else {}
    )
    spotcheck = (
        evaluation.read_spotcheck(config.spotcheck_path)
        if config.spotcheck_path is not None
        else None
    )
    annotations = records.read_annotations(
        _require_artifact(config.output_dir / "annotations.jsonl", "annotate")
    )
    payload = evaluation.evaluate(rounds, overrides, annotations, spotcheck)
    _dump_json(config.output_dir / "metrics.json", payload)
    metrics = payload["metrics"]
    print(
        f"scored {payload['gold_size']} gold passages: micro-F1 {metrics['micro_f1']:.3f} "
        f"(YES F1 {metrics['yes']['f1']:.3f}, NO F1 {metrics['no']['f1']:.3f})"
    )


def cmd_stats(config: RunConfig) -> None:
    """Write stats.json: stats.analyze over the run's artifacts and the
    analysis config, plus the topic labels when configured."""
    from . import corpus, records, statefile, stats, topics

    try:
        analysis = read_json(config.analysis_path) if config.analysis_path else {}
    except ValueError as e:
        raise ConfigError(str(e)) from None
    loaded = corpus.ingest(config.manifest)
    passages = []  # without their text, which stats never reads
    for passage in corpus.iter_passages(
            _require_artifact(config.output_dir / "passages.jsonl", "segment")):
        passage.text = ""
        passages.append(passage)
    unread = {"passage", "stage1", "stage2", "cache_key", "error"}  # of an annotation
    annotations = list(read_records(
        _require_artifact(config.output_dir / "annotations.jsonl", "annotate"),
        lambda d: records.ActAnnotation(**{k: v for k, v in d.items() if k not in unread}),
        "an annotation"))
    unknown = sorted({a.novel_id for a in annotations} - {n.id for n in loaded.novels})
    if unknown:
        raise ValueError(f"annotations name novels missing from the manifest: {unknown}")
    k, doc_novels, doc_topic = statefile.shares(
        _require_artifact(config.output_dir / "topics" / "state.json", "topics-train"))
    prominence = topics.prominence_from_doc_topic(
        doc_topic, doc_novels, [n.id for n in loaded.novels]
    )
    try:
        payload = stats.analyze(analysis, loaded.novels, passages, annotations, prominence, k)
    except stats.AnalysisError as e:
        raise ConfigError(f"{config.analysis_path}: {e}") from None
    if config.topic_labels_path is not None:
        payload["topic_labels"] = {topic: label for (topic,), (label,) in read_csv(
            config.topic_labels_path, ("topic_index",), ("label",),
            {"topic_index": tuple(map(str, range(k)))}).items()}
    _dump_json(config.output_dir / "stats.json", payload)
    acts = payload["act_proportions"]["yes_count"]
    print(f"wrote stats for {len(loaded.novels)} novels ({acts} acts)")


def cmd_report(config: RunConfig) -> None:
    from . import report

    results = read_json(_require_artifact(config.output_dir / "stats.json", "stats"))
    metrics_path = config.output_dir / "metrics.json"
    metrics = read_json(metrics_path) if metrics_path.is_file() else None
    written = report.figure_data(results, config.output_dir / "figures")
    with replacing(config.output_dir / "report.md") as tmp:
        tmp.write_text(report.markdown_summary(results, metrics), encoding="utf-8")
    print(f"wrote report.md and {len(written)} figure tables")


COMMANDS = {
    "ingest": cmd_ingest,
    "segment": cmd_segment,
    "topics-train": cmd_topics_train,
    "topics-inspect": cmd_topics_inspect,
    "annotate": cmd_annotate,
    "eval": cmd_eval,
    "stats": cmd_stats,
    "report": cmd_report,
}

USAGE = (
    "usage: godspell <subcommand> --config RUN.json [flags]\n"
    "subcommands: " + ", ".join(COMMANDS) + "\n"
    "flags: --output DIR --cache-dir DIR --endpoint URL\n"
    "Every other setting comes from the run config, whose keys are declared\n"
    "in godspell.config.RunConfig; a key declared nowhere is a config error.\n"
    "The GODSPELL_ENDPOINT environment variable overrides the configured endpoint."
)


def _build_parser(command: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=f"godspell {command}")
    parser.add_argument("--config", dest="config_path", required=True, help="run config JSON")
    parser.add_argument("--output", dest="output_dir", help="output directory override")
    parser.add_argument("--cache-dir", dest="cache_dir", help="annotation cache directory")
    parser.add_argument("--endpoint", help="inference endpoint override")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    if argv and argv[0] in ("-h", "--help"):
        print(USAGE)
        return 0
    if not argv or argv[0] not in COMMANDS:
        print(USAGE, file=sys.stderr)
        return 64
    command = argv[0]
    parser = _build_parser(command)
    try:
        args = parser.parse_args(argv[1:])
    except SystemExit as e:
        return 0 if e.code in (0, None) else 64
    try:
        # each flag's dest is a parameter of load_run_config
        config = load_run_config(**vars(args))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    error_path = config.output_dir / "error.json"
    error_path.unlink(missing_ok=True)
    try:
        COMMANDS[command](config)
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - boundary: report and set exit code
        log.error("%s failed: %s", command, e)
        _dump_json(error_path, {
            "subcommand": command,
            "error_kind": type(e).__name__,
            "message": str(e),
        })
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
