"""Traced run: the workload in-process through ``godspell.cli.main``, once
untraced and once with spans, plus the probes that need their own set-up.

The per-layer metrics come from the traced repetition's spans, except the
start-up probes (fresh interpreters), the concurrency probe (``run_pipeline``
over the first passages at workers 1 and nproc) and the local-overhead
probe (``run_pipeline`` with the stub's rule as a zero-latency transport).
A metric whose layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import program
import stub
import tracing
import workloads

PROBE_RUNS = 3
CONCURRENCY_PASSAGES = 60
LOCAL_PASSAGES = 300


def _modules() -> dict:
    from godspell import annotate, cli, corpus, evaluation, report, stats, topics

    return {"cli": cli, "corpus": corpus, "topics": topics, "annotate": annotate,
            "evaluation": evaluation, "stats": stats, "report": report}


def _in_process_rep(workload, totals) -> float:
    """Wall time of one repetition and its light commands."""
    outcomes = workload.repetition(totals)
    outcomes += workload.light(totals)
    totals.add(workload.check_light())
    return sum(o.wall_s for o in outcomes)


def traced_run(root: Path, name: str, seed: int, work: Path, deadline: float) -> tuple:
    modules = _modules()
    log = work / "program.log"
    subprocesses = program.Subprocesses(root, log, deadline)
    workload = workloads.WORKLOADS[name](root, work, seed, subprocesses)
    totals = workloads.Totals()
    tracer = tracing.Tracer()
    try:
        workload.setup()
        os.sync()
        workload.runner = program.InProcess(modules["cli"], log)
        untraced_s = _in_process_rep(workload, totals)
        tracer.install(modules)
        try:
            traced_s = _in_process_rep(workload, totals)
        finally:
            tracer.uninstall()
        endpoint = _endpoint_counts(workload)
        state = workload.out / "topics" / "state.json"
        metrics = span_metrics(tracer.spans, modules["cli"].COMMANDS, endpoint)
        metrics["topics.state_bytes"] = state.stat().st_size if state.is_file() else 0
        metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        metrics.update(_cli_probes(subprocesses))
        metrics.update(_annotate_probes(workload, modules["annotate"]))
    finally:
        workload.close()
        subprocesses.close()
    detail = {"untraced_s": untraced_s, "traced_s": traced_s, "spans": len(tracer.spans),
              "tracer": tracer}
    return metrics, totals, detail


def _endpoint_counts(workload) -> dict:
    if workload.stub is None:
        return {"calls": 0, "dups": 0, "passages": 0}
    return {"calls": workload.stub.total_calls, "dups": workload.stub.dup_calls,
            "passages": workload.passage_count}


def _total(spans) -> float:
    return sum(s.duration for s in spans)


def _mean_ms(spans) -> float:
    return 1000.0 * _total(spans) / len(spans) if spans else 0.0


def _percentile_ms(spans, q: int) -> float:
    values = sorted(1000.0 * s.duration for s in spans)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def span_metrics(spans: list, commands: dict, endpoint: dict) -> dict:
    """Per-layer metrics from the spans of one traced repetition."""
    by_name: dict[str, list] = defaultdict(list)
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            children[span.parent].append(span)
    m: dict[str, float] = {}
    for command, fn in commands.items():
        m[f"cli.cmd_self_s.{command}"] = sum(
            tracing.self_time(s, children[s.id]) for s in by_name[f"cli.{fn.__name__}"]
        )
    for fn in ("segment_fixed", "ingest", "segment_capped", "write_passages", "read_passages"):
        m[f"corpus.{fn}_s"] = _total(by_name[f"corpus.{fn}"])
    for k in (65, 5):
        sweeps = [s for s in by_name["topics.gibbs_sweep"] if s.attrs["k"] == k]
        seconds = _total(sweeps)
        tokens = sum(s.attrs["tokens"] for s in sweeps)
        m[f"topics.sweep_tok_per_s.k{k}"] = tokens / seconds if seconds else 0.0
    for fn in ("build_vocabulary", "authorless_downsample", "init_state", "log_likelihood",
               "optimize_alpha", "optimize_beta", "save_state", "load_state"):
        m[f"topics.{fn}_s"] = _total(by_name[f"topics.{fn}"])
    calls = by_name["annotate.http_transport"]
    gets = by_name["annotate.AnnotationCache.get"]
    hits = sum(1 for s in gets if s.attrs["hit"])
    m["annotate.endpoint_calls"] = endpoint["calls"]
    m["annotate.dup_calls"] = endpoint["dups"]
    m["annotate.calls_per_pass"] = (
        endpoint["calls"] / endpoint["passages"] if endpoint["passages"] else 0.0
    )
    m["annotate.call_ms.p50"] = _percentile_ms(calls, 50)
    m["annotate.call_ms.p95"] = _percentile_ms(calls, 95)
    m["annotate.transport_overhead_ms"] = (
        m["annotate.call_ms.p50"] - 1000.0 * workloads.SERVICE_S if calls else 0.0
    )
    m["annotate.cache_hits"] = hits
    m["annotate.cache_misses"] = len(gets) - hits
    m["annotate.cache_get_ms"] = _mean_ms(gets)
    m["annotate.cache_put_ms"] = _mean_ms(by_name["annotate.AnnotationCache.put"])
    m["annotate.read_annotations_s"] = _total(by_name["annotate.read_annotations"])
    m["annotate.write_annotations_s"] = _total(by_name["annotate.write_annotations"])
    for layer, fns in (
        ("evaluation", ("krippendorff_alpha", "build_gold", "prf")),
        ("stats", ("act_proportions", "position_density", "group_compare",
                   "characterization_shares")),
        ("report", ("load_run_config", "figure_data", "markdown_summary")),
    ):
        for fn in fns:
            m[f"{layer}.{fn}_s"] = _total(by_name[f"{layer}.{fn}"])
    return m


def _median_exec(subprocesses, code: str) -> float:
    return statistics.median(
        subprocesses.exec([sys.executable, "-c", code]).wall_s for _ in range(PROBE_RUNS)
    )


def _cli_probes(subprocesses) -> dict:
    start = statistics.median(
        subprocesses.run(["--help"]).wall_s for _ in range(PROBE_RUNS)
    )
    bare = _median_exec(subprocesses, "pass")
    imported = _median_exec(subprocesses, "import godspell.cli")
    return {"cli.start_s": start, "cli.import_s": imported - bare}


def _annotate_probes(workload, annotate) -> dict:
    """Concurrency efficiency against the stub, and local overhead per passage
    with a zero-latency transport; 0 on workloads without an endpoint."""
    m = {"annotate.concurrency_eff.w1": 0.0, "annotate.concurrency_eff.wn": 0.0,
         "annotate.local_ms_per_pass.cold": 0.0, "annotate.local_ms_per_pass.warm": 0.0}
    if workload.stub is None:
        return m
    from godspell import corpus

    passages = corpus.read_passages(workload.passages)
    config = annotate.ModelConfig(model="gemma3n:e4b", endpoint=workload.stub.url)
    subset = passages[:CONCURRENCY_PASSAGES]
    for label, workers in (("w1", 1), ("wn", os.cpu_count() or 1)):
        workload.stub.reset()
        start = time.perf_counter()
        annotate.run_pipeline(subset, config, cache_dir=workload.work / f"conc-{label}",
                              workers=workers)
        wall = time.perf_counter() - start
        ideal = workload.stub.total_calls * workloads.SERVICE_S / workers
        m[f"annotate.concurrency_eff.{label}"] = ideal / wall
    subset = passages[:LOCAL_PASSAGES]
    for label in ("cold", "warm"):
        start = time.perf_counter()
        annotate.run_pipeline(subset, config, cache_dir=workload.work / "local-cache",
                              transport=stub.responder, workers=1)
        m[f"annotate.local_ms_per_pass.{label}"] = (
            1000.0 * (time.perf_counter() - start) / len(subset)
        )
    return m
