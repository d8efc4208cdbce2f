"""Benchmark of the godspell pipeline: three workloads, correctness gates,
end-to-end metrics, and a traced run for per-layer metrics.

    python3 bench/run.py --workload topics-k65 --seed 3 --seconds 10 --trace 0
    python3 bench/run.py                      # every workload, untraced

Run from the root of a checkout. Each run works in ``.bench_work/`` and
leaves there only its result (``results/*.json``, with the run facts) and,
when traced, its spans. The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``. Exits 1 when a gate
fails and 2 when the checkout lacks the program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
BUDGET_S = 170.0
SETUPS = 3


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _require_program() -> None:
    missing = [p for p in ("src/godspell/cli.py", "tests/fixtures/runconfig.json",
                           "tests/golden/report.md", "pyproject.toml", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not a godspell checkout: missing {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)


def measure(name: str, seed: int, seconds: float, work: Path, deadline: float) -> tuple:
    """Untraced run: set up SETUPS times, then timed repetitions until
    ``seconds`` have passed. The time of a repetition is the sum over its
    commands of each command's median wall time, so that one slow start of
    an interpreter does not count for a whole repetition."""
    import program
    import workloads

    runner = program.Subprocesses(ROOT, work / "program.log", deadline)
    workload = workloads.WORKLOADS[name](ROOT, work, seed, runner)
    totals = workloads.Totals()
    setups, walls, rss = [], [], []
    try:
        for _ in range(SETUPS):
            workload.close()
            start = time.perf_counter()
            workload.setup()
            os.sync()  # the set-up's writes reach the disk before anything is timed
            setups.append(time.perf_counter() - start)
        start = time.perf_counter()
        rep = 0
        while rep < workload.min_reps or time.perf_counter() - start < seconds:
            outcomes = workload.repetition(totals)
            walls.append([o.wall_s for o in outcomes])
            rss += [o.max_rss_kb for o in outcomes]
            rep += 1
            if time.monotonic() > deadline:
                break
    finally:
        workload.close()
        runner.close()
    wall = sum(statistics.median(step) for step in zip(*walls))
    metrics = {
        "setup_s": statistics.median(setups),
        "work_per_s": workload.work_units() / wall,
        "peak_rss_mb": max(rss) / 1024.0,
    }
    detail = {"repetitions": len(walls), "walls_s": walls, "setups_s": setups,
              "work_units": workload.work_units()}
    return metrics, totals, detail


def run_one(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    import layers
    import program

    work = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.monotonic() + BUDGET_S
    try:
        if trace:
            metrics, totals, detail = layers.traced_run(ROOT, name, seed, work, deadline)
        else:
            metrics, totals, detail = measure(name, seed, seconds, work, deadline)
        tracer = detail.pop("tracer", None)
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "facts": program.run_facts(ROOT), "metrics": metrics, "detail": detail,
            "attempted": totals.attempted, "failed": totals.failed,
            "problems": totals.problems[:50],
        }
        stem = f"{name}-seed{seed}-trace{int(trace)}"
        (results / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
        if tracer is not None:
            tracer.write(results / f"{stem}-spans.jsonl")
        print(json.dumps({"workload": name, "facts": record["facts"]}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return metrics, totals


def main() -> int:
    _require_program()
    spec = _spec()
    parser = argparse.ArgumentParser(description="godspell benchmark")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names if args.workload == "all" else [args.workload]:
        metrics, totals = run_one(name, args.seed, args.seconds, bool(args.trace))
        if set(metrics) != set(units):
            raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with "
                               "BENCHMARK.json")
        for problem in totals.problems[:20]:
            print(f"GATE FAILED {name}: {problem}", file=sys.stderr)
        result["correct"] = result["correct"] and not totals.problems and totals.failed == 0
        result["attempted"] += totals.attempted
        result["failed"] += totals.failed
        prefix = "" if args.workload != "all" else f"{name}."
        for metric in units:
            value = metrics[metric]
            print(f"{name:17} {metric:34} {value:14.6g} {units[metric]}")
            result["metrics"][prefix + metric] = {"value": value, "unit": units[metric]}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
