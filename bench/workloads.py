"""The workloads: set-up, the commands of one timed repetition, the
gate on its outputs, and the light commands a user re-runs afterwards
(which only the traced run executes).

Every workload writes under its own work directory and runs the program
only through a runner (``program.Subprocesses`` or ``program.InProcess``),
so the timed run and the traced run execute the same commands.
"""

from __future__ import annotations

import json
import os
import shutil
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import corpusgen
import gates
import stub

SERVICE_S = 0.020
TOPICS_K = 65
TOPICS_SWEEPS = 2
DIGESTS = Path(__file__).with_name("digests.json")


@dataclass
class Check:
    """Operations gated in one repetition, and what failed."""

    attempted: int
    problems: list[str] = field(default_factory=list)
    failed: int = 0


class Totals:
    """Operations attempted and failed over a run, with what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, check: Check) -> None:
        self.attempted += check.attempted
        self.failed += check.failed
        self.problems += check.problems

    def command(self, outcome) -> None:
        self.attempted += 1
        if outcome.code != 0:
            self.failed += 1
            self.problems.append(f"{' '.join(outcome.argv[:4])} exited {outcome.code}")


class Workload:
    name = ""
    min_reps = 1
    light_argv: list[list[str]] = []

    def __init__(self, root: Path, work: Path, seed: int, runner):
        self.root = root
        self.work = work
        self.seed = seed
        self.runner = runner
        self.stub: stub.StubEndpoint | None = None
        self._dirs = 0

    def setup(self) -> None:
        """Everything before the timed region; may run several times."""

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def check(self) -> Check:
        raise NotImplementedError

    def work_units(self) -> float:
        """Units of work in one repetition (see BENCHMARK.md)."""
        raise NotImplementedError

    def check_light(self) -> Check:
        return Check(0)

    def repetition(self, totals: Totals) -> list:
        """Run and gate one repetition; returns the command outcomes."""
        outcomes = self._run(self.commands(), totals)
        totals.add(self.check())
        return outcomes

    def light(self, totals: Totals) -> list:
        """Run the light commands once, ungated; ``check_light`` gates them."""
        return self._run(self.light_argv, totals)

    def _run(self, argvs: list[list[str]], totals: Totals) -> list:
        outcomes = [self.runner.run(argv) for argv in argvs]
        for outcome in outcomes:
            totals.command(outcome)
        return outcomes

    def close(self) -> None:
        if self.stub is not None:
            self.stub.stop()
            self.stub = None

    def warm_up(self) -> None:
        self.runner.run(["--help"])

    def _new_dir(self, name: str) -> Path:
        """A path not used before in this run. Nothing is deleted before the
        run ends, so that no step pays for the file-system work of another."""
        self._dirs += 1
        return self.work / f"{name}{self._dirs}"


class FixturePipeline(Workload):
    """The six-command golden run on ``tests/fixtures``. Its inputs are fixed
    by the golden tree, so the seed changes nothing in them."""

    name = "fixture-pipeline"
    min_reps = 5
    steps = ("segment", "topics-train", "annotate", "eval", "stats", "report")

    def setup(self) -> None:
        fixtures = self._new_dir("fixtures")
        shutil.copytree(self.root / "tests" / "fixtures", fixtures)
        self.config = str(fixtures / "runconfig.json")
        self.warm_up()

    def commands(self) -> list[list[str]]:
        self.out = self._new_dir("out")
        argv = [[step, "--config", self.config, "--output", str(self.out)] for step in self.steps]
        self.light_argv = argv[3:]
        return argv

    def check(self) -> Check:
        problems = gates.golden_tree(self.out, self.root / "tests" / "golden")
        return Check(1, problems, int(bool(problems)))

    def check_light(self) -> Check:
        return self.check()

    def work_units(self) -> float:
        return 1.0


class SyntheticCorpus(Workload):
    """Shared set-up: a seeded corpus, its run config and stopwords."""

    words = 0
    config_extra: dict = {}

    def write_corpus(self) -> Path:
        corpus = self._new_dir("corpus")
        corpusgen.generate(self.root, corpus, self.seed, self.words)
        shutil.copy(self.root / corpusgen.STOPWORDS, corpus / "stopwords.txt")
        config = {
            "manifest": "manifest.csv",
            "segmentation": {"segment_size": 300, "passage_cap": 150},
            "topics": {
                "k": TOPICS_K, "sweeps": TOPICS_SWEEPS, "burn_in": 1, "optimize_interval": 2,
                "seed": self.seed, "min_count": 5, "downsample": True,
                "downsample_seed": self.seed, "stopwords": "stopwords.txt",
            },
            "model": {
                "backend": "http", "name": "gemma3n:e4b", "temperature": 0.0,
                "max_retries": 3, "timeout": 60.0, "workers": os.cpu_count() or 1,
            },
            "output_dir": "out",
            **self.config_extra,
        }
        if self.stub is not None:
            config["model"]["endpoint"] = self.stub.url
        self.config = str(corpus / "runconfig.json")
        Path(self.config).write_text(json.dumps(config, indent=2), encoding="utf-8")
        self.out = corpus / "out"
        self.light_argv = [["ingest", "--config", self.config]]
        return corpus

    def check_light(self) -> Check:
        ok = (self.out / "corpus.json").is_file()
        return Check(1, [] if ok else ["ingest wrote no corpus.json"], int(not ok))


class TopicsK65(SyntheticCorpus):
    """topics-train at K=65 on a 0.5M-word corpus, two sweeps, one
    hyperparameter optimisation."""

    name = "topics-k65"
    min_reps = 2
    words = 500_000

    def setup(self) -> None:
        from godspell import corpus as gcorpus, topics as gtopics

        corpus = self.write_corpus()
        loaded = gcorpus.ingest(corpus / "manifest.csv")
        segments = gcorpus.segment_corpus_fixed(loaded, segment_size=300)
        stopwords = set((corpus / "stopwords.txt").read_text().split())
        _, docs = gtopics.build_vocabulary(segments, stopwords, min_count=5)
        docs = gtopics.authorless_downsample(
            docs, [s.novel_id for s in segments], rng_seed=self.seed
        )
        self.doc_lens = [len(d) for d in docs]
        self.digests: set[str] = set()
        committed = json.loads(DIGESTS.read_text(encoding="utf-8"))[self.name]
        self.expected = committed["state_sha256"] if self.seed == committed["seed"] else None
        self.warm_up()

    def commands(self) -> list[list[str]]:
        self.out = self._new_dir("out")
        self.light_argv = [["topics-inspect", "--config", self.config, "--output", str(self.out)]]
        return [["topics-train", "--config", self.config, "--output", str(self.out)]]

    def state_path(self) -> Path:
        return self.out / "topics" / "state.json"

    def check(self) -> Check:
        path = self.state_path()
        problems = gates.topic_state(path, TOPICS_K, TOPICS_SWEEPS, self.doc_lens, self.expected)
        if path.is_file():
            self.digests.add(gates.sha256_file(path))
        if len(self.digests) > 1:
            problems.append(f"state sha256 differs between repetitions: {sorted(self.digests)}")
        return Check(1, problems, int(bool(problems)))

    def check_light(self) -> Check:
        ok = (self.out / "topics" / "top_words.csv").is_file()
        return Check(1, [] if ok else ["topics-inspect wrote no top_words.csv"], int(not ok))

    def work_units(self) -> float:
        return sum(self.doc_lens) * TOPICS_SWEEPS


class AnnotateHttp(SyntheticCorpus):
    """annotate over ~300 passages against the stub, on a cold cache."""

    name = "annotate-http"
    words = 35_000

    def setup(self) -> None:
        self.stub = stub.StubEndpoint(SERVICE_S).start()
        self.write_corpus()
        self._segment()
        self.warm_up()

    def _segment(self) -> None:
        outcome = self.runner.run(["segment", "--config", self.config])
        if outcome.code != 0:
            raise RuntimeError(f"segment exited {outcome.code}")
        self.passages = self.out / "passages.jsonl"
        with self.passages.open(encoding="utf-8") as fh:
            self.passage_count = sum(1 for line in fh if line.strip())

    def warm_up(self) -> None:
        super().warm_up()
        request = urllib.request.Request(
            self.stub.url + "/api/generate",
            data=json.dumps({"model": "warm-up", "prompt": "warm-up",
                             "format": {"properties": {"label": {}}}}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            response.read()
        self.stub.reset()

    def commands(self) -> list[list[str]]:
        cache = self._new_dir("cache")
        (self.out / "annotations.jsonl").unlink(missing_ok=True)
        self.stub.reset()
        return [["annotate", "--config", self.config, "--cache-dir", str(cache)]]

    def check(self) -> Check:
        problems = gates.stub_labels(self.out / "annotations.jsonl", self.passages)
        return Check(self.passage_count, problems, min(len(problems), self.passage_count))

    def work_units(self) -> float:
        return self.passage_count


WORKLOADS = {w.name: w for w in (FixturePipeline, TopicsK65, AnnotateHttp)}
