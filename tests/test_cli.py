import contextlib
import csv
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from godspell import _sweep, annotate, config, corpus, statefile, stats, topics
from godspell.cli import main
from godspell.corpus import read_passages
from godspell.records import read_annotations
from helpers import STAGE1_NO, KeepAliveHandler, serving
from oracles import load_state_reference

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"
CONFIG = str(FIXTURES / "runconfig.json")
MANIFEST_LINES = (FIXTURES / "manifest.csv").read_text(encoding="utf-8").splitlines()


def run(*args):
    return main(list(args))


def config_with(directory, **sections):
    """The fixture config with each named section updated from sections,
    written to directory/run.json with absolute paths; that path."""
    config = json.loads((FIXTURES / "runconfig.json").read_text())
    for section, key in ((config, "manifest"), (config, "analysis"),
                         (config["topics"], "stopwords"), (config["topics"], "labels"),
                         (config["evaluation"], "gold_overrides"),
                         (config["evaluation"], "spotcheck")):
        section[key] = str(FIXTURES / section[key])
    config["evaluation"]["rounds"] = [str(FIXTURES / p) for p in config["evaluation"]["rounds"]]
    for name, values in sections.items():
        if isinstance(values, dict):
            config[name].update(values)
        else:
            config[name] = values
    path = Path(directory) / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


class TestDispatch:
    def test_unknown_subcommand_exit_64(self, capsys):
        assert run("frobnicate", "--config", CONFIG) == 64
        assert "usage:" in capsys.readouterr().err

    def test_no_args_exit_64(self, capsys):
        assert run() == 64

    def test_help_exit_0(self, capsys):
        assert run("--help") == 0
        out = capsys.readouterr().out
        assert "subcommands:" in out
        flags = {word for word in out.split() if word.startswith("--")}
        assert flags == {"--config", "--output", "--cache-dir", "--endpoint"}

    # what a run computes comes from the config alone: no flag sets it
    @pytest.mark.parametrize("flag", [["--no-such-flag"], ["--k", "2"], ["--sweeps", "3"],
                                      ["--seed", "3"], ["--model", "m"],
                                      ["--temperature", "0.5"], ["--workers", "1"], ["--mock"]],
                             ids=lambda flag: flag[0])
    def test_bad_flag_exit_64(self, tmp_path, capsys, flag):
        assert run("segment", "--config", CONFIG, "--output", str(tmp_path), *flag) == 64
        assert not (tmp_path / "passages.jsonl").exists()

    def test_missing_config_exit_1(self, capsys):
        assert run("segment", "--config", "/nonexistent/run.json") == 1
        assert "config error" in capsys.readouterr().err


class TestSubcommands:
    def test_segment_contiguity(self, tmp_path, capsys):
        assert run("segment", "--config", CONFIG, "--output", str(tmp_path)) == 0
        passages = read_passages(tmp_path / "passages.jsonl")
        by_novel = {}
        for p in passages:
            by_novel.setdefault(p.novel_id, []).append(p)
        for group in by_novel.values():
            cursor = 0
            for p in group:
                assert p.word_start == cursor
                cursor = p.word_end

    def test_ingest_writes_corpus_json(self, tmp_path, capsys):
        assert run("ingest", "--config", CONFIG, "--output", str(tmp_path)) == 0
        payload = json.loads((tmp_path / "corpus.json").read_text())
        assert len(payload["novels"]) == 3
        assert payload["total_words"] > 0
        assert payload["novels"][1]["gender_group"] == "male"
        assert payload["novels"][1]["authors"] == [
            {"name": "Silas Mercer", "gender": "male"},
            {"name": "Tobias Grey", "gender": "male"},
        ]
        assert payload["novels"][1]["awards"] == [
            {"category": "Visionary", "status": "finalist", "award_year": 2004},
        ]
        assert "source_path" not in payload["novels"][1]

    def test_runtime_error_exit_2_with_error_file(self, tmp_path, capsys):
        # annotate before segment: missing passages.jsonl is a runtime error
        assert run("annotate", "--config", CONFIG, "--output", str(tmp_path)) == 2
        error = json.loads((tmp_path / "error.json").read_text())
        assert error["subcommand"] == "annotate"
        assert "passages.jsonl" in error["message"]

    def test_topics_train_and_inspect(self, tmp_path, capsys):
        config = config_with(tmp_path, topics={"k": 2, "sweeps": 6})
        assert run("topics-train", "--config", config, "--output", str(tmp_path)) == 0
        state = json.loads((tmp_path / "topics" / "state.json").read_text())
        assert state["k"] == 2
        assert len(state["log_likelihood"]) == 6
        assert run("topics-inspect", "--config", config, "--output", str(tmp_path)) == 0
        top_words = (tmp_path / "topics" / "top_words.csv").read_text()
        assert top_words.startswith("topic,rank,word,count")
        out = capsys.readouterr().out
        assert "topic 0:" in out

    def test_inspect_of_the_golden_state_is_the_full_sort(self, tmp_path, capsys):
        """top_words.csv from the golden state.json holds each topic's ten
        words of the full sort by (-count, word), with their counts."""
        shutil.copytree(GOLDEN / "topics", tmp_path / "topics")
        assert run("topics-inspect", "--config", CONFIG, "--output", str(tmp_path)) == 0
        model = json.loads((GOLDEN / "topics" / "state.json").read_text(encoding="utf-8"))
        words = model["vocabulary"]
        expected = [["topic", "rank", "word", "count"]]
        for k, counts in enumerate(model["n_kw"]):
            ranked = sorted(range(len(words)), key=lambda w: (-counts[w], words[w]))[:10]
            expected += [[str(k), str(rank), words[w], str(counts[w])]
                         for rank, w in enumerate(ranked, start=1)]
        with (tmp_path / "topics" / "top_words.csv").open(encoding="utf-8", newline="") as fh:
            assert list(csv.reader(fh)) == expected

    def test_annotate_then_eval(self, tmp_path, capsys):
        assert run("segment", "--config", CONFIG, "--output", str(tmp_path)) == 0
        assert run("annotate", "--config", CONFIG, "--output", str(tmp_path)) == 0
        assert run("eval", "--config", CONFIG, "--output", str(tmp_path)) == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["gold_size"] == 18
        assert set(metrics["alpha_per_round"]) == {"round1", "round2"}
        assert metrics["confusion"]["tp"] > 0

    def test_cache_dir_flag_places_the_cache(self, tmp_path, capsys):
        out, cache = tmp_path / "out", tmp_path / "cache"
        assert run("segment", "--config", CONFIG, "--output", str(out)) == 0
        assert run("annotate", "--config", CONFIG, "--output", str(out),
                   "--cache-dir", str(cache)) == 0
        assert list((cache / "stage1").glob("*.json"))
        assert not (out / "cache").exists()

    def test_stats_rejects_annotations_of_unknown_novels(self, tmp_path, capsys):
        assert run("segment", "--config", CONFIG, "--output", str(tmp_path)) == 0
        assert run("annotate", "--config", CONFIG, "--output", str(tmp_path)) == 0
        path = tmp_path / "annotations.jsonl"
        lines = path.read_text().splitlines()
        first = json.loads(lines[0])
        first["novel_id"] = "ghost-z"
        path.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n")
        assert run("stats", "--config", CONFIG, "--output", str(tmp_path)) == 2
        assert "ghost-z" in json.loads((tmp_path / "error.json").read_text())["message"]


@pytest.fixture(scope="module")
def upstream_run(tmp_path_factory):
    """segment, a short topics-train and annotate on the fixtures: their
    output directory and what each command printed."""
    out = tmp_path_factory.mktemp("upstream")
    short = config_with(tmp_path_factory.mktemp("config"), topics={"sweeps": 3})
    printed = {}
    for command, config in (("segment", CONFIG), ("topics-train", short),
                            ("annotate", CONFIG)):
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert run(command, "--config", config, "--output", str(out)) == 0
        printed[command] = stdout.getvalue()
    return out, printed


@pytest.fixture(scope="module")
def upstream(upstream_run):
    return upstream_run[0]


def test_stdout_summaries(tmp_path, upstream_run, capsys):
    """The one-line summary each command prints on the fixtures."""
    upstream, printed = upstream_run
    out = tmp_path / "out"
    shutil.copytree(upstream, out)
    printed = dict(printed)
    for command in ("ingest", "eval", "stats", "report"):
        assert run(command, "--config", CONFIG, "--output", str(out)) == 0
        printed[command] = capsys.readouterr().out
    assert {command: printed[command] for command in SUMMARIES} == SUMMARIES


def test_stats_reads_no_novel_text(tmp_path, upstream, monkeypatch, capsys):
    """stats needs only the manifest's metadata, so it opens no novel file;
    ingest, which counts words, opens each one once."""
    novels = (FIXTURES / "novels").resolve()
    opened = []
    real_open = Path.open

    # Path.read_text goes through Path.open on every supported Python
    def recording_open(path, *args, **kwargs):
        if path.resolve().parent == novels:
            opened.append(path.name)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(Path, "open", recording_open)
    out = tmp_path / "out"
    shutil.copytree(upstream, out)
    assert run("ingest", "--config", CONFIG, "--output", str(out)) == 0
    assert sorted(opened) == sorted(p.name for p in novels.iterdir())
    opened.clear()
    assert run("stats", "--config", CONFIG, "--output", str(out)) == 0
    assert opened == []


SUMMARIES = {
    "ingest": "ingested 3 novels (10195 words)\n",
    "segment": "wrote 22 passages (mean 463.41 words) for 3 novels\n",
    "annotate": "annotated 22 passages: 16 YES, 0 unresolved\n",
    "eval": "scored 18 gold passages: micro-F1 0.889 (YES F1 0.917, NO F1 0.833)\n",
    "stats": "wrote stats for 3 novels (16 acts)\n",
    "report": "wrote report.md and 5 figure tables\n",
}


def run_stats(tmp_path, upstream, analysis):
    """stats over a copy of upstream with tmp_path/analysis.json holding
    analysis; its exit code and output directory."""
    config = json.loads((FIXTURES / "runconfig.json").read_text())
    config["manifest"] = str(FIXTURES / config["manifest"])
    config["topics"] = {"k": 5}
    config["evaluation"] = {}
    config["analysis"] = str(tmp_path / "analysis.json")
    (tmp_path / "analysis.json").write_text(json.dumps(analysis), encoding="utf-8")
    (tmp_path / "run.json").write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    shutil.copytree(upstream, out)
    return run("stats", "--config", str(tmp_path / "run.json"), "--output", str(out)), out


class TestStatsTopicIndices:
    """A topic index outside [0, K) (K=5 here) makes only its own analysis
    entry an error; it neither aborts stats nor reports another topic."""

    def stats(self, tmp_path, upstream, analysis):
        code, out = run_stats(tmp_path, upstream, analysis)
        assert code == 0
        return json.loads((out / "stats.json").read_text())

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_out_of_range_topic_is_an_entry_error(self, tmp_path, upstream, capsys, bad):
        stats = self.stats(tmp_path, upstream, {
            "topic_correlations": [[0, bad], [0, 1]],
            "act_share_topic_correlations": [bad, 1],
            "comparisons": [{"name": "bad", "kind": "topic_prominence", "topic": bad,
                             "grouping": "gender"}],
        })
        message = f"topic index {bad} out of range for K=5"
        bad_pair, good_pair = stats["topic_correlations"]
        assert bad_pair == {"topics": [0, bad], "error": message}
        assert "r" in good_pair and "error" not in good_pair
        bad_topic, good_topic = stats["act_share_topic_correlations"]
        assert bad_topic == {"topic": bad, "error": message}
        assert "r" in good_topic and "error" not in good_topic
        assert stats["comparisons"] == [{"name": "bad", "error": message}]

    def test_malformed_entry_is_an_entry_error(self, tmp_path, upstream, capsys):
        stats = self.stats(tmp_path, upstream, {
            "topic_correlations": [[0, "x"], [0], 3, [0, None], [0, 1]],
            "act_share_topic_correlations": ["y", [1], float("inf"), 1],
            "comparisons": [
                5,
                {"name": "facet", "kind": "characterization", "facet": "afect",
                 "label": "loving", "grouping": "gender"},
                {"name": "label type", "kind": "characterization", "facet": "affect",
                 "label": 1, "grouping": "gender"},
                {"name": "label", "kind": "characterization", "facet": "impact",
                 "label": "group", "grouping": "gender"},
                {"name": "ok", "kind": "act_share", "grouping": "gender"},
            ],
        })
        *bad_pairs, good_pair = stats["topic_correlations"]
        assert bad_pairs[0] == {"topics": [0, "x"],
                                "error": "invalid literal for int() with base 10: 'x'"}
        assert [p["topics"] for p in bad_pairs] == [[0, "x"], [0], 3, [0, None]]
        assert all(set(p) == {"topics", "error"} for p in bad_pairs)
        assert good_pair["topics"] == [0, 1] and "r" in good_pair and "error" not in good_pair
        *bad_topics, good_topic = stats["act_share_topic_correlations"]
        assert all(set(t) == {"topic", "error"} for t in bad_topics)
        assert good_topic["topic"] == 1 and "r" in good_topic and "error" not in good_topic
        *bad_comparisons, good_comparison = stats["comparisons"]
        assert bad_comparisons == [
            {"name": "5", "error": "a comparison is an object, not 5"},
            {"name": "facet", "error": "unknown characterization facet 'afect'"},
            {"name": "label type", "error": "unknown affect label 1"},
            {"name": "label", "error": "unknown impact label 'group'"},
        ]
        # computed: the fixture's three novels are too few for any comparison
        assert good_comparison == {"name": "ok", "error": "empty male group after gender filters"}


# id -> text, genders, series tag: nine novels over the three fixture texts
CONTRAST_NOVELS = {
    "f1": ("hearth-a", "female", ""), "f2": ("hearth-a", "female", ""),
    "f3": ("jericho-c", "female", ""), "m1": ("ashes-b", "male", ""),
    "m2": ("ashes-b", "male", ""), "m3": ("jericho-c", "male", ""),
    "d1": ("ashes-b", "male", "dominion-cycle"), "d2": ("hearth-a", "female", "dominion-cycle"),
    "o1": ("hearth-a", "male;female", "other-saga"),
}


@pytest.fixture(scope="module")
def contrast_run(tmp_path_factory):
    """segment, a short topics-train, annotate and stats over the nine
    CONTRAST_NOVELS, once with the fixture analysis (series_tag
    dominion-cycle) and once without series_tag: the two stats.json."""
    base = tmp_path_factory.mktemp("contrasts")
    header = (FIXTURES / "manifest.csv").read_text(encoding="utf-8").splitlines()[0]
    rows = [f"{novel},Title,{';'.join(['Ann', 'Bob'][:genders.count(';') + 1])},{genders},P,"
            f"2001,{tag},,,,{FIXTURES / 'novels' / text}.txt"
            for novel, (text, genders, tag) in CONTRAST_NOVELS.items()]
    (base / "manifest.csv").write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    tagged = json.loads((FIXTURES / "analysis.json").read_text(encoding="utf-8"))
    config = json.loads(Path(config_with(base, topics={"sweeps": 3})).read_text())
    config["manifest"] = str(base / "manifest.csv")
    out, results = base / "out", []
    for analysis in (tagged, {k: v for k, v in tagged.items() if k != "series_tag"}):
        config["analysis"] = str(base / f"analysis{len(results)}.json")
        Path(config["analysis"]).write_text(json.dumps(analysis), encoding="utf-8")
        (base / "run.json").write_text(json.dumps(config), encoding="utf-8")
        upstream = () if results else ("segment", "topics-train", "annotate")
        for command in (*upstream, "stats"):
            assert run(command, "--config", str(base / "run.json"), "--output", str(out)) == 0
        results.append(json.loads((out / "stats.json").read_text(encoding="utf-8")))
    return results


@pytest.mark.parametrize("analysis, comparison, label, group_a, group_b", [
    ("tagged", "act_share~series", "dominion-cycle", ["d1", "d2"],
     ["f1", "f2", "f3", "m1", "m2", "m3", "o1"]),
    ("tagged", "act_share~gender", "female", ["f1", "f2", "f3"], ["m1", "m2", "m3"]),
    ("any", "act_share~series", "series", ["d1", "d2", "o1"],
     ["f1", "f2", "f3", "m1", "m2", "m3"]),
])
def test_contrasts_are_t_tests_of_the_act_shares(contrast_run, capsys, analysis, comparison,
                                                 label, group_a, group_b):
    """The paper's two contrasts over nine novels: the series (tagged, or
    any tag when analysis.json names none) and gender comparisons of stats
    are the t-test of the per-novel act shares of their two groups."""
    result = contrast_run[analysis == "any"]
    share = result["act_proportions"]["per_novel"]
    entry = next(c for c in result["comparisons"] if c["name"] == comparison)
    expected = stats.ttest_ind([share[n] for n in group_a], [share[n] for n in group_b])
    assert "error" not in entry
    assert entry["group_a"] == label
    assert entry["n_a"] == len(group_a) and entry["n_b"] == len(group_b)
    for key in ("statistic", "df", "p_two_sided"):
        assert entry[key] == expected[key]
    assert 0.0 < entry["p_two_sided"] < 1.0 and entry["flag"] is None


@pytest.mark.parametrize("analysis, message", [
    ([1, 2], "must hold a JSON object, got list"),
    ({"position_bins": 0}, "position_bins must be an integer >= 1, got 0"),
    ({"comparisons": 5}, "comparisons must be a list, got 5"),
])
def test_unusable_analysis_file_is_config_error(tmp_path, upstream, capsys, analysis, message):
    """An analysis.json that stats cannot use as a whole ends it with a
    config error naming the file and the field, and no stats.json."""
    capsys.readouterr()
    code, out = run_stats(tmp_path, upstream, analysis)
    assert code == 1
    assert capsys.readouterr().err == f"config error: {tmp_path / 'analysis.json'}: {message}\n"
    assert not (out / "stats.json").exists()
    assert not (out / "error.json").exists()


@pytest.mark.parametrize("name, command", [("stats.json", "report"),
                                           ("metrics.json", "report"),
                                           ("analysis.json", "stats")])
def test_json_input_that_is_not_json_names_its_file(tmp_path, upstream, capsys, name, command):
    """A truncated stats.json or metrics.json ends report with a runtime error,
    and a truncated analysis.json ends stats with a config error, each naming
    the file."""
    code, out = run_stats(tmp_path, upstream, {})
    assert code == 0
    shutil.copy(GOLDEN / "metrics.json", out / "metrics.json")
    path = tmp_path / name if name == "analysis.json" else out / name
    path.write_text('{"a": ', encoding="utf-8")
    capsys.readouterr()
    code = run(command, "--config", str(tmp_path / "run.json"), "--output", str(out))
    message = f"{path} is not valid JSON: Expecting value: line 1 column 7 (char 6)"
    if command == "stats":
        assert code == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (out / "error.json").exists()
    else:
        assert code == 2
        assert f"error: {message}\n" in capsys.readouterr().err
        assert json.loads((out / "error.json").read_text())["message"] == message


@pytest.mark.parametrize("name", ["stats.json", "metrics.json"])
def test_report_input_that_is_not_an_object_names_its_file(tmp_path, upstream, capsys, name):
    """A stats.json or metrics.json holding another JSON value than an
    object ends report with a runtime error naming the file."""
    code, out = run_stats(tmp_path, upstream, {})
    assert code == 0
    shutil.copy(GOLDEN / "metrics.json", out / "metrics.json")
    (out / name).write_text("[1]", encoding="utf-8")
    capsys.readouterr()
    assert run("report", "--config", str(tmp_path / "run.json"), "--output", str(out)) == 2
    message = f"{out / name}: must hold a JSON object, got list"
    assert f"error: {message}\n" in capsys.readouterr().err
    assert json.loads((out / "error.json").read_text())["message"] == message
    assert not (out / "report.md").exists()


@pytest.mark.parametrize("text, message", [
    ('{"manifest": ', "{} is not valid JSON: Expecting value: line 1 column 14 (char 13)"),
    ("[]", "{}: must hold a JSON object, got list"),
    (b"\xff{}", "{} is not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0: "
                "invalid start byte"),
], ids=["not json", "not an object", "not utf-8"])
def test_run_config_that_is_not_a_json_object_names_its_file(tmp_path, capsys, text, message):
    """A run config that is not a JSON object ends the command with a
    config error naming the file, before any output directory is made."""
    path = tmp_path / "run.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    assert run("segment", "--config", str(path)) == 1
    assert capsys.readouterr().err == f"config error: {message.format(path)}\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("field, value, found", [
    ("vocabulary", None, "null, not an array"),
    ("alpha", 3, "an integer, not an array"),
    ("doc_novels", 5, "an integer, not an array"),
    ("k", "5", "a string, not an integer"),
    ("k", True, "a boolean, not an integer"),
    ("beta", "x", "a string, not an integer or a float"),
    ("log_likelihood", None, "null, not an array"),
])
def test_state_field_of_wrong_type_names_file_and_field(tmp_path, upstream, capsys, field,
                                                         value, found):
    """A state.json field of the wrong JSON type is a ValueError from
    read_state naming the file, the field and the type found, and so a
    runtime error of stats and topics-inspect."""
    out = tmp_path / "out"
    shutil.copytree(upstream, out)
    path = out / "topics" / "state.json"
    state = json.loads(path.read_text(encoding="utf-8"))
    state[field] = value
    path.write_text(json.dumps(state), encoding="utf-8")
    message = f"topic state {path}: {field} is {found}"
    with pytest.raises(ValueError, match=re.escape(message)):
        statefile.read_state(path)
    for command in ("stats", "topics-inspect"):
        capsys.readouterr()
        assert run(command, "--config", CONFIG, "--output", str(out)) == 2
        assert f"error: {message}\n" in capsys.readouterr().err
        assert json.loads((out / "error.json").read_text())["message"] == message


def test_state_with_a_matrix_before_its_fields_is_refused(tmp_path, upstream, capsys):
    """stats takes state.json's doc_topic rows and topics-inspect its n_kw
    rows as they are decoded, so a state whose doc_topic and n_kw come
    before the vocabulary is a runtime error of each naming the file and
    the matrix it takes, never misread; read_state taking no matrix, and the
    whole-string decoder, read it as json.loads does."""
    out = tmp_path / "out"
    shutil.copytree(upstream, out)
    path = out / "topics" / "state.json"
    state = json.loads(path.read_text(encoding="utf-8"))
    keys = ["doc_topic", "n_kw"] + [key for key in state if key not in ("doc_topic", "n_kw")]
    path.write_text(json.dumps({key: state[key] for key in keys}), encoding="utf-8")
    assert load_state_reference(path) == {key: state[key] for key in topics.STATE_FIELDS}
    assert statefile.read_state(path) == {key: state[key] for key in topics.STATE_FIELDS
                                          if key not in statefile.MATRICES}
    for command, matrix in (("stats", "doc_topic"), ("topics-inspect", "n_kw")):
        capsys.readouterr()
        assert run(command, "--config", CONFIG, "--output", str(out)) == 2
        assert (f"error: topic state {path}: {matrix} comes before format, which save_state "
                f"writes first\n") in capsys.readouterr().err


def run_with_csv(tmp_path, upstream, command, section, key, text):
    """command over a copy of upstream, with the fixture config's
    section.key (the top-level key when section is None) naming
    tmp_path/bad.csv, which holds text; the exit code, the CSV's path and
    the output directory."""
    bad = tmp_path / "bad.csv"
    bad.write_text(text, encoding="utf-8")
    value = [str(bad)] if key == "rounds" else str(bad)
    config = config_with(tmp_path, **({section: {key: value}} if section else {key: value}))
    out = tmp_path / "out"
    shutil.copytree(upstream, out)
    return run(command, "--config", config, "--output", str(out)), bad, out


@pytest.mark.parametrize("command, section, key, header, missing, written", [
    ("stats", "topics", "labels", "idx,label", "topic_index", "stats.json"),
    ("eval", "evaluation", "rounds", "passage_id,annotator_id,verdict", "label",
     "metrics.json"),
    ("eval", "evaluation", "gold_overrides", "passage_id,resolution_note", "label",
     "metrics.json"),
    ("eval", "evaluation", "spotcheck", "passage_id,affect", "impact", "metrics.json"),
    ("ingest", None, "manifest", MANIFEST_LINES[0].removesuffix(",path"), "path",
     "corpus.json"),
], ids=["topic labels", "round", "gold overrides", "spotcheck", "manifest"])
def test_csv_without_a_required_column_is_config_error(tmp_path, upstream, capsys, command,
                                                       section, key, header, missing,
                                                       written):
    """A config-named CSV whose header lacks a column its reader needs ends
    the command with a config error naming the file and the column."""
    capsys.readouterr()
    code, bad, out = run_with_csv(tmp_path, upstream, command, section, key,
                                  header + "\nhearth-a:0,YES,NO\n")
    assert code == 1
    assert capsys.readouterr().err == f"config error: {bad}: missing column {missing!r}\n"
    assert not (out / written).exists()
    assert not (out / "error.json").exists()


@pytest.mark.parametrize("command, section, key, text, column", [
    ("stats", "topics", "labels", "topic_index,label\n0,Hearth\n1\n", "label"),
    ("eval", "evaluation", "rounds",
     "passage_id,annotator_id,label\nhearth-a:0,ada,YES\nhearth-a:0,bea\n", "label"),
    ("eval", "evaluation", "gold_overrides",
     "passage_id,label,resolution_note\nashes-b:1,YES,\nhearth-a:5\n", "label"),
    ("eval", "evaluation", "spotcheck",
     "passage_id,affect,impact\nhearth-a:0,INDIVIDUAL,LOVING\nashes-b:2,GROUP\n", "impact"),
    ("eval", "evaluation", "rounds",
     "passage_id,annotator_id,label\nhearth-a:0,ada,YES\n ,bea,NO\n", "passage_id"),
    ("ingest", None, "manifest",
     "\n".join(MANIFEST_LINES[:2] + ["," + MANIFEST_LINES[2].partition(",")[2]]), "id"),
], ids=["topic labels", "round", "gold overrides", "spotcheck", "round empty passage_id",
        "manifest empty id"])
def test_csv_with_a_short_row_is_config_error(tmp_path, upstream, capsys, command, section,
                                             key, text, column):
    """A row with no cell for a required column, or an empty key cell,
    ends the command with a config error naming the file and the line,
    and writes no result."""
    capsys.readouterr()
    code, bad, out = run_with_csv(tmp_path, upstream, command, section, key, text)
    assert code == 1
    assert capsys.readouterr().err == (
        f"config error: {bad}: line 3: no cell for column {column!r}\n")
    for written in ("corpus.json", "metrics.json", "stats.json", "error.json"):
        assert not (out / written).exists()


@pytest.mark.parametrize("command, written", [("eval", "metrics.json"),
                                              ("stats", "stats.json")])
def test_csv_inputs_with_a_byte_order_mark_read_the_same(tmp_path, upstream, command,
                                                         written):
    """Every CSV input with the byte-order mark a spreadsheet's "CSV UTF-8"
    export writes (the manifest, the rounds, the overrides, the spot-check
    and the topic labels) gives the bytes the plain files give."""
    marked = tmp_path / "marked"
    shutil.copytree(FIXTURES, marked)
    for path in marked.rglob("*.csv"):
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    results = []
    for fixtures in (FIXTURES, marked):
        out = tmp_path / f"out-{len(results)}"
        shutil.copytree(upstream, out)
        assert run(command, "--config", str(fixtures / "runconfig.json"),
                   "--output", str(out)) == 0
        results.append((out / written).read_bytes())
    assert results[0] == results[1]


def test_text_and_json_inputs_with_a_byte_order_mark_read_the_same(tmp_path):
    """The novel texts, the stopword list, the run config, analysis.json
    and a prompt registry, each with a byte-order mark, give the bytes the
    plain files give, from ingest to stats."""
    outputs = []
    for marked in (False, True):
        fixtures = tmp_path / f"fixtures-{marked}"
        shutil.copytree(FIXTURES, fixtures)
        (fixtures / "registry.json").write_text(json.dumps(annotate.BUILTIN_REGISTRY),
                                                encoding="utf-8")
        run_config = json.loads((fixtures / "runconfig.json").read_text(encoding="utf-8"))
        run_config["prompts"] = {"registry": "registry.json"}
        (fixtures / "runconfig.json").write_text(json.dumps(run_config), encoding="utf-8")
        if marked:
            for path in [*(fixtures / "novels").iterdir(), fixtures / "stopwords.txt",
                         fixtures / "runconfig.json", fixtures / "analysis.json",
                         fixtures / "registry.json"]:
                path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        out = tmp_path / f"out-{marked}"
        for command in ("ingest", "segment", "topics-train", "annotate", "stats"):
            assert run(command, "--config", str(fixtures / "runconfig.json"),
                       "--output", str(out)) == 0, command
        outputs.append({rel: (out / rel).read_bytes() for rel in (
            "corpus.json", "passages.jsonl", "topics/state.json", "annotations.jsonl",
            "stats.json")})
    assert outputs[0] == outputs[1]
    assert outputs[0]["passages.jsonl"] == (GOLDEN / "passages.jsonl").read_bytes()


@pytest.mark.parametrize("earlier", [None, b"an earlier run's annotations\n"],
                         ids=["first run", "over an earlier run"])
def test_interrupted_annotate_leaves_no_partial_annotations(tmp_path, upstream, monkeypatch,
                                                            earlier):
    """An annotate run interrupted part-way (KeyboardInterrupt from the
    model) writes no annotations.jsonl and leaves no temporary file, and an
    earlier annotations.jsonl stays as it was."""
    class KillSwitch(annotate.MockModel):
        def transport(self, config, prompt, schema):
            if self._stage_for(schema) == "stage1" and self.calls["stage1"] >= 5:
                raise KeyboardInterrupt
            return super().transport(config, prompt, schema)

    out = tmp_path / "out"
    shutil.copytree(upstream, out)
    path = out / "annotations.jsonl"
    path.unlink()
    if earlier is not None:
        path.write_bytes(earlier)
    listed = sorted(out.iterdir())
    monkeypatch.setattr(annotate, "MockModel", KillSwitch)
    with pytest.raises(KeyboardInterrupt):
        run("annotate", "--config", CONFIG, "--output", str(out),
            "--cache-dir", str(tmp_path / "cache"))
    assert sorted(out.iterdir()) == listed
    assert (path.read_bytes() if path.exists() else None) == earlier
    assert len(list((tmp_path / "cache" / "stage1").iterdir())) >= 5


def interrupting(items, error):
    """items, with error raised in place of the 4th."""
    for i, item in enumerate(items):
        if i == 3:
            raise error
        yield item


def test_interrupted_segment_leaves_the_earlier_passages(tmp_path, upstream, monkeypatch):
    """segment interrupted (KeyboardInterrupt) while it writes the 4th
    passage leaves an earlier passages.jsonl byte for byte as it was, not
    the 3 passages before the interrupt, and no temporary file."""
    out = tmp_path / "out"
    shutil.copytree(upstream, out)
    earlier = (out / "passages.jsonl").read_bytes()
    listed = sorted(out.rglob("*"))
    segment_corpus = corpus.segment_corpus
    monkeypatch.setattr(corpus, "segment_corpus", lambda *args, **kwargs: interrupting(
        segment_corpus(*args, **kwargs), KeyboardInterrupt))
    with pytest.raises(KeyboardInterrupt):
        run("segment", "--config", CONFIG, "--output", str(out))
    assert (out / "passages.jsonl").read_bytes() == earlier
    assert sorted(out.rglob("*")) == listed


def test_failed_save_state_leaves_the_earlier_state(tmp_path, upstream, monkeypatch):
    """topics-train failing part-way through writing state.json (at its 4th
    row, in blocks of one row) ends with exit 2 and error.json, and leaves
    the earlier state.json byte for byte as it was, and no temporary file in
    topics/."""
    out = tmp_path / "out"
    shutil.copytree(upstream, out)
    earlier = (out / "topics" / "state.json").read_bytes()
    listed = sorted((out / "topics").iterdir())
    write_rows = topics._write_rows
    monkeypatch.setattr(_sweep, "BLOCK", 1)
    monkeypatch.setattr(topics, "_write_rows", lambda fh, rows: write_rows(
        fh, interrupting(rows, OSError("No space left on device"))))
    config = config_with(tmp_path, topics={"sweeps": 2})
    assert run("topics-train", "--config", config, "--output", str(out)) == 2
    assert json.loads((out / "error.json").read_text())["message"] == "No space left on device"
    assert (out / "topics" / "state.json").read_bytes() == earlier
    assert sorted((out / "topics").iterdir()) == listed


@pytest.mark.parametrize("command, name", [
    ("segment", "fixtures/novels/hearth-a.txt"), ("topics-train", "fixtures/stopwords.txt"),
    ("ingest", "fixtures/manifest.csv"), ("eval", "fixtures/rounds/round1.csv"),
    ("eval", "fixtures/gold_overrides.csv"), ("eval", "fixtures/spotcheck.csv"),
    ("stats", "fixtures/topic_labels.csv"),
    ("annotate", "out/passages.jsonl"), ("stats", "out/passages.jsonl"),
    ("eval", "out/annotations.jsonl"), ("stats", "out/annotations.jsonl"),
], ids=["novel text", "stopwords", "manifest", "round", "overrides", "spotcheck",
        "topic labels", "passages for annotate", "passages for stats",
        "annotations for eval", "annotations for stats"])
def test_text_input_that_is_not_utf8_names_its_file(tmp_path, upstream, command, name):
    """A person's text file, or an artifact an earlier command wrote, with a
    Latin-1 byte ends the command with exit 2 and error.json naming the
    file, and changes no other output."""
    fixtures = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, fixtures)
    out = tmp_path / "out"
    shutil.copytree(upstream, out)
    bad = tmp_path / name
    bad.write_bytes(bad.read_bytes() + "Café\n".encode("latin-1"))
    before = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
    assert run(command, "--config", str(fixtures / "runconfig.json"), "--output", str(out)) == 2
    message = json.loads((out / "error.json").read_text())["message"]
    assert f"{bad} is not UTF-8: 'utf-8' codec can't decode byte 0xe9 in position " in message
    (out / "error.json").unlink()
    assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == before


@pytest.mark.parametrize("name, commands", [("passages.jsonl", ("annotate", "stats")),
                                            ("annotations.jsonl", ("eval", "stats"))])
def test_artifact_with_a_byte_order_mark_reads_as_without(tmp_path, upstream, name, commands):
    """passages.jsonl or annotations.jsonl that starts with a byte-order
    mark gives each command that reads it the outputs it gives without one."""
    outputs = []
    for marked in (False, True):
        out = tmp_path / f"out-{marked}"
        shutil.copytree(upstream, out)
        if marked:
            (out / name).write_bytes(b"\xef\xbb\xbf" + (out / name).read_bytes())
        for command in commands:
            assert run(command, "--config", CONFIG, "--output", str(out)) == 0, command
        outputs.append({path.relative_to(out): path.read_bytes() for path in out.rglob("*")
                        if path.is_file() and path.name != name})
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command, section, key, text, message, written", [
    ("eval", "evaluation", "gold_overrides",
     (FIXTURES / "gold_overrides.csv").read_text(encoding="utf-8") + "hearth-a:99,YES,typo\n",
     "gold overrides for passages no round judged: hearth-a:99", "metrics.json"),
    ("stats", "topics", "labels", "topic_index,label\n0,Hearth\n1,Road\n0,Ruin\n",
     "{bad}: line 4: repeated topic_index '0'", "stats.json"),
    ("eval", "evaluation", "rounds",
     "passage_id,annotator_id,label\nhearth-a:0,ada,YES\nhearth-a:0, ada,NO\n",
     "{bad}: line 3: repeated passage_id 'hearth-a:0', annotator_id 'ada'", "metrics.json"),
    ("eval", "evaluation", "gold_overrides",
     "passage_id,label\nashes-b:1,YES\nhearth-a:5,NO\nashes-b:1 ,NO\n",
     "{bad}: line 4: repeated passage_id 'ashes-b:1'", "metrics.json"),
    ("eval", "evaluation", "spotcheck",
     "passage_id,affect,impact\nhearth-a:0,INDIVIDUAL,LOVING\nhearth-a:0,GROUP,PUNISHING\n",
     "{bad}: line 3: repeated passage_id 'hearth-a:0'", "metrics.json"),
    *[("stats", "topics", "labels", f"topic_index,label\n1,Road\n{index},Ruin\n",
       f"{{bad}}: line 3: topic_index {index!r} is not one of 0, 1, 2, 3, 4", "stats.json")
      for index in ("07", "5", "-1")],
], ids=["override for an unjudged passage", "topic labelled twice", "round judged twice",
        "passage overridden twice", "passage spot-checked twice", "topic index 07",
        "topic index K", "topic index -1"])
def test_human_input_naming_no_or_two_items_is_an_error(tmp_path, upstream, command,
                                                       section, key, text, message, written):
    """An override that resolves no judged passage, a key repeated in a
    human CSV once its cells are stripped, or a label for no topic of the
    K=5 state, ends the command with exit 2 and error.json naming it, and
    the file and line of the repeat or the label."""
    code, bad, out = run_with_csv(tmp_path, upstream, command, section, key, text)
    assert code == 2
    assert json.loads((out / "error.json").read_text())["message"] == message.format(bad=bad)
    assert not (out / written).exists()


@pytest.mark.parametrize("rounds, message", [
    ([], "config names no evaluation.rounds"),
    (["rounds/round1.csv", "rounds/round2.csv", "b/round2.csv"],
     "rounds {fixtures}/rounds/round2.csv and {tmp}/b/round2.csv share the name 'round2'"),
], ids=["no rounds", "two rounds of one name"])
def test_rounds_eval_cannot_tell_apart_are_config_error(tmp_path, upstream, capsys, rounds,
                                                        message):
    """eval scores each round under its file name, so it needs rounds, and
    two round files of one name end it with a config error naming both."""
    (tmp_path / "b").mkdir()
    shutil.copy(FIXTURES / "rounds" / "round1.csv", tmp_path / "b" / "round2.csv")
    paths = [str(tmp_path / p) if p.startswith("b/") else str(FIXTURES / p) for p in rounds]
    config = config_with(tmp_path, evaluation={"rounds": paths})
    out = tmp_path / "out"
    shutil.copytree(upstream, out)
    capsys.readouterr()
    assert run("eval", "--config", config, "--output", str(out)) == 1
    assert capsys.readouterr().err == (
        f"config error: {message.format(fixtures=FIXTURES, tmp=tmp_path)}\n")
    assert not (out / "metrics.json").exists()
    assert not (out / "error.json").exists()


@pytest.mark.parametrize("command", ["eval", "stats"])
def test_config_mistake_is_reported_before_any_artifact_is_read(tmp_path, capsys, command):
    """A config mistake (no evaluation.rounds for eval, an analysis.json
    that is not JSON for stats) ends the command with exit 1 and the config
    error even in an output directory that has no artifact: each checks its
    config before it reads passages.jsonl, annotations.jsonl or state.json."""
    analysis = tmp_path / "analysis.json"
    analysis.write_text("{", encoding="utf-8")
    config = config_with(tmp_path, evaluation={"rounds": []}, analysis=str(analysis))
    message = {"eval": "config names no evaluation.rounds",
               "stats": f"{analysis} is not valid JSON: Expecting property name enclosed in "
                        "double quotes: line 1 column 2 (char 1)"}[command]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(command, "--config", config, "--output", str(out)) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert list(out.iterdir()) == []


class TestOverrides:
    @pytest.mark.parametrize("command, written", [("segment", "passages.jsonl"),
                                                  ("topics-train", "topics/state.json")])
    @pytest.mark.parametrize("setting, key", [({"topics": {"sweep": 5}}, "topics.sweep"),
                                              ({"topicz": {"k": 5}}, "topicz")],
                             ids=["in a section", "top level"])
    def test_unknown_setting_in_config_rejected(self, tmp_path, capsys, command, written,
                                                setting, key):
        """A key no setting declares ends the command before any output."""
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"manifest": str(FIXTURES / "manifest.csv"), **setting}),
                        encoding="utf-8")
        out = tmp_path / "out"
        assert run(command, "--config", str(path), "--output", str(out)) == 1
        assert capsys.readouterr().err == f"config error: unknown setting {key}\n"
        assert not (out / written).exists()
        assert not out.exists()

    @pytest.mark.parametrize("section, key", [("topics", "sweeps"), ("topics", "k"),
                                              ("model", "workers")],
                             ids=lambda value: value)
    def test_zero_count_in_config_rejected(self, tmp_path, capsys, section, key):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"manifest": str(FIXTURES / "manifest.csv"),
                                    section: {key: 0}}), encoding="utf-8")
        assert run("topics-train", "--config", str(path), "--output", str(tmp_path)) == 1
        assert f"config error: {section}.{key} must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "topics" / "state.json").exists()

    def test_zero_sweeps_in_config_rejected(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"manifest": str(FIXTURES / "manifest.csv"),
                                    "topics": {"sweeps": 0}}), encoding="utf-8")
        assert run("topics-train", "--config", str(path), "--output", str(tmp_path)) == 1
        assert "topics.sweeps" in capsys.readouterr().err


    def test_wrong_type_in_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"manifest": str(FIXTURES / "manifest.csv"),
                                    "topics": {"k": "five"}}), encoding="utf-8")
        assert run("segment", "--config", str(path), "--output", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert "config error: topics.k must be an integer" in err
        assert "Traceback" not in err
        assert not (tmp_path / "passages.jsonl").exists()

    @pytest.mark.parametrize("setting", [{"timeout": 0}, {"max_retries": -1},
                                         {"temperature": -1}, {"timeout": float("nan")},
                                         {"temperature": float("nan")},
                                         {"timeout": float("inf")},
                                         {"temperature": float("-inf")},
                                         {"timeout": 10 ** 400}])
    def test_bad_model_setting_in_config_rejected(self, tmp_path, capsys, setting):
        """It ends the command before the output directory is made."""
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"manifest": str(FIXTURES / "manifest.csv"),
                                    "model": setting, "output_dir": "made"}), encoding="utf-8")
        assert run("segment", "--config", str(path)) == 1
        assert next(iter(setting)) in capsys.readouterr().err
        assert not (tmp_path / "made").exists()


def builtins_with(name, field=None, change=None, /, **entry):
    """The built-in registry as JSON text, with template name@v1's keys
    updated from entry, and its field named field updated from change, or
    removed when change is None."""
    registry = json.loads(json.dumps(annotate.BUILTIN_REGISTRY))
    template = next(t for t in registry["templates"] if t["name"] == name)
    template.update(entry)
    fields = template["fields"]
    if field is not None:
        index = [f["name"] for f in fields].index(field)
        if change is None:
            del fields[index]
        else:
            fields[index].update(change)
    return json.dumps(registry)


class TestPromptVersions:
    def annotate(self, tmp_path, monkeypatch, capsys, prompts):
        """segment, then annotate with the given prompts config; annotate's
        exit code, its stderr, the model calls made and the output dir."""
        config = json.loads((FIXTURES / "runconfig.json").read_text())
        config["manifest"] = str(FIXTURES / config["manifest"])
        config["topics"] = {}
        config["evaluation"] = {}
        del config["analysis"]
        config["prompts"] = prompts
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        assert run("segment", "--config", str(path), "--output", str(out)) == 0
        models = []

        class CountedModel(annotate.MockModel):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                models.append(self)

        monkeypatch.setattr(annotate, "MockModel", CountedModel)
        capsys.readouterr()
        code = run("annotate", "--config", str(path), "--output", str(out))
        return code, capsys.readouterr().err, sum(sum(m.calls.values()) for m in models), out

    def assert_config_error(self, result, message):
        code, err, calls, out = result
        assert code == 1
        assert err == f"config error: {message}\n"
        assert calls == 0
        assert not (out / "annotations.jsonl").exists()
        assert not (out / "error.json").exists()

    def test_templates_resolved_once(self, tmp_path, capsys, monkeypatch):
        resolved = []
        resolve = annotate.resolve_templates
        monkeypatch.setattr(annotate, "resolve_templates",
                            lambda *args: resolved.append(args) or resolve(*args))
        code, _, calls, out = self.annotate(tmp_path, monkeypatch, capsys,
                                            {"versions": {"affect": "v1"}})
        assert code == 0 and calls > 0
        assert len(resolved) == 1
        assert (out / "annotations.jsonl").is_file()

    @pytest.mark.parametrize("versions, message", [
        ({"affect": "v9"}, "no template affect@v9 in registry"),
        ({"stage_1": "v1"}, "prompt versions name unknown stages ['stage_1']"),
    ])
    def test_unknown_version_is_config_error(self, tmp_path, capsys, monkeypatch,
                                             versions, message):
        result = self.annotate(tmp_path, monkeypatch, capsys, {"versions": versions})
        self.assert_config_error(result, message)

    @pytest.mark.parametrize("text, message", [
        ('{"nottemplates": []}', "{}: missing key 'templates'"),
        ('{"templates": [{"name": "affect", "version": "v2", "body": "[INSERT TEXT HERE]"}]}',
         "{}: missing key 'fields'"),
        ("not json", "{} is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ("[]", "{}: must hold a JSON object, got list"),
        (builtins_with("impact", "god_impact", {"values": "LOVING"}),
         "{}: field values must be a list of strings, got 'LOVING'"),
        (builtins_with("impact", body=5), "{}: template body must be a string, got 5"),
        (builtins_with("impact", name=5), "{}: template name must be a string, got 5"),
        (builtins_with("impact", version=["v1"]),
         "{}: template version must be a string, got ['v1']"),
        (builtins_with("impact", "god_impact", {"name": None}),
         "{}: field name must be a string, got None"),
        (builtins_with("impact", "god_impact", {"kind": 1}),
         "{}: field kind must be a string, got 1"),
        (builtins_with("act_of_god", "act_description"),
         "template act_of_god@v1: the cascade reads field 'act_description' as text"),
        (builtins_with("act_of_god", "act_description", {"kind": "enum", "values": ["A", "B"]}),
         "template act_of_god@v1: the cascade reads field 'act_description' as text"),
        (builtins_with("act_of_god", "label", {"values": ["YES", "NO", "MAYBE"]}),
         "template act_of_god@v1: the cascade reads field 'label' as an enum of YES, NO"),
        (builtins_with("supernatural_check", "label", {"kind": "text", "values": []}),
         "template supernatural_check@v1: the cascade reads field 'label' as an enum of "
         "YES, NO"),
        (builtins_with("affect", "god_affect", {"values": ["ONE", "MANY"]}),
         "template affect@v1: the cascade reads field 'god_affect' as an enum of "
         "INDIVIDUAL, GROUP"),
        (builtins_with("impact", "god_impact", {"values": ["calm", "angry"]}),
         "{}: enum field 'god_impact' label 'calm' must be upper-case, with no space "
         "around it"),
    ], ids=["no templates", "no fields", "not json", "not an object", "values a string",
            "body not a string", "name not a string", "version not a string",
            "field name not a string", "kind not a string", "stage 1 without act",
            "act an enum", "a third label", "stage 2 label text", "affect with other labels",
            "lower-case labels"])
    def test_malformed_registry_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                text, message):
        """A prompt registry annotate cannot read, or one whose template lacks
        a field the cascade reads, ends it with a config error naming the
        file once and the key, or the template and the field, before any
        model call."""
        (tmp_path / "reg.json").write_text(text, encoding="utf-8")
        result = self.annotate(tmp_path, monkeypatch, capsys, {"registry": "reg.json"})
        self.assert_config_error(result, message.format(tmp_path / "reg.json"))


class TestErrorFile:
    def test_error_file_removed_by_next_success(self, tmp_path, capsys):
        assert run("topics-inspect", "--config", CONFIG, "--output", str(tmp_path)) == 2
        assert (tmp_path / "error.json").is_file()
        assert run("segment", "--config", CONFIG, "--output", str(tmp_path)) == 0
        assert not (tmp_path / "error.json").exists()


def python(code):
    """code run by a fresh interpreter that finds the package under src/."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)


def imported_with_cli(module):
    proc = python(f"import sys, godspell.cli; print({module!r} in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_import_leaves_out_the_compiled_sweep():
    assert not imported_with_cli("godspell._sweep")


def test_import_leaves_out_requests():
    assert not imported_with_cli("requests")


def test_package_import_loads_no_submodule():
    proc = python("import sys, godspell; "
                  "print(sorted(m for m in sys.modules if m.startswith('godspell.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("data", [b"", b"abc", "naïve “God” — ἀγάπη".encode("utf-8"),
                                  bytes(range(256)) * 3], ids=["empty", "ascii", "non-ascii",
                                                               "768 bytes"])
def test_sha256_is_hashlibs(data):
    assert config.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    assert config.sha256(data).digest() == hashlib.sha256(data).digest()


def test_sha256_falls_back_to_hashlib_with_the_same_digests():
    """With CPython's own sha256 modules missing, config.sha256 is
    hashlib's, and the kernel's file name and the golden cache keys stay
    as they are."""
    proc = python(
        "import json, sys\n"
        "sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
        "import hashlib\n"
        "from godspell import _sweep, annotate, config, corpus\n"
        "assert config.sha256 is hashlib.sha256\n"
        "stage1 = annotate.resolve_templates(annotate.default_registry(), {})['stage1']\n"
        f"passages = corpus.read_passages({str(GOLDEN / 'passages.jsonl')!r})\n"
        "print(json.dumps([_sweep.library_name(), [annotate.cache_key(\n"
        "    'gemma3n:e4b', stage1, p.text, 'stage1') for p in passages]]))\n")
    assert proc.returncode == 0, proc.stderr
    library, keys = json.loads(proc.stdout)
    assert library == _sweep.library_name()
    golden = [json.loads(line)["cache_key"]
              for line in (GOLDEN / "annotations.jsonl").read_text(encoding="utf-8").splitlines()]
    assert len(golden) == len(keys)
    assert any(golden)
    assert all(key == found for key, found in zip(keys, golden) if found is not None)


def test_analysis_modules_import_without_numpy_and_scipy():
    proc = python("import sys\nsys.modules['numpy'] = sys.modules['scipy'] = None\n"
                  "import godspell.stats, godspell.evaluation, godspell.topics, godspell.report\n"
                  "import godspell._sweep\n")
    assert proc.returncode == 0, proc.stderr


# What each command writes; the files that tests/golden holds must match it.
WRITES = {
    "ingest": ["corpus.json"],
    "segment": ["passages.jsonl"],
    "topics-train": ["topics/state.json"],
    "annotate": ["annotations.jsonl"],
    "eval": ["metrics.json"],
    "stats": ["stats.json"],
    "report": ["report.md"] + sorted(
        str(p.relative_to(GOLDEN)) for p in (GOLDEN / "figures").iterdir()),
    "topics-inspect": ["topics/top_words.csv"],
}


@pytest.mark.parametrize("command, blocked", [
    ("ingest", "numpy,scipy"),
    ("segment", "numpy,scipy"),
    ("annotate", "numpy,scipy"),
    ("eval", "numpy,scipy"),
    ("report", "numpy,scipy"),
    ("topics-train", "numpy,scipy"),
    ("topics-train", "scipy"),
    ("stats", "scipy"),
    ("topics-inspect", "scipy"),
    ("stats", "numpy,scipy"),
    ("topics-inspect", "numpy,scipy"),
    *[(command, "http.client,urllib.request") for command in WRITES],
    *[(command, "hashlib,_hashlib,ssl") for command in WRITES],
    *[(command, "godspell.annotate") for command in WRITES if command != "annotate"],
    *[(command, "godspell.report") for command in WRITES if command != "report"],
    ("eval", "godspell.stats"),
    ("annotate", "uuid"),
    ("topics-train", "subprocess,tempfile"),
    ("topics-train", "godspell.statefile"),
    ("annotate", "godspell.statefile"),
    ("stats", "ctypes,godspell._sweep"),
    ("topics-inspect", "ctypes,godspell._sweep"),
    ("topics-inspect", "godspell.corpus"),
    ("report", "godspell.corpus"),
    ("annotate", "csv"),
])
def test_command_runs_without_libraries_it_does_not_use(tmp_path, command, blocked):
    """The command in an interpreter where importing a blocked library
    fails, over the golden tree as its inputs, writes its golden bytes.
    The kernel is built first, so topics-train only loads it."""
    _sweep.kernel()
    out = tmp_path / "out"
    shutil.copytree(GOLDEN, out)
    for rel in WRITES[command]:
        (out / rel).unlink(missing_ok=True)
    argv = [command, "--config", CONFIG, "--output", str(out)]
    proc = python("import sys\n"
                  + "".join(f"sys.modules[{m!r}] = None\n" for m in blocked.split(","))
                  + f"from godspell.cli import main\nsys.exit(main({argv!r}))\n")
    assert proc.returncode == 0, proc.stderr
    for rel in WRITES[command]:
        assert (out / rel).is_file(), f"{command} did not write {rel}"
        if (GOLDEN / rel).is_file():
            assert (out / rel).read_bytes() == (GOLDEN / rel).read_bytes(), rel


def test_annotate_http_runs_without_ssl_or_http_client(tmp_path):
    """annotate on an http:// endpoint, in an interpreter where importing
    ssl, _ssl, http.client, email or urllib.request fails, annotates every
    passage against a local server: OpenSSL is for an https:// one alone."""
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(GOLDEN / "passages.jsonl", out)
    passages = read_passages(out / "passages.jsonl")
    config = config_with(tmp_path, model={"backend": "http", "max_retries": 0})
    blocked = ("ssl", "_ssl", "http.client", "email", "urllib.request")
    with serving(KeepAliveHandler) as server:
        server.script = [("ok", STAGE1_NO)] * len(passages)
        argv = ["annotate", "--config", config, "--output", str(out),
                "--endpoint", f"http://127.0.0.1:{server.server_address[1]}"]
        proc = python(f"import sys\nsys.modules.update(dict.fromkeys({blocked!r}))\n"
                      f"from godspell.cli import main\nsys.exit(main({argv!r}))\n")
    assert proc.returncode == 0, proc.stderr
    annotations = read_annotations(out / "annotations.jsonl")
    assert [a.ref for a in annotations] == [p.ref for p in passages]
    assert all(a.status == "ok" for a in annotations)
    assert server.requests == len(passages)


@pytest.mark.parametrize("endpoint", ["localhost:11434", "ftp://localhost:11434", "http://",
                                      "http://localhost:port", "http://localhost:99999",
                                      "http://localhost:0", "http://127.0.0.1:9/café",
                                      "http://127.0.0.1:9/a b"])
@pytest.mark.parametrize("source", ["flag", "environment", "file"])
def test_malformed_endpoint_is_a_config_error(tmp_path, monkeypatch, capsys, endpoint, source):
    """An endpoint that is not http(s) with a host, or that a request line
    cannot carry (not ASCII, or with a space), stops annotate before it
    reads a passage, and is not retried at each passage's call."""
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(GOLDEN / "passages.jsonl", out)
    model = {"backend": "http", **({"endpoint": endpoint} if source == "file" else {})}
    argv = ["annotate", "--config", config_with(tmp_path, model=model), "--output", str(out)]
    if source == "flag":
        argv += ["--endpoint", endpoint]
    if source == "environment":
        monkeypatch.setenv(config.ENDPOINT_ENV_VAR, endpoint)
    else:
        monkeypatch.delenv(config.ENDPOINT_ENV_VAR, raising=False)
    monkeypatch.setattr(corpus, "iter_passages", lambda path: pytest.fail("read a passage"))
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: model: endpoint"), err
    assert repr(endpoint) in err
    assert not (out / "annotations.jsonl").exists()


@pytest.mark.parametrize("endpoint", ["http://localhost:11434", "https://models.example:443/",
                                      "http://[::1]:8080/ollama", "HTTP://127.0.0.1"])
def test_endpoint_over_http_with_a_host_is_accepted(endpoint):
    assert config.ModelConfig(model="m", endpoint=endpoint).endpoint == endpoint


def test_built_kernel_loads_without_build_tools():
    """A built kernel loads and samples without subprocess, tempfile and
    shutil, which only a build uses. The command test cannot block shutil:
    argparse imports it for every command."""
    _sweep.kernel()
    proc = python("import sys\n"
                  "for m in ('subprocess', 'tempfile', 'shutil'): sys.modules[m] = None\n"
                  "from godspell import topics\n"
                  "topics.train([[0, 1, 2], [2, 1]], 3, k=2, sweeps=2, burn_in=1,\n"
                  "             optimize_interval=1, rng_seed=0)\n")
    assert proc.returncode == 0, proc.stderr
