import csv
import json
import re
from pathlib import Path

import pytest

from godspell.config import DIR, FILE, FILES, SETTINGS, ConfigError, load_run_config
from godspell.report import figure_data, fmt, markdown_summary
from godspell.stats import act_proportions

from helpers import make_annotation, make_novel

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

# a value of another JSON kind than each kind of setting takes
WRONG_KIND = {bool: "true", int: 1.5, float: "0.5", str: 3, dict: [], FILE: 5,
              FILES: "round1.csv", DIR: 5}

NUMBER_RE = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?(?![\w.])")


def json_numbers(payload):
    found = []

    def walk(node):
        if isinstance(node, bool):
            return
        if isinstance(node, (int, float)):
            found.append(float(node))
        elif isinstance(node, dict):
            for key, value in node.items():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    walk(payload)
    return found


class TestRunConfig:
    def test_fixture_config_loads(self, tmp_path):
        config = load_run_config(FIXTURES / "runconfig.json", output_dir=str(tmp_path))
        assert config.topics_k == 5
        assert config.model_backend == "mock"
        assert config.manifest.is_file()
        assert config.output_dir == tmp_path
        assert len(config.annotation_rounds) == 2

    def test_write_probe_removed_by_another_command_still_loads(self, tmp_path, monkeypatch):
        """A command started beside this one in the same output directory can
        remove the write probe between its write and its unlink, as its own
        unlink does; the config still loads, and no probe is left."""
        write_text = Path.write_text

        def write_then_vanish(path, *args, **kwargs):
            written = write_text(path, *args, **kwargs)
            if path.name == ".write-probe":
                path.unlink()
            return written

        monkeypatch.setattr(Path, "write_text", write_then_vanish)
        config = load_run_config(FIXTURES / "runconfig.json", output_dir=str(tmp_path / "out"))
        assert config.output_dir == tmp_path / "out"
        assert list(tmp_path.rglob("*")) == [tmp_path / "out"]

    def test_missing_config(self):
        with pytest.raises(ConfigError, match="not found"):
            load_run_config(FIXTURES / "nope.json")

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        with pytest.raises(ConfigError, match="valid JSON"):
            load_run_config(bad)

    def test_missing_manifest_path(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"manifest": "gone.csv"}), encoding="utf-8")
        with pytest.raises(ConfigError, match="manifest"):
            load_run_config(cfg)

    def test_env_var_endpoint_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GODSPELL_ENDPOINT", "http://envhost:1111")
        config = load_run_config(FIXTURES / "runconfig.json", output_dir=str(tmp_path))
        assert config.model.endpoint == "http://envhost:1111"

    def test_flag_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GODSPELL_ENDPOINT", "http://envhost:1111")
        config = load_run_config(FIXTURES / "runconfig.json", output_dir=str(tmp_path),
                                 endpoint="http://flaghost:2222")
        assert config.model.endpoint == "http://flaghost:2222"

    def test_unknown_backend(self, tmp_path):
        cfg = tmp_path / "run.json"
        manifest = FIXTURES / "manifest.csv"
        cfg.write_text(json.dumps({
            "manifest": str(manifest), "model": {"backend": "quantum"},
            "output_dir": str(tmp_path / "out"),
        }), encoding="utf-8")
        with pytest.raises(ConfigError, match="backend"):
            load_run_config(cfg)

    def _config_with(self, tmp_path, section, body):
        """A config naming the fixture manifest, with body as its section
        (section "": body's keys at the top level)."""
        config = {"manifest": str(FIXTURES / "manifest.csv"),
                  "output_dir": str(tmp_path / "out")}
        config.update({section: body} if section else body)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        return cfg

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_bool_key_takes_only_json_booleans(self, tmp_path, value):
        cfg = self._config_with(tmp_path, "topics", {"downsample": value})
        with pytest.raises(ConfigError, match="topics.downsample must be true or false"):
            load_run_config(cfg)
        cfg = self._config_with(tmp_path, "topics", {"downsample": False})
        assert load_run_config(cfg).topics_downsample is False

    @pytest.mark.parametrize("section, key, value", [
        ("topics", "k", "five"), ("topics", "k", 6.5), ("topics", "sweeps", True),
        ("segmentation", "segment_size", "300"), ("model", "workers", None),
        ("model", "temperature", "warm"), ("model", "timeout", None),
        ("model", "name", 3), ("prompts", "versions", 5), ("evaluation", "rounds", "r1.csv"),
        ("topics", "stopwords", ["stopwords.txt"]),
    ] + [
        # and one value of a wrong kind for every declared setting
        pytest.param(*setting.key.rpartition(".")[::2], WRONG_KIND.get(setting.kind, 3),
                     id=setting.key)
        for setting in SETTINGS.values()
    ])
    def test_wrong_type_names_the_key(self, tmp_path, section, key, value):
        cfg = self._config_with(tmp_path, section, {key: value})
        name = f"{section}.{key}" if section else key
        with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be"):
            load_run_config(cfg)

    @pytest.mark.parametrize("attr, setting", [
        pytest.param(attr, setting, id=setting.key)
        for attr, setting in SETTINGS.items() if setting.minimum is not None
    ])
    def test_bound_names_the_key(self, tmp_path, attr, setting):
        """Every bounded setting is rejected below its bound and loads at it."""
        section, _, key = setting.key.rpartition(".")
        cfg = self._config_with(tmp_path, section, {key: setting.minimum - 1})
        with pytest.raises(ConfigError, match=f"^{setting.key} must be >= {setting.minimum}$"):
            load_run_config(cfg)
        cfg = self._config_with(tmp_path, section, {key: setting.minimum})
        assert getattr(load_run_config(cfg), attr) == setting.minimum

    def test_relative_paths(self, tmp_path, monkeypatch):
        """A relative flag path is taken from the working directory, a
        relative path in the file from the file's directory."""
        fixtures = sorted(FIXTURES.rglob("*"))
        monkeypatch.chdir(tmp_path)
        config = load_run_config(FIXTURES / "runconfig.json", output_dir="rel-out",
                                 cache_dir="rel-cache")
        assert config.output_dir.resolve() == tmp_path / "rel-out"
        assert config.cache_dir.resolve() == tmp_path / "rel-cache"
        assert (tmp_path / "rel-out").is_dir() and (tmp_path / "rel-cache").is_dir()
        assert sorted(FIXTURES.rglob("*")) == fixtures
        (tmp_path / "sub").mkdir()
        config = load_run_config(
            self._config_with(tmp_path / "sub", "", {"output_dir": "o", "cache_dir": "c"}))
        assert config.output_dir == tmp_path / "sub" / "o"
        assert config.cache_dir == tmp_path / "sub" / "c"

    def test_section_must_be_an_object(self, tmp_path):
        cfg = self._config_with(tmp_path, "topics", [65])
        with pytest.raises(ConfigError, match="topics must be a JSON object"):
            load_run_config(cfg)

    @pytest.mark.parametrize("payload, key", [
        ([], "config"), ({"manifest": 5}, "manifest"),
        ({"manifest": str(FIXTURES / "manifest.csv"), "output_dir": 3}, "output_dir"),
    ])
    def test_top_level_type_names_the_key(self, tmp_path, payload, key):
        """A config that is not an object names its file, and a top-level
        value of the wrong type its key."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(payload), encoding="utf-8")
        expected = f"{cfg}: must hold a JSON object" if key == "config" else f"{key} must be"
        with pytest.raises(ConfigError, match=f"^{re.escape(expected)}"):
            load_run_config(cfg)


class TestFmt:
    def test_int_passthrough(self):
        assert fmt(17) == "17"

    def test_float_six_significant(self):
        assert fmt(0.8888888888888888) == "0.888889"
        assert fmt(1e-30) == "1e-30"

    def test_none(self):
        assert fmt(None) == "None"


def small_results():
    novels = [
        make_novel("n1", ["female"]),
        make_novel("n2", ["male"], series_tag="saga"),
        make_novel("n3", ["female"]),
    ]
    annotations = (
        [make_annotation("n1", i, final="YES" if i < 2 else "NO") for i in range(4)]
        + [make_annotation("n2", i, final="YES") for i in range(3)]
        + [make_annotation("n3", i, final="NO") for i in range(2)]
    )
    return annotations, novels, {
        "novels": {
            n.id: {"title": n.title, "series_tag": n.series_tag,
                   "gender_group": n.gender_group()}
            for n in novels
        },
        "act_proportions": act_proportions(annotations),
        "position_density": {
            "bin_edges": [0.0, 0.5, 1.0], "counts": [3, 2],
            "density": [1.2, 0.8], "mean_position": 0.45, "n_acts": 5,
        },
        "characterization": {
            "per_novel_affect": {"INDIVIDUAL": {"n1": 1.0, "n2": 1.0 / 3}},
            "per_novel_impact": {"LOVING": {"n1": 0.5, "n2": 1.0}},
            "corpus_affect": {"INDIVIDUAL": 0.8, "GROUP": 0.2},
            "corpus_impact": {"LOVING": 0.7, "PUNISHING": 0.1, "BOTH": 0.1, "NEUTRAL": 0.1},
        },
        "topic_prominence": {"mean": [40.0, 35.0, 25.0]},
        "topic_labels": {"0": "Hearth", "2": "Wall"},
    }


class TestFigureData:
    def test_act_share_table_sorted_and_complete(self, tmp_path):
        annotations, novels, results = small_results()
        figure_data(results, tmp_path)
        with (tmp_path / "act_share_by_novel.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        shares = [float(r["act_share"]) for r in rows]
        assert shares == sorted(shares, reverse=True)
        assert {r["novel_id"] for r in rows} == {"n1", "n2", "n3"}
        assert rows[0]["series_tag"] == "saga"

    def test_row_matches_annotation_recount(self, tmp_path):
        annotations, novels, results = small_results()
        figure_data(results, tmp_path)
        with (tmp_path / "act_share_by_novel.csv").open() as fh:
            rows = {r["novel_id"]: float(r["act_share"]) for r in csv.DictReader(fh)}
        for novel_id in rows:
            mine = [a for a in annotations if a.novel_id == novel_id]
            expected = sum(1 for a in mine if a.final_label == "YES") / len(mine)
            assert rows[novel_id] == pytest.approx(expected)

    def test_density_and_prominence_tables(self, tmp_path):
        _, _, results = small_results()
        written = figure_data(results, tmp_path)
        assert {p.name for p in written} == {
            "act_share_by_novel.csv", "position_density.csv",
            "individual_share_by_novel.csv", "loving_share_by_novel.csv",
            "topic_prominence_ranking.csv",
        }
        with (tmp_path / "topic_prominence_ranking.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["topic"] for r in rows] == ["0", "1", "2"]
        assert rows[0]["label"] == "Hearth"
        with (tmp_path / "position_density.csv").open() as fh:
            density_rows = list(csv.DictReader(fh))
        assert len(density_rows) == 2
        assert float(density_rows[0]["bin_start"]) == 0.0


class TestMarkdownSummary:
    def test_metric_block_rendered(self):
        metrics = json.loads((GOLDEN / "metrics.json").read_text())
        results = json.loads((GOLDEN / "stats.json").read_text())
        md = markdown_summary(results, metrics)
        assert "| YES |" in md and "| NO |" in md
        assert "micro-F1" in md
        assert "Krippendorff" in md

    def test_every_number_traceable_to_json(self):
        metrics = json.loads((GOLDEN / "metrics.json").read_text())
        results = json.loads((GOLDEN / "stats.json").read_text())
        md = markdown_summary(results, metrics)
        pool = json_numbers(results) + json_numbers(metrics)
        # spot-check percentages are rendered /100 in metrics.json already
        for token in NUMBER_RE.findall(md):
            value = float(token)
            assert any(
                abs(value - y) <= max(1e-9, 1e-5 * abs(y)) for y in pool
            ), f"{token} not traceable to results JSON"

    def test_no_acts_note(self):
        results = {
            "act_proportions": {
                "per_novel": {}, "corpus_share": 0.0, "yes_count": 0,
                "total": 12, "unresolved_count": 0,
            },
        }
        md = markdown_summary(results)
        assert "No acts detected." in md
        assert "Characterization" not in md
