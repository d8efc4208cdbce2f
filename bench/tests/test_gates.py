"""Each gate passes a correct output and fails a deliberately broken one."""

import json
import shutil
from pathlib import Path

import pytest

import gates
import stub
from godspell import annotate, corpus, topics

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "golden"


@pytest.fixture
def tree(tmp_path):
    out = tmp_path / "out"
    shutil.copytree(GOLDEN, out)
    (out / "cache" / "stage1").mkdir(parents=True)
    (out / "cache" / "stage1" / "k.json").write_text("{}")
    return out


def test_golden_tree_passes_copy(tree):
    assert gates.golden_tree(tree, GOLDEN) == []


@pytest.mark.parametrize("breakage", ["flip", "delete", "extra"])
def test_golden_tree_fails_broken_copy(tree, breakage):
    report = tree / "report.md"
    if breakage == "flip":
        data = bytearray(report.read_bytes())
        data[-2] ^= 1
        report.write_bytes(bytes(data))
    elif breakage == "delete":
        report.unlink()
    else:
        (tree / "figures" / "extra.csv").write_text("x\n")
    assert len(gates.golden_tree(tree, GOLDEN)) == 1


@pytest.fixture
def state(tmp_path):
    rng_docs = [[(d * 7 + i * 3) % 11 for i in range(5 + d % 4)] for d in range(12)]
    st, summary = topics.train(rng_docs, 11, k=3, sweeps=4, burn_in=1, optimize_interval=2,
                               rng_seed=1)
    vocab = topics.Vocabulary([f"w{i:02d}" for i in range(11)], {}, [1] * 11, frozenset())
    path = tmp_path / "state.json"
    topics.save_state(path, st, summary, vocab, ["n"] * len(rng_docs))
    return path, [len(d) for d in rng_docs]


def test_topic_state_passes_trained_state(state):
    path, lens = state
    assert gates.topic_state(path, 3, 4, lens) == []
    assert gates.topic_state(path, 3, 4, lens, gates.sha256_file(path)) == []


def _edit(path: Path, change) -> None:
    payload = json.loads(path.read_text())
    change(payload)
    path.write_text(json.dumps(payload))


@pytest.mark.parametrize("change", [
    lambda p: p["n_kw"][0].__setitem__(0, p["n_kw"][0][0] + 1),
    lambda p: (p["n_kw"][0].__setitem__(0, p["n_kw"][0][0] + 1),
               p["n_kw"][1].__setitem__(0, p["n_kw"][1][0] - 1)),
    lambda p: p["doc_topic"][2].__setitem__(0, p["doc_topic"][2][0] + 0.01),
    lambda p: p["log_likelihood"].pop(),
    lambda p: p["vocabulary"].reverse(),
    lambda p: p.__setitem__("k", 4),
], ids=["count", "moved-count", "proportion", "sweeps", "vocabulary", "k"])
def test_topic_state_fails_broken_state(state, change):
    path, lens = state
    _edit(path, change)
    assert gates.topic_state(path, 3, 4, lens) != []


def test_topic_state_fails_other_digest(state):
    path, lens = state
    assert gates.topic_state(path, 3, 4, lens, "0" * 64) != []


@pytest.fixture
def annotated(tmp_path):
    texts = ["God healed the child.", "The mare threw a shoe.", "Rain fell on the barn.",
             "The Lord scattered the army.", "Bread rose on the stove."]
    passages = [corpus.Passage("n", i, t, len(t.split()), i, i + 1, 0.5)
                for i, t in enumerate(texts)]
    corpus.write_passages(passages, tmp_path / "passages.jsonl")
    results = annotate.run_pipeline(
        passages, annotate.ModelConfig(model="m"), cache_dir=tmp_path / "cache",
        transport=stub.responder, workers=1,
    )
    annotate.write_annotations(results, tmp_path / "annotations.jsonl")
    return tmp_path / "annotations.jsonl", tmp_path / "passages.jsonl"


def test_stub_labels_passes_rule_output(annotated):
    assert gates.stub_labels(*annotated) == []


@pytest.mark.parametrize("breakage", ["label", "unresolved", "dropped"])
def test_stub_labels_fails_broken_output(annotated, breakage):
    path, passages = annotated
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    if breakage == "label":
        lines[1]["final_label"] = "NO" if lines[1]["final_label"] == "YES" else "YES"
    elif breakage == "unresolved":
        lines[3]["status"] = "unresolved"
    else:
        lines.pop()
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    assert len(gates.stub_labels(path, passages)) == 1
