"""Acceptance suite: one test per release criterion, with a printed
pass/fail line each (run with `pytest tests/test_acceptance.py -v -s`)."""

import itertools
import json
import random
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from godspell.annotate import MockModel, run_pipeline, write_annotations
from godspell.corpus import segment_capped, word_tokenize
from godspell.evaluation import krippendorff_alpha, prf
from godspell.stats import pearson, t_cdf, ttest_ind
from godspell.topics import authorless_downsample, train

from helpers import make_novel
from oracles import krippendorff_brute, t_cdf_quad
from test_annotate import cascade_passages, mock_config

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def test_criterion_1_metric_oracles():
    with criterion(1, "krippendorff alpha matches the coincidence-matrix oracle"):
        start = time.monotonic()
        perfect = {f"i{n}": {"a": label, "b": label} for n, label in enumerate(["YES", "NO"] * 5)}
        assert krippendorff_alpha(perfect) == 1.0

        rows = [["YES", "YES"], ["NO", "NO"], ["YES", "NO"], ["NO", "NO"]]
        data = {f"i{n}": {"a": a, "b": b} for n, (a, b) in enumerate(rows)}
        alpha = krippendorff_alpha(data)
        oracle = krippendorff_brute([list(r) for r in rows])
        assert abs(alpha - oracle) < 1e-12
        assert abs(alpha - 0.5333333333333333) < 1e-9
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_table_metric_consistency():
    with criterion(2, "published P/R/F1 relationships reproduced by prf"):
        yes_row = prf({"tp": 1092, "fp": 1008, "fn": 208, "tn": 0})["yes"]
        assert yes_row["precision"] == pytest.approx(0.52)
        assert yes_row["recall"] == pytest.approx(0.84)
        assert abs(yes_row["f1"] - 0.64) < 0.005

        no_row = prf({"tp": 0, "fp": 1261, "fn": 261, "tn": 8439})["no"]
        assert no_row["precision"] == pytest.approx(0.97)
        assert no_row["recall"] == pytest.approx(0.87)
        assert abs(no_row["f1"] - 0.92) < 0.005

        # synthetic confusion with the published class balance (272 YES / 1679 NO)
        # at the published per-class recalls
        matrix = {"tp": 228, "fn": 44, "fp": 218, "tn": 1461}
        assert matrix["tp"] + matrix["fn"] == 272
        assert matrix["fp"] + matrix["tn"] == 1679
        assert abs(prf(matrix)["micro_f1"] - 0.87) < 0.01


def test_criterion_3_statistics_oracles():
    with criterion(3, "pearson/t-test match hand values; p-values match quadrature"):
        r, p = pearson([1, 2, 3, 4], [1, 3, 2, 4])
        assert abs(r - 0.8) < 1e-12

        result = ttest_ind([1, 2, 3], [2, 3, 4])
        assert abs(result["statistic"] - (-1.2247448713915890)) < 1e-4
        assert result["df"] == 4

        t_values = [-8.0, -5.0, -3.0, -2.2, -1.6, -1.1, -0.7, -0.4, -0.2, -0.05,
                    0.05, 0.15, 0.3, 0.5, 0.8, 1.0, 1.3, 1.7, 2.1, 2.6,
                    3.2, 4.0, 5.5, 7.0, 8.0]
        df_values = [1, 1.5, 2, 2.5, 3, 4, 4.5, 5, 6, 7, 8.5, 10, 12, 15, 17.5,
                     20, 25, 30, 40, 50, 65, 80, 100, 130, 160, 200, 260, 320,
                     400, 500, 640, 700, 800, 850, 900, 950, 1000, 1100, 1200,
                     1500]
        pairs = [(t, df) for t in t_values for df in df_values]
        assert len(pairs) >= 1000
        worst = 0.0
        for t, df in pairs:
            mine = t_cdf(t, df)
            oracle = t_cdf_quad(t, df)
            worst = max(worst, abs(mine - oracle))
        assert worst < 1e-6, f"worst t-CDF error {worst:.2e}"


def two_vocab_corpus(rng, docs_per_theme=100, doc_len=30, vocab_half=50):
    docs = []
    for theme in (0, 1):
        lo = theme * vocab_half
        for _ in range(docs_per_theme):
            docs.append([lo + rng.randrange(vocab_half) for _ in range(doc_len)])
    return docs, 2 * vocab_half


def test_criterion_4_lda_separation():
    with criterion(4, "LDA separates two disjoint vocabularies and improves likelihood"):
        start = time.monotonic()
        rng = random.Random(2024)
        docs, v = two_vocab_corpus(rng)

        state, _ = train(docs, v, k=2, sweeps=200, burn_in=50, optimize_interval=10,
                         rng_seed=7)
        half = v // 2
        for lo, hi in ((0, half), (half, v)):
            counts = [0, 0]
            for w, z in zip(itertools.chain.from_iterable(docs), state.z.tolist()):
                if lo <= w < hi:
                    counts[z] += 1
            purity = max(counts) / sum(counts)
            assert purity >= 0.95, f"vocabulary purity {purity:.3f}"

        improved = 0
        for seed in range(20):
            _, lls = train(docs, v, k=2, sweeps=50, burn_in=50,
                           optimize_interval=10, rng_seed=seed)
            improved += lls[49] > lls[0]
        assert improved >= 18, f"log-likelihood improved for only {improved}/20 seeds"

        elapsed = time.monotonic() - start
        assert elapsed < 120, f"took {elapsed:.1f}s"


def test_criterion_5_downsampling():
    with criterion(5, "authorless downsampling pulls a 4x word back to the corpus rate"):
        # novel b: word 0 at 4% (400/10000); corpus-wide 1% (400/40000)
        filler = [1 + i % 96 for i in range(9600)]
        novel_b = [0] * 400 + filler
        other = [1 + i % 96 for i in range(9600)] + [97] * 400
        docs = [novel_b, list(other), list(other), list(other)]
        names = ["b", "x", "y", "z"]

        reduced = authorless_downsample(docs, names, rng_seed=11)

        for before, after, name in zip(docs, reduced, names):
            before_counts = {}
            after_counts = {}
            for w in before:
                before_counts[w] = before_counts.get(w, 0) + 1
            for w in after:
                after_counts[w] = after_counts.get(w, 0) + 1
            for w, count in after_counts.items():
                assert count <= before_counts[w], f"count grew for word {w} in {name}"

        kept_b = reduced[0]
        freq = sum(1 for w in kept_b if w == 0) / len(kept_b)
        assert 0.008 <= freq <= 0.012, f"post-sampling rate {freq:.5f}"


def test_criterion_6_pipeline_conjunction_and_resume(tmp_path):
    with criterion(6, "cascade conjunction, call economy, and interrupt resume"):
        passages = cascade_passages()
        assert len(passages) == 30

        mock = MockModel()
        annotations = run_pipeline(passages, mock_config(), cache_dir=tmp_path / "a",
                                   transport=mock.transport, workers=1)
        stage1_yes = 0
        for ann in annotations:
            s1 = ann.stage1["label"] == "YES"
            s2 = ann.stage2 is not None and ann.stage2["label"] == "YES"
            assert (ann.final_label == "YES") == (s1 and s2)
            stage1_yes += s1
        assert mock.calls["stage2"] == stage1_yes

        class KillSwitch:
            def __init__(self, fuse):
                self.mock = MockModel()
                self.fuse = fuse

            def transport(self, config, prompt, schema):
                if (self.mock._stage_for(schema) == "stage1"
                        and self.mock.calls["stage1"] >= self.fuse):
                    raise KeyboardInterrupt
                return self.mock.transport(config, prompt, schema)

        killer = KillSwitch(fuse=15)
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(passages, mock_config(), cache_dir=tmp_path / "b",
                         transport=killer.transport, workers=1)

        resumed_mock = MockModel()
        resumed = run_pipeline(passages, mock_config(), cache_dir=tmp_path / "b",
                               transport=resumed_mock.transport, workers=1)
        assert resumed_mock.calls["stage1"] == 15  # zero repeat calls for 0..14

        first_path = tmp_path / "first.jsonl"
        resumed_path = tmp_path / "resumed.jsonl"
        write_annotations(annotations, first_path)
        write_annotations(resumed, resumed_path)
        assert first_path.read_bytes() == resumed_path.read_bytes()


def test_criterion_7_golden_run(tmp_path):
    with criterion(7, "full CLI pipeline reproduces the golden output tree"):
        start = time.monotonic()
        out = tmp_path / "out"
        config = str(FIXTURES / "runconfig.json")
        for command in ("segment", "topics-train", "annotate", "eval", "stats", "report"):
            proc = subprocess.run(
                [sys.executable, "-m", "godspell", command, "--config", config,
                 "--output", str(out)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, f"{command} failed: {proc.stderr}"

        golden_files = sorted(
            p.relative_to(GOLDEN) for p in GOLDEN.rglob("*") if p.is_file()
        )
        produced_files = sorted(
            p.relative_to(out) for p in out.rglob("*")
            if p.is_file() and "cache" not in p.parts
        )
        assert produced_files == golden_files
        for rel in golden_files:
            assert (out / rel).read_bytes() == (GOLDEN / rel).read_bytes(), (
                f"{rel} differs from golden"
            )
        elapsed = time.monotonic() - start
        assert elapsed < 300, f"took {elapsed:.1f}s"


def test_criterion_8_segmentation_fuzz():
    with criterion(8, "segmentation invariants hold over 1000 fuzz cases"):
        rng = random.Random(88)
        novel = make_novel("fuzz")
        vocabulary = ["God", "word", "amen", "the", "12", "x-y", "road?!", "été"]
        for case in range(1000):
            paragraphs = []
            for _ in range(rng.randint(0, 8)):
                sentences = []
                for _ in range(rng.randint(1, 5)):
                    n = rng.randint(1, rng.choice([6, 30, 90]))
                    sentences.append(
                        " ".join(rng.choice(vocabulary) for _ in range(n))
                        + rng.choice([".", "!", "?", ""])
                    )
                paragraphs.append(" ".join(sentences))
            text = rng.choice(["\n\n", "\n \n", "\n\n\n"]).join(paragraphs)
            cap = rng.choice([10, 60, 250, 500])

            passages = segment_capped(novel, text, cap=cap)
            words = word_tokenize(text)
            rebuilt = [w for p in passages for w in word_tokenize(p.text)]
            assert rebuilt == words, f"reassembly failed on case {case}"
            cursor = 0
            last_position = -1.0
            for p in passages:
                assert 1 <= p.word_count <= cap
                assert p.word_start == cursor
                assert p.word_end == cursor + p.word_count
                assert p.normalized_position > last_position
                cursor = p.word_end
                last_position = p.normalized_position
            assert cursor == len(words)
