import itertools
import random
import re

import pytest

from godspell.evaluation import (
    build_gold,
    confusion,
    convert_maybe,
    evaluate,
    krippendorff_alpha,
    merge_reliability,
    prf,
    read_annotation_csv,
    read_gold_overrides,
    read_spotcheck,
    spotcheck_agreement,
)

from helpers import make_annotation
from oracles import krippendorff_brute


def matrix_data(rows, annotators=None):
    """Judgments from an items x annotators grid; None marks no judgment."""
    annotators = annotators or [f"ann{j}" for j in range(len(rows[0]))]
    return {f"item{i}": {a: v for a, v in zip(annotators, row) if v is not None}
            for i, row in enumerate(rows)}


class TestKrippendorffAlpha:
    def test_perfect_agreement(self):
        rows = [["YES", "YES"], ["NO", "NO"], ["MAYBE", "MAYBE"]] * 4
        assert krippendorff_alpha(matrix_data(rows[:10])) == 1.0

    def test_four_item_derived_example(self):
        rows = [["YES", "YES"], ["NO", "NO"], ["YES", "NO"], ["NO", "NO"]]
        expected = krippendorff_brute([list(r) for r in rows])
        alpha = krippendorff_alpha(matrix_data(rows))
        assert abs(alpha - expected) < 1e-12
        assert abs(alpha - 0.5333333333333333) < 1e-9

    def test_all_identical_labels_undefined(self):
        rows = [["NO", "NO"]] * 10
        with pytest.raises(ValueError, match="alpha undefined"):
            krippendorff_alpha(matrix_data(rows))

    def test_no_pairable_items(self):
        rows = [["YES", None], [None, "NO"]]
        with pytest.raises(ValueError, match="pairable"):
            krippendorff_alpha(matrix_data(rows))

    def test_missing_labels_excluded_per_item(self):
        rows = [
            ["YES", "YES", None],
            ["NO", None, "NO"],
            ["YES", "NO", "NO"],
        ]
        alpha = krippendorff_alpha(matrix_data(rows))
        expected = krippendorff_brute([["YES", "YES"], ["NO", "NO"], ["YES", "NO", "NO"]])
        assert abs(alpha - expected) < 1e-12

    def test_bounded_and_permutation_invariant(self):
        """Random grids, and each merged with a second random round, match
        the brute oracle; alpha is bounded and ignores item and coder order."""
        rng = random.Random(77)

        def random_rows():
            rows = [
                [rng.choice(["YES", "NO", "MAYBE", None]) for _ in range(3)]
                for _ in range(12)
            ]
            return [r for r in rows if any(v is not None for v in r)]

        for _ in range(30):
            data_rows = random_rows()
            if not data_rows:
                continue
            data = matrix_data(data_rows)
            try:
                alpha = krippendorff_alpha(data)
            except ValueError:
                continue
            oracle = krippendorff_brute([[v for v in r if v is not None] for r in data_rows])
            assert abs(alpha - oracle) < 1e-12
            assert -1.0 <= alpha <= 1.0 + 1e-12
            shuffled = list(data_rows)
            rng.shuffle(shuffled)
            flipped = [list(reversed(r)) for r in shuffled]
            assert krippendorff_alpha(matrix_data(flipped)) == pytest.approx(alpha)
            second = random_rows()
            merged = merge_reliability({"r1": data, "r2": matrix_data(second)})
            pooled = itertools.zip_longest(data_rows, second, fillvalue=[])
            oracle = krippendorff_brute([[v for v in a + b if v is not None] for a, b in pooled])
            assert abs(krippendorff_alpha(merged) - oracle) < 1e-12


class TestConvertMaybe:
    def test_conversion(self):
        assert convert_maybe(["MAYBE", "YES", "NO"]) == ["YES", "YES", "NO"]


class TestBuildGold:
    def test_unanimous_items_resolve(self):
        data = matrix_data([["YES", "MAYBE"], ["NO", "NO"]])
        assert build_gold(data) == {"item0": "YES", "item1": "NO"}

    def test_disagreement_requires_override(self):
        data = matrix_data([["YES", "NO"]])
        with pytest.raises(ValueError, match="item0"):
            build_gold(data)
        assert build_gold(data, {"item0": "NO"}) == {"item0": "NO"}

    def test_override_wins_over_unanimity(self):
        data = matrix_data([["NO", "NO"]])
        assert build_gold(data, {"item0": "YES"}) == {"item0": "YES"}

    def test_override_of_an_unjudged_passage_rejected(self):
        data = matrix_data([["NO", "NO"], ["YES", "NO"]])
        with pytest.raises(ValueError, match="no round judged: item7, item9$"):
            build_gold(data, {"item9": "YES", "item1": "NO", "item7": "NO"})

    def test_gold_labels_must_be_binary(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("passage_id,label\nn1:0,maybe\n", encoding="utf-8")
        message = f"{path}: line 2: label 'maybe' is not one of YES, NO"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_gold_overrides(path)


class TestConfusion:
    def test_identity(self):
        matrix = confusion({"a": "YES", "b": "NO"}, {"a": "YES", "b": "NO"})
        assert (matrix["fp"], matrix["fn"]) == (0, 0)

    def test_enumerated_case(self):
        gold = {"a": "YES", "b": "NO", "c": "YES", "d": "NO"}
        predicted = {"a": "YES", "b": "YES", "c": "NO", "d": "NO"}
        matrix = confusion(gold, predicted)
        assert (matrix["tp"], matrix["fp"], matrix["fn"], matrix["tn"]) == (1, 1, 1, 1)

    def test_ref_mismatch_lists_difference(self):
        with pytest.raises(ValueError, match="b"):
            confusion({"a": "YES"}, {"b": "NO"})


class TestPrf:
    def test_yes_row_reproduces_published_f1(self):
        # P=0.52, R=0.84 exactly: TP=1092, FP=1008, FN=208
        matrix = {"tp": 1092, "fp": 1008, "fn": 208, "tn": 0}
        report = prf(matrix)
        assert report["yes"]["precision"] == pytest.approx(0.52)
        assert report["yes"]["recall"] == pytest.approx(0.84)
        assert abs(report["yes"]["f1"] - 0.64) < 0.005

    def test_no_row_reproduces_published_f1(self):
        # NO as positive: P=0.97, R=0.87 exactly: TN=8439, FN=261, FP=1261
        matrix = {"tp": 0, "fp": 1261, "fn": 261, "tn": 8439}
        report = prf(matrix)
        assert report["no"]["precision"] == pytest.approx(0.97)
        assert report["no"]["recall"] == pytest.approx(0.87)
        assert abs(report["no"]["f1"] - 0.92) < 0.005

    def test_perfect_predictions(self):
        report = prf({"tp": 5, "fp": 0, "fn": 0, "tn": 7})
        assert report["yes"] == {"precision": 1.0, "recall": 1.0, "f1": 1.0}
        assert report["no"] == {"precision": 1.0, "recall": 1.0, "f1": 1.0}
        assert report["micro_f1"] == 1.0

    def test_micro_f1_equals_accuracy(self):
        rng = random.Random(5)
        for _ in range(50):
            matrix = {
                "tp": rng.randint(0, 50), "fp": rng.randint(0, 50),
                "fn": rng.randint(0, 50), "tn": rng.randint(1, 50),
            }
            report = prf(matrix)
            assert report["micro_f1"] == report["accuracy"]
            assert report["micro_f1"] == pytest.approx(
                (matrix["tp"] + matrix["tn"]) / sum(matrix.values())
            )

    def test_zero_division_flags(self):
        report = prf({"tp": 0, "fp": 0, "fn": 3, "tn": 4})
        assert report["yes"]["precision"] == 0.0
        assert "yes.precision" in report["zero_division"]

    def test_self_confusion_all_ones(self):
        gold = {"a": "YES", "b": "NO", "c": "YES"}
        report = prf(confusion(gold, dict(gold)))
        assert report["yes"]["f1"] == report["no"]["f1"] == report["micro_f1"] == 1.0


class TestSpotcheck:
    def test_identical(self):
        human = {f"p{i}": "INDIVIDUAL" for i in range(10)}
        assert spotcheck_agreement(human, dict(human)) == 100.0

    def test_81_of_100(self):
        human = {f"p{i}": "LOVING" for i in range(100)}
        model = {f"p{i}": "LOVING" if i < 81 else "PUNISHING" for i in range(100)}
        assert spotcheck_agreement(human, model) == 81.0

    def test_fuzz_matches_brute_count(self):
        rng = random.Random(31)
        for _ in range(20):
            refs = [f"p{i}" for i in range(rng.randint(1, 40))]
            human = {r: rng.choice(["A", "B"]) for r in refs}
            model = {r: rng.choice(["A", "B"]) for r in refs}
            expected = 100.0 * sum(human[r] == model[r] for r in refs) / len(refs)
            assert spotcheck_agreement(human, model) == pytest.approx(expected)

    def test_ref_mismatch(self):
        with pytest.raises(ValueError):
            spotcheck_agreement({"a": "X"}, {"b": "X"})


class TestCsvInterfaces:
    def test_annotation_csv_round_trip(self, tmp_path):
        path = tmp_path / "round1.csv"
        path.write_text(
            "passage_id,annotator_id,label\n"
            "n1:0,alice,YES\n"
            "n1:0,bob,maybe\n"
            "n1:1,alice,NO\n",
            encoding="utf-8",
        )
        assert read_annotation_csv(path) == {
            "n1:0": {"alice": "YES", "bob": "MAYBE"},
            "n1:1": {"alice": "NO"},
        }

    def test_unrecognized_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("passage_id,annotator_id,label\nn1:0,alice,SURE\n", encoding="utf-8")
        with pytest.raises(ValueError, match="SURE"):
            read_annotation_csv(path)

    def test_gold_overrides(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text(
            "passage_id,label,resolution_note\nn1:0,yes,lead author call\n",
            encoding="utf-8",
        )
        assert read_gold_overrides(path) == {"n1:0": "YES"}

    @pytest.mark.parametrize("reader, text, message", [
        (read_annotation_csv, "passage_id,annotator_id,label\nn1:0,alice,YES\n"
                              "n1:0,bob,NO\nn1:0,alice,NO\n",
         "line 4: repeated passage_id 'n1:0', annotator_id 'alice'"),
        (read_gold_overrides, "passage_id,label\nn1:0,YES\nn1:0,NO\n",
         "line 3: repeated passage_id 'n1:0'"),
        (read_spotcheck, "passage_id,affect,impact\nn1:0,INDIVIDUAL,LOVING\n"
                         "n1:1,GROUP,LOVING\n n1:0 ,GROUP,PUNISHING\n",
         "line 4: repeated passage_id 'n1:0'"),
    ], ids=["round", "gold overrides", "spotcheck"])
    def test_repeated_judgment_rejected(self, tmp_path, reader, text, message):
        """A key repeated in a human CSV, after its cells are stripped, is
        an error naming the file and the line."""
        path = tmp_path / "human.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            reader(path)

    @pytest.mark.parametrize("row, message", [
        ("n1:0,INDIVDUAL,LOVING", "affect 'INDIVDUAL' is not one of INDIVIDUAL, GROUP"),
        ("n1:0,GROUP, loved ", "impact 'loved' is not one of LOVING, PUNISHING, BOTH, NEUTRAL"),
    ], ids=["affect", "impact"])
    def test_spotcheck_label_outside_its_facet_rejected(self, tmp_path, row, message):
        """A label outside its facet's is an error naming the file, the
        line, the facet and the cell as written."""
        path = tmp_path / "spot.csv"
        path.write_text(f"passage_id,affect,impact\nn1:1,group,both\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line 3: {message}')}$"):
            read_spotcheck(path)

    def test_spotcheck_without_rows_rejected(self, tmp_path):
        path = tmp_path / "spot.csv"
        path.write_text("passage_id,affect,impact\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"empty spot-check set in {re.escape(str(path))}"):
            read_spotcheck(path)

    def test_merge_reliability_namespaces_annotators(self):
        round1 = matrix_data([["YES", "NO"]], annotators=["alice", "bob"])
        round2 = matrix_data([["NO", "NO"]], annotators=["alice", "cara"])
        merged = merge_reliability({"r1": round1, "r2": round2})
        assert merged == {"item0": {"r1:alice": "YES", "r1:bob": "NO",
                                    "r2:alice": "NO", "r2:cara": "NO"}}


class TestEvaluate:
    ROUNDS = {"r1": {"n:0": {"a": "YES", "b": "MAYBE"}, "n:1": {"a": "YES", "b": "YES"},
                     "n:2": {"a": "NO", "b": "NO"}, "n:3": {"a": "NO"}}}

    def test_only_acts_are_predicted_yes(self):
        resolved_without_label = make_annotation("n", 1)
        resolved_without_label.final_label = None
        annotations = [
            make_annotation("n", 0, final="YES"),
            resolved_without_label,
            make_annotation("n", 2, status="unresolved"),
            make_annotation("n", 3, final="NO"),
        ]
        payload = evaluate(self.ROUNDS, {}, annotations, None)
        # the resolved passage with no label is a miss, not a true negative
        assert payload["confusion"] == {"tp": 1, "fp": 0, "fn": 1, "tn": 2}
        assert payload["unresolved_scored_as_no"] == 1
        assert (payload["gold_size"], payload["gold_yes"], payload["gold_no"]) == (4, 2, 2)
        assert payload["resolved_by_discussion"] == 0
        assert "spotcheck" not in payload

    def test_resolved_by_discussion_counts_overrides_in_gold(self):
        annotations = [make_annotation("n", i, final="NO") for i in range(4)]
        payload = evaluate(self.ROUNDS, {"n:0": "NO"}, annotations, None)
        assert payload["resolved_by_discussion"] == 1
        assert (payload["gold_size"], payload["gold_yes"], payload["gold_no"]) == (4, 1, 3)

    def test_spotcheck_passage_must_be_an_act(self, tmp_path):
        path = tmp_path / "spot.csv"
        path.write_text("passage_id,affect,impact\n n:0 ,individual,Punishing\n",
                        encoding="utf-8")
        annotations = [make_annotation("n", i, final="YES" if i < 2 else "NO") for i in range(4)]
        payload = evaluate(self.ROUNDS, {}, annotations, read_spotcheck(path))
        assert payload["spotcheck"] == {"affect": 100.0, "impact": 0.0}
        path.write_text("passage_id,affect,impact\nn:3,INDIVIDUAL,LOVING\n", encoding="utf-8")
        with pytest.raises(ValueError, match="n:3 is not a resolved YES"):
            evaluate(self.ROUNDS, {}, annotations, read_spotcheck(path))
