import random

import pytest

from godspell.evaluation import (
    MISSING,
    Confusion,
    GoldSet,
    ReliabilityData,
    build_gold,
    confusion,
    convert_maybe,
    evaluate,
    krippendorff_alpha,
    merge_reliability,
    prf,
    read_annotation_csv,
    read_gold_overrides,
    spotcheck_agreement,
)

from helpers import make_annotation
from oracles import krippendorff_brute


def matrix_data(rows, annotators=None):
    items = [f"item{i}" for i in range(len(rows))]
    annotators = annotators or [f"ann{j}" for j in range(len(rows[0]))]
    return ReliabilityData(items=items, annotators=annotators, labels=[list(r) for r in rows])


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
        rows = [["YES", MISSING], [MISSING, "NO"]]
        with pytest.raises(ValueError, match="pairable"):
            krippendorff_alpha(matrix_data(rows))

    def test_missing_labels_excluded_per_item(self):
        rows = [
            ["YES", "YES", MISSING],
            ["NO", MISSING, "NO"],
            ["YES", "NO", "NO"],
        ]
        alpha = krippendorff_alpha(matrix_data(rows))
        expected = krippendorff_brute([["YES", "YES"], ["NO", "NO"], ["YES", "NO", "NO"]])
        assert abs(alpha - expected) < 1e-12

    def test_bounded_and_permutation_invariant(self):
        rng = random.Random(77)
        for _ in range(30):
            rows = [
                [rng.choice(["YES", "NO", "MAYBE", MISSING]) for _ in range(3)]
                for _ in range(12)
            ]
            data_rows = [r for r in rows if sum(v != MISSING for v in r) >= 1]
            if not data_rows:
                continue
            try:
                alpha = krippendorff_alpha(matrix_data(data_rows))
            except ValueError:
                continue
            assert -1.0 <= alpha <= 1.0 + 1e-12
            shuffled = list(data_rows)
            rng.shuffle(shuffled)
            flipped = [list(reversed(r)) for r in shuffled]
            assert krippendorff_alpha(matrix_data(flipped)) == pytest.approx(alpha)


class TestConvertMaybe:
    def test_conversion(self):
        assert convert_maybe(["MAYBE", "YES", "NO"]) == ["YES", "YES", "NO"]


class TestBuildGold:
    def test_unanimous_items_resolve(self):
        data = matrix_data([["YES", "MAYBE"], ["NO", "NO"]])
        gold = build_gold(data)
        assert gold.labels == {"item0": "YES", "item1": "NO"}
        assert not gold.resolved_by_discussion

    def test_disagreement_requires_override(self):
        data = matrix_data([["YES", "NO"]])
        with pytest.raises(ValueError, match="item0"):
            build_gold(data)
        gold = build_gold(data, {"item0": ("NO", "narrative doubt")})
        assert gold.labels["item0"] == "NO"
        assert "item0" in gold.resolved_by_discussion
        assert gold.notes["item0"] == "narrative doubt"

    def test_override_wins_over_unanimity(self):
        data = matrix_data([["NO", "NO"]])
        gold = build_gold(data, {"item0": ("YES", "")})
        assert gold.labels["item0"] == "YES"

    def test_gold_labels_must_be_binary(self):
        with pytest.raises(ValueError):
            GoldSet(labels={"x": "MAYBE"})


class TestConfusion:
    def test_identity(self):
        gold = GoldSet(labels={"a": "YES", "b": "NO"})
        matrix = confusion(gold, {"a": "YES", "b": "NO"})
        assert (matrix.fp, matrix.fn) == (0, 0)

    def test_enumerated_case(self):
        gold = GoldSet(labels={"a": "YES", "b": "NO", "c": "YES", "d": "NO"})
        predicted = {"a": "YES", "b": "YES", "c": "NO", "d": "NO"}
        matrix = confusion(gold, predicted)
        assert (matrix.tp, matrix.fp, matrix.fn, matrix.tn) == (1, 1, 1, 1)

    def test_ref_mismatch_lists_difference(self):
        gold = GoldSet(labels={"a": "YES"})
        with pytest.raises(ValueError, match="b"):
            confusion(gold, {"b": "NO"})


class TestPrf:
    def test_yes_row_reproduces_published_f1(self):
        # P=0.52, R=0.84 exactly: TP=1092, FP=1008, FN=208
        matrix = Confusion(tp=1092, fp=1008, fn=208, tn=0)
        report = prf(matrix)
        assert report.yes["precision"] == pytest.approx(0.52)
        assert report.yes["recall"] == pytest.approx(0.84)
        assert abs(report.yes["f1"] - 0.64) < 0.005

    def test_no_row_reproduces_published_f1(self):
        # NO as positive: P=0.97, R=0.87 exactly: TN=8439, FN=261, FP=1261
        matrix = Confusion(tp=0, fp=1261, fn=261, tn=8439)
        report = prf(matrix)
        assert report.no["precision"] == pytest.approx(0.97)
        assert report.no["recall"] == pytest.approx(0.87)
        assert abs(report.no["f1"] - 0.92) < 0.005

    def test_perfect_predictions(self):
        report = prf(Confusion(tp=5, fp=0, fn=0, tn=7))
        assert report.yes == {"precision": 1.0, "recall": 1.0, "f1": 1.0}
        assert report.no == {"precision": 1.0, "recall": 1.0, "f1": 1.0}
        assert report.micro_f1 == 1.0

    def test_micro_f1_equals_accuracy(self):
        rng = random.Random(5)
        for _ in range(50):
            matrix = Confusion(
                tp=rng.randint(0, 50), fp=rng.randint(0, 50),
                fn=rng.randint(0, 50), tn=rng.randint(1, 50),
            )
            report = prf(matrix)
            assert report.micro_f1 == report.accuracy
            assert report.micro_f1 == pytest.approx(
                (matrix.tp + matrix.tn) / matrix.total
            )

    def test_zero_division_flags(self):
        report = prf(Confusion(tp=0, fp=0, fn=3, tn=4))
        assert report.yes["precision"] == 0.0
        assert "yes.precision" in report.zero_division

    def test_self_confusion_all_ones(self):
        gold = GoldSet(labels={"a": "YES", "b": "NO", "c": "YES"})
        report = prf(confusion(gold, dict(gold.labels)))
        assert report.yes["f1"] == report.no["f1"] == report.micro_f1 == 1.0


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
        data = read_annotation_csv(path)
        assert data.items == ["n1:0", "n1:1"]
        assert data.annotators == ["alice", "bob"]
        assert data.labels[0] == ["YES", "MAYBE"]
        assert data.labels[1] == ["NO", MISSING]

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
        overrides = read_gold_overrides(path)
        assert overrides == {"n1:0": ("YES", "lead author call")}

    def test_merge_reliability_namespaces_annotators(self):
        round1 = matrix_data([["YES", "NO"]], annotators=["alice", "bob"])
        round2 = matrix_data([["NO", "NO"]], annotators=["alice", "cara"])
        merged = merge_reliability({"r1": round1, "r2": round2})
        assert set(merged.annotators) == {"r1:alice", "r1:bob", "r2:alice", "r2:cara"}
        assert merged.items == ["item0"]
        assert sorted(merged.item_labels(0)) == ["NO", "NO", "NO", "YES"]


class TestEvaluate:
    ROUNDS = {"r1": ReliabilityData(items=["n:0", "n:1", "n:2", "n:3"], annotators=["a", "b"],
                                    labels=[["YES", "MAYBE"], ["YES", "YES"], ["NO", "NO"],
                                            ["NO", MISSING]])}

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
        assert "spotcheck" not in payload

    def test_spotcheck_passage_must_be_an_act(self, tmp_path):
        path = tmp_path / "spot.csv"
        path.write_text("passage_id,affect,impact\n n:0 ,individual,Punishing\n",
                        encoding="utf-8")
        annotations = [make_annotation("n", i, final="YES" if i < 2 else "NO") for i in range(4)]
        payload = evaluate(self.ROUNDS, {}, annotations, path)
        assert payload["spotcheck"] == {"affect": 100.0, "impact": 0.0}
        path.write_text("passage_id,affect,impact\nn:3,INDIVIDUAL,LOVING\n", encoding="utf-8")
        with pytest.raises(ValueError, match="n:3 is not a resolved YES"):
            evaluate(self.ROUNDS, {}, annotations, path)
