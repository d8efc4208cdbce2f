import math
import random

import pytest

from godspell.records import left_sum
from godspell.stats import (
    act_proportions,
    betainc_reg,
    characterization_shares,
    group_compare,
    pearson,
    position_density,
    t_cdf,
    ttest_ind,
)

from helpers import make_annotation, make_novel, make_passage
from oracles import left_fold_sum, t_cdf_quad, t_two_sided_p_quad

# Frozen from the numerical-integration oracle (see oracles.t_two_sided_p_quad).
TTEST_EXAMPLE_P = 0.2878641347266907


# sums whose compensated value (math.fsum, or sum() from Python 3.12) is
# not their left fold
UNEVEN_SUMS = [[1e16, 1.0, -1e16], [1e16, 1.0, -1e16, 3.0, 1e-3], [0.1] * 10]


@pytest.mark.parametrize("values", UNEVEN_SUMS)
def test_left_sum_is_the_left_fold_on_every_python(values):
    assert math.fsum(values) != left_fold_sum(values)
    assert left_sum(values) == left_fold_sum(values)
    assert left_sum(iter(values)) == left_fold_sum(values)


def test_means_are_left_folds():
    """The means of ttest_ind, act_proportions and position_density add
    in order, as the left fold does, on every Python."""
    a = [1e16, 1.0, -1e16, 3.0]
    assert ttest_ind(a, [1.0, 2.0])["mean_a"] == left_fold_sum(a) / 4 == 0.75
    annotations = [make_annotation(f"nov-{n}", i, final="YES" if i == 0 else "NO")
                   for n in range(10) for i in range(10)]
    shares = act_proportions(annotations)
    assert shares["per_novel_mean"] == left_fold_sum([0.1] * 10) / 10
    passages = [make_passage("nov-a", i, 0.1) for i in range(10)]
    acts = [make_annotation("nov-a", i, final="YES") for i in range(10)]
    mean = position_density(acts, passages, bins=4)["mean_position"]
    assert mean == left_fold_sum([0.1] * 10) / 10 != 0.1


class TestPearson:
    def test_identity_vectors(self):
        r, p = pearson([1, 2, 3], [1, 2, 3])
        assert r == 1.0
        assert p == 0.0

    def test_reflection(self):
        r, p = pearson([1, 2, 3], [3, 2, 1])
        assert r == -1.0
        assert p == 0.0

    def test_four_point_case(self):
        # r derived by hand from the definition; p = 0.2 exactly (df=2).
        r, p = pearson([1, 2, 3, 4], [1, 3, 2, 4])
        assert abs(r - 0.8) < 1e-12
        assert abs(p - 0.2) < 1e-9

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError, match="undefined correlation"):
            pearson([1.0, 1.0, 1.0], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            pearson([1, 2, 3], [1, 2])

    def test_too_short(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [3, 4])

    def test_symmetry(self):
        rng = random.Random(7)
        for _ in range(25):
            x = [rng.gauss(0, 1) for _ in range(8)]
            y = [rng.gauss(0, 1) for _ in range(8)]
            assert pearson(x, y)[0] == pearson(y, x)[0]

    def test_affine_invariance(self):
        rng = random.Random(11)
        x = [rng.gauss(0, 1) for _ in range(10)]
        y = [rng.gauss(0, 1) for _ in range(10)]
        r0, _ = pearson(x, y)
        r_pos, _ = pearson([3.5 * v + 2.0 for v in x], y)
        r_neg, _ = pearson([-3.5 * v + 2.0 for v in x], y)
        assert abs(r_pos - r0) < 1e-12
        assert abs(r_neg + r0) < 1e-12


class TestTCdf:
    def test_symmetry_point(self):
        assert t_cdf(0.0, 5) == 0.5

    def test_cauchy_closed_form(self):
        # df=1 is the Cauchy distribution: F(t) = 1/2 + arctan(t)/pi.
        assert abs(t_cdf(1.0, 1) - 0.75) < 1e-12
        for t in (-3.0, -0.5, 0.25, 2.0, 10.0):
            assert abs(t_cdf(t, 1) - (0.5 + math.atan(t) / math.pi)) < 1e-12

    def test_infinite_t(self):
        for df in (1, 4.5, 240):
            assert t_cdf(-math.inf, df) == 0.0
            assert t_cdf(math.inf, df) == 1.0

    def test_normal_limit(self):
        normal = 0.5 * (1.0 + math.erf(2.0 / math.sqrt(2.0)))
        assert abs(t_cdf(2.0, 1000) - normal) < 1e-3

    def test_against_quadrature_oracle(self):
        for t in (-4.0, -1.3, 0.7, 2.5, 8.0):
            for df in (1, 2, 4.5, 17, 240):
                assert abs(t_cdf(t, df) - t_cdf_quad(t, df)) < 1e-10

    def test_betainc_bounds(self):
        assert betainc_reg(2.0, 3.0, 0.0) == 0.0
        assert betainc_reg(2.0, 3.0, 1.0) == 1.0
        with pytest.raises(ValueError):
            betainc_reg(0.0, 1.0, 0.5)


class TestTTest:
    def test_identical_groups(self):
        result = ttest_ind([1, 2, 3], [1, 2, 3])
        assert result["statistic"] == 0.0
        assert result["p_two_sided"] == 1.0

    def test_hand_derived_case(self):
        result = ttest_ind([1, 2, 3], [2, 3, 4])
        assert abs(result["statistic"] - (-math.sqrt(1.5))) < 1e-12
        assert result["df"] == 4
        assert abs(result["p_two_sided"] - TTEST_EXAMPLE_P) < 1e-9

    def test_translation_invariance(self):
        base = ttest_ind([1.0, 2.5, 3.0], [2.0, 4.0, 5.5])
        shifted = ttest_ind([101.0, 102.5, 103.0], [102.0, 104.0, 105.5])
        assert abs(base["statistic"] - shifted["statistic"]) < 1e-9
        assert abs(base["p_two_sided"] - shifted["p_two_sided"]) < 1e-9

    def test_antisymmetry(self):
        ab = ttest_ind([1, 2, 3], [2, 3, 4])
        ba = ttest_ind([2, 3, 4], [1, 2, 3])
        assert abs(ab["statistic"] + ba["statistic"]) < 1e-12
        assert abs(ab["p_two_sided"] - ba["p_two_sided"]) < 1e-12

    def test_zero_variance_equal_means(self):
        result = ttest_ind([2, 2], [2, 2])
        assert result["statistic"] == 0.0
        assert result["p_two_sided"] == 1.0
        assert result["flag"] == "zero variance"

    def test_zero_variance_different_means(self):
        result = ttest_ind([2, 2], [3, 3])
        assert result["p_two_sided"] == 0.0
        assert result["flag"] == "zero variance"

    def test_small_groups_rejected(self):
        with pytest.raises(ValueError):
            ttest_ind([1], [2, 3])


NOVELS = [
    make_novel("nov-a", ["female"]),
    make_novel("nov-b", ["male"]),
    make_novel("nov-c", ["female"]),
    make_novel("nov-d", ["male"]),
    make_novel("ser-1", ["male", "male"], series_tag="end-times"),
    make_novel("ser-2", ["male", "male"], series_tag="end-times"),
    make_novel("mix-1", ["female", "male"]),
]


def _share_annotations(shares: dict[str, tuple[int, int]]):
    annotations = []
    for novel_id, (yes, total) in shares.items():
        for i in range(total):
            annotations.append(
                make_annotation(novel_id, i, final="YES" if i < yes else "NO")
            )
    return annotations


class TestActProportions:
    def test_simple_share(self):
        annotations = _share_annotations({"nov-a": (4, 8)})
        result = act_proportions(annotations)
        assert result["per_novel"]["nov-a"] == 0.5
        assert result["corpus_share"] == 0.5

    def test_matches_brute_force_recount(self):
        rng = random.Random(3)
        annotations = []
        for novel in NOVELS:
            for i in range(rng.randint(5, 20)):
                final = "YES" if rng.random() < 0.3 else "NO"
                annotations.append(make_annotation(novel.id, i, final=final))
        result = act_proportions(annotations)
        for novel in NOVELS:
            mine = [a for a in annotations if a.novel_id == novel.id]
            expected = sum(1 for a in mine if a.final_label == "YES") / len(mine)
            assert result["per_novel"][novel.id] == pytest.approx(expected)

    def test_unresolved_counts_as_no(self):
        annotations = [
            make_annotation("nov-a", 0, final="YES"),
            make_annotation("nov-a", 1, status="unresolved"),
        ]
        result = act_proportions(annotations)
        assert result["per_novel"]["nov-a"] == 0.5
        assert result["unresolved_count"] == 1


class TestPositionDensity:
    def test_single_bin(self):
        passages = [make_passage("nov-a", 0, 0.5)]
        annotations = [make_annotation("nov-a", 0, final="YES")]
        result = position_density(annotations, passages, bins=20)
        assert sum(1 for c in result["counts"] if c) == 1
        assert result["mean_position"] == 0.5

    def test_density_integrates_to_one(self):
        rng = random.Random(5)
        passages = [make_passage("nov-a", i, rng.random()) for i in range(200)]
        annotations = [
            make_annotation("nov-a", i, final="YES" if rng.random() < 0.4 else "NO")
            for i in range(200)
        ]
        result = position_density(annotations, passages, bins=20)
        mass = sum(d * (1 / 20) for d in result["density"])
        assert abs(mass - 1.0) < 1e-9

    def test_uniform_positions_pass_chi_square(self):
        # 10k uniform acts should not reject uniformity at the 0.01 level
        # (chi-square critical value for 19 df is 36.1909).
        rng = random.Random(12)
        passages = [make_passage("nov-a", i, rng.random()) for i in range(10_000)]
        annotations = [make_annotation("nov-a", i, final="YES") for i in range(10_000)]
        result = position_density(annotations, passages, bins=20)
        expected = 10_000 / 20
        chi2 = sum((c - expected) ** 2 / expected for c in result["counts"])
        assert chi2 < 36.1909

    def test_empty_annotations(self):
        result = position_density([], [], bins=20)
        assert result["n_acts"] == 0
        assert result["mean_position"] is None

    def test_unmatched_acts_dropped_with_warning(self, caplog):
        passages = [make_passage("nov-a", 0, 0.5)]
        annotations = [make_annotation("nov-a", i, final="YES") for i in range(3)]
        with caplog.at_level("WARNING"):
            result = position_density(annotations, passages, bins=20)
        assert result["n_acts"] == 1
        assert len(caplog.records) == 1
        assert "2 acts" in caplog.text


class TestGroupCompare:
    def test_series_grouping_sizes(self):
        values = {n.id: 0.1 for n in NOVELS}
        values["ser-1"] = 0.5
        values["ser-2"] = 0.6
        result = group_compare(values, NOVELS, "series", series_tag="end-times")
        assert result["n_a"] == 2
        assert result["n_b"] == 5
        assert result["mean_a"] > result["mean_b"]

    def test_gender_grouping_filters(self):
        values = {n.id: float(i) for i, n in enumerate(NOVELS)}
        result = group_compare(values, NOVELS, "gender")
        # series novels and the mixed-gender novel are dropped
        assert result["n_a"] == 2 and result["n_b"] == 2
        assert result["group_a"] == "female" and result["group_b"] == "male"

    def test_filter_counts_match_brute_force(self):
        values = {n.id: float(i) for i, n in enumerate(NOVELS)}
        result = group_compare(values, NOVELS, "gender")
        kept = [n for n in NOVELS if not n.series_tag and n.gender_group() in ("female", "male")]
        assert result["n_a"] + result["n_b"] == len(kept)

    def test_identical_groups_p_one(self):
        values = {"nov-a": 1.0, "nov-c": 2.0, "nov-b": 1.0, "nov-d": 2.0}
        result = group_compare(values, NOVELS, "gender")
        assert result["p_two_sided"] == 1.0

    def test_empty_group_raises(self):
        values = {"nov-a": 1.0, "nov-c": 2.0}
        with pytest.raises(ValueError, match="male group"):
            group_compare(values, NOVELS, "gender")

    def test_unknown_grouping(self):
        with pytest.raises(ValueError):
            group_compare({"nov-a": 1.0}, NOVELS, "publisher")


class TestCharacterizationShares:
    def test_individual_share(self):
        annotations = [
            make_annotation("nov-a", 0, final="YES", affect="INDIVIDUAL"),
            make_annotation("nov-a", 1, final="YES", affect="INDIVIDUAL"),
            make_annotation("nov-a", 2, final="YES", affect="GROUP"),
        ]
        shares = characterization_shares(annotations)
        assert shares["per_novel_affect"]["INDIVIDUAL"]["nov-a"] == pytest.approx(2 / 3)
        assert shares["per_novel_affect"]["GROUP"]["nov-a"] == pytest.approx(1 / 3)

    def test_impact_shares_sum_to_one(self):
        rng = random.Random(9)
        impacts = ["LOVING", "PUNISHING", "BOTH", "NEUTRAL"]
        annotations = [
            make_annotation("nov-a", i, final="YES", impact=rng.choice(impacts))
            for i in range(40)
        ]
        shares = characterization_shares(annotations)
        total = sum(shares["per_novel_impact"][label]["nov-a"] for label in impacts)
        assert abs(total - 1.0) < 1e-9

    def test_zero_act_novel_excluded(self, caplog):
        annotations = [
            make_annotation("nov-a", 0, final="YES"),
            make_annotation("nov-b", 0, final="NO"),
        ]
        shares = characterization_shares(annotations)
        assert "nov-b" not in shares["per_novel_affect"]["INDIVIDUAL"]

    def test_scaling_leaves_pearson_unchanged(self):
        # prominence-style argmax/correlation stability under common scaling
        values_x = {"nov-a": 1.0, "nov-b": 4.0, "nov-c": 2.0, "nov-d": 5.0}
        values_y = {"nov-a": 2.0, "nov-b": 3.0, "nov-c": 1.0, "nov-d": 6.0}
        ids = sorted(values_x)
        r0, _ = pearson([values_x[i] for i in ids], [values_y[i] for i in ids])
        r1, _ = pearson([7.3 * values_x[i] for i in ids], [values_y[i] for i in ids])
        assert abs(r0 - r1) < 1e-12

