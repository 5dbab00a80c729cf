"""Metric tests against independent oracles: O(N^2) pair counting for AUC,
exhaustive threshold enumeration for partial AUC, and numerical
integration of the t density for the test p-values."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from nhfm import metrics as mt


def auc_pair_count_oracle(scores, labels):
    """Count concordant pairs, ties half, over all pos/neg pairs."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def spauc_threshold_oracle(scores, labels, c):
    """Brute-force ROC from every distinct threshold, then trapezoids."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    points = [(0.0, 0.0)]
    for th in sorted(set(scores), reverse=True):
        fpr = sum(1 for s in neg if s >= th) / len(neg)
        tpr = sum(1 for s in pos if s >= th) / len(pos)
        points.append((fpr, tpr))
    area = 0.0
    for (f0, t0), (f1, t1) in zip(points, points[1:]):
        if f1 <= c:
            area += (f1 - f0) * (t0 + t1) / 2.0
        elif f0 < c:
            t_c = t0 + (t1 - t0) * (c - f0) / (f1 - f0)
            area += (c - f0) * (t0 + t_c) / 2.0
            break
        else:
            break
    return 0.5 * (1.0 + (area - c * c / 2.0) / (c - c * c / 2.0))


def welch_p_quadrature_oracle(a, b):
    """p-value by integrating the t density with the Welch statistic."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    va, vb = a.var(ddof=1), b.var(ddof=1)
    na, nb = a.size, b.size
    se2 = va / na + vb / nb
    t = abs((a.mean() - b.mean()) / math.sqrt(se2))
    df = se2 ** 2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))

    def density(x):
        logc = (math.lgamma((df + 1) / 2) - math.lgamma(df / 2)
                - 0.5 * math.log(df * math.pi))
        return math.exp(logc - (df + 1) / 2 * math.log1p(x * x / df))

    tail, _ = quad(density, t, np.inf)
    return 2.0 * tail


def random_set(rng, n=40):
    labels = rng.integers(0, 2, n)
    while labels.sum() in (0, n):
        labels = rng.integers(0, 2, n)
    scores = np.round(rng.uniform(0, 1, n), 2)  # rounding forces ties
    return scores, labels


class TestAUC:
    def test_perfect_order(self):
        assert mt.auc(mt.ScoredSet.of([0.9, 0.1], [1, 0])) == 1.0

    def test_all_ties_is_half(self):
        assert mt.auc(mt.ScoredSet.of([0.3] * 6, [1, 0, 1, 0, 0, 1])) == 0.5

    def test_matches_pair_count_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            scores, labels = random_set(rng)
            got = mt.auc(mt.ScoredSet.of(scores, labels))
            want = auc_pair_count_oracle(scores, labels)
            assert got == want

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            mt.auc(mt.ScoredSet.of([0.1, 0.2], [1, 1]))

    def test_tie_ranks_match_the_loop_bit_for_bit(self):
        # the per-group loop the array version replaced
        def loop_auc(scores, labels):
            order = np.argsort(scores, kind="mergesort")
            ordered = scores[order]
            ranks = np.empty(scores.size)
            i = 0
            while i < ordered.size:
                j = i
                while j < ordered.size and ordered[j] == ordered[i]:
                    j += 1
                ranks[order[i:j]] = 0.5 * (i + 1 + j)
                i = j
            n_pos = int(labels.sum())
            n_neg = labels.size - n_pos
            return (float(ranks[labels == 1].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)

        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(2, 300))
            scores = rng.integers(0, int(rng.integers(1, 12)), n) / 7.0
            labels = rng.integers(0, 2, n)
            labels[:2] = (0, 1)
            assert mt.auc(mt.ScoredSet.of(scores, labels)) == loop_auc(scores, labels)

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(1)
        scores, labels = random_set(rng)
        base = mt.auc(mt.ScoredSet.of(scores, labels))
        assert mt.auc(mt.ScoredSet.of(np.exp(scores), labels)) == base
        assert mt.auc(mt.ScoredSet.of(3.0 * scores + 11.0, labels)) == base

    def test_label_flip_complements(self):
        rng = np.random.default_rng(2)
        scores, labels = random_set(rng)
        a = mt.auc(mt.ScoredSet.of(scores, labels))
        b = mt.auc(mt.ScoredSet.of(scores, 1 - labels))
        assert abs(a + b - 1.0) < 1e-12


class TestSpAUC:
    def test_perfect_classifier_scores_one(self):
        s = mt.ScoredSet.of([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        for c in (0.01, 0.1, 0.5, 1.0):
            assert abs(mt.spauc(s, c) - 1.0) < 1e-12

    def test_hand_case_against_threshold_oracle(self):
        scores = [0.9, 0.2, 0.8, 0.1]
        labels = [1, 1, 0, 0]
        got = mt.spauc(mt.ScoredSet.of(scores, labels), 0.5)
        want = spauc_threshold_oracle(scores, labels, 0.5)
        assert abs(got - want) < 1e-12
        assert abs(got - 2.0 / 3.0) < 1e-12  # worked out from the ROC head

    def test_random_sets_against_threshold_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            scores, labels = random_set(rng)
            for c in (0.1, 0.3, 0.7, 1.0):
                got = mt.spauc(mt.ScoredSet.of(scores, labels), c)
                want = spauc_threshold_oracle(scores, labels, c)
                assert abs(got - want) < 1e-12

    def test_ceiling_one_equals_auc(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            scores, labels = random_set(rng)
            s = mt.ScoredSet.of(scores, labels)
            assert abs(mt.spauc(s, 1.0) - mt.auc(s)) < 1e-12

    def test_bad_ceiling_rejected(self):
        s = mt.ScoredSet.of([0.9, 0.1], [1, 0])
        for c in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="ceiling"):
                mt.spauc(s, c)


class TestMeanCI:
    def test_identical_values_zero_halfwidth(self):
        summary = mt.mean_ci([0.7] * 5)
        assert summary.halfwidth == 0.0
        assert summary.mean == 0.7

    def test_known_case_direct_formula(self):
        values = [0.0, 0.0, 0.0, 0.0, 1.0]
        summary = mt.mean_ci(values)
        # direct evaluation: t_{4,0.975} * s / sqrt(5)
        s = math.sqrt(sum((v - 0.2) ** 2 for v in values) / 4)
        t_crit = 2.7764451051977987
        assert abs(summary.mean - 0.2) < 1e-12
        assert abs(summary.halfwidth - t_crit * s / math.sqrt(5)) < 1e-9

    def test_format_matches_table_style(self):
        summary = mt.mean_ci([0.7702, 0.7706, 0.7710, 0.7714, 0.7708])
        text = summary.format()
        assert "±" in text
        mean_s, hw_s = text.split("±")
        assert len(mean_s.split(".")[1]) == 4
        assert len(hw_s.split(".")[1]) == 4

    def test_fewer_than_two_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            mt.mean_ci([0.5])


class TestTTest:
    def test_identical_groups(self):
        assert mt.ttest_ind([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_zero_variance_equal_means(self):
        assert mt.ttest_ind([2.0, 2.0], [2.0, 2.0]) == 1.0

    def test_zero_variance_different_means(self):
        assert mt.ttest_ind([0.0, 0.0], [1.0, 1.0]) == 0.0

    def test_extreme_separation(self):
        a = [0.0, 1e-9, -1e-9]
        b = [1.0, 1.0 + 1e-9, 1.0 - 1e-9]
        assert mt.ttest_ind(a, b) < 1e-6

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = rng.normal(0.0, 1.0, size=rng.integers(3, 9))
            b = rng.normal(0.3, 1.5, size=rng.integers(3, 9))
            got = mt.ttest_ind(a, b)
            want = welch_p_quadrature_oracle(a, b)
            assert abs(got - want) < 1e-8

    def test_tiny_groups_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            mt.ttest_ind([1.0], [1.0, 2.0])


class TestScoredSet:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            mt.ScoredSet.of([0.5, float("nan")], [0, 1])

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="0 or 1"):
            mt.ScoredSet.of([0.5, 0.6], [0, 2])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal-length"):
            mt.ScoredSet.of([0.5], [0, 1])


class TestReportRendering:
    def test_contains_values_ci_and_pvalue(self):
        text = mt.render_metric_report(
            "run A vs run B",
            {"auc": [0.70, 0.71, 0.72]},
            baseline={"auc": [0.60, 0.61, 0.62]},
            baseline_name="run B")
        assert "values=[0.7000, 0.7100, 0.7200]" in text
        assert "mean±95%CI" in text
        assert "p-value vs run B" in text

    def test_single_seed_omits_ci_with_note(self):
        text = mt.render_metric_report("solo", {"auc": [0.75]})
        assert "CI omitted" in text
