"""Evaluation metrics: ROC AUC, standardized partial AUC at a capped false
positive rate, t-based confidence intervals over runs, and Welch's t-test.

AUC is the Mann-Whitney statistic P(score_pos > score_neg) + 0.5 P(tie),
computed from tie-averaged ranks in O(N log N). The empirical ROC groups
equal scores into single threshold steps, which keeps trapezoidal areas
consistent with that tie convention: the area under the full curve equals
the rank statistic exactly. Partial AUC follows the standardization
0.5 * (1 + (A - A_min) / (A_max - A_min)) with A_min = c^2/2 (the chance
diagonal head) and A_max = c (the perfect head).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class ScoredSet:
    """Parallel scores and binary labels for one evaluation."""

    scores: np.ndarray
    labels: np.ndarray

    @classmethod
    def of(cls, scores, labels) -> "ScoredSet":
        s = np.asarray(scores, dtype=np.float64)
        y = np.asarray(labels, dtype=np.int64)
        if s.shape != y.shape or s.ndim != 1:
            raise ValueError(f"scores {s.shape} and labels {y.shape} must be equal-length vectors")
        if s.size == 0:
            raise ValueError("empty scored set")
        if not np.all(np.isfinite(s)):
            raise ValueError("scores must be finite")
        if not np.all((y == 0) | (y == 1)):
            raise ValueError("labels must be 0 or 1")
        return cls(s, y)

    def class_counts(self) -> tuple[int, int]:
        n_pos = int(self.labels.sum())
        return n_pos, self.labels.size - n_pos


def _require_both_classes(s: ScoredSet) -> tuple[int, int]:
    n_pos, n_neg = s.class_counts()
    if n_pos == 0 or n_neg == 0:
        raise ValueError(f"need both classes, got {n_pos} positives / {n_neg} negatives")
    return n_pos, n_neg


def auc(s: ScoredSet) -> float:
    """Mann-Whitney AUC with ties counted half."""
    n_pos, n_neg = _require_both_classes(s)
    order = np.argsort(s.scores, kind="mergesort")
    sorted_scores = s.scores[order]
    # tie group [i, j) of the sorted scores shares the average of ranks i+1..j
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], sorted_scores.size]
    ranks = np.empty(s.scores.size)
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    rank_sum_pos = float(ranks[s.labels == 1].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def roc_points(s: ScoredSet) -> tuple[np.ndarray, np.ndarray]:
    """Empirical ROC from (0,0) to (1,1), one step per distinct score."""
    n_pos, n_neg = _require_both_classes(s)
    order = np.argsort(-s.scores, kind="mergesort")
    sorted_scores = s.scores[order]
    sorted_labels = s.labels[order]
    tps = np.cumsum(sorted_labels)
    fps = np.cumsum(1 - sorted_labels)
    # keep only the last index of each tie group
    distinct = np.r_[sorted_scores[1:] != sorted_scores[:-1], True]
    fpr = np.r_[0.0, fps[distinct] / n_neg]
    tpr = np.r_[0.0, tps[distinct] / n_pos]
    return fpr, tpr


def spauc(s: ScoredSet, c: float = 0.01) -> float:
    """Standardized partial AUC over FPR in [0, c].

    Trapezoidal integration of the empirical ROC with linear interpolation
    at the cut, rescaled so a chance classifier scores 0.5 and a perfect
    one 1.0 for every c.
    """
    if not 0.0 < c <= 1.0:
        raise ValueError(f"FPR ceiling must be in (0, 1], got {c}")
    fpr, tpr = roc_points(s)
    area = 0.0
    for i in range(1, fpr.size):
        f0, f1 = fpr[i - 1], fpr[i]
        t0, t1 = tpr[i - 1], tpr[i]
        if f1 <= c:
            area += (f1 - f0) * (t0 + t1) / 2.0
            continue
        if f0 < c:  # cut this segment at c
            t_c = t0 + (t1 - t0) * (c - f0) / (f1 - f0)
            area += (c - f0) * (t0 + t_c) / 2.0
        break
    a_min = c * c / 2.0
    a_max = c
    return 0.5 * (1.0 + (area - a_min) / (a_max - a_min))


@dataclass(frozen=True)
class RunSummary:
    """Per-seed metric values with a t-based confidence interval."""

    values: tuple[float, ...]
    mean: float
    halfwidth: float
    level: float = 0.95

    def format(self) -> str:
        return f"{self.mean:.4f}±{self.halfwidth:.4f}"


def mean_ci(values: Sequence[float], level: float = 0.95) -> RunSummary:
    """Mean with t-quantile confidence halfwidth over independent runs."""
    from scipy import stats  # imported here: scipy.stats dominates import time
    vals = tuple(float(v) for v in values)
    m = len(vals)
    if m < 2:
        raise ValueError(f"need at least 2 values for a confidence interval, got {m}")
    mean = float(np.mean(vals))
    std = float(np.std(vals, ddof=1))
    t_crit = float(stats.t.ppf(0.5 + level / 2.0, df=m - 1))
    return RunSummary(vals, mean, t_crit * std / np.sqrt(m), level)


def ttest_ind(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided Welch t-test p-value via the regularized incomplete beta.

    Degenerate zero-variance pairs: p = 1 for equal means, else 0.
    """
    from scipy import special  # imported here, like scipy.stats in mean_ci
    xa = np.asarray(a, dtype=np.float64)
    xb = np.asarray(b, dtype=np.float64)
    if xa.size < 2 or xb.size < 2:
        raise ValueError("each group needs at least 2 values")
    va, vb = xa.var(ddof=1), xb.var(ddof=1)
    na, nb = xa.size, xb.size
    if va == 0.0 and vb == 0.0:
        return 1.0 if xa.mean() == xb.mean() else 0.0
    se2 = va / na + vb / nb
    t = (xa.mean() - xb.mean()) / np.sqrt(se2)
    df = se2 ** 2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    # P(|T_df| >= |t|) for the Student t distribution
    return float(special.betainc(df / 2.0, 0.5, df / (df + t * t)))


def render_metric_report(title: str,
                         per_metric: dict[str, Sequence[float]],
                         baseline: dict[str, Sequence[float]] | None = None,
                         baseline_name: str = "baseline") -> str:
    """Structured text: per-seed values, mean±CI, and p-values vs baseline."""
    lines = [title]
    for name, values in per_metric.items():
        vals = ", ".join(f"{v:.4f}" for v in values)
        lines.append(f"  {name}: values=[{vals}]")
        if len(values) >= 2:
            lines.append(f"  {name}: mean±95%CI = {mean_ci(values).format()}")
        else:
            lines.append(f"  {name}: mean = {values[0]:.4f} "
                         "(CI omitted: needs >= 2 runs)")
        if baseline and name in baseline and len(values) >= 2 \
                and len(baseline[name]) >= 2:
            p = ttest_ind(values, baseline[name])
            lines.append(f"  {name}: p-value vs {baseline_name} = {p:.6f}")
    return "\n".join(lines) + "\n"
