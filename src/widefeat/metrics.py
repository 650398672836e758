"""Confusion-matrix metric suite for binary classifiers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

METRIC_NAMES = ("accuracy", "sensitivity", "specificity", "precision", "f_score")


@dataclass(frozen=True)
class MetricReport:
    accuracy: float
    sensitivity: float
    specificity: float
    precision: float
    f_score: float
    tp: int
    tn: int
    fp: int
    fn: int

    def value(self, name: str) -> float:
        if name not in METRIC_NAMES:
            raise ValueError(f"unknown metric {name!r}; known: {METRIC_NAMES}")
        return getattr(self, name)

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy, "sensitivity": self.sensitivity,
            "specificity": self.specificity, "precision": self.precision,
            "f_score": self.f_score,
            "confusion": {"tp": self.tp, "tn": self.tn, "fp": self.fp, "fn": self.fn},
        }


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def compute_metrics(predicted, actual, positive_class) -> MetricReport:
    """Standard confusion-matrix metrics; undefined ratios report as 0."""
    predicted = np.asarray(predicted)
    actual = np.asarray(actual)
    if predicted.shape != actual.shape or predicted.size == 0:
        raise ValueError(
            f"predicted and actual must be equal-length and non-empty, "
            f"got {predicted.shape} vs {actual.shape}")
    pred_pos = predicted == positive_class
    true_pos = actual == positive_class
    tp = int(np.count_nonzero(pred_pos & true_pos))
    tn = int(np.count_nonzero(~pred_pos & ~true_pos))
    fp = int(np.count_nonzero(pred_pos & ~true_pos))
    fn = int(np.count_nonzero(~pred_pos & true_pos))
    sensitivity = _safe_div(tp, tp + fn)
    precision = _safe_div(tp, tp + fp)
    return MetricReport(
        accuracy=_safe_div(tp + tn, tp + tn + fp + fn),
        sensitivity=sensitivity,
        specificity=_safe_div(tn, tn + fp),
        precision=precision,
        f_score=_safe_div(2.0 * precision * sensitivity, precision + sensitivity),
        tp=tp, tn=tn, fp=fp, fn=fn)
