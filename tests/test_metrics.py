import numpy as np
import pytest

from widefeat.metrics import compute_metrics


def confusion_fixture():
    """tp=8, fn=2, tn=5, fp=5 with positive class 1."""
    actual = [1] * 10 + [0] * 10
    predicted = [1] * 8 + [0] * 2 + [0] * 5 + [1] * 5
    return predicted, actual


class TestComputeMetrics:
    def test_all_correct(self):
        report = compute_metrics([0, 1, 0, 1], [0, 1, 0, 1], positive_class=1)
        for name in ("accuracy", "sensitivity", "specificity", "precision", "f_score"):
            assert report.value(name) == 1.0

    def test_hand_confusion_fixture(self):
        predicted, actual = confusion_fixture()
        report = compute_metrics(predicted, actual, positive_class=1)
        assert (report.tp, report.fn, report.tn, report.fp) == (8, 2, 5, 5)
        assert report.sensitivity == pytest.approx(0.8, abs=1e-4)
        assert report.specificity == pytest.approx(0.5, abs=1e-4)
        assert report.precision == pytest.approx(0.6154, abs=1e-4)
        assert report.accuracy == pytest.approx(0.65, abs=1e-4)
        assert report.f_score == pytest.approx(0.6957, abs=1e-4)

    def test_no_positives_guard(self):
        report = compute_metrics([0, 0, 0], [0, 0, 0], positive_class=1)
        assert report.precision == 0.0
        assert report.sensitivity == 0.0
        assert report.f_score == 0.0
        assert report.accuracy == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal-length"):
            compute_metrics([0, 1], [0, 1, 1], positive_class=1)

    def test_sensitivity_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            actual = rng.integers(0, 2, 30)
            predicted = rng.integers(0, 2, 30)
            if not (actual == 1).any():
                continue
            report = compute_metrics(predicted, actual, positive_class=1)
            miss_rate = report.fn / (report.tp + report.fn)
            assert report.sensitivity + miss_rate == pytest.approx(1.0)

    def test_label_swap_keeps_accuracy(self):
        rng = np.random.default_rng(1)
        actual = rng.integers(0, 2, 40)
        predicted = rng.integers(0, 2, 40)
        a = compute_metrics(predicted, actual, positive_class=1)
        b = compute_metrics(1 - predicted, 1 - actual, positive_class=0)
        assert a.accuracy == b.accuracy
        assert a.sensitivity == b.sensitivity
        assert a.specificity == b.specificity

    def test_to_dict_keys(self):
        predicted, actual = confusion_fixture()
        payload = compute_metrics(predicted, actual, 1).to_dict()
        assert set(payload) == {"accuracy", "sensitivity", "specificity", "precision",
                                "f_score", "confusion"}
