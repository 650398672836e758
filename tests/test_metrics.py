import numpy as np
import pytest

from widefeat.metrics import METRIC_MAX, METRIC_NAMES, compute_metrics, confusion_metrics


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

    @pytest.mark.parametrize("case", ["random", "all_positive", "all_negative", "no_positive"])
    def test_counts_core_equals_four_count_reference(self, case):
        # the core counts tp and derives fp, fn and tn from the totals; the
        # reference counts all four cells directly
        rng = np.random.default_rng(0)
        for n in (1, 2, 7, 40):
            predicted, actual = rng.integers(0, 2, n), rng.integers(0, 2, n)
            if case == "all_positive":
                predicted[:] = 1
            elif case == "all_negative":
                predicted[:] = 0
            elif case == "no_positive":
                actual[:] = 0
            pred, act = predicted == 1, actual == 1
            tp, tn = int(np.sum(pred & act)), int(np.sum(~pred & ~act))
            fp, fn = int(np.sum(pred & ~act)), int(np.sum(~pred & act))
            got = confusion_metrics(pred, act)
            assert got == compute_metrics(predicted, actual, positive_class=1)
            assert (got.tp, got.tn, got.fp, got.fn) == (tp, tn, fp, fn)
            assert all(isinstance(v, int) for v in (got.tp, got.tn, got.fp, got.fn))
            assert got.accuracy == (tp + tn) / n
            assert got.sensitivity == (tp / (tp + fn) if tp + fn else 0.0)
            assert got.specificity == (tn / (tn + fp) if tn + fp else 0.0)
            assert got.precision == (tp / (tp + fp) if tp + fp else 0.0)

    def test_counts_core_rejects_empty_or_unequal_masks(self):
        with pytest.raises(ValueError, match="equal-length"):
            confusion_metrics(np.zeros(0, bool), np.zeros(0, bool))
        with pytest.raises(ValueError, match="equal-length"):
            confusion_metrics(np.zeros(2, bool), np.zeros(3, bool))

    def test_every_metric_lies_in_zero_to_max_and_accuracy_max_only_when_no_errors(self):
        # a fold stops scoring once a fit reaches METRIC_MAX, which is sound only if
        # no report exceeds it; every confusion of up to 24 rows, f_score's rounding
        # included, since fl(2ps) <= fl(p + s) for p and s in [0, 1]
        for total in range(1, 25):
            for tp in range(total + 1):
                for tn in range(total + 1 - tp):
                    for fp in range(total + 1 - tp - tn):
                        fn = total - tp - tn - fp
                        predicted = np.repeat([True, False, True, False], [tp, tn, fp, fn])
                        actual = np.repeat([True, False, False, True], [tp, tn, fp, fn])
                        report = confusion_metrics(predicted, actual)
                        assert (report.tp, report.tn, report.fp, report.fn) == (tp, tn, fp, fn)
                        for name in METRIC_NAMES:
                            assert 0.0 <= report.value(name) <= METRIC_MAX, (name, report)
                        assert (report.accuracy == METRIC_MAX) == (fp == fn == 0)
