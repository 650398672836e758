"""Acceptance gate: one test per release criterion, each printing a pass line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance and runtime budget is asserted, not just logged.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
from conftest import amplitude_shape_records, score_garbled_test_rows, sine_records
from widefeat import recommender
from widefeat.classifier_eval import EvalConfig, evaluate_feature_set, pca_baseline
from widefeat.dataset import SignalRecord, make_folds
from widefeat.feature_bank import build_feature_matrix
from widefeat.metrics import compute_metrics
from widefeat.recommender import RecommendConfig, exhaustive_refine, recommend
from widefeat.selector import RelevanceCache, f_statistic, mrmr_select, mrms_select
from widefeat.stft import hann_window, stft
from widefeat.svm import KernelSpec, svm_predict, svm_train
from widefeat.wavelets import WAVELET_BANK, dwt_decompose, dwt_max_depth, dwt_reconstruct

FAST_EVAL = EvalConfig(kernels=("linear", "rbf"), c_grid=(1.0, 10.0))


@contextmanager
def criterion(name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"{name}: {elapsed:.1f}s exceeded {budget_s}s budget"
    print(f"[PASS] {name} ({elapsed:.1f}s)")


def test_selector_oracle_equivalence():
    with criterion("selector oracle equivalence (30 random matrices)", 30):
        rng = np.random.default_rng(100)
        for trial in range(30):
            n = int(rng.integers(10, 41)) // 2 * 2
            m = int(rng.integers(4, 13))
            k = int(rng.integers(1, 5))
            k = min(k, m)
            labels = np.array([0, 1] * (n // 2))
            values = rng.standard_normal((n, m))
            values[:, int(rng.integers(m))] += labels * rng.uniform(0.5, 3.0)

            for objective in ("MID", "MIQ"):
                result = mrmr_select(values, labels, k, objective)
                selected = []
                for step in range(k):
                    expected = oracles.mrmr_brute_step(values, labels, selected, objective)
                    assert result.ranked_ids[step] == expected, (trial, objective, step)
                    selected.append(expected)

            result = mrms_select(values, labels, k, beta=0.5)
            selected = []
            for step in range(k):
                expected = oracles.mrms_brute_step(values, labels, selected, 0.5)
                assert result.ranked_ids[step] == expected, (trial, "mrms", step)
                selected.append(expected)


def test_relevance_and_correlation_oracles():
    with criterion("F-statistic and |Pearson| vs direct formulas (100 fixtures)", 5):
        rng = np.random.default_rng(101)
        for _ in range(100):
            n = int(rng.integers(6, 60))
            labels = rng.integers(0, 2, n)
            while min(np.sum(labels == 0), np.sum(labels == 1)) < 2:
                labels = rng.integers(0, 2, n)
            col = rng.standard_normal(n)
            other = rng.standard_normal(n)
            f_expected = oracles.anova_f(col, labels)
            assert abs(f_statistic(col, labels) - f_expected) <= 1e-9 * max(1.0, f_expected)
            cache = RelevanceCache.build(np.column_stack([col, other]), labels)
            assert abs(cache.correlations_with(0)[1] - oracles.abs_pearson(col, other)) < 1e-9


def test_dwt_reconstruction_and_energy():
    with criterion("DWT perfect reconstruction and energy conservation", 10):
        rng = np.random.default_rng(102)
        for wavelet in WAVELET_BANK:
            for n in (64, 257, 1024):
                x = rng.standard_normal(n)
                depth = min(4, dwt_max_depth(n, wavelet))
                bands = dwt_decompose(x, wavelet, depth)
                xr = dwt_reconstruct(bands, wavelet, n)
                assert np.max(np.abs(xr - x)) / np.max(np.abs(x)) < 1e-8
                energy = sum(float(b @ b) for b in bands)
                assert abs(energy - float(x @ x)) / float(x @ x) < 1e-6


def test_stft_parseval():
    with criterion("STFT per-frame Parseval", 5):
        rng = np.random.default_rng(103)
        for _ in range(10):
            n = int(rng.integers(300, 2000))
            x = rng.standard_normal(n)
            window, hop = 256, 128
            mags = stft(x, window, hop)
            w = hann_window(window)
            for frame, row in enumerate(mags):
                seg = x[frame * hop: frame * hop + window] * w
                spectral = row[0] ** 2 + row[-1] ** 2 + 2.0 * np.sum(row[1:-1] ** 2)
                time_energy = float(seg @ seg)
                assert abs(spectral / window - time_energy) / time_energy < 1e-9


def test_svm_validity():
    with criterion("SVM dual feasibility and fixture accuracy", 20):
        rng = np.random.default_rng(104)
        for trial in range(20):
            rows = rng.standard_normal((50, 4))
            labels = (rows[:, trial % 4] + 0.5 * rng.standard_normal(50) > 0).astype(int)
            if len(np.unique(labels)) < 2:
                labels[:2] = [0, 1]
            kernel = KernelSpec(kind=("linear", "rbf", "poly")[trial % 3])
            model = svm_train(rows, labels, kernel=kernel, c=float(rng.choice([0.5, 1, 5])))
            assert abs(float(model.alphas @ model.sv_labels)) < 1e-6
            assert np.all(model.alphas >= -1e-12)
            assert np.all(model.alphas <= model.sv_box + 1e-6)

        blobs = np.vstack([rng.standard_normal((20, 2)) * 0.4 + [-2, 0],
                           rng.standard_normal((20, 2)) * 0.4 + [2, 0]])
        blob_labels = np.array([0] * 20 + [1] * 20)
        model = svm_train(blobs, blob_labels, kernel=KernelSpec(kind="linear"), c=1.0)
        assert np.mean(svm_predict(model, blobs) == blob_labels) == 1.0

        xor_rows = np.array([[0, 0], [1, 1], [0, 1], [1, 0]] * 4, dtype=float)
        xor_labels = np.array([1, 1, 0, 0] * 4)
        model = svm_train(xor_rows, xor_labels, kernel=KernelSpec(kind="rbf", gamma=1.0),
                          c=10.0)
        assert np.mean(svm_predict(model, xor_rows) == xor_labels) == 1.0


def test_planted_feature_recovery_end_to_end():
    with criterion("planted spectral feature recovered end to end", 120):
        records = sine_records(n_records=200, n=512, rate=200.0, freqs=(25.0, 40.0),
                               snr_db=10.0, seed=2024)
        config = RecommendConfig(tau=0.9, metric="accuracy", p=5, seed=8,
                                 k_schedule=(5, 10, 15, 20), c=0,
                                 evaluation=FAST_EVAL)
        rec = recommend(records, config)
        roots = {rec.matrix.descriptors[i].lineage[0].split("/", 1)[0] for i in rec.fe2.ids}
        assert "stft" in roots, f"Fe2 lineage roots {roots} lack a spectral feature"
        assert rec.fe2.mean_test_metric >= 0.95

        labels = np.asarray([r.label for r in records])
        plan = make_folds(records, config.p, config.seed)
        matrix = build_feature_matrix(records, config.extraction, max_level=2)
        best_pca = -1.0
        for n_comp in (5, 10, 15):
            outcomes = pca_baseline(matrix, labels, plan, n_comp, FAST_EVAL, kernel="rbf")
            mean_acc = float(np.mean([o.test_report.accuracy for o in outcomes]))
            best_pca = max(best_pca, mean_acc)
        assert best_pca <= rec.fe2.mean_test_metric + 1e-9


def test_level_escalation_behavior():
    with criterion("level escalation (level-1-only vs level-0 fixtures)", 60):
        shaped = amplitude_shape_records(seed=7)
        config = RecommendConfig(tau=1.0, p=5, seed=7, k_schedule=(5, 10), c=0,
                                 evaluation=FAST_EVAL)
        rec = recommend(shaped, config)
        assert rec.level_reached >= 1

        energetic = sine_records(n_records=40, n=256, rate=200.0, freqs=(20.0, 20.0),
                                 amps=(1.0, 2.0), snr_db=20.0, seed=17)
        config0 = RecommendConfig(tau=0.9, p=5, seed=3, k_schedule=(5, 10), c=0,
                                  evaluation=FAST_EVAL)
        rec0 = recommend(energetic, config0)
        assert rec0.level_reached == 0


def test_exhaustive_refinement():
    with criterion("exhaustive refinement drops the planted noise feature", 30):
        rng = np.random.default_rng(19)
        n = 40
        labels = np.array([0, 1] * (n // 2))
        info = np.where(labels == 1, 1.8, 0.0) + rng.standard_normal(n)
        noise = 3.0 * rng.standard_normal(n)
        extra = rng.standard_normal((n, 2))
        values = np.column_stack([info, noise, extra])
        holders = [SignalRecord(id=f"r{i}", samples=np.arange(16.0), sample_rate_hz=1.0,
                                label=int(l)) for i, l in enumerate(labels)]
        plan = make_folds(holders, 5, 19)
        result = exhaustive_refine(
            lambda ids: evaluate_feature_set(values, labels, ids, plan, FAST_EVAL),
            (0, 1), c=5, metric="accuracy")
        assert result.chosen_ids == (0,)
        linear = EvalConfig(kernels=("linear",), c_grid=(1.0,))
        count = exhaustive_refine(
            lambda ids: evaluate_feature_set(values, labels, ids, plan, linear),
            (0, 1, 2, 3), c=4, metric="accuracy")
        assert len(count.evaluations) == 2 ** 4 - 1


def test_test_set_hygiene(monkeypatch):
    with criterion("test-set hygiene across 5 seeded trials", 60):
        records = sine_records(n_records=40, n=256, rate=200.0, freqs=(20.0, 20.0),
                               amps=(1.0, 2.0), snr_db=20.0, seed=37)
        for seed in range(5):
            config = RecommendConfig(tau=0.9, p=5, seed=seed, k_schedule=(5,), c=0,
                                     evaluation=FAST_EVAL)
            clean = recommend(records, config)
            with monkeypatch.context() as patch:
                patch.setattr(recommender, "score_test_rows", score_garbled_test_rows)
                garbled = recommend(records, config)
            assert clean.fe1.ids == garbled.fe1.ids
            assert clean.fe2.ids == garbled.fe2.ids


def test_metric_formulas():
    with criterion("confusion-matrix metric formulas", 5):
        actual = [1] * 10 + [0] * 10
        predicted = [1] * 8 + [0] * 2 + [0] * 5 + [1] * 5
        report = compute_metrics(predicted, actual, positive_class=1)
        assert round(report.sensitivity, 4) == 0.8
        assert round(report.specificity, 4) == 0.5
        assert round(report.precision, 4) == 0.6154
        assert round(report.accuracy, 4) == 0.65
        assert round(report.f_score, 4) == 0.6957
