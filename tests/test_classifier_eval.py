import numpy as np
import pytest

from widefeat.classifier_eval import (EvalConfig, evaluate_feature_set, fit_pca,
                                      pca_baseline, score_test_rows)
from widefeat.dataset import FoldPlan, SignalRecord, make_folds
from widefeat.errors import ConfigError


def records_for(labels):
    return [SignalRecord(id=f"r{i}", samples=np.arange(16.0), sample_rate_hz=1.0,
                         label=int(l)) for i, l in enumerate(labels)]


def planted_matrix(n=50, n_features=6, gap=6.0, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.array([0, 1] * (n // 2))
    values = rng.standard_normal((n, n_features))
    values[:, 2] = labels * gap + 0.3 * rng.standard_normal(n)
    return values, labels


class TestEvalConfig:
    @pytest.mark.parametrize("bad", [
        {"gamma": -5.0}, {"gamma": 0.0}, {"gamma": "abc"}, {"gamma": float("inf")},
        {"gamma": float("nan")}, {"gamma": True},
        {"degree": 0}, {"degree": 2.5}, {"degree": "3"},
        {"coef0": float("nan")}, {"coef0": float("-inf")},
        {"positive_class": "1"}, {"positive_class": 1.0},
        {"coef0": "1"}, {"coef0": True}, {"c_grid": ["1"]}, {"c_grid": [True]},
        {"c_grid": "1"}, {"kernels": "rbf"},
    ])
    def test_bad_kernel_settings_rejected(self, bad):
        with pytest.raises(ConfigError):
            EvalConfig(**bad)
        with pytest.raises(ConfigError):
            EvalConfig.from_dict(bad)

    def test_good_kernel_settings_accepted(self):
        config = EvalConfig(gamma=0.25, degree=2, coef0=-1.0, positive_class=0)
        assert EvalConfig.from_dict(config.to_dict()) == config
        assert EvalConfig(gamma=np.float64(2.0), degree=np.int64(1)).gamma == 2.0


class TestEvaluateFeatureSet:
    def test_separable_feature_perfect_on_all_folds(self):
        values, labels = planted_matrix()
        plan = make_folds(records_for(labels), p=5, seed=1)
        outcomes = score_test_rows(evaluate_feature_set(values, labels, (2,), plan, EvalConfig()),
                                   values, labels, plan, EvalConfig())
        assert len(outcomes) == 5
        for o in outcomes:
            assert not o.failed
            assert o.test_report.accuracy == 1.0

    def test_shuffled_labels_near_chance(self):
        rng = np.random.default_rng(21)
        values, labels = planted_matrix(n=100, seed=4)
        shuffled = labels.copy()
        rng.shuffle(shuffled)
        plan = make_folds(records_for(shuffled), p=5, seed=2)
        config = EvalConfig(kernels=("linear", "rbf"), c_grid=(1.0,))
        outcomes = score_test_rows(evaluate_feature_set(values, shuffled, (0, 1, 2), plan, config),
                                   values, shuffled, plan, config)
        mean_acc = np.mean([o.test_report.accuracy for o in outcomes])
        assert abs(mean_acc - 0.5) <= 0.15

    def test_rbf_chosen_when_linear_fails(self):
        rng = np.random.default_rng(5)
        n = 60
        labels = np.array([0, 1] * (n // 2))
        radius = np.where(labels == 1, rng.uniform(0.0, 0.7, n), rng.uniform(1.3, 2.0, n))
        angle = rng.uniform(0, 2 * np.pi, n)
        values = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
        plan = make_folds(records_for(labels), p=5, seed=3)
        config = EvalConfig(kernels=("linear", "rbf"), c_grid=(1.0, 10.0), gamma=1.0)
        outcomes = evaluate_feature_set(values, labels, (0, 1), plan, config)
        for o in outcomes:
            assert o.kernel.startswith("rbf")
            assert o.eval_report.accuracy == 1.0

    def test_standardization_leak_freedom(self):
        values, labels = planted_matrix(seed=6)
        plan = make_folds(records_for(labels), p=5, seed=4)
        config = EvalConfig(kernels=("linear",), c_grid=(1.0,))
        baseline = score_test_rows(evaluate_feature_set(values, labels, (0, 1, 2), plan, config),
                                   values, labels, plan, config)
        for fold in range(plan.p):
            mutated = values.copy()
            test_idx = plan.fold_indices(fold)
            mutated[test_idx] = 1e6  # garbage in that fold's test rows only
            redo = score_test_rows(evaluate_feature_set(mutated, labels, (0, 1, 2), plan, config),
                                   mutated, labels, plan, config)
            assert redo[fold].kernel == baseline[fold].kernel
            assert redo[fold].eval_report.to_dict() == baseline[fold].eval_report.to_dict()
            assert redo[fold].test_report.to_dict() != baseline[fold].test_report.to_dict()

    def test_garbled_test_rows_only_touch_test_metrics(self):
        values, labels = planted_matrix(seed=7)
        plan = make_folds(records_for(labels), p=5, seed=5)
        config = EvalConfig(kernels=("linear",), c_grid=(1.0,))
        outcomes = evaluate_feature_set(values, labels, (2,), plan, config)
        clean = score_test_rows(outcomes, values, labels, plan, config)
        garbled = score_test_rows(outcomes, np.full(values.shape, -50.0), labels, plan, config)
        for a, b in zip(clean, garbled):
            assert a.eval_report.to_dict() == b.eval_report.to_dict()
            assert a.kernel == b.kernel
            assert a.test_report.to_dict() != b.test_report.to_dict()

    def test_single_class_training_fold_marked_failed(self):
        labels = np.array([0] * 10 + [1] * 40)
        assignments = np.array([0] * 5 + [1] * 5 + list(np.arange(40) % 5))
        plan = FoldPlan(p=5, assignments=assignments, seed=0)
        values = np.random.default_rng(8).standard_normal((50, 3))
        outcomes = evaluate_feature_set(values, labels, (0, 1), plan,
                                        EvalConfig(kernels=("linear",), c_grid=(1.0,)))
        # fold 0 excludes folds {0, 1}, which hold every class-0 record
        assert outcomes[0].failed
        assert sum(o.failed for o in outcomes) == 1

    def test_determinism(self):
        values, labels = planted_matrix(seed=9)
        plan = make_folds(records_for(labels), p=5, seed=6)
        config = EvalConfig()
        a = evaluate_feature_set(values, labels, (0, 2), plan, config)
        b = evaluate_feature_set(values, labels, (0, 2), plan, config)
        assert a == b

    @pytest.mark.parametrize("ids, message", [((99,), "outside matrix columns"),
                                              ((), "must not be empty")])
    def test_invalid_feature_ids(self, ids, message):
        values, labels = planted_matrix()
        plan = make_folds(records_for(labels), p=5, seed=0)
        with pytest.raises(ValueError, match=message):
            evaluate_feature_set(values, labels, ids, plan, EvalConfig())

    @pytest.mark.parametrize("garbage", [np.nan, 1e300])
    def test_test_rows_never_read(self, garbage):
        values, labels = planted_matrix()
        plan = make_folds(records_for(labels), p=5, seed=0)
        config = EvalConfig()
        clean = evaluate_feature_set(values, labels, (0, 2), plan, config)
        assert all(o.eval_report is not None for o in clean)
        for fold in range(plan.p):
            garbled = values.copy()
            garbled[plan.fold_indices(fold)] = garbage  # this fold's test rows only
            with np.errstate(all="ignore"):  # the other folds train and tune on them
                redo = evaluate_feature_set(garbled, labels, (0, 2), plan, config)
            assert redo[fold] == clean[fold]


class TestPca:
    def test_rank_one_matrix_single_component(self):
        rng = np.random.default_rng(10)
        labels = np.array([0, 1] * 25)
        base = labels * 4.0 + 0.2 * rng.standard_normal(50)
        values = np.outer(base, rng.uniform(0.5, 2.0, 8))
        plan = make_folds(records_for(labels), p=5, seed=7)
        config = EvalConfig(kernels=("rbf",), c_grid=(1.0, 10.0))
        pca1 = pca_baseline(values, labels, plan, 1, config)
        full = score_test_rows(evaluate_feature_set(values, labels, tuple(range(8)), plan, config),
                               values, labels, plan, config)
        acc1 = np.mean([o.test_report.accuracy for o in pca1])
        acc_full = np.mean([o.test_report.accuracy for o in full])
        assert acc1 == pytest.approx(acc_full)

    def test_projection_back_projection_identity(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((40, 6))
        std = (x - x.mean(axis=0)) / x.std(axis=0)
        components, _ = fit_pca(std, 6)
        recovered = (std @ components.T) @ components
        assert np.max(np.abs(recovered - std)) < 1e-8

    def test_components_orthonormal(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((30, 5))
        components, _ = fit_pca(x - x.mean(axis=0), 5)
        np.testing.assert_allclose(components @ components.T, np.eye(5), atol=1e-8)

    def test_explained_variance_matches_gram_eigenvalues(self):
        # oracle: eigenvalues of the Gram matrix via an independent solver
        rng = np.random.default_rng(13)
        x = rng.standard_normal((25, 7))
        centered = x - x.mean(axis=0)
        _, singular = fit_pca(centered, 7)
        explained = singular ** 2
        eigen = np.sort(np.linalg.eigvalsh(centered.T @ centered))[::-1]
        assert np.all(np.diff(explained) <= 1e-12)
        np.testing.assert_allclose(explained, eigen, rtol=1e-9, atol=1e-9)

    def test_n_components_validation(self):
        values, labels = planted_matrix()
        plan = make_folds(records_for(labels), p=5, seed=8)
        with pytest.raises(ValueError, match="n_components"):
            pca_baseline(values, labels, plan, 50, EvalConfig())

    def test_sign_convention(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((20, 4))
        components, _ = fit_pca(x - x.mean(axis=0), 4)
        for row in components:
            assert row[int(np.argmax(np.abs(row)))] > 0
