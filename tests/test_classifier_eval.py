from dataclasses import replace

import numpy as np
import pytest

import oracles
import widefeat.classifier_eval as classifier_eval_module
import widefeat.svm as svm_module
from widefeat.classifier_eval import (EvalConfig, evaluate_feature_set, fit_pca, fold_setups,
                                      pca_baseline, score_test_rows)
from widefeat.dataset import FoldPlan, SignalRecord, fold_roles, make_folds
from widefeat.errors import ConfigError, TrainingError
from widefeat.metrics import METRIC_NAMES, compute_metrics, confusion_metrics
from widefeat.svm import svm_predict, svm_train


def records_for(labels):
    return [SignalRecord(id=f"r{i}", samples=np.arange(16.0), sample_rate_hz=1.0,
                         label=int(l)) for i, l in enumerate(labels)]


def winners(outcomes):
    """Each fold's winning kernel and C; ``FoldOutcome`` equality leaves the model out."""
    return [None if o.failed else (o.model.kernel, o.model.c) for o in outcomes]


def planted_matrix(n=50, n_features=6, gap=6.0, seed=0, period=2):
    """Label 1 on every ``period``-th row, 0 elsewhere; column 2 is shifted by ``gap``
    on the label-1 rows."""
    rng = np.random.default_rng(seed)
    labels = (np.arange(n) % period == period - 1).astype(int)
    values = rng.standard_normal((n, n_features))
    values[:, 2] = labels * gap + 0.3 * rng.standard_normal(n)
    return values, labels


def curved_matrix(n=300, seed=0, bend=0.3, margin=0.15):
    """Two uniform columns, label 1 where x0 > bend * (x1**2 - 1), with every row more
    than ``margin`` from that parabola: a linear fit gets nearly every row right, and
    rbf or poly all of them."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(-2.0, 2.0, (4 * n, 2))
    side = values[:, 0] - bend * (values[:, 1] ** 2 - 1.0)
    keep = np.flatnonzero(np.abs(side) > margin)[:n]
    return values[keep], (side[keep] > 0).astype(int)


def oracle_fixture(name):
    """(values, labels, plan, ids) on which the first perfect eval report of each fold
    comes at its first fit ("separable"), never ("noisy", whose classes overlap), or at
    a later kernel after a 99-of-100 report ("curved")."""
    if name == "curved":
        values, labels = curved_matrix()
        return values, labels, FoldPlan(p=3, assignments=np.arange(300) % 3), (0, 1)
    if name == "separable":
        (values, labels), plan_seed = planted_matrix(), 1
    else:
        (values, labels), plan_seed = planted_matrix(n=100, gap=0.5, seed=4), 4
    return values, labels, make_folds(records_for(labels), p=5, seed=plan_seed), (0, 2, 4)


def _model_fields(model):
    return {name: getattr(model, name) for name in model.__dataclass_fields__}


def assert_same_outcomes(got, want):
    """Equal failed flags and reports, and each kept model equal field by field, its
    arrays bit for bit; ``FoldOutcome`` equality alone leaves the model out."""
    assert got == want
    assert [o.failed for o in got] == [o.failed for o in want]
    for a, b in zip(got, want):
        if b.failed:
            continue
        fields_a = _model_fields(a.model)
        for name, value in _model_fields(b.model).items():
            if isinstance(value, np.ndarray):
                assert fields_a[name].tobytes() == value.tobytes(), name
            else:
                assert fields_a[name] == value, name


def recording(fn, into):
    """``fn``, appending each result to ``into``."""
    def wrapper(*args, **kwargs):
        into.append(fn(*args, **kwargs))
        return into[-1]
    return wrapper


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
    @pytest.mark.parametrize("positive", [None, 0])
    def test_every_grid_report_equals_public_prediction(self, monkeypatch, positive):
        # each fold fits its 9 models and scores them in grid order, on eval rows
        # standardized once and from confusion counts, up to and including the first
        # report of 1.0 (all 9 when none is); every report must equal the one that
        # svm_predict and compute_metrics give for the same model and rows
        models, scored, reports = [], [], []
        original = classifier_eval_module._decision

        def decision(model, rows):
            scored.append(model)
            return original(model, rows)

        monkeypatch.setattr(classifier_eval_module, "svm_train", recording(svm_train, models))
        monkeypatch.setattr(classifier_eval_module, "_decision", decision)
        monkeypatch.setattr(classifier_eval_module, "confusion_metrics",
                            recording(confusion_metrics, reports))
        values, labels = planted_matrix(n=60, gap=1.0, seed=5, period=3)
        plan = make_folds(records_for(labels), p=5, seed=4)
        config = EvalConfig(positive_class=positive)
        ids = (0, 2, 4)
        outcomes = evaluate_feature_set(values, labels, ids, plan, config)
        grid = len(config.kernels) * len(config.c_grid)
        assert len(models) == plan.p * grid == 45  # every fit runs
        assert len(scored) == len(reports)
        report_of = {id(model): report for model, report in zip(scored, reports)}
        want, per_fold = [], []
        for fold in range(plan.p):
            eval_idx = fold_roles(plan, fold)[1]
            fold_reports = []
            for model in models[fold * grid:(fold + 1) * grid]:
                want.append(model)
                report = report_of.get(id(model))
                if report is None:
                    break  # left unscored though the rule scores it: the check below fails
                predicted = svm_predict(model, values[np.ix_(eval_idx, ids)])
                assert report == compute_metrics(predicted, labels[eval_idx], model.positive_label)
                fold_reports.append(report)
                if report.accuracy == 1.0:
                    break
            assert outcomes[fold].eval_report in fold_reports
            per_fold.append(len(fold_reports))
        assert [id(m) for m in scored] == [id(m) for m in want]
        # fixture sanity: some folds stop early and one scores all 9; the models
        # disagree, and some make mistakes
        assert min(per_fold) == 1 and max(per_fold) == grid
        assert len({(r.tp, r.tn, r.fp, r.fn) for r in reports}) > 3
        assert any(r.fp + r.fn for r in reports)

    def test_separable_feature_perfect_on_all_folds(self):
        values, labels = planted_matrix()
        plan = make_folds(records_for(labels), p=5, seed=1)
        outcomes = score_test_rows(evaluate_feature_set(values, labels, (2,), plan, EvalConfig()),
                                   values, labels, plan)
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
                                   values, shuffled, plan)
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
            assert o.model.kernel.kind == "rbf"
            assert o.eval_report.accuracy == 1.0

    def test_standardization_leak_freedom(self):
        values, labels = planted_matrix(seed=6)
        plan = make_folds(records_for(labels), p=5, seed=4)
        config = EvalConfig(kernels=("linear",), c_grid=(1.0,))
        baseline = score_test_rows(evaluate_feature_set(values, labels, (0, 1, 2), plan, config),
                                   values, labels, plan)
        for fold in range(plan.p):
            mutated = values.copy()
            test_idx = plan.fold_indices(fold)
            mutated[test_idx] = 1e6  # garbage in that fold's test rows only
            redo = score_test_rows(evaluate_feature_set(mutated, labels, (0, 1, 2), plan, config),
                                   mutated, labels, plan)
            assert redo[fold].model.kernel == baseline[fold].model.kernel
            assert redo[fold].model.c == baseline[fold].model.c
            assert redo[fold].eval_report.to_dict() == baseline[fold].eval_report.to_dict()
            assert redo[fold].test_report.to_dict() != baseline[fold].test_report.to_dict()

    def test_garbled_test_rows_only_touch_test_metrics(self):
        values, labels = planted_matrix(seed=7)
        plan = make_folds(records_for(labels), p=5, seed=5)
        config = EvalConfig(kernels=("linear",), c_grid=(1.0,))
        outcomes = evaluate_feature_set(values, labels, (2,), plan, config)
        clean = score_test_rows(outcomes, values, labels, plan)
        garbled = score_test_rows(outcomes, np.full(values.shape, -50.0), labels, plan)
        for a, b in zip(clean, garbled):
            assert a.eval_report.to_dict() == b.eval_report.to_dict()
            assert a.model is b.model
            assert a.test_report.to_dict() != b.test_report.to_dict()

    def test_single_class_training_fold_marked_failed(self):
        labels = np.array([0] * 10 + [1] * 40)
        assignments = np.array([0] * 5 + [1] * 5 + list(np.arange(40) % 5))
        plan = FoldPlan(p=5, assignments=assignments)
        values = np.random.default_rng(8).standard_normal((50, 3))
        outcomes = evaluate_feature_set(values, labels, (0, 1), plan,
                                        EvalConfig(kernels=("linear",), c_grid=(1.0,)))
        # fold 0 excludes folds {0, 1}, which hold every class-0 record
        assert outcomes[0].failed
        assert sum(o.failed for o in outcomes) == 1

    @pytest.mark.parametrize("positive", [None, 0])
    def test_shared_fold_setups_give_identical_outcomes(self, positive):
        # fold 0's train rows hold one class, so it fails with or without the shared set-up
        labels = np.array([0] * 10 + [1] * 40)
        plan = FoldPlan(p=5, assignments=np.array([0] * 5 + [1] * 5 + list(np.arange(40) % 5)))
        values = np.random.default_rng(9).standard_normal((50, 5))
        values[:, 2] += 1.5 * labels
        config = EvalConfig(positive_class=positive)
        setups = fold_setups(labels, plan, config)
        assert setups.folds[0][2] is None and all(s[2] is not None for s in setups.folds[1:])
        for ids in ((2,), (0, 2), (1, 2, 4)):
            own = evaluate_feature_set(values, labels, ids, plan, config)
            shared = evaluate_feature_set(values, labels, ids, plan, config, setups=setups)
            assert [o.failed for o in shared] == [True] + [False] * 4
            assert_same_outcomes(shared, own)

    def test_setups_from_other_inputs_rejected(self):
        values, labels = planted_matrix(n=60, seed=5)
        plan = make_folds(records_for(labels), p=5, seed=1)
        config = EvalConfig(kernels=("linear",), c_grid=(1.0,))
        setups = fold_setups(labels, plan, config)
        # equal inputs held in other objects are the same inputs
        copies = evaluate_feature_set(values, labels.copy(), (2,),
                                      FoldPlan(p=5, assignments=plan.assignments.copy()),
                                      replace(config), setups=setups)
        assert_same_outcomes(copies, evaluate_feature_set(values, labels, (2,), plan, config))
        other_plans = (make_folds(records_for(labels), p=6, seed=1),
                       make_folds(records_for(labels), p=5, seed=2),
                       FoldPlan(p=6, assignments=plan.assignments))
        others = ([(1 - labels, plan, config)]
                  + [(labels, other, config) for other in other_plans]
                  + [(labels, plan, replace(config, class_weight_mode="none")),
                     (labels, plan, replace(config, positive_class=0)),
                     (labels, plan, replace(config, kernels=("rbf",)))])
        for other_labels, other_plan, other_config in others:
            with pytest.raises(ValueError, match="setups were built from other"):
                evaluate_feature_set(values, other_labels, (2,), other_plan, other_config,
                                     setups=setups)

    def test_fold_whose_fit_hits_the_iteration_cap_marked_failed(self, monkeypatch):
        # any TrainingError fails the fold, not only a single-class one: here every
        # fit needs more than two pair updates, so all four folds fail
        values, labels = planted_matrix(n=40, gap=1.0, seed=3)
        plan = FoldPlan(p=4, assignments=np.arange(40) % 4)
        config = EvalConfig(kernels=("linear",), c_grid=(1.0,))
        assert not any(o.failed for o in evaluate_feature_set(values, labels, (0, 2), plan, config))
        monkeypatch.setattr(svm_module, "_MAX_ITER", 2)
        outcomes = evaluate_feature_set(values, labels, (0, 2), plan, config)
        assert all(o.failed and o.eval_report is None for o in outcomes)

    def test_determinism(self):
        values, labels = planted_matrix(seed=9)
        plan = make_folds(records_for(labels), p=5, seed=6)
        config = EvalConfig()
        a = evaluate_feature_set(values, labels, (0, 2), plan, config)
        b = evaluate_feature_set(values, labels, (0, 2), plan, config)
        assert a == b
        assert winners(a) == winners(b)

    @pytest.mark.parametrize("ids, message", [((99,), "outside matrix columns"),
                                              ((), "must not be empty"),
                                              ((0, 0), "repeat a column")])
    def test_invalid_feature_ids(self, ids, message):
        values, labels = planted_matrix()
        plan = make_folds(records_for(labels), p=5, seed=0)
        with pytest.raises(ValueError, match=message):
            evaluate_feature_set(values, labels, ids, plan, EvalConfig())

    @pytest.mark.parametrize("case, message", [
        ("1-D values", "records x features"),
        ("fewer labels", "one label and one fold assignment"),
        ("more labels", "one label and one fold assignment"),
        ("fewer assignments", "one label and one fold assignment")])
    def test_malformed_inputs_rejected_before_any_fold(self, monkeypatch, case, message):
        values, labels = planted_matrix()
        plan = make_folds(records_for(labels), p=5, seed=0)
        if case == "1-D values":
            values = values[:, 2]
        elif case == "fewer labels":
            labels = labels[:-1]
        elif case == "more labels":
            labels = np.append(labels, 1)
        else:
            plan = FoldPlan(p=5, assignments=plan.assignments[:-1])
        fitted = []
        monkeypatch.setattr(classifier_eval_module, "_fit_fold",
                            recording(classifier_eval_module._fit_fold, fitted))
        with pytest.raises(ValueError, match=message):
            evaluate_feature_set(values, labels, (0,), plan, EvalConfig())
        assert fitted == []

    def test_non_finite_train_rows_fail_their_folds(self):
        values, labels = planted_matrix()
        plan = make_folds(records_for(labels), p=5, seed=0)
        row = plan.fold_indices(0)[0]
        values[row, 2] = np.nan
        with np.errstate(all="ignore"):  # the folds that score the row do so on NaN
            outcomes = evaluate_feature_set(values, labels, (0, 2), plan,
                                            EvalConfig(kernels=("linear",), c_grid=(1.0,)))
        trains_on_it = [row in fold_roles(plan, fold)[0] for fold in range(plan.p)]
        assert 0 < sum(trains_on_it) < plan.p  # fixture sanity: some folds do, some do not
        assert [o.failed for o in outcomes] == trains_on_it

    def test_outcome_does_not_depend_on_id_order(self):
        values, labels = planted_matrix(gap=1.5, seed=5)
        plan = make_folds(records_for(labels), p=5, seed=4)
        config = EvalConfig()
        ascending = evaluate_feature_set(values, labels, (0, 2, 4), plan, config)
        assert all(o.feature_ids == (0, 2, 4) for o in ascending)
        for ids in ((4, 0, 2), (2, 4, 0)):
            permuted = evaluate_feature_set(values, labels, ids, plan, config)
            assert permuted == ascending  # equal eval reports and ascending feature_ids
            assert winners(permuted) == winners(ascending)
            for a, b in zip(ascending, permuted):
                assert a.model.alphas.tobytes() == b.model.alphas.tobytes()
                assert a.model.bias == b.model.bias
            assert (score_test_rows(permuted, values, labels, plan)
                    == score_test_rows(ascending, values, labels, plan))

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
            assert winners(redo)[fold] == winners(clean)[fold]


class TestStopScoringAtPerfect:
    """A fold stops scoring its fits once one scores 1.0 on the eval rows, yet still
    makes every fit; its outcomes must equal, bit for bit, those of
    ``oracles.fit_fold_reference``, which scores all of them."""

    @staticmethod
    def run(monkeypatch, fit_fold, evaluate):
        """``evaluate()`` with ``fit_fold`` as the fold loop, plus its fits and reports."""
        fits, reports = [], []
        with monkeypatch.context() as m:
            m.setattr(classifier_eval_module, "_fit_fold", fit_fold)
            m.setattr(classifier_eval_module, "svm_train", recording(svm_train, fits))
            m.setattr(classifier_eval_module, "confusion_metrics",
                      recording(confusion_metrics, reports))
            return evaluate(), fits, reports

    def against_reference(self, monkeypatch, evaluate):
        got, fits, reports = self.run(monkeypatch, classifier_eval_module._fit_fold, evaluate)
        want, ref_fits, ref_reports = self.run(monkeypatch, oracles.fit_fold_reference, evaluate)
        assert_same_outcomes(got, want)
        assert len(fits) == len(ref_fits) == len(ref_reports)
        return reports, ref_reports

    @pytest.mark.parametrize("positive", [None, 0])
    @pytest.mark.parametrize("metric", METRIC_NAMES)
    @pytest.mark.parametrize("name", ["separable", "noisy", "curved"])
    def test_outcomes_equal_the_reference(self, monkeypatch, name, metric, positive):
        values, labels, plan, ids = oracle_fixture(name)
        config = EvalConfig(metric=metric, positive_class=positive)
        grid = len(config.kernels) * len(config.c_grid)
        reports, ref_reports = self.against_reference(
            monkeypatch, lambda: evaluate_feature_set(values, labels, ids, plan, config))
        assert len(ref_reports) == plan.p * grid
        if metric != "accuracy":
            return
        # fixture sanity: where each fold first scores 1.0
        firsts = [next((k for k, r in enumerate(ref_reports[f * grid:(f + 1) * grid])
                        if r.accuracy == 1.0), None) for f in range(plan.p)]
        if name == "separable":
            assert firsts == [0] * plan.p and len(reports) == plan.p
        elif name == "noisy":
            assert firsts == [None] * plan.p and len(reports) == plan.p * grid == 45
        else:
            assert all(k >= len(config.c_grid) for k in firsts)  # not a linear fit
            assert len(reports) == sum(firsts) + plan.p < len(ref_reports)
            assert any(r.accuracy == 0.99 for r in reports)

    def test_pca_baseline_equals_the_reference(self, monkeypatch):
        values, labels, plan, _ = oracle_fixture("separable")
        reports, ref_reports = self.against_reference(
            monkeypatch, lambda: pca_baseline(values, labels, plan, 3, EvalConfig()))
        assert len(ref_reports) == plan.p * 3 > len(reports)

    def test_a_fit_after_the_perfect_one_still_fails_its_fold(self, monkeypatch):
        values, labels, plan, ids = oracle_fixture("separable")
        fits = []

        def train(*args, **kwargs):
            fits.append(1)
            if len(fits) == 9:  # fold 0's last fit; its first scored 1.0
                raise TrainingError("planted")
            return svm_train(*args, **kwargs)

        monkeypatch.setattr(classifier_eval_module, "svm_train", train)
        outcomes = evaluate_feature_set(values, labels, ids, plan, EvalConfig())
        assert [o.failed for o in outcomes] == [True] + [False] * 4
        assert len(fits) == 45


def pca_projection(values, plan, fold, n_components):
    """``pca_baseline``'s projection for ``fold``, rebuilt from the fold's train rows."""
    train_idx = fold_roles(plan, fold)[0]
    mean, std = values[train_idx].mean(axis=0), values[train_idx].std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    components = fit_pca((values[train_idx] - mean) / std, n_components)
    return lambda idx: ((values[idx] - mean) / std) @ components.T


class TestPositiveLabel:
    """``positive_class=0`` makes label 0 the positive class of every fold's model, and
    every eval and test report counts hits on label 0.  Test folds hold twice as many
    0s as 1s, so reports taken with the wrong positive label differ."""
    IDS = (0, 1, 2)

    def outcomes(self, values, labels, plan, positive):
        """(outcome, rows) pairs of evaluate_feature_set + score_test_rows and of
        pca_baseline, where ``rows(idx)`` gives the model inputs of the records idx."""
        config = EvalConfig(kernels=("linear", "rbf"), c_grid=(1.0, 10.0),
                            positive_class=positive)
        selected = score_test_rows(evaluate_feature_set(values, labels, self.IDS, plan, config),
                                   values, labels, plan)
        n_components = values.shape[1]
        pca = pca_baseline(values, labels, plan, n_components, config)
        return ([(o, lambda idx: values[np.ix_(idx, self.IDS)]) for o in selected]
                + [(o, pca_projection(values, plan, o.fold, n_components)) for o in pca])

    def test_reports_count_label_zero_as_positive(self):
        values, labels = planted_matrix(n=60, gap=1.5, seed=3, period=3)
        plan = make_folds(records_for(labels), p=5, seed=2)
        for o, rows in self.outcomes(values, labels, plan, positive=0):
            assert (o.model.positive_label, o.model.negative_label) == (0, 1)
            _, eval_idx, test_idx = fold_roles(plan, o.fold)
            for report, idx in ((o.eval_report, eval_idx), (o.test_report, test_idx)):
                assert report == compute_metrics(svm_predict(o.model, rows(idx)), labels[idx], 0)

    def test_separable_rows_swap_the_confusion_counts(self):
        values, labels = planted_matrix(n=60, seed=4, period=3)
        plan = make_folds(records_for(labels), p=5, seed=3)
        zero = self.outcomes(values, labels, plan, positive=0)
        one = self.outcomes(values, labels, plan, positive=1)
        for (a, _), (b, _) in zip(zero, one):
            for ra, rb in ((a.eval_report, b.eval_report), (a.test_report, b.test_report)):
                assert ra.tp != ra.tn
                assert (ra.tp, ra.tn, ra.fp, ra.fn) == (rb.tn, rb.tp, rb.fn, rb.fp)


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
                               values, labels, plan)
        acc1 = np.mean([o.test_report.accuracy for o in pca1])
        acc_full = np.mean([o.test_report.accuracy for o in full])
        assert acc1 == pytest.approx(acc_full)

    def test_projection_back_projection_identity(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((40, 6))
        std = (x - x.mean(axis=0)) / x.std(axis=0)
        components = fit_pca(std, 6)
        recovered = (std @ components.T) @ components
        assert np.max(np.abs(recovered - std)) < 1e-8

    def test_components_orthonormal(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((30, 5))
        components = fit_pca(x - x.mean(axis=0), 5)
        np.testing.assert_allclose(components @ components.T, np.eye(5), atol=1e-8)

    def test_n_components_validation(self):
        values, labels = planted_matrix()
        plan = make_folds(records_for(labels), p=5, seed=8)
        with pytest.raises(ValueError, match="n_components"):
            pca_baseline(values, labels, plan, 50, EvalConfig())

    def test_unknown_kernel_rejected_even_when_every_fold_fails(self):
        labels = np.array([0] * 10 + [1] * 20)
        # with p=3 the train rows are one fold, and every fold holds one class
        plan = FoldPlan(p=3, assignments=np.arange(30) // 10)
        values = np.random.default_rng(8).standard_normal((30, 3))
        assert all(o.failed for o in pca_baseline(values, labels, plan, 2, EvalConfig()))
        with pytest.raises(ValueError, match="unknown kernel"):
            pca_baseline(values, labels, plan, 2, EvalConfig(), kernel="sigmoid")

    def test_sign_convention(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((20, 4))
        components = fit_pca(x - x.mean(axis=0), 4)
        for row in components:
            assert row[int(np.argmax(np.abs(row)))] > 0
