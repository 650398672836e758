"""Fold-wise SVM evaluation of feature subsets, plus the PCA+SVM baseline.

For each fold rotation the classifier is fit on the train rows only; the
kernel and C are picked by the evaluation rows; the test rows contribute
nothing to any choice and are scored only when test metrics are requested.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .dataset import FoldPlan, fold_roles
from .errors import (ConfigError, TrainingError, flat_dict, is_int, known_keys, list_setting,
                     real_setting, require_int, store)
from .metrics import METRIC_NAMES, MetricReport, compute_metrics
from .svm import KERNEL_KINDS, KernelSpec, SvmModel, svm_predict, svm_train


@dataclass(frozen=True)
class EvalConfig:
    kernels: tuple[str, ...] = ("linear", "rbf", "poly")
    c_grid: tuple[float, ...] = (0.1, 1.0, 10.0)
    class_weight_mode: str = "balanced"
    metric: str = "accuracy"
    gamma: float | None = None
    degree: int = 3
    coef0: float = 1.0
    positive_class: int | None = None  # None means the larger label value

    def __post_init__(self):
        c_grid = list_setting(self.c_grid, "evaluation.c_grid")
        store(self, kernels=list_setting(self.kernels, "evaluation.kernels"),
              c_grid=tuple(real_setting(c, "evaluation.c_grid entry") for c in c_grid),
              coef0=real_setting(self.coef0, "evaluation.coef0"),
              gamma=None if self.gamma is None else real_setting(self.gamma, "evaluation.gamma"))
        if not self.kernels or any(k not in KERNEL_KINDS for k in self.kernels):
            raise ConfigError(f"kernels must be a non-empty subset of {KERNEL_KINDS}, "
                              f"got {self.kernels}")
        if not self.c_grid or any(c <= 0 for c in self.c_grid):
            raise ConfigError(f"c_grid must hold positive values, got {self.c_grid}")
        if self.class_weight_mode not in ("balanced", "none"):
            raise ConfigError(f"class_weight_mode must be 'balanced' or 'none', "
                              f"got {self.class_weight_mode!r}")
        if self.metric not in METRIC_NAMES:
            raise ConfigError(f"unknown metric {self.metric!r}; known: {METRIC_NAMES}")
        if self.gamma is not None and self.gamma <= 0:
            raise ConfigError(f"gamma must be above 0, got {self.gamma!r}")
        store(self, degree=require_int(self.degree, "degree", 1))
        if self.positive_class is not None:
            if not is_int(self.positive_class):
                raise ConfigError(f"positive_class must be an integer label, got "
                                  f"{self.positive_class!r}")
            store(self, positive_class=int(self.positive_class))

    def kernel_specs(self) -> list[KernelSpec]:
        return [KernelSpec(kind=k, gamma=self.gamma, degree=self.degree, coef0=self.coef0)
                for k in self.kernels]

    @classmethod
    def from_dict(cls, raw: dict) -> "EvalConfig":
        return cls(**known_keys(raw, [f.name for f in fields(cls)], "evaluation"))

    def to_dict(self) -> dict:
        return flat_dict(self)


@dataclass(frozen=True)
class FoldOutcome:
    fold: int
    eval_report: MetricReport | None
    test_report: MetricReport | None
    feature_ids: tuple[int, ...]
    kernel: str
    failed: bool = False
    model: SvmModel | None = field(default=None, repr=False, compare=False)


def _positive_class(labels: np.ndarray, config: EvalConfig) -> int:
    if config.positive_class is not None:
        return config.positive_class
    return int(np.max(labels))


def _fit_fold(plan: FoldPlan, fold: int, rows, labels, config: EvalConfig,
              specs: list[KernelSpec], positive: int, feature_ids: tuple[int, ...],
              kernel_prefix: str = "") -> FoldOutcome:
    """Fit every kernel/C pair on the fold's train rows; the best evaluation-row
    metric wins.  ``rows(idx)`` gives the model inputs of the records ``idx``.
    A training set holding a single class marks the fold failed."""
    train_idx, eval_idx, _ = fold_roles(plan, fold)
    x_train, y_train = rows(train_idx), labels[train_idx]
    x_eval, y_eval = rows(eval_idx), labels[eval_idx]
    best = None
    try:
        for spec in specs:
            for c in config.c_grid:
                model = svm_train(
                    x_train, y_train, kernel=spec, c=c,
                    class_weights=config.class_weight_mode,
                    positive_label=positive)
                report = compute_metrics(svm_predict(model, x_eval), y_eval, positive)
                score = report.value(config.metric)
                if best is None or score > best[0]:
                    best = (score, model, f"{spec.kind}(C={c:g})", report)
    except TrainingError:
        return FoldOutcome(fold=fold, eval_report=None, test_report=None,
                           feature_ids=feature_ids, kernel="", failed=True)
    _, model, name, report = best
    return FoldOutcome(fold=fold, eval_report=report, test_report=None,
                       feature_ids=feature_ids, kernel=kernel_prefix + name, model=model)


def _with_test_report(outcome: FoldOutcome, test_rows, test_labels,
                      positive: int) -> FoldOutcome:
    if outcome.failed:
        return outcome
    report = compute_metrics(svm_predict(outcome.model, test_rows), test_labels, positive)
    return replace(outcome, test_report=report)


def evaluate_feature_set(matrix, labels, feature_ids, plan: FoldPlan,
                         config: EvalConfig) -> list[FoldOutcome]:
    """Train and score an SVM on the given feature columns for every fold.

    The kernel/C pair with the best evaluation-row metric wins each fold, and
    its model is kept on the outcome.  Test rows are never read: the
    outcomes carry no test report until :func:`score_test_rows` adds one.
    Folds whose training rows hold a single class are marked failed.
    """
    values = np.asarray(getattr(matrix, "values", matrix), dtype=float)
    labels = np.asarray(labels)
    feature_ids = tuple(int(i) for i in feature_ids)
    if any(not 0 <= i < values.shape[1] for i in feature_ids):
        raise ValueError(f"feature ids {feature_ids} outside matrix columns")
    positive = _positive_class(labels, config)
    specs = [spec.resolve(len(feature_ids)) for spec in config.kernel_specs()]
    return [_fit_fold(plan, fold, lambda idx: values[np.ix_(idx, feature_ids)], labels,
                      config, specs, positive, feature_ids)
            for fold in range(plan.p)]


def score_test_rows(outcomes, matrix, labels, plan: FoldPlan, config: EvalConfig,
                    test_row_mutator=None) -> list[FoldOutcome]:
    """Return ``outcomes`` with each fold's test rows scored by its kept model.

    ``test_row_mutator``, when given, transforms the test-row submatrix right
    before scoring; it exists so callers can verify that test rows never
    influence anything but the reported test metrics.
    """
    values = np.asarray(getattr(matrix, "values", matrix), dtype=float)
    labels = np.asarray(labels)
    positive = _positive_class(labels, config)
    scored = []
    for outcome in outcomes:
        test_idx = fold_roles(plan, outcome.fold)[2]
        test_rows = values[np.ix_(test_idx, outcome.feature_ids)]
        if test_row_mutator is not None:
            test_rows = np.asarray(test_row_mutator(test_rows), dtype=float)
        scored.append(_with_test_report(outcome, test_rows, labels[test_idx], positive))
    return scored


def fit_pca(train_std: np.ndarray, n_components: int) -> tuple[np.ndarray, np.ndarray]:
    """Principal directions of a standardized matrix via SVD.

    Returns (components, singular_values) with components of shape
    (n_components, n_features); each component's largest-magnitude loading is
    made positive so signs are reproducible.
    """
    if n_components > min(train_std.shape):
        raise ValueError(
            f"n_components={n_components} exceeds min(rows, columns)={min(train_std.shape)}")
    _, singular, vt = np.linalg.svd(train_std, full_matrices=False)
    components = vt[:n_components]
    for row in components:
        if row[int(np.argmax(np.abs(row)))] < 0:
            row *= -1.0
    return components, singular[:n_components]


def pca_baseline(matrix, labels, plan: FoldPlan, n_components: int,
                 config: EvalConfig, kernel: str = "rbf") -> list[FoldOutcome]:
    """Project each fold's rows onto train-fitted principal components, then SVM.

    The projection is fit on standardized train rows only; C is still chosen
    on the evaluation rows so the comparison against selected-feature runs is
    fair.  Each fold's test rows are scored once its model is chosen.
    """
    values = np.asarray(getattr(matrix, "values", matrix), dtype=float)
    labels = np.asarray(labels)
    positive = _positive_class(labels, config)
    spec = KernelSpec(kind=kernel, gamma=config.gamma, degree=config.degree,
                      coef0=config.coef0).resolve(n_components)
    all_ids = tuple(range(values.shape[1]))

    outcomes = []
    for fold in range(plan.p):
        train_idx, _, test_idx = fold_roles(plan, fold)
        mean = values[train_idx].mean(axis=0)
        std = values[train_idx].std(axis=0)
        std = np.where(std > 0.0, std, 1.0)
        components, _ = fit_pca((values[train_idx] - mean) / std, n_components)

        def project(idx):
            return ((values[idx] - mean) / std) @ components.T

        outcome = _fit_fold(plan, fold, project, labels, config, [spec], positive, all_ids,
                            kernel_prefix=f"pca{n_components}+")
        outcomes.append(_with_test_report(outcome, project(test_idx), labels[test_idx],
                                          positive))
    return outcomes
