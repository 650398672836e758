"""Fold-wise SVM evaluation of feature subsets, plus the PCA+SVM baseline.

For each fold rotation the classifier is fit on the train rows only; the
kernel and C are picked by the evaluation rows; the test rows contribute
nothing to any choice and are scored only when test metrics are requested.
A fold standardizes its eval rows once and scores its fits on them by confusion counts,
in grid order until one scores ``METRIC_MAX``: no later fit can beat it, yet every fit runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .dataset import FoldPlan, fold_roles
from .errors import (ConfigError, TrainingError, flat_dict, is_int, known_keys, list_setting,
                     real_setting, require_int, store)
from .metrics import METRIC_MAX, METRIC_NAMES, MetricReport, compute_metrics, confusion_metrics
from .svm import (KERNEL_KINDS, KernelSpec, SvmModel, _decision, fold_problem, svm_predict,
                  svm_train, train_labels)


@dataclass(frozen=True)
class EvalConfig:
    kernels: tuple[str, ...] = ("linear", "rbf", "poly")
    c_grid: tuple[float, ...] = (0.1, 1.0, 10.0)
    class_weight_mode: str = "balanced"
    metric: str = "accuracy"
    gamma: float | None = None
    degree: int = 3
    coef0: float = 1.0
    positive_class: int | None = None  # None means each fold's larger train label

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
    """One fold's winning model with its eval-row report, plus a test-row report once
    :func:`score_test_rows` adds one; a fold whose training failed keeps no model."""
    fold: int
    eval_report: MetricReport | None
    test_report: MetricReport | None
    feature_ids: tuple[int, ...]
    model: SvmModel | None = field(default=None, repr=False, compare=False)

    @property
    def failed(self) -> bool:
        return self.model is None


def fold_setups(labels, plan: FoldPlan, config: EvalConfig) -> list[tuple]:
    """What each fold's evaluations share whatever their columns, from the plan, labels
    and config alone: the train and eval indices, the train rows' label set-up (None
    when they hold one class, so that every evaluation fails) and the eval positive mask."""
    labels = np.asarray(labels)
    setups = []
    for fold in range(plan.p):
        train_idx, eval_idx, _ = fold_roles(plan, fold)
        try:
            train = train_labels(labels[train_idx], config.class_weight_mode, config.positive_class)
        except TrainingError:
            train = None
        setups.append((train_idx, eval_idx, train,
                       None if train is None else labels[eval_idx] == train.positive_label))
    return setups


def _fit_fold(fold: int, setup: tuple, rows, config: EvalConfig,
              specs: list[KernelSpec], feature_ids: tuple[int, ...]) -> FoldOutcome:
    """Fit every kernel/C pair on the fold's train rows; the best evaluation-row
    metric wins.  ``rows(idx)`` gives the model inputs of the records ``idx``.
    Once per fold: the shared :class:`~widefeat.svm.FoldProblem`, the eval rows
    standardized by its mean and std, and each kernel's spec, Gram and curvature
    table.  Per fit: the SMO solve (or a smaller C's box-free one), then, until a
    fit of the fold scores ``METRIC_MAX``, the decision values on those rows and
    the confusion counts.  No later fit can score higher, and a winner is only
    replaced by a strictly higher score, so skipping the rest keeps the same
    winner; every fit still runs, so any fit's :class:`TrainingError` fails the fold."""
    train_idx, eval_idx, train, actual = setup  # from fold_setups
    best = (-np.inf, None, None)  # (score, model, report)
    try:
        if train is None:
            raise TrainingError("need exactly two classes in training rows")
        x_train = rows(train_idx)
        problem = fold_problem(x_train, train)
        xs_eval = (rows(eval_idx) - problem.mean) / problem.std
        for spec in (s.resolve(problem.xs.shape[1]) for s in specs):
            for c in config.c_grid:
                model = svm_train(x_train, train.values, kernel=spec, c=c,
                                  class_weights=config.class_weight_mode, problem=problem)
                if best[0] >= METRIC_MAX:
                    continue
                report = confusion_metrics(_decision(model, xs_eval) >= 0.0, actual)
                score = report.value(config.metric)
                if score > best[0]:
                    best = (score, model, report)
    except TrainingError:
        best = (None, None, None)
    return FoldOutcome(fold=fold, eval_report=best[2], test_report=None,
                       feature_ids=feature_ids, model=best[1])


def _with_test_report(outcome: FoldOutcome, test_rows, test_labels) -> FoldOutcome:
    if outcome.failed:
        return outcome
    model = outcome.model
    report = compute_metrics(svm_predict(model, test_rows), test_labels, model.positive_label)
    return replace(outcome, test_report=report)


def evaluate_feature_set(matrix, labels, feature_ids, plan: FoldPlan, config: EvalConfig, *,
                         setups: list[tuple] | None = None) -> list[FoldOutcome]:
    """Train and score an SVM on the given feature columns for every fold.

    The columns are fit in ascending id order, so the outcomes do not depend
    on the order the distinct ids are given in.  The kernel/C pair with the
    best evaluation-row metric wins each fold, and its model is kept on the
    outcome.  Test rows are never read: the outcomes carry no test report
    until :func:`score_test_rows` adds one.  A fold whose training raises
    :class:`TrainingError` is marked failed: its training rows hold one class or a
    non-finite value, or a fit is short of the KKT gap after ``svm._MAX_ITER`` updates.
    ``setups``, from :func:`fold_setups` on the same labels, plan and config, lets
    a run's feature sets share each fold's label set-up; without it the call builds its own.
    """
    values = np.asarray(getattr(matrix, "values", matrix), dtype=float)
    labels = np.asarray(labels)
    feature_ids = tuple(sorted(int(i) for i in feature_ids))
    if not feature_ids:
        raise ValueError("feature ids must not be empty")
    if len(set(feature_ids)) < len(feature_ids):
        raise ValueError(f"feature ids {feature_ids} repeat a column")
    if any(not 0 <= i < values.shape[1] for i in feature_ids):
        raise ValueError(f"feature ids {feature_ids} outside matrix columns")
    setups = fold_setups(labels, plan, config) if setups is None else setups
    return [_fit_fold(fold, setup, lambda idx: values[np.ix_(idx, feature_ids)],
                      config, config.kernel_specs(), feature_ids)
            for fold, setup in enumerate(setups)]


def score_test_rows(outcomes, matrix, labels, plan: FoldPlan) -> list[FoldOutcome]:
    """Return ``outcomes`` with each fold's test rows scored by its kept model."""
    values = np.asarray(getattr(matrix, "values", matrix), dtype=float)
    labels = np.asarray(labels)
    scored = []
    for outcome in outcomes:
        test_idx = fold_roles(plan, outcome.fold)[2]
        test_rows = values[np.ix_(test_idx, outcome.feature_ids)]
        scored.append(_with_test_report(outcome, test_rows, labels[test_idx]))
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
    if kernel not in KERNEL_KINDS:
        raise ValueError(f"unknown kernel {kernel!r}")
    spec = KernelSpec(kind=kernel, gamma=config.gamma, degree=config.degree,
                      coef0=config.coef0)
    all_ids = tuple(range(values.shape[1]))

    outcomes = []
    for fold, setup in enumerate(fold_setups(labels, plan, config)):
        train_idx, _, test_idx = fold_roles(plan, fold)
        mean = values[train_idx].mean(axis=0)
        std = values[train_idx].std(axis=0)
        std = np.where(std > 0.0, std, 1.0)
        components, _ = fit_pca((values[train_idx] - mean) / std, n_components)

        def project(idx):
            return ((values[idx] - mean) / std) @ components.T

        outcome = _fit_fold(fold, setup, project, config, [spec], all_ids)
        outcomes.append(_with_test_report(outcome, project(test_idx), labels[test_idx]))
    return outcomes
