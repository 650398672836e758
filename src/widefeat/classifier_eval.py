"""Fold-wise SVM evaluation of feature subsets, plus the PCA+SVM baseline.

For each fold rotation the classifier is fit on the train rows only; the
kernel and C are picked by the evaluation rows; the test rows contribute
nothing to any choice and are scored only when test metrics are requested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import FoldPlan, fold_roles
from .errors import ConfigError, TrainingError, known_keys
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
        if not self.kernels or any(k not in KERNEL_KINDS for k in self.kernels):
            raise ConfigError(f"kernels must be a non-empty subset of {KERNEL_KINDS}, "
                              f"got {self.kernels}")
        if not self.c_grid or any(not c > 0 for c in self.c_grid):
            raise ConfigError(f"c_grid must hold positive values, got {self.c_grid}")
        if self.class_weight_mode not in ("balanced", "none"):
            raise ConfigError(f"class_weight_mode must be 'balanced' or 'none', "
                              f"got {self.class_weight_mode!r}")
        if self.metric not in METRIC_NAMES:
            raise ConfigError(f"unknown metric {self.metric!r}; known: {METRIC_NAMES}")

    def kernel_specs(self) -> list[KernelSpec]:
        return [KernelSpec(kind=k, gamma=self.gamma, degree=self.degree, coef0=self.coef0)
                for k in self.kernels]

    @classmethod
    def from_dict(cls, raw: dict) -> "EvalConfig":
        known_keys(raw, "kernels c_grid class_weight_mode metric gamma degree coef0 "
                        "positive_class", "evaluation")
        return cls(
            kernels=tuple(raw.get("kernels", ("linear", "rbf", "poly"))),
            c_grid=tuple(float(c) for c in raw.get("c_grid", (0.1, 1.0, 10.0))),
            class_weight_mode=str(raw.get("class_weight_mode", "balanced")),
            metric=str(raw.get("metric", "accuracy")),
            gamma=raw.get("gamma"),
            degree=int(raw.get("degree", 3)),
            coef0=float(raw.get("coef0", 1.0)),
            positive_class=raw.get("positive_class"),
        )

    def to_dict(self) -> dict:
        out = {
            "kernels": list(self.kernels), "c_grid": list(self.c_grid),
            "class_weight_mode": self.class_weight_mode, "metric": self.metric,
            "degree": self.degree, "coef0": self.coef0,
        }
        if self.gamma is not None:
            out["gamma"] = self.gamma
        if self.positive_class is not None:
            out["positive_class"] = self.positive_class
        return out


@dataclass(frozen=True)
class FoldOutcome:
    fold: int
    eval_report: MetricReport | None
    test_report: MetricReport | None
    feature_ids: tuple[int, ...]
    kernel: str
    failed: bool = False

    def to_dict(self) -> dict:
        return {
            "fold": self.fold,
            "eval": self.eval_report.as_dict() if self.eval_report else None,
            "test": self.test_report.as_dict() if self.test_report else None,
            "feature_ids": list(self.feature_ids),
            "kernel": self.kernel,
            "failed": self.failed,
        }


def _positive_class(labels: np.ndarray, config: EvalConfig) -> int:
    if config.positive_class is not None:
        return config.positive_class
    return int(np.max(labels))


def _fit_best_model(x_train, y_train, x_eval, y_eval, config: EvalConfig,
                    specs: list[KernelSpec], positive: int) -> tuple[SvmModel, str, MetricReport]:
    best = None
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
    _, model, name, report = best
    return model, name, report


def evaluate_feature_set(matrix, labels, feature_ids, plan: FoldPlan, config: EvalConfig,
                         include_test: bool = True, test_row_mutator=None) -> list[FoldOutcome]:
    """Train and score an SVM on the given feature columns for every fold.

    The kernel/C pair with the best evaluation-row metric wins each fold.
    ``test_row_mutator``, when given, transforms the test-row submatrix right
    before test scoring; it exists so callers can verify that test rows never
    influence anything but the reported test metrics.  Folds whose training
    rows hold a single class are marked failed and skipped.
    """
    values = np.asarray(getattr(matrix, "values", matrix), dtype=float)
    labels = np.asarray(labels)
    feature_ids = tuple(int(i) for i in feature_ids)
    if any(not 0 <= i < values.shape[1] for i in feature_ids):
        raise ValueError(f"feature ids {feature_ids} outside matrix columns")
    positive = _positive_class(labels, config)
    specs = [spec.resolve(len(feature_ids)) for spec in config.kernel_specs()]
    sub = values[:, feature_ids]

    outcomes = []
    for fold in range(plan.p):
        train_idx, eval_idx, test_idx = fold_roles(plan, fold)
        try:
            model, kernel_name, eval_report = _fit_best_model(
                sub[train_idx], labels[train_idx], sub[eval_idx], labels[eval_idx],
                config, specs, positive)
        except TrainingError:
            outcomes.append(FoldOutcome(
                fold=fold, eval_report=None, test_report=None,
                feature_ids=feature_ids, kernel="", failed=True))
            continue
        test_report = None
        if include_test:
            test_rows = sub[test_idx]
            if test_row_mutator is not None:
                test_rows = np.asarray(test_row_mutator(test_rows), dtype=float)
            test_report = compute_metrics(
                svm_predict(model, test_rows), labels[test_idx], positive)
        outcomes.append(FoldOutcome(
            fold=fold, eval_report=eval_report, test_report=test_report,
            feature_ids=feature_ids, kernel=kernel_name))
    return outcomes


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
    fair.
    """
    values = np.asarray(getattr(matrix, "values", matrix), dtype=float)
    labels = np.asarray(labels)
    positive = _positive_class(labels, config)
    spec = KernelSpec(kind=kernel, gamma=config.gamma, degree=config.degree,
                      coef0=config.coef0).resolve(n_components)

    outcomes = []
    for fold in range(plan.p):
        train_idx, eval_idx, test_idx = fold_roles(plan, fold)
        if n_components > min(train_idx.size, values.shape[1]):
            raise ValueError(
                f"n_components={n_components} exceeds fold {fold} train size or column count")
        mean = values[train_idx].mean(axis=0)
        std = values[train_idx].std(axis=0)
        std = np.where(std > 0.0, std, 1.0)
        components, _ = fit_pca((values[train_idx] - mean) / std, n_components)

        def project(idx):
            return ((values[idx] - mean) / std) @ components.T

        try:
            model, kernel_name, eval_report = _fit_best_model(
                project(train_idx), labels[train_idx], project(eval_idx), labels[eval_idx],
                config, [spec], positive)
        except TrainingError:
            outcomes.append(FoldOutcome(
                fold=fold, eval_report=None, test_report=None,
                feature_ids=tuple(range(values.shape[1])), kernel="", failed=True))
            continue
        test_report = compute_metrics(
            svm_predict(model, project(test_idx)), labels[test_idx], positive)
        outcomes.append(FoldOutcome(
            fold=fold, eval_report=eval_report, test_report=test_report,
            feature_ids=tuple(range(values.shape[1])),
            kernel=f"pca{n_components}+{kernel_name}"))
    return outcomes
