"""Soft-margin binary SVM trained by SMO with second-order working sets.

Training standardizes features on the given rows, then optimizes the dual
two variables at a time (Platt's SMO) while keeping the dual gradient.  Each
step takes the maximal violator i and, among the rows that can move against
it, the partner j whose analytic two-variable step lowers the objective most
(the second-order rule WSS2 of Fan, Chen & Lin, JMLR 2005).  Training stops
when the KKT gap -- the largest violation by any pair -- falls below ``_TOL`` = 1e-3.
Per-sample box constraints carry the class weights, so imbalanced data can
penalize minority errors harder.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import TrainingError

KERNEL_KINDS = ("linear", "rbf", "poly")
_TOL = 1e-3  # KKT gap at which training stops
_TAU = 1e-12  # floor on the pair curvature, for non-positive-definite kernels
_MAX_ITER = 1_000_000  # pair updates before training gives up


@dataclass(frozen=True)
class KernelSpec:
    kind: str = "rbf"
    gamma: float | None = None  # None resolves to 1 / n_features at fit time
    degree: int = 3
    coef0: float = 1.0

    def resolve(self, n_features: int) -> "KernelSpec":
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel {self.kind!r}")
        if self.gamma is None and self.kind in ("rbf", "poly"):
            return replace(self, gamma=1.0 / n_features)
        return self


def kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if spec.kind == "linear":
        return a @ b.T
    if spec.kind == "rbf":
        sq = (np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
              - 2.0 * (a @ b.T))
        return np.exp(-spec.gamma * np.maximum(sq, 0.0))
    if spec.kind == "poly":
        return (spec.gamma * (a @ b.T) + spec.coef0) ** spec.degree
    raise ValueError(f"unknown kernel {spec.kind!r}")


@dataclass(frozen=True)
class SvmModel:
    kernel: KernelSpec
    c: float
    class_weights: dict[int, float]
    support_vectors: np.ndarray  # standardized rows
    alphas: np.ndarray
    sv_labels: np.ndarray  # +/-1
    sv_box: np.ndarray  # per-support-vector upper bound w_i * C
    bias: float
    feature_mean: np.ndarray
    feature_std: np.ndarray
    negative_label: int
    positive_label: int

    @property
    def n_features(self) -> int:
        return self.feature_mean.size

    def standardize(self, rows: np.ndarray) -> np.ndarray:
        return (rows - self.feature_mean) / self.feature_std


def _resolve_class_weights(labels: np.ndarray, mode: str) -> dict[int, float]:
    classes, counts = np.unique(labels, return_counts=True)
    if mode == "none":
        return {int(c): 1.0 for c in classes}
    if mode == "balanced":
        n = labels.size
        return {int(c): n / (classes.size * cnt) for c, cnt in zip(classes, counts)}
    raise ValueError(f"unsupported class weight mode {mode!r}")


def svm_train(rows, labels, kernel: KernelSpec = KernelSpec(), c: float = 1.0,
              class_weights: str = "balanced", positive_label: int | None = None) -> SvmModel:
    """Fit a binary SVM on ``rows`` (records x features).

    Standardization statistics come from these rows only; zero-variance
    columns standardize to constant 0.  Training stops once the KKT gap is
    below ``_TOL`` = 1e-3.  Raises :class:`TrainingError` when a row is not
    finite, when only one class is present, or when the gap is still open
    after ``_MAX_ITER`` pair updates.
    """
    x = np.asarray(rows, dtype=float)
    labels = np.asarray(labels)
    if x.ndim != 2 or x.shape[0] != labels.size:
        raise ValueError("rows must be 2-D with one label per row")
    if not np.isfinite(x).all():
        raise TrainingError("training rows hold NaN or Inf")
    classes = np.unique(labels)
    if classes.size != 2:
        raise TrainingError(f"need exactly two classes in training rows, got {classes.tolist()}")
    if c <= 0:
        raise ValueError(f"C must be positive, got {c}")
    if positive_label is None:
        positive_label = int(classes.max())
    elif positive_label not in classes:
        raise ValueError(f"positive label {positive_label} not present in training labels")
    negative_label = int(classes[classes != positive_label][0])

    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    xs = (x - mean) / std

    weights = _resolve_class_weights(labels, class_weights)
    y = np.where(labels == positive_label, 1.0, -1.0)
    box = np.asarray([c * weights[int(l)] for l in labels])

    spec = kernel.resolve(xs.shape[1])
    gram = kernel_matrix(spec, xs, xs)
    diag = np.diag(gram)
    pos = y > 0.0
    alphas = np.zeros(xs.shape[0])
    yg = y.copy()  # -y * gradient of the dual objective; the gradient starts at -1
    for _ in range(_MAX_ITER):
        up = np.where(pos, alphas < box, alphas > 0.0)
        low = np.where(pos, alphas > 0.0, alphas < box)
        i = int(np.argmax(np.where(up, yg, -np.inf)))
        gap = yg[i] - yg
        if gap[low].max() < _TOL:
            break
        curv = np.maximum(diag[i] + diag - 2.0 * gram[i], _TAU)
        j = int(np.argmax(np.where(low & (gap > 0.0), gap * gap / curv, -np.inf)))
        # alpha_i moves by y_i * step and alpha_j by -y_j * step, so sum(alpha * y) stays put
        room_i = box[i] - alphas[i] if pos[i] else alphas[i]
        room_j = alphas[j] if pos[j] else box[j] - alphas[j]
        step = min(gap[j] / curv[j], room_i, room_j)
        for t, sign, room in ((i, y[i], room_i), (j, -y[j], room_j)):
            end = box[t] if sign > 0.0 else 0.0
            alphas[t] = end if step == room else min(max(alphas[t] + sign * step, 0.0), box[t])
        yg -= step * (gram[i] - gram[j])
    else:
        raise TrainingError(f"SMO did not reach KKT gap {_TOL:g} in {_MAX_ITER} iterations")
    # any bias between max(yg over up) and min(yg over low) meets the KKT
    # conditions; the midpoint keeps every violation under _TOL / 2
    bias = 0.5 * (yg[i] + yg[low].min())

    keep = alphas > 1e-10
    return SvmModel(
        kernel=spec, c=c, class_weights=weights,
        support_vectors=xs[keep], alphas=alphas[keep], sv_labels=y[keep],
        sv_box=box[keep], bias=float(bias),
        feature_mean=mean, feature_std=std,
        negative_label=negative_label, positive_label=positive_label)


def decision_function(model: SvmModel, rows) -> np.ndarray:
    x = np.asarray(rows, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise ValueError(
            f"expected rows with {model.n_features} features, got shape {x.shape}")
    if x.shape[0] == 0:
        return np.zeros(0)
    xs = model.standardize(x)
    if model.support_vectors.shape[0] == 0:
        return np.full(x.shape[0], model.bias)
    k = kernel_matrix(model.kernel, xs, model.support_vectors)
    return k @ (model.alphas * model.sv_labels) + model.bias


def svm_predict(model: SvmModel, rows) -> np.ndarray:
    """Predicted class labels (the model's original label values)."""
    scores = decision_function(model, rows)
    return np.where(scores >= 0.0, model.positive_label, model.negative_label)
