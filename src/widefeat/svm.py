"""Soft-margin binary SVM trained by SMO with second-order working sets.

Training standardizes features on the given rows, then optimizes the dual
two variables at a time (Platt's SMO) while keeping the dual gradient.  Each
step takes the maximal violator i and, among the rows that can move against
it, the partner j whose analytic two-variable step lowers the objective most
(the second-order rule WSS2 of Fan, Chen & Lin, JMLR 2005).  Training stops
when the KKT gap -- the largest violation by any pair -- falls below ``_TOL`` = 1e-3.
Per-sample box constraints carry the class weights, so imbalanced data can
penalize minority errors harder.

The solver's label set-up depends only on the training labels (:class:`TrainLabels`, once
per fold); the checks, the standardization and the linear Gram ``Xs Xsᵀ`` on the rows
too: a :class:`FoldProblem` holds them once per fold and feature set for the whole
kernel/C grid, and its :meth:`FoldProblem.fit` builds only a fit's box, alphas and
gradient.  The rbf and poly Grams are derived from the linear one with :func:`kernel_matrix`'s
expressions, bit for bit.  Beside each kernel's Gram it keeps the table of WSS2's pair
curvatures, which depend on the kernel alone: its C values share it, and a step reads one row.

A solve in which no alpha ever reaches its box answers every larger C of its kernel.
The box enters SMO only through the box-side rooms of a step, the clip to the box and
the below-the-box masks, and the start state does not depend on C; while every alpha
stays below the box, a larger one changes none of them, so the solve makes the same
float operations in the same order, with the same alphas, bias and update count.

A problem of at most ``_LIST_ROWS`` = 32 training rows solves with :func:`_smo_list`,
which runs the same steps on Python lists and floats; larger ones with :func:`_smo`, on
numpy arrays.  Both make the same float operations in the same order and break ties to
the first row, so they make the same fits bit for bit.  At a few dozen rows numpy's cost
per call outweighs its speed per row.  On the default 3x3 grid, 40 fresh problems per
row count with 5 columns, separable and noisy (2-core Xeon, Python 3.11, numpy 2.4), the
list loop took 0.45-0.50 of the array loop's time at 8-12 rows, 0.70 at 28, 0.74-0.77
at 32, 0.86-0.91 at 36-40 and 1.01 at 48: the threshold sits where it still clearly wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import TrainingError

KERNEL_KINDS = ("linear", "rbf", "poly")
_TOL = 1e-3  # KKT gap at which training stops
_TAU = 1e-12  # floor on the pair curvature, for non-positive-definite kernels
_MAX_ITER = 1_000_000  # pair updates before training gives up
_LIST_ROWS = 32  # problems of at most this many rows solve on Python lists (module docstring)


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


def _dot_kernel(spec: KernelSpec, dot: np.ndarray, sq_a: np.ndarray | None = None,
                sq_b: np.ndarray | None = None) -> np.ndarray:
    """``spec``'s kernel between rows a and b from their dot products ``dot``;
    rbf also needs their squared norms ``sq_a`` and ``sq_b``."""
    if spec.kind == "linear":
        return dot
    if spec.kind == "rbf":
        sq = sq_a[:, None] + sq_b[None, :] - 2.0 * dot
        return np.exp(-spec.gamma * np.maximum(sq, 0.0))
    if spec.kind == "poly":
        return (spec.gamma * dot + spec.coef0) ** spec.degree
    raise ValueError(f"unknown kernel {spec.kind!r}")


def _sq_norms(rows: np.ndarray) -> np.ndarray:
    return np.sum(rows * rows, axis=1)


def kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if spec.kind == "rbf":
        return _dot_kernel(spec, a @ b.T, _sq_norms(a), _sq_norms(b))
    return _dot_kernel(spec, a @ b.T)


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
    iterations: int  # SMO pair updates the fit took

    @property
    def n_features(self) -> int:
        return self.feature_mean.size

    def standardize(self, rows: np.ndarray) -> np.ndarray:
        return (rows - self.feature_mean) / self.feature_std


@dataclass(frozen=True, eq=False)
class TrainLabels:
    """A fit's label set-up, from the training labels and settings alone: :func:`train_labels`."""
    values: np.ndarray  # the training labels
    class_weight_mode: str
    class_weights: dict[int, float]
    negative_label: int
    positive_label: int
    y: np.ndarray  # +/-1
    unit_box: np.ndarray  # per-row class weight; a fit's box is C * unit_box
    # the solvers' label set-up: unit_box, y and y > 0 as lists, and which rows can move
    # up and down at the start, as _smo's additive masks and as _smo_list's flags
    unit_box_list: list[float]
    signs: list[float]
    is_pos: list[bool]  # also _smo_list's initial up flags
    is_neg: list[bool]  # and its initial low flags
    up: np.ndarray
    low: np.ndarray


@dataclass(frozen=True, eq=False)
class FoldProblem:
    """What every fit on one set of training rows shares, whatever its kernel and C.

    Build it with :func:`fold_problem`, and solve its dual with :meth:`fit`.  ``linear``
    is the Gram ``xs @ xs.T`` of the standardized rows; the rbf and poly Grams derive from it.
    A problem of at most ``_LIST_ROWS`` rows keeps each kernel's Gram and curvature table
    as lists of rows, and its fits solve on lists (module docstring).
    """
    rows: np.ndarray  # the training rows, as floats
    labels: TrainLabels
    mean: np.ndarray
    std: np.ndarray
    xs: np.ndarray  # standardized rows
    linear: np.ndarray
    sq_norms: np.ndarray
    _last: list = field(default_factory=list, init=False, repr=False)  # [spec, Gram, table]
    _free: list = field(default_factory=list, init=False, repr=False)  # box-free solve

    def fit(self, spec: KernelSpec, c: float) -> tuple[np.ndarray, float, int]:
        """Solve the dual for kernel ``spec`` and box ``c * unit_box``; return the
        alphas of every training row, the bias and the number of pair updates.  The kernel's
        last solve in which no alpha reached its box answers any ``c`` at least as large, bit
        for bit (module docstring); those fits share its alphas, so they are read-only.
        Raises ``ValueError`` when ``c`` is not positive, and :class:`TrainingError`
        when the KKT gap is still open after ``_MAX_ITER`` pair updates."""
        if c <= 0:
            raise ValueError(f"C must be positive, got {c}")
        spec, gram, table = self._kernel(spec)
        if self._free and self._free[0] == spec and c >= self._free[1]:
            return self._free[2]
        solve = _smo_list if self._small else _smo
        box = [c * w for w in self.labels.unit_box_list]
        alphas, bias, iterations, at_box = solve(self, gram, table, box)
        if not at_box:
            alphas.flags.writeable = False
            self._free[:] = [spec, c, (alphas, bias, iterations)]
        return alphas, bias, iterations

    def _kernel(self, spec: KernelSpec) -> list:
        """``[spec resolved, K, T]``: ``spec``'s Gram ``K`` over the standardized rows, bit
        for bit what ``kernel_matrix(spec, xs, xs)`` gives, and its curvature table
        ``T[i, t] = max((d_i + d_t) - K[i, t] * 2, _TAU)`` for the diagonal ``d`` of ``K``:
        the curvature of an SMO step on pair (i, t), floored for kernels that are not
        positive definite.  Beside the linear Gram only the last kernel's Gram and table
        are kept, at most three n x n arrays; a table's build makes one n x n temporary.
        A problem of at most ``_LIST_ROWS`` rows keeps ``K`` and ``T`` as lists of rows,
        which :func:`_smo_list` reads."""
        spec = spec.resolve(self.xs.shape[1])
        if not self._last or self._last[0] != spec:
            self._last.clear()  # the last kernel's arrays go before the next one's are built
            gram = (self.linear if spec.kind == "linear"
                    else _dot_kernel(spec, self.linear, self.sq_norms, self.sq_norms))
            table = np.add.outer(gram.diagonal(), gram.diagonal())
            table -= gram * 2.0
            np.maximum(table, _TAU, out=table)
            if self._small:
                gram, table = gram.tolist(), table.tolist()
            self._last[:] = [spec, gram, table]
        return self._last

    @property
    def _small(self) -> bool:
        """Whether fits solve with :func:`_smo_list` rather than :func:`_smo`."""
        return self.xs.shape[0] <= _LIST_ROWS

    def built_from(self, rows: np.ndarray, labels: np.ndarray) -> bool:
        return ((rows is self.rows or np.array_equal(rows, self.rows))
                and (labels is self.labels.values or np.array_equal(labels, self.labels.values)))


def _class_weights(classes: np.ndarray, counts: np.ndarray, mode: str) -> dict[int, float]:
    if mode == "none":
        return {int(c): 1.0 for c in classes}
    if mode == "balanced":
        n = int(counts.sum())
        return {int(c): n / (classes.size * cnt) for c, cnt in zip(classes, counts)}
    raise ValueError(f"unsupported class weight mode {mode!r}")


def train_labels(labels, class_weights: str = "balanced",
                 positive_label: int | None = None) -> TrainLabels:
    """The label set-up of fits on rows labelled ``labels``.  Raises :class:`TrainingError`
    when only one class is present, and ``ValueError`` when ``positive_label`` is absent."""
    labels = np.asarray(labels)
    classes, counts = np.unique(labels, return_counts=True)
    if classes.size != 2:
        raise TrainingError(f"need exactly two classes in training rows, got {classes.tolist()}")
    if positive_label is None:
        positive_label = int(classes.max())
    elif positive_label not in classes:
        raise ValueError(f"positive label {positive_label} not present in training labels")
    negative_label = int(classes[classes != positive_label][0])
    weights = _class_weights(classes, counts, class_weights)
    is_pos = labels == positive_label
    y = np.where(is_pos, 1.0, -1.0)
    unit_box = np.where(is_pos, weights[positive_label], weights[negative_label])
    return TrainLabels(
        values=labels, class_weight_mode=class_weights, class_weights=weights,
        negative_label=negative_label, positive_label=positive_label, y=y,
        unit_box=unit_box, unit_box_list=unit_box.tolist(), signs=y.tolist(),
        is_pos=is_pos.tolist(), is_neg=(~is_pos).tolist(),
        up=np.where(is_pos, 0.0, -np.inf), low=np.where(is_pos, -np.inf, 0.0))


def fold_problem(rows, labels: TrainLabels) -> FoldProblem:
    """Check and standardize ``rows`` (records x features) for :func:`svm_train`, with
    statistics from these rows only; zero-variance columns standardize to constant 0.
    Raises :class:`TrainingError` when a row is not finite."""
    x = np.asarray(rows, dtype=float)
    if x.ndim != 2 or x.shape[0] != labels.values.size:
        raise ValueError("rows must be 2-D with one label per row")
    if not np.isfinite(x).all():
        raise TrainingError("training rows hold NaN or Inf")
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    xs = (x - mean) / std
    return FoldProblem(rows=x, labels=labels, mean=mean, std=std, xs=xs,
                       linear=xs @ xs.T, sq_norms=_sq_norms(xs))


def svm_train(rows, labels, kernel: KernelSpec = KernelSpec(), c: float = 1.0,
              class_weights: str = "balanced", positive_label: int | None = None, *,
              problem: FoldProblem | None = None) -> SvmModel:
    """Fit a binary SVM on ``rows`` (records x features).

    ``problem``, from :func:`fold_problem` on the same rows, labels and
    settings, lets a kernel/C grid share the checks, the standardization and
    the linear Gram; without it the fit builds its own.  :meth:`FoldProblem.fit`
    solves the dual to a KKT gap below ``_TOL`` = 1e-3.  Raises :class:`TrainingError`
    when a row is not finite, when only one class is present, or when the gap is
    still open after ``_MAX_ITER`` pair updates, and ``ValueError`` when ``c`` is not
    positive or ``problem`` was built from other rows, labels or settings.
    """
    if problem is None:
        problem = fold_problem(rows, train_labels(labels, class_weights, positive_label))
    elif not (problem.built_from(np.asarray(rows, dtype=float), np.asarray(labels))
              and class_weights == problem.labels.class_weight_mode
              and positive_label in (None, problem.labels.positive_label)):
        raise ValueError("problem was built from other rows, labels or settings than this fit")
    alphas, bias, iterations = problem.fit(kernel, c)
    keep = alphas > 1e-10
    train = problem.labels
    return SvmModel(
        kernel=kernel.resolve(problem.xs.shape[1]), c=c, class_weights=dict(train.class_weights),
        support_vectors=problem.xs[keep], alphas=alphas[keep], sv_labels=train.y[keep],
        sv_box=c * train.unit_box[keep], bias=bias,
        feature_mean=problem.mean, feature_std=problem.std,
        negative_label=train.negative_label, positive_label=train.positive_label,
        iterations=iterations)


def _smo(problem: FoldProblem, gram: np.ndarray, table: np.ndarray,
         box_at: list[float]) -> tuple[np.ndarray, float, int, bool]:
    """Solve the dual for ``gram``, its curvature ``table``, ``problem``'s labels and
    per-row upper bounds ``box_at``; return the alphas, the bias, the number of pair
    updates and whether an alpha reached its box on the way.  A step makes 12 passes
    over arrays; its scalars are Python floats."""
    y, pos, sign_of = problem.labels.y, problem.labels.is_pos, problem.labels.signs
    alphas = [0.0] * y.size  # only rows i and j are read or written in a step
    at_box = False
    yg = y.copy()  # -y * gradient of the dual objective; the gradient starts at -1
    # additive masks, 0 where a row can move that way and -inf where it cannot:
    # i comes from the rows whose y * alpha can go up, j from those where it can go down
    up, low = problem.labels.up.copy(), problem.labels.low.copy()
    score, row = np.empty(y.size), np.empty(y.size)
    for iterations in range(_MAX_ITER):
        np.add(yg, up, out=score)
        i = int(score.argmax())
        yg_i = yg.item(i)
        np.subtract(low, yg, out=score)
        top = score.item(score.argmax())  # -min(yg) over low, so the KKT gap is yg_i + top
        if yg_i + top < _TOL:
            break
        # WSS2: among low rows with a positive gap yg_i - yg, the largest gap^2 / curv.
        # Other rows score 0, and some low row's gap is at least _TOL, so none of them wins
        np.add(score, yg_i, out=score)
        np.maximum(score, 0.0, out=score)
        np.multiply(score, score, out=score)
        curv = table[i]
        np.divide(score, curv, out=score)
        j = int(score.argmax())
        # alpha_i moves by y_i * step and alpha_j by -y_j * step, so sum(alpha * y) stays put
        room_i = box_at[i] - alphas[i] if pos[i] else alphas[i]
        room_j = alphas[j] if pos[j] else box_at[j] - alphas[j]
        step = min((yg_i - yg.item(j)) / curv.item(j), room_i, room_j)
        for t, sign, room in ((i, sign_of[i], room_i), (j, -sign_of[j], room_j)):
            end = box_at[t] if sign > 0.0 else 0.0
            a = end if step == room else min(max(alphas[t] + sign * step, 0.0), box_at[t])
            alphas[t] = a
            at_box = at_box or a == box_at[t]
            up[t] = 0.0 if (a < box_at[t] if pos[t] else a > 0.0) else -np.inf
            low[t] = 0.0 if (a > 0.0 if pos[t] else a < box_at[t]) else -np.inf
        np.subtract(gram[i], gram[j], out=row)
        np.multiply(row, step, out=row)
        np.subtract(yg, row, out=yg)
    else:
        raise TrainingError(f"SMO did not reach KKT gap {_TOL:g} in {_MAX_ITER} iterations")
    # any bias between max(yg over up) and min(yg over low) meets the KKT
    # conditions; the midpoint keeps every violation under _TOL / 2
    return np.asarray(alphas), float(0.5 * (yg_i - top)), iterations, at_box


def _smo_list(problem: FoldProblem, gram: list[list[float]], table: list[list[float]],
              box_at: list[float]) -> tuple[np.ndarray, float, int, bool]:
    """:func:`_smo` on Python lists and floats, for the problems of at most ``_LIST_ROWS``
    rows, where numpy's cost per call outweighs its speed per row.  ``gram`` and ``table``
    are lists of rows.  It makes the same float operations in the same order, and a scan
    keeps the first row of equal ones as ``argmax`` does, so it returns the same alphas,
    bias, update count and box flag.  A step makes two passes over the rows: the j-scan,
    and one that updates the gradient and scans for the next step's i and top."""
    pos, neg, sign_of = problem.labels.is_pos, problem.labels.is_neg, problem.labels.signs
    rows = range(len(pos))
    alphas = [0.0] * len(pos)
    at_box = False
    yg = list(sign_of)
    up, low = list(pos), list(neg)  # flags, where _smo keeps 0 / -inf masks
    # yg starts at y: i is the first positive row, and min(yg) over low is -1
    i, yg_i, low_min = pos.index(True), 1.0, -1.0
    for iterations in range(_MAX_ITER):
        top = 0.0 - low_min
        if yg_i + top < _TOL:
            break
        # for a low row, yg_i - yg[t] is _smo's (low - yg) + yg_i bit for bit, up to the
        # sign of a zero.  A row whose gap is not positive scores 0 there, and some low
        # row's gap is at least _TOL, so such a row never wins
        curv = table[i]
        best, j = 0.0, 0
        for t in rows:
            if low[t]:
                gap = yg_i - yg[t]
                if gap > 0.0:
                    score = gap * gap / curv[t]
                    if score > best:
                        best, j = score, t
        room_i = box_at[i] - alphas[i] if pos[i] else alphas[i]
        room_j = alphas[j] if pos[j] else box_at[j] - alphas[j]
        step = min((yg_i - yg[j]) / curv[j], room_i, room_j)
        for t, sign, room in ((i, sign_of[i], room_i), (j, -sign_of[j], room_j)):
            end = box_at[t] if sign > 0.0 else 0.0
            a = end if step == room else min(max(alphas[t] + sign * step, 0.0), box_at[t])
            alphas[t] = a
            at_box = at_box or a == box_at[t]
            up[t] = a < box_at[t] if pos[t] else a > 0.0
            low[t] = a > 0.0 if pos[t] else a < box_at[t]
        gram_i, gram_j = gram[i], gram[j]
        i, yg_i, low_min = 0, -np.inf, np.inf
        for t in rows:
            g = yg[t] - (gram_i[t] - gram_j[t]) * step
            yg[t] = g
            if up[t] and g > yg_i:
                i, yg_i = t, g
            if low[t] and g < low_min:
                low_min = g
    else:
        raise TrainingError(f"SMO did not reach KKT gap {_TOL:g} in {_MAX_ITER} iterations")
    return np.asarray(alphas), 0.5 * (yg_i - top), iterations, at_box


def _decision(model: SvmModel, xs: np.ndarray) -> np.ndarray:
    """Decision values of rows ``xs`` already standardized by ``model``."""
    k = kernel_matrix(model.kernel, xs, model.support_vectors)
    return k @ (model.alphas * model.sv_labels) + model.bias


def decision_function(model: SvmModel, rows) -> np.ndarray:
    x = np.asarray(rows, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise ValueError(
            f"expected rows with {model.n_features} features, got shape {x.shape}")
    return _decision(model, model.standardize(x))


def svm_predict(model: SvmModel, rows) -> np.ndarray:
    """Predicted class labels (the model's original label values)."""
    scores = decision_function(model, rows)
    return np.where(scores >= 0.0, model.positive_label, model.negative_label)
