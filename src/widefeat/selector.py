"""Feature selection: greedy mRMR, fuzzy-rough MRMS, and their rank union.

Both selectors are greedy forward searches.  mRMR scores relevance with the
one-way ANOVA F-statistic against the class labels and penalizes redundancy
with the mean absolute Pearson correlation to the already-selected features,
combined additively (MID) or as a quotient (MIQ).  MRMS scores relevance
with the fuzzy-rough dependency degree of a single feature and rewards the
mean pairwise dependency gain beside the already-selected features, weighted
by beta.  Ties always break toward the lower column id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, known_keys

F_SENTINEL = 1e12
_MIQ_EPS = 1e-12


def f_statistic(column, labels) -> float:
    """One-way ANOVA F of a feature column against class labels.

    Zero between-group and within-group variance gives 0; zero within-group
    variance with distinct group means gives the large sentinel 1e12.
    """
    x = np.asarray(column, dtype=float)
    y = np.asarray(labels)
    classes = np.unique(y)
    if classes.size < 2:
        raise ValueError("F-statistic needs at least two classes")
    grand = x.mean()
    ssb = 0.0
    ssw = 0.0
    for cls in classes:
        vals = x[y == cls]
        if vals.size < 2:
            raise ValueError(f"class {cls} has fewer than two members")
        ssb += vals.size * (vals.mean() - grand) ** 2
        ssw += float(np.sum((vals - vals.mean()) ** 2))
    if ssw == 0.0:
        return 0.0 if ssb == 0.0 else F_SENTINEL
    df_between = classes.size - 1
    df_within = x.size - classes.size
    return (ssb / df_between) / (ssw / df_within)


def pearson_abs(a, b) -> float:
    """Absolute Pearson correlation; 0 when either column is constant."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt(np.dot(da, da) * np.dot(db, db))
    if denom == 0.0:
        return 0.0
    return float(min(1.0, abs(np.dot(da, db)) / denom))


@dataclass
class RelevanceCache:
    """Per-feature F-statistics plus the centered columns for |Pearson| lookups."""

    f_stats: np.ndarray
    _centered: np.ndarray = field(repr=False)
    _norms: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, values: np.ndarray, labels) -> "RelevanceCache":
        f_stats = np.asarray([f_statistic(values[:, j], labels)
                              for j in range(values.shape[1])])
        centered = values - values.mean(axis=0)
        norms = np.sqrt(np.sum(centered * centered, axis=0))
        return cls(f_stats=f_stats, _centered=centered, _norms=norms)

    def correlations_with(self, j: int) -> np.ndarray:
        """|Pearson| of column ``j`` against every column, constant columns scoring 0."""
        norms = self._norms
        out = np.zeros(norms.size)
        if norms[j] > 0.0:
            ok = norms > 0.0
            out[ok] = (np.abs(self._centered[:, ok].T @ self._centered[:, j])
                       / (norms[ok] * norms[j]))
        return np.minimum(out, 1.0)


@dataclass(frozen=True)
class SelectionStep:
    """Objective breakdown for one greedy pick.

    For mRMR ``relevance`` is V, ``pairwise`` is W and ``score`` the MID/MIQ
    combination; for MRMS they are J_rel, J_sig and J.
    """

    feature_id: int
    relevance: float
    pairwise: float
    score: float


@dataclass(frozen=True)
class SelectionResult:
    method: str
    k: int
    ranked_ids: tuple[int, ...]
    step_scores: tuple[SelectionStep, ...]

    def to_dict(self, names=None) -> dict:
        out = {
            "method": self.method,
            "k": self.k,
            "ranked_ids": list(self.ranked_ids),
            "steps": [
                {"feature_id": s.feature_id, "relevance": s.relevance,
                 "pairwise": s.pairwise, "score": s.score}
                for s in self.step_scores
            ],
        }
        if names is not None:
            out["names"] = [names[i] for i in self.ranked_ids]
        return out


def _greedy_argmax(scores: np.ndarray, available: np.ndarray) -> int:
    # lowest id wins ties because argmax scans in index order
    masked = np.where(available, scores, -np.inf)
    return int(np.argmax(masked))


def mrmr_select(values, labels, k: int, objective: str = "MID") -> SelectionResult:
    """Greedy mRMR over the columns of ``values`` (records x features)."""
    values = np.asarray(getattr(values, "values", values), dtype=float)
    n_features = values.shape[1]
    objective = objective.upper()
    if objective not in ("MID", "MIQ"):
        raise ValueError(f"objective must be MID or MIQ, got {objective!r}")
    if not 1 <= k <= n_features:
        raise ValueError(f"k={k} out of range for {n_features} features")
    cache = RelevanceCache.build(values, labels)
    v = cache.f_stats
    available = np.ones(n_features, dtype=bool)
    corr_sum = np.zeros(n_features)
    ranked: list[int] = []
    steps: list[SelectionStep] = []
    for step in range(k):
        if step == 0:
            w = np.zeros(n_features)
        else:
            w = corr_sum / len(ranked)
        if objective == "MID":
            scores = v - w
        else:
            scores = v / (w + _MIQ_EPS)
        pick = _greedy_argmax(scores, available)
        ranked.append(pick)
        available[pick] = False
        steps.append(SelectionStep(feature_id=pick, relevance=float(v[pick]),
                                   pairwise=float(w[pick]), score=float(scores[pick])))
        if step < k - 1:
            corr_sum += cache.correlations_with(pick)
    return SelectionResult(method=f"mrmr_{objective.lower()}", k=k,
                           ranked_ids=tuple(ranked), step_scores=tuple(steps))


def _minmax_normalize(values: np.ndarray) -> np.ndarray:
    lo = values.min(axis=0)
    span = values.max(axis=0) - lo
    span = np.where(span > 0.0, span, 1.0)
    return (values - lo) / span


def _similarity_matrix(column: np.ndarray) -> np.ndarray:
    sigma = float(np.std(column))
    if sigma == 0.0:
        return np.ones((column.size, column.size))
    diff = np.abs(column[:, None] - column[None, :])
    return np.maximum(0.0, 1.0 - diff / sigma)


def _dependency_from_similarity(sim: np.ndarray, labels: np.ndarray) -> float:
    cross = labels[:, None] != labels[None, :]
    worst = np.where(cross, sim, -np.inf).max(axis=1)
    lower = 1.0 - np.clip(worst, 0.0, 1.0)
    lower[~np.isfinite(worst)] = 1.0  # no cross-class record at all
    return float(np.mean(lower))


def fuzzy_dependency(columns, labels) -> float:
    """Fuzzy-rough dependency degree of a feature subset, in [0, 1].

    Columns are min-max normalized, then each feature induces the similarity
    max(0, 1 - |di - dj| / sigma) with sigma its own standard deviation (a
    constant column is maximally similar everywhere).  The subset relation is
    the elementwise minimum, and the dependency is the mean lower-approximation
    membership of each record in its own class.
    """
    values = np.asarray(getattr(columns, "values", columns), dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    if values.shape[1] == 0:
        raise ValueError("fuzzy dependency needs a non-empty feature subset")
    labels = np.asarray(labels)
    norm = _minmax_normalize(values)
    sim = _similarity_matrix(norm[:, 0])
    for j in range(1, norm.shape[1]):
        sim = np.minimum(sim, _similarity_matrix(norm[:, j]))
    return _dependency_from_similarity(sim, labels)


def mrms_select(values, labels, k: int, beta: float = 0.5) -> SelectionResult:
    """Greedy MRMS: maximize J = J_rel + beta * J_sig.

    J_rel(f) is the single-feature fuzzy dependency; J_sig(f | S) is the mean
    over chosen features s of the dependency gain of the pair {f, s} over {s}.
    """
    values = np.asarray(getattr(values, "values", values), dtype=float)
    n_records, n_features = values.shape
    if not 1 <= k <= n_features:
        raise ValueError(f"k={k} out of range for {n_features} features")
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    labels = np.asarray(labels)
    norm = _minmax_normalize(values)
    sims = [_similarity_matrix(norm[:, j]) for j in range(n_features)]
    singles = np.asarray([_dependency_from_similarity(s, labels) for s in sims])

    available = np.ones(n_features, dtype=bool)
    gain_sum = np.zeros(n_features)
    ranked: list[int] = []
    steps: list[SelectionStep] = []
    for step in range(k):
        if step == 0:
            j_sig = np.zeros(n_features)
        else:
            j_sig = gain_sum / len(ranked)
        scores = singles + beta * j_sig
        pick = _greedy_argmax(scores, available)
        ranked.append(pick)
        available[pick] = False
        steps.append(SelectionStep(feature_id=pick, relevance=float(singles[pick]),
                                   pairwise=float(j_sig[pick]), score=float(scores[pick])))
        if step < k - 1:
            for f in np.flatnonzero(available):
                pair = _dependency_from_similarity(np.minimum(sims[f], sims[pick]), labels)
                gain_sum[f] += pair - singles[pick]
    return SelectionResult(method="mrms", k=k, ranked_ids=tuple(ranked),
                           step_scores=tuple(steps))


def union_recommend(x: SelectionResult, y: SelectionResult, k: int) -> tuple[int, ...]:
    """Merge two ranked selections into exactly ``k`` unique ids.

    Ranks interleave x-first (x1, y1, x2, y2, ...); duplicates keep their
    first occurrence; the merged list is truncated to ``k``.
    """
    if len(x.ranked_ids) != k or len(y.ranked_ids) != k:
        raise ValueError(
            f"both selections must have size k={k}, got {len(x.ranked_ids)} and {len(y.ranked_ids)}")
    merged: list[int] = []
    seen: set[int] = set()
    for xi, yi in zip(x.ranked_ids, y.ranked_ids):
        for candidate in (xi, yi):
            if candidate not in seen:
                seen.add(candidate)
                merged.append(candidate)
    return tuple(merged[:k])


@dataclass(frozen=True)
class SelectorConfig:
    mrmr_objective: str = "MID"
    mrms_beta: float = 0.5

    def __post_init__(self):
        if self.mrmr_objective not in ("MID", "MIQ"):
            raise ConfigError(f"mrmr objective must be MID or MIQ, got {self.mrmr_objective!r}")
        if not self.mrms_beta >= 0:
            raise ConfigError(f"mrms beta must be >= 0, got {self.mrms_beta}")

    @classmethod
    def from_dict(cls, raw: dict) -> "SelectorConfig":
        known_keys(raw, "mrmr mrms", "selector")
        mrmr = known_keys(raw.get("mrmr", {}), "objective", "selector.mrmr")
        mrms = known_keys(raw.get("mrms", {}), "beta", "selector.mrms")
        return cls(mrmr_objective=str(mrmr.get("objective", "MID")).upper(),
                   mrms_beta=float(mrms.get("beta", 0.5)))

    def to_dict(self) -> dict:
        return {"mrmr": {"objective": self.mrmr_objective},
                "mrms": {"beta": self.mrms_beta}}
