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

from .errors import ConfigError, block_dict, block_settings, real_setting, store

F_SENTINEL = 1e12
_MIQ_EPS = 1e-12
_BLOCK_BYTES = 4 << 20  # size of one MRMS slab: class-0 rows x class-1 rows x features


def f_statistic(values, labels):
    """One-way ANOVA F of feature columns against class labels.

    ``values`` is one column (returns a float) or a records x features matrix
    (returns one F per column).  Zero between-group and within-group
    variance gives 0; zero within-group variance with distinct group means
    gives the large sentinel 1e12.
    """
    x = np.asarray(values, dtype=float)
    y = np.asarray(labels)
    if y.size != x.shape[0]:
        raise ValueError(f"{x.shape[0]} records but {y.size} labels")
    classes = np.unique(y)
    if classes.size < 2:
        raise ValueError("F-statistic needs at least two classes")
    # one contiguous row per column: a column's sums come out bit for bit the
    # same whether it is passed alone or inside a matrix
    rows = np.ascontiguousarray(x.reshape(x.shape[0], -1).T)
    grand = rows.mean(axis=1)
    ssb = np.zeros(rows.shape[0])
    ssw = np.zeros(rows.shape[0])
    for cls in classes:
        vals = rows.compress(y == cls, axis=1)
        if vals.shape[1] < 2:
            raise ValueError(f"class {cls} has fewer than two members")
        mean = vals.mean(axis=1)
        ssb += vals.shape[1] * (mean - grand) ** 2
        ssw += np.sum((vals - mean[:, None]) ** 2, axis=1)
    df_between = classes.size - 1
    df_within = y.size - classes.size
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (ssb / df_between) / (ssw / df_within)
    f = np.where(ssw == 0.0, np.where(ssb == 0.0, 0.0, F_SENTINEL), f)
    return float(f[0]) if x.ndim == 1 else f


@dataclass
class RelevanceCache:
    """Per-feature F-statistics plus the centered columns for |Pearson| lookups."""

    f_stats: np.ndarray
    _centered: np.ndarray = field(repr=False)
    _norms: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, values: np.ndarray, labels) -> "RelevanceCache":
        f_stats = f_statistic(values, labels)
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

    def prefix(self, k: int) -> "SelectionResult":
        """The first ``k`` picks.

        A greedy run updates its redundancy or significance sums only after a
        pick, so this equals the same run stopped at ``k``.
        """
        if not 1 <= k <= self.k:
            raise ValueError(f"prefix k={k} out of range for a selection of {self.k}")
        return SelectionResult(method=self.method, k=k, ranked_ids=self.ranked_ids[:k],
                               step_scores=self.step_scores[:k])

    def to_dict(self) -> dict:
        # steps are built inline: json_value on each SelectionStep is several times slower
        return {
            "method": self.method,
            "k": self.k,
            "ranked_ids": list(self.ranked_ids),
            "steps": [
                {"feature_id": s.feature_id, "relevance": s.relevance,
                 "pairwise": s.pairwise, "score": s.score}
                for s in self.step_scores
            ],
        }


def _greedy(method: str, k: int, relevance: np.ndarray, combine, gains) -> SelectionResult:
    """The forward search both selectors share.

    Each step scores every feature by ``combine(pairwise)``, where pairwise is
    the mean of the ``gains`` terms of the picks so far (0 before the first),
    and picks the best available feature.  ``gains(pick, rest)`` gives a new
    pick's terms for the features ``rest`` that are still available.
    """
    n_features = relevance.size
    available = np.ones(n_features, dtype=bool)
    total = np.zeros(n_features)
    ranked: list[int] = []
    steps: list[SelectionStep] = []
    for step in range(k):
        pairwise = total / step if step else np.zeros(n_features)
        scores = combine(pairwise)
        # lowest id wins ties because argmax scans in index order
        pick = int(np.argmax(np.where(available, scores, -np.inf)))
        ranked.append(pick)
        available[pick] = False
        steps.append(SelectionStep(feature_id=pick, relevance=float(relevance[pick]),
                                   pairwise=float(pairwise[pick]), score=float(scores[pick])))
        if step < k - 1:
            rest = np.flatnonzero(available)
            total[rest] += gains(pick, rest)
    return SelectionResult(method=method, k=k, ranked_ids=tuple(ranked),
                           step_scores=tuple(steps))


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
    combine = (lambda w: v - w) if objective == "MID" else (lambda w: v / (w + _MIQ_EPS))
    return _greedy(f"mrmr_{objective.lower()}", k, v, combine,
                   lambda pick, rest: cache.correlations_with(pick)[rest])


def _minmax_normalize(values: np.ndarray) -> np.ndarray:
    lo = values.min(axis=0)
    span = values.max(axis=0) - lo
    span = np.where(span > 0.0, span, 1.0)
    return (values - lo) / span


def _scaled_gaps(near: np.ndarray, far: np.ndarray, sigma: np.ndarray, out=None) -> np.ndarray:
    """|near_i - far_j| / sigma as a near rows x far rows x features block."""
    gaps = np.subtract(near[:, None, :], far[None, :, :], out=out)
    np.abs(gaps, out=gaps)
    gaps /= sigma
    return gaps


class _CrossClassGaps:
    """Fuzzy-rough dependency degrees of the columns of one records x features matrix.

    Each feature relates records i and j by the similarity
    max(0, 1 - |di - dj| / sigma) of its min-max normalized values.  Only
    records of different classes enter the dependency, so everything it needs
    lives in the class-0 rows x class-1 rows block of that relation.  The
    blocks hold the scaled gaps |di - dj| / sigma rather than the similarities:
    1 - x is monotone in floating point too, so a subset's relation is the
    largest gap over its features, and a record's worst cross-class similarity
    is max(0, 1 - its smallest gap), the very floats the similarities give.
    Blocks are rebuilt from the normalized columns on every call, a slab of
    class-0 rows at a time, so no temporary grows past about ``_BLOCK_BYTES``
    beyond the n0 x n1 block of the fixed partners.

    Normalization and sigma are per column, min and max are exact and each
    mean runs over one record-order row, so a dependency has the same bits
    whichever columns share its call.  So one instance per fold, over all
    columns, serves MRMS at every level: ``known`` computes each single and
    (partner, column) dependency once, keeping one float apiece.
    """

    def __init__(self, values: np.ndarray, labels):
        self._labels = labels = np.asarray(labels)
        classes = np.unique(labels)
        if classes.size > 2:
            raise ValueError(
                f"fuzzy dependency needs binary labels, found {classes.size} classes")
        norm = _minmax_normalize(values)
        # one contiguous row per feature: each sigma sums in the same order as
        # np.std of that column alone
        sigma = np.ascontiguousarray(norm.T).std(axis=1)
        # a constant column normalizes to all zeros, so its gaps are 0 and its
        # similarity 1 without dividing by its zero sigma
        self._sigma = np.where(sigma > 0.0, sigma, 1.0)
        self._rows = [np.flatnonzero(labels == c) for c in classes]
        self._cols = [norm[rows] for rows in self._rows]
        self._memo: dict = {}  # partner (None for singles) -> (dependencies, known mask)

    def check(self, values: np.ndarray, labels) -> None:
        """ValueError unless these are the rows and labels this was built on, and
        ``values`` its leading columns (as normalized, all a dependency reads)."""
        norm = _minmax_normalize(values)
        if not (np.array_equal(labels, self._labels) and len(norm) == self._labels.size
                and all(np.array_equal(norm[rows], cols[:, :norm.shape[1]])
                        for rows, cols in zip(self._rows, self._cols))):
            raise ValueError("the dependency memo was built on other rows, labels or columns")

    def dependencies(self, ids, partners=()) -> np.ndarray:
        """Dependency of each subset {f} | ``partners`` for the features f in ``ids``."""
        ids = np.asarray(ids, dtype=int)
        if len(self._rows) < 2:
            return np.ones(ids.size)  # no cross-class record: every lower membership is 1
        rows0, rows1 = self._rows
        fixed = None  # the partners' largest gap, class-0 rows x class-1 rows x 1
        for p in partners:
            gap = _scaled_gaps(self._cols[0][:, p:p + 1], self._cols[1][:, p:p + 1],
                               self._sigma[p:p + 1])
            fixed = gap if fixed is None else np.maximum(fixed, gap, out=fixed)
        near, far, sigma = self._cols[0][:, ids], self._cols[1][:, ids], self._sigma[ids]
        slab = max(1, _BLOCK_BYTES // (8 * rows1.size * ids.size))
        block = np.empty((min(slab, rows0.size), rows1.size, ids.size))
        nearest0 = np.empty((rows0.size, ids.size))
        nearest1 = np.full((rows1.size, ids.size), np.inf)
        for start in range(0, rows0.size, slab):
            rows = slice(start, start + slab)
            part = near[rows]
            gaps = _scaled_gaps(part, far, sigma, out=block[:len(part)])
            if fixed is not None:
                np.maximum(gaps, fixed[rows], out=gaps)
            gaps.min(axis=1, out=nearest0[rows])
            np.minimum(nearest1, gaps.min(axis=0), out=nearest1)
        lower = np.empty((ids.size, self._labels.size))
        lower[:, rows0] = nearest0.T
        lower[:, rows1] = nearest1.T
        lower = 1.0 - np.maximum(0.0, 1.0 - lower)
        # each row is in record order, so it sums as a 1-D mean would
        return lower.mean(axis=1)

    def known(self, ids, partner=None) -> np.ndarray:
        """``dependencies(ids, (partner,))``; one pass computes the ids not asked before."""
        deps, done = self._memo.setdefault(
            partner, (np.empty(self._sigma.size), np.zeros(self._sigma.size, bool)))
        todo = ids[~done[ids]]
        if todo.size:
            deps[todo] = self.dependencies(todo, () if partner is None else (partner,))
            done[todo] = True
        return deps[ids]


def fuzzy_dependency(columns, labels) -> float:
    """Fuzzy-rough dependency degree of a feature subset, in [0, 1].

    Columns are min-max normalized, then each feature induces the similarity
    max(0, 1 - |di - dj| / sigma) with sigma its own standard deviation (a
    constant column is maximally similar everywhere).  The subset relation is
    the elementwise minimum, and the dependency is the mean lower-approximation
    membership of each record in its own class.  Labels must have at most two
    classes; with one, every membership is 1.  Only the class-0 rows x
    class-1 rows block of the relation is built, in slabs, so memory is
    O(n0 * n1) rather than one n x n matrix per feature.
    """
    values = np.asarray(getattr(columns, "values", columns), dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    if values.shape[1] == 0:
        raise ValueError("fuzzy dependency needs a non-empty feature subset")
    partners = range(1, values.shape[1])
    return float(_CrossClassGaps(values, labels).dependencies([0], partners)[0])


def mrms_select(values, labels, k: int, beta: float = 0.5, *, memo=None) -> SelectionResult:
    """Greedy MRMS: maximize J = J_rel + beta * J_sig.

    J_rel(f) is the single-feature fuzzy dependency; J_sig(f | S) is the mean
    over chosen features s of the dependency gain of the pair {f, s} over {s}.
    Labels must be binary.  All dependencies come from the class-0 rows x
    class-1 rows blocks of the fuzzy relation, which are rebuilt from the
    normalized columns after each pick, a slab of at most about
    ``_BLOCK_BYTES`` (4 MB) at a time, with the gains of every available
    feature in one pass.  Memory is O(n0 * n1) plus that slab, not one n x n
    matrix per feature (at 800 records x 163 features, under 128 MB where
    those matrices alone take 835 MB).

    ``memo`` (a ``_CrossClassGaps`` built once per fold on these rows and labels,
    ``values`` its leading columns, else ValueError) keeps the normalization and
    each dependency across calls: a call computes only those it lacks, same bits.
    """
    values = np.asarray(getattr(values, "values", values), dtype=float)
    n_features = values.shape[1]
    if not 1 <= k <= n_features:
        raise ValueError(f"k={k} out of range for {n_features} features")
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    if memo is None:
        memo = _CrossClassGaps(values, labels)
    else:
        memo.check(values, labels)
    singles = memo.known(np.arange(n_features))
    return _greedy("mrms", k, singles, lambda j_sig: singles + beta * j_sig,
                   lambda pick, rest: memo.known(rest, pick) - singles[pick])


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


# JSON path of each SelectorConfig field: {block: {key: field}}
_JSON_FIELDS = {"mrmr": {"objective": "mrmr_objective"}, "mrms": {"beta": "mrms_beta"}}


@dataclass(frozen=True)
class SelectorConfig:
    mrmr_objective: str = "MID"
    mrms_beta: float = 0.5

    def __post_init__(self):
        objective = self.mrmr_objective
        if not (isinstance(objective, str) and objective.upper() in ("MID", "MIQ")):
            raise ConfigError(f"mrmr objective must be MID or MIQ, got {objective!r}")
        store(self, mrmr_objective=objective.upper(),
              mrms_beta=real_setting(self.mrms_beta, "selector.mrms.beta"))
        if self.mrms_beta < 0:
            raise ConfigError(f"mrms beta must be >= 0, got {self.mrms_beta}")

    @classmethod
    def from_dict(cls, raw: dict) -> "SelectorConfig":
        return cls(**block_settings(raw, _JSON_FIELDS, "selector"))

    def to_dict(self) -> dict:
        return block_dict(self, _JSON_FIELDS)
