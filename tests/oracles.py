"""Independent reference implementations used as test oracles.

Everything here is written with plain loops and textbook formulas, on
purpose: these functions must not share code paths with the package.
"""

import math

import numpy as np


def anova_f(column, labels):
    """One-way ANOVA F by the definitional sums of squares."""
    column = list(map(float, column))
    labels = list(labels)
    groups = {}
    for value, label in zip(column, labels):
        groups.setdefault(label, []).append(value)
    n = len(column)
    grand = sum(column) / n
    ssb = sum(len(vals) * (sum(vals) / len(vals) - grand) ** 2 for vals in groups.values())
    ssw = sum(sum((v - sum(vals) / len(vals)) ** 2 for v in vals) for vals in groups.values())
    if ssw == 0.0:
        return 0.0 if ssb == 0.0 else 1e12
    return (ssb / (len(groups) - 1)) / (ssw / (n - len(groups)))


def abs_pearson(a, b):
    a = list(map(float, a))
    b = list(map(float, b))
    n = len(a)
    ma = sum(a) / n
    mb = sum(b) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(a, b))
    va = sum((x - ma) ** 2 for x in a)
    vb = sum((y - mb) ** 2 for y in b)
    if va == 0.0 or vb == 0.0:
        return 0.0
    return abs(cov) / math.sqrt(va * vb)


def fuzzy_gamma(values, labels):
    """Direct evaluation of the min/max fuzzy lower-approximation formula."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    n, m = values.shape
    norm = np.empty_like(values)
    for j in range(m):
        lo, hi = values[:, j].min(), values[:, j].max()
        norm[:, j] = (values[:, j] - lo) / (hi - lo) if hi > lo else 0.0
    sigmas = [float(np.std(norm[:, j])) for j in range(m)]

    def rel(i, k):
        out = 1.0
        for j in range(m):
            if sigmas[j] == 0.0:
                r = 1.0
            else:
                r = max(0.0, 1.0 - abs(norm[i, j] - norm[k, j]) / sigmas[j])
            out = min(out, r)
        return out

    total = 0.0
    for i in range(n):
        lower = 1.0
        for k in range(n):
            ind = 1.0 if labels[k] == labels[i] else 0.0
            lower = min(lower, max(1.0 - rel(i, k), ind))
        total += lower
    return total / n


def mrmr_brute_step(values, labels, selected, objective):
    """Score every remaining feature from scratch and return the argmax id."""
    n_features = values.shape[1]
    best_id, best_score = None, None
    for f in range(n_features):
        if f in selected:
            continue
        v = anova_f(values[:, f], labels)
        if selected:
            w = sum(abs_pearson(values[:, f], values[:, s]) for s in selected) / len(selected)
        else:
            w = 0.0
        score = v - w if objective == "MID" else v / (w + 1e-12)
        if best_score is None or score > best_score:
            best_id, best_score = f, score
    return best_id


def mrms_brute_step(values, labels, selected, beta):
    n_features = values.shape[1]
    best_id, best_score = None, None
    for f in range(n_features):
        if f in selected:
            continue
        j_rel = fuzzy_gamma(values[:, [f]], labels)
        if selected:
            gains = [fuzzy_gamma(values[:, [f, s]], labels) - fuzzy_gamma(values[:, [s]], labels)
                     for s in selected]
            j_sig = sum(gains) / len(gains)
        else:
            j_sig = 0.0
        score = j_rel + beta * j_sig
        if best_score is None or score > best_score:
            best_id, best_score = f, score
    return best_id


def _similarity_matrix(column):
    sigma = float(np.std(column))
    if sigma == 0.0:
        return np.ones((column.size, column.size))
    diff = np.abs(column[:, None] - column[None, :])
    return np.maximum(0.0, 1.0 - diff / sigma)


def _dependency_from_similarity(sim, labels):
    cross = labels[:, None] != labels[None, :]
    worst = np.where(cross, sim, -np.inf).max(axis=1)
    lower = 1.0 - np.clip(worst, 0.0, 1.0)
    lower[~np.isfinite(worst)] = 1.0  # no cross-class record at all
    return float(np.mean(lower))


def mrms_reference(values, labels, k, beta):
    """Greedy MRMS in loop form: one n x n similarity matrix per feature and
    one pair dependency per remaining feature after each pick.

    Returns the ranked ids and one (id, J_rel, J_sig, J) tuple per pick.
    """
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    lo = values.min(axis=0)
    span = values.max(axis=0) - lo
    norm = (values - lo) / np.where(span > 0.0, span, 1.0)
    n_features = values.shape[1]
    sims = [_similarity_matrix(norm[:, j]) for j in range(n_features)]
    singles = [_dependency_from_similarity(s, labels) for s in sims]
    gain_sum = [0.0] * n_features
    ranked, steps = [], []
    for step in range(k):
        best = None
        for f in range(n_features):
            if f in ranked:
                continue
            j_sig = gain_sum[f] / len(ranked) if ranked else 0.0
            score = singles[f] + beta * j_sig
            if best is None or score > best[3]:
                best = (f, singles[f], j_sig, score)
        ranked.append(best[0])
        steps.append(best)
        for f in range(n_features):
            if f not in ranked:
                pair = _dependency_from_similarity(np.minimum(sims[f], sims[best[0]]), labels)
                gain_sum[f] += pair - singles[best[0]]
    return tuple(ranked), tuple(steps)


def periodic_dwt_matrix(n, dec_filter):
    """Analysis operator rows built(point by point) from the circular formula."""
    flen = len(dec_filter)
    rows = np.zeros((n // 2, n))
    for o in range(n // 2):
        for j in range(flen):
            rows[o, (2 * o + 1 - j) % n] += dec_filter[j]
    return rows


def dwt_reference(samples, scaling_filter, depth):
    """Periodized DWT, one output coefficient at a time with Python floats.

    Each level pads an odd-length approximation with one zero, then output o
    sums filter[j] * x[(2o + 1 - j) mod n] from 0.0 in tap order.  Returns
    [approx_depth, detail_depth, ..., detail_1] as lists.
    """
    h = [float(v) for v in scaling_filter]
    dec_lo = h[::-1]
    dec_hi = [((-1) ** (k + 1)) * h[k] for k in range(len(h))]
    approx = [float(v) for v in samples]
    details = []
    for _ in range(depth):
        if len(approx) % 2:
            approx = approx + [0.0]
        n = len(approx)
        lo, hi = [], []
        for o in range(n // 2):
            a = d = 0.0
            for j in range(len(h)):
                tap = approx[(2 * o + 1 - j) % n]
                a += dec_lo[j] * tap
                d += dec_hi[j] * tap
            lo.append(a)
            hi.append(d)
        details.append(hi)
        approx = lo
    return [approx] + details[::-1]


def detail_score(samples, scaling_filter, depth):
    """Energy-to-entropy ratio recomputed with matrix-form periodic analysis."""
    h = np.asarray(scaling_filter, dtype=float)
    dec_lo = h[::-1]
    dec_hi = np.array([((-1) ** (k + 1)) * h[k] for k in range(len(h))])
    x = np.asarray(samples, dtype=float)
    details = []
    approx = x
    for _ in range(depth):
        if approx.size % 2:
            approx = np.append(approx, 0.0)
        lo_mat = periodic_dwt_matrix(approx.size, dec_lo)
        hi_mat = periodic_dwt_matrix(approx.size, dec_hi)
        details.append(hi_mat @ approx)
        approx = lo_mat @ approx
    d = np.concatenate(details)
    energy = float(np.sum(d * d))
    if energy <= 0.0:
        return None
    p = d * d / energy
    p = p[p > 0]
    entropy = float(-np.sum(p * np.log(p)))
    if entropy == 0.0:
        return float("inf")
    return energy / entropy


def _kernel(kind, a, b, gamma, degree, coef0):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.empty((len(a), len(b)))
    for s in range(len(a)):
        for t in range(len(b)):
            dot = float(np.dot(a[s], b[t]))
            if kind == "linear":
                out[s, t] = dot
            elif kind == "rbf":
                out[s, t] = math.exp(-gamma * float(np.sum((a[s] - b[t]) ** 2)))
            else:
                out[s, t] = (gamma * dot + coef0) ** degree
    return out


def svm_dual_objective(alphas, signs, support_rows, kind, gamma=None, degree=3, coef0=1.0):
    """sum(alpha) - 1/2 sum_st alpha_s alpha_t y_s y_t K(x_s, x_t); gamma None is 1/width."""
    support_rows = np.asarray(support_rows, dtype=float)
    if gamma is None:
        gamma = 1.0 / support_rows.shape[1]
    ay = np.asarray(alphas, dtype=float) * np.asarray(signs, dtype=float)
    k = _kernel(kind, support_rows, support_rows, gamma, degree, coef0)
    return float(np.sum(alphas) - 0.5 * ay @ k @ ay)


def svm_dual_reference(rows, labels, kind, c, gamma=None, degree=3, coef0=1.0):
    """Optimal soft-margin dual objective with balanced class weights, by SLSQP.

    Rows are standardized with their own mean and (population) standard
    deviation; the larger label is the positive class.
    """
    from scipy.optimize import minimize

    x = np.asarray(rows, dtype=float)
    std = x.std(axis=0)
    x = (x - x.mean(axis=0)) / np.where(std > 0, std, 1.0)
    labels = np.asarray(labels)
    y = np.where(labels == labels.max(), 1.0, -1.0)
    n = len(y)
    box = np.array([c * n / (2 * np.sum(labels == v)) for v in labels])
    if gamma is None:
        gamma = 1.0 / x.shape[1]
    q = np.outer(y, y) * _kernel(kind, x, x, gamma, degree, coef0)
    result = minimize(
        lambda a: 0.5 * a @ q @ a - a.sum(), np.zeros(n), jac=lambda a: q @ a - 1.0,
        method="SLSQP", bounds=[(0.0, b) for b in box],
        constraints=[{"type": "eq", "fun": lambda a: a @ y, "jac": lambda a: y}],
        options={"ftol": 1e-15, "maxiter": 2000})
    return float(-result.fun)


def kkt_violation(model, rows, labels):
    """Largest KKT violation of an SVM model over its own training rows.

    A row with alpha below its box needs y*f >= 1 and a row with alpha above
    zero needs y*f <= 1.  Support vectors are matched to the standardized
    rows in order; rows that are not support vectors have alpha = 0.
    """
    xs = (np.asarray(rows, dtype=float) - model.feature_mean) / model.feature_std
    y = [1.0 if v == model.positive_label else -1.0 for v in labels]
    box = [model.c * model.class_weights[int(v)] for v in labels]
    spec = model.kernel
    k = _kernel(spec.kind, xs, model.support_vectors, spec.gamma, spec.degree, spec.coef0)
    f = k @ (model.alphas * model.sv_labels) + model.bias
    worst = 0.0
    sv = 0
    for i in range(len(xs)):
        alpha = 0.0
        if sv < len(model.alphas) and np.array_equal(xs[i], model.support_vectors[sv]):
            alpha = float(model.alphas[sv])
            sv += 1
        margin = y[i] * float(f[i])
        if alpha < box[i] * (1 - 1e-9):
            worst = max(worst, 1.0 - margin)
        if alpha > 0.0:
            worst = max(worst, margin - 1.0)
    assert sv == len(model.alphas), "support vectors are not an ordered subset of the rows"
    return worst


def smo_reference(gram, y, box, tol=1e-3, tau=1e-12, max_iter=1_000_000):
    """SMO with WSS2 as the package solved it before its curvature table: each step
    rebuilds the pair curvatures ``max((d + d_i) - 2 K_i, tau)`` of row i and keeps its
    scalars as numpy scalars.  ``y`` is +/-1 and ``box`` the per-row upper bounds;
    returns the alphas, the bias and the number of pair updates, or None at the cap."""
    gram = np.asarray(gram, dtype=float)
    y = np.asarray(y, dtype=float)
    box = np.asarray(box, dtype=float)
    diag = gram.diagonal()
    pos = y > 0
    alphas = np.zeros(y.size)
    yg = y.copy()
    up = np.where(pos, 0.0, -np.inf)
    low = np.where(pos, -np.inf, 0.0)
    score, curv, row = np.empty(y.size), np.empty(y.size), np.empty(y.size)
    for iterations in range(max_iter):
        np.add(yg, up, out=score)
        i = int(score.argmax())
        yg_i = yg[i]
        np.subtract(low, yg, out=score)
        top = score.max()
        if yg_i + top < tol:
            return alphas, float(0.5 * (yg_i - top)), iterations
        np.add(score, yg_i, out=score)
        np.maximum(score, 0.0, out=score)
        np.multiply(score, score, out=score)
        np.add(diag, diag[i], out=curv)
        np.multiply(gram[i], 2.0, out=row)
        np.subtract(curv, row, out=curv)
        np.maximum(curv, tau, out=curv)
        np.divide(score, curv, out=score)
        j = int(score.argmax())
        room_i = box[i] - alphas[i] if pos[i] else alphas[i]
        room_j = alphas[j] if pos[j] else box[j] - alphas[j]
        step = min((yg_i - yg[j]) / curv[j], room_i, room_j)
        for t, sign, room in ((i, y[i], room_i), (j, -y[j], room_j)):
            end = box[t] if sign > 0.0 else 0.0
            a = end if step == room else min(max(alphas[t] + sign * step, 0.0), box[t])
            alphas[t] = a
            up[t] = 0.0 if (a < box[t] if pos[t] else a > 0.0) else -np.inf
            low[t] = 0.0 if (a > 0.0 if pos[t] else a < box[t]) else -np.inf
        np.subtract(gram[i], gram[j], out=row)
        np.multiply(row, step, out=row)
        np.subtract(yg, row, out=yg)
    return None


def fit_fold_reference(fold, setup, rows, config, specs, feature_ids):
    """``classifier_eval._fit_fold`` as it was before a fold stopped scoring at a perfect
    fit: every fit of the grid is scored on the eval rows, and the first strict maximum
    of the metric wins.  Only the loop is under test, so this one shares the package's
    fit and scoring; it calls them through the module, so spies set there see its calls."""
    from widefeat import classifier_eval as ce

    train_idx, eval_idx, train, actual = setup
    best = (-np.inf, None, None)  # (score, model, report)
    try:
        if train is None:
            raise ce.TrainingError("need exactly two classes in training rows")
        x_train = rows(train_idx)
        problem = ce.fold_problem(x_train, train)
        xs_eval = (rows(eval_idx) - problem.mean) / problem.std
        for spec in (s.resolve(problem.xs.shape[1]) for s in specs):
            for c in config.c_grid:
                model = ce.svm_train(x_train, train.values, kernel=spec, c=c,
                                     class_weights=config.class_weight_mode, problem=problem)
                report = ce.confusion_metrics(ce._decision(model, xs_eval) >= 0.0, actual)
                score = report.value(config.metric)
                if score > best[0]:
                    best = (score, model, report)
    except ce.TrainingError:
        best = (None, None, None)
    return ce.FoldOutcome(fold=fold, eval_report=best[2], test_report=None,
                          feature_ids=feature_ids, model=best[1])


def catalog_reference(x):
    """The statistical catalog one statistic at a time (each recomputes its
    own mean, moments and extremes), with numpy's own ``median`` and
    ``percentile``.  The float operations are the same as the one-pass
    form's, so the two must agree bit for bit: the 3rd and 4th moments are
    means of ``d2 * d`` and ``d2 * d2`` with ``d2 = d * d``, and the median
    and quartiles read the row as ``x + 0.0``, where -0.0 becomes +0.0.
    Returns ``{name: value}``.
    """
    def moments():
        mu = float(np.mean(x))
        d = x - mu
        d2 = d * d
        return (float(np.mean(d2)), float(np.mean(d2 * d)), float(np.mean(d2 * d2)))

    def skewness():
        m2, m3, _ = moments()
        return 0.0 if m2 < 1e-24 else m3 / m2 ** 1.5

    def kurtosis():
        m2, _, m4 = moments()
        return 0.0 if m2 < 1e-24 else m4 / (m2 * m2) - 3.0

    def hist_entropy():
        lo, hi = float(np.min(x)), float(np.max(x))
        if hi <= lo:
            return 0.0
        counts, _ = np.histogram(x, bins=16, range=(lo, hi))
        p = counts[counts > 0] / x.size
        return float(-np.sum(p * np.log(p)))

    short = x.size < 2
    return {
        "mean": float(np.mean(x)),
        "std": float(np.std(x)),
        "variance": float(np.var(x)),
        "skewness": skewness(),
        "kurtosis": kurtosis(),
        "rms": float(np.sqrt(np.mean(x * x))),
        "min": float(np.min(x)),
        "max": float(np.max(x)),
        "range": float(np.max(x) - np.min(x)),
        "median": float(np.median(x + 0.0)),
        "iqr": float(np.percentile(x + 0.0, 75) - np.percentile(x + 0.0, 25)),
        "mad": float(np.mean(np.abs(x - np.mean(x)))),
        "zero_crossing_rate": 0.0 if short else
        float(np.count_nonzero(x[:-1] * x[1:] < 0)) / (x.size - 1),
        "line_length": 0.0 if short else float(np.sum(np.abs(np.diff(x)))),
        "hist_entropy": hist_entropy(),
    }


def entropy_reference(p):
    """``-sum(p log p)`` over the nonzero entries, in the earlier inline form."""
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log(nz)))
