"""Spans and counters recorded from outside the package.

The traced run replaces public functions with timing wrappers at the names
their callers look them up by (``widefeat.recommender.mrmr_select``, not
``widefeat.selector.mrmr_select``, since the recommender imported the name),
and puts the originals back afterwards.  Nothing inside ``src/widefeat``
knows it is being traced.

A span records its name, start, end and parent.  Spans stay in memory and
are written as one JSON file when the run ends.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

import numpy as np

from widefeat import classifier_eval, cli, feature_bank, recommender, selector
from widefeat.feature_bank import FeatureMatrix
from widefeat.recommender import Recommendation


class Recorder:
    """In-memory spans and integer counters, grouped by operation."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.problems: list[str] = []
        self.op = -1
        self._stack: list[dict] = []
        self._seen_sets: set[tuple[int, ...]] = set()

    def begin_op(self, op: int) -> None:
        self.op = op
        self._seen_sets = set()

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = {"id": len(self.spans), "name": name, "op": self.op,
                  "parent": parent["id"] if parent else None,
                  "start": time.perf_counter(), "end": None, "child_s": 0.0}
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent["child_s"] += record["end"] - record["start"]

    def count(self, name: str, n: int = 1) -> None:
        self.counters[self.op][name] += n

    def seen_before(self, ids: tuple[int, ...]) -> bool:
        if ids in self._seen_sets:
            return True
        self._seen_sets.add(ids)
        return False

    def op_totals(self, op: int) -> dict[str, list]:
        """[calls, inclusive seconds, self seconds] per span name for one operation."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for s in self.spans:
            if s["op"] == op:
                row = out[s["name"]]
                row[0] += 1
                row[1] += s["end"] - s["start"]
                row[2] += s["end"] - s["start"] - s["child_s"]
        return out

    def write(self, path) -> None:
        payload = {"spans": [{k: s[k] for k in ("id", "name", "op", "parent", "start", "end")}
                             for s in self.spans],
                   "counters": {str(op): dict(c) for op, c in self.counters.items()}}
        with open(path, "w") as fh:
            json.dump(payload, fh)


# ---------------------------------------------------------------------------
# SVM model checks made on every fit the traced run sees

def _kernel(spec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    dot = a @ b.T
    if spec.kind == "linear":
        return dot
    if spec.kind == "poly":
        return (spec.gamma * dot + spec.coef0) ** spec.degree
    sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * dot
    return np.exp(-spec.gamma * np.maximum(sq, 0.0))


def dual_problems(model) -> list[str]:
    """Dual feasibility of a returned model: sum(alpha * y) = 0, 0 <= alpha <= box."""
    out = []
    balance = float(np.dot(model.alphas, model.sv_labels))
    if abs(balance) > 1e-8 * max(1.0, float(model.alphas.sum())):
        out.append(f"sum(alpha*y) = {balance:.3g}")
    if np.any(model.alphas < 0.0) or np.any(model.alphas > model.sv_box * (1 + 1e-9)):
        out.append("alpha outside [0, box]")
    return out


def kkt_violation(model, rows, labels) -> float:
    """Largest KKT violation of ``model`` over its own training rows.

    A row below its box needs y*f >= 1 and a row above zero needs y*f <= 1;
    the violation is how far y*f misses.  Rows that are not support vectors
    have alpha = 0; support vectors are matched to rows in order, since the
    trainer keeps them as an ordered subset of the standardized rows.
    """
    xs = model.standardize(np.asarray(rows, dtype=float))
    labels = np.asarray(labels)
    y = np.where(labels == model.positive_label, 1.0, -1.0)
    box = np.asarray([model.c * model.class_weights[int(v)] for v in labels])
    alpha = np.zeros(len(xs))
    k = 0
    for i, row in enumerate(xs):
        if k < len(model.alphas) and np.array_equal(row, model.support_vectors[k]):
            alpha[i] = model.alphas[k]
            k += 1
    if k != len(model.alphas):
        raise AssertionError("support vectors are not an ordered subset of the training rows")
    f = _kernel(model.kernel, xs, model.support_vectors) @ (model.alphas * model.sv_labels) \
        + model.bias
    margin = y * f
    below = alpha < box * (1 - 1e-9)
    above = alpha > 0.0
    viol = np.maximum(np.where(below, 1.0 - margin, 0.0), np.where(above, margin - 1.0, 0.0))
    return float(max(0.0, viol.max()))


# ---------------------------------------------------------------------------
# wrappers

def _timed(rec: Recorder, name: str, fn, after=None):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            with rec.span("bench.check"):
                after(result, *args, **kwargs)
        return result
    return wrapper


def _patches(rec: Recorder) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every traced call site."""

    def after_extract(frag, *args, **kwargs):
        rec.count("feature_bank.records")

    def after_fit(model, rows, labels, *args, tol=1e-3, **kwargs):
        rec.count("svm.fits")
        problems = dual_problems(model)
        if problems and len(rec.problems) < 5:  # the first few are enough to act on
            rec.problems.append("svm model not dual feasible: " + "; ".join(problems))
        if kkt_violation(model, rows, labels) > tol:
            rec.count("svm.kkt_violations")

    def after_evaluate(outcomes, matrix, labels, feature_ids, *args, **kwargs):
        rec.count("classifier_eval.evaluations")
        if rec.seen_before(tuple(int(i) for i in feature_ids)):
            rec.count("classifier_eval.repeat_sets")

    def after_recommend(result, *args, **kwargs):
        rec.count("recommender.steps", len(result.trace))

    def after_refine(result, *args, **kwargs):
        rec.count("recommender.refine_subsets", len(result.evaluations))

    def after_select(kind):
        def after(result, *args, **kwargs):
            rec.count(f"selector.{kind}_calls")
        return after

    t = lambda name, fn, after=None: _timed(rec, name, fn, after)  # noqa: E731
    fb, rm, ce = feature_bank, recommender, classifier_eval
    load_manifest = t("dataset.load_manifest", cli.load_manifest)
    load_dataset = t("dataset.load_dataset", cli.load_dataset)
    build = t("feature_bank.build_feature_matrix", fb.build_feature_matrix)
    recommend = t("recommender.recommend", rm.recommend, after_recommend)
    relevance = t("selector.relevance", selector.RelevanceCache.build.__func__)
    return [
        (cli, "load_manifest", load_manifest),
        (cli, "load_dataset", load_dataset),
        (cli, "build_feature_matrix", build),
        (cli, "recommend", recommend),
        (rm, "recommend", recommend),
        (rm, "build_feature_matrix", build),
        (fb, "choose_dataset_wavelet", t("feature_bank.vote", fb.choose_dataset_wavelet)),
        (fb, "extract_level0", t("feature_bank.level0", fb.extract_level0, after_extract)),
        (fb, "extract_level1", t("feature_bank.level1", fb.extract_level1)),
        (fb, "extract_level2", t("feature_bank.level2", fb.extract_level2)),
        (FeatureMatrix, "to_csv", t("cli.write", FeatureMatrix.to_csv)),
        (FeatureMatrix, "descriptors_to_json", t("cli.write", FeatureMatrix.descriptors_to_json)),
        (Recommendation, "to_json", t("cli.write", Recommendation.to_json)),
        (selector.RelevanceCache, "build", classmethod(relevance)),
        (rm, "mrmr_select", t("selector.mrmr", rm.mrmr_select, after_select("mrmr"))),
        (rm, "mrms_select", t("selector.mrms", rm.mrms_select, after_select("mrms"))),
        (rm, "evaluate_feature_set",
         t("classifier_eval.evaluate", rm.evaluate_feature_set, after_evaluate)),
        (rm, "exhaustive_refine", t("recommender.refine", rm.exhaustive_refine, after_refine)),
        (ce, "svm_train", t("svm.train", ce.svm_train, after_fit)),
        (ce, "svm_predict", t("svm.predict", ce.svm_predict)),
    ]


@contextmanager
def traced(rec: Recorder):
    """Install the wrappers for the duration of the block."""
    patches = _patches(rec)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield rec
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics of one operation

SECONDS = {
    "dataset.load_s": ("dataset.load_manifest", "dataset.load_dataset"),
    "feature_bank.vote_s": ("feature_bank.vote",),
    "feature_bank.level0_s": ("feature_bank.level0",),
    "feature_bank.level1_s": ("feature_bank.level1",),
    "feature_bank.level2_s": ("feature_bank.level2",),
    "cli.write_s": ("cli.write",),
    "selector.relevance_s": ("selector.relevance",),
    "selector.mrmr_s": ("selector.mrmr",),
    "selector.mrms_s": ("selector.mrms",),
    "svm.train_s": ("svm.train",),
    "svm.predict_s": ("svm.predict",),
    "classifier_eval.evaluate_s": ("classifier_eval.evaluate",),
    "recommender.refine_s": ("recommender.refine",),
}
COUNTS = ("feature_bank.records", "selector.mrmr_calls", "selector.mrms_calls", "svm.fits",
          "svm.kkt_violations", "classifier_eval.evaluations", "classifier_eval.repeat_sets",
          "recommender.steps", "recommender.refine_subsets")


def op_layer_metrics(rec: Recorder, op: int) -> dict[str, float]:
    totals = rec.op_totals(op)
    out = {name: sum(totals[s][1] for s in names if s in totals)
           for name, names in SECONDS.items()}
    out["recommender.self_s"] = totals["recommender.recommend"][2]
    for name in COUNTS:
        out[name] = rec.counters[op].get(name, 0)
    return out


def breakdown(rec: Recorder, op: int) -> list[str]:
    """Lines of self time per layer (span prefix), then calls, inclusive and
    self time per span, for one operation."""
    totals = rec.op_totals(op)
    whole = sum(row[2] for row in totals.values())
    layers: dict[str, float] = defaultdict(float)
    for name, row in totals.items():
        layers[name.split(".", 1)[0]] += row[2]
    lines = [f"  {layer:<16} self {secs:9.4f} s  {100 * secs / whole:5.1f}%"
             for layer, secs in sorted(layers.items(), key=lambda item: -item[1])]
    lines.append(f"  {'span':<36} {'calls':>6} {'inclusive s':>12} {'self s':>10}")
    for name, (calls, total, own) in sorted(totals.items(), key=lambda item: -item[1][1]):
        lines.append(f"  {name:<36} {calls:>6} {total:>12.4f} {own:>10.4f}")
    return lines
