"""Iterative feature recommendation with level escalation.

The loop walks feature-bank levels bottom-up.  At each level both selectors
run once per fold, on that fold's train+eval rows, up to the largest k in the
schedule; MRMS reads a per-fold dependency memo kept for the whole run, so a
level computes only the single and (pick, column) dependencies that no lower
level asked for.  Each k in the schedule then takes the first k picks of
those runs (a greedy selector updates its sums only after a pick, so the
prefix equals a run stopped at k); their union forms a candidate set, and
candidates are scored on evaluation rows across all folds; each distinct id
set is evaluated once per run, however many steps or refinement subsets
propose it, and each fold's label set-up is built once for them all.  The
first candidate meeting the target metric in every fold stops the loop, so
cheap features win whenever they suffice.  Test rows stay
untouched until Fe1 and Fe2 are frozen; their test metrics then come from the
fold models kept by the evaluation pass, with no refit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .classifier_eval import (EvalConfig, FoldOutcome, evaluate_feature_set, fold_setups,
                              score_test_rows)
from .dataset import MAX_FOLDS, MIN_FOLDS, FoldPlan, binary_labels, make_folds
from .errors import (ConfigError, RunError, flat_dict, json_value, known_keys, list_setting,
                     real_setting, require_int, store, write_json)
from .feature_bank import (MAX_LEVEL, ExtractionConfig, FeatureMatrix, build_feature_matrix,
                           describe)
from .metrics import MetricReport
from .selector import (SelectionResult, SelectorConfig, _CrossClassGaps, mrmr_select,
                       mrms_select, union_recommend)

TRACE_NOTE = ("each round reselects k features per fold and advances k through the "
              "schedule, escalating to the next feature level when no candidate "
              "meets the target on every fold")


@dataclass(frozen=True)
class RecommendConfig:
    tau: float = 0.85
    metric: str = "accuracy"
    k_schedule: tuple[int, ...] = (5, 10, 15, 20)
    c: int = 10
    p: int = 5
    seed: int = 0
    max_level_cap: int = 2
    selector: SelectorConfig = field(default_factory=SelectorConfig)
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    evaluation: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        store(self, tau=real_setting(self.tau, "tau"),
              k_schedule=list_setting(self.k_schedule, "k_schedule"))
        if self.tau <= 0:
            raise ConfigError(f"tau must be a positive number, got {self.tau!r}")
        if not self.k_schedule:
            raise ConfigError("k_schedule must not be empty")
        store(self, k_schedule=tuple(require_int(k, "every k", 1) for k in self.k_schedule),
              c=require_int(self.c, "refinement cap c", 0, 20),
              p=require_int(self.p, "fold count p", MIN_FOLDS, MAX_FOLDS),
              seed=require_int(self.seed, "seed", 0),
              max_level_cap=require_int(self.max_level_cap, "max_level_cap", 0, MAX_LEVEL))
        if self.evaluation.metric != self.metric:  # EvalConfig checks the metric name
            store(self, evaluation=replace(self.evaluation, metric=self.metric))

    @classmethod
    def from_dict(cls, raw: dict) -> "RecommendConfig":
        try:
            # "pca" belongs to baseline-pca, which reads the same file
            settings = dict(known_keys(raw, [f.name for f in fields(cls)] + ["pca"], "recommend"))
            settings.pop("pca", None)
            for name, block in (("selector", SelectorConfig), ("extraction", ExtractionConfig),
                                ("evaluation", EvalConfig)):
                if name in settings:
                    settings[name] = block.from_dict(settings[name])
            config = cls(**settings)
        except (TypeError, ValueError, AttributeError) as exc:
            raise ConfigError(f"malformed recommend config: {exc}") from exc
        evaluation_metric = raw.get("evaluation", {}).get("metric", config.metric)
        if evaluation_metric != config.metric:
            raise ConfigError(f"evaluation.metric {evaluation_metric!r} disagrees with "
                              f"metric {config.metric!r}; set the metric once, at the top level")
        return config

    def to_dict(self) -> dict:
        out = flat_dict(self)
        del out["evaluation"]["metric"]  # the top-level metric is the one setting
        return out


@dataclass
class FoldSelection:
    fold: int
    mrmr: SelectionResult
    mrms: SelectionResult
    union: tuple[int, ...]


@dataclass
class CandidateEval:
    ids: tuple[int, ...]
    source_folds: list[int]
    eval_metrics: tuple[float | None, ...] = ()
    passed: bool = False

    @property
    def min_eval(self) -> float:
        vals = [v for v in self.eval_metrics if v is not None]
        if len(vals) < len(self.eval_metrics) or not vals:
            return -1.0  # a failed fold disqualifies consistency claims
        return min(vals)

    @property
    def mean_eval(self) -> float:
        vals = [v for v in self.eval_metrics if v is not None]
        return float(np.mean(vals)) if vals else -1.0


@dataclass
class TraceStep:
    level: int
    k: int
    selections: list[FoldSelection]
    candidates: list[CandidateEval]
    decision: str = "continue"


@dataclass
class RecommendedSet:
    ids: tuple[int, ...]
    level: int
    k: int
    eval_metrics: tuple[float | None, ...]
    best_fold: int
    best_eval_metric: float
    min_eval: float
    mean_eval: float
    test_reports: list[MetricReport | None] | None = None
    mean_test_metric: float | None = None

    def to_dict(self, descriptors) -> dict:
        # mean_test_metric stays in the output even when it is None
        return {**flat_dict(self), "mean_test_metric": self.mean_test_metric,
                "names": [descriptors[i].name for i in self.ids],
                "lineages": [list(descriptors[i].lineage) for i in self.ids]}


@dataclass
class RefinementResult:
    base_ids: tuple[int, ...]
    chosen_ids: tuple[int, ...]
    evaluations: list[dict]
    note: str = ""
    skipped: bool = False


@dataclass
class Recommendation:
    fe1: RecommendedSet
    fe2: RecommendedSet
    level_reached: int
    target_met: bool
    trace: list[TraceStep]
    refined: RefinementResult | None
    config: RecommendConfig
    matrix: FeatureMatrix
    plan: FoldPlan

    def to_dict(self) -> dict:
        d = self.matrix.descriptors
        return {
            "config": self.config.to_dict(),
            "fe1": self.fe1.to_dict(d),
            "fe2": self.fe2.to_dict(d),
            "level_reached": self.level_reached,
            "target_met": self.target_met,
            "trace_note": TRACE_NOTE,
            "trace": json_value(self.trace),
            "refinement": json_value(self.refined),
        }

    def to_json(self, path) -> None:
        write_json(path, self.to_dict())


def _eval_metrics(outcomes: list[FoldOutcome], metric: str) -> tuple[float | None, ...]:
    return tuple(None if o.failed else o.eval_report.value(metric) for o in outcomes)


def exhaustive_refine(evaluate, base_set, c: int, metric: str) -> RefinementResult:
    """Score every non-empty subset of ``base_set`` on evaluation rows.

    ``evaluate(ids)`` gives the fold outcomes of a subset, its ids ascending.
    The winner maximizes the minimum fold ``metric``, then the mean; remaining
    ties prefer smaller subsets, then lexicographically smaller id tuples.
    ``c`` caps the enumerable set size (2^c - 1 evaluations).
    """
    base = tuple(sorted(int(i) for i in base_set))
    if not base:
        raise ValueError("base_set must not be empty")
    if len(set(base)) < len(base):
        raise ValueError(f"base_set ids {base} repeat a feature")
    if not len(base) <= c <= 20:
        raise ValueError(f"need |base_set| <= c <= 20, got |base|={len(base)}, c={c}")
    evaluations = []
    for mask in range(1, 1 << len(base)):
        ids = tuple(base[i] for i in range(len(base)) if mask >> i & 1)
        cand = CandidateEval(ids=ids, source_folds=[],
                             eval_metrics=_eval_metrics(evaluate(ids), metric))
        evaluations.append({"ids": list(ids), "min_metric": cand.min_eval,
                            "mean_metric": cand.mean_eval})
    best = min(evaluations, key=lambda e: (-e["min_metric"], -e["mean_metric"],
                                           len(e["ids"]), e["ids"]))
    return RefinementResult(base_ids=base, chosen_ids=tuple(best["ids"]),
                            evaluations=evaluations)


def recommend(records, config: RecommendConfig) -> Recommendation:
    """Run the full selection loop and return the recommended feature sets.

    Fe1 is the candidate scoring the single best evaluation metric in any
    fold; Fe2 maximizes the minimum metric across folds (ties: higher mean,
    smaller k, lower level, earlier discovery).  Test metrics are attached
    once, at the very end, for Fe1 and Fe2 only, from the fold models their
    evaluation kept.
    """
    records = list(records)
    labels = binary_labels(records, config.evaluation.positive_class)
    plan = make_folds(records, config.p, config.seed)
    matrix = build_feature_matrix(records, config.extraction, max_level=config.max_level_cap)

    # selection sees each fold's train+eval rows only
    fold_rows = [np.flatnonzero(plan.assignments != fold) for fold in range(plan.p)]
    # one fuzzy-dependency memo per fold over all columns, shared by MRMS at every level
    memos = [_CrossClassGaps(matrix.values[rows], labels[rows]) for rows in fold_rows]

    outcomes: dict[tuple[int, ...], list[FoldOutcome]] = {}  # per id set, ids ascending
    setups = fold_setups(labels, plan, config.evaluation)

    def evaluate(ids) -> list[FoldOutcome]:
        key = tuple(sorted(ids))
        if key not in outcomes:
            outcomes[key] = evaluate_feature_set(matrix, labels, key, plan, config.evaluation,
                                                 setups=setups)
        return outcomes[key]

    trace: list[TraceStep] = []
    target_met = False
    level_reached = config.max_level_cap
    for level in range(config.max_level_cap + 1):
        n_cols = matrix.columns_up_to_level(level)
        level_values = matrix.values[:, :n_cols]
        k_top = min(max(config.k_schedule), n_cols)
        top = []
        for rows, memo in zip(fold_rows, memos):
            sub = level_values[rows]
            sub_labels = labels[rows]
            top.append((mrmr_select(sub, sub_labels, k_top, config.selector.mrmr_objective),
                        mrms_select(sub, sub_labels, k_top, config.selector.mrms_beta,
                                    memo=memo)))
        for k in dict.fromkeys(min(k_raw, n_cols) for k_raw in config.k_schedule):
            selections = []
            for fold, (x_top, y_top) in enumerate(top):
                x, y = x_top.prefix(k), y_top.prefix(k)
                selections.append(FoldSelection(
                    fold=fold, mrmr=x, mrms=y, union=union_recommend(x, y, k)))

            by_set: dict[tuple[int, ...], CandidateEval] = {}  # the first union of each id set
            for sel in selections:
                by_set.setdefault(tuple(sorted(sel.union)), CandidateEval(
                    ids=sel.union, source_folds=[])).source_folds.append(sel.fold)
            candidates = list(by_set.values())
            for cand in candidates:
                cand.eval_metrics = _eval_metrics(evaluate(cand.ids), config.metric)
                cand.passed = all(v is not None and v >= config.tau for v in cand.eval_metrics)

            step = TraceStep(level=level, k=k, selections=selections, candidates=candidates)
            trace.append(step)
            if any(c.passed for c in candidates):
                step.decision = "stop"
                target_met = True
                level_reached = level
                break
        if target_met:
            break

    scored = [(step, cand) for step in trace for cand in step.candidates
              if any(v is not None for v in cand.eval_metrics)]
    if not scored:
        raise RunError("every fold failed in every evaluation", trace=trace)

    def build_set(step: TraceStep, cand: CandidateEval) -> RecommendedSet:
        valued = [(v, f) for f, v in enumerate(cand.eval_metrics) if v is not None]
        best_value, best_fold = max(valued, key=lambda vf: vf[0])
        return RecommendedSet(
            ids=cand.ids, level=step.level, k=step.k, eval_metrics=cand.eval_metrics,
            best_fold=best_fold, best_eval_metric=best_value,
            min_eval=cand.min_eval, mean_eval=cand.mean_eval)

    fe1 = build_set(*max(scored, key=lambda sc: max(
        v for v in sc[1].eval_metrics if v is not None)))

    def fe2_key(sc):
        step, cand = sc
        return (cand.min_eval, cand.mean_eval, -step.k, -step.level)

    fe2 = build_set(*max(scored, key=fe2_key))

    refined = None
    if config.c > 0:
        if len(fe2.ids) <= config.c:
            refined = exhaustive_refine(evaluate, fe2.ids, config.c, config.metric)
        else:
            refined = RefinementResult(
                base_ids=fe2.ids, chosen_ids=fe2.ids, evaluations=[], skipped=True,
                note=f"skipped: |Fe2|={len(fe2.ids)} exceeds c={config.c}")

    for fe in (fe1, fe2):
        fe.test_reports = [o.test_report for o in score_test_rows(
            evaluate(fe.ids), matrix, labels, plan)]
        vals = [r.value(config.metric) for r in fe.test_reports if r is not None]
        fe.mean_test_metric = float(np.mean(vals)) if vals else None

    return Recommendation(
        fe1=fe1, fe2=fe2, level_reached=level_reached, target_met=target_met,
        trace=trace, refined=refined, config=config, matrix=matrix, plan=plan)


def interpret(recommendation: Recommendation) -> str:
    """Render the recommended sets as a lineage report for expert review."""
    by_id = {d.id: d for d in recommendation.matrix.descriptors}
    lines = []
    for title, fe in (("Fe1 (best single-fold performance)", recommendation.fe1),
                      ("Fe2 (most consistent across folds)", recommendation.fe2)):
        header = (f"{title}: level {fe.level}, k={fe.k}, "
                  f"best eval {fe.best_eval_metric:.6g} @ fold {fe.best_fold}")
        lines.append(header)
        for rank, fid in enumerate(fe.ids, start=1):
            if fid not in by_id:
                raise RuntimeError(f"recommended feature id {fid} has no descriptor")
            d = by_id[fid]
            lines.append(f"  {rank}. [id {d.id}] level {d.level}: {d.name}")
            lines.append(f"       {describe(d)}")
        lines.append("")
    if recommendation.refined is not None:
        ref = recommendation.refined
        if ref.skipped:
            lines.append(f"Refinement: {ref.note}")
        else:
            names = ", ".join(by_id[i].name for i in ref.chosen_ids)
            lines.append(f"Refinement over Fe2 ({len(ref.evaluations)} subsets): kept {names}")
    return "\n".join(lines)
