"""Iterative feature recommendation with level escalation.

The loop walks feature-bank levels bottom-up.  At each level it tries every
k in the schedule: both selectors run per fold on that fold's train+eval
rows, their union forms a candidate set, and candidates are scored on
evaluation rows across all folds.  The first candidate meeting the target
metric in every fold stops the loop, so cheap features win whenever they
suffice.  Test rows stay untouched until the final sets are frozen.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .classifier_eval import EvalConfig, evaluate_feature_set
from .dataset import FoldPlan, fold_roles, make_folds
from .errors import ConfigError, RunError, ValidationError, known_keys
from .feature_bank import (ExtractionConfig, FeatureDescriptor, FeatureMatrix,
                           build_feature_matrix, describe)
from .metrics import METRIC_NAMES, MetricReport
from .selector import (SelectionResult, SelectorConfig, mrmr_select, mrms_select,
                       union_recommend)

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
        if not self.tau > 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        if self.metric not in METRIC_NAMES:
            raise ConfigError(f"unknown metric {self.metric!r}")
        if not self.k_schedule:
            raise ConfigError("k_schedule must not be empty")
        if any(k < 1 for k in self.k_schedule):
            raise ConfigError(f"every k must be >= 1, got {self.k_schedule}")
        if not 0 <= self.c <= 20:
            raise ConfigError(f"refinement cap c must be in [0, 20], got {self.c}")
        if not 0 <= self.max_level_cap <= 2:
            raise ConfigError(f"max_level_cap must be 0, 1 or 2, got {self.max_level_cap}")
        if self.evaluation.metric != self.metric:
            object.__setattr__(self, "evaluation", replace(self.evaluation, metric=self.metric))

    @classmethod
    def from_dict(cls, raw: dict) -> "RecommendConfig":
        try:
            # "pca" belongs to baseline-pca, which reads the same file
            known_keys(raw, "tau metric k_schedule c p seed max_level_cap selector extraction "
                            "evaluation pca", "recommend")
            metric = str(raw.get("metric", "accuracy"))
            evaluation = dict(raw.get("evaluation", {}))
            if evaluation.setdefault("metric", metric) != metric:
                raise ConfigError(f"evaluation.metric {evaluation['metric']!r} disagrees with "
                                  f"metric {metric!r}; set the metric once, at the top level")
            return cls(
                tau=float(raw.get("tau", 0.85)),
                metric=metric,
                k_schedule=tuple(int(k) for k in raw.get("k_schedule", (5, 10, 15, 20))),
                c=int(raw.get("c", 10)),
                p=int(raw.get("p", 5)),
                seed=int(raw.get("seed", 0)),
                max_level_cap=int(raw.get("max_level_cap", 2)),
                selector=SelectorConfig.from_dict(raw.get("selector", {})),
                extraction=ExtractionConfig.from_dict(raw.get("extraction", {})),
                evaluation=EvalConfig.from_dict(evaluation),
            )
        except (TypeError, ValueError, AttributeError) as exc:
            raise ConfigError(f"malformed recommend config: {exc}") from exc

    def to_dict(self) -> dict:
        evaluation = self.evaluation.to_dict()
        del evaluation["metric"]  # the top-level metric is the one setting
        return {
            "tau": self.tau, "metric": self.metric,
            "k_schedule": list(self.k_schedule), "c": self.c, "p": self.p,
            "seed": self.seed, "max_level_cap": self.max_level_cap,
            "selector": self.selector.to_dict(),
            "extraction": self.extraction.to_dict(),
            "evaluation": evaluation,
        }


@dataclass
class FoldSelection:
    fold: int
    mrmr: SelectionResult
    mrms: SelectionResult
    union: tuple[int, ...]

    def to_dict(self) -> dict:
        return {"fold": self.fold, "mrmr": self.mrmr.to_dict(),
                "mrms": self.mrms.to_dict(), "union": list(self.union)}


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

    def to_dict(self) -> dict:
        return {"ids": list(self.ids), "source_folds": self.source_folds,
                "eval_metrics": list(self.eval_metrics), "passed": self.passed}


@dataclass
class TraceStep:
    level: int
    k: int
    selections: list[FoldSelection]
    candidates: list[CandidateEval]
    decision: str = "continue"

    def to_dict(self) -> dict:
        return {"level": self.level, "k": self.k,
                "selections": [s.to_dict() for s in self.selections],
                "candidates": [c.to_dict() for c in self.candidates],
                "decision": self.decision}


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

    def to_dict(self, descriptors=None) -> dict:
        out = {
            "ids": list(self.ids), "level": self.level, "k": self.k,
            "eval_metrics": list(self.eval_metrics),
            "best_fold": self.best_fold, "best_eval_metric": self.best_eval_metric,
            "min_eval": self.min_eval, "mean_eval": self.mean_eval,
            "mean_test_metric": self.mean_test_metric,
        }
        if self.test_reports is not None:
            out["test_reports"] = [r.as_dict() if r else None for r in self.test_reports]
        if descriptors is not None:
            out["names"] = [descriptors[i].name for i in self.ids]
            out["lineages"] = [list(descriptors[i].lineage) for i in self.ids]
        return out


@dataclass
class RefinementResult:
    base_ids: tuple[int, ...]
    chosen_ids: tuple[int, ...]
    evaluations: list[dict]
    note: str = ""
    skipped: bool = False

    def to_dict(self) -> dict:
        return {"base_ids": list(self.base_ids), "chosen_ids": list(self.chosen_ids),
                "evaluations": self.evaluations, "note": self.note, "skipped": self.skipped}


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
    trace_note: str = TRACE_NOTE

    def to_dict(self) -> dict:
        d = self.matrix.descriptors
        return {
            "schema_version": 1,
            "config": self.config.to_dict(),
            "fe1": self.fe1.to_dict(d),
            "fe2": self.fe2.to_dict(d),
            "level_reached": self.level_reached,
            "target_met": self.target_met,
            "trace_note": self.trace_note,
            "trace": [s.to_dict() for s in self.trace],
            "refinement": self.refined.to_dict() if self.refined else None,
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _fold_eval_metrics(matrix, labels, ids, plan, eval_config, mutator=None,
                       include_test=False):
    outcomes = evaluate_feature_set(matrix, labels, ids, plan, eval_config,
                                    include_test=include_test, test_row_mutator=mutator)
    metrics = tuple(
        None if o.failed else o.eval_report.value(eval_config.metric) for o in outcomes)
    return outcomes, metrics


def exhaustive_refine(matrix, labels, plan: FoldPlan, base_set, c: int,
                      eval_config: EvalConfig) -> RefinementResult:
    """Score every non-empty subset of ``base_set`` on evaluation rows.

    The winner maximizes the minimum fold metric, then the mean; remaining
    ties prefer smaller subsets, then lexicographically smaller id tuples.
    ``c`` caps the enumerable set size (2^c - 1 evaluations).
    """
    base = tuple(sorted(int(i) for i in base_set))
    if not base:
        raise ValueError("base_set must not be empty")
    if not len(base) <= c <= 20:
        raise ValueError(f"need |base_set| <= c <= 20, got |base|={len(base)}, c={c}")
    evaluations = []
    ranked = []
    for mask in range(1, 1 << len(base)):
        ids = tuple(base[i] for i in range(len(base)) if mask >> i & 1)
        _, metrics = _fold_eval_metrics(matrix, labels, ids, plan, eval_config)
        vals = [v for v in metrics if v is not None]
        min_m = min(vals) if vals and len(vals) == len(metrics) else -1.0
        mean_m = float(np.mean(vals)) if vals else -1.0
        evaluations.append({"ids": list(ids), "min_metric": min_m, "mean_metric": mean_m})
        ranked.append(((-min_m, -mean_m, len(ids), ids), ids))
    ranked.sort(key=lambda item: item[0])
    return RefinementResult(base_ids=base, chosen_ids=ranked[0][1], evaluations=evaluations)


def recommend(records, config: RecommendConfig, test_row_mutator=None) -> Recommendation:
    """Run the full selection loop and return the recommended feature sets.

    Fe1 is the candidate scoring the single best evaluation metric in any
    fold; Fe2 maximizes the minimum metric across folds (ties: higher mean,
    smaller k, lower level, earlier discovery).  Test metrics are attached
    once, at the very end, for Fe1 and Fe2 only.
    """
    records = list(records)
    labels = np.asarray([r.label for r in records])
    classes = sorted({int(r.label) for r in records})
    if len(classes) != 2:
        raise ValidationError(f"recommend needs binary labels, found classes {classes}")
    plan = make_folds(records, config.p, config.seed)
    matrix = build_feature_matrix(records, config.extraction, max_level=config.max_level_cap)

    trace: list[TraceStep] = []
    target_met = False
    level_reached = config.max_level_cap
    for level in range(config.max_level_cap + 1):
        n_cols = matrix.columns_up_to_level(level)
        level_values = matrix.values[:, :n_cols]
        tried_k: set[int] = set()
        for k_raw in config.k_schedule:
            k = min(k_raw, n_cols)
            if k in tried_k:
                continue
            tried_k.add(k)
            selections = []
            for fold in range(plan.p):
                train_idx, eval_idx, _ = fold_roles(plan, fold)
                rows = np.sort(np.concatenate([train_idx, eval_idx]))
                sub = level_values[rows]
                sub_labels = labels[rows]
                x = mrmr_select(sub, sub_labels, k, config.selector.mrmr_objective)
                y = mrms_select(sub, sub_labels, k, config.selector.mrms_beta)
                selections.append(FoldSelection(
                    fold=fold, mrmr=x, mrms=y, union=union_recommend(x, y, k)))

            candidates: list[CandidateEval] = []
            by_set: dict[frozenset, CandidateEval] = {}
            for sel in selections:
                key = frozenset(sel.union)
                if key in by_set:
                    by_set[key].source_folds.append(sel.fold)
                else:
                    cand = CandidateEval(ids=sel.union, source_folds=[sel.fold])
                    by_set[key] = cand
                    candidates.append(cand)
            for cand in candidates:
                _, metrics = _fold_eval_metrics(matrix, labels, cand.ids, plan,
                                                config.evaluation)
                cand.eval_metrics = metrics
                cand.passed = all(v is not None and v >= config.tau for v in metrics)

            step = TraceStep(level=level, k=k, selections=selections, candidates=candidates)
            if any(c.passed for c in candidates):
                step.decision = "stop"
                trace.append(step)
                target_met = True
                level_reached = level
                break
            trace.append(step)
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

    fe1_step, fe1_cand = max(scored, key=lambda sc: max(
        v for v in sc[1].eval_metrics if v is not None))
    fe1 = build_set(fe1_step, fe1_cand)

    def fe2_key(sc):
        step, cand = sc
        return (cand.min_eval, cand.mean_eval, -step.k, -step.level)

    best_key = max(fe2_key(sc) for sc in scored)
    fe2_step, fe2_cand = next(sc for sc in scored if fe2_key(sc) == best_key)
    fe2 = build_set(fe2_step, fe2_cand)

    refined = None
    if config.c > 0:
        if len(fe2.ids) <= config.c:
            refined = exhaustive_refine(matrix, labels, plan, fe2.ids, config.c,
                                        config.evaluation)
        else:
            refined = RefinementResult(
                base_ids=fe2.ids, chosen_ids=fe2.ids, evaluations=[], skipped=True,
                note=f"skipped: |Fe2|={len(fe2.ids)} exceeds c={config.c}")

    for fe in (fe1, fe2):
        outcomes, _ = _fold_eval_metrics(matrix, labels, fe.ids, plan, config.evaluation,
                                         mutator=test_row_mutator, include_test=True)
        fe.test_reports = [o.test_report for o in outcomes]
        vals = [r.value(config.metric) for r in fe.test_reports if r is not None]
        fe.mean_test_metric = float(np.mean(vals)) if vals else None

    return Recommendation(
        fe1=fe1, fe2=fe2, level_reached=level_reached, target_met=target_met,
        trace=trace, refined=refined, config=config, matrix=matrix, plan=plan)


def interpret(recommendation: Recommendation,
              descriptors: tuple[FeatureDescriptor, ...] | None = None) -> str:
    """Render the recommended sets as a lineage report for expert review."""
    if descriptors is None:
        descriptors = recommendation.matrix.descriptors
    by_id = {d.id: d for d in descriptors}
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
