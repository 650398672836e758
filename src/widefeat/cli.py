"""Command-line front end: extract, recommend, baseline-pca, report.

Runs are config-file first; a handful of flags override the common knobs.
Every run writes its artifacts under ``<out>/<run id>/`` where the run id is
a timestamp plus the seed.  JSON artifacts contain no timestamps, so a rerun
with identical inputs and seed produces byte-identical files.

Exit codes: 0 success, 2 input or configuration error, 3 run error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .classifier_eval import pca_baseline
from .dataset import binary_labels, fold_roles, load_dataset, load_manifest, make_folds
from .errors import (ConfigError, RunError, ValidationError, WidefeatError, json_value,
                     known_keys, list_setting, require_int, write_json)
from .feature_bank import MAX_LEVEL, ExtractionConfig, build_feature_matrix
from .metrics import METRIC_NAMES
from .recommender import RecommendConfig, interpret, recommend
from .svm import KERNEL_KINDS

OUT_ENV_VAR = "WIDEFEAT_OUT"


def _new_run_dir(base: Path, seed: int) -> Path:
    stamp = time.strftime("%Y%m%dT%H%M%S")
    run_id = f"{stamp}-seed{seed}"
    path = base / run_id
    bump = 1
    while path.exists():
        bump += 1
        path = base / f"{run_id}-{bump}"
    path.mkdir(parents=True)
    return path


def _read_json(path) -> dict:
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    return raw


def _finish(run_dir: Path, lines: list[str], *extra: str) -> int:
    """Write ``lines`` to the run's log.txt, print them and ``extra``, then the run dir."""
    (run_dir / "log.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    for text in extra:
        print(text)
    print(f"artifacts: {run_dir}")
    return 0


def _out_dir(args) -> Path:
    if args.out:
        return Path(args.out)
    env = os.environ.get(OUT_ENV_VAR)
    return Path(env) if env else Path("runs")


def _mean_test_metrics(reports) -> dict:
    reports = [r for r in reports if r is not None]
    return {name: float(np.mean([r.value(name) for r in reports])) if reports else 0.0
            for name in METRIC_NAMES}


def cmd_extract(args) -> int:
    manifest = load_manifest(args.manifest)
    raw = _read_json(args.config) if args.config else {}
    max_level = raw.pop("max_level", MAX_LEVEL)
    config = ExtractionConfig.from_dict(raw)
    if args.max_level is not None:
        max_level = args.max_level
    require_int(max_level, "max_level", 0, MAX_LEVEL)
    records = load_dataset(manifest)
    matrix = build_feature_matrix(records, config, max_level=max_level)

    run_dir = _new_run_dir(_out_dir(args), args.seed or 0)
    matrix.to_csv(run_dir / "features.csv")
    matrix.descriptors_to_json(run_dir / "descriptors.json")
    counts = matrix.level_counts()
    lines = [f"extracted {matrix.n_features} feature columns from {matrix.n_records} records"]
    for level in sorted(counts):
        lines.append(f"  level {level}: {counts[level]} columns")
    return _finish(run_dir, lines)


def _require_seed(args, raw: dict) -> int:
    if args.seed is not None:
        return args.seed
    if "seed" in raw:
        return raw["seed"]
    raise ConfigError("a seed is required: pass --seed or set \"seed\" in the config file")


def _apply_recommend_overrides(raw: dict, args) -> dict:
    raw = dict(raw)
    if args.tau is not None:
        raw["tau"] = args.tau
    if args.folds is not None:
        raw["p"] = args.folds
    if args.metric is not None:
        raw["metric"] = args.metric
    if args.k is not None:
        try:
            raw["k_schedule"] = [int(v) for v in args.k.split(",")]
        except ValueError:
            raise ConfigError(f"--k must be comma-separated integers, got {args.k!r}") from None
    if args.max_level is not None:
        raw["max_level_cap"] = args.max_level
    return raw


def cmd_recommend(args) -> int:
    manifest = load_manifest(args.manifest)
    raw = _read_json(args.config) if args.config else {}
    raw = _apply_recommend_overrides(raw, args)
    raw["seed"] = _require_seed(args, raw)
    config = RecommendConfig.from_dict(raw)
    records = load_dataset(manifest)

    try:
        rec = recommend(records, config)
    except RunError as exc:
        run_dir = _new_run_dir(_out_dir(args), config.seed)
        dump = run_dir / "trace_dump.json"
        write_json(dump, {"error": str(exc), "trace": json_value(exc.trace or [])})
        print(f"run failed: {exc}; trace dumped to {dump}", file=sys.stderr)
        return 3

    run_dir = _new_run_dir(_out_dir(args), config.seed)
    rec.matrix.to_csv(run_dir / "features.csv")
    rec.matrix.descriptors_to_json(run_dir / "descriptors.json")
    rec.to_json(run_dir / "recommendation.json")
    report_text = interpret(rec)
    (run_dir / "lineage_report.txt").write_text(report_text + "\n")
    write_json(run_dir / "metrics.json", {
        "method": "wide",
        "metric": config.metric,
        "seed": config.seed,
        "feature_count": len(rec.fe2.ids),
        "level_reached": rec.level_reached,
        "target_met": rec.target_met,
        "metrics": _mean_test_metrics(rec.fe2.test_reports),
        "fe1_metrics": _mean_test_metrics(rec.fe1.test_reports),
    })

    lines = [f"level reached: {rec.level_reached}  target_met: {rec.target_met}"]
    if not rec.target_met:
        lines.append(f"target not met (tau={config.tau:g}); best effort returned")
    for name, fe in (("Fe1", rec.fe1), ("Fe2", rec.fe2)):
        evals = ", ".join("fail" if v is None else f"{v:.6g}" for v in fe.eval_metrics)
        tests = ", ".join("fail" if r is None else f"{r.value(config.metric):.6g}"
                          for r in fe.test_reports)
        lines.append(f"{name}: {len(fe.ids)} features, level {fe.level}, k={fe.k}")
        lines.append(f"  eval {config.metric} per fold: {evals}")
        lines.append(f"  test {config.metric} per fold: {tests}")
        lines.append(f"  {name} mean test {config.metric}: {fe.mean_test_metric:.6g}")
    return _finish(run_dir, lines, report_text)


def cmd_baseline_pca(args) -> int:
    manifest = load_manifest(args.manifest)
    raw = _read_json(args.config) if args.config else {}
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.folds is not None:
        raw["p"] = args.folds
    config = RecommendConfig.from_dict(raw)
    pca_raw = known_keys(raw.get("pca", {}), ("grid", "kernel"), "pca")
    try:
        grid = ([int(n) for n in args.components.split(",")] if args.components
                else list_setting(pca_raw.get("grid", (5, 10, 15)), "pca.grid"))
    except ValueError:
        raise ConfigError(f"--components must be integers, got {args.components!r}") from None
    if not grid:
        raise ConfigError("pca.grid must hold at least one component count")
    for n in grid:
        require_int(n, "every pca.grid entry", 1)
    kernel = pca_raw.get("kernel", "rbf")
    if kernel not in KERNEL_KINDS:
        raise ConfigError(f"pca kernel must be one of {KERNEL_KINDS}, got {kernel!r}")

    records = load_dataset(manifest)
    labels = binary_labels(records, config.evaluation.positive_class)
    plan = make_folds(records, config.p, config.seed)
    matrix = build_feature_matrix(records, config.extraction, max_level=config.max_level_cap)

    # centered train rows have rank at most min_train - 1; a component past it is noise
    min_train = min(fold_roles(plan, f)[0].size for f in range(plan.p))
    cap = min(matrix.n_features, min_train - 1)
    runs = []
    for n in grid:
        n_eff = min(n, cap)
        if any(r["n_components"] == n_eff for r in runs):
            continue
        outcomes = pca_baseline(matrix, labels, plan, n_eff, config.evaluation,
                                kernel=kernel)
        runs.append({
            "n_components": n_eff,
            "kernel": kernel,
            "metrics": _mean_test_metrics([o.test_report for o in outcomes]),
            "eval_metrics": _mean_eval_metrics(outcomes, config.metric),
        })

    run_dir = _new_run_dir(_out_dir(args), config.seed)
    write_json(run_dir / "metrics.json", {
        "method": "pca",
        "metric": config.metric,
        "seed": config.seed,
        "runs": runs,
    })
    return _finish(run_dir, [f"pca n={r['n_components']} kernel={kernel} "
                             f"test {config.metric}: {r['metrics'][config.metric]:.6g}"
                             for r in runs])


def _mean_eval_metrics(outcomes, metric: str) -> float:
    vals = [o.eval_report.value(metric) for o in outcomes if o.eval_report is not None]
    return float(np.mean(vals)) if vals else 0.0


REPORT_COLUMNS = ("method", "accuracy", "sensitivity", "specificity",
                  "precision", "f_score", "feature_count", "level_reached")


def _report_rows(run_dir: Path) -> list[list[str]]:
    """One row of ``REPORT_COLUMNS`` text per metrics.json under ``run_dir``."""
    rows = []
    for path in sorted(run_dir.rglob("metrics.json")):
        payload = _read_json(path)
        try:
            if payload.get("method") == "wide":
                method, metrics = "wide", payload["metrics"]
                count, level = payload["feature_count"], payload["level_reached"]
            elif payload.get("method") == "pca":
                metric = payload.get("metric", "accuracy")
                best = max(payload["runs"], key=lambda r: r["metrics"][metric])
                method, metrics = f"pca[n={best['n_components']}]", best["metrics"]
                count, level = best["n_components"], "-"
            else:
                continue
            rows.append([method] + [f"{metrics[m]:.6g}" for m in METRIC_NAMES]
                        + [str(count), str(level)])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed {path}: {type(exc).__name__}: {exc}") from None
    return rows


def cmd_report(args) -> int:
    run_dir = Path(args.rundir)
    rows = _report_rows(run_dir)
    if not rows:
        print(f"no run artifacts found under {run_dir}", file=sys.stderr)
        return 2
    widths = [max(len(REPORT_COLUMNS[i]), *(len(r[i]) for r in rows))
              for i in range(len(REPORT_COLUMNS))]
    header = "  ".join(c.ljust(w) for c, w in zip(REPORT_COLUMNS, widths))
    print(header)
    print("-" * len(header))
    for r in rows:
        print("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    csv_path = run_dir / "summary.csv"
    with open(csv_path, "w") as fh:
        fh.write(",".join(REPORT_COLUMNS) + "\n")
        for r in rows:
            fh.write(",".join(r) + "\n")
    print(f"summary written to {csv_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="widefeat",
        description="Feature extraction, selection and recommendation for 1-D sensor signals")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("manifest", help="dataset manifest JSON")
        p.add_argument("--config", help="configuration JSON file")
        p.add_argument("--out", help=f"output directory (default ${OUT_ENV_VAR} or ./runs)")
        p.add_argument("--seed", type=int, default=None)

    p_extract = sub.add_parser("extract", help="build and export the feature matrix")
    add_common(p_extract)
    p_extract.add_argument("--max-level", type=int, default=None)
    p_extract.set_defaults(fn=cmd_extract)

    p_rec = sub.add_parser("recommend", help="run the full recommendation loop")
    add_common(p_rec)
    p_rec.add_argument("--tau", type=float, default=None)
    p_rec.add_argument("--folds", type=int, default=None)
    p_rec.add_argument("--k", help="comma-separated k schedule")
    p_rec.add_argument("--metric", choices=METRIC_NAMES, default=None)
    p_rec.add_argument("--max-level", type=int, default=None)
    p_rec.set_defaults(fn=cmd_recommend)

    p_pca = sub.add_parser("baseline-pca", help="PCA+SVM baseline over a component grid")
    add_common(p_pca)
    p_pca.add_argument("--components", help="comma-separated component grid")
    p_pca.add_argument("--folds", type=int, default=None)
    p_pca.set_defaults(fn=cmd_baseline_pca)

    p_rep = sub.add_parser("report", help="tabulate runs found in a directory")
    p_rep.add_argument("rundir")
    p_rep.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except RunError as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return 3
    except (WidefeatError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
