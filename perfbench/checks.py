"""Output checks that hold on any workload seed.

Each check compares the program's output with a computation made here, apart
from the program (textbook formulas, brute force, the stdlib WAV decoder), or
with a property the method promises.  None compares with a stored copy of an
earlier output.  Every check returns a list of problems; empty means pass.
"""

from __future__ import annotations

import array
import csv
import json
import math
import sys
import wave
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import widefeat

METRICS = ("accuracy", "sensitivity", "specificity", "precision", "f_score")
REL = 1e-9


def _close(a: float, b: float, rel: float = REL, abs_tol: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def read_features(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    values = np.array([[float(v) for v in row[1:]] for row in body])
    return header[1:], [row[0] for row in body], values


def read_wav(path: Path) -> np.ndarray:
    with wave.open(str(path), "rb") as fh:
        if fh.getsampwidth() != 2 or fh.getnchannels() != 1:
            raise ValueError(f"{path}: expected mono 16-bit PCM")
        pcm = array.array("h", fh.readframes(fh.getnframes()))
    if sys.byteorder == "big":
        pcm.byteswap()
    return np.array(pcm, dtype=float) / 32768.0


# ---------------------------------------------------------------------------
# extract

def _direct_stats(x: np.ndarray) -> dict[str, float]:
    n = x.size
    mean = math.fsum(x) / n
    srt = np.sort(x)
    median = srt[n // 2] if n % 2 else (srt[n // 2 - 1] + srt[n // 2]) / 2
    return {"mean": mean,
            "std": math.sqrt(math.fsum((x - mean) ** 2) / n),
            "rms": math.sqrt(math.fsum(x * x) / n),
            "min": float(srt[0]), "max": float(srt[-1]), "median": float(median)}


def check_extract(run_dir: Path, manifest_path: Path, bank: list[str]) -> list[str]:
    problems = []
    manifest = json.loads(manifest_path.read_text())
    names, record_ids, values = read_features(run_dir / "features.csv")
    descriptors = json.loads((run_dir / "descriptors.json").read_text())["descriptors"]

    if record_ids != [e["id"] for e in manifest["records"]]:
        problems.append("CSV rows are not the manifest records in manifest order")
    ids = [d["id"] for d in descriptors]
    levels = [d["level"] for d in descriptors]
    if ids != list(range(len(names))):
        problems.append("descriptor ids are not 0..F-1 over the CSV columns")
    if any(a > b for a, b in zip(levels, levels[1:])):
        problems.append("descriptor levels decrease")
    if [d["name"] for d in descriptors] != names:
        problems.append("descriptor names differ from the CSV header")

    col = {name: j for j, name in enumerate(names)}
    roots = sorted({n.split(" → ")[0].split("/")[0] for n in names if n.startswith("dwt(")})
    if len(roots) != 1 or roots[0][4:-1] not in bank:
        problems.append(f"expected one wavelet from the bank, found {roots}")
        return problems
    energy_cols = [j for n, j in col.items() if n.startswith(roots[0] + "/")
                   and n.endswith(" → energy")]
    rel_cols = [j for n, j in col.items() if n.endswith(" → relative_energy")]

    for i, entry in enumerate(manifest["records"]):
        x = read_wav(manifest_path.parent / entry["path"])
        expected = {"time → energy": math.fsum(x * x)}
        for tag, sig in (("", x), ("d1 → ", x[1:] - x[:-1]),
                         ("d2 → ", x[2:] - 2 * x[1:-1] + x[:-2])):
            for stat, v in _direct_stats(sig).items():
                expected[f"time → {tag}{stat}"] = v
        for name, want in expected.items():
            got = float(values[i, col[name]])
            if not _close(got, want):
                problems.append(f"{entry['id']}: {name} = {got!r}, textbook formula gives {want!r}")
        band_sum = math.fsum(values[i, energy_cols])
        if not _close(band_sum, expected["time → energy"]):
            problems.append(f"{entry['id']}: DWT band energies sum to {band_sum!r}, "
                            f"time energy is {expected['time → energy']!r}")
        if not _close(math.fsum(values[i, rel_cols]), 1.0):
            problems.append(f"{entry['id']}: relative band energies do not sum to 1")
        if len(problems) > 20:
            break
    return problems


# ---------------------------------------------------------------------------
# selection oracles

def anova_f_all(values: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """One-way ANOVA F of every column, from the definitional sums of squares."""
    grand = values.mean(axis=0)
    ssb = np.zeros(values.shape[1])
    ssw = np.zeros(values.shape[1])
    classes = np.unique(labels)
    for c in classes:
        group = values[labels == c]
        mean = group.mean(axis=0)
        ssb += len(group) * (mean - grand) ** 2
        ssw += ((group - mean) ** 2).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (ssb / (len(classes) - 1)) / (ssw / (len(labels) - len(classes)))
    return np.where(ssw == 0.0, np.where(ssb == 0.0, 0.0, 1e12), f)


def abs_corr(values: np.ndarray, j: int) -> np.ndarray:
    """|Pearson| of column j with every column; 0 where either is constant."""
    d = values - values.mean(axis=0)
    norms = np.sqrt((d * d).sum(axis=0))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.abs(d.T @ d[:, j]) / (norms * norms[j])
    return np.minimum(np.where((norms > 0) & (norms[j] > 0), r, 0.0), 1.0)


def single_dependency(values: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Fuzzy-rough dependency of each single column, without any n x n matrix.

    With similarity max(0, 1 - |a - b| / sigma), a record's worst cross-class
    similarity comes from the nearest value of the other class, found here by
    binary search in that class's sorted values.
    """
    out = np.empty(values.shape[1])
    for j in range(values.shape[1]):
        v = values[:, j]
        span = v.max() - v.min()
        v = (v - v.min()) / span if span > 0 else np.zeros_like(v)
        sigma = v.std()
        lower = np.empty(v.size)
        for c in np.unique(labels):
            mine, other = v[labels == c], np.sort(v[labels != c])
            pos = np.searchsorted(other, mine)
            left = np.abs(mine - other[np.maximum(pos - 1, 0)])
            right = np.abs(other[np.minimum(pos, other.size - 1)] - mine)
            nearest = np.minimum(left, right)
            worst = np.ones_like(mine) if sigma == 0 else np.maximum(0.0, 1.0 - nearest / sigma)
            lower[labels == c] = 1.0 - np.minimum(worst, 1.0)
        out[j] = lower.mean()
    return out


def _is_argmax(scores: np.ndarray, pick: int, available: np.ndarray) -> bool:
    best = scores[available].max()
    return bool(available[pick]) and scores[pick] >= best - (1e-13 * abs(best) + 1e-9)


def check_mrmr_steps(values, labels, ranked, objective) -> bool:
    """Each greedy mRMR pick scores the maximum, recomputed from scratch."""
    relevance = anova_f_all(values, labels)
    available = np.ones(values.shape[1], dtype=bool)
    for step, pick in enumerate(ranked):
        if step == 0:
            w = np.zeros(values.shape[1])
        else:
            w = np.mean([abs_corr(values, s) for s in ranked[:step]], axis=0)
        scores = relevance - w if objective == "MID" else relevance / (w + 1e-12)
        if not _is_argmax(scores, pick, available):
            return False
        available[pick] = False
    return True


# ---------------------------------------------------------------------------
# recommend

def _metrics_from_counts(tp, tn, fp, fn) -> dict[str, float]:
    div = lambda a, b: a / b if b > 0 else 0.0  # noqa: E731
    sens, prec = div(tp, tp + fn), div(tp, tp + fp)
    return {"accuracy": div(tp + tn, tp + tn + fp + fn), "sensitivity": sens,
            "specificity": div(tn, tn + fp), "precision": prec,
            "f_score": div(2 * prec * sens, prec + sens)}


def _interleave(x, y, k):
    seen, out = set(), []
    for xi, yi in zip(x, y):
        for i in (xi, yi):
            if i not in seen:
                seen.add(i)
                out.append(i)
    return out[:k]


def _min_mean(metrics):
    vals = [v for v in metrics if v is not None]
    low = min(vals) if vals and len(vals) == len(metrics) else -1.0
    return low, (math.fsum(vals) / len(vals) if vals else -1.0)


def check_recommendation(rec: dict, values: np.ndarray, levels: list[int],
                         labels: np.ndarray, assignments: np.ndarray) -> list[str]:
    """Properties both recommend workloads must satisfy on any seed."""
    problems = []
    config = rec["config"]
    p = config["p"]
    test_sizes = [int(np.sum(assignments == f)) for f in range(p)]
    for c in np.unique(labels):
        per_fold = [int(np.sum((assignments == f) & (labels == c))) for f in range(p)]
        if max(per_fold) - min(per_fold) > 1:
            problems.append(f"folds are not stratified for class {c}: {per_fold}")

    for which in ("fe1", "fe2"):
        reports = rec[which]["test_reports"]
        for fold, report in enumerate(reports):
            if report is None:
                problems.append(f"{which}: fold {fold} has no test report")
                continue
            conf = report["confusion"]
            if sum(conf.values()) != test_sizes[fold]:
                problems.append(f"{which}: fold {fold} confusion sums to "
                                f"{sum(conf.values())}, test fold holds {test_sizes[fold]}")
            want = _metrics_from_counts(conf["tp"], conf["tn"], conf["fp"], conf["fn"])
            if any(not _close(report[m], want[m]) for m in METRICS):
                problems.append(f"{which}: fold {fold} metrics disagree with its confusion counts")

    candidates = [c for step in rec["trace"] for c in step["candidates"]]
    for step in rec["trace"]:
        for sel in step["selections"]:
            want = _interleave(sel["mrmr"]["ranked_ids"], sel["mrms"]["ranked_ids"], step["k"])
            if sel["union"] != want:
                problems.append(f"level {step['level']} k={step['k']} fold {sel['fold']}: "
                                f"union {sel['union']} is not the x-first interleave {want}")
    scored = [c for c in candidates if any(v is not None for v in c["eval_metrics"])]
    best_single = max(v for c in scored for v in c["eval_metrics"] if v is not None)
    if rec["fe1"]["best_eval_metric"] != best_single:
        problems.append(f"Fe1 best {rec['fe1']['best_eval_metric']} is not the maximum "
                        f"fold metric {best_single} over the trace")
    best_pair = max(_min_mean(c["eval_metrics"]) for c in scored)
    fe2 = (rec["fe2"]["min_eval"], rec["fe2"]["mean_eval"])
    if fe2[0] != best_pair[0] or not _close(fe2[1], best_pair[1]):
        problems.append(f"Fe2 (min, mean) {fe2} is not the maximum {best_pair} over the trace")

    objective = config["selector"]["mrmr"]["objective"]
    for step in rec["trace"]:
        n_cols = sum(1 for lv in levels if lv <= step["level"])
        for sel in step["selections"]:
            rows = assignments != sel["fold"]
            sub, sub_labels = values[rows][:, :n_cols], labels[rows]
            where = f"level {step['level']} k={step['k']} fold {sel['fold']}"
            if not check_mrmr_steps(sub, sub_labels, sel["mrmr"]["ranked_ids"], objective):
                problems.append(f"{where}: mRMR picks differ from the brute-force recomputation")
            dep = single_dependency(sub, sub_labels)
            if not _is_argmax(dep, sel["mrms"]["ranked_ids"][0], np.ones(n_cols, dtype=bool)):
                problems.append(f"{where}: MRMS first pick is not the single-feature "
                                "dependency argmax")
    return problems


def check_escalation(rec: dict, levels: list[int]) -> list[str]:
    config = rec["config"]
    want = []
    for level in range(config["max_level_cap"] + 1):
        n_cols = sum(1 for lv in levels if lv <= level)
        ks = []
        for k in config["k_schedule"]:
            if min(k, n_cols) not in ks:
                ks.append(min(k, n_cols))
        want += [(level, k) for k in ks]
    got = [(s["level"], s["k"]) for s in rec["trace"]]
    problems = [] if got == want else [f"trace covers {got}, expected every level and k {want}"]
    if rec["target_met"]:
        problems.append("target_met is true although tau exceeds 1")
    return problems


def check_refinement(rec: dict, metrics_json: dict) -> list[str]:
    problems = []
    trace = rec["trace"]
    if [(s["level"], s["k"], s["decision"]) for s in trace] != \
            [(0, rec["config"]["k_schedule"][0], "stop")]:
        problems.append("the loop did not stop at level 0 on its first k")
    ref = rec["refinement"]
    if ref is None or ref["skipped"]:
        return problems + ["refinement was skipped"]
    base = tuple(ref["base_ids"])
    if sorted(base) != sorted(rec["fe2"]["ids"]):
        problems.append("refinement did not start from Fe2")
    subsets = [tuple(e["ids"]) for e in ref["evaluations"]]
    every = {tuple(c) for r in range(1, len(base) + 1) for c in combinations(base, r)}
    if len(subsets) != 2 ** len(base) - 1 or set(subsets) != every:
        problems.append(f"refinement scored {len(set(subsets))} distinct subsets of "
                        f"{len(subsets)}, expected all {2 ** len(base) - 1}")
    best = min(ref["evaluations"], key=lambda e: (-e["min_metric"], -e["mean_metric"],
                                                  len(e["ids"]), e["ids"]))
    if ref["chosen_ids"] != best["ids"]:
        problems.append(f"refinement chose {ref['chosen_ids']}, the (min, mean, size, ids) "
                        f"order picks {best['ids']}")
    reports = rec["fe2"]["test_reports"]
    for m in METRICS:
        want = math.fsum(r[m] for r in reports) / len(reports)
        if not _close(metrics_json["metrics"][m], want):
            problems.append(f"metrics.json {m} {metrics_json['metrics'][m]} is not the mean "
                            f"{want} of Fe2's test reports")
    return problems


# ---------------------------------------------------------------------------
# per-workload entry points

def check_escalate_tall(outcome, inputs) -> list[str]:
    rec = outcome.recommendation
    d = json.loads(outcome.fingerprint)
    labels = np.array([r.label for r in inputs["records"]])
    levels = [desc.level for desc in rec.matrix.descriptors]
    return (check_recommendation(d, rec.matrix.values, levels, labels, rec.plan.assignments)
            + check_escalation(d, levels))


def check_default_refine(outcome, inputs) -> list[str]:
    run_dir = outcome.run_dir
    d = json.loads(outcome.fingerprint)
    manifest = json.loads(Path(inputs["manifest"]).read_text())
    labels = np.array([e["label"] for e in manifest["records"]])
    _, _, values = read_features(run_dir / "features.csv")
    levels = [x["level"] for x in json.loads((run_dir / "descriptors.json").read_text())
              ["descriptors"]]
    plan = widefeat.make_folds([SimpleNamespace(label=int(v)) for v in labels],
                               d["config"]["p"], d["config"]["seed"])
    return (check_recommendation(d, values, levels, labels, plan.assignments)
            + check_refinement(d, json.loads((run_dir / "metrics.json").read_text())))


def check_extract_pcg(outcome, inputs) -> list[str]:
    bank = json.loads(Path(inputs["config"]).read_text())["dwt"]["bank"]
    return check_extract(outcome.run_dir, Path(inputs["manifest"]), bank)


CHECKS = {"extract-pcg": check_extract_pcg, "escalate-tall": check_escalate_tall,
          "default-refine": check_default_refine}
