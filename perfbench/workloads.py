"""Seeded inputs and the one operation of each benchmark workload.

A workload owns three things: ``prepare`` makes the inputs of one dataset
from a seeded generator (and writes it to disk when the workload reads from
disk), ``operation`` runs one ``extract`` or one ``recommend`` call on them,
and ``Outcome`` holds what the checks need.  The program only ever sees the
generated inputs; the seed stays here.

A round runs the operation once on each of the workload's ``datasets``.  On
the two ``recommend`` workloads the SVM solver's cost moves by about 10%
(standard deviation) from one dataset to the next, so a round averages
several datasets to keep the per-seed figure steady.
"""

from __future__ import annotations

import contextlib
import io
import json
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import widefeat
from widefeat import cli

# The README's "reasonable starting recommend.json"; default-refine runs it
# unchanged, and extract-pcg uses its extraction block.
README_RECOMMEND = {
    "tau": 0.85,
    "metric": "accuracy",
    "k_schedule": [5, 10, 15, 20],
    "c": 10,
    "p": 5,
    "seed": 7,
    "max_level_cap": 2,
    "selector": {"mrmr": {"objective": "MID"}, "mrms": {"beta": 0.5}},
    "extraction": {"stft": {"window": 256, "hop": 128},
                   "dwt": {"bank": ["haar", "db2", "db4", "db8", "sym4", "coif1"],
                           "depth": 4},
                   "peaks": {"prominence_frac": 0.1, "min_separation_frac": 0.05}},
    "evaluation": {"kernels": ["linear", "rbf", "poly"], "c_grid": [0.1, 1.0, 10.0],
                   "class_weight_mode": "balanced"},
}

# escalate-tall: tau above 1 so no candidate can pass and every level and k
# runs.  k values near the level-0 column count (17) make the folds pick
# different unions at every level, so the candidate count, and with it the
# number of SVM fits, varies little from seed to seed.  One kernel and one C
# keep each candidate to one fit per fold.
ESCALATE_CONFIG = {
    "tau": 1.01,
    "metric": "accuracy",
    "k_schedule": [8, 16],
    "c": 0,
    "p": 5,
    "seed": 8,
    "max_level_cap": 2,
    "evaluation": {"kernels": ["rbf"], "c_grid": [0.1], "class_weight_mode": "balanced"},
}

PCG_RECORDS = 200
PCG_SECONDS = 2.5
PCG_RATE = 1000
TALL_RECORDS = 60
TALL_SAMPLES = 512
TALL_RATE = 200.0
TALL_FLIPPED = 3  # labels swapped per class
REFINE_RECORDS = 20
REFINE_SAMPLES = 256
REFINE_RATE = 200.0


# ---------------------------------------------------------------------------
# input generators

def pcg_signal(rng: np.random.Generator, abnormal: bool) -> np.ndarray:
    """A heart-sound-like record: S1/S2 bursts per beat, plus a systolic murmur
    for abnormal records, over background noise; peak-normalized to 0.9."""
    n = int(PCG_SECONDS * PCG_RATE)
    t = np.arange(n) / PCG_RATE
    period = 60.0 / rng.uniform(60.0, 100.0)
    systole = 0.35 * period
    x = rng.normal(0.0, rng.uniform(0.01, 0.04), n)
    f1, f2 = rng.uniform(40.0, 60.0), rng.uniform(60.0, 90.0)
    onset = rng.uniform(0.0, period)
    while onset < PCG_SECONDS:
        for center, freq, width, amp in ((onset, f1, 0.020, rng.uniform(0.6, 1.0)),
                                         (onset + systole, f2, 0.015, rng.uniform(0.4, 0.8))):
            dt = t - center
            x += amp * np.exp(-0.5 * (dt / width) ** 2) * np.sin(2 * np.pi * freq * dt)
        if abnormal:
            inside = (t > onset + 0.05) & (t < onset + systole - 0.03)
            murmur = sum(np.sin(2 * np.pi * rng.uniform(150.0, 300.0) * t
                                + rng.uniform(0, 2 * np.pi)) for _ in range(6))
            x += rng.uniform(0.03, 0.08) * inside * murmur
        onset += period
    return 0.9 * x / np.max(np.abs(x))


def write_pcg_dataset(rng: np.random.Generator, root: Path) -> Path:
    """PCG-like 16-bit WAV records at 1 kHz, about 4:1 normal to abnormal."""
    data = root / "wav"
    data.mkdir(parents=True)
    labels = np.zeros(PCG_RECORDS, dtype=int)
    labels[rng.choice(PCG_RECORDS, PCG_RECORDS // 5, replace=False)] = 1
    entries = []
    for i, label in enumerate(labels):
        rid = f"pcg{i:04d}"
        pcm = np.round(pcg_signal(rng, bool(label)) * 32767).astype("<i2")
        with wave.open(str(data / f"{rid}.wav"), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(PCG_RATE)
            fh.writeframes(pcm.tobytes())
        entries.append({"path": f"wav/{rid}.wav", "label": int(label), "id": rid})
    return _write_manifest(root, {"format": "wav", "class_names": ["normal", "abnormal"],
                                  "records": entries})


def tall_records(rng: np.random.Generator) -> list[widefeat.SignalRecord]:
    """Short noisy tones, 25 Hz for one class and 35 Hz for the other, with
    TALL_FLIPPED of each class's labels swapped.  The tones separate the
    classes, the swapped labels keep every fold metric below 1, and they take
    the same share of the data on every seed."""
    t = np.arange(TALL_SAMPLES) / TALL_RATE
    tone_class = np.arange(TALL_RECORDS) % 2
    labels = tone_class.copy()
    for c in (0, 1):
        swap = rng.choice(np.flatnonzero(tone_class == c), TALL_FLIPPED, replace=False)
        labels[swap] = 1 - c
    records = []
    for i, (tone, label) in enumerate(zip(tone_class, labels)):
        x = np.sin(2 * np.pi * (25.0 + 10.0 * tone) * t + rng.uniform(0, 2 * np.pi))
        x = x + rng.normal(0.0, 1.0, TALL_SAMPLES)
        records.append(widefeat.SignalRecord(
            id=f"tall{i:04d}", samples=x, sample_rate_hz=TALL_RATE, label=int(label)))
    return records


def write_separable_dataset(rng: np.random.Generator, root: Path) -> Path:
    """Single-column CSV records whose classes differ in frequency and amplitude."""
    data = root / "csv"
    data.mkdir(parents=True)
    t = np.arange(REFINE_SAMPLES) / REFINE_RATE
    entries = []
    for i in range(REFINE_RECORDS):
        label = i % 2
        freq, amp = ((10.0, 1.0), (40.0, 2.0))[label]
        x = amp * np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
        x = x + rng.normal(0.0, 0.1, REFINE_SAMPLES)
        rid = f"sep{i:03d}"
        (data / f"{rid}.csv").write_text(
            "amplitude\n" + "\n".join(repr(float(v)) for v in x) + "\n")
        entries.append({"path": f"csv/{rid}.csv", "label": label, "id": rid})
    return _write_manifest(root, {"format": "csv_column", "class_names": ["low", "high"],
                                  "sample_rate_hz": REFINE_RATE, "records": entries})


def _write_manifest(root: Path, manifest: dict) -> Path:
    path = root / "manifest.json"
    path.write_text(json.dumps(manifest, indent=1))
    return path


def _write_config(root: Path, name: str, payload: dict) -> Path:
    path = root / name
    path.write_text(json.dumps(payload, indent=1))
    return path


# ---------------------------------------------------------------------------
# workloads

@dataclass
class Outcome:
    """What one operation produced, as the checks read it."""

    fingerprint: bytes  # must repeat byte for byte on every operation on the dataset
    run_dir: Path | None = None
    recommendation: object = None  # in-process Recommendation, when there is one
    fe2_test_accuracy: float | None = None


def _run_cli(argv: list[str], out: Path) -> Path:
    out.mkdir(parents=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--out", str(out)])
    if code != 0:
        raise RuntimeError(f"widefeat {argv[0]} exited with code {code}")
    (run_dir,) = out.iterdir()
    return run_dir


class ExtractPcg:
    name = "extract-pcg"
    salt = 1
    datasets = 1
    recommends = False

    def prepare(self, rng: np.random.Generator, root: Path) -> dict:
        return {"manifest": write_pcg_dataset(rng, root),
                "config": _write_config(root, "extract.json", README_RECOMMEND["extraction"])}

    def operation(self, inputs: dict, out: Path) -> Outcome:
        run_dir = _run_cli(["extract", str(inputs["manifest"]),
                            "--config", str(inputs["config"])], out)
        fingerprint = ((run_dir / "features.csv").read_bytes()
                       + (run_dir / "descriptors.json").read_bytes())
        return Outcome(fingerprint=fingerprint, run_dir=run_dir)


class EscalateTall:
    name = "escalate-tall"
    salt = 2
    datasets = 3
    recommends = True

    def prepare(self, rng: np.random.Generator, root: Path) -> dict:
        return {"records": tall_records(rng),
                "config": widefeat.RecommendConfig.from_dict(ESCALATE_CONFIG)}

    def operation(self, inputs: dict, out: Path) -> Outcome:
        # looked up through the module so that the traced run sees the call
        rec = widefeat.recommender.recommend(inputs["records"], inputs["config"])
        fingerprint = json.dumps(rec.to_dict(), sort_keys=True).encode()
        return Outcome(fingerprint=fingerprint, recommendation=rec,
                       fe2_test_accuracy=rec.fe2.mean_test_metric)


class DefaultRefine:
    name = "default-refine"
    salt = 3
    datasets = 3
    recommends = True

    def prepare(self, rng: np.random.Generator, root: Path) -> dict:
        return {"manifest": write_separable_dataset(rng, root),
                "config": _write_config(root, "recommend.json", README_RECOMMEND)}

    def operation(self, inputs: dict, out: Path) -> Outcome:
        run_dir = _run_cli(["recommend", str(inputs["manifest"]),
                            "--config", str(inputs["config"])], out)
        metrics = json.loads((run_dir / "metrics.json").read_text())
        return Outcome(fingerprint=(run_dir / "recommendation.json").read_bytes(),
                       run_dir=run_dir, fe2_test_accuracy=metrics["metrics"]["accuracy"])


WORKLOADS = {w.name: w for w in (ExtractPcg(), EscalateTall(), DefaultRefine())}


def prepare(workload, seed: int, root: Path) -> list[dict]:
    """The inputs of every dataset of ``workload`` under ``seed``."""
    out = []
    for j in range(workload.datasets):
        rng = np.random.default_rng([seed, workload.salt, j])
        out.append(workload.prepare(rng, root / f"dataset{j}"))
    return out
