"""Shared fixtures: synthetic datasets and on-disk manifests."""

import json
import wave
from pathlib import Path

import numpy as np
import pytest

from widefeat.classifier_eval import score_test_rows
from widefeat.dataset import SignalRecord


def make_records(labels, builder, rate=200.0, prefix="r"):
    """Build one SignalRecord per label via ``builder(index, label, rng) -> samples``."""
    records = []
    for i, label in enumerate(labels):
        rng = np.random.default_rng(1000 + i)
        records.append(SignalRecord(
            id=f"{prefix}{i}", samples=builder(i, label, rng),
            sample_rate_hz=rate, label=int(label)))
    return records


def sine_records(n_records=60, n=512, rate=200.0, freqs=(25.0, 40.0), snr_db=10.0,
                 amps=(1.0, 1.0), seed=0):
    """Two classes of noisy sinusoids differing in frequency (and optionally amplitude)."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / rate
    noise_std = np.sqrt((amps[0] ** 2 / 2) / (10 ** (snr_db / 10)))
    records = []
    for i in range(n_records):
        label = i % 2
        phase = rng.uniform(0, 2 * np.pi)
        x = amps[label] * np.sin(2 * np.pi * freqs[label] * t + phase)
        x = x + noise_std * rng.standard_normal(n)
        records.append(SignalRecord(
            id=f"s{i}", samples=x, sample_rate_hz=rate, label=label))
    return records


def amplitude_shape_records(n_records=80, n=64, rate=100.0, seed=7):
    """Classes share energy and spectrum shape but differ in amplitude distribution.

    Class 0 draws uniform white noise, class 1 Laplace white noise, both
    normalized to exactly unit energy, so separating them needs distribution
    summaries rather than energy or band features.
    """
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_records):
        label = i % 2
        if label == 0:
            x = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), n)
        else:
            x = rng.laplace(0.0, 1.0 / np.sqrt(2.0), n)
        x = x / np.sqrt(np.dot(x, x))
        records.append(SignalRecord(
            id=f"a{i}", samples=x, sample_rate_hz=rate, label=label))
    return records


def score_garbled_test_rows(outcomes, matrix, labels, plan):
    """Stand-in for ``widefeat.recommender.score_test_rows`` that scores every fold's
    test rows as if each of their values were 1e9."""
    return score_test_rows(outcomes, np.full(matrix.values.shape, 1e9), labels, plan)


def write_csv_dataset(tmp_path: Path, records, rate, class_names=("neg", "pos")):
    """Write records as single-column CSVs plus a manifest; returns the manifest path."""
    data_dir = tmp_path / "data"
    data_dir.mkdir(exist_ok=True)
    entries = []
    for rec in records:
        path = data_dir / f"{rec.id}.csv"
        path.write_text("amplitude\n" + "\n".join(repr(float(v)) for v in rec.samples) + "\n")
        entries.append({"path": f"data/{rec.id}.csv", "label": rec.label, "id": rec.id})
    manifest = {
        "format": "csv_column",
        "class_names": list(class_names),
        "sample_rate_hz": rate,
        "records": entries,
    }
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2))
    return manifest_path


def write_wav(path: Path, samples_int, sampwidth=2, rate=44100, channels=1):
    """Encode integer PCM samples with the stdlib writer (independent of our reader)."""
    arr = np.asarray(samples_int)
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(channels)
        wav.setsampwidth(sampwidth)
        wav.setframerate(rate)
        if sampwidth == 1:
            frames = arr.astype(np.uint8).tobytes()
        elif sampwidth == 2:
            frames = arr.astype("<i2").tobytes()
        elif sampwidth == 3:
            out = bytearray()
            for v in arr.astype(np.int64):
                out += int(v & 0xFFFFFF).to_bytes(3, "little")
            frames = bytes(out)
        else:
            raise ValueError(sampwidth)
        wav.writeframes(frames)
    return path


def write_wav_dataset(root: Path, rows, rate=1000, name="manifest.json") -> Path:
    """Write integer rows as 16-bit mono WAVs ``r<i>.wav`` with label ``i % 2``, plus a
    manifest named ``name`` listing them; returns the manifest path."""
    entries = []
    for i, row in enumerate(rows):
        write_wav(root / f"r{i}.wav", row, sampwidth=2, rate=rate)
        entries.append({"path": f"r{i}.wav", "label": i % 2, "id": f"r{i}"})
    manifest = root / name
    manifest.write_text(json.dumps({"format": "wav", "class_names": ["a", "b"],
                                    "records": entries}))
    return manifest


@pytest.fixture
def planted_manifest(tmp_path):
    """Small planted-frequency dataset on disk, for CLI tests."""
    records = sine_records(n_records=60, n=256, rate=200.0, seed=11)
    return write_csv_dataset(tmp_path, records, rate=200.0)
