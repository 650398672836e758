"""Signal dataset ingestion, validation, and stratified fold planning.

Datasets are described by a JSON manifest pointing at one signal file per
record.  Two file formats are supported: a single-column CSV (optional one
line header) and PCM WAV (8/16/24-bit; channel 0 of multichannel files),
whose samples are rescaled to [-1, 1].  WAV records are read from their
files when their samples are asked for, so a loaded WAV dataset holds no
samples in memory.
"""

from __future__ import annotations

import json
import sys
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, LoadError, ValidationError, is_int, is_real, require_int

MIN_SAMPLES = 16
MIN_FOLDS, MAX_FOLDS = 5, 10
# Feature statistics sum fourth powers of deviations over a record.  Second
# differences reach 4x the peak sample and their deviations from the mean 8x,
# so n * (8 * peak)^4 must stay below the float64 maximum.
_STAT_GAIN = 8.0


def _check_record(rid: str, n_samples: int, rate: float, label: int) -> None:
    if n_samples < MIN_SAMPLES:
        raise ValidationError(f"record {rid!r}: needs >= {MIN_SAMPLES} samples, got {n_samples}")
    if not rate > 0:
        raise ValidationError(f"record {rid!r}: sample rate must be positive, got {rate}")
    if label < 0:
        raise ValidationError(f"record {rid!r}: label must be a 0-based class index")


@dataclass(frozen=True)
class SignalRecord:
    """One labeled signal instance."""

    id: str
    samples: np.ndarray
    sample_rate_hz: float
    label: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise ValidationError(
                f"record {self.id!r}: samples must be 1-D, got shape {samples.shape}")
        _check_record(self.id, samples.size, self.sample_rate_hz, self.label)
        if not np.isfinite(samples).all():
            raise ValidationError(f"record {self.id!r}: samples contain NaN or Inf")
        limit = (sys.float_info.max / samples.size) ** 0.25 / _STAT_GAIN
        if np.max(np.abs(samples)) > limit:
            raise ValidationError(
                f"record {self.id!r}: samples above {limit:.3g} in magnitude overflow "
                f"the feature statistics; rescale upstream")

    @property
    def n_samples(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class WavRecord:
    """One labeled WAV record that holds its file's path, not its samples.

    Each ``samples`` access reads the file again, so a dataset of these keeps
    no samples in memory.  PCM samples lie in [-1, 1], so they are finite and
    within the feature statistics' magnitude limit by construction.
    """

    id: str
    path: Path
    n_samples: int
    sample_rate_hz: float
    label: int

    def __post_init__(self):
        _check_record(self.id, self.n_samples, self.sample_rate_hz, self.label)

    @property
    def samples(self) -> np.ndarray:
        samples = _read_wav(self.path)
        if samples.size != self.n_samples:
            raise LoadError(f"{self.path}: now holds {samples.size} samples, not the "
                            f"{self.n_samples} it held when the dataset was loaded")
        samples.flags.writeable = False
        return samples


@dataclass(frozen=True)
class ManifestEntry:
    path: Path
    label: int
    id: str


@dataclass(frozen=True)
class DatasetManifest:
    records: tuple[ManifestEntry, ...]
    format: str
    class_names: tuple[str, ...]
    sample_rate_hz: float | None = None

    def validate(self) -> None:
        if self.format not in ("csv_column", "wav"):
            raise ValidationError(f"unknown manifest format {self.format!r}")
        if self.format == "csv_column" and not (self.sample_rate_hz and self.sample_rate_hz > 0):
            raise ValidationError("csv_column manifests require a positive sample_rate_hz")
        labels = {e.label for e in self.records}
        if len(labels) != 2:
            raise ValidationError(
                f"classification is binary only: the manifest needs exactly 2 distinct "
                f"labels, found {sorted(labels)}")
        for e in self.records:
            if not 0 <= e.label < len(self.class_names):
                raise ValidationError(
                    f"record {e.id!r}: label {e.label} outside class_names range")
            if not e.path.is_file():
                raise ValidationError(f"record {e.id!r}: missing file {e.path}")
        ids = [e.id for e in self.records]
        if len(set(ids)) != len(ids):
            dupe = next(i for i in ids if ids.count(i) > 1)
            raise ValidationError(f"duplicate record id {dupe!r}; set explicit ids in the manifest")


def load_manifest(path) -> DatasetManifest:
    """Parse a manifest JSON file; relative record paths resolve against it."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise LoadError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"manifest {path} is not valid JSON: {exc}") from exc
    try:
        entries = []
        for item in raw["records"]:
            p = Path(item["path"])
            if not p.is_absolute():
                p = path.parent / p
            if not is_int(item["label"]):
                raise TypeError(f"record label must be an integer, got {item['label']!r}")
            entries.append(ManifestEntry(
                path=p, label=int(item["label"]), id=str(item.get("id", p.stem))))
        class_names = raw["class_names"]
        if not (isinstance(class_names, list) and all(isinstance(c, str) for c in class_names)):
            raise TypeError(f"class_names must be a list of strings, got {class_names!r}")
        rate = raw.get("sample_rate_hz")
        if rate is not None and not is_real(rate):
            raise TypeError(f"sample_rate_hz must be a number, got {rate!r}")
        manifest = DatasetManifest(
            records=tuple(entries),
            format=str(raw["format"]),
            class_names=tuple(class_names),
            sample_rate_hz=None if rate is None else float(rate),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"manifest {path} is malformed: {exc}") from exc
    manifest.validate()
    return manifest


def _read_csv_column(path: Path) -> np.ndarray:
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise LoadError(f"cannot read {path}: {exc}") from exc
    values = []
    for lineno, line in enumerate(lines):
        text = line.strip()
        if not text:
            continue
        try:
            values.append(float(text))
        except ValueError:
            if lineno == 0 and not values:
                continue  # optional header line
            raise LoadError(f"{path}: non-numeric value {text!r} on line {lineno + 1}") from None
    return np.asarray(values, dtype=float)


def _wav_frames(path: Path, count_only: bool = False) -> tuple[bytes, int, int, int, float]:
    """A PCM WAV file's sample bytes, frame count, sample width, channel count and rate.
    With ``count_only`` the bytes are empty when the last frame is whole: then all are."""
    try:
        with wave.open(str(path), "rb") as wav:
            width, channels, rate = wav.getsampwidth(), wav.getnchannels(), wav.getframerate()
            n, whole = wav.getnframes(), False
            if count_only and n:
                wav.setpos(n - 1)
                whole = len(wav.readframes(1)) == width * channels
                wav.setpos(0)
            frames = b"" if whole else wav.readframes(n)
    except (OSError, wave.Error, EOFError) as exc:
        raise LoadError(f"cannot read {path}: {exc}") from exc
    if len(frames) % (width * channels):
        raise LoadError(f"{path}: {len(frames)} bytes of sample data are not a whole number "
                        f"of {width * channels}-byte frames; the file is truncated")
    if width not in (1, 2, 3):
        raise LoadError(f"{path}: unsupported PCM sample width {width * 8} bits")
    return frames, n if whole else len(frames) // (width * channels), width, channels, float(rate)


def _read_wav(path: Path) -> np.ndarray:
    """Channel 0 of a PCM WAV file as a contiguous float64 array in [-1, 1]."""
    frames, _, width, channels, _ = _wav_frames(path)
    if width == 1:
        data = np.frombuffer(frames, dtype=np.uint8)[::channels].astype(np.float64)
        samples = (data - 128.0) / 128.0
    elif width == 2:
        data = np.frombuffer(frames, dtype="<i2")[::channels].astype(np.float64)
        samples = data / 32768.0
    else:
        raw = np.frombuffer(frames, dtype=np.uint8).reshape(-1, 3)[::channels].astype(np.int32)
        data = raw[:, 0] | (raw[:, 1] << 8) | (raw[:, 2] << 16)
        data = np.where(data >= 1 << 23, data - (1 << 24), data)
        samples = data.astype(np.float64) / 8388608.0
    return samples


def load_dataset(manifest: DatasetManifest) -> list[SignalRecord | WavRecord]:
    """Load every manifest entry into a validated record.

    A CSV column becomes a :class:`SignalRecord` that holds its samples.  A
    WAV file becomes a :class:`WavRecord`: its header and last frame are read
    here, and the whole file each time its samples are asked for.
    """
    manifest.validate()
    records = []
    for entry in manifest.records:
        if manifest.format == "csv_column":
            records.append(SignalRecord(id=entry.id, samples=_read_csv_column(entry.path),
                                        sample_rate_hz=manifest.sample_rate_hz,
                                        label=entry.label))
        else:
            _, n, _, _, rate = _wav_frames(entry.path, count_only=True)
            records.append(WavRecord(id=entry.id, path=entry.path, n_samples=n,
                                     sample_rate_hz=rate, label=entry.label))
    return records


def binary_labels(records, positive_class: int | None) -> np.ndarray:
    """The records' labels; they must hold exactly two classes, and
    ``positive_class``, when set, must be one of them."""
    labels = np.asarray([r.label for r in records])
    classes = sorted({int(label) for label in labels})
    if len(classes) != 2:
        raise ValidationError(f"classification needs binary labels, found classes {classes}")
    if positive_class is not None and positive_class not in classes:
        raise ValidationError(f"positive_class {positive_class} is not one of the labels {classes}")
    return labels


@dataclass(frozen=True)
class FoldPlan:
    """Stratified fold assignment for a fixed record order."""

    p: int
    assignments: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.assignments, dtype=int)
        a.flags.writeable = False
        object.__setattr__(self, "assignments", a)

    def fold_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)


def make_folds(records, p: int, seed: int) -> FoldPlan:
    """Assign records to ``p`` stratified folds, deterministically under ``seed``.

    Per class, fold sizes differ by at most one.  Every class must have at
    least ``p`` members.
    """
    require_int(p, "fold count p", MIN_FOLDS, MAX_FOLDS)
    labels = np.asarray([r.label for r in records], dtype=int)
    rng = np.random.default_rng(seed)
    assignments = np.full(labels.size, -1, dtype=int)
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        if members.size < p:
            raise ConfigError(
                f"class {cls} has {members.size} records; needs >= {p} for {p}-fold plans")
        rng.shuffle(members)
        assignments[members] = np.arange(members.size) % p
    return FoldPlan(p=p, assignments=assignments)


def fold_roles(plan: FoldPlan, test_fold: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split record indices into (train, eval, test) for one fold choice.

    The eval fold is the one after the test fold, wrapping around, so every
    fold serves each role exactly once across a full rotation.  Test indices
    must stay out of selection and model tuning.
    """
    if not 0 <= test_fold < plan.p:
        raise ValueError(f"test_fold {test_fold} out of range for p={plan.p}")
    eval_fold = (test_fold + 1) % plan.p
    test_idx = plan.fold_indices(test_fold)
    eval_idx = plan.fold_indices(eval_fold)
    train_idx = np.flatnonzero(
        (plan.assignments != test_fold) & (plan.assignments != eval_fold))
    return train_idx, eval_idx, test_idx
