"""Hierarchical feature extraction with per-feature lineage.

Level 0 holds the transform-domain representations (raw time series, STFT
magnitudes, DWT bands under an automatically chosen mother wavelet) plus a
few raw summaries of them.  Level 1 summarizes those representations with a
fixed statistical / spectral / peak-trough catalog.  Level 2 derives guarded
ratios of declared level-1 pairs and recomputes the statistical catalog on
the first and second differences of the time series.  The statistical
catalog is the ``STAT_NAMES`` tuple; ``_statistics`` computes all of it for
one array in one pass.

Every column is described by a :class:`FeatureDescriptor` whose lineage
renders to a parseable path such as ``"dwt(db4)/detail3 → energy"``.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.signal import find_peaks

from .errors import (ConfigError, DegenerateSignalError, ValidationError, is_int, known_keys,
                     list_setting, real_setting, require_int)
from .stft import rfft_bin_frequencies, stft
from .wavelets import (WAVELET_BANK, dwt_decompose, dwt_max_depth, filter_length,
                       select_mother_wavelet, shannon_entropy)

PATH_SEP = " → "
MAX_LEVEL = 2  # levels run 0..MAX_LEVEL
_GUARD_EPS = 1e-12
_VAR_FLOOR = 1e-24  # below this the signal counts as constant for moment ratios
_ROOT_RE = re.compile(r"^(time|stft|dwt\([A-Za-z0-9_.]+\))(/(approx|detail)\d+)?$")


@dataclass(frozen=True)
class FeatureDescriptor:
    """Identity and lineage of one feature column."""

    id: int
    level: int
    lineage: tuple[str, ...]

    @property
    def name(self) -> str:
        return PATH_SEP.join(self.lineage)

    @property
    def transform_root(self) -> str:
        return self.lineage[0].split("/", 1)[0]


def parse_lineage_path(path: str) -> tuple[str, ...]:
    """Split a rendered lineage path back into its stages, validating the root."""
    stages = tuple(s.strip() for s in path.split(PATH_SEP))
    if not stages or any(not s for s in stages):
        raise ValueError(f"malformed lineage path {path!r}")
    if not _ROOT_RE.match(stages[0]):
        raise ValueError(f"lineage must start with a transform stage, got {stages[0]!r}")
    return stages


@dataclass(frozen=True)
class FeatureMatrix:
    """Records-by-features value table with bound descriptors."""

    values: np.ndarray
    descriptors: tuple[FeatureDescriptor, ...]
    record_ids: tuple[str, ...]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if v.shape != (len(self.record_ids), len(self.descriptors)):
            raise ValidationError(
                f"matrix shape {v.shape} does not match {len(self.record_ids)} records "
                f"x {len(self.descriptors)} descriptors")

    @property
    def n_records(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def columns_up_to_level(self, max_level: int) -> int:
        return sum(1 for d in self.descriptors if d.level <= max_level)

    def level_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for d in self.descriptors:
            counts[d.level] = counts.get(d.level, 0) + 1
        return counts

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["record_id"] + [d.name for d in self.descriptors])
            for rid, row in zip(self.record_ids, self.values):
                writer.writerow([rid] + [repr(float(v)) for v in row])

    def descriptors_to_json(self, path) -> None:
        payload = {
            "schema_version": 1,
            "descriptors": [
                {"id": d.id, "level": d.level, "lineage": list(d.lineage), "name": d.name}
                for d in self.descriptors
            ],
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")


@dataclass(frozen=True)
class ExtractionConfig:
    stft_window: int = 256
    stft_hop: int = 128
    wavelet_bank: tuple[str, ...] = WAVELET_BANK  # a one-entry bank pins the wavelet
    dwt_depth: int = 4
    peak_prominence_frac: float = 0.1
    peak_min_separation_frac: float = 0.05

    def __post_init__(self):
        window = self.stft_window
        if not (is_int(window) and window >= 2) or window & (window - 1):
            raise ConfigError(f"stft window must be a power of two, got {window!r}")
        require_int(self.stft_hop, "stft hop", 1)
        require_int(self.dwt_depth, "dwt depth", 1)
        if not self.wavelet_bank:
            raise ConfigError("dwt needs a non-empty wavelet bank")
        for name in self.wavelet_bank:
            try:
                filter_length(name)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExtractionConfig":
        known_keys(raw, "stft dwt peaks", "extraction")
        stft_cfg = known_keys(raw.get("stft", {}), "window hop", "stft")
        dwt_cfg = known_keys(raw.get("dwt", {}), "bank depth", "dwt")
        peaks = known_keys(raw.get("peaks", {}), "prominence_frac min_separation_frac", "peaks")
        return cls(
            stft_window=stft_cfg.get("window", 256),
            stft_hop=stft_cfg.get("hop", 128),
            wavelet_bank=list_setting(dwt_cfg.get("bank", WAVELET_BANK), "dwt.bank"),
            dwt_depth=dwt_cfg.get("depth", 4),
            peak_prominence_frac=real_setting(peaks.get("prominence_frac", 0.1),
                                              "peaks.prominence_frac"),
            peak_min_separation_frac=real_setting(peaks.get("min_separation_frac", 0.05),
                                                  "peaks.min_separation_frac"),
        )

    def to_dict(self) -> dict:
        return {
            "stft": {"window": self.stft_window, "hop": self.stft_hop},
            "dwt": {"bank": list(self.wavelet_bank), "depth": self.dwt_depth},
            "peaks": {"prominence_frac": self.peak_prominence_frac,
                      "min_separation_frac": self.peak_min_separation_frac},
        }


# ---------------------------------------------------------------------------
# scalar statistics with degenerate-input guards; every value stays finite

def _guard_ratio(num: float, den: float) -> float:
    if abs(den) < _GUARD_EPS:
        return 0.0
    return num / den


STAT_NAMES = ("mean", "std", "variance", "skewness", "kurtosis", "rms", "min", "max",
              "range", "median", "iqr", "mad", "zero_crossing_rate", "line_length",
              "hist_entropy")


def _statistics(x: np.ndarray) -> tuple[float, ...]:
    """The statistical catalog of one array, in ``STAT_NAMES`` order.

    The mean, central moments and extremes are computed once.  Skewness and
    kurtosis are 0 below ``_VAR_FLOOR``, the zero-crossing rate and line
    length are 0 below two samples, and the 16-bin amplitude histogram
    entropy is 0 when every sample is equal.
    """
    mu = float(np.mean(x))
    d = x - mu
    m2 = float(np.mean(d * d))
    skew = kurt = 0.0
    if m2 >= _VAR_FLOOR:
        skew = float(np.mean(d ** 3)) / m2 ** 1.5
        kurt = float(np.mean(d ** 4)) / (m2 * m2) - 3.0
    lo, hi = float(np.min(x)), float(np.max(x))
    q25, q75 = np.percentile(x, (25, 75))
    zcr = line = entropy = 0.0
    if x.size >= 2:
        zcr = float(np.count_nonzero(x[:-1] * x[1:] < 0)) / (x.size - 1)
        line = float(np.sum(np.abs(np.diff(x))))
    if hi > lo:
        counts, _ = np.histogram(x, bins=16, range=(lo, hi))
        entropy = shannon_entropy(counts / x.size)
    return (mu, math.sqrt(m2), m2, skew, kurt, float(np.sqrt(np.mean(x * x))), lo, hi,
            hi - lo, float(np.median(x)), float(q75 - q25), float(np.mean(np.abs(d))),
            zcr, line, entropy)


SPECTRAL_NAMES = ("spectral_centroid_hz", "spectral_spread_hz", "rolloff85_hz",
                  "flatness", "spectral_entropy", "flux_mean",
                  "log_band_ratio_1", "log_band_ratio_2",
                  "log_band_ratio_3", "log_band_ratio_4")

PEAK_NAMES = ("peak_count", "trough_count", "peak_amp_mean", "peak_amp_std",
              "peak_interval_mean_s", "peak_interval_std_s", "peak_trough_amp_mean")


def _spectral_features(avg_mag: np.ndarray, freqs: np.ndarray, mags: np.ndarray) -> dict[str, float]:
    out = dict.fromkeys(SPECTRAL_NAMES, 0.0)
    total_mag = float(np.sum(avg_mag))
    power = avg_mag * avg_mag
    total_power = float(np.sum(power))
    if total_mag > 0.0:
        centroid = float(np.sum(freqs * avg_mag)) / total_mag
        out["spectral_centroid_hz"] = centroid
        out["spectral_spread_hz"] = float(
            np.sqrt(np.sum((freqs - centroid) ** 2 * avg_mag) / total_mag))
    if total_power > 0.0:
        cum = np.cumsum(power)
        out["rolloff85_hz"] = float(freqs[int(np.searchsorted(cum, 0.85 * total_power))])
        if np.all(power > 0.0):
            out["flatness"] = float(np.exp(np.mean(np.log(power))) / np.mean(power))
        out["spectral_entropy"] = shannon_entropy(power / total_power)
        # four log-spaced bands over the non-DC bins
        edges = np.geomspace(freqs[1], freqs[-1], 5)
        band_power = power[1:]
        band_freqs = freqs[1:]
        denom = float(np.sum(band_power))
        if denom > 0.0:
            for i in range(4):
                hi_ok = band_freqs <= edges[i + 1] if i == 3 else band_freqs < edges[i + 1]
                mask = (band_freqs >= edges[i]) & hi_ok
                out[f"log_band_ratio_{i + 1}"] = float(np.sum(band_power[mask])) / denom
    if mags.shape[0] > 1:
        out["flux_mean"] = float(np.mean(
            np.sqrt(np.sum(np.diff(mags, axis=0) ** 2, axis=1))))
    return out


def _peak_features(x: np.ndarray, rate: float, config: ExtractionConfig) -> dict[str, float]:
    out = dict.fromkeys(PEAK_NAMES, 0.0)
    span = float(np.max(x) - np.min(x))
    if span <= 0.0:
        return out
    prominence = config.peak_prominence_frac * span
    distance = max(1, round(config.peak_min_separation_frac * x.size))
    peaks, _ = find_peaks(x, prominence=prominence, distance=distance)
    troughs, _ = find_peaks(-x, prominence=prominence, distance=distance)
    out["peak_count"] = float(peaks.size)
    out["trough_count"] = float(troughs.size)
    if peaks.size:
        amps = x[peaks]
        out["peak_amp_mean"] = float(np.mean(amps))
        out["peak_amp_std"] = float(np.std(amps))
        if peaks.size >= 2:
            gaps = np.diff(peaks) / rate
            out["peak_interval_mean_s"] = float(np.mean(gaps))
            out["peak_interval_std_s"] = float(np.std(gaps))
    if peaks.size and troughs.size:
        out["peak_trough_amp_mean"] = float(np.mean(x[peaks]) - np.mean(x[troughs]))
    return out


# ---------------------------------------------------------------------------
# per-record extraction

@dataclass
class RecordFragment:
    """Feature values extracted so far for one record, plus its representations."""

    record_id: str
    level: int
    descriptors: list[FeatureDescriptor]
    values: list[float]
    samples: np.ndarray = field(repr=False)
    sample_rate_hz: float = 0.0
    wavelet: str = ""
    depth: int = 0
    bands: list[tuple[str, np.ndarray]] = field(default_factory=list, repr=False)
    stft_mags: np.ndarray | None = field(default=None, repr=False)
    stft_freqs: np.ndarray | None = field(default=None, repr=False)
    config: ExtractionConfig | None = None
    _by_key: dict[tuple[str, ...], float] = field(default_factory=dict, repr=False)

    def append(self, level: int, lineage: tuple[str, ...], value: float) -> None:
        value = float(value)
        if not np.isfinite(value):
            raise ValidationError(
                f"record {self.record_id!r}: non-finite value for {PATH_SEP.join(lineage)}")
        self.descriptors.append(FeatureDescriptor(id=len(self.descriptors), level=level,
                                                  lineage=lineage))
        self.values.append(value)
        self._by_key[lineage] = value

    def value_of(self, source: str, stat: str) -> float:
        return self._by_key[(source, stat)]


def band_names(depth: int) -> list[str]:
    return [f"approx{depth}"] + [f"detail{lev}" for lev in range(depth, 0, -1)]


def extract_level0(record, config: ExtractionConfig) -> RecordFragment:
    """Compute the level-0 representations and their scalar summaries."""
    x = np.asarray(record.samples, dtype=float)
    rate = float(record.sample_rate_hz)
    wavelet, depth = choose_dataset_wavelet([record], config)

    window = config.stft_window
    hop = config.stft_hop
    if window > x.size:
        # shrink to the largest power of two that fits, keeping 50% overlap
        window = 1 << (x.size.bit_length() - 1)
        hop = max(1, window // 2)
    hop = min(hop, window)
    mags = stft(x, window, hop)
    freqs = rfft_bin_frequencies(window, rate)

    names = band_names(depth)
    bands = list(zip(names, dwt_decompose(x, wavelet, depth)))

    frag = RecordFragment(
        record_id=record.id, level=0, descriptors=[], values=[],
        samples=x, sample_rate_hz=rate, wavelet=wavelet, depth=depth,
        bands=bands, stft_mags=mags, stft_freqs=freqs, config=config)

    frag.append(0, ("time", "energy"), float(np.dot(x, x)))
    energies = {name: float(np.dot(b, b)) for name, b in bands}
    total = sum(energies.values())
    for name, _ in bands:
        frag.append(0, (f"dwt({wavelet})/{name}", "energy"), energies[name])
    for name, _ in bands:
        rel = energies[name] / total if total > 0.0 else 0.0
        frag.append(0, (f"dwt({wavelet})/{name}", "relative_energy"), rel)
    for name, b in bands:
        energy = energies[name]
        entropy = shannon_entropy(b * b / energy) if energy > 0.0 else 0.0
        frag.append(0, (f"dwt({wavelet})/{name}", "entropy"), entropy)
    avg = mags.mean(axis=0)
    frag.append(0, ("stft", "dominant_frequency_hz"), float(freqs[int(np.argmax(avg))]))
    return frag


def extract_level1(frag: RecordFragment) -> RecordFragment:
    """Append the statistical / spectral / peak-trough catalog to a level-0 fragment."""
    if frag.level != 0:
        raise ValueError("extract_level1 expects a level-0 fragment")
    for stat, value in zip(STAT_NAMES, _statistics(frag.samples)):
        frag.append(1, ("time", stat), value)
    for name, b in frag.bands:
        for stat, value in zip(STAT_NAMES, _statistics(b)):
            frag.append(1, (f"dwt({frag.wavelet})/{name}", stat), value)
    spectral = _spectral_features(frag.stft_mags.mean(axis=0), frag.stft_freqs, frag.stft_mags)
    for stat in SPECTRAL_NAMES:
        frag.append(1, ("stft", stat), spectral[stat])
    peaks = _peak_features(frag.samples, frag.sample_rate_hz, frag.config)
    for stat in PEAK_NAMES:
        frag.append(1, ("time", stat), peaks[stat])
    frag.level = 1
    return frag


#: Declared level-1 ratio pairs: (root stage, numerator stat, denominator stat).
RATIO_PAIRS: tuple[tuple[str, str, str], ...] = (
    ("stft", "spectral_centroid_hz", "spectral_spread_hz"),
    ("stft", "rolloff85_hz", "spectral_centroid_hz"),
    ("time", "rms", "range"),
    ("time", "peak_count", "trough_count"),
    ("time", "iqr", "std"),
)


def extract_level2(frag: RecordFragment) -> RecordFragment:
    """Append guarded ratios and difference-signal statistics to a level-1 fragment."""
    if frag.level != 1:
        raise ValueError("extract_level2 expects a level-1 fragment")
    for root, num, den in RATIO_PAIRS:
        value = _guard_ratio(frag.value_of(root, num), frag.value_of(root, den))
        frag.append(2, (root, "guarded_ratio", f"{num}/{den}"), value)
    names = [name for name, _ in frag.bands]
    dwt_root = f"dwt({frag.wavelet})"
    for upper, lower in zip(names, names[1:]):
        value = _guard_ratio(frag.value_of(f"{dwt_root}/{upper}", "energy"),
                             frag.value_of(f"{dwt_root}/{lower}", "energy"))
        frag.append(2, (dwt_root, "guarded_ratio", f"energy({upper})/energy({lower})"), value)
    d1 = np.diff(frag.samples)
    d2 = np.diff(frag.samples, n=2)
    for tag, arr in (("d1", d1), ("d2", d2)):
        for stat, value in zip(STAT_NAMES, _statistics(arr)):
            frag.append(2, ("time", tag, stat), value)
    frag.level = 2
    return frag


def choose_dataset_wavelet(records, config: ExtractionConfig) -> tuple[str, int]:
    """Pick one mother wavelet and decomposition depth for a whole dataset.

    Each record votes for its own best-scoring wavelet; records whose details
    vanish (constant signals) abstain.  Ties, and the all-abstain case, fall
    back to bank order.  The depth is the configured depth clamped so the
    shortest record still supports it.
    """
    min_len = min(r.samples.size for r in records)
    usable = [w for w in config.wavelet_bank if dwt_max_depth(min_len, w) >= 1]
    if not usable:
        raise ConfigError(f"no wavelet in bank {config.wavelet_bank} fits {min_len}-sample records")
    if len(usable) == 1:
        name = usable[0]
    else:
        vote_depth = min(config.dwt_depth, min(dwt_max_depth(min_len, w) for w in usable))
        votes: dict[str, int] = {w: 0 for w in usable}
        for record in records:
            try:
                choice = select_mother_wavelet(record.samples, usable, vote_depth)
            except DegenerateSignalError:
                continue
            votes[choice.wavelet_name] += 1
        name = max(usable, key=lambda w: votes[w])  # max is stable: ties keep bank order
    depth = min(config.dwt_depth, dwt_max_depth(min_len, name))
    if depth < 1:
        raise ConfigError(f"records of {min_len} samples are too short for wavelet {name!r}")
    return name, depth


def build_feature_matrix(records, config: ExtractionConfig, max_level: int) -> FeatureMatrix:
    """Extract features for every record up to ``max_level`` (0, 1 or 2).

    The descriptor set is identical for every record: the mother wavelet and
    decomposition depth are fixed dataset-wide before extraction.  Column
    order is deterministic (by level, then catalog order).
    """
    records = list(records)
    if not records:
        raise ConfigError("cannot build a feature matrix from zero records")
    require_int(max_level, "max_level", 0, MAX_LEVEL)
    rates = {float(r.sample_rate_hz) for r in records}
    if len(rates) != 1:
        raise ConfigError(f"records mix sample rates {sorted(rates)}; resample upstream")
    wavelet, depth = choose_dataset_wavelet(records, config)
    pinned = replace(config, wavelet_bank=(wavelet,), dwt_depth=depth)

    rows = []
    descriptors: tuple[FeatureDescriptor, ...] | None = None
    for record in records:
        frag = extract_level0(record, pinned)
        if max_level >= 1:
            frag = extract_level1(frag)
        if max_level >= 2:
            frag = extract_level2(frag)
        if descriptors is None:
            descriptors = tuple(frag.descriptors)
        rows.append(frag.values)
    return FeatureMatrix(values=np.asarray(rows, dtype=float), descriptors=descriptors,
                         record_ids=tuple(r.id for r in records))


# ---------------------------------------------------------------------------
# human-readable descriptions

_STAT_PHRASES = {
    "mean": "mean", "std": "standard deviation", "variance": "variance",
    "skewness": "skewness", "kurtosis": "excess kurtosis", "rms": "RMS",
    "min": "minimum", "max": "maximum", "range": "range", "median": "median",
    "iqr": "interquartile range (IQR)", "mad": "mean absolute deviation",
    "zero_crossing_rate": "zero-crossing rate", "line_length": "line length",
    "hist_entropy": "amplitude histogram entropy", "energy": "energy",
    "relative_energy": "relative energy", "entropy": "energy entropy",
    "dominant_frequency_hz": "dominant frequency (Hz)",
    "spectral_centroid_hz": "spectral centroid (Hz)",
    "spectral_spread_hz": "spectral spread (Hz)",
    "rolloff85_hz": "85% spectral rolloff (Hz)", "flatness": "spectral flatness",
    "spectral_entropy": "spectral entropy", "flux_mean": "mean spectral flux",
    "log_band_ratio_1": "energy share of log-frequency band 1",
    "log_band_ratio_2": "energy share of log-frequency band 2",
    "log_band_ratio_3": "energy share of log-frequency band 3",
    "log_band_ratio_4": "energy share of log-frequency band 4",
    "peak_count": "peak count", "trough_count": "trough count",
    "peak_amp_mean": "mean peak amplitude", "peak_amp_std": "peak amplitude spread",
    "peak_interval_mean_s": "mean inter-peak interval (s)",
    "peak_interval_std_s": "inter-peak interval spread (s)",
    "peak_trough_amp_mean": "mean peak-to-trough amplitude",
}

_BAND_RE = re.compile(r"^(approx|detail)(\d+)$")


def _source_phrase(stage: str) -> str:
    if stage == "time":
        return "the raw time series"
    if stage == "stft":
        return "the averaged STFT magnitude spectrum"
    root, _, band = stage.partition("/")
    wavelet = root[4:-1]
    if band:
        kind, lev = _BAND_RE.match(band).groups()
        word = "approximation" if kind == "approx" else "detail"
        return f"DWT {word} band {lev} under {wavelet}"
    return f"the DWT bands under {wavelet}"


def describe(descriptor: FeatureDescriptor) -> str:
    """Plain-language rendering of one feature, e.g. for expert review."""
    stages = descriptor.lineage
    if len(stages) >= 2 and stages[1] == "guarded_ratio":
        return f"guarded ratio {stages[2]} within {_source_phrase(stages[0])}"
    if len(stages) == 3 and stages[1] in ("d1", "d2"):
        nth = "first" if stages[1] == "d1" else "second"
        stat = _STAT_PHRASES.get(stages[2], stages[2])
        return f"{stat} of the {nth} difference of the time series"
    stat = _STAT_PHRASES.get(stages[-1], stages[-1])
    return f"{stat} of {_source_phrase(stages[0])}"
