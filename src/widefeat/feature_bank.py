"""Hierarchical feature extraction with per-feature lineage.

Level 0 holds the transform-domain representations (raw time series, STFT
magnitudes, DWT bands under an automatically chosen mother wavelet) plus a
few raw summaries of them.  Level 1 summarizes those representations with a
fixed statistical / spectral / peak-trough catalog.  Level 2 derives guarded
ratios of declared level-1 pairs and recomputes the statistical catalog on
the first and second differences of the time series.

Every column is described by a :class:`FeatureDescriptor` whose lineage
renders to a parseable path such as ``"dwt(db4)/detail3 → energy"``.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.signal import find_peaks

from .errors import ConfigError, DegenerateSignalError, ValidationError, known_keys
from .stft import rfft_bin_frequencies, stft
from .wavelets import (WAVELET_BANK, dwt_decompose, dwt_max_depth, filter_length,
                       select_mother_wavelet)

PATH_SEP = " → "
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
        if self.stft_window < 2 or self.stft_window & (self.stft_window - 1):
            raise ConfigError(f"stft window must be a power of two, got {self.stft_window}")
        if self.stft_hop < 1:
            raise ConfigError(f"stft hop must be >= 1, got {self.stft_hop}")
        if not self.wavelet_bank or self.dwt_depth < 1:
            raise ConfigError("dwt needs a non-empty wavelet bank and a depth >= 1")
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
            stft_window=int(stft_cfg.get("window", 256)),
            stft_hop=int(stft_cfg.get("hop", 128)),
            wavelet_bank=tuple(dwt_cfg.get("bank", WAVELET_BANK)),
            dwt_depth=int(dwt_cfg.get("depth", 4)),
            peak_prominence_frac=float(peaks.get("prominence_frac", 0.1)),
            peak_min_separation_frac=float(peaks.get("min_separation_frac", 0.05)),
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


def _moments(x: np.ndarray) -> tuple[float, float, float, float]:
    mu = float(np.mean(x))
    d = x - mu
    m2 = float(np.mean(d * d))
    m3 = float(np.mean(d ** 3))
    m4 = float(np.mean(d ** 4))
    return mu, m2, m3, m4


def _skewness(x: np.ndarray) -> float:
    _, m2, m3, _ = _moments(x)
    if m2 < _VAR_FLOOR:
        return 0.0
    return m3 / m2 ** 1.5


def _kurtosis_excess(x: np.ndarray) -> float:
    _, m2, _, m4 = _moments(x)
    if m2 < _VAR_FLOOR:
        return 0.0
    return m4 / (m2 * m2) - 3.0


def _zero_crossing_rate(x: np.ndarray) -> float:
    if x.size < 2:
        return 0.0
    return float(np.count_nonzero(x[:-1] * x[1:] < 0)) / (x.size - 1)


def _line_length(x: np.ndarray) -> float:
    if x.size < 2:
        return 0.0
    return float(np.sum(np.abs(np.diff(x))))


def _hist_entropy(x: np.ndarray, bins: int = 16) -> float:
    lo, hi = float(np.min(x)), float(np.max(x))
    if hi <= lo:
        return 0.0
    counts, _ = np.histogram(x, bins=bins, range=(lo, hi))
    p = counts[counts > 0] / x.size
    return float(-np.sum(p * np.log(p)))


STAT_CATALOG: tuple[tuple[str, object], ...] = (
    ("mean", lambda x: float(np.mean(x))),
    ("std", lambda x: float(np.std(x))),
    ("variance", lambda x: float(np.var(x))),
    ("skewness", _skewness),
    ("kurtosis", _kurtosis_excess),
    ("rms", lambda x: float(np.sqrt(np.mean(x * x)))),
    ("min", lambda x: float(np.min(x))),
    ("max", lambda x: float(np.max(x))),
    ("range", lambda x: float(np.max(x) - np.min(x))),
    ("median", lambda x: float(np.median(x))),
    ("iqr", lambda x: float(np.percentile(x, 75) - np.percentile(x, 25))),
    ("mad", lambda x: float(np.mean(np.abs(x - np.mean(x))))),
    ("zero_crossing_rate", _zero_crossing_rate),
    ("line_length", _line_length),
    ("hist_entropy", _hist_entropy),
)

SPECTRAL_NAMES = ("spectral_centroid_hz", "spectral_spread_hz", "rolloff85_hz",
                  "flatness", "spectral_entropy", "flux_mean",
                  "log_band_ratio_1", "log_band_ratio_2",
                  "log_band_ratio_3", "log_band_ratio_4")

PEAK_NAMES = ("peak_count", "trough_count", "peak_amp_mean", "peak_amp_std",
              "peak_interval_mean_s", "peak_interval_std_s", "peak_trough_amp_mean")


def _band_energy_entropy(band: np.ndarray) -> float:
    energy = float(np.dot(band, band))
    if energy <= 0.0:
        return 0.0
    p = band * band / energy
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log(nz)))


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
        p = power / total_power
        nz = p[p > 0.0]
        out["spectral_entropy"] = float(-np.sum(nz * np.log(nz)))
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
        frag.append(0, (f"dwt({wavelet})/{name}", "entropy"), _band_energy_entropy(b))
    avg = mags.mean(axis=0)
    frag.append(0, ("stft", "dominant_frequency_hz"), float(freqs[int(np.argmax(avg))]))
    return frag


def extract_level1(frag: RecordFragment) -> RecordFragment:
    """Append the statistical / spectral / peak-trough catalog to a level-0 fragment."""
    if frag.level != 0:
        raise ValueError("extract_level1 expects a level-0 fragment")
    for stat, fn in STAT_CATALOG:
        frag.append(1, ("time", stat), fn(frag.samples))
    for name, b in frag.bands:
        for stat, fn in STAT_CATALOG:
            frag.append(1, (f"dwt({frag.wavelet})/{name}", stat), fn(b))
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
        for stat, fn in STAT_CATALOG:
            frag.append(2, ("time", tag, stat), fn(arr))
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
    if max_level not in (0, 1, 2):
        raise ConfigError(f"max_level must be 0, 1 or 2, got {max_level}")
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
