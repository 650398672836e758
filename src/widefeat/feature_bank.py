"""Hierarchical feature extraction with per-feature lineage.

Level 0 holds the transform-domain representations (raw time series, STFT
magnitudes, DWT bands under an automatically chosen mother wavelet) plus a
few raw summaries of them.  Level 1 summarizes those representations with a
fixed statistical / spectral / peak-trough catalog.  Level 2 derives guarded
ratios of declared level-1 pairs and recomputes the statistical catalog on
the first and second differences of the time series.  The statistical
catalog is the ``STAT_NAMES`` tuple; ``_statistics`` computes all of it for
every row of a block in one pass.

Extraction runs on blocks: records of equal sample count stacked into one
(R, n) array, at most ``_STACK_BYTES`` of samples each, so memory does not
grow with the dataset beyond the output matrix.  The wavelet vote, the DWT,
the STFT and the catalog run once per block, and each block's values are
written into the matrix once, at its records' rows.  Every row gets the
bits its record would get alone in a one-row block:

- reductions run along contiguous rows, which numpy sums as it would a 1-D
  array;
- energies are one ``np.dot`` per row, never ``(b * b).sum(1)`` or
  ``einsum``, which sum in another order;
- entropies sum each row's own nonzero terms;
- ``m2 ** 1.5`` is Python's ``pow``, and the guards (``_VAR_FLOOR``, an
  empty range, fewer than two samples) apply per row.

Every column is described by a :class:`FeatureDescriptor` whose lineage
renders to a parseable path such as ``"dwt(db4)/detail3 → energy"``.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.signal import find_peaks

from .errors import (ConfigError, ValidationError, block_dict, block_settings, is_int,
                     list_setting, real_setting, require_int, store, write_json)
from .stft import rfft_bin_frequencies, stft
from .wavelets import (WAVELET_BANK, dwt_decompose, dwt_max_depth, energy_entropies,
                       filter_length, row_energies, score_wavelets, shannon_entropy)

PATH_SEP = " → "
MAX_LEVEL = 2  # levels run 0..MAX_LEVEL
_GUARD_EPS = 1e-12
_VAR_FLOOR = 1e-24  # below this the signal counts as constant for moment ratios
_STACK_BYTES = 128 << 10  # samples per extraction block: R records x n samples x 8 bytes
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
        write_json(path, {"descriptors": [
            {"id": d.id, "level": d.level, "lineage": list(d.lineage), "name": d.name}
            for d in self.descriptors]})


# JSON path of each ExtractionConfig field: {block: {key: field}}
_JSON_FIELDS = {
    "stft": {"window": "stft_window", "hop": "stft_hop"},
    "dwt": {"bank": "wavelet_bank", "depth": "dwt_depth"},
    "peaks": {"prominence_frac": "peak_prominence_frac",
              "min_separation_frac": "peak_min_separation_frac"},
}


@dataclass(frozen=True)
class ExtractionConfig:
    stft_window: int = 256
    stft_hop: int = 128
    wavelet_bank: tuple[str, ...] = WAVELET_BANK  # a one-entry bank pins the wavelet
    dwt_depth: int = 4
    peak_prominence_frac: float = 0.1
    peak_min_separation_frac: float = 0.05

    def __post_init__(self):
        store(self, wavelet_bank=list_setting(self.wavelet_bank, "dwt.bank"),
              peak_prominence_frac=real_setting(self.peak_prominence_frac,
                                                "peaks.prominence_frac"),
              peak_min_separation_frac=real_setting(self.peak_min_separation_frac,
                                                    "peaks.min_separation_frac"))
        window = self.stft_window
        if not (is_int(window) and window >= 2) or window & (window - 1):
            raise ConfigError(f"stft window must be a power of two, got {window!r}")
        store(self, stft_window=int(window), stft_hop=require_int(self.stft_hop, "stft hop", 1),
              dwt_depth=require_int(self.dwt_depth, "dwt depth", 1))
        if not self.wavelet_bank:
            raise ConfigError("dwt needs a non-empty wavelet bank")
        for name in self.wavelet_bank:
            try:
                filter_length(name)
            except (TypeError, ValueError):
                raise ConfigError(f"unknown wavelet {name!r} in dwt.bank") from None
        if min(self.peak_prominence_frac, self.peak_min_separation_frac) < 0:
            raise ConfigError(f"peaks fractions must be >= 0, got {self.peak_prominence_frac} "
                              f"and {self.peak_min_separation_frac}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExtractionConfig":
        return cls(**block_settings(raw, _JSON_FIELDS, "extraction"))

    def to_dict(self) -> dict:
        return block_dict(self, _JSON_FIELDS)


# ---------------------------------------------------------------------------
# statistics with degenerate-input guards; every value stays finite

def _guard_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den`` per row, and 0 where ``|den| < _GUARD_EPS``."""
    return np.divide(num, den, out=np.zeros_like(num), where=~(np.abs(den) < _GUARD_EPS))


STAT_NAMES = ("mean", "std", "variance", "skewness", "kurtosis", "rms", "min", "max",
              "range", "median", "iqr", "mad", "zero_crossing_rate", "line_length",
              "hist_entropy")
_HIST_BINS = 16


def _hist_entropies(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """16-bin amplitude histogram entropy of each row of ``x``, whose range is [lo, hi].

    Follows ``np.histogram(row, bins=16, range=(lo, hi))``: the same
    ``linspace`` edges, the same index estimate and the same one-ulp
    corrections, with one ``bincount`` for the whole block.  Dividing a range
    by 16 is exact down to 2**-1018, so a row's edges do not depend on the
    other rows of the ``linspace`` call.  Rows with ``hi == lo`` get 0.
    Where ``np.histogram`` refuses a range only a few ulps wide, each
    distinct value falls in its own bin.
    """
    live = hi > lo
    edges = np.linspace(lo, hi, _HIST_BINS + 1, axis=1)
    span = np.where(live, hi - lo, 1.0)[:, None]  # 1.0 only keeps dead rows finite
    idx = ((x - lo[:, None]) / span * _HIST_BINS).astype(np.intp)
    idx[idx == _HIST_BINS] -= 1
    idx[x < np.take_along_axis(edges, idx, axis=1)] -= 1
    idx[(x >= np.take_along_axis(edges, idx + 1, axis=1)) & (idx != _HIST_BINS - 1)] += 1
    idx += _HIST_BINS * np.arange(len(x))[:, None]
    counts = np.bincount(idx.ravel(), minlength=len(x) * _HIST_BINS)
    # each row's own nonzero bins: zeros padded into the sum would regroup it
    return np.array([shannon_entropy(row / x.shape[1]) if ok else 0.0
                     for row, ok in zip(counts.reshape(len(x), _HIST_BINS), live)])


def _moments(block: np.ndarray) -> tuple[np.ndarray, ...]:
    """Row means, the 2nd to 4th central moments and the mean absolute deviation.

    The deviations are freed on return, before the rest of the catalog runs.
    """
    mu = np.mean(block, axis=1)
    d = block - mu[:, None]
    return (mu, np.mean(d * d, axis=1), np.mean(d ** 3, axis=1), np.mean(d ** 4, axis=1),
            np.mean(np.abs(d), axis=1))


def _statistics(x: np.ndarray) -> np.ndarray:
    """The statistical catalog of each row of ``x``, in ``STAT_NAMES`` order.

    ``x`` has shape (n,) or (R, n) and the result (15,) or (R, 15).  The
    mean, central moments and extremes are computed once per row.  Skewness
    and kurtosis are 0 below ``_VAR_FLOOR``, the zero-crossing rate and line
    length are 0 below two samples, and the histogram entropy is 0 when every
    sample is equal; each guard applies to its own row.  Every row gets the
    bits it would get on its own: reductions run along contiguous rows,
    ``m2 ** 1.5`` is Python's ``pow`` (numpy's vector ``power`` may differ in
    the last bit), and ``d ** 3``, ``d ** 4`` and ``np.median`` stay as the
    per-statistic forms have them.
    """
    block = np.atleast_2d(x)
    n = block.shape[1]
    mu, m2, m3, m4, mad = _moments(block)
    live = m2 >= _VAR_FLOOR
    m2_pow = np.array([v ** 1.5 if ok else 1.0 for v, ok in zip(m2.tolist(), live)])
    skew = np.divide(m3, m2_pow, out=np.zeros(len(block)), where=live)
    kurt = np.divide(m4, m2 * m2, out=np.zeros(len(block)), where=live)
    kurt[live] -= 3.0
    lo, hi = np.min(block, axis=1), np.max(block, axis=1)
    q25, q75 = np.percentile(block, (25, 75), axis=1)
    zcr = line = np.zeros(len(block))
    if n >= 2:
        zcr = np.count_nonzero(block[:, :-1] * block[:, 1:] < 0, axis=1) / (n - 1)
        line = np.sum(np.abs(np.diff(block, axis=1)), axis=1)
    table = np.column_stack([
        mu, np.sqrt(m2), m2, skew, kurt, np.sqrt(np.mean(block * block, axis=1)), lo, hi,
        hi - lo, np.median(block, axis=1), q75 - q25, mad,
        zcr, line, _hist_entropies(block, lo, hi)])
    return table if x.ndim == 2 else table[0]


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
# extraction on blocks of equal-length records

@dataclass
class FeatureBlock:
    """Feature columns extracted so far for a block of equal-length records.

    Row i of every array is record ``record_ids[i]``.  ``columns`` maps each
    lineage to its level and its column of values, in column order.
    """

    record_ids: tuple[str, ...]
    samples: np.ndarray = field(repr=False)  # (R, n)
    sample_rate_hz: float
    config: ExtractionConfig
    wavelet: str
    bands: list[tuple[str, np.ndarray]] = field(repr=False)  # (R, n_band) each
    stft_mags: np.ndarray = field(repr=False)  # (R, frames, bins)
    stft_freqs: np.ndarray = field(repr=False)
    level: int = 0
    columns: dict[tuple[str, ...], tuple[int, np.ndarray]] = field(default_factory=dict,
                                                                   repr=False)

    def add(self, level: int, lineages, table) -> None:
        """Append one column per lineage from ``table``, shape (R, len(lineages))."""
        for lineage, column in zip(lineages, np.asarray(table, dtype=float).T, strict=True):
            self.columns[lineage] = (level, column)

    def value_of(self, source: str, stat: str) -> np.ndarray:
        return self.columns[(source, stat)][1]

    @property
    def descriptors(self) -> tuple[FeatureDescriptor, ...]:
        return tuple(FeatureDescriptor(id=i, level=level, lineage=lineage)
                     for i, (lineage, (level, _)) in enumerate(self.columns.items()))

    @property
    def values(self) -> np.ndarray:
        """The (R, F) value table; every value must be finite."""
        values = np.column_stack([column for _, column in self.columns.values()])
        bad = np.argwhere(~np.isfinite(values))
        if bad.size:
            row, col = bad[0]
            lineage = list(self.columns)[col]
            raise ValidationError(f"record {self.record_ids[row]!r}: non-finite value for "
                                  f"{PATH_SEP.join(lineage)}")
        return values


def band_names(depth: int) -> list[str]:
    return [f"approx{depth}"] + [f"detail{lev}" for lev in range(depth, 0, -1)]


def _stack(records) -> np.ndarray:
    return np.stack([np.asarray(r.samples, dtype=float) for r in records])


def _blocks(records) -> list[list[int]]:
    """Record indices in blocks of equal length, each at most ``_STACK_BYTES`` of samples.

    Records are grouped by sample count, and keep their order within a group.
    """
    groups: dict[int, list[int]] = {}
    for i, record in enumerate(records):
        groups.setdefault(record.samples.size, []).append(i)
    blocks = []
    for n, members in groups.items():
        rows = max(1, _STACK_BYTES // (8 * n))
        blocks += [members[s:s + rows] for s in range(0, len(members), rows)]
    return blocks


def extract_level0(records, config: ExtractionConfig) -> FeatureBlock:
    """Compute the level-0 representations and their scalar summaries.

    ``records`` is one record or a sequence of records with one sample count
    and one sample rate; a single record gives a one-row block.
    """
    records = [records] if hasattr(records, "samples") else list(records)
    if len({(r.samples.size, float(r.sample_rate_hz)) for r in records}) != 1:
        raise ConfigError("a block needs records of one length and one sample rate")
    x = _stack(records)
    rate = float(records[0].sample_rate_hz)
    wavelet, depth = choose_dataset_wavelet(records, config)

    window = config.stft_window
    hop = config.stft_hop
    n = x.shape[1]
    if window > n:
        # shrink to the largest power of two that fits, keeping 50% overlap
        window = 1 << (n.bit_length() - 1)
        hop = max(1, window // 2)
    hop = min(hop, window)
    mags = stft(x, window, hop)
    freqs = rfft_bin_frequencies(window, rate)

    bands = list(zip(band_names(depth), dwt_decompose(x, wavelet, depth)))
    block = FeatureBlock(
        record_ids=tuple(r.id for r in records), samples=x, sample_rate_hz=rate,
        config=config, wavelet=wavelet, bands=bands, stft_mags=mags,
        stft_freqs=freqs)

    roots = [f"dwt({wavelet})/{name}" for name, _ in bands]
    energies = np.column_stack([row_energies(b) for _, b in bands])
    total = sum(energies.T)  # band by band, as a sum over one record's bands adds them
    block.add(0, [("time", "energy")], row_energies(x)[:, None])
    block.add(0, [(root, "energy") for root in roots], energies)
    block.add(0, [(root, "relative_energy") for root in roots],
              np.divide(energies, total[:, None], out=np.zeros_like(energies),
                        where=total[:, None] > 0.0))
    block.add(0, [(root, "entropy") for root in roots],
              np.column_stack([energy_entropies(b, e) for (_, b), e in zip(bands, energies.T)]))
    avg = mags.mean(axis=1)
    block.add(0, [("stft", "dominant_frequency_hz")], freqs[np.argmax(avg, axis=1)][:, None])
    return block


def extract_level1(block: FeatureBlock) -> FeatureBlock:
    """Append the statistical / spectral / peak-trough catalog to a level-0 block."""
    if block.level != 0:
        raise ValueError("extract_level1 expects a level-0 block")
    block.add(1, [("time", stat) for stat in STAT_NAMES], _statistics(block.samples))
    for name, b in block.bands:
        block.add(1, [(f"dwt({block.wavelet})/{name}", stat) for stat in STAT_NAMES],
                  _statistics(b))
    spectral = [_spectral_features(avg, block.stft_freqs, mags)
                for avg, mags in zip(block.stft_mags.mean(axis=1), block.stft_mags)]
    block.add(1, [("stft", stat) for stat in SPECTRAL_NAMES],
              [[row[stat] for stat in SPECTRAL_NAMES] for row in spectral])
    peaks = [_peak_features(x, block.sample_rate_hz, block.config) for x in block.samples]
    block.add(1, [("time", stat) for stat in PEAK_NAMES],
              [[row[stat] for stat in PEAK_NAMES] for row in peaks])
    block.level = 1
    return block


#: Declared level-1 ratio pairs: (root stage, numerator stat, denominator stat).
RATIO_PAIRS: tuple[tuple[str, str, str], ...] = (
    ("stft", "spectral_centroid_hz", "spectral_spread_hz"),
    ("stft", "rolloff85_hz", "spectral_centroid_hz"),
    ("time", "rms", "range"),
    ("time", "peak_count", "trough_count"),
    ("time", "iqr", "std"),
)


def extract_level2(block: FeatureBlock) -> FeatureBlock:
    """Append guarded ratios and difference-signal statistics to a level-1 block."""
    if block.level != 1:
        raise ValueError("extract_level2 expects a level-1 block")
    block.add(2, [(root, "guarded_ratio", f"{num}/{den}") for root, num, den in RATIO_PAIRS],
              np.column_stack([_guard_ratio(block.value_of(root, num), block.value_of(root, den))
                               for root, num, den in RATIO_PAIRS]))
    names = [name for name, _ in block.bands]
    dwt_root = f"dwt({block.wavelet})"
    pairs = list(zip(names, names[1:]))
    block.add(2, [(dwt_root, "guarded_ratio", f"energy({upper})/energy({lower})")
                  for upper, lower in pairs],
              np.column_stack([_guard_ratio(block.value_of(f"{dwt_root}/{upper}", "energy"),
                                            block.value_of(f"{dwt_root}/{lower}", "energy"))
                               for upper, lower in pairs]))
    for tag, order in (("d1", 1), ("d2", 2)):
        block.add(2, [("time", tag, stat) for stat in STAT_NAMES],
                  _statistics(np.diff(block.samples, n=order, axis=1)))
    block.level = 2
    return block


def choose_dataset_wavelet(records, config: ExtractionConfig) -> tuple[str, int]:
    """Pick one mother wavelet and decomposition depth for a whole dataset.

    Each record votes for its own best-scoring wavelet; records whose details
    vanish (constant signals) abstain.  Ties, and the all-abstain case, fall
    back to bank order.  The depth is the configured depth clamped so the
    shortest record still supports it.  Records are scored a block at a time.
    """
    min_len = min(r.samples.size for r in records)
    usable = [w for w in config.wavelet_bank if dwt_max_depth(min_len, w) >= 1]
    if not usable:
        raise ConfigError(f"no wavelet in bank {config.wavelet_bank} fits {min_len}-sample records")
    if len(usable) == 1:
        name = usable[0]
    else:
        vote_depth = min(config.dwt_depth, min(dwt_max_depth(min_len, w) for w in usable))
        votes = np.zeros(len(usable), dtype=int)
        for rows in _blocks(records):
            scores = score_wavelets(_stack([records[i] for i in rows]), usable, vote_depth)
            voters = ~np.isnan(scores).any(axis=0)
            votes += np.bincount(np.argmax(scores[:, voters], axis=0), minlength=len(usable))
        name = usable[int(np.argmax(votes))]  # the first of equal counts: ties keep bank order
    depth = min(config.dwt_depth, dwt_max_depth(min_len, name))
    if depth < 1:
        raise ConfigError(f"records of {min_len} samples are too short for wavelet {name!r}")
    return name, depth


def build_feature_matrix(records, config: ExtractionConfig, max_level: int) -> FeatureMatrix:
    """Extract features for every record up to ``max_level`` (0, 1 or 2).

    The descriptor set is identical for every record: the mother wavelet and
    decomposition depth are fixed dataset-wide before extraction.  Column
    order is deterministic (by level, then catalog order).  Records are
    extracted a block at a time, and each block's rows are written back at
    their records' positions.
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

    values = descriptors = None
    for rows in _blocks(records):
        block = extract_level0([records[i] for i in rows], pinned)
        if max_level >= 1:
            block = extract_level1(block)
        if max_level >= 2:
            block = extract_level2(block)
        if descriptors is None:
            descriptors = block.descriptors
            values = np.empty((len(records), len(descriptors)))
        values[rows] = block.values
        del block  # free this block's arrays before the next one is stacked
    return FeatureMatrix(values=values, descriptors=descriptors,
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
