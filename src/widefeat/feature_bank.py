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

No column depends on which CPU-specific kernels numpy dispatches to (AVX2,
AVX-512, ...), whose last bits can differ from one another: the 3rd and 4th
moments are means of products of ``d * d``, not of ``d ** 3`` and
``d ** 4``; the median and the quartiles come from one sort of ``x + 0.0``
(which makes every zero +0.0), not from partitions; flatness takes
``math.exp``; and the STFT magnitudes are ``sqrt(re² + im²)``.

Every column is described by a :class:`FeatureDescriptor` whose lineage
renders to a parseable path such as ``"dwt(db4)/detail3 → energy"``.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field, replace

import numpy as np

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
                writer.writerow([rid, *map(repr, row.tolist())])

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


def _hist_entropies(x: np.ndarray, s: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """16-bin amplitude histogram entropy of each row of ``x``, whose range is [lo, hi]
    and whose sorted rows are ``s``.

    Counts as ``np.histogram(row, bins=16, range=(lo, hi))`` does, on the edges
    ``np.linspace(lo, hi, 17)`` gives each row alone.  Where a row's edges rise
    strictly and its bin width is a normal float of at least 2**-40 of its
    largest magnitude, numpy's index estimate lands within one bin of each
    value's bin and its corrections settle it: bin i holds the values from
    edge i up to, not including, edge i + 1 (the last bin also ``hi``), so the
    counts are where the inner edges fall in the sorted row.  The other rows,
    whose bins are subnormal or only ulps wide, run numpy's estimate and
    corrections; where ``np.histogram`` refuses a range only a few ulps wide,
    each distinct value falls in its own bin.  Rows with ``hi == lo`` get 0.
    """
    rows, n = x.shape
    live = hi > lo
    span = hi - lo
    width = span / _HIST_BINS
    steps = np.arange(_HIST_BINS + 1.0)
    # each row's own linspace: a width that underflows to 0 gives (i / 16) * span
    edges = np.where((width == 0.0)[:, None], np.outer(span, steps / _HIST_BINS),
                     np.outer(width, steps)) + lo[:, None]
    edges[:, -1] = hi
    by_sort = (np.all(edges[:, 1:] > edges[:, :-1], axis=1) & (width >= np.finfo(float).tiny)
               & (width >= 2.0 ** -40 * np.maximum(np.abs(lo), np.abs(hi))))
    below = np.zeros((rows, _HIST_BINS + 1), dtype=np.intp)  # values below each edge
    below[:, -1] = n
    for i in np.flatnonzero(by_sort):
        below[i, 1:-1] = np.searchsorted(s[i], edges[i, 1:-1])
    counts = np.diff(below, axis=1)
    narrow = np.flatnonzero(live & ~by_sort)
    if narrow.size:
        xn, en, lon = x[narrow], edges[narrow], lo[narrow][:, None]
        idx = ((xn - lon) / span[narrow][:, None] * _HIST_BINS).astype(np.intp)
        idx[idx == _HIST_BINS] -= 1
        idx[xn < np.take_along_axis(en, idx, axis=1)] -= 1
        idx[(xn >= np.take_along_axis(en, idx + 1, axis=1)) & (idx != _HIST_BINS - 1)] += 1
        idx += _HIST_BINS * np.arange(narrow.size)[:, None]
        counts[narrow] = np.bincount(idx.ravel(), minlength=narrow.size * _HIST_BINS
                                     ).reshape(narrow.size, _HIST_BINS)
    # each row's own nonzero bins: zeros padded into the sum would regroup it
    return np.array([shannon_entropy(row / n) if ok else 0.0 for row, ok in zip(counts, live)])


def _moments(block: np.ndarray) -> tuple[np.ndarray, ...]:
    """Row means, the 2nd to 4th central moments and the mean absolute deviation.

    With ``d2 = d * d``, the moments are the means of ``d2``, ``d2 * d`` and
    ``d2 * d2``: plain multiplies, whose bits do not depend on the CPU
    features numpy dispatches to, as its vector ``power`` does.  The
    deviations are freed on return, before the rest of the catalog runs.
    """
    mu = np.mean(block, axis=1)
    d = block - mu[:, None]
    d2 = d * d
    return (mu, np.mean(d2, axis=1), np.mean(d2 * d, axis=1), np.mean(d2 * d2, axis=1),
            np.mean(np.abs(d), axis=1))


def _quartile(s: np.ndarray, q: float) -> np.ndarray:
    """Quantile ``q`` of each row of the row-sorted ``s``, by numpy's ``linear`` rule.

    The virtual index ``(n - 1) * q`` and its fraction are exact for quarters,
    and the fraction is the same for every row.
    """
    n = s.shape[1]
    i = int((n - 1) * q)
    t = (n - 1) * q - i
    a, b = s[:, i], s[:, min(i + 1, n - 1)]
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _statistics(x: np.ndarray) -> np.ndarray:
    """The statistical catalog of each row of ``x``, in ``STAT_NAMES`` order.

    ``x`` has shape (n,) or (R, n) and the result (15,) or (R, 15).  The
    mean, central moments and extremes are computed once per row.  Skewness
    and kurtosis are 0 below ``_VAR_FLOOR``, the zero-crossing rate and line
    length are 0 below two samples, and the histogram entropy is 0 when every
    sample is equal; each guard applies to its own row.  Every row gets the
    bits it would get on its own: reductions run along contiguous rows, the
    3rd and 4th moments are products of ``d * d`` (see ``_moments``), and
    ``m2 ** 1.5`` is Python's ``pow`` (numpy's vector ``power`` may differ in
    the last bit).  The median and the quartiles of the IQR are read from one
    sorted copy of the rows, as ``np.median`` and ``np.percentile`` (linear)
    compute them, and so are most rows' histogram counts.  The copy is
    ``x + 0.0``, which turns -0.0 into +0.0, so the order in which the sort
    leaves tied zeros cannot reach a sign bit.
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
    s = block + 0.0
    s.sort(axis=1)
    median = s[:, n // 2] if n % 2 else (s[:, n // 2 - 1] + s[:, n // 2]) / 2
    iqr = _quartile(s, 0.75) - _quartile(s, 0.25)
    entropy = _hist_entropies(block, s, lo, hi)
    del s
    zcr = line = np.zeros(len(block))
    if n >= 2:
        zcr = np.count_nonzero(block[:, :-1] * block[:, 1:] < 0, axis=1) / (n - 1)
        line = np.sum(np.abs(np.diff(block, axis=1)), axis=1)
    table = np.column_stack([
        mu, np.sqrt(m2), m2, skew, kurt, np.sqrt(np.mean(block * block, axis=1)), lo, hi,
        hi - lo, median, iqr, mad, zcr, line, entropy])
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
            # math.exp, not numpy's: np.exp runs on a kernel numpy picks by CPU feature
            out["flatness"] = math.exp(float(np.mean(np.log(power)))) / float(np.mean(power))
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


# ---------------------------------------------------------------------------
# peaks and troughs: scipy.signal.find_peaks(x, prominence=p, distance=d)[0] in numpy
#
# A peak is a run of equal samples higher than the samples on both sides of
# it, reported at the run's midpoint (rounded down); the first and last
# samples are never peaks.  The distance rule runs first: peaks are visited
# from the highest down, in the order of np.argsort over their heights read
# from the end, and each kept peak removes the peaks less than d samples from
# it.  The prominence of a kept peak is its height minus the higher of two
# minima: the lowest sample between it and the nearest strictly higher sample
# on each side (or the row's end).  Peaks of prominence >= p are reported.
# The troughs of x are the peaks of -x.

_DISTANCE_ROUNDS = 6  # parallel rounds of the distance rule before it goes peak by peak


def _scan_down(a: np.ndarray, top: np.ndarray, bottom: np.ndarray, h: np.ndarray) -> np.ndarray:
    """For each query, the largest index from ``top`` down to ``bottom`` whose value
    exceeds ``h`` (a column); ``a[bottom]`` must exceed it."""
    cols = np.maximum(top[:, None] - np.arange(int((top - bottom).max()) + 1), bottom[:, None])
    return cols[np.arange(len(top)), np.argmax(a[cols] > h, axis=1)]


def _previous_greater(a: np.ndarray, at: np.ndarray) -> np.ndarray:
    """For each index q in ``at``, the largest index below q whose value exceeds a[q].

    ``a[0]`` must be ``inf`` and every queried value finite, so that such an
    index exists.  Level k of the table holds the largest of the 2**k places
    that end at each index (fewer near the start); a query steps down from the
    top level and moves left past every span that holds nothing higher.  The
    infinite entries end every search, so the levels only need to span the
    longest stretch between two of them (or after the last one).
    """
    reach = int(np.diff(np.flatnonzero(a == np.inf), append=len(a)).max()) - 2
    table = [a]
    for k in range(reach.bit_length() - 1):
        last, step = table[-1], 1 << k
        table.append(np.concatenate((last[:step], np.maximum(last[step:], last[:-step]))))
    h, out = a[at], at - 1
    for k in range(len(table) - 1, -1, -1):
        out -= (table[k][out] <= h) << k
    return out


def _distance_rule(g: np.ndarray, heights: np.ndarray, counts: np.ndarray, d: int) -> np.ndarray:
    """Mask of the peaks the distance rule keeps.

    ``g`` holds the peaks' positions, sorted; series i owns the next
    ``counts[i]`` peaks and starts at a multiple of ``d``, at least ``d``
    places after the previous series ends.  Each round keeps every open peak
    that outranks the open peaks less than ``d`` from it, and closes the peaks
    near a kept one; such a peak is always the best of its block, where blocks
    are ``d`` places long.  Peaks still open after ``_DISTANCE_ROUNDS`` rounds
    are settled one at a time.
    """
    count = len(g)
    ends = np.cumsum(counts)
    # by_rank[first + r] is the peak of rank r in the series whose peaks start at first
    by_rank = np.concatenate([np.argsort(heights[a:b])
                              for a, b in zip([0] + ends.tolist(), ends.tolist())])
    by_rank += np.repeat(ends - counts, counts)
    rank = np.empty(count + 1, dtype=np.intp)
    rank[by_rank] = np.arange(count)
    rank[count] = -1  # closes the last window
    keep = np.zeros(count, dtype=bool)
    go, ro = g, rank  # the open peaks' positions and ranks
    for _ in range(_DISTANCE_ROUNDS):
        # the best open peak of each block; an empty block yields the next block's
        # first peak, which the window test judges like any other
        best = by_rank[np.maximum.reduceat(ro, np.searchsorted(go, np.arange(0, go[-1] + 1, d)))]
        cuts = np.searchsorted(go, g[best][:, None] + (1 - d, d)).ravel()
        won = np.maximum.reduceat(ro, cuts)[0::2] == rank[best]
        keep[best[won]] = True
        lo, hi = cuts.reshape(-1, 2)[won].T
        near = np.bincount(lo, minlength=len(go)) - np.bincount(hi, minlength=len(go) + 1)[:-1]
        stay = np.cumsum(near) == 0
        if not stay.any():
            return keep
        go, ro = go[stay], np.append(ro[:-1][stay], -1)
    ids = by_rank[np.sort(ro[:-1])[::-1]]  # the open peaks, best first
    lo = np.searchsorted(g, g[ids] - d + 1).tolist()
    hi = np.searchsorted(g, g[ids] + d - 1, "right").tolist()
    free = np.ones(count, dtype=bool)
    for j, a, b in zip(ids.tolist(), lo, hi):
        if free[j]:
            keep[j] = True
            free[a:b] = False
    return keep


def _peaks_and_troughs(x: np.ndarray, prominence: np.ndarray,
                       distance: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The peaks and the troughs of each row of ``x`` under the rule above.

    ``prominence`` holds one threshold per row.  Row i's entries equal
    ``find_peaks(x[i], prominence=prominence[i], distance=distance)[0]`` and
    the same for ``-x[i]``.  Both polarities run together as 2R series:
    series i < R is row i, series R + i is its negation.
    """
    rows, n = x.shape
    none = [np.empty(0, dtype=np.intp)] * rows
    if n < 3:
        return none, none
    flat = x.ravel()
    rise = x[:, 1:] > x[:, :-1]
    fall = x[:, 1:] < x[:, :-1]
    mark = np.zeros((2 * rows, n), dtype=bool)  # each series' extrema, at their midpoints
    np.logical_and(rise[:, :-1], fall[:, 1:], out=mark[:rows, 1:-1])
    np.logical_and(fall[:, :-1], rise[:, 1:], out=mark[rows:, 1:-1])
    # plateaus: runs s..e of equal samples, rising into and falling out of them
    eq = np.flatnonzero(rise == fall)  # x[r, i] == x[r, i + 1]
    if eq.size:
        eq_row = eq // (n - 1)
        eq -= eq_row * (n - 1)
        starts = np.ones(len(eq), dtype=bool)
        starts[1:] = (eq[1:] != eq[:-1] + 1) | (eq_row[1:] != eq_row[:-1])
        ends = np.append(starts[1:], True)
        s, e, r = eq[starts], eq[ends] + 1, eq_row[starts]
        inner = (s >= 1) & (e <= n - 2)
        s, e, r = s[inner], e[inner], r[inner]
        up, down = rise[r, s - 1] & fall[r, e], fall[r, s - 1] & rise[r, e]
        mid = np.concatenate((r[up] * n + (s[up] + e[up]) // 2,
                              (r[down] + rows) * n + (s[down] + e[down]) // 2))
        mark.ravel()[mid] = True

    at = np.flatnonzero(mark)  # series * n + midpoint
    if not at.size:
        return none, none
    counts = np.count_nonzero(mark, axis=1)
    series = np.repeat(np.arange(2 * rows), counts)
    troughs = int(counts[:rows].sum())  # the troughs follow the peaks
    sample = at.copy()  # index into flat
    sample[troughs:] -= rows * n
    height = flat[sample]
    np.negative(height[troughs:], out=height[troughs:])
    stride = -(-(n + distance) // distance) * distance
    g = at + series * (stride - n)
    keep = np.ones(len(g), dtype=bool)
    if distance > 1:
        keep = _distance_rule(g, height, counts, distance)

    # Candidates for the nearest higher point: every extremum, and a sentinel
    # of infinite height before and after each series; cv, cg and cs hold their
    # heights, positions and sample indices.  A candidate's samples all exceed
    # the extrema it bounds, so its midpoint may stand for its run.
    slot = np.arange(len(g)) + 2 * series + 1
    size = len(g) + 4 * rows
    cv = np.full(size, np.inf)
    cg, cs = np.empty(size, dtype=np.intp), np.empty(size, dtype=np.intp)
    cv[slot], cg[slot], cs[slot] = height, g, sample
    each = np.arange(2 * rows)
    row_start = (each % rows) * n
    bounds = np.append(0, np.cumsum(counts))
    lead, tail = bounds[:-1] + 2 * each, bounds[1:] + 2 * each + 1
    cg[lead], cs[lead] = each * stride - 1, row_start - 1
    cg[tail], cs[tail] = each * stride + n, row_start + n
    # Anchors are the kept extrema and the sentinels.  A candidate between a
    # kept extremum and its nearest higher anchor that is higher still was
    # removed by a kept one at least as high, which lies beyond that anchor; so
    # the nearest higher candidate lies less than ``distance`` past the anchor.
    # Right-hand searches run on mirror images.
    kept = slot[keep]
    is_anchor = cv == np.inf
    is_anchor[kept] = True
    anchor = np.flatnonzero(is_anchor)
    line = cv[anchor]
    k, m = len(kept), len(line)
    at = np.searchsorted(anchor, kept)
    f = _previous_greater(np.concatenate((line, line[::-1])), np.concatenate((at, 2 * m - 1 - at)))
    left, right = anchor[f[:k]], anchor[2 * m - 1 - f[k:]]
    h = cv[kept]
    stop = np.minimum(np.searchsorted(cg, cg[left] + distance), kept) - 1
    start = np.maximum(np.searchsorted(cg, cg[right] - distance + 1), kept + 1)
    c = _scan_down(np.concatenate((cv, cv[::-1])), np.append(stop, 2 * size - 1 - start),
                   np.append(left, 2 * size - 1 - right), np.append(h, h)[:, None])
    # the lowest samples from just past each nearest higher point to the extremum;
    # the last row's right sentinel points one past the end, and reduceat needs
    # every cut inside its array, so the samples get one spare place
    mid, owner = sample[keep], series[keep]
    cuts = np.column_stack((cs[c[:k]] + 1, mid + 1, mid, cs[2 * size - 1 - c[k:]])).ravel()
    ext = np.append(flat, 0.0)
    t = 4 * int(np.count_nonzero(owner < rows))  # minima for peaks, maxima for troughs
    low, high = np.minimum.reduceat(ext, cuts[:t]), np.maximum.reduceat(ext, cuts[t:])
    base = np.concatenate((np.maximum(low[0::4], low[2::4]), -np.minimum(high[0::4], high[2::4])))
    row = owner % rows
    good = h - base >= prominence[row]
    pos = (mid - row * n)[good]
    ends = np.cumsum(np.bincount(owner[good], minlength=2 * rows)).tolist()
    found = [pos[a:b] for a, b in zip([0] + ends, ends)]
    return found[:rows], found[rows:]


def _peak_features(samples: np.ndarray, rate: float, config: ExtractionConfig) -> np.ndarray:
    """The ``PEAK_NAMES`` columns of each row of ``samples``, shape (R, 7)."""
    span = np.max(samples, axis=1) - np.min(samples, axis=1)
    distance = max(1, round(config.peak_min_separation_frac * samples.shape[1]))
    peaks, troughs = _peaks_and_troughs(samples, config.peak_prominence_frac * span, distance)
    table = np.zeros((len(samples), len(PEAK_NAMES)))
    for out, x, p, t in zip(table, samples, peaks, troughs):
        out[0], out[1] = p.size, t.size
        if p.size:
            amps = x[p]
            out[2], out[3] = np.mean(amps), np.std(amps)
            if p.size >= 2:
                gaps = np.diff(p) / rate
                out[4], out[5] = np.mean(gaps), np.std(gaps)
            if t.size:
                out[6] = out[2] - np.mean(x[t])
    return table


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
    """The samples of equal-length records as the rows of one (R, n) array.

    Each record's samples are asked for once (a WAV record reads its file),
    and only one record's copy is held beside the block while it fills.
    """
    x = np.empty((len(records), records[0].n_samples))
    for row, record in zip(x, records):
        row[:] = record.samples
    return x


def _blocks(records) -> list[list[int]]:
    """Record indices in blocks of equal length, each at most ``_STACK_BYTES`` of samples.

    Records are grouped by sample count, and keep their order within a group.
    """
    groups: dict[int, list[int]] = {}
    for i, record in enumerate(records):
        groups.setdefault(record.n_samples, []).append(i)
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
    records = [records] if hasattr(records, "n_samples") else list(records)
    if len({(r.n_samples, float(r.sample_rate_hz)) for r in records}) != 1:
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
    block.add(1, [("time", stat) for stat in PEAK_NAMES],
              _peak_features(block.samples, block.sample_rate_hz, block.config))
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

    Each record votes for its own best-scoring wavelet.  A record abstains
    only when some wavelet's details vanish exactly, so that its score is
    NaN: haar's do on a constant record when no level pads an odd length (128
    or 256 samples, say).  A constant record of another length votes, and
    the other wavelets score a constant's roundoff, about 1e-31, not NaN.
    Ties, and the all-abstain case, fall back to bank order.  The depth is
    the configured depth clamped so the shortest record still supports it.
    Records are scored a block at a time.
    """
    min_len = min(r.n_samples for r in records)
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
