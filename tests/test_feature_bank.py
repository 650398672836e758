import gc
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats
from scipy.signal import find_peaks

from conftest import write_wav_dataset
from oracles import catalog_reference, dwt_reference, entropy_reference
from widefeat import feature_bank
from widefeat.dataset import MIN_SAMPLES, SignalRecord, load_dataset, load_manifest
from widefeat.errors import ConfigError
from widefeat.feature_bank import (PEAK_NAMES, STAT_NAMES, ExtractionConfig, _moments,
                                   _peaks_and_troughs, _previous_greater, _statistics,
                                   band_names, build_feature_matrix, choose_dataset_wavelet,
                                   describe, extract_level0, extract_level1, extract_level2,
                                   parse_lineage_path)
from widefeat.wavelets import (_SCALING_FILTERS, WAVELET_BANK, dwt_decompose, dwt_max_depth,
                               score_wavelets, shannon_entropy)


def record_from(samples, rate=100.0, label=0, rid="r"):
    return SignalRecord(id=rid, samples=np.asarray(samples, dtype=float),
                        sample_rate_hz=rate, label=label)


def frag_value(frag, lineage):
    for d, v in zip(frag.descriptors, frag.values[0]):
        if d.lineage == tuple(lineage):
            return v
    raise KeyError(lineage)


def full_fragment(samples, rate=100.0, config=None):
    frag = extract_level0(record_from(samples, rate), config or ExtractionConfig())
    return extract_level2(extract_level1(frag))


class TestLevel0:
    def test_constant_signal_energy(self):
        frag = extract_level0(record_from(np.full(64, 3.0)), ExtractionConfig())
        assert frag_value(frag, ("time", "energy")) == 64 * 9.0

    def test_dominant_frequency_sine(self):
        rate = 100.0
        t = np.arange(256) / rate
        frag = extract_level0(record_from(np.sin(2 * np.pi * 10.0 * t), rate),
                              ExtractionConfig(stft_window=64, stft_hop=32))
        dominant = frag_value(frag, ("stft", "dominant_frequency_hz"))
        assert abs(dominant - 10.0) <= rate / 64

    def test_relative_band_energies_sum_to_one(self):
        rng = np.random.default_rng(2)
        frag = extract_level0(record_from(rng.standard_normal(512)), ExtractionConfig())
        rel = [v for d, v in zip(frag.descriptors, frag.values[0])
               if d.lineage[-1] == "relative_energy"]
        assert abs(sum(rel) - 1.0) < 1e-9


    @pytest.mark.parametrize("kind", ["random", "constant", "shortest"])
    def test_standalone_level0_matches_matrix_row(self, kind):
        samples = {"random": np.random.default_rng(5).standard_normal(300),
                   "constant": np.full(128, 2.5),
                   "shortest": np.random.default_rng(6).standard_normal(MIN_SAMPLES)}[kind]
        record = record_from(samples)
        frag = extract_level0(record, ExtractionConfig())
        matrix = build_feature_matrix([record], ExtractionConfig(), max_level=0)
        assert tuple(frag.descriptors) == matrix.descriptors
        np.testing.assert_array_equal(frag.values, matrix.values)

    @pytest.mark.parametrize("n, rate", [(65, 100.0), (64, 200.0)])
    def test_block_of_mixed_records_rejected(self, n, rate):
        records = [record_from(np.sin(np.arange(64.0)), rid="a"),
                   record_from(np.sin(np.arange(float(n))), rate=rate, rid="b")]
        with pytest.raises(ConfigError, match="one length and one sample rate"):
            extract_level0(records, ExtractionConfig())

    def test_one_entry_bank_pins_wavelet(self):
        rng = np.random.default_rng(8)
        records = [record_from(rng.standard_normal(256), rid=f"r{i}", label=i % 2)
                   for i in range(4)]
        voted, _ = choose_dataset_wavelet(records, ExtractionConfig())
        pinned = next(w for w in WAVELET_BANK if w != voted)
        matrix = build_feature_matrix(records, ExtractionConfig(wavelet_bank=(pinned,)),
                                      max_level=0)
        roots = {d.lineage[0].split("/", 1)[0] for d in matrix.descriptors}
        assert roots == {"time", "stft", f"dwt({pinned})"}

    @pytest.mark.parametrize("n", [128, 256, 300])
    def test_constant_records_abstain_only_when_details_vanish(self, n):
        # haar's details of a constant vanish exactly unless a level pads an odd
        # length; the other wavelets leave roundoff, so a NaN score comes from haar
        constant = np.full(n, 1.5)
        scores = score_wavelets(constant[None, :], WAVELET_BANK, 3)[:, 0]
        if n == 300:
            assert scores[0] == np.inf
        else:
            assert np.isnan(scores[0]) and np.all(scores[1:] < 1e-20)
        noise = record_from(np.random.default_rng(0).standard_normal(n), rid="noise")
        constants = [record_from(constant, rid=f"c{i}") for i in range(2)]
        voted, _ = choose_dataset_wavelet([noise] + constants, ExtractionConfig())
        alone, _ = choose_dataset_wavelet([noise], ExtractionConfig())
        if n == 300:  # the two constant records outvote the noise record
            assert voted == choose_dataset_wavelet(constants, ExtractionConfig())[0] != alone
        else:
            assert voted == alone


class TestLevel1:
    def test_moments_on_gaussian_fixture(self):
        rng = np.random.default_rng(99)
        x = rng.standard_normal(10_000)
        frag = extract_level1(extract_level0(record_from(x, 1000.0), ExtractionConfig()))
        skew = frag_value(frag, ("time", "skewness"))
        kurt = frag_value(frag, ("time", "kurtosis"))
        assert abs(skew) < 0.1
        assert abs(kurt) < 0.2
        # cross-check against an independent implementation
        np.testing.assert_allclose(skew, scipy_stats.skew(x), atol=1e-9)
        np.testing.assert_allclose(kurt, scipy_stats.kurtosis(x), atol=1e-9)

    def test_constant_signal_degenerates_to_zero(self):
        frag = extract_level1(extract_level0(record_from(np.full(64, 2.5)),
                                             ExtractionConfig()))
        assert frag_value(frag, ("time", "std")) == 0.0
        assert frag_value(frag, ("time", "zero_crossing_rate")) == 0.0
        assert frag_value(frag, ("time", "peak_count")) == 0.0
        assert frag_value(frag, ("time", "skewness")) == 0.0

    def test_sine_rms(self):
        amp, rate = 1.7, 1000.0
        t = np.arange(2000) / rate
        frag = extract_level1(extract_level0(record_from(amp * np.sin(2 * np.pi * 5 * t), rate),
                                             ExtractionConfig()))
        assert abs(frag_value(frag, ("time", "rms")) - amp / np.sqrt(2)) < 1e-3

    def test_peak_count_on_sine(self):
        rate = 100.0
        t = np.arange(400) / rate
        frag = extract_level1(extract_level0(record_from(np.sin(2 * np.pi * 2 * t), rate),
                                             ExtractionConfig()))
        assert frag_value(frag, ("time", "peak_count")) == 8.0
        interval = frag_value(frag, ("time", "peak_interval_mean_s"))
        assert abs(interval - 0.5) < 0.02


def _catalog_fixtures():
    rng = np.random.default_rng(41)
    noisy = np.sin(np.arange(2500) * 0.05) + 0.3 * rng.standard_normal(2500)
    fixtures = {
        # random arrays: a moment's sum rounds on every term's last bit, so only the
        # oracle's own d * d products give the same bits
        "normal_2500": rng.standard_normal(2500),
        "scaled_shifted_777": 3e-3 * rng.standard_normal(777) + 0.5,
        "large_64": 1e3 * rng.standard_normal(64) - 2.0,
        "uniform_1001": rng.uniform(-1.0, 4.0, 1001),
        "band_detail1": dwt_decompose(noisy, "db4", 4)[-1],
        "diff2": np.diff(noisy, n=2),
        # np.median and the 50th percentile differ in the last bit here
        "median_apart_100": np.random.default_rng(2).standard_normal(100),
        "constant": np.full(50, 2.5),
        "one_sample": np.array([0.7]),
        "two_samples": np.array([1.0, -2.0]),
        "plateau": np.repeat([1.0, 2.0, 2.0, 3.0, 3.0, 3.0], 17),
        "ramp": np.arange(100.0),
        # variances just below and just above _VAR_FLOOR (1e-24)
        "below_var_floor": 0.8e-12 * rng.standard_normal(300) + 1.0e-3,
        "above_var_floor": 1.2e-12 * rng.standard_normal(300),
    }
    return fixtures


_FIXTURES = _catalog_fixtures()


def _narrow_range_rows(rng, n):
    """Rows whose histogram edges rise strictly but whose bins are subnormal or only
    ulps wide.  In the subnormal range numpy's index estimate misses some values'
    bins by more than one, so ``np.histogram`` does not count the values between
    each bin's edges there."""
    # (start, ulp, range in ulps): a subnormal range, 40 ulps at 1, 200 ulps at -3e5
    return [start + ulp * np.concatenate(([0, top], rng.integers(0, top, n)))[:n]
            for start, ulp, top in ((0.0, 5e-324, 39), (1.0, 2.0 ** -52, 40),
                                    (-3e5, 2.0 ** -34, 200))]


class TestStatistics:
    """``_statistics`` must equal the per-statistic forms bit for bit."""

    @pytest.mark.parametrize("name", sorted(_FIXTURES))
    def test_bitwise_equal_to_reference(self, name):
        x = _FIXTURES[name]
        reference = catalog_reference(x)
        got = dict(zip(STAT_NAMES, _statistics(x)))
        assert list(got) == list(reference) and len(_statistics(x)) == len(STAT_NAMES)
        for stat in STAT_NAMES:
            assert np.float64(got[stat]).tobytes() == np.float64(reference[stat]).tobytes(), \
                (stat, got[stat], reference[stat])

    @pytest.mark.parametrize("name", sorted(_FIXTURES))
    def test_moments_near_the_power_forms(self, name):
        # a product term is within two roundings of the exact power and ``d ** k``
        # within about one, and both means sum in the same order, so they stay a
        # few ulps of the mean absolute power apart
        d = _FIXTURES[name] - np.mean(_FIXTURES[name])
        _, _, m3, m4, _ = _moments(_FIXTURES[name][None, :])
        for got, power, scale in ((m3[0], np.mean(d ** 3), np.mean(np.abs(d) ** 3)),
                                  (m4[0], np.mean(d ** 4), np.mean(d ** 4))):
            assert abs(got - power) <= 8 * np.spacing(scale), (got, power)

    def test_floor_fixtures_straddle_the_floor(self):
        assert float(np.var(_FIXTURES["below_var_floor"])) < 1e-24
        assert float(np.var(_FIXTURES["above_var_floor"])) > 1e-24
        assert _statistics(_FIXTURES["below_var_floor"])[STAT_NAMES.index("skewness")] == 0.0
        assert _statistics(_FIXTURES["above_var_floor"])[STAT_NAMES.index("skewness")] != 0.0

    # 1-9 samples give odd and even medians and every n mod 4, so each quartile
    # takes each of its interpolation forms
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 300])
    def test_block_rows_bitwise_equal_to_reference(self, n):
        rng = np.random.default_rng(n)
        rows = [np.full(n, 2.5), rng.standard_normal(n), np.round(4 * rng.standard_normal(n)) / 4,
                # samples on the exact histogram edges, where a one-ulp edge moves a count
                np.resize(np.linspace(0.0, 1.6, 17), n),
                # ties, and zeros of both signs, which a sort may leave in either order
                rng.integers(-1, 2, n).astype(float), np.full(n, -0.0),
                np.resize([-0.0, 0.0, -1.0], n), np.resize([1.5, -0.0, 1.5, 0.0, -2.0], n),
                *_narrow_range_rows(rng, n)]
        if n == 300:
            rows += [_FIXTURES["below_var_floor"], _FIXTURES["above_var_floor"]]
        block = np.array(rows)
        table = _statistics(block)
        assert table.shape == (len(rows), len(STAT_NAMES))
        for i, (row, got) in enumerate(zip(block, table)):
            reference = catalog_reference(row)
            for stat, value in zip(STAT_NAMES, got):
                assert np.float64(value).tobytes() == np.float64(reference[stat]).tobytes(), \
                    (i, stat, value, reference[stat])

    def test_ulp_wide_rows_bin_each_value(self):
        # np.histogram refuses a range a few ulps wide; each distinct value gets
        # its own bin instead, and the other rows keep their bits
        rng = np.random.default_rng(4)
        normal = [np.resize(np.linspace(0.0, 1.6, 17), 64), rng.standard_normal(64),
                  *_narrow_range_rows(rng, 64)]
        ulp_wide = [np.resize([0.3, 0.1 * 3], 64),
                    # a range so small that linspace's step underflows to zero
                    1e-310 + 5e-324 * rng.integers(0, 3, 64)]
        table = _statistics(np.array(normal + ulp_wide))
        for row, got in zip(normal, table):
            reference = catalog_reference(row)
            assert [np.float64(v).tobytes() for v in got] == \
                [np.float64(reference[stat]).tobytes() for stat in STAT_NAMES]
        for row, got in zip(ulp_wide, table[len(normal):]):
            counts = np.unique(row, return_counts=True)[1]
            assert len(counts) >= 2
            np.testing.assert_allclose(got[STAT_NAMES.index("hist_entropy")],
                                       shannon_entropy(counts / row.size), rtol=1e-12)

    def test_entropy_bitwise_equal_to_inline_form(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 17, 400):
            w = rng.uniform(size=n)
            w[rng.uniform(size=n) < 0.3] = 0.0
            if w.sum() == 0.0:
                w[0] = 1.0
            p = w / w.sum()
            got, want = shannon_entropy(p), entropy_reference(p)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert shannon_entropy(np.array([0.0, 1.0, 0.0])) == 0.0


def _pcg_rows(rng, count, n=2500, rate=1000.0):
    """Heart-sound-like records quantized to 16 bits, as ``perfbench/workloads.py``
    makes them: S1/S2 bursts per beat over noise, and a murmur in every other record."""
    t = np.arange(n) / rate
    rows = []
    for i in range(count):
        period = 60.0 / rng.uniform(60.0, 100.0)
        systole = 0.35 * period
        x = rng.normal(0.0, rng.uniform(0.01, 0.04), n)
        f1, f2 = rng.uniform(40.0, 60.0), rng.uniform(60.0, 90.0)
        onset = rng.uniform(0.0, period)
        while onset < n / rate:
            for center, freq, width, amp in ((onset, f1, 0.020, rng.uniform(0.6, 1.0)),
                                             (onset + systole, f2, 0.015, rng.uniform(0.4, 0.8))):
                dt = t - center
                x += amp * np.exp(-0.5 * (dt / width) ** 2) * np.sin(2 * np.pi * freq * dt)
            if i % 2:
                inside = (t > onset + 0.05) & (t < onset + systole - 0.03)
                murmur = sum(np.sin(2 * np.pi * rng.uniform(150.0, 300.0) * t
                                    + rng.uniform(0, 2 * np.pi)) for _ in range(6))
                x += rng.uniform(0.03, 0.08) * inside * murmur
            onset += period
        pcm = np.round(0.9 * x / np.max(np.abs(x)) * 32767).astype("<i2")
        rows.append(pcm / 32768.0)
    return np.array(rows)


def _peak_blocks():
    rng = np.random.default_rng(12)
    edge = np.zeros((4, 16))
    edge[0, [1, 5, 14]] = [5.0, 2.0, 4.0]  # peaks one sample from either edge
    edge[1, [1, 2, 9, 13, 14]] = [3.0, 1.0, 2.0, 1.0, 3.0]
    edge[2] = [3, 3, 3, 1, 2, 1, 0, 1, 1, 0, 2, 2, 0, 4, 4, 4]  # plateaus at both edges
    edge[3] = [0, 2, 2, 0, 1, 0, 5, 5, 5, 5, 0, 1, 1, 1, 3, 3]
    steps = np.arange(60.0) + 2 * (np.arange(60) % 2)
    return {
        "normal_300": rng.standard_normal((6, 300)),
        # plateaus and tied heights
        "rounded_normal_300": np.round(rng.standard_normal((6, 300))),
        "three_levels_300": rng.integers(0, 3, (6, 300)).astype(float),
        "constant_among_normal_64": np.array([np.full(64, 1.5), rng.standard_normal(64),
                                              np.full(64, -2.0)]),
        # the highest peak's prominence is set by the minimum on its right, which
        # runs to the row's end
        "right_base_at_end_6": np.array([[0.0, 10, 6, 8, 7, 9], [-9, -7, -8, -6, -10, 0]]),
        "edges_16": edge,
        "all_three_level_rows_3": np.array(list(itertools.product(range(3), repeat=3)), float),
        "all_three_level_rows_4": np.array(list(itertools.product(range(3), repeat=4)), float),
        "mixed_16": np.vstack([rng.integers(0, 3, (5, 16)), rng.standard_normal((5, 16))]),
        "pcg_16bit_2500": _pcg_rows(rng, 4),
        # rising and falling staircases of peaks two samples apart: the distance rule's
        # parallel rounds settle one peak each, so it finishes peak by peak
        "staircases_60": np.array([steps, steps[::-1], -steps]),
        # integer random walks: long plateaus, and at separation 0 the nearest higher
        # kept peak is often far away
        "random_walk_2500": np.cumsum(np.random.default_rng(14).choice(
            [-1.0, 0.0, 1.0], size=(3, 2500), p=[0.15, 0.7, 0.15]), axis=1),
    }


_PEAK_BLOCKS = _peak_blocks()


class TestPreviousGreater:
    """``_previous_greater`` gives the nearest place to the left that is strictly higher."""

    @staticmethod
    def _arrays(n):
        rng = np.random.default_rng(n)
        sentinels = rng.integers(0, n, 2)
        yield np.zeros(n)  # all ties: every query reaches back to the leading sentinel
        yield np.arange(n, 0, -1.0)
        yield np.round(rng.standard_normal(n))
        yield rng.integers(0, 3, n).astype(float)
        spiked = rng.standard_normal(n)
        spiked[sentinels] = np.inf  # inner sentinels, as between series
        yield spiked

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 16, 17, 256, 257, 1024, 1025])
    def test_matches_brute_force(self, n):
        for a in self._arrays(n):
            a[0] = np.inf
            at = np.flatnonzero(a < np.inf)
            want = [np.flatnonzero(a[:q] > a[q])[-1] for q in at]
            assert _previous_greater(a, at).tolist() == want, a

    @pytest.mark.parametrize("reach", [1, 2, 8, 64])
    def test_answer_at_the_full_reach(self, reach):
        # the longest stretch between two infinite entries is inside the array, and
        # its last query's answer lies exactly ``reach`` places left of the query's
        # left neighbour: a table one level short of that reach misses it
        a = np.concatenate(([np.inf, 1.0, np.inf], np.zeros(reach + 1), [np.inf, 2.0, 0.5]))
        at = np.flatnonzero(a < np.inf)
        want = [np.flatnonzero(a[:q] > a[q])[-1] for q in at]
        assert want[-3] == 2 and at[-3] - 1 - want[-3] == reach
        assert _previous_greater(a, at).tolist() == want


class TestPeakFinder:
    """``_peaks_and_troughs`` returns exactly what ``scipy.signal.find_peaks`` does."""

    @pytest.mark.parametrize("separation_frac", [0.0, 0.05, 0.2])
    @pytest.mark.parametrize("prominence_frac", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("name", sorted(_PEAK_BLOCKS))
    def test_matches_find_peaks(self, name, prominence_frac, separation_frac):
        block = _PEAK_BLOCKS[name]
        prominence = prominence_frac * (np.max(block, axis=1) - np.min(block, axis=1))
        distance = max(1, round(separation_frac * block.shape[1]))
        # the whole block at once, and each row as a block of its own
        for rows in [range(len(block))] + [[i] for i in range(len(block))]:
            peaks, troughs = _peaks_and_troughs(block[rows], prominence[rows], distance)
            for i, got_peaks, got_troughs in zip(rows, peaks, troughs):
                for got, x in ((got_peaks, block[i]), (got_troughs, -block[i])):
                    want = find_peaks(x, prominence=prominence[i], distance=distance)[0]
                    assert got.dtype == want.dtype and np.array_equal(got, want), \
                        (i, len(rows), got, want)

    def test_peak_columns_match_find_peaks_row_by_row(self):
        rng = np.random.default_rng(13)
        rate = 1000.0
        rows = np.vstack([_pcg_rows(rng, 4), np.round(4 * rng.standard_normal((2, 2500))),
                          np.full((1, 2500), 0.25)])
        records = [record_from(x, rate, rid=f"r{i}", label=i % 2) for i, x in enumerate(rows)]
        config = ExtractionConfig()
        matrix = build_feature_matrix(records, config, max_level=2)
        lineages = [("time", stat) for stat in PEAK_NAMES]
        lineages.append(("time", "guarded_ratio", "peak_count/trough_count"))
        columns = [[d.lineage for d in matrix.descriptors].index(lin) for lin in lineages]
        for x, row in zip(rows, matrix.values):
            want = _peak_reference(x, rate, config)
            want.append(want[0] / want[1] if want[1] else 0.0)
            assert row[columns].tobytes() == np.array(want).tobytes()


def _peak_reference(x, rate, config):
    """``PEAK_NAMES`` of one record, from ``scipy.signal.find_peaks``."""
    out = dict.fromkeys(PEAK_NAMES, 0.0)
    span = float(np.max(x) - np.min(x))
    prominence = config.peak_prominence_frac * span
    distance = max(1, round(config.peak_min_separation_frac * x.size))
    peaks = find_peaks(x, prominence=prominence, distance=distance)[0]
    troughs = find_peaks(-x, prominence=prominence, distance=distance)[0]
    out["peak_count"], out["trough_count"] = float(peaks.size), float(troughs.size)
    if peaks.size:
        out["peak_amp_mean"] = float(np.mean(x[peaks]))
        out["peak_amp_std"] = float(np.std(x[peaks]))
        if peaks.size >= 2:
            out["peak_interval_mean_s"] = float(np.mean(np.diff(peaks) / rate))
            out["peak_interval_std_s"] = float(np.std(np.diff(peaks) / rate))
        if troughs.size:
            out["peak_trough_amp_mean"] = float(np.mean(x[peaks]) - np.mean(x[troughs]))
    return list(out.values())


class TestLevel2:
    def test_linear_ramp_derivatives(self):
        frag = full_fragment(np.arange(128.0))
        assert frag_value(frag, ("time", "d1", "std")) == 0.0
        assert frag_value(frag, ("time", "d2", "rms")) == 0.0

    def test_guarded_zero_denominator(self):
        frag = full_fragment(np.full(64, 1.0))  # constant: std == 0
        guarded = [(d, v) for d, v in zip(frag.descriptors, frag.values[0])
                   if d.lineage == ("time", "guarded_ratio", "iqr/std")]
        assert len(guarded) == 1
        descriptor, value = guarded[0]
        assert value == 0.0
        assert "guarded" in descriptor.name

    def test_sine_derivative_gain(self):
        f, rate = 5.0, 1000.0
        t = np.arange(2000) / rate
        frag = full_fragment(np.sin(2 * np.pi * f * t), rate)
        ratio = frag_value(frag, ("time", "d1", "rms")) / frag_value(frag, ("time", "rms"))
        assert abs(ratio - 2 * np.pi * f / rate) < 1e-2


def _steady_peaks(run, counts):
    """The traced peak of ``run(count)`` per count, after an untraced warm-up
    round, and the last result.

    A first run fills numpy's caches and the interpreter's free lists, which
    grow during a run and would count against whichever count runs first.  An
    untraced round of every count fills them at about a third of the cost of a
    traced one, so the traced round that follows reads the steady state.  Each
    traced round starts after a full collection.  Otherwise cyclic garbage left by
    earlier tests is collected at whichever point of a round the collector runs,
    and the difference between the two peaks moved by about 30 KB with the tests
    that ran before.
    """
    for count in counts:
        run(count)
    peaks = {}
    for count in counts:
        gc.collect()
        tracemalloc.start()
        try:
            result = run(count)
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks, result


class TestBuildMatrix:
    def test_level_gating(self):
        rng = np.random.default_rng(0)
        records = [record_from(rng.standard_normal(128), rid=f"r{i}", label=i % 2)
                   for i in range(4)]
        m0 = build_feature_matrix(records, ExtractionConfig(), max_level=0)
        assert all(d.level == 0 for d in m0.descriptors)

    def test_hierarchy_prefix(self):
        rng = np.random.default_rng(1)
        records = [record_from(rng.standard_normal(128), rid=f"r{i}", label=i % 2)
                   for i in range(4)]
        names = []
        for level in (0, 1, 2):
            m = build_feature_matrix(records, ExtractionConfig(), max_level=level)
            names.append([d.name for d in m.descriptors])
        assert names[1][:len(names[0])] == names[0]
        assert names[2][:len(names[1])] == names[1]
        assert len(names[0]) < len(names[1]) < len(names[2])

    def test_column_count_is_sum_of_levels(self):
        rng = np.random.default_rng(2)
        records = [record_from(rng.standard_normal(128), rid=f"r{i}", label=i % 2)
                   for i in range(4)]
        m = build_feature_matrix(records, ExtractionConfig(), max_level=2)
        counts = m.level_counts()
        assert m.n_features == counts[0] + counts[1] + counts[2]

    def test_identical_records_identical_rows(self):
        x = np.sin(np.arange(128) * 0.3)
        records = [record_from(x, rid="a", label=0), record_from(x, rid="b", label=1)]
        m = build_feature_matrix(records, ExtractionConfig(), max_level=2)
        np.testing.assert_array_equal(m.values[0], m.values[1])

    def test_labels_do_not_reach_features(self):
        # the wavelet vote and the depth clamp read every record's samples but
        # no label, so test-fold labels cannot shape any feature value
        rng = np.random.default_rng(13)
        lengths = [300, 257, 300, 128, 300, 257]
        samples = [rng.standard_normal(n) for n in lengths]
        matrices = [build_feature_matrix(
            [record_from(x, rid=f"r{i}", label=label) for i, (x, label) in
             enumerate(zip(samples, labels))], ExtractionConfig(), max_level=2)
            for labels in ([0, 1, 0, 1, 0, 1], [1, 1, 0, 0, 1, 0], [0] * 6)]
        for m in matrices[1:]:
            assert m.values.tobytes() == matrices[0].values.tobytes()
            assert m.descriptors == matrices[0].descriptors

    def test_mixed_rates_rejected(self):
        records = [record_from(np.arange(64.0), rate=100.0, rid="a", label=0),
                   record_from(np.arange(64.0), rate=200.0, rid="b", label=1)]
        with pytest.raises(ConfigError, match="sample rates"):
            build_feature_matrix(records, ExtractionConfig(), max_level=1)

    def test_finiteness_on_degenerate_inputs(self):
        records = [
            record_from(np.full(64, 2.0), rid="const", label=0),
            record_from(np.full(64, 2.0) + 1e-13 * np.arange(64), rid="nearconst", label=1),
            record_from(np.zeros(64), rid="zero", label=0),
            record_from(np.sin(np.arange(64)), rid="sine", label=1),
        ]
        m = build_feature_matrix(records, ExtractionConfig(), max_level=2)
        assert np.isfinite(m.values).all()

    def test_lineage_completeness(self):
        rng = np.random.default_rng(3)
        records = [record_from(rng.standard_normal(256), rid=f"r{i}", label=i % 2)
                   for i in range(4)]
        m = build_feature_matrix(records, ExtractionConfig(), max_level=2)
        for d in m.descriptors:
            assert parse_lineage_path(d.name) == d.lineage

    def test_csv_and_descriptor_export(self, tmp_path):
        rng = np.random.default_rng(4)
        records = [record_from(rng.standard_normal(64), rid=f"r{i}", label=i % 2)
                   for i in range(4)]
        m = build_feature_matrix(records, ExtractionConfig(), max_level=1)
        csv_path = tmp_path / "m.csv"
        m.to_csv(csv_path)
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("record_id,")
        m.descriptors_to_json(tmp_path / "d.json")
        import json
        payload = json.loads((tmp_path / "d.json").read_text())
        assert len(payload["descriptors"]) == m.n_features

    def test_blocks_match_single_record_rows(self, monkeypatch):
        # two 300-sample rows per block: the seven 300-sample records take four blocks
        monkeypatch.setattr(feature_bank, "_STACK_BYTES", 2 * 300 * 8)
        rng = np.random.default_rng(9)
        lengths = [300, 257, 300, 128, 300, 257, 300, 128, 300, 300, 257, 300]
        records = [record_from(rng.standard_normal(n) if i % 4 else np.full(n, 1.5),
                               rid=f"r{i}", label=i % 2) for i, n in enumerate(lengths)]
        assert sum(records[b[0]].samples.size == 300 for b in feature_bank._blocks(records)) == 4
        config = ExtractionConfig(stft_window=64, stft_hop=32)
        matrix = build_feature_matrix(records, config, max_level=2)
        assert matrix.record_ids == tuple(r.id for r in records)

        wavelet, depth = choose_dataset_wavelet(records, config)
        vote_depth = min(config.dwt_depth, min(dwt_max_depth(128, w) for w in WAVELET_BANK))
        votes = dict.fromkeys(WAVELET_BANK, 0)
        for record in records:
            scores = score_wavelets(record.samples[None, :], WAVELET_BANK, vote_depth)[:, 0]
            if not np.isnan(scores).any():  # a record whose details vanish abstains
                votes[WAVELET_BANK[int(np.argmax(scores))]] += 1
        assert wavelet == max(WAVELET_BANK, key=votes.get)

        pinned = ExtractionConfig(stft_window=64, stft_hop=32, wavelet_bank=(wavelet,),
                                  dwt_depth=depth)
        for record, row in zip(records, matrix.values):
            single = extract_level2(extract_level1(extract_level0(record, pinned)))
            assert single.descriptors == matrix.descriptors
            assert single.values.tobytes() == row.tobytes(), record.id

    def test_energies_keep_dot_bits(self):
        rng = np.random.default_rng(10)
        records = [record_from(scale * rng.standard_normal(203), rid=f"r{i}", label=i % 2)
                   for i, scale in enumerate([1.0, 3.0, 1e-3, 40.0])]
        block = extract_level0(records, ExtractionConfig(wavelet_bank=("db4",), dwt_depth=3))
        for i, record in enumerate(records):
            x = record.samples
            assert block.value_of("time", "energy")[i].tobytes() == np.dot(x, x).tobytes()
            bands = dwt_reference(x, _SCALING_FILTERS["db4"], 3)
            for name, band in zip(band_names(3), map(np.array, bands)):
                got = block.value_of(f"dwt(db4)/{name}", "energy")[i]
                assert got.tobytes() == np.dot(band, band).tobytes(), (record.id, name)

    def test_memory_bounded_by_block_size(self):
        # extraction holds one block of samples at a time, so 4x the records
        # may add no more than the larger output matrix to the peak
        rng = np.random.default_rng(11)
        records = [record_from(rng.standard_normal(5000), rid=f"r{i}", label=i % 2)
                   for i in range(128)]
        peaks, matrix = _steady_peaks(
            lambda count: build_feature_matrix(records[:count], ExtractionConfig(), max_level=2),
            (32, 128))
        assert peaks[128] - peaks[32] <= matrix.values.nbytes
        assert peaks[128] <= 4 << 20

    def test_memory_does_not_grow_with_wav_samples(self, tmp_path):
        # a loaded WAV record holds no samples, so 4x the records of a WAV
        # dataset may add no more than the larger output matrix to the peak
        ints = np.random.default_rng(15).integers(-20000, 20000, (128, 5000))
        manifests = {count: load_manifest(write_wav_dataset(tmp_path, ints[:count],
                                                            name=f"m{count}.json"))
                     for count in (32, 128)}
        peaks, matrix = _steady_peaks(lambda count: build_feature_matrix(
            load_dataset(manifests[count]), ExtractionConfig(), max_level=2), (32, 128))
        assert peaks[128] - peaks[32] <= matrix.values.nbytes

    def test_empty_records_rejected(self):
        with pytest.raises(ConfigError, match="zero records"):
            build_feature_matrix([], ExtractionConfig(), max_level=1)


_DISPATCH_CHILD = """
import sys
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from widefeat.dataset import SignalRecord
from widefeat.feature_bank import ExtractionConfig, build_feature_matrix
if any(__cpu_features__[target] for target in sys.argv[2:]):
    sys.exit("numpy still dispatches to a disabled target")
records = [SignalRecord(id=f"r{i}", samples=x, sample_rate_hz=1000.0, label=i % 2)
           for i, x in enumerate(np.load(sys.argv[1]))]
sys.stdout.buffer.write(build_feature_matrix(records, ExtractionConfig(), 2).values.tobytes())
"""


class TestCpuDispatch:
    def test_features_do_not_depend_on_dispatched_kernels(self, tmp_path):
        # numpy picks some kernels at run time by CPU feature (AVX2, AVX-512, ...),
        # and their last bits may differ from the baseline's; a child interpreter
        # with every such target disabled must extract the same bytes
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        enabled = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
        if not enabled:
            pytest.skip("numpy dispatches to no CPU target on this host")
        # np.exp's tiers differ on few inputs: flatness shows it only from about
        # 96 of these records on
        rows = _pcg_rows(np.random.default_rng(21), 96)
        np.save(tmp_path / "rows.npy", rows)
        records = [record_from(x, 1000.0, label=i % 2, rid=f"r{i}") for i, x in enumerate(rows)]
        matrix = build_feature_matrix(records, ExtractionConfig(), max_level=2)
        src = Path(feature_bank.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src), "NPY_DISABLE_CPU_FEATURES": " ".join(enabled)}
        proc = subprocess.run([sys.executable, "-c", _DISPATCH_CHILD, str(tmp_path / "rows.npy"),
                               *enabled], capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        child = np.frombuffer(proc.stdout).reshape(matrix.values.shape)
        assert [d.name for d, a, b in zip(matrix.descriptors, child.T, matrix.values.T)
                if a.tobytes() != b.tobytes()] == []


class TestDescribe:
    def test_rms_description(self):
        frag = full_fragment(np.sin(np.arange(64) * 0.2))
        descriptor = next(d for d in frag.descriptors if d.lineage == ("time", "rms"))
        assert "RMS" in describe(descriptor)
        assert descriptor.level == 1

    def test_band_description(self):
        frag = full_fragment(np.sin(np.arange(256) * 0.2))
        descriptor = next(d for d in frag.descriptors
                          if d.lineage[0].endswith("/detail3") and d.lineage[-1] == "energy")
        text = describe(descriptor)
        assert "detail band 3" in text
        assert "energy" in text

    @pytest.mark.parametrize("lineage, text", [
        (("dwt(db4)", "guarded_ratio", "energy(detail4)/energy(detail3)"),
         "guarded ratio energy(detail4)/energy(detail3) within the DWT bands under db4"),
        (("time", "guarded_ratio", "peak_count/trough_count"),
         "guarded ratio peak_count/trough_count within the raw time series"),
        (("stft", "guarded_ratio", "rolloff85_hz/spectral_centroid_hz"),
         "guarded ratio rolloff85_hz/spectral_centroid_hz within the averaged STFT "
         "magnitude spectrum"),
        (("time", "d1", "zero_crossing_rate"),
         "zero-crossing rate of the first difference of the time series"),
        (("time", "d2", "hist_entropy"),
         "amplitude histogram entropy of the second difference of the time series")])
    def test_level2_descriptions(self, lineage, text):
        frag = full_fragment(np.sin(np.arange(256) * 0.2),
                             config=ExtractionConfig(wavelet_bank=("db4",)))
        descriptor = next(d for d in frag.descriptors if d.lineage == lineage)
        assert descriptor.level == 2
        assert describe(descriptor) == text
