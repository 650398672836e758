import numpy as np
import pytest
from scipy import stats as scipy_stats

from widefeat.dataset import MIN_SAMPLES, SignalRecord
from widefeat.errors import ConfigError
from widefeat.feature_bank import (ExtractionConfig, build_feature_matrix,
                                   choose_dataset_wavelet, describe, extract_level0,
                                   extract_level1, extract_level2, parse_lineage_path)
from widefeat.wavelets import WAVELET_BANK


def record_from(samples, rate=100.0, label=0, rid="r"):
    return SignalRecord(id=rid, samples=np.asarray(samples, dtype=float),
                        sample_rate_hz=rate, label=label)


def frag_value(frag, lineage):
    for d, v in zip(frag.descriptors, frag.values):
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
        rel = [v for d, v in zip(frag.descriptors, frag.values)
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
        np.testing.assert_array_equal(frag.values, matrix.values[0])

    def test_one_entry_bank_pins_wavelet(self):
        rng = np.random.default_rng(8)
        records = [record_from(rng.standard_normal(256), rid=f"r{i}", label=i % 2)
                   for i in range(4)]
        voted, _ = choose_dataset_wavelet(records, ExtractionConfig())
        pinned = next(w for w in WAVELET_BANK if w != voted)
        matrix = build_feature_matrix(records, ExtractionConfig(wavelet_bank=(pinned,)),
                                      max_level=0)
        roots = {d.transform_root for d in matrix.descriptors}
        assert roots == {"time", "stft", f"dwt({pinned})"}


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


class TestLevel2:
    def test_linear_ramp_derivatives(self):
        frag = full_fragment(np.arange(128.0))
        assert frag_value(frag, ("time", "d1", "std")) == 0.0
        assert frag_value(frag, ("time", "d2", "rms")) == 0.0

    def test_guarded_zero_denominator(self):
        frag = full_fragment(np.full(64, 1.0))  # constant: std == 0
        guarded = [(d, v) for d, v in zip(frag.descriptors, frag.values)
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

    def test_empty_records_rejected(self):
        with pytest.raises(ConfigError, match="zero records"):
            build_feature_matrix([], ExtractionConfig(), max_level=1)


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
