import json

import numpy as np
import pytest

from conftest import write_csv_dataset, write_wav
from widefeat.dataset import (SignalRecord, fold_roles, load_dataset,
                              load_manifest, make_folds)
from widefeat.errors import ConfigError, LoadError, ValidationError
from widefeat.feature_bank import ExtractionConfig, build_feature_matrix


def _manifest(tmp_path, records, fmt="csv_column", rate=100.0, class_names=("a", "b")):
    return load_manifest(write_csv_dataset(tmp_path, records, rate, class_names))


class TestLoadDataset:
    def test_csv_read_through(self, tmp_path):
        data = tmp_path / "sig.csv"
        data.write_text("\n".join(str(v) for v in [0.0, 1.0, 0.0, -1.0] * 8))
        other = tmp_path / "other.csv"
        other.write_text("\n".join("0.5" for _ in range(16)))
        manifest_path = tmp_path / "m.json"
        manifest_path.write_text(json.dumps({
            "format": "csv_column", "class_names": ["a", "b"], "sample_rate_hz": 100.0,
            "records": [{"path": "sig.csv", "label": 1}, {"path": "other.csv", "label": 0}],
        }))
        records = load_dataset(load_manifest(manifest_path))
        assert records[0].samples.size == 32
        assert records[0].label == 1
        assert records[0].sample_rate_hz == 100.0
        np.testing.assert_array_equal(records[0].samples[:4], [0.0, 1.0, 0.0, -1.0])

    def test_csv_optional_header(self, tmp_path):
        data = tmp_path / "sig.csv"
        data.write_text("amplitude\n" + "\n".join("1.0" for _ in range(16)))
        other = tmp_path / "o.csv"
        other.write_text("\n".join("0.0" for _ in range(16)))
        manifest_path = tmp_path / "m.json"
        manifest_path.write_text(json.dumps({
            "format": "csv_column", "class_names": ["a", "b"], "sample_rate_hz": 10.0,
            "records": [{"path": "sig.csv", "label": 0}, {"path": "o.csv", "label": 1}],
        }))
        records = load_dataset(load_manifest(manifest_path))
        assert records[0].samples.size == 16

    def test_single_class_manifest_rejected(self, tmp_path):
        (tmp_path / "x.csv").write_text("\n".join("0.1" for _ in range(16)))
        manifest_path = tmp_path / "m.json"
        manifest_path.write_text(json.dumps({
            "format": "csv_column", "class_names": ["a", "b"], "sample_rate_hz": 10.0,
            "records": [{"path": "x.csv", "label": 0}],
        }))
        with pytest.raises(ValidationError, match="distinct labels"):
            load_manifest(manifest_path)

    def test_wav_16bit_scaling(self, tmp_path):
        # oracle fixture written by the stdlib encoder with known int16 values
        ints = np.array([0, 1, -1, 32767, -32768, 16384, -16384, 100,
                         -100, 5, -5, 1000, -1000, 32767, 0, 7], dtype=np.int64)
        write_wav(tmp_path / "w.wav", ints, sampwidth=2, rate=1000)
        write_wav(tmp_path / "w2.wav", np.zeros(16, dtype=np.int64), sampwidth=2, rate=1000)
        manifest_path = tmp_path / "m.json"
        manifest_path.write_text(json.dumps({
            "format": "wav", "class_names": ["a", "b"],
            "records": [{"path": "w.wav", "label": 1}, {"path": "w2.wav", "label": 0}],
        }))
        records = load_dataset(load_manifest(manifest_path))
        np.testing.assert_allclose(records[0].samples, ints / 32768.0, atol=0)
        assert records[0].samples.max() == 32767 / 32768
        assert records[0].sample_rate_hz == 1000.0

    @pytest.mark.parametrize("width,denom,offset", [(1, 128.0, 128), (3, 8388608.0, 0)])
    def test_wav_other_widths(self, tmp_path, width, denom, offset):
        rng = np.random.default_rng(3)
        if width == 1:
            ints = rng.integers(0, 256, 16)
        else:
            ints = rng.integers(-(1 << 23), 1 << 23, 16)
        write_wav(tmp_path / "w.wav", ints, sampwidth=width, rate=500)
        write_wav(tmp_path / "z.wav", np.full(16, offset), sampwidth=width, rate=500)
        manifest_path = tmp_path / "m.json"
        manifest_path.write_text(json.dumps({
            "format": "wav", "class_names": ["a", "b"],
            "records": [{"path": "w.wav", "label": 0}, {"path": "z.wav", "label": 1}],
        }))
        records = load_dataset(load_manifest(manifest_path))
        np.testing.assert_allclose(records[0].samples, (ints - offset) / denom, atol=0)

    def test_wav_multichannel_takes_first(self, tmp_path):
        left = np.arange(16) * 100
        right = -np.arange(16) * 100
        interleaved = np.empty(32, dtype=np.int64)
        interleaved[0::2] = left
        interleaved[1::2] = right
        write_wav(tmp_path / "st.wav", interleaved, sampwidth=2, rate=100, channels=2)
        write_wav(tmp_path / "z.wav", np.zeros(16, dtype=np.int64), sampwidth=2, rate=100)
        manifest_path = tmp_path / "m.json"
        manifest_path.write_text(json.dumps({
            "format": "wav", "class_names": ["a", "b"],
            "records": [{"path": "st.wav", "label": 0}, {"path": "z.wav", "label": 1}],
        }))
        records = load_dataset(load_manifest(manifest_path))
        np.testing.assert_allclose(records[0].samples, left / 32768.0)

    def test_unreadable_file_names_path(self, tmp_path):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not a wav at all")
        ok = tmp_path / "ok.csv"
        manifest_path = tmp_path / "m.json"
        manifest_path.write_text(json.dumps({
            "format": "wav", "class_names": ["a", "b"],
            "records": [{"path": "bad.wav", "label": 0}, {"path": "bad.wav", "label": 1,
                                                          "id": "bad2"}],
        }))
        with pytest.raises(LoadError, match="bad.wav"):
            load_dataset(load_manifest(manifest_path))

    def test_missing_file_names_record(self, tmp_path):
        manifest_path = tmp_path / "m.json"
        manifest_path.write_text(json.dumps({
            "format": "csv_column", "class_names": ["a", "b"], "sample_rate_hz": 1.0,
            "records": [{"path": "gone.csv", "label": 0, "id": "ghost"},
                        {"path": "gone2.csv", "label": 1}],
        }))
        with pytest.raises(ValidationError, match="ghost"):
            load_manifest(manifest_path)

    def test_record_invariants_name_offender(self, tmp_path):
        short = tmp_path / "short.csv"
        short.write_text("\n".join("1.0" for _ in range(4)))
        other = tmp_path / "ok.csv"
        other.write_text("\n".join("1.0" for _ in range(16)))
        manifest_path = tmp_path / "m.json"
        manifest_path.write_text(json.dumps({
            "format": "csv_column", "class_names": ["a", "b"], "sample_rate_hz": 10.0,
            "records": [{"path": "short.csv", "label": 0, "id": "stub"},
                        {"path": "ok.csv", "label": 1}],
        }))
        with pytest.raises(ValidationError, match="stub"):
            load_dataset(load_manifest(manifest_path))

    def test_nan_samples_rejected(self):
        with pytest.raises(ValidationError, match="NaN"):
            SignalRecord(id="n", samples=np.full(16, np.nan), sample_rate_hz=1.0, label=0)

    @staticmethod
    def _peak_scaled(peak):
        x = np.random.default_rng(0).standard_normal(512)
        return x / np.max(np.abs(x)) * peak

    @pytest.mark.parametrize("peak", [1e78, 1e150, 1e200])
    def test_overflowing_magnitudes_rejected(self, peak):
        with pytest.raises(ValidationError, match="overflow"):
            SignalRecord(id="big", samples=self._peak_scaled(peak), sample_rate_hz=100.0,
                         label=0)

    def test_large_but_representable_magnitude_extracts(self):
        x = self._peak_scaled(1e75)
        record = SignalRecord(id="big", samples=x, sample_rate_hz=100.0, label=0)
        matrix = build_feature_matrix([record], ExtractionConfig(), max_level=2)
        assert np.isfinite(matrix.values).all()

    def test_three_class_manifest_rejected_as_not_binary(self, tmp_path):
        records = [SignalRecord(id=f"r{i}", samples=np.arange(16.0) + i, sample_rate_hz=10.0,
                                label=i % 3) for i in range(6)]
        with pytest.raises(ValidationError, match="binary"):
            _manifest(tmp_path, records, class_names=("a", "b", "c"))


def _records(labels):
    return [SignalRecord(id=f"r{i}", samples=np.arange(16, dtype=float) + i,
                         sample_rate_hz=10.0, label=int(l)) for i, l in enumerate(labels)]


class TestFolds:
    def test_balanced_ten_records(self):
        plan = make_folds(_records([0, 1] * 5), p=5, seed=0)
        for fold in range(5):
            idx = plan.fold_indices(fold)
            assert idx.size == 2
            assert {i % 2 for i in idx} == {0, 1}

    def test_determinism(self):
        records = _records([0, 1] * 10)
        a = make_folds(records, p=5, seed=42)
        b = make_folds(records, p=5, seed=42)
        np.testing.assert_array_equal(a.assignments, b.assignments)

    def test_30_20_split_counts(self):
        # oracle: exhaustive per-fold tallies must be exactly (6, 4)
        labels = [0] * 30 + [1] * 20
        plan = make_folds(_records(labels), p=5, seed=3)
        for fold in range(5):
            idx = plan.fold_indices(fold)
            zeros = sum(1 for i in idx if labels[i] == 0)
            ones = sum(1 for i in idx if labels[i] == 1)
            assert (zeros, ones) == (6, 4)

    def test_stratification_property(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            counts = rng.integers(7, 30, size=rng.integers(2, 4))
            labels = np.repeat(np.arange(counts.size), counts)
            p = int(rng.integers(5, 8))
            if counts.min() < p:
                continue
            plan = make_folds(_records(labels), p=p, seed=trial)
            for cls, total in enumerate(counts):
                per_fold = [np.sum(labels[plan.fold_indices(f)] == cls) for f in range(p)]
                assert max(per_fold) - min(per_fold) <= 1

    def test_small_class_rejected(self):
        with pytest.raises(ConfigError, match="needs >= 5"):
            make_folds(_records([0] * 3 + [1] * 10), p=5, seed=0)

    def test_p_range_enforced(self):
        records = _records([0, 1] * 10)
        for p in (4, 11):
            with pytest.raises(ConfigError, match=r"\[5, 10\]"):
                make_folds(records, p=p, seed=0)


class TestFoldRoles:
    def test_modular_wrap(self):
        plan = make_folds(_records([0, 1] * 10), p=5, seed=0)
        _, eval_idx, _ = fold_roles(plan, 4)
        assert set(plan.assignments[eval_idx]) == {0}

    def test_sizes_50_records(self):
        plan = make_folds(_records([0, 1] * 25), p=5, seed=1)
        train, eval_idx, test = fold_roles(plan, 2)
        assert (test.size, eval_idx.size, train.size) == (10, 10, 30)

    def test_partition_property(self):
        plan = make_folds(_records([0, 1] * 13), p=5, seed=2)
        everything = set(range(26))
        for fold in range(5):
            train, eval_idx, test = fold_roles(plan, fold)
            parts = [set(train), set(eval_idx), set(test)]
            assert parts[0] | parts[1] | parts[2] == everything
            assert sum(len(s) for s in parts) == 26

    def test_out_of_range(self):
        plan = make_folds(_records([0, 1] * 10), p=5, seed=0)
        with pytest.raises(ValueError, match="out of range"):
            fold_roles(plan, 5)


def test_load_fold_pipeline_bit_identical(tmp_path):
    records = _records([0, 1] * 8)
    manifest_path = write_csv_dataset(tmp_path, records, rate=10.0)
    loaded1 = load_dataset(load_manifest(manifest_path))
    loaded2 = load_dataset(load_manifest(manifest_path))
    for a, b in zip(loaded1, loaded2):
        np.testing.assert_array_equal(a.samples, b.samples)
    p1 = make_folds(loaded1, p=5, seed=7)
    p2 = make_folds(loaded2, p=5, seed=7)
    np.testing.assert_array_equal(p1.assignments, p2.assignments)
