import json
import re

import numpy as np
import pytest

from conftest import sine_records, write_csv_dataset, write_wav
from widefeat import cli, recommender
from widefeat.classifier_eval import FoldOutcome
from widefeat.cli import main
from widefeat.dataset import SignalRecord
from widefeat.errors import write_json
from widefeat.metrics import METRIC_NAMES


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def toy_manifest(tmp_path):
    records = sine_records(n_records=20, n=128, rate=100.0, seed=2)[:4]
    # keep both classes
    assert {r.label for r in records} == {0, 1}
    return write_csv_dataset(tmp_path, records, rate=100.0)


FAST_RECOMMEND = {
    "tau": 0.9, "p": 5, "seed": 5, "k_schedule": [5], "c": 0, "max_level_cap": 1,
    "evaluation": {"kernels": ["linear", "rbf"], "c_grid": [1.0, 10.0]},
}


def all_folds_failed(matrix, labels, ids, plan, config):
    return [FoldOutcome(fold=f, eval_report=None, test_report=None,
                        feature_ids=tuple(ids), kernel="", failed=True)
            for f in range(plan.p)]


def assert_artifact_format(path):
    """Every JSON artifact: schema_version 1, sorted keys, 2-space indent, final newline."""
    text = path.read_text()
    payload = json.loads(text)
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n", path.name
    assert payload["schema_version"] == 1, path.name


class TestExtract:
    def test_toy_manifest_level0(self, toy_manifest, tmp_path, capsys):
        out = tmp_path / "runs"
        assert run_cli("extract", toy_manifest, "--out", out, "--max-level", 0) == 0
        printed = capsys.readouterr().out
        assert "level 0" in printed
        run_dir = next(out.iterdir())
        lines = (run_dir / "features.csv").read_text().splitlines()
        assert len(lines) == 5  # header + 4 records

    def test_determinism_byte_identical(self, toy_manifest, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("extract", toy_manifest, "--out", out_a, "--max-level", 2) == 0
        assert run_cli("extract", toy_manifest, "--out", out_b, "--max-level", 2) == 0
        csv_a = (next(out_a.iterdir()) / "features.csv").read_bytes()
        csv_b = (next(out_b.iterdir()) / "features.csv").read_bytes()
        assert csv_a == csv_b
        desc_a = (next(out_a.iterdir()) / "descriptors.json").read_bytes()
        desc_b = (next(out_b.iterdir()) / "descriptors.json").read_bytes()
        assert desc_a == desc_b

    def test_higher_level_strictly_more_columns(self, toy_manifest, tmp_path):
        cols = {}
        for level in (1, 2):
            out = tmp_path / f"lvl{level}"
            assert run_cli("extract", toy_manifest, "--out", out, "--max-level", level) == 0
            header = (next(out.iterdir()) / "features.csv").read_text().splitlines()[0]
            cols[level] = header.count(",")
        assert cols[2] > cols[1]

    def test_extraction_config_file_honored(self, toy_manifest, tmp_path):
        config = tmp_path / "extract.json"
        config.write_text(json.dumps({
            "stft": {"window": 64, "hop": 32},
            "dwt": {"bank": ["haar", "db2"], "depth": 3},
            "max_level": 1,
        }))
        out = tmp_path / "runs"
        assert run_cli("extract", toy_manifest, "--config", config, "--out", out) == 0
        header = (next(out.iterdir()) / "features.csv").read_text().splitlines()[0]
        assert "dwt(" in header
        assert "detail3" in header and "detail4" not in header

    def test_out_dir_env_var(self, toy_manifest, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("WIDEFEAT_OUT", str(target))
        monkeypatch.chdir(tmp_path)
        assert run_cli("extract", toy_manifest, "--max-level", 0) == 0
        assert target.exists() and any(target.iterdir())


class TestRecommend:
    def test_planted_fixture_succeeds(self, planted_manifest, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(FAST_RECOMMEND))
        out = tmp_path / "runs"
        assert run_cli("recommend", planted_manifest, "--config", config,
                       "--out", out) == 0
        printed = capsys.readouterr().out
        match = re.search(r"Fe1 mean test accuracy: ([0-9.]+)", printed)
        assert match and float(match.group(1)) >= 0.9
        run_dir = next(out.iterdir())
        payload = json.loads((run_dir / "recommendation.json").read_text())
        assert payload["schema_version"] == 1
        assert payload["target_met"] is True
        assert (run_dir / "lineage_report.txt").exists()

    def test_unattainable_tau_flags_target(self, planted_manifest, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**FAST_RECOMMEND, "tau": 1.01, "max_level_cap": 0}))
        assert run_cli("recommend", planted_manifest, "--config", config,
                       "--out", tmp_path / "runs") == 0
        printed = capsys.readouterr().out
        assert "target not met" in printed

    def test_missing_config_file(self, planted_manifest, tmp_path):
        assert run_cli("recommend", planted_manifest, "--config",
                       tmp_path / "nope.json", "--out", tmp_path / "runs") == 2

    def test_seed_required(self, planted_manifest, tmp_path):
        config = tmp_path / "cfg.json"
        raw = dict(FAST_RECOMMEND)
        raw.pop("seed")
        config.write_text(json.dumps(raw))
        assert run_cli("recommend", planted_manifest, "--config", config,
                       "--out", tmp_path / "runs") == 2

    def test_json_artifacts_reproducible(self, planted_manifest, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(FAST_RECOMMEND))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("recommend", planted_manifest, "--config", config,
                           "--out", out) == 0
            run_dir = next(out.iterdir())
            outs.append(((run_dir / "recommendation.json").read_bytes(),
                         (run_dir / "metrics.json").read_bytes()))
        assert outs[0] == outs[1]

    def test_run_error_exits_3_and_dumps_trace(self, planted_manifest, tmp_path,
                                               monkeypatch, capsys):
        monkeypatch.setattr(recommender, "evaluate_feature_set", all_folds_failed)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(FAST_RECOMMEND))
        out = tmp_path / "runs"
        assert run_cli("recommend", planted_manifest, "--config", config,
                       "--out", out) == 3
        assert "trace_dump.json" in capsys.readouterr().err
        dump = next(out.iterdir()) / "trace_dump.json"
        assert_artifact_format(dump)
        payload = json.loads(dump.read_text())
        assert payload["error"] == "every fold failed in every evaluation"
        assert payload["trace"]

    def test_flag_overrides(self, planted_manifest, tmp_path):
        out = tmp_path / "runs"
        assert run_cli("recommend", planted_manifest, "--out", out, "--seed", 9,
                       "--tau", 0.9, "--k", "5", "--max-level", 0, "--folds", 5) == 0
        run_dir = next(out.iterdir())
        payload = json.loads((run_dir / "recommendation.json").read_text())
        assert payload["config"]["seed"] == 9
        assert payload["config"]["max_level_cap"] == 0
        assert payload["config"]["k_schedule"] == [5]


class TestRejectBeforeCompute:
    @pytest.fixture
    def no_extraction(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("build_feature_matrix must not run")

        monkeypatch.setattr(recommender, "build_feature_matrix", fail)
        monkeypatch.setattr(cli, "build_feature_matrix", fail)

    def test_three_class_manifest_exits_2(self, tmp_path, no_extraction, capsys):
        records = [SignalRecord(id=f"r{i}", samples=np.sin(np.arange(64) * (i % 3 + 1)),
                                sample_rate_hz=100.0, label=i % 3) for i in range(45)]
        manifest = write_csv_dataset(tmp_path, records, rate=100.0,
                                     class_names=("a", "b", "c"))
        assert run_cli("recommend", manifest, "--seed", 1, "--out", tmp_path / "runs") == 2
        assert "binary" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        {"evaluation": {"kernels": ["sigmoid"]}},
        {"evaluation": {"class_weight_mode": "foo"}},
        {"selector": {"mrmr": {"objective": "XYZ"}}},
        {"selector": {"mrms": {"beta": -1}}},
        {"evaluation": {"gamma": -5}},
        {"evaluation": {"degree": 0}},
        {"evaluation": {"positive_class": 7}},
    ])
    def test_bad_config_value_exits_2(self, planted_manifest, tmp_path, no_extraction,
                                      override):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**FAST_RECOMMEND, **override}))
        assert run_cli("recommend", planted_manifest, "--config", config,
                       "--out", tmp_path / "runs") == 2

    def test_bad_k_flag_exits_2(self, planted_manifest, tmp_path, no_extraction, capsys):
        assert run_cli("recommend", planted_manifest, "--seed", 1, "--k", "5,x",
                       "--out", tmp_path / "runs") == 2
        assert "--k" in capsys.readouterr().err

    @pytest.mark.parametrize("config_text, flags", [
        ("[1, 2]", []),
        (json.dumps({**FAST_RECOMMEND, "pca": {"kernel": "sigmoid"}}), []),
        (json.dumps(FAST_RECOMMEND), ["--components", "5,x"]),
    ])
    def test_bad_pca_input_exits_2(self, planted_manifest, tmp_path, no_extraction,
                                   config_text, flags):
        config = tmp_path / "cfg.json"
        config.write_text(config_text)
        assert run_cli("baseline-pca", planted_manifest, "--config", config, *flags,
                       "--out", tmp_path / "runs") == 2

    # an 8-bit mono frame is one byte and cannot be cut short, so 8 bits go in stereo
    @pytest.mark.parametrize("width, channels", [(1, 2), (2, 1), (3, 1), (2, 2)])
    def test_truncated_wav_exits_2(self, tmp_path, no_extraction, width, channels, capsys):
        ints = np.arange(64 * channels) % 100 + (100 if width == 1 else -50)
        for name in ("ok", "cut"):
            write_wav(tmp_path / f"{name}.wav", ints, sampwidth=width, rate=100,
                      channels=channels)
        cut = tmp_path / "cut.wav"
        cut.write_bytes(cut.read_bytes()[:-1])
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "format": "wav", "class_names": ["a", "b"],
            "records": [{"path": "ok.wav", "label": 0}, {"path": "cut.wav", "label": 1}],
        }))
        assert run_cli("extract", manifest, "--out", tmp_path / "runs") == 2
        err = capsys.readouterr().err
        assert "cut.wav" in err and f"{ints.size * width - 1} bytes" in err

    @pytest.fixture
    def no_loading(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("load_dataset must not run")

        monkeypatch.setattr(cli, "load_dataset", fail)

    @pytest.mark.parametrize("argv", [
        ["recommend", "--seed", "1", "--folds", "4"],
        ["recommend", "--seed", "1", "--folds", "11"],
        ["recommend", "--seed", "-1"],
        ["extract", "--max-level", "3"],
        ["extract", "--max-level", "-1"],
        ["baseline-pca", "--folds", "4"],
    ])
    def test_bad_flag_exits_2_before_reading_signals(self, planted_manifest, tmp_path,
                                                      no_loading, argv):
        command, *flags = argv
        assert run_cli(command, planted_manifest, *flags, "--out", tmp_path / "runs") == 2

    @pytest.mark.parametrize("command, config_value", [
        ("recommend", {**FAST_RECOMMEND, "tau": "0.9"}),
        ("recommend", {**FAST_RECOMMEND, "seed": "5"}),
        ("recommend", {**FAST_RECOMMEND, "extraction": {"dwt": {"bank": "db4"}}}),
        ("extract", {"max_level": 1.0}),
        ("extract", {"stft": {"window": 256.5}}),
        ("extract", {"peaks": {"min_separation_frac": float("nan")}}),
        ("extract", {"peaks": {"prominence_frac": -1}}),
        ("recommend", {**FAST_RECOMMEND, "tau": float("inf")}),
        ("recommend", {**FAST_RECOMMEND, "selector": {"mrms": {"beta": float("inf")}}}),
        ("recommend", {**FAST_RECOMMEND, "evaluation": {"c_grid": [float("inf")]}}),
    ])
    def test_bad_config_number_exits_2_before_reading_signals(
            self, planted_manifest, tmp_path, no_loading, command, config_value, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(config_value))
        assert run_cli(command, planted_manifest, "--config", config,
                       "--out", tmp_path / "runs") == 2
        assert "must" in capsys.readouterr().err

    @pytest.mark.parametrize("pca", [
        {"grid": [2.9, 3.5]}, {"grid": [0]}, {"grid": ["5"]}, {"grid": [True]}, {"grid": 5},
        {"kernel": 1}, {"kernel": ["rbf"]}, {"components": [5]}, [5],
    ])
    def test_bad_pca_block_exits_2_before_reading_signals(
            self, planted_manifest, tmp_path, no_loading, pca, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**FAST_RECOMMEND, "pca": pca}))
        assert run_cli("baseline-pca", planted_manifest, "--config", config,
                       "--out", tmp_path / "runs") == 2
        assert "pca" in capsys.readouterr().err

    def test_internal_value_error_propagates(self, planted_manifest, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "recommend", broken)
        with pytest.raises(ValueError, match="internal fault"):
            run_cli("recommend", planted_manifest, "--seed", 1, "--out", tmp_path / "runs")


class TestBaselinePca:
    def test_grid_blocks_and_schema(self, planted_manifest, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            **FAST_RECOMMEND, "pca": {"grid": [2, 5, 10], "kernel": "rbf"}}))
        out = tmp_path / "runs"
        assert run_cli("baseline-pca", planted_manifest, "--config", config,
                       "--out", out) == 0
        run_dir = next(out.iterdir())
        payload = json.loads((run_dir / "metrics.json").read_text())
        assert payload["method"] == "pca"
        assert 1 <= len(payload["runs"]) <= 3
        for block in payload["runs"]:
            assert set(block["metrics"]) == set(METRIC_NAMES)

    def test_schema_matches_recommend_metrics(self, planted_manifest, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(FAST_RECOMMEND))
        out_wide = tmp_path / "wide"
        out_pca = tmp_path / "pca"
        assert run_cli("recommend", planted_manifest, "--config", config,
                       "--out", out_wide) == 0
        assert run_cli("baseline-pca", planted_manifest, "--config", config,
                       "--out", out_pca) == 0
        wide = json.loads((next(out_wide.iterdir()) / "metrics.json").read_text())
        pca = json.loads((next(out_pca.iterdir()) / "metrics.json").read_text())
        assert set(wide["metrics"]) == set(pca["runs"][0]["metrics"])


class TestJsonArtifacts:
    # recommend's trace_dump.json is checked in TestRecommend's run-error test
    @pytest.mark.parametrize("command", ["extract", "recommend", "baseline-pca"])
    def test_every_artifact_has_one_format(self, command, planted_manifest, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(FAST_RECOMMEND))
        out = tmp_path / "runs"
        extra = ["--max-level", 1] if command == "extract" else ["--config", config]
        assert run_cli(command, planted_manifest, *extra, "--out", out) == 0
        artifacts = sorted(next(out.iterdir()).glob("*.json"))
        assert artifacts
        for path in artifacts:
            assert_artifact_format(path)

    def test_failed_encode_leaves_no_file(self, tmp_path):
        path = tmp_path / "bad.json"
        with pytest.raises(TypeError):
            write_json(path, {"x": object()})
        assert not path.exists()


class TestReport:
    def test_single_and_combined_rows(self, planted_manifest, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(FAST_RECOMMEND))
        out = tmp_path / "runs"
        assert run_cli("recommend", planted_manifest, "--config", config,
                       "--out", out) == 0
        capsys.readouterr()
        assert run_cli("report", out) == 0
        printed = capsys.readouterr().out
        table_lines = [l for l in printed.splitlines()
                       if l and not l.startswith("summary")]
        assert len(table_lines) == 3  # header, rule, one row
        assert run_cli("baseline-pca", planted_manifest, "--config", config,
                       "--out", out) == 0
        capsys.readouterr()
        assert run_cli("report", out) == 0
        printed = capsys.readouterr().out
        rows = [l for l in printed.splitlines()
                if l.startswith(("wide", "pca["))]
        assert len(rows) == 2

    def test_csv_round_trip(self, planted_manifest, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(FAST_RECOMMEND))
        out = tmp_path / "runs"
        assert run_cli("recommend", planted_manifest, "--config", config,
                       "--out", out) == 0
        assert run_cli("report", out) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        parsed = dict(zip(header, row))
        for name in METRIC_NAMES:
            value = float(parsed[name])
            assert f"{value:.6g}" == parsed[name]

    def test_empty_dir(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert run_cli("report", empty) == 2


def test_console_script_help():
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-m", "widefeat.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("extract", "recommend", "baseline-pca", "report"):
        assert sub in proc.stdout
