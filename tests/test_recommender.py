import gc
import json
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

import widefeat.classifier_eval as classifier_eval_module
import widefeat.recommender as recommender_module
import widefeat.svm as svm_module
from conftest import (amplitude_shape_records, score_garbled_test_rows, sine_records,
                      write_csv_dataset)
from widefeat.classifier_eval import (EvalConfig, FoldOutcome, evaluate_feature_set,
                                      score_test_rows)
from widefeat.dataset import fold_roles, make_folds, SignalRecord
from widefeat.errors import ConfigError, RunError, ValidationError
from widefeat.feature_bank import ExtractionConfig, parse_lineage_path
from widefeat.recommender import (RecommendConfig, exhaustive_refine, interpret,
                                  recommend)
from widefeat.selector import SelectorConfig, mrmr_select, mrms_select, union_recommend
from widefeat.svm import svm_train

FAST_EVAL = EvalConfig(kernels=("linear", "rbf"), c_grid=(1.0, 10.0))


def energy_split_records(n_records=40, n=256, seed=17):
    """Classes differ in amplitude, so level-0 total energy separates them."""
    return sine_records(n_records=n_records, n=n, rate=200.0, freqs=(20.0, 20.0),
                        amps=(1.0, 2.0), snr_db=20.0, seed=seed)


def fast_config(**kw):
    defaults = dict(tau=0.9, p=5, seed=3, k_schedule=(5, 10), c=0,
                    max_level_cap=2, evaluation=FAST_EVAL)
    defaults.update(kw)
    return RecommendConfig(**defaults)


class TestConfig:
    def test_empty_schedule_rejected(self):
        with pytest.raises(ConfigError, match="k_schedule"):
            RecommendConfig(k_schedule=())

    def test_c_cap(self):
        with pytest.raises(ConfigError, match="c must be"):
            RecommendConfig(c=21)

    def test_tau_above_one_allowed(self):
        assert RecommendConfig(tau=1.01).tau == 1.01

    def test_tau_zero_rejected(self):
        with pytest.raises(ConfigError, match="tau"):
            RecommendConfig(tau=0.0)

    def test_round_trip_dict(self):
        config = fast_config()
        again = RecommendConfig.from_dict(config.to_dict())
        assert again.to_dict() == config.to_dict()

    def test_to_dict_carries_each_setting_once(self):
        config = fast_config(evaluation=EvalConfig(gamma=0.5, positive_class=1))

        def leaves(node, prefix=()):
            for key, value in node.items():
                if isinstance(value, dict):
                    yield from leaves(value, prefix + (key,))
                else:
                    yield prefix + (key,)

        paths = list(leaves(config.to_dict()))
        names = [path[-1] for path in paths]
        assert len(names) == len(set(names)) == 22
        assert ("metric",) in paths and ("seed",) in paths

    @pytest.mark.parametrize("cls, name, value", [
        (RecommendConfig, "c", 3), (RecommendConfig, "p", 6), (RecommendConfig, "seed", 3),
        (RecommendConfig, "max_level_cap", 1), (RecommendConfig, "k_schedule", (5, 10)),
        (EvalConfig, "degree", 2), (EvalConfig, "positive_class", 1),
        (ExtractionConfig, "stft_window", 64), (ExtractionConfig, "stft_hop", 64),
        (ExtractionConfig, "dwt_depth", 3),
    ])
    def test_numpy_integer_settings_stored_as_python_ints(self, cls, name, value):
        numpy_value = (tuple(np.int64(v) for v in value) if isinstance(value, tuple)
                       else np.int64(value))
        config = cls(**{name: numpy_value})
        stored = getattr(config, name)
        assert stored == value
        assert all(type(v) is int for v in (stored if isinstance(stored, tuple) else [stored]))
        json.dumps(config.to_dict())

    def test_evaluation_metric_must_agree(self):
        agreeing = RecommendConfig.from_dict(
            {"metric": "f_score", "evaluation": {"metric": "f_score"}})
        assert agreeing.evaluation.metric == "f_score"
        assert RecommendConfig.from_dict({"metric": "f_score"}).evaluation.metric == "f_score"
        with pytest.raises(ConfigError, match="evaluation.metric"):
            RecommendConfig.from_dict({"metric": "f_score", "evaluation": {"metric": "accuracy"}})

    @pytest.mark.parametrize("raw", [
        {"evaluation": {"kernels": ["sigmoid"]}},
        {"evaluation": {"class_weight_mode": "foo"}},
        {"evaluation": {"c_grid": [0.0]}},
        {"selector": {"mrmr": {"objective": "XYZ"}}},
        {"selector": {"mrms": {"beta": -1}}},
        {"extraction": {"dwt": {"bank": ["nope"]}}},
        {"extraction": {"dwt": {"bank": []}}},
        {"extraction": {"stft": {"window": 100}}},
        {"tau": "high"},
        {"k_schedule": 5},
        {"extraction": {"dwt": {"wavelet": "db4"}}},
        {"extraction": {"max_level": 1}},
        {"evaluation": {"seed": 11, "kkt_tol": 1e-3, "max_passes": 10}},
        {"selector": {"mrmr": {"objectve": "MIQ"}}},
        {"metrics": "f_score"},
        {"evaluation": {"gamma": -5.0}},
        {"evaluation": {"gamma": "abc"}},
        {"evaluation": {"degree": 0}},
        {"evaluation": {"coef0": float("nan")}},
        {"evaluation": {"positive_class": "1"}},
        {"tau": True},
        {"tau": "0.9"},
        {"c": 2.7},
        {"c": True},
        {"k_schedule": [2.5]},
        {"k_schedule": [True]},
        {"evaluation": {"coef0": "1"}},
        {"evaluation": {"c_grid": ["1"]}},
        {"evaluation": {"c_grid": 1.0}},
        {"evaluation": {"kernels": "rbf"}},
        {"selector": {"mrms": {"beta": "0.5"}}},
        {"extraction": {"stft": {"window": 256.5}}},
        {"extraction": {"stft": {"window": 256.0}}},
        {"extraction": {"stft": {"hop": "128"}}},
        {"extraction": {"dwt": {"bank": "db4"}}},
        {"extraction": {"dwt": {"depth": 4.0}}},
        {"extraction": {"peaks": {"prominence_frac": "0.1"}}},
        {"extraction": {"peaks": {"min_separation_frac": False}}},
        {"p": 4},
        {"p": 11},
        {"p": 5.0},
        {"seed": -1},
        {"seed": "1"},
        {"seed": 1.5},
        {"max_level_cap": 1.0},
        {"max_level_cap": True},
        {"tau": float("inf")},
        {"tau": float("nan")},
        {"evaluation": {"c_grid": [float("inf")]}},
        {"selector": {"mrms": {"beta": float("inf")}}},
        {"extraction": {"peaks": {"prominence_frac": -1}}},
        {"extraction": {"peaks": {"prominence_frac": float("inf")}}},
        {"extraction": {"peaks": {"min_separation_frac": -0.01}}},
        {"extraction": {"peaks": {"min_separation_frac": float("nan")}}},
    ])
    def test_bad_values_raise_config_error(self, raw):
        with pytest.raises(ConfigError):
            RecommendConfig.from_dict(raw)

    def test_constructor_and_from_dict_agree(self):
        assert RecommendConfig(tau=1) == RecommendConfig.from_dict({"tau": 1})
        assert type(RecommendConfig(tau=1).tau) is float
        assert type(EvalConfig(coef0=1).coef0) is float
        assert type(EvalConfig.from_dict({"gamma": 1}).gamma) is float
        assert (SelectorConfig(mrmr_objective="miq")
                == SelectorConfig.from_dict({"mrmr": {"objective": "miq"}}))
        assert ExtractionConfig(wavelet_bank=["db4"]).wavelet_bank == ("db4",)

    @pytest.mark.parametrize("make, match", [
        (lambda: ExtractionConfig(wavelet_bank="db4"), "dwt.bank"),
        (lambda: ExtractionConfig(peak_prominence_frac="0.1"), "peaks.prominence_frac"),
        (lambda: ExtractionConfig(peak_min_separation_frac=float("nan")),
         "peaks.min_separation_frac"),
        (lambda: RecommendConfig(k_schedule=5), "k_schedule"),
        (lambda: RecommendConfig(tau=float("inf")), "tau"),
        (lambda: SelectorConfig(mrms_beta=float("inf")), "beta"),
    ])
    def test_constructor_rejects_what_from_dict_rejects(self, make, match):
        with pytest.raises(ConfigError, match=re.escape(match)):
            make()

    def test_readme_example_config_states_the_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        after = readme.split("A reasonable starting `recommend.json`:", 1)[1]
        block = after.split("```json\n", 1)[1].split("```", 1)[0]
        assert RecommendConfig.from_dict(json.loads(block)) == RecommendConfig(seed=7)

    @pytest.mark.parametrize("raw, key", [
        ({"extraction": {"dwt": {"bank": "db4"}}}, "dwt.bank"),
        ({"evaluation": {"kernels": "rbf"}}, "evaluation.kernels"),
        ({"k_schedule": "5,10"}, "k_schedule"),
    ])
    def test_string_for_list_names_the_key(self, raw, key):
        with pytest.raises(ConfigError, match=re.escape(key)):
            RecommendConfig.from_dict(raw)

    def test_json_integers_load_as_floats(self):
        config = RecommendConfig.from_dict({
            "tau": 1, "selector": {"mrms": {"beta": 1}},
            "extraction": {"peaks": {"prominence_frac": 0, "min_separation_frac": 0}},
            "evaluation": {"c_grid": [1, 10], "coef0": 0}})
        floats = [config.tau, config.selector.mrms_beta, config.extraction.peak_prominence_frac,
                  config.extraction.peak_min_separation_frac, config.evaluation.coef0,
                  *config.evaluation.c_grid]
        assert all(type(v) is float for v in floats)
        assert RecommendConfig.from_dict(config.to_dict()) == config

    def test_non_binary_labels_rejected_before_extraction(self, monkeypatch):
        def no_extraction(*args, **kwargs):
            raise AssertionError("build_feature_matrix must not run")

        monkeypatch.setattr(recommender_module, "build_feature_matrix", no_extraction)
        records = [SignalRecord(id=f"r{i}", samples=np.sin(np.arange(64) * (i % 3 + 1)),
                                sample_rate_hz=100.0, label=i % 3) for i in range(45)]
        with pytest.raises(ValidationError, match="binary"):
            recommend(records, fast_config(k_schedule=(5,)))

    def test_absent_positive_class_rejected_before_extraction(self, monkeypatch):
        def no_extraction(*args, **kwargs):
            raise AssertionError("build_feature_matrix must not run")

        monkeypatch.setattr(recommender_module, "build_feature_matrix", no_extraction)
        records = energy_split_records(n_records=20, n=64)
        config = fast_config(evaluation=EvalConfig(positive_class=7))
        with pytest.raises(ValidationError, match="positive_class 7"):
            recommend(records, config)


class TestLevelGating:
    def test_level0_separable_stops_at_zero(self):
        rec = recommend(energy_split_records(), fast_config())
        assert rec.target_met
        assert rec.level_reached == 0
        level0_columns = rec.matrix.columns_up_to_level(0)
        for step in rec.trace:
            assert step.level == 0
            for cand in step.candidates:
                assert all(i < level0_columns for i in cand.ids)

    def test_level1_only_fixture_escalates(self):
        records = amplitude_shape_records(seed=7)
        isolated = recommend(records, fast_config(tau=1.0, max_level_cap=0, seed=7))
        best_min = max(c.min_eval for s in isolated.trace for c in s.candidates)
        assert best_min < 1.0
        assert not isolated.target_met
        full = recommend(records, fast_config(tau=1.0, max_level_cap=2, seed=7))
        assert full.level_reached >= 1

    def test_unattainable_tau_exhausts(self):
        rec = recommend(energy_split_records(), fast_config(tau=1.01, k_schedule=(5,)))
        assert not rec.target_met
        assert rec.level_reached == 2
        assert [s.level for s in rec.trace] == [0, 1, 2]
        assert all(s.decision == "continue" for s in rec.trace)


class TestTraceAndSets:
    def test_trace_completeness_and_fe1_reproducible(self):
        rec = recommend(energy_split_records(seed=19), fast_config(tau=1.01, k_schedule=(5,)))
        assert rec.trace
        best = max(v for s in rec.trace for c in s.candidates
                   for v in c.eval_metrics if v is not None)
        assert rec.fe1.best_eval_metric == best
        for step in rec.trace:
            for cand in step.candidates:
                assert len(cand.eval_metrics) == rec.plan.p

    def test_fe2_dominance(self):
        rec = recommend(energy_split_records(seed=23), fast_config(tau=1.01, k_schedule=(5,)))
        for step in rec.trace:
            for cand in step.candidates:
                assert cand.min_eval <= rec.fe2.min_eval

    def test_determinism(self):
        records = energy_split_records(seed=29)
        a = recommend(records, fast_config(seed=4))
        b = recommend(records, fast_config(seed=4))
        assert a.to_dict() == b.to_dict()

    def test_early_stop_monotonicity(self):
        records = energy_split_records(seed=31)
        full = recommend(records, fast_config(seed=5, max_level_cap=2))
        assert full.level_reached == 0
        capped = recommend(records, fast_config(seed=5, max_level_cap=0))
        assert capped.trace == full.trace
        assert capped.fe1.ids == full.fe1.ids
        assert capped.fe2.ids == full.fe2.ids

    def test_test_set_hygiene_over_seeds(self, monkeypatch):
        records = energy_split_records(seed=37)
        for seed in range(5):
            config = fast_config(seed=seed)
            clean = recommend(records, config)
            with monkeypatch.context() as patch:
                patch.setattr(recommender_module, "score_test_rows", score_garbled_test_rows)
                garbled = recommend(records, config)
            assert clean.fe1.ids == garbled.fe1.ids
            assert clean.fe2.ids == garbled.fe2.ids
            assert clean.trace == garbled.trace
            assert clean.fe1.test_reports[0].to_dict() != garbled.fe1.test_reports[0].to_dict()

    def test_each_call_sees_only_its_fold_rows(self, monkeypatch):
        # spies record the rows handed to every selection, fit and scoring, and
        # what each returned; each call's fold follows from the order the loop
        # makes the calls in.  A fold scores its models' eval rows through
        # _decision, on rows it standardized once, until one scores 1.0; test
        # rows go through svm_predict
        calls = []

        def spy(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                call = [name, args, None]
                calls.append(call)
                call[2] = original(*args, **kwargs)
                return call[2]

            monkeypatch.setattr(owner, name, wrapper)

        for owner, name in ((recommender_module, "mrmr_select"),
                            (recommender_module, "mrms_select"),
                            (recommender_module, "evaluate_feature_set"),
                            (classifier_eval_module, "svm_train"),
                            (classifier_eval_module, "_decision"),
                            (classifier_eval_module, "confusion_metrics"),
                            (classifier_eval_module, "svm_predict")):
            spy(owner, name)
        # tau above 1 runs every level, and c=3 refines the 3-feature Fe2
        rec = recommend(energy_split_records(), fast_config(tau=1.01, k_schedule=(3,), c=3))
        values, p = rec.matrix.values, rec.plan.p
        roles = [fold_roles(rec.plan, fold) for fold in range(p)]
        fits_per_fold = len(FAST_EVAL.kernels) * len(FAST_EVAL.c_grid)

        # per level, each fold in turn runs mRMR, then MRMS
        selections = [args for name, args, _ in calls if name.endswith("_select")]
        assert len(selections) == 2 * p * (rec.config.max_level_cap + 1)
        for i, (sub, *_) in enumerate(selections):
            train_idx, eval_idx, _ = roles[i // 2 % p]
            n_cols = rec.matrix.columns_up_to_level(i // (2 * p))
            rows = np.sort(np.concatenate([train_idx, eval_idx]))
            np.testing.assert_array_equal(sub, values[rows, :n_cols])

        # each evaluation fits every kernel and C per fold, in fold order, and
        # scores each model on that fold's eval rows, standardized by the mean
        # and std of its train rows, right after its fit, up to and including
        # the fold's first report of 1.0 on the metric
        last_evaluation = max(i for i, (name, *_) in enumerate(calls)
                              if name == "evaluate_feature_set")
        metric = rec.config.evaluation.metric
        test_predictions = []
        for i, (name, args, result) in enumerate(calls):
            if name == "evaluate_feature_set":
                ids, fits = args[2], 0
            elif name == "svm_train":
                train_idx, eval_idx, _ = roles[fits // fits_per_fold]
                np.testing.assert_array_equal(args[0], values[np.ix_(train_idx, ids)])
                if fits % fits_per_fold == 0:
                    decided = False
                scored = i + 1 < len(calls) and calls[i + 1][0] == "_decision"
                assert scored != decided
                fits += 1
            elif name == "confusion_metrics":
                assert calls[i - 1][0] == "_decision"
                decided = result.value(metric) == 1.0
            elif name == "_decision":
                assert calls[i - 1][0] == "svm_train" and args[0] is calls[i - 1][2]
                train = values[np.ix_(train_idx, ids)]
                std = train.std(axis=0)
                std[std == 0.0] = 1.0
                want = (values[np.ix_(eval_idx, ids)] - train.mean(axis=0)) / std
                assert args[1].shape == want.shape and args[1].tobytes() == want.tobytes()
            elif name == "svm_predict":
                assert i > last_evaluation
                test_predictions.append(args[1])
        names = [name for name, *_ in calls]
        assert names.count("svm_train") == names.count("evaluate_feature_set") * p * fits_per_fold
        assert names.count("_decision") == names.count("confusion_metrics")
        assert 0 < names.count("_decision") < names.count("svm_train")  # the rule is exercised
        assert rec.refined is not None and not rec.refined.skipped
        # a set's models take its columns in ascending id order
        expected = [values[np.ix_(roles[fold][2], sorted(fe.ids))]
                    for fe in (rec.fe1, rec.fe2) for fold in range(p)]
        assert len(test_predictions) == len(expected)
        for got, want in zip(test_predictions, expected):
            np.testing.assert_array_equal(got, want)

    def test_all_folds_failed_raises_run_error(self, monkeypatch):
        def all_failed(matrix, labels, ids, plan, config, *, setups=None):
            return [FoldOutcome(fold=f, eval_report=None, test_report=None,
                                feature_ids=tuple(ids))
                    for f in range(plan.p)]

        monkeypatch.setattr(recommender_module, "evaluate_feature_set", all_failed)
        with pytest.raises(RunError) as excinfo:
            recommend(energy_split_records(), fast_config())
        assert excinfo.value.trace


class TestEvaluationOncePerSet:
    def test_each_id_set_evaluated_once_in_ascending_order(self, monkeypatch):
        evaluated, fits = [], []

        def counted_evaluate(matrix, labels, ids, *args, **kwargs):
            evaluated.append(tuple(ids))
            return evaluate_feature_set(matrix, labels, ids, *args, **kwargs)

        def counted_train(*args, **kwargs):
            fits.append(1)
            return svm_train(*args, **kwargs)

        monkeypatch.setattr(recommender_module, "evaluate_feature_set", counted_evaluate)
        monkeypatch.setattr(classifier_eval_module, "svm_train", counted_train)
        # tau above 1 runs every level, and c=4 refines the 3-feature Fe2
        config = fast_config(tau=1.01, k_schedule=(3, 4), c=4)
        rec = recommend(sine_records(n_records=30, n=128, seed=3), config)
        proposed = [c.ids for s in rec.trace for c in s.candidates]
        # fixture sanity: a set is proposed twice, and Fe2's union order is not ascending
        assert len(set(proposed)) < len(proposed)
        assert list(rec.fe2.ids) != sorted(rec.fe2.ids)
        assert not rec.refined.skipped
        subsets = [tuple(e["ids"]) for e in rec.refined.evaluations]
        assert all(list(ids) == sorted(ids) for ids in evaluated)
        assert sorted(evaluated) == sorted({tuple(sorted(ids)) for ids in proposed + subsets})
        grid = len(FAST_EVAL.kernels) * len(FAST_EVAL.c_grid)
        assert len(fits) == config.p * grid * len(evaluated)

    def test_only_escalation_sets_keep_fold_models(self, monkeypatch):
        made, alive_at_test = [], []  # (ids, weakref) per fold model; ids alive at scoring

        def tracked_evaluate(matrix, labels, ids, *args, **kwargs):
            outcomes = evaluate_feature_set(matrix, labels, ids, *args, **kwargs)
            made.extend((tuple(sorted(ids)), weakref.ref(o.model))
                        for o in outcomes if not o.failed)
            return outcomes

        def counted_score(*args, **kwargs):
            if not alive_at_test:
                gc.collect()
                alive_at_test.append([ids for ids, model in made if model() is not None])
            return score_test_rows(*args, **kwargs)

        monkeypatch.setattr(recommender_module, "evaluate_feature_set", tracked_evaluate)
        monkeypatch.setattr(recommender_module, "score_test_rows", counted_score)
        # tau above 1 runs every level, and c=4 refines the 3-feature Fe2
        config = fast_config(tau=1.01, k_schedule=(3, 4), c=4)
        rec = recommend(sine_records(n_records=30, n=128, seed=3), config)
        escalated = {tuple(sorted(c.ids)) for s in rec.trace for c in s.candidates}
        refined_only = {tuple(e["ids"]) for e in rec.refined.evaluations} - escalated
        # fixture sanity: refinement fits subsets that escalation never proposed
        assert refined_only and any(ids in refined_only for ids, _ in made)
        alive = alive_at_test[0]
        assert set(alive) <= escalated
        assert len(alive) <= config.p * len(escalated)

    def test_fold_label_setup_built_once_per_run(self, monkeypatch):
        built, setups_seen = [], []
        train_labels = svm_module.train_labels

        def counted_labels(*args, **kwargs):
            built.append(1)
            return train_labels(*args, **kwargs)

        def seen_evaluate(*args, **kwargs):
            setups_seen.append(kwargs["setups"])
            return evaluate_feature_set(*args, **kwargs)

        monkeypatch.setattr(classifier_eval_module, "train_labels", counted_labels)
        monkeypatch.setattr(svm_module, "train_labels", counted_labels)
        monkeypatch.setattr(recommender_module, "evaluate_feature_set", seen_evaluate)
        # tau above 1 runs every level, and c=3 refines the 3-feature Fe2
        rec = recommend(energy_split_records(), fast_config(tau=1.01, k_schedule=(3,), c=3))
        assert len(setups_seen) > 7  # fixture sanity: refinement alone scores 7 subsets
        assert len(built) == rec.plan.p
        assert all(s is setups_seen[0] for s in setups_seen)
        for fold, (train_idx, eval_idx, *_) in enumerate(setups_seen[0].folds):
            want_train, want_eval, _ = fold_roles(rec.plan, fold)
            assert np.array_equal(train_idx, want_train)
            assert np.array_equal(eval_idx, want_eval)

    def test_test_reports_equal_a_refit(self):
        records = energy_split_records(seed=23)
        config = fast_config(tau=1.01, k_schedule=(5,))
        rec = recommend(records, config)
        labels = np.array([r.label for r in records])
        for fe in (rec.fe1, rec.fe2):
            refit = evaluate_feature_set(rec.matrix, labels, fe.ids, rec.plan, config.evaluation)
            scored = score_test_rows(refit, rec.matrix, labels, rec.plan)
            assert fe.test_reports == [o.test_report for o in scored]

    def test_readme_library_blocks_run_and_score_fe2_without_refit(self, tmp_path,
                                                                   monkeypatch, capsys):
        write_csv_dataset(tmp_path, sine_records(), 200.0)
        monkeypatch.chdir(tmp_path)
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
        blocks = re.findall(r"```python\n(.*?)```", library, re.S)
        assert len(blocks) == 3
        namespace = {}
        for block in blocks:
            exec(block, namespace)
        assert "Fe2" in capsys.readouterr().out
        assert [o.test_report for o in namespace["tested"]] == namespace["rec"].fe2.test_reports
        assert namespace["refined"] == namespace["rec"].refined


class TestSelectionOncePerFold:
    def test_trace_selections_equal_direct_per_k_runs(self, monkeypatch):
        calls = []

        def counted(select):
            def wrapper(values, labels, k, *args, **kwargs):
                calls.append((select.__name__, k))
                return select(values, labels, k, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(recommender_module, "mrmr_select", counted(mrmr_select))
        monkeypatch.setattr(recommender_module, "mrms_select", counted(mrms_select))
        records = energy_split_records(n_records=30, n=128, seed=11)
        config = fast_config(tau=1.01, k_schedule=(3, 6),
                             evaluation=EvalConfig(kernels=("linear",), c_grid=(1.0,)))
        rec = recommend(records, config)
        assert [(s.level, s.k) for s in rec.trace] == [(lv, k) for lv in range(3) for k in (3, 6)]
        # once per level and fold, at the largest k
        assert sorted(calls) == [("mrmr_select", 6)] * 15 + [("mrms_select", 6)] * 15
        labels = np.array([r.label for r in records])
        for step in rec.trace:
            values = rec.matrix.values[:, :rec.matrix.columns_up_to_level(step.level)]
            for sel in step.selections:
                train_idx, eval_idx, _ = fold_roles(rec.plan, sel.fold)
                rows = np.sort(np.concatenate([train_idx, eval_idx]))
                assert sel.mrmr == mrmr_select(values[rows], labels[rows], step.k, "MID")
                assert sel.mrms == mrms_select(values[rows], labels[rows], step.k, 0.5)
                assert sel.union == union_recommend(sel.mrmr, sel.mrms, step.k)


def refinement_fixture(seed=19):
    rng = np.random.default_rng(seed)
    n = 40
    labels = np.array([0, 1] * (n // 2))
    info = np.where(labels == 1, 1.8, 0.0) + rng.standard_normal(n)
    noise = 3.0 * rng.standard_normal(n)
    records = [SignalRecord(id=f"r{i}", samples=np.arange(16.0), sample_rate_hz=1.0,
                            label=int(l)) for i, l in enumerate(labels)]
    plan = make_folds(records, 5, seed)
    return np.column_stack([info, noise]), labels, plan


def refine(values, labels, plan, base_set, c, config=FAST_EVAL):
    """``exhaustive_refine`` with each subset scored by ``evaluate_feature_set``."""
    return exhaustive_refine(lambda ids: evaluate_feature_set(values, labels, ids, plan, config),
                             base_set, c, config.metric)


class TestRefinement:
    def test_single_feature_base(self):
        values, labels, plan = refinement_fixture()
        result = refine(values, labels, plan, (0,), c=3)
        assert result.chosen_ids == (0,)
        assert len(result.evaluations) == 1

    def test_noise_feature_dropped(self):
        values, labels, plan = refinement_fixture(seed=19)
        ec = EvalConfig(kernels=("linear", "rbf"), c_grid=(1.0, 10.0))
        with_noise, alone = ([o.eval_report.accuracy
                              for o in evaluate_feature_set(values, labels, ids, plan, ec)]
                             for ids in ((0, 1), (0,)))
        assert min(with_noise) < min(alone)  # fixture sanity: noise hurts a fold
        result = refine(values, labels, plan, (0, 1), c=5, config=ec)
        assert result.chosen_ids == (0,)

    def test_enumeration_count(self):
        rng = np.random.default_rng(41)
        values, labels, plan = refinement_fixture()
        values = np.column_stack([values, rng.standard_normal((40, 2))])
        result = refine(values, labels, plan, (0, 1, 2, 3), c=4,
                        config=EvalConfig(kernels=("linear",), c_grid=(1.0,)))
        assert len(result.evaluations) == 15

    def test_base_larger_than_c_rejected(self):
        values, labels, plan = refinement_fixture()
        with pytest.raises(ValueError, match="c <= 20"):
            refine(values, labels, plan, (0, 1), c=1)

    def test_repeated_ids_rejected_before_any_evaluation(self):
        evaluated = []
        with pytest.raises(ValueError, match="repeat a feature"):
            exhaustive_refine(evaluated.append, (0, 1, 0), c=3, metric="accuracy")
        assert evaluated == []

    def test_recommend_skips_refinement_when_base_exceeds_c(self):
        rec = recommend(energy_split_records(seed=43), fast_config(c=2, k_schedule=(5,)))
        assert rec.refined is not None
        assert rec.refined.skipped
        assert "exceeds c" in rec.refined.note
        assert interpret(rec).splitlines()[-1] == (
            f"Refinement: skipped: |Fe2|={len(rec.fe2.ids)} exceeds c=2")

    def test_recommend_refines_when_it_fits(self):
        rec = recommend(energy_split_records(seed=47), fast_config(c=6, k_schedule=(5,)))
        assert rec.refined is not None
        assert not rec.refined.skipped
        assert len(rec.refined.evaluations) == 2 ** len(rec.fe2.ids) - 1
        assert set(rec.refined.chosen_ids) <= set(rec.fe2.ids)


class TestInterpret:
    def test_report_lists_features_in_rank_order(self):
        rec = recommend(energy_split_records(seed=53), fast_config())
        text = interpret(rec)
        for fe in (rec.fe1, rec.fe2):
            for rank, fid in enumerate(fe.ids, start=1):
                assert f"[id {fid}]" in text
        assert text.count("[id") == len(rec.fe1.ids) + len(rec.fe2.ids)

    def test_lineage_paths_in_report_parse_back(self):
        rec = recommend(energy_split_records(seed=59), fast_config())
        for fid in rec.fe1.ids + rec.fe2.ids:
            descriptor = rec.matrix.descriptors[fid]
            assert parse_lineage_path(descriptor.name) == descriptor.lineage

    def test_unknown_id_is_internal_error(self):
        rec = recommend(energy_split_records(seed=61), fast_config())
        rec.fe1.ids = rec.fe1.ids + (10_000,)
        with pytest.raises(RuntimeError, match="no descriptor"):
            interpret(rec)
