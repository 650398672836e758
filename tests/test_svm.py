import importlib.util
import json
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import sine_records
from widefeat import RecommendConfig, svm
from widefeat.classifier_eval import EvalConfig
from widefeat.dataset import fold_roles, load_dataset, load_manifest, make_folds
from widefeat.errors import TrainingError
from widefeat.feature_bank import ExtractionConfig, build_feature_matrix
from widefeat.svm import (KernelSpec, decision_function, fold_problem, kernel_matrix, svm_predict,
                          svm_train, train_labels)


def separable_blobs(n_per=20, gap=4.0, seed=0):
    rng = np.random.default_rng(seed)
    neg = rng.standard_normal((n_per, 2)) * 0.5 + [-gap / 2, 0.0]
    pos = rng.standard_normal((n_per, 2)) * 0.5 + [gap / 2, 0.0]
    rows = np.vstack([neg, pos])
    labels = np.array([0] * n_per + [1] * n_per)
    return rows, labels


class TestTraining:
    def test_linear_separable_blobs(self):
        rows, labels = separable_blobs()
        model = svm_train(rows, labels, kernel=KernelSpec(kind="linear"), c=1.0)
        assert np.array_equal(svm_predict(model, rows), labels)

    def test_xor_with_rbf(self):
        rows = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]] * 4)
        labels = np.array([1, 1, 0, 0] * 4)
        model = svm_train(rows, labels, kernel=KernelSpec(kind="rbf", gamma=1.0), c=10.0)
        assert np.array_equal(svm_predict(model, rows), labels)

    def test_dual_feasibility_random(self):
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((50, 4))
        labels = (rows[:, 0] + 0.3 * rng.standard_normal(50) > 0).astype(int)
        if len(np.unique(labels)) < 2:
            labels[0] = 1 - labels[0]
        model = svm_train(rows, labels, kernel=KernelSpec(kind="rbf"), c=2.0)
        assert abs(float(model.alphas @ model.sv_labels)) < 1e-6
        assert np.all(model.alphas >= -1e-12)
        assert np.all(model.alphas <= model.sv_box + 1e-9)

    def test_single_class_rejected(self):
        with pytest.raises(TrainingError, match="two classes"):
            svm_train(np.random.default_rng(0).standard_normal((10, 2)), np.zeros(10))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rows_rejected_before_solving(self, monkeypatch, bad):
        rows, labels = separable_blobs()
        rows[3, 0] = bad
        monkeypatch.setattr(svm, "_MAX_ITER", 10)  # a solve on these rows would spin to the cap
        with pytest.raises(TrainingError, match="NaN or Inf"):
            svm_train(rows, labels)

    def test_determinism(self):
        rows, labels = separable_blobs(gap=1.0, seed=5)
        a = svm_train(rows, labels, kernel=KernelSpec(kind="rbf"), c=1.0)
        b = svm_train(rows, labels, kernel=KernelSpec(kind="rbf"), c=1.0)
        np.testing.assert_array_equal(a.alphas, b.alphas)
        assert a.bias == b.bias

    def test_zero_variance_column_standardized(self):
        rows, labels = separable_blobs()
        rows = np.column_stack([rows, np.full(rows.shape[0], 7.0)])
        model = svm_train(rows, labels, kernel=KernelSpec(kind="linear"))
        assert np.all(model.feature_std > 0)
        assert np.array_equal(svm_predict(model, rows), labels)

    def test_class_weights_resolved(self):
        rows, labels = separable_blobs(n_per=10)
        labels = np.concatenate([labels, np.ones(10, dtype=int)])
        rows = np.vstack([rows, np.random.default_rng(2).standard_normal((10, 2)) + [2, 0]])
        model = svm_train(rows, labels, class_weights="balanced")
        assert model.class_weights[0] == pytest.approx(30 / (2 * 10))
        assert model.class_weights[1] == pytest.approx(30 / (2 * 20))

    def test_unknown_class_weight_mode_rejected(self):
        rows, labels = separable_blobs()
        for mode in (None, {0: 2.0}, "balance"):
            with pytest.raises(ValueError, match="class weight mode"):
                svm_train(rows, labels, class_weights=mode)

    @pytest.mark.parametrize("n_per", [6, 20], ids=["list-loop", "array-loop"])
    def test_iteration_cap_raises(self, monkeypatch, n_per):
        rows, labels = separable_blobs(n_per=n_per, gap=1.0, seed=5)
        assert (len(rows) <= svm._LIST_ROWS) == (n_per == 6)
        monkeypatch.setattr(svm, "_MAX_ITER", 1)
        with pytest.raises(TrainingError, match="KKT gap"):
            svm_train(rows, labels, kernel=KernelSpec(kind="rbf"), c=1.0)


def _overlapping(n, seed):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, 4))
    labels = (rows[:, 0] + 0.8 * rng.standard_normal(n) > 0.3).astype(int)
    return rows, labels


class TestOptimality:
    @pytest.mark.parametrize("n,seed", [(60, 0), (40, 1)])
    @pytest.mark.parametrize("kind", ["linear", "rbf", "poly"])
    def test_dual_objective_matches_slsqp(self, kind, n, seed):
        rows, labels = _overlapping(n, seed)
        for c in (0.1, 1.0, 10.0):
            model = svm_train(rows, labels, kernel=KernelSpec(kind=kind), c=c)
            got = oracles.svm_dual_objective(model.alphas, model.sv_labels,
                                             model.support_vectors, kind)
            want = oracles.svm_dual_reference(rows, labels, kind, c)
            assert abs(got - want) <= 1e-6 * abs(want), (c, got, want)

    def test_default_grid_fits_meet_kkt_tolerance(self):
        # 200 noisy tones on five level-0 columns: 5 folds x 3 kernels x 3 C
        records = sine_records(n_records=200, n=512, snr_db=10, seed=2024)
        matrix = build_feature_matrix(records, ExtractionConfig(), max_level=0)
        values = matrix.values[:, [16, 5, 10, 13, 15]]
        labels = np.asarray([r.label for r in records])
        plan = make_folds(records, p=5, seed=8)
        config = EvalConfig()
        worst = []
        for fold in range(plan.p):
            train = fold_roles(plan, fold)[0]
            for spec in config.kernel_specs():
                for c in config.c_grid:
                    model = svm_train(values[train], labels[train], kernel=spec, c=c)
                    worst.append(oracles.kkt_violation(model, values[train], labels[train]))
        assert len(worst) == 45
        assert max(worst) <= 1e-3


def _tied(n, seed):
    """Overlapping rows, then all of them again and a few a third time with the
    other label: equal rows give equal ``yg`` values and zero pair curvature."""
    rows, labels = _overlapping(n, seed)
    return np.vstack([rows, rows, rows[:5]]), np.concatenate([labels, labels, 1 - labels[:5]])


def _with_constant(rows, labels):
    return np.column_stack([rows, np.full(rows.shape[0], 7.0)]), labels


class TestStepMatchesReference:
    """``FoldProblem.fit`` and ``svm_train`` give the alphas, bias and update count of
    the solver as it stood before the curvature table, bit for bit
    (``oracles.smo_reference``), on both sides of ``_LIST_ROWS``: the list loop up to it
    and the array loop above it."""
    DATA = {"n4": (np.array([[0.0, 1.0], [1.0, 0.3], [0.2, 0.2], [0.9, 1.1]]),
                   np.array([0, 0, 1, 1])),
            "n12": _overlapping(12, 25),
            "n-list-rows": _overlapping(svm._LIST_ROWS, 26),
            "n-list-rows+1": _overlapping(svm._LIST_ROWS + 1, 26),
            "n40": _overlapping(40, 27),
            "zero-variance-column-n20": _with_constant(*_overlapping(20, 28)),
            "zero-variance-column": _with_constant(*_overlapping(40, 21)),
            "tied-n25": _tied(10, 29),
            "tied": _tied(60, 22),
            "n300": _overlapping(300, 23)}

    @pytest.mark.parametrize("name", DATA)
    @pytest.mark.parametrize("mode", ["balanced", "none"])
    @pytest.mark.parametrize("kind", svm.KERNEL_KINDS)
    def test_fits_equal_reference(self, kind, mode, name):
        rows, labels = self.DATA[name]
        problem = fold_problem(rows, train_labels(labels, mode))
        at_box = 0
        for c in (0.1, 1.0, 10.0):
            model = svm_train(rows, labels, kernel=KernelSpec(kind=kind), c=c, class_weights=mode)
            xs = model.standardize(rows)
            y = np.where(labels == model.positive_label, 1.0, -1.0)
            box = np.array([c * model.class_weights[int(v)] for v in labels])
            alphas, bias, iterations = oracles.smo_reference(
                kernel_matrix(model.kernel, xs, xs), y, box)
            keep = alphas > 1e-10
            assert model.alphas.tobytes() == alphas[keep].tobytes(), c
            assert model.support_vectors.tobytes() == xs[keep].tobytes(), c
            assert model.bias == bias, c
            at_box += int(np.sum(model.alphas == model.sv_box))
            # the fold problem's fit: every train row's alpha, not only the support vectors'
            got, got_bias, got_iterations = problem.fit(KernelSpec(kind=kind), c)
            assert got.tobytes() == alphas.tobytes(), c
            assert (got_bias, got_iterations) == (bias, iterations), c
            assert model.alphas.tobytes() == got[got > 1e-10].tobytes(), c
        assert at_box > 0  # some fit ends with alphas on the box
        with pytest.raises(ValueError, match="C must be positive"):
            problem.fit(KernelSpec(kind=kind), 0)

    @pytest.mark.parametrize("n,loop", [(svm._LIST_ROWS, "_smo_list"),
                                        (svm._LIST_ROWS + 1, "_smo")])
    def test_row_count_picks_the_loop(self, monkeypatch, n, loop):
        calls = []  # (solver, type of the Gram it read)
        for name in ("_smo", "_smo_list"):
            def spy(*args, name=name, solve=getattr(svm, name)):
                calls.append((name, type(args[1])))
                return solve(*args)

            monkeypatch.setattr(svm, name, spy)
        rows, labels = _overlapping(n, 26)
        problem = fold_problem(rows, train_labels(labels))
        for kind in svm.KERNEL_KINDS:
            problem.fit(KernelSpec(kind=kind), 0.1)
        gram = list if loop == "_smo_list" else np.ndarray
        assert calls == [(loop, gram)] * 3

    def test_each_loop_runs_under_a_gated_workload(self, tmp_path, monkeypatch):
        """The benchmark's default-refine folds train on at most ``_LIST_ROWS`` rows and its
        escalate-tall folds on more, so each loop's fits are timed and KKT-checked there."""
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "workloads", workloads)  # its dataclass looks it up
        spec.loader.exec_module(workloads)
        sizes = {}  # workload -> the train row counts of every fold of every dataset
        for name in ("default-refine", "escalate-tall"):
            sizes[name] = set()
            for inputs in workloads.prepare(workloads.WORKLOADS[name], 1, tmp_path / name):
                if "records" in inputs:
                    records, config = inputs["records"], inputs["config"]
                else:
                    records = load_dataset(load_manifest(inputs["manifest"]))
                    config = RecommendConfig.from_dict(json.loads(inputs["config"].read_text()))
                plan = make_folds(records, config.p, config.seed)
                sizes[name] |= {fold_roles(plan, f)[0].size for f in range(plan.p)}
        assert max(sizes["default-refine"]) <= svm._LIST_ROWS < min(sizes["escalate-tall"])


class TestBoxFreeReuse:
    """``FoldProblem.fit`` returns the kernel's last solve in which no alpha reached its box,
    unsolved, for any C at least as large; every fit, reused or not, must equal a fresh
    problem's and ``oracles.smo_reference`` bit for bit."""
    GRIDS = {"ascending": (0.1, 1.0, 10.0), "descending": (10.0, 1.0, 0.1),
             "repeated": (1.0, 1.0, 10.0, 0.1, 10.0, 1.0)}
    DATA = {"separable12": separable_blobs(n_per=6, gap=3.0, seed=3),
            "separable40": separable_blobs(),
            "n4": (np.array([[0.0, 1.0], [1.0, 0.3], [0.2, 0.2], [0.9, 1.1]]),
                   np.array([0, 0, 1, 1])),
            "overlapping": _overlapping(40, 24)}

    @staticmethod
    def order(grid):
        """Kernel by kernel, then C by C, so that the kernel also changes between fits of one C."""
        return ([(kind, c) for kind in svm.KERNEL_KINDS for c in grid]
                + [(kind, c) for c in grid for kind in svm.KERNEL_KINDS])

    @pytest.mark.parametrize("name", DATA)
    @pytest.mark.parametrize("mode", ["balanced", "none"])
    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    def test_shared_fits_equal_fresh_and_reference(self, grid, mode, name):
        rows, labels = self.DATA[name]
        counts = {v: int(np.sum(labels == v)) for v in (0, 1)}
        weight = {v: labels.size / (2 * counts[v]) if mode == "balanced" else 1.0
                  for v in (0, 1)}
        y = np.where(labels == 1, 1.0, -1.0)
        problem = fold_problem(rows, train_labels(labels, mode))
        for kind, c in self.order(grid):
            spec = KernelSpec(kind=kind)
            got = problem.fit(spec, c)
            fresh = fold_problem(rows, train_labels(labels, mode)).fit(spec, c)
            gram = kernel_matrix(spec.resolve(rows.shape[1]), problem.xs, problem.xs)
            want = oracles.smo_reference(gram, y, np.array([c * weight[int(v)] for v in labels]))
            for other in (fresh, want):
                assert got[0].tobytes() == other[0].tobytes(), (kind, c)
                assert got[1:] == other[1:], (kind, c)

    def test_only_box_free_solves_are_reused(self, monkeypatch):
        solves = []  # (kind, c, alphas, reached the box) of every _smo and _smo_list call
        current = []
        for name in ("_smo", "_smo_list"):
            def spy(*args, solve=getattr(svm, name)):
                result = solve(*args)
                solves.append((*current, result[0], result[3]))
                return result

            monkeypatch.setattr(svm, name, spy)
        reused = at_box = 0
        for rows, labels in self.DATA.values():
            problem = fold_problem(rows, train_labels(labels))
            for kind, c in self.order(self.GRIDS["repeated"]):
                current[:] = [kind, c]
                before = len(solves)
                alphas = problem.fit(KernelSpec(kind=kind), c)[0]
                if len(solves) > before:
                    at_box += solves[-1][3]
                    continue
                (source,) = [s for s in solves if s[2] is alphas]
                assert source[0] == kind and source[1] <= c and not source[3], (kind, c)
                reused += 1
        assert reused >= 10 and at_box >= 10  # fixture sanity: both kinds of solve occur


def _model_fields(model):
    return {name: getattr(model, name) for name in model.__dataclass_fields__}


class TestFoldProblem:
    @pytest.mark.parametrize("spec", [
        KernelSpec(kind="linear"),
        KernelSpec(kind="rbf"), KernelSpec(kind="rbf", gamma=0.37),
        KernelSpec(kind="poly", degree=2), KernelSpec(kind="poly", degree=3),
        KernelSpec(kind="poly", gamma=0.37, degree=3, coef0=0.5)])
    def test_gram_is_bit_identical_to_kernel_matrix(self, spec):
        for n in (12, 40):  # the list loop's problems keep lists of rows, the array loop's arrays
            rows, labels = _overlapping(n, 3)
            rows = np.column_stack([rows, np.full(n, 7.0)])  # a zero-variance column
            problem = fold_problem(rows, train_labels(labels))
            want = kernel_matrix(spec.resolve(rows.shape[1]), problem.xs, problem.xs)
            entry = problem._kernel(spec)
            resolved, got, table, free = entry
            assert entry is problem._last and free is None  # no fit has solved this kernel yet
            assert resolved == spec.resolve(rows.shape[1])
            kept = list if n <= svm._LIST_ROWS else np.ndarray
            assert type(got) is kept and type(table) is kept
            assert np.asarray(got).tobytes() == want.tobytes()
            diag = want.diagonal()
            for i in range(n):  # the curvature passes the solver made per step before
                row = np.maximum((diag + diag[i]) - want[i] * 2.0, svm._TAU)
                assert np.asarray(table[i]).tobytes() == row.tobytes(), i
            again = problem._kernel(spec)  # asked again, the Gram and table are not rebuilt
            assert again[1] is got and again[2] is table

    @pytest.mark.parametrize("n", [12, 40])
    def test_kernel_change_replaces_the_whole_entry(self, n):
        rows, labels = separable_blobs(n_per=n // 2, gap=3.0, seed=3)
        problem = fold_problem(rows, train_labels(labels))
        solve = problem.fit(KernelSpec(kind="linear"), 10.0)
        linear_entry = list(problem._last)
        assert linear_entry[3] == (10.0, solve)  # fixture sanity: a box-free solve is kept
        assert problem.fit(KernelSpec(kind="linear"), 100.0)[0] is solve[0]  # reused
        problem.fit(KernelSpec(kind="rbf"), 0.1)
        assert problem._last[0] == KernelSpec(kind="rbf").resolve(rows.shape[1])
        assert not any(a is b for a in problem._last for b in linear_entry[1:])
        assert problem._last[3] is None  # rbf at 0.1 reached its box: no solve is kept
        # back on linear, the Gram, the table and the solve are built again, to the same bits
        again = problem.fit(KernelSpec(kind="linear"), 100.0)
        assert again[0] is not solve[0]
        assert again[0].tobytes() == solve[0].tobytes() and again[1:] == solve[1:]

    def test_problem_holds_at_most_three_square_arrays(self, monkeypatch):
        rows, labels = _overlapping(40, 7)
        problem = fold_problem(rows, train_labels(labels))
        seen = []  # per fit: the table it read and the n x n arrays the problem held
        solve = svm._smo

        def spy(problem, gram, table, box):
            held = list(vars(problem).values()) + problem._last
            seen.append((table, {id(a) for a in held
                                 if isinstance(a, np.ndarray) and a.shape == (40, 40)}))
            return solve(problem, gram, table, box)

        monkeypatch.setattr(svm, "_smo", spy)
        for kind in ("linear", "rbf", "poly", "linear"):
            for c in (0.1, 1.0, 10.0):
                svm_train(rows, labels, kernel=KernelSpec(kind=kind), c=c, problem=problem)
        assert [len(held) for _, held in seen] == [2] * 3 + [3] * 6 + [2] * 3
        tables = [table for table, _ in seen]
        for k in range(0, 12, 3):  # a kernel's C values share one table, built once
            assert tables[k] is tables[k + 1] is tables[k + 2]
        assert len({id(table) for table in tables}) == 4  # linear's is rebuilt after poly

    def test_table_build_makes_one_square_temporary(self):
        rows, labels = _overlapping(300, 8)
        problem = fold_problem(rows, train_labels(labels))
        tracemalloc.start()
        try:
            problem._kernel(KernelSpec(kind="linear"))  # the linear Gram exists already
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        square = 300 * 300 * 8
        assert 2 * square <= peak < 2.5 * square  # the table and one temporary

    @pytest.mark.parametrize("kind", ["linear", "rbf", "poly"])
    def test_shared_problem_fits_equal_plain_fits(self, kind):
        # label 0 is positive, so positive_label=None must take it from the problem
        rows, labels = _overlapping(40, 4)
        problem = fold_problem(rows, train_labels(labels, "balanced", 0))
        for c in (0.1, 1.0, 10.0):
            plain = svm_train(rows, labels, kernel=KernelSpec(kind=kind), c=c, positive_label=0)
            assert problem.fit(KernelSpec(kind=kind), c)[2] >= 1
            for positive in (0, None):
                shared = svm_train(rows, labels, kernel=KernelSpec(kind=kind), c=c,
                                   positive_label=positive, problem=problem)
                got, want = _model_fields(shared), _model_fields(plain)
                for name, value in want.items():
                    if isinstance(value, np.ndarray):
                        np.testing.assert_array_equal(got[name], value, err_msg=name)
                    else:
                        assert got[name] == value, name

    def test_problem_from_other_rows_rejected(self):
        rows, labels = _overlapping(40, 5)
        problem = fold_problem(rows, train_labels(labels))
        with pytest.raises(ValueError, match="problem was built from other"):
            svm_train(rows[:, :3], labels, problem=problem)
        with pytest.raises(ValueError, match="problem was built from other"):
            svm_train(rows[:-1], labels[:-1], problem=problem)
        with pytest.raises(ValueError, match="problem was built from other"):
            svm_train(rows, labels, class_weights="none", problem=problem)
        with pytest.raises(ValueError, match="problem was built from other"):
            svm_train(rows, labels, positive_label=0, problem=problem)

    def test_problem_shared_across_folds_rejected(self):
        # two rotations of four 10-row folds: equal train sizes, so only the
        # rows themselves tell one fold's problem from the other's
        rows, labels = _overlapping(40, 6)
        first, second = np.arange(0, 30), np.arange(10, 40)
        problem = fold_problem(rows[first], train_labels(labels[first]))
        svm_train(rows[first], labels[first], problem=problem)
        with pytest.raises(ValueError, match="problem was built from other"):
            svm_train(rows[second], labels[second], problem=problem)


class TestPrediction:
    def test_training_set_recovered(self):
        rows, labels = separable_blobs(seed=7)
        model = svm_train(rows, labels, kernel=KernelSpec(kind="linear"))
        assert np.array_equal(svm_predict(model, rows), labels)

    def test_free_support_vectors_sit_on_margin(self):
        rows, labels = separable_blobs(gap=2.0, seed=8)
        model = svm_train(rows, labels, kernel=KernelSpec(kind="linear"), c=1.0,
                          class_weights="none")
        raw = model.support_vectors * model.feature_std + model.feature_mean
        scores = decision_function(model, raw)
        free = (model.alphas > 1e-6) & (model.alphas < model.sv_box - 1e-6)
        assert free.any()
        np.testing.assert_allclose(scores[free] * model.sv_labels[free], 1.0, atol=1e-3)

    @pytest.mark.parametrize("kind", svm.KERNEL_KINDS)
    def test_decision_function_is_the_standardized_helper(self, kind):
        # a fold scores its eval rows with _decision on rows it standardized
        # once; public predictions must give the same bits
        rows, labels = separable_blobs(gap=1.0, seed=12)
        model = svm_train(rows, labels, kernel=KernelSpec(kind=kind), c=1.0)
        new_rows = np.random.default_rng(13).standard_normal((25, 2)) * 2.0
        want = svm._decision(model, model.standardize(new_rows))
        assert decision_function(model, new_rows).tobytes() == want.tobytes()
        k = kernel_matrix(model.kernel, model.standardize(new_rows), model.support_vectors)
        assert want.tobytes() == (k @ (model.alphas * model.sv_labels) + model.bias).tobytes()

    def test_width_mismatch(self):
        rows, labels = separable_blobs()
        model = svm_train(rows, labels)
        with pytest.raises(ValueError, match="features"):
            svm_predict(model, np.zeros((3, 5)))

    def test_empty_rows(self):
        rows, labels = separable_blobs()
        model = svm_train(rows, labels)
        assert svm_predict(model, np.zeros((0, 2))).size == 0
        assert decision_function(model, np.zeros((0, 2))).shape == (0,)

    @pytest.mark.parametrize("kind", svm.KERNEL_KINDS)
    def test_model_without_support_vectors_decides_by_bias(self, kind):
        rows, labels = separable_blobs(seed=10)
        trained = svm_train(rows, labels, kernel=KernelSpec(kind=kind), c=1.0)
        for bias in (-0.5, 0.0, 0.5):
            model = replace(trained, support_vectors=np.empty((0, 2)), alphas=np.empty(0),
                            sv_labels=np.empty(0), sv_box=np.empty(0), bias=bias)
            assert np.array_equal(decision_function(model, rows), np.full(len(rows), bias))
            side = model.positive_label if bias >= 0.0 else model.negative_label
            assert np.array_equal(svm_predict(model, rows), np.full(len(rows), side))

    def test_poly_kernel_runs(self):
        rows, labels = separable_blobs(seed=9)
        model = svm_train(rows, labels, kernel=KernelSpec(kind="poly", degree=3), c=1.0)
        assert (svm_predict(model, rows) == labels).mean() > 0.9
