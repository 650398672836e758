import numpy as np
import pytest

import oracles
from widefeat import selector
from widefeat.selector import (F_SENTINEL, RelevanceCache, f_statistic, fuzzy_dependency,
                               mrmr_select, mrms_select, union_recommend)


class TestFStatistic:
    def test_identical_column(self):
        assert f_statistic([2.0] * 8, [0, 0, 0, 0, 1, 1, 1, 1]) == 0.0

    def test_zero_within_variance_sentinel(self):
        assert f_statistic([0, 0, 0, 1, 1, 1], [0, 0, 0, 1, 1, 1]) == F_SENTINEL

    def test_hand_anova(self):
        # grand mean 2.5, SSB = 1.5, SSW = 4, df (1, 4) -> F = 1.5
        assert f_statistic([1, 2, 3, 2, 3, 4], [0, 0, 0, 1, 1, 1]) == pytest.approx(1.5)

    def test_small_class_rejected(self):
        with pytest.raises(ValueError, match="fewer than two"):
            f_statistic([1, 2, 3], [0, 0, 1])

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="two classes"):
            f_statistic([1, 2, 3], [0, 0, 0])

    def test_random_fixtures_match_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(6, 40))
            labels = rng.integers(0, 2, n)
            while min(np.sum(labels == 0), np.sum(labels == 1)) < 2:
                labels = rng.integers(0, 2, n)
            col = rng.standard_normal(n)
            expected = oracles.anova_f(col, labels)
            assert abs(f_statistic(col, labels) - expected) <= 1e-9 * max(1.0, expected)

    def test_matrix_input_equals_column_calls(self):
        rng = np.random.default_rng(4)
        labels = np.array([0, 1, 2] * 9)
        values = rng.standard_normal((labels.size, 6)) * [1.0, 1e-4, 1e4, 1.0, 1.0, 1.0]
        values[:, 3] = 7.0  # constant: F = 0
        values[:, 4] = labels * 2.0  # no within-class spread: the sentinel
        f = f_statistic(values, labels)
        assert f.shape == (6,)
        assert f[3] == 0.0 and f[4] == F_SENTINEL
        assert f.tolist() == [f_statistic(values[:, j], labels) for j in range(6)]
        with pytest.raises(ValueError, match="labels"):
            f_statistic(values, labels[:-1])


def cache_pearson(a, b) -> float:
    """|Pearson| of two columns as mRMR reads it, through ``RelevanceCache``."""
    values = np.column_stack([a, b]).astype(float)
    return float(RelevanceCache.build(values, np.arange(len(values)) % 2).correlations_with(0)[1])


class TestCachePearson:
    def test_self_correlation(self):
        assert cache_pearson([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0)

    def test_constant_guard(self):
        assert cache_pearson([5, 5, 5, 5], [1, 2, 3, 4]) == 0.0

    def test_direct_formula_fixture(self):
        expected = oracles.abs_pearson([1, 2, 3, 4], [2, 4, 5, 9])
        assert expected == pytest.approx(0.9647638212377322)
        assert cache_pearson([1, 2, 3, 4], [2, 4, 5, 9]) == pytest.approx(expected, abs=1e-12)

    def test_random_fixtures_match_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(4, 50))
            a, b = rng.standard_normal(n), rng.standard_normal(n)
            assert abs(cache_pearson(a, b) - oracles.abs_pearson(a, b)) < 1e-9


def duplicate_fixture_mrmr():
    """Columns [a, dup(a), b]: b has the same per-class value multisets as a
    (hence exactly equal F) but within-class order reversed, so |corr(a, b)| < 1."""
    labels = np.array([0] * 5 + [1] * 5)
    a = np.array([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], dtype=float)
    b = np.array([5, 4, 3, 2, 1, 10, 9, 8, 7, 6], dtype=float)
    return np.column_stack([a, a.copy(), b]), labels


class TestMrmr:
    def test_k1_is_max_f(self):
        rng = np.random.default_rng(2)
        labels = np.array([0, 1] * 10)
        values = rng.standard_normal((20, 6))
        values[:, 3] += labels * 3.0
        for objective in ("MID", "MIQ"):
            result = mrmr_select(values, labels, 1, objective)
            assert result.ranked_ids == (3,)
            assert result.step_scores[0].pairwise == 0.0

    @pytest.mark.parametrize("objective", ["MID", "MIQ"])
    def test_duplicate_never_picked(self, objective):
        values, labels = duplicate_fixture_mrmr()
        result = mrmr_select(values, labels, 2, objective)
        assert result.ranked_ids == (0, 2)  # the copy at id 1 loses to b
        # fixture sanity: b carries the same relevance but is not a copy
        assert f_statistic(values[:, 2], labels) == pytest.approx(
            f_statistic(values[:, 0], labels))
        assert cache_pearson(values[:, 0], values[:, 2]) < 1.0

    @pytest.mark.parametrize("objective", ["MID", "MIQ"])
    def test_greedy_matches_brute_force(self, objective):
        rng = np.random.default_rng(3)
        for trial in range(5):
            n, m = int(rng.integers(12, 30)), 10
            labels = np.array([0, 1] * (n // 2))
            values = rng.standard_normal((labels.size, m))
            values[:, rng.integers(m)] += labels * rng.uniform(0.5, 2.0)
            result = mrmr_select(values, labels, 3, objective)
            selected = []
            for step in range(3):
                expected = oracles.mrmr_brute_step(values, labels, selected, objective)
                assert result.ranked_ids[step] == expected
                selected.append(expected)

    def test_scale_and_shift_invariance(self):
        rng = np.random.default_rng(4)
        labels = np.array([0, 1] * 12)
        values = rng.standard_normal((24, 8))
        values[:, 2] += labels * 1.5
        base = mrmr_select(values, labels, 4, "MID").ranked_ids
        scaled = values.copy()
        scaled[:, 5] = scaled[:, 5] * 7.3 + 11.0
        scaled[:, 2] = scaled[:, 2] * 0.01 - 4.0
        assert mrmr_select(scaled, labels, 4, "MID").ranked_ids == base

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        labels = np.array([0, 1] * 12)
        values = rng.standard_normal((24, 8))
        values[:, 1] += labels * 2.0
        base = mrmr_select(values, labels, 4, "MIQ").ranked_ids
        perm = rng.permutation(24)
        assert mrmr_select(values[perm], labels[perm], 4, "MIQ").ranked_ids == base

    def test_k_validation(self):
        values = np.random.default_rng(0).standard_normal((8, 3))
        labels = np.array([0, 1] * 4)
        with pytest.raises(ValueError, match="out of range"):
            mrmr_select(values, labels, 4, "MID")
        with pytest.raises(ValueError, match="objective"):
            mrmr_select(values, labels, 2, "MAX")

    def test_step_scores_recorded(self):
        values, labels = duplicate_fixture_mrmr()
        result = mrmr_select(values, labels, 3, "MID")
        assert len(result.step_scores) == 3
        first = result.step_scores[0]
        assert first.score == pytest.approx(first.relevance - first.pairwise)


class TestFuzzyDependency:
    def test_perfect_binary_feature(self):
        labels = np.array([0, 0, 0, 1, 1, 1])
        assert fuzzy_dependency(labels.astype(float), labels) == pytest.approx(1.0)

    def test_constant_feature(self):
        labels = np.array([0, 0, 0, 1, 1, 1])
        assert fuzzy_dependency(np.full(6, 3.3), labels) == 0.0

    def test_six_record_fixture_matches_oracle(self):
        values = np.array([0.0, 0.1, 0.2, 0.8, 0.9, 1.0])
        labels = np.array([0, 0, 0, 1, 1, 1])
        expected = oracles.fuzzy_gamma(values, labels)
        assert fuzzy_dependency(values, labels) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.0)  # the 0.6 gap exceeds sigma, so R_cross = 0

    def test_random_fixtures_in_bounds_and_match_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(6, 20))
            labels = rng.integers(0, 2, n)
            cols = rng.standard_normal((n, int(rng.integers(1, 3))))
            got = fuzzy_dependency(cols, labels)
            assert 0.0 <= got <= 1.0
            assert got == pytest.approx(oracles.fuzzy_gamma(cols, labels), abs=1e-10)

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            fuzzy_dependency(np.empty((4, 0)), [0, 0, 1, 1])


def duplicate_fixture_mrms():
    """Columns [a, dup(a), b]: b mirrors a's value multisets (equal single
    dependency) but confuses different records, so the pair {a, b} gains."""
    labels = np.array([0] * 4 + [1] * 4)
    a = np.array([0.0, 0.0, 0.0, 0.45, 0.55, 1.0, 1.0, 1.0])
    b = np.array([0.45, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.55])
    return np.column_stack([a, a.copy(), b]), labels


class TestMrms:
    def test_k1_is_max_dependency(self):
        rng = np.random.default_rng(7)
        labels = np.array([0, 1] * 8)
        values = rng.standard_normal((16, 5))
        values[:, 4] = labels + 0.01 * rng.standard_normal(16)
        result = mrms_select(values, labels, 1)
        assert result.ranked_ids == (4,)

    def test_duplicate_loses_to_complementary_feature(self):
        values, labels = duplicate_fixture_mrms()
        # fixture sanity: equal single dependencies, strictly positive pair gain
        g_a = fuzzy_dependency(values[:, [0]], labels)
        g_b = fuzzy_dependency(values[:, [2]], labels)
        assert g_a == pytest.approx(g_b, abs=1e-12)
        assert fuzzy_dependency(values[:, [0, 2]], labels) > g_a
        result = mrms_select(values, labels, 2, beta=0.5)
        assert result.ranked_ids == (0, 2)

    def test_greedy_matches_brute_force(self):
        rng = np.random.default_rng(8)
        for trial in range(3):
            labels = np.array([0, 1] * 8)
            values = rng.standard_normal((16, 8))
            values[:, rng.integers(8)] += labels * rng.uniform(1.0, 3.0)
            result = mrms_select(values, labels, 3, beta=0.5)
            selected = []
            for step in range(3):
                expected = oracles.mrms_brute_step(values, labels, selected, 0.5)
                assert result.ranked_ids[step] == expected
                selected.append(expected)

    def test_beta_validation(self):
        values = np.random.default_rng(0).standard_normal((8, 3))
        with pytest.raises(ValueError, match="beta"):
            mrms_select(values, np.array([0, 1] * 4), 2, beta=-0.1)


def mrms_fixture(rng):
    """Random columns with the cases where block and loop forms could part:
    a constant column, a duplicate, rounded (tied) values, 1e-3 and 1e3
    scales, unbalanced classes (15-85%) and non-0/1 label values."""
    n, m = int(rng.integers(10, 50)), int(rng.integers(5, 11))
    labels = (rng.random(n) < rng.uniform(0.15, 0.85)).astype(int)
    labels[:2] = (0, 1)
    if rng.random() < 0.5:
        labels = np.where(labels == 1, 7, 3)
    values = rng.standard_normal((n, m))
    values[:, rng.integers(m)] += (labels == labels.max()) * rng.uniform(0.3, 2.0)
    values[:, 0] = 4.2
    values[:, 1] = values[:, 2]
    values[:, 3] = np.round(values[:, 3])
    values[:, 4] *= 1e-3
    values[:, -1] *= 1e3
    return values, labels


class TestMalformedInputs:
    """Inputs a selector cannot use raise ValueError before any selection runs."""

    @staticmethod
    def fixture():
        labels = np.array([0, 1] * 10)
        values = np.random.default_rng(5).standard_normal((20, 4))
        values[:, 1] += labels
        return values, labels

    @pytest.mark.parametrize("select", [mrmr_select, mrms_select])
    def test_one_dimensional_values_rejected(self, select):
        values, labels = self.fixture()
        with pytest.raises(ValueError, match="records x features"):
            select(values[:, 1], labels, 1)

    @pytest.mark.parametrize("select", [mrmr_select, mrms_select])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, select, bad):
        values, labels = self.fixture()
        values[3, 2] = bad
        with pytest.raises(ValueError, match="NaN or Inf"):
            select(values, labels, 1)

    @pytest.mark.parametrize("select", [
        mrmr_select, mrms_select, lambda values, labels, k: fuzzy_dependency(values, labels)])
    def test_fewer_labels_than_rows_rejected(self, select):
        values, labels = self.fixture()
        with pytest.raises(ValueError, match="20 records but 19 labels"):
            select(values, labels[:19], 1)


class TestMrmsBlocks:
    def test_bitwise_equal_to_loop_form(self):
        rng = np.random.default_rng(12)
        for trial in range(60):
            values, labels = mrms_fixture(rng)
            k = int(rng.integers(1, values.shape[1] + 1))
            beta = float(rng.choice([0.0, 0.5, 1.3]))
            result = mrms_select(values, labels, k, beta)
            ids, steps = oracles.mrms_reference(values, labels, k, beta)
            assert result.ranked_ids == ids, trial
            got = tuple((s.feature_id, s.relevance, s.pairwise, s.score)
                        for s in result.step_scores)
            assert got == steps, trial  # exact floats, not approx

    def test_one_class_matches_oracle(self):
        values = np.random.default_rng(13).standard_normal((9, 2))
        labels = np.zeros(9, dtype=int)
        assert oracles.fuzzy_gamma(values, labels) == 1.0
        assert fuzzy_dependency(values, labels) == 1.0
        assert fuzzy_dependency(values[:, 0], labels) == 1.0

    def test_three_classes_rejected(self):
        values = np.random.default_rng(14).standard_normal((9, 3))
        labels = np.array([0, 1, 2] * 3)
        with pytest.raises(ValueError, match="binary"):
            fuzzy_dependency(values, labels)
        with pytest.raises(ValueError, match="binary"):
            mrms_select(values, labels, 2)

    def test_memory_stays_bounded(self):
        import tracemalloc

        rng = np.random.default_rng(15)
        values = rng.standard_normal((800, 163))
        labels = np.array([0, 1] * 400)
        tracemalloc.start()
        try:
            mrms_select(values, labels, 3)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            # the three feature levels of one fold, sharing one memo as recommend runs them
            memo = selector._CrossClassGaps(values, labels)
            for n_cols in (17, 124, 163):
                mrms_select(values[:, :n_cols], labels, 3, memo=memo)
            shared_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 800 x 800 similarity matrix per feature would be 835 MB
        assert peak < 128 * 2**20
        assert shared_peak < 128 * 2**20


def wide_mrms_fixture(rng):
    """mrms_fixture's columns followed by more of the same kinds, 30 in all."""
    values, labels = mrms_fixture(rng)
    extra = rng.standard_normal((values.shape[0], 30 - values.shape[1]))
    extra[:, 0] = values[:, 3]  # a duplicate of a column in the first prefix
    extra[:, 1] = np.round(2.0 * extra[:, 1])
    extra[:, 2] = -1.5
    extra[:, 3] += (labels == labels.max()) * rng.uniform(0.3, 2.0)
    return np.column_stack([values, extra]), labels


def steps_of(result):
    return tuple((s.feature_id, s.relevance, s.pairwise, s.score) for s in result.step_scores)


class TestMrmsMemo:
    """One memo per fold serves MRMS on every column prefix, as the levels of
    ``recommend`` use it, with the bits of a fresh run."""

    @pytest.mark.parametrize("block_bytes", [selector._BLOCK_BYTES, 4096])
    def test_shared_prefixes_bitwise_equal_to_fresh_runs(self, monkeypatch, block_bytes):
        monkeypatch.setattr(selector, "_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(31)
        for trial in range(8):
            values, labels = wide_mrms_fixture(rng)
            prefixes = [10, 22, 30]
            beta = float(rng.choice([0.0, 0.5, 1.3]))
            for order in (prefixes, list(rng.permutation(prefixes))):
                memo = selector._CrossClassGaps(values, labels)
                for n_cols in order:
                    sub = values[:, :n_cols]
                    k = int(rng.integers(2, n_cols + 1))
                    shared = mrms_select(sub, labels, k, beta, memo=memo)
                    assert shared == mrms_select(sub, labels, k, beta), (trial, n_cols)
                    ids, steps = oracles.mrms_reference(sub, labels, k, beta)
                    assert shared.ranked_ids == ids, (trial, n_cols)
                    assert steps_of(shared) == steps, (trial, n_cols)  # exact floats

    def test_each_dependency_computed_once(self, monkeypatch):
        asked = []
        computed = selector._CrossClassGaps.dependencies

        def spy(self, ids, partners=()):
            asked.extend((tuple(partners), int(i)) for i in ids)
            return computed(self, ids, partners)

        monkeypatch.setattr(selector._CrossClassGaps, "dependencies", spy)
        values, labels = wide_mrms_fixture(np.random.default_rng(32))
        memo = selector._CrossClassGaps(values, labels)
        for n_cols in (22, 10, 30, 22):
            mrms_select(values[:, :n_cols], labels, min(n_cols, 9), memo=memo)
        assert len(asked) == len(set(asked))
        assert sorted(i for partners, i in asked if not partners) == list(range(30))

    def test_misuse_rejected(self):
        values, labels = wide_mrms_fixture(np.random.default_rng(33))
        memo = selector._CrossClassGaps(values, labels)
        other_labels = labels.copy()
        other_labels[[0, 1]] = labels[[1, 0]]
        changed = values[:, :20].copy()
        changed[5, 7] += 0.25
        misuses = [(values[1:], labels[1:]),  # other rows
                   (values[::-1], labels[::-1]),
                   (values, other_labels),
                   (values[:, 1:21], labels),  # not the leading columns
                   (changed, labels)]
        for sub, sub_labels in misuses:
            with pytest.raises(ValueError, match="memo"):
                mrms_select(sub, sub_labels, 2, memo=memo)


class TestPrefix:
    def test_prefix_equals_direct_run(self):
        rng = np.random.default_rng(16)
        labels = np.array([0, 1] * 15)
        values = rng.standard_normal((30, 12))
        values[:, 3] += labels * 1.5
        values[:, 7] = np.round(values[:, 7])
        k_top = 9
        runs = (lambda k: mrmr_select(values, labels, k, "MID"),
                lambda k: mrmr_select(values, labels, k, "MIQ"),
                lambda k: mrms_select(values, labels, k, beta=0.7))
        for select in runs:
            top = select(k_top)
            for k in (1, 2, 5, 8, k_top):
                prefix = top.prefix(k)
                assert prefix == select(k)
                assert prefix.k == k and len(prefix.step_scores) == k

    def test_prefix_out_of_range(self):
        result = mrmr_like(("a", "b", "c"))
        with pytest.raises(ValueError, match="prefix"):
            result.prefix(4)
        with pytest.raises(ValueError, match="prefix"):
            result.prefix(0)


class TestUnion:
    def test_idempotent(self):
        x = mrmr_like(("a", "b", "c"))
        assert union_recommend(x, x, 3) == ("a", "b", "c")

    def test_disjoint_interleave(self):
        z = union_recommend(mrmr_like(("a", "b", "c")), mrmr_like(("d", "e", "f")), 3)
        assert z == ("a", "d", "b")

    def test_overlap_dedupe(self):
        z = union_recommend(mrmr_like(("a", "b", "c")), mrmr_like(("b", "a", "f")), 3)
        assert z == ("a", "b", "c")

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="size k"):
            union_recommend(mrmr_like(("a", "b")), mrmr_like(("a", "b", "c")), 3)

    def test_always_k_unique(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            pool = list(range(10))
            x = tuple(rng.choice(pool, k, replace=False))
            y = tuple(rng.choice(pool, k, replace=False))
            z = union_recommend(mrmr_like(x), mrmr_like(y), k)
            assert len(z) == k
            assert len(set(z)) == k
            assert set(z) <= set(x) | set(y)


def mrmr_like(ids):
    from widefeat.selector import SelectionResult
    return SelectionResult(method="mrmr_mid", k=len(ids), ranked_ids=tuple(ids),
                           step_scores=())


class TestPlantedRecovery:
    def test_both_selectors_rank_informative_first(self):
        rng = np.random.default_rng(10)
        n = 60
        labels = np.array([0, 1] * (n // 2))
        values = rng.standard_normal((n, 50))
        values[:, 17] = labels * 4.0 + rng.standard_normal(n)  # 4 sigma class gap
        assert mrmr_select(values, labels, 3, "MID").ranked_ids[0] == 17
        assert mrmr_select(values, labels, 3, "MIQ").ranked_ids[0] == 17
        assert mrms_select(values, labels, 3).ranked_ids[0] == 17


def test_relevance_cache_correlations_match_oracle():
    rng = np.random.default_rng(11)
    labels = np.array([0, 1] * 6)
    values = rng.standard_normal((12, 5))
    values[:, 3] = 4.2  # constant column scores 0 against everything
    cache = RelevanceCache.build(values, labels)
    assert np.all(cache.f_stats >= 0) and np.all(np.isfinite(cache.f_stats))
    for j in range(values.shape[1]):
        col = cache.correlations_with(j)
        expected = [oracles.abs_pearson(values[:, i], values[:, j])
                    for i in range(values.shape[1])]
        np.testing.assert_allclose(col, expected, rtol=1e-12, atol=1e-15)
