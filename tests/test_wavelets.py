import numpy as np
import pytest

import oracles
from widefeat.wavelets import (WAVELET_BANK, _SCALING_FILTERS, dwt_decompose,
                               dwt_max_depth, dwt_reconstruct, register_wavelet,
                               score_wavelets)


class TestDecompose:
    def test_haar_constant(self):
        bands = dwt_decompose([1.0, 1.0, 1.0, 1.0], "haar", 1)
        np.testing.assert_allclose(bands[1], 0.0, atol=1e-15)
        np.testing.assert_allclose(bands[0], np.sqrt(2.0), atol=1e-15)

    @pytest.mark.parametrize("wavelet", WAVELET_BANK)
    @pytest.mark.parametrize("n", [64, 257, 1024])
    def test_perfect_reconstruction(self, wavelet, n):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(n)
        depth = min(4, dwt_max_depth(n, wavelet))
        bands = dwt_decompose(x, wavelet, depth)
        xr = dwt_reconstruct(bands, wavelet, n)
        assert np.max(np.abs(xr - x)) / np.max(np.abs(x)) < 1e-8

    def test_round_trip_random_lengths(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(64, 1025))
            wavelet = WAVELET_BANK[rng.integers(len(WAVELET_BANK))]
            x = rng.standard_normal(n)
            depth = min(4, dwt_max_depth(n, wavelet))
            xr = dwt_reconstruct(dwt_decompose(x, wavelet, depth), wavelet, n)
            assert np.max(np.abs(xr - x)) < 1e-8 * np.max(np.abs(x))

    def test_db4_chirp_energy_conservation(self):
        # oracle: energy straight from the samples
        t = np.arange(64)
        x = np.sin(2 * np.pi * (0.02 + 0.004 * t) * t)
        bands = dwt_decompose(x, "db4", 3)
        band_energy = sum(float(b @ b) for b in bands)
        direct = float(x @ x)
        assert abs(band_energy - direct) / direct < 1e-6

    @pytest.mark.parametrize("wavelet", WAVELET_BANK)
    def test_energy_conservation_all(self, wavelet):
        rng = np.random.default_rng(8)
        for n in (64, 257, 1024):
            x = rng.standard_normal(n)
            depth = min(4, dwt_max_depth(n, wavelet))
            bands = dwt_decompose(x, wavelet, depth)
            assert abs(sum(float(b @ b) for b in bands) - x @ x) / (x @ x) < 1e-6

    def test_unknown_wavelet(self):
        with pytest.raises(ValueError, match="unknown wavelet"):
            dwt_decompose(np.ones(32), "db3", 1)

    def test_too_short_for_depth(self):
        with pytest.raises(ValueError, match="too short"):
            dwt_decompose(np.arange(16.0), "db8", 2)

    def test_band_lengths_halve(self):
        bands = dwt_decompose(np.arange(100.0), "db2", 3)
        assert [b.size for b in bands] == [13, 13, 25, 50]


class TestBlocks:
    """A block of equal-length signals decomposes row by row, bit for bit."""

    @pytest.mark.parametrize("wavelet", WAVELET_BANK)
    @pytest.mark.parametrize("n", [67, 128, 203])
    def test_block_matches_loop_oracle_and_single_rows(self, wavelet, n):
        rng = np.random.default_rng(n)
        block = rng.standard_normal((3, n)) * np.array([[1.0], [1e-3], [50.0]])
        for depth in range(1, dwt_max_depth(n, wavelet) + 1):
            bands = dwt_decompose(block, wavelet, depth)
            for i, row in enumerate(block):
                expected = oracles.dwt_reference(row, _SCALING_FILTERS[wavelet], depth)
                alone = dwt_decompose(row, wavelet, depth)
                assert len(bands) == len(expected) == len(alone) == depth + 1
                for got, want, single in zip(bands, expected, alone):
                    assert got[i].tobytes() == np.array(want).tobytes() == single.tobytes()


class TestMaxDepth:
    def test_known_values(self):
        assert dwt_max_depth(64, "haar") == 5
        assert dwt_max_depth(64, "db8") == 2
        assert dwt_max_depth(16, "db8") == 0
        assert dwt_max_depth(1024, "db4") == 7


class TestMotherWaveletChoice:
    """``score_wavelets`` on one-row blocks: the scores each record votes with."""

    def test_constant_signal_abstains(self):
        # haar's details of a constant vanish exactly, so the record casts no vote
        scores = score_wavelets(np.full((1, 64), 5.0), ("haar", "db2"), 3)
        assert np.isnan(scores[0, 0])
        assert oracles.detail_score(np.full(64, 5.0), _SCALING_FILTERS["haar"], 3) is None

    def test_haar_pulse_concentrates(self):
        # a two-sample blip aligned to the haar grid lands in exactly one
        # haar detail coefficient, so haar's entropy is 0 and its score +inf
        x = np.zeros(64)
        x[0], x[1] = 1.0, -1.0
        haar, db4 = score_wavelets(x[None, :], ("haar", "db4"), 4)[:, 0]
        assert haar == float("inf")
        assert np.isfinite(db4)

    def test_scores_match_independent_oracle(self):
        # matrix-form periodic analysis recomputes every candidate's score
        rng = np.random.default_rng(12)
        signals = [rng.standard_normal(96)]
        x = np.ones(64)
        x[31:] = -1.0
        signals.append(x)
        for sig in signals:
            scores = score_wavelets(sig[None, :], WAVELET_BANK, 3)[:, 0]
            expected = [oracles.detail_score(sig, _SCALING_FILTERS[name], 3)
                        for name in WAVELET_BANK]
            np.testing.assert_allclose(scores, expected, rtol=1e-9)
            assert int(np.argmax(scores)) == int(np.argmax(expected))

    def test_step_signal_oracle_winner(self):
        # the plain half-and-half step concentrates poorly for haar under the
        # detail-only score; the oracle (and the score) give db4 the win
        x = np.ones(64)
        x[31:] = -1.0
        scores = score_wavelets(x[None, :], ("haar", "db4"), 4)[:, 0]
        assert scores[1] > scores[0]
        assert (oracles.detail_score(x, _SCALING_FILTERS["db4"], 4)
                > oracles.detail_score(x, _SCALING_FILTERS["haar"], 4))


class TestRegisterWavelet:
    def test_register_and_use(self):
        # db2 under another name behaves identically
        register_wavelet("mydb2", _SCALING_FILTERS["db2"])
        x = np.random.default_rng(1).standard_normal(64)
        a = dwt_decompose(x, "db2", 2)
        b = dwt_decompose(x, "mydb2", 2)
        for ba, bb in zip(a, b):
            np.testing.assert_array_equal(ba, bb)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="not orthonormal"):
            register_wavelet("bad", [0.5, 0.5])
