"""Short-time Fourier magnitudes for spectral feature extraction."""

from __future__ import annotations

import numpy as np


def hann_window(window_len: int) -> np.ndarray:
    # periodic Hann, the usual analysis convention
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(window_len) / window_len)


def stft(samples, window_len: int, hop: int) -> np.ndarray:
    """Hann-windowed magnitude spectrogram, shape (frames, window_len // 2 + 1).

    ``samples`` of shape (R, n) holds one signal per row and gives shape
    (R, frames, window_len // 2 + 1).  Frame count is
    1 + floor((n - window_len) / hop).  The window length must be a power of
    two no longer than the signal.
    """
    x = np.asarray(samples, dtype=float)
    n = x.shape[-1]
    if window_len < 2 or window_len & (window_len - 1) != 0:
        raise ValueError(f"window_len must be a power of two, got {window_len}")
    if window_len > n:
        raise ValueError(f"window_len {window_len} exceeds signal length {n}")
    if not 0 < hop <= window_len:
        raise ValueError(f"hop must be in (0, window_len], got {hop}")
    frames = 1 + (n - window_len) // hop
    window = hann_window(window_len)
    starts = np.arange(frames) * hop
    segs = x[..., starts[:, None] + np.arange(window_len)]
    segs *= window
    spec = np.fft.rfft(segs, axis=-1)
    # sqrt(re² + im²) rounds the same on every CPU numpy runs on; the complex
    # abs picks its kernel by CPU feature, and its last bits differ between them
    mags = spec.real * spec.real
    mags += spec.imag * spec.imag
    return np.sqrt(mags, out=mags)


def rfft_bin_frequencies(window_len: int, sample_rate_hz: float) -> np.ndarray:
    return np.fft.rfftfreq(window_len, d=1.0 / sample_rate_hz)
