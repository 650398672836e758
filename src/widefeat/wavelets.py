"""Orthogonal discrete wavelet transform and the detail score that ranks mother wavelets.

The transform is a periodized Mallat pyramid: each level filters the current
approximation with the analysis pair of an orthogonal filter bank and
downsamples by two, wrapping circularly at the boundary.  Odd-length inputs
are zero-padded by one sample before splitting, which keeps the operator
orthonormal, so band energies sum exactly to the signal energy and the
adjoint reconstructs the input to machine precision.
"""

from __future__ import annotations

import numpy as np

# Orthonormal scaling filters (lowpass reconstruction side).  haar/db2 match
# their closed forms; db4/db8 come from minimal-phase spectral factorization
# carried out at 60-digit precision; sym4/coif1 are the standard published
# tables, verified against the two-scale orthonormality identities.
_SCALING_FILTERS: dict[str, tuple[float, ...]] = {
    "haar": (
        0.7071067811865476,
        0.7071067811865476,
    ),
    "db2": (
        0.4829629131445341,
        0.8365163037378079,
        0.2241438680420134,
        -0.1294095225512604,
    ),
    "db4": (
        0.2303778133088965,
        0.7148465705529156,
        0.6308807679298589,
        -0.0279837694168599,
        -0.1870348117190931,
        0.0308413818355608,
        0.0328830116668852,
        -0.0105974017850690,
    ),
    "db8": (
        0.0544158422431040,
        0.3128715909143000,
        0.6756307362972898,
        0.5853546836542067,
        -0.0158291052563493,
        -0.2840155429615469,
        0.0004724845739133,
        0.1287474266204785,
        -0.0173693010018075,
        -0.0440882539307948,
        0.0139810279173983,
        0.0087460940474058,
        -0.0048703529934516,
        -0.0003917403733769,
        0.0006754494064506,
        -0.0001174767841248,
    ),
    "sym4": (
        0.0322231006040427,
        -0.0126039672620378,
        -0.0992195435768472,
        0.2978577956052774,
        0.8037387518059161,
        0.4976186676320155,
        -0.0296355276459985,
        -0.0757657147892733,
    ),
    "coif1": (
        -0.0727326195128539,
        0.3378976624578092,
        0.8525720202122554,
        0.3848648468642029,
        -0.0727326195128539,
        -0.0156557281354645,
    ),
}

#: Built-in bank, in tie-break order.
WAVELET_BANK: tuple[str, ...] = ("haar", "db2", "db4", "db8", "sym4", "coif1")


def register_wavelet(name: str, scaling_filter) -> None:
    """Add an orthonormal scaling filter to the bank under ``name``.

    The filter must satisfy sum(h) = sqrt(2) and double-shift orthonormality,
    which is checked loosely here to catch obvious mistakes.
    """
    h = np.asarray(scaling_filter, dtype=float)
    if h.ndim != 1 or h.size < 2 or h.size % 2 != 0:
        raise ValueError("scaling filter must be a 1-D even-length sequence")
    if abs(h.sum() - np.sqrt(2.0)) > 1e-7 or abs(np.dot(h, h) - 1.0) > 1e-7:
        raise ValueError(f"filter for {name!r} is not orthonormal")
    _SCALING_FILTERS[name] = tuple(float(v) for v in h)


def _analysis_pair(name: str) -> tuple[np.ndarray, np.ndarray]:
    try:
        h = np.asarray(_SCALING_FILTERS[name], dtype=float)
    except KeyError:
        raise ValueError(f"unknown wavelet {name!r}; known: {sorted(_SCALING_FILTERS)}") from None
    dec_lo = h[::-1].copy()
    # dec_hi[k] = (-1)^(k+1) h[k] for even-length h (quadrature mirror)
    signs = np.where(np.arange(h.size) % 2 == 0, -1.0, 1.0)
    dec_hi = signs * h
    return dec_lo, dec_hi


def filter_length(name: str) -> int:
    if name not in _SCALING_FILTERS:
        raise ValueError(f"unknown wavelet {name!r}")
    return len(_SCALING_FILTERS[name])


def dwt_max_depth(n: int, wavelet_name: str) -> int:
    """Deepest decomposition for an ``n``-sample signal: floor(log2(n / filterlen))."""
    flen = filter_length(wavelet_name)
    depth = 0
    while n >= flen << (depth + 1):
        depth += 1
    return depth


def _split(x: np.ndarray, dec_lo: np.ndarray, dec_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One analysis step along the last axis of ``x``, shape (n,) or (R, n).

    Output sample o takes the taps x[(2o + 1 - j) mod n] for j = 0, 1, ...
    in that order.  They are read as strided slices of a copy with the last
    ``flen - 1`` samples wrapped to the front, and accumulated from zero in tap
    order, so every row gets the same bits it would get on its own.
    """
    if x.shape[-1] % 2 == 1:
        x = np.concatenate([x, np.zeros(x.shape[:-1] + (1,))], axis=-1)
    n = x.shape[-1]
    wrap = dec_lo.size - 1
    padded = np.concatenate([x[..., n - wrap:], x], axis=-1)
    approx = np.zeros(x.shape[:-1] + (n // 2,))
    detail = np.zeros_like(approx)
    for j in range(dec_lo.size):
        col = padded[..., wrap + 1 - j:wrap + n - j:2]
        approx += dec_lo[j] * col
        detail += dec_hi[j] * col
    return approx, detail


def _merge(approx: np.ndarray, detail: np.ndarray, dec_lo: np.ndarray,
           dec_hi: np.ndarray, out_len: int) -> np.ndarray:
    n = 2 * approx.size
    idx = np.arange(1, n, 2)
    x = np.zeros(n)
    for j in range(dec_lo.size):
        # positions are distinct for fixed j, so plain fancy indexing accumulates safely
        x[(idx - j) % n] += dec_lo[j] * approx + dec_hi[j] * detail
    return x[:out_len]


def dwt_decompose(samples, wavelet_name: str, depth: int) -> list[np.ndarray]:
    """Decompose ``samples`` into [approx_depth, detail_depth, ..., detail_1].

    ``samples`` is one signal of shape (n,) or a block of equal-length signals
    of shape (R, n); a block is decomposed row by row along its last axis.
    Bands are ordered coarse to fine.  Requires the signal to stay at least
    one filter length long at every level.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError("samples must be 1-D, or 2-D with one signal per row")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    dec_lo, dec_hi = _analysis_pair(wavelet_name)
    flen = dec_lo.size
    details = []
    approx = x
    for _ in range(depth):
        if approx.shape[-1] < flen:
            raise ValueError(
                f"signal too short for depth {depth} with {wavelet_name!r} "
                f"(need >= {flen} samples per level)")
        approx, detail = _split(approx, dec_lo, dec_hi)
        details.append(detail)
    return [approx] + details[::-1]


def dwt_reconstruct(bands: list[np.ndarray], wavelet_name: str, length: int) -> np.ndarray:
    """Invert :func:`dwt_decompose`; ``length`` is the original sample count."""
    dec_lo, dec_hi = _analysis_pair(wavelet_name)
    depth = len(bands) - 1
    lengths = [length]
    for _ in range(depth):
        lengths.append((lengths[-1] + 1) // 2)
    approx = np.asarray(bands[0], dtype=float)
    for level in range(depth, 0, -1):
        detail = np.asarray(bands[depth - level + 1], dtype=float)
        approx = _merge(approx, detail, dec_lo, dec_hi, lengths[level - 1])
    return approx


def shannon_entropy(p: np.ndarray) -> float:
    """Natural-log entropy ``-sum(p log p)`` of a distribution, with 0*log(0) = 0."""
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def row_energies(block: np.ndarray) -> np.ndarray:
    """``np.dot(row, row)`` for each row of a 2-D block.

    One ``np.dot`` per row keeps the bits a single signal gets;
    ``(block * block).sum(1)`` and ``einsum`` sum in another order.
    """
    return np.array([np.dot(row, row) for row in block])


def energy_entropies(block: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """Entropy of each row's energy distribution ``row**2 / energy``; 0 where the energy is 0."""
    return np.array([shannon_entropy(row * row / e) if e > 0.0 else 0.0
                     for row, e in zip(block, energies)])


def score_wavelets(block: np.ndarray, bank, depth: int) -> np.ndarray:
    """Detail energy-to-entropy ratio of every row of ``block`` under every wavelet.

    Returns shape (len(bank), R).  For one wavelet and row, E is the total
    squared magnitude of the pooled detail coefficients; the entropy S uses
    the detail energy distribution p_i = d_i^2 / E with natural log and
    0*log(0) = 0.  A single dominant coefficient gives S = 0 and the score is
    +inf; a row whose details all vanish scores NaN.
    """
    scores = []
    for name in bank:
        details = np.concatenate(dwt_decompose(block, name, depth)[1:], axis=-1)
        energy = row_energies(details)
        entropy = energy_entropies(details, energy)
        score = np.divide(energy, entropy, out=np.full(energy.shape, np.inf),
                          where=entropy != 0.0)
        score[energy <= 0.0] = np.nan
        scores.append(score)
    return np.array(scores)
