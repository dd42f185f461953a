"""Pulse shaping, resampling, windowing, running means, and the DFT
frequency grid shared by the channel models, the equalizers and evaluation."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


def rrc_taps(alpha: float, span: int, sps: int) -> np.ndarray:
    """Root-raised-cosine filter, unit energy, length span*sps + 1.

    The removable singularities at t = 0 and |t| = 1/(4 alpha) are replaced
    by their analytic limits.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"roll-off must be in [0, 1], got {alpha}")
    if span % 2 != 0 or span <= 0:
        raise ConfigError(f"span must be a positive even symbol count, got {span}")
    t = np.arange(-span * sps // 2, span * sps // 2 + 1, dtype=np.float64) / sps
    h = np.empty_like(t)
    if alpha == 0.0:
        h = np.sinc(t)
    else:
        sing = np.isclose(np.abs(t), 1.0 / (4.0 * alpha))
        zero = np.isclose(t, 0.0)
        ok = ~(sing | zero)
        ts = t[ok]
        num = np.sin(np.pi * ts * (1 - alpha)) + 4 * alpha * ts * np.cos(np.pi * ts * (1 + alpha))
        den = np.pi * ts * (1 - (4 * alpha * ts) ** 2)
        h[ok] = num / den
        h[zero] = 1.0 + alpha * (4.0 / np.pi - 1.0)
        h[sing] = (alpha / np.sqrt(2.0)) * ((1 + 2 / np.pi) * np.sin(np.pi / (4 * alpha))
                                            + (1 - 2 / np.pi) * np.cos(np.pi / (4 * alpha)))
    return h / np.linalg.norm(h)


def upsample_zero_insert(x: np.ndarray, n_os: int) -> np.ndarray:
    """Insert (n_os - 1) zeros between consecutive samples; a new array."""
    out = np.zeros(x.shape[0] * n_os, dtype=np.complex128)
    out[::n_os] = x
    return out


def convolve_same(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Linear convolution, centered, output length = input length."""
    full = np.convolve(x, taps)
    start = (len(taps) - 1) // 2
    return full[start: start + len(x)]


def window_means(x: np.ndarray, window: int) -> np.ndarray:
    """Mean of every run of ``window`` consecutive values along the last axis,
    length n - window + 1, from one cumulative sum.  A non-finite value makes
    every later mean of its row NaN or infinite, not only the windows holding it."""
    zero = np.zeros(x.shape[:-1] + (1,), dtype=x.dtype)
    c = np.cumsum(np.concatenate([zero, x], axis=-1), axis=-1)
    return (c[..., window:] - c[..., :-window]) / window


def shape(symbols: np.ndarray, rrc: np.ndarray, n_os: int) -> np.ndarray:
    """Zero-insert symbols (1 sps) to n_os sps, then pulse-shape with
    centered convolution."""
    return convolve_same(upsample_zero_insert(symbols, n_os), rrc)


def padded(pol: int, n: int, k: int, dtype):
    """A zero (pol, n + 2 (k // 2)) array and its (pol, n) interior, a view."""
    # zeros and a slice assignment: np.pad costs more than the rest of this
    # for the short blocks of a VAE update
    mh = k // 2
    pad = np.zeros((pol, n + 2 * mh), dtype=dtype)
    return pad, pad[:, mh: mh + n]


def window_view(pad: np.ndarray, k: int, stride: int) -> np.ndarray:
    """The (pol, n_sym, k) windows of a ``padded`` array on the stride grid;
    a view, so it follows later writes to ``pad``."""
    return np.lib.stride_tricks.sliding_window_view(pad, k, axis=1)[:, ::stride]


def windows(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    """The (pol, n_sym, k) windows of a (pol, n) array, centered, zero padded
    by k // 2 at both ends, and on the stride grid: window j covers
    x[:, j stride - k // 2: j stride + k // 2 + 1] for odd k."""
    pad, inner = padded(x.shape[0], x.shape[1], k, x.dtype)
    inner[:] = x
    return window_view(pad, k, stride)


def frequency_grid(n: int, n_os: int, symbol_rate: float) -> np.ndarray:
    """Physical DFT bin frequencies in Hz, wrapped to +/- n_os*symbol_rate/2."""
    return np.fft.fftfreq(n, d=1.0 / (n_os * symbol_rate))
