"""Pulse shaping, resampling, and the DFT frequency grid shared by the
channel models and the equalizers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass
class ComplexSignal:
    """A sequence of complex samples with its samples-per-symbol factor."""

    samples: np.ndarray
    sps: int = 1

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.samples.ndim != 1:
            raise ConfigError(f"expected a 1-D sample vector, got shape {self.samples.shape}")
        if self.sps < 1:
            raise ConfigError(f"samples per symbol must be >= 1, got {self.sps}")

    def __len__(self):
        return self.samples.shape[0]


def rrc_taps(alpha: float, span: int, sps: int) -> np.ndarray:
    """Root-raised-cosine filter, unit energy, length span*sps + 1.

    The removable singularities at t = 0 and |t| = 1/(4 alpha) are replaced
    by their analytic limits.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"roll-off must be in [0, 1], got {alpha}")
    if span % 2 != 0 or span <= 0:
        raise ConfigError(f"span must be a positive even symbol count, got {span}")
    if sps < 1:
        raise ConfigError(f"samples per symbol must be >= 1, got {sps}")
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


def upsample_zero_insert(x: ComplexSignal, n_os: int) -> ComplexSignal:
    """Insert (n_os - 1) zeros between consecutive samples."""
    if n_os < 1:
        raise ConfigError(f"oversampling factor must be >= 1, got {n_os}")
    if n_os == 1:
        return ComplexSignal(x.samples.copy(), sps=x.sps)
    out = np.zeros(len(x) * n_os, dtype=np.complex128)
    out[::n_os] = x.samples
    return ComplexSignal(out, sps=x.sps * n_os)


def convolve_same(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Linear convolution, centered, output length = input length."""
    full = np.convolve(x, taps)
    start = (len(taps) - 1) // 2
    return full[start: start + len(x)]


def shape(symbols: ComplexSignal, rrc: np.ndarray, n_os: int) -> ComplexSignal:
    """Zero-insert to n_os sps, then pulse-shape with centered convolution."""
    if symbols.sps != 1:
        raise ConfigError(f"shape expects symbols at 1 sps, got {symbols.sps}")
    up = upsample_zero_insert(symbols, n_os)
    return ComplexSignal(convolve_same(up.samples, rrc), sps=n_os)


def frequency_grid(n: int, n_os: int, symbol_rate: float) -> np.ndarray:
    """Physical DFT bin frequencies in Hz, wrapped to +/- n_os*symbol_rate/2."""
    return np.fft.fftfreq(n, d=1.0 / (n_os * symbol_rate))
