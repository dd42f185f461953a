"""The VAE-NN decoder's CNN layer operations on real numpy arrays, and its
hand-written reverse pass.

The forward operations are the multi-channel convolution, ELU and the
grouped softmax; ``backward`` carries the closed-form gradient of the
variational loss w.r.t. the posteriors back through conv -> bias -> ELU ->
strided conv -> bias -> grouped softmax to the weights and biases.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

_sliding_windows = np.lib.stride_tricks.sliding_window_view


def _windows(x, k, stride, padding):
    """The (C_in, n_out, k) windows of x, zero padded, on the stride grid."""
    x_pad = np.pad(x, ((0, 0), (padding, padding))) if padding else x
    return _sliding_windows(x_pad, k, axis=1)[:, ::stride]


def conv1d_full(x, w, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Multi-channel linear convolution (kernels flipped), strided and zero
    padded.

    x is (C_in, n) and w is (C_out, C_in, k); the output is (C_out, n_out)
    with n_out = floor((n + 2*padding - k) / stride) + 1, and output channel
    o is the sum over i of x[i] convolved with w[o, i].  It is one product of
    sliding windows with the kernels.
    """
    x, w = np.asarray(x, dtype=np.float64), np.asarray(w, dtype=np.float64)
    if x.ndim != 2 or w.ndim != 3:
        raise ConfigError(f"conv1d_full needs (C_in, n) and (C_out, C_in, k), "
                          f"got {x.shape} and {w.shape}")
    if w.shape[1] != x.shape[0]:
        raise ConfigError(f"kernels expect {w.shape[1]} input channels, got {x.shape[0]}")
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ConfigError(f"padding must be >= 0, got {padding}")
    n_pad = x.shape[1] + 2 * padding
    if w.shape[2] > n_pad:
        raise ConfigError(f"kernel length {w.shape[2]} exceeds padded signal length {n_pad}")
    return np.tensordot(w[:, :, ::-1], _windows(x, w.shape[2], stride, padding),
                        axes=([1, 2], [0, 2]))


def conv1d_grad_w(g, x, k: int, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Gradient of sum(g * conv1d_full(x, w, stride, padding)) w.r.t. the
    (C_out, C_in, k) kernels w: one product of g with x's windows."""
    return np.tensordot(g, _windows(x, k, stride, padding), axes=([1], [1]))[:, :, ::-1]


def conv1d_grad_x(g, w, n: int, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Gradient of sum(g * conv1d_full(x, w, stride, padding)) w.r.t. the
    (C_in, n) input x: the transposed convolution, g on the stride grid,
    zero padded by k-1 on both sides and correlated with the unflipped
    kernels."""
    k = w.shape[2]
    n_pad = n + 2 * padding
    up = np.zeros((g.shape[0], n_pad + k - 1))
    up[:, k - 1: k + (g.shape[1] - 1) * stride: stride] = g
    g_win = _sliding_windows(up, k, axis=1)                  # (C_out, n_pad, k)
    return np.tensordot(w, g_win, axes=([0, 2], [0, 2]))[:, padding: padding + n]


def elu(a: np.ndarray) -> np.ndarray:
    return np.where(a > 0.0, a, np.expm1(a))


def softmax_groups(logits: np.ndarray, size: int) -> np.ndarray:
    """Softmax over each block of ``size`` consecutive channels, with
    max-subtraction for stability.

    logits is (G * size, n); the output is (G, n, size), each row on the
    simplex.
    """
    z = logits.reshape(-1, size, logits.shape[1]).transpose(0, 2, 1)
    e = np.exp(z - z.max(axis=2, keepdims=True))
    return e / e.sum(axis=2, keepdims=True)


def backward(x, w1, a1, h, w2, stride: int, q, g_q):
    """Reverse pass of the CNN decoder.

    The forward pass is a1 = conv1d_full(x, w1) + b1, h = elu(a1), and
    q = softmax_groups(conv1d_full(h, w2, stride) + b2, size), each
    convolution padded by k // 2.  Returns the gradients of sum(g_q * q)
    w.r.t. (w1, b1, w2, b2).
    """
    if g_q.shape != q.shape:
        raise ConfigError(f"seed shape {g_q.shape} does not match output shape {q.shape}")
    k1, k2 = w1.shape[2], w2.shape[2]
    inner = (g_q * q).sum(axis=2, keepdims=True)
    g_z = (q * (g_q - inner)).transpose(0, 2, 1).reshape(-1, q.shape[1])  # logits
    g_w2 = conv1d_grad_w(g_z, h, k2, stride, k2 // 2)
    g_h = conv1d_grad_x(g_z, w2, h.shape[1], stride, k2 // 2)
    g_a1 = g_h * np.where(a1 > 0.0, 1.0, np.exp(a1))                     # ELU
    g_w1 = conv1d_grad_w(g_a1, x, k1, 1, k1 // 2)
    return (g_w1, g_a1.sum(axis=1, keepdims=True),
            g_w2, g_z.sum(axis=1, keepdims=True))
