"""The VAE-NN decoder's CNN layer operations on real numpy arrays, and its
hand-written reverse pass.

The forward operations are the multi-channel convolution, over windows the
caller builds once per layer, and ELU.  ``backward`` starts at the logits:
it carries the variational loss's gradient w.r.t. them
(``equalize.vae_loss``, which also takes the softmax's part of the chain)
back through bias -> strided conv -> ELU -> bias -> conv to the weights and
biases.
"""

from __future__ import annotations

import numpy as np

from .sigproc import padded, window_view


def conv1d_full(win, w) -> np.ndarray:
    """Multi-channel linear convolution (kernels flipped), strided, of the
    (C_in, n) input x whose windows are win = ``sigproc.windows(x, k, stride)``.

    w is (C_out, C_in, k), k odd; the output is (C_out, ceil(n / stride)),
    and output channel o is the sum over i of x[i] convolved with w[o, i],
    centered.  It is one product of the windows with the kernels.
    """
    return np.tensordot(w[:, :, ::-1], win, axes=([1, 2], [0, 2]))


def conv1d_grad_w(g, win) -> np.ndarray:
    """Gradient of sum(g * conv1d_full(win, w)) w.r.t. the (C_out, C_in, k)
    kernels w: one product of g with the windows."""
    return np.tensordot(g, win, axes=([1], [1]))[:, :, ::-1]


def conv1d_grad_x(g, w, n: int, stride: int = 1) -> np.ndarray:
    """Gradient of sum(g * conv1d_full(win, w)) w.r.t. the (C_in, n) input x
    of win: the transposed convolution, g on the stride grid of n samples,
    zero padded by k // 2 and correlated with the unflipped kernels."""
    k = w.shape[2]
    up_pad, up = padded(g.shape[0], n, k, g.dtype)
    up[:, ::stride] = g
    return np.tensordot(w, window_view(up_pad, k, 1), axes=([0, 2], [0, 2]))


def elu(a: np.ndarray) -> np.ndarray:
    return np.where(a > 0.0, a, np.expm1(a))


def backward(wx, w1, a1, wh, w2, stride: int, g_z):
    """Reverse pass of the CNN decoder.

    The forward pass is a1 = conv1d_full(wx, w1) + b1, h = elu(a1), and the
    logits z = conv1d_full(wh, w2) + b2, wx and wh the windows of the input
    and of h, wh's strided.  Given g_z = dL/dz, shaped like z, returns the
    gradients of L w.r.t. (w1, b1, w2, b2).
    """
    g_w2 = conv1d_grad_w(g_z, wh)
    g_h = conv1d_grad_x(g_z, w2, a1.shape[1], stride)
    g_a1 = g_h * np.where(a1 > 0.0, 1.0, np.exp(a1))                     # ELU
    g_w1 = conv1d_grad_w(g_a1, wx)
    return (g_w1, g_a1.sum(axis=1, keepdims=True),
            g_w2, g_z.sum(axis=1, keepdims=True))
