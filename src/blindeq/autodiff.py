"""Minimal reverse-mode automatic differentiation over real numpy arrays.

It serves the VAE-NN decoder's CNN: one node per layer operation, with the
graph seeded by the closed-form gradient of the variational loss.  Graphs
are rebuilt per batch (define-by-run); gradients accumulate additively and
the caller zeroes them between batches.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

_sliding_windows = np.lib.stride_tricks.sliding_window_view


class Node:
    """One value in the computation graph.

    ``value`` and ``grad`` are float64 arrays of identical shape.  ``grad``
    is only allocated for nodes on a path to a leaf that requires gradients.
    """

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, value, requires_grad=False, parents=(), backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._parents = parents
        self._backward = backward
        self.grad = np.zeros_like(self.value) if self.requires_grad else None

    def zero_grad(self):
        if self.grad is not None:
            self.grad.fill(0.0)

    @property
    def shape(self):
        return self.value.shape


def leaf(value) -> Node:
    """Trainable leaf: participates in gradient accumulation."""
    return Node(value, requires_grad=True)


def constant(value) -> Node:
    return Node(value, requires_grad=False)


def _wrap(node, value, backward):
    # requires_grad propagates from any differentiable parent
    req = any(p.requires_grad for p in node)
    return Node(value, requires_grad=req, parents=node if req else (),
                backward=backward if req else None)


def _acc(parent: Node, g):
    if parent.requires_grad:
        parent.grad += g


def backward(root: Node, grad) -> None:
    """Accumulate into every reachable leaf the gradient of sum(grad * root),
    i.e. back-propagate the seed ``grad``, an array of the root's shape."""
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != root.shape:
        raise ConfigError(f"seed shape {grad.shape} does not match root shape {root.shape}")
    if not root.requires_grad:
        return
    order = _topo_order(root)
    root.grad += grad
    for node in order:  # already reverse-topological (root first)
        if node._backward is not None:
            node._backward(node.grad)


def _topo_order(root: Node):
    """Children-before-parents ordering via iterative DFS."""
    order, visited = [], set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    order.reverse()
    return order


# ---------------------------------------------------------------------------
# elementwise operations


def add(a: Node, b: Node) -> Node:
    """Sum with numpy broadcasting, e.g. a (C, 1) bias over a (C, n) signal."""
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ConfigError(f"shape mismatch: {a.shape} vs {b.shape}") from None

    def bwd(g):
        _acc(a, _unbroadcast(g, a.shape))
        _acc(b, _unbroadcast(g, b.shape))

    return _wrap((a, b), a.value + b.value, bwd)


def elu(a: Node) -> Node:
    pos = a.value > 0.0
    out_val = np.where(pos, a.value, np.expm1(a.value))

    def bwd(g):
        _acc(a, g * np.where(pos, 1.0, np.exp(a.value)))

    return _wrap((a,), out_val, bwd)


def _unbroadcast(g, shape):
    """Sum an upstream gradient over the axes its operand was broadcast on."""
    if g.shape == shape:
        return g
    g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    return g.sum(axis=tuple(i for i, s in enumerate(shape) if s == 1), keepdims=True)


# ---------------------------------------------------------------------------
# structured operations


def conv1d_full(x: Node, w: Node, stride: int = 1, padding: int = 0) -> Node:
    """Multi-channel linear convolution (kernels flipped), strided and zero
    padded.

    x is (C_in, n) and w is (C_out, C_in, k); the output is (C_out, n_out)
    with n_out = floor((n + 2*padding - k) / stride) + 1, and output channel
    o is the sum over i of x[i] convolved with w[o, i].  Both directions are
    one product of sliding windows with the kernels.  Differentiable w.r.t.
    both operands.
    """
    if x.value.ndim != 2 or w.value.ndim != 3:
        raise ConfigError(f"conv1d_full needs (C_in, n) and (C_out, C_in, k), "
                          f"got {x.shape} and {w.shape}")
    if w.shape[1] != x.shape[0]:
        raise ConfigError(f"kernels expect {w.shape[1]} input channels, got {x.shape[0]}")
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ConfigError(f"padding must be >= 0, got {padding}")
    n, k = x.shape[1], w.shape[2]
    n_pad = n + 2 * padding
    if k > n_pad:
        raise ConfigError(f"kernel length {k} exceeds padded signal length {n_pad}")

    x_pad = np.pad(x.value, ((0, 0), (padding, padding))) if padding else x.value
    win = _sliding_windows(x_pad, k, axis=1)[:, ::stride]  # (C_in, n_out, k)
    n_out = win.shape[1]
    out_val = np.tensordot(w.value[:, :, ::-1], win, axes=([1, 2], [0, 2]))

    def bwd(g):
        if w.requires_grad:
            _acc(w, np.tensordot(g, win, axes=([1], [1]))[:, :, ::-1])
        if x.requires_grad:
            # the transposed convolution: g on the stride grid, zero padded
            # by k-1 on both sides, correlated with the unflipped kernels
            up = np.zeros((g.shape[0], n_pad + k - 1))
            up[:, k - 1: k + (n_out - 1) * stride: stride] = g
            g_win = _sliding_windows(up, k, axis=1)          # (C_out, n_pad, k)
            g_pad = np.tensordot(w.value, g_win, axes=([0, 2], [0, 2]))
            _acc(x, g_pad[:, padding: padding + n])

    return _wrap((x, w), out_val, bwd)


def softmax_groups(logits: Node, size: int) -> Node:
    """Softmax over each block of ``size`` consecutive channels, with
    max-subtraction for stability.

    logits is (G * size, n); the output is (G, n, size), each row on the
    simplex.
    """
    z = logits.value.reshape(-1, size, logits.shape[1]).transpose(0, 2, 1)
    e = np.exp(z - z.max(axis=2, keepdims=True))
    out_val = e / e.sum(axis=2, keepdims=True)

    def bwd(g):
        inner = (g * out_val).sum(axis=2, keepdims=True)
        _acc(logits, (out_val * (g - inner)).transpose(0, 2, 1).reshape(logits.shape))

    return _wrap((logits,), out_val, bwd)
