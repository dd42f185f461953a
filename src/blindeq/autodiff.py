"""Minimal reverse-mode automatic differentiation over real numpy arrays.

It serves the VAE-NN decoder's CNN, whose graph is seeded with the
closed-form gradient of the variational loss.  Graphs are rebuilt per batch
(define-by-run); gradients accumulate additively and the caller zeroes them
between batches.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


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


def backward(root: Node, seed: float = 1.0) -> None:
    """Accumulate gradients of a scalar root into every reachable leaf."""
    if root.value.size != 1:
        raise ConfigError(f"backward root must be scalar, got shape {root.value.shape}")
    if not root.requires_grad:
        return
    order = _topo_order(root)
    root.grad += np.asarray(seed, dtype=np.float64).reshape(root.value.shape)
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
    _check_elementwise(a, b)

    def bwd(g):
        _acc(a, _unbroadcast(g, a.shape))
        _acc(b, _unbroadcast(g, b.shape))

    return _wrap((a, b), a.value + b.value, bwd)


def ssum(a: Node) -> Node:
    """Sum of all elements, as a 0-d node."""

    def bwd(g):
        _acc(a, np.full(a.shape, float(g)))

    return _wrap((a,), np.asarray(a.value.sum()), bwd)


def scale(a: Node, s) -> Node:
    """Multiply by a constant scalar or array (no gradient into the constant)."""
    s = np.asarray(s, dtype=np.float64)

    def bwd(g):
        _acc(a, _unbroadcast(g * s, a.shape))

    return _wrap((a,), a.value * s, bwd)


def elu(a: Node) -> Node:
    pos = a.value > 0.0
    out_val = np.where(pos, a.value, np.expm1(a.value))

    def bwd(g):
        _acc(a, g * np.where(pos, 1.0, np.exp(a.value)))

    return _wrap((a,), out_val, bwd)


def _check_elementwise(a, b):
    if a.shape != b.shape and a.value.size != 1 and b.value.size != 1:
        raise ConfigError(f"shape mismatch: {a.shape} vs {b.shape}")


def _unbroadcast(g, shape):
    """Reduce an upstream gradient back to a (possibly scalar) operand shape."""
    if g.shape == shape:
        return g
    return np.asarray(g.sum()).reshape(shape)


# ---------------------------------------------------------------------------
# structured operations


def conv1d_full(signal: Node, kernel: Node, stride: int = 1, padding: int = 0) -> Node:
    """Linear convolution (kernel flipped) with stride and zero padding.

    Output length is floor((len(signal) + 2*padding - len(kernel)) / stride) + 1.
    Differentiable w.r.t. both operands.
    """
    if signal.value.ndim != 1 or kernel.value.ndim != 1:
        raise ConfigError("conv1d_full operates on 1-D arrays")
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ConfigError(f"padding must be >= 0, got {padding}")
    n, k = signal.value.shape[0], kernel.value.shape[0]
    n_pad = n + 2 * padding
    if k > n_pad:
        raise ConfigError(f"kernel length {k} exceeds padded signal length {n_pad}")

    s_pad = np.pad(signal.value, padding) if padding else signal.value
    full = np.convolve(s_pad, kernel.value, mode="valid")  # length n_pad - k + 1
    n_out = (n_pad - k) // stride + 1
    out_val = full[::stride][:n_out]

    def bwd(g):
        g_full = np.zeros(n_pad - k + 1)
        g_full[: (n_out - 1) * stride + 1 : stride] = g
        if signal.requires_grad:
            gs = np.convolve(g_full, kernel.value[::-1], mode="full")
            _acc(signal, gs[padding: padding + n] if padding else gs)
        if kernel.requires_grad:
            _acc(kernel, np.correlate(s_pad, g_full, mode="valid")[::-1])

    return _wrap((signal, kernel), out_val, bwd)


def stack_cols(cols) -> Node:
    """Stack K equal-length vectors into an N x K matrix."""
    out_val = np.stack([c.value for c in cols], axis=1)

    def bwd(g):
        for j, c in enumerate(cols):
            _acc(c, g[:, j])

    return _wrap(tuple(cols), out_val, bwd)


def softmax_rows(logits: Node) -> Node:
    """Row-wise softmax with max-subtraction for stability."""
    z = logits.value - logits.value.max(axis=1, keepdims=True)
    e = np.exp(z)
    out_val = e / e.sum(axis=1, keepdims=True)

    def bwd(g):
        inner = (g * out_val).sum(axis=1, keepdims=True)
        _acc(logits, out_val * (g - inner))

    return _wrap((logits,), out_val, bwd)
