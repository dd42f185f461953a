"""Shared test utilities: finite-difference gradient checking, tiny
variational-loss instances used by both the unit tests and the acceptance
suite, and the exhaustive ambiguity search that evaluate's is checked
against."""

from __future__ import annotations

import numpy as np

from blindeq import autodiff as ad
from blindeq import equalize as eq
from blindeq import evaluate as ev
from blindeq import modem


def analytic_gradients(build, params):
    """Gradients of the scalar build() w.r.t. the given leaf nodes."""
    for p in params:
        p.zero_grad()
    root = build()
    ad.backward(root)
    return [p.grad.copy() for p in params]


def fd_gradients(build, params, eps: float = 1e-6):
    """Central-difference gradients, perturbing the leaves in place."""
    grads = []
    for p in params:
        g = np.zeros_like(p.value)
        flat, gf = p.value.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(build().value)
            flat[i] = orig - eps
            fm = float(build().value)
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * eps)
        grads.append(g)
    return grads


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    num = np.linalg.norm(np.asarray(a) - np.asarray(b))
    den = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(num / den)


def max_gradient_error(build, params, eps: float = 1e-6) -> float:
    ana = analytic_gradients(build, params)
    num = fd_gradients(build, params, eps)
    return max(rel_err(a, n) for a, n in zip(ana, num))


# ---------------------------------------------------------------------------
# primitive-op instances for gradient checking

def _scalarizer(rng: np.random.Generator):
    """Fixed random linear functional, so upstream gradients are generic but
    identical across the repeated build() calls of the FD sweep."""
    weights = {}

    def scalarize(out: ad.Node) -> ad.Node:
        w = weights.setdefault(out.shape, rng.standard_normal(out.shape))
        return ad.ssum(ad.scale(out, w))

    return scalarize


def primitive_cases(rng: np.random.Generator):
    """(name, params, build) triples covering every differentiable op."""
    sc = _scalarizer(rng)
    a = ad.leaf(rng.standard_normal(6))
    b = ad.leaf(rng.standard_normal(6))
    s = ad.leaf(rng.standard_normal(1))
    pos = ad.leaf(0.1 + rng.random(6))
    sig = ad.leaf(rng.standard_normal(9))
    ker = ad.leaf(rng.standard_normal(3))
    ker4 = ad.leaf(rng.standard_normal(4))
    mat = ad.leaf(rng.standard_normal((5, 3)))
    cols = [ad.leaf(rng.standard_normal(4)) for _ in range(3)]
    vec = rng.standard_normal(3)
    levels = np.sort(rng.standard_normal(4))
    cases = [
        ("add", [a, b], lambda: sc(ad.add(a, b))),
        ("add_broadcast", [a, s], lambda: sc(ad.add(a, s))),
        ("subtract", [a, b], lambda: sc(ad.subtract(a, b))),
        ("multiply", [a, b], lambda: sc(ad.multiply(a, b))),
        ("multiply_broadcast", [a, s], lambda: sc(ad.multiply(a, s))),
        ("square", [a], lambda: sc(ad.square(a))),
        ("natural_log", [pos], lambda: sc(ad.natural_log(pos))),
        ("ssum", [a], lambda: ad.ssum(a)),
        ("scale", [a], lambda: sc(ad.scale(a, vec[0]))),
        ("shift", [a], lambda: sc(ad.shift(a, vec[1]))),
        ("elu", [a], lambda: sc(ad.elu(a))),
        ("conv_plain", [sig, ker], lambda: sc(ad.conv1d_full(sig, ker))),
        ("conv_stride_pad", [sig, ker],
         lambda: sc(ad.conv1d_full(sig, ker, 2, 2))),
        ("conv_even_kernel", [sig, ker4],
         lambda: sc(ad.conv1d_full(sig, ker4, 3, 1))),
        ("zero_insert", [a], lambda: sc(ad.zero_insert(a, 3))),
        ("outer_diff", [a], lambda: sc(ad.outer_diff(a, levels))),
        ("rows_dot", [mat], lambda: sc(ad.rows_dot(mat, vec))),
        ("stack_cols", cols, lambda: sc(ad.stack_cols(cols))),
        ("softmax_rows", [mat], lambda: sc(ad.softmax_rows(mat))),
    ]
    return cases


# ---------------------------------------------------------------------------
# tiny full-loss instances

def tiny_le_instance(rng: np.random.Generator):
    """Small linear-decoder loss: params and a rebuildable scalar."""
    c = modem.build_constellation(4, 0.0)
    state = eq.VaeLeState(n_pol=1, n_os=2, f_eq=5, f_ch=3)
    for p in state.params:
        p.value += 0.1 * rng.standard_normal(p.value.shape)
    n_b = 4
    mh = state.f_eq // 2
    rx_ctx = (rng.standard_normal((1, n_b * 2 + 2 * mh))
              + 1j * rng.standard_normal((1, n_b * 2 + 2 * mh)))

    def build():
        rx_batch = rx_ctx[:, mh: rx_ctx.shape[1] - mh]
        x_hat = eq._butterfly_forward(state, rx_ctx)
        q_nodes = [eq.soft_demap_node(xr, xi, c, 0.5 * state.sigma_sq)
                   for xr, xi in x_hat]
        total, _ = eq.vae_loss(rx_batch, q_nodes, state.ch, c, state.n_os,
                               edge_trim=state.f_ch // 2)
        return total

    return state.params, build


def tiny_nn_instance(rng: np.random.Generator):
    """Small CNN-decoder loss: params and a rebuildable scalar."""
    c = modem.build_constellation(4, 0.0)
    state = eq.VaeNnState(n_pol=1, n_os=2, m=4, k1=3, k2=3, f_ch=3,
                          rng=rng, hidden=2)
    n_b = 4
    rx = rng.standard_normal((1, n_b * 2)) + 1j * rng.standard_normal((1, n_b * 2))

    def build():
        q_nodes = eq.vae_nn_forward(rx, state)
        total, _ = eq.vae_loss(rx, q_nodes, state.ch, c, state.n_os,
                               edge_trim=state.f_ch // 2)
        return total

    return state.params, build


# ---------------------------------------------------------------------------
# exhaustive ambiguity search

_ROTATIONS = np.exp(1j * np.pi / 4.0 * np.arange(8))


def candidate_shifts_full(x_hat, ref, max_shift):
    """Shift candidates from the full-lag correlation, masked to
    |lag| <= max_shift: 0 and the first peak of the plain and the
    conjugated frame."""
    n = ref.shape[0]
    cands = {0}
    for sig in (x_hat, np.conj(x_hat)):
        corr = np.correlate(sig, ref, mode="full")  # lag = idx - (n - 1)
        lags = np.arange(corr.shape[0]) - (n - 1)
        ok = np.abs(lags) <= max_shift
        cands.add(int(lags[ok][np.argmax(np.abs(corr[ok]))]))
    return sorted(cands)


def resolve_ambiguity_exhaustive(x_hat, ref, c, sigma_sq, max_shift=50,
                                 edge_trim=0):
    """evaluate.resolve_ambiguity by brute force: the shift candidates from
    the full-lag correlation, and one MAP decision pass per candidate shift,
    conjugation and pi/4 rotation."""
    amp = np.mean(np.abs(x_hat))
    if amp > 0:
        x_hat = x_hat * (np.mean(np.abs(ref)) / amp)
    n = ref.shape[0]
    ref_i, ref_q = modem.symbol_indices(c, ref)
    best = None
    for s in candidate_shifts_full(x_hat, ref, max_shift):
        lo_hat, lo_ref = max(s, 0) + edge_trim, max(-s, 0) + edge_trim
        length = n - abs(s) - 2 * edge_trim
        if length <= 0:
            continue
        seg = x_hat[lo_hat: lo_hat + length]
        ri, rq = ref_i[lo_ref: lo_ref + length], ref_q[lo_ref: lo_ref + length]
        for conj in (False, True):
            base = np.conj(seg) if conj else seg
            for r in range(8):
                i_idx, q_idx = modem.map_decide(base * _ROTATIONS[r], c,
                                                sigma_sq)
                ser = np.count_nonzero((i_idx != ri) | (q_idx != rq)) / length
                if best is None or ser < best.ser:
                    best = ev.Alignment(shift=s, rotation=r, conjugate=conj,
                                        ser=ser, n_eval=length)
    return best
