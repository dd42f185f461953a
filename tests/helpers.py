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


def fd_gradients(loss, params, eps: float = 1e-6):
    """Central-difference gradients of the scalar loss() w.r.t. float
    arrays, perturbing them in place."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat, gf = p.reshape(-1), g.reshape(-1)
        assert np.shares_memory(flat, p)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = loss()
            flat[i] = orig - eps
            fm = loss()
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * eps)
        grads.append(g)
    return grads


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    num = np.linalg.norm(np.asarray(a) - np.asarray(b))
    den = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(num / den)


def max_gradient_error(instance, eps: float = 1e-6) -> float:
    """Worst relative error of an instance's (params, loss, grads) analytic
    gradients against central differences."""
    params, loss, grads = instance
    ana = grads()
    num = fd_gradients(loss, params, eps)
    return max(rel_err(a, n) for a, n in zip(ana, num))


# ---------------------------------------------------------------------------
# primitive-op instances for gradient checking

def _graph_instance(nodes, build):
    """(params, loss, grads) of a graph scalar build() over leaf nodes."""
    def grads():
        for p in nodes:
            p.zero_grad()
        ad.backward(build())
        return [p.grad.copy() for p in nodes]

    return [p.value for p in nodes], lambda: float(build().value), grads


def _scalarizer(rng: np.random.Generator):
    """Fixed random linear functional, so upstream gradients are generic but
    identical across the repeated build() calls of the FD sweep."""
    weights = {}

    def scalarize(out: ad.Node) -> ad.Node:
        w = weights.setdefault(out.shape, rng.standard_normal(out.shape))
        return ad.ssum(ad.scale(out, w))

    return scalarize


def primitive_cases(rng: np.random.Generator):
    """(name, (params, loss, grads)) pairs covering every differentiable op."""
    sc = _scalarizer(rng)
    a = ad.leaf(rng.standard_normal(6))
    b = ad.leaf(rng.standard_normal(6))
    s = ad.leaf(rng.standard_normal(1))
    sig = ad.leaf(rng.standard_normal(9))
    ker = ad.leaf(rng.standard_normal(3))
    ker4 = ad.leaf(rng.standard_normal(4))
    mat = ad.leaf(rng.standard_normal((5, 3)))
    cols = [ad.leaf(rng.standard_normal(4)) for _ in range(3)]
    vec = rng.standard_normal(3)
    cases = [
        ("add", [a, b], lambda: sc(ad.add(a, b))),
        ("add_broadcast", [a, s], lambda: sc(ad.add(a, s))),
        ("ssum", [a], lambda: ad.ssum(a)),
        ("scale", [a], lambda: sc(ad.scale(a, vec[0]))),
        ("elu", [a], lambda: sc(ad.elu(a))),
        ("conv_plain", [sig, ker], lambda: sc(ad.conv1d_full(sig, ker))),
        ("conv_stride_pad", [sig, ker],
         lambda: sc(ad.conv1d_full(sig, ker, 2, 2))),
        ("conv_even_kernel", [sig, ker4],
         lambda: sc(ad.conv1d_full(sig, ker4, 3, 1))),
        ("stack_cols", cols, lambda: sc(ad.stack_cols(cols))),
        ("softmax_rows", [mat], lambda: sc(ad.softmax_rows(mat))),
    ]
    return [(name, _graph_instance(nodes, build)) for name, nodes, build in cases]


# ---------------------------------------------------------------------------
# tiny full-loss instances: the production gradients of one batch, checked
# against central differences of the batch loss

def tiny_le_instance(rng: np.random.Generator, n_pol: int = 1, n_os: int = 2):
    """Small linear-decoder batch: (params, loss, grads), where params are
    the float views of the taps that Adam steps."""
    c = modem.build_constellation(4, 0.0)
    state = eq.VaeLeState(n_pol=n_pol, n_os=n_os, f_eq=5, f_ch=3)
    for p in state.adam.params:
        p += 0.1 * rng.standard_normal(p.shape)
    n_b = 4
    n = (n_b + 2) * n_os  # one symbol of context on each side
    rx = rng.standard_normal((n_pol, n)) + 1j * rng.standard_normal((n_pol, n))
    win = eq._windows(rx, state.f_eq, n_os)[1: 1 + n_b]
    batch = rx[:, n_os: (1 + n_b) * n_os]

    def grads():
        _, _, g_eq, g_ch = eq.vae_le_grads(state, win, batch, c)
        return [eq._real_view(g_eq), eq._real_view(g_ch)]

    return (state.adam.params,
            lambda: eq.vae_le_grads(state, win, batch, c)[1].total, grads)


def tiny_nn_instance(rng: np.random.Generator, n_pol: int = 1, n_os: int = 2):
    """Small CNN-decoder batch: (params, loss, grads) over the decoder's
    leaves and the channel-model taps."""
    c = modem.build_constellation(4, 0.0)
    state = eq.VaeNnState(n_pol=n_pol, n_os=n_os, m=4, k1=3, k2=3, f_ch=3,
                          rng=rng, hidden=2)
    state.adam.params[-1] += 0.1 * rng.standard_normal(state.adam.params[-1].shape)
    n_b = 4
    rx = (rng.standard_normal((n_pol, n_b * n_os))
          + 1j * rng.standard_normal((n_pol, n_b * n_os)))

    def loss():
        q = eq._posteriors(eq.vae_nn_forward(rx, state))
        return eq.vae_loss(rx, q, state.ch.taps, c, n_os, edge_trim=state.f_ch // 2)[0].total

    def grads():
        _, _, g_ch = eq.vae_nn_grads(state, rx, c)
        return [p.grad.copy() for p in state.leaves] + [eq._real_view(g_ch)]

    return state.adam.params, loss, grads


# the full-loss instances criterion 1 checks: one and two polarizations,
# fractionally and symbol spaced
LOSS_INSTANCES = (
    ("le_1pol", lambda rng: tiny_le_instance(rng)),
    ("le_2pol", lambda rng: tiny_le_instance(rng, n_pol=2)),
    ("le_sym_spaced", lambda rng: tiny_le_instance(rng, n_os=1)),
    ("nn_1pol", lambda rng: tiny_nn_instance(rng)),
    ("nn_2pol", lambda rng: tiny_nn_instance(rng, n_pol=2)),
    ("nn_sym_spaced", lambda rng: tiny_nn_instance(rng, n_os=1)),
)


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
