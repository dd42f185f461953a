"""Shared test utilities: finite-difference gradient checking, tiny
variational-loss instances used by both the unit tests and the acceptance
suite, the exhaustive ambiguity search that evaluate's is checked against,
a stream-level butterfly filter and the closed-form QAM SER."""

from __future__ import annotations

import numpy as np
from scipy.special import erfc

from blindeq import autodiff as ad
from blindeq import equalize as eq
from blindeq import evaluate as ev
from blindeq import modem
from blindeq.errors import ConfigError


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
# hand-written reverse passes for gradient checking

def _seeded_instance(params, forward, backward, rng: np.random.Generator):
    """(params, loss, grads) of the scalar sum(seed * forward()), where
    backward(seed) gives the hand-written gradients w.r.t. params.  The seed
    is a fixed random array, so the upstream gradient is generic but
    identical across the repeated calls of the FD sweep."""
    seed = rng.standard_normal(forward().shape)
    return (params, lambda: float((seed * forward()).sum()),
            lambda: list(backward(seed)))


def _conv_instance(x, w, stride, padding, rng: np.random.Generator):
    return _seeded_instance(
        [x, w], lambda: ad.conv1d_full(x, w, stride, padding),
        lambda g: (ad.conv1d_grad_x(g, w, x.shape[1], stride, padding),
                   ad.conv1d_grad_w(g, x, w.shape[2], stride, padding)), rng)


def _cnn_instance(rng: np.random.Generator, n_pol: int, n_os: int, k2: int):
    """The CNN decoder's forward pass and ad.backward over its weights and
    biases, with nonzero biases so ELU sees both signs."""
    state = eq.VaeNnState(n_pol, n_os, 16, k1=5, k2=k2, f_ch=3, rng=rng, hidden=3)
    state.b1[:] = rng.standard_normal(state.b1.shape)
    state.b2[:] = rng.standard_normal(state.b2.shape)
    n = 8 * n_os
    rx = rng.standard_normal((n_pol, n)) + 1j * rng.standard_normal((n_pol, n))

    def backward(g):
        q, (x, a1, h) = eq.vae_nn_forward(rx, state)
        return ad.backward(x, state.w1, a1, h, state.w2, state.n_os, q, g)

    return _seeded_instance([state.w1, state.b1, state.w2, state.b2],
                            lambda: eq.vae_nn_forward(rx, state)[0], backward, rng)


def primitive_cases(rng: np.random.Generator):
    """(name, (params, loss, grads)) pairs covering the convolution's two
    gradients and the CNN's whole reverse pass (biases, ELU and the grouped
    softmax included)."""
    sig = rng.standard_normal((3, 9))
    ker = rng.standard_normal((2, 3, 3))
    ker4 = rng.standard_normal((4, 3, 4))
    return [
        ("conv_plain", _conv_instance(sig, ker, 1, 0, rng)),
        ("conv_stride_pad", _conv_instance(sig, ker, 2, 2, rng)),
        ("conv_even_kernel", _conv_instance(sig, ker4, 3, 1, rng)),
        ("cnn_1pol", _cnn_instance(rng, n_pol=1, n_os=2, k2=3)),
        ("cnn_2pol_sym_spaced", _cnn_instance(rng, n_pol=2, n_os=1, k2=5)),
    ]


# ---------------------------------------------------------------------------
# the CNN decoder's forward pass, one np.convolve per (output, input) channel
# pair: the reference for equalize.vae_nn_forward

def vae_nn_forward_loop(rx: np.ndarray, state) -> np.ndarray:
    """Posteriors (pol, 2, n_sym, sqrt(M)) of the CNN decoder for rx."""
    chans = [part for p in range(rx.shape[0]) for part in (rx[p].real, rx[p].imag)]
    w1, b1, w2, b2 = state.w1, state.b1, state.w2, state.b2
    p1, p2 = state.k1 // 2, state.k2 // 2
    hidden = []
    for o in range(w1.shape[0]):
        acc = sum(np.convolve(np.pad(x, p1), w1[o, i], mode="valid")
                  for i, x in enumerate(chans))
        z = acc + b1[o]
        hidden.append(np.where(z > 0.0, z, np.expm1(z)))
    logits = []
    for o in range(w2.shape[0]):
        acc = sum(np.convolve(np.pad(h, p2), w2[o, i], mode="valid")[::state.n_os]
                  for i, h in enumerate(hidden))
        logits.append(acc + b2[o])
    z = np.array(logits).reshape(state.n_pol, 2, state.n_levels, -1).transpose(0, 1, 3, 2)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


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
    weights and biases and the channel-model taps."""
    c = modem.build_constellation(4, 0.0)
    state = eq.VaeNnState(n_pol=n_pol, n_os=n_os, m=4, k1=3, k2=3, f_ch=3,
                          rng=rng, hidden=2)
    state.adam.params[-1] += 0.1 * rng.standard_normal(state.adam.params[-1].shape)
    n_b = 4
    rx = (rng.standard_normal((n_pol, n_b * n_os))
          + 1j * rng.standard_normal((n_pol, n_b * n_os)))

    def loss():
        q = eq.vae_nn_forward(rx, state)[0].reshape(n_pol, 2, n_b, -1)
        return eq.vae_loss(rx, q, state.ch.taps, c, n_os, edge_trim=state.f_ch // 2)[0].total

    def grads():
        _, _, g_net, g_ch = eq.vae_nn_grads(state, rx, c)
        return [*g_net, eq._real_view(g_ch)]

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


# ---------------------------------------------------------------------------
# references

def butterfly_apply(rx: np.ndarray, filt: eq.ButterflyFilter, stride: int = 1) -> np.ndarray:
    """Centered 2x2 (or 1x1) MIMO convolution of a whole stream with strided
    downsampling, through the equalizers' windowing path.

    rx has shape (pol, n_samples); returns (pol, ceil(n_samples / stride)).
    """
    pol = rx.shape[0]
    if pol != filt.n_pol:
        raise ConfigError(f"input has {pol} polarizations, filter {filt.n_pol}")
    return eq._filter_windows(filt.taps, eq._windows(rx, filt.n_taps, stride))


def qam_awgn_ser(m: int, snr_db: float) -> float:
    """Closed-form symbol error rate of uniform square M-QAM over AWGN."""
    root = int(np.sqrt(m))
    if root * root != m:
        raise ConfigError(f"modulation order must be a perfect square, got {m}")
    snr = 10.0 ** (snr_db / 10.0)
    arg = np.sqrt(3.0 * snr / (2.0 * (m - 1)))
    p = (1.0 - 1.0 / root) * erfc(arg)
    return float(1.0 - (1.0 - p) ** 2)
