"""Shared test utilities: finite-difference gradient checking, tiny
variational-loss instances used by both the unit tests and the acceptance
suite, the softmax-chain reference for the linear decoder's moment-form
gradients, the per-array Adam that the one-buffer Adam is checked against,
the genie reference's level indices, the exhaustive ambiguity search that
evaluate's is checked against, a stream-level butterfly filter, the
convolution-mean carrier phase estimator, the MMSE genie's direct solve,
the dual-polarization link's per-bin 2x2 matrix, the channels' noise as
one expression and the closed-form QAM SER."""

from __future__ import annotations

import numpy as np
from scipy.special import erfc

from blindeq import autodiff as ad
from blindeq import equalize as eq
from blindeq import evaluate as ev
from blindeq import modem, sigproc
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


def _conv_instance(x, w, stride, rng: np.random.Generator):
    def win():
        return sigproc.windows(x, w.shape[2], stride)
    return _seeded_instance(
        [x, w], lambda: ad.conv1d_full(win(), w),
        lambda g: (ad.conv1d_grad_x(g, w, x.shape[1], stride),
                   ad.conv1d_grad_w(g, win())), rng)


def _cnn_instance(rng: np.random.Generator, n_pol: int, n_os: int, k2: int):
    """The CNN decoder's forward pass to the logits and ad.backward over its
    weights and biases, with nonzero biases so ELU sees both signs."""
    state = eq.VaeNnState(n_pol, n_os, 16, k1=5, k2=k2, f_ch=3, rng=rng, hidden=3)
    state.b1[:] = rng.standard_normal(state.b1.shape)
    state.b2[:] = rng.standard_normal(state.b2.shape)
    n = 8 * n_os
    rx = rng.standard_normal((n_pol, n)) + 1j * rng.standard_normal((n_pol, n))

    def backward(g):
        z, (wx, a1, wh) = eq.vae_nn_forward(rx, state)
        g_z = g.reshape(-1, z.shape[3])
        return ad.backward(wx, state.w1, a1, wh, state.w2, state.n_os, g_z)

    return _seeded_instance([state.w1, state.b1, state.w2, state.b2],
                            lambda: eq.vae_nn_forward(rx, state)[0], backward, rng)


def primitive_cases(rng: np.random.Generator):
    """(name, (params, loss, grads)) pairs covering the convolution's two
    gradients (odd kernels, padded by k // 2) and the CNN's whole reverse
    pass from its logits (biases and ELU included)."""
    sig = rng.standard_normal((3, 9))
    ker = rng.standard_normal((2, 3, 3))
    ker5 = rng.standard_normal((4, 3, 5))
    return [
        ("conv_plain", _conv_instance(sig, ker, 1, rng)),
        ("conv_stride", _conv_instance(sig, ker, 2, rng)),
        ("conv_k5_stride3", _conv_instance(sig, ker5, 3, rng)),
        ("cnn_1pol", _cnn_instance(rng, n_pol=1, n_os=2, k2=3)),
        ("cnn_2pol_sym_spaced", _cnn_instance(rng, n_pol=2, n_os=1, k2=5)),
    ]


# ---------------------------------------------------------------------------
# the CNN decoder's forward pass, one np.convolve per (output, input) channel
# pair: the reference for equalize.vae_nn_forward

def vae_nn_forward_loop(rx: np.ndarray, state) -> np.ndarray:
    """Posteriors (pol, 2, sqrt(M), n_sym) of the CNN decoder for rx."""
    chans = [part for p in range(rx.shape[0]) for part in (rx[p].real, rx[p].imag)]
    w1, b1, w2, b2 = state.w1, state.b1, state.w2, state.b2
    p1, p2 = w1.shape[2] // 2, w2.shape[2] // 2
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
    z = np.array(logits).reshape(state.n_pol, 2, state.n_levels, -1)
    e = np.exp(z - z.max(axis=-2, keepdims=True))
    return e / e.sum(axis=-2, keepdims=True)


# ---------------------------------------------------------------------------
# tiny full-loss instances: the production gradients of one batch, checked
# against central differences of the batch loss

def tiny_le_instance(rng: np.random.Generator, n_pol: int = 1, n_os: int = 2):
    """Small linear-decoder batch: (params, loss, grads), where params is
    the one float buffer of both filters' taps that Adam steps."""
    c = modem.build_constellation(4, 0.0)
    state = eq.VaeLeState(n_pol=n_pol, n_os=n_os, f_eq=5, f_ch=3, matched_demapper=True)
    state.params += 0.1 * rng.standard_normal(state.params.shape)
    n = 6 * n_os  # a 4-symbol batch and one symbol of context on each side
    rx = rng.standard_normal((n_pol, n)) + 1j * rng.standard_normal((n_pol, n))
    return _le_batch(state, c, rx)


def dp_le_instance(rng: np.random.Generator):
    """A linear-decoder batch at the DP recipes' shape: 2 pols at 2 sps,
    64-QAM shaped to 4.6 bits, 25 equalizer and channel taps, 40 symbols at
    sigma^2 = 0.05.  Both filters start as a Dirac butterfly rotated by the
    link's HV angle of 0.1 pi (the equalizer by its inverse) plus 0.02 complex
    noise, and rx is the rotated symbols plus noise of that variance."""
    c = modem.build_constellation(64, modem.nu_for_entropy(64, 4.6))
    state = eq.VaeLeState(n_pol=2, n_os=2, f_eq=25, f_ch=25, matched_demapper=True)
    g = 0.1 * np.pi
    rot = np.array([[np.cos(g), np.sin(g)], [-np.sin(g), np.cos(g)]])
    for taps, r in ((state.eq, rot.T), (state.ch, rot)):
        taps[:, :, taps.shape[2] // 2] = r
        taps += 0.02 * (rng.standard_normal(taps.shape) + 1j * rng.standard_normal(taps.shape))
    state.sigma_sq = 0.05
    sym = np.stack([modem.sample_symbols(c, 42, rng) for _ in range(2)])
    rx = np.stack([sigproc.upsample_zero_insert(s, 2) for s in rot @ sym])
    rx += np.sqrt(0.025) * (rng.standard_normal(rx.shape) + 1j * rng.standard_normal(rx.shape))
    return _le_batch(state, c, rx)


def _le_batch(state, c, rx: np.ndarray):
    """(params, loss, grads) of the linear-decoder batch in rx (pol, n), one
    symbol of context on each side excluded; params is the one float buffer
    of the taps that Adam steps, and grads its gradient buffer."""
    n_pol, n_os = state.n_pol, state.n_os
    n_b = rx.shape[1] // n_os - 2
    win = sigproc.windows(rx, state.f_eq, n_os).transpose(1, 0, 2)[1: 1 + n_b]
    batch = rx[:, n_os: (1 + n_b) * n_os]
    ctx = eq.LossContext(n_pol, n_b * n_os, state.f_ch, n_os, state.f_ch // 2, c)

    def grads():
        eq.vae_le_grads(state, win, batch, c, ctx)
        return [state.grad.copy()]

    return ([state.params],
            lambda: eq.vae_le_grads(state, win, batch, c, ctx)[1].total, grads)


def tiny_nn_instance(rng: np.random.Generator, n_pol: int = 1, n_os: int = 2):
    """Small CNN-decoder batch: (params, loss, grads) over the one float
    buffer of the decoder's weights and biases and the channel-model taps."""
    c = modem.build_constellation(4, 0.0)
    state = eq.VaeNnState(n_pol=n_pol, n_os=n_os, m=4, k1=3, k2=3, f_ch=3,
                          rng=rng, hidden=2)
    ch = state.ch.view(np.float64)
    ch += 0.1 * rng.standard_normal(ch.shape)
    n_b = 4
    rx = (rng.standard_normal((n_pol, n_b * n_os))
          + 1j * rng.standard_normal((n_pol, n_b * n_os)))
    ctx = eq.LossContext(n_pol, n_b * n_os, state.f_ch, n_os, state.f_ch // 2, c)

    def loss():
        return eq.vae_loss(rx, eq.vae_nn_forward(rx, state)[0], state.ch, c, ctx)[0].total

    def grads():
        eq.vae_nn_grads(state, rx, c, ctx)
        return [state.grad.copy()]

    return [state.params], loss, grads


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
# the linear decoder's gradients through the demapper's softmax: the
# reference for the moment form of equalize.vae_le_grads

def soft_demap(x_hat: np.ndarray, c: modem.Constellation, sigma_sq: float,
               matched: bool) -> np.ndarray:
    """Per-symbol, per-component posterior approximations, in the layout of
    x_hat plus (2, sqrt(M)); axis -2 is (I, Q).  With ``matched=False`` the
    shaping correction is dropped (uniform-QAM demapper)."""
    x_hat = np.asarray(x_hat, dtype=np.complex128)
    comps = np.stack([x_hat.real, x_hat.imag], axis=-1)
    logits = -(comps[..., None] - c.levels) ** 2 / (2.0 * sigma_sq)
    if matched:
        logits -= c.nu_scaled * c.levels ** 2
    q = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return q / q.sum(axis=-1, keepdims=True)


def vae_le_grads_softmax(state, win, rx_batch, c, ctx):
    """equalize.vae_le_grads through the posteriors: the demapper's logits
    -(x - a)^2 / (2 s2) (+ log p(a) when matched), dL/d logits from
    ``equalize.vae_loss``, then back through the logits and x_hat = taps x
    windows.  Returns (x_hat, LossBreakdown, dL/d equalizer taps, dL/d
    channel taps)."""
    wflat = win.reshape(win.shape[0], -1)
    x_hat = eq._filter_windows(state.eq, wflat)
    s2 = 0.5 * state.sigma_sq
    comps = np.stack([x_hat.real, x_hat.imag], axis=1)[:, :, None]   # (pol, 2, 1, n_sym)
    lev = c.levels[:, None]
    z = -(comps - lev) ** 2 / (2.0 * s2)
    if state.matched_demapper:
        z += np.log(c.prior)[:, None]
    bd, _, g_z, g_ch = eq.vae_loss(rx_batch, z, state.ch, c, ctx)
    g_comp = (g_z * (lev - comps)).sum(axis=-2) / s2
    g_eq = ((g_comp[:, 0] + 1j * g_comp[:, 1]) @ np.conj(wflat)).reshape(state.eq.shape)
    return x_hat, bd, g_eq, g_ch


class AdamPerArray:
    """Adam over a list of float arrays, one moment pair per array: the
    per-array optimizer that equalize.Adam's one buffer replaced."""

    def __init__(self, params):
        self.params = list(params)
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.t = 0

    def step(self, grads, lr: float) -> None:
        self.t += 1
        b1c = 1.0 - 0.9 ** self.t
        b2c = 1.0 - 0.999 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m += (1.0 - 0.9) * (g - m)
            v += (1.0 - 0.999) * (g * g - v)
            p -= lr * (m / b1c) / (np.sqrt(v / b2c) + 1e-8)


# ---------------------------------------------------------------------------
# exhaustive ambiguity search

_ROTATIONS = np.exp(1j * np.pi / 4.0 * np.arange(8))


def symbol_indices(c: modem.Constellation, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact level indices of noiseless constellation points (genie reference)."""
    return _nearest_level(x.real, c.levels), _nearest_level(x.imag, c.levels)


def _nearest_level(v: np.ndarray, levels: np.ndarray) -> np.ndarray:
    # the nearest level is one of the two around v, lo and lo + 1, where lo
    # counts the inner levels <= v (NaN counts all); comparing their rounded
    # distances, ties to the lower, gives what an argmin over all levels gives
    # (deciding by the rounded midpoints would not, at a midpoint)
    lo = np.zeros(v.shape, dtype=np.intp)
    for a in levels[1:-1]:
        lo += ~(v < a)
    return lo + (np.abs(v - levels[lo + 1]) < np.abs(v - levels[lo]))


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


def _rotate(v, r):
    """v w^r (w = e^{j pi/4}) as v w^(r % 2) times j^(r // 2), each j exact:
    (u, v) -> (-v, u), the convention evaluate decides by, so that exact
    MAP boundary hits stay exact (a product with e^{j pi / 2} would move
    them by rounding)."""
    v = v * _ROTATIONS[r % 2]
    for _ in range(r // 2):
        turned = np.empty_like(v)
        turned.real, turned.imag = -v.imag, v.real
        v = turned
    return v


def resolve_ambiguity_exhaustive(x_hat, ref, c, sigma_sq, max_shift=50,
                                 edge_trim=0):
    """evaluate.resolve_ambiguity by brute force: the shift candidates from
    the full-lag correlation, and one MAP decision pass per candidate shift,
    conjugation and pi/4 rotation, with no decision mirrored."""
    amp = np.mean(np.abs(x_hat))
    if amp > 0:
        x_hat = x_hat * (np.mean(np.abs(ref)) / amp)
    n = ref.shape[0]
    ref_i, ref_q = symbol_indices(c, ref)
    best = None
    for s in candidate_shifts_full(x_hat, ref, max_shift):
        lo_hat, lo_ref = max(s, 0) + edge_trim, max(-s, 0) + edge_trim
        length = n - abs(s) - 2 * edge_trim
        if length <= 0:
            continue
        seg = x_hat[lo_hat: lo_hat + length]
        ri, rq = ref_i[lo_ref: lo_ref + length], ref_q[lo_ref: lo_ref + length]
        for conj in (False, True):
            for r in range(8):
                # conj(x) w^r as conj(x w^-r), evaluate's convention
                v = np.conj(_rotate(seg, -r % 8)) if conj else _rotate(seg, r)
                i_idx, q_idx = modem.map_decide(v, c, sigma_sq)
                ser = np.count_nonzero((i_idx != ri) | (q_idx != rq)) / length
                if best is None or ser < best.ser:
                    best = ev.Alignment(shift=s, rotation=r, conjugate=conj,
                                        ser=ser)
    return best


# ---------------------------------------------------------------------------
# references

def butterfly_apply(rx: np.ndarray, taps: np.ndarray, stride: int = 1) -> np.ndarray:
    """Centered 2x2 (or 1x1) MIMO convolution of a whole stream with strided
    downsampling, through the equalizers' windowing path.

    rx has shape (pol, n_samples); returns (pol, ceil(n_samples / stride)).
    """
    pol = rx.shape[0]
    if pol != taps.shape[0]:
        raise ConfigError(f"input has {pol} polarizations, filter {taps.shape[0]}")
    win = sigproc.windows(rx, taps.shape[2], stride).transpose(1, 0, 2)
    # the equalizers' taps are correlation-oriented: flip for a convolution
    return eq._filter_windows(taps[:, :, ::-1], win)


def viterbi_viterbi_cpe_convolution(x: np.ndarray, window: int) -> np.ndarray:
    """equalize.viterbi_viterbi_cpe with its running mean of x^4 taken by a
    ``window``-tap centred convolution, the reference for the cumulative-sum
    mean.  x is (pol, n)."""
    out = np.empty_like(x)
    kernel = np.full(window, 1.0 / window)
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(x.shape[0]):
            z = sigproc.convolve_same(x[p] ** 4, kernel)
            out[p] = x[p] * np.exp(-0.25j * np.unwrap(np.angle(-z)))
    return out


def mmse_baseline_direct(rx: np.ndarray, tx: np.ndarray, n_taps: int, sps: int):
    """equalize.mmse_baseline over the whole (n_sym, n_taps) window matrix at
    once, one solve and one residual per delay: the reference for the blocked
    normal equations."""
    n_sym = min(tx.shape[0], rx.shape[0] // sps)
    x = sigproc.windows(rx[None, :], n_taps, sps)[0, :n_sym]
    xh = x.conj().T
    gram = xh @ x + eq._MMSE_RIDGE * np.eye(n_taps)
    best = None
    for d in range(-eq._MMSE_MAX_DELAY, eq._MMSE_MAX_DELAY + 1):
        target = np.roll(tx[:n_sym], d)
        w = np.linalg.solve(gram, xh @ target)
        resid = float(np.linalg.norm(x @ w - target) ** 2)
        if best is None or resid < best[0]:
            best = (resid, w, d)
    _, w, d = best
    return w, np.roll(x @ w, -d), d


def dp_channel_matrix(diag: np.ndarray, cfg, gamma: float) -> np.ndarray:
    """The dual-polarization link's frequency-domain 2x2 matrix per bin at HV
    angle ``gamma``, R^T diag R with R = e^{-j phi_iq} R(gamma) and ``diag``
    the (2, n) ``channel.dp_phases``: the reference for ``channel.dp_apply``,
    which applies the same product in its factored form.  Returns shape
    (2, 2, n)."""
    c, s = np.cos(gamma), np.sin(gamma)
    r = np.exp(-1j * cfg.phi_iq) * np.array([[c, s], [-s, c]])
    # h[i, q, k] = sum_p r[p, i] diag[p, k] r[p, q]
    return np.einsum("pi,pk,pq->iqk", r, diag, r)


def add_awgn_expression(samples: np.ndarray, sigma_sq: float,
                        rng: np.random.Generator) -> np.ndarray:
    """samples + s (a + 1j b), s = sqrt(sigma_sq / 2), with a the I draws and b
    the Q draws: the noise as one expression, a new array, the reference
    for the channels' in-place noise."""
    s = np.sqrt(sigma_sq / 2.0)
    return samples + s * (rng.standard_normal(samples.shape)
                          + 1j * rng.standard_normal(samples.shape))


def qam_awgn_ser(m: int, snr_db: float) -> float:
    """Closed-form symbol error rate of uniform square M-QAM over AWGN."""
    root = int(np.sqrt(m))
    if root * root != m:
        raise ConfigError(f"modulation order must be a perfect square, got {m}")
    snr = 10.0 ** (snr_db / 10.0)
    arg = np.sqrt(3.0 * snr / (2.0 * (m - 1)))
    p = (1.0 - 1.0 / root) * erfc(arg)
    return float(1.0 - (1.0 - p) ** 2)
