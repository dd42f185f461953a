"""Adaptive receivers.

CMA family (symbol-wise, batch, flex) with Viterbi-Viterbi carrier phase
estimation, the genie-aided linear MMSE baseline, and the variational
equalizers: a butterfly FIR decoder (linear equalizer) or a two-layer CNN
decoder, both trained jointly with a butterfly FIR channel model by
minimizing the negative evidence lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DivergenceError
from .modem import Constellation, soft_demap
from .sigproc import convolve_same

# ---------------------------------------------------------------------------
# butterfly filters


@dataclass
class ButterflyFilter:
    """n_pol x n_pol bank of complex FIR taps, shape (pol, pol, F), F odd."""

    taps: np.ndarray

    def __post_init__(self):
        self.taps = np.asarray(self.taps, dtype=np.complex128)
        if self.taps.ndim != 3 or self.taps.shape[0] != self.taps.shape[1]:
            raise ConfigError(f"expected (pol, pol, F) taps, got {self.taps.shape}")
        if self.taps.shape[2] % 2 == 0:
            raise ConfigError(f"filter length must be odd, got {self.taps.shape[2]}")

    @property
    def n_pol(self) -> int:
        return self.taps.shape[0]

    @property
    def n_taps(self) -> int:
        return self.taps.shape[2]

    @classmethod
    def dirac(cls, n_pol: int, n_taps: int) -> "ButterflyFilter":
        taps = np.zeros((n_pol, n_pol, n_taps), dtype=np.complex128)
        taps[np.arange(n_pol), np.arange(n_pol), n_taps // 2] = 1.0
        return cls(taps)


def _filter_windows(taps: np.ndarray, win: np.ndarray) -> np.ndarray:
    """Convolve a block of (n, pol, F) windows with (pol, pol, F) taps;
    returns (pol, n)."""
    # the windows, like the CMA taps, are correlation-oriented; the VAE
    # (ButterflyFilter) taps are convolution-oriented, hence the flip
    flipped = taps[:, :, ::-1].reshape(taps.shape[0], -1)
    return _taps_dot(flipped, win.reshape(win.shape[0], -1)).T


def _windows(rx: np.ndarray, n_taps: int, stride: int) -> np.ndarray:
    """Sliding, symbol-strided windows (n_sym, pol, F), centered; a view."""
    mh = n_taps // 2
    # zeros and a slice assignment: np.pad costs more than the rest of this
    # for the short blocks of a VAE update
    pad = np.zeros((rx.shape[0], rx.shape[1] + 2 * mh), dtype=rx.dtype)
    pad[:, mh: mh + rx.shape[1]] = rx
    view = np.lib.stride_tricks.sliding_window_view(pad, n_taps, axis=1)
    return view[:, ::stride].transpose(1, 0, 2)


def _taps_dot(taps_mat: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The taps x windows product: (pol, K) taps times each row of an (n, K)
    block of flattened windows, giving (n, pol).  A stacked matmul, so each
    output is summed in the same order whatever the block length."""
    return np.matmul(taps_mat, w[..., None])[..., 0]


def godard_radius(c: Constellation) -> float:
    """R2 = E|a|^4 / E|a|^2 under the constellation prior."""
    pts = c.levels[:, None] + 1j * c.levels[None, :]
    w = c.prior[:, None] * c.prior[None, :]
    p2 = float((w * np.abs(pts) ** 2).sum())
    p4 = float((w * np.abs(pts) ** 4).sum())
    return p4 / p2


# ---------------------------------------------------------------------------
# CMA family


def cma_block(taps_mat: np.ndarray, w: np.ndarray, r2: float):
    """Godard's CMA over a block of symbols at fixed taps.

    ``taps_mat`` is (pol, pol * F), correlation-oriented; ``w`` holds the
    block's flattened windows, (n, pol * F).  Returns the outputs y, (n, pol),
    and each symbol's Godard ascent direction e conj(w) with
    e = y (R2 - |y|^2), (n, pol, pol * F).
    """
    out = _taps_dot(taps_mat, w)
    err = out * (r2 - np.abs(out) ** 2)
    return out, err[:, :, None] * np.conj(w)[:, None, :]


def _unit_power(rx: np.ndarray) -> np.ndarray:
    p = np.mean(np.abs(rx) ** 2)
    return rx / np.sqrt(p) if p > 0 else rx


def lr_schedule(k: int, eps0: float) -> float:
    """Halve the learning rate after every 20th frame index."""
    if k < 0:
        raise ConfigError(f"frame index must be >= 0, got {k}")
    return eps0 * 2.0 ** (-(k // 20))


def cma_run(rx: np.ndarray, c: Constellation, n_taps: int, lr0: float, sps: int,
            n_frame: int = 10_000, scheduler: bool = False,
            n_batch: int | None = None, n_flex: int | None = None):
    """Run a CMA over a sample stream; returns (out, filt, singularity_corr).

    The taps are fixed for the first n_b symbols.  After that they are
    updated every n_flex symbols by mu times the mean of the last n_b Godard
    directions, each computed at the taps in force when its symbol was
    equalized.  n_batch=None gives the classical symbol-wise update
    (n_b = n_flex = 1); otherwise n_b = n_batch and n_flex defaults to it.
    At every frame start the scheduler, when enabled, halves mu per 20 frame
    indices, and non-finite taps stop the run with the rest of the output NaN.
    """
    rx = _unit_power(np.atleast_2d(rx))
    pol = rx.shape[0]
    r2 = godard_radius(c)
    filt = ButterflyFilter.dirac(pol, n_taps)
    taps_mat = filt.taps.reshape(pol, pol * n_taps)
    win = _windows(rx, n_taps, sps)
    n_sym = win.shape[0]
    out = np.empty((pol, n_sym), dtype=np.complex128)
    if n_batch is None:
        n_batch = n_flex = 1
    elif n_flex is None:
        n_flex = n_batch
    # ring buffer: symbol k's direction sits in slot k % n_batch, and the
    # mean runs in slot order
    dirs = np.zeros((n_batch, pol, pol * n_taps), dtype=np.complex128)
    mu = lr0
    lo, update = 0, n_batch
    with np.errstate(over="ignore", invalid="ignore"):
        while lo < n_sym:
            if lo % n_frame == 0:
                if scheduler:
                    mu = lr_schedule(lo // n_frame, lr0)
                if not np.all(np.isfinite(taps_mat)):
                    # diverged: freeze and flag the remaining output
                    out[:, lo:] = np.nan
                    break
            # a block of fixed taps ends at the next update, frame start or
            # wrap of the ring buffer
            slot = lo % n_batch
            hi = min(update, (lo // n_frame + 1) * n_frame, lo - slot + n_batch, n_sym)
            w = win[lo:hi].reshape(hi - lo, -1)
            o, dirs[slot: slot + hi - lo] = cma_block(taps_mat, w, r2)
            out[:, lo:hi] = o.T
            if hi == update:
                # the mean of one direction is the direction itself
                taps_mat += mu * (dirs[0] if n_batch == 1 else dirs.sum(axis=0) / n_batch)
                update += n_flex
            lo = hi
    if pol == 1:
        return out, filt, 0.0
    corr = (_singularity_correlation(filt) if np.all(np.isfinite(filt.taps))
            else float("nan"))
    return out, filt, corr


def _singularity_correlation(filt: ButterflyFilter) -> float:
    """Normalized correlation between the two output filter rows; values near
    1 indicate both outputs converged to the same polarization."""
    a = filt.taps[0].ravel()
    b = filt.taps[1].ravel()
    return float(np.abs(a @ np.conj(b)) / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-30))


def viterbi_viterbi_cpe(x: np.ndarray, window: int = 501) -> np.ndarray:
    """Fourth-power carrier phase estimation with a sliding average.

    The estimate phi_i = arg(-sum x^4)/4 carries the conventional pi/4
    offset for square QAM; the fourth-power phase is unwrapped across the
    sequence to avoid pi/2 cycle slips.  A residual pi/2 (and pi/4 offset)
    ambiguity remains for downstream resolution.
    """
    if window % 2 == 0:
        raise ConfigError(f"averaging window must be odd, got {window}")
    x = np.asarray(x)
    was_1d = x.ndim == 1
    x = np.atleast_2d(x)
    out = np.empty_like(x)
    kernel = np.full(window, 1.0 / window)
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(x.shape[0]):
            z = convolve_same(x[p] ** 4, kernel)
            phi4 = np.unwrap(np.angle(-z))
            out[p] = x[p] * np.exp(-0.25j * phi4)
    return out[0] if was_1d else out


def mmse_baseline(rx: np.ndarray, tx: np.ndarray, n_taps: int = 20,
                  sps: int = 1, ridge: float = 1e-12, max_delay: int = 4):
    """Genie-aided linear MMSE equalizer (symbol- or fractionally spaced).

    Least-squares over the tap vector with centered, symbol-strided windows
    and a small integer symbol-delay search; returns (taps, equalized output
    aligned to tx, delay).
    """
    rx = np.asarray(rx, dtype=np.complex128)
    tx = np.asarray(tx, dtype=np.complex128)
    n_sym = min(tx.shape[0], rx.shape[0] // sps)
    x = _windows(rx[None, :], n_taps, sps)[:n_sym, 0]
    gram = x.conj().T @ x + ridge * np.eye(n_taps)
    best = None
    for d in range(-max_delay, max_delay + 1):
        target = np.roll(tx[:n_sym], d)
        w = np.linalg.solve(gram, x.conj().T @ target)
        resid = float(np.linalg.norm(x @ w - target) ** 2)
        if best is None or resid < best[0]:
            best = (resid, w, d)
    _, w, d = best
    out = np.roll(x @ w, -d)
    return w, out, d


# ---------------------------------------------------------------------------
# Adam


class Adam:
    """Standard Adam with bias correction over a list of float arrays.

    The arrays are updated in place.  Complex taps enter as their
    ``.view(np.float64)``, so each real and imaginary part is a parameter of
    its own.
    """

    def __init__(self, params, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.params = list(params)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.t = 0

    def step(self, grads, lr: float) -> None:
        """One update from ``grads``, one array per parameter."""
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            p -= lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def _real_view(z: np.ndarray) -> np.ndarray:
    """A complex array as interleaved (re, im) floats, the layout Adam steps."""
    return np.ascontiguousarray(z).view(np.float64)


# ---------------------------------------------------------------------------
# variational loss


@dataclass
class LossBreakdown:
    """Scalar pieces of the reduced variational loss for one batch."""

    a_kl: float                      # prior-divergence term, summed over pols
    c_dist: tuple                    # distortion term per polarization
    sigma_sq: float                  # closed-form noise-variance estimate
    total: float                     # sum_p (A_p + N ln C_p)
    n_eff: int                       # samples per polarization entering C


def vae_loss(rx: np.ndarray, q: np.ndarray, h: np.ndarray, c: Constellation,
             n_os: int, edge_trim: int = 0):
    """Reduced negative ELBO for one batch, with its gradients in closed form.

    rx: (pol, N) complex samples, N = n_sym * n_os.
    q: (pol, 2, n_sym, sqrt(M)) per-component posteriors, axis 1 (I, Q),
        rows on the simplex.
    h: (pol, pol, F) complex channel-model taps, convolution-oriented.
    edge_trim: samples excluded at each end of the distortion/KL windows
        (the model cannot explain them without symbols outside the batch).

    The loss is sum_p (A_p + N ln C_p): A_p is the KL divergence of q_p from
    the prior, and C_p = sum_n |y_p - (h * E[x])_p|^2 + (|h|^2 * Var[x])_p
    over the kept samples n.  Returns (LossBreakdown, dL/dq, dL/dh); the
    complex gradient is dL/dRe h + j dL/dIm h.
    """
    pol, n = rx.shape
    f = h.shape[2]
    mask = np.ones(n)
    if edge_trim:
        mask[:edge_trim] = 0.0
        mask[n - edge_trim:] = 0.0
    n_eff = int(mask.sum())
    sym_mask = mask[::n_os, None]

    # KL of the factorized posterior against the Maxwell-Boltzmann prior
    log_ratio = np.log(q + 1e-30) - np.log(c.prior)
    a_kl = (q * log_ratio * sym_mask).sum(axis=(1, 2, 3))
    g_q = (log_ratio + q / (q + 1e-30)) * sym_mask

    # E[x] on the sample grid (zeros between symbols) and Var[x] per symbol
    ex = q @ c.levels                                     # (pol, 2, n_sym)
    var = (q @ c.levels ** 2 - ex ** 2).sum(axis=1)       # (pol, n_sym)
    mean = ex[:, 0] + 1j * ex[:, 1]
    up = np.zeros((pol, n), dtype=np.complex128)
    up[:, ::n_os] = mean
    resid = mask * (_filter_windows(h, _windows(up, f, 1)) - rx)
    # mwin[k, t] = mask[k n_os - F//2 + t]: the kept samples that symbol k's
    # variance reaches through tap F-1-t
    mwin = _windows(mask[None], f, n_os)[:, 0]            # (n_sym, F)
    spread = var @ mwin                                   # (pol, F)
    h_sq = np.abs(h) ** 2
    c_vals = (np.abs(resid) ** 2).sum(axis=1) + (h_sq * spread).sum(axis=(1, 2))
    # numerically impossible (sum of squares plus nonnegative variance), but
    # keep ln C finite with no gradient through it
    dead = c_vals <= 0.0
    c_vals[dead] = 1e-30
    w = np.where(dead, 0.0, n_eff / c_vals)               # dL/dC_p
    total = float((a_kl + n_eff * np.log(c_vals)).sum())

    # distortion: dL/d(h * E[x])_p = 2 w_p resid_p, correlated with the taps
    # for E[x] and with E[x] for the taps, on the symbol grid
    rwin = _windows(2.0 * w[:, None] * resid, f, n_os)    # (n_sym, pol, F)
    rflat = rwin.reshape(rwin.shape[0], -1)
    g_mean = _taps_dot(np.conj(h).transpose(1, 0, 2).reshape(pol, -1), rflat).T
    g_h = (np.conj(mean) @ rflat).reshape(pol, pol, f).transpose(1, 0, 2)
    # variance term
    g_h += 2.0 * w[:, None, None] * h * spread[None]
    g_var = _taps_dot((w @ h_sq.reshape(pol, -1)).reshape(pol, f), mwin).T
    # chain E[x] and Var[x] = E[x^2] - E[x]^2 per component back to q
    g_ex = np.stack([g_mean.real, g_mean.imag], axis=1) - 2.0 * ex * g_var[:, None]
    g_q += (g_ex[..., None] * c.levels
            + g_var[:, None, :, None] * c.levels ** 2)

    bd = LossBreakdown(a_kl=float(a_kl.sum()),
                       c_dist=tuple(float(v) for v in c_vals),
                       sigma_sq=float(c_vals.sum()) / (pol * n_eff),
                       total=total, n_eff=n_eff)
    return bd, g_q, g_h


# ---------------------------------------------------------------------------
# VAE-LE / VAE-NN states and update steps


@dataclass
class UpdateSchedule:
    n_b: int                 # batch length in symbols
    n_flex: int              # advance per update, 1..n_b
    lr: float                # initial learning rate
    scheduler: bool = False  # halve lr per 20 frame indices

    def __post_init__(self):
        if not 1 <= self.n_flex <= self.n_b:
            raise ConfigError(f"need 1 <= n_flex <= n_b, got {self.n_flex}, {self.n_b}")


class VaeLeState:
    """Butterfly equalizer and channel model trained by variational inference."""

    def __init__(self, n_pol: int, n_os: int, f_eq: int, f_ch: int | None = None,
                 matched_demapper: bool = True):
        if f_eq % 2 == 0:
            raise ConfigError(f"equalizer length must be odd, got {f_eq}")
        f_ch = f_eq if f_ch is None else f_ch
        if f_ch % 2 == 0:
            raise ConfigError(f"channel-model length must be odd, got {f_ch}")
        self.n_pol, self.n_os = n_pol, n_os
        self.f_eq, self.f_ch = f_eq, f_ch
        self.matched_demapper = matched_demapper
        self.eq = ButterflyFilter.dirac(n_pol, f_eq)
        self.ch = ButterflyFilter.dirac(n_pol, f_ch)
        self.adam = Adam([self.eq.taps.view(np.float64), self.ch.taps.view(np.float64)])
        self.sigma_sq = 1.0          # unit signal energy before the first batch
        self.batch_count = 0


def vae_le_grads(state: VaeLeState, win: np.ndarray, rx_batch: np.ndarray,
                 c: Constellation):
    """The batch loss of the linear decoder and its gradients.

    ``win`` holds the batch's equalizer windows, (n_b, pol, f_eq), and
    ``rx_batch`` its samples, (pol, n_b * n_os).  Returns (equalized symbols
    (pol, n_b), LossBreakdown, dL/d equalizer taps, dL/d channel taps).
    """
    x_hat = _filter_windows(state.eq.taps, win)
    pol, n_sym = x_hat.shape
    # the demapper sees per-component noise: half of the complex variance
    s2 = 0.5 * state.sigma_sq
    q = soft_demap(x_hat.ravel(), c, s2, state.matched_demapper)
    q = q.reshape(pol, n_sym, 2, -1).transpose(0, 2, 1, 3)
    bd, g_q, g_ch = vae_loss(rx_batch, q, state.ch.taps, c, state.n_os,
                             edge_trim=state.f_ch // 2)
    # back through the softmax and its logits -(x - a)^2 / (2 s2)
    g_logit = q * (g_q - (q * g_q).sum(axis=-1, keepdims=True))
    comps = np.stack([x_hat.real, x_hat.imag], axis=1)
    g_comp = (g_logit * (c.levels - comps[..., None])).sum(axis=-1) / s2
    gx = g_comp[:, 0] + 1j * g_comp[:, 1]
    # and through x_hat = flipped taps x windows
    g_eq = (gx @ np.conj(win.reshape(n_sym, -1))).reshape(state.eq.taps.shape)
    return x_hat, bd, g_eq[:, :, ::-1], g_ch


def vae_le_step(state: VaeLeState, win: np.ndarray, rx_batch: np.ndarray,
                c: Constellation, schedule: UpdateSchedule, lr: float | None = None):
    """One mini-batch update; returns (first n_flex symbols per pol, breakdown).

    ``win`` and ``rx_batch`` are as for ``vae_le_grads``.
    """
    x_hat, bd, g_eq, g_ch = vae_le_grads(state, win, rx_batch, c)
    if not np.isfinite(bd.total):
        raise DivergenceError(state.batch_count)
    state.adam.step([_real_view(g_eq), _real_view(g_ch)],
                    schedule.lr if lr is None else lr)
    state.sigma_sq = bd.sigma_sq
    state.batch_count += 1
    return x_hat[:, : schedule.n_flex], bd


# ---------------------------------------------------------------------------
# VAE-NN decoder


class VaeNnState:
    """Two-layer 1-D CNN decoder trained with the same variational loss.

    Layer 1: conv (kernel k1, same padding) + ELU over 2*pol real input
    channels (re, im per pol); layer 2: conv (kernel k2, stride n_os) to
    pol * 2 * sqrt(M) output channels, with a softmax over each sqrt(M)
    group.  Each layer is one weight array, (C_out, C_in, k), and one bias,
    (C_out, 1), which Adam steps in place.  The channel model is the same
    butterfly FIR bank as for the linear decoder.
    """

    def __init__(self, n_pol: int, n_os: int, m: int, k1: int, k2: int,
                 f_ch: int, rng: np.random.Generator, hidden: int | None = None):
        if k1 % 2 == 0 or k2 not in (3, 5):
            raise ConfigError(f"need odd k1 and k2 in {{3, 5}}, got {k1}, {k2}")
        self.n_pol, self.n_os, self.k1, self.k2 = n_pol, n_os, k1, k2
        self.n_levels = int(np.sqrt(m))
        self.hidden = hidden if hidden is not None else 2 * self.n_levels
        n_in = 2 * n_pol
        n_out = n_pol * 2 * self.n_levels
        s1 = 1.0 / np.sqrt(n_in * k1)
        s2 = 1.0 / np.sqrt(self.hidden * k2)
        self.w1 = s1 * rng.standard_normal((self.hidden, n_in, k1))
        self.b1 = np.zeros((self.hidden, 1))
        self.w2 = s2 * rng.standard_normal((n_out, self.hidden, k2))
        self.b2 = np.zeros((n_out, 1))
        self.ch = ButterflyFilter.dirac(n_pol, f_ch)
        self.adam = Adam([self.w1, self.b1, self.w2, self.b2,
                          self.ch.taps.view(np.float64)])
        self.sigma_sq = 1.0
        self.batch_count = 0
        self.f_ch = f_ch


def vae_nn_forward(rx: np.ndarray, state: VaeNnState):
    """The CNN decoder's posteriors for rx, (pol, n) complex.

    Returns q, (pol * 2, n_sym, sqrt(M)): the (I, Q) components of each
    pol, and the layer values (x, a1, h) that ``ad.backward`` reads.
    """
    x = np.stack([rx.real, rx.imag], axis=1).reshape(-1, rx.shape[1])
    a1 = ad.conv1d_full(x, state.w1, 1, state.k1 // 2) + state.b1
    h = ad.elu(a1)
    logits = ad.conv1d_full(h, state.w2, state.n_os, state.k2 // 2) + state.b2
    return ad.softmax_groups(logits, state.n_levels), (x, a1, h)


def vae_nn_grads(state: VaeNnState, rx_batch: np.ndarray, c: Constellation):
    """The batch loss of the CNN decoder and its gradients.

    The closed-form dL/dq goes back through the decoder in one
    ``ad.backward`` call.  Returns (q, LossBreakdown, dL/d (w1, b1, w2, b2),
    dL/d channel taps).
    """
    q_cnn, (x, a1, h) = vae_nn_forward(rx_batch, state)
    q = q_cnn.reshape(state.n_pol, 2, -1, state.n_levels)
    bd, g_q, g_ch = vae_loss(rx_batch, q, state.ch.taps, c, state.n_os,
                             edge_trim=state.f_ch // 2)
    g_net = ad.backward(x, state.w1, a1, h, state.w2, state.n_os, q_cnn,
                        g_q.reshape(q_cnn.shape))
    return q, bd, g_net, g_ch


def vae_nn_step(state: VaeNnState, rx_batch: np.ndarray, c: Constellation,
                schedule: UpdateSchedule, lr: float | None = None):
    """One CNN-decoder mini-batch; emits soft symbols E_Q[x] per pol."""
    q, bd, g_net, g_ch = vae_nn_grads(state, rx_batch, c)
    if not np.isfinite(bd.total):
        raise DivergenceError(state.batch_count)
    state.adam.step([*g_net, _real_view(g_ch)], schedule.lr if lr is None else lr)
    state.sigma_sq = bd.sigma_sq
    state.batch_count += 1
    return _soft_symbols(q, c)[:, : schedule.n_flex], bd


def _soft_symbols(q: np.ndarray, c: Constellation) -> np.ndarray:
    """E_Q[x] per pol from (pol, 2, n_sym, sqrt(M)) or (pol * 2, n_sym,
    sqrt(M)) posteriors."""
    ex = (q @ c.levels).reshape(-1, 2, q.shape[-2])
    return ex[:, 0] + 1j * ex[:, 1]


# ---------------------------------------------------------------------------
# stream drivers


@dataclass
class EqualizerResult:
    """One equalizer pass; a kind leaves the fields it does not produce at
    their defaults (MMSE-genie sets only ``out``, the CMA family also
    ``singularity_corr``)."""

    out: np.ndarray                       # (pol, n_sym) equalized symbols
    sigma_traj: np.ndarray = None         # (n_updates, 2): symbol pos, sigma^2
    ch_filter: ButterflyFilter = None     # channel-model estimate (VAE only)
    singularity_corr: float = 0.0


def run_vae(rx: np.ndarray, c: Constellation, state, schedule: UpdateSchedule,
            n_frame: int = 10_000) -> EqualizerResult:
    """Online training pass over the whole stream (VAE-LE or VAE-NN).

    The input is normalized to unit symbol energy (sample power 1 / n_os),
    so the closed-form noise-variance estimate lives on the same scale as
    the unit-energy constellation fed to the demapper.
    """
    n_os = state.n_os
    rx = _unit_power(np.atleast_2d(rx)) / np.sqrt(n_os)
    n_sym = rx.shape[1] // n_os
    out = np.zeros((state.n_pol, n_sym), dtype=np.complex128)
    is_le = isinstance(state, VaeLeState)
    if is_le:
        win = _windows(rx, state.f_eq, n_os)
    traj = []
    t = 0
    while t + schedule.n_b <= n_sym:
        batch = rx[:, t * n_os: (t + schedule.n_b) * n_os]
        lr = (lr_schedule(t // n_frame, schedule.lr) if schedule.scheduler
              else schedule.lr)
        if is_le:
            emitted, bd = vae_le_step(state, win[t: t + schedule.n_b], batch, c,
                                      schedule, lr=lr)
        else:
            emitted, bd = vae_nn_step(state, batch, c, schedule, lr=lr)
        out[:, t: t + schedule.n_flex] = emitted
        traj.append((t, bd.sigma_sq))
        t += schedule.n_flex
    # tail shorter than a batch: the final weights, no update, with left context
    if t < n_sym and is_le:
        out[:, t:] = _filter_windows(state.eq.taps, win[t:n_sym])
    elif t < n_sym:
        lo = max(n_sym - schedule.n_b, 0)
        q, _ = vae_nn_forward(rx[:, lo * n_os: n_sym * n_os], state)
        out[:, t:] = _soft_symbols(q, c)[:, t - lo:]
    corr = (_singularity_correlation(state.eq)
            if is_le and state.n_pol == 2 else 0.0)
    return EqualizerResult(out=out, sigma_traj=np.array(traj),
                           ch_filter=state.ch, singularity_corr=corr)
