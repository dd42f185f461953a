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
from .modem import Constellation
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


def butterfly_apply(rx: np.ndarray, filt: ButterflyFilter, stride: int = 1) -> np.ndarray:
    """Centered 2x2 (or 1x1) MIMO convolution with strided downsampling.

    rx has shape (pol, n_samples); returns (pol, ceil(n_samples / stride)).
    """
    pol = rx.shape[0]
    if pol != filt.n_pol:
        raise ConfigError(f"input has {pol} polarizations, filter {filt.n_pol}")
    return _filter_windows(filt, _windows(rx, filt.n_taps, stride))


def _filter_windows(filt: ButterflyFilter, win: np.ndarray) -> np.ndarray:
    """Convolve a block of (n, pol, F) windows with the filter; (pol, n)."""
    # the windows, like the CMA taps, are correlation-oriented; the VAE
    # (ButterflyFilter) taps are convolution-oriented, hence the flip
    taps = filt.taps[:, :, ::-1].reshape(filt.n_pol, -1)
    return _taps_dot(taps, win.reshape(win.shape[0], -1)).T


def _windows(rx: np.ndarray, n_taps: int, stride: int) -> np.ndarray:
    """Sliding, symbol-strided windows (n_sym, pol, F), centered; a view."""
    mh = n_taps // 2
    pad = np.pad(rx, ((0, 0), (mh, mh)))
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
    """Standard Adam with bias correction over a list of leaf nodes."""

    def __init__(self, params, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.params = list(params)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]
        self.t = 0

    def step(self, lr: float) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            p.value -= lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


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


def _cconv(sig_re: ad.Node, sig_im: ad.Node, ker_re: ad.Node, ker_im: ad.Node,
           stride: int, padding: int):
    re = ad.subtract(ad.conv1d_full(sig_re, ker_re, stride, padding),
                     ad.conv1d_full(sig_im, ker_im, stride, padding))
    im = ad.add(ad.conv1d_full(sig_re, ker_im, stride, padding),
                ad.conv1d_full(sig_im, ker_re, stride, padding))
    return re, im


def vae_loss(rx: np.ndarray, q_nodes, ch_nodes, c: Constellation, n_os: int,
             edge_trim: int = 0):
    """Reduced negative-ELBO for one batch, differentiable.

    rx: (pol, N) complex samples (constants).
    q_nodes: [pol][component] nodes of shape (n_sym, sqrt(M)), rows on the
        simplex, where n_sym * n_os == N.
    ch_nodes: [p][q] -> (re, im) tap nodes of the channel-model bank.
    edge_trim: samples excluded at each end of the distortion/KL windows
        (the model cannot explain them without symbols outside the batch).

    Returns (total_node, LossBreakdown).
    """
    rx = np.atleast_2d(rx)
    pol, n = rx.shape
    f_ch = ch_nodes[0][0][0].value.shape[0]
    mh = f_ch // 2
    mask = np.ones(n)
    if edge_trim:
        mask[:edge_trim] = 0.0
        mask[n - edge_trim:] = 0.0
    sym_mask = mask[::n_os]
    n_eff = int(mask.sum())
    levels, levels_sq = c.levels, c.levels ** 2
    log_prior = np.log(c.prior)

    # per-source-pol expectation vectors on the sample grid
    ex, var_sum, a_terms = [], [], []
    for qp in q_nodes:
        comps, second = [], []
        for q_comp in qp:
            e = ad.zero_insert(ad.rows_dot(q_comp, levels), n_os)
            e2 = ad.zero_insert(ad.rows_dot(q_comp, levels_sq), n_os)
            comps.append(e)
            second.append(e2)
        ex.append(comps)
        var_sum.append(ad.subtract(ad.add(second[0], second[1]),
                                   ad.add(ad.square(comps[0]), ad.square(comps[1]))))
        # KL of the factorized posterior against the Maxwell-Boltzmann prior
        kl = None
        for q_comp in qp:
            lg = ad.shift(ad.natural_log(ad.shift(q_comp, 1e-30)), -log_prior)
            term = ad.ssum(ad.scale(ad.multiply(q_comp, lg), sym_mask[:, None]))
            kl = term if kl is None else ad.add(kl, term)
        a_terms.append(kl)

    total = None
    c_vals = []
    for p in range(pol):
        d_re = d_im = e_term = None
        for q in range(pol):
            hre, him = ch_nodes[p][q]
            dr, di = _cconv(ex[q][0], ex[q][1], hre, him, 1, mh)
            d_re = dr if d_re is None else ad.add(d_re, dr)
            d_im = di if d_im is None else ad.add(d_im, di)
            habs2 = ad.add(ad.square(hre), ad.square(him))
            ev = ad.ssum(ad.scale(ad.conv1d_full(var_sum[q], habs2, 1, mh), mask))
            e_term = ev if e_term is None else ad.add(e_term, ev)
        y_energy = float(((rx[p].real ** 2 + rx[p].imag ** 2) * mask).sum())
        cross = ad.add(ad.ssum(ad.scale(d_re, rx[p].real * mask)),
                       ad.ssum(ad.scale(d_im, rx[p].imag * mask)))
        d_energy = ad.ssum(ad.scale(ad.add(ad.square(d_re), ad.square(d_im)), mask))
        c_p = ad.shift(ad.add(ad.add(ad.scale(cross, -2.0), d_energy), e_term), y_energy)
        if c_p.value <= 0.0:
            # numerically impossible (sum of squares plus nonnegative variance)
            c_p = ad.shift(ad.scale(c_p, 0.0), 1e-30)
        c_vals.append(float(c_p.value))
        piece = ad.add(a_terms[p], ad.scale(ad.natural_log(c_p), float(n_eff)))
        total = piece if total is None else ad.add(total, piece)

    sigma_sq = sum(c_vals) / (pol * n_eff)
    bd = LossBreakdown(a_kl=float(sum(t.value for t in a_terms)),
                       c_dist=tuple(c_vals), sigma_sq=sigma_sq,
                       total=float(total.value), n_eff=n_eff)
    return total, bd


def soft_demap_node(x_re: ad.Node, x_im: ad.Node, c: Constellation,
                    sigma_sq: float, matched: bool = True):
    """Differentiable per-component soft demapper (sigma_sq held constant)."""
    out = []
    corr = c.nu_scaled * c.levels ** 2 if matched else np.zeros_like(c.levels)
    for comp in (x_re, x_im):
        diff = ad.outer_diff(comp, c.levels)
        logits = ad.shift(ad.scale(ad.square(diff), -1.0 / (2.0 * sigma_sq)), -corr)
        out.append(ad.softmax_rows(logits))
    return out


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


def _filter_leaves(n_pol: int, n_taps: int, dirac: bool = True):
    """[p][q] -> (re, im) leaf nodes, Dirac-initialized on the diagonal."""
    bank = []
    for p in range(n_pol):
        row = []
        for q in range(n_pol):
            re = np.zeros(n_taps)
            if dirac and p == q:
                re[n_taps // 2] = 1.0
            row.append((ad.leaf(re), ad.leaf(np.zeros(n_taps))))
        bank.append(row)
    return bank


def _bank_params(bank):
    return [node for row in bank for pair in row for node in pair]


def _bank_taps(bank) -> np.ndarray:
    pol = len(bank)
    f = bank[0][0][0].value.shape[0]
    taps = np.empty((pol, pol, f), dtype=np.complex128)
    for p in range(pol):
        for q in range(pol):
            taps[p, q] = bank[p][q][0].value + 1j * bank[p][q][1].value
    return taps


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
        self.eq = _filter_leaves(n_pol, f_eq)
        self.ch = _filter_leaves(n_pol, f_ch)
        self.params = _bank_params(self.eq) + _bank_params(self.ch)
        self.adam = Adam(self.params)
        self.sigma_sq = 1.0          # unit signal energy before the first batch
        self.batch_count = 0

    def eq_filter(self) -> ButterflyFilter:
        return ButterflyFilter(_bank_taps(self.eq))

    def ch_filter(self) -> ButterflyFilter:
        return ButterflyFilter(_bank_taps(self.ch))


def _butterfly_forward(state, rx_ctx: np.ndarray):
    """Strided equalizer convolution over a batch with mh context per side."""
    sig = [(ad.constant(rx_ctx[p].real), ad.constant(rx_ctx[p].imag))
           for p in range(state.n_pol)]
    outs = []
    for p in range(state.n_pol):
        re = im = None
        for q in range(state.n_pol):
            r, i = _cconv(sig[q][0], sig[q][1], state.eq[p][q][0], state.eq[p][q][1],
                          state.n_os, 0)
            re = r if re is None else ad.add(re, r)
            im = i if im is None else ad.add(im, i)
        outs.append((re, im))
    return outs


def vae_le_step(state: VaeLeState, rx_ctx: np.ndarray, c: Constellation,
                schedule: UpdateSchedule, lr: float | None = None):
    """One mini-batch update; returns (first n_flex symbols per pol, breakdown).

    ``rx_ctx`` is (pol, n_b * n_os + 2 * (f_eq // 2)): the batch samples plus
    equalizer context on both sides, so every emitted symbol sees its full
    window.
    """
    mh = state.f_eq // 2
    rx_batch = rx_ctx[:, mh: rx_ctx.shape[1] - mh]
    state.adam.zero_grad()
    x_hat = _butterfly_forward(state, rx_ctx)
    # the demapper sees per-component noise: half of the complex variance
    q_nodes = [soft_demap_node(xr, xi, c, 0.5 * state.sigma_sq, state.matched_demapper)
               for xr, xi in x_hat]
    total, bd = vae_loss(rx_batch, q_nodes, state.ch, c, state.n_os,
                         edge_trim=state.f_ch // 2)
    if not np.isfinite(bd.total):
        raise DivergenceError(state.batch_count)
    ad.backward(total)
    state.adam.step(schedule.lr if lr is None else lr)
    state.sigma_sq = bd.sigma_sq
    state.batch_count += 1
    out = np.stack([xr.value + 1j * xi.value for xr, xi in x_hat])
    return out[:, : schedule.n_flex], bd


# ---------------------------------------------------------------------------
# VAE-NN decoder


class VaeNnState:
    """Two-layer 1-D CNN decoder trained with the same variational loss.

    Layer 1: conv (kernel k1, same padding) + ELU over 2*pol real input
    channels; layer 2: conv (kernel k2, stride n_os) to pol * 2 * sqrt(M)
    output channels, with a softmax over each sqrt(M) group.  The channel
    model is the same butterfly FIR bank as for the linear decoder.
    """

    def __init__(self, n_pol: int, n_os: int, m: int, k1: int, k2: int,
                 f_ch: int, rng: np.random.Generator, hidden: int | None = None,
                 matched_demapper: bool = True):
        if k1 % 2 == 0 or not 3 <= k2 <= 5:
            raise ConfigError(f"need odd k1 and k2 in [3, 5], got {k1}, {k2}")
        self.n_pol, self.n_os, self.k1, self.k2 = n_pol, n_os, k1, k2
        self.n_levels = int(np.sqrt(m))
        self.hidden = hidden if hidden is not None else 2 * self.n_levels
        self.matched_demapper = matched_demapper
        n_in = 2 * n_pol
        n_out = n_pol * 2 * self.n_levels
        s1 = 1.0 / np.sqrt(n_in * k1)
        s2 = 1.0 / np.sqrt(self.hidden * k2)
        self.w1 = [[ad.leaf(s1 * rng.standard_normal(k1)) for _ in range(n_in)]
                   for _ in range(self.hidden)]
        self.b1 = [ad.leaf(np.zeros(1)) for _ in range(self.hidden)]
        self.w2 = [[ad.leaf(s2 * rng.standard_normal(k2)) for _ in range(self.hidden)]
                   for _ in range(n_out)]
        self.b2 = [ad.leaf(np.zeros(1)) for _ in range(n_out)]
        self.ch = _filter_leaves(n_pol, f_ch)
        self.params = ([w for row in self.w1 for w in row] + self.b1
                       + [w for row in self.w2 for w in row] + self.b2
                       + _bank_params(self.ch))
        self.adam = Adam(self.params)
        self.sigma_sq = 1.0
        self.batch_count = 0
        self.f_ch = f_ch

    def ch_filter(self) -> ButterflyFilter:
        return ButterflyFilter(_bank_taps(self.ch))


def vae_nn_forward(rx: np.ndarray, state: VaeNnState):
    """q-tensors from the CNN decoder; rx is (pol, n) complex."""
    chans = []
    for p in range(rx.shape[0]):
        chans.append(ad.constant(rx[p].real))
        chans.append(ad.constant(rx[p].imag))
    p1 = state.k1 // 2
    hidden = []
    for o in range(state.hidden):
        acc = None
        for i, x in enumerate(chans):
            t = ad.conv1d_full(x, state.w1[o][i], 1, p1)
            acc = t if acc is None else ad.add(acc, t)
        hidden.append(ad.elu(ad.add(acc, state.b1[o])))
    p2 = state.k2 // 2
    logits = []
    for o in range(len(state.w2)):
        acc = None
        for i, hch in enumerate(hidden):
            t = ad.conv1d_full(hch, state.w2[o][i], state.n_os, p2)
            acc = t if acc is None else ad.add(acc, t)
        logits.append(ad.add(acc, state.b2[o]))
    k = state.n_levels
    q_nodes = []
    for p in range(state.n_pol):
        comps = []
        for comp in range(2):
            base = (p * 2 + comp) * k
            comps.append(ad.softmax_rows(ad.stack_cols(logits[base: base + k])))
        q_nodes.append(comps)
    return q_nodes


def vae_nn_step(state: VaeNnState, rx_batch: np.ndarray, c: Constellation,
                schedule: UpdateSchedule, lr: float | None = None):
    """One CNN-decoder mini-batch; emits soft symbols E_Q[x] per pol."""
    state.adam.zero_grad()
    q_nodes = vae_nn_forward(rx_batch, state)
    total, bd = vae_loss(rx_batch, q_nodes, state.ch, c, state.n_os,
                         edge_trim=state.f_ch // 2)
    if not np.isfinite(bd.total):
        raise DivergenceError(state.batch_count)
    ad.backward(total)
    state.adam.step(schedule.lr if lr is None else lr)
    state.sigma_sq = bd.sigma_sq
    state.batch_count += 1
    return _soft_symbols(q_nodes, c)[:, : schedule.n_flex], bd


def _soft_symbols(q_nodes, c: Constellation) -> np.ndarray:
    """E_Q[x] per pol from the decoder's per-component posteriors."""
    return np.stack([(qp[0].value @ c.levels) + 1j * (qp[1].value @ c.levels)
                     for qp in q_nodes])


# ---------------------------------------------------------------------------
# stream drivers


@dataclass
class EqualizerResult:
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
    mh = state.f_eq // 2 if is_le else 0
    pad = np.pad(rx, ((0, 0), (mh, mh)))
    traj = []
    t = 0
    while t + schedule.n_b <= n_sym:
        lo = t * n_os
        seg = pad[:, lo: lo + schedule.n_b * n_os + 2 * mh]
        lr = (lr_schedule(t // n_frame, schedule.lr) if schedule.scheduler
              else schedule.lr)
        if is_le:
            emitted, bd = vae_le_step(state, seg, c, schedule, lr=lr)
        else:
            emitted, bd = vae_nn_step(state, seg, c, schedule, lr=lr)
        out[:, t: t + schedule.n_flex] = emitted
        traj.append((t, bd.sigma_sq))
        t += schedule.n_flex
    # tail shorter than a batch: the final weights, no update, with left context
    if t < n_sym and is_le:
        win = _windows(rx, state.f_eq, n_os)[t:n_sym]
        out[:, t:] = _filter_windows(state.eq_filter(), win)
    elif t < n_sym:
        lo = max(n_sym - schedule.n_b, 0)
        q_nodes = vae_nn_forward(rx[:, lo * n_os: n_sym * n_os], state)
        out[:, t:] = _soft_symbols(q_nodes, c)[:, t - lo:]
    corr = (_singularity_correlation(state.eq_filter())
            if is_le and state.n_pol == 2 else 0.0)
    return EqualizerResult(out=out, sigma_traj=np.array(traj),
                           ch_filter=state.ch_filter(),
                           singularity_corr=corr)
