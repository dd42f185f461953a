"""Adaptive receivers.

CMA family (symbol-wise, batch, flex) with Viterbi-Viterbi carrier phase
estimation, the genie-aided linear MMSE baseline, and the variational
equalizers: a butterfly FIR decoder (linear equalizer) or a two-layer CNN
decoder, both trained jointly with a butterfly FIR channel model by
minimizing the negative evidence lower bound.  The loss owns the posteriors'
softmax; the CNN's layer operations and reverse pass are in ``autodiff``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError
from .modem import Constellation
from .sigproc import padded, window_means, window_view, windows

# ---------------------------------------------------------------------------
# butterfly filters


def dirac_taps(n_pol: int, n_taps: int) -> np.ndarray:
    """The identity butterfly: (pol, pol, F) complex taps, F odd, with a unit
    center tap on the diagonal."""
    if n_taps < 1 or n_taps % 2 == 0:
        raise ConfigError(f"filter length must be odd and positive, got {n_taps}")
    taps = np.zeros((n_pol, n_pol, n_taps), dtype=np.complex128)
    taps[np.arange(n_pol), np.arange(n_pol), n_taps // 2] = 1.0
    return taps


def _filter_windows(taps: np.ndarray, win: np.ndarray) -> np.ndarray:
    """Filter a block of (n, pol, F) windows, or their (n, pol * F)
    flattening, with (pol, pol, F) correlation-oriented taps; returns
    (pol, n)."""
    return taps.reshape(taps.shape[0], -1) @ win.reshape(win.shape[0], -1).T


def godard_radius(c: Constellation) -> float:
    """R2 = E|a|^4 / E|a|^2 under the constellation prior."""
    pts = c.levels[:, None] + 1j * c.levels[None, :]
    w = c.prior[:, None] * c.prior[None, :]
    p2 = float((w * np.abs(pts) ** 2).sum())
    p4 = float((w * np.abs(pts) ** 4).sum())
    return p4 / p2


# ---------------------------------------------------------------------------
# CMA family


# symbol-wise CMA runs in blocks of _CMA_BLOCK symbols, and the recursion
# inside a block in sub-blocks of _CMA_SUB; both chosen by measurement
_CMA_BLOCK, _CMA_SUB = 32, 8


def _taps_dot(taps_mat: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The taps x windows product: (pol, K) taps times each row of an (n, K)
    block of flattened windows, giving (n, pol).  A stacked matmul, so each
    output is summed in the same order whatever the block length."""
    return np.matmul(taps_mat, w[..., None])[..., 0]


def cma_block(taps_mat: np.ndarray, w: np.ndarray, r2: float, mu: float = 0.0):
    """Godard's CMA over a block of symbols.

    ``taps_mat`` is (pol, pol * F), correlation-oriented; ``w`` holds the
    block's flattened windows, (n, pol * F).  Returns the outputs y, (n, pol),
    and the errors e = y (R2 - |y|^2), (n, pol); e conj(w) is a symbol's
    Godard ascent direction.

    With mu = 0 the taps are fixed over the block.  Otherwise each symbol is
    equalized at the taps left by its predecessor's update taps += mu e conj(w),
    and ``taps_mat`` is updated in place.  That recursion runs through the
    windows' Gram matrix (fast exact LMS): with Y = W T^T and G = mu W W^H,
    y_k = Y_k + sum_{j<k} G[k, j] e_j, and the taps end at T + mu E^T conj(W).
    It differs from symbol-by-symbol updates only in the order of summation.
    """
    out = _taps_dot(taps_mat, w)
    if not mu:
        return out, out * (r2 - np.abs(out) ** 2)
    wc = np.conj(w)
    gram = mu * (w @ wc.T)
    err = np.empty_like(out)
    for s in range(0, len(w), _CMA_SUB):
        # Python scalars within a sub-block, one product between sub-blocks
        t = s + _CMA_SUB
        g = gram[s:t, s:t].tolist()
        for p, y in enumerate(out[s:t].T.tolist()):
            e = []
            for k, row in enumerate(g):
                yk = y[k]
                for j in range(k):
                    yk += row[j] * e[j]
                # no abs() or **: they raise OverflowError once a run diverges
                e.append(yk * (r2 - (yk.real * yk.real + yk.imag * yk.imag)))
                y[k] = yk
            out[s:t, p] = y
            err[s:t, p] = e
        out[t:] += gram[t:, s:t] @ err[s:t]
    taps_mat += mu * (err.T @ wc)
    return out, err


def _unit_power(rx: np.ndarray, k: int, sps: int) -> tuple[np.ndarray, np.ndarray]:
    """rx / sqrt(power) in a new ``padded`` buffer: its interior and the
    (n_sym, pol, k) windows of the buffer on the sps grid, a view that
    follows later writes to the interior."""
    p = np.mean(np.abs(rx) ** 2)
    pad, inner = padded(rx.shape[0], rx.shape[1], k, np.complex128)
    np.divide(rx, np.sqrt(p) if p > 0 else 1.0, out=inner)
    return inner, window_view(pad, k, sps).transpose(1, 0, 2)


def lr_schedule(k: int, eps0: float) -> float:
    """Halve the learning rate after every 20th frame index."""
    return eps0 * 2.0 ** (-(k // 20))


def cma_run(rx: np.ndarray, c: Constellation, n_taps: int, lr0: float, sps: int,
            n_frame: int, scheduler: bool, n_batch: int, n_flex: int):
    """Run a CMA over a (pol, n) sample stream; returns (out, taps,
    singularity_corr).

    The taps, (pol, pol, F), are correlation-oriented: output p at symbol k
    is sum_q,t taps[p, q, t] rx[q, k sps - F // 2 + t].

    The taps are fixed for the first n_b = n_batch symbols.  After that they
    are updated every n_flex symbols by mu times the mean of the last n_b
    Godard directions, each computed at the taps in force when its symbol was
    equalized.  n_b = n_flex = 1 is the classical symbol-wise update, which
    ``cma_block`` runs up to _CMA_BLOCK symbols at a time.
    At every frame start the scheduler, when enabled, halves mu per 20 frame
    indices, and non-finite taps stop the run with the rest of the output NaN.
    ``ExperimentConfig`` checks n_batch and n_flex >= 1 at load; n_flex = 0
    is not an update period, and fails here with a raw ValueError.
    """
    _, win = _unit_power(rx, n_taps, sps)  # (n_sym, pol, F)
    pol = rx.shape[0]
    r2 = godard_radius(c)
    taps = dirac_taps(pol, n_taps)
    taps_mat = taps.reshape(pol, pol * n_taps)  # a view: its updates reach taps
    n_sym = win.shape[0]
    out = np.empty((pol, n_sym), dtype=np.complex128)
    symbolwise = n_batch == n_flex == 1  # cma_block then applies every update itself
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
            frame_end = (lo // n_frame + 1) * n_frame
            if symbolwise:
                hi = min(lo + _CMA_BLOCK, frame_end, n_sym)
                out[:, lo:hi] = cma_block(taps_mat, win[lo:hi].reshape(hi - lo, -1), r2, mu)[0].T
                lo = hi
                continue
            # a block of fixed taps ends at the next update, frame start or
            # wrap of the ring buffer
            slot = lo % n_batch
            hi = min(update, frame_end, lo - slot + n_batch, n_sym)
            w = win[lo:hi].reshape(hi - lo, -1)
            o, err = cma_block(taps_mat, w, r2)
            dirs[slot: slot + hi - lo] = err[:, :, None] * np.conj(w)[:, None, :]
            out[:, lo:hi] = o.T
            if hi == update:
                taps_mat += mu * (dirs.sum(axis=0) / n_batch)
                update += n_flex
            lo = hi
    return out, taps, _singularity_correlation(taps)


def _singularity_correlation(taps: np.ndarray) -> float:
    """Normalized correlation between the two output rows of (2, 2, F) taps;
    values near 1 indicate both outputs converged to the same polarization.
    One polarization has no second row and reads 0.0; non-finite taps read
    NaN, found before any arithmetic, which could warn on them."""
    if taps.shape[0] == 1:
        return 0.0
    if not np.all(np.isfinite(taps)):
        return float("nan")
    a = taps[0].ravel()
    b = taps[1].ravel()
    return float(np.abs(a @ np.conj(b)) / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-30))


def viterbi_viterbi_cpe(x: np.ndarray, window: int) -> np.ndarray:
    """Fourth-power carrier phase estimation with a sliding average.

    The estimate phi_i = arg(-sum x^4)/4 carries the conventional pi/4
    offset for square QAM; the sum runs over the ``window`` (odd) symbols
    centred on i, zero padded at the stream edges, and is taken as a running
    mean from one cumulative sum, so its cost does not grow with the window.
    The fourth-power phase is unwrapped across the sequence to avoid pi/2
    cycle slips.  A residual pi/2 (and pi/4 offset) ambiguity remains for
    downstream resolution.  x is (pol, n), each row estimated on its own.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        phi4 = np.unwrap(np.angle(-window_means(  # one expression: no temporary outlives its step
            np.pad(x ** 4, ((0, 0), (window // 2, window // 2))), window)), axis=-1)
        return x * np.exp(-0.25j * phi4)


# the MMSE genie's ridge on the Gram matrix, its symbol-delay search range,
# and the window rows it copies at a time (512-4,096 ran alike; 512 holds least)
_MMSE_RIDGE, _MMSE_MAX_DELAY, _MMSE_BLOCK = 1e-12, 4, 512


def mmse_baseline(rx: np.ndarray, tx: np.ndarray, n_taps: int, sps: int):
    """Genie-aided linear MMSE equalizer (symbol- or fractionally spaced).

    Least-squares over the tap vector with centered, symbol-strided windows
    and a small integer symbol-delay search: the target of delay d is
    np.roll(tx, d), and the first delay of least residual wins.  Returns
    (taps, equalized output aligned to tx, delay).

    The normal equations and the output are taken in passes over blocks of
    _MMSE_BLOCK window rows, so memory stays bounded by a block, not by the
    (n_sym, n_taps) window matrix.  Each delay's residual follows from its
    normal equations, with no pass of its own.
    """
    n_sym = min(tx.shape[0], rx.shape[0] // sps)
    # an even n_taps gives windows one window more than there are symbols
    x = windows(rx[None, :], n_taps, sps)[0, :n_sym]
    tx = tx[:n_sym]
    delays = np.arange(-_MMSE_MAX_DELAY, _MMSE_MAX_DELAY + 1)
    blocks = [slice(lo, min(lo + _MMSE_BLOCK, n_sym))
              for lo in range(0, n_sym, _MMSE_BLOCK)]

    gram = _MMSE_RIDGE * np.eye(n_taps, dtype=np.complex128)
    xh_t = np.zeros((n_taps, delays.size), dtype=np.complex128)
    for s in blocks:
        # the block's windows, copied, and its targets: column k of the
        # targets is np.roll(tx, delays[k])[s]
        xb = np.ascontiguousarray(x[s])
        xbh = xb.conj().T
        rows = np.arange(s.start, s.stop)
        gram += xbh @ xb
        xh_t += xbh @ tx[(rows[:, None] - delays) % n_sym]
    w_all = np.linalg.solve(gram, xh_t)
    # at the solution, delay d's residual is |tx|^2 - Re(w_d^H X^H t_d)
    # - ridge |w_d|^2, and |tx|^2 is the same for every delay
    fit = ((np.conj(xh_t) * w_all).real.sum(axis=0)
           + _MMSE_RIDGE * (np.abs(w_all) ** 2).sum(axis=0))
    k = int(np.argmax(fit))  # the first of equal residuals
    w, d = w_all[:, k], int(delays[k])
    out = np.empty(n_sym, dtype=np.complex128)
    for s in blocks:
        out[s] = np.ascontiguousarray(x[s]) @ w
    return w, np.roll(out, -d), d


# ---------------------------------------------------------------------------
# Adam


# the moment decay rates and the denominator's guard
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam with bias correction over one float array, updated in
    place.  A state's parameters are views of that array (``_buffers``), so
    each real and imaginary part of a complex tap is a parameter of its own.
    """

    def __init__(self, params: np.ndarray):
        self.params = params
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0

    def step(self, grads: np.ndarray, lr: float) -> None:
        """One update from ``grads``, shaped like the parameters."""
        self.t += 1
        b1c = 1.0 - _BETA1 ** self.t
        b2c = 1.0 - _BETA2 ** self.t
        self.m += (1.0 - _BETA1) * (grads - self.m)
        self.v += (1.0 - _BETA2) * (grads * grads - self.v)
        self.params -= lr * (self.m / b1c) / (np.sqrt(self.v / b2c) + _EPS)


def _buffers(shapes):
    """A state's parameter and gradient buffers: two flat float arrays, each
    carved end to end into one view per (shape, dtype) in ``shapes``, a
    complex element taking two floats, (re, im).  Returns (params, grad,
    parameter views, gradient views)."""
    sizes = [int(np.prod(shape)) * (2 if dtype is complex else 1) for shape, dtype in shapes]
    ends = np.cumsum(sizes)

    def carve(buf):
        return [buf[hi - n: hi].view(dtype).reshape(shape)
                for n, hi, (shape, dtype) in zip(sizes, ends, shapes)]

    params, grad = np.zeros(ends[-1]), np.zeros(ends[-1])
    return params, grad, carve(params), carve(grad)


# ---------------------------------------------------------------------------
# variational loss


@dataclass
class LossBreakdown:
    """Scalar pieces of the reduced variational loss for one batch."""

    a_kl: float                      # prior-divergence term, summed over pols
    c_dist: tuple                    # distortion term per polarization
    sigma_sq: float                  # closed-form noise-variance estimate
    total: float                     # sum_p (A_p + N ln C_p)


class LossContext:
    """What the loss needs of one batch shape and constellation, built once
    per run.

    Holds the run constants (the edge mask, ``n_eff``, the mask's
    symbol-grid windows, and the levels' table [1, log p] that the linear
    decoder's moments are summed against) and two zero-padded buffers, for
    the upsampled mean E[x] and the scaled residual, with window views made
    once.  Each loss call overwrites the buffers; nothing it returns aliases
    them.
    """

    def __init__(self, pol: int, n: int, f: int, n_os: int, edge_trim: int,
                 c: Constellation):
        self.table = np.stack([np.ones(c.n_levels), np.log(c.prior)])   # (2, sqrt(M))
        mask = np.ones(n)
        mask[:edge_trim] = 0.0
        mask[n - edge_trim:] = 0.0
        self.mask = mask
        self.n_eff = int(mask.sum())
        self.sym_mask = mask[::n_os, None]
        # mwin[k, t] = mask[k n_os - F//2 + t]: the kept samples that symbol
        # k's variance reaches through tap F-1-t
        self.mwin = windows(mask[None], f, n_os)[0]               # (n_sym, F)
        # E[x] on the sample grid: only the symbol positions are ever written,
        # so the samples between symbols stay zero
        up_pad, up = padded(pol, n, f, np.complex128)
        self.up_sym = up[:, ::n_os]
        self.up_win = window_view(up_pad, f, 1).transpose(1, 0, 2)     # (n, pol, F)
        # 2 w_p resid_p, read on the symbol grid
        r_pad, self.r = padded(pol, n, f, np.complex128)
        self.r_win = window_view(r_pad, f, n_os).transpose(1, 0, 2)  # (n_sym, pol, F)


def softmax_groups(z: np.ndarray):
    """Softmax over the level axis, -2, of the logits z, with
    max-subtraction for stability.  Returns (q, log q), log q the exact
    log-softmax z - max - ln sum exp, finite where q underflows to zero."""
    s = z - z.max(axis=-2, keepdims=True)
    e = np.exp(s)
    norm = e.sum(axis=-2, keepdims=True)
    return e / norm, s - np.log(norm)


def vae_loss(rx: np.ndarray, z: np.ndarray, h: np.ndarray, c: Constellation,
             ctx: LossContext):
    """Reduced negative ELBO for one batch, with its gradients in closed form.

    rx: (pol, N) complex samples, N = n_sym * n_os.
    z: (pol, 2, sqrt(M), n_sym) logits of the per-component posteriors
        q = softmax(z) over the levels, axis -2, in the CNN's layout.
    h: (pol, pol, F) complex channel-model taps, convolution-oriented.
    ctx: the run's ``LossContext``, built for this (pol, N, F), n_os and
        edge trim: the samples excluded at each end of the distortion/KL
        windows (the model cannot explain them without symbols outside the
        batch).

    The loss is sum_p (A_p + N ln C_p): A_p is the KL divergence of q_p from
    the prior, and C_p the distortion (``_distortion``).  Returns
    (LossBreakdown, E[x] as (pol, n_sym) complex, dL/dz, dL/dh); the complex
    gradient is dL/dRe h + j dL/dIm h.
    """
    pol = rx.shape[0]
    lev_sq = c.levels ** 2
    q, log_q = softmax_groups(z)

    # KL of the factorized posterior against the Maxwell-Boltzmann prior
    log_ratio = log_q - ctx.table[1][:, None]
    a_kl = (q * log_ratio * ctx.sym_mask.T).sum(axis=(1, 2, 3))

    # E[x] and Var[x] per symbol, and back from them to each level through
    # Var[x] = E[x^2] - E[x]^2 per component
    ex = c.levels @ q                                     # (pol, 2, n_sym)
    var = (lev_sq @ q - ex ** 2).sum(axis=1)              # (pol, n_sym)
    mean = ex[:, 0] + 1j * ex[:, 1]
    c_vals, g_mean, g_var, g_h = _distortion(rx, mean, var, h, ctx)
    g_comp = g_mean.view(np.float64).reshape(pol, -1, 2).transpose(0, 2, 1)
    g_ex = g_comp - 2.0 * ex * g_var[:, None]
    f = log_ratio * ctx.sym_mask.T                        # per level, less a constant per group
    f += g_ex[:, :, None] * c.levels[:, None]
    f += g_var[:, None, None] * lev_sq[:, None]

    # through the softmax: dL/dz = q (f - E_q[f]).  A group's entries sum to
    # zero, so the entry of a mode with q > 1/2 (one per group at most, so a
    # tie takes no correction), the small difference of two large numbers as
    # q nears one-hot, is set to minus the sum of the others
    g_z = q * (f - (q * f).sum(axis=-2, keepdims=True))
    np.subtract(g_z, g_z.sum(axis=-2, keepdims=True), out=g_z, where=q > 0.5)
    return _breakdown(a_kl, c_vals, ctx.n_eff), mean, g_z, g_h


def _distortion(rx: np.ndarray, mean: np.ndarray, var: np.ndarray, h: np.ndarray,
                ctx: LossContext):
    """The distortion C_p = sum_n |y_p - (h * E[x])_p|^2 + (|h|^2 * Var[x])_p
    over the kept samples n, and the gradients of its part of the loss,
    N ln C_p summed over pols.

    ``mean`` is E[x], (pol, n_sym) complex, and ``var`` Var[x] summed over
    (I, Q), (pol, n_sym).  Returns (C, dL/dE[x], dL/dVar[x], dL/dh), the
    complex gradients as dL/dRe + j dL/dIm.
    """
    pol, f = h.shape[0], h.shape[2]
    n_eff = ctx.n_eff
    ctx.up_sym[...] = mean
    resid = ctx.mask * (_filter_windows(h[:, :, ::-1], ctx.up_win) - rx)
    spread = var @ ctx.mwin                               # (pol, F)
    h_sq = np.abs(h) ** 2
    c_vals = (np.abs(resid) ** 2).sum(axis=1) + (h_sq * spread).sum(axis=(1, 2))
    # numerically impossible (sum of squares plus nonnegative variance), but
    # keep ln C finite with no gradient through it
    dead = c_vals <= 0.0
    c_vals[dead] = 1e-30
    w = np.where(dead, 0.0, n_eff / c_vals)               # dL/dC_p

    # dL/d(h * E[x])_p = 2 w_p resid_p, correlated with the taps for E[x]
    # and with E[x] for the taps, on the symbol grid
    np.multiply(2.0 * w[:, None], resid, out=ctx.r)
    rflat = ctx.r_win.reshape(ctx.r_win.shape[0], -1)     # (n_sym, pol F)
    g_mean = np.conj(h).transpose(1, 0, 2).reshape(pol, -1) @ rflat.T
    g_h = (np.conj(mean) @ rflat).reshape(pol, pol, f).transpose(1, 0, 2)
    # variance term
    g_h += 2.0 * w[:, None, None] * h * spread[None]
    g_var = (w @ h_sq.reshape(pol, -1)).reshape(pol, f) @ ctx.mwin.T
    return c_vals, g_mean, g_var, g_h


def _breakdown(a_kl: np.ndarray, c_vals: np.ndarray, n_eff: int) -> LossBreakdown:
    """The LossBreakdown of per-pol KL terms and distortions."""
    return LossBreakdown(a_kl=float(a_kl.sum()),
                         c_dist=tuple(c_vals.tolist()),
                         sigma_sq=float(c_vals.sum()) / (c_vals.shape[0] * n_eff),
                         total=float((a_kl + n_eff * np.log(c_vals)).sum()))


# ---------------------------------------------------------------------------
# VAE-LE / VAE-NN states and update steps


class VaeLeState:
    """Butterfly equalizer ``eq`` and channel model ``ch`` trained by
    variational inference, both (pol, pol, F) complex taps.  ``eq`` is
    correlation-oriented, like the CMA taps; ``ch`` models the channel and is
    convolution-oriented, (h * x)[p, n] = sum_q,t h[p, q, t] x[q, n + F // 2 - t].

    Both are views of the one float buffer ``params`` that Adam steps, and
    ``vae_le_grads`` writes their gradients into the matching views of
    ``grad``."""

    def __init__(self, n_pol: int, n_os: int, f_eq: int, f_ch: int, matched_demapper: bool):
        self.n_pol, self.n_os = n_pol, n_os
        self.f_eq, self.f_ch = f_eq, f_ch
        self.matched_demapper = matched_demapper
        shapes = [((n_pol, n_pol, f_eq), complex), ((n_pol, n_pol, f_ch), complex)]
        self.params, self.grad, (self.eq, self.ch), (self.g_eq, self.g_ch) = _buffers(shapes)
        self.eq[...] = dirac_taps(n_pol, f_eq)
        self.ch[...] = dirac_taps(n_pol, f_ch)
        self.adam = Adam(self.params)
        self.sigma_sq = 1.0          # unit signal energy before the first batch


def vae_le_grads(state: VaeLeState, win: np.ndarray, rx_batch: np.ndarray,
                 c: Constellation, ctx: LossContext):
    """The batch loss of the linear decoder; its gradients go to ``state.grad``.

    ``win`` holds the batch's equalizer windows, (n_b, pol, f_eq), and
    ``rx_batch`` its samples, (pol, n_b * n_os); ``ctx`` is the run's
    ``LossContext``.  Returns (equalized symbols (pol, n_b), LossBreakdown).

    The demapper's posterior q over the levels a of an equalized component u
    has the logits -t^2 / (2 s2) + log p(a), t = u - a (no prior term for a
    mismatched demapper), at the per-component noise variance s2.  They are
    quadratic in a, so the KL, E[x] = u - E[t], Var[x] = Var[t] and the
    loss's gradient w.r.t. u are closed forms in a few moments of t under q:
    its mean, variance and third central moment, its covariance with log p,
    and E[logits], all summed over the levels in one product with the
    table [1, log p].  The moments are taken of t less its mean, so none is
    the small difference of two large numbers where q is nearly one-hot, and
    they are exact zeros, as the softmax's gradient is, where q is one-hot.
    """
    pol = state.n_pol
    wflat = win.reshape(win.shape[0], -1)
    x_hat = _filter_windows(state.eq, wflat)                     # (pol, n_b)
    # the demapper sees per-component noise: half of the complex variance
    s2 = 0.5 * state.sigma_sq
    u = x_hat.view(np.float64).reshape(-1)                       # (re, im) per symbol
    t = u - c.levels[:, None]                                    # (sqrt(M), 2 pol n_b)
    logits = t * t
    logits *= -0.5 / s2
    if state.matched_demapper:
        logits += ctx.table[1, :, None]
    logits -= logits.max(axis=0)
    # e d^k (k = 0..3) and e logits, with e = exp(logits) and d the centred
    # t below, summed over the levels against [1, log p]
    et = np.empty((5,) + t.shape)
    e = np.exp(logits, out=et[0])
    np.multiply(e, logits, out=et[4])
    # the moments of d = t - E[t], E[t] from a first pass: d is nearly zero
    # at a nearly one-hot q's mode, and exactly zero at a one-hot q's
    np.multiply(e, t, out=et[1])
    norm, mean_t = ctx.table[0] @ et[:2]
    mean_t /= norm                                               # E[t]
    t -= mean_t
    for k in (1, 2, 3):
        np.multiply(et[k - 1], t, out=et[k])
    sums = ctx.table @ et / norm
    _, m1, m2, m3, e_logit = sums[:, 0]                          # E[d^k], E[logits]
    l0, l1 = sums[:2, 1]                                         # E[d^k log p]
    var = m2 - m1 * m1                                           # Var[t]
    cov_sq = m3 - m2 * m1                                        # Cov(d^2, d)
    mu3 = cov_sq - 2.0 * m1 * var                                # E[(t - E[t])^3]

    # the KL, E[log q - log p] with log q = logits - ln sum(e), and s2 times
    # its gradient w.r.t. u, the covariance of log q - log p with t:
    # Cov(t^2, t) / (2 s2) = (Cov(d^2, d) + 2 E[t] Var[t]) / (2 s2), and
    # Cov(log p, t) for a mismatched demapper
    kl = e_logit - np.log(norm) - l0
    g_kl = (0.5 / s2) * (cov_sq + 2.0 * mean_t * var)
    if not state.matched_demapper:
        g_kl += l1 - m1 * l0
    mean_t += m1                                                 # E[t] = first pass + E[d]
    shape = (pol, -1, 2)                                         # (pol, n_b, (re, im))
    a_kl = (kl.reshape(shape) * ctx.sym_mask).sum(axis=(1, 2))

    # the distortion, from E[x] = u - E[t] and Var[x] = Var[t] summed over
    # (re, im); dE[x]/du = Var[t] / s2 and dVar[x]/du = -E[(t - E[t])^3] / s2
    var = var.reshape(shape)
    mean = (u - mean_t).view(np.complex128).reshape(pol, -1)
    c_vals, g_mean, g_var, g_ch = _distortion(rx_batch, mean, var[..., 0] + var[..., 1],
                                              state.ch, ctx)
    state.g_ch[...] = g_ch
    gu = g_kl.reshape(shape) * ctx.sym_mask
    gu += g_mean.view(np.float64).reshape(shape) * var
    gu -= g_var[..., None] * mu3.reshape(shape)
    gu /= s2
    # and through x_hat = taps x windows
    gx = gu.view(np.complex128).reshape(pol, -1)
    np.matmul(gx, np.conj(wflat), out=state.g_eq.reshape(pol, -1))
    return x_hat, _breakdown(a_kl, c_vals, ctx.n_eff)


def vae_le_step(state: VaeLeState, win: np.ndarray, rx_batch: np.ndarray,
                c: Constellation, lr: float, ctx: LossContext):
    """One mini-batch update at learning rate ``lr``; returns (the batch's
    equalized symbols per pol, breakdown).

    ``win``, ``rx_batch`` and ``ctx`` are as for ``vae_le_grads``.
    """
    x_hat, bd = vae_le_grads(state, win, rx_batch, c, ctx)
    _update(state, bd, lr)
    return x_hat, bd


def _update(state, bd: LossBreakdown, lr: float) -> None:
    """The decoders' shared step: Adam on ``state.grad`` and the new sigma^2,
    skipped on a non-finite loss."""
    if np.isfinite(bd.total):
        state.adam.step(state.grad, lr)
        state.sigma_sq = bd.sigma_sq


# ---------------------------------------------------------------------------
# VAE-NN decoder


class VaeNnState:
    """Two-layer 1-D CNN decoder trained with the same variational loss.

    Layer 1: conv (kernel k1, same padding) + ELU over 2*pol real input
    channels (re, im per pol); layer 2: conv (kernel k2, stride n_os) to
    pol * 2 * sqrt(M) output channels, the logits of ``vae_loss``'s softmax
    over each sqrt(M) group.  Each layer is one weight array, (C_out, C_in,
    k), and one bias, (C_out, 1).  The channel model is the same butterfly
    FIR bank as for the linear decoder.  All five are views of the one float
    buffer ``params`` that Adam steps, and ``vae_nn_grads`` writes their
    gradients into the matching views of ``grad``.
    """

    def __init__(self, n_pol: int, n_os: int, m: int, k1: int, k2: int,
                 f_ch: int, rng: np.random.Generator, hidden: int | None = None):
        self.n_pol, self.n_os = n_pol, n_os
        self.n_levels = int(np.sqrt(m))
        hidden = hidden if hidden is not None else 2 * self.n_levels
        n_in = 2 * n_pol
        n_out = n_pol * 2 * self.n_levels
        s1 = 1.0 / np.sqrt(n_in * k1)
        s2 = 1.0 / np.sqrt(hidden * k2)
        shapes = [((hidden, n_in, k1), float), ((hidden, 1), float),
                  ((n_out, hidden, k2), float), ((n_out, 1), float),
                  ((n_pol, n_pol, f_ch), complex)]
        self.params, self.grad, views, grads = _buffers(shapes)
        self.w1, self.b1, self.w2, self.b2, self.ch = views
        *self.g_net, self.g_ch = grads
        self.w1[...] = s1 * rng.standard_normal(self.w1.shape)
        self.w2[...] = s2 * rng.standard_normal(self.w2.shape)
        self.ch[...] = dirac_taps(n_pol, f_ch)
        self.adam = Adam(self.params)
        self.sigma_sq = 1.0
        self.f_ch = f_ch


def vae_nn_forward(rx: np.ndarray, state: VaeNnState):
    """The CNN decoder's logits for rx, (pol, n) complex.

    Returns z, (pol, 2, sqrt(M), n_sym), the (I, Q) components' logits of
    each pol, and (wx, a1, wh) for ``ad.backward``: each layer's input
    windows, built once for its convolution and its weight gradient.
    """
    x = np.stack([rx.real, rx.imag], axis=1).reshape(-1, rx.shape[1])
    wx = windows(x, state.w1.shape[2], 1)
    a1 = ad.conv1d_full(wx, state.w1) + state.b1
    wh = windows(ad.elu(a1), state.w2.shape[2], state.n_os)
    logits = ad.conv1d_full(wh, state.w2) + state.b2
    return logits.reshape(state.n_pol, 2, state.n_levels, -1), (wx, a1, wh)


def vae_nn_grads(state: VaeNnState, rx_batch: np.ndarray, c: Constellation,
                 ctx: LossContext):
    """The batch loss of the CNN decoder and its gradients.

    ``vae_loss``'s dL/dz, in the CNN's layout, goes back through the decoder
    in one ``ad.backward`` call; ``ctx`` is passed on to ``vae_loss``.  The
    gradients go to ``state.grad``; returns (E_Q[x] per pol, LossBreakdown).
    """
    z, (wx, a1, wh) = vae_nn_forward(rx_batch, state)
    bd, mean, g_z, g_ch = vae_loss(rx_batch, z, state.ch, c, ctx)
    g_net = ad.backward(wx, state.w1, a1, wh, state.w2, state.n_os,
                        g_z.reshape(-1, z.shape[3]))
    for g, out in zip(g_net, state.g_net):
        out[...] = g
    state.g_ch[...] = g_ch
    return mean, bd


def vae_nn_step(state: VaeNnState, rx_batch: np.ndarray, c: Constellation,
                lr: float, ctx: LossContext):
    """One CNN-decoder mini-batch at learning rate ``lr``; emits the batch's
    soft symbols E_Q[x] per pol."""
    mean, bd = vae_nn_grads(state, rx_batch, c, ctx)
    _update(state, bd, lr)
    return mean, bd


# ---------------------------------------------------------------------------
# stream drivers


@dataclass
class EqualizerResult:
    """One equalizer pass; a kind leaves the fields it does not produce at
    their defaults (MMSE-genie sets only ``out``, the CMA family also
    ``singularity_corr``).  ``ch_taps`` is the VAE's (pol, pol, F) channel
    model, convolution-oriented like ``VaeLeState.ch``."""

    out: np.ndarray                       # (pol, n_sym) equalized symbols
    sigma_traj: np.ndarray = None         # (n_updates, 2): symbol pos, sigma^2
    ch_taps: np.ndarray = None            # channel-model estimate (VAE only)
    singularity_corr: float = 0.0


def run_vae(rx: np.ndarray, c: Constellation, state, n_b: int, n_flex: int,
            lr0: float, scheduler: bool, n_frame: int) -> EqualizerResult:
    """Online training pass over a (pol, n) sample stream (VAE-LE or VAE-NN).

    Each update trains on the next n_b symbols and emits the first n_flex
    of them; the scheduler, when enabled, halves lr0 per 20 frame indices.
    The input is normalized to unit symbol energy (sample power 1 / n_os),
    so the closed-form noise-variance estimate lives on the same scale as
    the unit-energy constellation fed to the demapper.
    """
    n_os = state.n_os
    is_le = isinstance(state, VaeLeState)
    rx, win = _unit_power(rx, state.f_eq if is_le else 1, n_os)  # win: (n_sym, pol, F)
    rx /= np.sqrt(n_os)  # after the power: the division order of rx / sqrt(p) / sqrt(n_os)
    n_sym = rx.shape[1] // n_os
    out = np.zeros((state.n_pol, n_sym), dtype=np.complex128)
    ctx = LossContext(state.n_pol, n_b * n_os, state.f_ch, n_os, state.f_ch // 2, c)
    traj = []
    t = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while t + n_b <= n_sym:
            batch = rx[:, t * n_os: (t + n_b) * n_os]
            lr = lr_schedule(t // n_frame, lr0) if scheduler else lr0
            if is_le:
                emitted, bd = vae_le_step(state, win[t: t + n_b], batch, c, lr, ctx)
            else:
                emitted, bd = vae_nn_step(state, batch, c, lr, ctx)
            if not np.isfinite(bd.total):  # diverged: flag the rest NaN, as cma_run does
                out[:, t:] = np.nan
                return EqualizerResult(out, np.array(traj), None, float("nan"))
            out[:, t: t + n_flex] = emitted[:, :n_flex]
            traj.append((t, bd.sigma_sq))
            t += n_flex
    # tail shorter than a batch: the final weights, no update, with left context
    if t < n_sym and is_le:
        out[:, t:] = _filter_windows(state.eq, win[t:n_sym])
    elif t < n_sym:
        lo = max(n_sym - n_b, 0)
        z, _ = vae_nn_forward(rx[:, lo * n_os: n_sym * n_os], state)
        ex = c.levels @ softmax_groups(z)[0]
        out[:, t:] = (ex[:, 0] + 1j * ex[:, 1])[:, t - lo:]
    corr = _singularity_correlation(state.eq) if is_le else 0.0
    return EqualizerResult(out=out, sigma_traj=np.array(traj),
                           ch_taps=state.ch, singularity_corr=corr)
