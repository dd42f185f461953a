"""Equalizers: CMA family, carrier phase estimation, the genie MMSE
baseline, Adam, and the variational loss."""

import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest

from blindeq import channel as ch
from blindeq import equalize as eq
from blindeq import evaluate as ev
from blindeq import modem, sigproc
from blindeq.errors import ConfigError
from helpers import (AdamPerArray, add_awgn_expression, butterfly_apply, dp_le_instance,
                     max_gradient_error, mmse_baseline_direct, rel_err, vae_le_grads_softmax,
                     vae_nn_forward_loop, symbol_indices, viterbi_viterbi_cpe_convolution)


def test_godard_radius():
    qpsk = modem.build_constellation(4, 0.0)
    assert abs(eq.godard_radius(qpsk) - 1.0) < 1e-12
    c16 = modem.build_constellation(16, 0.0)
    # independent oracle over the 16 unit-energy points
    pts = (c16.levels[:, None] + 1j * c16.levels[None, :]).ravel()
    r2 = np.mean(np.abs(pts) ** 4) / np.mean(np.abs(pts) ** 2)
    assert abs(eq.godard_radius(c16) - r2) < 1e-12
    assert abs(r2 - 1.32) < 1e-12


def test_butterfly_dirac_is_identity():
    rng = np.random.default_rng(0)
    rx = rng.standard_normal((2, 40)) + 1j * rng.standard_normal((2, 40))
    taps = eq.dirac_taps(2, 7)
    out = butterfly_apply(rx, taps, stride=2)
    assert np.allclose(out, rx[:, ::2])
    with pytest.raises(ConfigError):
        eq.dirac_taps(2, 6)  # even length
    with pytest.raises(ConfigError):
        butterfly_apply(rx[:1], taps)


@pytest.mark.parametrize("pol", [1, 2])
@pytest.mark.parametrize("stride", [1, 2])
def test_butterfly_apply_random_taps(pol, stride):
    # a Dirac filter cannot tell convolution from correlation; random taps can
    rng = np.random.default_rng(12)
    rx = rng.standard_normal((pol, 41)) + 1j * rng.standard_normal((pol, 41))
    taps = rng.standard_normal((pol, pol, 5)) + 1j * rng.standard_normal((pol, pol, 5))
    out = butterfly_apply(rx, taps, stride=stride)
    ref = np.stack([sum(sigproc.convolve_same(rx[q], taps[p, q]) for q in range(pol))
                    for p in range(pol)])[:, ::stride]
    assert out.shape == ref.shape
    assert np.allclose(out, ref, rtol=0, atol=1e-12)


def test_cma_step_hand_oracle():
    # single pol, single tap: out = t w, e = out (r2 - |out|^2), and the
    # Godard direction e conj(w) is what cma_run adds, times mu, to the taps
    t0 = 0.7 - 0.2j
    w = np.array([[1.1 + 0.4j], [-0.3 + 0.9j]])
    r2 = 1.32
    out, err = eq.cma_block(np.array([[t0]]), w, r2)
    assert out.shape == (2, 1) and err.shape == (2, 1)
    for k in range(2):
        o = t0 * w[k, 0]
        e = o * (r2 - abs(o) ** 2)
        assert abs(out[k, 0] - o) < 1e-15
        assert abs(err[k, 0] - e) < 1e-15


def test_cma_block_updates_after_each_symbol():
    # with mu, the second symbol sees the taps left by the first one's update
    t0, mu, r2 = 0.7 - 0.2j, 0.3, 1.32
    w = np.array([[1.1 + 0.4j], [-0.3 + 0.9j]])
    taps = np.array([[t0]])
    out, err = eq.cma_block(taps, w, r2, mu)
    y0 = t0 * w[0, 0]
    e0 = y0 * (r2 - abs(y0) ** 2)
    t1 = t0 + mu * e0 * np.conj(w[0, 0])
    y1 = t1 * w[1, 0]
    e1 = y1 * (r2 - abs(y1) ** 2)
    assert abs(out[0, 0] - y0) < 1e-15 and abs(err[0, 0] - e0) < 1e-15
    assert abs(out[1, 0] - y1) < 1e-15 and abs(err[1, 0] - e1) < 1e-15
    assert abs(taps[0, 0] - (t1 + mu * e1 * np.conj(w[1, 0]))) < 1e-15


def test_cma_step_stationary_on_radius():
    taps = eq.dirac_taps(2, 1).reshape(2, 2)
    w = np.exp(1j * np.array([[0.3, -1.2], [2.0, 0.7]]))  # |out| = 1 = sqrt(R2)
    out, dirs = eq.cma_block(taps, w, 1.0)
    assert np.allclose(out, w)
    assert np.allclose(dirs, 0.0)


def _naive_cma(rx, r2, n_taps, lr0, sps, n_frame, scheduler, n_b, n_flex):
    """Per-symbol reference: outputs at the current taps, directions in a
    ring buffer, taps += mu * mean once n_b, then every n_flex, symbols in."""
    pol = rx.shape[0]
    mh = n_taps // 2
    pad = np.pad(rx, ((0, 0), (mh, mh)))
    taps = np.zeros((pol, pol * n_taps), dtype=complex)
    for p in range(pol):
        taps[p, p * n_taps + mh] = 1.0
    n_sym = -(-rx.shape[1] // sps)
    out = np.empty((pol, n_sym), dtype=complex)
    buf = np.zeros((n_b, pol, pol * n_taps), dtype=complex)
    mu = lr0
    for k in range(n_sym):
        if scheduler and k % n_frame == 0:
            mu = lr0 * 2.0 ** (-(k // n_frame // 20))
        w = pad[:, k * sps: k * sps + n_taps].ravel()
        out[:, k] = taps @ w
        buf[k % n_b] = (out[:, k] * (r2 - np.abs(out[:, k]) ** 2))[:, None] * np.conj(w)
        if k + 1 >= n_b and (k + 1 - n_b) % n_flex == 0:
            taps = taps + mu * buf.mean(axis=0)
    return out, taps.reshape(pol, pol, n_taps)


@pytest.mark.parametrize("n_b, n_flex", [(1, 1), (7, 7), (7, 3), (7, 10)])
def test_cma_run_schedule_oracle(n_b, n_flex):
    # 70 symbols in frames of 3: frame index 20 (the first halving of mu)
    # starts at symbol 60, inside the n_flex block [58, 61); n_b = 7 is not a
    # multiple of n_flex = 3; with n_flex = 10 > n_b, updates skip symbols and
    # each batch crosses the ring buffer's wrap
    rng = np.random.default_rng(13)
    c = modem.build_constellation(16, 0.0)
    rx = rng.standard_normal((2, 140)) + 1j * rng.standard_normal((2, 140))
    out, taps, corr = eq.cma_run(rx, c, 5, 0.05, 2, n_frame=3, scheduler=True,
                                 n_batch=n_b, n_flex=n_flex)
    rx = rx / np.sqrt(np.mean(np.abs(rx) ** 2))
    ref_out, ref_taps = _naive_cma(rx, eq.godard_radius(c), 5, 0.05, 2, 3, True,
                                   n_b, n_flex)
    if n_b == 1:
        # symbol-wise CMA runs its recursion in blocks: the same arithmetic
        # summed in another order
        np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(taps, ref_taps, rtol=0, atol=1e-12)
    else:
        # the same arithmetic in the same order, so the same bits
        assert np.array_equal(out, ref_out)
        assert np.array_equal(taps, ref_taps)
    assert not np.allclose(taps, eq.dirac_taps(2, 5))
    assert np.isfinite(corr)


@pytest.mark.parametrize("pol", [1, 2])
def test_cma_run_symbolwise_matches_per_symbol_loop(pol):
    # 3,100 symbols in frames of 1,001: blocks of eq._CMA_BLOCK symbols end at
    # every frame start, and the last block is partial
    rng = np.random.default_rng(15)
    c = modem.build_constellation(16, 0.0)
    n_sym, n_frame = 3_100, 1_001
    assert n_frame % eq._CMA_BLOCK and n_frame % eq._CMA_SUB
    assert n_sym % n_frame % eq._CMA_BLOCK
    rx = rng.standard_normal((pol, 2 * n_sym)) + 1j * rng.standard_normal((pol, 2 * n_sym))
    out, taps, _ = eq.cma_run(rx, c, 7, 2e-3, 2, n_frame=n_frame, scheduler=True,
                              n_batch=1, n_flex=1)
    rx = rx / np.sqrt(np.mean(np.abs(rx) ** 2))
    ref_out, ref_taps = _naive_cma(rx, eq.godard_radius(c), 7, 2e-3, 2, n_frame, True, 1, 1)
    np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
    np.testing.assert_allclose(taps, ref_taps, rtol=0, atol=1e-12)
    assert not np.allclose(taps, eq.dirac_taps(pol, 7), atol=1e-3)


def test_cma_run_divergence_flags_rest_of_stream():
    rng = np.random.default_rng(14)
    c = modem.build_constellation(4, 0.0)
    rx = rng.standard_normal((2, 400)) + 1j * rng.standard_normal((2, 400))
    for n_b in (1, 10):
        out, taps, corr = eq.cma_run(rx, c, 5, 1e6, 2, n_frame=50, scheduler=False,
                                     n_batch=n_b, n_flex=n_b)
        assert not np.all(np.isfinite(taps))
        assert np.all(np.isnan(out[:, 50:]))  # every symbol after frame 0
        assert np.isnan(corr)


def test_singularity_correlation():
    # a Dirac butterfly's rows are orthogonal and two identical rows coincide;
    # one pol has no second row, and non-finite taps read NaN with no warning
    assert eq._singularity_correlation(eq.dirac_taps(2, 5)) == 0.0
    rng = np.random.default_rng(23)
    row = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    assert abs(eq._singularity_correlation(np.stack([row, row])) - 1.0) < 1e-12
    assert eq._singularity_correlation(eq.dirac_taps(1, 5)) == 0.0
    for bad in (np.nan, np.inf):
        taps = np.stack([row, row])
        taps[1, 0, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(eq._singularity_correlation(taps))


def test_lr_schedule():
    assert eq.lr_schedule(0, 1e-3) == 1e-3
    assert eq.lr_schedule(19, 1e-3) == 1e-3
    assert eq.lr_schedule(20, 1e-3) == 0.5e-3
    assert eq.lr_schedule(45, 1e-3) == 0.25e-3


def test_cma_run_recovers_qpsk():
    rng = np.random.default_rng(2)
    c = modem.build_constellation(4, 0.0)
    s = modem.sample_symbols(c, 30_000, rng)
    tx = sigproc.upsample_zero_insert(s, 2)
    rx = ch.awgn_isi_apply(tx, 2, ch.H_SIM, 25.0, rng)
    out, taps, corr = eq.cma_run(rx[None], c, 15, 2e-3, 2, n_frame=5_000, scheduler=False,
                                 n_batch=1, n_flex=1)
    out = eq.viterbi_viterbi_cpe(out, window=501)
    assert out.shape == (1, 30_000)
    assert corr == 0.0  # single polarization
    align = ev.resolve_ambiguity(out[0, -5_000:], s[-5_000:], c, 0.005)
    assert align.ser < 0.01


def test_viterbi_viterbi_constant_phase():
    rng = np.random.default_rng(3)
    c = modem.build_constellation(4, 0.0)
    s = modem.sample_symbols(c, 4_000, rng)
    rotated = s[None] * np.exp(0.35j)
    out = eq.viterbi_viterbi_cpe(rotated, window=501)
    assert out.shape == rotated.shape
    align = ev.resolve_ambiguity(out[0, 600:-600], s[600:-600], c, 0.01)
    assert align.ser == 0.0


def test_viterbi_viterbi_matches_convolution_mean():
    # one 60-frame DP run's stream, 2 pols of 600k symbols, under a slow
    # phase walk: the running mean moves the phase by rounding only
    rng = np.random.default_rng(8)
    c = modem.build_constellation(64, 0.0)
    n = 600_000
    walk = np.cumsum(1e-3 * rng.standard_normal((2, n)), axis=1)
    x = np.stack([modem.sample_symbols(c, n, rng) for _ in range(2)]) * np.exp(1j * walk)
    x += 0.03 * (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n)))
    out = eq.viterbi_viterbi_cpe(x, window=501)
    assert np.max(np.abs(np.angle(out / viterbi_viterbi_cpe_convolution(x, 501)))) <= 1e-9
    # a diverged receiver's NaN tail: NaN exactly where the convolution has it
    tail = x[:1].copy()
    tail[0, 450_000:] = np.nan
    out, ref = eq.viterbi_viterbi_cpe(tail, 501), viterbi_viterbi_cpe_convolution(tail, 501)
    nan = np.isnan(ref)
    assert nan.sum() > n - 450_000 and np.array_equal(np.isnan(out), nan)
    assert np.max(np.abs(np.angle(out[~nan] / ref[~nan]))) <= 1e-9


def test_mmse_baseline_known_channel():
    rng = np.random.default_rng(4)
    c = modem.build_constellation(16, 0.0)
    s = modem.sample_symbols(c, 20_000, rng)
    h = np.array([0.4 - 0.1j, 1.0, -0.3 + 0.2j])
    rx = sigproc.convolve_same(s, h)
    w, out, d = eq.mmse_baseline(rx, s, n_taps=21, sps=1)
    assert w.shape == (21,)
    mse = np.mean(np.abs(out[50:-50] - s[50:-50]) ** 2)
    assert mse < 1e-3


def test_mmse_baseline_fractionally_spaced():
    rng = np.random.default_rng(5)
    c = modem.build_constellation(16, 0.0)
    s = modem.sample_symbols(c, 20_000, rng)
    tx = sigproc.upsample_zero_insert(s, 2)
    rx = ch.awgn_isi_apply(tx, 2, ch.H_SIM, np.inf, rng)
    _, out, _ = eq.mmse_baseline(rx, s, n_taps=40, sps=2)
    mse = np.mean(np.abs(out[100:-100] - s[100:-100]) ** 2)
    assert mse < 1e-2


def _mmse_link(n_sym: int, sps: int, snr_db: float, seed: int):
    """16-QAM symbols through the H_SIM ISI channel at sps: (rx, symbols)."""
    rng = np.random.default_rng(seed)
    s = modem.sample_symbols(modem.build_constellation(16, 0.0), n_sym, rng)
    tx = sigproc.upsample_zero_insert(s, sps)
    return ch.awgn_isi_apply(tx, sps, ch.H_SIM, snr_db, rng), s


# at 512-row blocks: below one block, one block and a partial second, exactly
# eight blocks, and ten blocks and a partial eleventh
@pytest.mark.parametrize("n_sym", [300, 1000, 4096, 5330])
@pytest.mark.parametrize("sps", [1, 2])
@pytest.mark.parametrize("n_taps", [21, 40])
@pytest.mark.parametrize("snr_db", [np.inf, 20.0])
def test_mmse_baseline_blocked_matches_direct_solve(n_sym, sps, n_taps, snr_db):
    rx, s = _mmse_link(n_sym, sps, snr_db, seed=n_sym + 10 * sps + n_taps)
    w, out, d = eq.mmse_baseline(rx, s, n_taps, sps)
    w_ref, out_ref, d_ref = mmse_baseline_direct(rx, s, n_taps, sps)
    assert d == d_ref
    assert w.shape == w_ref.shape and out.shape == out_ref.shape == s.shape
    # a blocked sum is summed in another order, so equal only to rounding
    assert rel_err(w, w_ref) <= 1e-12
    assert rel_err(out, out_ref) <= 1e-12


def test_mmse_baseline_memory_bounded_by_block():
    # 100k symbols at 2 sps and 40 taps: the window matrix alone is 64 MB
    n_sym, n_taps = 100_000, 40
    rx, s = _mmse_link(n_sym, 2, 20.0, seed=7)
    tracemalloc.start()
    try:
        eq.mmse_baseline(rx, s, n_taps, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n_sym * n_taps * 16 / 4


def test_adam_first_step_oracle():
    rng = np.random.default_rng(6)
    g = rng.standard_normal(5)
    p = np.zeros(5)
    opt = eq.Adam(p)
    opt.step(g, 1e-2)
    # bias-corrected first step reduces to a signed step of size ~lr
    assert np.allclose(p, -1e-2 * g / (np.abs(g) + 1e-8), atol=1e-12)


def test_adam_two_step_oracle():
    rng = np.random.default_rng(7)
    g1, g2 = rng.standard_normal(3), rng.standard_normal(3)
    p = np.zeros(3)
    opt = eq.Adam(p)
    for g in (g1, g2):
        opt.step(g, 1e-2)
    # independent re-derivation of two textbook Adam steps
    b1, b2, e = 0.9, 0.999, 1e-8
    m = (1 - b1) * g1
    v = (1 - b2) * g1 ** 2
    x = -1e-2 * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + e)
    m = b1 * m + (1 - b1) * g2
    v = b2 * v + (1 - b2) * g2 ** 2
    x = x - 1e-2 * (m / (1 - b1 ** 2)) / (np.sqrt(v / (1 - b2 ** 2)) + e)
    assert np.allclose(p, x, atol=1e-12)


def test_adam_complex_view_is_real_and_imaginary_parts():
    # stepping a complex array through its float view is Adam on its real
    # and imaginary parts as separate parameters, bit for bit
    rng = np.random.default_rng(15)
    z = rng.standard_normal((2, 2, 5)) + 1j * rng.standard_normal((2, 2, 5))
    parts = np.stack([z.real, z.imag])
    opt_z = eq.Adam(z.view(np.float64))
    opt_parts = eq.Adam(parts)
    for _ in range(3):
        g = rng.standard_normal(z.shape) + 1j * rng.standard_normal(z.shape)
        opt_z.step(g.view(np.float64), 1e-2)
        opt_parts.step(np.stack([g.real, g.imag]), 1e-2)
    assert np.array_equal(z.real, parts[0]) and np.array_equal(z.imag, parts[1])


def test_vae_loss_one_hot_oracle():
    # with a Dirac channel model and one-hot q at the true symbols the
    # distortion must be exactly ||y - x||^2 and the KL the prior surprisal
    rng = np.random.default_rng(9)
    c = modem.build_constellation(16, 0.05)
    n = 12
    s = modem.sample_symbols(c, n, rng)
    y = s + 0.05 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    i_idx, q_idx = symbol_indices(c, s)
    # logits 0 at the true level and -1e3 elsewhere: q is one-hot in floats
    eye = np.eye(c.n_levels)
    z = -1e3 * (1.0 - np.stack([eye[:, i_idx], eye[:, q_idx]])[None])
    h = np.array([[[0.0, 1.0, 0.0]]], dtype=complex)
    bd, _, _, _ = eq.vae_loss(y[None, :], z, h, c, eq.LossContext(1, n, 3, 1, 0, c))
    c_ref = float(np.sum(np.abs(y - s) ** 2))
    assert abs(bd.c_dist[0] - c_ref) < 1e-10
    kl_ref = -float(np.sum(np.log(c.prior[i_idx])) + np.sum(np.log(c.prior[q_idx])))
    assert abs(bd.a_kl - kl_ref) < 1e-9
    assert abs(bd.total - (bd.a_kl + n * np.log(bd.c_dist[0]))) < 1e-9
    assert abs(bd.sigma_sq - c_ref / n) < 1e-12


def test_vae_loss_logit_gradient_matches_mpmath():
    # dL/dz against a 50-digit derivative of the loss where q is nearly
    # one-hot: logits in each group near [0, -23, -30, -35], so that q holds
    # entries of ~1e-10 to ~1e-15, and one group a tie, [0, 0, -30, -35].
    # Each entry, the mode's included, must hold to 1e-12 of itself
    rng = np.random.default_rng(19)
    c = modem.build_constellation(16, 0.05)
    n_sym, n_os = 4, 2
    n = n_sym * n_os
    z = np.array([0.0, -23.0, -30.0, -35.0])[rng.permuted(np.tile(np.arange(4), (2 * n_sym, 1)), axis=1)]
    z = (z + 0.5 * rng.standard_normal(z.shape)).reshape(1, 2, n_sym, 4)
    z[0, 1, 2] = [0.0, 0.0, -30.0, -35.0]
    rx = sigproc.upsample_zero_insert(modem.sample_symbols(c, n_sym, rng), n_os)
    rx = (rx + 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))[None]
    h = np.array([[[0.98 + 0.05j]]])                    # a Dirac-like 1-tap model
    _, _, g_z, _ = eq.vae_loss(rx, z.swapaxes(2, 3), h, c,
                               eq.LossContext(1, n, 1, n_os, 0, c))

    with mp.workdps(50):
        lev = [mp.mpf(v) for v in c.levels]
        log_p = [mp.log(mp.mpf(v)) for v in c.prior]
        y = [mp.mpc(complex(v)) for v in rx[0]]
        hh = mp.mpc(complex(h[0, 0, 0]))

        def loss(zz):
            # sum_k KL(q_k | p) + N ln C, C = sum_n |y - h E[x]|^2 + |h|^2 sum_k Var[x_k]
            kl, mean, var = mp.mpf(0), [mp.mpc(0)] * n, mp.mpf(0)
            for comp, unit in ((0, 1), (1, 1j)):
                for k in range(n_sym):
                    row = zz[comp][k]
                    lse = mp.log(mp.fsum(mp.exp(v) for v in row))
                    q = [mp.exp(v - lse) for v in row]
                    kl += mp.fsum(qa * (v - lse - lp) for qa, v, lp in zip(q, row, log_p))
                    m1 = mp.fsum(qa * a for qa, a in zip(q, lev))
                    var += mp.fsum(qa * (a - m1) ** 2 for qa, a in zip(q, lev))
                    mean[k * n_os] += unit * m1
            dist = mp.fsum(abs(yn - hh * mn) ** 2 for yn, mn in zip(y, mean)) + abs(hh) ** 2 * var
            return kl + n * mp.log(dist)

        zz = [[[mp.mpf(v) for v in row] for row in comp] for comp in z[0]]
        for comp, k, a in np.ndindex(2, n_sym, 4):
            def along(t, comp=comp, k=k, a=a):
                moved = [[list(row) for row in rows] for rows in zz]
                moved[comp][k][a] = t
                return loss(moved)
            ref = mp.diff(along, zz[comp][k][a])
            err = abs(mp.mpf(g_z[0, comp, a, k]) - ref) / abs(ref)
            assert err <= 1e-12, f"entry {(comp, k, a)}: {float(err):.2e} of {float(ref):.3e}"


def test_vae_loss_two_pol_distortion_and_kl_enumerated():
    # 2 pols, 4-QAM at 2 sps, a butterfly with cross taps, F = 3, edge trim 1
    # and 3 symbols per pol: C_p is the expectation of sum_n |y_p - (h * x)_p|^2
    # over the kept samples, under all 4^6 hypotheses weighted by the
    # factorized q, and the KL that of the kept symbols' q from the prior
    rng = np.random.default_rng(20)
    c = modem.build_constellation(4, 0.0)
    pol, n_sym, n_os, f, trim = 2, 3, 2, 3, 1
    n = n_sym * n_os
    rx = rng.standard_normal((pol, n)) + 1j * rng.standard_normal((pol, n))
    h = rng.standard_normal((pol, pol, f)) + 1j * rng.standard_normal((pol, pol, f))
    z = rng.standard_normal((pol, 2, n_sym, 2))
    ctx = eq.LossContext(pol, n, f, n_os, trim, c)
    bd, _, _, _ = eq.vae_loss(rx, z.swapaxes(2, 3), h, c, ctx)

    q = np.exp(z) / np.exp(z).sum(axis=-1, keepdims=True)
    kept = np.ones(n, dtype=bool)
    kept[:trim] = kept[n - trim:] = False
    kept_sym = kept[::n_os]
    c_ref, kl_ref = np.zeros(pol), 0.0
    # one hypothesis: a level index per (pol, component, symbol)
    for idx in np.ndindex(*(2,) * (pol * 2 * n_sym)):
        idx = np.array(idx).reshape(pol, 2, n_sym)
        prob = np.take_along_axis(q, idx[..., None], axis=-1)[..., 0]
        x = c.levels[idx[:, 0]] + 1j * c.levels[idx[:, 1]]          # (pol, n_sym)
        up = np.zeros((pol, n + f - 1), dtype=complex)
        up[:, f // 2: f // 2 + n: n_os] = x
        # (h * x)[p, m] = sum_q,t h[p, q, t] x_up[q, m + F // 2 - t]
        hx = np.array([[sum(h[p, s, t] * up[s, m + f - 1 - t] for s in range(pol) for t in range(f))
                        for m in range(n)] for p in range(pol)])
        weight = prob.prod()
        c_ref += weight * (np.abs(rx - hx)[:, kept] ** 2).sum(axis=1)
        surprisal = np.log(prob) - np.log(c.prior[idx])
        kl_ref += weight * surprisal[:, :, kept_sym].sum()
    assert np.allclose(bd.c_dist, c_ref, rtol=0, atol=1e-10)
    assert abs(bd.a_kl - kl_ref) <= 1e-10


@pytest.mark.parametrize("pol", [1, 2])
@pytest.mark.parametrize("n_os", [1, 2])
@pytest.mark.parametrize("edge_trim", [0, 3])
def test_vae_loss_context_reuse(pol, n_os, edge_trim):
    # one LossContext over successive batches gives what a fresh context
    # per call gives; its buffers alias nothing the loss returns, and E[x]'s
    # samples between symbols (and the padding) stay exact zeros
    rng = np.random.default_rng(12)
    c = modem.build_constellation(16, 0.02)
    n_sym, f = 10, 5
    n = n_sym * n_os
    ctx = eq.LossContext(pol, n, f, n_os, edge_trim, c)
    returned = []
    for _ in range(3):
        rx = rng.standard_normal((pol, n)) + 1j * rng.standard_normal((pol, n))
        z = rng.standard_normal((pol, 2, c.n_levels, n_sym))
        h = rng.standard_normal((pol, pol, f)) + 1j * rng.standard_normal((pol, pol, f))
        bd, mean, g_q, g_h = eq.vae_loss(rx, z, h, c, ctx)
        bd_fresh, mean_fresh, g_q_fresh, g_h_fresh = eq.vae_loss(
            rx, z, h, c, eq.LossContext(pol, n, f, n_os, edge_trim, c))
        assert bd == bd_fresh and np.array_equal(mean, mean_fresh)
        assert np.array_equal(g_q, g_q_fresh) and np.array_equal(g_h, g_h_fresh)
        returned.append((g_q, g_h, g_q.copy(), g_h.copy()))
        up = np.zeros((pol, n), dtype=complex)
        up[:, ::n_os] = mean
        assert np.array_equal(ctx.up_win, sigproc.windows(up, f, 1).transpose(1, 0, 2))
    for g_q, g_h, g_q_then, g_h_then in returned:
        assert np.array_equal(g_q, g_q_then) and np.array_equal(g_h, g_h_then)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vae_le_grads_at_dp_recipe_shape(seed):
    # criterion 1 checks 4-QAM with 5/3 taps; this is the DP recipes' shape:
    # 2 pols at 2 sps, shaped 64-QAM, 25/25 taps near the HV-rotated Dirac
    err = max_gradient_error(dp_le_instance(np.random.default_rng(seed)))
    assert err < 1e-4, f"seed {seed}: {err:.3e}"


# (pol, n_os, M, nu, matched demapper, edge trim F // 2): every pol count,
# oversampling, order, shaping, demapper and trim, each with each other
_ORACLE_LINKS = [
    (1, 1, 4, 0.0, True, False),
    (1, 2, 16, 0.08, False, True),
    (2, 1, 64, 0.02, True, True),
    (2, 2, 4, 0.3, False, False),
    (2, 2, 64, 0.0, False, True),
    (1, 1, 64, 0.02, False, False),
    (2, 1, 16, 0.0, True, False),
    (1, 2, 64, 0.0, True, True),
    (2, 2, 16, 0.08, True, True),
]


@pytest.mark.parametrize("sigma_sq", [1.0, 0.05, 1e-3, 1e-6])
@pytest.mark.parametrize("link", _ORACLE_LINKS, ids=lambda l: "pol{}-os{}-{}qam-nu{}-{}-{}".format(
    l[0], l[1], l[2], l[3], "matched" if l[4] else "mismatched", "trim" if l[5] else "notrim"))
def test_vae_le_grads_match_softmax_chain(link, sigma_sq):
    # the moment form against the chain through the demapper's logits:
    # vae_loss's dL/dz and the logits' derivative, to 1e-12 of the whole
    # gradient's norm.
    # At small sigma^2 most posteriors are one-hot, where the chain's
    # equalizer gradient is exactly zero, and so must the moments' be:
    # centred moments are, raw ones are not
    pol, n_os, m, nu, matched, trim = link
    rng = np.random.default_rng(_ORACLE_LINKS.index(link))
    c = modem.build_constellation(m, nu)
    state = eq.VaeLeState(pol, n_os, f_eq=7, f_ch=5, matched_demapper=matched)
    state.params += 0.1 * rng.standard_normal(state.params.shape)
    state.sigma_sq = sigma_sq
    n_b = 40
    rx = rng.standard_normal((pol, (n_b + 2) * n_os)) + 1j * rng.standard_normal((pol, (n_b + 2) * n_os))
    rx /= np.sqrt(2 * n_os)
    win = sigproc.windows(rx, 7, n_os).transpose(1, 0, 2)[1: 1 + n_b]
    batch = rx[:, n_os: (1 + n_b) * n_os]
    ctx = eq.LossContext(pol, n_b * n_os, 5, n_os, 2 if trim else 0, c)
    x_hat, bd = eq.vae_le_grads(state, win, batch, c, ctx)
    x_ref, bd_ref, g_eq_ref, g_ch_ref = vae_le_grads_softmax(state, win, batch, c, ctx)
    assert np.array_equal(x_hat, x_ref)
    for v, ref in ((bd.a_kl, bd_ref.a_kl), (bd.total, bd_ref.total),
                   (bd.sigma_sq, bd_ref.sigma_sq), *zip(bd.c_dist, bd_ref.c_dist)):
        assert abs(v - ref) <= 1e-12 * abs(ref)
    scale = np.hypot(np.linalg.norm(g_eq_ref), np.linalg.norm(g_ch_ref))
    for g, ref in ((state.g_eq, g_eq_ref), (state.g_ch, g_ch_ref)):
        assert np.linalg.norm(g - ref) <= 1e-12 * scale
    if not np.any(g_eq_ref):
        assert not np.any(state.g_eq)


def test_vae_le_step_moves_taps_through_the_shared_buffer():
    # one update: Adam steps the one buffer, and eq and ch, its views, move
    rng = np.random.default_rng(23)
    c = modem.build_constellation(16, 0.0)
    state = eq.VaeLeState(2, 2, f_eq=5, f_ch=3, matched_demapper=True)
    assert np.shares_memory(state.eq, state.params) and np.shares_memory(state.ch, state.params)
    assert np.shares_memory(state.g_eq, state.grad) and np.shares_memory(state.g_ch, state.grad)
    eq0, ch0 = state.eq.copy(), state.ch.copy()
    rx = rng.standard_normal((2, 48)) + 1j * rng.standard_normal((2, 48))
    win = sigproc.windows(rx, 5, 2).transpose(1, 0, 2)
    eq.vae_le_step(state, win, rx, c, 1e-2, eq.LossContext(2, 48, 3, 2, 1, c))
    assert state.adam.t == 1
    assert np.all(state.eq != eq0) and np.any(state.ch != ch0)
    # each by Adam's first step on its own entry of the gradient buffer
    step = np.concatenate([(eq0 - state.eq).view(np.float64).ravel(),
                           (ch0 - state.ch).view(np.float64).ravel()])
    g = state.grad
    np.testing.assert_allclose(step, 1e-2 * g / (np.abs(g) + 1e-8), rtol=1e-9, atol=1e-15)


def test_vae_nn_one_buffer_is_adam_per_array():
    # Adam is elementwise, so three VAE-NN updates through the one buffer
    # give, bit for bit, what Adam over the five arrays gives
    c = modem.build_constellation(16, 0.0)
    a = eq.VaeNnState(2, 2, 16, k1=5, k2=3, f_ch=5, rng=np.random.default_rng(24), hidden=6)
    b = eq.VaeNnState(2, 2, 16, k1=5, k2=3, f_ch=5, rng=np.random.default_rng(24), hidden=6)
    ref = AdamPerArray([b.w1, b.b1, b.w2, b.b2, b.ch.view(np.float64)])
    ctx = eq.LossContext(2, 60, 5, 2, 2, c)
    rng = np.random.default_rng(25)
    for _ in range(3):
        rx = rng.standard_normal((2, 60)) + 1j * rng.standard_normal((2, 60))
        out, _ = eq.vae_nn_step(a, rx, c, 1e-2, ctx)
        mean, bd = eq.vae_nn_grads(b, rx, c, ctx)
        ref.step([*b.g_net, b.g_ch.view(np.float64)], 1e-2)
        b.sigma_sq = bd.sigma_sq
        assert np.array_equal(out, mean)
    assert a.sigma_sq == b.sigma_sq
    assert np.array_equal(a.params, b.params)
    assert np.array_equal(a.adam.m, np.concatenate([m.ravel() for m in ref.m]))
    assert np.array_equal(a.adam.v, np.concatenate([v.ravel() for v in ref.v]))


def test_vae_le_step_learns_identity_channel():
    rng = np.random.default_rng(10)
    c = modem.build_constellation(4, 0.0)
    n_b = 200
    s = modem.sample_symbols(c, n_b + 24, rng)
    tx = sigproc.upsample_zero_insert(s, 2)
    rx = add_awgn_expression(tx, ch.noise_sigma_sq(tx, 2, 15.0), rng)[None, :]
    rx = rx / np.sqrt(np.mean(np.abs(rx) ** 2) * 2)  # unit symbol energy
    state = eq.VaeLeState(1, 2, f_eq=11, f_ch=11, matched_demapper=True)
    # the batch starts a few symbols in, so its windows see the samples around it
    win = sigproc.windows(rx, state.f_eq, 2).transpose(1, 0, 2)[3: 3 + n_b]
    batch = rx[:, 6: 6 + 2 * n_b]
    ctx = eq.LossContext(1, 2 * n_b, state.f_ch, 2, state.f_ch // 2, c)
    losses = []
    for _ in range(400):
        _, bd = eq.vae_le_step(state, win, batch, c, 2e-3, ctx)
        losses.append(bd.total)
    assert losses[-1] < losses[0]
    # the noise-variance estimate approaches the injected per-symbol value
    assert abs(state.sigma_sq - 10 ** (-1.5)) < 0.005


def test_run_vae_covers_tail():
    rng = np.random.default_rng(11)
    c = modem.build_constellation(4, 0.0)
    s = modem.sample_symbols(c, 1_050, rng)
    tx = sigproc.upsample_zero_insert(s, 2)
    rx = add_awgn_expression(tx, ch.noise_sigma_sq(tx, 2, 18.0), rng)
    state = eq.VaeLeState(1, 2, f_eq=7, f_ch=7, matched_demapper=True)
    res = eq.run_vae(rx[None, :], c, state, 250, 250, 1e-3, False, n_frame=10_000)
    assert res.out.shape == (1, 1_050)
    assert res.sigma_traj.shape == (4, 2)
    # the 50-symbol tail is the final filters over the whole normalized
    # stream, so its first symbols see the samples before it, not zeros
    rxn = eq._unit_power(rx[None, :], 1)[1] / np.sqrt(2)
    full = butterfly_apply(rxn, state.eq[:, :, ::-1], stride=2)
    assert np.allclose(res.out[:, 1_000:], full[:, 1_000:], rtol=0, atol=1e-12)
    # a stream shorter than one batch is all tail, at the initial filters
    short = eq.VaeLeState(1, 2, f_eq=7, f_ch=7, matched_demapper=True)
    res = eq.run_vae(rx[None, :400], c, short, 250, 250, 1e-3, False, n_frame=10_000)
    ref = butterfly_apply(eq._unit_power(rx[None, :400], 1)[1] / np.sqrt(2),
                             short.eq[:, :, ::-1], stride=2)
    assert res.sigma_traj.size == 0
    assert np.allclose(res.out, ref, rtol=0, atol=1e-12)


def test_unit_power_is_one_padded_copy():
    # the receivers read their input from the interior of one zero-padded
    # copy, divided by the root of the power
    rng = np.random.default_rng(13)
    rx = rng.standard_normal((2, 500)) + 1j * rng.standard_normal((2, 500))
    before = rx.copy()
    pad, inner = eq._unit_power(rx, 7)
    assert rx.tobytes() == before.tobytes()
    want = rx / np.sqrt(np.mean(np.abs(rx) ** 2))
    assert inner.tobytes() == want.tobytes()
    assert pad.shape == (2, 506) and np.shares_memory(pad, inner)
    assert not pad[:, :3].any() and not pad[:, -3:].any()


@pytest.mark.parametrize("pol", [1, 2])
def test_run_vae_nn_covers_tail(pol):
    rng = np.random.default_rng(12)
    c = modem.build_constellation(4, 0.0)
    tx = np.stack([sigproc.upsample_zero_insert(modem.sample_symbols(c, 400, rng), 2)
                   for _ in range(pol)])
    rx = add_awgn_expression(tx, ch.noise_sigma_sq(tx, 2, 18.0), rng)
    state = eq.VaeNnState(pol, 2, 4, k1=5, k2=3, f_ch=7, rng=rng, hidden=4)
    res = eq.run_vae(rx, c, state, 350, 350, 1e-3, False, n_frame=10_000)
    assert res.out.shape == (pol, 400) and res.sigma_traj.shape == (1, 2)
    assert np.count_nonzero(res.out == 0) == 0
    # the 50-symbol tail of each pol is the decoder's E_Q[x] at the final
    # weights over the stream's last 350 symbols
    rxn = eq._unit_power(rx, 1)[1] / np.sqrt(2)
    z, _ = eq.vae_nn_forward(rxn[:, 100:], state)
    ex = c.levels @ eq.softmax_groups(z)[0]
    tail = ex[:, 0] + 1j * ex[:, 1]
    assert np.array_equal(res.out[:, 350:], tail[:, 300:])


def test_vae_nn_weights_match_per_kernel_draws():
    # one draw per layer is the per-(output, input) kernel draws in order
    state = eq.VaeNnState(2, 2, 16, k1=7, k2=3, f_ch=5,
                          rng=np.random.default_rng(4), hidden=5)
    rng = np.random.default_rng(4)
    s1, s2 = 1.0 / np.sqrt(4 * 7), 1.0 / np.sqrt(5 * 3)
    w1 = [[s1 * rng.standard_normal(7) for _ in range(4)] for _ in range(5)]
    w2 = [[s2 * rng.standard_normal(3) for _ in range(5)] for _ in range(16)]
    assert np.array_equal(state.w1, np.array(w1))
    assert np.array_equal(state.w2, np.array(w2))
    assert state.b1.shape == (5, 1) and state.b2.shape == (16, 1)
    assert not state.b1.any() and not state.b2.any()


@pytest.mark.parametrize("pol", [1, 2])
@pytest.mark.parametrize("n_os", [1, 2])
@pytest.mark.parametrize("k2", [3, 5])
def test_vae_nn_forward_matches_convolve_loop(pol, n_os, k2):
    rng = np.random.default_rng(pol + 10 * n_os + 100 * k2)
    state = eq.VaeNnState(pol, n_os, 16, k1=9, k2=k2, f_ch=5, rng=rng, hidden=6)
    state.b1[:] = rng.standard_normal(state.b1.shape)
    state.b2[:] = rng.standard_normal(state.b2.shape)
    n = 40 * n_os
    rx = rng.standard_normal((pol, n)) + 1j * rng.standard_normal((pol, n))
    q = eq.softmax_groups(eq.vae_nn_forward(rx, state)[0])[0]
    assert q.shape == (pol, 2, 4, 40)
    assert np.abs(q - vae_nn_forward_loop(rx, state)).max() <= 1e-12


def test_vae_nn_update_is_two_conv_nodes_and_five_adam_arrays(monkeypatch):
    # one update: two convolutions, one reverse pass, one Adam step over the
    # two weights, the two biases and the channel taps, all views of its one
    # buffer, and each layer's input windows built once (counted through the
    # names equalize and autodiff look up; the run's loss context is built
    # before)
    c = modem.build_constellation(64, 0.0)
    rng = np.random.default_rng(0)
    state = eq.VaeNnState(2, 2, 64, k1=29, k2=3, f_ch=25, rng=rng)
    rx = rng.standard_normal((2, 700)) + 1j * rng.standard_normal((2, 700))
    ctx = eq.LossContext(2, 700, 25, 2, 12, c)
    calls = {"conv1d_full": 0, "backward": 0, "windows": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted
    for name in ("conv1d_full", "backward"):
        monkeypatch.setattr(eq.ad, name, counting(name, getattr(eq.ad, name)))
    for mod in (eq, eq.ad):
        monkeypatch.setattr(mod, "windows", counting("windows", sigproc.windows), raising=False)
    eq.vae_nn_step(state, rx, c, 1e-3, ctx)
    assert calls == {"conv1d_full": 2, "backward": 1, "windows": 2}
    arrays = (state.w1, state.b1, state.w2, state.b2, state.ch.view(np.float64))
    assert all(np.shares_memory(a, state.adam.params) for a in arrays)
    assert sum(a.size for a in arrays) == state.adam.params.size == state.grad.size


@pytest.mark.parametrize("kind", ["VAE-LE", "VAE-NN"])
def test_vae_step_stops_on_non_finite_loss(kind):
    # one finite update moves sigma^2; a NaN batch returns with Adam and
    # sigma^2 as they were
    rng = np.random.default_rng(21)
    c = modem.build_constellation(4, 0.0)
    rx = rng.standard_normal((1, 16)) + 1j * rng.standard_normal((1, 16))
    state = (eq.VaeLeState(1, 2, f_eq=3, f_ch=3, matched_demapper=True) if kind == "VAE-LE" else
             eq.VaeNnState(1, 2, 4, k1=3, k2=3, f_ch=3, rng=rng, hidden=2))
    ctx = eq.LossContext(1, 16, 3, 2, 1, c)

    def step(x):
        if kind == "VAE-LE":
            win = sigproc.windows(x, 3, 2).transpose(1, 0, 2)
            return eq.vae_le_step(state, win, x, c, 1e-3, ctx)
        return eq.vae_nn_step(state, x, c, 1e-3, ctx)

    step(rx)
    assert state.sigma_sq != 1.0
    before = state.adam.params.copy()
    sigma_sq, t = state.sigma_sq, state.adam.t
    _, bd = step(np.full_like(rx, np.nan))
    assert not np.isfinite(bd.total)
    assert (state.sigma_sq, state.adam.t) == (sigma_sq, t)
    assert np.array_equal(state.adam.params, before)


@pytest.mark.parametrize("kind", ["VAE-LE", "VAE-NN"])
def test_run_vae_divergence_flags_rest_of_stream(kind):
    # at lr 1e200 the first update blows the weights up and a later batch's
    # loss is non-finite: the run stops there, with no warning, as cma_run does
    rng = np.random.default_rng(22)
    c = modem.build_constellation(16, 0.0)
    rx = rng.standard_normal((1, 2_000)) + 1j * rng.standard_normal((1, 2_000))
    state = (eq.VaeLeState(1, 2, f_eq=7, f_ch=7, matched_demapper=True) if kind == "VAE-LE" else
             eq.VaeNnState(1, 2, 16, k1=5, k2=3, f_ch=7, rng=rng, hidden=4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = eq.run_vae(rx, c, state, 100, 50, 1e200, False, n_frame=500)
    stop = int(np.argmax(np.isnan(res.out[0])))
    assert 0 < stop < 900 and stop % 50 == 0          # at an update's first symbol
    assert np.all(np.isfinite(res.out[:, :stop])) and np.all(np.isnan(res.out[:, stop:]))
    # one row per finite update, each the update's start and a finite sigma^2
    np.testing.assert_array_equal(res.sigma_traj[:, 0], np.arange(0, stop, 50))
    assert np.all(np.isfinite(res.sigma_traj))
    assert res.ch_taps is None and np.isnan(res.singularity_corr)


def test_vae_state_validation():
    with pytest.raises(ConfigError):
        eq.VaeLeState(1, 2, f_eq=10, f_ch=11, matched_demapper=True)
    with pytest.raises(ConfigError):
        eq.VaeLeState(1, 2, f_eq=11, f_ch=4, matched_demapper=True)
