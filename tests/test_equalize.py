"""Equalizers: CMA family, carrier phase estimation, the genie MMSE
baseline, Adam, and the variational loss."""

import numpy as np
import pytest

from blindeq import channel as ch
from blindeq import equalize as eq
from blindeq import evaluate as ev
from blindeq import modem, sigproc
from blindeq.errors import ConfigError
from helpers import butterfly_apply, vae_nn_forward_loop


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
    filt = eq.ButterflyFilter.dirac(2, 7)
    out = butterfly_apply(rx, filt, stride=2)
    assert np.allclose(out, rx[:, ::2])
    with pytest.raises(ConfigError):
        eq.ButterflyFilter(np.zeros((2, 2, 6)))  # even length
    with pytest.raises(ConfigError):
        butterfly_apply(rx[:1], filt)


@pytest.mark.parametrize("pol", [1, 2])
@pytest.mark.parametrize("stride", [1, 2])
def test_butterfly_apply_random_taps(pol, stride):
    # a Dirac filter cannot tell convolution from correlation; random taps can
    rng = np.random.default_rng(12)
    rx = rng.standard_normal((pol, 41)) + 1j * rng.standard_normal((pol, 41))
    taps = rng.standard_normal((pol, pol, 5)) + 1j * rng.standard_normal((pol, pol, 5))
    out = butterfly_apply(rx, eq.ButterflyFilter(taps), stride=stride)
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
    out, dirs = eq.cma_block(np.array([[t0]]), w, r2)
    assert out.shape == (2, 1) and dirs.shape == (2, 1, 1)
    for k in range(2):
        o = t0 * w[k, 0]
        e = o * (r2 - abs(o) ** 2)
        assert abs(out[k, 0] - o) < 1e-15
        assert abs(dirs[k, 0, 0] - e * np.conj(w[k, 0])) < 1e-15


def test_cma_step_stationary_on_radius():
    taps = eq.ButterflyFilter.dirac(2, 1).taps.reshape(2, 2)
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


@pytest.mark.parametrize("n_b, n_flex", [(None, None), (7, None), (7, 3)])
def test_cma_run_schedule_oracle(n_b, n_flex):
    # 70 symbols in frames of 3: frame index 20 (the first halving of mu)
    # starts at symbol 60, inside the n_flex block [58, 61); n_b = 7 is not a
    # multiple of n_flex = 3
    rng = np.random.default_rng(13)
    c = modem.build_constellation(16, 0.0)
    rx = rng.standard_normal((2, 140)) + 1j * rng.standard_normal((2, 140))
    out, filt, corr = eq.cma_run(rx, c, 5, 0.05, 2, n_frame=3, scheduler=True,
                                 n_batch=n_b, n_flex=n_flex)
    rx = rx / np.sqrt(np.mean(np.abs(rx) ** 2))
    ref_out, ref_taps = _naive_cma(rx, eq.godard_radius(c), 5, 0.05, 2, 3, True,
                                   n_b or 1, n_flex or n_b or 1)
    # the same arithmetic in the same order, so the same bits
    assert np.array_equal(out, ref_out)
    assert np.array_equal(filt.taps, ref_taps)
    assert not np.allclose(filt.taps, eq.ButterflyFilter.dirac(2, 5).taps)
    assert np.isfinite(corr)


def test_cma_run_divergence_flags_rest_of_stream():
    rng = np.random.default_rng(14)
    c = modem.build_constellation(4, 0.0)
    rx = rng.standard_normal((2, 400)) + 1j * rng.standard_normal((2, 400))
    for n_b in (None, 10):
        out, filt, corr = eq.cma_run(rx, c, 5, 1e6, 2, n_frame=50, n_batch=n_b)
        assert not np.all(np.isfinite(filt.taps))
        assert np.all(np.isnan(out[:, 50:]))  # every symbol after frame 0
        assert np.isnan(corr)


def test_lr_schedule():
    assert eq.lr_schedule(0, 1e-3) == 1e-3
    assert eq.lr_schedule(19, 1e-3) == 1e-3
    assert eq.lr_schedule(20, 1e-3) == 0.5e-3
    assert eq.lr_schedule(45, 1e-3) == 0.25e-3
    with pytest.raises(ConfigError):
        eq.lr_schedule(-1, 1e-3)


def test_cma_run_recovers_qpsk():
    rng = np.random.default_rng(2)
    c = modem.build_constellation(4, 0.0)
    s = modem.sample_symbols(c, 30_000, rng)
    tx = sigproc.upsample_zero_insert(s, 2)
    p = ch.ChannelParams(snr_db=25.0)
    rx = ch.awgn_isi_apply(tx, p, rng)
    out, filt, corr = eq.cma_run(rx.samples, c, 15, 2e-3, 2, n_frame=5_000)
    out = eq.viterbi_viterbi_cpe(out)
    assert out.shape == (1, 30_000)
    assert corr == 0.0  # single polarization
    align = ev.resolve_ambiguity(out[0, -5_000:], s.samples[-5_000:], c, 0.005)
    assert align.ser < 0.01


def test_viterbi_viterbi_constant_phase():
    rng = np.random.default_rng(3)
    c = modem.build_constellation(4, 0.0)
    s = modem.sample_symbols(c, 4_000, rng)
    rotated = s.samples * np.exp(0.35j)
    out = eq.viterbi_viterbi_cpe(rotated, window=501)
    assert out.shape == rotated.shape  # 1-D in, 1-D out
    align = ev.resolve_ambiguity(out[600:-600], s.samples[600:-600], c, 0.01)
    assert align.ser == 0.0
    with pytest.raises(ConfigError):
        eq.viterbi_viterbi_cpe(rotated, window=500)


def test_mmse_baseline_known_channel():
    rng = np.random.default_rng(4)
    c = modem.build_constellation(16, 0.0)
    s = modem.sample_symbols(c, 20_000, rng)
    h = np.array([0.4 - 0.1j, 1.0, -0.3 + 0.2j])
    rx = sigproc.convolve_same(s.samples, h)
    w, out, d = eq.mmse_baseline(rx, s.samples, n_taps=21, sps=1)
    assert w.shape == (21,)
    mse = np.mean(np.abs(out[50:-50] - s.samples[50:-50]) ** 2)
    assert mse < 1e-3


def test_mmse_baseline_fractionally_spaced():
    rng = np.random.default_rng(5)
    c = modem.build_constellation(16, 0.0)
    s = modem.sample_symbols(c, 20_000, rng)
    tx = sigproc.upsample_zero_insert(s, 2)
    p = ch.ChannelParams(snr_db=np.inf)
    rx = ch.awgn_isi_apply(tx, p, rng)
    _, out, _ = eq.mmse_baseline(rx.samples, s.samples, n_taps=40, sps=2)
    mse = np.mean(np.abs(out[100:-100] - s.samples[100:-100]) ** 2)
    assert mse < 1e-2


def test_adam_first_step_oracle():
    rng = np.random.default_rng(6)
    g = rng.standard_normal(5)
    p = np.zeros(5)
    opt = eq.Adam([p], eps=1e-8)
    opt.step([g], 1e-2)
    # bias-corrected first step reduces to a signed step of size ~lr
    assert np.allclose(p, -1e-2 * g / (np.abs(g) + 1e-8), atol=1e-12)


def test_adam_two_step_oracle():
    rng = np.random.default_rng(7)
    g1, g2 = rng.standard_normal(3), rng.standard_normal(3)
    p = np.zeros(3)
    opt = eq.Adam([p])
    for g in (g1, g2):
        opt.step([g], 1e-2)
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
    re, im = z.real.copy(), z.imag.copy()
    opt_z = eq.Adam([z.view(np.float64)])
    opt_parts = eq.Adam([re, im])
    for _ in range(3):
        g = rng.standard_normal(z.shape) + 1j * rng.standard_normal(z.shape)
        opt_z.step([eq._real_view(g)], 1e-2)
        opt_parts.step([g.real, g.imag], 1e-2)
    assert np.array_equal(z.real, re) and np.array_equal(z.imag, im)


def test_update_schedule_validation():
    with pytest.raises(ConfigError):
        eq.UpdateSchedule(n_b=10, n_flex=11, lr=1e-3)
    with pytest.raises(ConfigError):
        eq.UpdateSchedule(n_b=10, n_flex=0, lr=1e-3)


def test_vae_loss_one_hot_oracle():
    # with a Dirac channel model and one-hot q at the true symbols the
    # distortion must be exactly ||y - x||^2 and the KL the prior surprisal
    rng = np.random.default_rng(9)
    c = modem.build_constellation(16, 0.05)
    n = 12
    s = modem.sample_symbols(c, n, rng)
    y = s.samples + 0.05 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    i_idx, q_idx = modem.symbol_indices(c, s.samples)
    eye = np.eye(c.n_levels)
    q = np.stack([eye[i_idx], eye[q_idx]])[None]
    h = np.array([[[0.0, 1.0, 0.0]]], dtype=complex)
    bd, _, _ = eq.vae_loss(y[None, :], q, h, c, n_os=1)
    c_ref = float(np.sum(np.abs(y - s.samples) ** 2))
    assert abs(bd.c_dist[0] - c_ref) < 1e-10
    kl_ref = -float(np.sum(np.log(c.prior[i_idx])) + np.sum(np.log(c.prior[q_idx])))
    assert abs(bd.a_kl - kl_ref) < 1e-9
    assert abs(bd.total - (bd.a_kl + n * np.log(bd.c_dist[0]))) < 1e-9
    assert abs(bd.sigma_sq - c_ref / n) < 1e-12


def test_vae_le_step_learns_identity_channel():
    rng = np.random.default_rng(10)
    c = modem.build_constellation(4, 0.0)
    n_b = 200
    s = modem.sample_symbols(c, n_b + 24, rng)
    tx = sigproc.upsample_zero_insert(s, 2)
    rx = ch.add_awgn(tx.samples, ch.noise_sigma_sq(tx.samples, 2, 15.0),
                     rng)[None, :]
    rx = rx / np.sqrt(np.mean(np.abs(rx) ** 2) * 2)  # unit symbol energy
    state = eq.VaeLeState(1, 2, f_eq=11, f_ch=11)
    sched = eq.UpdateSchedule(n_b=n_b, n_flex=n_b, lr=2e-3)
    # the batch starts a few symbols in, so its windows see the samples around it
    win = eq._windows(rx, state.f_eq, 2)[3: 3 + n_b]
    batch = rx[:, 6: 6 + 2 * n_b]
    losses = []
    for _ in range(400):
        _, bd = eq.vae_le_step(state, win, batch, c, sched)
        losses.append(bd.total)
    assert losses[-1] < losses[0]
    # the noise-variance estimate approaches the injected per-symbol value
    assert abs(state.sigma_sq - 10 ** (-1.5)) < 0.005


def test_run_vae_covers_tail():
    rng = np.random.default_rng(11)
    c = modem.build_constellation(4, 0.0)
    s = modem.sample_symbols(c, 1_050, rng)
    tx = sigproc.upsample_zero_insert(s, 2)
    rx = ch.add_awgn(tx.samples, ch.noise_sigma_sq(tx.samples, 2, 18.0), rng)
    state = eq.VaeLeState(1, 2, f_eq=7, f_ch=7)
    sched = eq.UpdateSchedule(n_b=250, n_flex=250, lr=1e-3)
    res = eq.run_vae(rx[None, :], c, state, sched)
    assert res.out.shape == (1, 1_050)
    assert res.sigma_traj.shape == (4, 2)
    # the 50-symbol tail is the final filters over the whole normalized
    # stream, so its first symbols see the samples before it, not zeros
    rxn = eq._unit_power(rx[None, :]) / np.sqrt(2)
    full = butterfly_apply(rxn, state.eq, stride=2)
    assert np.allclose(res.out[:, 1_000:], full[:, 1_000:], rtol=0, atol=1e-12)
    # a stream shorter than one batch is all tail, at the initial filters
    short = eq.VaeLeState(1, 2, f_eq=7, f_ch=7)
    res = eq.run_vae(rx[None, :400], c, short, sched)
    ref = butterfly_apply(eq._unit_power(rx[None, :400]) / np.sqrt(2),
                             short.eq, stride=2)
    assert res.sigma_traj.size == 0
    assert np.allclose(res.out, ref, rtol=0, atol=1e-12)


def test_run_vae_nn_covers_tail():
    rng = np.random.default_rng(12)
    c = modem.build_constellation(4, 0.0)
    s = modem.sample_symbols(c, 400, rng)
    tx = sigproc.upsample_zero_insert(s, 2)
    rx = ch.add_awgn(tx.samples, ch.noise_sigma_sq(tx.samples, 2, 18.0), rng)
    state = eq.VaeNnState(1, 2, 4, k1=5, k2=3, f_ch=7, rng=rng, hidden=4)
    sched = eq.UpdateSchedule(n_b=350, n_flex=350, lr=1e-3)
    res = eq.run_vae(rx[None, :], c, state, sched)
    assert res.sigma_traj.shape == (1, 2)
    assert np.count_nonzero(res.out == 0) == 0
    # the 50-symbol tail is the decoder's E_Q[x] at the final weights over
    # the stream's last 350 symbols
    rxn = eq._unit_power(rx[None, :]) / np.sqrt(2)
    q, _ = eq.vae_nn_forward(rxn[:, 100:], state)
    tail = q[0] @ c.levels + 1j * (q[1] @ c.levels)
    assert np.array_equal(res.out[0, 350:], tail[300:])


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
    q = eq.vae_nn_forward(rx, state)[0].reshape(pol, 2, 40, 4)
    assert np.abs(q - vae_nn_forward_loop(rx, state)).max() <= 1e-12


def test_vae_nn_update_is_two_conv_nodes_and_five_adam_arrays(monkeypatch):
    # one update: two convolutions, one reverse pass, one Adam step over the
    # two weights, the two biases and the channel taps
    calls = {"conv1d_full": 0, "backward": 0}
    for name in calls:
        def counted(*args, _fn=getattr(eq.ad, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(eq.ad, name, counted)
    c = modem.build_constellation(64, 0.0)
    rng = np.random.default_rng(0)
    state = eq.VaeNnState(2, 2, 64, k1=29, k2=3, f_ch=25, rng=rng)
    rx = rng.standard_normal((2, 700)) + 1j * rng.standard_normal((2, 700))
    eq.vae_nn_step(state, rx, c, eq.UpdateSchedule(n_b=350, n_flex=350, lr=1e-3))
    assert calls == {"conv1d_full": 2, "backward": 1}
    assert len(state.adam.params) == 5


def test_vae_state_validation():
    with pytest.raises(ConfigError):
        eq.VaeLeState(1, 2, f_eq=10)
    with pytest.raises(ConfigError):
        eq.VaeLeState(1, 2, f_eq=11, f_ch=4)
    with pytest.raises(ConfigError):
        eq.VaeNnState(1, 2, 16, k1=4, k2=3, f_ch=11,
                      rng=np.random.default_rng(0))
    for k2 in (4, 7):
        with pytest.raises(ConfigError):
            eq.VaeNnState(1, 2, 16, k1=5, k2=k2, f_ch=11,
                          rng=np.random.default_rng(0))
