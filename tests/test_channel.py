"""Channel models: noise calibration, the ISI test channels, and the
dual-polarization frequency-domain channel."""

from dataclasses import replace

import numpy as np
import pytest

from blindeq import channel as ch
from blindeq import modem, sigproc
from blindeq.config import ExperimentConfig
from helpers import add_awgn_expression, dp_channel_matrix


def _dp(**kw) -> ExperimentConfig:
    """A dual-polarization link config, checked at load like any other."""
    return ExperimentConfig(seed=0, variant="dp_optical", **kw)


def test_isi_tap_tables():
    assert ch.H_SIM.shape == (5,)
    assert ch.H_SIM_2.shape == (4,)
    assert ch.H_SIM[0] == 0.055 + 0.05j


def test_noise_sigma_sq_convention():
    x = np.ones(1000, dtype=np.complex128)  # unit power
    assert abs(ch.noise_sigma_sq(x, 2, 20.0) - 0.02) < 1e-15
    assert abs(ch.noise_sigma_sq(x, 1, 10.0) - 0.1) < 1e-15


def test_add_awgn_statistics():
    rng = np.random.default_rng(0)
    n = 200_000
    # a unit-power stream at 1 sps and 10 log10(25) dB: sigma^2 = 0.04
    out = np.ones((1, n), dtype=np.complex128)
    ch._add_noise(out, 1, 10 * np.log10(25.0), rng)
    out -= 1.0
    assert abs(np.var(out.real) - 0.02) < 5e-4
    assert abs(np.var(out.imag) - 0.02) < 5e-4
    assert abs(np.mean(out)) < 1e-3


def _shaped_streams(rng: np.random.Generator, n_pol: int) -> np.ndarray:
    c = modem.build_constellation(16, 0.0)
    rrc = sigproc.rrc_taps(0.1, 32, 2)
    return np.stack([sigproc.shape(modem.sample_symbols(c, 3_000, rng), rrc, 2)
                     for _ in range(n_pol)])


def test_awgn_isi_noise_in_place_is_the_expression_bit_for_bit():
    # the channel adds its noise into the stream it owns, with the draws
    # and the result of the one-expression sum
    tx = _shaped_streams(np.random.default_rng(6), 1)[0]
    clean = ch.awgn_isi_apply(tx, 2, ch.H_SIM, np.inf, None)
    want = add_awgn_expression(clean, ch.noise_sigma_sq(clean, 2, 17.0),
                               np.random.default_rng(7))
    got = ch.awgn_isi_apply(tx, 2, ch.H_SIM, 17.0, np.random.default_rng(7))
    assert got.tobytes() == want.tobytes()


def test_dp_run_noise_in_place_is_the_expression_bit_for_bit():
    # the same on the DP link, TE's draws before TM's, at one noise variance
    tx = _shaped_streams(np.random.default_rng(8), 2)
    cfg = _dp(snr_db=17.0, n_frame=1_000, dgamma_hv=9e4)
    clean = ch.dp_run(tx, replace(cfg, snr_db=np.inf), None)
    sig, draws = ch.noise_sigma_sq(clean, cfg.n_os, cfg.snr_db), np.random.default_rng(9)
    want = np.stack([add_awgn_expression(row, sig, draws) for row in clean])
    got = ch.dp_run(tx, cfg, np.random.default_rng(9))
    assert got.tobytes() == want.tobytes()


def test_oversampled_impulse_response():
    h = ch.oversampled_impulse_response(ch.H_SIM, 2)
    assert h.shape == (9,)
    assert abs(np.linalg.norm(h) - 1.0) < 1e-12
    assert np.all(h[1::2] == 0)
    shaped = np.convolve(h, sigproc.rrc_taps(0.1, 8, 2))
    assert shaped.shape == (9 + 17 - 1,)


def test_awgn_isi_noiseless_is_convolution():
    rng = np.random.default_rng(1)
    c = modem.build_constellation(4, 0.0)
    s = modem.sample_symbols(c, 200, rng)
    tx = sigproc.upsample_zero_insert(s, 2)
    out = ch.awgn_isi_apply(tx, 2, ch.H_SIM, np.inf, rng)
    h = ch.oversampled_impulse_response(ch.H_SIM, 2)
    assert np.allclose(out, sigproc.convolve_same(tx, h))


def test_awgn_isi_snr_calibration():
    # identity channel: measured per-symbol Es/N0 must match the request
    rng = np.random.default_rng(2)
    c = modem.build_constellation(16, 0.0)
    s = modem.sample_symbols(c, 400_000, rng)
    tx = sigproc.upsample_zero_insert(s, 2)
    out = ch.awgn_isi_apply(tx, 2, np.array([1.0 + 0j]), 15.0, rng)
    noise = out - tx
    es = float(np.mean(np.abs(s) ** 2))
    # the receiver decimates to 1 sps, so N0 is the per-sample noise power
    n0 = float(np.mean(np.abs(noise) ** 2))
    snr_meas = 10 * np.log10(es / n0)
    assert abs(snr_meas - 15.0) < 0.05


def test_dp_matrix_unitary():
    cfg = _dp()
    f = np.linspace(-90e9, 90e9, 41)
    h = dp_channel_matrix(ch.dp_phases(f, cfg), cfg, cfg.gamma_hv)
    for k in range(f.shape[0]):
        m = h[:, :, k]
        assert np.allclose(m.conj().T @ m, np.eye(2), atol=1e-12)


def test_dp_matrix_no_pmd_is_scalar_phase():
    # without birefringence or dispersion the rotation cancels at every HV
    # angle: no cross-talk, only the IQ phase, which enters through both R
    # and R^T
    cfg = _dp(d_pmd=0.0, l_cd=0.0, dgamma_hv=9e5)
    rng = np.random.default_rng(8)
    tx = rng.standard_normal((2, 512)) + 1j * rng.standard_normal((2, 512))
    diag = ch.dp_phases(sigproc.frequency_grid(512, cfg.n_os, cfg.symbol_rate), cfg)
    for k in (0, 7):
        assert np.allclose(ch.dp_apply(tx, cfg, k, diag), np.exp(-2j * cfg.phi_iq) * tx,
                           rtol=0, atol=1e-12)


def test_dp_matrix_full_swap_at_45deg_half_dgd():
    # at 45 degrees and pi tau f = pi/2 the delay branches interfere
    # destructively on the diagonal: complete polarization swap
    cfg = _dp()
    tau = cfg.d_pmd * np.sqrt(cfg.l_pmd) * 1e-12  # DGD: ps / sqrt(km) times sqrt(km)
    h = dp_channel_matrix(ch.dp_phases(np.array([1.0 / (2.0 * tau)]), cfg), cfg, np.pi / 4)
    assert abs(h[0, 0, 0]) < 1e-12 and abs(h[1, 1, 0]) < 1e-12
    assert abs(abs(h[0, 1, 0]) - 1.0) < 1e-12


def test_gamma_schedule():
    # frame k sees the HV angle gamma_hv + dgamma_hv k n_frame / symbol_rate
    cfg = _dp(gamma_hv=0.1, dgamma_hv=9e4, symbol_rate=90e9, n_frame=10_000)
    rng = np.random.default_rng(6)
    tx = rng.standard_normal((2, 512)) + 1j * rng.standard_normal((2, 512))
    diag = ch.dp_phases(sigproc.frequency_grid(512, cfg.n_os, 90e9), cfg)
    for k, gamma in ((0, 0.1), (3, 0.1 + 9e4 * 3 * 10_000 / 90e9)):
        h = dp_channel_matrix(diag, cfg, gamma)
        f = np.fft.fft(tx, axis=1)
        ref = [np.fft.ifft(h[p, 0] * f[0] + h[p, 1] * f[1]) for p in (0, 1)]
        assert np.allclose(ch.dp_apply(tx, cfg, k, diag), ref, rtol=0, atol=1e-12)
    # the drift is visible: frame 3 is not frame 0
    assert not np.allclose(ch.dp_apply(tx, cfg, 3, diag), ch.dp_apply(tx, cfg, 0, diag),
                           atol=1e-3)


def test_dp_apply_energy_conserving():
    rng = np.random.default_rng(3)
    tx = rng.standard_normal((2, 4096)) + 1j * rng.standard_normal((2, 4096))
    cfg = _dp(snr_db=np.inf)
    diag = ch.dp_phases(sigproc.frequency_grid(4096, cfg.n_os, cfg.symbol_rate), cfg)
    out = ch.dp_apply(tx, cfg, 0, diag)
    e_in = np.sum(np.abs(tx) ** 2)
    e_out = np.sum(np.abs(out) ** 2)
    assert abs(e_out / e_in - 1.0) < 1e-12


def test_dp_run_matches_single_frame():
    # static channel: framed processing with guard overlap approaches the
    # single-transform reference as the guard grows (the residual comes from
    # the wrapped 1/t tails of the fractional PMD delay)
    rng = np.random.default_rng(4)
    c = modem.build_constellation(4, 0.0)
    n = 20_000
    rrc = sigproc.rrc_taps(0.1, 32, 2)
    tx = np.stack([sigproc.shape(modem.sample_symbols(c, n, rng), rrc, 2) for _ in range(2)])
    cfg = _dp(snr_db=np.inf, dgamma_hv=0.0, n_frame=5_000)
    ref = ch.dp_apply(tx, cfg, 0, ch.dp_phases(
        sigproc.frequency_grid(tx.shape[1], cfg.n_os, cfg.symbol_rate), cfg))
    sl = slice(2048, 2 * n - 2048)  # skip the stream edges

    def err(guard):
        out = ch.dp_run(tx, cfg, rng, guard=guard)
        return np.max(np.abs(out[:, sl] - ref[:, sl]))

    e_small, e_large = err(256), err(4096)
    assert e_large < 1e-4
    assert e_large < e_small


def _is_5_smooth(n: int) -> bool:
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


@pytest.mark.parametrize("n_frame, n_os", [(10_000, 2), (999, 1)])
def test_dp_run_transforms_at_the_next_5_smooth_length(monkeypatch, n_frame, n_os):
    # the default guard of 256 is a lower bound: each frame is transformed at
    # the smallest 5-smooth length of the frame's parity that it reaches
    lengths = []
    apply = ch.dp_apply

    def spy(tx, cfg, k, diag):
        lengths.append(tx.shape[1])
        return apply(tx, cfg, k, diag)

    monkeypatch.setattr(ch, "dp_apply", spy)
    tx = np.zeros((2, 2 * n_frame * n_os), dtype=np.complex128)
    tx[0] = 1.0
    ch.dp_run(tx, _dp(snr_db=np.inf, n_frame=n_frame, n_os=n_os), np.random.default_rng(0))
    (length,) = set(lengths)
    shortest = n_frame * n_os + 2 * 256
    assert length >= shortest and _is_5_smooth(length)
    assert not any(_is_5_smooth(k) for k in range(shortest, length, 2))
    if n_os == 2:
        assert length == 20_736
    else:
        assert length % 2 == 1


@pytest.mark.parametrize("beta_cd", [1470.0, -1470.0])
def test_dispersion_delays_a_tone_by_its_group_delay(beta_cd):
    # numpy's transform is X(f) = sum x e^{-j 2 pi f t}, so a delay tau
    # multiplies X(f) by e^{-j 2 pi f tau}, and the dispersion phase
    # -2 pi^2 beta L f^2 delays frequency f by tau = 2 pi beta L f (Agrawal's
    # fibre convention written for this transform sign).  With beta < 0, as
    # the default -26 ps^2/km, +f0 arrives before -f0.  The expected delay
    # is computed here from the config, not from dp_phases.
    cfg = _dp(snr_db=np.inf, gamma_hv=0.0, phi_iq=0.0, d_pmd=0.0, beta_cd=beta_cd,
              l_cd=1.0, n_frame=5_000)
    fs = cfg.n_os * cfg.symbol_rate
    t, t0 = np.arange(20_000), 5_000
    for f0 in (30e9, -30e9):
        tx = np.zeros((2, t.size), dtype=np.complex128)
        tx[0] = np.exp(-0.5 * ((t - t0) / 200.0) ** 2 + 2j * np.pi * f0 * t / fs)
        power = np.abs(ch.dp_run(tx, cfg, np.random.default_rng(0))[0]) ** 2
        delay = np.sum(t * power) / np.sum(power) - t0  # the envelope's centre, samples
        tau = 2 * np.pi * beta_cd * cfg.l_cd * 1e-24 * f0 * fs
        assert abs(tau) == pytest.approx(49.9, abs=0.1)
        assert delay == pytest.approx(tau, abs=1.0)


def test_dp_run_time_varying_changes_frames():
    rng = np.random.default_rng(5)
    n = 8_000
    tx = np.zeros((2, n), dtype=np.complex128)
    tx[0] = 1.0
    out_b = ch.dp_run(tx, _dp(snr_db=np.inf, dgamma_hv=5e5, n_frame=2_000), rng)[1]
    # leakage into the orthogonal polarization grows with the rotation drift
    first = np.mean(np.abs(out_b[500:3500]))
    last = np.mean(np.abs(out_b[-3500:-500]))
    assert last != pytest.approx(first, rel=1e-3)
