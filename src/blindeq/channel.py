"""Simulated channels: AWGN with intersymbol interference, and the linear
dispersive dual-polarization optical channel with optional frame-wise time
variation of the HV rotation angle.

SNR convention: snr_db is Es/N0 per symbol with the constellation
normalized to unit energy.  The injected complex noise variance per sample
is sigma_w^2 = P_rx * n_os * 10^(-snr/10), with P_rx the measured mean
sample power, so that the per-symbol SNR is independent of oversampling;
each of I and Q receives variance sigma_w^2 / 2.
"""

from __future__ import annotations

import numpy as np

from .sigproc import convolve_same, frequency_grid

# complex 5-tap ISI test channel (h1 in the literature)
H_SIM = np.array([0.055 + 0.05j, 0.283 - 0.12j, -0.768 + 0.279j,
                  -0.064 - 0.058j, 0.047 - 0.023j])
# shorter 4-tap variant (h2)
H_SIM_2 = np.array([0.055 + 0.017j, -1.345 - 0.452j, 1.007 + 1.152j, 0.348 + 0.315j])
H_SIMS = {"h1": H_SIM, "h2": H_SIM_2}  # by ExperimentConfig.h_sim


def noise_sigma_sq(samples: np.ndarray, n_os: int, snr_db: float) -> float:
    """Complex noise variance per sample for the requested per-symbol SNR."""
    p_rx = float(np.mean(np.abs(samples) ** 2))
    return p_rx * n_os * 10.0 ** (-snr_db / 10.0)


def add_awgn(samples: np.ndarray, sigma_sq: float, rng: np.random.Generator) -> np.ndarray:
    s = np.sqrt(sigma_sq / 2.0)
    return samples + s * (rng.standard_normal(samples.shape)
                          + 1j * rng.standard_normal(samples.shape))


def oversampled_impulse_response(h_sim: np.ndarray, n_os: int,
                                 rrc: np.ndarray | None = None) -> np.ndarray:
    """Zero-insert the symbol-spaced taps to n_os sps (unit norm) and, when a
    pulse is given, interpolate by convolving with it."""
    h = np.zeros(n_os * (len(h_sim) - 1) + 1, dtype=np.complex128)
    h[::n_os] = h_sim
    h = h / np.linalg.norm(h)
    if rrc is not None:
        h = np.convolve(h, rrc)
    return h


def awgn_isi_apply(tx: np.ndarray, n_os: int, h_sim: np.ndarray, snr_db: float,
                   rng: np.random.Generator) -> np.ndarray:
    """y = h * x + n with an oversampling-aware noise power.

    ``tx`` is the already pulse-shaped (or zero-inserted) signal at n_os sps;
    h is h_sim zero-inserted to n_os sps, without interpolation.
    """
    out = convolve_same(tx, oversampled_impulse_response(h_sim, n_os))
    if np.isfinite(snr_db):
        out = add_awgn(out, noise_sigma_sq(out, n_os, snr_db), rng)
    return out


def dp_phases(f: np.ndarray, cfg) -> tuple[np.ndarray, np.ndarray]:
    """The channel's frame-independent factors at the frequencies ``f`` (Hz):
    the differential-group-delay phase e^{j pi tau f} and the
    residual-dispersion phase e^{-j 2 pi^2 beta L f^2}.

    Reads d_pmd, l_pmd, beta_cd and l_cd of ``cfg``, an ExperimentConfig.
    """
    tau = cfg.d_pmd * np.sqrt(cfg.l_pmd) * 1e-12  # differential group delay, s
    e = np.exp(1j * np.pi * tau * f)
    cd = np.exp(-2j * np.pi ** 2 * (cfg.beta_cd * cfg.l_cd * 1e-24) * f ** 2)
    return e, cd


def dp_channel_matrix(phases: tuple[np.ndarray, np.ndarray], cfg, gamma: float) -> np.ndarray:
    """Frequency-domain 2x2 channel at HV angle ``gamma``: R^T diag(e, 1/e) R
    times cd, with (e, cd) = ``phases``, the ``dp_phases`` of a frequency
    grid.

    Reads phi_iq of ``cfg``.  Returns shape (2, 2, n) for n frequencies,
    unitary up to the global phases.
    """
    c, s = np.cos(gamma), np.sin(gamma)
    phase = np.exp(-1j * cfg.phi_iq)
    r = phase * np.array([[c, s], [-s, c]])
    e, cd = phases
    h = np.empty((2, 2, e.shape[0]), dtype=np.complex128)
    # R^T diag(e, 1/e) R, expanded per frequency bin
    h[0, 0] = r[0, 0] * r[0, 0] * e + r[1, 0] * r[1, 0] / e
    h[0, 1] = r[0, 0] * r[0, 1] * e + r[1, 0] * r[1, 1] / e
    h[1, 0] = r[0, 1] * r[0, 0] * e + r[1, 1] * r[1, 0] / e
    h[1, 1] = r[0, 1] * r[0, 1] * e + r[1, 1] * r[1, 1] / e
    return h * cd


def dp_apply(tx_te: np.ndarray, tx_tm: np.ndarray, cfg, frame_index: int,
             phases: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Apply the frequency-domain channel, noiseless, to frame ``frame_index``
    of samples at n_os sps, with ``phases`` the ``dp_phases`` of the
    transform's frequency grid.  Reads the ExperimentConfig's n_frame,
    symbol_rate, gamma_hv and dgamma_hv, and what ``dp_channel_matrix``
    reads."""
    gamma = cfg.gamma_hv + cfg.dgamma_hv * frame_index * (cfg.n_frame / cfg.symbol_rate)
    h = dp_channel_matrix(phases, cfg, gamma)
    a = np.fft.fft(tx_te)
    b = np.fft.fft(tx_tm)
    return np.fft.ifft(h[0, 0] * a + h[0, 1] * b), np.fft.ifft(h[1, 0] * a + h[1, 1] * b)


def dp_run(tx_te: np.ndarray, tx_tm: np.ndarray, cfg,
           rng: np.random.Generator, guard: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """Frame-by-frame application with the frame-wise gamma schedule.

    Each frame is transformed with guard overlap taken from the neighbouring
    samples (zeros at the stream edges); the guards are discarded after the
    inverse transform to avoid inter-frame boundary artifacts.  ``guard`` is
    a lower bound: it is widened to the smallest guard for which the
    transform length, n_frame n_os + 2 guard, has no prime factor above 5
    (368 and 20,736 samples at the default frame), where the FFT is fast.
    Every frame has that length, so the frequency grid and the ``dp_phases``
    are built once; each frame then applies its own HV rotation.  Noise is
    added once over the assembled stream.  Reads the ExperimentConfig's
    n_os, n_frame and snr_db, and what ``dp_apply`` and ``dp_phases`` read.
    """
    frame_samples = cfg.n_frame * cfg.n_os
    while True:  # step by 1, so an odd frame reaches an odd 5-smooth length
        n = frame_samples + 2 * guard
        for p in (2, 3, 5):
            while n % p == 0:
                n //= p
        if n == 1:
            break
        guard += 1
    phases = dp_phases(frequency_grid(frame_samples + 2 * guard, cfg.n_os, cfg.symbol_rate), cfg)
    n_tot = tx_te.shape[0]
    out_te = np.empty(n_tot, dtype=np.complex128)
    out_tm = np.empty(n_tot, dtype=np.complex128)
    n_frames = int(np.ceil(n_tot / frame_samples))
    for k in range(n_frames):
        lo, hi = k * frame_samples, min((k + 1) * frame_samples, n_tot)
        glo, ghi = max(lo - guard, 0), min(hi + guard, n_tot)
        pre, post = lo - glo, ghi - hi
        seg_te = np.pad(tx_te[glo:ghi], (guard - pre, guard - post))
        seg_tm = np.pad(tx_tm[glo:ghi], (guard - pre, guard - post))
        r_te, r_tm = dp_apply(seg_te, seg_tm, cfg, k, phases)
        out_te[lo:hi] = r_te[guard: guard + hi - lo]
        out_tm[lo:hi] = r_tm[guard: guard + hi - lo]
    if np.isfinite(cfg.snr_db):
        sig = noise_sigma_sq(np.concatenate([out_te, out_tm]), cfg.n_os, cfg.snr_db)
        out_te = add_awgn(out_te, sig, rng)
        out_tm = add_awgn(out_tm, sig, rng)
    return out_te, out_tm
