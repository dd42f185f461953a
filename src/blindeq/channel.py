"""Simulated channels: AWGN with intersymbol interference, and the linear
dispersive dual-polarization optical channel with optional frame-wise time
variation of the HV rotation angle.

The dual-polarization link is a rotation around a diagonal: per frequency
bin H(f) = R^T diag(e cd, cd / e) R, with R the HV rotation (and the IQ
phase) and the diagonal the PMD and dispersion phases.  It is applied in
that factored form, R^T IFFT(diag FFT(R x)), on one (pol, sample) array.

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


def _add_noise(out: np.ndarray, sigma_sq: float, rng: np.random.Generator) -> np.ndarray:
    """Add complex white noise of variance sigma_sq to ``out`` in place, I draws first."""
    s = np.sqrt(sigma_sq / 2.0)
    out.real += s * rng.standard_normal(out.shape)
    out.imag += s * rng.standard_normal(out.shape)
    return out


def oversampled_impulse_response(h_sim: np.ndarray, n_os: int) -> np.ndarray:
    """Zero-insert the symbol-spaced taps to n_os sps, at unit norm."""
    h = np.zeros(n_os * (len(h_sim) - 1) + 1, dtype=np.complex128)
    h[::n_os] = h_sim
    return h / np.linalg.norm(h)


def awgn_isi_apply(tx: np.ndarray, n_os: int, h_sim: np.ndarray, snr_db: float,
                   rng: np.random.Generator) -> np.ndarray:
    """y = h * x + n with an oversampling-aware noise power.

    ``tx`` is the already pulse-shaped (or zero-inserted) signal at n_os sps;
    h is h_sim zero-inserted to n_os sps, without interpolation.
    """
    out = convolve_same(tx, oversampled_impulse_response(h_sim, n_os))
    if np.isfinite(snr_db):
        _add_noise(out, noise_sigma_sq(out, n_os, snr_db), rng)
    return out


def dp_phases(f: np.ndarray, cfg) -> np.ndarray:
    """The diagonal of the link in its rotated basis at the frequencies ``f``
    (Hz): (2, n) rows e cd and cd / e, with e = e^{j pi tau f} the
    differential-group-delay phase and cd = e^{-j 2 pi^2 beta L f^2} the
    residual-dispersion phase.  It does not depend on the frame.

    Reads d_pmd, l_pmd, beta_cd and l_cd of ``cfg``, an ExperimentConfig.
    """
    tau = cfg.d_pmd * np.sqrt(cfg.l_pmd) * 1e-12  # differential group delay, s
    e = np.exp(1j * np.pi * tau * f)
    cd = np.exp(-2j * np.pi ** 2 * (cfg.beta_cd * cfg.l_cd * 1e-24) * f ** 2)
    return np.array([e * cd, cd / e])


def dp_apply(tx: np.ndarray, cfg, frame_index: int, diag: np.ndarray) -> np.ndarray:
    """Apply the channel, noiseless, to frame ``frame_index`` of the (2, n)
    (pol, sample) array ``tx`` at n_os sps: y = R^T IFFT(diag FFT(R x)), with
    ``diag`` the ``dp_phases`` of the transform's frequency grid and
    R = e^{-j phi_IQ} [[cos g, sin g], [-sin g, cos g]] at the frame's HV
    angle g.  phi_IQ enters through both R and R^T, so without
    birefringence or dispersion the link is the scalar phase
    e^{-2j phi_IQ}.  Reads the
    ExperimentConfig's phi_iq, n_frame, symbol_rate, gamma_hv and
    dgamma_hv."""
    gamma = cfg.gamma_hv + cfg.dgamma_hv * frame_index * (cfg.n_frame / cfg.symbol_rate)
    c, s = np.cos(gamma), np.sin(gamma)
    r = np.exp(-1j * cfg.phi_iq) * np.array([[c, s], [-s, c]])
    # einsum, not matmul: a (2, 2) @ (2, n) product goes to a threaded BLAS
    # zgemm, whose threads then compete with the receiver for the cores
    y = np.einsum("pq,qn->pn", r, tx)
    np.fft.fft(y, axis=1, out=y)  # the transforms run in y's own buffer
    y *= diag  # y times diag, not diag times y: the two can round differently
    np.fft.ifft(y, axis=1, out=y)
    return np.einsum("qp,qn->pn", r, y)


def dp_run(tx: np.ndarray, cfg, rng: np.random.Generator, guard: int = 256) -> np.ndarray:
    """Frame-by-frame application to the (2, n) (pol, sample) array ``tx``
    with the frame-wise gamma schedule; returns a new (2, n) array.

    Each frame is transformed with guard overlap taken from the neighbouring
    samples (zeros at the stream edges); the guards are discarded after the
    inverse transform to avoid inter-frame boundary artifacts.  ``guard`` is
    a lower bound: it is widened to the smallest guard for which the
    transform length, n_frame n_os + 2 guard, has no prime factor above 5
    (368 and 20,736 samples at the default frame), where the FFT is fast.
    Every frame has that length, so the frequency grid and the ``dp_phases``
    are built once; each frame then applies its own HV rotation.  Noise is
    added once over the assembled streams, in place, TE's draws before TM's.  Reads
    the ExperimentConfig's n_os, n_frame and snr_db, and what ``dp_apply``
    and ``dp_phases`` read.
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
    diag = dp_phases(frequency_grid(frame_samples + 2 * guard, cfg.n_os, cfg.symbol_rate), cfg)
    n_tot = tx.shape[1]
    out = np.empty((2, n_tot), dtype=np.complex128)
    for k in range(int(np.ceil(n_tot / frame_samples))):
        lo, hi = k * frame_samples, min((k + 1) * frame_samples, n_tot)
        glo, ghi = max(lo - guard, 0), min(hi + guard, n_tot)
        seg = np.pad(tx[:, glo:ghi], ((0, 0), (guard - (lo - glo), guard - (ghi - hi))))
        out[:, lo:hi] = dp_apply(seg, cfg, k, diag)[:, guard: guard + hi - lo]
    if np.isfinite(cfg.snr_db):
        sig = noise_sigma_sq(out, cfg.n_os, cfg.snr_db)
        for p in range(2):
            _add_noise(out[p], sig, rng)
    return out
