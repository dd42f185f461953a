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

from dataclasses import dataclass, field

import numpy as np

from .sigproc import convolve_same, frequency_grid

# complex 5-tap ISI test channel (h1 in the literature)
H_SIM = np.array([0.055 + 0.05j, 0.283 - 0.12j, -0.768 + 0.279j,
                  -0.064 - 0.058j, 0.047 - 0.023j])
# shorter 4-tap variant (h2)
H_SIM_2 = np.array([0.055 + 0.017j, -1.345 - 0.452j, 1.007 + 1.152j, 0.348 + 0.315j])


@dataclass
class ChannelParams:
    h_sim: np.ndarray = field(default_factory=lambda: H_SIM.copy())
    gamma_hv: float = 0.1 * np.pi        # HV phase shift, rad
    phi_iq: float = 0.01 * np.pi         # IQ phase shift, rad
    d_pmd: float = 0.1                   # ps / sqrt(km)
    l_pmd: float = 1000.0                # km
    beta_cd: float = -26.0               # ps^2 / km
    l_cd: float = 1.0                    # km (residual, uncompensated)
    dgamma_hv: float = 0.0               # rad / s
    symbol_rate: float = 90e9            # Bd
    snr_db: float = 20.0
    n_frame: int = 10_000                # symbols per frame (time-variation grid)

    @property
    def tau_pmd(self) -> float:
        """Differential group delay in seconds."""
        return self.d_pmd * np.sqrt(self.l_pmd) * 1e-12

    @property
    def cd_coeff(self) -> float:
        """beta_cd * l_cd in s^2."""
        return self.beta_cd * self.l_cd * 1e-24

    @property
    def t_frame(self) -> float:
        return self.n_frame / self.symbol_rate

    def gamma_eff(self, frame_index: int) -> float:
        return self.gamma_hv + self.dgamma_hv * frame_index * self.t_frame


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


def awgn_isi_apply(tx: np.ndarray, n_os: int, p: ChannelParams,
                   rng: np.random.Generator) -> np.ndarray:
    """y = h * x + n with an oversampling-aware noise power.

    ``tx`` is the already pulse-shaped (or zero-inserted) signal at n_os sps;
    h is p.h_sim zero-inserted to n_os sps, without interpolation.
    """
    out = convolve_same(tx, oversampled_impulse_response(p.h_sim, n_os))
    if np.isfinite(p.snr_db):
        out = add_awgn(out, noise_sigma_sq(out, n_os, p.snr_db), rng)
    return out


def dp_channel_matrix(f: np.ndarray, p: ChannelParams, gamma_eff: float) -> np.ndarray:
    """Frequency-domain 2x2 channel: R^T diag(e^{j pi tau f}, e^{-j pi tau f}) R
    times the residual-dispersion phase e^{-j 2 pi^2 beta L f^2}.

    Returns shape (2, 2, len(f)); unitary up to the global phases.
    """
    f = np.atleast_1d(np.asarray(f, dtype=np.float64))
    c, s = np.cos(gamma_eff), np.sin(gamma_eff)
    phase = np.exp(-1j * p.phi_iq)
    r = phase * np.array([[c, s], [-s, c]])
    e = np.exp(1j * np.pi * p.tau_pmd * f)
    cd = np.exp(-2j * np.pi ** 2 * p.cd_coeff * f ** 2)
    h = np.empty((2, 2, f.shape[0]), dtype=np.complex128)
    # R^T diag(e, 1/e) R, expanded per frequency bin
    h[0, 0] = r[0, 0] * r[0, 0] * e + r[1, 0] * r[1, 0] / e
    h[0, 1] = r[0, 0] * r[0, 1] * e + r[1, 0] * r[1, 1] / e
    h[1, 0] = r[0, 1] * r[0, 0] * e + r[1, 1] * r[1, 0] / e
    h[1, 1] = r[0, 1] * r[0, 1] * e + r[1, 1] * r[1, 1] / e
    return h * cd


def dp_apply(tx_te: np.ndarray, tx_tm: np.ndarray, n_os: int, p: ChannelParams,
             frame_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Apply the frequency-domain channel, noiseless, to one frame of samples
    at n_os sps."""
    f = frequency_grid(tx_te.shape[0], n_os, p.symbol_rate)
    h = dp_channel_matrix(f, p, p.gamma_eff(frame_index))
    a = np.fft.fft(tx_te)
    b = np.fft.fft(tx_tm)
    return np.fft.ifft(h[0, 0] * a + h[0, 1] * b), np.fft.ifft(h[1, 0] * a + h[1, 1] * b)


def dp_run(tx_te: np.ndarray, tx_tm: np.ndarray, n_os: int, p: ChannelParams,
           rng: np.random.Generator, guard: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """Frame-by-frame application with the frame-wise gamma schedule.

    Each frame is transformed with guard overlap taken from the neighbouring
    samples (zeros at the stream edges); the guards are discarded after the
    inverse transform to avoid inter-frame boundary artifacts.  Noise is
    added once over the assembled stream.
    """
    frame_samples = p.n_frame * n_os
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
        r_te, r_tm = dp_apply(seg_te, seg_tm, n_os, p, k)
        out_te[lo:hi] = r_te[guard: guard + hi - lo]
        out_tm[lo:hi] = r_tm[guard: guard + hi - lo]
    if np.isfinite(p.snr_db):
        sig = noise_sigma_sq(np.concatenate([out_te, out_tm]), n_os, p.snr_db)
        out_te = add_awgn(out_te, sig, rng)
        out_tm = add_awgn(out_tm, sig, rng)
    return out_te, out_tm
