"""Monte-Carlo evaluation: frame slicing, phase/conjugation/shift/pol-swap
ambiguity resolution, symbol-error-rate statistics, and the noise-variance
and channel-estimate reports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .modem import Constellation, map_decide, symbol_indices

# the blind receivers leave a phase ambiguity of multiples of pi/4 (pi/2 from
# the constellation symmetry, pi/4 from the fourth-power CPE convention) plus
# a possible conjugation
_ROTATIONS = np.exp(1j * np.pi / 4.0 * np.arange(8))


def slice_frames(x: np.ndarray, n_frame: int) -> np.ndarray:
    """Split a symbol vector into complete frames, shape (n_ind, n_frame)."""
    x = np.asarray(x)
    if x.ndim != 1:
        raise ConfigError(f"slice_frames expects a 1-D vector, got {x.shape}")
    n_ind = x.shape[0] // n_frame
    if n_ind == 0:
        raise ConfigError(f"need at least {n_frame} symbols, got {x.shape[0]}")
    return x[: n_ind * n_frame].reshape(n_ind, n_frame)


@dataclass
class Alignment:
    shift: int          # x_hat[i + shift] lines up with ref[i]
    rotation: int       # index into the 8 pi/4 rotations
    conjugate: bool
    ser: float
    n_eval: int


# The I and Q decisions of x w^r, r = 0..7, then of conj(x) w^r, as rows of the
# stacked decisions of x, x w, -x, -x w (w = e^{j pi/4}; row 2 * (2 * negated +
# b) + component): w^(2k+b) = w^b j^k, and j maps (u, v) to (-v, u);
# conj(x) w^r = conj(x w^-r), and conj maps (u, v) to (u, -v).
_DECISION_ROWS = np.reshape([0, 1, 2, 3, 5, 0, 7, 2, 4, 5, 6, 7, 1, 4, 3, 6,
                             0, 5, 3, 2, 1, 0, 6, 3, 4, 1, 7, 6, 5, 4, 2, 7], (16, 2))


def _candidate_shifts(x_hat: np.ndarray, ref: np.ndarray, max_shift: int):
    """Correlation-peak shift candidates (first peak by lag) for the plain and
    conjugated frame."""
    n = ref.shape[0]
    lags = np.arange(-min(max_shift, n - 1), min(max_shift, n - 1) + 1)
    cands = {0}
    for sig in (x_hat, np.conj(x_hat)):
        # sum_i sig[i + l] conj(ref[i]) over the overlap at lag l
        corr = [np.vdot(ref[max(-l, 0): n - max(l, 0)], sig[max(l, 0): n - max(-l, 0)])
                for l in lags]
        cands.add(int(lags[np.argmax(np.abs(corr))]))
    return sorted(cands)


def resolve_ambiguity(x_hat: np.ndarray, ref: np.ndarray, c: Constellation,
                      sigma_sq: float, max_shift: int = 50,
                      edge_trim: int = 0) -> Alignment:
    """Minimum-SER alignment over shift, pi/4 rotations, and conjugation.

    Shifts are restricted to correlation-peak candidates (always including
    zero, so the result is never worse than the identity alignment);
    rotations and conjugation are searched exhaustively, the first minimum in
    the order (shift, conjugate, rotation) winning.  The estimate is
    amplitude-normalized to the reference before decisions, removing the
    residual gain ambiguity of blind equalizers.  Only x, x w, -x and -x w are
    decided (-x not mirrored from x, as 0 and NaN decide one-sided).
    """
    if x_hat.shape != ref.shape:
        raise ConfigError(f"shape mismatch: {x_hat.shape} vs {ref.shape}")
    amp = np.mean(np.abs(x_hat))
    if amp > 0:
        x_hat = x_hat * (np.mean(np.abs(ref)) / amp)
    n = ref.shape[0]
    ref_iq = np.stack(symbol_indices(c, ref))
    z = [x_hat * _ROTATIONS[0], x_hat * _ROTATIONS[1]]
    dec = np.reshape([map_decide(v, c, sigma_sq) for v in z + [-z[0], -z[1]]], (8, n))
    best = None
    for s in _candidate_shifts(x_hat, ref, max_shift):
        lo_hat, lo_ref = max(s, 0) + edge_trim, max(-s, 0) + edge_trim
        length = n - abs(s) - 2 * edge_trim
        if length <= 0:
            continue
        seg = dec[:, lo_hat: lo_hat + length]
        miss_i, miss_q = seg != ref_iq[:, None, lo_ref: lo_ref + length]
        err = np.count_nonzero(miss_i[_DECISION_ROWS[:, 0]] | miss_q[_DECISION_ROWS[:, 1]],
                               axis=1)
        k = int(np.argmin(err))
        ser = int(err[k]) / length
        if best is None or ser < best.ser:
            best = Alignment(shift=s, rotation=k % 8, conjugate=k >= 8,
                             ser=ser, n_eval=length)
    if best is None:
        raise ConfigError(f"edge_trim {edge_trim} leaves no symbols to compare")
    return best


def resolve_pol_pairing(x_hat: np.ndarray, ref: np.ndarray, c: Constellation,
                        sigma_sq: float, frame: int = -1,
                        n_frame: int = 10_000) -> tuple[int, ...]:
    """Run-level polarization assignment (identity or swap), decided once on
    a single frame by total minimum SER."""
    pol = x_hat.shape[0]
    if pol == 1:
        return (0,)
    frames_hat = [slice_frames(x_hat[p], n_frame)[frame] for p in range(pol)]
    frames_ref = [slice_frames(ref[p], n_frame)[frame] for p in range(pol)]
    costs = {}
    for perm in ((0, 1), (1, 0)):
        costs[perm] = sum(
            resolve_ambiguity(frames_hat[perm[p]], frames_ref[p], c, sigma_sq).ser
            for p in range(pol))
    return min(costs, key=costs.get)


def moving_average(x: np.ndarray, window: int = 10) -> np.ndarray:
    """Trailing-window mean over frame-wise values, length n - window + 1."""
    x = np.asarray(x, dtype=np.float64)
    if window < 1 or window > x.shape[0]:
        raise ConfigError(f"window {window} invalid for {x.shape[0]} frames")
    kernel = np.full(window, 1.0 / window)
    return np.convolve(x, kernel, mode="valid")


def frame_ser_curve(x_hat: np.ndarray, ref: np.ndarray, c: Constellation,
                    sigma_sq, n_frame: int = 10_000, edge_trim: int = 0,
                    max_shift: int = 50) -> np.ndarray:
    """Per-frame SER with per-frame ambiguity resolution, one polarization.

    sigma_sq may be a scalar or a per-frame vector (estimates from training).
    """
    fh = slice_frames(x_hat, n_frame)
    fr = slice_frames(ref[: fh.size], n_frame)
    sig = np.broadcast_to(np.asarray(sigma_sq, dtype=np.float64), (fh.shape[0],))
    out = np.empty(fh.shape[0])
    for k in range(fh.shape[0]):
        out[k] = resolve_ambiguity(fh[k], fr[k], c, float(sig[k]),
                                   max_shift=max_shift, edge_trim=edge_trim).ser
    return out


@dataclass
class SerReport:
    final_ser: float            # min over MA indices of the successful mean
    ma_mean: np.ndarray         # mean MA curve over successful traces
    n_success: int              # successful (run, pol) traces
    n_fail: int
    per_trace: np.ndarray       # (n_traces, n_ma) MA curves


def aggregate_runs(ma_curves: np.ndarray, threshold: float = 0.3) -> SerReport:
    """Combine per-(run, pol) moving-average SER curves.

    A trace is successful iff its minimum MA value is below the threshold;
    unsuccessful traces are excluded from the mean but counted.  When every
    trace fails, the report carries final_ser = 1.0.
    """
    ma = np.asarray(ma_curves, dtype=np.float64)
    if ma.ndim != 2:
        raise ConfigError(f"expected (n_traces, n_ma) curves, got {ma.shape}")
    success = ma.min(axis=1) < threshold
    n_s = int(success.sum())
    if n_s == 0:
        return SerReport(final_ser=1.0, ma_mean=np.ones(ma.shape[1]),
                         n_success=0, n_fail=ma.shape[0], per_trace=ma)
    mean = ma[success].mean(axis=0)
    return SerReport(final_ser=float(mean.min()), ma_mean=mean,
                     n_success=n_s, n_fail=int(ma.shape[0] - n_s), per_trace=ma)


def snr_report(sigma_sq, es: float = 1.0) -> np.ndarray:
    """Estimated SNR in dB from noise-variance estimates (Es / sigma^2)."""
    sig = np.asarray(sigma_sq, dtype=np.float64)
    if np.any(sig <= 0):
        raise ConfigError("noise-variance estimates must be positive")
    return 10.0 * np.log10(es / sig)


@dataclass
class IpReport:
    nmse: float                 # normalized MSE after alignment, linear
    nmse_db: float
    shift: int
    gain: complex               # complex scale applied to the true response
    h_est: np.ndarray
    h_ref_aligned: np.ndarray   # gain * shifted true response on the est grid


def ip_report(h_est: np.ndarray, h_true: np.ndarray) -> IpReport:
    """Compare an estimated impulse response against the truth.

    The estimate carries the blind delay/phase/gain ambiguity, so the truth
    is aligned by the correlation peak and a complex least-squares gain
    before computing ||h_est - g h_true|| ^ 2 / ||g h_true|| ^ 2.
    """
    h_est = np.asarray(h_est, dtype=np.complex128).ravel()
    h_true = np.asarray(h_true, dtype=np.complex128).ravel()
    corr = np.correlate(h_est, h_true, mode="full")
    lag = int(np.argmax(np.abs(corr))) - (h_true.shape[0] - 1)
    ref = np.zeros_like(h_est)
    lo = max(lag, 0)
    hi = min(lag + h_true.shape[0], h_est.shape[0])
    ref[lo:hi] = h_true[lo - lag: hi - lag]
    denom = float(np.vdot(ref, ref).real)
    if denom == 0.0:
        raise ConfigError("impulse responses do not overlap after alignment")
    gain = complex(np.vdot(ref, h_est) / denom)
    aligned = gain * ref
    err = float(np.linalg.norm(h_est - aligned) ** 2)
    power = float(np.linalg.norm(aligned) ** 2)
    if power == 0.0:
        raise ConfigError("estimate has no component along the aligned truth")
    nmse = err / power
    return IpReport(nmse=nmse, nmse_db=10.0 * np.log10(max(nmse, 1e-30)),
                    shift=lag, gain=gain, h_est=h_est, h_ref_aligned=aligned)
