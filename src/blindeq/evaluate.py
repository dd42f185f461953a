"""Monte-Carlo evaluation: phase/conjugation/shift/pol-swap ambiguity
resolution, symbol-error-rate statistics, and the noise-variance and
channel-estimate reports.  Streams hold whole frames and are read as
reshapes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .modem import Constellation, map_decide

# the blind receivers leave a phase ambiguity of multiples of pi/4 (pi/2 from
# the constellation symmetry, pi/4 from the fourth-power CPE convention) plus
# a possible conjugation
_ROTATIONS = np.exp(1j * np.pi / 4.0 * np.arange(8))


@dataclass
class Alignment:
    shift: int          # x_hat[i + shift] lines up with ref[i]
    rotation: int       # index into the 8 pi/4 rotations
    conjugate: bool
    ser: float


# The I and Q decisions of x w^r, r = 0..7, then of conj(x) w^r, as rows of the
# stacked decisions of x, x w, -x, -x w (w = e^{j pi/4}; row 2 * (2 * negated +
# b) + component): w^(2k+b) = w^b j^k, and j maps (u, v) to (-v, u);
# conj(x) w^r = conj(x w^-r), and conj maps (u, v) to (u, -v).
_DECISION_ROWS = np.reshape([0, 1, 2, 3, 5, 0, 7, 2, 4, 5, 6, 7, 1, 4, 3, 6,
                             0, 5, 3, 2, 1, 0, 6, 3, 4, 1, 7, 6, 5, 4, 2, 7], (16, 2))


def _candidate_shifts(x_hat: np.ndarray, ref: np.ndarray, max_shift: int):
    """Correlation-peak shift candidates (first peak by lag) for the plain and
    conjugated frame."""
    m = min(max_shift, ref.shape[0] - 1)
    cands = {0}
    for sig in (x_hat, np.conj(x_hat)):
        # corr[j] = sum_i sig[i + j - m] conj(ref[i]) over the overlap at lag j - m
        corr = np.correlate(np.pad(sig, m), ref, mode="valid")
        cands.add(int(np.argmax(np.abs(corr))) - m)
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
    The reference must be the transmitted constellation points: the decided
    levels are compared with its I and Q components as they are.  The zero
    shift always leaves symbols to score, as ``ExperimentConfig`` rejects
    frames no longer than twice the edge trim.
    """
    amp = np.mean(np.abs(x_hat))
    if amp > 0:
        x_hat = x_hat * (np.mean(np.abs(ref)) / amp)
    n = ref.shape[0]
    ref_iq = np.stack([ref.real, ref.imag])
    dec = np.empty((8, n))  # the decided levels of x, x w, -x, -x w, one at a time
    for k in range(4):
        v = x_hat * _ROTATIONS[k % 2]
        dec[2 * k: 2 * k + 2] = c.levels[np.stack(map_decide(-v if k >= 2 else v, c, sigma_sq))]
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
            best = Alignment(shift=s, rotation=k % 8, conjugate=k >= 8, ser=ser)
    return best


def resolve_pol_pairing(x_hat: np.ndarray, ref: np.ndarray, c: Constellation,
                        sigma_sq: float, n_frame: int) -> tuple[int, ...]:
    """Run-level polarization assignment (identity or swap), decided once on
    the last frame by total minimum SER; a tie keeps the identity."""
    if x_hat.shape[0] == 1:
        return (0,)
    costs = {perm: sum(resolve_ambiguity(x_hat[q, -n_frame:], ref[p, -n_frame:], c,
                                         sigma_sq).ser for p, q in enumerate(perm))
             for perm in ((0, 1), (1, 0))}
    return min(costs, key=costs.get)


def frame_ser_curve(x_hat: np.ndarray, ref: np.ndarray, c: Constellation,
                    sigma_sq: np.ndarray, n_frame: int, edge_trim: int) -> np.ndarray:
    """Per-frame SER with per-frame ambiguity resolution of (..., n) streams,
    each row of x_hat scored against the same row of ref; sigma_sq holds one
    decision variance per frame, shared by the rows.  Returns (..., n / n_frame)."""
    sig = np.broadcast_to(sigma_sq, x_hat.shape[:-1] + sigma_sq.shape).ravel()
    frames = zip(x_hat.reshape(-1, n_frame), ref.reshape(-1, n_frame), sig, strict=True)
    return np.array([resolve_ambiguity(h, r, c, float(s), edge_trim=edge_trim).ser
                     for h, r, s in frames]).reshape(x_hat.shape[:-1] + (-1,))


@dataclass
class SerReport:
    final_ser: float            # min over MA indices of the successful mean
    n_success: int              # successful (run, pol) traces
    n_fail: int


def aggregate_runs(ma: np.ndarray, threshold: float) -> SerReport:
    """Combine per-(run, pol) moving-average SER curves, (n_traces, n_ma).

    A trace is successful iff its minimum MA value is below the threshold;
    unsuccessful traces are excluded from the mean but counted.  When every
    trace fails, the report carries final_ser = 1.0.
    """
    success = ma.min(axis=1) < threshold
    n_s = int(success.sum())
    if n_s == 0:
        return SerReport(final_ser=1.0, n_success=0, n_fail=ma.shape[0])
    mean = ma[success].mean(axis=0)
    return SerReport(final_ser=float(mean.min()), n_success=n_s,
                     n_fail=int(ma.shape[0] - n_s))


def snr_report(sigma_sq: np.ndarray) -> np.ndarray:
    """Estimated SNR in dB from noise-variance estimates (unit Es / sigma^2)."""
    if np.any(sigma_sq <= 0):
        raise ConfigError("noise-variance estimates must be positive")
    return 10.0 * np.log10(1.0 / sigma_sq)


def ip_nmse_db(h_est: np.ndarray, h_true: np.ndarray) -> float:
    """Compare an estimated impulse response against the truth, in dB.

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
    denom = float((np.conj(ref) @ ref).real)
    if denom == 0.0:
        raise ConfigError("impulse responses do not overlap after alignment")
    gain = complex(np.conj(ref) @ h_est / denom)
    aligned = gain * ref
    err = float(np.linalg.norm(h_est - aligned) ** 2)
    power = float(np.linalg.norm(aligned) ** 2)
    if power == 0.0:
        raise ConfigError("estimate has no component along the aligned truth")
    return 10.0 * np.log10(max(err / power, 1e-30))
