"""Monte-Carlo evaluation: phase/conjugation/shift/pol-swap ambiguity
resolution, symbol-error-rate statistics, and the noise-variance and
channel-estimate reports.  Streams hold whole frames and are read as
reshapes."""

from __future__ import annotations

from dataclasses import dataclass, field

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
    # the decided frame the alignment was chosen on, which re-scores at any trim
    frame: DecidedFrame | None = field(default=None, compare=False, repr=False)


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


@dataclass
class DecidedFrame:
    """One frame's MAP level indices and shift candidates, and a view of its
    reference: all that scoring at an edge trim needs, and small to hold."""
    dec: np.ndarray         # (8, n) level indices of the I and Q of x, x w, -x, -x w
    levels: np.ndarray      # the constellation's levels
    ref: np.ndarray         # (n,) the transmitted points
    shifts: list[int]

    def align(self, edge_trim: int) -> Alignment:
        """The first minimum-SER alignment in the order (shift, conjugate,
        rotation), scoring each shift's overlap less edge_trim at both ends."""
        n = self.ref.shape[0]
        dec = self.levels[self.dec]
        ref_iq = np.stack([self.ref.real, self.ref.imag])
        best = None
        for s in self.shifts:
            lo_hat, lo_ref = max(s, 0) + edge_trim, max(-s, 0) + edge_trim
            length = n - abs(s) - 2 * edge_trim
            if length <= 0:
                continue
            # (2, 8, length) misses against the I and Q reference, packed 8 symbols a byte
            miss = np.packbits(dec[:, lo_hat: lo_hat + length]
                               != ref_iq[:, None, lo_ref: lo_ref + length], axis=-1)
            err = np.bitwise_count(miss[0, _DECISION_ROWS[:, 0]]
                                   | miss[1, _DECISION_ROWS[:, 1]]).sum(axis=1)
            k = int(np.argmin(err))
            ser = int(err[k]) / length
            if best is None or ser < best.ser:
                best = Alignment(shift=s, rotation=k % 8, conjugate=k >= 8, ser=ser,
                                 frame=self)
        return best


def resolve_ambiguity(x_hat: np.ndarray, ref: np.ndarray, c: Constellation,
                      sigma_sq: float, max_shift: int = 50,
                      edge_trim: int = 0) -> Alignment:
    """Minimum-SER alignment over shift, pi/4 rotations, and conjugation.

    Shifts are restricted to correlation-peak candidates (always including
    zero, so the result is never worse than the identity alignment);
    rotations and conjugation are searched exhaustively, the first minimum in
    the order (shift, conjugate, rotation) winning.  The estimate is
    amplitude-normalized to the reference before decisions, removing the
    residual gain ambiguity of blind equalizers.  Only x and x w are decided:
    the MAP boundaries are antisymmetric, so -x and -x w take the mirrored
    levels, except at +-0 and NaN, which decide as x does.  The result's
    ``frame`` re-scores the same decisions at another edge trim.
    The reference must be the transmitted constellation points: the decided
    levels are compared with its I and Q components as they are.  The zero
    shift always leaves symbols to score, as ``ExperimentConfig`` rejects
    frames no longer than twice the edge trim.
    """
    amp = np.mean(np.abs(x_hat))
    if amp > 0:
        x_hat = x_hat * (np.mean(np.abs(ref)) / amp)
    # the level indices of x, x w, -x, -x w, in map_decide's index type
    dec = np.empty((8, ref.shape[0]), dtype=np.min_scalar_type(c.n_levels - 1))
    for k in range(2):
        v = x_hat * _ROTATIONS[k]
        plain, negated = dec[2 * k: 2 * k + 2], dec[4 + 2 * k: 6 + 2 * k]
        plain[:] = map_decide(v, c, sigma_sq)
        # -v takes v's mirrored index L - 1 - i, but +-0 and NaN decide as v does
        np.subtract(c.n_levels - 1, plain, out=negated)
        iq = np.stack([v.real, v.imag])
        np.copyto(negated, plain, where=np.isnan(iq) | (iq == 0))
    frame = DecidedFrame(dec, c.levels, ref, _candidate_shifts(x_hat, ref, max_shift))
    return frame.align(edge_trim)


def resolve_pol_pairing(x_hat: np.ndarray, ref: np.ndarray, c: Constellation,
                        sigma_sq: float, n_frame: int
                        ) -> tuple[tuple[int, ...], list[DecidedFrame] | None]:
    """Run-level polarization assignment (identity or swap), decided once on
    the last frame by total minimum SER; a tie keeps the identity.  Returns
    it with its rows' decided last frames, for ``frame_ser_curve`` to
    re-score (None for one pol).  The second swap row is skipped once the
    first reaches the identity total: SER >= 0, and a tie keeps the identity.
    """
    if x_hat.shape[0] == 1:
        return (0,), None

    def score(p, q):  # pol q's last frame against reference pol p
        return resolve_ambiguity(x_hat[q, -n_frame:], ref[p, -n_frame:], c, sigma_sq)

    identity = [score(0, 0), score(1, 1)]
    total = identity[0].ser + identity[1].ser
    swap = [score(0, 1)]
    if swap[0].ser < total:
        swap.append(score(1, 0))
        if swap[0].ser + swap[1].ser < total:
            return (1, 0), [a.frame for a in swap]
    return (0, 1), [a.frame for a in identity]


def frame_ser_curve(x_hat: np.ndarray, ref: np.ndarray, c: Constellation,
                    sigma_sq: np.ndarray, n_frame: int, edge_trim: int,
                    last: list[DecidedFrame] | None = None) -> np.ndarray:
    """Per-frame SER with per-frame ambiguity resolution of (..., n) streams,
    each row of x_hat scored against the same row of ref; sigma_sq holds one
    decision variance per frame, shared by the rows.  ``last`` holds each
    row's last frame as ``resolve_pol_pairing`` decided it, with the same
    variance, and is only re-scored at the edge trim.
    Returns (..., n / n_frame)."""
    sig = np.broadcast_to(sigma_sq, x_hat.shape[:-1] + sigma_sq.shape).ravel()
    frames = zip(x_hat.reshape(-1, n_frame), ref.reshape(-1, n_frame), sig, strict=True)
    n_ind = x_hat.shape[-1] // n_frame
    return np.array([
        last[i // n_ind].align(edge_trim).ser if last is not None and i % n_ind == n_ind - 1
        else resolve_ambiguity(h, r, c, float(s), edge_trim=edge_trim).ser
        for i, (h, r, s) in enumerate(frames)]).reshape(x_hat.shape[:-1] + (-1,))


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
