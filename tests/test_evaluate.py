"""Evaluation pipeline: whole frames, ambiguity resolution, aggregation, and
the reports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindeq import evaluate as ev
from blindeq import modem
from blindeq.errors import ConfigError

from helpers import (candidate_shifts_full, qam_awgn_ser, resolve_ambiguity_exhaustive,
                     symbol_indices)


def test_aggregate_runs():
    curves = np.array([
        [0.5, 0.2, 0.1],    # success, min 0.1
        [0.5, 0.4, 0.35],   # fail (never below 0.3)
        [0.4, 0.25, 0.3],   # success, min 0.25
    ])
    rep = ev.aggregate_runs(curves, threshold=0.3)
    assert rep.n_success == 2 and rep.n_fail == 1
    # the mean of the successful traces is [0.45, 0.225, 0.2]
    assert rep.final_ser == pytest.approx(0.2)
    # the minimum of the successful mean [0.45, 0.15, 0.25], not its last value
    dip = ev.aggregate_runs(np.array([[0.5, 0.1, 0.2], [0.4, 0.2, 0.3]]), threshold=0.3)
    assert dip.final_ser == pytest.approx(0.15)
    all_fail = ev.aggregate_runs(np.full((2, 3), 0.9), threshold=0.3)
    assert all_fail.final_ser == 1.0 and all_fail.n_success == 0


def _qpsk_frame(seed, n=2_000):
    rng = np.random.default_rng(seed)
    c = modem.build_constellation(4, 0.0)
    ref = modem.sample_symbols(c, n, rng)
    return c, ref, rng


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 7), st.booleans(), st.integers(-5, 5),
       st.integers(0, 10_000))
def test_resolve_ambiguity_recovers_construction(rot, conj, shift, seed):
    c, ref, rng = _qpsk_frame(seed)
    x = ref * np.exp(1j * np.pi / 4 * rot)
    if conj:
        x = np.conj(x)
    x = np.roll(x, shift)  # x[i + (-shift)] pairs with ref[i] modulo edges
    x = 1.7 * x + 0.02 * (rng.standard_normal(len(x))
                          + 1j * rng.standard_normal(len(x)))
    align = ev.resolve_ambiguity(x, ref, c, 0.01)
    # near-zero error apart from the |shift| wrapped symbols, over the
    # symbols the chosen shift leaves to score
    assert align.ser <= (abs(shift) + 1) / (len(ref) - abs(align.shift))


def test_resolve_ambiguity_never_worse_than_identity():
    c, ref, rng = _qpsk_frame(42)
    x = ref + 0.5 * (rng.standard_normal(len(ref))
                     + 1j * rng.standard_normal(len(ref)))
    amp = np.mean(np.abs(ref)) / np.mean(np.abs(x))
    i_idx, q_idx = modem.map_decide(amp * x, c, 0.1)
    ref_i, ref_q = symbol_indices(c, ref)
    ident_ser = np.count_nonzero((i_idx != ref_i) | (q_idx != ref_q)) / len(ref)
    align = ev.resolve_ambiguity(x, ref, c, 0.1)
    assert align.ser <= ident_ser


def test_resolve_ambiguity_scores_a_shaped_reference_as_transmitted():
    # at nu 0.1 and sigma^2 0.5 the outer MAP boundaries (+-1.286) lie beyond
    # the outer levels (+-1.137), so a noiseless outer component decides
    # inward: the reference itself scores an error at every symbol with an
    # outer I or Q component, which reading the reference through its own
    # MAP decisions would hide
    rng = np.random.default_rng(5)
    c = modem.build_constellation(16, 0.1)
    assert modem.decision_boundaries(c, 0.5)[-1] > c.levels[-1]
    ref = modem.sample_symbols(c, 4_000, rng)
    outer = (np.abs(ref.real) == c.levels[-1]) | (np.abs(ref.imag) == c.levels[-1])
    align = ev.resolve_ambiguity(ref, ref, c, 0.5)
    assert (align.shift, align.rotation, align.conjugate) == (0, 0, False)
    assert align.ser == np.count_nonzero(outer) / len(ref) == 0.53325


@pytest.mark.parametrize("n, max_shift", [(300, 50), (40, 50), (40, 39),
                                          (1, 5), (2_000, 7)])
def test_candidate_shifts_match_full_correlation(n, max_shift):
    rng = np.random.default_rng(n + max_shift)
    for _ in range(5):
        ref = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = np.roll(ref, rng.integers(-10, 11)) * np.exp(1j * rng.uniform(0, 6))
        x += rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert (ev._candidate_shifts(x, ref, max_shift)
                == candidate_shifts_full(x, ref, max_shift))
        # the last 30 samples NaN: each lag sums its overlap only, so lags
        # below -29 stay finite and the first NaN lag, -29, is the peak
        if n > 30:
            x[-30:] = np.nan
            assert ev._candidate_shifts(x, ref, max_shift) == candidate_shifts_full(
                x, ref, max_shift) == sorted({0, -min(29, max_shift)})
    # equal peaks at lags -d and d: the smaller lag wins
    if n > 10:
        d = min(3, max_shift)
        ref, x = np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
        ref[n // 2], x[n // 2 - d], x[n // 2 + d] = 1.0, 1.0j, -1.0
        assert ev._candidate_shifts(x, ref, max_shift) == [-d, 0] == \
            candidate_shifts_full(x, ref, max_shift)
    # an all-NaN frame gives -max_shift
    nan = np.full(n, np.nan + 0j)
    assert ev._candidate_shifts(nan, ref, max_shift) == candidate_shifts_full(
        nan, ref, max_shift) == sorted({0, -min(max_shift, n - 1)})


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([4, 16, 64, 256]), st.sampled_from([0.0, 0.01, 0.05]),
       st.integers(0, 7), st.booleans(), st.integers(-12, 12),
       st.floats(0.005, 0.5), st.integers(0, 30), st.sampled_from([5, 50, 10_000]),
       st.booleans(), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_resolve_ambiguity_matches_exhaustive_search(
        m, nu, rot, conj, shift, noise, edge_trim, max_shift, zeros, nans, seed):
    rng = np.random.default_rng(seed)
    c = modem.build_constellation(m, nu)
    n = int(rng.integers(100, 1_500))
    ref = modem.sample_symbols(c, n, rng)
    x = np.roll(ref * np.exp(1j * np.pi / 4 * rot), shift)
    x = (np.conj(x) if conj else x) * rng.uniform(0.3, 3.0)
    x += noise * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    if zeros:   # e.g. a receiver's unfilled tail
        x[rng.integers(0, n):][:rng.integers(1, 200)] = 0.0
    if nans:    # e.g. a diverged receiver
        x[rng.integers(0, n):][:rng.integers(1, 50)] = np.nan
    s2 = noise ** 2 + 1e-3
    assert ev.resolve_ambiguity(x, ref, c, s2, max_shift, edge_trim) == \
        resolve_ambiguity_exhaustive(x, ref, c, s2, max_shift, edge_trim)


def test_resolve_ambiguity_decides_four_times(monkeypatch):
    c, ref, rng = _qpsk_frame(5)
    x = np.roll(np.conj(ref), 3) + 0.3 * (rng.standard_normal(len(ref))
                                         + 1j * rng.standard_normal(len(ref)))
    assert len(ev._candidate_shifts(x, ref, 50)) == 3
    calls = []

    def counting(*args):
        calls.append(1)
        return modem.map_decide(*args)

    monkeypatch.setattr(ev, "map_decide", counting)
    ev.resolve_ambiguity(x, ref, c, 0.1)
    assert len(calls) == 4


def test_resolve_ambiguity_scores_only_the_trimmed_window():
    # a trim of 40 leaves symbols 40..59 of 100 at the zero shift: errors
    # outside them do not count, and 5 errors inside them are an SER of 5/20
    c, ref, _ = _qpsk_frame(0, n=100)
    x = ref.copy()
    x[:40] *= 1j
    x[60:] *= -1.0
    assert ev.resolve_ambiguity(x, ref, c, 0.1, edge_trim=40).ser == 0.0
    x[40:45] *= -1.0
    assert ev.resolve_ambiguity(x, ref, c, 0.1, edge_trim=40).ser == 0.25


def test_resolve_pol_pairing_detects_swap():
    # three frames of 4,000 symbols: the pairing is decided on the last one
    c, ref0, rng = _qpsk_frame(7, n=12_000)
    ref = np.stack([ref0, modem.sample_symbols(c, 12_000, rng)])
    noisy = ref + 0.05 * (rng.standard_normal(ref.shape)
                          + 1j * rng.standard_normal(ref.shape))
    last_swapped = noisy.copy()
    last_swapped[:, -4_000:] = noisy[::-1, -4_000:]
    for x_hat, pairing in ((noisy, (0, 1)), (noisy[::-1], (1, 0)),
                           (last_swapped, (1, 0)), (last_swapped[::-1], (0, 1))):
        assert ev.resolve_pol_pairing(x_hat, ref, c, 0.01, n_frame=4_000) == pairing


def test_frame_ser_curve():
    c, ref, rng = _qpsk_frame(3, n=6_000)
    x = ref.copy()
    x[4_000:] = -x[4_000:] * 1j  # rotated final frame still resolves
    x += 0.02 * (rng.standard_normal(6_000) + 1j * rng.standard_normal(6_000))
    curve = ev.frame_ser_curve(x, ref, c, np.full(3, 0.01), n_frame=2_000, edge_trim=10)
    assert curve.shape == (3,)
    assert np.all(curve < 1e-3)
    per_frame = ev.frame_ser_curve(x, ref, c, np.array([0.01, 0.02, 0.01]),
                                   n_frame=2_000, edge_trim=0)
    assert np.all(per_frame < 1e-3)
    # a stream that is not whole frames is refused, not truncated
    with pytest.raises(ValueError):
        ev.frame_ser_curve(x[:5_000], ref[:5_000], c, np.full(2, 0.01), n_frame=2_000,
                           edge_trim=0)


def test_frame_ser_curve_scores_each_row_on_its_own():
    # two pols with different symbols and noise: the (2, n) call equals the
    # two per-row calls exactly, both rows decided with the per-frame variances
    c = modem.build_constellation(16, 0.0)
    rng = np.random.default_rng(4)
    ref = np.stack([modem.sample_symbols(c, 6_000, rng) for _ in range(2)])
    noise = rng.standard_normal((2, 6_000)) + 1j * rng.standard_normal((2, 6_000))
    x = ref + np.array([[0.15], [0.25]]) * noise
    sig = np.array([0.02, 0.03, 0.02])
    curves = ev.frame_ser_curve(x, ref, c, sig, n_frame=2_000, edge_trim=10)
    rows = [ev.frame_ser_curve(x[p], ref[p], c, sig, n_frame=2_000, edge_trim=10)
            for p in range(2)]
    assert curves.shape == (2, 3)
    assert np.array_equal(curves, np.stack(rows))
    assert np.all(curves[0] > 0) and np.all(curves[1] > curves[0])


def test_snr_report():
    est = ev.snr_report(np.array([0.01, 0.1]))
    assert np.allclose(est, [20.0, 10.0])
    assert ev.snr_report(0.02) == pytest.approx(10.0 * np.log10(50.0))
    with pytest.raises(ConfigError):
        ev.snr_report(np.array([0.01, 0.0]))


def test_ip_report_aligned_estimate():
    rng = np.random.default_rng(12)
    h_true = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    h_est = np.zeros(25, dtype=np.complex128)
    gain = 0.6 * np.exp(0.9j)
    h_est[8:17] = gain * h_true
    h_est += 1e-4 * (rng.standard_normal(25) + 1j * rng.standard_normal(25))
    # the correlation peak finds the delay and a complex gain the scale, at
    # any delay inside the window
    assert ev.ip_nmse_db(h_est, h_true) < -60.0
    assert ev.ip_nmse_db(np.roll(h_est, -5), h_true) < -60.0
    assert ev.ip_nmse_db(h_est, h_true[::-1]) > -10.0
    with pytest.raises(ConfigError):
        ev.ip_nmse_db(np.zeros(5), h_true[:3])  # no aligned component


def test_qam_awgn_ser_reference_points():
    # [PAPER] interference-free 64-QAM reference at 22 dB used as the
    # dual-polarization performance gate
    assert qam_awgn_ser(64, 22.0) == pytest.approx(0.01049, abs=5e-6)
    # SER decreases with SNR and increases with order
    assert qam_awgn_ser(16, 16.0) < qam_awgn_ser(16, 12.0)
    assert qam_awgn_ser(16, 16.0) < qam_awgn_ser(64, 16.0)
    assert qam_awgn_ser(4, 60.0) < 1e-12
    with pytest.raises(ConfigError):
        qam_awgn_ser(15, 20.0)
