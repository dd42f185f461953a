"""Evaluation pipeline: framing, ambiguity resolution, aggregation, and the
reports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindeq import evaluate as ev
from blindeq import modem
from blindeq.errors import ConfigError

from helpers import candidate_shifts_full, qam_awgn_ser, resolve_ambiguity_exhaustive


def test_slice_frames():
    f = ev.slice_frames(np.arange(25), 10)
    assert f.shape == (2, 10)
    assert np.array_equal(f[1], np.arange(10, 20))
    with pytest.raises(ConfigError):
        ev.slice_frames(np.arange(5), 10)
    with pytest.raises(ConfigError):
        ev.slice_frames(np.zeros((2, 10)), 5)


def test_moving_average_oracle():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert np.allclose(ev.moving_average(x, 2), [1.5, 2.5, 3.5, 4.5])
    assert np.allclose(ev.moving_average(x, 1), x)
    assert np.allclose(ev.moving_average(x, 5), [3.0])
    with pytest.raises(ConfigError):
        ev.moving_average(x, 6)
    with pytest.raises(ConfigError):
        ev.moving_average(x, 0)


def test_aggregate_runs():
    curves = np.array([
        [0.5, 0.2, 0.1],    # success, min 0.1
        [0.5, 0.4, 0.35],   # fail (never below 0.3)
        [0.4, 0.25, 0.3],   # success, min 0.25
    ])
    rep = ev.aggregate_runs(curves, threshold=0.3)
    assert rep.n_success == 2 and rep.n_fail == 1
    assert np.allclose(rep.ma_mean, [0.45, 0.225, 0.2])
    assert rep.final_ser == pytest.approx(0.2)
    all_fail = ev.aggregate_runs(np.full((2, 3), 0.9))
    assert all_fail.final_ser == 1.0 and all_fail.n_success == 0
    with pytest.raises(ConfigError):
        ev.aggregate_runs(np.zeros(3))


def _qpsk_frame(seed, n=2_000):
    rng = np.random.default_rng(seed)
    c = modem.build_constellation(4, 0.0)
    ref = modem.sample_symbols(c, n, rng).samples
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
    # near-zero error apart from the |shift| wrapped symbols
    assert align.ser <= (abs(shift) + 1) / align.n_eval


def test_resolve_ambiguity_never_worse_than_identity():
    c, ref, rng = _qpsk_frame(42)
    x = ref + 0.5 * (rng.standard_normal(len(ref))
                     + 1j * rng.standard_normal(len(ref)))
    amp = np.mean(np.abs(ref)) / np.mean(np.abs(x))
    i_idx, q_idx = modem.map_decide(amp * x, c, 0.1)
    ref_i, ref_q = modem.symbol_indices(c, ref)
    ident_ser = np.count_nonzero((i_idx != ref_i) | (q_idx != ref_q)) / len(ref)
    align = ev.resolve_ambiguity(x, ref, c, 0.1)
    assert align.ser <= ident_ser


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
    ref = modem.sample_symbols(c, n, rng).samples
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


def test_resolve_ambiguity_rejects_trim_past_the_frame():
    c, ref, _ = _qpsk_frame(0, n=100)
    assert ev.resolve_ambiguity(ref, ref, c, 0.1, edge_trim=49).n_eval == 2
    for trim in (50, 80):
        with pytest.raises(ConfigError, match="edge_trim"):
            ev.resolve_ambiguity(ref, ref, c, 0.1, edge_trim=trim)


def test_resolve_ambiguity_shape_check():
    c, ref, _ = _qpsk_frame(0)
    with pytest.raises(ConfigError):
        ev.resolve_ambiguity(ref[:-1], ref, c, 0.1)


def test_resolve_pol_pairing_detects_swap():
    c, ref0, rng = _qpsk_frame(7, n=4_000)
    ref1 = modem.sample_symbols(c, 4_000, rng).samples
    ref = np.stack([ref0, ref1])
    noisy = ref + 0.05 * (rng.standard_normal(ref.shape)
                          + 1j * rng.standard_normal(ref.shape))
    assert ev.resolve_pol_pairing(noisy, ref, c, 0.01, n_frame=4_000) == (0, 1)
    assert ev.resolve_pol_pairing(noisy[::-1], ref, c, 0.01,
                                  n_frame=4_000) == (1, 0)


def test_frame_ser_curve():
    c, ref, rng = _qpsk_frame(3, n=6_000)
    x = ref.copy()
    x[4_000:] = -x[4_000:] * 1j  # rotated final frame still resolves
    x += 0.02 * (rng.standard_normal(6_000) + 1j * rng.standard_normal(6_000))
    curve = ev.frame_ser_curve(x, ref, c, 0.01, n_frame=2_000, edge_trim=10)
    assert curve.shape == (3,)
    assert np.all(curve < 1e-3)
    per_frame = ev.frame_ser_curve(x, ref, c, np.array([0.01, 0.01, 0.01]),
                                   n_frame=2_000)
    assert np.all(per_frame < 1e-3)


def test_snr_report():
    est = ev.snr_report(np.array([0.01, 0.1]))
    assert np.allclose(est, [20.0, 10.0])
    assert ev.snr_report(0.02, es=2.0) == pytest.approx(20.0)
    with pytest.raises(ConfigError):
        ev.snr_report(np.array([0.01, 0.0]))


def test_ip_report_aligned_estimate():
    rng = np.random.default_rng(12)
    h_true = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    h_est = np.zeros(25, dtype=np.complex128)
    gain = 0.6 * np.exp(0.9j)
    h_est[8:17] = gain * h_true
    h_est += 1e-4 * (rng.standard_normal(25) + 1j * rng.standard_normal(25))
    rep = ev.ip_report(h_est, h_true)
    assert rep.nmse_db < -60.0
    assert rep.shift == 8
    assert abs(rep.gain - gain) < 1e-3
    with pytest.raises(ConfigError):
        ev.ip_report(np.zeros(5), h_true[:3])  # no aligned component


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
