"""Pulse shaping and signal utilities."""

import numpy as np
import pytest

from blindeq import autodiff as ad
from blindeq import sigproc
from blindeq.errors import ConfigError
from helpers import rel_err


def test_rrc_basic_shape():
    h = sigproc.rrc_taps(0.1, 32, 2)
    assert h.shape == (65,)
    assert abs(np.linalg.norm(h) - 1.0) < 1e-12
    assert np.allclose(h, h[::-1])  # symmetric
    assert h[len(h) // 2] == h.max()


def test_rrc_nyquist_cascade():
    # RRC * RRC is a raised cosine: (near) zero ISI at symbol spacing
    sps = 2
    h = sigproc.rrc_taps(0.1, 32, sps)
    rc = np.convolve(h, h)
    center = len(rc) // 2
    taps_at_symbols = rc[center % sps::sps]
    peak = rc[center]
    off = np.delete(taps_at_symbols, np.argmax(taps_at_symbols))
    assert abs(peak - 1.0) < 1e-3
    assert np.max(np.abs(off)) < 5e-3  # truncation residue only


def test_rrc_zero_rolloff_is_sinc():
    h = sigproc.rrc_taps(0.0, 8, 4)
    t = np.arange(-16, 17) / 4.0
    ref = np.sinc(t)
    assert np.allclose(h, ref / np.linalg.norm(ref))


def test_rrc_singular_points_finite():
    # alpha = 0.25 puts |t| = 1 on the removable singularity at 1 sps
    h = sigproc.rrc_taps(0.25, 8, 1)
    assert np.all(np.isfinite(h))


def test_rrc_errors():
    with pytest.raises(ConfigError):
        sigproc.rrc_taps(1.5, 32, 2)
    with pytest.raises(ConfigError):
        sigproc.rrc_taps(0.1, 31, 2)


def test_upsample_zero_insert():
    s = np.array([1 + 1j, 2.0])
    up = sigproc.upsample_zero_insert(s, 3)
    assert np.array_equal(up, [1 + 1j, 0, 0, 2, 0, 0])
    same = sigproc.upsample_zero_insert(s, 1)
    assert np.array_equal(same, s)


def test_convolve_same_identity_and_length():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    for k in (1, 3, 5):
        d = np.zeros(k)
        d[k // 2] = 1.0
        assert np.allclose(sigproc.convolve_same(x, d), x)
    taps = rng.standard_normal(7)
    assert sigproc.convolve_same(x, taps).shape == x.shape


# hand-computed means of 1, 2, 3, 4, 5, by window
_WINDOW_MEANS_HAND = {1: [1.0, 2.0, 3.0, 4.0, 5.0], 2: [1.5, 2.5, 3.5, 4.5], 5: [3.0]}


@pytest.mark.parametrize("window", [1, 2, 5, 7, 400])
def test_window_means_match_convolution(window):
    # the cumulative-sum means against a window-tap convolution, on real
    # and complex inputs, up to a window as long as the input, and against
    # hand values
    if window in _WINDOW_MEANS_HAND:
        assert np.allclose(sigproc.window_means(np.arange(1.0, 6.0), window),
                           _WINDOW_MEANS_HAND[window])
    rng = np.random.default_rng(window)
    n = 400
    for x in (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)):
        ref = np.convolve(x, np.full(window, 1.0 / window), "valid")
        out = sigproc.window_means(x, window)
        assert out.shape == (n - window + 1,)
        assert rel_err(out, ref) < 1e-12


def test_window_means_per_row():
    # a 2-D array gives each row's means, bit for bit
    rng = np.random.default_rng(3)
    for x in (rng.standard_normal((3, 50)),
              rng.standard_normal((2, 50)) + 1j * rng.standard_normal((2, 50))):
        out = sigproc.window_means(x, 7)
        assert np.array_equal(out, np.stack([sigproc.window_means(r, 7) for r in x]))


def test_convolve_same_matches_autodiff_conv():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(30)
    for k in (3, 7, 11):
        taps = rng.standard_normal(k)
        ref = sigproc.convolve_same(x, taps)
        out = ad.conv1d_full(sigproc.windows(x[None], k, 1), taps[None, None])
        assert np.allclose(out[0], ref, atol=1e-12)


@pytest.mark.parametrize("pol", [1, 2])
@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_windows_match_pad_and_sliding_window_view(pol, k, stride):
    # the one windowing path of CMA, MMSE, the variational loss and the CNN
    rng = np.random.default_rng(pol + 10 * k + 100 * stride)
    x = rng.standard_normal((pol, 20)) + 1j * rng.standard_normal((pol, 20))
    ref = np.lib.stride_tricks.sliding_window_view(
        np.pad(x, ((0, 0), (k // 2, k // 2))), k, axis=1)[:, ::stride]
    out = sigproc.windows(x, k, stride)
    assert out.shape == (pol, -(-20 // stride), k)
    assert np.array_equal(out, ref)
    assert np.array_equal(sigproc.windows(x.real, k, stride), ref.real)


def test_window_view_follows_writes_to_the_padded_buffer():
    pad, inner = sigproc.padded(2, 6, 3, np.float64)
    assert pad.shape == (2, 8) and np.shares_memory(pad, inner)
    view = sigproc.window_view(pad, 3, 2)
    assert not view.any()
    inner[:] = np.arange(12.0).reshape(2, 6)
    assert np.array_equal(view, sigproc.windows(inner.copy(), 3, 2))
    assert view[1, 0].tolist() == [0.0, 6.0, 7.0]  # the left zero pad, then x[1, :2]


def test_shape_pipeline():
    rng = np.random.default_rng(2)
    s = rng.standard_normal(50) * (1 + 0j)
    rrc = sigproc.rrc_taps(0.1, 8, 2)
    out = sigproc.shape(s, rrc, 2)
    assert out.shape == (100,)
    up = sigproc.upsample_zero_insert(s, 2)
    assert np.allclose(out, sigproc.convolve_same(up, rrc))


def test_frequency_grid():
    f = sigproc.frequency_grid(8, 2, 90e9)
    assert np.array_equal(f, np.fft.fftfreq(8, d=1.0 / 180e9))
    assert np.max(np.abs(f)) <= 90e9
