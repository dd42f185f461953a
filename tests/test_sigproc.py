"""Pulse shaping and signal utilities."""

import numpy as np
import pytest

from blindeq import autodiff as ad
from blindeq import sigproc
from blindeq.errors import ConfigError


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
    with pytest.raises(ConfigError):
        sigproc.rrc_taps(0.1, 32, 0)


def test_upsample_zero_insert():
    s = sigproc.ComplexSignal(np.array([1 + 1j, 2.0]), sps=1)
    up = sigproc.upsample_zero_insert(s, 3)
    assert up.sps == 3
    assert np.array_equal(up.samples, [1 + 1j, 0, 0, 2, 0, 0])
    same = sigproc.upsample_zero_insert(s, 1)
    assert np.array_equal(same.samples, s.samples)


def test_convolve_same_identity_and_length():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    for k in (1, 3, 5):
        d = np.zeros(k)
        d[k // 2] = 1.0
        assert np.allclose(sigproc.convolve_same(x, d), x)
    taps = rng.standard_normal(7)
    assert sigproc.convolve_same(x, taps).shape == x.shape


def test_convolve_same_matches_autodiff_conv():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(30)
    for k in (3, 7, 11):
        taps = rng.standard_normal(k)
        ref = sigproc.convolve_same(x, taps)
        out = ad.conv1d_full(x[None], taps[None, None], stride=1, padding=k // 2)
        assert np.allclose(out[0], ref, atol=1e-12)


def test_shape_pipeline():
    rng = np.random.default_rng(2)
    s = sigproc.ComplexSignal(rng.standard_normal(50) * (1 + 0j), sps=1)
    rrc = sigproc.rrc_taps(0.1, 8, 2)
    out = sigproc.shape(s, rrc, 2)
    assert out.sps == 2 and len(out) == 100
    up = sigproc.upsample_zero_insert(s, 2)
    assert np.allclose(out.samples, sigproc.convolve_same(up.samples, rrc))
    with pytest.raises(ConfigError):
        sigproc.shape(out, rrc, 2)  # already oversampled


def test_frequency_grid():
    f = sigproc.frequency_grid(8, 2, 90e9)
    assert np.array_equal(f, np.fft.fftfreq(8, d=1.0 / 180e9))
    assert np.max(np.abs(f)) <= 90e9


def test_complex_signal_validation():
    with pytest.raises(ConfigError):
        sigproc.ComplexSignal(np.zeros((2, 3)))
    with pytest.raises(ConfigError):
        sigproc.ComplexSignal(np.zeros(3), sps=0)
