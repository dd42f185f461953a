"""The CNN decoder's layer operations and their hand-written reverse pass."""

import numpy as np
import pytest

from blindeq import autodiff as ad
from blindeq import equalize as eq
from blindeq.errors import ConfigError
from helpers import max_gradient_error, primitive_cases, rel_err


def test_primitive_gradients_match_finite_differences():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for name, instance in primitive_cases(rng):
            err = max_gradient_error(instance)
            assert err < 1e-5, f"{name} (seed {seed}): rel err {err:.3e}"


def test_conv1d_full_hand_oracle():
    # [DERIVED] by hand: valid conv of [1,0,0,2] with [1,1] is [1,0,2];
    # stride 2 keeps indices 0 and 2
    out = ad.conv1d_full([[1.0, 0.0, 0.0, 2.0]], [[[1.0, 1.0]]], stride=2)
    assert np.array_equal(out, [[1.0, 2.0]])


def test_conv1d_full_matches_numpy():
    # each output channel is the sum of np.convolve over the input channels
    rng = np.random.default_rng(3)
    for _ in range(50):
        c_in, c_out = (int(v) for v in rng.integers(1, 4, size=2))
        n = int(rng.integers(4, 12))
        k = int(rng.integers(1, n + 1))
        pad = int(rng.integers(0, 3))
        stride = int(rng.integers(1, 4))
        s = rng.standard_normal((c_in, n))
        w = rng.standard_normal((c_out, c_in, k))
        ref = np.array([sum(np.convolve(np.pad(s[i], pad), w[o, i], mode="valid")
                            for i in range(c_in))[::stride] for o in range(c_out)])
        out = ad.conv1d_full(s, w, stride, pad)
        assert rel_err(out, ref) < 1e-14


def test_softmax_rows_on_simplex():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((6, 7))
    out = ad.softmax_groups(logits, 3)
    assert out.shape == (2, 7, 3)
    assert np.allclose(out.sum(axis=2), 1.0)
    assert np.all(out > 0)
    # group g holds channels 3g..3g+2, and each time step is one row
    e = np.exp(logits[3:6, 4])
    assert np.allclose(out[1, 4], e / e.sum())


def test_error_paths():
    state = eq.VaeNnState(1, 1, 4, k1=3, k2=3, f_ch=3,
                          rng=np.random.default_rng(0), hidden=2)
    rx = np.ones((1, 6), dtype=np.complex128)
    q, (x, a1, h) = eq.vae_nn_forward(rx, state)
    with pytest.raises(ConfigError):  # seed shape != output shape
        ad.backward(x, state.w1, a1, h, state.w2, 1, q, np.ones(q.shape[:2]))
    with pytest.raises(ConfigError):
        ad.conv1d_full([[1.0, 2.0]], [[[1.0]]], stride=0)
    with pytest.raises(ConfigError):
        ad.conv1d_full([[1.0]], [[[1.0, 2.0, 3.0]]])
    with pytest.raises(ConfigError):
        ad.conv1d_full([[1.0, 2.0]], [[[1.0], [1.0]]])
    with pytest.raises(ConfigError):
        ad.conv1d_full([1.0, 2.0], [1.0])  # 1-D operands
