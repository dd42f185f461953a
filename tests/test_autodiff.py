"""The CNN decoder's layer operations and their hand-written reverse pass."""

import numpy as np

from blindeq import autodiff as ad
from blindeq import equalize as eq
from blindeq import sigproc
from helpers import max_gradient_error, primitive_cases, rel_err


def test_primitive_gradients_match_finite_differences():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for name, instance in primitive_cases(rng):
            err = max_gradient_error(instance)
            assert err < 1e-5, f"{name} (seed {seed}): rel err {err:.3e}"


def test_conv1d_full_hand_oracle():
    # [DERIVED] by hand: the full conv of [1,0,0,3] with [1,2,3] is
    # [1,2,3,3,6,9]; centered (k // 2 = 1 dropped at each end) it is
    # [2,3,3,6], and stride 2 keeps indices 0 and 2
    out = ad.conv1d_full(sigproc.windows(np.array([[1.0, 0.0, 0.0, 3.0]]), 3, 2),
                         np.array([[[1.0, 2.0, 3.0]]]))
    assert np.array_equal(out, [[2.0, 3.0]])


def test_conv1d_full_matches_numpy():
    # each output channel is the sum of np.convolve over the input channels,
    # for odd kernels padded by k // 2
    rng = np.random.default_rng(3)
    for _ in range(50):
        c_in, c_out = (int(v) for v in rng.integers(1, 4, size=2))
        n = int(rng.integers(4, 12))
        k = 2 * int(rng.integers(0, 6)) + 1
        pad = k // 2
        stride = int(rng.integers(1, 4))
        s = rng.standard_normal((c_in, n))
        w = rng.standard_normal((c_out, c_in, k))
        ref = np.array([sum(np.convolve(np.pad(s[i], pad), w[o, i], mode="valid")
                            for i in range(c_in))[::stride] for o in range(c_out)])
        out = ad.conv1d_full(sigproc.windows(s, k, stride), w)
        assert rel_err(out, ref) < 1e-14


def test_softmax_rows_on_simplex():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((2, 3, 7))
    out, log_out = eq.softmax_groups(logits)
    assert out.shape == log_out.shape == (2, 3, 7)
    assert np.allclose(out.sum(axis=1), 1.0)
    assert np.all(out > 0)
    # each column of the level axis, -2, is one group
    e = np.exp(logits[1, :, 4])
    assert np.allclose(out[1, :, 4], e / e.sum())
    assert np.allclose(log_out, np.log(out))

