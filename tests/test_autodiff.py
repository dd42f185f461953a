"""Gradient correctness and graph mechanics of the autodiff core."""

import numpy as np
import pytest

from blindeq import autodiff as ad
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
    out = ad.conv1d_full(ad.constant([[1.0, 0.0, 0.0, 2.0]]),
                         ad.constant([[[1.0, 1.0]]]), stride=2)
    assert np.array_equal(out.value, [[1.0, 2.0]])


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
        out = ad.conv1d_full(ad.constant(s), ad.constant(w), stride, pad)
        assert rel_err(out.value, ref) < 1e-14


def test_softmax_rows_on_simplex():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((6, 7))
    out = ad.softmax_groups(ad.constant(logits), 3)
    assert out.shape == (2, 7, 3)
    assert np.allclose(out.value.sum(axis=2), 1.0)
    assert np.all(out.value > 0)
    # group g holds channels 3g..3g+2, and each time step is one row
    e = np.exp(logits[3:6, 4])
    assert np.allclose(out.value[1, 4], e / e.sum())


def test_reused_node_accumulates():
    # diamond graph: f = <w, s + s> with s = a + b, so df/da = 2w
    a = ad.leaf([1.5, -2.0])
    w = np.array([0.5, 3.0])
    s = ad.add(a, ad.constant([1.0, 1.0]))
    ad.backward(ad.add(s, s), w)
    assert np.allclose(a.grad, 2.0 * w)


def test_backward_accumulates_across_calls():
    a = ad.leaf([2.0])
    ad.backward(a, [3.0])
    ad.backward(a, [3.0])
    assert np.allclose(a.grad, 2.0 * 3.0)
    a.zero_grad()
    assert np.allclose(a.grad, 0.0)


def test_constant_gets_no_gradient():
    a = ad.constant([1.0, 2.0])
    b = ad.leaf([3.0, 4.0])
    ad.backward(ad.add(a, b), np.ones(2))
    assert a.grad is None
    assert np.allclose(b.grad, 1.0)


def test_error_paths():
    with pytest.raises(ConfigError):
        ad.backward(ad.leaf([1.0, 2.0]), [1.0])  # seed shape != root shape
    with pytest.raises(ConfigError):
        ad.conv1d_full(ad.constant([[1.0, 2.0]]), ad.constant([[[1.0]]]), stride=0)
    with pytest.raises(ConfigError):
        ad.conv1d_full(ad.constant([[1.0]]), ad.constant([[[1.0, 2.0, 3.0]]]))
    with pytest.raises(ConfigError):
        ad.conv1d_full(ad.constant([[1.0, 2.0]]), ad.constant([[[1.0], [1.0]]]))
    with pytest.raises(ConfigError):
        ad.conv1d_full(ad.constant([1.0, 2.0]), ad.constant([1.0]))  # 1-D operands
    with pytest.raises(ConfigError):
        ad.add(ad.constant([1.0, 2.0]), ad.constant([1.0, 2.0, 3.0]))
