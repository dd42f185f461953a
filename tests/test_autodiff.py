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
    out = ad.conv1d_full(ad.constant([1.0, 0.0, 0.0, 2.0]),
                         ad.constant([1.0, 1.0]), stride=2)
    assert np.array_equal(out.value, [1.0, 2.0])


def test_conv1d_full_matches_numpy():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(4, 12))
        k = int(rng.integers(1, n + 1))
        pad = int(rng.integers(0, 3))
        stride = int(rng.integers(1, 4))
        if k > n + 2 * pad:
            continue
        s = rng.standard_normal(n)
        w = rng.standard_normal(k)
        ref = np.convolve(np.pad(s, pad), w, mode="valid")[::stride]
        out = ad.conv1d_full(ad.constant(s), ad.constant(w), stride, pad)
        assert rel_err(out.value, ref) < 1e-14


def test_softmax_rows_on_simplex():
    rng = np.random.default_rng(0)
    out = ad.softmax_rows(ad.constant(rng.standard_normal((7, 4))))
    assert np.allclose(out.value.sum(axis=1), 1.0)
    assert np.all(out.value > 0)


def test_reused_node_accumulates():
    # diamond graph: f = sum(s + s) with s = w a, so df/da = 2w
    a = ad.leaf([1.5, -2.0])
    w = np.array([0.5, 3.0])
    s = ad.scale(a, w)
    ad.backward(ad.ssum(ad.add(s, s)))
    assert np.allclose(a.grad, 2.0 * w)


def test_backward_accumulates_across_calls():
    a = ad.leaf([2.0])
    ad.backward(ad.ssum(ad.scale(a, 3.0)))
    ad.backward(ad.ssum(ad.scale(a, 3.0)))
    assert np.allclose(a.grad, 2.0 * 3.0)
    a.zero_grad()
    assert np.allclose(a.grad, 0.0)


def test_constant_gets_no_gradient():
    a = ad.constant([1.0, 2.0])
    b = ad.leaf([3.0, 4.0])
    out = ad.ssum(ad.add(a, b))
    ad.backward(out)
    assert a.grad is None
    assert np.allclose(b.grad, 1.0)


def test_error_paths():
    with pytest.raises(ConfigError):
        ad.backward(ad.leaf([1.0, 2.0]))  # non-scalar root
    with pytest.raises(ConfigError):
        ad.conv1d_full(ad.constant([1.0, 2.0]), ad.constant([1.0]), stride=0)
    with pytest.raises(ConfigError):
        ad.conv1d_full(ad.constant([1.0]), ad.constant([1.0, 2.0, 3.0]))
    with pytest.raises(ConfigError):
        ad.add(ad.constant([1.0, 2.0]), ad.constant([1.0, 2.0, 3.0]))
