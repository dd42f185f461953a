"""Constellations, shaping, sampling, and the demappers: the MAP decision,
and the soft demapper that the linear decoder's reference gradients use."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindeq import modem
from blindeq.errors import ConfigError
from helpers import soft_demap, symbol_indices


@pytest.mark.parametrize("m", [4, 16, 64])
@pytest.mark.parametrize("nu", [0.0, 0.02, 0.08])
def test_unit_energy(m, nu):
    c = modem.build_constellation(m, nu)
    e2d = 2.0 * float(c.prior @ c.levels ** 2)
    assert abs(e2d - 1.0) < 1e-12


def test_uniform_prior_and_entropy():
    c = modem.build_constellation(64, 0.0)
    assert np.allclose(c.prior, 1.0 / 8.0)
    assert abs(modem.entropy(c) - 6.0) < 1e-12


def test_nu_for_entropy_round_trip():
    # [DERIVED] pilot value for the 5.72 bit shaped 64-QAM operating point
    nu = modem.nu_for_entropy(64, 5.72)
    assert abs(nu - 0.0271) < 1e-3
    c = modem.build_constellation(64, nu)
    assert abs(modem.entropy(c) - 5.72) < 1e-6
    assert modem.nu_for_entropy(64, 6.0) == 0.0


def test_nu_for_entropy_out_of_range():
    with pytest.raises(ConfigError):
        modem.nu_for_entropy(64, 6.5)
    with pytest.raises(ConfigError):
        modem.nu_for_entropy(64, 1.5)


def test_build_constellation_errors():
    with pytest.raises(ConfigError):
        modem.build_constellation(15)
    with pytest.raises(ConfigError):
        modem.build_constellation(64, -0.1)


def test_sampling_prior_and_determinism():
    c = modem.build_constellation(16, 0.1)
    n = 200_000
    s = modem.sample_symbols(c, n, np.random.default_rng(9))
    i_idx, _ = symbol_indices(c, s)
    freq = np.bincount(i_idx, minlength=4) / n
    sig = np.sqrt(c.prior * (1 - c.prior) / n)
    assert np.all(np.abs(freq - c.prior) < 5 * sig)
    s2 = modem.sample_symbols(c, n, np.random.default_rng(9))
    assert np.array_equal(s, s2)


def test_noiseless_points_decode_to_themselves():
    for nu in (0.0, 0.05):
        c = modem.build_constellation(64, nu)
        pts = (c.levels[:, None] + 1j * c.levels[None, :]).ravel()
        i_idx, q_idx = modem.map_decide(pts, c, 0.01)
        ri, rq = symbol_indices(c, pts)
        assert np.array_equal(i_idx, ri)
        assert np.array_equal(q_idx, rq)


def test_shaped_boundaries_move_outward():
    c = modem.build_constellation(16, 0.1)
    s2 = 0.05
    b = modem.decision_boundaries(c, s2)
    mids = 0.5 * (c.levels[:-1] + c.levels[1:])
    assert np.allclose(b, (1.0 + 2.0 * c.nu_scaled * s2) * mids)
    # outward: positive boundaries grow, negative ones shrink
    assert np.all(b[mids > 0] > mids[mids > 0])
    assert np.all(b[mids < 0] < mids[mids < 0])


def test_boundary_tie_goes_inner():
    c = modem.build_constellation(16, 0.0)
    b = modem.decision_boundaries(c, 0.1)
    idx = modem._decide_component(b, b)  # points exactly on each boundary
    # of the two levels adjacent to an off-center boundary, the smaller
    # |amplitude| wins; the center boundary is a symmetric tie
    assert idx[0] == 1 and idx[2] == 2
    assert idx[1] in (1, 2)


def _decide_two_pass(v, b):
    """The two-searchsorted decision rule: side="left" on the positive half,
    side="right" on the negative half."""
    left = np.searchsorted(b, v, side="left")
    right = np.searchsorted(b, v, side="right")
    return np.where(left >= (b.shape[0] + 1) // 2, left, right)


@pytest.mark.parametrize("m", [4, 16, 64, 256])
def test_decide_component_matches_two_pass_rule(m):
    rng = np.random.default_rng(m)
    for nu in (0.0, 0.05):
        b = modem.decision_boundaries(modem.build_constellation(m, nu), 0.03)
        v = np.concatenate([b, -b, np.nextafter(b, np.inf), np.nextafter(b, -np.inf),
                            [0.0, -0.0, np.inf, -np.inf, np.nan],
                            1.5 * rng.standard_normal(2_000)])
        idx = modem._decide_component(v, b)
        assert np.array_equal(idx, _decide_two_pass(v, b))
        # +-0 decides positive, NaN to the top level
        assert np.all(idx[-2_005:-2_003] == (b.shape[0] + 1) // 2)
        assert idx[-2_001] == b.shape[0]


@pytest.mark.parametrize("m", [4, 16, 64, 256])
def test_symbol_indices_match_argmin(m):
    rng = np.random.default_rng(m)
    for nu in (0.0, 0.01, 0.08):
        c = modem.build_constellation(m, nu)
        mids = 0.5 * (c.levels[:-1] + c.levels[1:])
        # noiseless symbols, and exact midpoints, where the argmin's rounded
        # distances break the tie
        x = np.concatenate([modem.sample_symbols(c, 2_000, rng),
                            mids + 1j * mids[::-1], -mids - 1j * mids])
        ref = tuple(np.argmin(np.abs(comp[:, None] - c.levels[None, :]), axis=1)
                    for comp in (x.real, x.imag))
        i_idx, q_idx = symbol_indices(c, x)
        assert np.array_equal(i_idx, ref[0]) and np.array_equal(q_idx, ref[1])


def test_soft_demap_is_bayes_posterior():
    rng = np.random.default_rng(4)
    c = modem.build_constellation(64, 0.04)
    v = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    s2 = 0.07
    q = soft_demap(v, c, s2, matched=True)
    # independent oracle: q(a | v) ~ prior(a) exp(-(v - a)^2 / (2 s2))
    for comp, vals in ((0, v.real), (1, v.imag)):
        like = np.exp(-(vals[:, None] - c.levels[None, :]) ** 2 / (2 * s2))
        post = like * c.prior[None, :]
        post /= post.sum(axis=1, keepdims=True)
        assert np.allclose(q[:, comp], post, atol=1e-12)
    assert np.allclose(q.sum(axis=2), 1.0)


def test_soft_demap_unmatched_drops_prior():
    rng = np.random.default_rng(5)
    c = modem.build_constellation(64, 0.04)
    v = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    q = soft_demap(v, c, 0.05, matched=False)
    like = np.exp(-(v.real[:, None] - c.levels[None, :]) ** 2 / (2 * 0.05))
    assert np.allclose(q[:, 0], like / like.sum(axis=1, keepdims=True))


@settings(max_examples=25, deadline=None)
@given(st.floats(0.001, 0.5), st.integers(0, 1000))
def test_map_decide_matches_argmax_posterior(s2, seed):
    rng = np.random.default_rng(seed)
    c = modem.build_constellation(16, 0.06)
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    i_idx, q_idx = modem.map_decide(v, c, s2)
    q = soft_demap(v, c, s2, matched=True)
    assert np.array_equal(i_idx, q[:, 0].argmax(axis=1))
    assert np.array_equal(q_idx, q[:, 1].argmax(axis=1))


def test_demap_rejects_bad_variance():
    c = modem.build_constellation(4, 0.0)
    for sigma_sq in (0.0, -1.0):
        with pytest.raises(ConfigError):
            modem.map_decide(np.array([1j]), c, sigma_sq)
