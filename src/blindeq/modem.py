"""Square-QAM constellations with Maxwell-Boltzmann shaping, sampling,
entropy and MAP hard decision.  The shaping-aware soft demapper is part of
the linear VAE decoder's update, ``equalize.vae_le_grads``.

Sampled symbols are exact constellation points, each component one of the
levels, and evaluation's reference must be these transmitted points: it
compares decided levels with the reference's components as they are.

Normalization convention: the shaping parameter ``nu`` applies to the
unscaled odd-integer amplitude levels {..., -3, -1, 1, 3, ...}.  The levels
are then scaled by a common factor so that the expected 2-D symbol energy
under the prior equals 1.  In metrics evaluated on the *scaled* levels the
shaping term uses ``nu_scaled = nu / scale**2``, which leaves MAP decisions
invariant under the normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Constellation:
    levels: np.ndarray          # sqrt(M) scaled amplitude levels, increasing
    prior: np.ndarray           # per-level Maxwell-Boltzmann probabilities
    nu_scaled: float            # shaping parameter on the scaled levels

    @property
    def n_levels(self) -> int:
        return self.levels.shape[0]


def build_constellation(m: int, nu: float = 0.0) -> Constellation:
    """Unit-energy square M-QAM with a Maxwell-Boltzmann prior."""
    root = math.isqrt(m)
    if root * root != m or root < 2:
        raise ConfigError(f"modulation order must be a perfect square >= 4, got {m}")
    if not np.isfinite(nu) or nu < 0:
        raise ConfigError(f"shaping parameter must be finite and >= 0, got {nu}")
    ints = np.arange(-(root - 1), root, 2, dtype=np.float64)
    prior = np.exp(-nu * ints ** 2)
    prior /= prior.sum()
    # E[|x|^2] = E[(x^I)^2] + E[(x^Q)^2] with independent components
    energy_2d = 2.0 * float(prior @ ints ** 2)
    scale = 1.0 / math.sqrt(energy_2d)
    return Constellation(levels=ints * scale, prior=prior, nu_scaled=nu / scale ** 2)


def entropy(c: Constellation) -> float:
    """Constellation entropy in bits (2-D, independent I/Q)."""
    p = c.prior[c.prior > 0]
    return -2.0 * float(p @ np.log2(p))


def nu_for_entropy(m: int, h_target: float, tol: float = 1e-9) -> float:
    """Invert the monotone-decreasing entropy(nu) map by bisection."""
    h_max = math.log2(m)
    if not 2.0 < h_target <= h_max:
        raise ConfigError(f"target entropy {h_target} outside (2, {h_max}] for M={m}")
    if abs(h_target - h_max) < tol:
        return 0.0
    lo, hi = 0.0, 1.0
    while entropy(build_constellation(m, hi)) > h_target:
        hi *= 2.0
        if hi > 1e6:
            raise ConfigError(f"cannot bracket entropy target {h_target}")
    while True:
        mid = 0.5 * (lo + hi)
        h_mid = entropy(build_constellation(m, mid))
        if abs(h_mid - h_target) < tol or (hi - lo) < 1e-15:
            return mid
        if h_mid > h_target:
            lo = mid
        else:
            hi = mid


def sample_symbols(c: Constellation, n: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. symbols at 1 sample/symbol, I and Q drawn independently, I first."""
    out = np.empty(n, dtype=np.complex128)
    out.real = c.levels[rng.choice(c.n_levels, size=n, p=c.prior)]
    out.imag = c.levels[rng.choice(c.n_levels, size=n, p=c.prior)]
    return out


def decision_boundaries(c: Constellation, sigma_sq: float) -> np.ndarray:
    """MAP decision boundaries between adjacent levels.

    Equating -(v-a)^2/(2 s2) - nu a^2 across neighbours a < b gives the
    boundary v = (1 + 2 nu s2) (a + b) / 2; large nu pulls boundaries
    outward so inner levels win more often.
    """
    mids = 0.5 * (c.levels[:-1] + c.levels[1:])
    return (1.0 + 2.0 * c.nu_scaled * sigma_sq) * mids


def map_decide(x_hat: np.ndarray, c: Constellation, sigma_sq: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-component MAP hard decision; returns (I, Q) level index arrays.

    Points exactly on a boundary go to the inner (smaller |A|) level.
    """
    if sigma_sq <= 0:
        raise ConfigError(f"noise variance must be positive, got {sigma_sq}")
    b = decision_boundaries(c, sigma_sq)
    x_hat = np.asarray(x_hat)
    i_idx = _decide_component(x_hat.real, b)
    q_idx = _decide_component(x_hat.imag, b)
    return i_idx, q_idx


def _decide_component(v: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    # the level index is the count of boundaries below v; a hit counts as
    # below in the negative half and as above in the positive half, so it
    # goes to the inner level, +-0 hits the middle boundary and decides
    # positive, and NaN (every negated comparison true) takes the top level
    inner = (boundaries.shape[0] + 1) // 2  # first index of the non-negative levels
    idx = np.zeros(v.shape, dtype=np.intp)
    for j, b in enumerate(boundaries):
        idx += ~(v < b) if j < inner else ~(v <= b)
    return idx
