"""Acceptance suite: ten end-to-end criteria at desk scale.

Each test prints one ``criterion NN: PASS/FAIL`` line (visible with -s or
-rA) and asserts the stated gate.  The heavy simulation runs are cached at
module scope so overlapping criteria share them.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from blindeq import channel as ch
from blindeq import config
from blindeq import equalize as eq
from blindeq import evaluate as ev
from blindeq import modem, sigproc
from blindeq.config import ExperimentConfig
from helpers import (LOSS_INSTANCES, add_awgn_expression, max_gradient_error, primitive_cases,
                     qam_awgn_ser, symbol_indices)


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def _aggregate(cfg: ExperimentConfig, n_run: int):
    recs = [config.run_single(cfg, r, 0) for r in range(n_run)]
    ma = np.concatenate([r["ma"] for r in recs], axis=0)
    return recs, ev.aggregate_runs(ma, threshold=cfg.threshold)


def _mmse_gate_ser(snr_db: float, nu: float, seed: int,
                   n: int = 400_000) -> float:
    """Reference gate: symbol-spaced 20-tap genie MMSE on the unshaped
    5-tap ISI channel."""
    rng = np.random.default_rng(seed)
    c = modem.build_constellation(64, nu)
    s = modem.sample_symbols(c, n, rng)
    rx = ch.awgn_isi_apply(s, 1, ch.H_SIM, snr_db, rng)
    _, out, _ = eq.mmse_baseline(rx, s, n_taps=20, sps=1)
    sl = slice(50, -50)
    i, q = modem.map_decide(out[sl], c, 10.0 ** (-snr_db / 10.0) / 2.0)
    ri, rq = symbol_indices(c, s[sl])
    return float(np.mean((i != ri) | (q != rq)))


# ---------------------------------------------------------------------------
# frozen experiment configurations

CFG4_VAE = ExperimentConfig(
    seed=104, variant="awgn_isi", snr_db=20.0, n_os=2, shaping="rrc",
    h_sim="h1", m=64, kind="VAE-LE", taps=25, batch_symbols=350, lr=2e-3,
    scheduler=True, n_ind=40, n_run=3)
CFG4_CMA = replace(CFG4_VAE, kind="CMA", lr=1.5e-3, scheduler=False)
CFG5_VAE = replace(CFG4_VAE, entropy=5.72, taps=35, snr_db=24.0, n_ind=60)
CFG5_CMA = replace(CFG4_CMA, entropy=5.72, snr_db=24.0)
CFG6 = ExperimentConfig(
    seed=106, variant="dp_optical", snr_db=23.0, n_os=2, shaping="rrc",
    m=64, kind="VAE-LE", taps=25, batch_symbols=350, lr=0.5e-3,
    scheduler=True, n_ind=60, n_run=2, symbol_rate=90e9)
CFG7_18 = replace(CFG6, snr_db=18.0)
CFG8 = ExperimentConfig(
    seed=108, variant="awgn_isi", snr_db=20.0, n_os=2, shaping="none",
    h_sim="h1", m=64, kind="VAE-LE", taps=25, batch_symbols=350, lr=2e-3,
    scheduler=True, n_ind=40, n_run=2)
CFG9_VAE = ExperimentConfig(
    seed=109, variant="dp_optical", snr_db=23.0, dgamma_hv=9e4, n_os=2,
    shaping="rrc", m=64, kind="VAEflex", taps=25, batch_symbols=100,
    flex_symbols=10, lr=1e-3, scheduler=False, n_ind=20, n_run=1)


@pytest.fixture(scope="module")
def awgn64():
    recs_v, rep_v = _aggregate(CFG4_VAE, 3)
    recs_c, rep_c = _aggregate(CFG4_CMA, 3)
    return {"vae": rep_v, "cma": rep_c,
            "mmse": _mmse_gate_ser(20.0, 0.0, seed=204)}


@pytest.fixture(scope="module")
def pcs64():
    recs_v, rep_v = _aggregate(CFG5_VAE, 3)
    recs_c, _ = _aggregate(CFG5_CMA, 3)
    return {"vae": rep_v, "cma_recs": recs_c,
            "mmse": _mmse_gate_ser(24.0, modem.nu_for_entropy(64, 5.72),
                                   seed=205)}


@pytest.fixture(scope="module")
def dp23():
    return _aggregate(CFG6, 2)


@pytest.fixture(scope="module")
def dp18():
    return _aggregate(CFG7_18, 2)


# ---------------------------------------------------------------------------
# criterion 1: finite-difference gradient checks


def test_criterion_01_gradients():
    n_seeds = 100
    worst_prim = 0.0
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        for name, instance in primitive_cases(rng):
            err = max_gradient_error(instance)
            worst_prim = max(worst_prim, err)
            assert err < 1e-5, f"{name} seed {seed}: {err:.3e}"
    worst_full = 0.0
    for seed in range(n_seeds):
        rng = np.random.default_rng(10_000 + seed)
        for name, make in LOSS_INSTANCES:
            err = max_gradient_error(make(rng))
            worst_full = max(worst_full, err)
            assert err < 1e-4, f"{name} seed {seed}: {err:.3e}"
    ok = worst_prim < 1e-5 and worst_full < 1e-4
    _report(1, ok, f"{n_seeds} seeds; worst primitive rel err "
                   f"{worst_prim:.2e} (<1e-5), worst full-loss rel err "
                   f"{worst_full:.2e} (<1e-4)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 2: brute-force evidence bound on a 2-symbol instance


def _bruteforce_setup():
    rng = np.random.default_rng(2026)
    c = modem.build_constellation(4, 0.0)
    h = np.array([0.9 + 0.2j, -0.4 + 0.3j, 0.0])
    y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    hypotheses = []
    for i1 in range(2):
        for j1 in range(2):
            for i2 in range(2):
                for j2 in range(2):
                    x = np.array([c.levels[i1] + 1j * c.levels[j1],
                                  c.levels[i2] + 1j * c.levels[j2]])
                    hypotheses.append(((i1, j1, i2, j2),
                                       sigproc.convolve_same(x, h)))
    return rng, c, h, y, hypotheses


def _loss_breakdown(y, h, q_re, q_im, c):
    # the posteriors pass as their logits, log q, levels before symbols
    bd, _, _, _ = eq.vae_loss(y[None, :], np.log(np.stack([q_re.T, q_im.T]))[None],
                              h[None, None], c, eq.LossContext(1, len(y), len(h), 1, 0, c))
    return bd


def test_criterion_02_bruteforce_elbo():
    rng, c, h, y, hyp = _bruteforce_setup()

    def c_exact(q_re, q_im):
        tot = 0.0
        for (i1, j1, i2, j2), d in hyp:
            prob = q_re[0, i1] * q_im[0, j1] * q_re[1, i2] * q_im[1, j2]
            tot += prob * float(np.sum(np.abs(y - d) ** 2))
        return tot

    # (a) the distortion term equals the enumerated expectation
    worst_c = 0.0
    for _ in range(50):
        q_re = rng.dirichlet(np.ones(2), size=2)
        q_im = rng.dirichlet(np.ones(2), size=2)
        bd = _loss_breakdown(y, h, q_re, q_im, c)
        worst_c = max(worst_c, abs(bd.c_dist[0] - c_exact(q_re, q_im)))
    ok_a = worst_c < 1e-10

    # (b) the evidence dominates the bound for 1000 random posteriors
    log_evidence_terms = None
    min_gap = np.inf
    for _ in range(1000):
        q_re = rng.dirichlet(np.ones(2), size=2)
        q_im = rng.dirichlet(np.ones(2), size=2)
        bd = _loss_breakdown(y, h, q_re, q_im, c)
        sig = bd.sigma_sq
        kl = 0.0
        for q in (q_re, q_im):
            kl += float(np.sum(q * (np.log(q + 1e-30) - np.log(c.prior))))
        elbo = -2.0 * np.log(np.pi * sig) - bd.c_dist[0] / sig - kl
        terms = [np.log(1.0 / 16.0) - 2.0 * np.log(np.pi * sig)
                 - float(np.sum(np.abs(y - d) ** 2)) / sig for _, d in hyp]
        mx = max(terms)
        ln_p = mx + np.log(sum(np.exp(t - mx) for t in terms))
        min_gap = min(min_gap, ln_p - elbo)
    ok_b = min_gap > -1e-9

    # (c) the closed-form noise variance minimizes the bound on a grid
    q_re = rng.dirichlet(np.ones(2), size=2)
    q_im = rng.dirichlet(np.ones(2), size=2)
    bd = _loss_breakdown(y, h, q_re, q_im, c)
    grid = np.geomspace(bd.sigma_sq / 10.0, bd.sigma_sq * 10.0, 4001)
    f = 2.0 * np.log(grid) + bd.c_dist[0] / grid
    best = grid[np.argmin(f)]
    step = grid[1] / grid[0]
    ok_c = best / step <= bd.sigma_sq <= best * step

    ok = ok_a and ok_b and ok_c
    _report(2, ok, f"max |C - enum| {worst_c:.2e} (<1e-10), min evidence gap "
                   f"{min_gap:.2e} (>=0), grid minimizer at sigma^2 = C/N")
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: interference-free Monte-Carlo SER calibration


def test_criterion_03_no_isi_ser():
    rng = np.random.default_rng(30)
    n = 1_000_000
    worst = 0.0
    for m in (16, 64):
        c = modem.build_constellation(m, 0.0)
        for snr in (12.0, 16.0, 20.0):
            s = modem.sample_symbols(c, n, rng)
            sig = 10.0 ** (-snr / 10.0)
            y = add_awgn_expression(s, sig, rng)
            i, q = modem.map_decide(y, c, sig / 2.0)
            ri, rq = symbol_indices(c, s)
            p_hat = float(np.mean((i != ri) | (q != rq)))
            p_ref = qam_awgn_ser(m, snr)
            sd = np.sqrt(p_ref * (1.0 - p_ref) / n)
            pulls = abs(p_hat - p_ref) / sd
            worst = max(worst, pulls)
            assert pulls < 3.0, f"{m}-QAM at {snr} dB: {pulls:.2f} sigma"
    _report(3, worst < 3.0,
            f"6 cells at 1e6 symbols; worst deviation {worst:.2f} sigma (<3)")
    assert worst < 3.0


# ---------------------------------------------------------------------------
# criteria 4-5: uniform and shaped 64-QAM on the ISI channel


def test_criterion_04_uniform_64qam(awgn64):
    vae, cma, mmse = awgn64["vae"], awgn64["cma"], awgn64["mmse"]
    ok = vae.final_ser <= 1.5 * mmse and vae.final_ser < cma.final_ser
    _report(4, ok, f"VAE-LE SER {vae.final_ser:.4f} <= 1.5 x MMSE "
                   f"{mmse:.4f} and < CMA {cma.final_ser:.4f}")
    assert ok


def test_criterion_05_shaped_64qam(pcs64):
    vae, mmse = pcs64["vae"], pcs64["mmse"]
    cma_mins = [float(rec["ma"].min()) for rec in pcs64["cma_recs"]]
    n_cma_fail = sum(m >= 0.3 for m in cma_mins)
    ok = (n_cma_fail >= 2 and vae.n_fail == 0
          and vae.final_ser <= 2.0 * mmse)
    _report(5, ok, f"CMA unsuccessful {n_cma_fail}/3 (min MA "
                   f"{['%.3f' % m for m in cma_mins]}); VAE-LE all runs "
                   f"converge, SER {vae.final_ser:.2e} <= 2 x MMSE "
                   f"{mmse:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# criteria 6-7: dual-polarization link and the noise-variance report


def test_criterion_06_dp_64qam(dp23):
    _, rep = dp23
    gate = qam_awgn_ser(64, 22.0)
    ok = rep.n_fail == 0 and rep.final_ser <= gate
    _report(6, ok, f"DP VAE-LE SER {rep.final_ser:.5f} <= "
                   f"interference-free 22 dB reference {gate:.5f}")
    assert ok


def test_criterion_07_snr_estimate(dp23, dp18):
    details, ok = [], True
    for true_snr, (recs, _) in ((23.0, dp23), (18.0, dp18)):
        for rec in recs:
            est = float(rec["snr_est_db"][-1])
            ok = ok and (true_snr - 1.0 <= est <= true_snr + 0.1)
            details.append(f"{est:.2f}@{true_snr:.0f}")
    _report(7, ok, f"estimates {details} dB within [true - 1, true]")
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: channel impulse-response estimate


def test_criterion_08_channel_estimate():
    recs, _ = _aggregate(CFG8, 2)
    nmses = [float(rec["ip_nmse_db"]) for rec in recs]
    ok = all(v <= -30.0 for v in nmses)
    _report(8, ok, f"aligned channel-estimate NMSE {['%.1f' % v for v in nmses]} "
                   f"dB (gate -30 dB)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 9: time-varying channel, flexible-output receivers


def test_criterion_09_time_varying():
    _, rep_v = _aggregate(CFG9_VAE, 1)
    cma_finals = {}
    for lr in (1e-3, 2e-3, 4e-3):
        _, rep = _aggregate(replace(CFG9_VAE, kind="CMA", lr=lr), 1)
        cma_finals[lr] = rep.final_ser
    flex_finals = {}
    for lr in (1e-3, 2e-3):
        _, rep = _aggregate(replace(CFG9_VAE, kind="CMAflex", lr=lr), 1)
        flex_finals[lr] = rep.final_ser
    cma_best = min(cma_finals.values())
    flex_best = min(flex_finals.values())
    ok = rep_v.final_ser < cma_best and rep_v.final_ser <= flex_best + 1e-12
    _report(9, ok, f"flexible VAE SER {rep_v.final_ser:.4f} < best CMA "
                   f"{cma_best:.4f}; best flexible CMA {flex_best:.4f} "
                   f"does not beat it")
    assert ok


# ---------------------------------------------------------------------------
# criterion 10: byte-level determinism of the experiment runner


def test_criterion_10_determinism(tmp_path):
    # a single-pol ISI link, and a two-pol DP link whose HV angle drifts
    isi = ExperimentConfig(
        seed=7, variant="awgn_isi", snr_db=18.0, m=16, taps=11,
        batch_symbols=200, lr=2e-3, shaping="rrc", n_frame=1_000, n_ind=3,
        n_run=2, ma_window=2, kind="CMA",
        sweep={"kind": ["CMA", "VAE-LE"]})
    dp = replace(isi, variant="dp_optical", n_frame=2_000, dgamma_hv=9e5)
    oks = []
    for cfg in (isi, dp):
        digests = []
        for i, workers in enumerate((1, 2)):
            out = tmp_path / f"{cfg.variant}-rep{i}"
            config.run_experiment(cfg, str(out), workers=workers)
            digests.append(tuple(
                hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("summary.csv", "raw.csv")))
        oks.append(digests[0] == digests[1])
        _report(10, oks[-1], f"{cfg.variant} summary-CSV sha256 {digests[0][0][:16]}... "
                             f"identical across repeats and worker counts")
    assert all(oks)
