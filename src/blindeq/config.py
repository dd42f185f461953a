"""Experiment configuration, the end-to-end simulation pipeline, and the
sweep runner with deterministic seeding and CSV reporting."""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, asdict, replace

import numpy as np
import yaml

from . import channel as ch
from . import equalize as eq
from . import evaluate as ev
from . import modem, sigproc
from .errors import ConfigError

EQUALIZER_KINDS = ("CMA", "CMAbatch", "CMAflex", "VAE-LE", "VAE-NN",
                   "VAEflex", "MMSE-genie")
SWEEP_KEYS = ("snr_db", "kind", "lr", "batch_symbols", "taps", "symbol_rate",
              "dgamma_hv", "entropy")


@dataclass
class ExperimentConfig:
    seed: int
    variant: str = "awgn_isi"            # awgn_isi | dp_optical
    snr_db: float = 20.0
    n_os: int = 2
    shaping: str = "none"                # none | rrc
    rolloff: float = 0.1
    rrc_span: int = 32
    h_sim: str = "h1"                    # h1 | h2 (awgn_isi only)
    symbol_rate: float = 90e9
    gamma_hv: float = 0.1 * np.pi
    phi_iq: float = 0.01 * np.pi
    d_pmd: float = 0.1
    l_pmd: float = 1000.0
    beta_cd: float = -26.0
    l_cd: float = 1.0
    dgamma_hv: float = 0.0
    m: int = 64
    nu: float = 0.0
    entropy: float | None = None         # overrides nu when given
    kind: str = "VAE-LE"
    taps: int = 25                       # equalizer length (odd)
    ch_taps: int | None = None           # channel-model length (default taps)
    batch_symbols: int = 300
    flex_symbols: int | None = None      # default batch_symbols
    lr: float = 1e-3
    scheduler: bool = False
    matched_demapper: bool = True
    cpe_window: int = 501
    k1: int = 29                         # VAE-NN layer-1 kernel
    k2: int = 3
    hidden: int | None = None
    mmse_taps: int = 20
    n_frame: int = 10_000
    n_ind: int = 40
    n_run: int = 3
    threshold: float = 0.3
    ma_window: int = 10
    sweep: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in EQUALIZER_KINDS:
            raise ConfigError(f"unknown equalizer kind {self.kind!r}; "
                              f"choose from {EQUALIZER_KINDS}")
        if self.variant not in ("awgn_isi", "dp_optical"):
            raise ConfigError(f"unknown channel variant {self.variant!r}")
        if self.shaping not in ("none", "rrc"):
            raise ConfigError(f"unknown shaping {self.shaping!r}")
        if self.h_sim not in ("h1", "h2"):
            raise ConfigError(f"h_sim must be 'h1' or 'h2', got {self.h_sim!r}")
        for key in self.sweep:
            if key not in SWEEP_KEYS:
                raise ConfigError(f"cannot sweep over {key!r}; "
                                  f"allowed: {SWEEP_KEYS}")
        if self.sweep:
            sweep_points(self)  # each point re-enters here without a sweep
            return
        # what a run would otherwise reject only mid-run
        if not 1 <= self.ma_window <= self.n_ind:
            raise ConfigError(f"need 1 <= ma_window <= n_ind, got "
                              f"{self.ma_window}, {self.n_ind}")
        if self.kind != "MMSE-genie" and self.taps % 2 == 0:
            raise ConfigError(f"taps must be odd, got {self.taps}")
        if self.ch_taps is not None and self.ch_taps % 2 == 0:
            raise ConfigError(f"ch_taps must be odd, got {self.ch_taps}")
        if self.kind == "MMSE-genie" and self.variant != "awgn_isi":
            raise ConfigError("MMSE-genie runs on a single channel (awgn_isi)")
        self.effective_nu()  # the entropy range
        if self.kind == "VAE-NN" and (self.k1 % 2 == 0 or self.k2 not in (3, 5)):
            raise ConfigError(f"VAE-NN needs an odd k1 and k2 in {{3, 5}}, "
                              f"got {self.k1}, {self.k2}")
        if self.kind in ("VAE-LE", "VAE-NN", "VAEflex"):
            _update_schedule(self)  # 1 <= n_flex <= n_b, as the run needs
            if self.n_ind * self.n_frame < self.batch_symbols:
                raise ConfigError("the stream (n_ind * n_frame) is shorter than one batch")

    @property
    def n_pol(self) -> int:
        return 2 if self.variant == "dp_optical" else 1

    def effective_nu(self) -> float:
        if self.entropy is not None:
            return modem.nu_for_entropy(self.m, self.entropy)
        return self.nu


_FIELD_NAMES = frozenset(f.name for f in fields(ExperimentConfig))


def from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a mapping")
    unknown = set(raw) - _FIELD_NAMES
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    if "seed" not in raw:
        raise ConfigError("configuration must set an explicit seed")
    return ExperimentConfig(**raw)


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    return from_dict(raw or {})


def config_digest(cfg: ExperimentConfig) -> str:
    d = asdict(cfg)
    return hashlib.sha256(json.dumps(d, sort_keys=True, default=str)
                          .encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# single-run pipeline


def _channel_params(cfg: ExperimentConfig) -> ch.ChannelParams:
    h = ch.H_SIM if cfg.h_sim == "h1" else ch.H_SIM_2
    return ch.ChannelParams(h_sim=h, gamma_hv=cfg.gamma_hv,
                            phi_iq=cfg.phi_iq, d_pmd=cfg.d_pmd, l_pmd=cfg.l_pmd,
                            beta_cd=cfg.beta_cd, l_cd=cfg.l_cd,
                            dgamma_hv=cfg.dgamma_hv, symbol_rate=cfg.symbol_rate,
                            snr_db=cfg.snr_db, n_frame=cfg.n_frame)


def _pulse(cfg: ExperimentConfig) -> np.ndarray | None:
    """The RRC taps of a shaped link, None for zero insertion."""
    if cfg.shaping == "rrc":
        return sigproc.rrc_taps(cfg.rolloff, cfg.rrc_span, cfg.n_os)
    return None


def _transmit(cfg: ExperimentConfig, c: modem.Constellation,
              rng: np.random.Generator):
    """Per-pol symbol streams and the pulse-shaped sample streams."""
    n_sym = cfg.n_ind * cfg.n_frame
    tx_sym, tx_sig = [], []
    rrc = _pulse(cfg)
    for _ in range(cfg.n_pol):
        s = modem.sample_symbols(c, n_sym, rng)
        tx_sym.append(s.samples)
        if rrc is not None:
            tx_sig.append(sigproc.shape(s, rrc, cfg.n_os))
        else:
            tx_sig.append(sigproc.upsample_zero_insert(s, cfg.n_os))
    return np.stack(tx_sym), tx_sig


def _propagate(cfg: ExperimentConfig, tx_sig, params, rng):
    if cfg.variant == "dp_optical":
        r_te, r_tm = ch.dp_run(tx_sig[0], tx_sig[1], params, rng)
        return np.stack([r_te.samples, r_tm.samples])
    out = ch.awgn_isi_apply(tx_sig[0], params, rng)
    return out.samples[None, :]


def _update_schedule(cfg: ExperimentConfig) -> eq.UpdateSchedule:
    """VAE batch schedule; flex_symbols applies to VAEflex only."""
    flex = (cfg.flex_symbols if cfg.kind == "VAEflex" and cfg.flex_symbols is not None
            else cfg.batch_symbols)
    return eq.UpdateSchedule(n_b=cfg.batch_symbols, n_flex=flex, lr=cfg.lr,
                             scheduler=cfg.scheduler)


def _equalize(cfg: ExperimentConfig, rx: np.ndarray, c, tx_sym, rng) -> eq.EqualizerResult:
    """Dispatch on the equalizer kind."""
    kind = cfg.kind
    if kind == "MMSE-genie":
        _, out, _ = eq.mmse_baseline(rx[0], tx_sym[0],
                                     n_taps=cfg.mmse_taps * cfg.n_os,
                                     sps=cfg.n_os)
        return eq.EqualizerResult(out=out[None, :])
    if kind in ("CMA", "CMAbatch", "CMAflex"):
        n_b = None if kind == "CMA" else cfg.batch_symbols
        n_flex = (cfg.flex_symbols if kind == "CMAflex" else None)
        out, _, corr = eq.cma_run(rx, c, cfg.taps, cfg.lr, cfg.n_os,
                                  n_frame=cfg.n_frame, scheduler=cfg.scheduler,
                                  n_batch=n_b, n_flex=n_flex)
        out = eq.viterbi_viterbi_cpe(out, window=cfg.cpe_window)
        return eq.EqualizerResult(out=np.atleast_2d(out), singularity_corr=corr)
    if kind == "VAE-NN":
        state = eq.VaeNnState(cfg.n_pol, cfg.n_os, cfg.m, cfg.k1, cfg.k2,
                              f_ch=cfg.ch_taps or cfg.taps, rng=rng,
                              hidden=cfg.hidden)
    else:
        state = eq.VaeLeState(cfg.n_pol, cfg.n_os, cfg.taps,
                              f_ch=cfg.ch_taps,
                              matched_demapper=cfg.matched_demapper)
    return eq.run_vae(rx, c, state, _update_schedule(cfg), n_frame=cfg.n_frame)


def _per_frame_sigma(cfg, sigma_traj):
    """Map the update-time noise-variance trajectory onto the frame grid."""
    out = np.empty(cfg.n_ind)
    for k in range(cfg.n_ind):
        lo, hi = k * cfg.n_frame, (k + 1) * cfg.n_frame
        in_frame = sigma_traj[(sigma_traj[:, 0] >= lo) & (sigma_traj[:, 0] < hi), 1]
        out[k] = in_frame[-1] if in_frame.size else sigma_traj[-1, 1]
    return out


def run_single(cfg: ExperimentConfig, run_idx: int, master_seed: int,
               sweep_idx: int) -> dict:
    """One full transmit / propagate / equalize / evaluate run."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(master_seed, sweep_idx, run_idx)))
    c = modem.build_constellation(cfg.m, cfg.effective_nu())
    params = _channel_params(cfg)
    tx_sym, tx_sig = _transmit(cfg, c, rng)
    rx = _propagate(cfg, tx_sig, params, rng)
    t0 = time.perf_counter()
    res = _equalize(cfg, rx, c, tx_sym, rng)
    wall = time.perf_counter() - t0

    # decision variance: estimated trajectory for the VAE family, the true
    # injected value otherwise
    sigma_true = 10.0 ** (-cfg.snr_db / 10.0)
    if res.sigma_traj is not None:
        sig_frames = _per_frame_sigma(cfg, res.sigma_traj)
    else:
        sig_frames = np.full(cfg.n_ind, sigma_true)

    # run-level polarization pairing, then per-frame ambiguity resolution;
    # MAP decisions see the per-component noise variance
    pairing = ev.resolve_pol_pairing(res.out, tx_sym, c, float(sig_frames[-1]) / 2.0,
                                     n_frame=cfg.n_frame)
    edge = cfg.taps + (len(params.h_sim) if cfg.variant == "awgn_isi" else 20)
    curves = np.empty((cfg.n_pol, cfg.n_ind))
    for p in range(cfg.n_pol):
        curves[p] = ev.frame_ser_curve(res.out[pairing[p]], tx_sym[p], c,
                                       sig_frames / 2.0, n_frame=cfg.n_frame,
                                       edge_trim=edge)
    record = {
        "run": run_idx,
        "frame_ser": curves,
        "ma": np.stack([ev.moving_average(curves[p], cfg.ma_window)
                        for p in range(cfg.n_pol)]),
        "wall_s": wall,
        "singularity_corr": res.singularity_corr,
    }
    if res.sigma_traj is not None:
        record["snr_est_db"] = ev.snr_report(sig_frames)
    if res.ch_filter is not None and cfg.variant == "awgn_isi":
        # the channel model learns the pulse convolved with the channel
        h_true = ch.oversampled_impulse_response(params.h_sim, cfg.n_os, _pulse(cfg))
        rep = ev.ip_report(res.ch_filter.taps[0, 0], h_true)
        record["ip_nmse_db"] = rep.nmse_db
    return record


# ---------------------------------------------------------------------------
# sweeps and reporting


def sweep_points(cfg: ExperimentConfig):
    """Cartesian product of the sweep axes, applied over the base config."""
    if not cfg.sweep:
        return [replace(cfg, sweep={})]
    keys = sorted(cfg.sweep)
    points = [dict()]
    for k in keys:
        vals = cfg.sweep[k]
        if not isinstance(vals, (list, tuple)) or not vals:
            raise ConfigError(f"sweep axis {k!r} must be a non-empty list")
        points = [dict(p, **{k: v}) for p in points for v in vals]
    return [replace(cfg, sweep={}, **p) for p in points]


def _run_star(args):
    return run_single(*args)


def run_experiment(cfg: ExperimentConfig, out_dir: str,
                   workers: int | None = None) -> dict:
    """Run all sweep points and runs; write raw/summary CSVs and a manifest.

    Returns the summary as a list of dicts (also written to summary.csv).
    All randomness derives from cfg.seed, the sweep index, and the run
    index, so outputs are byte-identical across repeats and worker counts.
    """
    os.makedirs(out_dir, exist_ok=True)
    if workers is None:
        workers = int(os.environ.get("BLINDEQ_WORKERS", "1"))
    points = sweep_points(cfg)
    jobs = [(pt, r, cfg.seed, i)
            for i, pt in enumerate(points) for r in range(cfg.n_run)]
    t0 = time.perf_counter()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_star, jobs))
    else:
        results = [_run_star(j) for j in jobs]

    raw_rows, summary_rows = [], []
    per_point = {}
    for (pt, r, _, i), rec in zip(jobs, results):
        per_point.setdefault(i, []).append(rec)
        for p in range(rec["frame_ser"].shape[0]):
            for k in range(rec["frame_ser"].shape[1]):
                raw_rows.append((i, r, p, k, rec["frame_ser"][p, k]))
    for i, pt in enumerate(points):
        recs = per_point[i]
        ma = np.concatenate([rec["ma"] for rec in recs], axis=0)
        rep = ev.aggregate_runs(ma, threshold=cfg.threshold)
        row = {
            "sweep_index": i,
            "kind": pt.kind,
            "snr_db": pt.snr_db,
            "lr": pt.lr,
            "batch_symbols": pt.batch_symbols,
            "taps": pt.taps,
            "symbol_rate": pt.symbol_rate,
            "dgamma_hv": pt.dgamma_hv,
            "entropy": "" if pt.entropy is None else pt.entropy,
            "final_ser": rep.final_ser,
            "n_success": rep.n_success,
            "n_fail": rep.n_fail,
        }
        snrs = [rec["snr_est_db"][-1] for rec in recs if "snr_est_db" in rec]
        row["snr_est_db"] = float(np.mean(snrs)) if snrs else ""
        nmses = [rec["ip_nmse_db"] for rec in recs if "ip_nmse_db" in rec]
        row["ip_nmse_db"] = float(np.mean(nmses)) if nmses else ""
        summary_rows.append(row)

    _write_raw_csv(os.path.join(out_dir, "raw.csv"), raw_rows)
    _write_summary_csv(os.path.join(out_dir, "summary.csv"), summary_rows)
    manifest = {
        "config_digest": config_digest(cfg),
        "seed": cfg.seed,
        "n_points": len(points),
        "n_run": cfg.n_run,
        "wall_s": round(time.perf_counter() - t0, 3),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return {"summary": summary_rows, "manifest": manifest}


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _write_raw_csv(path: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write("sweep_index,run,pol,frame,ser\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


_SUMMARY_COLS = ("sweep_index", "kind", "snr_db", "lr", "batch_symbols",
                 "taps", "symbol_rate", "dgamma_hv", "entropy", "final_ser",
                 "n_success", "n_fail", "snr_est_db", "ip_nmse_db")


def _write_summary_csv(path: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(_SUMMARY_COLS) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in _SUMMARY_COLS) + "\n")
