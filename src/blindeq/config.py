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
# the fields a sweep may set, in summary.csv's column order
SWEEP_KEYS = ("kind", "snr_db", "lr", "batch_symbols", "taps", "symbol_rate",
              "dgamma_hv", "entropy")
# the values a number or bool field's annotation admits, and their name in errors
_SCALAR_TYPES = {"int": ((int, np.integer), "an integer"), "bool": (bool, "true or false"),
                 "float": ((int, float, np.integer, np.floating), "a finite number")}


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
    symbol_rate: float = 90e9            # Bd
    gamma_hv: float = 0.1 * np.pi        # HV phase shift, rad
    phi_iq: float = 0.01 * np.pi         # IQ phase shift, rad
    d_pmd: float = 0.1                   # ps / sqrt(km)
    l_pmd: float = 1000.0                # km
    beta_cd: float = -26.0               # ps^2 / km
    l_cd: float = 1.0                    # km (residual, uncompensated)
    dgamma_hv: float = 0.0               # HV drift, rad / s
    m: int = 64
    entropy: float | None = None         # PCS entropy, bit/symbol; uniform when None
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
    n_frame: int = 10_000                # symbols per frame: the scoring and drift grid
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
        if not isinstance(self.sweep, dict):
            raise ConfigError(f"sweep must be a mapping of axis to values, got {self.sweep!r}")
        for key in self.sweep:
            if key not in SWEEP_KEYS:
                raise ConfigError(f"cannot sweep over {key!r}; "
                                  f"allowed: {SWEEP_KEYS}")
        if self.sweep:
            sweep_points(self)  # each point re-enters here without a sweep
            return
        # what a run would otherwise reject only mid-run, first the types: an
        # int field holds an int, a float field a finite int or float, a bool
        # field a bool, and a bool is neither number
        for f in fields(self):
            v, want = getattr(self, f.name), f.type.removesuffix(" | None")
            if want not in _SCALAR_TYPES or (v is None and want != f.type):
                continue
            types, word = _SCALAR_TYPES[want]
            ok = isinstance(v, types) and (want == "bool") == isinstance(v, bool)
            if ok and want == "float" and not -np.inf < v < np.inf:
                ok = f.name == "snr_db" and v == np.inf  # a noiseless link
            if not ok:
                hint = " (YAML reads a float only with a dot and a signed exponent: 1.0e-3)"
                raise ConfigError(f"{f.name} must be {word}, got {v!r}"
                                  f"{hint if isinstance(v, str) else ''}")
        try:  # the noise factor the link injects; the non-VAE kinds also decide with it
            noise = 10.0 ** (-float(self.snr_db) / 10.0)
        except OverflowError:
            noise = np.inf
        if noise == np.inf or noise == 0 and not self.kind.startswith("VAE"):
            raise ConfigError(f"snr_db {self.snr_db} gives {self.kind} a noise factor {noise}")
        if not 1 <= self.ma_window <= self.n_ind:
            raise ConfigError(f"need 1 <= ma_window <= n_ind, got "
                              f"{self.ma_window}, {self.n_ind}")
        # lr = 0 is legal: it freezes the taps, as CMA's mu = 0 does
        if min(self.seed, self.lr, self.d_pmd, self.l_pmd) < 0 or self.symbol_rate <= 0:
            raise ConfigError("need seed, lr, d_pmd, l_pmd >= 0 and symbol_rate > 0, got "
                              f"{self.seed, self.lr, self.d_pmd, self.l_pmd, self.symbol_rate}")
        if not 0 < self.threshold <= 1:
            raise ConfigError(f"threshold must be in (0, 1], got {self.threshold}")
        flex = 1 if self.flex_symbols is None else self.flex_symbols
        if min(self.n_run, self.n_frame, self.n_os, self.batch_symbols, flex) < 1:
            raise ConfigError(f"need n_run, n_frame, n_os, batch_symbols and flex_symbols "
                              f">= 1, got {self.n_run}, {self.n_frame}, {self.n_os}, "
                              f"{self.batch_symbols}, {self.flex_symbols}")
        modem.build_constellation(self.m, self.effective_nu())  # m and entropy
        _pulse(self)  # the RRC roll-off and span
        eq.dirac_taps(1, self.taps)  # odd lengths; the MMSE genie's too, as _edge_trim reads it
        if self.ch_taps is not None:
            eq.dirac_taps(1, self.ch_taps)
        if self.kind == "MMSE-genie" and (self.variant != "awgn_isi" or self.mmse_taps < 1):
            raise ConfigError(f"MMSE-genie runs on a single channel (awgn_isi) with "
                              f"mmse_taps >= 1, got {self.variant}, {self.mmse_taps}")
        if self.kind.startswith("CMA") and (self.cpe_window < 1 or self.cpe_window % 2 == 0):
            raise ConfigError(f"cpe_window must be positive and odd, got {self.cpe_window}")
        if self.kind == "VAE-NN" and (self.k1 < 1 or self.k1 % 2 == 0 or self.k2 not in (3, 5)
                                      or (self.hidden is not None and self.hidden < 1)):
            raise ConfigError(f"VAE-NN needs a positive odd k1, k2 in {{3, 5}} and hidden "
                              f">= 1, got {self.k1}, {self.k2}, {self.hidden}")
        if self.n_frame <= 2 * _edge_trim(self):
            raise ConfigError(f"n_frame {self.n_frame} must exceed twice the edge trim "
                              f"{_edge_trim(self)}, or no symbol is scored")
        if self.kind.startswith("VAE"):
            n_b, n_flex = _update_block(self)
            if n_flex > n_b:  # an update emits at most its batch
                raise ConfigError(f"need flex_symbols <= batch_symbols, got {n_flex}, {n_b}")
            if self.n_ind * self.n_frame < self.batch_symbols:
                raise ConfigError("the stream (n_ind * n_frame) is shorter than one batch")
            f_ch = self.ch_taps or self.taps  # the loss trims f_ch // 2 samples per batch end
            if self.batch_symbols * self.n_os < f_ch:
                raise ConfigError(f"a batch of {self.batch_symbols * self.n_os} samples is "
                                  f"shorter than the {f_ch}-tap channel model")

    @property
    def n_pol(self) -> int:
        return 2 if self.variant == "dp_optical" else 1

    def effective_nu(self) -> float:
        return 0.0 if self.entropy is None else modem.nu_for_entropy(self.m, self.entropy)


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
    try:
        with open(path, "rb") as fh:  # PyYAML reports undecodable bytes
            raw = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return from_dict(raw or {})


def config_digest(cfg: ExperimentConfig) -> str:
    d = asdict(cfg)
    return hashlib.sha256(json.dumps(d, sort_keys=True, default=str)
                          .encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# single-run pipeline


def _edge_trim(cfg: ExperimentConfig) -> int:
    """Symbols left unscored at each end of every frame: the equalizer's
    and the channel's memory."""
    return cfg.taps + (len(ch.H_SIMS[cfg.h_sim]) if cfg.variant == "awgn_isi" else 20)


def _pulse(cfg: ExperimentConfig) -> np.ndarray:
    """The transmit pulse: the RRC taps of a shaped link, one unit tap (zero
    insertion) for an unshaped one."""
    if cfg.shaping == "rrc":
        return sigproc.rrc_taps(cfg.rolloff, cfg.rrc_span, cfg.n_os)
    return np.ones(1)


def _transmit(cfg: ExperimentConfig, c: modem.Constellation,
              rng: np.random.Generator):
    """The (pol, n_sym) symbol streams and the (pol, n_sym n_os) pulse-shaped
    sample streams, filled one pol at a time."""
    n_sym, pulse = cfg.n_ind * cfg.n_frame, _pulse(cfg)
    tx_sym = np.empty((cfg.n_pol, n_sym), dtype=np.complex128)
    tx_sig = np.empty((cfg.n_pol, n_sym * cfg.n_os), dtype=np.complex128)
    for p in range(cfg.n_pol):  # shaping draws nothing: pol 0's symbols still come first
        tx_sym[p] = modem.sample_symbols(c, n_sym, rng)
        tx_sig[p] = sigproc.shape(tx_sym[p], pulse, cfg.n_os)
    return tx_sym, tx_sig


def _propagate(cfg: ExperimentConfig, tx_sig, rng):
    if cfg.variant == "dp_optical":
        return ch.dp_run(tx_sig, cfg, rng)
    return ch.awgn_isi_apply(tx_sig[0], cfg.n_os, ch.H_SIMS[cfg.h_sim], cfg.snr_db, rng)[None]


def _update_block(cfg: ExperimentConfig) -> tuple[int, int]:
    """The adaptive receiver's (n_b, n_flex): train on n_b symbols, advance
    by n_flex.  CMA is symbol-wise; flex_symbols applies to CMAflex and
    VAEflex only, and defaults to batch_symbols."""
    if cfg.kind == "CMA":
        return 1, 1
    if cfg.kind in ("CMAflex", "VAEflex") and cfg.flex_symbols is not None:
        return cfg.batch_symbols, cfg.flex_symbols
    return cfg.batch_symbols, cfg.batch_symbols


def _equalize(cfg: ExperimentConfig, rx: np.ndarray, c, tx_sym, rng) -> eq.EqualizerResult:
    """Dispatch on the equalizer kind."""
    kind = cfg.kind
    if kind == "MMSE-genie":
        _, out, _ = eq.mmse_baseline(rx[0], tx_sym[0], cfg.mmse_taps * cfg.n_os, cfg.n_os)
        return eq.EqualizerResult(out=out[None, :])
    n_b, n_flex = _update_block(cfg)
    if kind.startswith("CMA"):
        out, _, corr = eq.cma_run(rx, c, cfg.taps, cfg.lr, cfg.n_os, cfg.n_frame,
                                  cfg.scheduler, n_b, n_flex)
        out = eq.viterbi_viterbi_cpe(out, cfg.cpe_window)
        return eq.EqualizerResult(out=out, singularity_corr=corr)
    f_ch = cfg.ch_taps or cfg.taps
    if kind == "VAE-NN":
        state = eq.VaeNnState(cfg.n_pol, cfg.n_os, cfg.m, cfg.k1, cfg.k2, f_ch, rng,
                              hidden=cfg.hidden)
    else:
        state = eq.VaeLeState(cfg.n_pol, cfg.n_os, cfg.taps, f_ch, cfg.matched_demapper)
    return eq.run_vae(rx, c, state, n_b, n_flex, cfg.lr, cfg.scheduler, cfg.n_frame)


def _per_frame_sigma(cfg, sigma_traj):
    """Map the update-time noise-variance trajectory onto the frame grid: each
    frame takes the sigma^2 of the latest update that starts before its end
    (the first update starts at symbol 0)."""
    ends = np.arange(1, cfg.n_ind + 1) * cfg.n_frame
    return sigma_traj[np.searchsorted(sigma_traj[:, 0], ends) - 1, 1]


def run_single(cfg: ExperimentConfig, run_idx: int, sweep_idx: int) -> dict:
    """One full transmit / propagate / equalize / evaluate run."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(cfg.seed, sweep_idx, run_idx)))
    c = modem.build_constellation(cfg.m, cfg.effective_nu())
    tx_sym, tx_sig = _transmit(cfg, c, rng)
    rx = _propagate(cfg, tx_sig, rng)
    del tx_sig  # a run holds its tx symbols, rx and the equalizer output, not these
    t0 = time.perf_counter()
    res = _equalize(cfg, rx, c, tx_sym, rng)
    wall = time.perf_counter() - t0

    # decision variance: estimated trajectory for the VAE family, the true
    # injected value otherwise
    sig_frames = (_per_frame_sigma(cfg, res.sigma_traj) if res.sigma_traj is not None
                  else np.full(cfg.n_ind, 10.0 ** (-cfg.snr_db / 10.0)))

    # run-level polarization pairing, then per-frame ambiguity resolution of
    # the paired rows (a list index: a tuple picks out one element); MAP
    # decisions see the per-component noise variance
    pairing = ev.resolve_pol_pairing(res.out, tx_sym, c, float(sig_frames[-1]) / 2.0,
                                     n_frame=cfg.n_frame)
    curves = ev.frame_ser_curve(res.out[list(pairing)], tx_sym, c, sig_frames / 2.0,
                                cfg.n_frame, _edge_trim(cfg))
    record = {
        "frame_ser": curves,
        "ma": sigproc.window_means(curves, cfg.ma_window),
        "wall_s": wall,
        "singularity_corr": res.singularity_corr,
    }
    if res.ch_taps is not None:  # a VAE run that did not diverge
        record["snr_est_db"] = ev.snr_report(sig_frames)
        if cfg.variant == "awgn_isi":
            # the channel model learns the pulse convolved with the channel
            h_true = np.convolve(ch.oversampled_impulse_response(ch.H_SIMS[cfg.h_sim],
                                                                 cfg.n_os), _pulse(cfg))
            record["ip_nmse_db"] = ev.ip_nmse_db(res.ch_taps[0, 0], h_true)
    return record


# ---------------------------------------------------------------------------
# sweeps and reporting


def sweep_points(cfg: ExperimentConfig):
    """Cartesian product of the sweep axes, applied over the base config."""
    keys = sorted(cfg.sweep)
    points = [dict()]
    for k in keys:
        vals = cfg.sweep[k]
        if not isinstance(vals, (list, tuple)) or not vals:
            raise ConfigError(f"sweep axis {k!r} must be a non-empty list")
        points = [dict(p, **{k: v}) for p in points for v in vals]
    return [replace(cfg, sweep={}, **p) for p in points]


def run_experiment(cfg: ExperimentConfig, out_dir: str, workers: int = 1) -> dict:
    """Run all sweep points and runs; write raw/summary CSVs and a manifest.

    Returns the summary as a list of dicts (also written to summary.csv).
    All randomness derives from cfg.seed, the sweep index, and the run
    index, so outputs are byte-identical across repeats and worker counts.
    """
    if not isinstance(workers, int) or workers < 1:
        raise ConfigError(f"the worker count must be an integer >= 1, got {workers!r}")
    os.makedirs(out_dir, exist_ok=True)
    points = sweep_points(cfg)
    jobs = [(pt, r, i) for i, pt in enumerate(points) for r in range(cfg.n_run)]
    t0 = time.perf_counter()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_single, *zip(*jobs)))
    else:
        results = list(map(run_single, *zip(*jobs)))

    raw_rows = [(i, r, p, k, ser) for (_, r, i), rec in zip(jobs, results)
                for (p, k), ser in np.ndenumerate(rec["frame_ser"])]
    summary_rows = []
    for i, pt in enumerate(points):
        # jobs run point by point, and map keeps their order
        recs = results[i * cfg.n_run: (i + 1) * cfg.n_run]
        ma = np.concatenate([rec["ma"] for rec in recs], axis=0)
        rep = ev.aggregate_runs(ma, threshold=cfg.threshold)
        # the swept fields as the point sets them, then the aggregate
        row = {"sweep_index": i,
               **{k: "" if getattr(pt, k) is None else getattr(pt, k) for k in SWEEP_KEYS},
               "final_ser": rep.final_ser, "n_success": rep.n_success, "n_fail": rep.n_fail}
        snrs = [rec["snr_est_db"][-1] for rec in recs if "snr_est_db" in rec]
        row["snr_est_db"] = float(np.mean(snrs)) if snrs else ""
        nmses = [rec["ip_nmse_db"] for rec in recs if "ip_nmse_db" in rec]
        row["ip_nmse_db"] = float(np.mean(nmses)) if nmses else ""
        summary_rows.append(row)

    _write_csv(os.path.join(out_dir, "raw.csv"), _RAW_COLS, raw_rows)
    _write_csv(os.path.join(out_dir, "summary.csv"), _SUMMARY_COLS,
               [[row[c] for c in _SUMMARY_COLS] for row in summary_rows])
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


_RAW_COLS = ("sweep_index", "run", "pol", "frame", "ser")
_SUMMARY_COLS = ("sweep_index", *SWEEP_KEYS, "final_ser", "n_success", "n_fail",
                 "snr_est_db", "ip_nmse_db")


def _write_csv(path: str, cols, rows) -> None:
    with open(path, "w") as fh:
        for row in (cols, *rows):
            fh.write(",".join(_fmt(v) for v in row) + "\n")
