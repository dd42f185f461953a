"""Command-line entry point: run a YAML experiment, run a named recipe, or
list the available recipes."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import ExperimentConfig, load_config, run_experiment
from .errors import ConfigError

# Preconfigured experiments.  Each is a full ExperimentConfig; n_ind and
# n_run default to desk scale and can be raised from the command line.
RECIPES = {
    "awgn-64qam": ExperimentConfig(
        seed=1, variant="awgn_isi", n_os=2, shaping="rrc", h_sim="h1",
        m=64, kind="VAE-LE", taps=25, batch_symbols=350, lr=2e-3,
        scheduler=True, n_ind=40, n_run=3, snr_db=20.0,
        sweep={"kind": ["VAE-LE", "CMA", "MMSE-genie"],
               "snr_db": [16.0, 20.0, 24.0]}),
    "awgn-pcs": ExperimentConfig(
        seed=1, variant="awgn_isi", n_os=2, shaping="rrc", h_sim="h1",
        m=64, entropy=5.72, kind="VAE-LE", taps=35,
        batch_symbols=350, lr=2e-3, scheduler=True, n_ind=60, n_run=3,
        snr_db=24.0, sweep={"kind": ["VAE-LE", "CMA", "MMSE-genie"],
                            "snr_db": [20.0, 22.0, 24.0]}),
    "awgn-h2": ExperimentConfig(
        seed=1, variant="awgn_isi", n_os=2, shaping="rrc", h_sim="h2",
        m=64, kind="VAE-LE", taps=25, batch_symbols=350, lr=2e-3,
        scheduler=True, n_ind=40, n_run=3, snr_db=20.0,
        sweep={"kind": ["VAE-LE", "CMA", "MMSE-genie"]}),
    "dp-64qam": ExperimentConfig(
        seed=1, variant="dp_optical", n_os=2, shaping="rrc", m=64,
        kind="VAE-LE", taps=25, batch_symbols=350, lr=0.5e-3, scheduler=True,
        n_ind=60, n_run=3, snr_db=23.0, symbol_rate=90e9,
        sweep={"kind": ["VAE-LE", "CMA"], "symbol_rate": [40e9, 90e9]}),
    "dp-pcs": ExperimentConfig(
        seed=1, variant="dp_optical", n_os=2, shaping="rrc", m=64,
        entropy=4.6, kind="VAE-LE", taps=25, batch_symbols=350, lr=0.5e-3,
        scheduler=True, n_ind=60, n_run=3, snr_db=21.0,
        sweep={"entropy": [5.72, 4.6, 4.125]}),
    "dp-hyperparams": ExperimentConfig(
        seed=1, variant="dp_optical", n_os=2, shaping="rrc", m=64,
        kind="VAE-LE", taps=25, batch_symbols=350, lr=0.5e-3, scheduler=True,
        n_ind=60, n_run=3, snr_db=23.0,
        sweep={"batch_symbols": [150, 350, 600], "lr": [0.25e-3, 0.5e-3, 1e-3]}),
    "dp-timevarying": ExperimentConfig(
        seed=1, variant="dp_optical", n_os=2, shaping="rrc", m=64,
        kind="VAEflex", taps=25, batch_symbols=100, flex_symbols=10,
        lr=1e-3, scheduler=False, n_ind=20, n_run=3, snr_db=23.0,
        dgamma_hv=9e4,
        sweep={"kind": ["VAEflex", "CMA", "CMAflex"],
               "dgamma_hv": [0.0, 4.5e4, 9e4]}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blindeq",
        description="Blind-equalization simulation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a YAML experiment configuration")
    p_run.add_argument("config", help="path to the YAML configuration")
    _common(p_run)

    p_rec = sub.add_parser("recipe", help="run a preconfigured experiment")
    p_rec.add_argument("name", choices=sorted(RECIPES))
    _common(p_rec)
    p_rec.add_argument("--n-ind", type=int, default=None,
                       help="override frames per run; the moving-average "
                            "window shrinks to it when it is shorter")
    p_rec.add_argument("--n-run", type=int, default=None,
                       help="override independent runs per sweep point")
    p_rec.add_argument("--seed", type=int, default=None)

    sub.add_parser("list-recipes", help="list preconfigured experiments")
    return parser


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default="results", help="output directory")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel worker processes (default: 1)")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-recipes":
        for name in sorted(RECIPES):
            cfg = RECIPES[name]
            print(f"{name}: {cfg.variant}, {cfg.kind} sweep={cfg.sweep}")
        return 0
    try:
        if args.command == "run":
            cfg = load_config(args.config)
        else:
            cfg = RECIPES[args.name]
            overrides = {k: getattr(args, k) for k in ("n_ind", "n_run", "seed")
                         if getattr(args, k) is not None}
            if "n_ind" in overrides:
                overrides["ma_window"] = min(cfg.ma_window, overrides["n_ind"])
            if overrides:
                cfg = replace(cfg, **overrides)
        result = run_experiment(cfg, args.out, workers=args.workers)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    for row in result["summary"]:
        print(f"sweep {row['sweep_index']}: kind={row['kind']} "
              f"snr={row['snr_db']} final_ser={row['final_ser']:.6g} "
              f"success={row['n_success']}/{row['n_success'] + row['n_fail']}")
    print(f"results written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
