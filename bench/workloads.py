"""The benchmark's workloads and the reference outputs they are checked
against.

Each workload is one ExperimentConfig run through
``blindeq.config.run_experiment``; the benchmark seed becomes the config
seed, so every input (symbols, noise, channel realization, VAE-NN weights)
is derived from it.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the seed the reference outputs below were recorded with
DEFAULT_SEED = 1

# the dual-polarization link of the dp-timevarying recipe
_DP_LINK = dict(variant="dp_optical", n_os=2, shaping="rrc", m=64, snr_db=23.0,
                dgamma_hv=9e4, taps=25, batch_symbols=100, flex_symbols=10,
                lr=1e-3, scheduler=False)

# n_ind keeps one run_experiment call at 5-12 s on a 2-CPU machine, so a run
# repeats it at least twice; ma_window = n_ind makes the moving average (and
# so summary.csv's final_ser) cover the whole run.
WORKLOADS = {
    # thousands of small, overlapping autodiff updates (~90% of the time);
    # VAEflex converges in frame 1, so frame 2's SER (~0.012) is a sharp check
    "tv-vaeflex": dict(_DP_LINK, kind="VAEflex", n_ind=2, n_run=1, ma_window=2),
    # no autodiff: two-pol evaluation and pairing, the CMA kernel used
    # symbol-wise and per block, CPE and dp_run
    "dp-cma": dict(_DP_LINK, kind="CMA", n_ind=2, n_run=1, ma_window=2,
                   sweep={"kind": ["CMA", "CMAbatch", "CMAflex"]}),
    # single-pol awgn-64qam path at 20 dB: VAE-LE on large non-overlapping
    # batches, VAE-NN's many-channel CNN graph, the ISI channel, and
    # MMSE-genie, whose materialized windows set the peak RSS
    "awgn-mix": dict(variant="awgn_isi", n_os=2, shaping="rrc", h_sim="h1", m=64,
                     snr_db=20.0, kind="VAE-LE", taps=25, batch_symbols=350,
                     lr=2e-3, scheduler=True, n_ind=3, n_run=1, ma_window=3,
                     sweep={"kind": ["VAE-LE", "VAE-NN", "CMA", "MMSE-genie"]}),
}

# Mean per-frame SER of each sweep point at DEFAULT_SEED.  Runs are
# bit-deterministic, so at an unchanged program these match exactly; the
# tolerance admits a change of floating-point evaluation order, which moves
# an adaptive receiver's trajectory by a few symbol errors, while a receiver
# that stops converging moves its point by far more.
REFERENCE_SER = {
    "tv-vaeflex": {0: 0.174445},
    "dp-cma": {0: 0.300908, 1: 0.777674, 2: 0.425202},
    "awgn-mix": {0: 0.85882, 1: 0.935714, 2: 0.409792, 3: 0.108585},
}
REFERENCE_TOL = 0.01


def import_blindeq():
    """Import blindeq from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "blindeq" / "__init__.py").is_file():
        raise SystemExit(f"bench: no blindeq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import blindeq
    if Path(blindeq.__file__).resolve().parent != SRC / "blindeq":
        raise SystemExit(f"bench: blindeq imported from {blindeq.__file__}, not {SRC}")
    return blindeq


def build(name: str, seed: int):
    """The workload's ExperimentConfig for ``seed``."""
    from blindeq.config import ExperimentConfig
    return ExperimentConfig(seed=seed, **WORKLOADS[name])


def preflight(cfg) -> list[str]:
    """Config errors that blindeq would only raise after simulating."""
    from blindeq.config import sweep_points
    errors = []
    for i, pt in enumerate(sweep_points(cfg)):
        flex = pt.flex_symbols if pt.flex_symbols is not None else pt.batch_symbols
        if pt.n_ind < pt.ma_window:
            errors.append(f"point {i}: n_ind {pt.n_ind} < ma_window {pt.ma_window}")
        if pt.taps % 2 == 0:
            errors.append(f"point {i}: taps {pt.taps} is even")
        if not flex <= pt.batch_symbols <= pt.n_frame:
            errors.append(f"point {i}: need flex_symbols {flex} <= batch_symbols "
                          f"{pt.batch_symbols} <= n_frame {pt.n_frame}")
    return errors
