"""Configuration handling, the sweep runner, and the command line."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from blindeq import cli, config, modem
from blindeq.errors import ConfigError


def test_from_dict_validation():
    cfg = config.from_dict({"seed": 3, "m": 16, "kind": "CMA"})
    assert cfg.seed == 3 and cfg.m == 16
    with pytest.raises(ConfigError):
        config.from_dict({"seed": 1, "bogus_key": 2})
    with pytest.raises(ConfigError):
        config.from_dict({"m": 16})  # seed is mandatory
    with pytest.raises(ConfigError):
        config.from_dict({"seed": 1, "kind": "LMS"})
    with pytest.raises(ConfigError):
        config.from_dict({"seed": 1, "variant": "fiber"})
    with pytest.raises(ConfigError):
        config.from_dict({"seed": 1, "sweep": {"seed": [1, 2]}})
    with pytest.raises(ConfigError):
        config.from_dict([("seed", 1)])


def test_effective_nu_override():
    cfg = config.ExperimentConfig(seed=1, m=64, entropy=5.72)
    assert abs(cfg.effective_nu() - 0.0271) < 1e-3
    assert config.ExperimentConfig(seed=1, m=64).effective_nu() == 0.0


def test_n_pol_property():
    assert config.ExperimentConfig(seed=1, variant="awgn_isi").n_pol == 1
    assert config.ExperimentConfig(seed=1, variant="dp_optical").n_pol == 2


def test_sweep_points_cartesian():
    cfg = config.ExperimentConfig(
        seed=1, sweep={"snr_db": [10.0, 20.0], "kind": ["CMA", "VAE-LE"]})
    pts = config.sweep_points(cfg)
    assert len(pts) == 4
    assert all(p.sweep == {} for p in pts)
    # sorted axis order: kind varies slowest
    assert [(p.kind, p.snr_db) for p in pts] == [
        ("CMA", 10.0), ("CMA", 20.0), ("VAE-LE", 10.0), ("VAE-LE", 20.0)]
    with pytest.raises(ConfigError):
        config.sweep_points(config.ExperimentConfig(seed=1,
                                                    sweep={"snr_db": []}))


def test_config_digest_sensitivity():
    a = config.ExperimentConfig(seed=1)
    b = config.ExperimentConfig(seed=2)
    assert config.config_digest(a) == config.config_digest(a)
    assert config.config_digest(a) != config.config_digest(b)


def test_load_config_yaml(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text("seed: 5\nm: 16\nkind: CMA\nsnr_db: 18.0\n")
    cfg = config.load_config(str(path))
    assert cfg.seed == 5 and cfg.m == 16 and cfg.snr_db == 18.0


TINY = config.ExperimentConfig(
    seed=11, variant="awgn_isi", snr_db=18.0, m=16, kind="CMA", taps=11,
    lr=2e-3, shaping="rrc", n_frame=1_000, n_ind=3, n_run=1, ma_window=2)


def test_run_single_record_shapes():
    rec = config.run_single(TINY, 0, 0)
    assert rec["frame_ser"].shape == (1, 3)
    assert rec["ma"].shape == (1, 2)
    assert np.all((rec["frame_ser"] >= 0) & (rec["frame_ser"] <= 1))
    again = config.run_single(TINY, 0, 0)
    assert np.array_equal(rec["frame_ser"], again["frame_ser"])


def test_run_single_vae_records_extras():
    cfg = replace(TINY, kind="VAE-LE", batch_symbols=150, n_ind=2)
    rec = config.run_single(cfg, 0, 0)
    assert "snr_est_db" in rec and rec["snr_est_db"].shape == (2,)
    assert "ip_nmse_db" in rec and np.isfinite(rec["ip_nmse_db"])


def test_run_single_scores_shaped_channel_estimate():
    # on a noiseless RRC-shaped link the channel model learns the pulse
    # convolved with h_sim; scored against h_sim alone the same estimate
    # reads about -0.6 dB
    cfg = config.ExperimentConfig(
        seed=1, variant="awgn_isi", shaping="rrc", snr_db=float("inf"), m=4,
        kind="VAE-LE", taps=25, batch_symbols=350, lr=5e-3, n_frame=5_000,
        n_ind=10, ma_window=1)
    rec = config.run_single(cfg, 0, 0)
    assert rec["frame_ser"][0, -1] == 0.0
    assert rec["ip_nmse_db"] <= -30.0


@pytest.mark.parametrize("variant, kind", [("awgn_isi", "VAE-LE"), ("awgn_isi", "MMSE-genie"),
                                           ("dp_optical", "VAE-LE"), ("dp_optical", "CMA")])
def test_run_single_peak_allocation_is_a_few_streams(variant, kind):
    # a run holds its tx symbols, one received stream, the equalizer's one
    # normalized copy and its output; the rest is bounded by a frame or a
    # block.  So the traced peak stays under 4.5 (pol, n) sample streams.
    # These cases read 3.5-4.1; they read 5.1-9.7 when the transmitted
    # samples lived through the run, the stages copied the streams they
    # read and the MMSE genie copied 2,048 window rows at a time.
    cfg = replace(TINY, variant=variant, kind=kind, batch_symbols=200, n_ind=20)
    config.run_single(cfg, 0, 0)  # the lazy imports and caches, untraced
    tracemalloc.start()
    try:
        config.run_single(cfg, 0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stream = cfg.n_pol * cfg.n_ind * cfg.n_frame * cfg.n_os * 16  # complex128 bytes
    assert peak < 4.5 * stream, f"peak {peak / stream:.2f} streams"


def test_run_experiment_outputs(tmp_path):
    cfg = replace(TINY, sweep={"snr_db": [14.0, 18.0]})
    out = tmp_path / "res"
    result = config.run_experiment(cfg, str(out))
    assert len(result["summary"]) == 2
    for name in ("raw.csv", "summary.csv", "manifest.json"):
        assert (out / name).exists()
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["config_digest"] == config.config_digest(cfg)
    header = (out / "summary.csv").read_text().splitlines()[0]
    assert header.split(",") == list(config._SUMMARY_COLS)


def test_run_experiment_keeps_diverged_points(tmp_path):
    # both receivers diverge at lr 1e200; each point is written and scored
    # as failed, and the diverged VAE reports neither an SNR nor a channel
    # estimate
    cfg = config.ExperimentConfig(seed=1, m=16, taps=11, n_frame=2000, n_ind=2, n_run=1,
                                  ma_window=2, batch_symbols=200, lr=1e200,
                                  sweep={"kind": ["CMA", "VAE-LE"]})
    config.run_experiment(cfg, str(tmp_path))
    raw = np.loadtxt(tmp_path / "raw.csv", delimiter=",", skiprows=1)
    assert raw[:, 0].tolist() == [0, 0, 1, 1]
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert [(r["kind"], r["final_ser"], r["n_success"]) for r in rows] == [
        ("CMA", "1", "0"), ("VAE-LE", "1", "0")]
    assert rows[1]["snr_est_db"] == rows[1]["ip_nmse_db"] == ""


def test_run_experiment_worker_invariance(tmp_path):
    cfg = replace(TINY, n_run=2)
    h = []
    for i, workers in enumerate((1, 2)):
        out = tmp_path / f"r{i}"
        config.run_experiment(cfg, str(out), workers=workers)
        h.append(hashlib.sha256((out / "raw.csv").read_bytes()).hexdigest())
    assert h[0] == h[1]


def test_cli_list_recipes(capsys):
    assert cli.main(["list-recipes"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == len(cli.RECIPES)
    assert all(name in "\n".join(lines) for name in cli.RECIPES)


def test_cli_module_runs_without_import_warning():
    # `python -m blindeq.cli` must not find blindeq.cli already imported by
    # the package, which Python reports as a RuntimeWarning
    src = str(Path(config.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "blindeq.cli",
                           "list-recipes"], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "awgn-64qam" in proc.stdout


def test_cli_run_yaml(tmp_path, capsys):
    path = tmp_path / "exp.yaml"
    path.write_text("seed: 11\nvariant: awgn_isi\nsnr_db: 18.0\nm: 16\n"
                    "kind: CMA\ntaps: 11\nlr: 2.0e-3\nshaping: rrc\n"
                    "n_frame: 1000\nn_ind: 3\nn_run: 1\nma_window: 2\n")
    out = tmp_path / "res"
    assert cli.main(["run", str(path), "--out", str(out)]) == 0
    assert os.path.exists(out / "summary.csv")
    assert "final_ser" in capsys.readouterr().out


def test_cli_rejects_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("seed: 1\nnope: 2\n")
    assert cli.main(["run", str(path), "--out", str(tmp_path / "x")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_rejects_yaml_float_without_dot(tmp_path, capsys):
    # YAML 1.1 reads a float only with a dot and a signed exponent: both
    # `lr: 1e-3` and `symbol_rate: 90.0e9` load as strings
    path = tmp_path / "exp.yaml"
    for line in ("lr: 1e-3", "symbol_rate: 90.0e9"):
        path.write_text("seed: 11\nkind: CMA\nm: 16\ntaps: 11\nn_frame: 1000\n"
                        f"n_ind: 3\nma_window: 2\n{line}\n")
        assert cli.main(["run", str(path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "1.0e-3" in err and "signed exponent" in err


@pytest.mark.parametrize("content", [
    pytest.param(None, id="missing"),
    pytest.param("dir", id="directory"),
    pytest.param(b"seed: 1\nn_ind: [2\n", id="unparsed"),
    pytest.param(b"seed: 1\nm: \xd0\x00\n", id="not-utf8"),
])
def test_cli_rejects_unreadable_config(tmp_path, capsys, content):
    path = tmp_path / "exp.yaml"
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "x")]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    pytest.param(["--workers", "-3"], id="negative"),
    pytest.param(["--workers", "0"], id="zero"),
])
def test_cli_rejects_bad_worker_count(tmp_path, capsys, monkeypatch, argv):
    def no_run(*args):
        raise AssertionError("a run started")
    monkeypatch.setattr(config, "run_single", no_run)
    assert cli.main(["recipe", "awgn-h2", "--n-ind", "10", "--n-run", "1",
                     "--out", str(tmp_path / "x"), *argv]) == 2
    assert "worker count" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    {"ma_window": 4},                                  # more than n_ind = 3
    {"ma_window": 0},
    {"taps": 12},
    {"kind": "VAE-LE", "ch_taps": 8},
    {"kind": "VAEflex", "batch_symbols": 100, "flex_symbols": 200},
    {"kind": "VAEflex", "batch_symbols": 100, "flex_symbols": 0},
    {"kind": "MMSE-genie", "variant": "dp_optical"},
    {"sweep": {"taps": [11, 12]}},                     # only the 2nd point is bad
    {"sweep": {"kind": ["CMA", "MMSE-genie"]}, "variant": "dp_optical"},
    {"kind": "VAE-LE", "batch_symbols": 3_001},        # more than the stream
    {"kind": "VAE-NN", "sweep": {"batch_symbols": [300, 4_000]}},
    {"kind": "VAE-LE", "n_frame": 100, "n_ind": 1, "ma_window": 1},
    {"kind": "VAEflex", "batch_symbols": 3_100, "flex_symbols": 10},
    {"entropy": 4.5},                                  # more than log2(16)
    {"entropy": 2.0},
    {"sweep": {"entropy": [3.5, 4.5]}},                # only the 2nd point is bad
    {"kind": "VAE-NN", "k2": 4},                       # even: n_b + 1 outputs
    {"kind": "VAE-NN", "k2": 7},
    {"kind": "VAE-NN", "k1": 4},
    {"k1": 4, "sweep": {"kind": ["CMA", "VAE-NN"]}},   # only the 2nd point is bad
    {"n_run": 0},
    {"kind": "CMAbatch", "batch_symbols": 0},
    {"kind": "CMAflex", "flex_symbols": 0},
    {"cpe_window": 500},
    {"m": 10},
    {"nu": -1},
    {"n_os": 0},
    {"n_frame": 0},
    {"shaping": "rrc", "rolloff": 2},
    {"shaping": "rrc", "rrc_span": 3},
    {"kind": "VAE-NN", "hidden": 0},
    {"kind": "MMSE-genie", "mmse_taps": 0},
    {"n_frame": 60, "n_ind": 1, "ma_window": 1, "taps": 25},  # edge trim 30 per end
    {"variant": "dp_optical", "n_frame": 62},          # edge trim 11 + 20
    {"n_frame": 40, "sweep": {"taps": [3, 15]}},       # only the 2nd point is bad
    {"seed": -1},
    {"seed": 1.5},
    {"seed": True},
    {"lr": float("nan")},
    {"lr": -1e-3},
    {"lr": float("inf")},
    {"sweep": {"lr": [1e-3, -1e-3]}},                  # only the 2nd point is bad
    {"snr_db": float("inf")},                          # CMA decides with sigma^2 = 0
    {"kind": "MMSE-genie", "snr_db": float("inf")},
    {"snr_db": 3300.0},                                # the noise factor underflows to 0
    {"kind": "MMSE-genie", "snr_db": 3300.0},
    {"kind": "VAE-LE", "snr_db": -3300.0},             # the noise factor overflows
    {"variant": "dp_optical", "snr_db": -3300.0},
    {"kind": "VAE-LE", "snr_db": float("-inf")},
    {"kind": "VAE-LE", "snr_db": float("nan")},
    {"variant": "dp_optical", "symbol_rate": 0},
    {"variant": "dp_optical", "symbol_rate": float("inf")},  # a zero sample spacing
    {"symbol_rate": -90e9},
    {"variant": "dp_optical", "d_pmd": -0.1},
    {"variant": "dp_optical", "l_pmd": -1000.0},
    {"variant": "dp_optical", "d_pmd": float("inf"), "l_pmd": 0.0},
    {"threshold": float("nan")},
    {"threshold": 0},
    {"threshold": 1.5},
    {"lr": "1e-3"},                                    # YAML 1.1 reads 1e-3 as a string
    {"variant": "dp_optical", "symbol_rate": "90e9"},
    {"taps": 5.0},
    {"n_ind": 2.5},
    {"lr": True},
    {"scheduler": "yes"},
    {"scheduler": 1},
    {"variant": "dp_optical", "gamma_hv": float("nan")},
    {"variant": "dp_optical", "phi_iq": float("inf")},
    {"variant": "dp_optical", "beta_cd": float("-inf")},
    {"variant": "dp_optical", "l_cd": float("nan")},
    {"variant": "dp_optical", "dgamma_hv": float("inf")},
    {"sweep": {"dgamma_hv": [0.0, float("nan")]}},     # only the 2nd point is bad
    {"sweep": 5},                                      # a sweep maps axes to values
    {"sweep": ["kind"]},
    {"sweep": None},
    {"kind": "VAE-LE", "batch_symbols": 5},             # 10 samples, 11 channel taps
    {"kind": "VAE-NN", "ch_taps": 21, "batch_symbols": 10},
    {"kind": "VAEflex", "flex_symbols": 1, "sweep": {"batch_symbols": [300, 5]}},
    {"kind": "MMSE-genie", "taps": -11},               # a negative edge trim
    {"kind": "MMSE-genie", "taps": 12},
    {"kind": "VAE-NN", "k1": -3},                      # odd, but no layer-1 kernel
])
def test_cli_rejects_mid_run_failures_at_load(tmp_path, capsys, monkeypatch, bad):
    def no_run(*args):
        raise AssertionError("a run started")
    monkeypatch.setattr(config, "run_single", no_run)
    raw = {"seed": 1, "kind": "CMA", "m": 16, "taps": 11, "n_frame": 1000,
           "n_ind": 3, "ma_window": 2}
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(dict(raw, **bad)))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "x")]) == 2
    assert "configuration error" in capsys.readouterr().err
    # the same check at load time; a sweep of good points loads
    with pytest.raises(ConfigError):
        config.from_dict(dict(raw, **bad))
    config.from_dict(dict(raw, sweep={"taps": [11, 13]}))


@pytest.mark.parametrize("kind", ["VAE-LE", "VAE-NN"])
def test_vae_batch_as_long_as_the_channel_model_runs(kind):
    # 12 samples against 11 channel taps leave the loss one sample per batch
    cfg = config.from_dict({"seed": 1, "kind": kind, "m": 16, "taps": 11, "n_frame": 1000,
                            "n_ind": 2, "ma_window": 1, "batch_symbols": 6})
    rec = config.run_single(cfg, 0, 0)
    assert np.all(np.isfinite(rec["snr_est_db"]))
    assert np.all((rec["frame_ser"] >= 0) & (rec["frame_ser"] <= 1))


_NASTY = st.sampled_from([0.0, -1.0, float("inf"), float("-inf"), float("nan")])
_NON_FINITE = st.sampled_from([float("inf"), float("-inf"), float("nan")])


def _or_bad(valid, bad=_NASTY):
    """Mostly a valid value, one draw in eight a bad one."""
    return st.integers(0, 7).flatmap(lambda i: bad if i == 0 else valid)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(config.EQUALIZER_KINDS),
       variant=st.sampled_from(["awgn_isi", "dp_optical"]),
       seed=_or_bad(st.integers(0, 50), st.sampled_from([-1, 1.5, True])),
       lr=_or_bad(_or_bad(st.floats(0.0, 5e-3)), st.just(1e200)),  # 1e200 diverges
       snr_db=_or_bad(st.floats(10.0, 30.0), _NASTY | st.sampled_from([3300.0, -3300.0])),
       symbol_rate=_or_bad(st.sampled_from([32e9, 90e9])),
       d_pmd=_or_bad(st.floats(0.0, 0.2)),
       l_pmd=_or_bad(st.floats(0.0, 2000.0)),
       threshold=_or_bad(st.floats(0.05, 1.0), st.sampled_from([0.0, 1.5, float("nan")])),
       link=st.fixed_dictionaries({
           "gamma_hv": _or_bad(st.floats(-4.0, 4.0), _NON_FINITE),
           "phi_iq": _or_bad(st.floats(-4.0, 4.0), _NON_FINITE),
           "beta_cd": _or_bad(st.floats(-30.0, 30.0), _NON_FINITE),
           "l_cd": _or_bad(st.floats(0.0, 10.0), _NON_FINITE),
           "dgamma_hv": _or_bad(st.floats(0.0, 1e5), _NON_FINITE)}))
def test_loaded_configs_run_at_tiny_scale(tmp_path_factory, kind, variant, seed, lr,
                                          snr_db, symbol_rate, d_pmd, l_pmd, threshold,
                                          link):
    # a config that loads propagates to finite samples and runs to the end
    # with every SER in [0, 1], a diverged run's too; anything else fails at
    # load
    raw = {"seed": seed, "kind": kind, "variant": variant, "lr": lr, "snr_db": snr_db,
           "symbol_rate": symbol_rate, "d_pmd": d_pmd, "l_pmd": l_pmd,
           "threshold": threshold, "m": 16, "taps": 5, "n_frame": 300, "n_ind": 1,
           "ma_window": 1, "n_run": 1, "batch_symbols": 100, "flex_symbols": 50,
           "cpe_window": 51, "k1": 5, "hidden": 4, "mmse_taps": 5, **link}
    try:
        cfg = config.from_dict(raw)
    except ConfigError:
        return
    # SER in [0, 1] cannot show a NaN link: its decisions still count errors
    rng = np.random.default_rng(0)
    _, tx_sig = config._transmit(cfg, modem.build_constellation(cfg.m, cfg.effective_nu()), rng)
    assert np.all(np.isfinite(config._propagate(cfg, tx_sig, rng)))
    out = tmp_path_factory.mktemp("run")
    config.run_experiment(cfg, str(out), workers=1)
    ser = np.loadtxt(out / "raw.csv", delimiter=",", skiprows=1, ndmin=2)[:, 4]
    assert ser.shape == (cfg.n_pol,) and np.all((ser >= 0) & (ser <= 1))


def test_cli_recipe_runs_with_overrides(tmp_path, monkeypatch, capsys):
    seen = []

    def fake_run(cfg, out_dir, workers=None):
        seen.append(cfg)
        return {"summary": []}
    monkeypatch.setattr(cli, "run_experiment", fake_run)
    out = tmp_path / "res"
    assert cli.main(["recipe", "dp-pcs", "--n-ind", "12", "--n-run", "1",
                     "--seed", "9", "--out", str(out)]) == 0
    assert f"results written to {out}" in capsys.readouterr().out
    (cfg,) = seen
    assert (cfg.n_ind, cfg.n_run, cfg.seed) == (12, 1, 9)
    recipe = cli.RECIPES["dp-pcs"]
    for f in fields(recipe):
        if f.name not in ("n_ind", "n_run", "seed"):
            assert getattr(cfg, f.name) == getattr(recipe, f.name), f.name


def test_cli_recipe_n_ind_caps_ma_window(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run_experiment", lambda cfg, out_dir, workers=None:
                        seen.append(cfg) or {"summary": []})
    assert cli.main(["recipe", "dp-pcs", "--n-ind", "2", "--n-run", "1",
                     "--out", str(tmp_path / "res")]) == 0
    (cfg,) = seen
    assert (cfg.n_ind, cfg.ma_window, cfg.n_run) == (2, 2, 1)
    recipe = cli.RECIPES["dp-pcs"]
    for f in fields(recipe):
        if f.name not in ("n_ind", "ma_window", "n_run"):
            assert getattr(cfg, f.name) == getattr(recipe, f.name), f.name


def test_per_frame_sigma_uses_no_later_update():
    # a batch spans 2.5 frames: frames 1, 3 and 4 see no update start, and
    # take the latest one before their end, not the run's last
    cfg = config.ExperimentConfig(seed=1, kind="VAE-LE", m=16, batch_symbols=2500,
                                  n_frame=1000, n_ind=8, ma_window=8)
    traj = np.array([[0, .5], [2500, .2], [5000, .1]])
    assert config._per_frame_sigma(cfg, traj).tolist() == [.5, .5, .2, .2, .2, .1, .1, .1]


@pytest.mark.parametrize("kind, flex, block", [
    ("CMA", None, (1, 1)), ("CMA", 10, (1, 1)),
    ("CMAbatch", None, (100, 100)), ("CMAbatch", 10, (100, 100)),
    ("CMAflex", None, (100, 100)), ("CMAflex", 10, (100, 10)),
    ("VAE-LE", None, (100, 100)), ("VAE-LE", 10, (100, 100)),
    ("VAE-NN", None, (100, 100)), ("VAE-NN", 10, (100, 100)),
    ("VAEflex", None, (100, 100)), ("VAEflex", 10, (100, 10)),
    ("MMSE-genie", None, (100, 100)), ("MMSE-genie", 10, (100, 100)),
])
def test_update_block_per_kind(kind, flex, block):
    # (n_b, n_flex): CMA is symbol-wise, and only the flex kinds read
    # flex_symbols, which defaults to batch_symbols
    cfg = config.ExperimentConfig(seed=1, kind=kind, m=16, batch_symbols=100,
                                  flex_symbols=flex, n_frame=1000, n_ind=2, ma_window=2)
    assert config._update_block(cfg) == block


def test_cmabatch_of_one_symbol_is_cma():
    # n_b = n_flex = 1 is the symbol-wise update, whichever kind asks for it
    cfg = config.ExperimentConfig(seed=3, variant="dp_optical", kind="CMA", m=16, taps=11,
                                  batch_symbols=1, n_frame=1000, n_ind=2, ma_window=2)
    c = modem.build_constellation(cfg.m, cfg.effective_nu())
    rng = np.random.default_rng(3)
    tx_sym, tx_sig = config._transmit(cfg, c, rng)
    rx = config._propagate(cfg, tx_sig, rng)
    cma = config._equalize(cfg, rx, c, tx_sym, rng)
    batch = config._equalize(replace(cfg, kind="CMAbatch"), rx, c, tx_sym, rng)
    assert np.array_equal(batch.out, cma.out)
    assert batch.singularity_corr == cma.singularity_corr


def test_cli_recipe_overrides_parse():
    args = cli.build_parser().parse_args(
        ["recipe", "dp-64qam", "--n-ind", "2", "--n-run", "1", "--seed", "9"])
    assert args.name == "dp-64qam" and args.n_ind == 2 and args.seed == 9
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["recipe", "no-such-recipe"])


def test_recipes_are_valid_configs():
    for name, cfg in cli.RECIPES.items():
        assert config.config_digest(cfg), name
        for pt in config.sweep_points(cfg):
            assert pt.kind in config.EQUALIZER_KINDS
