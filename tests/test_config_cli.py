"""Configuration handling, the sweep runner, and the command line."""

import hashlib
import json
import os
from dataclasses import replace

import numpy as np
import pytest
import yaml

from blindeq import cli, config
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
    cfg = config.ExperimentConfig(seed=1, m=64, nu=0.5, entropy=5.72)
    assert abs(cfg.effective_nu() - 0.0271) < 1e-3
    cfg = config.ExperimentConfig(seed=1, m=64, nu=0.5)
    assert cfg.effective_nu() == 0.5


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
    rec = config.run_single(TINY, 0, TINY.seed, 0)
    assert rec["frame_ser"].shape == (1, 3)
    assert rec["ma"].shape == (1, 2)
    assert np.all((rec["frame_ser"] >= 0) & (rec["frame_ser"] <= 1))
    again = config.run_single(TINY, 0, TINY.seed, 0)
    assert np.array_equal(rec["frame_ser"], again["frame_ser"])


def test_run_single_vae_records_extras():
    cfg = replace(TINY, kind="VAE-LE", batch_symbols=150, n_ind=2)
    rec = config.run_single(cfg, 0, cfg.seed, 0)
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
    rec = config.run_single(cfg, 0, cfg.seed, 0)
    assert rec["frame_ser"][0, -1] == 0.0
    assert rec["ip_nmse_db"] <= -30.0


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
