"""Tests of the benchmark's span arithmetic and tracer.

Run from the repository root: python3 -m pytest -q bench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import spantrace  # noqa: E402
import workloads  # noqa: E402
from spantrace import Span, Tracer, self_times, tail_percentile  # noqa: E402


def test_self_time_on_synthetic_tree():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 7.0, 0, 0),
        Span("other_root", 20.0, 21.0, -1, 1),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0, 1.0])


def test_self_time_counts_covered_interval_once_and_clips_to_parent():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("x", 2.0, 6.0, 0, 0),
        Span("y", 4.0, 8.0, 0, 0),       # overlaps x: 2..8 is covered once
        Span("z", 9.0, 12.0, 0, 0),      # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


@pytest.mark.parametrize("n, expected", [
    (19, None),      # 9.5 samples beyond the median
    (20, 50.0),
    (99, 50.0),      # 9.9 beyond p90
    (100, 90.0),
    (999, 90.0),
    (1000, 99.0),
    (9999, 99.0),
    (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    tail = tail_percentile(np.arange(n, dtype=float))
    if expected is None:
        assert tail is None
    else:
        assert tail[0] == expected
        assert tail[1] == pytest.approx(np.percentile(np.arange(n), expected))


def test_tracer_records_nested_spans_and_restores_attributes():
    blindeq = workloads.import_blindeq()
    from blindeq import evaluate, modem
    original = evaluate.map_decide
    c = modem.build_constellation(16)
    x = c.levels[[0, 1, 2, 3]] + 1j * c.levels[[3, 2, 1, 0]]
    tracer = Tracer(blindeq)
    tracer.install()
    try:
        align = evaluate.resolve_ambiguity(x, x, c, 0.01)
    finally:
        tracer.uninstall()
    assert evaluate.map_decide is original
    assert align.ser == 0.0
    ra = [i for i, s in enumerate(tracer.spans) if s.name == "evaluate.resolve_ambiguity"]
    decisions = [s for s in tracer.spans if s.name == "modem.map_decide"]
    assert len(ra) == 1 and decisions
    assert all(s.parent == ra[0] and s.run == -1 for s in decisions)
    assert tracer.counts["modem.map_decide"] == len(decisions)


def test_benchmark_json_lists_every_traced_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    reported = {name: unit for name, (_, unit, _) in
                spantrace.layer_metrics(Tracer(None), 1).items()}
    reported["trace.overhead_frac"] = "ratio"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == reported
    assert set(spec["paths"]) == {BENCH.name}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_preflight_rejects_configs_that_fail_after_simulation():
    workloads.import_blindeq()
    from blindeq.config import ExperimentConfig
    assert workloads.preflight(ExperimentConfig(seed=1, n_ind=4)) == [
        "point 0: n_ind 4 < ma_window 10"]
    bad = ExperimentConfig(seed=1, n_ind=10, taps=24, batch_symbols=100,
                           flex_symbols=200)
    assert len(workloads.preflight(bad)) == 2
    for name in workloads.WORKLOADS:
        assert workloads.preflight(workloads.build(name, 1)) == []
