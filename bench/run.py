"""Benchmark for blindeq: runs one workload through the user path,
``blindeq.config.run_experiment(cfg, out_dir, workers=1)``, checks its
outputs, and prints its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload tv-vaeflex --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: the experiment is repeated
until ``--seconds`` have passed (at least twice), after a set-up measurement
of several cold starts.  ``--trace 1`` runs it once untraced and at least
twice with the span tracer of ``spantrace.py`` installed, and reports the
per-layer metrics.  Every line but the last is a human-readable report; the
last is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import spantrace as tracing
import workloads
from workloads import ROOT

HERE = Path(__file__).resolve().parent
OUT_ROOT = ROOT / ".bench_out"
N_COLD_STARTS = 5
COLD_START_TIMEOUT_S = 60


@dataclass
class Rep:
    traced: bool
    wall_s: float = math.nan
    outputs: tuple[bytes, bytes] | None = None   # raw.csv, summary.csv
    error: str = ""


def measure_setup(name: str, seed: int) -> list[float]:
    """Seconds from launching a fresh interpreter until it is ready to start
    the first run, once per cold start."""
    times = []
    for _ in range(N_COLD_STARTS):
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "cold_start.py"), name, str(seed)],
                                stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=COLD_START_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"bench: cold start of {name} failed (exit {code})")
        times.append(elapsed)
    return times


def run_rep(config, cfg, out_dir: Path, tracer: tracing.Tracer | None) -> Rep:
    """One run_experiment call, traced when a tracer is given."""
    rep = Rep(traced=tracer is not None)
    if tracer:
        tracer.install()
    try:
        t0 = perf_counter()
        config.run_experiment(cfg, str(out_dir), workers=1)
        rep.wall_s = perf_counter() - t0
        rep.outputs = ((out_dir / "raw.csv").read_bytes(),
                       (out_dir / "summary.csv").read_bytes())
    except Exception:  # a failed run is counted, and the benchmark goes on
        rep.error = traceback.format_exc()
        print(rep.error, file=sys.stderr)
    finally:
        if tracer:
            tracer.uninstall()
    return rep


def check_outputs(name: str, seed: int, cfg, points, raw: bytes) -> tuple[set, list[str], float]:
    """(failed (sweep_index, run) pairs, messages, ser_mean) for one raw.csv."""
    rows = list(csv.DictReader(io.StringIO(raw.decode())))
    ser: dict[tuple[int, int], list[float]] = {}
    for row in rows:
        ser.setdefault((int(row["sweep_index"]), int(row["run"])), []).append(float(row["ser"]))
    bad, msgs = set(), []
    for i, pt in enumerate(points):
        for r in range(cfg.n_run):
            vals = ser.get((i, r), [])
            if len(vals) != pt.n_pol * pt.n_ind:
                msgs.append(f"point {i} run {r}: {len(vals)} SER rows, "
                            f"expected {pt.n_pol * pt.n_ind}")
                bad.add((i, r))
            elif not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in vals):
                msgs.append(f"point {i} run {r}: SER not finite or outside [0, 1]")
                bad.add((i, r))
    if seed == workloads.DEFAULT_SEED:
        for i, ref in workloads.REFERENCE_SER[name].items():
            vals = [v for r in range(cfg.n_run) for v in ser.get((i, r), [])]
            got = statistics.fmean(vals) if vals else math.nan
            if not abs(got - ref) <= workloads.REFERENCE_TOL:
                msgs.append(f"point {i}: mean SER {got:.6f}, reference {ref:.6f}")
                bad.update((i, r) for r in range(cfg.n_run))
        if not msgs:
            print(f"reference: every point within {workloads.REFERENCE_TOL} of the "
                  f"seed-{seed} reference")
    else:
        print(f"no reference for seed {seed}; checking determinism and finite SER only")
    all_ser = [v for vals in ser.values() for v in vals]
    return bad, msgs, statistics.fmean(all_ser) if all_ser else math.nan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    blindeq = workloads.import_blindeq()
    from blindeq import config
    cfg = workloads.build(args.workload, args.seed)
    problems = workloads.preflight(cfg)
    if problems:
        raise SystemExit("bench: invalid workload config:\n  " + "\n  ".join(problems))
    points = config.sweep_points(cfg)
    runs_per_rep = len(points) * cfg.n_run
    syms_per_rep = cfg.n_run * sum(pt.n_pol * pt.n_ind * pt.n_frame for pt in points)

    setup = [] if args.trace else measure_setup(args.workload, args.seed)

    OUT_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT))
    tracer = tracing.Tracer(blindeq)
    reps: list[Rep] = []
    traced_counts = []
    try:
        t_start = perf_counter()
        while True:
            n_traced = sum(r.traced for r in reps)
            enough = n_traced >= 2 if args.trace else len(reps) >= 2
            if enough and perf_counter() - t_start >= args.seconds:
                break
            # traced: one untraced, two traced, then alternate while time remains
            traced = bool(args.trace and reps) and not (n_traced >= 2 and reps[-1].traced)
            before = tracer.counts.copy()
            reps.append(run_rep(config, cfg, scratch / f"rep{len(reps)}",
                                tracer if traced else None))
            if traced:
                traced_counts.append(tracer.counts - before)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # --- output checks: every failure counts against its runs
    attempted = runs_per_rep * len(reps)
    failed = 0
    messages = []
    good = [r for r in reps if r.outputs is not None]
    for k, r in enumerate(reps):
        if r.error:
            failed += runs_per_rep
            messages.append(f"rep {k}: raised {r.error.strip().splitlines()[-1]}")
        elif r.outputs != good[0].outputs:
            failed += runs_per_rep
            messages.append(f"rep {k}: raw.csv/summary.csv differ from rep "
                            f"{reps.index(good[0])} ({'traced' if r.traced else 'untraced'})")
    ser_mean = math.nan
    if good:
        bad, msgs, ser_mean = check_outputs(args.workload, args.seed, cfg, points,
                                             good[0].outputs[0])
        messages += msgs
        failed += len(bad) * sum(r.outputs == good[0].outputs for r in reps)
    if any(c != traced_counts[0] for c in traced_counts[1:]):
        failed += runs_per_rep * (len(traced_counts) - 1)
        messages.append("exact call counts differ between traced runs: "
                        + "; ".join(str(dict(c)) for c in traced_counts))
    failed = min(failed, attempted)
    for m in messages:
        print(f"CHECK FAILED: {m}")

    rates = {t: [syms_per_rep / r.wall_s for r in good if r.traced == t] for t in (False, True)}
    print(f"workload {args.workload}, seed {args.seed}: {len(reps)} experiments "
          f"({sum(r.traced for r in reps)} traced), {runs_per_rep} runs and "
          f"{syms_per_rep} symbols each")
    metrics: dict[str, tuple[float, str, str]] = {}
    if args.trace:
        metrics.update(tracing.layer_metrics(tracer, len(traced_counts)))
        overhead = (1.0 - statistics.median(rates[True]) / statistics.median(rates[False])
                    if rates[True] and rates[False] else math.nan)
        metrics["trace.overhead_frac"] = (overhead, "ratio", "1 - traced/untraced sym/s")
        tracer.dump(str(OUT_ROOT / f"trace-{args.workload}-seed{args.seed}.jsonl"))
    else:
        walls = " ".join(f"{r.wall_s:.2f}" for r in good)
        metrics["sym_per_s"] = (statistics.median(rates[False]) if good else math.nan, "sym/s",
                                f"median of {len(good)} experiments: {walls} s")
        metrics["setup_s"] = (statistics.median(setup), "s",
                              f"median of {len(setup)} cold starts, "
                              f"{min(setup):.3f}-{max(setup):.3f} s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                  "MB", "this process")
        metrics["ser_mean"] = (ser_mean, "ratio", "mean per-frame SER in raw.csv")
    for mname, (value, unit, note) in metrics.items():
        print(f"  {mname:45s} {value:14.6g} {unit:7s} {note}")
    print(f"  {'fail_frac':45s} {failed / attempted:14.6g} {'ratio':7s} "
          f"{failed} failed / {attempted} attempted runs")

    correct = failed == 0 and not messages
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
