"""In-memory span tracer for the benchmark's traced run, and the arithmetic
that turns spans into per-layer metrics.

The tracer replaces the module attributes that blindeq's own code looks up
(``config.run_single``, ``equalize.vae_le_step``, ``evaluate.map_decide``,
...) with wrappers that record one span per call: name, start, end, parent
span and the id of the enclosing ``run_single`` call.  Nothing under ``src/``
is changed; ``uninstall`` puts the original attributes back.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# (module, attribute, span name).  Each attribute is the one the caller
# actually looks up: evaluate imports map_decide by name, so it is wrapped in
# evaluate, and Adam.step is reached through the optimizer instance.
SPAN_POINTS = (
    ("config", "run_experiment", "config.run_experiment"),
    ("config", "run_single", "config.run_single"),
    ("config", "_transmit", "config.transmit"),
    ("config", "_propagate", "config.propagate"),
    ("config", "_equalize", "config.equalize"),
    ("channel", "dp_run", "channel.dp_run"),
    ("channel", "awgn_isi_apply", "channel.awgn_isi_apply"),
    ("equalize", "cma_run", "equalize.cma_run"),
    ("equalize", "viterbi_viterbi_cpe", "equalize.viterbi_viterbi_cpe"),
    ("equalize", "mmse_baseline", "equalize.mmse_baseline"),
    ("equalize", "run_vae", "equalize.run_vae"),
    ("equalize", "vae_le_step", "equalize.vae_le_step"),
    ("equalize", "vae_nn_step", "equalize.vae_nn_step"),
    ("equalize.Adam", "step", "equalize.adam_step"),
    ("autodiff", "backward", "autodiff.backward"),
    ("evaluate", "resolve_pol_pairing", "evaluate.resolve_pol_pairing"),
    ("evaluate", "frame_ser_curve", "evaluate.frame_ser_curve"),
    ("evaluate", "resolve_ambiguity", "evaluate.resolve_ambiguity"),
    ("evaluate", "map_decide", "modem.map_decide"),
)
# called tens of thousands of times per frame: counted, not timed
COUNT_POINTS = (
    ("autodiff", "conv1d_full", "autodiff.conv1d_full"),
)

# percentiles tried for the tail, highest first
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int     # index of the parent span in the trace, -1 at the root
    run: int        # id of the enclosing run_single call, -1 outside one

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class RunInfo:
    kind: str
    n_pol: int
    n_ind: int
    n_frame: int

    @property
    def symbols(self) -> int:
        return self.n_pol * self.n_ind * self.n_frame


class Tracer:
    """Records spans and call counts while installed on a blindeq package."""

    def __init__(self, blindeq):
        self._pkg = blindeq
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.runs: list[RunInfo] = []
        self._stack: list[int] = []
        self._run = -1
        self._saved: list[tuple[object, str, object]] = []

    def _target(self, path: str):
        obj = self._pkg
        for part in path.split("."):
            obj = getattr(obj, part)
        return obj

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for path, attr, name in SPAN_POINTS:
            self._patch(path, attr, self._spanned(name, getattr(self._target(path), attr)))
        for path, attr, name in COUNT_POINTS:
            self._patch(path, attr, self._counted(name, getattr(self._target(path), attr)))

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, orig = self._saved.pop()
            setattr(obj, attr, orig)

    def _patch(self, path: str, attr: str, wrapper) -> None:
        obj = self._target(path)
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, wrapper)

    def _spanned(self, name: str, fn):
        is_run = name == "config.run_single"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_run = self._run
            if is_run:
                cfg = args[0]
                self._run = len(self.runs)
                self.runs.append(RunInfo(cfg.kind, cfg.n_pol, cfg.n_ind, cfg.n_frame))
            idx = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._run)
            self.spans.append(span)
            self.counts[name] += 1
            self._stack.append(idx)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
                self._run = outer_run
        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def dump(self, path: str) -> None:
        """Write the runs and spans as JSON lines."""
        with open(path, "w") as fh:
            for i, r in enumerate(self.runs):
                fh.write(json.dumps({"run": i, "kind": r.kind, "n_pol": r.n_pol,
                                     "n_ind": r.n_ind, "n_frame": r.n_frame}) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"span": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "run": s.run}) + "\n")


def self_times(spans: list[Span]) -> np.ndarray:
    """Each span's duration minus the part of its interval that its child
    spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = np.empty(len(spans))
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[i] = s.duration - covered
    return out


def tail_percentile(samples) -> tuple[float, float] | None:
    """(p, value) for the highest percentile in TAIL_LADDER with at least ten
    samples beyond it, or None when even the median has fewer."""
    x = np.asarray(samples, dtype=np.float64)
    for p in TAIL_LADDER:
        if round(x.size * (100.0 - p) / 100.0, 9) >= 10.0:  # 100 - 99.9 is inexact
            return p, float(np.percentile(x, p))
    return None


CMA_KINDS = ("CMA", "CMAbatch", "CMAflex")
VAE_KINDS = ("VAEflex", "VAE-LE", "VAE-NN")
VAE_STEPS = ("equalize.vae_le_step", "equalize.vae_nn_step")


def layer_metrics(tracer: Tracer, n_reps: int) -> dict[str, tuple[float, str, str]]:
    """Per-layer metrics of ``n_reps`` identical traced experiments, as
    {name: (value, unit, note)}.  A layer that a workload never calls reports
    0; the note then says so."""
    spans, runs = tracer.spans, tracer.runs
    own = self_times(spans)
    idx: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        idx.setdefault(s.name, []).append(i)

    def dur(name, kind=None):
        return np.array([spans[i].duration for i in idx.get(name, ())
                         if kind is None or runs[spans[i].run].kind == kind])

    def frames(name):
        return sum(runs[r].n_ind for r in {spans[i].run for i in idx.get(name, ())})

    def per(num, den):
        return num / den if den else 0.0

    out: dict[str, tuple[float, str, str]] = {}

    def put(name, value, unit, note=""):
        out[name] = (float(value), unit, note)

    def timing(prefix, name):
        d = 1e3 * dur(name)
        put(f"{prefix}.calls", per(d.size, n_reps), "count")
        put(f"{prefix}.ms_p50", np.median(d) if d.size else 0.0, "ms", f"n={d.size}")
        tail = tail_percentile(d)
        put(f"{prefix}.ms_tail", tail[1] if tail else 0.0, "ms",
            f"p{tail[0]:g} of n={d.size}" if tail else f"no percentile, n={d.size}")

    def per_frame(metric, name):
        put(metric, per(1e3 * dur(name).sum(), frames(name)), "ms", f"{frames(name)} frames")

    def ksym_per_s(metric, name, kind):
        syms = sum(runs[spans[i].run].symbols for i in idx.get(name, ())
                   if runs[spans[i].run].kind == kind)
        put(metric, per(1e-3 * syms, dur(name, kind).sum()), "ksym/s")

    exp = idx.get("config.run_experiment", [])
    put("config.run_experiment.self_s", per(own[exp].sum(), len(exp)), "s")
    per_frame("config.transmit.ms_per_frame", "config.transmit")
    per_frame("channel.dp_run.ms_per_frame", "channel.dp_run")
    per_frame("channel.awgn_isi_apply.ms_per_frame", "channel.awgn_isi_apply")
    for kind in CMA_KINDS:
        ksym_per_s(f"equalize.cma_run.ksym_per_s.{kind}", "equalize.cma_run", kind)
    per_frame("equalize.viterbi_viterbi_cpe.ms_per_frame", "equalize.viterbi_viterbi_cpe")
    mmse = dur("equalize.mmse_baseline")
    put("equalize.mmse_baseline.s", mmse.mean() if mmse.size else 0.0, "s")
    for kind in VAE_KINDS:
        ksym_per_s(f"equalize.run_vae.ksym_per_s.{kind}", "equalize.run_vae", kind)
    timing("equalize.vae_le_step", "equalize.vae_le_step")
    timing("equalize.vae_nn_step", "equalize.vae_nn_step")

    steps = [i for name in VAE_STEPS for i in idx.get(name, ())]
    n_up = len(steps)
    note = f"{n_up} updates"
    # a step's only child spans are backward and Adam.step, so its self time
    # is the forward-graph build
    put("equalize.graph_self_ms_per_update", per(1e3 * own[steps].sum(), n_up), "ms", note)
    put("equalize.adam_step.ms_per_update",
        per(1e3 * dur("equalize.adam_step").sum(), n_up), "ms", note)
    put("autodiff.backward.ms_per_update",
        per(1e3 * dur("autodiff.backward").sum(), n_up), "ms", note)
    put("autodiff.conv1d_full.calls_per_update",
        per(tracer.counts["autodiff.conv1d_full"], n_up), "count", note)

    ra = idx.get("evaluate.resolve_ambiguity", [])
    ra_ms = 1e3 * dur("evaluate.resolve_ambiguity")
    put("evaluate.resolve_ambiguity.calls", per(len(ra), n_reps), "count")
    put("evaluate.resolve_ambiguity.ms_p50", np.median(ra_ms) if ra else 0.0, "ms",
        f"n={len(ra)}")
    put("evaluate.resolve_ambiguity.self_ms_per_frame",
        per(1e3 * own[ra].sum(), len(ra)), "ms", "excludes map_decide")
    pairing = dur("evaluate.resolve_pol_pairing")
    put("evaluate.resolve_pol_pairing.s", pairing.mean() if pairing.size else 0.0, "s")
    pol_frames = sum(r.n_pol * r.n_ind for r in runs)
    put("evaluate.ms_per_pol_frame",
        per(1e3 * (dur("evaluate.frame_ser_curve").sum() + pairing.sum()), pol_frames),
        "ms", f"{pol_frames} pol-frames")
    put("modem.map_decide.calls_per_frame",
        per(len(idx.get("modem.map_decide", ())), len(ra)), "count", "per resolve_ambiguity")
    put("modem.map_decide.ms_per_frame",
        per(1e3 * dur("modem.map_decide").sum(), len(ra)), "ms", "per resolve_ambiguity")
    return out
