"""One cold start of a workload: import blindeq, build the config, and build
what run_single builds before its first stage (the constellation, with
nu_for_entropy when the config sets an entropy, and the RRC taps).  Prints
"ready" when done; the parent times the process from launch to that line.

Usage: python3 bench/cold_start.py <workload> <seed>
"""

import sys

import workloads

workloads.import_blindeq()
from blindeq import config, modem, sigproc  # noqa: E402

cfg = workloads.build(sys.argv[1], int(sys.argv[2]))
for pt in config.sweep_points(cfg):
    modem.build_constellation(pt.m, pt.effective_nu())
    if pt.shaping == "rrc":
        sigproc.rrc_taps(pt.rolloff, pt.rrc_span, pt.n_os)
print("ready", flush=True)
