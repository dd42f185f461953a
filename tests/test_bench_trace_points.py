"""The benchmark's span tracer (bench/spantrace.py) wraps blindeq functions by
module and attribute name; every one of them must exist, or a traced
benchmark run fails."""

import sys
from pathlib import Path

import pytest

import blindeq

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import spantrace  # noqa: E402

POINTS = spantrace.SPAN_POINTS + spantrace.COUNT_POINTS


@pytest.mark.parametrize("path, attr, name", POINTS, ids=[p[2] for p in POINTS])
def test_trace_point_resolves(path, attr, name):
    obj = blindeq
    for part in path.split("."):
        obj = getattr(obj, part)
    assert callable(getattr(obj, attr))
