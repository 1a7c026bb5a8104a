"""The benchmark in bench/ still runs against the package.

bench/ calls package names and keywords it does not own (g_value(K, p,
"numeric"), timeout=None on the embedding searches, the functions its tracer
wraps).  Each workload's seed-0 warm-up case, run plain and traced, must pass
the benchmark's own checks, so a rename of anything bench/ pins fails here.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_warmup_case_passes_the_benchmark_checks(workload, traced):
    _, warmup = workloads.WORKLOADS[workload](0)
    tracer = tracing.Tracer()
    if traced:
        tracer.install()
    try:
        out = warmup.run()
    finally:
        tracer.uninstall()
    problems, failed = warmup.check(out)
    assert problems == []
    assert not failed
    assert bool(tracer.spans) == traced
