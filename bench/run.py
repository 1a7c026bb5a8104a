"""Run one workload of the edcycles benchmark and print its metrics.

    python3 bench/run.py --workload g-dense --seed 1 --seconds 25 --trace 0

Imports edcycles from the checkout's src/, builds the workload's cases from
the seed, runs one warm-up case, then runs whole rounds of the fixed case
list, as many as the first round's time says fill --seconds.  Times are
scaled to a reference speed (see REF_NOMINAL_S); end-to-end times are
medians over the untraced rounds.  The first round's outputs are checked (see
checks.py) and every later round must reproduce them.  The last line of
standard output is one JSON object: end-to-end metrics with --trace 0,
per-layer metrics from alternating untraced and traced rounds with
--trace 1.  The same object, with the raw wall-clock figures and with
--trace 1 the spans, is written under bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

# The host's CPU speed drifts by a fifth and more over seconds to minutes,
# for a fixed loop as much as for the program.  So every time but setup_s
# is scaled to a reference speed: reference_loop() runs between
# cases, at least every REF_EVERY_S seconds, and a case's wall-clock time is
# multiplied by REF_NOMINAL_S over the median of the REF_NEAREST reference
# samples taken nearest to it.  REF_NOMINAL_S is about the loop's median
# time on the host the reference figures in README.md come from.
REF_QUEENS = 8
REF_GAUSS = 9
REF_NOMINAL_S = 0.004
REF_EVERY_S = 0.1
REF_NEAREST = 5

END_TO_END_UNITS = {"solve_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> (unit, span name, field of the span totals).
SPAN_METRICS = {
    "graphs.partitionable.calls": ("count", "graphs.partitionable", "calls"),
    "graphs.partitionable.s": ("s", "graphs.partitionable", "self_s"),
    "graphs.partitionable.unsat_s": ("s", "graphs.partitionable", "unsat_s"),
    "spectrum.power_cycle_spectrum.s": ("s", "spectrum.power_cycle_spectrum", "self_s"),
    "embed.find_embedding.calls": ("count", "embed.find_embedding", "calls"),
    "embed.find_embedding.sat_s": ("s", "embed.find_embedding", "sat_s"),
    "embed.find_embedding.unsat_s": ("s", "embed.find_embedding", "unsat_s"),
    **{
        f"{name}.{suffix}": (unit, name, field)
        for name in (
            "gfunction.g_value.joint",
            "gfunction.g_value.decomposed",
            "gfunction.g_value.numeric",
            "gfunction.is_p_core",
            "gfunction.g_endpoint",
            "crg.rate_matrix",
            "crg.component_sets",
            "crg.sub_crg",
        )
        for suffix, unit, field in (("s", "s", "self_s"), ("calls", "count", "calls"))
    },
    "curves.gamma_closed.calls": ("count", "curves.gamma_closed", "calls"),
}
SPECTRUM_SPANS = ("spectrum.power_cycle_spectrum", "spectrum.gamma")
CURVES_SPANS = ("curves.gamma_closed", "curves.curve_samples", "curves.branch_crossings", "curves.max_point")
EXACT_SPANS = ("gfunction.g_value.joint", "gfunction.g_value.decomposed", "gfunction.is_p_core")
LAYER_UNITS = {
    **{metric: unit for metric, (unit, _, _) in SPAN_METRICS.items()},
    "spectrum.calls": "count",
    "curves.s": "s",
    "gfunction.supports_swept": "count",
    "gfunction.supports_per_s": "1/s",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("g-dense", "g-corpus", "spectra", "embed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Build the inputs, run the warm-up case and exit: one sample of setup_s.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten of `count` cases above it."""
    return math.floor(100 * (1 - 10 / count))


def nearest_rank(values, percent: int) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(percent / 100 * len(ordered)) - 1, 0)]


def _queens(n: int) -> int:
    """Placements of n queens, by bitmask backtracking over copied domain
    lists, the way embed.find_embedding searches."""
    full = (1 << n) - 1

    def place(row, domains, left, right) -> int:
        if row == n:
            return 1
        count, free = 0, domains[row] & ~(left | right) & full
        while free:
            low = free & -free
            free ^= low
            rest = domains.copy()
            for r in range(row + 1, n):
                rest[r] &= ~low
            count += place(row + 1, rest, (left | low) << 1, (right | low) >> 1)
        return count

    return place(0, [full] * n, 0, 0)


def _gauss(n: int) -> Fraction:
    """Determinant of a fixed n x n Fraction matrix by elimination, the
    arithmetic of gfunction's support sweep."""
    rows = [[Fraction((7 * i + 3 * j) % 11 + 13 * (i == j), (i + j) % 5 + 1) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for c in range(n):
        det *= rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det


def reference_loop() -> float:
    """Seconds taken by a fixed computation of the standard library alone,
    a backtracking search and a Fraction elimination, so that no change to
    edcycles moves it."""
    t0 = time.perf_counter()
    _queens(REF_QUEENS)
    _gauss(REF_GAUSS)
    return time.perf_counter() - t0


def reference_samples(refs) -> None:
    """Append REF_NEAREST samples of reference_loop(), each with the time it was taken."""
    for _ in range(REF_NEAREST):
        refs.append((time.perf_counter(), reference_loop()))


def run_round(cases):
    """(wall-clock round time, case times, case midpoints, outputs, reference samples)."""
    gc.collect()
    outputs, times, mids, refs = [], [], [], []
    reference_samples(refs)
    started = time.perf_counter()
    for case in cases:
        if time.perf_counter() - refs[-1][0] >= REF_EVERY_S:
            refs.append((time.perf_counter(), reference_loop()))
        t0 = time.perf_counter()
        try:
            out = case.run()
        except Exception as err:  # a case that raises counts as failed, the run goes on
            out = err
        t1 = time.perf_counter()
        times.append(t1 - t0)
        mids.append((t0 + t1) / 2)
        outputs.append(out)
    solve = time.perf_counter() - started
    reference_samples(refs)
    return solve, times, mids, outputs, refs


def scaled_times(times, mids, refs) -> list[float]:
    """Case times at the reference speed, each scaled by the median of the
    REF_NEAREST reference samples nearest to its midpoint."""
    out = []
    for dt, mid in zip(times, mids):
        near = sorted(refs, key=lambda ref: abs(ref[0] - mid))[:REF_NEAREST]
        out.append(dt * REF_NOMINAL_S / statistics.median(ref_s for _, ref_s in near))
    return out


def check_first_round(cases, outputs):
    """(problems, indices of failed cases) for the first round's outputs."""
    problems, failed = [], set()
    for k, (case, out) in enumerate(zip(cases, outputs)):
        if isinstance(out, Exception):
            failed.add(k)
            print(f"{case.name}: raised {out!r}", file=sys.stderr)
            continue
        found, missed = case.check(out)
        problems += [f"{case.name}: {p}" for p in found]
        if missed:
            failed.add(k)
            print(f"{case.name}: numeric g_value missed the exact optimum", file=sys.stderr)
    return problems, failed


def same_outputs(first, later) -> bool:
    return all(
        repr(a) == repr(b) if isinstance(a, Exception) else a == b for a, b in zip(first, later)
    )


def setup_probe(args) -> float:
    """Seconds from the start of a fresh process to the end of its warm-up
    case.  The probe prints its end on the system-wide monotonic clock, so
    the time it takes to exit is not counted.  Not scaled to the reference
    speed: most of it is interpreter start and imports, which the reference
    loop does not track."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    started = time.monotonic()
    probe = subprocess.run(command, check=True, timeout=PROBE_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    return float(probe.stdout) - started


def layer_metrics(tracer, first: int, last: int, supports, speed: float) -> dict:
    """One traced round's per-layer metrics, times scaled by `speed`, the
    round's REF_NOMINAL_S over its median reference sample."""
    totals = tracer.totals(first, last)

    def total(name, field):
        return totals[name][field] if name in totals else 0.0

    out = {metric: total(name, field) for metric, (_, name, field) in SPAN_METRICS.items()}
    out["spectrum.calls"] = sum(total(name, "calls") for name in SPECTRUM_SPANS)
    out["curves.s"] = sum(total(name, "self_s") for name in CURVES_SPANS)
    swept = sum(supports(name, args[0]) for name, *_, args in tracer.spans[first:last] if name in EXACT_SPANS)
    exact_s = sum(total(name, "total_s") for name in EXACT_SPANS)
    out["gfunction.supports_swept"] = swept
    out["gfunction.supports_per_s"] = swept / exact_s if exact_s else 0.0
    scale = {"s": speed, "1/s": 1 / speed}
    return {metric: value * scale.get(LAYER_UNITS[metric], 1) for metric, value in out.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "edcycles" / "__init__.py").is_file():
        print(f"no edcycles sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    cases, warmup = workloads.WORKLOADS[args.workload](args.seed)
    warmup.run()
    if args.setup_probe:
        print(repr(time.monotonic()))
        return 0

    tracer = Tracer()
    plain, traced, layers = [], [], []
    first_outputs, problems, failed, setups = None, [], set(), []
    rounds, k = 1, 0
    while k < rounds:
        tracing = args.trace == 1 and k % 2 == 1
        if tracing:
            first_span = len(tracer.spans)
            tracer.install()
        try:
            solve, times, mids, outputs, refs = run_round(cases)
        finally:
            tracer.uninstall()
        if tracing:
            speed = REF_NOMINAL_S / statistics.median(r for _, r in refs)
            traced.append((solve, sum(scaled_times(times, mids, refs))))
            layers.append(layer_metrics(tracer, first_span, len(tracer.spans), workloads.supports, speed))
        else:
            plain.append((solve, scaled_times(times, mids, refs), statistics.median(r for _, r in refs)))
        if k == 0:
            first_outputs = outputs
            problems, failed = check_first_round(cases, outputs)
            # As many whole rounds as fill --seconds; a traced run needs one of each kind.
            rounds = max(1 + args.trace, round(args.seconds / solve))
        elif not same_outputs(first_outputs, outputs):
            problems.append("a later round's outputs differ from the first round's")
        if args.trace == 0:
            # The setup probes are spread evenly over the run, so that their
            # median sees the host at as many speeds as the rounds do.
            setups += [setup_probe(args) for _ in range((k + 1) * SETUP_PROBES // rounds - k * SETUP_PROBES // rounds)]
        k += 1

    for problem in problems:
        print(problem, file=sys.stderr)
    if args.trace == 0:
        latencies = [statistics.median(t[i] for _, t, _ in plain) for i in range(len(cases))]
        tail = tail_percentile(len(cases))
        values = {
            "solve_s": statistics.median(sum(t) for _, t, _ in plain),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_tail_ms": 1000 * nearest_rank(latencies, tail),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    else:
        values = {metric: statistics.fmean(layer[metric] for layer in layers) for metric in layers[0]}
        values["trace.overhead_s"] = statistics.fmean(t for _, t in traced) - statistics.fmean(sum(t) for _, t, _ in plain)
        units = LAYER_UNITS
    result = {
        "correct": not problems,
        "attempted": rounds * len(cases),
        "failed": rounds * len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, rounds=rounds, wall_round_s=[s for s, _, _ in plain] + [s for s, _ in traced],
                  ref_median_s=[r for _, _, r in plain], cases=[c.name for c in cases])
    if args.trace == 0:
        detail.update(scaled_round_s=[sum(t) for _, t, _ in plain], tail_percentile=tail,
                      latencies_ms=[1000 * v for v in latencies])
    else:
        Path(f"{stem}-spans.json").write_text(json.dumps(tracer.dump()))
    Path(f"{stem}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
