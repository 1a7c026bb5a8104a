"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here; exact means exact
rational equality.
"""

import math
import time
from fractions import Fraction

import pytest

from edcycles import verify
from edcycles.crg import k_rs
from edcycles.curves import (
    branch_values,
    default_p_grid,
    gamma_closed,
    gamma_closed_with_branch,
    max_point,
)
from edcycles.gfunction import g_value
from edcycles.graphs import Graph, PowerCycleParams
from edcycles.spectrum import clique_spectrum, gamma, power_cycle_spectrum

PAIRS = [(1, h) for h in range(5, 13)] + [(2, h) for h in range(13, 19)]


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report(number: int, label: str, passed: bool, elapsed: float) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{label}]: {verdict} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def cross_validation_spectra():
    spectra = {}
    with Timer() as timer:
        for t, h in PAIRS:
            spectra[(t, h)] = power_cycle_spectrum(PowerCycleParams(h, t))
    return spectra, timer.elapsed


def test_criterion_1_all_gray_closed_form():
    with Timer() as timer:
        failures = []
        for total in range(1, 13):
            for r in range(total + 1):
                s = total - r
                for k in range(1, 10):
                    p = Fraction(k, 10)
                    expected = 1 / (r / p + s / (1 - p))
                    if g_value(k_rs(r, s), p).value != expected:
                        failures.append((r, s, p))
    passed = not failures and timer.elapsed < 5.0
    report(1, "all-gray closed form", passed, timer.elapsed)
    assert not failures
    assert timer.elapsed < 5.0


def test_criterion_2_component_recombination():
    with Timer() as timer:
        suite = verify.component_suite()
    passed = suite["ok"] and timer.elapsed < 120.0
    report(2, "component recombination", passed, timer.elapsed)
    assert suite["ok"], suite["failures"][:5]
    assert timer.elapsed < 120.0


def test_criterion_3_spectrum_cross_validation(cross_validation_spectra):
    spectra, build_time = cross_validation_spectra
    with Timer() as timer:
        failures = []
        for t, h in PAIRS:
            params = PowerCycleParams(h, t)
            candidates = {(a, params.ell(a) - 1) for a in range(t + 1)}
            candidates.add((params.chi - 1, 0))
            expected = sorted(
                (r, s)
                for (r, s) in candidates
                if not any(
                    r2 >= r and s2 >= s and (r2, s2) != (r, s)
                    for (r2, s2) in candidates
                )
            )
            if list(spectra[(t, h)].extreme_points) != expected:
                failures.append((t, h, spectra[(t, h)].extreme_points, expected))
    elapsed = build_time + timer.elapsed
    passed = not failures and elapsed < 600.0
    report(3, "spectrum cross-validation", passed, elapsed)
    assert not failures
    assert elapsed < 600.0


def test_criterion_4_search_gamma_equals_closed_form(cross_validation_spectra):
    spectra, _ = cross_validation_spectra
    with Timer() as timer:
        failures = []
        for t, h in PAIRS:
            params = PowerCycleParams(h, t)
            for k in range(101):
                p = Fraction(k, 100)
                if gamma(spectra[(t, h)], p) != gamma_closed(params, p):
                    failures.append((t, h, p))
    passed = not failures and timer.elapsed < 60.0
    report(4, "search gamma vs closed form", passed, timer.elapsed)
    assert not failures
    assert timer.elapsed < 60.0


def test_criterion_5_known_anchors():
    with Timer() as timer:
        ok = True
        for h in (3, 4):
            edges = [(i, j) for i in range(h) for j in range(i + 1, h)]
            spec = clique_spectrum(Graph.from_edges(h, edges))
            for k in range(1, 10):
                p = Fraction(k, 10)
                ok = ok and gamma(spec, p) == p / (h - 1)
        for k in range(1, 10):
            p = Fraction(k, 10)
            ok = ok and g_value(k_rs(1, 1), p).value == p * (1 - p)
    report(5, "known anchors", ok, timer.elapsed)
    assert ok


def test_criterion_6_gray_cycle_embedding_sweep():
    with Timer() as timer:
        suite = verify.gray_cycle_suite()
    passed = suite["ok"] and timer.elapsed < 900.0
    report(6, "gray-cycle embedding sweep", passed, timer.elapsed)
    assert suite["ok"], suite["sweeps"]
    assert timer.elapsed < 900.0


def test_criterion_7_irrational_maximum():
    with Timer() as timer:
        params = PowerCycleParams(7, 1)
        point = max_point(lambda p: gamma_closed(params, p))
    expected_p = math.sqrt(2) - 1
    expected_d = 3 - 2 * math.sqrt(2)
    passed = (
        abs(point.p_star - expected_p) <= 1e-9
        and abs(point.d_star - expected_d) <= 1e-9
        and timer.elapsed < 1.0
    )
    report(7, "irrational maximum", passed, timer.elapsed)
    assert abs(point.p_star - expected_p) <= 1e-9
    assert abs(point.d_star - expected_d) <= 1e-9
    assert timer.elapsed < 1.0


def test_criterion_8_facts_sweep():
    with Timer() as timer:
        facts = verify.facts_suite()
    passed = facts["ok"] and timer.elapsed < 120.0
    report(8, "facts sweep", passed, timer.elapsed)
    for name, fact in facts["facts"].items():
        assert fact["passed"], (name, fact["witnesses"][:5])
    assert timer.elapsed < 120.0


def test_criterion_9_weight_propositions():
    with Timer() as timer:
        suite = verify.weight_suite()
    report(9, "weight propositions", suite["ok"], timer.elapsed)
    print(
        f"              asserted={suite['asserted']} vacuous={suite['vacuous']}"
    )
    assert suite["asserted"] >= 10
    assert not suite["identity_failures"]


def test_criterion_10_concavity_and_continuity():
    pairs = (
        [(1, h) for h in range(5, 13)]
        + [(2, h) for h in range(13, 19)]
        + [(3, h) for h in range(25, 31)]
    )
    assert len(pairs) == 20
    with Timer() as timer:
        concavity_ok = True
        continuity_ok = True
        for t, h in pairs:
            params = PowerCycleParams(h, t)
            grid = [Fraction(k, 1000) for k in range(1001)]
            values = [gamma_closed(params, p) for p in grid]
            for i in range(999):
                if values[i + 1] < (values[i] + values[i + 2]) / 2:
                    concavity_ok = False
            enriched = default_p_grid(params, samples=1001)
            samples = [gamma_closed_with_branch(params, p) for p in enriched]
            for i in range(len(enriched) - 1):
                (v1, b1), (v2, b2) = samples[i], samples[i + 1]
                if b1 == b2:
                    continue
                agree = False
                for q, vq in ((enriched[i], v1), (enriched[i + 1], v2)):
                    at_q = dict(branch_values(params, q))
                    if abs(at_q[b1] - at_q[b2]) <= Fraction(1, 10**12) and at_q[b1] == vq:
                        agree = True
                if not agree:
                    continuity_ok = False
    passed = concavity_ok and continuity_ok and timer.elapsed < 5.0
    report(10, "concavity and continuity", passed, timer.elapsed)
    assert concavity_ok
    assert continuity_ok
    assert timer.elapsed < 5.0
