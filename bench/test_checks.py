"""The benchmark's checkers accept the program's outputs and reject perturbed ones.

    python3 -m pytest bench
"""

import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import edcycles as ed  # noqa: E402

P = Fraction(1, 4)
K = ed.crg_from_pairs(
    ["white", "black", "white", "black"],
    [(0, 1, "white"), (1, 2, "black"), (0, 3, "black")],
)


def test_exact_checker_rejects_perturbed_g_and_weights():
    g = ed.g_value(K, P, decompose=False)
    assert checks.exact_g(K, P, g.value, g.weights, g.support) == []
    assert checks.exact_g(K, P, g.value + Fraction(1, 1000), g.weights, g.support)
    v, w = g.support[0], next(u for u in range(K.n) if u != g.support[0])
    weights = list(g.weights)
    weights[v] -= Fraction(1, 100)
    weights[w] += Fraction(1, 100)
    support = tuple(u for u, x in enumerate(weights) if x > 0)
    assert checks.exact_g(K, P, g.value, tuple(weights), support)


def test_recombination_all_gray_and_endpoint_checkers_reject_perturbed_g():
    parts = [ed.g_value(ed.sub_crg(K, vs), P).value for vs in ed.component_sets(K)]
    g = ed.g_value(K, P).value
    assert checks.reciprocal_sum(g, parts) == []
    assert checks.reciprocal_sum(g * 2, parts)
    krs = ed.g_value(ed.k_rs(2, 3), P).value
    assert checks.all_gray_g(2, 3, P, krs) == []
    assert checks.all_gray_g(2, 3, P, krs + Fraction(1, 10**6))
    black = ed.crg_from_pairs(["black"] * 3, [(0, 1, "black")])
    assert checks.endpoint_g(black, 0, ed.g_endpoint(black, 0)) == []
    assert checks.endpoint_g(black, 0, Fraction(1, 3))


def test_p_core_checker_rejects_flipped_verdict():
    krs = ed.k_rs(2, 2)
    g = ed.g_value(krs, P)
    deleted = lambda v: ed.g_value(workloads.induced(krs, [u for u in range(4) if u != v]), P).value
    verdict = ed.is_p_core(krs, P)
    assert verdict
    assert checks.p_core(verdict, 4, P, g.value, g.support, deleted) == []
    assert checks.p_core(not verdict, 4, P, g.value, g.support, deleted)


def test_numeric_checker_flags_perturbed_values_and_the_known_miss():
    exact = ed.g_value(K, P).value
    num = ed.g_value(K, P, "numeric")
    assert checks.numeric_g(K, P, num.value, num.weights, exact) == ([], False)
    assert checks.numeric_g(K, P, num.value + 1e-6, num.weights, exact)[0]
    assert checks.numeric_g(K, P, num.value, num.weights, exact + Fraction(1, 10**6))[0]
    miss = ed.crg_from_json(workloads.MISS_CRG)
    exact = ed.g_value(miss, workloads.MISS_P).value
    assert exact == Fraction(3, 52)
    num = ed.g_value(miss, workloads.MISS_P, "numeric")
    assert checks.numeric_g(miss, workloads.MISS_P, num.value, num.weights, exact) == ([], True)


def test_numeric_runs_on_seeded_crgs_only_where_the_form_is_convex():
    assert workloads.convex(ed.k_rs(2, 3), P)
    assert not workloads.convex(ed.crg_from_json(workloads.MISS_CRG), workloads.MISS_P)


def test_witness_checker_rejects_corrupted_witness():
    h, t, a, k = 9, 1, 0, 5
    phi = ed.find_embedding(ed.power_cycle(h, t), ed.gray_cycle_crg(a, k), timeout=None)
    colors = checks.gray_cycle_colors(a, k)
    assert checks.witness(h, t, colors, a + k, phi) == []
    assert checks.witness(h, t, colors, a + k, (phi[0],) * h)
    assert checks.witness(h, t, colors, a + k, phi[:-1])
    assert checks.witness(h, t, colors, a + k, None)


def test_spectrum_and_curve_checkers_reject_perturbed_values():
    h, t = 13, 2
    params = ed.PowerCycleParams(h, t)
    spec = ed.power_cycle_spectrum(params)
    grid = [Fraction(k, 7) for k in range(8)]
    gammas = {p: ed.gamma(spec, p) for p in grid}
    assert checks.spectrum(h, t, spec.extreme_points, gammas) == []
    assert checks.spectrum(h, t, spec.extreme_points[1:], gammas)
    gammas[grid[3]] += Fraction(1, 1000)
    assert checks.spectrum(h, t, spec.extreme_points, gammas)
    samples = ed.curve_samples(params, grid)
    peak = ed.max_point(lambda p: ed.gamma_closed(params, p)).d_star
    crossings = ed.branch_crossings(params)
    assert checks.curve(h, t, crossings, samples, peak) == []
    assert checks.curve(h, t, crossings, samples, peak + 1e-6)
    bad = [replace(samples[2], gamma=samples[2].gamma * 2)] + samples[3:]
    assert checks.curve(h, t, crossings, bad, peak)


def test_benchmark_json_names_the_metrics_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
