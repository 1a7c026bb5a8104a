"""Composite verification suites run by the CLI and the acceptance tests.

Each suite returns a JSON-serializable report with an "ok" flag; nothing
here asserts, so callers decide whether a failure is fatal.  The suites are
deliberately cross-bred: search-based results are compared against closed
forms, and exact optima against structural identities, so that any one
implementation error breaks an equality somewhere.
"""

from __future__ import annotations

import time
from fractions import Fraction

from . import curves
from .crg import Crg, component_sets, standard_corpus, sub_crg, WHITE, BLACK
from .embed import gray_cycle_embedding_report, k_rs_boundary_cases
from .errors import ParameterDomainError
from .gfunction import (
    GValue,
    degree_report,
    g_value,
    is_p_core,
    p_core_structure_ok,
)
from .graphs import PowerCycleParams
from .spectrum import gamma, power_cycle_spectrum

DEFAULT_SEED = 20260810

GRAY_CYCLE_CASES = (
    (1, 8, (0,)),
    (1, 9, (0,)),
    (2, 13, (0, 1)),
    (3, 25, (0, 1, 2)),
)

CROSS_VALIDATION_PAIRS = tuple((1, h) for h in range(5, 13)) + tuple((2, h) for h in range(13, 19))
GAMMA_GRID_DENOMINATOR = 100
WEIGHT_PS = (Fraction(1, 4), Fraction(3, 4))
MIN_ASSERTED = 10  # fewer certified p-cores than this fails the weights suite
COMPONENT_PS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def predicted_extreme_points(params: PowerCycleParams) -> list[tuple[int, int]]:
    """Maximal elements of {(a, ell(a)-1)} plus the chromatic pair (chi-1, 0)."""
    candidates = {(a, params.ell(a) - 1) for a in range(params.t + 1)}
    candidates.add((params.chi - 1, 0))
    return sorted(
        (r, s)
        for (r, s) in candidates
        if not any((r2 >= r and s2 >= s and (r2, s2) != (r, s)) for r2, s2 in candidates)
    )


def gray_cycle_suite() -> dict:
    """Embedding sweeps over the forbidden gray-cycle window plus the
    all-gray boundary: K(t, ell(t)) must admit the cycle power and
    K(t, ell(t)-1) must not.  The fixed case table runs with no deadline."""
    sweeps = []
    ok = True
    for t, h, white_counts in GRAY_CYCLE_CASES:
        params = PowerCycleParams(h, t)
        for a in white_counts:
            report = gray_cycle_embedding_report(params, a, timeout=None)
            sweeps.append(report.to_json())
            ok = ok and report.ok
        inside, outside = k_rs_boundary_cases(params, timeout=None)
        sweeps.append(
            {
                "h": h,
                "t": t,
                "all_gray_admits": inside,
                "all_gray_one_less_admits": outside,
            }
        )
        ok = ok and inside and not outside
    return {"ok": ok, "sweeps": sweeps}


def gamma_cross_suite() -> dict:
    """Search-based spectra against predictions, and search-based gamma
    against the closed form, exactly, on a rational grid."""
    results = []
    ok = True
    for t, h in CROSS_VALIDATION_PAIRS:
        params = PowerCycleParams(h, t)
        spec = power_cycle_spectrum(params)
        predicted = predicted_extreme_points(params)
        extreme_match = list(spec.extreme_points) == predicted
        mismatches = []
        for k in range(GAMMA_GRID_DENOMINATOR + 1):
            p = Fraction(k, GAMMA_GRID_DENOMINATOR)
            via_search = gamma(spec, p)
            via_formula = curves.gamma_closed(params, p)
            if via_search != via_formula:
                mismatches.append(
                    {"p": str(p), "search": str(via_search), "formula": str(via_formula)}
                )
        entry = {
            "h": h,
            "t": t,
            "extreme_points": [list(e) for e in spec.extreme_points],
            "predicted": [list(e) for e in predicted],
            "extreme_match": extreme_match,
            "gamma_mismatches": mismatches[:10],
            "gamma_points": GAMMA_GRID_DENOMINATOR + 1,
        }
        results.append(entry)
        ok = ok and extreme_match and not mismatches
    return {"ok": ok, "pairs": results}


def check_weight_identities(K: Crg, p: Fraction, gv: GValue) -> list[str]:
    """Identities every p-core optimum must satisfy; returns violations.

    The optimum of a p-core CRG has full support, so (Mx)_v = g at every
    vertex.  At p <= 1/2 a white vertex sees only gray edges, giving
    p x(v) = g, i.e. x(v) = g/p exactly; a black vertex has gray degree
    (p-g)/p + ((1-2p)/p) x(v) and weight at most g/(1-p).  For p >= 1/2 the
    statements mirror with the colors and the roles of p and 1-p swapped.
    At p = 1/2 both halves apply and agree.
    """
    g = gv.value
    x = gv.weights
    report = degree_report(K, gv)
    problems = []
    if p <= Fraction(1, 2):
        for v in range(K.n):
            if K.vertex_colors[v] == WHITE:
                if x[v] != g / p:
                    problems.append(f"white weight at {v}: {x[v]} != {g / p}")
            else:
                expected = (p - g) / p + (1 - 2 * p) / p * x[v]
                if report.gray[v] != expected:
                    problems.append(f"black gray-degree at {v}")
                if x[v] > g / (1 - p):
                    problems.append(f"black weight bound at {v}")
    if p >= Fraction(1, 2):
        for v in range(K.n):
            if K.vertex_colors[v] == BLACK:
                if x[v] != g / (1 - p):
                    problems.append(f"black weight at {v}: {x[v]} != {g / (1 - p)}")
            else:
                expected = (1 - p - g) / (1 - p) + (2 * p - 1) / (1 - p) * x[v]
                if report.gray[v] != expected:
                    problems.append(f"white gray-degree at {v}")
                if x[v] > g / p:
                    problems.append(f"white weight bound at {v}")
    return problems


def gray_degree_bound_tally(K: Crg, p: Fraction, gv: GValue) -> tuple[int, list]:
    """Opportunistic check of the gray-degree lower bound.

    An all-black p-core CRG (p < 1/2) whose g value undercuts the black-part
    bound for some context (t, h, a) must have every vertex with at least
    ell(a+1) gray neighbors.  The corpus is not built to hit the hypotheses,
    so qualifying instances are tallied rather than required.
    """
    if p >= Fraction(1, 2) or any(c == WHITE for c in K.vertex_colors):
        return 0, []
    counts = degree_report(K, gv).gray_neighbor_count
    instances = 0
    violations = []
    for t, h in CROSS_VALIDATION_PAIRS:
        params = PowerCycleParams(h, t)
        for a in range(t):
            if gv.value < curves.black_part_g_bound(a, params, p):
                instances += 1
                needed = params.ell(a + 1)
                if any(c < needed for c in counts):
                    violations.append({"t": t, "h": h, "a": a, "p": str(p)})
    return instances, violations


def weight_suite(seed: int = DEFAULT_SEED, count: int = 200) -> dict:
    """p-core certification plus weight identities over the random corpus.

    Instances that fail certification are vacuous for the identities and are
    tallied separately; too few asserted instances fails the suite, so the
    corpus must keep producing gray-dominated CRGs.
    """
    corpus = standard_corpus(seed, count=count)
    asserted = 0
    vacuous = 0
    degree_instances = 0
    structure_failures = []
    identity_failures = []
    degree_failures = []
    for index, K in enumerate(corpus):
        for p in WEIGHT_PS:
            if not is_p_core(K, p):
                vacuous += 1
                continue
            asserted += 1
            if not p_core_structure_ok(K, p):
                structure_failures.append({"index": index, "p": str(p)})
            gv = g_value(K, p)
            problems = check_weight_identities(K, p, gv)
            if problems:
                identity_failures.append(
                    {"index": index, "p": str(p), "problems": problems}
                )
            hits, violations = gray_degree_bound_tally(K, p, gv)
            degree_instances += hits
            degree_failures.extend(violations)
    ok = (
        not structure_failures
        and not identity_failures
        and not degree_failures
        and asserted >= MIN_ASSERTED
    )
    return {
        "ok": ok,
        "corpus_size": len(corpus),
        "asserted": asserted,
        "vacuous": vacuous,
        "min_asserted": MIN_ASSERTED,
        "structure_failures": structure_failures,
        "identity_failures": identity_failures,
        "degree_bound_instances": degree_instances,
        "degree_bound_failures": degree_failures,
    }


def component_suite(seed: int = DEFAULT_SEED, count: int = 200) -> dict:
    """Reciprocal-sum identity: the jointly solved optimum of a CRG must equal
    the recombination of its independently solved components."""
    corpus = standard_corpus(seed, count=count)
    failures = []
    for index, K in enumerate(corpus):
        parts = component_sets(K)
        for p in COMPONENT_PS:
            joint = g_value(K, p, decompose=False).value
            recombined = 1 / sum(
                1 / g_value(sub_crg(K, vs), p).value for vs in parts
            )
            if joint != recombined:
                failures.append({"index": index, "p": str(p)})
    return {"ok": not failures, "corpus_size": len(corpus), "failures": failures}


SUITE_NAMES = ("facts", "gray_cycles", "gamma_cross", "weights", "components")


def run_suites(
    names,
    *,
    seed: int = DEFAULT_SEED,
    h_max: int = 400,
    t_max: int = 8,
    xy_max: int = 60,
    p_denominator: int = 1000,
    corpus_count: int = 200,
) -> dict:
    """Run the named suites in SUITE_NAMES order, each section ending with
    its elapsed_s; "ok" when every one passes.

    Every sweep size must be at least 1: an empty sweep checks nothing, and
    a suite that checked nothing must not report a pass.
    """
    sizes = {
        "h_max": h_max,
        "t_max": t_max,
        "xy_max": xy_max,
        "p_denominator": p_denominator,
        "corpus_count": corpus_count,
    }
    for name, size in sizes.items():
        if size < 1:
            raise ParameterDomainError(f"{name}={size}: every sweep size must be at least 1")
    runners = {
        "facts": lambda: curves.verify_facts(
            h_max=h_max, t_max=t_max, xy_max=xy_max, p_denominator=p_denominator
        ).to_json(),
        "gray_cycles": gray_cycle_suite,
        "gamma_cross": gamma_cross_suite,
        "weights": lambda: weight_suite(seed=seed, count=corpus_count),
        "components": lambda: component_suite(seed=seed, count=corpus_count),
    }
    report = {}
    for name in SUITE_NAMES:
        if name in names:
            started = time.perf_counter()
            report[name] = runners[name]()
            report[name]["elapsed_s"] = round(time.perf_counter() - started, 3)
    report["ok"] = all(section["ok"] for section in report.values())
    return report
