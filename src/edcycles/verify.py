"""Composite verification suites run by the CLI and the acceptance tests.

Each suite returns a JSON-serializable report with an "ok" flag; nothing
here asserts, so callers decide whether a failure is fatal.  The suites are
deliberately cross-bred: search-based results are compared against closed
forms, and exact optima against structural identities, so that any one
implementation error breaks an equality somewhere.  Each suite's sweep is
fixed by module constants, so a report always covers the same cases and no
caller can shrink a check.

The facts suite's sweeps clear denominators so that every comparison is an
integer comparison.  The two linearity facts compare branches over a
p-interval; cross-multiplied, each comparison is linear in p, so the sweep
tests it at the two ends of the interval, which decides it at every p between.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import curves
from .crg import BLACK, WHITE, Crg, color_swap, component_sets, standard_corpus, sub_crg
from .embed import gray_cycle_embedding_report, k_rs_boundary_cases
from .errors import ParameterDomainError
from .gfunction import (
    GValue,
    degree_report,
    g_value,
    is_p_core,
)
from .graphs import PowerCycleParams, gray_window_h_min
from .spectrum import gamma, power_cycle_spectrum

CORPUS_SEED = 20260810

# (t, h), white counts 0..t-1.  (2, 15) and (3, 28) are the least h of the
# main range h >= 2t(t+1)+1 that t+1 divides, which the paper treats apart.
GRAY_CYCLE_CASES = ((1, 8), (1, 9), (2, 13), (2, 15), (3, 25), (3, 28))

CROSS_VALIDATION_PAIRS = (
    tuple((1, h) for h in range(5, 13))
    + tuple((2, h) for h in range(13, 19))
    + tuple((3, h) for h in range(12, 25))
)
GAMMA_GRID_SAMPLES = 101  # p = 0, 1/100, ..., 1
WEIGHT_PS = (Fraction(1, 4), Fraction(3, 4))
MIN_ASSERTED = 10  # fewer certified p-cores than this fails the weights suite
COMPONENT_PS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
MAX_STORED_FAILURES = 20
THREE_TERM_T = (2, 3)  # powers t whose three-term reduction the facts sweep checks
# the facts sweep's fixed ranges: h, t, x and y from 1
FACTS_H_MAX = 400
FACTS_T_MAX = 8
FACTS_XY_MAX = 60


def three_term_h_min(t: int) -> int:
    """4t^2+10t+24, from which the three-term reduction holds (t >= 2)."""
    return 4 * t * t + 10 * t + 24


@dataclass
class FactCheck:
    """Tally of one arithmetic fact over its sweep."""

    name: str
    checked: int = 0
    failure_count: int = 0
    failures: list[tuple] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """A fact passes when it was checked at least once and never failed."""
        return self.checked > 0 and self.failure_count == 0

    def record(self) -> None:
        self.checked += 1

    def fail(self, witness: tuple) -> None:
        self.failure_count += 1
        if len(self.failures) < MAX_STORED_FAILURES:
            self.failures.append(witness)

    def to_json(self) -> dict:
        return {
            "checked": self.checked,
            "failures": self.failure_count,
            "witnesses": [list(w) for w in self.failures],
            "passed": self.passed,
        }


def _check_floor_ceiling_duality(fact: FactCheck) -> None:
    # floor(h/x) >= y iff floor(h/y) >= x; ceil(h/x) <= y iff ceil(h/y) <= x
    xy = range(1, FACTS_XY_MAX + 1)
    for h in range(1, FACTS_H_MAX + 1):
        floors = [0] + [h // d for d in xy]
        ceils = [0] + [-(-h // d) for d in xy]
        for x in xy:
            fx, cx = floors[x], ceils[x]
            for y in xy:
                fact.record()
                if (fx >= y) != (floors[y] >= x):
                    fact.fail(("floor", h, x, y))
                if (cx <= y) != (ceils[y] <= x):
                    fact.fail(("ceiling", h, x, y))


def _check_ceiling_floor_bound(fact: FactCheck) -> None:
    # ceil(h/(t+a+1)) <= floor(h/t) once h >= max(t(t-1), 2t+2), for a < t
    for t in range(1, FACTS_T_MAX + 1):
        for h in range(gray_window_h_min(t), FACTS_H_MAX + 1):
            ells = PowerCycleParams(h, t).ells
            for a in range(t):
                fact.record()
                if ells[a] > h // t:
                    fact.fail((t, h, a))


def _check_size_t_partition(fact: FactCheck) -> None:
    # Sets of size t or t+1 summing to h: the feasible part counts are exactly
    # the interval [ceil(h/(t+1)), floor(h/t)], every h >= t(t-1) admits a
    # partition, and the threshold is tight (h = t(t-1)-1 admits none).
    # Sporadic smaller h, such as multiples of t, are representable too, so
    # the threshold is a conductor, not a biconditional.
    for t in range(1, FACTS_T_MAX + 1):
        threshold = t * (t - 1)
        for h in range(1, FACTS_H_MAX + 1):
            fact.record()
            lo, hi = -(-h // (t + 1)), h // t
            feasible = {k for k in range(h + 1) if h - k * t >= 0 and k * (t + 1) - h >= 0}
            if feasible != set(range(lo, hi + 1)):
                fact.fail(("interval", t, h))
            if h >= threshold and not feasible:
                fact.fail(("conductor", t, h))
            for k in feasible:
                larger = h - k * t
                sizes = [t] * (k - larger) + [t + 1] * larger
                if len(sizes) != k or sum(sizes) != h:
                    fact.fail(("construction", t, h, k))
        if t >= 2 and threshold - 1 <= FACTS_H_MAX:
            fact.record()
            h = threshold - 1
            if any(h - k * t >= 0 and k * (t + 1) - h >= 0 for k in range(h + 1)):
                fact.fail(("tightness", t, h))


def _check_late_linearity(fact: FactCheck) -> None:
    # On p in [1/2, 1] the a=0 branch (1-p)/(ell0 - 1) is the smallest branch:
    # below the chromatic branch (a, c) = (t+1, 0) once h >= (t+1)^2 + 1, and
    # below every branch a >= 1 once h >= (t+1)(t+a) + 1.  Cross-multiplied,
    # a(1-p) + c p <= (ell0 - 1) p is linear in p, so its two ends decide it.
    for t in range(1, FACTS_T_MAX + 1):
        for h in range(2 * t + 2, FACTS_H_MAX + 1):
            ells = PowerCycleParams(h, t).ells
            rivals = [(t + 1, 0, (t + 1) ** 2 + 1)]
            rivals += [(a, ells[a] - 1, (t + 1) * (t + a) + 1) for a in range(1, t + 1)]
            for a, c, h_min in rivals:
                if h < h_min:
                    continue
                for m, n in ((1, 2), (1, 1)):  # p = m/n
                    fact.record()
                    if a * (n - m) + c * m > (ells[0] - 1) * m:
                        fact.fail((t, h, a, str(Fraction(m, n))))


def _check_early_linearity(fact: FactCheck) -> None:
    # On p in [0, p0] the chromatic branch p/(t+1) is the smallest branch:
    # (t+1-a)(1-p) >= (ell(a)-1) p for every a.  The left side falls and the
    # right side rises with p, so the ends p = 0 and p0 = 1/ell(t) decide it.
    for t in range(1, FACTS_T_MAX + 1):
        for h in range(2 * t + 2, FACTS_H_MAX + 1):
            ells = PowerCycleParams(h, t).ells
            for m, n in ((0, 1), (1, ells[t])):  # p = m/n
                for a, la in enumerate(ells):
                    fact.record()
                    if (t + 1 - a) * (n - m) < (la - 1) * m:
                        fact.fail((t, h, a, str(Fraction(m, n))))


def _check_three_term_reduction(fact: FactCheck) -> None:
    # (ell0 - ell(a)) (t - a) >= (ell(a) - ell(t)) a for the middle branches
    for t in THREE_TERM_T:
        for h in range(three_term_h_min(t), FACTS_H_MAX + 1):
            ells = PowerCycleParams(h, t).ells
            for a in range(1, t):
                fact.record()
                if (ells[0] - ells[a]) * (t - a) < (ells[a] - ells[t]) * a:
                    fact.fail((t, h, a))


FACT_CHECKS = {
    "floor_ceiling_duality": _check_floor_ceiling_duality,
    "ceiling_floor_bound": _check_ceiling_floor_bound,
    "size_t_partition": _check_size_t_partition,
    "late_linearity": _check_late_linearity,
    "early_linearity": _check_early_linearity,
    "three_term_reduction": _check_three_term_reduction,
}


def facts_suite() -> dict:
    """Sweep every supporting integer fact and report violations with witnesses."""
    facts = {}
    for name, check in FACT_CHECKS.items():
        facts[name] = FactCheck(name)
        check(facts[name])
    return {
        "ok": all(fact.passed for fact in facts.values()),
        "facts": {name: fact.to_json() for name, fact in facts.items()},
    }


def predicted_extreme_points(params: PowerCycleParams) -> list[tuple[int, int]]:
    """Maximal pairs (a, c) of the closed-form branch table, in order."""
    pairs = set(params.branches[1])
    return sorted(
        (a, c)
        for (a, c) in pairs
        if not any(a2 >= a and c2 >= c and (a2, c2) != (a, c) for a2, c2 in pairs)
    )


def gray_cycle_suite() -> dict:
    """Embedding sweeps over the forbidden gray-cycle window plus the
    all-gray boundary: K(t, ell(t)) must admit the cycle power and
    K(t, ell(t)-1) must not.  The fixed case table runs with no deadline."""
    sweeps = []
    ok = True
    for t, h in GRAY_CYCLE_CASES:
        params = PowerCycleParams(h, t)
        for a in range(t):
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
    grid = curves.uniform_p_grid(GAMMA_GRID_SAMPLES)
    results = []
    ok = True
    for t, h in CROSS_VALIDATION_PAIRS:
        params = PowerCycleParams(h, t)
        spec = power_cycle_spectrum(params)
        predicted = predicted_extreme_points(params)
        extreme_match = list(spec.extreme_points) == predicted
        mismatches = []
        for p in grid:
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
            "gamma_points": len(grid),
        }
        results.append(entry)
        ok = ok and extreme_match and not mismatches
    return {"ok": ok, "pairs": results}


def _white_side_identities(K: Crg, p: Fraction, gv: GValue, white: str, black: str) -> list[str]:
    """The p <= 1/2 identities, with problems naming the colors white and black."""
    g = gv.value
    x = gv.weights
    gray = degree_report(K, gv).gray
    problems = []
    for v in range(K.n):
        if K.vertex_colors[v] == WHITE:
            if x[v] != g / p:
                problems.append(f"{white} weight at {v}: {x[v]} != {g / p}")
        else:
            expected = (p - g) / p + (1 - 2 * p) / p * x[v]
            if gray[v] != expected:
                problems.append(f"{black} gray-degree at {v}")
            if x[v] > g / (1 - p):
                problems.append(f"{black} weight bound at {v}")
    return problems


def check_weight_identities(K: Crg, p: Fraction, gv: GValue) -> list[str]:
    """Identities every p-core optimum must satisfy; returns violations.

    The optimum of a p-core CRG has full support, so (Mx)_v = g at every
    vertex.  At p <= 1/2 a white vertex sees only gray edges, giving
    p x(v) = g, i.e. x(v) = g/p exactly; a black vertex has gray degree
    (p-g)/p + ((1-2p)/p) x(v) and weight at most g/(1-p).  For p >= 1/2 the
    same identities hold for color_swap(K) at 1 - p, which has the same
    optimum; at p = 1/2 both halves apply and agree.
    """
    problems = []
    if p <= Fraction(1, 2):
        problems += _white_side_identities(K, p, gv, WHITE, BLACK)
    if p >= Fraction(1, 2):
        problems += _white_side_identities(color_swap(K), 1 - p, gv, BLACK, WHITE)
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


def weight_suite() -> dict:
    """p-core certification plus weight identities over the random corpus.

    is_p_core itself raises if a certified core breaks the structural law
    (p_core_structure_ok), so that law needs no second check here.
    Instances that fail certification are vacuous for the identities and
    are tallied separately; too few asserted instances fails the suite, so
    the corpus must keep producing gray-dominated CRGs.
    """
    corpus = standard_corpus(CORPUS_SEED)
    asserted = 0
    vacuous = 0
    degree_instances = 0
    identity_failures = []
    degree_failures = []
    for index, K in enumerate(corpus):
        for p in WEIGHT_PS:
            if not is_p_core(K, p):
                vacuous += 1
                continue
            asserted += 1
            gv = g_value(K, p)
            problems = check_weight_identities(K, p, gv)
            if problems:
                identity_failures.append(
                    {"index": index, "p": str(p), "problems": problems}
                )
            hits, violations = gray_degree_bound_tally(K, p, gv)
            degree_instances += hits
            degree_failures.extend(violations)
    ok = not identity_failures and not degree_failures and asserted >= MIN_ASSERTED
    return {
        "ok": ok,
        "corpus_size": len(corpus),
        "asserted": asserted,
        "vacuous": vacuous,
        "min_asserted": MIN_ASSERTED,
        "identity_failures": identity_failures,
        "degree_bound_instances": degree_instances,
        "degree_bound_failures": degree_failures,
    }


def component_suite() -> dict:
    """Reciprocal-sum identity: the jointly solved optimum of a CRG must equal
    the recombination of its independently solved components."""
    corpus = standard_corpus(CORPUS_SEED)
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


SUITES = {
    "facts": facts_suite,
    "gray_cycles": gray_cycle_suite,
    "gamma_cross": gamma_cross_suite,
    "weights": weight_suite,
    "components": component_suite,
}


def run_suites(names) -> dict:
    """Run the named suites in SUITES order, each section ending with its
    elapsed_s; "ok" when every one passes.

    No name, or an unknown one, is refused: a run that checked nothing
    must not report a pass.
    """
    names = set(names)
    if not names or not names <= SUITES.keys():
        raise ParameterDomainError(f"suites {sorted(names)}: name one or more of {tuple(SUITES)}")
    report = {}
    for name, suite in SUITES.items():
        if name in names:
            started = time.perf_counter()
            report[name] = suite()
            report[name]["elapsed_s"] = round(time.perf_counter() - started, 3)
    report["ok"] = all(section["ok"] for section in report.values())
    return report
