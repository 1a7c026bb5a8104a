"""Closed-form curves for forbidden cycle powers, their maxima, and the
supporting integer facts.

The upper-bound curve gamma is a pointwise minimum of one rational branch
per independent-set count a (the branch through the pair (a, ell(a)-1)) and,
when t+1 does not divide h, the linear chromatic branch p/(t+1).  The
a = 0 branch simplifies to (1-p)/(ell(0)-1), which also serves as its value
at p = 0.  The edit distance function itself equals gamma on the covered
range: everywhere when t+1 does not divide h, and for p >= p0 otherwise;
outside that range the value is reported as not covered, never guessed.
gamma_closed and ed_closed are the only evaluators of the curve: the
ordinary-cycle formula is their t = 1 case, and the three-term form is
their large-h case, whose inequality the facts sweep checks.

Every branch value comes from gfunction.g_krs, the g-function of the
all-gray CRG K(a, c), so every closed form is an exact Fraction for every p
in [0, 1]; a float p is converted to its exact binary value first.  The fact
sweeps below clear denominators so that every comparison is an integer
comparison.  The two linearity facts compare branches over a p-interval;
cross-multiplied, each comparison is linear in p, so the sweep tests it at
the two ends of the interval, which decides it at every p between.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import nextafter, sqrt
from typing import Callable, Sequence

from .errors import NonConcavityError, ParameterDomainError
from .gfunction import g_krs
from .graphs import PowerCycleParams, gray_window_h_min
from .rationals import Number, to_fraction, to_probability

MAX_STORED_FAILURES = 20
MAX_POINT_TOL = 1e-12
CONCAVITY_SAMPLES = 101
THREE_TERM_T = (2, 3)  # powers t whose three-term reduction the facts sweep checks
# the facts sweep's fixed ranges: h, t, x and y from 1
FACTS_H_MAX = 400
FACTS_T_MAX = 8
FACTS_XY_MAX = 60


def ed_h_min(t: int) -> int:
    """2t(t+1)+1, the least h at which ed equals the closed form at all."""
    return 2 * t * (t + 1) + 1


def three_term_h_min(t: int) -> int:
    """4t^2+10t+24, from which the three-term reduction holds (t >= 2)."""
    return 4 * t * t + 10 * t + 24


@cache
def branches(params: PowerCycleParams) -> tuple[tuple[str, int, int], ...]:
    """Every branch of the closed-form curve as (label, a, c), in tie-breaking order.

    Each branch has the form 1/(a/p + c/(1-p)), which is g_krs(a, c, p).
    Branch "a=..." is the curve through the spectrum pair (a, ell(a)-1); the
    "chromatic" branch through (t+1, 0) exists only when t+1 does not divide
    h.  The order matches the lexicographic order of those pairs.  Cached,
    since every evaluation of the curve reads the table.
    """
    params.require_gamma_range("closed-form gamma")
    table = tuple((f"a={a}", a, params.ell(a) - 1) for a in range(params.t + 1))
    return table if params.divisible else (*table, ("chromatic", params.t + 1, 0))


def branch_values(params: PowerCycleParams, p: Number) -> list[tuple[str, Fraction]]:
    """Every branch of the closed-form curve at p, in tie-breaking order."""
    return [(label, g_krs(a, c, p)) for label, a, c in branches(params)]


def gamma_closed_with_branch(params: PowerCycleParams, p: Number) -> tuple[Fraction, str]:
    best_label, best = None, None
    for label, value in branch_values(params, p):
        if best is None or value < best:
            best_label, best = label, value
    return best, best_label


def gamma_closed(params: PowerCycleParams, p: Number) -> Fraction:
    return gamma_closed_with_branch(params, p)[0]


def ed_closed(params: PowerCycleParams, p: Number) -> Fraction | None:
    """Closed-form edit distance value, or None where equality is not covered.

    Requires h >= 2t(t+1)+1.  When t+1 divides h the equality with gamma is
    only available for p >= p0 = 1/ell(t).
    """
    if params.h < ed_h_min(params.t):
        raise ParameterDomainError(
            f"closed-form edit distance needs h >= 2t(t+1)+1 = "
            f"{ed_h_min(params.t)}, got h={params.h}"
        )
    p = to_probability(p)
    if not ed_covered(params, p):
        return None
    return gamma_closed(params, p)


def ed_covered(params: PowerCycleParams, p: Number) -> bool:
    return not params.divisible or p >= params.p0


def black_part_g_bound(white_count: int, params: PowerCycleParams, p: Number) -> Fraction:
    """Largest g value the all-black part of a competitive CRG could have.

    A CRG with `white_count` white vertices beating every branch forces its
    black part below this bound; it is the reciprocal of the largest branch
    denominator shifted by the white-part contribution.
    """
    t = params.t
    if not 0 <= white_count <= t:
        raise ParameterDomainError(f"white_count={white_count} outside 0..{t}")
    p = to_fraction(p)
    if not 0 < p < 1:
        raise ParameterDomainError("bound needs 0 < p < 1")
    best = max(
        (a2 - white_count) / p + (params.ell(a2) - 1) / (1 - p) for a2 in range(t + 1)
    )
    return 1 / best


def branch_crossings(params: PowerCycleParams) -> list[Fraction]:
    """Exact p values in (0, 1) where two branches of the curve meet."""
    table = branches(params)
    return sorted(
        {
            Fraction(a2 - a1, (a2 - a1) + (c1 - c2))
            for i, (_, a1, c1) in enumerate(table)
            for _, a2, c2 in table[i + 1 :]
            if c1 > c2
        }
    )


def uniform_p_grid(samples: int) -> list[Fraction]:
    """samples evenly spaced rationals from 0 to 1; the single point 1/2 when
    samples is 1."""
    if samples < 1:
        raise ParameterDomainError("need at least one sample")
    if samples == 1:
        return [Fraction(1, 2)]
    return [Fraction(k, samples - 1) for k in range(samples)]


def default_p_grid(params: PowerCycleParams, samples: int = 201) -> list[Fraction]:
    """Uniform rational grid plus p0, 1/2, and all branch crossings."""
    grid = set(uniform_p_grid(samples))
    grid.update({params.p0, Fraction(1, 2)})
    grid.update(branch_crossings(params))
    return sorted(grid)


@dataclass(frozen=True)
class CurveSample:
    """One emitted row of the closed-form curve."""

    p: Number
    gamma: Number
    branch: str
    ed: Number | None
    ed_range_ok: bool  # h large enough for the equality result at all
    covered: bool  # p inside the range where the equality holds

    def to_json(self) -> dict:
        from .rationals import number_str

        return {
            "p": number_str(self.p),
            "gamma": number_str(self.gamma),
            "branch": self.branch,
            "ed": None if self.ed is None else number_str(self.ed),
            "ed_range_ok": self.ed_range_ok,
            "covered": self.covered,
        }


def curve_samples(params: PowerCycleParams, grid: Sequence[Number]) -> list[CurveSample]:
    h_ok = params.h >= ed_h_min(params.t)
    samples = []
    for p in grid:
        value, branch = gamma_closed_with_branch(params, p)
        covered = h_ok and ed_covered(params, p)
        samples.append(
            CurveSample(p, value, branch, value if covered else None, h_ok, covered)
        )
    return samples


def curve_csv(samples: Sequence[CurveSample], search: Sequence[Number] | None = None) -> str:
    header = "p,gamma_closed,ed_closed,branch,covered"
    if search is not None:
        header += ",gamma_search"
    lines = [header]
    for idx, s in enumerate(samples):
        ed = "" if s.ed is None else f"{float(s.ed)!r}"
        row = f"{float(s.p)!r},{float(s.gamma)!r},{ed},{s.branch},{s.covered}"
        if search is not None:
            row += f",{float(search[idx])!r}"
        lines.append(row)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MaxPoint:
    p_star: float
    d_star: float
    method: str  # "ternary-search" | "closed-form"

    def to_json(self) -> dict:
        return {"p_star": self.p_star, "d_star": self.d_star, "method": self.method}


def max_point(curve: Callable[[Number], Number]) -> MaxPoint:
    """Maximum of a concave curve on [0, 1] by ternary search.

    A three-point midpoint probe on CONCAVITY_SAMPLES points runs first;
    concavity failures raise rather than return a point the search cannot
    certify.  The bracket is kept in exact rationals, so value comparisons
    near the flat top never fall into float rounding noise.  The search
    stops once the bracket is narrower than MAX_POINT_TOL.  It is the
    generic cross-check for curve_peak's exact peak of gamma.
    """
    grid = uniform_p_grid(CONCAVITY_SAMPLES)
    values = [curve(p) for p in grid]
    for i in range(CONCAVITY_SAMPLES - 2):
        if values[i + 1] < (values[i] + values[i + 2]) / 2 - Fraction(1, 10**9):
            raise NonConcavityError(f"midpoint concavity fails near p={float(grid[i + 1])}")
    a, b = Fraction(0), Fraction(1)
    while b - a > MAX_POINT_TOL:
        m1 = a + (b - a) / 3
        m2 = b - (b - a) / 3
        left, right = curve(m1), curve(m2)
        if left < right:
            a = m1
        elif left > right:
            b = m2
        else:
            a, b = m1, m2
    p_star = (a + b) / 2
    return MaxPoint(float(p_star), float(curve(p_star)), "ternary-search")


def _vertex_below(a: int, c: int, q: Fraction) -> bool:
    """Is sqrt(a)/(sqrt(a)+sqrt(c)) < q?  Squared into an integer test."""
    m, n = q.numerator, q.denominator
    return (n - m) ** 2 * a < m * m * c


def _rounded_vertex(a: int, c: int) -> float:
    """The float nearest sqrt(a)/(sqrt(a)+sqrt(c)), for a, c > 0.

    The float expression can land an ulp off, so step to the float whose
    rounding interval, between the midpoints to its neighbours, holds the
    vertex; each side is decided exactly by _vertex_below.  The vertex is
    irrational or has a small denominator, so it is never a midpoint.
    """
    x = sqrt(a) / (sqrt(a) + sqrt(c))
    while _vertex_below(a, c, (Fraction(x) + Fraction(nextafter(x, 0))) / 2):
        x = nextafter(x, 0)
    while not _vertex_below(a, c, (Fraction(x) + Fraction(nextafter(x, 1))) / 2):
        x = nextafter(x, 1)
    return x


def curve_peak(params: PowerCycleParams) -> MaxPoint:
    """Exact peak of the closed-form curve gamma.

    Every branch has the form 1/(a/p + c/(1-p)): (a, ell(a)-1) for branch
    "a=...", and (t+1, 0) for the chromatic one.  Each is concave with its
    vertex at sqrt(a)/(sqrt(a)+sqrt(c)).  Between consecutive branch
    crossings one branch is the minimum, so gamma peaks at the vertex of the
    branch active on the interval holding that vertex, or else at the
    crossing with the largest value.  Either way p_star is the peak
    correctly rounded: a crossing is a Fraction, and a vertex is rounded
    exactly by _rounded_vertex.  A crossing peak's d_star is the correctly
    rounded exact value; a vertex peak is evaluated exactly at the float
    p_star.
    """
    shapes = {label: (a, c) for label, a, c in branches(params)}
    points = [Fraction(0), *branch_crossings(params), Fraction(1)]
    for lo, hi in zip(points, points[1:]):
        a, c = shapes[gamma_closed_with_branch(params, (lo + hi) / 2)[1]]
        if not _vertex_below(a, c, lo) and _vertex_below(a, c, hi):
            p_star = _rounded_vertex(a, c)
            break
    else:
        p_star = max(points, key=lambda q: gamma_closed(params, q))
    return MaxPoint(float(p_star), float(gamma_closed(params, p_star)), "closed-form")


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


@dataclass
class FactsReport:
    facts: dict[str, FactCheck]

    @property
    def ok(self) -> bool:
        return all(f.passed for f in self.facts.values())

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "facts": {name: f.to_json() for name, f in self.facts.items()},
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


def verify_facts() -> FactsReport:
    """Sweep every supporting integer fact and report violations with witnesses."""
    facts = {}
    for name, check in FACT_CHECKS.items():
        facts[name] = FactCheck(name)
        check(facts[name])
    return FactsReport(facts)
