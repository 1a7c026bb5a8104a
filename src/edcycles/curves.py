"""Closed-form curves for forbidden cycle powers and their maxima.

The upper-bound curve gamma is a pointwise minimum of one rational branch
per independent-set count a (the branch through the pair (a, ell(a)-1)) and,
when t+1 does not divide h, the linear chromatic branch p/(t+1).  The
a = 0 branch simplifies to (1-p)/(ell(0)-1), which also serves as its value
at p = 0.  The edit distance function itself equals gamma on the covered
range: everywhere when t+1 does not divide h, and for p >= p0 otherwise;
outside that range the value is reported as not covered, never guessed.
gamma_closed and ed_closed are the only evaluators of the curve: the
ordinary-cycle formula is their t = 1 case, and the three-term form is
their large-h case, whose inequality the facts sweep in verify checks.
Every evaluator reads the branch table params.branches, which the
PowerCycleParams instance builds once.

Every branch value comes from gfunction.g_krs, the g-function of the
all-gray CRG K(a, c), and the least branch from gfunction.g_krs_min, so
every closed form is an exact Fraction for every p in [0, 1]; a float p is
converted to its exact binary value first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import nextafter, sqrt
from typing import Callable, Sequence

from .errors import NonConcavityError, ParameterDomainError
from .gfunction import g_krs, g_krs_min
from .graphs import PowerCycleParams
from .rationals import Number, number_str, to_fraction, to_probability

MAX_POINT_TOL = 1e-12
CONCAVITY_SAMPLES = 101


def ed_h_min(t: int) -> int:
    """2t(t+1)+1, the least h at which ed equals the closed form at all."""
    return 2 * t * (t + 1) + 1


def branch_values(params: PowerCycleParams, p: Number) -> list[tuple[str, Fraction]]:
    """Every branch of the closed-form curve at p, in tie-breaking order."""
    labels, pairs = params.branches
    return [(label, g_krs(a, c, p)) for label, (a, c) in zip(labels, pairs)]


def gamma_closed_with_branch(params: PowerCycleParams, p: Number) -> tuple[Fraction, str]:
    """The least branch value at p and its label; the first branch wins a tie."""
    labels, pairs = params.branches
    value, index = g_krs_min(pairs, p)
    return value, labels[index]


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
    p = to_probability(p)
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
    pairs = params.branches[1]
    return sorted(
        {
            Fraction(a2 - a1, (a2 - a1) + (c1 - c2))
            for i, (a1, c1) in enumerate(pairs)
            for a2, c2 in pairs[i + 1 :]
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
    method: str  # "fibonacci-search" | "closed-form"

    def to_json(self) -> dict:
        return {"p_star": self.p_star, "d_star": self.d_star, "method": self.method}


def _fibonacci_table() -> tuple[list[int], int]:
    """Fibonacci numbers up to the first F >= 2 / MAX_POINT_TOL, and the
    last index k whose F_k / F is at most MAX_POINT_TOL."""
    fib = [0, 1]
    while fib[-1] < 2 / MAX_POINT_TOL:
        fib.append(fib[-1] + fib[-2])
    stop = max(k for k, x in enumerate(fib) if not Fraction(x, fib[-1]) > MAX_POINT_TOL)
    return fib, stop


_CONCAVITY_GRID = uniform_p_grid(CONCAVITY_SAMPLES)
_FIB, _FIB_STOP = _fibonacci_table()


def max_point(curve: Callable[[Number], Number]) -> MaxPoint:
    """Maximum of a concave curve on [0, 1] by Fibonacci search.

    Every value the search compares or returns goes through to_fraction, so
    a curve that gives NaN, an infinity or a non-number anywhere the search
    looks raises ParameterDomainError instead of returning a point it cannot
    certify; a float value is compared by its exact binary value.

    A three-point midpoint probe on CONCAVITY_SAMPLES points runs first;
    concavity failures raise rather than return a point the search cannot
    certify.  The probe at v1 = c/d between v0 = a/b and v2 = e/f fails when
    v1 < (v0 + v2)/2 - 1/10**9, and is tested on integers as that rule times
    2 b d f 10**9 > 0: 2 c b f 10**9 < (a f + e b) d 10**9 - 2 b d f.  Every
    probe is i / F for one Fibonacci number F >= 2 / MAX_POINT_TOL, so the
    bracket [lo, lo + F_k] / F keeps exact rational ends and value
    comparisons near the flat top never fall into float rounding noise.  Its
    inner probes sit at lo + F_(k-2) and lo + F_(k-1), and each step keeps
    one of them as a probe of the next bracket, so a step costs one curve
    evaluation.  A tie keeps [lo, x2], which holds both probes.  The search
    stops once the bracket is at most MAX_POINT_TOL wide, that is, once k
    reaches the last index whose F_k / F is at most MAX_POINT_TOL.  The
    grid, the Fibonacci table and that stop index depend on no curve and are
    built once, at import.  It is the generic cross-check for curve_peak's
    exact peak of gamma.
    """
    values = [to_fraction(curve(p)) for p in _CONCAVITY_GRID]
    parts = [(v.numerator, v.denominator) for v in values]
    for i, ((a, b), (c, d), (e, f)) in enumerate(zip(parts, parts[1:], parts[2:])):
        if 2 * c * b * f * 10**9 < (a * f + e * b) * d * 10**9 - 2 * b * d * f:
            raise NonConcavityError(
                f"midpoint concavity fails near p={float(_CONCAVITY_GRID[i + 1])}"
            )
    fib = _FIB
    scale, k = fib[-1], len(fib) - 1
    lo, x1, x2 = 0, fib[k - 2], fib[k - 1]
    left = to_fraction(curve(Fraction(x1, scale)))
    right = to_fraction(curve(Fraction(x2, scale)))
    while k > _FIB_STOP:
        k -= 1
        if left < right:
            lo, x1, left = x1, x2, right
            x2 = lo + fib[k - 1]
            right = to_fraction(curve(Fraction(x2, scale)))
        else:
            x2, right = x1, left
            x1 = lo + fib[k - 2]
            left = to_fraction(curve(Fraction(x1, scale)))
    p_star = Fraction(2 * lo + fib[k], 2 * scale)
    return MaxPoint(float(p_star), float(to_fraction(curve(p_star))), "fibonacci-search")


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
    pairs = params.branches[1]
    points = [Fraction(0), *branch_crossings(params), Fraction(1)]
    for lo, hi in zip(points, points[1:]):
        a, c = pairs[g_krs_min(pairs, (lo + hi) / 2)[1]]
        if not _vertex_below(a, c, lo) and _vertex_below(a, c, hi):
            p_star = _rounded_vertex(a, c)
            break
    else:
        p_star = max(points, key=lambda q: gamma_closed(params, q))
    return MaxPoint(float(p_star), float(gamma_closed(params, p_star)), "closed-form")
