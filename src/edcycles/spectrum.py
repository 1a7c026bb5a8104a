"""Clique spectra and the gamma upper-bound curve, from search alone.

The clique spectrum of a forbidden graph H collects the pairs (r, s) for
which V(H) cannot be partitioned into r independent sets and s cliques.  It
is a staircase (a Ferrers diagram): shrinking either coordinate preserves
membership.  The curve gamma(p) takes the minimum of the all-gray-CRG
closed form over the spectrum; only the extreme points can attain it.

Everything here goes through the exhaustive partition oracle, never through
closed-form shortcuts, so it can serve as the independent side of
cross-validation against derived formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import ParameterDomainError, TruncatedSpectrumError
from .gfunction import g_krs
from .graphs import Graph, PowerCycleParams, partitionable
from .rationals import Number


@dataclass(frozen=True)
class CliqueSpectrum:
    """Materialized spectrum pairs with their extreme points.

    truncated means the spectrum may extend past the requested bounds, in
    which case the extreme points cannot be trusted downstream.
    """

    pairs: frozenset[tuple[int, int]]
    extreme_points: tuple[tuple[int, int], ...]
    r_max: int
    s_max: int
    truncated: bool

    def to_json(self) -> dict:
        return {
            "pairs": sorted(list(p) for p in self.pairs),
            "extreme": [list(p) for p in self.extreme_points],
            "truncated": self.truncated,
        }


def _row_boundary(H: Graph, r: int, hi: int) -> int:
    """Least s with a valid (r, s)-partition, found by monotone bisection."""
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if partitionable(H, r, mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def clique_spectrum(
    H: Graph,
    r_max: int | None = None,
    s_max: int | None = None,
) -> CliqueSpectrum:
    """Spectrum of Forb(H) up to the given bounds.

    With bounds omitted, rows are explored until an empty row certifies
    closure on both axes, so the result is never truncated.  Explicit bounds
    are honored and the truncated flag reports whether anything was clipped.
    """
    for name, bound in (("r_max", r_max), ("s_max", s_max)):
        if bound is not None and bound < 0:
            raise ParameterDomainError(f"{name}={bound} must be nonnegative")
    n = H.n
    boundaries: list[int] = []
    r = 0
    while True:
        hi = boundaries[-1] if boundaries else n
        boundary = _row_boundary(H, r, hi)
        boundaries.append(boundary)
        if boundary == 0:
            break  # row boundaries only shrink, so closure is certified
        if r_max is not None and r >= r_max:
            break
        r += 1

    true_s_max = boundaries[0] - 1 if boundaries[0] else -1
    eff_r_max = len(boundaries) - 1 if r_max is None else r_max
    eff_s_max = true_s_max if s_max is None else s_max

    truncated = False
    if boundaries[-1] > 0:
        truncated = True  # never reached an empty row: more rows may exist
    if any(b - 1 > eff_s_max for b in boundaries):
        truncated = True  # clipped in the s direction

    pairs = frozenset(
        (r, s)
        for r, boundary in enumerate(boundaries[: eff_r_max + 1])
        for s in range(min(boundary, eff_s_max + 1))
    )
    extreme = tuple(
        sorted(
            (r, s)
            for (r, s) in pairs
            if (r + 1, s) not in pairs and (r, s + 1) not in pairs
        )
    )
    return CliqueSpectrum(pairs, extreme, eff_r_max, eff_s_max, truncated)


def power_cycle_spectrum(params: PowerCycleParams) -> CliqueSpectrum:
    """Spectrum of a cycle power with bounds that provably cover all extreme points."""
    return clique_spectrum(params.graph(), r_max=params.chi, s_max=params.ell(0) + 1)


class GammaPoint(NamedTuple):
    p: Number
    value: Number
    branch: tuple[int, int]


def gamma_with_branch(spec: CliqueSpectrum, p: Number) -> GammaPoint:
    """Minimum of the all-gray closed form over extreme points, with its argmin.

    Ties resolve to the lexicographically least (r, s).
    """
    if spec.truncated:
        raise TruncatedSpectrumError(
            "spectrum was truncated; extreme points may be missing"
        )
    if not spec.extreme_points:
        raise ParameterDomainError("empty spectrum has no gamma value")
    best = None
    for r, s in spec.extreme_points:  # already sorted lexicographically
        value = g_krs(r, s, p)
        if best is None or value < best.value:
            best = GammaPoint(p, value, (r, s))
    return best


def gamma(spec: CliqueSpectrum, p: Number) -> Number:
    return gamma_with_branch(spec, p).value


def gamma_curve(spec: CliqueSpectrum, p_grid: Sequence[Number]) -> list[GammaPoint]:
    return [gamma_with_branch(spec, p) for p in p_grid]


def gamma_curve_csv(points: Sequence[GammaPoint]) -> str:
    lines = ["p,gamma,branch_r,branch_s"]
    for point in points:
        lines.append(
            f"{point.p},{point.value},{point.branch[0]},{point.branch[1]}"
        )
    return "\n".join(lines) + "\n"
