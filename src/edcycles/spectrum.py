"""Clique spectra and the gamma upper-bound curve, from search alone.

The clique spectrum of a forbidden graph H collects the pairs (r, s) for
which V(H) cannot be partitioned into r independent sets and s cliques.  It
is a staircase (a Ferrers diagram): shrinking either coordinate preserves
membership.  clique_spectrum walks down that staircase once, as in
saddleback search.  Each partition the oracle finds moves the walk straight
to its own clique count, each row ends with one refutation, and the walk
stops at its first empty row, so every spectrum it returns is complete.
Most of the oracle's work is those refutations.  It cuts them short with a
capacity bound: at each node, the independence and clique numbers of the
parts' allowed sets must add up to the vertices still to place, the
counting rule behind ell(a) applied inside the search.  The bound prunes
only subtrees without a partition, so the oracle finds the same first
partition with or without it, and the walk makes the same calls.
The curve gamma(p) takes the minimum of the all-gray-CRG closed form over
the spectrum; only the extreme points can attain it.

Everything here goes through the exhaustive partition oracle, never through
closed-form shortcuts, so it can serve as the independent side of
cross-validation against derived formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count

from .errors import ParameterDomainError
from .gfunction import g_krs_min
from .graphs import Graph, PowerCycleParams, find_partition
from .rationals import Number


@dataclass(frozen=True)
class CliqueSpectrum:
    """Materialized spectrum pairs with their extreme points."""

    pairs: frozenset[tuple[int, int]]
    extreme_points: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {
            "pairs": sorted(list(p) for p in self.pairs),
            "extreme": [list(p) for p in self.extreme_points],
        }


def clique_spectrum(H: Graph) -> CliqueSpectrum:
    """Complete spectrum of Forb(H), closed by its first empty row.

    Row r's boundary is the least s with an (r, s)-partition.  Boundaries
    only shrink as r grows, and row 0's is at most H.n (singleton cliques),
    so one staircase walk finds them all: start at s = H.n and, on each row,
    ask find_partition(H, r, s - 1).  A partition it finds has some b <= s - 1
    cliques, so the boundary is at most b, and the walk jumps to s = b; the
    first refutation fixes the row's boundary at s.  Each row costs one
    refutation at most, the one that stops its walk.  The first empty row
    ends the walk: no later row can hold a pair, so the spectrum is whole.
    Row r's last pair (r, b_r - 1) is extreme exactly when b_(r+1) < b_r.
    """
    boundaries = []
    s = H.n
    for r in count():
        while s > 0:
            found = find_partition(H, r, s - 1)
            if found is None:
                break
            s = found[1]
        boundaries.append(s)
        if s == 0:  # an empty row certifies closure
            break
    pairs = frozenset(
        (r, s) for r, boundary in enumerate(boundaries) for s in range(boundary)
    )
    extreme = tuple(
        (r, b - 1) for r, (b, below) in enumerate(zip(boundaries, boundaries[1:])) if below < b
    )
    return CliqueSpectrum(pairs, extreme)


def power_cycle_spectrum(params: PowerCycleParams) -> CliqueSpectrum:
    """Spectrum of a cycle power."""
    return clique_spectrum(params.graph())


def gamma(spec: CliqueSpectrum, p: Number) -> Fraction:
    """Minimum of the all-gray closed form g_krs over the extreme points."""
    if not spec.extreme_points:
        raise ParameterDomainError("empty spectrum has no gamma value")
    return g_krs_min(spec.extreme_points, p)[0]
