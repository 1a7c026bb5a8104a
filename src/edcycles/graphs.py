"""Simple graphs, powers of cycles, and exact partition oracles.

The partition search in this module (into independent sets and cliques; the
chromatic number goes through it too) is exhaustive and exact.  It is
deliberately limited to small vertex counts and refuses larger instances
instead of approximating, because downstream verification treats its
answers as ground truth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil
from typing import Iterable, NamedTuple

from .errors import ParameterDomainError, SizeExceededError
from .rationals import json_int, json_list

EXACT_SEARCH_BOUND = 24


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise ParameterDomainError("vertex count must be nonnegative")
        for i, j in self.edges:
            if not (0 <= i < j < self.n):
                raise ParameterDomainError(f"edge ({i},{j}) out of range or not i<j")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph, normalizing edge orientation and rejecting loops."""
        normalized = set()
        for i, j in edges:
            if i == j:
                raise ParameterDomainError(f"self-loop at vertex {i}")
            normalized.add((min(i, j), max(i, j)))
        return Graph(n, frozenset(normalized))

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighborhoods as bitmasks; bit j of entry i is set iff ij is an edge."""
        masks = [0] * self.n
        for i, j in self.edges:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        return tuple(masks)

    def adjacent(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def degree(self, v: int) -> int:
        return bin(self.adjacency_masks[v]).count("1")

    def is_independent_set(self, vertices: Iterable[int]) -> bool:
        vs = list(vertices)
        return all(not self.adjacent(a, b) for k, a in enumerate(vs) for b in vs[k + 1 :])

    def is_clique(self, vertices: Iterable[int]) -> bool:
        vs = list(vertices)
        return all(self.adjacent(a, b) for k, a in enumerate(vs) for b in vs[k + 1 :])


def graph_to_json(g: Graph) -> dict:
    """{"n": ..., "edges": [[i, j], ...]} with i < j, lexicographically sorted."""
    return {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}


def graph_from_json(obj) -> Graph:
    try:
        if isinstance(obj, str):
            obj = json.loads(obj)
        n = json_int(obj["n"])
        edges = [(json_int(i), json_int(j)) for i, j in json_list(obj["edges"])]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterDomainError(f"malformed graph JSON: {exc}") from exc
    return Graph.from_edges(n, edges)


def power_cycle(h: int, t: int) -> Graph:
    """Graph on h cyclically arranged vertices, edges between cyclic distance <= t."""
    return PowerCycleParams(h, t).graph()


@dataclass(frozen=True)
class PowerCycleParams:
    """Derived quantities of a power of a cycle, computed once and shared.

    ell(a) = ceil(h / (t+a+1)) is the least number of cliques that, together
    with a independent sets, can cover the cycle power.  p0 = 1/ell(t) marks
    where the earliest linear piece of the gamma curve ends, and L = floor(h/t)
    caps the length of usable gray cycles.
    """

    h: int
    t: int

    def __post_init__(self):
        if self.h < 3:
            raise ParameterDomainError(f"cycle length {self.h} < 3")
        if self.t < 1:
            raise ParameterDomainError(f"power {self.t} < 1")

    @cached_property
    def ells(self) -> tuple[int, ...]:
        return tuple(ceil(self.h / (self.t + a + 1)) for a in range(self.t + 1))

    def ell(self, a: int) -> int:
        if not 0 <= a <= self.t:
            raise ParameterDomainError(f"a={a} outside 0..{self.t}")
        return self.ells[a]

    @property
    def p0(self) -> Fraction:
        return Fraction(1, self.ells[self.t])

    @cached_property
    def chi(self) -> int:
        """Chromatic number of the cycle power (complete graph when h <= 2t+1)."""
        if self.h < self.t + 1:
            return self.h
        q, r = divmod(self.h, self.t + 1)
        return self.t + ceil(r / q) + 1 if r else self.t + 1

    @property
    def longest_gray_cycle(self) -> int:
        return self.h // self.t

    @property
    def divisible(self) -> bool:
        return self.h % (self.t + 1) == 0

    def graph(self) -> Graph:
        """The cycle power itself: edges between cyclic distance <= t."""
        h, t = self.h, self.t
        edges = set()
        for i in range(h):
            for j in range(i + 1, h):
                if min(j - i, h - (j - i)) <= t:
                    edges.add((i, j))
        return Graph(h, frozenset(edges))

    def require_gamma_range(self, what: str) -> None:
        """Refuse h < max(t(t+1), 4), below which the closed-form curve and
        its partition witnesses are not established."""
        bound = max(self.t * (self.t + 1), 4)
        if self.h < bound:
            raise ParameterDomainError(
                f"{what} needs h >= max(t(t+1), 4) = {bound}, got h={self.h}"
            )


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number: the least r with a partition into r independent sets."""
    return next(r for r in range(g.n + 1) if partitionable(g, r, 0))


def partitionable(g: Graph, r: int, s: int) -> bool:
    """Can V(g) be split into at most r independent sets and at most s cliques?

    Backtracking over vertices in index order.  Parts of the same kind are
    interchangeable, so a vertex may open only the first still-empty part of
    each kind; this prunes the r!*s! relabelling symmetry (vertex 0 always
    lands in the first independent part or the first clique part).
    """
    if r < 0 or s < 0:
        raise ParameterDomainError(f"part counts must be nonnegative, got r={r}, s={s}")
    if g.n > EXACT_SEARCH_BOUND:
        raise SizeExceededError(
            f"partitionable: {g.n} vertices exceeds exact-search bound {EXACT_SEARCH_BOUND}"
        )
    n = g.n
    if n == 0:
        return True
    if r + s == 0:
        return False
    adj = g.adjacency_masks
    ind_masks = [0] * r
    clq_masks = [0] * s

    def place(v: int) -> bool:
        if v == n:
            return True
        a = adj[v]
        opened = False
        for i in range(r):
            m = ind_masks[i]
            if m == 0:
                if opened:
                    break
                opened = True
            if m & a == 0:
                ind_masks[i] = m | 1 << v
                if place(v + 1):
                    return True
                ind_masks[i] = m
        opened = False
        for i in range(s):
            m = clq_masks[i]
            if m == 0:
                if opened:
                    break
                opened = True
            if m & ~a == 0:
                clq_masks[i] = m | 1 << v
                if place(v + 1):
                    return True
                clq_masks[i] = m
        return False

    return place(0)


class PartitionWitness(NamedTuple):
    independent_sets: tuple[tuple[int, ...], ...]
    cliques: tuple[tuple[int, ...], ...]

    def parts(self) -> list[tuple[int, ...]]:
        return list(self.independent_sets) + list(self.cliques)


def spectrum_partition_witness(params: PowerCycleParams, a: int) -> PartitionWitness:
    """Explicit partition of a cycle power into a independent sets and ell(a) cliques.

    Cut the cycle into consecutive blocks of size t+a+1 (plus one remainder
    block): the first t+1 vertices of each block form a clique, and for
    j = 1..a the (t+1+j)-th vertices of the blocks form an independent set.
    Vertices are 0-indexed.  Every part is re-checked before returning.
    """
    h, t = params.h, params.t
    if not 0 <= a <= t:
        raise ParameterDomainError(f"a={a} outside 0..{t}")
    params.require_gamma_range("witness construction")
    g = params.graph()
    block = t + a + 1
    k = params.ell(a) - 1
    blocks = [list(range(i * block, (i + 1) * block)) for i in range(k)]
    blocks.append(list(range(k * block, h)))

    cliques = [tuple(b[: min(t + 1, len(b))]) for b in blocks]
    independent_sets = []
    for j in range(1, a + 1):
        members = [b[t + j] for b in blocks if len(b) >= t + 1 + j]
        independent_sets.append(tuple(members))

    witness = PartitionWitness(tuple(independent_sets), tuple(cliques))
    _validate_witness(g, witness)
    return witness


def chromatic_overshoot_witness(params: PowerCycleParams) -> PartitionWitness:
    """Partition of a cycle power into t+1 independent sets and one clique.

    Cut ceil(h/(t+1)) - 1 leading blocks of size t+1; the j-th positions
    across blocks are pairwise more than t apart, and the at most t+1
    leftover vertices are consecutive, hence a clique.  Shows one extra
    clique always absorbs the chromatic overshoot of a nondivisible length.
    """
    h, t = params.h, params.t
    params.require_gamma_range("witness construction")
    g = params.graph()
    k = -(-h // (t + 1)) - 1
    independent_sets = tuple(
        tuple(i * (t + 1) + j for i in range(k)) for j in range(t + 1)
    )
    clique = tuple(range(k * (t + 1), h))
    witness = PartitionWitness(independent_sets, (clique,) if clique else ())
    _validate_witness(g, witness)
    return witness


def _validate_witness(g: Graph, witness: PartitionWitness) -> None:
    covered = [v for part in witness.parts() for v in part]
    if sorted(covered) != list(range(g.n)):
        raise RuntimeError("partition witness does not cover every vertex exactly once")
    for part in witness.independent_sets:
        if not g.is_independent_set(part):
            raise RuntimeError(f"witness part {part} is not independent")
    for part in witness.cliques:
        if not g.is_clique(part):
            raise RuntimeError(f"witness part {part} is not a clique")
