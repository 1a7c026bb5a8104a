"""Simple graphs, powers of cycles, and exact partition oracles.

The partition search in this module (into independent sets and cliques; the
chromatic number goes through it too) is exhaustive and exact.  It is
deliberately limited to small vertex counts and refuses larger instances
instead of approximating, because downstream verification treats its
answers as ground truth.

The search states once when a part may take a vertex, for independent and
clique parts alike, and within one call it remembers failed frontiers
(nogood learning); partitionable says why that cache is exact.  On cycle
powers, whose cyclic bandwidth keeps the frontier small, it cuts the
spectra's unsatisfiable proofs by an order of magnitude.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

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
        return self.adjacency_masks[v].bit_count()

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
        return tuple(-(-self.h // (self.t + a + 1)) for a in range(self.t + 1))

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
        return self.t + -(-r // q) + 1 if r else self.t + 1

    @property
    def longest_gray_cycle(self) -> int:
        return self.h // self.t

    @property
    def divisible(self) -> bool:
        return self.h % (self.t + 1) == 0

    def graph(self) -> Graph:
        """The cycle power itself: edges between cyclic distance <= t, built
        distance by distance, so in O(h t) rather than over all pairs."""
        h = self.h
        return Graph.from_edges(
            h, [(i, (i + d) % h) for d in range(1, min(self.t, h // 2) + 1) for i in range(h)]
        )

    def require_gamma_range(self, what: str) -> None:
        """Refuse h < max(t(t+1), 4), below which the closed-form curve and
        its partition witnesses are not established."""
        bound = max(self.t * (self.t + 1), 4)
        if self.h < bound:
            raise ParameterDomainError(
                f"{what} needs h >= max(t(t+1), 4) = {bound}, got h={self.h}"
            )


def gray_window_h_min(t: int) -> int:
    """max(t(t-1), 2t+2): from this h on, ell(a) <= h // t for every a < t."""
    return max(t * (t - 1), 2 * t + 2)


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number: the least r with a partition into r independent sets."""
    return next(r for r in range(g.n + 1) if partitionable(g, r, 0))


def partitionable(g: Graph, r: int, s: int) -> bool:
    """Can V(g) be split into at most r independent sets and at most s cliques?

    Backtracking over vertices in index order, with one placement rule for
    both kinds of part: a part with member mask m takes v when m & clash == 0,
    where clash is v's neighbourhood for an independent part and its
    complement for a clique part.  Independent parts are tried first.  Parts
    of the same kind are interchangeable, so a vertex may open only the
    first still-empty part of each kind; this prunes the r!*s! relabelling
    symmetry and stays complete from any partial placement, not only from
    the root.  An empty graph is placed at once, and with no parts at all
    vertex 0 has nowhere to go.

    Failed frontiers are cached per call.  Once vertices 0..v-1 are placed,
    a later vertex meets the placed ones only inside boundary[v], the placed
    vertices with a neighbour >= v.  Whether it fits an independent part
    depends only on the part's projection onto boundary[v]; a clique part
    with a member outside boundary[v] can take no later vertex at all, and
    an open one lies wholly inside it.  So whether a placement can be
    completed is a function of two multisets, the projections of the
    independent parts and the masks of the open clique parts, empty parts
    counting as 0.  A node that fails records that key at its depth, and a
    node whose key already failed there is refused without a search.  That
    is sound because the key fixes the whole subtree below the node, so no
    answer depends on the cache, only the work does.  The key is formed
    just before a node's first child; a node with no child fails faster by
    its own loop and is not recorded.  Where boundary[v] is every placed
    vertex the key is the whole partial partition, which the search meets
    once, so such depths keep no cache.  On cycle powers, whose cyclic
    bandwidth t keeps boundary[v] within 2t vertices, unsatisfiable proofs
    shrink to a walk over few distinct frontiers.
    """
    if r < 0 or s < 0:
        raise ParameterDomainError(f"part counts must be nonnegative, got r={r}, s={s}")
    if g.n > EXACT_SEARCH_BOUND:
        raise SizeExceededError(
            f"partitionable: {g.n} vertices exceeds exact-search bound {EXACT_SEARCH_BOUND}"
        )
    n = g.n
    r, s = min(r, n), min(s, n)  # parts beyond n stay empty
    adj = g.adjacency_masks
    ind_masks = [0] * r
    clq_masks = [0] * s
    boundary = [0] * n
    later = 0  # neighbours of the vertices >= v
    for v in range(n - 1, -1, -1):
        later |= adj[v]
        boundary[v] = later & ((1 << v) - 1)
    failed = [None if boundary[v] == (1 << v) - 1 else set() for v in range(n)]
    clique_bit = 1 << n
    width = n + 1

    def frontier(v: int) -> int:
        """The key at depth v, packed in one int: a leading 1, then the
        sorted fields in (n+1)-bit slots.  Clique masks carry bit n, which
        no projection has, so the int determines both multisets."""
        b = boundary[v]
        fields = [m & b for m in ind_masks]
        fields += [m | clique_bit for m in clq_masks if m & b == m]
        fields.sort()
        key = 1
        for x in fields:
            key = key << width | x
        return key

    def place(v: int) -> bool:
        if v == n:
            return True
        seen = failed[v]
        key = None
        for masks, clash in ((ind_masks, adj[v]), (clq_masks, ~adj[v])):
            opened = False
            for i, m in enumerate(masks):
                if m == 0:
                    if opened:
                        break
                    opened = True
                if m & clash == 0:
                    if key is None and seen is not None:
                        key = frontier(v)
                        if key in seen:
                            return False
                    masks[i] = m | 1 << v
                    if place(v + 1):
                        return True
                    masks[i] = m
        if key is not None:
            seen.add(key)
        return False

    return place(0)

