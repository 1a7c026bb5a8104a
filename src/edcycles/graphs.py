"""Simple graphs, powers of cycles, and exact partition oracles.

The partition search in this module (into independent sets and cliques; the
chromatic number goes through it too) is exhaustive and exact.  It is
deliberately limited to small vertex counts and refuses larger instances
instead of approximating, because downstream verification treats its
answers as ground truth.

The search keeps each part as its allowed set, the vertices it may still
take, and nothing else: a part is empty while its allowed set is full, so
that set alone says which part a vertex may open next.  Two prunes read
that state.  A node fails at once when the parts cannot hold the unplaced
vertices (a capacity bound): a part takes at most the independence number,
or the clique number, of its allowed set.  Within one call the search
remembers the failed multisets of allowed sets (nogood learning);
find_partition says why both are exact.  On a cycle power, whose edges
join only vertices within cyclic distance t, few distinct states recur, and
the cache cuts the spectra's unsatisfiable proofs by an order of magnitude.
The capacity bound is the counting rule behind ell(a), that an independent
set of C_h^t has at most floor(h / (t+1)) vertices and a clique at most
t+1, applied at every node; it cuts the spectra's search time by more than
half again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

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

    branches is every branch of the closed-form curve gamma as (labels,
    pairs), in tie-breaking order.  The branch through (a, c) is
    1/(a/p + c/(1-p)), the g-function of the all-gray CRG K(a, c).  Branch
    "a=..." is the curve through the spectrum pair (a, ell(a)-1); the
    "chromatic" branch through (t+1, 0) exists only when t+1 does not divide
    h.  The order matches the lexicographic order of those pairs.  Every
    evaluation of the curve reads the table, so it, like p0, is built once
    per instance.
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

    @cached_property
    def p0(self) -> Fraction:
        return Fraction(1, self.ells[self.t])

    @cached_property
    def branches(self) -> tuple[tuple[str, ...], tuple[tuple[int, int], ...]]:
        self.require_gamma_range("closed-form gamma")
        labels = tuple(f"a={a}" for a in range(self.t + 1))
        pairs = tuple((a, ell - 1) for a, ell in enumerate(self.ells))
        if self.divisible:
            return labels, pairs
        return (*labels, "chromatic"), (*pairs, (self.t + 1, 0))

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
    """Can V(g) be split into at most r independent sets and at most s cliques?"""
    return find_partition(g, r, s) is not None


def largest_set(mask: int, keep: Sequence[int], memo: dict[int, int]) -> int:
    """The size of the largest subset of mask whose members are pairwise
    compatible, where keep[u] is the set of vertices compatible with u.

    With keep[u] the complement of u's neighbourhood this is the
    independence number of the subgraph that mask induces, and with
    keep[u] the neighbourhood it is the clique number.  Exact: drop the
    lowest vertex u, or take it and keep only mask's vertices compatible
    with u.  memo maps masks to answers and must hold 0: 0.
    """
    found = memo.get(mask)
    if found is None:
        rest = mask & (mask - 1)
        u = (mask & -mask).bit_length() - 1
        found = max(largest_set(rest, keep, memo), 1 + largest_set(rest & keep[u], keep, memo))
        memo[mask] = found
    return found


def find_partition(g: Graph, r: int, s: int) -> tuple[int, int] | None:
    """The numbers of independent sets and of cliques in the first partition
    of V(g) into at most r independent sets and at most s cliques that the
    search finds, or None when there is none.

    Backtracking over vertices in index order.  Each part is kept as its
    allowed set, the bitmask of the vertices it may still take, and the
    allowed sets are the search's whole state; every part starts full.  A
    part takes v iff bit v of its allowed set is set.  An independent part
    that takes v ANDs in the complement of v's neighbourhood and of v
    itself, a clique part ANDs in the neighbourhood, so a part's allowed set
    is full exactly while the part is empty.  Independent parts are tried
    first.  Parts of the same kind are interchangeable, so v tries the parts
    of each kind in index order and stops after the first empty one: parts
    open in index order, and a leaf returns the numbers of parts of each
    kind whose allowed set is no longer full.  The rule stays complete from
    any node, not only from the root: the empty parts of a kind all have the
    full allowed set, so in any completion they can be relabelled to open in
    index order.  An empty graph is placed at once, and with no parts at all
    vertex 0 has nowhere to go.

    Once vertices 0..v-1 are placed, whether a part can take a set S of
    later vertices depends only on its allowed set: S must lie in it and be
    independent, or a clique, by its kind.  So whether a node can be
    completed is a function of the multiset of its parts' kinds and allowed
    sets above v, and two prunes read that state alone.  The capacity bound
    gives each independent part the independence number of its allowed set
    above v and each clique part the clique number (largest_set, memoised
    per call), counting the parts not yet opened with the full set, and
    fails the node when the capacities sum to less than n - v.  It is sound:
    in any completion each vertex >= v joins one part, and a part's new
    members lie in its allowed set above v and are independent, or a
    clique, so no part takes more than its capacity.  A vertex >= v that
    lies in no allowed set needs no check of its own: allowed sets only
    shrink, so the search fails at that vertex's depth at the latest.
    Failed states are cached per call, one set per depth.  The key at depth
    v is the sorted tuple of the allowed sets shifted right by v, each
    clique part's marked by bit n - v; r and s are fixed within the call,
    so the tuple determines the multiset.  A node whose key already failed
    at its depth is refused without a search.  That is sound because the
    key fixes the whole subtree below the node.  The capacity bound reads
    nothing but the key's allowed sets, so it refuses a key at every node
    or at none, and the cache stays exact beside it.  Both prunes cut only
    subtrees without a completion, so the first partition found, and its
    counts, are the plain search's; only the work differs.  Keyed by
    allowed sets, the cache joins states with different members but the
    same reach: on C_h^3, a clique part {v-3, v-2} and a clique part {v-3}
    may both take v alone.
    """
    if r < 0 or s < 0:
        raise ParameterDomainError(f"part counts must be nonnegative, got r={r}, s={s}")
    if g.n > EXACT_SEARCH_BOUND:
        raise SizeExceededError(
            f"find_partition: {g.n} vertices exceeds exact-search bound {EXACT_SEARCH_BOUND}"
        )
    n = g.n
    full = (1 << n) - 1
    adj = g.adjacency_masks
    ind = [full] * min(r, n)  # parts beyond n stay empty
    clq = [full] * min(s, n)
    non_adj = [full & ~(row | 1 << v) for v, row in enumerate(adj)]
    kinds = ((ind, non_adj, {0: 0}), (clq, adj, {0: 0}))
    failed = [set() for _ in range(n)]

    def place(v: int) -> tuple[int, int] | None:
        """Place v.. into the parts, or None when their allowed sets cannot."""
        if v == n:
            return sum(m != full for m in ind), sum(m != full for m in clq)
        high = full >> v << v
        need = n - v  # capacity bound
        for parts, take, memo in kinds:
            for m in parts:
                need -= largest_set(m & high, take, memo)
        if need > 0:
            return None
        marker = 1 << (n - v)
        fields = [m >> v for m in ind]
        fields += [m >> v | marker for m in clq]
        fields.sort()
        key = tuple(fields)
        seen = failed[v]
        if key in seen:
            return None
        bit = 1 << v
        for parts, take, _ in kinds:
            for i, m in enumerate(parts):
                if m & bit:
                    parts[i] = m & take[v]
                    found = place(v + 1)
                    parts[i] = m
                    if found is not None:
                        return found
                if m == full:  # the first empty part of its kind
                    break
        seen.add(key)
        return None

    return place(0)
