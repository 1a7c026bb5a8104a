"""Deciding whether a graph maps into a colored regularity graph.

A map phi from V(H) to V(K) is an embedding when every edge of H lands on a
black or gray pair (or on a single black vertex) and every non-edge lands on
a white or gray pair (or on a single white vertex).  Both edges and
non-edges constrain the map, so every pair of H-vertices filters the search.

The search assigns H-vertices one at a time in a connectivity-friendly order
and keeps, for each unassigned vertex, a bitmask domain of still-feasible
images.  Assigning a vertex intersects every later domain with the row of a
precomputed pair-feasibility table; an emptied domain prunes immediately.
The relation is NP-hard in general, so calls carry an explicit time budget
and raise instead of guessing when it runs out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .crg import BLACK, GRAY, WHITE, Crg, crg_from_pairs, k_rs
from .errors import EmbedTimeoutError, ParameterDomainError, SizeExceededError
from .graphs import Graph, PowerCycleParams

EMBED_GRAPH_BOUND = 40
EMBED_CRG_BOUND = 14
DEFAULT_TIMEOUT = 10.0
_TIME_CHECK_MASK = 0x3FF


def verify_embedding(H: Graph, K: Crg, phi) -> bool:
    """Check the embedding conditions pair by pair, independent of any search."""
    if len(phi) != H.n or any(not 0 <= u < K.n for u in phi):
        return False
    for i in range(H.n):
        for j in range(i + 1, H.n):
            u, w = phi[i], phi[j]
            if H.adjacent(i, j):
                if u == w:
                    if K.vertex_colors[u] != BLACK:
                        return False
                elif K.edge_color(u, w) == WHITE:
                    return False
            else:
                if u == w:
                    if K.vertex_colors[u] != WHITE:
                        return False
                elif K.edge_color(u, w) == BLACK:
                    return False
    return True


def _feasibility_masks(K: Crg) -> tuple[list[int], list[int]]:
    """For each image u: bitmask of images w compatible with an H-edge / non-edge."""
    n = K.n
    edge_ok = [0] * n
    non_ok = [0] * n
    for u in range(n):
        if K.vertex_colors[u] == BLACK:
            edge_ok[u] |= 1 << u
        else:
            non_ok[u] |= 1 << u
    for i, j, color in K.pairs():
        if color in (BLACK, GRAY):
            edge_ok[i] |= 1 << j
            edge_ok[j] |= 1 << i
        if color in (WHITE, GRAY):
            non_ok[i] |= 1 << j
            non_ok[j] |= 1 << i
    return edge_ok, non_ok


def _interchangeable_classes(K: Crg) -> list[list[int]]:
    """Partition V(K) into twin classes, each in vertex order.

    Twins share a vertex color and the edge color toward every third vertex.
    Twinship is an equivalence relation and forces one edge color inside a
    class, so any permutation of a class is a CRG automorphism, and the
    search may insist that class members enter the image in class order.
    All-gray CRGs collapse to at most two classes.
    """

    def twins(u: int, v: int) -> bool:
        return K.vertex_colors[u] == K.vertex_colors[v] and all(
            K.edge_color(u, w) == K.edge_color(v, w) for w in range(K.n) if w not in (u, v)
        )

    classes: list[list[int]] = []
    for v in range(K.n):
        home = next((members for members in classes if twins(members[0], v)), None)
        if home is None:
            classes.append([v])
        else:
            home.append(v)
    return classes


def _search_order(H: Graph) -> list[int]:
    """Order vertices so each newcomer touches as many placed vertices as possible."""
    if H.n == 0:
        return []
    adj = H.adjacency_masks
    degrees = [bin(m).count("1") for m in adj]
    order = [max(range(H.n), key=lambda v: (degrees[v], -v))]
    placed = 1 << order[0]
    remaining = set(range(H.n)) - {order[0]}
    while remaining:
        v = max(
            remaining,
            key=lambda u: (bin(adj[u] & placed).count("1"), degrees[u], -u),
        )
        order.append(v)
        placed |= 1 << v
        remaining.remove(v)
    return order


def find_embedding(
    H: Graph,
    K: Crg,
    *,
    timeout: float | None = DEFAULT_TIMEOUT,
) -> tuple[int, ...] | None:
    """Backtracking search for an embedding; the witness or None.

    H may have at most EMBED_GRAPH_BOUND vertices and K at most
    EMBED_CRG_BOUND.  Any witness is re-verified against the pairwise
    conditions before being returned, so a true answer is self-certifying.
    """
    if H.n > EMBED_GRAPH_BOUND:
        raise SizeExceededError(f"graph has {H.n} > {EMBED_GRAPH_BOUND} vertices")
    if K.n > EMBED_CRG_BOUND:
        raise SizeExceededError(f"CRG has {K.n} > {EMBED_CRG_BOUND} vertices")
    if H.n == 0:
        return ()

    edge_ok, non_ok = _feasibility_masks(K)
    order = _search_order(H)
    n = H.n
    adj = H.adjacency_masks
    # adjacency between order positions: bit d of later[d2] says order[d2]~order[d]
    adjacent_positions = [
        [bool(adj[order[d2]] >> order[d] & 1) for d in range(n)] for d2 in range(n)
    ]
    full = (1 << K.n) - 1

    # Interchangeable-class rule: the image of a fresh (so far unused) vertex
    # may only be the first unused vertex of its class.  Every embedding has
    # a class-permuted twin obeying this, so completeness is preserved while
    # the r!s!-style relabelling blowup of gray-heavy CRGs disappears.
    classes = _interchangeable_classes(K)
    successor = {}
    first_fresh_mask = 0
    for members in classes:
        first_fresh_mask |= 1 << members[0]
        for pos, v in enumerate(members[:-1]):
            successor[v] = members[pos + 1]

    assignment = [0] * n
    deadline = None if timeout is None else time.monotonic() + timeout
    nodes = 0

    def extend(depth: int, domains: list[int], used: int, fresh: int) -> bool:
        nonlocal nodes
        candidates = domains[depth] & (used | fresh)
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            u = low.bit_length() - 1
            nodes += 1
            if deadline is not None and nodes & _TIME_CHECK_MASK == 0:
                if time.monotonic() > deadline:
                    raise EmbedTimeoutError(
                        f"embedding search exceeded {timeout} s "
                        f"({H.n}-vertex graph into {K.n}-vertex CRG)"
                    )
            assignment[depth] = u
            if depth + 1 == n:
                return True
            if low & fresh:
                new_used = used | low
                new_fresh = fresh ^ low
                nxt = successor.get(u)
                if nxt is not None:
                    new_fresh |= 1 << nxt
            else:
                new_used, new_fresh = used, fresh
            new_domains = domains.copy()
            ok = True
            erow = edge_ok[u]
            nrow = non_ok[u]
            is_adj = adjacent_positions
            for d in range(depth + 1, n):
                filtered = new_domains[d] & (erow if is_adj[d][depth] else nrow)
                if not filtered:
                    ok = False
                    break
                new_domains[d] = filtered
            if ok and extend(depth + 1, new_domains, new_used, new_fresh):
                return True
        return False

    if extend(0, [full] * n, 0, first_fresh_mask):
        phi = [0] * n
        for d, v in enumerate(order):
            phi[v] = assignment[d]
        phi = tuple(phi)
        if not verify_embedding(H, K, phi):
            raise RuntimeError("search produced a witness that fails re-verification")
        return phi
    return None


def embeds(H: Graph, K: Crg, *, timeout: float | None = DEFAULT_TIMEOUT) -> bool:
    return find_embedding(H, K, timeout=timeout) is not None


def gray_cycle_crg(white_count: int, cycle_length: int) -> Crg:
    """CRG made of isolated-looking white vertices and a black gray cycle.

    All edges touching a white vertex are gray; the black vertices carry a
    gray cycle of the given length (a length-2 cycle means a single gray
    edge) and white edges elsewhere.
    """
    if white_count < 0:
        raise ParameterDomainError("white_count must be nonnegative")
    if cycle_length < 2:
        raise ParameterDomainError("gray cycle length must be at least 2")
    a, k = white_count, cycle_length
    colors = (WHITE,) * a + (BLACK,) * k
    pairs = []
    for i in range(k):
        for j in range(i + 1, k):
            consecutive = j - i == 1 or (i == 0 and j == k - 1)
            pairs.append((a + i, a + j, GRAY if consecutive else WHITE))
    return crg_from_pairs(colors, pairs)


@dataclass
class GrayCycleReport:
    """Embedding verdicts around the forbidden gray-cycle length window.

    For every cycle length in [ell(a), floor(h/t)] the constructed CRG must
    admit the cycle power, which is what forbids such gray cycles in any
    avoiding CRG with a white vertices.  Verdicts just outside the window are
    recorded for context but carry no requirement, so a length whose CRG
    would exceed EMBED_CRG_BOUND vertices is left out of them.
    """

    h: int
    t: int
    white_count: int
    required: dict[int, bool] = field(default_factory=dict)
    boundary: dict[int, bool] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.required.values())

    def to_json(self) -> dict:
        return {
            "h": self.h,
            "t": self.t,
            "white_count": self.white_count,
            "required": {str(k): v for k, v in sorted(self.required.items())},
            "boundary": {str(k): v for k, v in sorted(self.boundary.items())},
            "ok": self.ok,
        }


def k_rs_boundary_cases(
    params: PowerCycleParams, *, timeout: float | None = DEFAULT_TIMEOUT
) -> tuple[bool, bool]:
    """Embedding verdicts for the all-gray CRGs with t white vertices and
    ell(t) or ell(t)-1 black ones; with ell(t) the cycle power fits, with one
    fewer it must not."""
    H = params.graph()
    t = params.t
    lt = params.ell(t)
    inside = embeds(H, k_rs(t, lt), timeout=timeout)
    outside = embeds(H, k_rs(t, lt - 1), timeout=timeout)
    return inside, outside


def gray_cycle_embedding_report(
    params: PowerCycleParams,
    white_count: int,
    *,
    timeout: float | None = DEFAULT_TIMEOUT,
) -> GrayCycleReport:
    """Sweep gray-cycle lengths against the embedding oracle for one (h, t, a)."""
    h, t, a = params.h, params.t, white_count
    if not 0 <= a <= t - 1:
        raise ParameterDomainError(f"white_count={a} outside 0..{t - 1}")
    if h < max(t * t - t, 2 * t + 2):
        raise ParameterDomainError(
            f"need h >= max(t^2 - t, 2t + 2) = {max(t * t - t, 2 * t + 2)}, got {h}"
        )
    H = params.graph()
    lo, hi = params.ell(a), params.longest_gray_cycle
    report = GrayCycleReport(h, t, a)
    for k in range(lo, hi + 1):
        report.required[k] = embeds(H, gray_cycle_crg(a, k), timeout=timeout)
    for k in (lo - 1, hi + 1):
        if k >= 2 and a + k <= EMBED_CRG_BOUND:
            report.boundary[k] = embeds(H, gray_cycle_crg(a, k), timeout=timeout)
    return report
