"""Deciding whether a graph maps into a colored regularity graph.

A map phi from V(H) to V(K) is an embedding when every edge of H lands on a
black or gray pair (or on a single black vertex) and every non-edge lands on
a white or gray pair (or on a single white vertex).  Both edges and
non-edges constrain the map, so every pair of H-vertices filters the search.

The search assigns H-vertices one at a time in a connectivity-friendly order
and keeps, for each unassigned vertex, a bitmask domain of still-feasible
images.  Assigning a vertex intersects every later domain with the row of a
precomputed pair-feasibility table; an emptied domain prunes immediately.
A later vertex with no placed H-neighbour has met only non-edge rows, so all
such untouched vertices share one domain, the AND of the non-edge rows of
the placed images.  The search keeps that shared domain once and a domain
of its own only for each touched vertex, so a node filters the frontier of
touched vertices, not every later one.

The first vertex in the search order may take only the least vertex of
each orbit of Aut(K), the color-preserving permutations of K; every later
vertex is free as before.  The twin-class rule cannot see the dihedral
symmetry of a gray k-cycle: for k >= 4 no two of its black vertices are
twins, so without this rule every refutation would be repeated once for
each rotation of the root image.  The witness returned stays the same (see
find_embedding).

Each call also caches the search states that failed.  Once a vertex has no
H-neighbour left to place it is dead: it filters every later domain by the
same non-edge row of its image, so only the set of dead images matters, not
which vertex carries which.  The vertices still awaiting a neighbour are
live, and their images count one by one.  The images in use and the twin
classes' next fresh vertices follow from those two, so the pair (live
images in order, set of dead images) fixes everything below the node.  A
node whose pair already failed at its depth is refused without a search.
That is why refuting a cycle power, whose vertices die soon after their last
band neighbour is placed, walks over few distinct states.

The tables the search only reads are built once per graph and once per CRG,
not once per call.  Per graph: the search order, each depth's domain steps,
and the live and dying positions with the depths that keep a failed-state
cache.  Per CRG: the feasibility masks, the twin classes' fill order and the
root images of the Aut(K) orbits.  Each is a function of the graph's or the
CRG's value alone, so a cache keyed by that value is exact: equal inputs
get equal tables, whatever object carries them.  The tables are tuples, so
no call can change what the next one reads.  The failed states depend on
both the graph and the CRG, so they stay per call.  The cases the package
checks ask about the same few graphs and CRGs again and again: one round of
the `embed` workload in bench/ makes 306 calls on 24 distinct graphs and 39
distinct CRGs.

The relation is NP-hard in general, so calls carry an explicit time budget
and raise instead of guessing when it runs out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cache

from .crg import BLACK, GRAY, WHITE, Crg, k_a_g, k_rs
from .errors import EmbedTimeoutError, ParameterDomainError, SizeExceededError
from .graphs import Graph, PowerCycleParams, gray_window_h_min

EMBED_GRAPH_BOUND = 40
EMBED_CRG_BOUND = 14
DEFAULT_TIMEOUT = 10.0
_TIME_CHECK_MASK = 0x3FF


def verify_embedding(H: Graph, K: Crg, phi) -> bool:
    """Check the embedding conditions on every pair of H-vertices, independent
    of any search.

    color[u][w] is the color of the pair uw of K and color[u][u] that of the
    vertex u.  A pair of H-vertices fails when it is an edge whose images
    meet in white or a non-edge whose images meet in black, whether the two
    images differ or coincide.
    """
    if len(phi) != H.n or any(not 0 <= u < K.n for u in phi):
        return False
    color = [[c] * K.n for c in K.vertex_colors]
    for u, w, c in K.pairs():
        color[u][w] = color[w][u] = c
    for i, mask in enumerate(H.adjacency_masks):
        row = color[phi[i]]
        for j in range(i + 1, H.n):
            if row[phi[j]] == (WHITE if mask >> j & 1 else BLACK):
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


def _interchangeable_classes(edge_ok: list[int], non_ok: list[int]) -> list[list[int]]:
    """Partition V(K) into twin classes, each in vertex order, from K's
    feasibility masks.

    Twins share a vertex color and the edge color toward every third vertex.
    Twinship is an equivalence relation and forces one edge color inside a
    class, so any permutation of a class is a CRG automorphism, and the
    search may insist that class members enter the image in class order.
    All-gray CRGs collapse to at most two classes.  The feasibility masks
    carry every color: the diagonal bit of edge_ok marks a black vertex, and
    edge_ok and non_ok together tell a black, gray and white pair apart.
    """

    def twins(u: int, v: int) -> bool:
        third = ~(1 << u | 1 << v)
        return edge_ok[u] >> u & 1 == edge_ok[v] >> v & 1 and not (
            (edge_ok[u] ^ edge_ok[v]) | (non_ok[u] ^ non_ok[v])
        ) & third

    classes: list[list[int]] = []
    for v in range(len(edge_ok)):
        home = next((members for members in classes if twins(members[0], v)), None)
        if home is None:
            classes.append([v])
        else:
            home.append(v)
    return classes


def _automorphism_orbits(
    edge_ok: list[int], non_ok: list[int], classes: list[list[int]]
) -> list[list[int]]:
    """Partition V(K) into the orbits of Aut(K), each in vertex order, from
    K's feasibility masks and twin classes.

    An automorphism keeps every vertex and edge color, so it is a
    permutation sigma that keeps both feasibility relations: w is in
    edge_ok[u] exactly when sigma(w) is in edge_ok[sigma(u)], and likewise
    for non_ok, whose diagonal bits carry the vertex colors.  Twin classes
    are orbits to begin with.  Then each vertex v that is still the least of
    its orbit is tried against every smaller orbit's least vertex r of the
    same color signature: a forward-checking search looks for an
    automorphism sending r to v.  One it finds is checked pair by pair, the
    diagonal included, against both relations, and each of its cycles joins
    one orbit.  So every union is backed by a checked automorphism, and the
    result is exact: if some automorphism sent r to v, the search finds one.
    """
    n = len(edge_ok)
    least = list(range(n))  # least[u]: the least vertex of u's orbit so far
    for members in classes:
        for u in members:
            least[u] = members[0]
    signature = [
        (row >> u & 1, row.bit_count(), non_ok[u].bit_count()) for u, row in enumerate(edge_ok)
    ]
    groups: dict[tuple[int, int, int], int] = {}
    for u, key in enumerate(signature):
        groups[key] = groups.get(key, 0) | 1 << u
    alike = [groups[key] for key in signature]

    def sending(r: int, v: int) -> list[int] | None:
        # Twin-class members are interchangeable as images too, so each class
        # other than v fills in class order, as in find_embedding.
        successor, fresh = {}, 1 << v
        for members in classes:
            rest = [u for u in members if u != v]
            if rest:
                fresh |= 1 << rest[0]
                successor.update(zip(rest, rest[1:]))
        order = [r] + [x for x in range(n) if x != r]
        image = [0] * n

        def extend(i: int, domains: list[int], fresh: int) -> bool:
            x = order[i]
            candidates = domains[x] & fresh
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                y = low.bit_length() - 1
                image[x] = y
                if i + 1 == n:
                    return True
                erow, nrow = edge_ok[y], non_ok[y]
                new_domains = domains[:]
                for x2 in order[i + 1 :]:
                    domain = new_domains[x2] & (erow if edge_ok[x] >> x2 & 1 else ~erow)
                    domain &= nrow if non_ok[x] >> x2 & 1 else ~nrow
                    if not domain:
                        break
                    new_domains[x2] = domain
                else:
                    nxt = successor.get(y)
                    new_fresh = fresh ^ low
                    if nxt is not None:
                        new_fresh |= 1 << nxt
                    if extend(i + 1, new_domains, new_fresh):
                        return True
            return False

        domains = alike[:]
        domains[r] = 1 << v
        return image if extend(0, domains, fresh) else None

    for v in range(n):
        for r in range(v):
            if least[v] != v:
                break
            if least[r] != r or not alike[r] >> v & 1:
                continue
            sigma = sending(r, v)
            if sigma is None:
                continue
            if sorted(sigma) != list(range(n)) or any(
                row[sigma[u]] >> sigma[w] & 1 != row[u] >> w & 1
                for row in (edge_ok, non_ok)
                for u in range(n)
                for w in range(u, n)
            ):
                raise RuntimeError("automorphism search produced a map that fails its check")
            for u in range(n):
                a, b = least[u], least[sigma[u]]
                if a != b:
                    keep, drop = min(a, b), max(a, b)
                    least = [keep if w == drop else w for w in least]
    orbits: dict[int, list[int]] = {}
    for u in range(n):
        orbits.setdefault(least[u], []).append(u)
    return list(orbits.values())


def _search_order(H: Graph) -> list[int]:
    """Order vertices so each newcomer touches as many placed vertices as possible."""
    if H.n == 0:
        return []
    adj = H.adjacency_masks
    degrees = [m.bit_count() for m in adj]
    order = [max(range(H.n), key=lambda v: (degrees[v], -v))]
    placed = 1 << order[0]
    remaining = set(range(H.n)) - {order[0]}
    while remaining:
        v = max(
            remaining,
            key=lambda u: ((adj[u] & placed).bit_count(), degrees[u], -u),
        )
        order.append(v)
        placed |= 1 << v
        remaining.remove(v)
    return order


@cache
def _graph_plan(H: Graph) -> tuple:
    """The search's tables that depend on H alone, as nested tuples.

    Returns (order, plan, own, live, dies, keeps), indexed by depth, that is
    by position in the search order.  Cached by value: the tables are a
    function of H's vertex count and edge set, so equal graphs share them,
    and tuples keep any call from changing what the next one reads.
    """
    order = _search_order(H)
    n = H.n
    adj = H.adjacency_masks
    # adjacency between order positions: adjacent_positions[d2][d] is order[d2] ~ order[d]
    adjacent_positions = [
        [bool(adj[order[d2]] >> order[d] & 1) for d in range(n)] for d2 in range(n)
    ]

    # first[d] and last[d] are the first and last positions adjacent to
    # position d, or d itself.
    first = list(range(n))
    last = list(range(n))
    for d2 in range(n):
        for d in range(d2):
            if adjacent_positions[d2][d]:
                first[d2] = min(first[d2], d)
                last[d] = d2

    # Shared domain.  Position d >= D is touched at depth D once first[d] < D.
    # A node at depth D holds the domains of touched[D] in that order, then
    # the shared domain while some position >= D is untouched; own[D] indexes
    # position D's domain.  plan[D] builds the child's list: for each entry,
    # the index of its domain in the parent's list (-1, the shared domain, for
    # a position that D touches first) and whether it is adjacent to D; a
    # last (-1, False) carries the shared domain on.
    touched = [[d for d in range(depth, n) if first[d] < depth] for depth in range(n + 1)]
    own = tuple(
        touched[depth].index(depth) if depth in touched[depth] else -1 for depth in range(n)
    )
    plan = []
    for depth in range(n):
        parent = touched[depth]
        steps = [
            (parent.index(d) if d in parent else -1, adjacent_positions[d][depth])
            for d in touched[depth + 1]
        ]
        if len(touched[depth + 1]) < n - depth - 1:
            steps.append((-1, False))
        plan.append(tuple(steps))

    # Failed-state cache.  Position d is live at depth D > d while
    # last[d] >= D and dead after.  live[D] lists the live positions at depth
    # D and dies[D] those that turn dead on reaching it; keeps[D] says whether
    # depth D has a dead position, and so keeps a cache.
    live = tuple(tuple(d for d in range(depth) if last[d] >= depth) for depth in range(n))
    dies = [[] for _ in range(n + 1)]
    for d in range(n):
        dies[last[d] + 1].append(d)
    keeps = tuple(len(live[depth]) < depth for depth in range(n))
    return tuple(order), tuple(plan), own, live, tuple(map(tuple, dies)), keeps


@cache
def _crg_plan(K: Crg) -> tuple:
    """The search's tables that depend on K alone, as tuples and ints.

    Returns (edge_ok, non_ok, successor, first_fresh, root_images): the
    feasibility masks; successor[u], the bit of the member after u in its
    twin class, or 0 for the last; the mask of each class's first member;
    and the mask of each Aut(K) orbit's least vertex.  Cached by value, like
    _graph_plan: the tables are a function of K's colors alone, and the
    automorphism search with its self-check runs once per distinct K.
    """
    edge_ok, non_ok = _feasibility_masks(K)
    # Interchangeable-class rule: the image of a fresh (so far unused) vertex
    # may only be the first unused vertex of its class.  Every embedding has
    # a class-permuted twin obeying this, so completeness is preserved while
    # the r!s!-style relabelling blowup of gray-heavy CRGs disappears.
    classes = _interchangeable_classes(edge_ok, non_ok)
    successor = [0] * K.n
    first_fresh = 0
    for members in classes:
        first_fresh |= 1 << members[0]
        for v, nxt in zip(members, members[1:]):
            successor[v] = 1 << nxt
    # Root-orbit rule (see find_embedding): it restricts depth 0 alone, so
    # this mask must not enter the shared domain, which seeds every
    # untouched position.
    root_images = sum(1 << orbit[0] for orbit in _automorphism_orbits(edge_ok, non_ok, classes))
    return tuple(edge_ok), tuple(non_ok), tuple(successor), first_fresh, root_images


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
    timeout is None (no deadline) or a positive number of seconds; the
    timeout error reports the nodes searched and how many the failed-state
    cache refused.

    The tables that depend on H alone come from _graph_plan(H), and those
    that depend on K alone from _crg_plan(K).  Both are cached by value and
    built before the deadline starts.  The failed-state sets, the
    assignment, the counters and the deadline belong to the call.

    Domains are kept only for touched positions, those with a placed
    H-neighbour.  Every untouched later position has met only non-edge rows,
    so its domain is the AND of non_ok over the placed images, which the
    search keeps once as the shared domain.  A position newly touched by
    the image u of depth D starts from the shared domain ANDed with
    edge_ok[u].  A node prunes when a touched domain empties, or when the
    shared domain empties while some later position is still untouched:
    the same test as filtering every later domain, over a frontier of at
    most about 2t positions on a cycle power instead of all of them.

    Failed states are cached per call and dropped when it returns.  At depth
    D of the search order, a placed position is live if some position >= D
    is its H-neighbour, and dead otherwise.  The rest of the search reads
    the placed images only through the later domains, used and fresh.  A
    dead image u enters every later domain as non_ok[u], so the dead images
    count as a set; used is the union of all images, and fresh follows from
    used because the twin-class rule fills each class in order.  So the
    tuple of live images and the set of dead images fix the whole subtree,
    and a state that failed once fails again: refusing it changes the work,
    never the answer or the witness.  The key packs both into one int, the
    dead-image mask followed by K.n.bit_length() bits per live image; the
    live positions are fixed by D, so the int determines the pair.  A node
    forms its key just before its first child, so a node with no child is
    neither keyed nor recorded.  Depths with no dead position keep no
    cache, since there the key is the whole prefix, which the search meets
    once.

    Root-orbit rule.  Depth 0 may take only the least vertex of each orbit
    of Aut(K), from _automorphism_orbits; no deeper position is restricted,
    and the mask stays out of the shared domain, which also seeds every
    untouched position.  The search without the rule returns the first
    twin-canonical embedding phi* in candidate order, and its root image is
    already such a least vertex.  Were the least vertex w of its orbit
    smaller, an automorphism sigma would send phi*'s root image to w, and
    sigma o phi* would be an embedding.  Making it twin-canonical keeps w,
    the first member of its twin class, since twin classes lie inside
    orbits; so a twin-canonical embedding would come before phi*, which is
    absurd.  Hence the same witness, or None, is returned.  The cache stays
    exact, since depth 0 keeps none and every subtree below a root image
    is searched as before.  The timeout error also reports how many images
    the first vertex may take.
    """
    if timeout is not None and not timeout > 0:  # also refuses nan
        raise ParameterDomainError(f"timeout={timeout} must be None or positive")
    if H.n > EMBED_GRAPH_BOUND:
        raise SizeExceededError(f"graph has {H.n} > {EMBED_GRAPH_BOUND} vertices")
    if K.n > EMBED_CRG_BOUND:
        raise SizeExceededError(f"CRG has {K.n} > {EMBED_CRG_BOUND} vertices")
    if H.n == 0:
        return ()

    order, plan, own, live, dies, keeps = _graph_plan(H)
    edge_ok, non_ok, successor, first_fresh, root_images = _crg_plan(K)
    n = H.n
    failed = [set() if keep else None for keep in keeps]
    width = K.n.bit_length()

    assignment = [0] * n
    deadline = None if timeout is None else time.monotonic() + timeout
    nodes = 0
    refused = 0

    def extend(depth: int, domains: list[int], used: int, fresh: int, dead: int) -> bool:
        nonlocal nodes, refused
        seen = failed[depth]
        steps = plan[depth]
        key = None
        candidates = domains[own[depth]] & (used | fresh)
        if not depth:
            candidates &= root_images
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            u = low.bit_length() - 1
            nodes += 1
            if deadline is not None and nodes & _TIME_CHECK_MASK == 0:
                if time.monotonic() > deadline:
                    raise EmbedTimeoutError(
                        f"embedding search exceeded {timeout} s after {nodes} nodes, "
                        f"{refused} refused by the failed-state cache, "
                        f"{root_images.bit_count()} of {K.n} images open to the first vertex "
                        f"({H.n}-vertex graph into {K.n}-vertex CRG)"
                    )
            assignment[depth] = u
            if depth + 1 == n:
                return True
            if low & fresh:
                new_used = used | low
                new_fresh = fresh ^ low | successor[u]
            else:
                new_used, new_fresh = used, fresh
            erow = edge_ok[u]
            nrow = non_ok[u]
            new_domains = []
            for src, adjacent in steps:
                domain = domains[src] & (erow if adjacent else nrow)
                if not domain:
                    break
                new_domains.append(domain)
            if len(new_domains) < len(steps):
                continue
            if key is None and seen is not None:
                key = dead
                for d in live[depth]:
                    key = key << width | assignment[d]
                if key in seen:
                    refused += 1
                    return False
            new_dead = dead
            for d in dies[depth + 1]:
                new_dead |= 1 << assignment[d]
            if extend(depth + 1, new_domains, new_used, new_fresh, new_dead):
                return True
        if key is not None:
            seen.add(key)
        return False

    if extend(0, [(1 << K.n) - 1], 0, first_fresh, 0):
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
    """K(a, C_k): a white vertices beside a black gray k-cycle.

    All edges touching a white vertex are gray; the black vertices carry a
    gray cycle of the given length (a length-2 cycle means a single gray
    edge) and white edges elsewhere.
    """
    if cycle_length < 2:
        raise ParameterDomainError("gray cycle length must be at least 2")
    k = cycle_length
    return k_a_g(white_count, Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)]))


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
    h_min = gray_window_h_min(t)
    if h < h_min:
        raise ParameterDomainError(f"need h >= max(t^2 - t, 2t + 2) = {h_min}, got {h}")
    H = params.graph()
    lo, hi = params.ell(a), params.longest_gray_cycle
    report = GrayCycleReport(h, t, a)
    for k in range(lo, hi + 1):
        report.required[k] = embeds(H, gray_cycle_crg(a, k), timeout=timeout)
    for k in (lo - 1, hi + 1):
        if k >= 2 and a + k <= EMBED_CRG_BOUND:
            report.boundary[k] = embeds(H, gray_cycle_crg(a, k), timeout=timeout)
    return report
