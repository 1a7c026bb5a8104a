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

Each call also caches the search states that failed.  A node's subtree is
fixed by its own arguments, its depth, its domains and its mask of open
images, so a node whose arguments already failed at its depth is refused
without a search.  That is why refuting a cycle power, whose frontier holds
at most about 2t domains, walks over few distinct states.

The tables the search only reads are built once per graph and once per CRG,
not once per call.  Per graph: the search order and each depth's domain
steps.  Per CRG: the feasibility masks, the twin classes' fill order and the
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
    edge_ok: list[int], non_ok: list[int], successor: list[int], first_fresh: int
) -> list[list[int]]:
    """Partition V(K) into the orbits of Aut(K), each in vertex order, from
    K's feasibility masks and the twin classes' fill order of _crg_plan.

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
    for u in range(n):
        if successor[u]:
            least[successor[u].bit_length() - 1] = least[u]
    signature = [
        (row >> u & 1, row.bit_count(), non_ok[u].bit_count()) for u, row in enumerate(edge_ok)
    ]
    groups: dict[tuple[int, int, int], int] = {}
    for u, key in enumerate(signature):
        groups[key] = groups.get(key, 0) | 1 << u
    alike = [groups[key] for key in signature]

    def sending(r: int, v: int) -> list[int] | None:
        # Twin-class members are interchangeable as images too, so every
        # class fills in class order, as in find_embedding.  v is the first
        # member of its class, since twins are joined above, and r takes it
        # before anything else is placed.
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
                    if extend(i + 1, new_domains, fresh ^ low | successor[y]):
                        return True
            return False

        domains = alike[:]
        domains[r] = 1 << v
        return image if extend(0, domains, first_fresh) else None

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

    Returns (order, plan, own), indexed by depth, that is by position in the
    search order.  Cached by value: the tables are a function of H's vertex
    count and edge set, so equal graphs share them, and tuples keep any call
    from changing what the next one reads.  The cache keeps every distinct
    graph for the life of the process; _graph_plan.cache_clear() releases
    them.
    """
    order = _search_order(H)
    n = H.n
    # around[d]: bit d2 set when position d2 is position d or its H-neighbour,
    # so its lowest bit is first[d], the first position adjacent to d, or d
    # itself.
    position = {v: d for d, v in enumerate(order)}
    around = [1 << d for d in range(n)]
    for i, j in H.edges:
        around[position[i]] |= 1 << position[j]
        around[position[j]] |= 1 << position[i]
    first = [(mask & -mask).bit_length() - 1 for mask in around]

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
            (parent.index(d) if d in parent else -1, bool(around[d] >> depth & 1))
            for d in touched[depth + 1]
        ]
        if len(touched[depth + 1]) < n - depth - 1:
            steps.append((-1, False))
        plan.append(tuple(steps))
    return tuple(order), tuple(plan), own


@cache
def _crg_plan(K: Crg) -> tuple:
    """The search's tables that depend on K alone, as tuples and ints.

    Returns (edge_ok, non_ok, successor, first_fresh, root_images): the
    feasibility masks; successor[u], the bit of the member after u in its
    twin class, or 0 for the last; the mask of each class's first member;
    and the mask of each Aut(K) orbit's least vertex.  Cached by value, like
    _graph_plan: the tables are a function of K's colors alone, and the
    automorphism search with its self-check runs once per distinct K.  The
    cache keeps every distinct CRG for the life of the process;
    _crg_plan.cache_clear() releases them.
    """
    edge_ok, non_ok = _feasibility_masks(K)
    # Interchangeable-class rule: each twin class fills in class order, so an
    # image is open once it is in use or is its class's next member.  Every
    # embedding has a class-permuted twin obeying this, so completeness is
    # preserved while the r!s!-style relabelling blowup of gray-heavy CRGs
    # disappears.  find_embedding and the automorphism search both read
    # this one fill order.
    successor = [0] * K.n
    first_fresh = 0
    for members in _interchangeable_classes(edge_ok, non_ok):
        first_fresh |= 1 << members[0]
        for v, nxt in zip(members, members[1:]):
            successor[v] = 1 << nxt
    # Root-orbit rule (see find_embedding): it restricts depth 0 alone, so
    # this mask must not enter the shared domain, which seeds every
    # untouched position.
    orbits = _automorphism_orbits(edge_ok, non_ok, successor, first_fresh)
    root_images = sum(1 << orbit[0] for orbit in orbits)
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

    Open images.  The twin-class rule fills each class in order, so a node
    keeps one mask, allowed: the images in use and the first member of each
    class not yet in use.  Placing u hands the child allowed | successor[u];
    for an image already in use that adds nothing, as its successor opened
    when it was first placed.

    Failed states are cached per call, one set per depth, and dropped when
    it returns.  extend's result depends only on its arguments: the tables
    it reads are fixed, the assignment is only written until a True return
    builds the witness, and the root-orbit mask applies at depth 0 alone,
    where there is one node.  So a node whose (allowed, *domains) already
    failed at its depth fails again: refusing it changes the work, never
    the answer or the witness.  The key is that tuple itself.  A node forms
    its key just before its first child, so a node with no child is neither
    keyed nor recorded.

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
    exact, since depth 0 has one node and every subtree below a root image
    is searched as before.  The timeout error also reports how many images
    the first vertex may take.
    """
    if timeout is not None and not timeout > 0:  # also refuses nan
        raise ParameterDomainError(f"timeout={timeout} must be None or positive")
    if H.n > EMBED_GRAPH_BOUND:
        raise SizeExceededError(
            f"find_embedding: graph has {H.n} vertices, "
            f"over EMBED_GRAPH_BOUND = {EMBED_GRAPH_BOUND}"
        )
    if K.n > EMBED_CRG_BOUND:
        raise SizeExceededError(
            f"find_embedding: CRG has {K.n} vertices, over EMBED_CRG_BOUND = {EMBED_CRG_BOUND}"
        )
    if H.n == 0:
        return ()

    order, plan, own = _graph_plan(H)
    edge_ok, non_ok, successor, first_fresh, root_images = _crg_plan(K)
    n = H.n
    failed = [set() for _ in range(n)]

    assignment = [0] * n
    deadline = None if timeout is None else time.monotonic() + timeout
    nodes = 0
    refused = 0

    def extend(depth: int, domains: list[int], allowed: int) -> bool:
        nonlocal nodes, refused
        seen = failed[depth]
        steps = plan[depth]
        key = None
        candidates = domains[own[depth]] & allowed
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
            if key is None:
                key = (allowed, *domains)
                if key in seen:
                    refused += 1
                    return False
            if extend(depth + 1, new_domains, allowed | successor[u]):
                return True
        if key is not None:
            seen.add(key)
        return False

    if extend(0, [(1 << K.n) - 1], first_fresh):
        phi = [0] * n
        for d, v in enumerate(order):
            phi[v] = assignment[d]
        phi = tuple(phi)
        if not verify_embedding(H, K, phi):
            raise RuntimeError("search produced a witness that fails re-verification")
        return phi
    return None


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


def spectrum_partition_witness(params: PowerCycleParams, a: int) -> tuple[int, ...]:
    """Embedding of a cycle power into K(a, ell(a)), that is, a partition into
    a independent sets (white vertices 0..a-1) and ell(a) cliques (black
    vertices a..a+ell(a)-1).

    Cut the cycle into consecutive blocks of size t+a+1 (plus one remainder
    block).  Position v sits at offset q = v % (t+a+1) in block
    j = v // (t+a+1): the first t+1 positions of block j form clique a+j,
    and offset t+1+i goes to independent set i.  The map is checked by
    verify_embedding before returning.
    """
    t = params.t
    K = k_rs(a, params.ell(a))
    params.require_gamma_range("witness construction")
    block = t + a + 1
    phi = tuple(a + v // block if v % block <= t else v % block - t - 1 for v in range(params.h))
    return _checked_witness(params, K, phi)


def chromatic_overshoot_witness(params: PowerCycleParams) -> tuple[int, ...]:
    """Embedding of a cycle power into K(t+1, 1): t+1 independent sets and
    one clique.

    Cut ceil(h/(t+1)) - 1 leading blocks of size t+1; the j-th positions
    across blocks are pairwise more than t apart and go to white vertex j,
    and the at most t+1 leftover positions are consecutive, hence a clique,
    and go to the black vertex t+1.  Shows one extra clique always absorbs
    the chromatic overshoot of a nondivisible length.
    """
    t = params.t
    params.require_gamma_range("witness construction")
    cut = (params.ell(0) - 1) * (t + 1)
    phi = tuple(v % (t + 1) if v < cut else t + 1 for v in range(params.h))
    return _checked_witness(params, k_rs(t + 1, 1), phi)


def _checked_witness(params: PowerCycleParams, K: Crg, phi: tuple[int, ...]) -> tuple[int, ...]:
    if not verify_embedding(params.graph(), K, phi):
        raise RuntimeError(f"constructed witness {phi} fails verify_embedding")
    return phi


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
    inside = find_embedding(H, k_rs(t, lt), timeout=timeout) is not None
    outside = find_embedding(H, k_rs(t, lt - 1), timeout=timeout) is not None
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
    lo, hi = params.ell(a), params.longest_gray_cycle
    if a + hi > EMBED_CRG_BOUND:
        raise SizeExceededError(
            f"gray-cycle window {lo}..{hi} with {a} white vertices needs a "
            f"{a + hi}-vertex CRG, over EMBED_CRG_BOUND = {EMBED_CRG_BOUND}"
        )
    H = params.graph()
    report = GrayCycleReport(h, t, a)
    for k in range(lo, hi + 1):
        phi = find_embedding(H, gray_cycle_crg(a, k), timeout=timeout)
        report.required[k] = phi is not None
    for k in (lo - 1, hi + 1):
        if k >= 2 and a + k <= EMBED_CRG_BOUND:
            phi = find_embedding(H, gray_cycle_crg(a, k), timeout=timeout)
            report.boundary[k] = phi is not None
    return report
