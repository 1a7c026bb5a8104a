"""Graph-into-CRG embedding search and the gray-cycle constructions."""

import itertools
import random

import pytest

from edcycles.crg import BLACK, GRAY, WHITE, crg_from_pairs, k_rs, random_crg, sub_crg
from edcycles.embed import (
    _automorphism_orbits,
    _feasibility_masks,
    _interchangeable_classes,
    _search_order,
    embeds,
    find_embedding,
    gray_cycle_crg,
    gray_cycle_embedding_report,
    k_rs_boundary_cases,
    verify_embedding,
)
from edcycles.errors import EmbedTimeoutError, ParameterDomainError, SizeExceededError
from edcycles.graphs import Graph, PowerCycleParams, partitionable, power_cycle
from edcycles.spectrum import power_cycle_spectrum


def twin_classes(K):
    return _interchangeable_classes(*_feasibility_masks(K))


def orbits(K):
    return _automorphism_orbits(*_feasibility_masks(K), twin_classes(K))


def random_graph(rng, n, density=0.5):
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density
    ]
    return Graph.from_edges(n, edges)


def test_c8_gray_triangle_and_square():
    c8 = power_cycle(8, 1)
    assert not embeds(c8, gray_cycle_crg(0, 3))
    assert embeds(c8, gray_cycle_crg(0, 4))


def test_witness_passes_independent_checker():
    c8 = power_cycle(8, 1)
    phi = find_embedding(c8, gray_cycle_crg(0, 4))
    assert phi is not None
    assert verify_embedding(c8, gray_cycle_crg(0, 4), phi)


@pytest.mark.parametrize("h,t,a", [(8, 1, 0), (8, 1, 1), (13, 2, 0), (13, 2, 1), (13, 2, 2)])
def test_cycle_power_fits_all_gray_at_ell(h, t, a):
    params = PowerCycleParams(h, t)
    H = params.graph()
    assert embeds(H, k_rs(a, params.ell(a)))
    assert not embeds(H, k_rs(a, params.ell(a) - 1))


def test_embeds_matches_partitionable_on_all_gray():
    rng = random.Random(19)
    for _ in range(30):
        H = random_graph(rng, rng.randint(1, 8))
        r, s = rng.randint(0, 3), rng.randint(0, 3)
        if r + s == 0:
            continue
        assert embeds(H, k_rs(r, s)) == partitionable(H, r, s)


def test_embeds_matches_partitionable_on_cycle_powers():
    H = PowerCycleParams(13, 2).graph()
    for r in range(4):
        for s in range(5):
            if r + s == 0:
                continue
            assert embeds(H, k_rs(r, s)) == partitionable(H, r, s), (r, s)


@pytest.mark.parametrize("h, t", [(21, 2), (24, 2), (24, 3)])
def test_embeds_matches_partitionable_on_the_staircase(h, t):
    # each row's boundary pair admits a partition and the pair below it does
    # not; the unsatisfiable side is where the failed-state cache does its work
    params = PowerCycleParams(h, t)
    H = params.graph()
    spec = power_cycle_spectrum(params)
    for r in range(params.chi + 1):
        boundary = sum(1 for row, _ in spec.pairs if row == r)
        for s in {boundary, max(boundary - 1, 0)}:
            if r + s:
                assert embeds(H, k_rs(r, s), timeout=None) == partitionable(H, r, s), (r, s)


def banded_graph(n, width):
    edges = [(i, j) for i in range(n) for j in range(i + 1, min(n, i + width + 1))]
    return Graph.from_edges(n, edges)


def brute_embeds(H, K):
    """Test every map V(H) -> V(K) at once.  Map m is bit m of an int, and
    its base-K.n digit i is the image of vertex i.  The embedding conditions
    are pairwise, so a map fails when some H-pair lands on an image pair that
    verify_embedding refuses for a two-vertex non-edge or edge."""
    k, n = K.n, H.n
    every_map = (1 << k**n) - 1
    sends = []  # sends[i][u]: the maps that send vertex i to u
    for i in range(n):
        block, period = (1 << k**i) - 1, k ** (i + 1)
        each_period = every_map // ((1 << period) - 1)  # bit 0 of every period
        sends.append([(block << u * k**i) * each_period for u in range(k)])
    fits = [  # fits[adjacent][u][w]
        [[verify_embedding(pair, K, (u, w)) for w in range(k)] for u in range(k)]
        for pair in (Graph.from_edges(2, []), Graph.from_edges(2, [(0, 1)]))
    ]
    failing = 0
    for i in range(n):
        for j in range(i + 1, n):
            fit = fits[H.adjacent(i, j)]
            for u in range(k):
                for w in range(k):
                    if not fit[u][w]:
                        failing |= sends[i][u] & sends[j][w]
    return failing != every_map


def test_find_embedding_matches_brute_force():
    # banded graphs, cycle powers and sparse graphs have vertices that turn
    # dead early in the search order, which is where the failed-state cache
    # keys and refuses states; a cache keyed on less than the live images
    # and the dead-image set answers some of these pairs wrongly
    rng = random.Random(83)
    graphs = [
        random_graph(rng, rng.randint(5, 7), rng.choice((0.2, 0.3, 0.5))) for _ in range(150)
    ]
    graphs += [banded_graph(n, w) for n in range(2, 8) for w in (1, 2, 3) if w < n]
    graphs += [power_cycle(h, t) for h in range(4, 8) for t in (1, 2)]
    verdicts = []
    for H in graphs:
        for _ in range(8):
            K = random_crg(rng, rng.randint(1, 4), gray_weight=rng.choice((1.0, 3.0)))
            found = find_embedding(H, K, timeout=None) is not None
            assert found == brute_embeds(H, K), (H, K)
            verdicts.append(found)
    assert verdicts.count(True) > 300 and verdicts.count(False) > 300


def plain_find_embedding(H, K):
    """Forward checking with a domain for every later position, in
    find_embedding's vertex order and twin-class fill rule, with no shared
    domain and no failed-state cache.  Images are tried lowest first."""
    n = H.n
    pairs = {False: Graph.from_edges(2, []), True: Graph.from_edges(2, [(0, 1)])}
    rows = {  # rows[adjacent][u]: images w that may sit beside image u
        adjacent: [
            sum(1 << w for w in range(K.n) if verify_embedding(pair, K, (u, w)))
            for u in range(K.n)
        ]
        for adjacent, pair in pairs.items()
    }
    order = _search_order(H)
    successor, first_fresh = {}, 0
    for members in twin_classes(K):
        first_fresh |= 1 << members[0]
        successor.update(zip(members, members[1:]))
    images = [0] * n

    def extend(depth, domains, used, fresh):
        for u in range(K.n):
            low = 1 << u
            if not domains[depth] & (used | fresh) & low:
                continue
            images[depth] = u
            if depth + 1 == n:
                return True
            new_used, new_fresh = used, fresh
            if low & fresh:
                new_used, new_fresh = used | low, fresh ^ low
                if u in successor:
                    new_fresh |= 1 << successor[u]
            new_domains = domains[: depth + 1] + [
                domains[d] & rows[H.adjacent(order[d], order[depth])][u]
                for d in range(depth + 1, n)
            ]
            if all(new_domains) and extend(depth + 1, new_domains, new_used, new_fresh):
                return True
        return False

    if n and not extend(0, [(1 << K.n) - 1] * n, 0, first_fresh):
        return None
    phi = [0] * n
    for d, v in enumerate(order):
        phi[v] = images[d]
    return tuple(phi)


def test_find_embedding_returns_the_plain_searchs_witness():
    # the shared domain, the failed-state cache and the root-orbit rule
    # change the work, never which witness comes first
    rng = random.Random(47)
    pairs = []
    for _ in range(400):
        H = random_graph(rng, rng.randint(1, 10), rng.choice((0.15, 0.3, 0.5, 0.7)))
        pairs.append((H, random_crg(rng, rng.randint(1, 5), gray_weight=rng.choice((1.0, 3.0)))))
    for n in range(2, 11):
        for width in (1, 2, 3):
            for _ in range(3):
                pairs.append((banded_graph(n, width), random_crg(rng, rng.randint(2, 5))))
    for h, t in ((7, 1), (8, 1), (9, 1), (10, 2), (11, 2), (13, 2)):
        for a in range(t + 1):
            for k in range(2, 8 - a):
                pairs.append((power_cycle(h, t), gray_cycle_crg(a, k)))
    # refutations that the root-orbit rule shortens: one white vertex with a
    # gray cycle one short of ell(1), and no white vertex one short of ell(0)
    for h in range(14, 21):
        pairs.append((power_cycle(h, 2), gray_cycle_crg(1, PowerCycleParams(h, 2).ell(1) - 1)))
    for t, hs in ((1, range(8, 16)), (2, range(12, 22)), (3, range(16, 22))):
        for h in hs:
            pairs.append((power_cycle(h, t), gray_cycle_crg(0, PowerCycleParams(h, t).ell(0) - 1)))
    found = 0
    for H, K in pairs:
        phi = find_embedding(H, K, timeout=None)
        assert phi == plain_find_embedding(H, K), (H, K)
        found += phi is not None
    assert 100 < found < len(pairs) - 100


def test_shared_domain_alone_refutes():
    # no vertex has a neighbour, so every domain is the shared one: after
    # two images it is non_ok[0] & non_ok[1], empty, with one vertex to go
    K = crg_from_pairs((BLACK, BLACK), [(0, 1, WHITE)])
    H = Graph.from_edges(3, [])
    assert find_embedding(H, K, timeout=None) is None
    assert plain_find_embedding(H, K) is None
    assert find_embedding(Graph.from_edges(2, []), K, timeout=None) == (0, 1)


def test_interchangeable_classes_are_automorphism_orbits():
    # soundness of the symmetry breaking: swapping any two class members
    # must leave every vertex and edge color unchanged
    rng = random.Random(67)
    crgs = [random_crg(rng, rng.randint(2, 7)) for _ in range(40)]
    crgs += [k_rs(3, 3), gray_cycle_crg(2, 5)]
    for K in crgs:
        for members in twin_classes(K):
            for a in members:
                for b in members:
                    if a == b:
                        continue
                    assert K.vertex_colors[a] == K.vertex_colors[b]
                    for w in range(K.n):
                        if w in (a, b):
                            continue
                        assert K.edge_color(a, w) == K.edge_color(b, w), (K, a, b, w)


def brute_orbits(K):
    """Orbits of Aut(K) from every permutation of V(K), each in vertex order."""
    images = [set() for _ in range(K.n)]
    for sigma in itertools.permutations(range(K.n)):
        if all(K.vertex_colors[u] == K.vertex_colors[sigma[u]] for u in range(K.n)) and all(
            K.edge_color(sigma[i], sigma[j]) == color for i, j, color in K.pairs()
        ):
            for u in range(K.n):
                images[u].add(sigma[u])
    return sorted({tuple(sorted(orbit)) for orbit in images})


def crg_fixed_by(rng, pi):
    """A random CRG that the permutation pi maps onto itself: one color per
    cycle of pi on the vertices and one per orbit of pi on the pairs."""
    n = len(pi)
    vertex_colors, pair_colors = {}, {}
    for u in range(n):
        if u not in vertex_colors:
            color, w = rng.choice((WHITE, BLACK)), u
            while w not in vertex_colors:
                vertex_colors[w], w = color, pi[w]
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in pair_colors:
                color, pair = rng.choice((WHITE, GRAY, BLACK)), (i, j)
                while pair not in pair_colors:
                    pair_colors[pair] = color
                    pair = tuple(sorted((pi[pair[0]], pi[pair[1]])))
    return crg_from_pairs(
        [vertex_colors[u] for u in range(n)], [(i, j, c) for (i, j), c in pair_colors.items()]
    )


def test_automorphism_orbits_match_brute_force():
    rng = random.Random(71)
    crgs = [
        random_crg(rng, rng.randint(1, 6), gray_weight=rng.choice((1.0, 3.0, 10.0)))
        for _ in range(150)
    ]
    for _ in range(150):
        pi = list(range(rng.randint(2, 6)))
        rng.shuffle(pi)
        crgs.append(crg_fixed_by(rng, pi))
    beyond_twins = 0
    for K in crgs:
        found = orbits(K)
        assert [tuple(orbit) for orbit in found] == brute_orbits(K), K
        beyond_twins += len(found) < len(twin_classes(K))
    # many orbits join vertices that are not twins, as on a gray cycle
    assert beyond_twins > 25


def test_automorphism_orbits_of_three_shapes():
    # the black vertices of a gray k-cycle are one orbit, though for k >= 4
    # no two are twins
    for a in range(3):
        for k in range(3, 9):
            whites, blacks = list(range(a)), list(range(a, a + k))
            assert orbits(gray_cycle_crg(a, k)) == ([whites] if a else []) + [blacks]
    # no two vertices share a color signature, so none moves
    rigid = crg_from_pairs(
        (BLACK,) * 4,
        [(0, 1, GRAY), (0, 2, WHITE), (0, 3, WHITE), (1, 2, GRAY), (1, 3, WHITE), (2, 3, BLACK)],
    )
    assert orbits(rigid) == [[0], [1], [2], [3]]
    for r in range(4):
        for s in range(4):
            if r + s:
                assert orbits(k_rs(r, s)) == twin_classes(k_rs(r, s))


def test_monotone_under_super_crg():
    rng = random.Random(29)
    for _ in range(30):
        K = random_crg(rng, rng.randint(2, 6))
        H = random_graph(rng, rng.randint(1, 6))
        keep = sorted(rng.sample(range(K.n), rng.randint(1, K.n)))
        if embeds(H, sub_crg(K, keep)):
            assert embeds(H, K)


def test_single_vertex_images():
    edge = Graph.from_edges(2, [(0, 1)])
    non_edge = Graph.from_edges(2, [])
    one_black = k_rs(0, 1)
    one_white = k_rs(1, 0)
    assert embeds(edge, one_black)
    assert not embeds(edge, one_white)
    assert embeds(non_edge, one_white)
    assert not embeds(non_edge, one_black)


def test_size_bounds():
    with pytest.raises(SizeExceededError):
        embeds(power_cycle(41, 1), k_rs(1, 1))
    with pytest.raises(SizeExceededError):
        embeds(power_cycle(5, 1), k_rs(8, 8))


def test_timeout_raises_instead_of_answering():
    H = power_cycle(33, 3)
    K = k_rs(3, 4)  # infeasible: forces full exhaustion
    with pytest.raises(EmbedTimeoutError):
        embeds(H, K, timeout=1e-4)


def test_timeout_reports_nodes_searched():
    # the clock is read every 1024 nodes, so a 1 ns budget stops at the first read
    with pytest.raises(EmbedTimeoutError, match=r"1e-09 s after 1024 nodes"):
        embeds(power_cycle(33, 3), k_rs(3, 4), timeout=1e-9)


def test_timeout_reports_cache_refusals():
    # a cycle power's search refuses states within its first 1024 nodes
    refusals = r"after 1024 nodes, [1-9]\d* refused by the failed-state cache"
    with pytest.raises(EmbedTimeoutError, match=refusals):
        embeds(power_cycle(33, 3), k_rs(3, 4), timeout=1e-9)
    # in a clique every placed vertex awaits the last one, so no depth keeps
    # a cache and nothing is refused; twin-free gray edges make it search
    rng = random.Random(5)
    colors = [GRAY if rng.random() < 0.7 else WHITE for _ in range(14 * 13 // 2)]
    pairs = [(i, j) for i in range(14) for j in range(i + 1, 14)]
    K = crg_from_pairs((WHITE,) * 14, [(i, j, c) for (i, j), c in zip(pairs, colors)])
    clique = Graph.from_edges(12, [(i, j) for i in range(12) for j in range(i + 1, 12)])
    with pytest.raises(EmbedTimeoutError, match=r"after 1024 nodes, 0 refused"):
        embeds(clique, K, timeout=1e-9)


def test_timeout_reports_root_images():
    # the first vertex may take only the least vertex of each Aut(K) orbit:
    # one for the black gray cycle, one per color for K(r, s)
    root = r"refused by the failed-state cache, {} of {} images open to the first vertex"
    with pytest.raises(EmbedTimeoutError, match=root.format(1, 14)):
        embeds(power_cycle(29, 1), gray_cycle_crg(0, 14), timeout=1e-9)
    with pytest.raises(EmbedTimeoutError, match=root.format(2, 7)):
        embeds(power_cycle(33, 3), k_rs(3, 4), timeout=1e-9)


@pytest.mark.parametrize(
    "h, t, K, refused",
    [
        (33, 3, k_rs(3, 4), 183),
        (25, 3, k_rs(3, 3), 138),
        (26, 2, k_rs(2, 5), 232),
        # black images on a gray cycle: the shared domain empties once every
        # image is used, and without that prune the count reads 180
        (29, 1, gray_cycle_crg(0, 14), 186),
    ],
    ids=["C33_3-K3_4", "C25_3-K3_3", "C26_2-K2_5", "C29_1-gray14"],
)
def test_timeout_message_pins_the_traversal(h, t, K, refused):
    # the first 1024 nodes and the refusals among them depend on the order
    # of the search and on every prune, so a change to either shows here
    message = f"after 1024 nodes, {refused} refused by the failed-state cache"
    with pytest.raises(EmbedTimeoutError, match=message):
        embeds(power_cycle(h, t), K, timeout=1e-9)


@pytest.mark.parametrize("timeout", [float("nan"), 0, 0.0, -1.0, float("-inf")])
def test_timeout_must_be_none_or_positive(timeout):
    # monotonic() > nan is never true, so a nan budget would never expire
    with pytest.raises(ParameterDomainError):
        find_embedding(power_cycle(8, 1), gray_cycle_crg(0, 4), timeout=timeout)


def test_gray_cycle_crg_shape():
    K = gray_cycle_crg(2, 4)
    assert K.vertex_colors == (WHITE, WHITE, BLACK, BLACK, BLACK, BLACK)
    # white vertices meet everything in gray
    for w in (0, 1):
        for other in range(K.n):
            if other != w:
                assert K.edge_color(w, other) == GRAY
    # black part: gray 4-cycle with white diagonals
    assert K.edge_color(2, 3) == GRAY
    assert K.edge_color(3, 4) == GRAY
    assert K.edge_color(4, 5) == GRAY
    assert K.edge_color(2, 5) == GRAY
    assert K.edge_color(2, 4) == WHITE
    assert K.edge_color(3, 5) == WHITE


def test_gray_cycle_crg_no_whites_is_gray_triangle():
    K = gray_cycle_crg(0, 3)
    assert K.vertex_colors == (BLACK, BLACK, BLACK)
    assert all(color == GRAY for _, _, color in K.pairs())


def test_gray_cycle_crg_length_two_is_single_gray_edge():
    K = gray_cycle_crg(1, 2)
    assert K.vertex_colors == (WHITE, BLACK, BLACK)
    assert K.edge_color(1, 2) == GRAY


def test_gray_cycle_crg_rejects_bad_parameters():
    with pytest.raises(ParameterDomainError):
        gray_cycle_crg(-1, 3)
    with pytest.raises(ParameterDomainError):
        gray_cycle_crg(0, 1)


@pytest.mark.parametrize("h,t,a", [(8, 1, 0), (13, 2, 0), (13, 2, 1)])
def test_gray_cycle_window_embeds(h, t, a):
    report = gray_cycle_embedding_report(PowerCycleParams(h, t), a)
    assert report.ok
    lo = PowerCycleParams(h, t).ell(a)
    hi = h // t
    assert sorted(report.required) == list(range(lo, hi + 1))


def test_gray_cycle_below_window_for_plain_cycle():
    report = gray_cycle_embedding_report(PowerCycleParams(8, 1), 0)
    assert report.boundary[3] is False


def test_gray_cycle_report_skips_boundary_past_crg_bound():
    # the upper boundary length 15 would need a 15-vertex CRG
    report = gray_cycle_embedding_report(PowerCycleParams(14, 1), 0)
    assert report.ok
    assert report.boundary == {6: False}


def test_gray_cycle_report_range_errors():
    with pytest.raises(ParameterDomainError):
        gray_cycle_embedding_report(PowerCycleParams(8, 1), 1)  # a must be < t
    with pytest.raises(ParameterDomainError):
        gray_cycle_embedding_report(PowerCycleParams(3, 1), 0)


def test_all_gray_boundary_cases():
    inside, outside = k_rs_boundary_cases(PowerCycleParams(9, 1))
    assert inside and not outside


@pytest.mark.parametrize("h,t", [(9, 1), (13, 2), (11, 1)])
def test_extra_white_vertex_when_not_divisible(h, t):
    # t+1 white vertices plus one all-gray black vertex absorb the leftover
    # clique when t+1 does not divide h
    params = PowerCycleParams(h, t)
    assert not params.divisible
    assert embeds(params.graph(), k_rs(t + 1, 1))
