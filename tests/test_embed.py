"""Graph-into-CRG embedding search and the gray-cycle constructions."""

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from edcycles import embed
from edcycles.crg import (
    BLACK,
    GRAY,
    WHITE,
    crg_from_json,
    crg_from_pairs,
    crg_to_json,
    k_rs,
    random_crg,
    sub_crg,
)
from edcycles.embed import (
    _automorphism_orbits,
    _crg_plan,
    _feasibility_masks,
    _graph_plan,
    _interchangeable_classes,
    _search_order,
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
    edge_ok, non_ok, successor, first_fresh, _ = _crg_plan(K)
    return _automorphism_orbits(edge_ok, non_ok, successor, first_fresh)


def random_graph(rng, n, density=0.5):
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density
    ]
    return Graph.from_edges(n, edges)


def reference_verify_embedding(H, K, phi):
    """The embedding conditions checked pair by pair through Graph.adjacent
    and Crg.edge_color, as the reference for verify_embedding."""
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


def test_verify_embedding_matches_the_reference_on_every_small_map():
    rng = random.Random(89)
    crgs = [random_crg(rng, rng.randint(1, 4), rng.choice((0.5, 1.0))) for _ in range(60)]
    graphs = [
        Graph.from_edges(n, edges)
        for n in (2, 3)
        for m in range(n * (n - 1) // 2 + 1)
        for edges in itertools.combinations(itertools.combinations(range(n), 2), m)
    ]
    verdicts = []
    for H in graphs:
        for K in crgs:
            for phi in itertools.product(range(K.n), repeat=H.n):
                verdict = verify_embedding(H, K, phi)
                assert verdict == reference_verify_embedding(H, K, phi), (H, K, phi)
                verdicts.append(verdict)
    assert len(graphs) == 10
    assert verdicts.count(True) > 1000 and verdicts.count(False) > 1000


def test_verify_embedding_refuses_malformed_maps():
    H, K = power_cycle(5, 1), k_rs(2, 3)
    phi = find_embedding(H, K, timeout=None)
    assert verify_embedding(H, K, phi)
    bad = [(), phi[:-1], phi + (0,), (-1,) + phi[1:], phi[:-1] + (K.n,), phi[:2] + (99,) + phi[3:]]
    for wrong in bad:
        assert not verify_embedding(H, K, wrong), wrong
        assert not reference_verify_embedding(H, K, wrong), wrong


def test_c8_gray_triangle_and_square():
    c8 = power_cycle(8, 1)
    assert find_embedding(c8, gray_cycle_crg(0, 3)) is None
    assert find_embedding(c8, gray_cycle_crg(0, 4)) is not None


def test_witness_passes_independent_checker():
    c8 = power_cycle(8, 1)
    phi = find_embedding(c8, gray_cycle_crg(0, 4))
    assert phi is not None
    assert verify_embedding(c8, gray_cycle_crg(0, 4), phi)


@pytest.mark.parametrize("h,t,a", [(8, 1, 0), (8, 1, 1), (13, 2, 0), (13, 2, 1), (13, 2, 2)])
def test_cycle_power_fits_all_gray_at_ell(h, t, a):
    params = PowerCycleParams(h, t)
    H = params.graph()
    assert find_embedding(H, k_rs(a, params.ell(a))) is not None
    assert find_embedding(H, k_rs(a, params.ell(a) - 1)) is None


def test_embeds_matches_partitionable_on_all_gray():
    rng = random.Random(19)
    for _ in range(30):
        H = random_graph(rng, rng.randint(1, 8))
        r, s = rng.randint(0, 3), rng.randint(0, 3)
        if r + s == 0:
            continue
        assert (find_embedding(H, k_rs(r, s)) is not None) == partitionable(H, r, s)


def test_embeds_matches_partitionable_on_cycle_powers():
    H = PowerCycleParams(13, 2).graph()
    for r in range(4):
        for s in range(5):
            if r + s == 0:
                continue
            found = find_embedding(H, k_rs(r, s)) is not None
            assert found == partitionable(H, r, s), (r, s)


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
                found = find_embedding(H, k_rs(r, s), timeout=None) is not None
                assert found == partitionable(H, r, s), (r, s)


def banded_graph(n, width):
    edges = [(i, j) for i in range(n) for j in range(i + 1, min(n, i + width + 1))]
    return Graph.from_edges(n, edges)


def brute_embeds(H, K):
    """Test every map V(H) -> V(K) at once.  Map m is bit m of an int, and
    its base-K.n digit i is the image of vertex i.  The embedding conditions
    are pairwise, so a map fails when some H-pair lands on an image pair that
    reference_verify_embedding refuses for a two-vertex non-edge or edge."""
    k, n = K.n, H.n
    every_map = (1 << k**n) - 1
    sends = []  # sends[i][u]: the maps that send vertex i to u
    for i in range(n):
        block, period = (1 << k**i) - 1, k ** (i + 1)
        each_period = every_map // ((1 << period) - 1)  # bit 0 of every period
        sends.append([(block << u * k**i) * each_period for u in range(k)])
    fits = [  # fits[adjacent][u][w]
        [[reference_verify_embedding(pair, K, (u, w)) for w in range(k)] for u in range(k)]
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
    # banded graphs, cycle powers and sparse graphs have small frontiers,
    # so different prefixes often leave the same domains and open images,
    # which is where the failed-state cache keys and refuses states; a
    # cache keyed on less than those answers some of these pairs wrongly
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
            sum(1 << w for w in range(K.n) if reference_verify_embedding(pair, K, (u, w)))
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


def complement(H):
    return Graph.from_edges(
        H.n, [(i, j) for i in range(H.n) for j in range(i + 1, H.n) if not H.adjacent(i, j)]
    )


def test_dense_graphs_return_the_plain_searchs_witness():
    # in a clique or the complement of a cycle power every placed vertex
    # has a neighbour left to place until late in the order, yet prefixes
    # that leave the same domains and open images share one cache entry
    rng = random.Random(61)
    graphs = [Graph.from_edges(n, list(itertools.combinations(range(n), 2))) for n in range(2, 10)]
    graphs += [complement(power_cycle(h, t)) for h in range(5, 11) for t in (1, 2) if 2 * t < h]
    graphs += [random_graph(rng, rng.randint(5, 9), 0.85) for _ in range(20)]
    found = 0
    for H in graphs:
        for _ in range(12):
            K = random_crg(rng, rng.randint(2, 6), gray_weight=rng.choice((1.0, 3.0)))
            phi = find_embedding(H, K, timeout=None)
            assert phi == plain_find_embedding(H, K), (H, K)
            found += phi is not None
    assert 50 < found < 12 * len(graphs) - 50


def is_frozen(value):
    """True for an int, or a tuple of frozen values at every depth."""
    if isinstance(value, tuple):
        return all(is_frozen(item) for item in value)
    return isinstance(value, int)


def test_cached_plans_are_tuples():
    for H in (power_cycle(13, 2), banded_graph(7, 2), Graph.from_edges(4, [])):
        plan = _graph_plan(H)
        assert len(plan) == 3 and is_frozen(plan)
    for K in (k_rs(2, 3), gray_cycle_crg(1, 6), random_crg(random.Random(3), 5)):
        plan = _crg_plan(K)
        assert len(plan) == 5 and is_frozen(plan)


def test_equal_inputs_share_plans_and_witness():
    # the plans are cached by value: a graph and a CRG rebuilt from scratch
    # are equal to the originals, so they read the same tables and give the
    # same witness, whichever of the two objects is passed
    rng = random.Random(53)
    pairs = [(power_cycle(13, 2), gray_cycle_crg(1, 5)), (power_cycle(9, 1), k_rs(1, 4))]
    pairs += [(random_graph(rng, 7, 0.4), random_crg(rng, rng.randint(2, 4))) for _ in range(20)]
    found = 0
    for H, K in pairs:
        phi = find_embedding(H, K, timeout=None)
        found += phi is not None
        H2 = Graph.from_edges(H.n, sorted(H.edges))
        K2 = crg_from_json(json.dumps(crg_to_json(K)))
        assert H2 is not H and H2 == H
        assert K2 is not K and K2 == K
        assert _graph_plan(H2) is _graph_plan(H)
        assert _crg_plan(K2) is _crg_plan(K)
        for pair in ((H2, K2), (H2, K), (H, K2)):
            assert find_embedding(*pair, timeout=None) == phi, (H, K)
    assert 5 < found < len(pairs) - 5


def test_witness_after_a_timeout_matches_a_fresh_process():
    # a satisfiable search of more than 1024 nodes, stopped at the first
    # clock read, must leave nothing behind that the next call would read
    H, K = power_cycle(22, 3), gray_cycle_crg(2, 9)
    with pytest.raises(EmbedTimeoutError, match="after 1024 nodes"):
        find_embedding(H, K, timeout=1e-9)
    phi = find_embedding(H, K, timeout=None)
    assert phi is not None and verify_embedding(H, K, phi)
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "from edcycles import find_embedding, gray_cycle_crg, power_cycle\n"
        "print(list(find_embedding(power_cycle(22, 3), gray_cycle_crg(2, 9), timeout=None)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == list(phi)


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
        if find_embedding(H, sub_crg(K, keep)) is not None:
            assert find_embedding(H, K) is not None


def test_single_vertex_images():
    edge = Graph.from_edges(2, [(0, 1)])
    non_edge = Graph.from_edges(2, [])
    one_black = k_rs(0, 1)
    one_white = k_rs(1, 0)
    assert find_embedding(edge, one_black) is not None
    assert find_embedding(edge, one_white) is None
    assert find_embedding(non_edge, one_white) is not None
    assert find_embedding(non_edge, one_black) is None


def test_size_bounds():
    message = "find_embedding: graph has 41 vertices, over EMBED_GRAPH_BOUND = 40"
    with pytest.raises(SizeExceededError, match=message):
        find_embedding(power_cycle(41, 1), k_rs(1, 1))
    message = "find_embedding: CRG has 16 vertices, over EMBED_CRG_BOUND = 14"
    with pytest.raises(SizeExceededError, match=message):
        find_embedding(power_cycle(5, 1), k_rs(8, 8))


def test_timeout_raises_instead_of_answering():
    H = power_cycle(33, 3)
    K = k_rs(3, 4)  # infeasible: forces full exhaustion
    with pytest.raises(EmbedTimeoutError):
        find_embedding(H, K, timeout=1e-4)


def test_timeout_reports_nodes_searched():
    # the clock is read every 1024 nodes, so a 1 ns budget stops at the first read
    with pytest.raises(EmbedTimeoutError, match=r"1e-09 s after 1024 nodes"):
        find_embedding(power_cycle(33, 3), k_rs(3, 4), timeout=1e-9)


def test_timeout_reports_cache_refusals():
    # a cycle power's search refuses states within its first 1024 nodes
    refusals = r"after 1024 nodes, [1-9]\d* refused by the failed-state cache"
    with pytest.raises(EmbedTimeoutError, match=refusals):
        find_embedding(power_cycle(33, 3), k_rs(3, 4), timeout=1e-9)
    # in a clique every later domain is the AND of edge_ok over the set of
    # placed images, so prefixes that place one set in different orders
    # leave the same state; twin-free gray edges make it search
    rng = random.Random(5)
    colors = [GRAY if rng.random() < 0.7 else WHITE for _ in range(14 * 13 // 2)]
    pairs = [(i, j) for i in range(14) for j in range(i + 1, 14)]
    K = crg_from_pairs((WHITE,) * 14, [(i, j, c) for (i, j), c in zip(pairs, colors)])
    clique = Graph.from_edges(12, [(i, j) for i in range(12) for j in range(i + 1, 12)])
    with pytest.raises(EmbedTimeoutError, match=r"after 1024 nodes, 291 refused"):
        find_embedding(clique, K, timeout=1e-9)


def test_timeout_reports_root_images():
    # the first vertex may take only the least vertex of each Aut(K) orbit:
    # one for the black gray cycle, one per color for K(r, s)
    root = r"refused by the failed-state cache, {} of {} images open to the first vertex"
    with pytest.raises(EmbedTimeoutError, match=root.format(1, 14)):
        find_embedding(power_cycle(29, 1), gray_cycle_crg(0, 14), timeout=1e-9)
    with pytest.raises(EmbedTimeoutError, match=root.format(2, 7)):
        find_embedding(power_cycle(33, 3), k_rs(3, 4), timeout=1e-9)


@pytest.mark.parametrize(
    "h, t, K, refused",
    [
        (33, 3, k_rs(3, 4), 183),
        (25, 3, k_rs(3, 3), 184),
        (26, 2, k_rs(2, 5), 266),
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
        find_embedding(power_cycle(h, t), K, timeout=1e-9)


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


@pytest.mark.parametrize("h, t, a", [(28, 2, 1), (30, 2, 0), (15, 1, 0)])
def test_gray_cycle_report_refuses_a_window_past_crg_bound_before_searching(
    h, t, a, monkeypatch
):
    calls = []
    monkeypatch.setattr(embed, "find_embedding", lambda *args, **kw: calls.append(args))
    hi = h // t
    window = f"window {PowerCycleParams(h, t).ell(a)}..{hi} with {a} white vertices"
    with pytest.raises(SizeExceededError, match=window + f" needs a {a + hi}-vertex CRG"):
        gray_cycle_embedding_report(PowerCycleParams(h, t), a)
    assert calls == []


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
    assert find_embedding(params.graph(), k_rs(t + 1, 1)) is not None
