"""Graph construction, coloring, and partition oracles."""

import itertools
import random

import pytest

import edcycles.embed
from edcycles.embed import chromatic_overshoot_witness, spectrum_partition_witness
from edcycles.errors import ParameterDomainError, SizeExceededError
from edcycles.graphs import (
    Graph,
    PowerCycleParams,
    chromatic_number,
    find_partition,
    graph_from_json,
    graph_to_json,
    largest_set,
    partitionable,
    power_cycle,
)


def brute_partitionable(g: Graph, r: int, s: int) -> bool:
    """Oracle: try every assignment of vertices to r+s labeled parts."""
    if g.n == 0:
        return True
    for assignment in itertools.product(range(r + s), repeat=g.n):
        ok = True
        for part in range(r + s):
            members = [v for v in range(g.n) if assignment[v] == part]
            if part < r:
                if not g.is_independent_set(members):
                    ok = False
                    break
            elif not g.is_clique(members):
                ok = False
                break
        if ok:
            return True
    return False


def random_graph(rng: random.Random, n: int, density: float = 0.5) -> Graph:
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return Graph.from_edges(n, edges)


def test_power_cycle_c5_is_the_cycle():
    g = power_cycle(5, 1)
    assert len(g.edges) == 5
    assert all(g.degree(v) == 2 for v in range(5))


def test_power_cycle_8_3_complement_of_matching():
    g = power_cycle(8, 3)
    assert all(g.degree(v) == 6 for v in range(8))
    non_edges = [
        (i, j) for i in range(8) for j in range(i + 1, 8) if not g.adjacent(i, j)
    ]
    assert non_edges == [(0, 4), (1, 5), (2, 6), (3, 7)]


@pytest.mark.parametrize("h,t", [(5, 2), (7, 3), (4, 2), (9, 4)])
def test_power_cycle_small_h_is_complete(h, t):
    if h > 2 * t + 1:
        pytest.skip("not the complete range")
    g = power_cycle(h, t)
    assert len(g.edges) == h * (h - 1) // 2


@pytest.mark.parametrize("h,t", [(2, 1), (3, 0), (0, 1)])
def test_power_cycle_rejects_bad_parameters(h, t):
    with pytest.raises(ParameterDomainError):
        power_cycle(h, t)


@pytest.mark.parametrize("h,t", [(h, t) for t in (1, 2, 3) for h in range(3, 16)])
def test_power_cycle_vertex_transitive_degree(h, t):
    g = power_cycle(h, t)
    want = min(2 * t, h - 1)
    assert all(g.degree(v) == want for v in range(h))


def test_power_cycle_edges_are_the_pairs_within_cyclic_distance():
    # the build goes distance by distance; the definition scans every pair
    for h in range(3, 41):
        for t in range(1, 21):
            want = {
                (i, j) for i in range(h) for j in range(i + 1, h) if min(j - i, h - j + i) <= t
            }
            assert power_cycle(h, t).edges == want, (h, t)


def test_chromatic_small_cases():
    assert chromatic_number(power_cycle(5, 1)) == 3
    assert chromatic_number(power_cycle(13, 2)) == 4
    k6 = Graph.from_edges(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
    assert chromatic_number(k6) == 6
    assert chromatic_number(Graph.from_edges(0, [])) == 0
    assert chromatic_number(Graph.from_edges(3, [])) == 1


@pytest.mark.parametrize("t", [1, 2, 3])
def test_chromatic_matches_cycle_power_formula(t):
    for h in range(max(t + 1, 3), 19):
        params = PowerCycleParams(h, t)
        assert chromatic_number(power_cycle(h, t)) == params.chi, (h, t)


def test_chromatic_matches_brute_force_on_random_graphs():
    rng = random.Random(3)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 6))
        brute = next(
            k
            for k in range(1, g.n + 1)
            if any(
                all(
                    coloring[i] != coloring[j]
                    for i, j in g.edges
                )
                for coloring in itertools.product(range(k), repeat=g.n)
            )
        )
        assert chromatic_number(g) == brute


def test_chromatic_rejects_oversize():
    with pytest.raises(
        SizeExceededError, match="find_partition: 30 vertices exceeds exact-search bound 24"
    ):
        chromatic_number(power_cycle(30, 1))


def test_partitionable_c5_examples():
    c5 = power_cycle(5, 1)
    assert not partitionable(c5, 1, 1)
    assert partitionable(c5, 1, 2)
    assert partitionable(c5, 5, 0)


def test_partitionable_clamps_part_counts_to_vertices():
    # parts beyond n stay empty, so a huge count costs no more than n parts
    c5 = power_cycle(5, 1)
    assert partitionable(c5, 10**9, 10**9)
    assert partitionable(c5, 0, 10**9)
    assert partitionable(c5, 10**9, 0)


def test_partitionable_degenerate_cases():
    empty = Graph.from_edges(0, [])
    assert partitionable(empty, 0, 0)
    single = Graph.from_edges(1, [])
    assert not partitionable(single, 0, 0)
    assert partitionable(single, 1, 0)
    assert partitionable(single, 0, 1)


def test_partitionable_agrees_with_brute_force():
    rng = random.Random(7)
    for trial in range(40):
        g = random_graph(rng, rng.randint(1, 7))
        r, s = rng.randint(0, 2), rng.randint(0, 2)
        assert partitionable(g, r, s) == brute_partitionable(g, r, s), (
            g.edges,
            r,
            s,
        )


def recurring_frontier_graph(rng: random.Random, n: int) -> Graph:
    """A banded graph with wrap-around edges, or a disjoint union of small
    cliques and paths: few placed vertices keep a later neighbour, so the
    search meets the same frontier along different branches."""
    if rng.random() < 0.5:
        width = rng.randint(1, 2)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if min(j - i, n - (j - i)) <= width and rng.random() < 0.8
        ]
    else:
        edges = []
        start = 0
        while start < n:
            block = range(start, min(n, start + rng.randint(1, 3)))
            if rng.random() < 0.5:
                edges += itertools.combinations(block, 2)
            else:
                edges += zip(block, block[1:])
            start = block.stop
    return Graph.from_edges(n, edges)


def test_partitionable_agrees_with_brute_force_on_recurring_frontiers():
    rng = random.Random(13)
    for trial in range(250):
        g = recurring_frontier_graph(rng, rng.randint(4, 8))
        r, s = rng.randint(0, 3), rng.randint(0, 3)
        assert partitionable(g, r, s) == brute_partitionable(g, r, s), (
            g.edges,
            r,
            s,
        )


def test_find_partition_counts_match_brute_force():
    # None exactly when no partition exists; otherwise the counts of the
    # found partition fit the bounds and admit a partition themselves.  On
    # the cycle powers the capacity bound is tight: C_9^2 has independence
    # and clique number 3, so (1, 2) parts hold exactly 9 vertices at the
    # root and still admit no partition.
    rng = random.Random(17)
    instances = [
        (random_graph(rng, rng.randint(1, 9), rng.choice((0.3, 0.5, 0.7))),
         rng.randint(0, 4), rng.randint(0, 4))
        for trial in range(60)
    ]
    instances += [
        (power_cycle(h, t), r, s)
        for h in range(3, 10)
        for t in range(1, 4)
        for r in range(4)
        for s in range(4 - r)
    ]
    for g, r, s in instances:
        found = find_partition(g, r, s)
        assert (found is None) == (not brute_partitionable(g, r, s)), (g.edges, r, s)
        if found is not None:
            a, b = found
            assert a <= r and b <= s, (g.edges, r, s, found)
            assert brute_partitionable(g, a, b), (g.edges, r, s, found)


def reference_partition(g: Graph, r: int, s: int) -> tuple[int, int] | None:
    """Plain backtracking in find_partition's part order, with no cache, no
    capacity bound and no forward check: vertex v tries the independent
    parts, then the cliques, each kind in index order up to its first empty
    part, and the leaf counts the nonempty parts of each kind."""
    kinds = (
        ([set() for _ in range(r)], g.is_independent_set),
        ([set() for _ in range(s)], g.is_clique),
    )

    def place(v: int) -> tuple[int, int] | None:
        if v == g.n:
            return tuple(sum(1 for part in parts if part) for parts, _ in kinds)
        for parts, fits in kinds:
            for part in parts:
                if fits(part | {v}):
                    part.add(v)
                    found = place(v + 1)
                    part.remove(v)
                    if found is not None:
                        return found
                if not part:
                    break
        return None

    return place(0)


def test_find_partition_is_the_unpruned_search():
    # every prune and the failed-state cache change only the work: the
    # first partition found, and so its part counts, are the plain search's
    rng = random.Random(31)
    instances = [
        (random_graph(rng, rng.randint(0, 9), rng.random()), rng.randint(0, 4), rng.randint(0, 4))
        for trial in range(150)
    ]
    instances += [
        (power_cycle(h, t), r, s)
        for h in range(3, 13)
        for t in range(1, 4)
        for r in range(5)
        for s in range(5 - r)
    ]
    for g, r, s in instances:
        assert find_partition(g, r, s) == reference_partition(g, r, s), (g.edges, r, s)


def test_largest_set_is_the_independence_and_clique_number():
    # one memo per graph and kind, shared across masks as within one call
    rng = random.Random(29)
    for trial in range(40):
        n = rng.randint(0, 10)
        g = random_graph(rng, n, rng.random())
        adj = g.adjacency_masks
        keeps = (
            ([~row for row in adj], g.is_independent_set),
            (adj, g.is_clique),
        )
        for keep, fits in keeps:
            memo = {0: 0}
            for mask in [rng.getrandbits(n) for _ in range(8)] + [(1 << n) - 1]:
                members = [v for v in range(n) if mask >> v & 1]
                brute = max(
                    k
                    for k in range(len(members) + 1)
                    if any(fits(c) for c in itertools.combinations(members, k))
                )
                assert largest_set(mask, keep, memo) == brute, (g.edges, mask)


def test_find_partition_tells_part_kinds_apart():
    # the search meets two states with the same allowed sets that differ in
    # which part is the clique; only the clique marker in the failed-state
    # key keeps them apart
    g = Graph.from_edges(6, [(0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 5)])
    assert brute_partitionable(g, 1, 2)
    assert find_partition(g, 1, 2) is not None


def test_partitionable_monotone():
    rng = random.Random(11)
    for trial in range(25):
        g = random_graph(rng, rng.randint(1, 8))
        r, s = rng.randint(0, 3), rng.randint(0, 3)
        if partitionable(g, r, s):
            assert partitionable(g, r + 1, s)
            assert partitionable(g, r, s + 1)


@pytest.mark.parametrize(
    "h,t",
    [(5, 1), (6, 1), (8, 1), (12, 1), (13, 2), (15, 2), (18, 3), (21, 3), (24, 2), (24, 3)],
)
def test_partition_boundary_for_cycle_powers(h, t):
    params = PowerCycleParams(h, t)
    g = params.graph()
    for a in range(t + 1):
        la = params.ell(a)
        assert not partitionable(g, a, la - 1), (h, t, a)
        assert partitionable(g, a, la), (h, t, a)


def test_params_derived_values():
    params = PowerCycleParams(13, 2)
    assert params.ells == (5, 4, 3)
    assert params.p0 == pytest.approx(1 / 3)
    assert params.chi == 4
    assert params.longest_gray_cycle == 6
    assert not params.divisible


def test_params_ell_monotone_and_chi_range():
    for t in (1, 2, 3):
        for h in range(max(t * (t + 1), 3), 40):
            params = PowerCycleParams(h, t)
            ells = params.ells
            assert all(ells[i] >= ells[i + 1] for i in range(t))
            assert ells[t] >= 1
            assert 0 < params.p0 <= 1
            assert params.chi == (t + 1 if h % (t + 1) == 0 else t + 2)


def test_params_branch_table_is_built_once_from_ell():
    for t in range(1, 6):
        for h in range(3, 90):
            params = PowerCycleParams(h, t)
            assert params.p0 is params.p0
            if h < max(t * (t + 1), 4):
                with pytest.raises(ParameterDomainError, match="closed-form gamma needs"):
                    params.branches
                continue
            labels = [f"a={a}" for a in range(t + 1)]
            pairs = [(a, params.ell(a) - 1) for a in range(t + 1)]
            if h % (t + 1):
                labels.append("chromatic")
                pairs.append((t + 1, 0))
            assert params.branches == (tuple(labels), tuple(pairs)), (h, t)
            assert params.branches is params.branches


def test_witness_matches_hand_construction():
    w = spectrum_partition_witness(PowerCycleParams(8, 1), 1)
    assert w == (1, 1, 0, 2, 2, 0, 3, 3)


def test_witness_all_consecutive_pairs_for_divisible():
    w = spectrum_partition_witness(PowerCycleParams(6, 1), 0)
    assert w == (0, 0, 1, 1, 2, 2)


@pytest.mark.parametrize(
    "h,t",
    [(8, 1), (9, 1), (12, 1), (13, 2), (14, 2), (18, 2), (25, 3)],
)
def test_witness_certified_by_partition_oracle(h, t):
    params = PowerCycleParams(h, t)
    g = params.graph()
    for a in range(t + 1):
        w = spectrum_partition_witness(params, a)
        assert set(w) == set(range(a + params.ell(a)))
        if h <= 18:
            assert partitionable(g, a, params.ell(a))


@pytest.mark.parametrize("h,t", [(8, 1), (9, 1), (13, 2), (16, 2), (25, 3)])
def test_chromatic_overshoot_witness(h, t):
    params = PowerCycleParams(h, t)
    w = chromatic_overshoot_witness(params)
    assert set(w) == set(range(t + 2))
    if h <= 18:
        assert partitionable(params.graph(), t + 1, 1)


def test_witness_rejects_out_of_range():
    with pytest.raises(ParameterDomainError):
        spectrum_partition_witness(PowerCycleParams(8, 1), 2)
    with pytest.raises(ParameterDomainError):
        spectrum_partition_witness(PowerCycleParams(5, 2), 0)


def test_witnesses_use_every_part_across_the_range():
    # every CRG vertex receives a position, so no part of the partition is empty
    for t in range(1, 5):
        for h in range(max(t * (t + 1), 4), 61):
            params = PowerCycleParams(h, t)
            for a in range(t + 1):
                w = spectrum_partition_witness(params, a)
                assert set(w) == set(range(a + params.ell(a))), (h, t, a)
            assert set(chromatic_overshoot_witness(params)) == set(range(t + 2)), (h, t)


def test_witness_builders_refuse_a_map_that_fails_verification(monkeypatch):
    monkeypatch.setattr(edcycles.embed, "verify_embedding", lambda H, K, phi: False)
    params = PowerCycleParams(13, 2)
    with pytest.raises(RuntimeError):
        spectrum_partition_witness(params, 1)
    with pytest.raises(RuntimeError):
        chromatic_overshoot_witness(params)


def test_graph_json_roundtrip():
    g = power_cycle(7, 2)
    blob = graph_to_json(g)
    assert blob["edges"] == sorted(blob["edges"])
    assert graph_from_json(blob) == g


def test_graph_from_json_rejects_malformed_shapes():
    with pytest.raises(ParameterDomainError):
        graph_from_json({"n": 3, "edges": [[0, 1, 2]]})
    with pytest.raises(ParameterDomainError):
        graph_from_json({"n": 3.7, "edges": []})  # never truncated to 3
    with pytest.raises(ParameterDomainError):
        graph_from_json("x")  # not JSON text
    with pytest.raises(ParameterDomainError):
        graph_from_json({"n": True, "edges": []})  # a bool is not a count
    with pytest.raises(ParameterDomainError):
        graph_from_json({"n": 3, "edges": [[False, True]]})
    for edges in ("", {}):  # never read as an empty edge list
        with pytest.raises(ParameterDomainError):
            graph_from_json({"n": 3, "edges": edges})
