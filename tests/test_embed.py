"""Graph-into-CRG embedding search and the gray-cycle constructions."""

import random

import pytest

from edcycles.crg import BLACK, GRAY, WHITE, k_rs, random_crg, sub_crg
from edcycles.embed import (
    embeds,
    find_embedding,
    gray_cycle_crg,
    gray_cycle_embedding_report,
    k_rs_boundary_cases,
    verify_embedding,
)
from edcycles.errors import EmbedTimeoutError, ParameterDomainError, SizeExceededError
from edcycles.graphs import Graph, PowerCycleParams, partitionable, power_cycle


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


def test_interchangeable_classes_are_automorphism_orbits():
    # soundness of the symmetry breaking: swapping any two class members
    # must leave every vertex and edge color unchanged
    from edcycles.embed import _interchangeable_classes

    rng = random.Random(67)
    crgs = [random_crg(rng, rng.randint(2, 7)) for _ in range(40)]
    crgs += [k_rs(3, 3), gray_cycle_crg(2, 5)]
    for K in crgs:
        for members in _interchangeable_classes(K):
            for a in members:
                for b in members:
                    if a == b:
                        continue
                    assert K.vertex_colors[a] == K.vertex_colors[b]
                    for w in range(K.n):
                        if w in (a, b):
                            continue
                        assert K.edge_color(a, w) == K.edge_color(b, w), (K, a, b, w)


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
