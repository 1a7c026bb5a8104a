"""Clique spectra and the search-based gamma curve."""

import random
from fractions import Fraction

import pytest
from test_embed import complement
from test_graphs import brute_partitionable

from edcycles import spectrum
from edcycles.curves import gamma_closed_with_branch
from edcycles.errors import ParameterDomainError
from edcycles.gfunction import g_krs
from edcycles.graphs import Graph, PowerCycleParams, find_partition
from edcycles.spectrum import (
    clique_spectrum,
    gamma,
    power_cycle_spectrum,
)


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_graph(rng, n, density=0.5):
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density
    ]
    return Graph.from_edges(n, edges)


def test_c5_extreme_points():
    spec = power_cycle_spectrum(PowerCycleParams(5, 1))
    assert spec.extreme_points == ((0, 2), (1, 1), (2, 0))


def test_c13_2_extreme_points():
    spec = power_cycle_spectrum(PowerCycleParams(13, 2))
    assert spec.extreme_points == ((0, 4), (1, 3), (2, 2), (3, 0))


def test_complete_graph_anchors():
    # forbidding a clique pins the curve to p/(h-1)
    for h in (3, 4):
        spec = clique_spectrum(complete_graph(h))
        assert spec.extreme_points == ((h - 1, 0),)
        for p in (Fraction(1, 4), Fraction(2, 3)):
            assert gamma(spec, p) == p / (h - 1)


def test_ferrers_property():
    rng = random.Random(43)
    for _ in range(20):
        H = random_graph(rng, rng.randint(1, 8))
        spec = clique_spectrum(H)
        for r, s in spec.pairs:
            if r >= 1:
                assert (r - 1, s) in spec.pairs
            if s >= 1:
                assert (r, s - 1) in spec.pairs


def test_bounded_spectra_match_brute_force():
    # the spectrum is exactly the set of (r, s) without a partition; no pair
    # lies past r or s = n, since n singleton parts of either kind partition
    rng = random.Random(61)
    for _ in range(12):
        n = rng.randint(0, 6)
        H = random_graph(rng, n)
        failing = {
            (r, s)
            for r in range(n + 1)
            for s in range(n + 1)
            if not brute_partitionable(H, r, s)
        }
        assert clique_spectrum(H).pairs == failing, H.edges


@pytest.mark.parametrize(
    "H",
    [complete_graph(n) for n in range(1, 7)]
    + [
        complement(PowerCycleParams(h, t).graph())
        for h, t in [(5, 1), (6, 1), (7, 1), (7, 2), (8, 1), (8, 2), (8, 3)]
    ],
)
def test_dense_spectra_match_the_brute_force_staircase(H):
    # row r's boundary b has an (r, b)-partition and no (r, b - 1)-partition,
    # and the rows close with an empty one
    spec = clique_spectrum(H)
    rows = [sum(1 for r, _ in spec.pairs if r == k) for k in range(H.n + 2)]
    close = rows.index(0)
    assert not any(rows[close:])
    for r, b in enumerate(rows[: close + 1]):
        assert brute_partitionable(H, r, b), (H.edges, r, b)
        assert b == 0 or not brute_partitionable(H, r, b - 1), (H.edges, r, b)


# (h, t) -> partitions the staircase walk finds on C_h^t
WALK_JUMPS = {(13, 2): 5, (21, 3): 6, (24, 3): 4}


@pytest.mark.parametrize("h, t", WALK_JUMPS)
def test_spectrum_walk_refutes_once_per_row(monkeypatch, h, t):
    # the staircase walk jumps s to the clique count of each partition it
    # finds, and stops each of the chi nonempty rows with one refutation
    answers = []

    def counted(H, r, s):
        answers.append(find_partition(H, r, s))
        return answers[-1]

    monkeypatch.setattr(spectrum, "find_partition", counted)
    params = PowerCycleParams(h, t)
    spec = power_cycle_spectrum(params)
    assert answers.count(None) == len({r for r, _ in spec.pairs}) == params.chi
    assert len(answers) - answers.count(None) == WALK_JUMPS[h, t]


def test_extreme_points_incomparable():
    rng = random.Random(47)
    for _ in range(20):
        H = random_graph(rng, rng.randint(1, 8))
        spec = clique_spectrum(H)
        pts = spec.extreme_points
        for i, (r1, s1) in enumerate(pts):
            for r2, s2 in pts[i + 1 :]:
                assert not (r1 <= r2 and s1 <= s2)
                assert not (r2 <= r1 and s2 <= s1)


def test_gamma_c5_at_half():
    params = PowerCycleParams(5, 1)
    assert gamma(power_cycle_spectrum(params), Fraction(1, 2)) == Fraction(1, 4)
    # all three branches tie at 1/4; the closed form labels the tie by its first row
    assert gamma_closed_with_branch(params, Fraction(1, 2)) == (Fraction(1, 4), "a=0")


def test_gamma_full_spectrum_equals_extreme_only():
    rng = random.Random(53)
    for _ in range(10):
        H = random_graph(rng, rng.randint(2, 8))
        spec = clique_spectrum(H)
        if not spec.extreme_points:
            continue
        for k in range(0, 11):
            p = Fraction(k, 10)
            full = min(g_krs(r, s, p) for r, s in spec.pairs if (r, s) != (0, 0))
            assert gamma(spec, p) == full


def test_gamma_concave_on_grid():
    spec = power_cycle_spectrum(PowerCycleParams(9, 1))
    grid = [Fraction(k, 60) for k in range(61)]
    values = [gamma(spec, p) for p in grid]
    for i in range(len(grid) - 2):
        assert values[i + 1] >= (values[i] + values[i + 2]) / 2


def test_gamma_endpoints():
    spec = power_cycle_spectrum(PowerCycleParams(8, 1))
    assert gamma(spec, Fraction(0)) == 0
    assert gamma(spec, Fraction(1)) == 0


@pytest.mark.parametrize("p", [Fraction(3, 2), Fraction(-1, 4), 1.5])
def test_gamma_rejects_p_outside_unit_interval(p):
    spec = power_cycle_spectrum(PowerCycleParams(8, 1))
    with pytest.raises(ParameterDomainError):
        gamma(spec, p)
    with pytest.raises(ParameterDomainError):
        g_krs(1, 1, p)


def test_gamma_branch_switches():
    spec = power_cycle_spectrum(PowerCycleParams(8, 1))
    # the minimum moves from the (1, ell(1)-1) pair to the (0, ell(0)-1) pair
    low, high = Fraction(1, 4), Fraction(3, 4)
    assert gamma(spec, low) == g_krs(1, 2, low) < g_krs(0, 3, low)
    assert gamma(spec, high) == g_krs(0, 3, high) < g_krs(1, 2, high)


def test_gamma_refuses_empty_spectrum():
    spec = clique_spectrum(Graph.from_edges(0, []))
    assert spec.extreme_points == ()
    with pytest.raises(ParameterDomainError, match="empty spectrum"):
        gamma(spec, Fraction(1, 2))
    # K_1's spectrum is {(0, 0)}: g_krs_min checks every pair it is given,
    # so gamma refuses it with a typed error, not a ZeroDivisionError
    spec = clique_spectrum(Graph(1, frozenset()))
    assert spec.extreme_points == ((0, 0),)
    with pytest.raises(ParameterDomainError, match=r"r \+ s >= 1"):
        gamma(spec, Fraction(1, 2))
