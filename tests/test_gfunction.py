"""Simplex optimization of the rate form: exact and numeric paths."""

import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edcycles.crg import (
    BLACK,
    EDGE_COLORS,
    VERTEX_COLORS,
    WHITE,
    Crg,
    component_sets,
    crg_from_json,
    crg_from_pairs,
    crg_to_json,
    k_rs,
    random_crg,
    standard_corpus,
    sub_crg,
)
from edcycles.errors import ParameterDomainError, SizeExceededError
from edcycles.gfunction import (
    _integer_rates,
    _solve_face,
    degree_report,
    g_endpoint,
    g_krs,
    g_value,
    is_p_core,
    rate_matrix,
)


def grid_minimum_two_vertices(M, resolution=10**4) -> float:
    """Brute grid oracle over the 1-simplex."""
    best = None
    for k in range(resolution + 1):
        x0 = k / resolution
        x1 = 1.0 - x0
        value = M[0][0] * x0 * x0 + 2 * M[0][1] * x0 * x1 + M[1][1] * x1 * x1
        if best is None or value < best:
            best = value
    return best


def random_feasible_point(rng, n):
    cuts = sorted(rng.random() for _ in range(n - 1))
    points = [0.0] + cuts + [1.0]
    return [points[i + 1] - points[i] for i in range(n)]


@pytest.mark.parametrize("r,s", [(1, 0), (0, 1), (1, 1), (2, 3), (5, 5), (0, 4)])
@pytest.mark.parametrize("p", [Fraction(1, 10), Fraction(1, 2), Fraction(7, 10)])
def test_all_gray_closed_form(r, s, p):
    gv = g_value(k_rs(r, s), p)
    assert gv.value == g_krs(r, s, p)
    assert gv.value == 1 / (r / p + s / (1 - p))
    assert sum(gv.weights) == 1
    assert all(w >= 0 for w in gv.weights)


def test_single_vertices():
    p = Fraction(2, 7)
    assert g_value(k_rs(1, 0), p).value == p
    assert g_value(k_rs(0, 1), p).value == 1 - p


def test_k11_is_p_one_minus_p():
    for p in (Fraction(1, 3), Fraction(1, 7), Fraction(4, 5)):
        assert g_value(k_rs(1, 1), p).value == p * (1 - p)


def test_two_blacks_white_edge_against_grid_oracle():
    K = crg_from_pairs((BLACK, BLACK), [(0, 1, WHITE)])
    p = Fraction(1, 3)
    gv = g_value(K, p)
    assert gv.value == Fraction(1, 2)
    assert gv.weights == (Fraction(1, 2), Fraction(1, 2))
    M = [[float(v) for v in row] for row in rate_matrix(K, 1 / 3).entries]
    assert abs(grid_minimum_two_vertices(M) - 0.5) < 1e-7


def test_indefinite_form_grid_oracle():
    # white pair joined by a black edge: the form is indefinite for small p
    # and the optimum sits at a simplex vertex
    K = crg_from_pairs((WHITE, WHITE), [(0, 1, BLACK)])
    p = Fraction(1, 5)
    gv = g_value(K, p)
    assert gv.value == p
    M = [[float(v) for v in row] for row in rate_matrix(K, 0.2).entries]
    assert abs(grid_minimum_two_vertices(M) - 0.2) < 1e-7


def test_flat_optimal_face_with_singular_system():
    # identical rows make the pair face singular; the whole segment is
    # optimal and the vertex candidates must still deliver the value
    K = crg_from_pairs((WHITE, WHITE), [(0, 1, WHITE)])
    for p in (Fraction(1, 3), Fraction(1, 2), Fraction(4, 5)):
        gv = g_value(K, p)
        assert gv.value == p
        assert len(gv.support) == 1
    K3 = crg_from_pairs(
        (WHITE, WHITE, WHITE), [(0, 1, WHITE), (0, 2, WHITE), (1, 2, WHITE)]
    )
    assert g_value(K3, Fraction(2, 7)).value == Fraction(2, 7)


def test_three_vertex_grid_oracle():
    # vectorized sweep of the 2-simplex against the exact optimum
    import numpy as np

    rng = random.Random(61)
    resolution = 400
    ii, jj = np.meshgrid(
        np.arange(resolution + 1), np.arange(resolution + 1), indexing="ij"
    )
    keep = ii + jj <= resolution
    x0 = (ii[keep] / resolution).astype(float)
    x1 = (jj[keep] / resolution).astype(float)
    x2 = 1.0 - x0 - x1
    for _ in range(12):
        K = random_crg(rng, 3)
        p = Fraction(rng.randint(1, 9), 10)
        M = [[float(v) for v in row] for row in rate_matrix(K, float(p)).entries]
        values = (
            M[0][0] * x0 * x0
            + M[1][1] * x1 * x1
            + M[2][2] * x2 * x2
            + 2 * (M[0][1] * x0 * x1 + M[0][2] * x0 * x2 + M[1][2] * x1 * x2)
        )
        exact = float(g_value(K, p).value)
        assert values.min() >= exact - 1e-12
        assert values.min() - exact < 1e-4


def test_value_consistent_with_weights():
    rng = random.Random(23)
    for _ in range(25):
        K = random_crg(rng, rng.randint(1, 7))
        p = Fraction(rng.randint(1, 9), 10)
        gv = g_value(K, p)
        M = rate_matrix(K, p).entries
        direct = sum(
            M[i][j] * gv.weights[i] * gv.weights[j]
            for i in range(K.n)
            for j in range(K.n)
        )
        assert direct == gv.value
        assert sum(gv.weights) == 1
        assert gv.support == tuple(i for i, w in enumerate(gv.weights) if w > 0)


def test_component_recombination_identity():
    rng = random.Random(31)
    p = Fraction(1, 4)
    for _ in range(20):
        K = random_crg(rng, rng.randint(2, 7))
        joint = g_value(K, p, decompose=False).value
        split = g_value(K, p, decompose=True).value
        assert joint == split
        recombined = 1 / sum(
            1 / g_value(sub_crg(K, vs), p).value for vs in component_sets(K)
        )
        assert joint == recombined


def test_random_feasible_points_never_beat_optimum():
    rng = random.Random(37)
    for _ in range(15):
        K = random_crg(rng, rng.randint(2, 6))
        p = rng.choice((0.25, 0.5, 0.75))
        gv = g_value(K, Fraction(p))
        M = [[float(v) for v in row] for row in rate_matrix(K, p).entries]
        for _ in range(50):
            x = random_feasible_point(rng, K.n)
            value = sum(
                M[i][j] * x[i] * x[j] for i in range(K.n) for j in range(K.n)
            )
            assert value >= float(gv.value) - 1e-12


def test_numeric_weights_form_a_distribution():
    for K in standard_corpus(5, count=20):
        gv = g_value(K, 0.35, mode="numeric")
        assert abs(sum(gv.weights) - 1) <= 1e-12
        assert all(w >= 0 for w in gv.weights)
        assert gv.mode == "numeric"


def test_exact_numeric_agreement_on_corpus():
    for K in standard_corpus(71, count=40):
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            exact = g_value(K, p).value
            numeric = g_value(K, float(p), mode="numeric").value
            assert abs(float(exact) - numeric) <= 1e-9, (K, p)


def test_exact_mode_rejects_endpoints_and_oversize():
    with pytest.raises(ParameterDomainError):
        g_value(k_rs(1, 1), Fraction(0))
    # one sweep bound, 14 vertices, for every exact route
    path13 = crg_from_pairs((BLACK,) * 13, [(i, i + 1, BLACK) for i in range(12)])
    assert g_value(path13, Fraction(1, 2)).value == Fraction(1, 14)  # 1/(2 alpha(P_13))
    path15 = crg_from_pairs((BLACK,) * 15, [(i, i + 1, BLACK) for i in range(14)])
    message = "support sweep over 15 vertices exceeds bound 14"
    for solve in (
        lambda: g_value(path15, Fraction(1, 2)),
        lambda: g_endpoint(path15, 0),
        lambda: is_p_core(path15, Fraction(1, 2)),
    ):
        with pytest.raises(SizeExceededError, match=message):
            solve()


def test_g_endpoint_conventions():
    assert g_endpoint(k_rs(1, 0), 0) == 0
    assert g_endpoint(k_rs(0, 3), 0) == Fraction(1, 3)
    assert g_endpoint(k_rs(1, 1), 0) == 0
    assert g_endpoint(k_rs(1, 1), 1) == 0
    assert g_endpoint(k_rs(4, 0), 1) == Fraction(1, 4)
    with pytest.raises(ParameterDomainError):
        g_endpoint(k_rs(1, 1), Fraction(1, 2))


def test_g_endpoint_with_singular_pair_face():
    # black pair joined by a black edge at p=0: the pair face is flat and
    # singular, the value comes from the vertices
    K = crg_from_pairs((BLACK, BLACK), [(0, 1, BLACK)])
    assert g_endpoint(K, 0) == 1


def test_g_krs_matches_endpoint_conventions():
    assert g_krs(1, 1, 0) == 0
    assert g_krs(0, 3, 0) == Fraction(1, 3)
    assert g_krs(3, 0, 1) == Fraction(1, 3)
    assert g_krs(2, 1, 1) == 0


def test_degree_report_all_gray():
    p = Fraction(1, 3)
    K = k_rs(2, 2)
    gv = g_value(K, p)
    report = degree_report(K, gv)
    for v in range(K.n):
        assert report.gray[v] == 1 - gv.weights[v]
        assert report.gray_neighbor_count[v] == K.n - 1


def test_degree_report_k11_values():
    K = k_rs(1, 1)
    gv = g_value(K, Fraction(1, 3))
    assert gv.weights == (Fraction(2, 3), Fraction(1, 3))
    report = degree_report(K, gv)
    assert report.white[0] == Fraction(2, 3)
    assert report.gray[0] == Fraction(1, 3)


def test_degree_report_partition_of_weight():
    rng = random.Random(41)
    for _ in range(20):
        K = random_crg(rng, rng.randint(1, 7))
        gv = g_value(K, Fraction(2, 5))
        report = degree_report(K, gv)
        for v in range(K.n):
            assert report.gray[v] + report.white[v] + report.black[v] == 1


def test_degree_report_codegree():
    K = k_rs(1, 2)
    gv = g_value(K, Fraction(1, 2))
    report = degree_report(K, gv)
    # all-gray triangle: common gray neighborhood of a pair is the third vertex
    assert report.gray_codegree[(0, 1)] == gv.weights[2]
    assert report.gray_codegree[(0, 2)] == gv.weights[1]
    assert report.gray_codegree[(1, 2)] == gv.weights[0]


def gauss_jordan_reference(M, support):
    """Reference face solver: Gauss-Jordan over Fractions on M_T y = 1.

    Returns (det M_T, y), or None when M_T is singular."""
    m = len(support)
    aug = [[Fraction(M[i][j]) for j in support] + [Fraction(1)] for i in support]
    det = Fraction(1)
    for col in range(m):
        pivot = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
            det = -det
        det *= aug[col][col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(m):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return det, [row[m] for row in aug]


@pytest.mark.parametrize("p", [Fraction(1, 4), Fraction(37, 101), 0.3])
def test_integer_face_solver_matches_fraction_reference(p):
    rng = random.Random(97)
    exact_p = Fraction(p)
    seen = {"singular": 0, "negative": 0, "feasible": 0}
    cases = [
        # two white vertices joined by a white edge: identical rows
        crg_from_pairs((WHITE, WHITE), [(0, 1, WHITE)]),
        # white pair joined by a black edge: indefinite, negative solution
        crg_from_pairs((WHITE, WHITE), [(0, 1, BLACK)]),
    ]
    cases += [random_crg(rng, rng.randint(1, 7)) for _ in range(40)]
    for K in cases:
        M = rate_matrix(K, exact_p).entries
        rates, scale = _integer_rates(K, exact_p)
        assert scale == exact_p.denominator
        assert rates == [[v * scale for v in row] for row in M]
        for size in range(1, K.n + 1):
            for support in itertools.combinations(range(K.n), size):
                if size > 3 and rng.random() < 0.7:
                    continue
                reference = gauss_jordan_reference(M, support)
                face = _solve_face(rates, support)
                if reference is None:
                    assert face is None, (K, support)
                    seen["singular"] += 1
                    continue
                det, y = reference
                d, u = face
                # d = |det A_T| for A = scale * M, and u = d * A_T^-1 1
                assert d == abs(det) * scale**size
                assert [Fraction(x, d) for x in u] == [v / scale for v in y]
                feasible = min(u) >= 0
                assert feasible == all(v >= 0 for v in y)
                if not feasible:
                    seen["negative"] += 1
                    continue
                seen["feasible"] += 1
                assert Fraction(d, scale * sum(u)) == 1 / sum(y)
                assert [Fraction(x, sum(u)) for x in u] == [v / sum(y) for v in y]
    assert min(seen.values()) > 0, seen


@st.composite
def crgs(draw, max_vertices):
    n = draw(st.integers(1, max_vertices))
    vertex_colors = draw(st.lists(st.sampled_from(VERTEX_COLORS), min_size=n, max_size=n))
    m = n * (n - 1) // 2
    edge_colors = draw(st.lists(st.sampled_from(EDGE_COLORS), min_size=m, max_size=m))
    return Crg(n, tuple(vertex_colors), tuple(edge_colors))


exact_ps = st.fractions(min_value=Fraction(1, 50), max_value=Fraction(49, 50), max_denominator=60)
few_examples = settings(derandomize=True, deadline=None, max_examples=40)


@few_examples
@given(data=st.data(), K=crgs(6), p=exact_ps)
def test_exact_g_invariant_under_relabelling(data, K, p):
    # K' puts vertex perm[i] of K at position i.  Ties between optimal
    # points go to the lowest bitmask, which depends on the labels, so the
    # weights of K' are checked to be an optimum of K rather than equal.
    perm = data.draw(st.permutations(range(K.n)))
    pairs = [(i, j, K.edge_color(perm[i], perm[j])) for i in range(K.n) for j in range(i + 1, K.n)]
    relabelled = crg_from_pairs([K.vertex_colors[v] for v in perm], pairs)
    gv, gr = g_value(K, p), g_value(relabelled, p)
    assert gr.value == gv.value
    x = [Fraction(0)] * K.n
    for i, v in enumerate(perm):
        x[v] = gr.weights[i]
    M = rate_matrix(K, p).entries
    assert sum(x) == 1 and min(x) >= 0
    assert sum(M[i][j] * x[i] * x[j] for i in range(K.n) for j in range(K.n)) == gv.value


@few_examples
@given(K=crgs(7), p=exact_ps)
def test_joint_and_decomposed_g_agree(K, p):
    assert g_value(K, p, decompose=False).value == g_value(K, p).value


@settings(derandomize=True, deadline=None, max_examples=60)
@given(K=crgs(9))
def test_crg_json_roundtrip_property(K):
    assert crg_from_json(crg_to_json(K)) == K
    assert crg_from_json(json.dumps(crg_to_json(K))) == K
