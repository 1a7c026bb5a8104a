"""Simplex optimization of the rate form: exact and numeric paths."""

import itertools
import json
import random
from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edcycles import gfunction
from edcycles.crg import (
    BLACK,
    EDGE_COLORS,
    GRAY,
    VERTEX_COLORS,
    WHITE,
    Crg,
    color_swap,
    component_sets,
    crg_from_json,
    crg_from_pairs,
    crg_to_json,
    k_rs,
    random_crg,
    rate_matrix,
    standard_corpus,
    sub_crg,
)
from edcycles.errors import ParameterDomainError, SizeExceededError
from edcycles.gfunction import (
    GValue,
    _solve_face,
    _stationary_points,
    degree_report,
    g_endpoint,
    g_krs,
    g_krs_min,
    g_value,
    is_p_core,
    p_core_structure_ok,
)


def fraction_rates(K, p):
    """M(p) by the rate rule, independently of crg.rate_matrix: p on white,
    1 - p on black and 0 on gray, with the diagonal set by the vertex color."""
    p = Fraction(p)
    rule = {WHITE: p, BLACK: 1 - p, GRAY: Fraction(0)}
    return [
        [rule[K.vertex_colors[i] if i == j else K.edge_color(i, j)] for j in range(K.n)]
        for i in range(K.n)
    ]


def float_rates(K, p):
    """rate_matrix(K, p) as floats, each entry x / b correctly rounded."""
    rows, b = rate_matrix(K, p)
    return [[x / b for x in row] for row in rows]


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
    M = float_rates(K, 1 / 3)
    assert abs(grid_minimum_two_vertices(M) - 0.5) < 1e-7


def test_indefinite_form_grid_oracle():
    # white pair joined by a black edge: the form is indefinite for small p
    # and the optimum sits at a simplex vertex
    K = crg_from_pairs((WHITE, WHITE), [(0, 1, BLACK)])
    p = Fraction(1, 5)
    gv = g_value(K, p)
    assert gv.value == p
    M = float_rates(K, 0.2)
    assert abs(grid_minimum_two_vertices(M) - 0.2) < 1e-7


def test_flat_optimal_face_with_singular_system():
    # identical rows make the pair face singular; the whole segment is
    # optimal and the vertex candidates must still deliver the value
    K = crg_from_pairs((WHITE, WHITE), [(0, 1, WHITE)])
    for p in (Fraction(1, 3), Fraction(1, 2), Fraction(4, 5)):
        gv = g_value(K, p)
        assert gv.value == p
        assert gv.support == (0,)  # ties go to the lowest bitmask
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
        M = float_rates(K, float(p))
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
        rows, b = rate_matrix(K, p)
        direct = sum(
            rows[i][j] * gv.weights[i] * gv.weights[j]
            for i in range(K.n)
            for j in range(K.n)
        )
        assert direct == b * gv.value
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
        M = float_rates(K, p)
        for _ in range(50):
            x = random_feasible_point(rng, K.n)
            value = sum(
                M[i][j] * x[i] * x[j] for i in range(K.n) for j in range(K.n)
            )
            assert value >= float(gv.value) - 1e-12


def test_numeric_weights_form_a_distribution():
    for K in standard_corpus(5)[:20]:
        gv = g_value(K, 0.35, mode="numeric")
        assert abs(sum(gv.weights) - 1) <= 1e-12
        assert all(w >= 0 for w in gv.weights)
        assert gv.mode == "numeric"


def test_exact_numeric_agreement_on_corpus():
    for K in standard_corpus(71)[:40]:
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            exact = g_value(K, p).value
            numeric = g_value(K, float(p), mode="numeric").value
            assert abs(float(exact) - numeric) <= 1e-9, (K, p)


def test_numeric_start_with_closed_gap_takes_no_step(monkeypatch):
    # On one vertex both starts are the optimum, whose Frank-Wolfe gap is 0:
    # no step is tried, where step halving would project about 60 times.
    projections = []
    project = gfunction._project_simplex
    monkeypatch.setattr(gfunction, "_project_simplex", lambda x: projections.append(x) or project(x))
    gv = g_value(k_rs(1, 0), Fraction(1, 4), mode="numeric")
    assert projections == []
    assert gv.value == 0.25 and gv.weights == (1.0,)


def test_numeric_mode_takes_the_exact_domain():
    for p in (0, 1, Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(ParameterDomainError):
            g_value(k_rs(1, 1), p, mode="numeric")
    with pytest.raises(ParameterDomainError, match="unknown mode"):
        g_value(k_rs(1, 1), Fraction(1, 2), mode="float")


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


P_ENTRIES = {
    "g_value": lambda p: g_value(k_rs(1, 1), p),
    "g_value_numeric": lambda p: g_value(k_rs(1, 1), p, mode="numeric"),
    "is_p_core": lambda p: is_p_core(k_rs(1, 1), p),
    "g_krs": lambda p: g_krs(1, 1, p),
    "g_krs_min": lambda p: g_krs_min([(1, 1)], p),
}


@pytest.mark.parametrize("p", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("entry", list(P_ENTRIES.values()), ids=list(P_ENTRIES))
def test_non_finite_p_is_a_domain_error(entry, p):
    with pytest.raises(ParameterDomainError):
        entry(p)


@pytest.mark.parametrize("p", [True, False])
@pytest.mark.parametrize(
    "entry",
    [*P_ENTRIES.values(), lambda p: g_endpoint(k_rs(0, 2), p)],
    ids=[*P_ENTRIES, "g_endpoint"],
)
def test_bool_p_is_a_domain_error(entry, p):
    # True and False are the ints 1 and 0 to Python, but never a p
    with pytest.raises(ParameterDomainError):
        entry(p)


def test_g_krs_matches_endpoint_conventions():
    assert g_krs(1, 1, 0) == 0
    assert g_krs(0, 3, 0) == Fraction(1, 3)
    assert g_krs(3, 0, 1) == Fraction(1, 3)
    assert g_krs(2, 1, 1) == 0


def test_g_krs_min_is_the_first_least_g_krs():
    rng = random.Random(83)
    ps = [Fraction(0), Fraction(1), Fraction(1, 2), 0.3, 0.75]
    ps += [Fraction(rng.randint(1, q - 1), q) for q in rng.choices(range(2, 200), k=40)]
    for p in ps:
        for _ in range(10):
            pairs = [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(rng.randint(1, 6))]
            pairs = [(r, s) for r, s in pairs if r + s] or [(1, 0)]
            values = [g_krs(r, s, p) for r, s in pairs]
            least = min(values)
            assert g_krs_min(pairs, p) == (least, values.index(least)), (pairs, p)


def test_g_krs_min_keeps_the_first_of_tied_pairs():
    # C_5's three spectrum pairs tie at 1/2; at p = 0 every pair with an
    # independent part vanishes, at p = 1 every pair with a clique
    assert g_krs_min([(0, 2), (1, 1), (2, 0)], Fraction(1, 2)) == (Fraction(1, 4), 0)
    assert g_krs_min([(0, 2), (1, 1), (2, 0)], 0) == (Fraction(0), 1)
    assert g_krs_min([(2, 0), (0, 2), (1, 1)], 1) == (Fraction(0), 1)
    assert g_krs_min([(3, 0), (2, 0)], 1) == (Fraction(1, 3), 0)


def test_g_krs_min_refuses_bad_pairs():
    for pairs in ([], [(1, 1), (0, 0)], [(2, -1)]):
        with pytest.raises(ParameterDomainError):
            g_krs_min(pairs, Fraction(1, 3))


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
    assert report.gray[0] == Fraction(1, 3)


def test_degree_report_gray_on_random_crgs():
    rng = random.Random(41)
    for _ in range(20):
        K = random_crg(rng, rng.randint(1, 7))
        gv = g_value(K, Fraction(2, 5))
        report = degree_report(K, gv)
        for v in range(K.n):
            gray = [w for w in range(K.n) if w != v and K.edge_color(v, w) == GRAY]
            assert report.gray[v] == sum(gv.weights[w] for w in gray)
            assert report.gray_neighbor_count[v] == len(gray)
    # Float weights: each vertex adds its gray neighbours' weights in
    # ascending order from 0.0, bit for bit as accumulation over K.pairs().
    for _ in range(40):
        K = random_crg(rng, rng.randint(1, 10))
        weights = tuple(rng.random() / 7 for _ in range(K.n))
        gray = [0.0] * K.n
        for i, j, color in K.pairs():
            if color == GRAY:
                gray[i] += weights[j]
                gray[j] += weights[i]
        report = degree_report(K, GValue(0.0, weights, (), "numeric"))
        assert [x.hex() for x in report.gray] == [x.hex() for x in gray], K


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


def positive_definite(M, support) -> bool:
    """Sylvester's criterion over Fractions: every leading principal minor
    of M_T is positive."""
    return all(
        (reference := gauss_jordan_reference(M, support[:k])) is not None and reference[0] > 0
        for k in range(1, len(support) + 1)
    )


@pytest.mark.parametrize("p", [Fraction(1, 4), Fraction(37, 101), 0.3])
def test_integer_face_solver_matches_fraction_reference(p):
    # _solve_face solves exactly the positive definite faces, and those
    # include faces whose stationary point has a negative entry.
    rng = random.Random(97)
    exact_p = Fraction(p)
    seen = {"not_pd": 0, "negative": 0, "feasible": 0}
    cases = [
        # two white vertices joined by a white edge: identical rows
        crg_from_pairs((WHITE, WHITE), [(0, 1, WHITE)]),
        # white pair joined by a black edge: indefinite, negative solution
        crg_from_pairs((WHITE, WHITE), [(0, 1, BLACK)]),
    ]
    cases += [random_crg(rng, rng.randint(1, 7)) for _ in range(40)]
    for K in cases:
        M = fraction_rates(K, exact_p)
        rates, scale = rate_matrix(K, exact_p)
        assert scale == exact_p.denominator
        assert rates == tuple(tuple(v * scale for v in row) for row in M)
        for size in range(1, K.n + 1):
            for support in itertools.combinations(range(K.n), size):
                if size > 3 and rng.random() < 0.7:
                    continue
                face = _solve_face(rates, support)
                if not positive_definite(M, support):
                    assert face is None, (K, support)
                    seen["not_pd"] += 1
                    continue
                det, y = gauss_jordan_reference(M, support)
                d, u = face
                # d = det A_T for A = scale * M, and u = d * A_T^-1 1
                assert d == det * scale**size
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


def pivoting_bareiss(rates, support):
    """General integer face solver, independent of the positive definite
    rule: Bareiss elimination of [A_T | 1] with a search for a nonzero pivot.
    Returns (d, u) with d = |det A_T| > 0 and u = d * A_T^-1 1, or None when
    A_T is singular."""
    rows = [[rates[i][j] for j in support] + [1] for i in support]
    upper = []
    prev = 1
    while rows:
        k = next((k for k, row in enumerate(rows) if row[0]), None)
        if k is None:
            return None
        pivot = rows.pop(k)
        head, tail = pivot[0], pivot[1:]
        rows = [[(x * head - row[0] * y) // prev for x, y in zip(row[1:], tail)] for row in rows]
        upper.append(pivot)
        prev = head
    d = prev
    u = []
    for row in reversed(upper):
        u.insert(0, (d * row[-1] - sum(a * b for a, b in zip(row[1:-1], u))) // row[0])
    if d < 0:
        return -d, [-x for x in u]
    return d, u


def reference_sweep(rates, scale, vertices):
    """The unpruned support sweep: (bits, value, u) for every support over
    vertices, in bitmask order, whose face is invertible with a nonnegative
    stationary point."""
    m = len(vertices)
    for bits in range(1, 1 << m):
        face = pivoting_bareiss(rates, [vertices[i] for i in range(m) if bits >> i & 1])
        if face is not None and min(face[1]) >= 0:
            d, u = face
            yield bits, Fraction(d, scale * sum(u)), u


def reference_g_value(K, p, blocks=None) -> GValue:
    """g_value from the unpruned sweep, over the given independently solved
    blocks (the whole CRG by default), with ties to the lowest bitmask."""
    rates, scale = rate_matrix(K, p)
    pieces = []
    for block in blocks or [range(K.n)]:
        bits, value, u = min(reference_sweep(rates, scale, block), key=itemgetter(1))
        # a lowest-bitmask winner carries no zero weight (see the proof at
        # gfunction._stationary_points), so its support is its positive support
        assert min(u) > 0, (K, p, block)
        support = [v for i, v in enumerate(block) if bits >> i & 1]
        pieces.append((value, support, u))
    g = 1 / sum(1 / value for value, _, _ in pieces)
    weights = [Fraction(0)] * K.n
    for value, support, u in pieces:
        for v, x in zip(support, u):
            weights[v] = Fraction(x, sum(u)) * g / value
    return GValue(g, tuple(weights), tuple(v for v in range(K.n) if weights[v] > 0), "exact")


def reference_is_p_core(K, p) -> bool:
    """is_p_core from the unpruned sweep: the full face is feasible and beats
    the best proper face."""
    full = (1 << K.n) - 1
    g_full, g_rest = None, None
    for bits, value, _ in reference_sweep(*rate_matrix(K, p), range(K.n)):
        if bits == full:
            g_full = value
        elif g_rest is None or value < g_rest:
            g_rest = value
    return g_full is not None and (g_rest is None or g_rest > g_full)


def clashing_or_tied_pairs(K, p, support):
    M, _ = rate_matrix(K, p)
    return [
        (i, j) for i, j in itertools.combinations(support, 2) if M[i][i] + M[j][j] <= 2 * M[i][j]
    ]


@pytest.fixture
def bordered_faces(monkeypatch):
    """The supports gfunction._border tries, its face plus the new vertex,
    in call order."""
    bordered = []
    border = gfunction._border

    def recording(rates, face, w):
        bordered.append([v for v, *_ in face] + [w])
        return border(rates, face, w)

    monkeypatch.setattr(gfunction, "_border", recording)
    return bordered


SWEEP_PS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(37, 101), 0.3)


def styled_crg(rng, n, style):
    """A random CRG on n vertices: uniform edge colors (style 0), gray-heavy
    (style 1) or all gray (style 2)."""
    if style == 0:
        return random_crg(rng, n)
    if style == 1:
        return random_crg(rng, n, gray_weight=4.0)
    return crg_from_pairs([rng.choice(VERTEX_COLORS) for _ in range(n)])


def test_pruned_sweep_matches_unpruned_reference(bordered_faces):
    # The sweep solves only positive definite faces and skips every support
    # holding a clashing or tied pair, and is_p_core decides from the full
    # face alone at a rational p; none of this may change a value, a weight,
    # a support or a verdict against the sweep over all 2^n - 1 supports.
    # The unpruned winner itself holds neither kind of pair, and is_p_core
    # borders nothing when the full face holds one.
    rng = random.Random(2027)
    verdicts = {True: 0, False: 0}
    pruned_full = 0
    for k in range(2016):
        n, p = rng.randint(1, 7), SWEEP_PS[k % len(SWEEP_PS)]
        K = styled_crg(rng, n, k // len(SWEEP_PS) % 3)
        joint = reference_g_value(K, p)
        assert g_value(K, p, decompose=False) == joint, (K, p)
        blocks = component_sets(K)
        decomposed = joint if len(blocks) == 1 else reference_g_value(K, p, blocks)
        assert g_value(K, p) == decomposed, (K, p)
        bordered_faces.clear()
        verdict = is_p_core(K, p)
        assert verdict == reference_is_p_core(K, p), (K, p)
        verdicts[verdict] += 1
        assert clashing_or_tied_pairs(K, p, joint.support) == []
        if clashing_or_tied_pairs(K, p, range(K.n)):
            assert bordered_faces == [], (K, p)
            pruned_full += 1
    assert min(verdicts.values()) > 100 and pruned_full > 500, (verdicts, pruned_full)


def test_unpruned_winning_support_is_positive_definite():
    # The lemma behind the sweep: the rate matrix is positive semidefinite
    # on a minimizer's positive support, so positive definite on the
    # winner's, whose face is invertible.
    rng = random.Random(1968)
    for k in range(450):
        n, p = rng.randint(1, 7), SWEEP_PS[k % len(SWEEP_PS)]
        K = styled_crg(rng, n, k // len(SWEEP_PS) % 3)
        support = reference_g_value(K, p).support
        assert positive_definite(fraction_rates(K, Fraction(p)), support), (K, p)


def test_rational_is_p_core_solves_at_most_the_full_face(bordered_faces):
    # at most the full face's elimination: its prefixes, in order
    rng = random.Random(1850)
    cases = [k_rs(r, s) for r in range(11) for s in range(11 - r) if r + s]
    cases += [random_crg(rng, n, gray_weight=4.0) for n in range(1, 11) for _ in range(3)]
    verdicts = {True: 0, False: 0}
    for K in cases:
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(37, 101)):
            bordered_faces.clear()
            verdict = is_p_core(K, p)
            prefixes = [list(range(k)) for k in range(1, len(bordered_faces) + 1)]
            assert bordered_faces == prefixes, (K, p)
            assert verdict == reference_is_p_core(K, p), (K, p)
            verdicts[verdict] += 1
    assert min(verdicts.values()) > 20, verdicts


def test_float_is_p_core_is_the_verdict_of_its_exact_value(bordered_faces):
    # A float p is converted to its exact binary rational, as at every other
    # entry point, so a True verdict eliminates the full face alone: its
    # prefixes, in order, and no proper face.
    K = k_rs(2, 1)
    full = [[0], [0, 1], [0, 1, 2]]
    bordered_faces.clear()
    assert is_p_core(K, 0.3)
    assert bordered_faces == full
    bordered_faces.clear()
    assert is_p_core(K, Fraction(0.3))
    assert bordered_faces == full
    rng = random.Random(1012)
    verdicts = {True: 0, False: 0}
    for k in range(300):
        K = styled_crg(rng, rng.randint(1, 6), k // 3 % 3)
        p = (0.1, 0.3, 0.7)[k % 3]
        verdict = is_p_core(K, p)
        assert verdict == is_p_core(K, Fraction(p)), (K, p)
        verdicts[verdict] += 1
    assert min(verdicts.values()) > 20, verdicts


@pytest.mark.parametrize("p", [Fraction(1, 4), Fraction(1, 2), Fraction(37, 101), 0.3], ids=str)
def test_sweep_lists_exactly_the_faces_without_clashing_or_tied_pairs(p):
    # The walk yields each support once that holds no clashing or tied pair,
    # is positive definite and has a nonnegative stationary point.
    rng = random.Random(f"faces:{p}")
    tied = 0
    dropped = {"not_pd": 0, "negative": 0}
    for _ in range(60):
        n = rng.randint(1, 8)
        K = random_crg(rng, n, gray_weight=rng.choice((1.0, 4.0)))
        rates, _ = rate_matrix(K, p)
        M = fraction_rates(K, p)
        pairs = list(itertools.combinations(range(n), 2))
        tied += sum(rates[i][i] + rates[j][j] == 2 * rates[i][j] for i, j in pairs)
        expected = []
        for bits in range(1, 1 << n):
            support = [i for i in range(n) if bits >> i & 1]
            if clashing_or_tied_pairs(K, p, support):
                continue
            if not positive_definite(M, support):
                dropped["not_pd"] += 1
            elif min(gauss_jordan_reference(M, support)[1]) < 0:
                dropped["negative"] += 1
            else:
                expected.append(bits)
        walked = [bits for bits, _, _ in _stationary_points(rates, range(n))]
        assert sorted(walked) == expected, (K, p)
    assert tied > 0, tied
    # at p = 1/2 every clash-free face is the identity (see the next test)
    assert p == Fraction(1, 2) or min(dropped.values()) > 0, dropped


def independent_set_count(n, edges) -> int:
    """Independent sets, the empty one included, of a graph on 0..n-1, by
    splitting on the last vertex: leave it out, or take it and drop its
    neighbours."""

    def count(vertices):
        if not vertices:
            return 1
        v, rest = vertices[-1], vertices[:-1]
        return count(rest) + count([u for u in rest if frozenset((u, v)) not in edges])

    return count(list(range(n)))


def test_sweep_at_one_half_lists_the_independent_sets_of_the_non_gray_graph():
    # At p = 1/2 every diagonal entry and every white or black entry of b*M
    # is 1, so each non-gray edge is a tied pair and each gray edge (entry 0)
    # is neither tied nor clashing.
    rng = random.Random(1812)
    for _ in range(80):
        n = rng.randint(1, 9)
        K = random_crg(rng, n, gray_weight=rng.choice((0.5, 1.0, 4.0)))
        edges = {frozenset((i, j)) for i, j, color in K.pairs() if color != GRAY}
        faces = []
        for bits, d, u in _stationary_points(rate_matrix(K, Fraction(1, 2))[0], range(n)):
            support = [i for i in range(n) if bits >> i & 1]
            assert not any(frozenset(e) in edges for e in itertools.combinations(support, 2))
            # the face of an independent set is the identity
            assert (d, u) == (1, [1] * len(support))
            faces.append(bits)
        assert len(set(faces)) == len(faces) == independent_set_count(n, edges) - 1, K


def test_tied_full_face_is_no_p_core_without_a_solve(bordered_faces):
    # Two white vertices on a white edge: A_ii + A_jj = 2 A_ij and the rate
    # form is p at every point of the simplex, so a single vertex ties the
    # full face.
    K = crg_from_pairs([WHITE, WHITE], [(0, 1, WHITE)])
    p = Fraction(1, 3)
    assert clashing_or_tied_pairs(K, p, range(2)) == [(0, 1)]
    assert g_value(K, p).value == p
    bordered_faces.clear()
    assert is_p_core(K, p) is False
    assert bordered_faces == []


@pytest.mark.parametrize("p", [Fraction(1, 4), Fraction(37, 101), 0.3], ids=str)
def test_walk_borders_the_same_solution_as_the_face_solver_and_the_reference(p):
    rng = random.Random(f"walk:{p}")
    yielded = 0
    for _ in range(40):
        n = rng.randint(1, 8)
        K = random_crg(rng, n, gray_weight=rng.choice((1.0, 4.0)))
        rates, scale = rate_matrix(K, p)
        M = fraction_rates(K, p)
        for bits, d, u in _stationary_points(rates, range(n)):
            support = [i for i in range(n) if bits >> i & 1]
            assert (d, u) == _solve_face(rates, support), (K, support)
            det, y = gauss_jordan_reference(M, support)
            assert d == det * scale ** len(support)
            assert [Fraction(x, d) for x in u] == [v / scale for v in y]
            yielded += 1
    assert yielded > 500, yielded


def test_tie_reached_out_of_bitmask_order_goes_to_the_lower_bitmask():
    # Black vertex 0, white vertex 1 on a white edge, at p = 1/4: A = 4 M(p)
    # is [[3, 1], [1, 1]], and the face {0, 1} is PD with u = (0, 2), the
    # point e_1, so it ties the face {1} at 1/4.  The walk reaches {0, 1}
    # (bitmask 3) first, and {1} (bitmask 2) still wins.
    K = crg_from_pairs([BLACK, WHITE], [(0, 1, WHITE)])
    p = Fraction(1, 4)
    walked = list(_stationary_points(rate_matrix(K, p)[0], range(2)))
    assert walked == [(0b01, 3, [1]), (0b11, 2, [0, 2]), (0b10, 1, [1])]
    gv = g_value(K, p, decompose=False)
    assert (gv.value, gv.weights, gv.support) == (p, (0, 1), (1,))


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
    rows, b = rate_matrix(K, p)
    assert sum(x) == 1 and min(x) >= 0
    assert sum(rows[i][j] * x[i] * x[j] for i in range(K.n) for j in range(K.n)) == b * gv.value


@few_examples
@given(K=crgs(7), p=exact_ps)
def test_joint_and_decomposed_g_agree(K, p):
    assert g_value(K, p, decompose=False).value == g_value(K, p).value


@settings(derandomize=True, deadline=None, max_examples=60)
@given(K=crgs(9))
def test_crg_json_roundtrip_property(K):
    assert crg_from_json(crg_to_json(K)) == K
    assert crg_from_json(json.dumps(crg_to_json(K))) == K


@settings(derandomize=True, deadline=None, max_examples=100)
@given(K=crgs(6), p=exact_ps)
def test_g_value_of_color_swap_at_one_minus_p(K, p):
    # value, weights and support all agree: the rate matrices are equal
    assert g_value(color_swap(K), 1 - p) == g_value(K, p)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(K=crgs(5), p=exact_ps | st.just(Fraction(1, 2)))
def test_p_core_structure_law_mirrors_under_color_swap(K, p):
    assert p_core_structure_ok(color_swap(K), 1 - p) == p_core_structure_ok(K, p)
    if p < Fraction(1, 2):  # no black edge, no white edge at a white vertex
        expected = all(
            c == GRAY or (c == WHITE and K.vertex_colors[i] == K.vertex_colors[j] == BLACK)
            for i, j, c in K.pairs()
        )
        assert p_core_structure_ok(K, p) == expected
    if p == Fraction(1, 2):
        assert p_core_structure_ok(K, p) == all(c == GRAY for _, _, c in K.pairs())


@pytest.mark.parametrize("p", [2, -1, Fraction(3, 2)])
def test_p_core_structure_ok_refuses_p_outside_the_unit_interval(p):
    with pytest.raises(ParameterDomainError):
        p_core_structure_ok(k_rs(1, 2), p)
