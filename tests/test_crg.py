"""CRG structure, rate matrices, components, and p-core certification."""

import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edcycles.crg import (
    BLACK,
    CORPUS_SIZE,
    GRAY,
    WHITE,
    color_swap,
    component_sets,
    crg_from_json,
    crg_from_pairs,
    crg_to_json,
    k_a_g,
    k_rs,
    random_crg,
    rate_matrix,
    standard_corpus,
    sub_crg,
)
from edcycles.embed import gray_cycle_crg
from edcycles.errors import ParameterDomainError, SizeExceededError
from edcycles.gfunction import g_value, is_p_core, p_core_structure_ok
from edcycles.graphs import Graph, graph_from_json, power_cycle
from test_gfunction import fraction_rates, reference_g_value


def test_k_rs_shape():
    K = k_rs(2, 3)
    assert K.n == 5
    assert K.vertex_colors == (WHITE, WHITE, BLACK, BLACK, BLACK)
    assert all(color == GRAY for _, _, color in K.pairs())
    assert sum(1 for _ in K.pairs()) == 10


def test_k_rs_rejects_empty():
    with pytest.raises(ParameterDomainError):
        k_rs(0, 0)


def reference_k_rs(r, s):
    return crg_from_pairs((WHITE,) * r + (BLACK,) * s)


def reference_gray_cycle_crg(a, k):
    pairs = []
    for i in range(k):
        for j in range(i + 1, k):
            consecutive = j - i == 1 or (i == 0 and j == k - 1)
            pairs.append((a + i, a + j, GRAY if consecutive else WHITE))
    return crg_from_pairs((WHITE,) * a + (BLACK,) * k, pairs)


def test_k_a_g_builds_k_rs_and_gray_cycles_field_for_field():
    # both are K(a, G), G complete or a cycle; k = 2 is one gray edge
    for r in range(7):
        for s in range(7):
            if r + s:
                assert k_rs(r, s) == reference_k_rs(r, s), (r, s)
    for a in range(4):
        for k in range(2, 12):
            assert gray_cycle_crg(a, k) == reference_gray_cycle_crg(a, k), (a, k)
    with pytest.raises(ParameterDomainError):
        k_a_g(-1, Graph.from_edges(2, []))


@pytest.mark.parametrize("p", [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)])
def test_k_a_g_white_vertices_add_reciprocally(p):
    # each white vertex of K(a, G) meets everything in gray, so it is a
    # component of its own with g = p, and g(K(a, G)) = 1/(a/p + 1/g(K(0, G)));
    # the joint sweep confirms the rule rather than assume it
    graphs = [
        Graph.from_edges(1, []),
        Graph.from_edges(2, []),
        Graph.from_edges(2, [(0, 1)]),
        Graph.from_edges(3, [(0, 1), (1, 2)]),
        power_cycle(4, 1),
        power_cycle(5, 1),
        Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)]),
    ]
    for G in graphs:
        black_part = g_value(k_a_g(0, G), p).value
        for a in range(1, 4):
            joint = g_value(k_a_g(a, G), p, decompose=False).value
            assert joint == 1 / (a / p + 1 / black_part), (G, a, p)


def test_rate_matrix_k11():
    # b * M(p) at p = 1/3: a = 1 on the white vertex, b - a = 2 on the black
    assert rate_matrix(k_rs(1, 1), Fraction(1, 3)) == (((1, 0), (0, 2)), 3)


def test_rate_matrix_single_black():
    assert rate_matrix(k_rs(0, 1), Fraction(1, 5)) == (((4,),), 5)


def test_rate_matrix_white_edge_between_blacks():
    K = crg_from_pairs((BLACK, BLACK), [(0, 1, WHITE)])
    assert rate_matrix(K, Fraction(1, 3)) == (((2, 1), (1, 2)), 3)


def test_rate_matrix_half_is_flat():
    rng = random.Random(3)
    for _ in range(10):
        K = random_crg(rng, rng.randint(1, 6))
        rows, b = rate_matrix(K, Fraction(1, 2))
        assert b == 2
        for i in range(K.n):
            for j in range(K.n):
                assert rows[i][j] in (0, 1)


def test_rate_matrix_complement_consistency():
    # nonzero entries of b * M(p) and b * M(1-p) pair up to b; gray stays 0 in both
    rng = random.Random(5)
    p = Fraction(2, 7)
    for _ in range(20):
        K = random_crg(rng, rng.randint(1, 7))
        M, b = rate_matrix(K, p)
        W, c = rate_matrix(K, 1 - p)
        assert b == c == 7
        for i in range(K.n):
            for j in range(K.n):
                if i != j and K.edge_color(i, j) == GRAY:
                    assert M[i][j] == W[i][j] == 0
                else:
                    assert M[i][j] + W[i][j] == b


@pytest.mark.parametrize("p", [0, Fraction(1, 4), Fraction(1, 2), Fraction(37, 101), 0.3, 1], ids=str)
def test_rate_matrix_is_the_scaled_rate_rule(p):
    exact = Fraction(p)
    rng = random.Random(13)
    for _ in range(30):
        K = random_crg(rng, rng.randint(1, 8))
        rows, b = rate_matrix(K, p)
        assert b == exact.denominator
        assert all(type(x) is int for row in rows for x in row)
        assert rows == tuple(tuple(v * b for v in row) for row in fraction_rates(K, p))
        assert rate_matrix(color_swap(K), 1 - exact) == (rows, b)


def test_rate_matrix_rejects_bad_p():
    with pytest.raises(ParameterDomainError):
        rate_matrix(k_rs(1, 1), Fraction(3, 2))


def test_components_all_gray_is_singletons():
    assert component_sets(k_rs(3, 2)) == [(0,), (1,), (2,), (3,), (4,)]


def test_components_black_edge_joins():
    K = crg_from_pairs((BLACK, BLACK), [(0, 1, BLACK)])
    assert component_sets(K) == [(0, 1)]


def test_components_mixed():
    K = crg_from_pairs((BLACK, BLACK, WHITE), [(0, 1, BLACK)])
    assert component_sets(K) == [(0, 1), (2,)]


def test_components_partition_property():
    rng = random.Random(9)
    for _ in range(30):
        K = random_crg(rng, rng.randint(1, 8))
        sets = component_sets(K)
        flat = sorted(v for s in sets for v in s)
        assert flat == list(range(K.n))
        for vs in sets:
            assert sub_crg(K, vs).n == len(vs)


def test_sub_crg_identity_and_singleton():
    K = k_rs(2, 3)
    assert sub_crg(K, range(5)) == K
    assert sub_crg(K, [0]).vertex_colors == (WHITE,)
    assert sub_crg(K, [0, 1]) == k_rs(2, 0)


def test_sub_crg_keeps_edge_colors():
    K = crg_from_pairs((BLACK, WHITE, BLACK), [(0, 2, BLACK), (1, 2, WHITE)])
    S = sub_crg(K, [1, 2])
    assert S.vertex_colors == (WHITE, BLACK)
    assert S.edge_color(0, 1) == WHITE


def test_sub_crg_rejects_empty():
    with pytest.raises(ParameterDomainError):
        sub_crg(k_rs(1, 1), [])


@pytest.mark.parametrize("i,j", [(0, 3), (3, 0), (-1, 0), (0, -1), (2, 5), (5, 0)])
def test_edge_color_refuses_an_index_outside_the_crg(i, j):
    # an unchecked index would fall on another pair's flat slot
    K = crg_from_pairs([WHITE, BLACK, BLACK], [(1, 2, BLACK), (0, 1, WHITE)])
    assert (K.edge_color(1, 2), K.edge_color(1, 0), K.edge_color(0, 2)) == (BLACK, WHITE, GRAY)
    with pytest.raises(ParameterDomainError, match=rf"pair \({i},{j}\) outside vertices 0\.\.2"):
        K.edge_color(i, j)


def test_edge_color_and_crg_from_pairs_refuse_a_self_pair():
    with pytest.raises(ParameterDomainError, match="no self-pairs"):
        crg_from_pairs((WHITE, BLACK, BLACK)).edge_color(1, 1)
    with pytest.raises(ParameterDomainError, match="no self-pairs"):
        crg_from_pairs((WHITE, BLACK, BLACK), [(1, 1, WHITE)])


def test_pairs_walk_the_edge_colors_in_combinations_order():
    rng = random.Random(29)
    for n in range(1, 10):
        for _ in range(3):
            K = random_crg(rng, n)
            expected = [(i, j, K.edge_color(i, j)) for i, j in itertools.combinations(range(n), 2)]
            assert list(K.pairs()) == expected


def test_colors_is_the_pair_color_matrix_with_vertex_colors_on_the_diagonal():
    rng = random.Random(34)
    cases = [random_crg(rng, n) for n in range(1, 11) for _ in range(3)]
    cases += [k_rs(2, 3), gray_cycle_crg(1, 5)]
    for K in cases:
        colors = K.colors
        assert colors is K.colors
        assert type(colors) is tuple and all(type(row) is tuple for row in colors)
        assert [len(row) for row in colors] == [K.n] * K.n
        assert tuple(colors[v][v] for v in range(K.n)) == K.vertex_colors
        for i, j in itertools.permutations(range(K.n), 2):
            assert colors[i][j] == colors[j][i] == K.edge_color(i, j), (K, i, j)


def test_crg_json_roundtrip():
    rng = random.Random(13)
    for _ in range(20):
        K = random_crg(rng, rng.randint(1, 7))
        blob = crg_to_json(K)
        assert crg_from_json(blob) == K


def test_crg_from_pairs_rejects_out_of_range_index():
    for i, j in [(0, 3), (-1, 1), (5, 0)]:
        with pytest.raises(ParameterDomainError, match=rf"pair \({i},{j}\) outside vertices 0\.\.2"):
            crg_from_pairs((WHITE, BLACK, BLACK), [(i, j, WHITE)])


@pytest.mark.parametrize(
    "pairs",
    [
        [(0, 1, BLACK), (1, 0, WHITE)],  # the same pair, reversed
        [(0, 1, WHITE), (0, 1, WHITE)],  # the same pair and color
        [(0, 2, GRAY), (1, 2, BLACK), (2, 0, BLACK)],
        [(2, 0, BLACK), (0, 2, WHITE)],  # reversed, the larger index first
    ],
)
def test_crg_from_pairs_rejects_a_pair_given_twice(pairs):
    # the message names the pair in increasing order, whichever way it came
    i, j = sorted(pairs[-1][:2])
    with pytest.raises(ParameterDomainError, match=rf"pair \({i},{j}\) given twice"):
        crg_from_pairs((WHITE, BLACK, BLACK), pairs)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("default", ["purple", None, WHITE.upper()])
def test_crg_from_pairs_checks_the_default_at_any_size(n, default):
    with pytest.raises(ParameterDomainError, match="default"):
        crg_from_pairs((WHITE,) * n, default=default)


def test_crg_from_pairs_refuses_a_null_override():
    # an unset slot takes the default, so a null color must not pass as unset
    with pytest.raises(ParameterDomainError, match="bad edge color None"):
        crg_from_pairs((WHITE, BLACK), [(0, 1, None)])


def test_crg_from_json_rejects_missing_vertices():
    with pytest.raises(ParameterDomainError):
        crg_from_json({"edges": {"default": GRAY, "overrides": []}})


def test_crg_from_json_rejects_malformed_shapes():
    with pytest.raises(ParameterDomainError):
        crg_from_json("white")
    with pytest.raises(ParameterDomainError):
        crg_from_json({"vertices": [WHITE, WHITE], "edges": {"overrides": [[False, True, WHITE]]}})
    for bad in (
        {"vertices": {WHITE: 0, BLACK: 1}},  # never read as its keys
        {"vertices": ""},  # never read as no vertices
        {"vertices": [WHITE], "edges": {"overrides": ""}},
    ):
        with pytest.raises(ParameterDomainError):
            crg_from_json(bad)


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.floats()
    | st.sampled_from([WHITE, GRAY, BLACK, "x", ""])
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "edges", "vertices", "default", "overrides"]), inner),
    max_leaves=12,
)
crg_like = st.fixed_dictionaries(
    {"vertices": st.lists(json_scalars, max_size=5) | json_values},
    optional={
        "edges": st.fixed_dictionaries(
            {},
            optional={
                "default": json_scalars,
                "overrides": st.lists(st.lists(json_scalars, max_size=4), max_size=4) | json_values,
            },
        )
    },
)
graph_like = st.fixed_dictionaries(
    {"n": json_scalars, "edges": st.lists(st.lists(json_scalars, max_size=3), max_size=4) | json_values}
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(
    document=json_values | crg_like | graph_like | st.text(max_size=8),
    as_text=st.booleans(),
    parse=st.sampled_from([crg_from_json, graph_from_json]),
)
def test_any_json_shape_parses_or_raises_domain_error(document, as_text, parse):
    try:
        parse(json.dumps(document) if as_text else document)
    except ParameterDomainError:
        pass


def test_crg_json_default_compresses():
    blob = crg_to_json(k_rs(2, 2))
    assert blob["edges"]["default"] == GRAY
    assert blob["edges"]["overrides"] == []


def test_is_p_core_examples():
    p = Fraction(1, 4)
    assert is_p_core(k_rs(0, 4), p)
    assert is_p_core(k_rs(1, 0), p)
    black_pair = crg_from_pairs((BLACK, BLACK), [(0, 1, BLACK)])
    assert not is_p_core(black_pair, p)


def test_is_p_core_matches_direct_sub_crg_comparison():
    rng = random.Random(17)
    verdicts = set()
    for p in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(37, 101)):
        for gray_weight in (1.0, 4.0, None):  # uniform, gray-heavy, all-gray
            for _ in range(8):
                n = rng.randint(1, 6)
                if gray_weight is None:
                    r = rng.randint(0, n)
                    K = k_rs(r, n - r)
                else:
                    K = random_crg(rng, n, gray_weight=gray_weight)
                # values from the unpruned reference sweep, so that no
                # verdict rests on the pruning it checks
                g_full = reference_g_value(K, p).value
                direct = all(
                    reference_g_value(sub_crg(K, S), p).value > g_full
                    for size in range(1, K.n)
                    for S in itertools.combinations(range(K.n), size)
                )
                assert is_p_core(K, p) == direct, (K, p)
                verdicts.add(direct)
    assert verdicts == {True, False}


def test_p_core_structure_on_certified_cores():
    for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        for K in standard_corpus(99)[:60]:
            if is_p_core(K, p):
                assert p_core_structure_ok(K, p), (K, p)


def test_color_swap_exchanges_white_and_black():
    K = crg_from_pairs((WHITE, BLACK, BLACK), [(0, 1, WHITE), (1, 2, BLACK)])
    swapped = color_swap(K)
    assert swapped.vertex_colors == (BLACK, WHITE, WHITE)
    assert swapped.edge_colors == (BLACK, GRAY, WHITE)
    assert color_swap(swapped) == K
    p = Fraction(2, 7)
    assert rate_matrix(swapped, 1 - p) == rate_matrix(K, p)


def test_is_p_core_float_entry_agrees_with_exact():
    for K in standard_corpus(7)[:30]:
        assert is_p_core(K, 0.25) == is_p_core(K, Fraction(1, 4))


def test_is_p_core_bound():
    with pytest.raises(SizeExceededError):
        is_p_core(k_rs(8, 8), Fraction(1, 4))


def test_standard_corpus_deterministic():
    assert standard_corpus(42) == standard_corpus(42)
    assert len(standard_corpus(1)) == CORPUS_SIZE
