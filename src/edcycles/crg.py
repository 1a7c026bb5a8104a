"""Colored regularity graphs and their aggregate rate matrix.

A colored regularity graph (CRG) is a complete graph whose vertices are
colored white or black and whose edges are colored white, gray, or black.
Small and dense, so edge colors live in a flat upper-triangular tuple.
All values are immutable; operations are pure.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import ParameterDomainError
from .graphs import Graph
from .rationals import Number, json_int, json_list, to_probability

WHITE = "white"
GRAY = "gray"
BLACK = "black"
VERTEX_COLORS = (WHITE, BLACK)
EDGE_COLORS = (WHITE, GRAY, BLACK)
CORPUS_MAX_VERTICES = 8
CORPUS_SIZE = 200


def _pair_index(n: int, i: int, j: int) -> int:
    """Index of unordered pair (i, j), i < j, in row-major upper-triangular order."""
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


@dataclass(frozen=True)
class Crg:
    """Complete 2-colored-vertex, 3-colored-edge graph on vertices 0..n-1."""

    n: int
    vertex_colors: tuple[str, ...]
    edge_colors: tuple[str, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ParameterDomainError("a CRG needs at least one vertex")
        if len(self.vertex_colors) != self.n:
            raise ParameterDomainError("vertex color list length mismatch")
        if len(self.edge_colors) != self.n * (self.n - 1) // 2:
            raise ParameterDomainError("edge color list must cover every unordered pair")
        for c in self.vertex_colors:
            if c not in VERTEX_COLORS:
                raise ParameterDomainError(f"bad vertex color {c!r}")
        for c in self.edge_colors:
            if c not in EDGE_COLORS:
                raise ParameterDomainError(f"bad edge color {c!r}")

    def edge_color(self, i: int, j: int) -> str:
        if i == j:
            raise ParameterDomainError("no self-pairs in a CRG")
        if i > j:
            i, j = j, i
        return self.edge_colors[_pair_index(self.n, i, j)]

    def pairs(self) -> Iterable[tuple[int, int, str]]:
        for i in range(self.n):
            for j in range(i + 1, self.n):
                yield i, j, self.edge_colors[_pair_index(self.n, i, j)]


def crg_from_pairs(
    vertex_colors: Sequence[str],
    colored_pairs: Iterable[tuple[int, int, str]] = (),
    default: str = GRAY,
) -> Crg:
    """Build a CRG from a default edge color plus overrides, each pair given at most once."""
    if default not in EDGE_COLORS:
        raise ParameterDomainError(f"bad default edge color {default!r}")
    n = len(vertex_colors)
    edge_colors = [None] * (n * (n - 1) // 2)
    for i, j, color in colored_pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise ParameterDomainError(f"pair ({i},{j}) outside vertices 0..{n - 1}")
        if i == j:
            raise ParameterDomainError("no self-pairs in a CRG")
        if i > j:
            i, j = j, i
        k = _pair_index(n, i, j)
        if edge_colors[k] is not None:
            raise ParameterDomainError(f"pair ({i},{j}) given twice")
        if color not in EDGE_COLORS:
            raise ParameterDomainError(f"bad edge color {color!r}")
        edge_colors[k] = color
    colors = tuple(default if c is None else c for c in edge_colors)
    return Crg(n, tuple(vertex_colors), colors)


def color_swap(K: Crg) -> Crg:
    """K with white and black exchanged on vertices and edges; gray stays.

    Its rate matrix at 1 - p is the rate matrix of K at p, so every statement
    about K at p > 1/2 is one about color_swap(K) at 1 - p < 1/2.
    """
    swap = {WHITE: BLACK, BLACK: WHITE, GRAY: GRAY}
    return Crg(
        K.n,
        tuple(swap[c] for c in K.vertex_colors),
        tuple(swap[c] for c in K.edge_colors),
    )


def k_a_g(a: int, G: Graph) -> Crg:
    """K(a, G): a white vertices followed by G's vertices, in order, in black.

    Every pair at a white vertex is gray.  Two black vertices are joined in
    gray on an edge of G and in white elsewhere.
    """
    if a < 0:
        raise ParameterDomainError("white vertex count must be nonnegative")
    white_pairs = [
        (a + i, a + j, WHITE) for i, j in combinations(range(G.n), 2) if not G.adjacent(i, j)
    ]
    return crg_from_pairs((WHITE,) * a + (BLACK,) * G.n, white_pairs)


def k_rs(r: int, s: int) -> Crg:
    """All-gray CRG with r white vertices followed by s black vertices."""
    if r < 0 or s < 0:
        raise ParameterDomainError("vertex counts must be nonnegative")
    return k_a_g(r, Graph(s, frozenset(combinations(range(s), 2))))


def rate_matrix(K: Crg, p: Number) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The integer rate matrix b * M(p) of K at p = a/b in lowest terms, and b.

    M(p) is the symmetric matrix of edit rates: p on a white edge, 1 - p on a
    black edge and 0 on a gray one, with p on the diagonal of a white vertex
    and 1 - p on that of a black one.  Scaled by b, its entries are the
    integers a (white), b - a (black) and 0 (gray).  A float p is first
    converted to its exact rational value.
    """
    p = to_probability(p)
    a, b = p.numerator, p.denominator
    by_color = {WHITE: a, BLACK: b - a, GRAY: 0}
    rows = [[0] * K.n for _ in range(K.n)]
    for v in range(K.n):
        rows[v][v] = by_color[K.vertex_colors[v]]
    for i, j, color in K.pairs():
        rows[i][j] = rows[j][i] = by_color[color]
    return tuple(tuple(row) for row in rows), b


def component_sets(K: Crg) -> list[tuple[int, ...]]:
    """Vertex sets of the components of the non-gray (white or black) edge graph."""
    parent = list(range(K.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j, color in K.pairs():
        if color != GRAY:
            parent[find(i)] = find(j)

    groups: dict[int, list[int]] = {}
    for v in range(K.n):
        groups.setdefault(find(v), []).append(v)
    return sorted(tuple(sorted(g)) for g in groups.values())


def sub_crg(K: Crg, vertices: Iterable[int]) -> Crg:
    """Induced sub-CRG on the given vertex subset (kept in sorted order)."""
    vs = sorted(set(vertices))
    for v in vs:
        if not 0 <= v < K.n:
            raise ParameterDomainError(f"vertex {v} out of range")
    colors = tuple(K.vertex_colors[v] for v in vs)
    pairs = [
        (a, b, K.edge_color(vs[a], vs[b]))
        for a in range(len(vs))
        for b in range(a + 1, len(vs))
    ]
    return crg_from_pairs(colors, pairs)


def crg_to_json(K: Crg) -> dict:
    """Schema: vertices list plus a default edge color with explicit overrides."""
    counts: dict[str, int] = {}
    for _, _, color in K.pairs():
        counts[color] = counts.get(color, 0) + 1
    default = GRAY
    if counts:
        default = max(EDGE_COLORS, key=lambda c: counts.get(c, 0))
    overrides = [[i, j, c] for i, j, c in K.pairs() if c != default]
    return {
        "vertices": list(K.vertex_colors),
        "edges": {"default": default, "overrides": overrides},
    }


def crg_from_json(obj) -> Crg:
    try:
        if isinstance(obj, str):
            obj = json.loads(obj)
        vertex_colors = tuple(json_list(obj["vertices"]))
        edges = obj.get("edges", {})
        overrides = [
            (json_int(i), json_int(j), c) for i, j, c in json_list(edges.get("overrides", []))
        ]
        default = edges.get("default", GRAY)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParameterDomainError(f"malformed CRG JSON: {exc}") from exc
    return crg_from_pairs(vertex_colors, overrides, default=default)


def random_crg(rng: random.Random, n: int, gray_weight: float = 1.0) -> Crg:
    """One random CRG; higher gray_weight biases edges toward gray."""
    colors = tuple(rng.choice(VERTEX_COLORS) for _ in range(n))
    weights = [1.0, gray_weight, 1.0]
    m = n * (n - 1) // 2
    edge_colors = tuple(rng.choices(EDGE_COLORS, weights=weights, k=m)) if m else ()
    return Crg(n, colors, edge_colors)


def standard_corpus(seed: int) -> list[Crg]:
    """Seeded corpus of CORPUS_SIZE CRGs for randomized property suites.

    Mixes three styles: uniform edge colors, gray-dominated edge colors (the
    shape p-core CRGs actually take), and all-gray CRGs with random vertex
    colors, each of 1..CORPUS_MAX_VERTICES vertices.  Deterministic for a
    fixed seed, and drawn in order, so a prefix is a smaller corpus.
    """
    rng = random.Random(seed)
    corpus = []
    for i in range(CORPUS_SIZE):
        n = rng.randint(1, CORPUS_MAX_VERTICES)
        style = i % 3
        if style == 0:
            corpus.append(random_crg(rng, n))
        elif style == 1:
            corpus.append(random_crg(rng, n, gray_weight=8.0))
        else:
            r = rng.randint(0, n)
            corpus.append(k_rs(r, n - r))
    return corpus
