"""Checks of the program's outputs that do not go through the program.

Every function here rebuilds what it needs from first principles: the rate
matrix from the colors, the clique spectrum from the ell(a) formula and the
Prowse-Woodall chromatic number, the cycle power from its definition.  Each
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil

WHITE, GRAY, BLACK = "white", "gray", "black"
NUMERIC_TOL = 1e-9


def rate_matrix(K, p):
    """x^T M x rates: p on white, 1 - p on black, 0 on gray; p or 1 - p on the diagonal."""
    rate = {WHITE: p, BLACK: 1 - p, GRAY: 0 * p}
    n = K.n
    M = [[rate[GRAY]] * n for _ in range(n)]
    for v in range(n):
        M[v][v] = rate[K.vertex_colors[v]]
    for i in range(n):
        for j in range(i + 1, n):
            M[i][j] = M[j][i] = rate[K.edge_color(i, j)]
    return M


def _quadratic(M, x):
    Mx = [sum(row[j] * x[j] for j in range(len(x))) for row in M]
    return Mx, sum(xi * mi for xi, mi in zip(x, Mx))


def exact_g(K, p, value, weights, support) -> list[str]:
    """An exact optimum: simplex weights, x^T M x = g, and the KKT conditions."""
    p = Fraction(p)
    if len(weights) != K.n:
        return [f"{len(weights)} weights for {K.n} vertices"]
    problems = []
    if any(w < 0 for w in weights):
        problems.append("negative weight")
    if sum(weights) != 1:
        problems.append(f"weights sum to {sum(weights)}")
    if tuple(support) != tuple(v for v, w in enumerate(weights) if w > 0):
        problems.append("support is not the set of positive weights")
    Mx, xMx = _quadratic(rate_matrix(K, p), weights)
    if xMx != value:
        problems.append(f"x^T M x = {xMx} but g = {value}")
    for v in range(K.n):
        if Mx[v] < value:
            problems.append(f"(Mx)_{v} = {Mx[v]} < g = {value}")
        elif weights[v] > 0 and Mx[v] != value:
            problems.append(f"(Mx)_{v} = {Mx[v]} != g on the support")
    return problems


def reciprocal_sum(value, component_values) -> list[str]:
    """A joint optimum equals 1 / sum(1 / g_i) over the components."""
    expected = 1 / sum(Fraction(1) / g for g in component_values)
    return [] if value == expected else [f"joint g {value} != recombined {expected}"]


def all_gray_g(r: int, s: int, p, value) -> list[str]:
    """The all-gray K(r, s) has g = 1 / (r/p + s/(1-p))."""
    p = Fraction(p)
    expected = 1 / (r / p + s / (1 - p))
    return [] if value == expected else [f"g(K({r},{s})) = {value} != {expected}"]


def p_core(verdict: bool, n: int, p, g_full, support, deleted_g) -> list[str]:
    """is_p_core must agree with g(K) < g(K - v) for every vertex v.

    A vertex outside the support of an optimum can be deleted without raising
    g, so such a K is never a p-core and deleted_g (v -> g(K - v)) is only
    consulted when the optimum uses every vertex.  A float p demands a gap
    above 1e-12, as the program documents.
    """
    if n == 1:
        expected = True
    elif len(support) < n:
        expected = False
    else:
        margin = Fraction(1, 10**12) if isinstance(p, float) else 0
        expected = all(deleted_g(v) - g_full > margin for v in range(n))
    return [] if verdict == expected else [f"is_p_core {verdict}, expected {expected}"]


def independence_number(n: int, adjacent) -> int:
    best = 0
    for bits in range(1 << n):
        vs = [v for v in range(n) if bits >> v & 1]
        if len(vs) > best and not any(
            adjacent(a, b) for k, a in enumerate(vs) for b in vs[k + 1 :]
        ):
            best = len(vs)
    return best


def endpoint_g(K, p: int, value) -> list[str]:
    """g at p = 0 (p = 1): 0 with a white (black) vertex, else 1 / alpha.

    Without such a vertex M = I + A for the graph A of black (white) edges,
    and by Motzkin-Straus the simplex minimum of x^T (I + A) x is 1 / alpha(A).
    """
    zero_color, edge_color = (WHITE, BLACK) if p == 0 else (BLACK, WHITE)
    if zero_color in K.vertex_colors:
        expected = Fraction(0)
    else:
        alpha = independence_number(K.n, lambda i, j: K.edge_color(i, j) == edge_color)
        expected = Fraction(1, alpha)
    return [] if value == expected else [f"g at p={p} is {value}, expected {expected}"]


def numeric_g(K, p, value, weights, exact_value) -> tuple[list[str], bool]:
    """Numeric optimum: its own x^T M x, never below the exact optimum.

    Returns (problems, missed); missed means the value sits above the exact
    optimum by more than the tolerance, a local minimum rather than an error
    in what was reported.
    """
    problems = []
    if len(weights) != K.n or any(w < 0 for w in weights) or abs(sum(weights) - 1) > NUMERIC_TOL:
        return [f"numeric weights {weights} are not on the simplex"], False
    _, xMx = _quadratic(rate_matrix(K, float(p)), weights)
    if abs(xMx - value) > NUMERIC_TOL:
        problems.append(f"numeric g {value} != its weights' x^T M x {xMx}")
    if value < exact_value - NUMERIC_TOL:
        problems.append(f"numeric g {value} below the exact optimum {float(exact_value)}")
    return problems, value > exact_value + NUMERIC_TOL


# --- cycle powers -----------------------------------------------------------


def ell(h: int, t: int, a: int) -> int:
    return ceil(h / (t + a + 1))


def chromatic_number(h: int, t: int) -> int:
    """Prowse-Woodall: C_h^t needs t + 1 + ceil(r / q) colors, h = q(t+1) + r."""
    if h <= 2 * t + 1:
        return h
    q, r = divmod(h, t + 1)
    return t + 1 + ceil(r / q)


def extreme_points(h: int, t: int) -> list[tuple[int, int]]:
    """Maximal elements of {(a, ell(a) - 1)} and the chromatic pair (chi - 1, 0)."""
    points = {(a, ell(h, t, a) - 1) for a in range(t + 1)}
    points.add((chromatic_number(h, t) - 1, 0))
    return sorted(
        (r, s)
        for r, s in points
        if not any(r2 >= r and s2 >= s and (r2, s2) != (r, s) for r2, s2 in points)
    )


def g_krs(r: int, s: int, p: Fraction) -> Fraction:
    """1 / (r/p + s/(1-p)), continued to p in {0, 1}."""
    if p == 0:
        return Fraction(0) if r else Fraction(1, s)
    if p == 1:
        return Fraction(0) if s else Fraction(1, r)
    return 1 / (r / p + s / (1 - p))


def gamma(h: int, t: int, p: Fraction) -> Fraction:
    return min(g_krs(r, s, p) for r, s in extreme_points(h, t))


def branch_crossings(h: int, t: int) -> list[Fraction]:
    """p in (0, 1) where the branches through (a, ell(a) - 1) and, unless
    t + 1 divides h, (t + 1, 0) cross."""
    pairs = [(a, ell(h, t, a) - 1) for a in range(t + 1)]
    if h % (t + 1):
        pairs.append((t + 1, 0))
    out = set()
    for r1, s1 in pairs:
        for r2, s2 in pairs:
            if r1 > r2 and s2 > s1:
                out.add(Fraction(r1 - r2, (r1 - r2) + (s2 - s1)))
    return sorted(out)


def gamma_peak(h: int, t: int) -> float:
    """Maximum of gamma on [0, 1]: at an end, where two of its branches cross,
    or at a branch's own peak p = sqrt(r) / (sqrt(r) + sqrt(s))."""
    points = extreme_points(h, t)
    candidates = [0.0, 1.0]
    for r1, s1 in points:
        if r1 and s1:
            candidates.append(r1**0.5 / (r1**0.5 + s1**0.5))
        for r2, s2 in points:
            if r1 > r2 and s2 > s1:
                candidates.append((r1 - r2) / ((r1 - r2) + (s2 - s1)))

    def value(p: float) -> float:
        return min(float(g_krs(r, s, Fraction(p))) for r, s in points)

    return max(value(c) for c in candidates)


def spectrum(h: int, t: int, extreme, gammas: dict) -> list[str]:
    problems = []
    expected = extreme_points(h, t)
    if list(extreme) != expected:
        problems.append(f"({h},{t}) extreme points {list(extreme)} != {expected}")
    for p, value in gammas.items():
        if value != gamma(h, t, p):
            problems.append(f"({h},{t}) gamma({p}) = {value} != {gamma(h, t, p)}")
    return problems


def curve(h: int, t: int, crossings, samples, peak) -> list[str]:
    """Closed-form curve rows equal gamma; crossings and the peak match."""
    problems = []
    if list(crossings) != branch_crossings(h, t):
        problems.append(f"({h},{t}) crossings {list(crossings)} != {branch_crossings(h, t)}")
    for row in samples:
        if row.gamma != gamma(h, t, Fraction(row.p)):
            problems.append(f"({h},{t}) curve gamma({row.p}) = {row.gamma}")
        if row.ed is not None and (row.ed != row.gamma or h < 2 * t * (t + 1) + 1):
            problems.append(f"({h},{t}) ed({row.p}) = {row.ed} outside the covered range")
    if abs(peak - gamma_peak(h, t)) > NUMERIC_TOL:
        problems.append(f"({h},{t}) max_point {peak} != peak {gamma_peak(h, t)}")
    return problems


# --- embeddings ---------------------------------------------------------------


def cycle_power_adjacent(h: int, t: int, i: int, j: int) -> bool:
    d = abs(i - j)
    return 0 < min(d, h - d) <= t


def gray_cycle_colors(white_count: int, cycle_length: int):
    """Vertex and pair colors of white_count white vertices (all their pairs
    gray) beside cycle_length black ones, gray around the cycle, white across."""
    a, k = white_count, cycle_length

    def vertex(u: int) -> str:
        return WHITE if u < a else BLACK

    def pair(u: int, w: int) -> str:
        if u < a or w < a:
            return GRAY
        d = abs(u - w)
        return GRAY if d == 1 or d == k - 1 else WHITE

    return vertex, pair


def all_gray_colors(r: int, s: int):
    return (lambda u: WHITE if u < r else BLACK), (lambda u, w: GRAY)


def witness(h: int, t: int, colors, size: int, phi) -> list[str]:
    """Pairwise check that phi maps C_h^t into the CRG: edges on black or gray
    (a single black vertex), non-edges on white or gray (a single white one)."""
    vertex, pair = colors
    if phi is None or len(phi) != h or any(not 0 <= u < size for u in phi):
        return [f"({h},{t}) witness {phi} is not a map into {size} vertices"]
    for i in range(h):
        for j in range(i + 1, h):
            u, w = phi[i], phi[j]
            color = vertex(u) if u == w else pair(u, w)
            if cycle_power_adjacent(h, t, i, j):
                if color == WHITE:
                    return [f"({h},{t}) edge {i}{j} lands on white"]
            elif color == BLACK:
                return [f"({h},{t}) non-edge {i}{j} lands on black"]
    return []
