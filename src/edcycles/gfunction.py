"""Minimizing the CRG rate form over the probability simplex.

For a CRG K with rate matrix M(p), the g-function is

    g_K(p) = min { x^T M(p) x : sum(x) = 1, x >= 0 }.

Exact mode enumerates supports.  A minimizer x* restricted to the face of
its positive support W satisfies M_W x*_W = g * 1 with g the optimal value,
so solving M_W y = 1 and scaling y to the simplex yields a candidate value
1 / sum(y).  Because gray edges contribute zero entries, the matrix is block
diagonal over the components of the non-gray edge graph, and reciprocals of
component optima add up: 1/g_K = sum_i 1/g_{K_i}.

One lemma decides which faces are solved: M_W is positive semidefinite on
the positive support W of any minimizer x*, so positive definite (PD) when
it is invertible.  Any z on W splits as a x* + y with a = sum(z) and
sum(y) = 0, and stationarity gives z^T M_W z = a^2 g + y^T M_W y, where
g >= 0 as M is nonnegative.  As x* is positive on W, x* + e y stays on the
simplex for small e of either sign, and f(x* + e y) = g + e^2 y^T M_W y >= g,
so y^T M_W y >= 0.  The sweep therefore solves only PD faces;
_stationary_points shows that it still finds the minimum, at the same
support.  A clashing or tied pair, vertices i and j with
M_ii + M_jj <= 2 M_ij, has M_ij >= (M_ii + M_jj) / 2 >= sqrt(M_ii M_jj), so
its 2x2 principal minor M_ii M_jj - M_ij^2 is at most 0 and no PD face holds
it: no face holding one is tried.

The sweep walks the faces of the integer matrix A = b * M(p) that
crg.rate_matrix returns for p = a/b depth first from the empty face.  As a
principal submatrix of a PD matrix is PD, each PD face is reached, once,
from the PD face without its last vertex: _border extends that face's
Bareiss fraction-free elimination (Bareiss 1968, Math. Comp. 22) by the new
vertex in O(k^2).  The k-th pivot is the k-th leading principal minor, so by
Sylvester's criterion the new face is PD exactly when its pivot is positive;
if not, it is dropped with every face that extends it.  A PD face yields
d = det A_T and u = d * A_T^-1 1 in integers, feasible when no u_i is
negative, with value d / (b * sum(u)) and weights u / sum(u).  Values are
compared as integers, and Fractions are built only for the winning support.

Numeric mode runs projected gradient descent from each simplex vertex and
from the uniform point, with step halving.  A start stops once its
Frank-Wolfe gap x.grad - min(grad) is at most NUMERIC_TOL: then x is
stationary to that tolerance, and on a convex form no point of the simplex
lies more than the gap below it, so halving the step further only burns
projections.  The rate form need not be convex, so this is a float local
search: it can stop above the optimum, and the exact sweep is the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .crg import BLACK, GRAY, WHITE, Crg, color_swap, component_sets, rate_matrix
from .errors import NonConvergenceError, ParameterDomainError, SizeExceededError
from .rationals import Number, number_str, to_fraction, to_probability

EXACT_SWEEP_BOUND = 14
NUMERIC_TOL = 1e-12
NUMERIC_ITERATION_CAP = 10**6


@dataclass(frozen=True)
class GValue:
    """Optimal value of the rate form with one attaining weight vector."""

    value: Number
    weights: tuple[Number, ...]
    support: tuple[int, ...]
    mode: str  # "exact" | "numeric"

    def to_json(self, p: Number) -> dict:
        return {
            "p": number_str(p),
            "g": number_str(self.value),
            "weights": [number_str(w) for w in self.weights],
            "support": list(self.support),
            "mode": self.mode,
        }


def _border(rates, face, w):
    """The elimination of a PD face plus the later vertex w, or None when the
    new face is not PD.  A face holds (v, leads, pivot, rhs) per member, in
    order: its pivot, its entry of the eliminated right-hand side, and
    leads[s], its row in column s after s steps, which by symmetry is row s in
    its column.  w's row is carried through the stored pivots: each column
    through the steps before it, then the diagonal (the new pivot) and the
    right-hand side through all of them."""
    row = rates[w]
    leads = []
    for v, column, _, _ in face:
        x, prev = row[v], 1
        for (_, _, pivot, _), a, b in zip(face, leads, column):
            x, prev = (pivot * x - a * b) // prev, pivot
        leads.append(x)
    diagonal, rhs, prev = row[w], 1, 1
    for (_, _, pivot, r), a in zip(face, leads):
        diagonal, rhs = (pivot * diagonal - a * a) // prev, (pivot * rhs - a * r) // prev
        prev = pivot
    if diagonal <= 0:
        return None
    return face + ((w, leads, diagonal, rhs),)


def _solution(face):
    """(d, u) for a face: d = det A_T, its last pivot, and u = d * A_T^-1 1,
    which is adj(A_T) 1, by fraction-free back substitution."""
    d = face[-1][2]
    acc = [d * rhs for _, _, _, rhs in face]
    u = []
    for _, column, pivot, _ in reversed(face):
        x = acc.pop() // pivot
        u.append(x)
        acc = [y - a * x for y, a in zip(acc, column)]
    u.reverse()
    return d, u


def _solve_face(rates, support: Sequence[int]):
    """Solve A_T u = d * 1 over the integers when A_T is positive definite:
    (d, u) with d = det(A_T) > 0, or None at the first pivot <= 0."""
    face = ()
    for w in support:
        face = _border(rates, face, w)
        if face is None:
            return None
    return _solution(face)


def _clashes(rates, vertices: Sequence[int]) -> list[int]:
    """For each vertex, the bitmask of the earlier vertices it forms a
    clashing or tied pair with (A_ii + A_jj <= 2 A_ij).

    Every exact route starts here, so EXACT_SWEEP_BOUND is checked here,
    before any face is solved.
    """
    m = len(vertices)
    if m > EXACT_SWEEP_BOUND:
        raise SizeExceededError(
            f"support sweep over {m} vertices exceeds bound {EXACT_SWEEP_BOUND}"
        )
    return [
        sum(
            1 << j
            for j, w in enumerate(vertices[:i])
            if rates[v][v] + rates[w][w] <= 2 * rates[v][w]
        )
        for i, v in enumerate(vertices)
    ]


def _stationary_points(rates, vertices: Sequence[int]):
    """Yield (bits, d, u), once each, for the PD faces over vertices whose
    stationary point has no negative entry, walked as the module docstring
    says: a face is extended only by later vertices that form no clashing
    or tied pair with a member, lower vertices first.  bits selects the
    support from vertices, and u solves A_T u = d * 1 with d = det A_T > 0.

    Over all supports, the least value is the minimum g over the simplex, and
    the lowest bitmask W attaining it has no zero entry in u.  Each value is
    that of a point of the simplex, so none is below g.  Take a minimizer x*
    whose positive support P holds no other minimizer's positive support.
    A_P is positive semidefinite by the lemma in the module docstring.  If
    A_P w = 0 with w != 0, then 0 = w^T A_P w = sum(w)^2 g + y^T A_P y with
    both terms nonnegative (g > 0, as A has a positive diagonal), so
    sum(w) = 0, and f(x* + e w) = g for every e, since stationarity cancels
    the linear term; at the first e where an entry reaches zero this is a
    minimizer on a smaller support, which P rules out.  So A_P is PD, and P
    yields x* and the value g.  Any minimizer's positive support holds such
    a P, at a bitmask no higher than its own; so if W had a zero entry in u,
    the positive support of its point would hold a lower bitmask of value g.
    The same W wins a sweep that also solves the invertible faces that are
    not PD: its winner has no zero entry by the argument above, so the lemma
    makes it PD.  So the faces never reached change no value, weight or
    support.
    """
    clashes = _clashes(rates, vertices)
    m = len(vertices)
    stack = [(1 << j, (), j) for j in reversed(range(m))]  # (bits, parent face, new vertex)
    while stack:
        bits, face, i = stack.pop()
        face = _border(rates, face, vertices[i])
        if face is None:
            continue
        d, u = _solution(face)
        if min(u) >= 0:
            yield bits, d, u
        stack += [(bits | 1 << j, face, j) for j in range(m - 1, i, -1) if not bits & clashes[j]]


def _exact_min(rates, scale: int, vertices: Sequence[int]):
    """Exact minimum of the rate form over the simplex on the given vertices.
    Values d / (scale * sum(u)) are compared by integer cross-products, and
    ties go to the lowest bitmask, so weights and supports are reproducible."""
    best = None
    for bits, d, u in _stationary_points(rates, vertices):
        total = sum(u)
        if best is not None:
            order = d * best[2] - best[1] * total  # the sign of value - best value
            if order > 0 or order == 0 and bits > best[0]:
                continue
        best = bits, d, total, u
    if best is None:
        raise RuntimeError("no stationary candidate found; zero diagonal entry?")
    bits, d, total, u = best
    support = [v for i, v in enumerate(vertices) if bits >> i & 1]
    return Fraction(d, scale * total), [Fraction(x, total) for x in u], support


def _recombined_min(rates, scale: int, blocks):
    """Exact minimum over independently solved blocks, recombined by the
    reciprocal-sum identity 1/g = sum(1/g_i); also the per-block optima."""
    pieces = [_exact_min(rates, scale, block) for block in blocks]
    return Fraction(1) / sum(Fraction(1) / value for value, _, _ in pieces), pieces


def _project_simplex(x: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, len(x) + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(x - theta, 0.0)


def _polish_on_support(M: np.ndarray, x: np.ndarray, fx: float):
    """Snap a near-optimal point to the stationary point of its face.

    Gradient descent identifies the right face long before it pins the value
    down, so solve M_S y = 1 on a few thresholded supports and keep the best
    feasible rescaling.
    """
    best_value, best_x = fx, x
    n = len(x)
    for threshold in (1e-3, 1e-6, 1e-9):
        support = np.nonzero(x > threshold)[0]
        if len(support) == 0:
            continue
        try:
            y = np.linalg.solve(M[np.ix_(support, support)], np.ones(len(support)))
        except np.linalg.LinAlgError:
            continue
        if (y < -1e-12).any():
            continue
        y = np.clip(y, 0.0, None)
        total = y.sum()
        if total <= 0:
            continue
        cand = np.zeros(n)
        cand[support] = y / total
        fc = float(cand @ M @ cand)
        if fc < best_value:
            best_value, best_x = fc, cand
    return best_value, best_x


def _numeric_min(M: np.ndarray):
    """Projected gradient descent with per-vertex and uniform restarts."""
    n = M.shape[0]
    starts = [np.full(n, 1.0 / n)]
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        starts.append(e)

    def objective(x: np.ndarray) -> float:
        return float(x @ M @ x)

    best_value, best_x = None, None
    for x in starts:
        fx = objective(x)
        alpha = 1.0
        converged = False
        for _ in range(NUMERIC_ITERATION_CAP):
            grad = 2.0 * (M @ x)
            if x @ grad - grad.min() <= NUMERIC_TOL:
                converged = True  # Frank-Wolfe gap closed: stationary to tolerance
                break
            moved = False
            while alpha > 1e-18:
                cand = _project_simplex(x - alpha * grad)
                fc = objective(cand)
                if fc < fx:
                    moved = True
                    break
                alpha *= 0.5
            if not moved:
                converged = True  # step size exhausted: stationary to precision
                break
            delta = fx - fc
            x, fx = cand, fc
            alpha = min(alpha * 2.0, 1e3)
            if delta < NUMERIC_TOL:
                converged = True
                break
        if not converged:
            raise NonConvergenceError(
                f"projected gradient did not converge within {NUMERIC_ITERATION_CAP} iterations"
            )
        fx, x = _polish_on_support(M, x, fx)
        if best_value is None or fx < best_value:
            best_value, best_x = fx, x
    return best_value, best_x


def g_value(K: Crg, p: Number, mode: str = "exact", *, decompose: bool = True) -> GValue:
    """Global minimum of the rate form over the standard simplex.

    p must lie strictly inside (0, 1); a float is converted to its exact
    rational value.  Exact mode enforces EXACT_SWEEP_BOUND per
    independently-solved block: per component when decompose=True, on the
    whole CRG otherwise.  Setting decompose=False sweeps the supports of the
    joint program, which is what lets tests confirm the reciprocal-sum
    component identity rather than assume it.
    """
    if mode not in ("exact", "numeric"):
        raise ParameterDomainError(f"unknown mode {mode!r}")
    p = to_fraction(p)
    if not 0 < p < 1:
        raise ParameterDomainError(
            "g_value needs 0 < p < 1; use g_endpoint for p in {0, 1}"
        )
    if mode == "numeric":
        rows, b = rate_matrix(K, float(p))
        M = np.array([[x / b for x in row] for row in rows])  # correctly rounded
        value, x = _numeric_min(M)
        weights = tuple(float(w) for w in x)
        support = tuple(i for i, w in enumerate(weights) if w > NUMERIC_TOL)
        return GValue(value, weights, support, "numeric")
    rates, scale = rate_matrix(K, p)
    blocks = component_sets(K) if decompose else [tuple(range(K.n))]
    g, pieces = _recombined_min(rates, scale, blocks)
    weights = [Fraction(0)] * K.n
    support = []
    for value, block_weights, block_support in pieces:
        scale = g / value
        for v, w in zip(block_support, block_weights):
            weights[v] = w * scale
            if weights[v] > 0:
                support.append(v)
    return GValue(g, tuple(weights), tuple(sorted(support)), "exact")


def g_endpoint(K: Crg, p: Number) -> Fraction:
    """Literal evaluation of the rate form minimum at p = 0 or p = 1.

    A white vertex absorbs all weight at p=0 (and a black one at p=1) for a
    value of zero; otherwise the 0/1-entry program is solved exactly, up to
    EXACT_SWEEP_BOUND vertices per component.
    """
    p = to_fraction(p)
    if p not in (0, 1):
        raise ParameterDomainError("g_endpoint is defined for p in {0, 1} only")
    zero_color = WHITE if p == 0 else BLACK
    if any(c == zero_color for c in K.vertex_colors):
        return Fraction(0)
    rates, scale = rate_matrix(K, p)
    return _recombined_min(rates, scale, component_sets(K))[0]


def _require_krs(r: int, s: int) -> None:
    if r < 0 or s < 0 or r + s == 0:
        raise ParameterDomainError("need r, s >= 0 with r + s >= 1")


def g_krs(r: int, s: int, p: Number) -> Fraction:
    """Closed-form g of the all-gray CRG K(r, s): the harmonic rule
    (r/p + s/(1-p))^-1, exact for every p in [0, 1].

    For p = m/n it is m(n-m) / (n(r(n-m) + s m)); when that denominator
    vanishes (p = 0 with r = 0, or p = 1 with s = 0) the value is 1/(r + s).
    These endpoint values match g_endpoint: any white vertex makes g vanish
    at p=0, any black vertex at p=1.
    """
    _require_krs(r, s)
    p = to_probability(p)
    m, n = p.numerator, p.denominator
    denominator = n * (r * (n - m) + s * m)
    if denominator == 0:
        return Fraction(1, r + s)
    return Fraction(m * (n - m), denominator)


def g_krs_min(pairs: Sequence[tuple[int, int]], p: Number) -> tuple[Fraction, int]:
    """The least g_krs(r, s, p) over the (r, s) pairs, and the index of the
    first pair that attains it.

    For 0 < p = m/n < 1 every pair's value has the numerator m(n-m), so the
    least value belongs to the largest denominator factor r(n-m) + s m:
    those integers are compared, and one Fraction is built.  At p = 0 and
    p = 1 the values are taken from g_krs pair by pair.
    """
    if not pairs:
        raise ParameterDomainError("need at least one (r, s) pair")
    p = to_probability(p)
    m, n = p.numerator, p.denominator
    if m == 0 or m == n:
        values = [g_krs(r, s, p) for r, s in pairs]
        value = min(values)
        return value, values.index(value)
    best = index = -1
    for k, (r, s) in enumerate(pairs):
        _require_krs(r, s)
        weight = r * (n - m) + s * m
        if weight > best:
            best, index = weight, k
    return Fraction(m * (n - m), n * best), index


@dataclass(frozen=True)
class DegreeReport:
    """Gray neighbourhoods of every vertex under fixed weights: gray is the
    weight of each vertex's gray neighbourhood, gray_neighbor_count its size."""

    gray: tuple[Number, ...]
    gray_neighbor_count: tuple[int, ...]


def degree_report(K: Crg, g: GValue) -> DegreeReport:
    x = g.weights
    if len(x) != K.n:
        raise ParameterDomainError("weight vector does not match the CRG")
    gray = [x[0] * 0] * K.n
    count = [0] * K.n
    for i, j, color in K.pairs():
        if color == GRAY:
            gray[i] += x[j]
            gray[j] += x[i]
            count[i] += 1
            count[j] += 1
    return DegreeReport(tuple(gray), tuple(count))


def is_p_core(K: Crg, p: Number) -> bool:
    """Does K strictly beat every proper nonempty induced sub-CRG at this p?

    Exact rational comparison when p is given as a rational; a float p is
    converted exactly but the strict gap must then exceed 1e-12, so that
    float callers cannot mistake roundoff for strictness.  K may have at most
    EXACT_SWEEP_BOUND vertices.

    K is a p-core exactly when A = b * M(p) is positive definite and
    u = d * A^-1 1 is strictly positive.  If so, the form is strictly convex
    and u / sum(u) is a stationary point inside the simplex, so it is the
    only minimizer, and every proper face has a larger minimum.  Conversely,
    if K is a p-core, no minimizer x* lies on a proper face.  Along a null
    vector of A the value would stay flat (see _stationary_points) until it
    reached one, so A is invertible, PD by the lemma in the module docstring,
    and u is a positive multiple of x*.  So a clashing or tied pair (an
    O(n^2) check) or one solve of the full face decides.  With a float p, a
    True verdict also walks the proper faces, which hold each sub-CRG's
    winning support, and the first whose value lies within the margin of the
    full face's makes it False.
    """
    margin = Fraction(1, 10**12) if isinstance(p, float) else Fraction(0)
    p = to_fraction(p)
    if not 0 < p < 1:
        raise ParameterDomainError("is_p_core needs 0 < p < 1")
    rates, scale = rate_matrix(K, p)
    vertices = range(K.n)
    if any(_clashes(rates, vertices)):
        return False
    solved = _solve_face(rates, vertices)
    if solved is None or min(solved[1]) <= 0:
        return False
    if margin:
        g_full, full = Fraction(solved[0], scale * sum(solved[1])), (1 << K.n) - 1
        for bits, d, u in _stationary_points(rates, vertices):
            if bits != full and Fraction(d, scale * sum(u)) - g_full <= margin:
                return False
    if not p_core_structure_ok(K, p):
        # p-core CRGs provably carry this edge-color structure, so reaching
        # here means the optimizer itself is wrong
        raise RuntimeError("certified p-core CRG violates the structural law")
    return True


def _white_side_law(K: Crg) -> bool:
    """The p <= 1/2 law: every edge gray, except white edges between black vertices."""
    return all(
        color == GRAY or (color == WHITE and K.vertex_colors[i] == K.vertex_colors[j] == BLACK)
        for i, j, color in K.pairs()
    )


def p_core_structure_ok(K: Crg, p: Number) -> bool:
    """Structural sanity for p-core CRGs: no black edges and no white edge at a
    white vertex when p <= 1/2; for p >= 1/2 the same law holds for
    color_swap(K) at 1 - p, so at p = 1/2 every edge is gray."""
    p = to_probability(p)
    half = Fraction(1, 2)
    return (p > half or _white_side_law(K)) and (p < half or _white_side_law(color_swap(K)))
