"""Minimizing the CRG rate form over the probability simplex.

For a CRG K with rate matrix M(p), the g-function is

    g_K(p) = min { x^T M(p) x : sum(x) = 1, x >= 0 }.

Exact mode enumerates supports.  A minimizer restricted to the face of its
support T satisfies M_T x_T = c * 1 with c equal to the optimal value, so
solving M_T y = 1 and scaling y to the simplex yields a candidate value
1 / sum(y) whenever the system is invertible and y is nonnegative.  A support
whose system is singular can be skipped: any optimum living on that face also
appears on a sub-face with an invertible system (in the worst case a single
vertex, whose diagonal entry is positive for p in (0,1)).  Because gray edges
contribute zero entries, the matrix is block diagonal over the components of
the non-gray edge graph, and reciprocals of component optima add up:
1/g_K = sum_i 1/g_{K_i}.

The sweep runs over the integers.  For p = a/b the matrix A = b * M(p) has
entries a (white), b - a (black) and 0 (gray); a float p is first converted
to its exact rational value.  Each face is solved by Bareiss fraction-free
elimination (Bareiss 1968, Math. Comp. 22), which yields d = |det A_T| and
the integer vector u = d * A_T^-1 1 with every division exact.  The face is
feasible when no u_i is negative, its value is g = d / (b * sum(u)) and its
weights are u / sum(u); Fractions are built only for the winning support.

Numeric mode runs projected gradient descent from each simplex vertex and
from the uniform point, with step halving; the rate form need not be convex,
so the restarts are what buy global coverage at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, mul
from typing import Sequence

import numpy as np

from .crg import BLACK, GRAY, WHITE, Crg, component_sets, rate_matrix
from .errors import (
    NonConvergenceError,
    ParameterDomainError,
    SizeExceededError,
)
from .rationals import Number, number_str, one_like, to_fraction

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


def _integer_rates(K: Crg, p: Fraction):
    """rate_matrix(K, p) scaled by the denominator b of p = a/b, so that every
    entry is an integer: a on white, b - a on black, 0 on gray.  Returns
    (rows, b)."""
    b = p.denominator
    return [[int(v * b) for v in row] for row in rate_matrix(K, p).entries], b


def _solve_face(rates, support: Sequence[int]):
    """Solve A_T u = d * 1 over the integers; return (d, u) or None when singular.

    Bareiss fraction-free elimination of [A_T | 1] on the principal submatrix
    indexed by the support: every division is exact, the last pivot is
    +-det(A_T), and fraction-free back substitution gives u = d * A_T^-1 1,
    which is +-adj(A_T) 1.  Signs are normalised so that d > 0.
    """
    rows = [[rates[i][j] for j in support] + [1] for i in support]
    upper = []
    prev = 1
    while rows:
        k = next((k for k, row in enumerate(rows) if row[0]), None)
        if k is None:
            return None
        pivot = rows.pop(k)
        head, tail = pivot[0], pivot[1:]
        eliminated = []
        for row in rows:
            lead = row[0]
            if lead:
                eliminated.append([(x * head - lead * y) // prev for x, y in zip(row[1:], tail)])
            else:  # the same update with lead = 0, without the zero products
                eliminated.append([x * head // prev for x in row[1:]])
        rows = eliminated
        upper.append(pivot)
        prev = head
    d = prev
    u = []
    for row in reversed(upper):
        u.insert(0, (d * row[-1] - sum(map(mul, row[1:-1], u))) // row[0])
    if d < 0:
        return -d, [-x for x in u]
    return d, u


def _stationary_points(rates, scale: int, vertices: Sequence[int]):
    """Yield (bits, value, u) for every support, in bitmask order over the
    given vertices, whose face has a nonnegative stationary point.

    rates is the rate matrix scaled by `scale`, bits selects the support from
    vertices, u solves A_T u = d * 1 with d > 0 and no negative entry, and
    value is d / (scale * sum(u)); the weights on the support are u / sum(u).
    Every exact route runs this sweep, so EXACT_SWEEP_BOUND is checked here.
    """
    m = len(vertices)
    if m > EXACT_SWEEP_BOUND:
        raise SizeExceededError(
            f"support sweep over {m} vertices exceeds bound {EXACT_SWEEP_BOUND}"
        )
    for bits in range(1, 1 << m):
        face = _solve_face(rates, [vertices[i] for i in range(m) if bits >> i & 1])
        if face is None:
            continue
        d, u = face
        if min(u) < 0:
            continue
        # u is nonzero (A_T is invertible), so its sum is positive here
        yield bits, Fraction(d, scale * sum(u)), u


def _exact_min(rates, scale: int, vertices: Sequence[int]):
    """Exact minimum of the rate form over the simplex on the given vertices.

    Ties go to the lowest bitmask, so weights and supports are reproducible.
    """
    best = min(_stationary_points(rates, scale, vertices), key=itemgetter(1), default=None)
    if best is None:
        raise RuntimeError("no stationary candidate found; zero diagonal entry?")
    bits, value, u = best
    total = sum(u)
    weights = [Fraction(x, total) for x in u]
    return value, weights, [v for i, v in enumerate(vertices) if bits >> i & 1]


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

    Exact mode needs rational p strictly inside (0, 1) (floats are converted
    to their exact rational value) and enforces EXACT_SWEEP_BOUND per
    independently-solved block: per component when decompose=True, on the
    whole CRG otherwise.  Setting decompose=False solves the joint program by
    brute support enumeration, which is what lets tests confirm the
    reciprocal-sum component identity rather than assume it.
    """
    if mode == "numeric":
        if not 0 <= p <= 1:
            raise ParameterDomainError(f"p={p} outside [0, 1]")
        M = np.array(
            [[float(v) for v in row] for row in rate_matrix(K, float(p)).entries]
        )
        value, x = _numeric_min(M)
        weights = tuple(float(w) for w in x)
        support = tuple(i for i, w in enumerate(weights) if w > NUMERIC_TOL)
        return GValue(value, weights, support, "numeric")
    if mode != "exact":
        raise ParameterDomainError(f"unknown mode {mode!r}")

    p = to_fraction(p)
    if not 0 < p < 1:
        raise ParameterDomainError(
            "exact mode needs 0 < p < 1; use g_endpoint for p in {0, 1}"
        )
    rates, scale = _integer_rates(K, p)
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


def g_endpoint(K: Crg, p: int) -> Fraction:
    """Literal evaluation of the rate form minimum at p = 0 or p = 1.

    A white vertex absorbs all weight at p=0 (and a black one at p=1) for a
    value of zero; otherwise the 0/1-entry program is solved exactly, up to
    EXACT_SWEEP_BOUND vertices per component.
    """
    if p not in (0, 1):
        raise ParameterDomainError("g_endpoint is defined for p in {0, 1} only")
    zero_color = WHITE if p == 0 else BLACK
    if any(c == zero_color for c in K.vertex_colors):
        return Fraction(0)
    rates, scale = _integer_rates(K, Fraction(p))
    return _recombined_min(rates, scale, component_sets(K))[0]


def g_krs(r: int, s: int, p: Number) -> Number:
    """Closed-form g of the all-gray CRG: the harmonic rule (r/p + s/(1-p))^-1.

    Endpoint conventions match g_endpoint: any white vertex makes g vanish at
    p=0, any black vertex at p=1.
    """
    if r < 0 or s < 0 or r + s == 0:
        raise ParameterDomainError("need r, s >= 0 with r + s >= 1")
    one = one_like(p)
    if 0 < p < 1:
        return one / (r / (one * p) + s / (one - p))
    if p == 0:
        return one * 0 if r else one / s
    if p == 1:
        return one * 0 if s else one / r
    raise ParameterDomainError(f"p={p} outside [0, 1]")


@dataclass(frozen=True)
class DegreeReport:
    """Weighted and counted neighborhoods of every vertex under fixed weights.

    gray/white/black are the weight sums over the correspondingly colored
    neighborhoods, with a vertex's own weight folded into its own color class;
    the three sum to 1 for each vertex.  gray_codegree maps vertex pairs to
    the weight of their common gray neighborhood.
    """

    gray: tuple[Number, ...]
    white: tuple[Number, ...]
    black: tuple[Number, ...]
    gray_neighbor_count: tuple[int, ...]
    gray_codegree: dict[tuple[int, int], Number]


def degree_report(K: Crg, g: GValue) -> DegreeReport:
    x = g.weights
    if len(x) != K.n:
        raise ParameterDomainError("weight vector does not match the CRG")
    zero = x[0] * 0
    gray = [zero] * K.n
    white = [zero] * K.n
    black = [zero] * K.n
    gray_sets = [set() for _ in range(K.n)]
    for v in range(K.n):
        if K.vertex_colors[v] == WHITE:
            white[v] = white[v] + x[v]
        else:
            black[v] = black[v] + x[v]
    for i, j, color in K.pairs():
        if color == GRAY:
            gray[i] = gray[i] + x[j]
            gray[j] = gray[j] + x[i]
            gray_sets[i].add(j)
            gray_sets[j].add(i)
        elif color == WHITE:
            white[i] = white[i] + x[j]
            white[j] = white[j] + x[i]
        else:
            black[i] = black[i] + x[j]
            black[j] = black[j] + x[i]
    codegree = {}
    for i in range(K.n):
        for j in range(i + 1, K.n):
            codegree[(i, j)] = sum((x[w] for w in gray_sets[i] & gray_sets[j]), zero)
    return DegreeReport(
        tuple(gray),
        tuple(white),
        tuple(black),
        tuple(len(s) for s in gray_sets),
        codegree,
    )


def is_p_core(K: Crg, p: Number) -> bool:
    """Does K strictly beat every proper nonempty induced sub-CRG at this p?

    Exact rational comparison when p is given as a rational; a float p is
    converted exactly but the strict gap must then exceed 1e-12, so that
    float callers cannot mistake roundoff for strictness.  K may have at most
    EXACT_SWEEP_BOUND vertices.
    """
    margin = Fraction(1, 10**12) if isinstance(p, float) else Fraction(0)
    p = to_fraction(p)
    if not 0 < p < 1:
        raise ParameterDomainError("is_p_core needs 0 < p < 1")
    # Every proper induced sub-CRG is a face that misses some vertex, so K is
    # a p-core exactly when its full face is feasible and beats the best
    # non-full face by more than the margin.
    full = (1 << K.n) - 1
    g_full, g_rest = None, float("inf")
    for bits, value, _ in _stationary_points(*_integer_rates(K, p), range(K.n)):
        if bits == full:
            g_full = value
        else:
            g_rest = min(g_rest, value)
    if g_full is None or not g_rest - g_full > margin:
        return False
    if not p_core_structure_ok(K, p):
        # p-core CRGs provably carry this edge-color structure, so reaching
        # here means the optimizer itself is wrong
        raise RuntimeError("certified p-core CRG violates the structural law")
    return True


def p_core_structure_ok(K: Crg, p: Number) -> bool:
    """Structural sanity for p-core CRGs: no black edges and no white edge at a
    white vertex when p < 1/2, the mirror when p > 1/2, all gray at p = 1/2."""
    p = to_fraction(p)
    half = Fraction(1, 2)
    for i, j, color in K.pairs():
        if p == half and color != GRAY:
            return False
        if p < half:
            if color == BLACK:
                return False
            if color == WHITE and WHITE in (K.vertex_colors[i], K.vertex_colors[j]):
                return False
        if p > half:
            if color == WHITE:
                return False
            if color == BLACK and BLACK in (K.vertex_colors[i], K.vertex_colors[j]):
                return False
    return True
