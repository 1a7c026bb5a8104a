"""The benchmark's workloads: seeded inputs, the cases run on them, and the
checks each case's outputs must pass.

A case's run() calls the program and returns its outputs; check() judges
those outputs without the timer running and returns (problems, failed).
Program functions are looked up on their modules at call time, so the
traced run sees every call.  Inputs come from the benchmark's own seeded
generator; the program's random_crg and standard_corpus are never used.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy

import checks
import edcycles as ed

WHITE, GRAY, BLACK = checks.WHITE, checks.GRAY, checks.BLACK

# p mix of the g workloads: small denominators, one larger denominator and a
# float, which exact mode converts to its 2^-54 dyadic value.
DENSE_PS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(37, 101), 0.3)
CORPUS_PS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))

# g-dense: (vertices, cases) per round; each size cycles through DENSE_PS.
# Most cases share one size, so the median and the tail percentile both fall
# inside one group of similar cost and move little from seed to seed.
DENSE_SIZES = ((7, 6), (8, 36), (9, 3))
# A 10-vertex CRG on which numeric g_value misses the exact optimum 3/52.
MISS_CRG = {
    "vertices": ["white", "white", "white", "white", "black", "white", "black", "white", "black", "white"],
    "edges": {
        "default": "gray",
        "overrides": [[0, 4, "white"], [0, 6, "black"], [1, 6, "black"], [1, 9, "black"], [2, 7, "black"],
                      [3, 5, "black"], [4, 5, "white"], [4, 6, "black"], [4, 9, "black"]],
    },
}
MISS_P = Fraction(1, 4)

# g-corpus: vertices -> how many times each (style, p) runs per round.
# Neither percentile may sit where the costs of two groups meet, or it moves
# with the seed: the eleventh-slowest case falls among the 24 7-vertex
# uniform CRGs, the slowest group, and the median among the 6-vertex CRGs
# and the cheaper 7-vertex ones.
CORPUS_STYLES = ("uniform", "gray", "all-gray")
CORPUS_SIZES = {1: 1, 2: 1, 3: 1, 4: 1, 5: 2, 6: 4, 7: 8}

# t -> largest h.  For t = 3 and h = 22..24 one case takes 3-4 s: with them
# those three took three quarters of a round, and a case that long is
# scaled badly to the reference speed (see EMBED_RANGES).
SPECTRA_H_MAX = {1: 24, 2: 24, 3: 21}
GRID_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101)

# embed: (t, h range); every white count a < t runs once per (h, t).  The
# unsatisfiable K(t, ell(t) - 1) proofs cost 0.16-0.24 s for t = 2 and
# h = 21..24, and about 0.03 s up to there.  Longer cases, 1.5-3 s for t = 3
# and h >= 22 and 0.9-3.3 s for t = 2 and h >= 25, are left out: a case that
# long is scaled to the reference speed by samples taken only before and
# after it, while the host's speed changes within it.
EMBED_RANGES = ((1, range(5, 14)), (2, range(13, 25)), (3, range(19, 22)))


@dataclass
class Case:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], bool]]


# --- inputs -----------------------------------------------------------------


def random_crg(rng: random.Random, n: int, gray_weight: float = 1.0):
    colors = [rng.choice((WHITE, BLACK)) for _ in range(n)]
    pairs = [
        (i, j, rng.choices((WHITE, GRAY, BLACK), weights=(1.0, gray_weight, 1.0))[0])
        for i in range(n)
        for j in range(i + 1, n)
    ]
    return ed.crg_from_pairs(colors, pairs)


def balanced_crg(rng: random.Random, n: int):
    """A random CRG with fixed color counts: the vertices half white and
    half black, the edges a third each white, gray and black, the odd ones
    out at random.  The exact solve's cost follows the number of gray
    edges, so fixed counts keep the costs near g-dense's tail percentile
    from moving with the seed."""
    m = n * (n - 1) // 2
    counts = dict.fromkeys((WHITE, GRAY, BLACK), m // 3)
    for color in rng.sample((WHITE, GRAY, BLACK), m % 3):
        counts[color] += 1
    edges = [color for color, k in counts.items() for _ in range(k)]
    rng.shuffle(edges)
    white = n // 2 + rng.randrange(n % 2 + 1)
    vertices = [WHITE] * white + [BLACK] * (n - white)
    rng.shuffle(vertices)
    return ed.crg_from_pairs(vertices, [(i, j, edges.pop()) for i in range(n) for j in range(i + 1, n)])


def all_gray(r: int, s: int):
    return ed.crg_from_pairs((WHITE,) * r + (BLACK,) * s)


def own_components(K) -> list[tuple[int, ...]]:
    """Vertex sets of the components of the white-or-black edge graph."""
    seen, out = set(), []
    for root in range(K.n):
        if root in seen:
            continue
        stack, comp = [root], []
        seen.add(root)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in range(K.n):
                if w != v and w not in seen and K.edge_color(v, w) != GRAY:
                    seen.add(w)
                    stack.append(w)
        out.append(tuple(sorted(comp)))
    return sorted(out)


def induced(K, vertices):
    vs = sorted(vertices)
    return ed.crg_from_pairs(
        [K.vertex_colors[v] for v in vs],
        [(a, b, K.edge_color(vs[a], vs[b])) for a in range(len(vs)) for b in range(a + 1, len(vs))],
    )


def convex(K, p) -> bool:
    """Is the rate form convex, M(p) positive semidefinite?

    Numeric g_value is a local search: on a nonconvex form it stops above the
    optimum on about 1 in 300 random 8- or 9-vertex CRGs, which would make the
    failed count depend on the seed.  So it runs on a seeded CRG only where a
    local minimum is global, and on the fixed MISS_CRG, where it always misses.
    """
    return numpy.linalg.eigvalsh(numpy.array(checks.rate_matrix(K, float(p)))).min() >= -1e-12


def supports(span: str, K) -> int:
    """Supports the exact solve of one traced call sweeps, counted from its CRG:
    2^|B| - 1 per independently solved block B of g_value, 2^n - 1 for is_p_core
    (a one-vertex CRG is a p-core without a sweep)."""
    if span == "gfunction.is_p_core":
        return (1 << K.n) - 1 if K.n > 1 else 0
    blocks = own_components(K) if span == "gfunction.g_value.decomposed" else [range(K.n)]
    return sum((1 << len(b)) - 1 for b in blocks)


# --- shared checks ------------------------------------------------------------


def _exact(K, p, gv) -> list[str]:
    return checks.exact_g(K, p, gv.value, gv.weights, gv.support)


def _check_p_core(K, p, verdict, full) -> list[str]:
    problems = []

    def deleted(v):
        sub = induced(K, [u for u in range(K.n) if u != v])
        gv = ed.gfunction.g_value(sub, p)
        problems.extend(_exact(sub, p, gv))
        return gv.value

    return checks.p_core(verdict, K.n, p, full.value, full.support, deleted) + problems


# --- g-dense ------------------------------------------------------------------


def dense_case(name, K, p, numeric: bool) -> Case:
    def run():
        gf = ed.gfunction
        joint = gf.g_value(K, p, decompose=False)
        core = gf.is_p_core(K, p)
        num = gf.g_value(K, p, "numeric") if numeric else None
        return joint, core, num

    def check(out):
        joint, core, num = out
        problems = _exact(K, p, joint)
        parts = own_components(K)
        if len(parts) > 1:
            values = []
            for vs in parts:
                sub = induced(K, vs)
                gv = ed.gfunction.g_value(sub, p)
                problems += _exact(sub, p, gv)
                values.append(gv.value)
            problems += checks.reciprocal_sum(joint.value, values)
        problems += _check_p_core(K, p, core, joint)
        missed = False
        if num is not None:
            more, missed = checks.numeric_g(K, p, num.value, num.weights, joint.value)
            problems += more
        return problems, missed

    return Case(name, run, check)


def g_dense(seed: int) -> tuple[list[Case], Case]:
    rng = random.Random(f"g-dense:{seed}")
    cases = []
    for n, count in DENSE_SIZES:
        for k in range(count):
            p = DENSE_PS[k % len(DENSE_PS)]
            K = balanced_crg(rng, n)
            cases.append(dense_case(f"n{n}-{k}-p{p}", K, p, convex(K, p)))
    cases.append(dense_case("miss-n10-p1/4", ed.crg_from_json(MISS_CRG), MISS_P, True))
    warmup = dense_case("warmup", balanced_crg(rng, DENSE_SIZES[0][0]), DENSE_PS[0], True)
    rng.shuffle(cases)
    return cases, warmup


# --- g-corpus -----------------------------------------------------------------


def corpus_case(name, K, p, krs) -> Case:
    numeric = convex(K, p)

    def run():
        gf, crg = ed.gfunction, ed.crg
        decomposed = gf.g_value(K, p)
        sets = crg.component_sets(K)
        parts = [gf.g_value(crg.sub_crg(K, vs), p) for vs in sets]
        recombined = 1 / sum(1 / part.value for part in parts)
        core = gf.is_p_core(K, p)
        num = gf.g_value(K, p, "numeric") if numeric else None
        ends = (gf.g_endpoint(K, 0), gf.g_endpoint(K, 1))
        return decomposed, sets, parts, recombined, core, num, ends

    def check(out):
        decomposed, sets, parts, recombined, core, num, ends = out
        problems = _exact(K, p, decomposed)
        own = own_components(K)
        if [tuple(vs) for vs in sets] != own:
            problems.append(f"component sets {sets} != {own}")
        else:
            for vs, part in zip(own, parts):
                problems += _exact(induced(K, vs), p, part)
        problems += checks.reciprocal_sum(decomposed.value, [part.value for part in parts])
        if recombined != decomposed.value:
            problems.append(f"recombined {recombined} != decomposed {decomposed.value}")
        if krs is not None:
            problems += checks.all_gray_g(*krs, p, decomposed.value)
        problems += _check_p_core(K, p, core, decomposed)
        missed = False
        if num is not None:
            more, missed = checks.numeric_g(K, p, num.value, num.weights, decomposed.value)
            problems += more
        for end, value in zip((0, 1), ends):
            problems += checks.endpoint_g(K, end, value)
        return problems, missed

    return Case(name, run, check)


def g_corpus(seed: int) -> tuple[list[Case], Case]:
    rng = random.Random(f"g-corpus:{seed}")

    def make(style, n, p):
        if style == "uniform":
            return corpus_case(f"{style}-n{n}-p{p}", random_crg(rng, n), p, None)
        if style == "gray":
            return corpus_case(f"{style}-n{n}-p{p}", random_crg(rng, n, gray_weight=8.0), p, None)
        r = rng.randint(0, n)
        return corpus_case(f"K({r},{n - r})-p{p}", all_gray(r, n - r), p, (r, n - r))

    cases = [
        make(style, n, p)
        for style in CORPUS_STYLES
        for n, repeats in CORPUS_SIZES.items()
        for p in CORPUS_PS
        for _ in range(repeats)
    ]
    warmup = make("uniform", 4, CORPUS_PS[0])
    rng.shuffle(cases)
    return cases, warmup


# --- spectra ------------------------------------------------------------------


def spectra_case(h: int, t: int, grid: list[Fraction]) -> Case:
    def run():
        params = ed.PowerCycleParams(h, t)
        spec = ed.spectrum.power_cycle_spectrum(params)
        crossings = ed.curves.branch_crossings(params)
        points = sorted(set(grid) | set(crossings))
        gammas = {p: ed.spectrum.gamma(spec, p) for p in points}
        samples = ed.curves.curve_samples(params, points)
        peak = ed.curves.max_point(lambda p: ed.curves.gamma_closed(params, p))
        return spec.extreme_points, gammas, crossings, samples, peak

    def check(out):
        extreme, gammas, crossings, samples, peak = out
        problems = checks.spectrum(h, t, extreme, gammas)
        problems += checks.curve(h, t, crossings, samples, peak.d_star)
        return problems, False

    return Case(f"h{h}-t{t}", run, check)


def spectra(seed: int) -> tuple[list[Case], Case]:
    rng = random.Random(f"spectra:{seed}")
    # Seeded numerators over fixed prime denominators keep the grid's
    # Fraction sizes, and so its cost, the same for every seed.
    grid = sorted({Fraction(0), Fraction(1)} | {Fraction(rng.randint(1, q - 1), q) for q in GRID_PRIMES})
    cases = [
        spectra_case(h, t, grid)
        for t, h_max in SPECTRA_H_MAX.items()
        for h in range(max(t * (t + 1), 2 * t + 2, 4), h_max + 1)
    ]
    warmup = spectra_case(4, 1, grid)
    rng.shuffle(cases)
    return cases, warmup


# --- embed --------------------------------------------------------------------


def report_case(h: int, t: int, a: int) -> Case:
    def run():
        report = ed.embed.gray_cycle_embedding_report(ed.PowerCycleParams(h, t), a, timeout=None)
        return report.required, report.boundary

    def check(out):
        required, boundary = out
        lo, hi = checks.ell(h, t, a), h // t
        problems = []
        if sorted(required) != list(range(lo, hi + 1)):
            problems.append(f"({h},{t},{a}) required lengths {sorted(required)} != {lo}..{hi}")
        H = ed.power_cycle(h, t)
        for k, admits in sorted(required.items()):
            if not admits:
                problems.append(f"({h},{t},{a}) gray cycle {k} does not admit C_h^t")
                continue
            phi = ed.embed.find_embedding(H, ed.gray_cycle_crg(a, k), timeout=None)
            problems += checks.witness(h, t, checks.gray_cycle_colors(a, k), a + k, phi)
        if sorted(boundary) != [k for k in (lo - 1, hi + 1) if k >= 2]:
            problems.append(f"({h},{t},{a}) boundary lengths {sorted(boundary)}")
        return problems, False

    return Case(f"report-h{h}-t{t}-a{a}", run, check)


def boundary_case(h: int, t: int) -> Case:
    def run():
        return ed.embed.k_rs_boundary_cases(ed.PowerCycleParams(h, t), timeout=None)

    def check(out):
        inside, outside = out
        lt = checks.ell(h, t, t)
        problems = []
        if not inside:
            problems.append(f"({h},{t}) K({t},{lt}) does not admit C_h^t")
        else:
            phi = ed.embed.find_embedding(ed.power_cycle(h, t), all_gray(t, lt), timeout=None)
            problems += checks.witness(h, t, checks.all_gray_colors(t, lt), t + lt, phi)
        if outside:
            problems.append(f"({h},{t}) K({t},{lt - 1}) admits C_h^t")
        return problems, False

    return Case(f"krs-h{h}-t{t}", run, check)


def embed(seed: int) -> tuple[list[Case], Case]:
    rng = random.Random(f"embed:{seed}")
    cases = []
    for t, hs in EMBED_RANGES:
        for h in hs:
            cases += [report_case(h, t, a) for a in range(t)]
            cases.append(boundary_case(h, t))
    warmup = report_case(5, 1, 0)
    rng.shuffle(cases)
    return cases, warmup


WORKLOADS = {"g-dense": g_dense, "g-corpus": g_corpus, "spectra": spectra, "embed": embed}
