"""Closed-form curves, their peaks, and the integer fact sweeps."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from edcycles.curves import (
    CONCAVITY_SAMPLES,
    MAX_POINT_TOL,
    MaxPoint,
    black_part_g_bound,
    branch_crossings,
    curve_csv,
    curve_peak,
    curve_samples,
    default_p_grid,
    ed_closed,
    ed_covered,
    gamma_closed,
    gamma_closed_with_branch,
    max_point,
    uniform_p_grid,
)
from edcycles.errors import NonConcavityError, ParameterDomainError
from edcycles.gfunction import g_krs
from edcycles.graphs import PowerCycleParams
from edcycles.verify import FACT_CHECKS, FactCheck


def test_gamma_closed_h8_t1_at_half():
    value, branch = gamma_closed_with_branch(PowerCycleParams(8, 1), Fraction(1, 2))
    assert value == Fraction(1, 6)
    assert branch == "a=0"  # ties with a=1 resolve to the least label


def test_gamma_closed_h5_t1_at_half():
    assert gamma_closed(PowerCycleParams(5, 1), Fraction(1, 2)) == Fraction(1, 4)


def test_gamma_closed_endpoints():
    params = PowerCycleParams(8, 1)
    assert gamma_closed(params, Fraction(1)) == 0
    assert gamma_closed(params, Fraction(0)) == 0
    # divisible case at p=0: every branch with a >= 1 vanishes, a=0 stays positive
    assert gamma_closed_with_branch(params, Fraction(0))[1] != "a=0"


def test_gamma_closed_h_range_error():
    with pytest.raises(ParameterDomainError):
        gamma_closed(PowerCycleParams(3, 1), Fraction(1, 2))
    with pytest.raises(ParameterDomainError):
        gamma_closed(PowerCycleParams(5, 2), Fraction(1, 2))


def test_ed_closed_coverage():
    nondiv = PowerCycleParams(9, 1)
    assert ed_closed(nondiv, Fraction(3, 10)) == gamma_closed(nondiv, Fraction(3, 10))
    div = PowerCycleParams(8, 1)
    assert div.p0 == Fraction(1, 3)
    assert ed_closed(div, Fraction(1, 10)) is None
    assert not ed_covered(div, Fraction(1, 10))
    assert ed_closed(div, Fraction(1)) == 0


def test_ed_covered_refuses_p_outside_the_unit_interval():
    params = PowerCycleParams(15, 2)
    for p in (2, -1, Fraction(3, 2)):
        with pytest.raises(ParameterDomainError):
            ed_covered(params, p)
    with pytest.raises(ValueError):
        ed_covered(params, "x")
    assert ed_covered(params, "1/2") and not ed_covered(params, "1/10")


@pytest.mark.parametrize("p", [float("nan"), float("inf"), float("-inf")])
def test_gamma_closed_refuses_non_finite_p(p):
    with pytest.raises(ParameterDomainError):
        gamma_closed(PowerCycleParams(13, 2), p)


@pytest.mark.parametrize("p", [-5, Fraction(-1, 3), Fraction(4, 3), 1.5])
def test_ed_closed_refuses_p_outside_unit_interval(p):
    # (15, 2) is divisible: a negative p lies below p0, yet it is refused, not 'not covered'
    with pytest.raises(ParameterDomainError):
        ed_closed(PowerCycleParams(15, 2), p)


def test_ed_closed_h_range():
    with pytest.raises(ParameterDomainError):
        ed_closed(PowerCycleParams(12, 2), Fraction(1, 2))  # needs h >= 13


def marchant_thomason(h, p):
    """The forbidden-cycle edit distance of Marchant and Thomason (2010),
    written out independently of the branch table: min of p/2 (odd h only)
    and the two rational branches, and None for even h below 1/ceil(h/3)."""
    l0, l1 = -(-h // 2), -(-h // 3)  # ell(0) and ell(1) at t = 1
    middle = p * (1 - p) / ((1 - p) + (l1 - 1) * p)
    last = (1 - p) / (l0 - 1)
    if h % 2 == 0:
        return None if p < Fraction(1, l1) else min(middle, last)
    return min(p / 2, middle, last)


@pytest.mark.parametrize("h", range(5, 41))
def test_cycle_closed_form_instantiates_general_form(h):
    params = PowerCycleParams(h, 1)
    grid = {Fraction(k, 60) for k in range(61)}
    if h % 2 == 0:  # the coverage boundary and a point just below it
        boundary = Fraction(1, -(-h // 3))
        grid |= {boundary, boundary - Fraction(1, 10**6)}
    for p in sorted(grid):
        assert ed_closed(params, p) == marchant_thomason(h, p), p


def test_cycle_closed_form_h_range():
    with pytest.raises(ParameterDomainError):
        ed_closed(PowerCycleParams(4, 1), Fraction(1, 2))  # needs h >= 5


def test_three_term_matches_full_gamma():
    # from h = 4t^2+10t+24 on, the rows a = 0, t (and the chromatic row
    # a = t+1) give the whole curve; values are compared, since ties take
    # the first row and so need not carry the same label
    grid = [Fraction(k, 100) for k in range(101)]
    for t in (2, 3):
        for h in range(4 * t * t + 10 * t + 24, 121):
            params = PowerCycleParams(h, t)
            rows = [(a, c) for a, c in params.branches[1] if a in (0, t, t + 1)]
            for p in grid:
                assert gamma_closed(params, p) == min(g_krs(a, c, p) for a, c in rows)


def test_black_part_bound_examples():
    params = PowerCycleParams(13, 2)
    p = Fraction(1, 4)
    # choosing the matching branch index shows the bound is at most that term
    for a in (1, 2):
        bound = black_part_g_bound(a, params, p)
        assert bound <= (1 - p) / (params.ell(a) - 1)
    direct = max(
        (a2 - 0) / p + (params.ell(a2) - 1) / (1 - p) for a2 in range(3)
    )
    assert black_part_g_bound(0, params, p) == 1 / direct


def test_max_point_toy_tent():
    point = max_point(lambda p: min(p, 1 - p))
    assert point.p_star == pytest.approx(0.5, abs=1e-9)
    assert point.d_star == pytest.approx(0.5, abs=1e-9)


def test_max_point_takes_one_probe_a_step():
    # a tent peaking at 1/7, which no probe i / F hits; the Fibonacci bracket
    # shrinks by the golden ratio per probe, so 60 probes reach 1e-12, where
    # a search taking two probes a step needs about 138
    probes = []

    def tent(p):
        probes.append(p)
        return min(7 * p, Fraction(7, 6) * (1 - p))

    point = max_point(tent)
    search = probes[CONCAVITY_SAMPLES:-1]  # the last call evaluates p_star
    assert len(search) == 60
    assert all(isinstance(q, Fraction) for q in search)
    assert abs(Fraction(point.p_star) - Fraction(1, 7)) <= MAX_POINT_TOL / 2
    assert point.method == "fibonacci-search"


def test_max_point_rejects_convex():
    with pytest.raises(NonConcavityError):
        max_point(lambda p: (p - 0.5) ** 2)


def _reference_max_point(curve):
    """max_point in plain Fraction arithmetic: the grid, the Fibonacci table
    and the stop test rebuilt per call, the midpoint test on Fractions."""
    grid = uniform_p_grid(CONCAVITY_SAMPLES)
    values = [curve(p) for p in grid]
    for i in range(CONCAVITY_SAMPLES - 2):
        if values[i + 1] < (values[i] + values[i + 2]) / 2 - Fraction(1, 10**9):
            raise NonConcavityError(f"midpoint concavity fails near p={float(grid[i + 1])}")
    fib = [0, 1]
    while fib[-1] < 2 / MAX_POINT_TOL:
        fib.append(fib[-1] + fib[-2])
    scale = fib[-1]
    k = len(fib) - 1
    lo, x1, x2 = 0, fib[k - 2], fib[k - 1]
    left, right = curve(Fraction(x1, scale)), curve(Fraction(x2, scale))
    while Fraction(fib[k], scale) > MAX_POINT_TOL:
        k -= 1
        if left < right:
            lo, x1, left = x1, x2, right
            x2 = lo + fib[k - 1]
            right = curve(Fraction(x2, scale))
        else:
            x2, right = x1, left
            x1 = lo + fib[k - 2]
            left = curve(Fraction(x1, scale))
    p_star = Fraction(2 * lo + fib[k], 2 * scale)
    return MaxPoint(float(p_star), float(curve(p_star)), "fibonacci-search")


def _probed(search, curve):
    """search(curve) and the list of points it evaluated curve at."""
    probes = []

    def recorded(p):
        probes.append(p)
        return curve(p)

    return search(recorded), probes


def _spectra_range():
    # every (h, t) of the benchmark's spectra workload
    for t, h_max in ((1, 24), (2, 24), (3, 21)):
        for h in range(max(t * (t + 1), 2 * t + 2, 4), h_max + 1):
            yield h, t


def test_max_point_matches_the_fraction_reference():
    curves = [(("tent", 7), lambda p: min(7 * p, Fraction(7, 6) * (1 - p)))]
    for h, t in _spectra_range():
        params = PowerCycleParams(h, t)
        curves.append(((h, t), lambda p, params=params: gamma_closed(params, p)))
    for name, curve in curves:
        point, probes = _probed(max_point, curve)
        reference, reference_probes = _probed(_reference_max_point, curve)
        assert probes == reference_probes, name
        assert point == reference, name


@pytest.mark.parametrize(
    "curve",
    [
        lambda p: min(p, 1 - p) if p != 1 else float("nan"),
        lambda p: float("nan"),
        lambda p: float("inf"),
    ],
    ids=["nan-at-1", "nan", "inf"],
)
def test_max_point_refuses_values_it_cannot_compare(curve):
    with pytest.raises(ParameterDomainError):
        max_point(curve)


def _dipped_line(defect):
    """p, lowered by defect at p = 1/2: a midpoint defect of exactly defect
    there, and none elsewhere on the concavity grid."""
    return lambda p: p - defect if p == Fraction(1, 2) else p


def test_max_point_concavity_threshold_is_strict():
    at_threshold = _dipped_line(Fraction(1, 10**9))
    assert max_point(at_threshold) == _reference_max_point(at_threshold)
    past = _dipped_line(Fraction(1, 10**9) + Fraction(1, 10**15))
    with pytest.raises(NonConcavityError, match="p=0.5"):
        max_point(past)
    with pytest.raises(NonConcavityError, match="p=0.5"):
        _reference_max_point(past)


@pytest.mark.parametrize(
    "curve",
    [lambda p: float(p) * (1 - float(p)), lambda p: math.sqrt(p) * (1 - float(p))],
    ids=["parabola", "root"],
)
def test_max_point_float_curve_matches_the_reference(curve):
    assert max_point(curve) == _reference_max_point(curve)


def test_cycle_peak_h7_is_irrational_point():
    point = curve_peak(PowerCycleParams(7, 1))
    assert point.method == "closed-form"
    assert point.p_star == pytest.approx(math.sqrt(2) - 1, abs=1e-9)
    assert point.d_star == pytest.approx(3 - 2 * math.sqrt(2), abs=1e-9)


def test_cycle_peak_h9_is_rational_point():
    point = curve_peak(PowerCycleParams(9, 1))
    assert point.p_star == pytest.approx(1 / 3, abs=1e-9)


@pytest.mark.parametrize("h", range(5, 20))
def test_cycle_peak_matches_candidate_family(h):
    # the square-root form applies exactly for h in {4, 7, 8, 10, 16}
    point = curve_peak(PowerCycleParams(h, 1))
    rational_form = 1.0 / (math.ceil(h / 2) - math.ceil(h / 3) + 1)
    root_form = 1.0 / (1.0 + math.sqrt(math.ceil(h / 3) - 1))
    expected = root_form if h in (4, 7, 8, 10, 16) else rational_form
    assert point.p_star == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("t", [2, 3])
@pytest.mark.parametrize("h", range(12, 52))
def test_curve_peak_matches_ternary_search(h, t):
    params = PowerCycleParams(h, t)
    point = curve_peak(params)
    reference = max_point(lambda p: gamma_closed(params, p))
    assert point.method == "closed-form"
    assert point.p_star == pytest.approx(reference.p_star, abs=1e-9)
    assert point.d_star == pytest.approx(reference.d_star, abs=1e-9)


def test_curve_peak_h25_t3_is_exactly_half():
    point = curve_peak(PowerCycleParams(25, 3))
    assert point.p_star == 0.5
    assert point.method == "closed-form"


@pytest.mark.parametrize("t", [1, 2, 3])
def test_curve_peak_at_a_crossing_rounds_the_exact_value(t):
    crossing_peaks = 0
    for h in range(max(t * (t + 1), 4), 60):
        params = PowerCycleParams(h, t)
        point = curve_peak(params)
        for q in branch_crossings(params):
            if float(q) == point.p_star:
                crossing_peaks += 1
                assert point.d_star == float(gamma_closed(params, q)), (h, t, q)
    assert crossing_peaks > 0


def test_curve_peak_rounds_every_vertex_peak_correctly():
    # A branch 1/(a/p + c/(1-p)) whose vertex lies on gamma is the peak;
    # p_star must be that vertex correctly rounded, found here at 60 digits.
    vertex_peaks = 0
    with localcontext(prec=60):
        for t in range(1, 6):
            for h in range(max(t * (t + 1), 4), 200):
                params = PowerCycleParams(h, t)
                shapes = params.branches[1]
                point = curve_peak(params)
                for a, c in shapes:
                    if a == 0 or c == 0:
                        continue
                    x = Decimal(a).sqrt() / (Decimal(a).sqrt() + Decimal(c).sqrt())
                    own = 1 / (a / x + c / (1 - x))
                    if all(own <= 1 / (a2 / x + c2 / (1 - x)) for a2, c2 in shapes):
                        vertex_peaks += 1
                        assert point.p_star == float(x), (h, t, a, c)
    assert vertex_peaks == 116


def test_max_point_probe_validates_result():
    params = PowerCycleParams(8, 1)
    point = max_point(lambda p: gamma_closed(params, p))
    for delta in (-1e-6, 1e-6):
        probe = min(max(point.p_star + delta, 0.0), 1.0)
        assert float(gamma_closed(params, probe)) <= point.d_star + 1e-12


def test_branch_crossings_are_true_ties():
    from edcycles.curves import branch_values

    for h, t in ((8, 1), (9, 1), (13, 2), (18, 2), (25, 3)):
        params = PowerCycleParams(h, t)
        for p in branch_crossings(params):
            values = sorted(v for _, v in branch_values(params, p))
            assert any(
                values[i] == values[i + 1] for i in range(len(values) - 1)
            ), (h, t, p)


def test_default_grid_contains_special_points():
    params = PowerCycleParams(8, 1)
    grid = default_p_grid(params)
    assert params.p0 in grid
    assert Fraction(1, 2) in grid
    for crossing in branch_crossings(params):
        assert crossing in grid
    assert grid == sorted(grid)


def test_curve_samples_and_csv():
    params = PowerCycleParams(8, 1)
    grid = [Fraction(0), params.p0, Fraction(1, 2), Fraction(1)]
    samples = curve_samples(params, grid)
    assert [s.covered for s in samples] == [False, True, True, True]
    assert samples[0].ed is None
    assert samples[2].ed == samples[2].gamma
    text = curve_csv(samples)
    lines = text.splitlines()
    assert lines[0] == "p,gamma_closed,ed_closed,branch,covered"
    assert len(lines) == 5
    assert curve_csv(samples) == text  # deterministic


def test_gamma_closed_midpoint_concavity_exact():
    for h, t in ((8, 1), (13, 2), (30, 3)):
        params = PowerCycleParams(h, t)
        grid = [Fraction(k, 200) for k in range(201)]
        values = [gamma_closed(params, p) for p in grid]
        for i in range(199):
            assert values[i + 1] >= (values[i] + values[i + 2]) / 2


def test_branch_boundary_continuity():
    # on a grid enriched with every pairwise crossing, argmin switches happen
    # exactly at grid points where both branches attain the minimum together
    from edcycles.curves import branch_values

    for h, t in ((8, 1), (13, 2), (16, 2), (25, 3)):
        params = PowerCycleParams(h, t)
        grid = default_p_grid(params, samples=501)
        samples = [gamma_closed_with_branch(params, p) for p in grid]
        switch_count = 0
        for i in range(len(grid) - 1):
            (v1, label1), (v2, label2) = samples[i], samples[i + 1]
            if label1 == label2:
                continue
            switch_count += 1
            agree = False
            for q, vq in ((grid[i], v1), (grid[i + 1], v2)):
                at_q = dict(branch_values(params, q))
                if at_q[label1] == at_q[label2] == vq:
                    agree = True
            assert agree, (h, t, grid[i], label1, label2)
        assert switch_count >= 1, (h, t)


def test_linearity_windows():
    # nondivisible: gamma is p/(t+1) up to p0
    params = PowerCycleParams(9, 1)
    for k in range(0, 11):
        p = params.p0 * Fraction(k, 10)
        assert gamma_closed(params, p) == p / 2
    # large h: gamma is (1-p)/(ell(0)-1) from 1/2 on
    params = PowerCycleParams(13, 2)
    for k in range(0, 11):
        p = Fraction(1, 2) + Fraction(k, 20)
        assert gamma_closed(params, p) == (1 - p) / (params.ell(0) - 1)


def test_fact_checked_zero_times_does_not_pass():
    fact = FactCheck("unreached")
    assert not fact.passed
    fact.record()
    assert fact.passed
    fact.fail(("witness",))
    assert not fact.passed


def test_verify_facts_two_part_example():
    # h=7, x=2, y=3: both floor inequalities hold together
    assert (7 // 2 >= 3) == (7 // 3 >= 2)


def test_early_linearity_value_at_p0():
    # h=13, t=2: at p0 = 1/3 the whole curve collapses to p/(t+1)
    params = PowerCycleParams(13, 2)
    assert params.p0 == Fraction(1, 3)
    assert gamma_closed(params, params.p0) == params.p0 / 3


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_late_linearity_boundary_is_tight(t):
    # at h = (t+1)^2 + 1 and p = 1/2 the a=0 branch meets p/(t+1) exactly
    h = (t + 1) ** 2 + 1
    params = PowerCycleParams(h, t)
    assert params.ell(0) == t + 2
    p = Fraction(1, 2)
    assert (1 - p) / (params.ell(0) - 1) == p / (t + 1)


def _floor_ells(params):
    return tuple(params.h // (params.t + a + 1) for a in range(params.t + 1))


def _ell1_plus_one(params):
    return tuple(-(-params.h // (params.t + a + 1)) + (a == 1) for a in range(params.t + 1))


@pytest.mark.parametrize("mutant", [_floor_ells, _ell1_plus_one])
def test_linearity_facts_catch_mutated_ells(monkeypatch, mutant):
    # a wrong ell must break a linearity fact somewhere in the fixed sweep
    monkeypatch.setattr(PowerCycleParams, "ells", property(mutant))
    facts = [FactCheck(name) for name in ("late_linearity", "early_linearity")]
    for fact in facts:
        FACT_CHECKS[fact.name](fact)
    assert any(fact.failure_count for fact in facts)
