"""Reaction term families, the spec string parser and the exact checks."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphpde.nonlinearity
from graphpde import (
    GridSpec,
    ar_lower_bound,
    check_f,
    check_h,
    compute_boundary,
    f1_verdict,
    odd_poly,
    parse_nonlinearity,
    power,
    power_plus_const,
    smoothness_note,
)
from graphpde.nonlinearity import (
    _abs_pow,
    antiderivative,
    antiderivative_peak,
    f8_verdict,
    reaction,
    reaction_derivative,
)
from util import path_graph

GRID = GridSpec(10.0)
TINY = np.finfo(float).tiny  # the smallest normal float


def evaluated(nl, u):
    """(f, F, f_u) at u; floats for a scalar u."""
    arr = np.asarray(u, dtype=float)
    out = reaction(nl, arr), antiderivative(nl, arr), reaction_derivative(nl, arr)
    return tuple(float(x) for x in out) if arr.ndim == 0 else out


def test_power_values():
    nl = power(4)
    f, F, fu = evaluated(nl, 2.0)
    assert (f, F, fu) == (8.0, 4.0, 12.0)
    f, F, fu = evaluated(nl, -2.0)
    assert (f, F, fu) == (-8.0, 4.0, 12.0)
    f, F, fu = evaluated(nl, 0.0)
    assert (f, F, fu) == (0.0, 0.0, 0.0)
    # exact at the other integral p as well, odd p - 2 included
    for p, u, expected in [
        (3, 3.0, (9.0, 9.0, 6.0)), (3, -3.0, (-9.0, 9.0, 6.0)),
        (5, 5.0, (625.0, 625.0, 500.0)), (5, -5.0, (-625.0, 625.0, 500.0)),
        (6, 6.0, (7776.0, 7776.0, 6480.0)), (6, -6.0, (-7776.0, 7776.0, 6480.0)),
        (3, 0.0, (0.0, 0.0, 0.0)), (5, 0.0, (0.0, 0.0, 0.0)), (6, -0.0, (0.0, 0.0, 0.0)),
    ]:
        assert evaluated(power(p), u) == expected, (p, u)


def test_power_three_values():
    nl = power(3)
    f, F, fu = evaluated(nl, -2.0)
    assert f == -4.0
    assert F == pytest.approx(8.0 / 3.0, rel=1e-15)
    assert fu == 4.0


def test_power_plus_const_values():
    nl = power_plus_const(4, 0.1)
    f, F, fu = evaluated(nl, 2.0)
    assert f == pytest.approx(8.1, rel=1e-15)
    assert F == pytest.approx(4.2, rel=1e-15)
    assert fu == 12.0
    f0, F0, _ = evaluated(nl, 0.0)
    assert f0 == 0.1
    assert F0 == 0.0
    nl = power_plus_const(5, 0.5)
    assert evaluated(nl, 5.0) == (625.5, 627.5, 500.0)
    assert evaluated(nl, -5.0) == (-624.5, 622.5, 500.0)
    assert evaluated(nl, 0.0) == (0.5, 0.0, 0.0)


def test_odd_poly_values():
    nl = odd_poly({1: -1.0, 3: 1.0})
    f, F, fu = evaluated(nl, 2.0)
    assert f == 6.0
    assert F == 2.0
    assert fu == 11.0


def test_evaluate_vectorized():
    nl = power(4)
    u = np.array([-1.0, 0.0, 2.0])
    f, F, fu = evaluated(nl, u)
    assert f.tolist() == [-1.0, 0.0, 8.0]
    assert F.tolist() == [0.25, 0.0, 4.0]
    assert fu.tolist() == [3.0, 0.0, 12.0]


@st.composite
def _normal_power_cases(draw):
    # |u| in [1e-30, 1e30], cut so that |u|^k stays a normal float
    k = draw(st.integers(1, 64))
    lim = min(30.0, 300.0 / k)
    u = draw(st.lists(st.floats(-lim, lim), min_size=1, max_size=8))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(u), max_size=len(u)))
    return k, np.array(signs) * 10.0 ** np.array(u)


@settings(max_examples=300, deadline=None)
@given(case=_normal_power_cases())
def test_abs_pow_integral_k_matches_float_pow(case):
    k, u = case
    got, want = _abs_pow(u, float(k)), np.abs(u) ** float(k)
    assert np.all((want >= TINY) & np.isfinite(want))
    assert np.all(np.abs(got - want) <= k * 2.0 ** -52 * want)


@pytest.mark.parametrize("k", range(2, 65))
def test_abs_pow_edge_values_match_float_pow(k):
    u = np.array([0.0, -0.0, 1e-200, -1e-200, 1e300, -1e300])
    with np.errstate(over="ignore"):
        got, want = _abs_pow(u, float(k)), np.abs(u) ** float(k)
    assert got.tolist() == want.tolist() == [0.0, 0.0, 0.0, 0.0, math.inf, math.inf]


@pytest.mark.parametrize("k", [2.5, 3.5, 4.5])
def test_abs_pow_non_integral_k_is_float_pow(k):
    u = np.random.default_rng(7).standard_normal(500) * 10.0 ** np.arange(-5, 5).repeat(50)
    u[::50] = 0.0
    got = _abs_pow(u, k)
    assert got.tobytes() == (np.abs(u) ** k).tobytes()


def _zero_or_at_least(floor, top):
    # keeps every term c_k u^k a normal float, so rounding stays relative
    return st.floats(-top, top).filter(lambda x: x == 0.0 or abs(x) >= floor)


@settings(max_examples=100, deadline=None)
@given(
    coeffs=st.dictionaries(
        st.sampled_from(range(1, 22, 2)), _zero_or_at_least(1e-10, 10.0), min_size=1, max_size=6
    ),
    u=st.lists(_zero_or_at_least(1e-12, 2.0), min_size=1, max_size=6),
)
def test_odd_poly_matches_exact_evaluation(coeffs, u):
    nl = odd_poly(coeffs)
    u = np.array(u)
    f, F, fu = evaluated(nl, u)
    for i, x in enumerate(u.tolist()):
        xq = Fraction(x)
        items = [(k, Fraction(c)) for k, c in coeffs.items()]
        exact = (
            sum(c * xq ** k for k, c in items),
            sum(c * xq ** (k + 1) / (k + 1) for k, c in items),
            sum(k * c * xq ** (k - 1) for k, c in items),
        )
        scale = (
            sum(abs(c) * abs(x) ** k for k, c in coeffs.items()),
            sum(abs(c) * abs(x) ** (k + 1) / (k + 1) for k, c in coeffs.items()),
            sum(k * abs(c) * abs(x) ** (k - 1) for k, c in coeffs.items()),
        )
        for got, want, s in zip((f[i], F[i], fu[i]), exact, scale):
            assert abs(Fraction(float(got)) - want) <= Fraction(1e-13) * Fraction(s)


def test_odd_poly_cube_equals_power_four():
    # c_3 u^3 and |u|^2 u go through the same kernel products
    u = np.random.default_rng(3).standard_normal(400) * 10.0 ** np.arange(-80, 80, 40).repeat(100)
    u[::7] = 0.0
    with np.errstate(under="ignore"):
        for got, want in zip(evaluated(odd_poly({3: 1.0}), u), evaluated(power(4), u)):
            assert got.tolist() == want.tolist()


def test_odd_poly_degree_past_the_kernel_cap():
    # the degree-10001 term is past the kernel's cap and takes float pow
    nl = odd_poly({1: 2.0, 10001: 1.0})
    f, F, fu = evaluated(nl, np.array([-1.0, 0.0, 0.5, 1.0]))
    assert f.tolist() == [-3.0, 0.0, 1.0, 3.0]
    assert F.tolist() == [1.0 + 1.0 / 10002, 0.0, 0.25, 1.0 + 1.0 / 10002]
    assert fu.tolist() == [10003.0, 2.0, 2.0, 10003.0]


@settings(max_examples=60, deadline=None)
@given(
    u=st.one_of(st.floats(0.1, 3.0), st.floats(-3.0, -0.1)),
    pick=st.integers(0, 2),
)
def test_derivative_consistency(u, pick):
    nl = [power(4), power_plus_const(3, 0.2), odd_poly({1: -1.0, 5: 0.5})][pick]
    step = 1e-6 * max(1.0, abs(u))
    f, _, fu = evaluated(nl, u)
    _, F_hi, _ = evaluated(nl, u + step)
    _, F_lo, _ = evaluated(nl, u - step)
    fd_f = (F_hi - F_lo) / (2 * step)
    assert fd_f == pytest.approx(f, rel=1e-5, abs=1e-8)
    f_hi, _, _ = evaluated(nl, u + step)
    f_lo, _, _ = evaluated(nl, u - step)
    fd_fu = (f_hi - f_lo) / (2 * step)
    assert fd_fu == pytest.approx(fu, rel=1e-4, abs=1e-7)


def test_factory_validation():
    with pytest.raises(ValueError):
        power(2.0)
    with pytest.raises(ValueError):
        power_plus_const(4, 0.0)
    with pytest.raises(ValueError):
        odd_poly({2: 1.0})
    with pytest.raises(ValueError):
        odd_poly({})
    with pytest.raises(ValueError):
        power(4, theta=2.0, M=1.0)
    with pytest.raises(ValueError):
        power(4, theta=3.0, M=-1.0)


@pytest.mark.parametrize("build", [
    lambda: power(math.inf),
    lambda: power(math.nan),
    lambda: power_plus_const(math.inf, 0.1),
    lambda: odd_poly({3: math.nan}),
    lambda: odd_poly({3: math.inf}),
    lambda: odd_poly({1: 1.0, 3: -math.inf}),
    lambda: odd_poly({3: 1e308}),  # finite c_3, but 3 c_3 overflows
    lambda: odd_poly({10 ** 400 + 1: 0.0}),  # a degree beyond the float range
], ids=["power-inf", "power-nan", "power_plus_const-inf", "c3-nan", "c3-inf", "c3-minus-inf",
        "c3-1e308", "huge-degree"])
def test_factories_reject_non_finite_parameters(build):
    with pytest.raises(ValueError, match="finite"):
        build()


@pytest.mark.parametrize(
    "spec",
    ["power:p=4", "power:p=3.5", "power_plus_const:p=4,eps=0.1",
     "odd_poly:c1=-1,c3=1", "odd_poly:c5=0.25"],
)
def test_parse_roundtrip(spec):
    # the parsed fields, fed back to the family constructor, rebuild it
    nl = parse_nonlinearity(spec)
    rebuild = {
        "power": lambda: power(nl.p),
        "power_plus_const": lambda: power_plus_const(nl.p, nl.eps),
        "odd_poly": lambda: odd_poly(dict(nl.coeffs)),
    }
    assert rebuild[nl.family]() == nl


@pytest.mark.parametrize(
    "bad",
    [
        "nope:p=4",
        "power",
        "power:p=2",
        "power:q=4",
        "power:p=4,p=5",
        "power:p=abc",
        "power_plus_const:p=4",
        "power_plus_const:p=4,eps=0",
        "odd_poly:c2=1",
        "odd_poly:",
        "odd_poly:c=1",
        "power:p=4,extra=1",
        "odd_poly:c1=1,c01=2",
        "odd_poly:c3=1,c003=-1",
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_nonlinearity(bad)


def test_parse_rejects_a_degree_given_twice():
    # c1 and c01 name the same degree; the later one must not silently win
    with pytest.raises(ValueError, match=r"^duplicate degree 1 in 'odd_poly:c1=1,c01=2'$"):
        parse_nonlinearity("odd_poly:c1=1,c01=2")
    with pytest.raises(ValueError, match=r"^duplicate degree 3 in "):
        parse_nonlinearity("odd_poly:c3=1,c003=-1")


def test_smoothness_notes():
    assert "not C^2" in smoothness_note(power(2.5))
    assert "smooth" in smoothness_note(odd_poly({3: 1.0}))
    assert f1_verdict(power(4)).holds


def test_check_h_h1(path3):
    graph, part = path3
    good = check_h(graph, part, np.array([0.0, 1.0, 0.0]), "H1", h0=1.0)
    assert good.holds
    bad = check_h(graph, part, np.array([0.0, 0.5, 0.0]), "H1", h0=1.0)
    assert not bad.holds
    assert "'b'" in bad.witness
    with pytest.raises(ValueError):
        check_h(graph, part, np.ones(3), "H1")


def test_check_h_h2(path3):
    graph, part = path3
    good = check_h(graph, part, np.array([0.0, -2.0, 0.0]), "H2")
    assert good.holds
    assert good.data["l1_of_inverse"] == pytest.approx(1.0)
    bad = check_h(graph, part, np.zeros(3), "H2")
    assert not bad.holds
    assert "'b'" in bad.witness


def test_check_h_h2_names_the_earliest_interior_zero():
    graph = path_graph("abcdef")
    part = compute_boundary(graph, ["b", "c", "d", "e"])
    # zeros at c and e inside, and at the boundary vertex a, which H2 ignores
    v = check_h(graph, part, np.array([0.0, 1.0, 0.0, 2.0, 0.0, 1.0]), "H2")
    assert not v.holds
    assert v.witness == "h vanishes at vertex 'c'; 1/h is not summable"


def test_check_h_h3(path3):
    graph, part = path3
    # int_omega h dmu = 0.2 vs 1/(mu_min h0) = 10
    good = check_h(graph, part, np.full(3, 0.1), "H3", h0=0.1)
    assert good.holds
    bad = check_h(graph, part, np.ones(3), "H3", h0=1.0)
    assert not bad.holds
    with pytest.raises(ValueError):
        check_h(graph, part, np.ones(3), "H9")


def test_f2_exact():
    assert check_f(power(4), "F2", GRID).holds
    assert not check_f(power_plus_const(4, 0.1), "F2", GRID).holds
    assert not check_f(odd_poly({1: -1.0, 3: 1.0}), "F2", GRID).holds
    assert check_f(odd_poly({3: 1.0}), "F2", GRID).holds


def test_f3_growth():
    ok = check_f(power(4), "F3", GRID, C=2.0, p=4.0)
    assert ok.holds
    too_small = check_f(power(4), "F3", GRID, C=0.1, p=3.0)
    assert not too_small.holds
    assert too_small.witness
    with pytest.raises(ValueError):
        check_f(power(4), "F3", GRID)


def test_f3_decides_a_fall_past_the_largest_float():
    # u^2 outgrows 100 (1 + |u|^1.99609375) only past |u| = 100^256 = 1e512,
    # where no float reaches: the leading powers decide, and the witness
    # names u alone
    verdict = check_f(power(3), "F3", C=100.0, p=2.99609375)
    assert not verdict.holds
    assert verdict.witness == (
        "|f(u)| > C(1+|u|^(p-1)) at u = -1e+512, where its quantities overflow a float")
    assert check_f(power(3), "F3", C=100.0, p=3.0).holds


def test_f3_witness_quantities_are_finite():
    # |u|^1.1 exceeds 0.1 (1 + |u|^1.1015625) from |u| of about 1 up to
    # about 1e640; the witness is a float whose quantities are floats too
    verdict = check_f(power(2.1), "F3", C=0.1, p=2.1015625)
    assert not verdict.holds
    match = re.fullmatch(r"\|f\(u\)\| > C\(1\+\|u\|\^\(p-1\)\) at u = (\S+): "
                         r"\|f\| = (\S+), C\(1\+\|u\|\^\(p-1\)\) = (\S+)", verdict.witness)
    assert match, verdict.witness
    u, f, bound = (float(g) for g in match.groups())
    assert all(math.isfinite(v) for v in (u, f, bound)) and f > bound
    assert abs(float(reaction(power(2.1), u))) > 0.1 * (1.0 + abs(u) ** 1.1015625)


def test_f4_superquadraticity():
    assert check_f(power(4), "F4", GRID, theta=4.0, M=1.0).holds
    assert check_f(power_plus_const(4, 0.1), "F4", GRID, theta=3.0, M=2.0).holds
    bad = check_f(power_plus_const(4, 0.1), "F4", GRID, theta=4.0, M=1.0)
    assert not bad.holds
    assert bad.witness == "theta F > u f at u = 1: theta F = 1.4, u f = 1.1"
    # decided on all of R: M may lie past any range the caller passes
    assert check_f(power(4), "F4", GridSpec(5.0), theta=4.0, M=20.0).holds
    with pytest.raises(ValueError):
        check_f(power(4), "F4", GRID)


def test_f4_and_f5_fail_past_every_sampled_range():
    # u f - 3F = u^4/4 - u^6/(2 10^4) and u f_u - f = 2u^3 - 4u^5/10^4
    # turn negative past |u| = 70.7
    nl = odd_poly({3: 1.0, 5: -1e-4})
    for which, constants in (("F4", {"theta": 3.0, "M": 1.0}), ("F5", {})):
        verdict = check_f(nl, which, **constants)
        assert not verdict.holds
        assert 70.7 < _witness(verdict) < math.inf


def test_f4_uses_stored_constants():
    nl = power(4, theta=4.0, M=1.0)
    assert check_f(nl, "F4", GRID).holds


def test_f5_monotone_ratio():
    assert check_f(power(4), "F5", GRID).holds
    assert check_f(odd_poly({1: -1.0, 3: 1.0}), "F5", GRID).holds
    assert not check_f(power_plus_const(4, 0.1), "F5", GRID).holds


def test_f6_leading_power():
    # f(u)/u -> infinity on both sides iff the leading power of |u| in
    # f(u)/u has a positive exponent and a positive coefficient
    for nl in (power(4), power(2.5), power_plus_const(3, -5.0), odd_poly({1: -1.0, 3: 1.0})):
        verdict = check_f(nl, "F6", GRID)
        assert verdict.holds and verdict.data == {}
    for coeffs, witness in [
        ({1: 2.0}, "f(u)/u stays bounded above as u -> -infinity: "
                   "its leading power there is 2 |u|^0"),
        ({1: 1.0, 3: -0.5}, "f(u)/u stays bounded above as u -> -infinity: "
                            "its leading power there is -0.5 |u|^2"),
    ]:
        verdict = check_f(odd_poly(coeffs), "F6")
        assert not verdict.holds and verdict.witness == witness


def test_f7_nonzero_at_origin():
    assert not check_f(power(4), "F7", GRID).holds
    assert check_f(power_plus_const(4, 0.1), "F7", GRID).holds


def test_f8_smallness():
    # max |F| on [-1, 1] is 1/4; the bound 1/(2(beta+1)) equals 1/4 at beta = 1
    max_abs, u_at = antiderivative_peak(power(4), 1.0)
    assert (max_abs, u_at) == (0.25, -1.0)  # ties go to the smaller u
    eq = f8_verdict(max_abs, u_at, 1.0, 1.0, 1.0, 1.0)
    assert eq.holds
    assert not f8_verdict(max_abs, u_at, 1.0, 1.2, 1.0, 1.0).holds
    for beta in (0.1, 0.5, 0.99):
        assert f8_verdict(max_abs, u_at, 1.0, beta, 1.0, 1.0).holds
    # F8 needs the ball's constants, so check_f does not decide it
    with pytest.raises(ValueError, match="unknown f-hypothesis 'F8'"):
        check_f(power(4), "F8", GRID)


def test_f8_scans_only_its_own_range(monkeypatch):
    calls = []
    original = graphpde.nonlinearity.antiderivative

    def counted(nl, u):
        calls.append((np.size(u), float(np.max(np.abs(u)))))
        return original(nl, u)

    monkeypatch.setattr(graphpde.nonlinearity, "antiderivative", counted)
    antiderivative_peak(power(4), 1.0)
    assert calls == [(2, 1.0)]  # f = u^3 has no root in (-1, 0) or (0, 1)
    calls.clear()
    # f = u - u^3 vanishes at -1 and 1, where F = 1/4 peaks above F(+-1.2) = 0.2016
    assert antiderivative_peak(odd_poly({1: 1.0, 3: -1.0}), 1.2) == (0.25, -1.0)
    assert calls == [(4, 1.2)]


def test_check_f_unknown():
    with pytest.raises(ValueError):
        check_f(power(4), "F9", GRID)


def test_ar_lower_bound_power():
    verdict = ar_lower_bound(power(4), 4.0, 1.0, GRID)
    assert verdict.holds
    assert verdict.data["c_plus"] == pytest.approx(math.log(4.0), rel=1e-12)
    assert verdict.data["slack_constant"] == 0.0
    # equality of the bound at u = M
    _, F_at_M, _ = evaluated(power(4), 1.0)
    assert math.exp(-verdict.data["c_plus"]) * 1.0**4 == pytest.approx(F_at_M, rel=1e-12)


def test_ar_lower_bound_fails_for_slow_growth():
    verdict = ar_lower_bound(power(3), 4.0, 1.0, GRID)
    assert not verdict.holds


def test_ar_lower_bound_rejects_nonpositive_F():
    with pytest.raises(ValueError):
        ar_lower_bound(odd_poly({1: -1.0, 3: 0.1}), 3.0, 1.0, GRID)
    with pytest.raises(ValueError):
        ar_lower_bound(power(4), 2.0, 1.0, GRID)


def test_checks_decide_where_f_or_F_overflow():
    # |u|^4 / 4 overflows past 1e77; warnings are errors here
    grid = GridSpec(2e200)
    for which, constants in [("F3", {"C": 2.0, "p": 4.0}), ("F4", {"theta": 4.0, "M": 1e200}),
                             ("F5", {}), ("F6", {})]:
        verdict = check_f(power(4), which, grid, **constants)
        assert verdict.holds, verdict
        assert all(math.isfinite(v) for v in verdict.data.values())
    verdict = check_f(odd_poly({3: 1.0, 5: -1.0}), "F4", theta=3.0, M=1e200)
    assert not verdict.holds
    # F = u^4 / 4 - u^6 / 6 overflows at M, so the witness names u alone
    assert verdict.witness == "theta F <= 0 at u = -1e+200, where its quantities overflow a float"
    with pytest.raises(ValueError, match=r"^F\(M\) is not finite at M = 1e\+200"):
        ar_lower_bound(power(4), 4.0, 1e200, grid)


def test_grid_spec():
    with pytest.raises(ValueError):
        GridSpec(-1.0)
    assert GridSpec.default().u_max == 10.0
    # the checks do not read it
    for grid in (None, GridSpec(1e-3), GridSpec(1e300)):
        assert check_f(power(4), "F4", grid, theta=4.0, M=20.0) == check_f(power(4), "F4", theta=4.0, M=20.0)
        assert ar_lower_bound(power(3), 4.0, 1.0, grid) == ar_lower_bound(power(3), 4.0, 1.0)


def test_odd_poly_zero_values_are_unsigned():
    # as a sum of the terms gives them: F2 and F7 print "0", not "-0"
    for coeffs in ({1: -1.0, 3: 1.0}, {3: -1.0}, {3: 1.0}, {1: -2.0}):
        for value in evaluated(odd_poly(coeffs), np.array([0.0, -0.0, -1e-200])):
            assert not np.signbit(value[value == 0.0]).any()


# ----- exact verdicts against dense samples ----- #

_QUARTERS = st.integers(9, 32).map(lambda n: n / 4.0)  # exponents 2.25 .. 8 in steps of 1/4
_MAGNITUDE = st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e)  # log-uniform over 0.1 .. 10
_SIGNED = st.tuples(st.sampled_from([-1.0, 1.0]), _MAGNITUDE).map(lambda t: t[0] * t[1])
_TOL = 1e-12  # sample slack relative to the terms' magnitudes, as the checks' guard


@st.composite
def _nonlinearities(draw):
    family = draw(st.sampled_from(["power", "power_plus_const", "odd_poly"]))
    if family == "power":
        return power(draw(_QUARTERS))
    if family == "power_plus_const":
        return power_plus_const(draw(_QUARTERS), draw(_SIGNED))
    degrees = draw(st.lists(st.sampled_from([1, 3, 5, 7]), min_size=1, max_size=3, unique=True))
    return odd_poly({k: draw(_SIGNED) for k in degrees})


def _magnitudes(nl, t):
    """The sums of the magnitudes of the terms of f, F and u f_u at |u| = t."""
    if nl.family == "odd_poly":
        return (sum(abs(c) * t ** k for k, c in nl.coeffs),
                sum(abs(c) / (k + 1) * t ** (k + 1) for k, c in nl.coeffs),
                sum(k * abs(c) * t ** k for k, c in nl.coeffs))
    eps = abs(nl.eps)
    return t ** (nl.p - 1) + eps, t ** nl.p / nl.p + eps * t, (nl.p - 1) * t ** (nl.p - 1)


def _witness(verdict):
    """The |u| a failed verdict names, inf past the largest float."""
    match = re.search(r"at u = (\S+):", verdict.witness)
    return math.inf if match is None else abs(float(match.group(1)))


def _points(lo, verdict):
    """Dense log-spaced |u| from lo up (from 1e-6 up and 0 for lo = 0),
    and around the point a failed verdict names."""
    ts = np.geomspace(max(lo, 1e-6), 1e8 * max(1.0, lo), 4001)
    if not verdict.holds:
        w = _witness(verdict)
        assert math.isfinite(w) and w >= lo * (1.0 - 1e-5), verdict
        if w > 0.0:
            ts = np.concatenate([ts, np.geomspace(w / 1.01, w * 1.01, 201)])
    return np.concatenate([[0.0], ts]) if lo == 0.0 else ts[ts >= lo]


def _sample_holds(nl, lo, verdict, gap):
    """Whether gap(u, t, magnitudes) >= 0 at every sampled u = -t, t."""
    ts = _points(lo, verdict)
    mags = _magnitudes(nl, ts)
    return all(np.all(gap(sign * ts, ts, mags)) for sign in (-1.0, 1.0))


@settings(max_examples=150, deadline=None)
@given(nl=_nonlinearities(), C=_MAGNITUDE, q=_QUARTERS, theta=_QUARTERS, M=_MAGNITUDE,
       a=_MAGNITUDE)
def test_exact_verdicts_agree_with_dense_samples(nl, C, q, theta, M, a):
    f, F = lambda u: reaction(nl, u), lambda u: antiderivative(nl, u)

    verdict = check_f(nl, "F3", C=C, p=q)
    bound = lambda t: C * (1.0 + t ** (q - 1.0))
    assert verdict.holds == _sample_holds(
        nl, 0.0, verdict,
        lambda u, t, m: bound(t) - np.abs(f(u)) >= -_TOL * (bound(t) + m[0])), verdict

    verdict = check_f(nl, "F4", theta=theta, M=M)
    assert verdict.holds == _sample_holds(
        nl, M, verdict,
        lambda u, t, m: (F(u) > _TOL * m[1])
        & (u * f(u) - theta * F(u) >= -_TOL * (t * m[0] + theta * m[1]))), verdict

    verdict = check_f(nl, "F5")
    assert verdict.holds == _sample_holds(
        nl, 0.0, verdict,
        lambda u, t, m: (u < 0) | (u * reaction_derivative(nl, u) - f(u) >= -_TOL * (m[2] + m[0]))
    ), verdict

    verdict = check_f(nl, "F6")
    far = np.array([1e15, 1e30])
    ratios = [f(sign * far) / (sign * far) for sign in (-1.0, 1.0)]
    assert verdict.holds == all(r[1] > 100.0 * max(r[0], 1e-300) for r in ratios), verdict

    if min(F(-M), F(M)) <= 0.0:
        with pytest.raises(ValueError, match="is not positive"):
            ar_lower_bound(nl, theta, M)
    else:
        verdict = ar_lower_bound(nl, theta, M)
        lower = lambda u, t: F(np.sign(u) * M) * (t / M) ** theta
        assert verdict.holds == _sample_holds(
            nl, M, verdict,
            lambda u, t, m: F(u) - lower(u, t) >= -_TOL * (m[1] + lower(u, t))), verdict

    peak, u_at = antiderivative_peak(nl, a)
    us = np.linspace(-a, a, 20001)
    assert abs(u_at) <= a and peak == pytest.approx(abs(F(u_at)), rel=1e-15)
    assert np.max(np.abs(F(us))) <= peak + _TOL * _magnitudes(nl, a)[1]
