"""Reaction term families, the spec string parser and the sampled checks."""

import math

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
    evaluate,
    f1_verdict,
    odd_poly,
    parse_nonlinearity,
    power,
    power_plus_const,
    smoothness_note,
)
from util import path_graph

GRID = GridSpec(10.0)


def test_power_values():
    nl = power(4)
    f, F, fu = evaluate(nl, None, 2.0)
    assert (f, F, fu) == (8.0, 4.0, 12.0)
    f, F, fu = evaluate(nl, None, -2.0)
    assert (f, F, fu) == (-8.0, 4.0, 12.0)
    f, F, fu = evaluate(nl, "vertex-name-ignored", 0.0)
    assert (f, F, fu) == (0.0, 0.0, 0.0)


def test_power_three_values():
    nl = power(3)
    f, F, fu = evaluate(nl, None, -2.0)
    assert f == -4.0
    assert F == pytest.approx(8.0 / 3.0, rel=1e-15)
    assert fu == 4.0


def test_power_plus_const_values():
    nl = power_plus_const(4, 0.1)
    f, F, fu = evaluate(nl, None, 2.0)
    assert f == pytest.approx(8.1, rel=1e-15)
    assert F == pytest.approx(4.2, rel=1e-15)
    assert fu == 12.0
    f0, F0, _ = evaluate(nl, None, 0.0)
    assert f0 == 0.1
    assert F0 == 0.0


def test_odd_poly_values():
    nl = odd_poly({1: -1.0, 3: 1.0})
    f, F, fu = evaluate(nl, None, 2.0)
    assert f == 6.0
    assert F == 2.0
    assert fu == 11.0


def test_evaluate_vectorized():
    nl = power(4)
    u = np.array([-1.0, 0.0, 2.0])
    f, F, fu = evaluate(nl, None, u)
    assert f.tolist() == [-1.0, 0.0, 8.0]
    assert F.tolist() == [0.25, 0.0, 4.0]
    assert fu.tolist() == [3.0, 0.0, 12.0]


@settings(max_examples=60, deadline=None)
@given(
    u=st.one_of(st.floats(0.1, 3.0), st.floats(-3.0, -0.1)),
    pick=st.integers(0, 2),
)
def test_derivative_consistency(u, pick):
    nl = [power(4), power_plus_const(3, 0.2), odd_poly({1: -1.0, 5: 0.5})][pick]
    step = 1e-6 * max(1.0, abs(u))
    f, _, fu = evaluate(nl, None, u)
    _, F_hi, _ = evaluate(nl, None, u + step)
    _, F_lo, _ = evaluate(nl, None, u - step)
    fd_f = (F_hi - F_lo) / (2 * step)
    assert fd_f == pytest.approx(f, rel=1e-5, abs=1e-8)
    f_hi, _, _ = evaluate(nl, None, u + step)
    f_lo, _, _ = evaluate(nl, None, u - step)
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
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_nonlinearity(bad)


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


def test_f4_superquadraticity():
    assert check_f(power(4), "F4", GRID, theta=4.0, M=1.0).holds
    assert check_f(power_plus_const(4, 0.1), "F4", GRID, theta=3.0, M=2.0).holds
    bad = check_f(power_plus_const(4, 0.1), "F4", GRID, theta=4.0, M=1.0)
    assert not bad.holds
    with pytest.raises(ValueError):
        check_f(power(4), "F4", GridSpec(5.0), theta=4.0, M=20.0)
    with pytest.raises(ValueError):
        check_f(power(4), "F4", GRID)


def test_f4_uses_stored_constants():
    nl = power(4, theta=4.0, M=1.0)
    assert check_f(nl, "F4", GRID).holds


def test_f5_monotone_ratio():
    assert check_f(power(4), "F5", GRID).holds
    assert check_f(odd_poly({1: -1.0, 3: 1.0}), "F5", GRID).holds
    assert not check_f(power_plus_const(4, 0.1), "F5", GRID).holds


def test_f6_edge_ratio_proxy():
    narrow = check_f(power(4), "F6", GRID)
    assert not narrow.holds           # f(10)/10 = 100 < 1000
    wide = check_f(power(4), "F6", GridSpec(100.0))
    assert wide.holds                 # f(100)/100 = 10000
    assert "not a proof" in wide.witness
    custom = check_f(power(4), "F6", GRID, threshold=50.0)
    assert custom.holds


def test_f7_nonzero_at_origin():
    assert not check_f(power(4), "F7", GRID).holds
    assert check_f(power_plus_const(4, 0.1), "F7", GRID).holds


def test_f8_smallness():
    # max |F| on [-1, 1] is 1/4; the bound 1/(2(beta+1)) equals 1/4 at beta = 1
    eq = check_f(power(4), "F8", GRID, M0=1.0, beta=1.0, mu_min=1.0, h0=1.0)
    assert eq.holds
    tight = check_f(power(4), "F8", GRID, M0=1.0, beta=1.2, mu_min=1.0, h0=1.0)
    assert not tight.holds
    for beta in (0.1, 0.5, 0.99):
        assert check_f(power(4), "F8", GRID, M0=1.0, beta=beta, mu_min=1.0, h0=1.0).holds
    with pytest.raises(ValueError):
        check_f(power(4), "F8", GRID, M0=1.0)


def test_f8_scans_only_its_own_range(monkeypatch):
    calls = []

    def counted(nl, x, u):
        calls.append(np.size(u))
        return evaluate(nl, x, u)

    monkeypatch.setattr(graphpde.nonlinearity, "evaluate", counted)
    check_f(power(4), "F8", GRID, M0=1.0, beta=1.0, mu_min=1.0, h0=1.0)
    assert calls == [GRID.points]


def test_check_f_unknown():
    with pytest.raises(ValueError):
        check_f(power(4), "F9", GRID)


def test_ar_lower_bound_power():
    verdict = ar_lower_bound(power(4), 4.0, 1.0, GRID)
    assert verdict.holds
    assert verdict.data["c_plus"] == pytest.approx(math.log(4.0), rel=1e-12)
    assert verdict.data["slack_constant"] == 0.0
    # equality of the bound at u = M
    _, F_at_M, _ = evaluate(power(4), None, 1.0)
    assert math.exp(-verdict.data["c_plus"]) * 1.0**4 == pytest.approx(F_at_M, rel=1e-12)


def test_ar_lower_bound_fails_for_slow_growth():
    verdict = ar_lower_bound(power(3), 4.0, 1.0, GRID)
    assert not verdict.holds


def test_ar_lower_bound_rejects_nonpositive_F():
    with pytest.raises(ValueError):
        ar_lower_bound(odd_poly({1: -1.0, 3: 0.1}), 3.0, 1.0, GRID)
    with pytest.raises(ValueError):
        ar_lower_bound(power(4), 2.0, 1.0, GRID)


def test_grid_spec():
    with pytest.raises(ValueError):
        GridSpec(-1.0)
    with pytest.raises(ValueError):
        GridSpec(1.0, points=2)
    assert GridSpec.default().u_max == 10.0
    assert GridSpec.default(M=20.0).u_max == 40.0
    assert GridSpec.default(M0=30.0).u_max == 60.0
    vals = GridSpec(2.0, points=5).values()
    assert vals.tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0]
