"""Graph construction, partitions and the text format."""

import numpy as np
import pytest

from graphpde import (
    GraphError,
    GraphParseError,
    build_graph,
    compute_boundary,
    enforce_dirichlet,
    format_graph_text,
    is_dirichlet,
    parse_graph_text,
)
from util import path_graph, random_connected_graph, random_partition


def test_derived_measure_on_path(path3):
    graph, _ = path3
    assert graph.measure_mode == "derived"
    assert graph.measure.tolist() == [1.0, 2.0, 1.0]
    assert graph.mu_min == 1.0


def test_derived_measure_matches_in_order_sum(rng):
    # recompute the incident weight sums with plain python floats in the
    # same per-vertex edge order; agreement must be exact, not approximate
    for _ in range(25):
        graph = random_connected_graph(rng)
        acc = [0.0] * graph.n
        for (i, j), w in zip(graph.edge_index, graph.edge_weight):
            acc[int(i)] += float(w)
            acc[int(j)] += float(w)
        assert graph.measure.tolist() == acc
        assert graph.mu_min == min(acc)


def test_given_measures(rng):
    graph = random_connected_graph(rng, measure_mode="given")
    assert graph.measure_mode == "given"
    assert np.all(graph.measure > 0)


def test_neighbors_symmetric(rng):
    graph = random_connected_graph(rng)
    for i in range(graph.n):
        nbr, w = graph.neighbors(i)
        for j, wj in zip(nbr, w):
            back_n, back_w = graph.neighbors(int(j))
            hits = [float(bw) for bj, bw in zip(back_n, back_w) if int(bj) == i]
            assert hits == [float(wj)]


@pytest.mark.parametrize(
    "vertices,edges,measures,mode",
    [
        (["a", "a"], [], None, "given"),                        # duplicate id
        (["a", "b"], [("a", "a", 1.0)], None, "derived"),       # self loop
        (["a", "b"], [("a", "z", 1.0)], None, "derived"),       # unknown endpoint
        (["a", "b"], [("a", "b", 0.0)], None, "derived"),       # zero weight
        (["a", "b"], [("a", "b", -2.0)], None, "derived"),      # negative weight
        (["a", "b"], [("a", "b", 1.0), ("b", "a", 2.0)], None, "derived"),  # dup edge
        (["a", "b"], [("a", "b", 1.0)], {"a": 1.0}, "given"),   # measure missing
        (["a", "b"], [("a", "b", 1.0)], {"a": 1.0, "b": 0.0}, "given"),  # bad measure
        (["a", "b", "c"], [("a", "b", 1.0)], None, "derived"),  # isolated vertex
    ],
)
def test_build_graph_rejects(vertices, edges, measures, mode):
    with pytest.raises(GraphError):
        build_graph(vertices, edges, measure_mode=mode, measures=measures)


def test_build_graph_bad_mode():
    with pytest.raises(GraphError):
        build_graph(["a", "b"], [("a", "b", 1.0)], measure_mode="other")


def test_boundary_four_path():
    graph = path_graph("abcd")
    part = compute_boundary(graph, ["b", "c"])
    assert part.omega.tolist() == [1, 2]
    assert part.boundary.tolist() == [0, 3]
    assert part.exterior.tolist() == []
    assert part.connected


def test_boundary_five_path_with_exterior():
    graph = path_graph("abcde")
    part = compute_boundary(graph, ["c"])
    assert part.boundary.tolist() == [1, 3]
    assert part.exterior.tolist() == [0, 4]
    assert part.connected


def test_boundary_disconnected_closure():
    graph = build_graph(
        ["a", "b", "c", "d"], [("a", "b", 1.0), ("c", "d", 1.0)]
    )
    part = compute_boundary(graph, ["a", "c"])
    assert part.boundary.tolist() == [1, 3]
    assert not part.connected


def test_boundary_validation(path3):
    graph, _ = path3
    with pytest.raises(GraphError):
        compute_boundary(graph, [])
    with pytest.raises(GraphError):
        compute_boundary(graph, ["nope"])


def test_partition_properties(rng):
    for _ in range(25):
        graph = random_connected_graph(rng)
        part = random_partition(rng, graph)
        pieces = np.concatenate([part.omega, part.boundary, part.exterior])
        assert sorted(pieces.tolist()) == list(range(graph.n))
        assert part.boundary.size > 0
        omega = set(part.omega.tolist())
        for b in part.boundary:
            nbr, _ = graph.neighbors(int(b))
            assert omega & {int(j) for j in nbr}
        for x in part.exterior:
            nbr, _ = graph.neighbors(int(x))
            assert not (omega & {int(j) for j in nbr})


def test_dirichlet_helpers():
    graph = path_graph("abcde")
    part = compute_boundary(graph, ["c"])
    u = np.array([0.0, 1.5, 2.0, 0.0, 0.0])
    assert not is_dirichlet(part, u)
    v = enforce_dirichlet(part, u)
    assert is_dirichlet(part, v)
    assert v.tolist() == [0.0, 0.0, 2.0, 0.0, 0.0]
    with pytest.raises(GraphError):
        graph.index_of("zz")


GOOD_FILE = """\
# canonical three path
v a auto 0 boundary
v b auto 1 omega

v c auto 0 boundary
e a b 1
e b c 1
"""


def test_parse_good_file():
    gf = parse_graph_text(GOOD_FILE)
    assert gf.graph.vertex_ids == ("a", "b", "c")
    assert gf.graph.measure.tolist() == [1.0, 2.0, 1.0]
    assert gf.partition.omega.tolist() == [1]
    assert gf.h.tolist() == [0.0, 1.0, 0.0]


def test_parse_given_measures():
    text = (
        "v a 2.5 0 boundary\n"
        "v b 1.25 3 omega\n"
        "e a b 4\n"
    )
    gf = parse_graph_text(text)
    assert gf.graph.measure_mode == "given"
    assert gf.graph.measure.tolist() == [2.5, 1.25]
    assert gf.h.tolist() == [0.0, 3.0]


@pytest.mark.parametrize(
    "text,line",
    [
        ("v a auto 0 nowhere\n", 1),                       # bad role
        ("v a auto 0 omega\nv a auto 0 omega\n", 2),       # duplicate vertex
        ("v a auto zz omega\n", 1),                        # bad h number
        ("v a auto 0 omega\nv b 1.0 0 boundary\n", 1),     # auto/numeric mix
        ("v a auto 0 omega\ne a b 1\n", 2),                # unknown edge endpoint
        ("v a auto 0 omega\nv b auto 0 boundary\ne a b 0\n", 3),   # zero weight
        ("v a auto 0 omega\nv b auto 0 boundary\ne a a 1\n", 3),   # self loop
        ("v a auto 0 omega\nv b auto 0 boundary\n# x\ne a b 1\ne b a 1\n", 5),  # dup edge
        ("v a auto 0 omega\nv b auto 0 boundary\ne a b 1 9\n", 3), # token count
        ("w a auto 0 omega\n", 1),                         # unknown record
        ("v a auto 0 omega\nv b auto 0 boundary\ne a b 1\nv c auto 0 outside\n", 4),
        ("v a -1 0 omega\n", 1),                           # nonpositive measure
        ("v a auto 0 omega\nv b auto 0 boundary\nv c auto 0 boundary\ne a b 1\ne b c 1\n", 3),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(GraphParseError) as err:
        parse_graph_text(text)
    assert err.value.line == line


def test_parse_errors_without_line():
    with pytest.raises(GraphParseError):
        parse_graph_text("# nothing here\n")
    with pytest.raises(GraphParseError):
        parse_graph_text("v a auto 0 boundary\nv b auto 0 boundary\ne a b 1\n")


def test_role_mismatch_detected():
    # b is adjacent to omega so declaring it outside must fail
    text = (
        "v a auto 0 omega\n"
        "v b auto 0 outside\n"
        "v c auto 0 boundary\n"
        "e a b 1\n"
        "e b c 1\n"
    )
    with pytest.raises(GraphParseError) as err:
        parse_graph_text(text)
    assert err.value.line == 2


@pytest.mark.parametrize("mode", ["derived", "given"])
def test_format_parse_roundtrip(rng, mode):
    for _ in range(10):
        graph = random_connected_graph(rng, n_max=20, measure_mode=mode)
        part = random_partition(rng, graph)
        h = rng.uniform(-3.0, 3.0, size=graph.n)
        text = format_graph_text(graph, part, h)
        gf = parse_graph_text(text)
        assert gf.graph.vertex_ids == graph.vertex_ids
        assert gf.graph.measure_mode == mode
        assert gf.graph.edge_index.tolist() == graph.edge_index.tolist()
        assert gf.graph.edge_weight.tolist() == graph.edge_weight.tolist()
        assert gf.graph.measure.tolist() == graph.measure.tolist()
        assert gf.partition.omega.tolist() == part.omega.tolist()
        assert gf.partition.boundary.tolist() == part.boundary.tolist()
        assert gf.h.tolist() == h.tolist()
