"""Graph construction, partitions and the text format."""

import re

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
from util import (
    lattice,
    parse_graph_text_loop,
    path_graph,
    random_connected_graph,
    random_partition,
    random_subset_partition,
)


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
        (["a", "b"], [("a", "b", np.inf)], None, "derived"),    # infinite weight
        (["a", "b"], [("a", "b", np.nan)], None, "derived"),    # nan weight
        (["a", "b"], [("a", "b", "x")], None, "derived"),       # non-numeric weight
        (["a", "b"], [("a", "b", None)], None, "derived"),      # no weight
        (["a", "b"], [("a", "b", 1.0)], {"a": 1.0, "b": np.inf}, "given"),  # infinite measure
        (["a", "b", "c"], [("a", "b", 1e308), ("b", "c", 1e308)], None, "derived"),  # mu(b) = inf
        (["a", "b"], [(["a"], "b", 1.0)], None, "derived"),     # unhashable end
    ],
)
def test_build_graph_rejects(vertices, edges, measures, mode):
    with pytest.raises(GraphError) as err:
        build_graph(vertices, edges, measure_mode=mode, measures=measures)
    assert type(err.value) is GraphError


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


def _format_with_numpy_scalars(graph, part, h):
    """The v/e text formatted element by element from numpy scalars."""
    roles = ("omega", "boundary", "outside")
    lines = []
    for k, vid in enumerate(graph.vertex_ids):
        role = roles[0 if part.omega_mask[k] else 1 if part.closure_mask[k] else 2]
        mtok = "auto" if graph.measure_mode == "derived" else f"{graph.measure[k]:.17g}"
        lines.append(f"v {vid} {mtok} {h[k]:.17g} {role}")
    for (i, j), w in zip(graph.edge_index, graph.edge_weight):
        lines.append(f"e {graph.vertex_ids[i]} {graph.vertex_ids[j]} {w:.17g}")
    return "\n".join(lines) + "\n"


def test_format_writes_the_bytes_of_numpy_scalars(rng):
    graph = path_graph("abcd", weights=[0.1, 2.5, 1e-300], measure_mode="given",
                       measures={"a": 1 / 3, "b": 2.0, "c": 1e300, "d": 0.7})
    part = compute_boundary(graph, ["b"])
    h = np.array([0.1, -1 / 7, 2.0, 5e-324])
    assert format_graph_text(graph, part, h) == (
        "v a 0.33333333333333331 0.10000000000000001 boundary\n"
        "v b 2 -0.14285714285714285 omega\n"
        "v c 1.0000000000000001e+300 2 boundary\n"
        "v d 0.69999999999999996 4.9406564584124654e-324 outside\n"
        "e a b 0.10000000000000001\n"
        "e b c 2.5\n"
        "e c d 1e-300\n"
    )
    for k in range(20):
        graph = random_connected_graph(rng, n_max=30, measure_mode=("given", "derived")[k % 2])
        part = random_partition(rng, graph)
        h = rng.uniform(-3.0, 3.0, size=graph.n)
        assert format_graph_text(graph, part, h) == _format_with_numpy_scalars(graph, part, h)
        assert format_graph_text(graph, part, np.ones(graph.n, dtype=int)) == (
            _format_with_numpy_scalars(graph, part, np.ones(graph.n, dtype=int)))


GRAPH_ARRAYS = ("edge_index", "edge_weight", "measure", "adj_ptr", "adj_nbr", "adj_w", "adj_center")
PARTITION_ARRAYS = ("omega", "boundary", "exterior")


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_loads_as_built(graph, part, h):
    """Parsing the written file gives build_graph's and compute_boundary's
    arrays bit for bit, dtypes included."""
    gf = parse_graph_text(format_graph_text(graph, part, h))
    for name in GRAPH_ARRAYS:
        assert_same_bits(getattr(gf.graph, name), getattr(graph, name))
    for name in PARTITION_ARRAYS:
        assert_same_bits(getattr(gf.partition, name), getattr(part, name))
    assert type(gf.graph.mu_min) is float and gf.graph.mu_min == graph.mu_min
    assert gf.partition.connected is part.connected
    assert gf.graph.vertex_ids == graph.vertex_ids
    assert_same_bits(gf.h, h)


def test_parse_matches_build_on_lattices():
    graph, part = lattice(40)
    assert_loads_as_built(graph, part, np.ones(graph.n))
    graph, part = lattice(40, np.random.default_rng(5))
    assert_loads_as_built(graph, part, np.linspace(-1.0, 2.0, graph.n))


@pytest.mark.parametrize("mode", ["derived", "given"])
def test_parse_matches_build_on_random_graphs(rng, mode):
    connected = []
    for _ in range(50):
        graph = random_connected_graph(rng, measure_mode=mode)
        part = random_subset_partition(rng, graph)
        connected.append(part.connected)
        assert_loads_as_built(graph, part, rng.uniform(-3.0, 3.0, size=graph.n))
    assert not all(connected) and any(connected)


def _build_from_text(text):
    """build_graph on the token columns of a graph file's v and e lines:
    the ids, the measures when none is "auto", the edge ends and the
    weights, all as the strings the file holds."""
    rows = [line.split() for line in text.splitlines()]
    ids = [row[1] for row in rows if row[0] == "v"]
    measures = [row[2] for row in rows if row[0] == "v"]
    edges = [tuple(row[1:]) for row in rows if row[0] == "e"]
    if "auto" in measures:
        return build_graph(ids, edges)
    return build_graph(ids, edges, measure_mode="given", measures=dict(zip(ids, measures)))


def _build_cases():
    """(graph, partition, h): random graphs in both measure modes, and
    the lattice listed row by row and shuffled."""
    rng = np.random.default_rng(25)
    for mode in ("derived", "given"):
        for _ in range(40):
            graph = random_connected_graph(rng, measure_mode=mode)
            yield graph, random_subset_partition(rng, graph), rng.uniform(-3.0, 3.0, graph.n)
    for order in (None, np.random.default_rng(7)):
        graph, part = lattice(30, order)
        yield graph, part, np.ones(graph.n)


def test_build_graph_matches_the_reader():
    # build_graph on floats, build_graph on the file's tokens and the
    # reader on the file give the same arrays, bit for bit
    for graph, part, h in _build_cases():
        text = format_graph_text(graph, part, h)
        read = parse_graph_text(text).graph
        for built in (graph, _build_from_text(text)):
            for name in GRAPH_ARRAYS:
                assert_same_bits(getattr(built, name), getattr(read, name))
            assert built.vertex_ids == read.vertex_ids
            assert built.measure_mode == read.measure_mode
            assert type(built.mu_min) is float and built.mu_min == read.mu_min


SHARED_RULES = [
    # v lines: duplicate id, measure
    ("v a auto 0 omega\nv b auto 0 boundary\nv a auto 0 boundary\ne a b 1\n",
     "duplicate vertex id 'a'"),
    ("v a 1 0 omega\nv b x 0 boundary\ne a b 1\n", "measure must be a real number, got 'x'"),
    ("v a 1 0 omega\nv b inf 0 boundary\ne a b 1\n", "measure must be finite, got 'inf'"),
    ("v a 1 0 omega\nv b -0.0 0 boundary\ne a b 1\n", "measure must be positive, got -0.0"),
    # a bad vertex comes before a bad edge
    ("v a 1 0 omega\nv b 0 0 boundary\ne a a 1\n", "measure must be positive, got 0"),
    ("v a auto 0 omega\nv a auto 0 boundary\ne a z 1\n", "duplicate vertex id 'a'"),
    # e lines: unknown end (the first before the second), self-loop, weight, duplicate
    ("v a auto 0 omega\nv b auto 0 boundary\ne a z 1\n",
     "edge references unknown vertex id 'z'"),
    ("v a auto 0 omega\nv b auto 0 boundary\ne y z 1\n",
     "edge references unknown vertex id 'y'"),
    ("v a auto 0 omega\nv b auto 0 boundary\ne a b 1\ne b b 1\n", "self-loop at vertex 'b'"),
    ("v a auto 0 omega\nv b auto 0 boundary\ne a b 1e\n", "weight must be a real number, got '1e'"),
    ("v a auto 0 omega\nv b auto 0 boundary\ne a b nan\n", "weight must be finite, got 'nan'"),
    ("v a auto 0 omega\nv b auto 0 boundary\ne a b -2\n", "weight must be positive, got -2"),
    ("v a auto 0 omega\nv b auto 0 boundary\ne a b 1\ne b a 1\n", "duplicate edge ('b', 'a')"),
    # the earliest bad edge, and on it the first failing check
    ("v a auto 0 omega\nv b auto 0 boundary\ne a b 1\ne b a 0\ne a a 1\n",
     "weight must be positive, got 0"),
    ("v a auto 0 omega\nv b auto 0 boundary\ne a b 1\ne b a 1\ne a b x\n",
     "duplicate edge ('b', 'a')"),
    ("v a auto 0 omega\nv b auto 0 boundary\ne a a x\ne b a 1\n", "self-loop at vertex 'a'"),
    # the derived measure, checked once the columns pass: no line on either side
    ("v a auto 0 boundary\nv b auto 1 omega\nv c auto 0 boundary\ne a b 1e308\ne b c 1e308\n",
     "vertex 'b' has incident weights that overflow; derived measure would be inf"),
    ("v a auto 0 omega\nv b auto 0 boundary\nv c auto 0 outside\ne a b 1\n",
     "vertex 'c' has no incident edge; derived measure would be zero"),
]


@pytest.mark.parametrize("text,message", SHARED_RULES)
def test_build_graph_words_the_readers_rules(text, message):
    # build_graph raises a plain GraphError with the reader's message, less its line
    with pytest.raises(GraphError) as read:
        parse_graph_text(text)
    with pytest.raises(GraphError) as built:
        _build_from_text(text)
    assert type(built.value) is GraphError
    assert str(built.value) == message
    assert re.sub(r"^line \d+: ", "", str(read.value)) == message


def test_every_reader_rejects_an_overflowing_derived_measure():
    text = "v a auto 1 omega\nv b auto 1 boundary\nv c auto 1 boundary\ne a b 1e308\ne a c 1e308\n"
    message = "vertex 'a' has incident weights that overflow; derived measure would be inf"
    for load in (parse_graph_text, parse_graph_text_loop, _build_from_text):
        with pytest.raises(GraphError) as err:
            load(text)
        assert type(err.value) is GraphError and str(err.value) == message


@pytest.mark.parametrize(
    "text,cls,message",
    [
        # two bad lines: the earlier one is reported
        ("v a auto zz omega\nv b auto 0 nowhere\n", GraphParseError,
         "line 1: h-value must be a real number, got 'zz'"),
        ("v a auto 0 omega\nv b auto 0 boundary\ne a b 1\ne b a 1\ne a c 1\n",
         GraphParseError, "line 4: duplicate edge ('b', 'a')"),
        ("v a 1 0 omega\nv b 1 inf boundary\nv c auto 0 boundary\n", GraphParseError,
         "line 2: h-value must be finite, got 'inf'"),
        ("v a auto 0 omega\nv b auto 0 boundary\ne a b nan\ne a b -1\n", GraphParseError,
         "line 3: weight must be finite, got 'nan'"),
        # two role mismatches: the first vertex in input order is reported
        ("v e auto 0 outside\nv d auto 0 outside\nv c auto 0 omega\nv b auto 0 boundary\n"
         "v a auto 0 boundary\ne a b 1\ne b c 1\ne c d 1\ne d e 1\n", GraphParseError,
         "line 2: vertex 'd' declared 'outside' but the declared omega set makes it 'boundary'"),
        ("v z auto 0 omega\nv y auto 0 outside\nv x auto 0 boundary\nv w auto 0 omega\n"
         "v u auto 0 boundary\ne z y 1\ne x w 1\ne y x 1\ne u y 1\n", GraphParseError,
         "line 2: vertex 'y' declared 'outside' but the declared omega set makes it 'boundary'"),
        # a vertex without edges under the derived measure: build_graph's error
        ("v a auto 0 omega\nv b auto 0 boundary\nv c auto 0 outside\ne a b 1\n", GraphError,
         "vertex 'c' has no incident edge; derived measure would be zero"),
    ],
)
def test_parse_error_order(text, cls, message):
    with pytest.raises(GraphError) as err:
        parse_graph_text(text)
    assert type(err.value) is cls
    assert str(err.value) == message


# ----- parity with the line-by-line reference ----- #

BAD_NUMBERS = ("x", "1e", "1,5", "0x10", "nan", "-nan", "inf", "-Infinity", "1e400",
               "0", "-0.0", "-2", "1e-400", "1_0", "\u0663", "5e-324")


def _pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


def _rows(lines, kind):
    """Positions of the well-formed lines of this record type."""
    return [k for k, tokens in enumerate(lines)
            if tokens[:1] == [kind] and len(tokens) == (5 if kind == "v" else 4)]


class _NoLine(Exception):
    """An earlier corruption left no line that this one applies to."""


def _row(rng, lines, *kinds):
    rows = [k for kind in kinds for k in _rows(lines, kind)]
    if not rows:
        raise _NoLine
    return _pick(rng, rows)


def _drop_token(rng, lines):
    tokens = lines[_row(rng, lines, "v", "e")]
    del tokens[int(rng.integers(len(tokens)))]


def _add_token(rng, lines):
    tokens = lines[_row(rng, lines, "v", "e")]
    tokens.insert(int(rng.integers(1, len(tokens) + 1)), _pick(rng, ("x", "1", "#", "omega")))


def _unknown_id(rng, lines):
    lines[_row(rng, lines, "e")][int(rng.integers(1, 3))] = "zz"


def _self_loop(rng, lines):
    tokens = lines[_row(rng, lines, "e")]
    tokens[1] = tokens[2]


def _duplicate_vertex(rng, lines):
    k = _row(rng, lines, "v")
    copy = list(lines[k])
    copy[3] = _pick(rng, (copy[3], "0", "nan"))
    lines.insert(int(rng.integers(k + 1, _rows(lines, "v")[-1] + 2)), copy)


def _duplicate_edge(rng, lines, bad_weight_after=False):
    k = _row(rng, lines, "e")
    _, a, b, w = lines[k]
    at = int(rng.integers(k + 1, _rows(lines, "e")[-1] + 2))
    lines.insert(at, ["e", *_pick(rng, ((a, b), (b, a))), _pick(rng, (w, "2"))])
    later = [r for r in _rows(lines, "e") if r > at]
    if bad_weight_after and later:
        lines[_pick(rng, later)][3] = _pick(rng, BAD_NUMBERS[:13])


def _bad_weight_before_v_after_e(rng, lines):
    k = _row(rng, lines, "e")
    lines[k][3] = _pick(rng, BAD_NUMBERS[:13])
    lines.insert(int(rng.integers(k + 1, len(lines) + 1)), ["v", "late", "auto", "1", "omega"])


def _bad_number(rng, lines):
    tokens = lines[_row(rng, lines, "v", "e")]
    tokens[3 if tokens[0] == "e" else int(rng.integers(2, 4))] = _pick(rng, BAD_NUMBERS)


def _bad_role(rng, lines):
    lines[_row(rng, lines, "v")][4] = _pick(rng, ("inside", "Omega", "auto", "omega,"))


def _other_role(rng, lines):
    tokens = lines[_row(rng, lines, "v")]
    tokens[4] = _pick(rng, [role for role in ("omega", "boundary", "outside") if role != tokens[4]])


def _mixed_measure(rng, lines):
    tokens = lines[_row(rng, lines, "v")]
    tokens[2] = "1.5" if tokens[2] == "auto" else "auto"


def _drop_line(rng, lines):
    del lines[_row(rng, lines, "v", "e")]


def _move_vertex_down(rng, lines):
    k = _row(rng, lines, "v")
    lines.insert(int(rng.integers(k, len(lines))), lines.pop(k))


def _isolate_vertex(rng, lines):
    vid = lines[_row(rng, lines, "v")][1]
    lines[:] = [tokens for tokens in lines if vid not in tokens[1:3] or tokens[0] != "e"]


def _unknown_record(rng, lines):
    tokens = lines[_row(rng, lines, "v", "e")]
    tokens[0] = _pick(rng, ("V", "x", "edge", "#v"))


CORRUPTIONS = {
    "none": lambda rng, lines: None,
    "drop_token": _drop_token,
    "add_token": _add_token,
    "unknown_id": _unknown_id,
    "self_loop": _self_loop,
    "duplicate_vertex": _duplicate_vertex,
    "duplicate_edge": _duplicate_edge,
    "duplicate_edge_before_bad_weight": lambda rng, lines: _duplicate_edge(rng, lines, True),
    "bad_weight_before_v_after_e": _bad_weight_before_v_after_e,
    "bad_number": _bad_number,
    "bad_role": _bad_role,
    "other_role": _other_role,
    "mixed_measure": _mixed_measure,
    "drop_line": _drop_line,
    "move_vertex_down": _move_vertex_down,
    "isolate_vertex": _isolate_vertex,
    "unknown_record": _unknown_record,
}


def _base_lines(rng):
    """The token lines of a valid file: a random graph in either measure
    mode, or a small lattice, whose vertices may be shuffled."""
    if rng.random() < 0.25:
        graph, part = lattice(int(rng.integers(3, 6)), rng if rng.random() < 0.5 else None)
    else:
        graph = random_connected_graph(rng, 3, 12, _pick(rng, ("derived", "given")))
        part = random_partition(rng, graph)
    text = format_graph_text(graph, part, rng.uniform(-3.0, 3.0, size=graph.n))
    return [line.split() for line in text.splitlines()]


def _render(rng, lines):
    """The lines with random separators, comment and blank lines, and
    LF or CRLF endings."""
    out = []
    for tokens in lines:
        if rng.random() < 0.1:
            out.append(_pick(rng, ("", "   ", "\t", "# note", "#", "#v a auto 1 omega")))
        line = tokens[0] if tokens else ""
        for token in tokens[1:]:
            line += _pick(rng, (" ", " ", "\t", "  ", " \t ")) + token
        out.append(_pick(rng, ("", "", " ", "\t")) + line)
    eol = _pick(rng, ("\n", "\r\n"))
    return eol.join(out) + _pick(rng, (eol, ""))


def _outcome(parse, text):
    try:
        return parse(text)
    except GraphError as exc:
        return exc


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_parse_matches_the_line_loop(kind):
    """The column loader and the line-by-line reference agree on corrupted
    files: the same exception type, message and line, or the same arrays
    bit for bit.  Half the files carry one or two more corruptions of any
    kind, so several bad lines compete for the first error."""
    rng = np.random.default_rng(sorted(CORRUPTIONS).index(kind))
    failures = 0
    for _ in range(40):
        lines = _base_lines(rng)
        CORRUPTIONS[kind](rng, lines)
        for _ in range(int(rng.integers(0, 3)) if rng.random() < 0.5 else 0):
            try:
                _pick(rng, list(CORRUPTIONS.values()))(rng, lines)
            except _NoLine:
                pass
        text = _render(rng, lines)
        want, got = _outcome(parse_graph_text_loop, text), _outcome(parse_graph_text, text)
        if isinstance(want, GraphError):
            failures += 1
            assert type(got) is type(want), text
            assert str(got) == str(want), text
            assert getattr(got, "line", None) == getattr(want, "line", None)
            continue
        assert isinstance(got, type(want)), text
        for name in GRAPH_ARRAYS:
            assert_same_bits(getattr(got.graph, name), getattr(want.graph, name))
        for name in PARTITION_ARRAYS:
            assert_same_bits(getattr(got.partition, name), getattr(want.partition, name))
        assert_same_bits(got.h, want.h)
        assert got.graph.vertex_ids == want.graph.vertex_ids
        assert got.graph.measure_mode == want.graph.measure_mode
        assert got.graph.mu_min == want.graph.mu_min
        assert got.partition.connected is want.partition.connected
    assert failures > 0 if kind != "none" else failures < 40
