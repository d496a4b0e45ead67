"""Finite weighted graphs with an interior/boundary/exterior split.

Vertices are opaque string ids mapped to dense indices 0..n-1 in input
order.  Edge weights are symmetric and strictly positive.  The vertex
measure mu(x) is either supplied per vertex ("given" mode) or derived as
the sum of incident edge weights ("derived" mode); either way it must be
strictly positive everywhere.

Functions on a graph are plain float64 numpy arrays of length n indexed
by vertex position.  A Dirichlet function is exactly zero on boundary
and exterior vertices; operators always see the zero-extended values.

Graph text format (one record per line, '#' starts a comment):

    v <id> <measure|auto> <h-value> <omega|boundary|outside>
    e <id1> <id2> <weight>

All v lines must precede e lines.  "auto" on every vertex selects the
derived measure; mixing "auto" with numeric measures is rejected.  The
h column must parse as a real number; it is only meaningful on omega
vertices.  Declared roles are cross-checked against the recomputed
boundary of the declared omega set.

Loading checks each line once, as it is read, and builds each array
once.  A malformed line, a mix of "auto" and numeric measures and the
first vertex in input order whose declared role the recomputed
partition contradicts raise GraphParseError with the line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np


class GraphError(ValueError):
    """Invalid graph construction or query."""


class GraphParseError(GraphError):
    """Malformed graph text; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Immutable weighted graph with precomputed adjacency.

    Attributes
    ----------
    vertex_ids : vertex identifiers in input order
    edge_index : (m, 2) int array of endpoint indices, input order
    edge_weight : (m,) positive weights
    measure : (n,) positive vertex measure
    measure_mode : "given" or "derived"
    mu_min : smallest vertex measure

    The flattened adjacency (adj_ptr, adj_nbr, adj_w, adj_center) lists
    every directed incidence grouped by center vertex; within a vertex
    the incidences appear in stored edge order, which fixes the
    summation order of all neighbor sums.
    """

    vertex_ids: tuple[str, ...]
    edge_index: np.ndarray
    edge_weight: np.ndarray
    measure: np.ndarray
    measure_mode: str
    mu_min: float
    adj_ptr: np.ndarray
    adj_nbr: np.ndarray
    adj_w: np.ndarray
    adj_center: np.ndarray
    _index: Mapping[str, int]

    @property
    def n(self) -> int:
        return len(self.vertex_ids)

    @property
    def m(self) -> int:
        return len(self.edge_weight)

    def index_of(self, vertex_id: str) -> int:
        try:
            return self._index[vertex_id]
        except KeyError:
            raise GraphError(f"unknown vertex id {vertex_id!r}") from None

    def neighbors(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor indices and incident weights of vertex i, edge order."""
        lo, hi = self.adj_ptr[i], self.adj_ptr[i + 1]
        return self.adj_nbr[lo:hi], self.adj_w[lo:hi]


def build_graph(
    vertices: Sequence[str],
    edges: Iterable[tuple[str, str, float]],
    measure_mode: str = "derived",
    measures: Mapping[str, float] | None = None,
) -> WeightedGraph:
    """Validate and assemble a WeightedGraph.

    Rejects duplicate ids, self-loops, duplicate edges, nonpositive
    weights and nonpositive measures.  In derived mode every vertex
    needs at least one edge, otherwise its measure would vanish.
    """
    ids = tuple(str(v) for v in vertices)
    if not ids:
        raise GraphError("graph needs at least one vertex")
    index: dict[str, int] = {}
    for k, vid in enumerate(ids):
        if vid in index:
            raise GraphError(f"duplicate vertex id {vid!r}")
        index[vid] = k
    if measure_mode not in ("given", "derived"):
        raise GraphError(f"measure_mode must be 'given' or 'derived', got {measure_mode!r}")

    pairs: list[tuple[int, int]] = []
    weights: list[float] = []
    seen: dict[tuple[int, int], float] = {}
    for a, b, w in edges:
        for vid in (a, b):
            if vid not in index:
                raise GraphError(f"edge references unknown vertex id {vid!r}")
        i, j = index[a], index[b]
        if i == j:
            raise GraphError(f"self-loop at vertex {a!r} is not allowed")
        w = float(w)
        if not w > 0.0:
            raise GraphError(f"edge ({a!r}, {b!r}) has nonpositive weight {w}")
        key = (i, j) if i < j else (j, i)
        if key in seen:
            if seen[key] != w:
                raise GraphError(f"duplicate edge ({a!r}, {b!r}) with conflicting weight")
            raise GraphError(f"duplicate edge ({a!r}, {b!r})")
        seen[key] = w
        pairs.append((i, j))
        weights.append(w)

    mu = None
    if measure_mode == "given":
        if measures is None:
            raise GraphError("measure_mode='given' requires a measures mapping")
        mu = np.empty(len(ids))
        for vid, k in index.items():
            if vid not in measures:
                raise GraphError(f"no measure given for vertex {vid!r}")
            mu[k] = float(measures[vid])
            if not mu[k] > 0.0:
                raise GraphError(f"vertex {vid!r} has nonpositive measure {mu[k]}")
    return _assemble(index, np.array(pairs, dtype=np.int64).reshape(-1, 2), np.array(weights), mu)


def _assemble(index: dict[str, int], edge_index, weight, mu) -> WeightedGraph:
    """The graph on index's vertices and the checked edges; mu is the
    given measure, None for the derived one, whose zeros it rejects."""
    ids = tuple(index)
    n = len(ids)
    # every incidence (center, neighbour, weight), edge by edge
    center = edge_index.ravel()
    inc_w = np.repeat(weight, 2)
    mode = "derived" if mu is None else "given"
    if mu is None:
        # mu(x) = sum of incident weights, accumulated in stored edge
        # order (np.bincount adds in index order) so the value is
        # bit-for-bit the in-order adjacency sum.
        mu = np.bincount(center, weights=inc_w, minlength=n)
        isolated = np.flatnonzero(~(mu > 0.0))
        if isolated.size:
            raise GraphError(
                f"vertex {ids[isolated[0]]!r} has no incident edge; derived measure would be zero"
            )

    # grouped by center; the stable sort keeps stored edge order within a group
    order = np.argsort(center, kind="stable")
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(center, minlength=n), out=ptr[1:])
    return WeightedGraph(
        vertex_ids=ids,
        edge_index=edge_index,
        edge_weight=weight,
        measure=mu,
        measure_mode=mode,
        mu_min=float(mu.min()),
        adj_ptr=ptr,
        adj_nbr=edge_index[:, ::-1].ravel()[order],
        adj_w=inc_w[order],
        adj_center=center[order],
        _index=index,
    )


@dataclass(frozen=True, eq=False)
class DomainPartition:
    """Split of the vertex set into interior, boundary and exterior.

    boundary is exactly the set of vertices outside omega adjacent to
    omega; exterior is everything else.  connected reports whether the
    subgraph induced on omega plus boundary is connected.  Index arrays
    are sorted ascending (input order).
    """

    omega: np.ndarray
    boundary: np.ndarray
    exterior: np.ndarray
    connected: bool
    omega_mask: np.ndarray
    closure_mask: np.ndarray

    @property
    def closure(self) -> np.ndarray:
        return np.flatnonzero(self.closure_mask)


def compute_boundary(graph: WeightedGraph, omega: Iterable[str]) -> DomainPartition:
    """Partition the graph around the given interior vertex set."""
    omega_mask = np.zeros(graph.n, dtype=bool)
    omega_mask[[graph.index_of(v) for v in omega]] = True
    if not omega_mask.any():
        raise GraphError("omega must not be empty")
    return _partition(graph, omega_mask)


def _partition(graph: WeightedGraph, omega_mask: np.ndarray) -> DomainPartition:
    boundary_mask = np.zeros(graph.n, dtype=bool)
    boundary_mask[graph.adj_nbr[omega_mask[graph.adj_center]]] = True
    boundary_mask &= ~omega_mask
    closure_mask = omega_mask | boundary_mask
    return DomainPartition(
        omega=np.flatnonzero(omega_mask),
        boundary=np.flatnonzero(boundary_mask),
        exterior=np.flatnonzero(~closure_mask),
        connected=_closure_connected(graph, closure_mask),
        omega_mask=omega_mask,
        closure_mask=closure_mask,
    )


def _closure_connected(graph: WeightedGraph, closure_mask: np.ndarray) -> bool:
    """Whether the subgraph induced on closure_mask is connected, by a
    search over plain lists (numpy indexing per vertex costs more)."""
    ptr, nbr = graph.adj_ptr.tolist(), graph.adj_nbr.tolist()
    unseen = closure_mask.tolist()
    start = unseen.index(True)
    unseen[start] = False
    stack = [start]
    reached = 1
    while stack:
        i = stack.pop()
        for j in nbr[ptr[i]:ptr[i + 1]]:
            if unseen[j]:
                unseen[j] = False
                reached += 1
                stack.append(j)
    return reached == int(closure_mask.sum())


# ----- graph functions ----- #

def enforce_dirichlet(partition: DomainPartition, u: np.ndarray) -> np.ndarray:
    """Zero-extend: copy of u with exact zeros off the interior."""
    out = np.array(u, dtype=float, copy=True)
    out[~partition.omega_mask] = 0.0
    return out


def is_dirichlet(partition: DomainPartition, u: np.ndarray) -> bool:
    return bool(np.all(np.asarray(u)[~partition.omega_mask] == 0.0))


# ----- text format ----- #

@dataclass(frozen=True, eq=False)
class GraphFile:
    """Parsed graph file: the graph, its partition and the h column."""

    graph: WeightedGraph
    partition: DomainPartition
    h: np.ndarray


_ROLES = ("omega", "boundary", "outside")


def parse_graph_text(text: str) -> GraphFile:
    """Parse the v/e line format; errors carry 1-based line numbers."""
    index: dict[str, int] = {}
    rows: list[tuple] = []  # per vertex: line, measure (None for "auto"), h, role code
    pairs: list[int] = []  # endpoint indices, two per edge
    weights: list[float] = []
    seen: set[tuple[int, int]] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if tokens[0] == "e":
            if len(tokens) != 4:
                raise GraphParseError(
                    f"e line needs 4 tokens 'e <id1> <id2> <weight>', got {len(tokens)}", lineno
                )
            _, a, b, wtok = tokens
            i, j = index.get(a), index.get(b)
            if i is None or j is None:
                unknown = a if i is None else b
                raise GraphParseError(f"edge references unknown vertex id {unknown!r}", lineno)
            if i == j:
                raise GraphParseError(f"self-loop at vertex {a!r}", lineno)
            w = _parse_real(wtok, "weight", lineno, positive=True)
            key = (i, j) if i < j else (j, i)
            if key in seen:
                raise GraphParseError(f"duplicate edge ({a!r}, {b!r})", lineno)
            seen.add(key)
            pairs += (i, j)
            weights.append(w)
        elif tokens[0] == "v":
            if weights:
                raise GraphParseError("v line after first e line", lineno)
            if len(tokens) != 5:
                raise GraphParseError(
                    f"v line needs 5 tokens 'v <id> <measure|auto> <h> <role>', got {len(tokens)}",
                    lineno,
                )
            _, vid, mtok, htok, role = tokens
            if vid in index:
                raise GraphParseError(f"duplicate vertex id {vid!r}", lineno)
            meas = None if mtok == "auto" else _parse_real(mtok, "measure", lineno, positive=True)
            hval = _parse_real(htok, "h-value", lineno)
            if role not in _ROLES:
                raise GraphParseError(
                    f"role must be one of {', '.join(_ROLES)}, got {role!r}", lineno
                )
            index[vid] = len(rows)
            rows.append((lineno, meas, hval, _ROLES.index(role)))
        elif not tokens[0].startswith("#"):
            raise GraphParseError(f"unknown record type {tokens[0]!r}", lineno)

    if not index:
        raise GraphParseError("no vertices in file")
    v_line, v_measure, v_h, v_role = zip(*rows)
    if 0 < v_measure.count(None) < len(rows):
        k = v_measure.index(None)
        raise GraphParseError("mixing 'auto' and numeric measures is not allowed "
                              f"(vertex {list(index)[k]!r} is 'auto')", v_line[k])

    edge_index = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    mu = None if v_measure[0] is None else np.array(v_measure)
    graph = _assemble(index, edge_index, np.array(weights), mu)
    declared = np.array(v_role)
    if not (declared == 0).any():
        raise GraphParseError("file declares no omega vertices")
    partition = _partition(graph, declared == 0)

    # declared roles must match the recomputed partition
    actual = _role_codes(partition)
    wrong = np.flatnonzero(declared != actual)
    if wrong.size:
        k = int(wrong[0])
        raise GraphParseError(
            f"vertex {graph.vertex_ids[k]!r} declared {_ROLES[v_role[k]]!r} "
            f"but the declared omega set makes it {_ROLES[actual[k]]!r}", v_line[k],
        )

    return GraphFile(graph=graph, partition=partition, h=np.array(v_h))


def _parse_real(token: str, what: str, lineno: int, positive: bool = False) -> float:
    try:
        val = float(token)
    except ValueError:
        raise GraphParseError(f"{what} must be a real number, got {token!r}", lineno) from None
    if not math.isfinite(val):
        raise GraphParseError(f"{what} must be finite, got {token!r}", lineno)
    if positive and not val > 0.0:
        raise GraphParseError(f"{what} must be positive, got {token}", lineno)
    return val


def _role_codes(partition: DomainPartition) -> np.ndarray:
    """Each vertex's position in _ROLES under partition."""
    return np.where(partition.omega_mask, 0, np.where(partition.closure_mask, 1, 2))


def parse_graph_file(path) -> GraphFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def format_graph_text(
    graph: WeightedGraph, partition: DomainPartition, h: np.ndarray
) -> str:
    """Write the v/e format; re-parsing reproduces the graph exactly.
    The arrays are read as Python numbers, which format as numpy's
    scalars do at a fraction of the cost, and the edge ends as
    references to the id strings; each list lives only while its lines
    are built, so the text is the largest thing held."""
    ids, derived = graph.vertex_ids, graph.measure_mode == "derived"
    lines = [
        f"v {vid} {'auto' if derived else format(m, '.17g')} {hk:.17g} {_ROLES[code]}"
        for vid, m, hk, code in zip(ids, graph.measure.tolist(), np.asarray(h).tolist(),
                                    _role_codes(partition).tolist(), strict=True)
    ]
    lines += [
        f"e {a} {b} {w:.17g}"
        for a, b, w in zip(*np.array(ids, dtype=object)[graph.edge_index.T].tolist(),
                           graph.edge_weight.tolist())
    ]
    return "\n".join(lines) + "\n"
