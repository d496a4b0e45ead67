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
"""

from __future__ import annotations

from collections import deque
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

    n = len(ids)
    pairs: list[tuple[int, int]] = []
    weights: list[float] = []
    seen: dict[tuple[int, int], float] = {}
    for a, b, w in edges:
        if a not in index:
            raise GraphError(f"edge references unknown vertex id {a!r}")
        if b not in index:
            raise GraphError(f"edge references unknown vertex id {b!r}")
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
    edge_index = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    # every incidence (center, neighbour, weight), edge by edge
    center = edge_index.ravel()
    inc_w = np.repeat(np.asarray(weights), 2)

    if measure_mode == "given":
        if measures is None:
            raise GraphError("measure_mode='given' requires a measures mapping")
        mu = np.empty(n)
        for vid, k in index.items():
            if vid not in measures:
                raise GraphError(f"no measure given for vertex {vid!r}")
            mu[k] = float(measures[vid])
            if not mu[k] > 0.0:
                raise GraphError(f"vertex {vid!r} has nonpositive measure {mu[k]}")
    else:
        # mu(x) = sum of incident weights, accumulated in stored edge
        # order (np.add.at is unbuffered and goes in index order) so the
        # value is bit-for-bit the in-order adjacency sum.
        mu = np.zeros(n)
        np.add.at(mu, center, inc_w)
        for k in range(n):
            if not mu[k] > 0.0:
                raise GraphError(
                    f"vertex {ids[k]!r} has no incident edge; derived measure would be zero"
                )

    # grouped by center; the stable sort keeps stored edge order within a group
    order = np.argsort(center, kind="stable")
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(center, minlength=n), out=ptr[1:])
    return WeightedGraph(
        vertex_ids=ids,
        edge_index=edge_index,
        edge_weight=np.asarray(weights),
        measure=mu,
        measure_mode=measure_mode,
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
    omega_idx = sorted({graph.index_of(v) for v in omega})
    if not omega_idx:
        raise GraphError("omega must not be empty")
    omega_mask = np.zeros(graph.n, dtype=bool)
    omega_mask[omega_idx] = True

    boundary_mask = np.zeros(graph.n, dtype=bool)
    boundary_mask[graph.adj_nbr[omega_mask[graph.adj_center]]] = True
    boundary_mask &= ~omega_mask
    closure_mask = omega_mask | boundary_mask
    exterior_mask = ~closure_mask

    connected = _closure_connected(graph, closure_mask)
    return DomainPartition(
        omega=np.asarray(omega_idx, dtype=np.int64),
        boundary=np.flatnonzero(boundary_mask),
        exterior=np.flatnonzero(exterior_mask),
        connected=connected,
        omega_mask=omega_mask,
        closure_mask=closure_mask,
    )


def _closure_connected(graph: WeightedGraph, closure_mask: np.ndarray) -> bool:
    start = int(np.flatnonzero(closure_mask)[0])
    seen = np.zeros(graph.n, dtype=bool)
    seen[start] = True
    queue = deque([start])
    while queue:
        i = queue.popleft()
        nbr, _ = graph.neighbors(i)
        for j in nbr:
            if closure_mask[j] and not seen[j]:
                seen[j] = True
                queue.append(int(j))
    return bool(np.all(seen[closure_mask]))


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
    v_ids: list[str] = []
    v_measure: list[float | None] = []  # None means "auto"
    v_h: list[float] = []
    v_role: list[str] = []
    v_line: dict[str, int] = {}
    edges: list[tuple[str, str, float]] = []
    seen_pairs: set[tuple[str, str]] = set()
    seen_edge_line = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "v":
            if seen_edge_line:
                raise GraphParseError("v line after first e line", lineno)
            if len(tokens) != 5:
                raise GraphParseError(
                    f"v line needs 5 tokens 'v <id> <measure|auto> <h> <role>', got {len(tokens)}",
                    lineno,
                )
            _, vid, mtok, htok, role = tokens
            if vid in v_line:
                raise GraphParseError(f"duplicate vertex id {vid!r}", lineno)
            if mtok == "auto":
                meas = None
            else:
                meas = _parse_real(mtok, "measure", lineno)
                if not meas > 0.0:
                    raise GraphParseError(f"measure must be positive, got {mtok}", lineno)
            hval = _parse_real(htok, "h-value", lineno)
            if role not in _ROLES:
                raise GraphParseError(
                    f"role must be one of {', '.join(_ROLES)}, got {role!r}", lineno
                )
            v_line[vid] = lineno
            v_ids.append(vid)
            v_measure.append(meas)
            v_h.append(hval)
            v_role.append(role)
        elif tokens[0] == "e":
            if len(tokens) != 4:
                raise GraphParseError(
                    f"e line needs 4 tokens 'e <id1> <id2> <weight>', got {len(tokens)}", lineno
                )
            seen_edge_line = True
            _, a, b, wtok = tokens
            for vid in (a, b):
                if vid not in v_line:
                    raise GraphParseError(f"edge references unknown vertex id {vid!r}", lineno)
            if a == b:
                raise GraphParseError(f"self-loop at vertex {a!r}", lineno)
            w = _parse_real(wtok, "weight", lineno)
            if not w > 0.0:
                raise GraphParseError(f"weight must be positive, got {wtok}", lineno)
            key = (a, b) if a < b else (b, a)
            if key in seen_pairs:
                raise GraphParseError(f"duplicate edge ({a!r}, {b!r})", lineno)
            seen_pairs.add(key)
            edges.append((a, b, w))
        else:
            raise GraphParseError(f"unknown record type {tokens[0]!r}", lineno)

    if not v_ids:
        raise GraphParseError("no vertices in file")
    auto = [m is None for m in v_measure]
    if all(auto):
        mode, measures = "derived", None
    elif not any(auto):
        mode = "given"
        measures = {vid: m for vid, m in zip(v_ids, v_measure)}
    else:
        first_auto = v_ids[auto.index(True)]
        raise GraphParseError(
            "mixing 'auto' and numeric measures is not allowed "
            f"(vertex {first_auto!r} is 'auto')",
            v_line[first_auto],
        )

    graph = build_graph(v_ids, edges, measure_mode=mode, measures=measures)
    omega_ids = [vid for vid, role in zip(v_ids, v_role) if role == "omega"]
    if not omega_ids:
        raise GraphParseError("file declares no omega vertices")
    partition = compute_boundary(graph, omega_ids)

    # declared roles must match the recomputed partition
    role_of = np.empty(graph.n, dtype=object)
    role_of[partition.omega] = "omega"
    role_of[partition.boundary] = "boundary"
    role_of[partition.exterior] = "outside"
    for vid, role in zip(v_ids, v_role):
        actual = role_of[graph.index_of(vid)]
        if actual != role:
            raise GraphParseError(
                f"vertex {vid!r} declared {role!r} but the declared omega set makes it {actual!r}",
                v_line[vid],
            )

    return GraphFile(graph=graph, partition=partition, h=np.asarray(v_h, dtype=float))


def _parse_real(token: str, what: str, lineno: int) -> float:
    try:
        val = float(token)
    except ValueError:
        raise GraphParseError(f"{what} must be a real number, got {token!r}", lineno) from None
    if not np.isfinite(val):
        raise GraphParseError(f"{what} must be finite, got {token!r}", lineno)
    return val


def parse_graph_file(path) -> GraphFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def format_graph_text(
    graph: WeightedGraph, partition: DomainPartition, h: np.ndarray
) -> str:
    """Write the v/e format; re-parsing reproduces the graph exactly."""
    role_of = np.empty(graph.n, dtype=object)
    role_of[partition.omega] = "omega"
    role_of[partition.boundary] = "boundary"
    role_of[partition.exterior] = "outside"
    lines = []
    derived = graph.measure_mode == "derived"
    for k, vid in enumerate(graph.vertex_ids):
        mtok = "auto" if derived else f"{graph.measure[k]:.17g}"
        lines.append(f"v {vid} {mtok} {h[k]:.17g} {role_of[k]}")
    for (i, j), w in zip(graph.edge_index, graph.edge_weight):
        lines.append(f"e {graph.vertex_ids[i]} {graph.vertex_ids[j]} {w:.17g}")
    return "\n".join(lines) + "\n"
