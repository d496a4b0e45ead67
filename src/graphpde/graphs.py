"""Finite weighted graphs with an interior/boundary/exterior split.

Vertices are opaque string ids mapped to dense indices 0..n-1 in input
order.  Edge weights are symmetric, finite and strictly positive.  The
vertex measure mu(x) is either supplied per vertex ("given" mode) or
derived as the sum of incident edge weights ("derived" mode); either way
it must be finite and strictly positive everywhere.

Functions on a graph are plain float64 numpy arrays of length n indexed
by vertex position.  A Dirichlet function is exactly zero on boundary
and exterior vertices; operators always see the zero-extended values.

Graph text format (one record per line; a blank line, or one whose
first token starts with '#', is skipped):

    v <id> <measure|auto> <h-value> <omega|boundary|outside>
    e <id1> <id2> <weight>

All v lines must precede e lines.  "auto" on every vertex selects the
derived measure; mixing "auto" with numeric measures is rejected.  The
h column must parse as a real number; it is only meaningful on omega
vertices.  Declared roles are cross-checked against the recomputed
boundary of the declared omega set.

One rule set serves build_graph and the file reader: _check_columns
checks the columns of ids, given measures, edge ends and weights in
bulk (duplicate id; measure real, finite, positive; unknown edge end;
self-loop; weight real, finite, positive; duplicate edge), and
_assemble rejects a derived measure that is zero or overflows.  Each
rule names its first failing row, a vertex before an edge.  build_graph
raises that message as a GraphError.

The reader adds the checks only a file has.  One pass splits each line
and files its tokens by record type; then the shared checks, h and the
role run on the columns.  The error raised is the one a line-by-line
reading meets first: the earliest bad line, and on it the first check
that fails, in the order v after e, token count, duplicate id, measure,
h, role for a v line and token count, unknown id, self-loop, weight,
duplicate edge for an e line.  File-wide errors follow: no vertices, a
mix of "auto" and numeric measures, a derived measure that is zero or
overflows (a GraphError without a line), no omega vertex, and the first
vertex in input order whose declared role the recomputed partition
contradicts.  All but the derived-measure one are GraphParseErrors; those
that concern one line carry its number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
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
    """Check and assemble a WeightedGraph by the rules it shares with the
    file reader (_check_columns, _assemble); the reader's checks of h,
    roles and layout are file-only.  A GraphError with the reader's
    message, less its line number, names the first bad vertex, or else
    the first bad edge.  Vertex ids and edge ends are compared as str()."""
    ids = list(map(str, vertices))
    if not ids:
        raise GraphError("graph needs at least one vertex")
    if measure_mode not in ("given", "derived"):
        raise GraphError(f"measure_mode must be 'given' or 'derived', got {measure_mode!r}")
    mu = None
    if measure_mode == "given":
        if measures is None:
            raise GraphError("measure_mode='given' requires a measures mapping")
        try:
            mu = list(map(measures.__getitem__, ids))
        except KeyError as exc:
            raise GraphError(f"no measure given for vertex {exc.args[0]!r}") from None
    edges = list(edges)
    a, b, w = zip(*edges, strict=True) if edges else ((), (), ())
    a, b = tuple(map(str, a)), tuple(map(str, b))
    # a vertex's row is its position, an edge's follows the last vertex's
    nv = len(ids)
    index, mu, edge_index, weight, errors = _check_columns(
        ids, range(nv), mu, a, b, w, range(nv, nv + len(edges)))
    if errors:
        raise GraphError(min(errors, key=lambda err: err[0])[1])
    return _assemble(index, edge_index, weight, mu)


def _check_columns(ids, rows, measures, a, b, weights, edge_rows):
    """The rules every graph meets, on the columns of vertex ids, their
    given measures (None for derived ones) and rows, and of edge ends,
    weights and rows.  Returns the id index, the measures, the (m, 2)
    edge ends, the weights and the errors: (row, message) for each
    rule's first failing row, in the order a row's checks run: duplicate
    id, measure; unknown end (the first before the second), self-loop,
    weight, duplicate edge."""
    errors: list[tuple[int, str]] = []
    nv = len(ids)
    index = dict(zip(ids, range(nv)))
    if len(index) < nv:
        first = dict(zip(reversed(ids), reversed(range(nv))))
        k = next(k for k, vid in enumerate(ids) if first[vid] != k)
        errors.append((rows[k], f"duplicate vertex id {ids[k]!r}"))
    if measures is not None:
        measures = _reals(measures, rows, "measure", errors, positive=True)
    # an unknown end reads as -1, so no later check fails first on its
    # row or matches a known edge
    i = np.fromiter(map(index.get, a, repeat(-1)), np.int64, len(a))
    j = np.fromiter(map(index.get, b, repeat(-1)), np.int64, len(b))
    lo = np.minimum(i, j)
    unknown = np.flatnonzero(lo < 0)
    if unknown.size:
        k = unknown[0]
        errors.append((edge_rows[k],
                       f"edge references unknown vertex id {a[k] if i[k] < 0 else b[k]!r}"))
    loops = np.flatnonzero(i == j)
    if loops.size:
        errors.append((edge_rows[loops[0]], f"self-loop at vertex {a[loops[0]]!r}"))
    weights = _reals(weights, edge_rows, "weight", errors, positive=True)
    # a key's later rows are its duplicates; the stable sort keeps them after its first
    key = lo * nv + np.maximum(i, j)
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    if repeats.size:
        k = repeats.min()
        errors.append((edge_rows[k], f"duplicate edge ({a[k]!r}, {b[k]!r})"))
    return index, measures, np.column_stack((i, j)), weights, errors


def _assemble(index: dict[str, int], edge_index, weight, mu) -> WeightedGraph:
    """The graph on index's vertices and the checked edges; mu is the
    given measure, None for the derived one, whose zeros and overflows
    it rejects."""
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
        bad = np.flatnonzero(~(mu > 0.0) | (mu == np.inf))
        if bad.size:
            vid = ids[bad[0]]
            if mu[bad[0]] == 0.0:
                raise GraphError(f"vertex {vid!r} has no incident edge; derived measure would be zero")
            raise GraphError(f"vertex {vid!r} has incident weights that overflow; "
                             "derived measure would be inf")

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
_ROLE_CODES = {role: code for code, role in enumerate(_ROLES)}


def parse_graph_text(text: str) -> GraphFile:
    """Parse the v/e line format; errors carry 1-based line numbers.

    The pass files the tokens of each v and e line in a flat list per
    record type, and a line it cannot file ends it.  Each column check
    then names its first failing line: the earliest wins, and on one
    line the check a line-by-line reading makes first."""
    v_lines: list[int] = []
    v_tokens: list[str] = []  # five per v line
    e_lines: list[int] = []
    e_tokens: list[str] = []  # four per e line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if len(tokens) == 4 and tokens[0] == "e":
            e_lines.append(lineno)
            e_tokens += tokens
        elif len(tokens) == 5 and tokens[0] == "v" and not e_lines:
            v_lines.append(lineno)
            v_tokens += tokens
        elif tokens and not tokens[0].startswith("#"):
            stop = (lineno, _unfiled_line(tokens, bool(e_lines)))
            break
    else:
        stop = None

    ids, m_tok, h_tok, roles = (v_tokens[c::5] for c in range(1, 5))
    del v_tokens
    a, b, w_tok = (e_tokens[c::4] for c in (1, 2, 3))
    del e_tokens
    nv = len(ids)
    autos = m_tok.count("auto")
    measures = None if autos == nv else m_tok
    if autos and measures:  # a mix is rejected once the lines pass; its numbers are checked first
        measures = ["1" if tok == "auto" else tok for tok in m_tok]
    index, mu, edge_index, weight, errors = _check_columns(
        ids, v_lines, measures, a, b, w_tok, e_lines)
    del a, b, w_tok
    # then the checks only a file has: h, role, an unfiled line; on
    # one line the earliest check's error comes first in errors
    h = _reals(h_tok, v_lines, "h-value", errors)
    codes = list(map(_ROLE_CODES.get, roles))
    if None in codes:
        k = codes.index(None)
        errors.append((v_lines[k], f"role must be one of {', '.join(_ROLES)}, got {roles[k]!r}"))
    del h_tok, roles
    if stop is not None:
        errors.append(stop)
    if errors:
        line, message = min(errors, key=lambda err: err[0])
        raise GraphParseError(message, line)
    if not nv:
        raise GraphParseError("no vertices in file")
    if 0 < autos < nv:
        k = m_tok.index("auto")
        raise GraphParseError("mixing 'auto' and numeric measures is not allowed "
                              f"(vertex {ids[k]!r} is 'auto')", v_lines[k])

    graph = _assemble(index, edge_index, weight, mu)
    declared = np.array(codes)
    if not (declared == 0).any():
        raise GraphParseError("file declares no omega vertices")
    partition = _partition(graph, declared == 0)

    # declared roles must match the recomputed partition
    actual = _role_codes(partition)
    wrong = np.flatnonzero(declared != actual)
    if wrong.size:
        k = int(wrong[0])
        raise GraphParseError(
            f"vertex {graph.vertex_ids[k]!r} declared {_ROLES[codes[k]]!r} "
            f"but the declared omega set makes it {_ROLES[actual[k]]!r}", v_lines[k],
        )

    return GraphFile(graph=graph, partition=partition, h=h)


def _unfiled_line(tokens: list[str], after_e: bool) -> str:
    """Why a line with these tokens cannot be filed as a v or e line."""
    if tokens[0] == "e":
        return f"e line needs 4 tokens 'e <id1> <id2> <weight>', got {len(tokens)}"
    if tokens[0] == "v":
        if after_e:
            return "v line after first e line"
        return f"v line needs 5 tokens 'v <id> <measure|auto> <h> <role>', got {len(tokens)}"
    return f"unknown record type {tokens[0]!r}"


def _reals(tokens, rows, what: str, errors: list[tuple[int, str]],
           positive: bool = False) -> np.ndarray | None:
    """The tokens as float64, read by float; None when one is not a
    finite (positive) real, and (row, message) for the first such token
    goes to errors.  The bulk tests decide whether one fails, and
    _real_error, token by token, finds and words it."""
    try:
        values = np.fromiter(map(float, tokens), np.float64, len(tokens))
    except (TypeError, ValueError):
        pass
    else:
        ok = np.isfinite(values)
        if positive:
            ok &= values > 0.0
        if ok.all():
            return values
    for token, row in zip(tokens, rows):
        message = _real_error(token, what, positive)
        if message:
            errors.append((row, message))
            return None


def _real_error(token, what: str, positive: bool = False) -> str | None:
    """Why float(token) is not a finite (positive) real, or None."""
    try:
        val = float(token)
    except (TypeError, ValueError):
        return f"{what} must be a real number, got {token!r}"
    if not math.isfinite(val):
        return f"{what} must be finite, got {token!r}"
    if positive and not val > 0.0:
        return f"{what} must be positive, got {token}"
    return None


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
