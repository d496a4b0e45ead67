"""Finite weighted graphs with an interior/boundary/exterior split.

Vertices are opaque string ids mapped to dense indices 0..n-1 in input
order.  Edge weights are symmetric and strictly positive.  The vertex
measure mu(x) is either supplied per vertex ("given" mode) or derived as
the sum of incident edge weights ("derived" mode); either way it must be
strictly positive everywhere.

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

Loading reads the file column by column: one pass splits each line and
files its tokens by record type, then each column (ids, measures, h,
roles, edge ends, weights) is converted and checked in bulk, and each
array is built once.  The error raised is the one a line-by-line
reading meets first: the earliest bad line, and on it the first check
that fails, in the order v after e, token count, duplicate id, measure,
h, role for a v line and token count, unknown id, self-loop, weight,
duplicate edge for an e line.  File-wide errors follow: no vertices, a
mix of "auto" and numeric measures, a vertex the derived measure leaves
at zero (a GraphError without a line), no omega vertex, and the first
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
    errors: list[GraphParseError] = []  # per check its first failing line, in line check order
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if len(tokens) == 4 and tokens[0] == "e":
            e_lines.append(lineno)
            e_tokens += tokens
        elif len(tokens) == 5 and tokens[0] == "v" and not e_lines:
            v_lines.append(lineno)
            v_tokens += tokens
        elif tokens and not tokens[0].startswith("#"):
            stop = GraphParseError(_unfiled_line(tokens, bool(e_lines)), lineno)
            break
    else:
        stop = None

    # v lines: duplicate id, measure, h, role
    ids, m_tok, h_tok, roles = (v_tokens[c::5] for c in range(1, 5))
    del v_tokens
    nv = len(ids)
    index = dict(zip(ids, range(nv)))
    if len(index) < nv:
        first = dict(zip(reversed(ids), reversed(range(nv))))
        k = next(k for k, vid in enumerate(ids) if first[vid] != k)
        errors.append(GraphParseError(f"duplicate vertex id {ids[k]!r}", v_lines[k]))
    autos = m_tok.count("auto")
    mu = None
    if not autos:
        mu = _reals(m_tok, v_lines, "measure", errors, positive=True)
    elif autos < nv:  # rejected once the lines pass; their numbers are checked first
        rows = [k for k, tok in enumerate(m_tok) if tok != "auto"]
        _reals([m_tok[k] for k in rows], [v_lines[k] for k in rows], "measure", errors,
               positive=True)
    h = _reals(h_tok, v_lines, "h-value", errors)
    codes = list(map(_ROLE_CODES.get, roles))
    if None in codes:
        k = codes.index(None)
        errors.append(GraphParseError(
            f"role must be one of {', '.join(_ROLES)}, got {roles[k]!r}", v_lines[k]))
    del h_tok, roles

    # e lines: unknown id (the first end before the second), self-loop,
    # weight, duplicate; an unknown id reads as -1, so no later check
    # fails first on its line or matches a known edge
    a, b, w_tok = (e_tokens[c::4] for c in (1, 2, 3))
    del e_tokens
    i = np.fromiter(map(index.get, a, repeat(-1)), np.int64, len(a))
    j = np.fromiter(map(index.get, b, repeat(-1)), np.int64, len(b))
    lo = np.minimum(i, j)
    unknown = np.flatnonzero(lo < 0)
    if unknown.size:
        k = unknown[0]
        errors.append(GraphParseError(
            f"edge references unknown vertex id {a[k] if i[k] < 0 else b[k]!r}", e_lines[k]))
    loops = np.flatnonzero(i == j)
    if loops.size:
        errors.append(GraphParseError(f"self-loop at vertex {a[loops[0]]!r}", e_lines[loops[0]]))
    weight = _reals(w_tok, e_lines, "weight", errors, positive=True)
    # a key's later lines are its duplicates; the stable sort keeps them after its first
    key = lo * nv + np.maximum(i, j)
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    if repeats.size:
        k = repeats.min()
        errors.append(GraphParseError(f"duplicate edge ({a[k]!r}, {b[k]!r})", e_lines[k]))
    del a, b, w_tok

    if stop is not None:
        errors.append(stop)
    if errors:
        raise min(errors, key=lambda err: err.line)
    if not nv:
        raise GraphParseError("no vertices in file")
    if 0 < autos < nv:
        k = m_tok.index("auto")
        raise GraphParseError("mixing 'auto' and numeric measures is not allowed "
                              f"(vertex {ids[k]!r} is 'auto')", v_lines[k])

    graph = _assemble(index, np.column_stack((i, j)), weight, mu)
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


def _reals(tokens: list[str], lines: list[int], what: str, errors: list[GraphParseError],
           positive: bool = False) -> np.ndarray | None:
    """The tokens as float64, read by float as _parse_real reads each;
    None when one fails _parse_real's tests, and its error for the first
    such token goes to errors.  The bulk tests decide whether one fails,
    and _parse_real, token by token, finds and words it."""
    try:
        values = np.fromiter(map(float, tokens), np.float64, len(tokens))
    except ValueError:
        pass
    else:
        ok = np.isfinite(values)
        if positive:
            ok &= values > 0.0
        if ok.all():
            return values
    for token, lineno in zip(tokens, lines):
        try:
            _parse_real(token, what, lineno, positive)
        except GraphParseError as exc:
            errors.append(exc)
            return None


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
