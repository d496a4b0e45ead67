"""Seeded corpus generator.

Every input the benchmark feeds to the program is built here from the
benchmark's --seed and written as a graph file with
graphpde.graphs.format_graph_text; the program only ever sees those
files.  Each GraphInput also keeps its own vertex, edge and interior
lists, so the oracles can recompute residuals without graphpde.

    grid<k>   k x k 4-neighbour lattice, unit weights, derived measure,
              h = 1, the non-edge vertices as interior; only edges that
              touch the interior are kept, so the corners (which touch
              none) are left out and each boundary vertex has measure 1
    path3     unit path a-b-c with interior {b}
    rand<i>   random connected graph: random spanning tree plus extra
              edges, weights in [0.1, 10], derived measure, h = 1, and a
              random BFS-prefix interior (the recipe of the test suite's
              random_connected_graph with random_partition)
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class GraphInput:
    name: str
    ids: tuple[str, ...]
    edges: tuple[tuple[int, int, float], ...]   # (index, index, weight)
    omega: tuple[int, ...]                      # interior vertex indices
    lattice_k: int | None = None
    path: str = ""                              # set once written

    @property
    def n(self) -> int:
        return len(self.ids)

    def describe(self) -> dict:
        return {"n": self.n, "interior": len(self.omega), "edges": len(self.edges)}


def lattice(k: int) -> GraphInput:
    corners = {(0, 0), (0, k - 1), (k - 1, 0), (k - 1, k - 1)}
    cells = [(i, j) for i in range(k) for j in range(k) if (i, j) not in corners]
    index = {c: pos for pos, c in enumerate(cells)}
    edges = []
    inner = {c for c in cells if 0 < c[0] < k - 1 and 0 < c[1] < k - 1}
    for (i, j), a in index.items():
        for nb in ((i + 1, j), (i, j + 1)):
            b = index.get(nb)
            if b is not None and ((i, j) in inner or nb in inner):
                edges.append((a, b, 1.0))
    omega = tuple(index[c] for c in cells if c in inner)
    ids = tuple(f"g{i}_{j}" for i, j in cells)
    return GraphInput(f"grid{k}", ids, tuple(edges), omega, lattice_k=k)


def path3() -> GraphInput:
    return GraphInput("path3", ("a", "b", "c"), ((0, 1, 1.0), (1, 2, 1.0)), (1,))


def random_graph(rng, name: str, n_min: int = 5, n_max: int = 50) -> GraphInput:
    """Spanning tree plus up to n extra edges, weights in [0.1, 10], and
    an interior made of a BFS prefix of random length from a random
    start, so the interior is connected and the boundary nonempty."""
    n = int(rng.integers(n_min, n_max + 1))
    edges: dict[tuple[int, int], float] = {}
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges[(j, i)] = float(rng.uniform(0.1, 10.0))
    for _ in range(int(rng.integers(0, n))):
        a, b = sorted(int(x) for x in rng.integers(0, n, size=2))
        if a != b and (a, b) not in edges:
            edges[(a, b)] = float(rng.uniform(0.1, 10.0))
    edge_list = tuple((a, b, w) for (a, b), w in sorted(edges.items()))
    # neighbours in stored edge order, as graphpde's adjacency lists them
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for a, b, _ in edge_list:
        nbrs[a].append(b)
        nbrs[b].append(a)
    start = int(rng.integers(0, n))
    seen = [False] * n
    seen[start] = True
    order = [start]
    queue = deque([start])
    while queue:
        i = queue.popleft()
        for j in nbrs[i]:
            if not seen[j]:
                seen[j] = True
                order.append(j)
                queue.append(j)
    k = int(rng.integers(1, n))
    omega = tuple(sorted(order[:k]))
    return GraphInput(name, tuple(f"v{i}" for i in range(n)), edge_list, omega)


def graph_text(inp: GraphInput) -> str:
    # imported here so that each set-up uses the freshly imported package
    from graphpde.graphs import build_graph, compute_boundary, format_graph_text

    graph = build_graph(
        inp.ids, [(inp.ids[a], inp.ids[b], w) for a, b, w in inp.edges]
    )
    partition = compute_boundary(graph, [inp.ids[i] for i in inp.omega])
    return format_graph_text(graph, partition, np.ones(graph.n))


def write(inputs, directory: str) -> list[GraphInput]:
    """Write each input as <directory>/<name>.graph; return the inputs
    with their paths set."""
    os.makedirs(directory, exist_ok=True)
    out = []
    for inp in inputs:
        path = os.path.join(directory, inp.name + ".graph")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(graph_text(inp))
        out.append(replace(inp, path=path))
    return out
