"""Simple undirected graphs: the core value type, parsing, and generators.

Vertices are dense integer indices ``0 .. n-1`` and edges are stored
canonically as pairs ``(u, v)`` with ``u < v``.  Constructors validate the
no-loop / no-duplicate / endpoints-in-range invariants, so any ``Graph``
instance can be trusted downstream; only edge sets the library builds
canonical and in range itself skip the check.  Graphs are immutable and
safe to share across worker processes.  The one walk over the paths and
cycles of an edge set with degrees at most 2, which ``pairs`` and
``alternating`` share, lives here too.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "Edge",
    "Graph",
    "EdgeListError",
    "edge",
    "parse_edge_list",
    "to_edge_list",
    "gen_path",
    "gen_cycle",
    "gen_complete",
    "gen_random",
    "gen_tight_family",
    "gen_gap_family",
    "enumerate_graphs",
    "ENUMERATION_MAX_VERTICES",
    "MAX_VERTICES",
]

Edge = tuple[int, int]

#: ``enumerate_graphs`` refuses anything above this (2**21 labeled graphs
#: at n=7 is the supported ceiling).
ENUMERATION_MAX_VERTICES = 7

#: Largest vertex count either input format takes: the most the
#: three-byte graph6 header can carry.
MAX_VERTICES = 258047


def edge(u: int, v: int) -> Edge:
    """Return the canonical (sorted) form of an undirected edge."""
    if u == v:
        raise ValueError(f"loop edge ({u}, {v}) not allowed")
    return (u, v) if u < v else (v, u)


class _GraphFields(NamedTuple):
    n: int
    edges: frozenset[Edge]


class Graph(_GraphFields):
    """Immutable simple undirected graph on vertices ``0 .. n-1``.

    A named tuple, so that importing the package loads no ``dataclasses``;
    the checks run in ``__new__``, and ``_make`` and ``_replace`` go
    through it too.
    """

    __slots__ = ()

    def __new__(cls, n: int, edges: Iterable[Edge]) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if not isinstance(edges, frozenset):
            edges = frozenset(edges)
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop edge ({u}, {v})")
            if u > v:
                raise ValueError(f"edge ({u}, {v}) not in canonical order")
            if u < 0 or v >= n:
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        return super().__new__(cls, n, edges)

    @classmethod
    def _make(cls, iterable: Iterable) -> "Graph":
        return cls(*iterable)

    @classmethod
    def _unchecked(cls, n: int, edges: frozenset[Edge]) -> "Graph":
        """A graph whose edges the library built canonical and in range
        itself; no check runs.  Inputs always go through ``Graph(...)``."""
        return tuple.__new__(cls, (n, edges))

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from arbitrary (u, v) pairs, canonicalizing order."""
        return cls(n, frozenset(edge(u, v) for u, v in pairs))

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency(self) -> list[list[int]]:
        """Sorted adjacency lists (rebuilt per call; graphs here are small)."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for row in adj:
            row.sort()
        return adj


def _paths_and_cycles(edges: Iterable[Edge]) -> list[list[int]]:
    """The paths and cycles of an edge set in which no vertex has degree
    above 2, each as the list of vertices it walks through.

    Paths come first, in order of their smaller end, each walked from that
    end.  Cycles follow, in order of their smallest vertex, each walked
    from it toward its smaller neighbor and back, so the list repeats that
    vertex at its end.
    """
    adj: dict[int, list[int]] = {}
    for u, v in sorted(edges):  # so that every neighbor list is sorted
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen = set()
    walks = []
    for start in sorted(v for v, near in adj.items() if len(near) == 1) + sorted(adj):
        if start in seen:
            continue
        walk = [start]
        prev, v = start, adj[start][0]
        while v != start:
            walk.append(v)
            near = adj[v]
            if len(near) == 1:  # the far end of a path
                break
            prev, v = v, near[1] if near[0] == prev else near[0]
        else:
            walk.append(start)
        seen.update(walk)
        walks.append(walk)
    return walks


class EdgeListError(ValueError):
    """Malformed edge-list input; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_edge_list(text: str) -> Graph:
    """Parse the plain-text edge-list format.

    Each payload line is ``u v``.  An optional leading line ``n <count>``
    fixes the vertex count; otherwise it is one past the largest endpoint.
    Blank lines and ``#`` comments (full-line or trailing) are ignored.
    Raises :class:`EdgeListError` with the line number for malformed
    tokens, loops, duplicate edges, endpoints beyond a declared count, and
    a count or an endpoint that would put n above ``MAX_VERTICES``.
    """
    declared: int | None = None
    seen_edge_line = False
    edges: set[Edge] = set()
    max_vertex = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "n":
            if seen_edge_line or declared is not None:
                raise EdgeListError(
                    lineno, "vertex-count line allowed only once, before any edge"
                )
            if len(tokens) != 2:
                raise EdgeListError(lineno, "expected 'n <count>'")
            try:
                declared = int(tokens[1])
            except ValueError:
                raise EdgeListError(lineno, f"bad vertex count {tokens[1]!r}") from None
            if declared < 0:
                raise EdgeListError(lineno, "vertex count must be non-negative")
            if declared > MAX_VERTICES:
                raise EdgeListError(lineno, f"vertex count {declared} above the ceiling of {MAX_VERTICES}")
            continue
        if len(tokens) != 2:
            raise EdgeListError(
                lineno, f"expected two endpoints, got {len(tokens)} tokens"
            )
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListError(lineno, f"malformed endpoint in {line!r}") from None
        if u < 0 or v < 0:
            raise EdgeListError(lineno, "negative vertex index")
        if u == v:
            raise EdgeListError(lineno, f"loop edge {u} {v}")
        e = (u, v) if u < v else (v, u)
        if e in edges:
            raise EdgeListError(lineno, f"duplicate edge {u} {v}")
        if declared is not None and e[1] >= declared:
            raise EdgeListError(lineno, f"endpoint {e[1]} >= declared vertex count {declared}")
        if e[1] >= MAX_VERTICES:
            raise EdgeListError(lineno, f"endpoint {e[1]} puts n above the ceiling of {MAX_VERTICES}")
        edges.add(e)
        max_vertex = max(max_vertex, e[1])
        seen_edge_line = True
    n = declared if declared is not None else max_vertex + 1
    return Graph(n, frozenset(edges))


def to_edge_list(g: Graph) -> str:
    """Serialize with an explicit ``n`` header so isolated vertices survive."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def gen_path(k: int) -> Graph:
    """Path with ``k`` edges on ``k+1`` vertices (single vertex for k=0)."""
    if k < 0:
        raise ValueError("edge count must be non-negative")
    return Graph(k + 1, frozenset((i, i + 1) for i in range(k)))


def gen_cycle(k: int) -> Graph:
    """Cycle on ``k`` vertices, ``k >= 3``."""
    if k < 3:
        raise ValueError("cycle needs at least 3 edges")
    return Graph.from_edges(k, ((i, (i + 1) % k) for i in range(k)))


def gen_complete(n: int) -> Graph:
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    return Graph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)))


def _check_gnp(n: int, p: float) -> None:
    """Raise ``ValueError`` unless G(n, p) is defined: p in [0, 1], n >= 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p} outside [0, 1]")
    if n < 0:
        raise ValueError("vertex count must be non-negative")


def gen_random(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), reproducible across platforms and runs.

    Randomness contract, fixed as part of the interface: a Mersenne
    Twister (``random.Random(seed)``, MT19937 as shipped with CPython)
    draws one float per vertex pair in lexicographic order (0,1), (0,2),
    ..., (n-2,n-1); the pair becomes an edge iff the draw is ``< p``.
    """
    _check_gnp(n, p)
    rng = random.Random(seed)
    edges = frozenset(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    )
    return Graph._unchecked(n, edges)


def gen_tight_family(f: Graph) -> Graph:
    """Attach two pendant length-2 paths to every vertex of ``f``.

    ``f`` must have a perfect matching.  For each vertex v of f, four new
    vertices are appended as a block (f.n + 4v .. f.n + 4v + 3, in vertex
    order, so the labeling is deterministic) forming paths v-x1-y1 and
    v-x2-y2.  The result has 5*f.n vertices and f.m + 4*f.n edges; its
    maximum matching has 5*f.n/2 edges while the best edge-disjoint pair
    totals 4*f.n with larger side 2*f.n, i.e. the 5/4 ratio is attained.
    """
    from .matching import max_matching  # local import avoids a module cycle

    if f.n % 2 == 1 or 2 * len(max_matching(f)) != f.n:
        raise ValueError("base graph has no perfect matching")
    new_edges = set(f.edges)
    for v in range(f.n):
        x1 = f.n + 4 * v
        y1, x2, y2 = x1 + 1, x1 + 2, x1 + 3
        new_edges.update({(v, x1), (x1, y1), (v, x2), (x2, y2)})
    return Graph(5 * f.n, frozenset(new_edges))


def gen_gap_family(k: int) -> Graph:
    """Spider tree with maximum matching k but pair total only k+1.

    Center 0 carries two pendant edges (to vertices 1 and 2) and k-1
    pendant paths of length two (0 - mid - tip).  A union of two
    edge-disjoint matchings touches the center at most twice, so it has
    at most 2 + (k-1) edges; hence the maximum pair total is k+1 while
    the maximum matching (one center edge plus all outer edges) has size
    k, and the larger side of an optimal pair also reaches k.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    edges = {(0, 1), (0, 2)}
    for i in range(k - 1):
        mid = 3 + 2 * i
        edges.add((0, mid))
        edges.add((mid, mid + 1))
    return Graph(2 * k + 1, frozenset(edges))


def _enumeration_size(n: int) -> int:
    """How many graphs ``enumerate_graphs(n)`` yields; raises ``ValueError``
    for ``n`` below 0 or above the ceiling."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n > ENUMERATION_MAX_VERTICES:
        raise ValueError(f"enumeration ceiling is n={ENUMERATION_MAX_VERTICES}")
    return 1 << n * (n - 1) // 2


def _enumerated_graph(n: int, code: int) -> Graph:
    """Graph number ``code`` of ``enumerate_graphs(n)``."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, frozenset(p for i, p in enumerate(reversed(pairs)) if code >> i & 1))


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """Yield all 2**(n(n-1)/2) labeled simple graphs on ``n`` vertices.

    Order is lexicographic in the upper-triangle adjacency bitstring whose
    characters follow the pair order (0,1), (0,2), ..., (n-2,n-1); the
    first pair is the most significant bit, so the empty graph comes
    first and the complete graph last.
    """
    for code in range(_enumeration_size(n)):
        yield _enumerated_graph(n, code)
