"""Maximum matchings in general graphs.

``max_matching`` runs Edmonds' algorithm: repeated augmenting-path search
with odd cycles (blossoms) contracted on the fly through a ``base``
relabeling, so the search stays complete on non-bipartite graphs.  By
Berge's theorem the absence of an augmenting path certifies maximality;
``_find_path_from`` is the search from one exposed root.

``max_matching_bruteforce`` is the independent oracle: exhaustive search
over edge subsets with non-adjacency pruning, used by the test suite to
validate the augmenting-path code and never called by it; the pair
oracle ``pairs.solve_pair_bruteforce`` is its only other caller.
``maximum_matchings``, ``pairs.enumerate_m2`` and the pair oracle list
matchings through one private take-then-skip lister, ``_matchings``,
which returns them as edge bitmasks.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .graph import Edge, Graph, edge

__all__ = [
    "matching_violation",
    "is_matching",
    "max_matching",
    "max_matching_bruteforce",
    "maximum_matchings",
    "BRUTEFORCE_MAX_EDGES",
]

#: Edge-count ceiling for the exhaustive oracle; keeps suite runtimes sane.
BRUTEFORCE_MAX_EDGES = 24


def matching_violation(g: Graph, edges: Iterable[Edge]) -> str | None:
    """Reason the edge set fails to be a matching of ``g``, or ``None``."""
    covered: dict[int, Edge] = {}
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            return f"{e!r} is not an edge pair"
        if e not in g.edges:
            return f"edge {e} is not an edge of the graph"
        for w in (u, v):
            if w in covered:
                return f"vertex {w} covered twice (by {covered[w]} and {e})"
            covered[w] = e
    return None


def is_matching(g: Graph, edges: Iterable[Edge]) -> bool:
    """True iff ``edges`` is a set of pairwise non-adjacent edges of ``g``."""
    return matching_violation(g, set(edges)) is None


def _lca(match: list[int], base: list[int], parent: list[int], a: int, b: int) -> int:
    """Meeting point of the two alternating tree walks, in base labels."""
    seen = set()
    while True:
        a = base[a]
        seen.add(a)
        if match[a] == -1:
            break
        a = parent[match[a]]
    while True:
        b = base[b]
        if b in seen:
            return b
        b = parent[match[b]]


def _mark_blossom(
    match: list[int],
    base: list[int],
    parent: list[int],
    in_blossom: list[bool],
    v: int,
    stem: int,
    child: int,
) -> None:
    """Walk v up to the blossom stem, recording members and rewiring parents
    so the contracted cycle can be traversed in either direction."""
    while base[v] != stem:
        in_blossom[base[v]] = True
        in_blossom[base[match[v]]] = True
        parent[v] = child
        child = match[v]
        v = parent[match[v]]


def _find_path_from(adj: list[list[int]], match: list[int], root: int) -> list[int] | None:
    """BFS for an augmenting path from ``root``; returns the vertex walk
    (exposed endpoint first, root last) or ``None``."""
    n = len(adj)
    parent = [-1] * n
    base = list(range(n))
    used = [False] * n
    used[root] = True
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if base[v] == base[u] or match[v] == u:
                continue
            if u == root or (match[u] != -1 and parent[match[u]] != -1):
                # u is an even (outer) vertex: contract the blossom
                stem = _lca(match, base, parent, v, u)
                in_blossom = [False] * n
                _mark_blossom(match, base, parent, in_blossom, v, stem, u)
                _mark_blossom(match, base, parent, in_blossom, u, stem, v)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = stem
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif parent[u] == -1:
                parent[u] = v
                if match[u] == -1:
                    # exposed vertex reached: reconstruct the walk
                    path = [u]
                    w = u
                    while True:
                        pw = parent[w]
                        path.append(pw)
                        w = match[pw]
                        if w == -1:
                            return path
                        path.append(w)
                else:
                    used[match[u]] = True
                    queue.append(match[u])
    return None


def max_matching(g: Graph) -> frozenset[Edge]:
    """A maximum matching of ``g``, deterministic for a fixed graph.

    Tie-breaking is fixed: greedy seeding over lexicographically sorted
    edges, then one augmenting-path search per exposed vertex in
    ascending order with ascending adjacency scans.
    """
    adj = g.adjacency()
    match = [-1] * g.n
    for u, v in sorted(g.edges):
        if match[u] == -1 and match[v] == -1:
            match[u] = v
            match[v] = u
    for root in range(g.n):
        if match[root] == -1 and adj[root]:
            walk = _find_path_from(adj, match, root)
            if walk is not None:
                for k in range(0, len(walk) - 1, 2):
                    a, b = walk[k], walk[k + 1]
                    match[a] = b
                    match[b] = a
    return frozenset(edge(v, match[v]) for v in range(g.n) if match[v] > v)


def max_matching_bruteforce(g: Graph) -> frozenset[Edge]:
    """Exhaustive maximum matching; the oracle for ``max_matching``."""
    if g.m > BRUTEFORCE_MAX_EDGES:
        raise ValueError(f"brute-force ceiling is {BRUTEFORCE_MAX_EDGES} edges")
    edges = sorted(g.edges)
    masks = [(1 << u) | (1 << v) for u, v in edges]
    count = len(edges)
    best: list[Edge] = []
    chosen: list[Edge] = []

    def search(i: int, used: int) -> None:
        nonlocal best
        if len(chosen) + (count - i) <= len(best):
            return
        if i == count:
            best = chosen.copy()
            return
        if not used & masks[i]:
            chosen.append(edges[i])
            search(i + 1, used | masks[i])
            chosen.pop()
        search(i + 1, used)

    search(0, 0)
    return frozenset(best)


def _matchings(edges: list[Edge]) -> list[int]:
    """Every matching over ``edges``, the empty one included, in
    take-then-skip depth-first order, each as a bitmask with bit i set for
    ``edges[i]``.

    The list is built from the last edge back, with no recursion: the
    matchings over edges i, i+1, ... are those of the later list that miss
    edge i's ends, each with edge i taken, followed by the later list."""
    got = [(0, 0)]  # (matching, the vertices it covers)
    for i in range(len(edges) - 1, -1, -1):
        u, v = edges[i]
        ends = (1 << u) | (1 << v)
        bit = 1 << i
        got = [(x | bit, used | ends) for x, used in got if not used & ends] + got
    return [x for x, _ in got]


def _edge_set(edges: list[Edge], mask: int) -> frozenset[Edge]:
    """The edges of ``edges`` whose bits are set in ``mask``."""
    out = []
    while mask:
        low = mask & -mask
        out.append(edges[low.bit_length() - 1])
        mask ^= low
    return frozenset(out)


def maximum_matchings(g: Graph) -> list[frozenset[Edge]]:
    """All maximum matchings of ``g``, for exhaustive triple searches, in
    take-then-skip order over sorted edges; nu is the largest size listed.

    Exponential in general; callers enforce their own edge ceilings.
    """
    edges = sorted(g.edges)
    listed = _matchings(edges)
    nu = max(map(int.bit_count, listed))
    return [_edge_set(edges, x) for x in listed if x.bit_count() == nu]
