from __future__ import annotations

import random
from itertools import combinations
from typing import Iterable, NamedTuple

import pytest
from hypothesis import strategies as st

from twomatch import Graph, edge, matching_violation
from twomatch.matching import _find_path_from


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


class AugmentingPath(NamedTuple):
    """Odd-length alternating path between two unmatched vertices.

    ``vertices`` is the walk (smaller endpoint first); ``matched_indices``
    are the positions k for which (vertices[k], vertices[k+1]) is matched,
    always (1, 3, 5, ...).
    """

    vertices: tuple[int, ...]
    matched_indices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    def edges(self) -> list[tuple[int, int]]:
        return [edge(a, b) for a, b in zip(self.vertices, self.vertices[1:])]


def find_augmenting_path(g: Graph, matching: Iterable) -> AugmentingPath | None:
    """An augmenting path for ``matching``, or ``None`` when it is maximum
    (Berge), from the blossom search that ``max_matching`` runs.

    Raises ``ValueError`` if the input is not a valid matching of ``g``.
    """
    matching = frozenset(matching)
    reason = matching_violation(g, matching)
    if reason is not None:
        raise ValueError(f"invalid matching: {reason}")
    adj = g.adjacency()
    match = [-1] * g.n
    for u, v in matching:
        match[u] = v
        match[v] = u
    for root in range(g.n):
        if match[root] == -1 and adj[root]:
            walk = _find_path_from(adj, match, root)
            if walk is not None:
                if walk[-1] < walk[0]:
                    walk = walk[::-1]
                return AugmentingPath(tuple(walk), tuple(range(1, len(walk) - 1, 2)))
    return None


def augment(matching: Iterable, path: AugmentingPath) -> frozenset:
    """Flip the path's edges; the result is a matching one edge larger.

    Raises ``KeyError`` when an odd-position edge of the path is not in
    ``matching``, so a path with the wrong parity cannot pass unnoticed.
    """
    result = set(matching)
    for k, e in enumerate(path.edges()):
        if k % 2 == 1:
            result.remove(e)
        else:
            result.add(e)
    return frozenset(result)


@pytest.fixture(scope="session")
def petersen_graph() -> Graph:
    return petersen()


def greedy_matching(g: Graph, seed: int, keep: float = 0.7) -> frozenset:
    """Deterministic pseudo-random matching: greedy over a shuffled edge list."""
    rng = random.Random(seed)
    edges = sorted(g.edges)
    rng.shuffle(edges)
    used: set[int] = set()
    out = set()
    for u, v in edges:
        if u not in used and v not in used and rng.random() < keep:
            out.add((u, v))
            used.update((u, v))
    return frozenset(out)


def all_matchings_by_filtering(g: Graph) -> list[frozenset]:
    """Independent enumeration: subsets filtered by the matching predicate."""
    edges = sorted(g.edges)
    out = []
    for r in range(len(edges) + 1):
        for combo in combinations(edges, r):
            used = set()
            ok = True
            for u, v in combo:
                if u in used or v in used:
                    ok = False
                    break
                used.update((u, v))
            if ok:
                out.append(frozenset(combo))
    return out


@st.composite
def graphs(draw, max_n: int = 8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return Graph(n, frozenset())
    edges = draw(st.sets(st.sampled_from(pairs)))
    return Graph(n, frozenset(edges))


@st.composite
def graph_with_matchings(draw, max_n: int = 8):
    g = draw(graphs(max_n=max_n))
    a = greedy_matching(g, draw(st.integers(0, 10**6)))
    b = greedy_matching(g, draw(st.integers(0, 10**6)))
    return g, a, b
