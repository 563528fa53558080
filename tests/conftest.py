from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import strategies as st

from twomatch import Graph


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


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
