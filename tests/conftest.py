from __future__ import annotations

import os
import random
import signal
from itertools import combinations
from typing import Iterable, NamedTuple

import pytest
from hypothesis import strategies as st

from twomatch import reports
from twomatch.alternating import Verdict, _property_3, _property_4, decompose
from twomatch.graph import Graph, edge
from twomatch.matching import _find_path_from, matching_violation, max_matching


def _children_of(parent: int) -> list[int]:
    """Pids whose parent is ``parent``, read from ``/proc`` (empty where
    there is none)."""
    found = []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == parent:
            found.append(int(entry))
    return found


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process behind, exited but not
    reaped or still running, and name its pid.  A running one is killed
    and reaped here, so that the next test starts clean."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    if pid:
        pytest.fail(f"child process {pid} exited but was not reaped")
    running = _children_of(os.getpid())
    for child in running:
        os.kill(child, signal.SIGKILL)
        os.waitpid(child, 0)
    pytest.fail(f"child process still running: {running or 'pid not found'}")


def fail_on(monkeypatch, source: str, message: str, others=None) -> None:
    """Make ``analyze_graph`` raise ``ValueError(message)`` on ``source``
    and run ``others`` first on every other graph; forked children inherit
    the patch."""
    real = reports.analyze_graph

    def patched(g, src="", **kw):
        if src == source:
            raise ValueError(message)
        if others is not None:
            others()
        return real(g, src, **kw)

    monkeypatch.setattr(reports, "analyze_graph", patched)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def per_pair_trap() -> Graph:
    """A gap = 1 graph on 13 vertices (vertex 12 isolated) whose best key
    over all optimal pairs, (3, 2), is not the best key of every pair:
    scored on its own, some pair's best is (2, 2), and those triples fail
    lemma checks that every maximizing triple passes."""
    edges = "0-1 0-2 0-4 0-9 1-6 1-8 1-10 2-3 2-7 3-11 4-5 6-7 8-9"
    return Graph.from_edges(13, (map(int, e.split("-")) for e in edges.split()))


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


def matchings_by_recursion(edges: list, size: int | None = None) -> list[int]:
    """Every matching over ``edges`` (the empty one included), or only those
    with exactly ``size`` edges, as bitmasks with bit i set for
    ``edges[i]``, from a recursive take-then-skip search: the order
    reference for ``matching._matchings``."""
    ends = [(1 << u) | (1 << v) for u, v in edges]
    count = len(edges)
    floor = size or 0
    out: list[int] = []

    def search(i: int, used: int, chosen: int, taken: int) -> None:
        if taken + (count - i) < floor:
            return
        if taken == size or i == count:
            out.append(chosen)
            return
        if not used & ends[i]:
            search(i + 1, used | ends[i], chosen | 1 << i, taken + 1)
        search(i + 1, used, chosen, taken)

    search(0, 0, 0, 0)
    return out


def check_property_3(g: Graph, m: Iterable, h: Iterable) -> Verdict:
    """Property 3 of the lemma suite for a maximum matching ``m`` against
    ``h``, decomposed here.

    Raises ``ValueError`` (a precondition violation, not a verdict) when
    ``m`` is not maximum.
    """
    m, h = frozenset(m), frozenset(h)
    if len(m) != len(max_matching(g)):
        raise ValueError("first matching is not maximum")
    return _property_3(len(m) - len(h), decompose(g, m, h))


def check_property_4(g: Graph, h: Iterable, h_prime: Iterable) -> Verdict:
    """Property 4 of the lemma suite for an optimal pair, decomposed here."""
    return _property_4(decompose(g, h, h_prime))


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
