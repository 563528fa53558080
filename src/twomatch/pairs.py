"""Exact optima over pairs of edge-disjoint matchings.

For a graph G, the quantities computed here are the best total size of a
pair of edge-disjoint matchings, the largest single side among pairs
attaining that total, the full set of attaining pairs, and the canonical
triple (pair plus maximum matching) that maximizes the overlap of the
maximum matching first with the larger side and then with the smaller.

``solve_pair`` is branch and bound over per-edge assignments {unused,
side one, side two}: feasibility pruning keeps each side a matching, the
optimistic bound is the assigned total plus the count of unassigned
edges, and a swap-symmetry cut pins the first colored edge to side one.
A second pass fixes the total and maximizes the larger side.  The search
is exact; an instance that exhausts the node budget is reported as such,
never silently mis-answered.

``solve_pair_bruteforce`` is the independent oracle: it enumerates every
matching H outright and pairs it with an exhaustively computed maximum
matching of the graph minus H's edges, sharing no code with the branch
and bound.  ``enumerate_m2`` reads every optimal pair off that same scan:
each H of size alpha2 whose partner has lambda2 - alpha2 edges, followed
by every maximum matching of the graph minus H's edges.  So the triple
search scans each graph once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graph import Edge, Graph
from .matching import _matchings, max_matching_bruteforce, maximum_matchings

__all__ = [
    "PairResult",
    "CanonicalTriple",
    "solve_pair",
    "solve_pair_bruteforce",
    "enumerate_m2",
    "canonical_triple",
    "canonical_triples",
    "DEFAULT_NODE_BUDGET",
    "PAIR_ORACLE_MAX_EDGES",
]

DEFAULT_NODE_BUDGET = 10**8

#: Ceiling for the exhaustive oracle, pair enumeration, and triple search.
PAIR_ORACLE_MAX_EDGES = 14


@dataclass(frozen=True)
class PairResult:
    """Optimal pair sizes plus a witness, normalized so ``len(h) == alpha2``.

    ``status`` is ``"optimal"`` for a certified optimum; a run that hits
    the node budget reports ``"budget_exceeded"`` and the fields hold the
    best pair found so far (valid lower bounds, not certified optima).
    """

    lambda2: int
    alpha2: int
    h: frozenset[Edge]
    h_prime: frozenset[Edge]
    status: str = "optimal"
    nodes: int = 0

    def __post_init__(self) -> None:
        if len(self.h) != self.alpha2 or len(self.h) + len(self.h_prime) != self.lambda2:
            raise ValueError("witness sizes disagree with the reported optima")
        if self.h & self.h_prime:
            raise ValueError("witness sides are not edge-disjoint")


@dataclass(frozen=True)
class CanonicalTriple:
    """An optimal pair (h, h_prime) together with a maximum matching m
    chosen to maximize (|m & h|, |m & h_prime|) lexicographically."""

    h: frozenset[Edge]
    h_prime: frozenset[Edge]
    m: frozenset[Edge]


def _assignment_order(g: Graph) -> list[Edge]:
    """Fail-first edge order: descending endpoint degree sum, then lex."""
    deg = [0] * g.n
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    return sorted(g.edges, key=lambda e: (-(deg[e[0]] + deg[e[1]]), e))


def solve_pair(g: Graph, node_budget: int = DEFAULT_NODE_BUDGET) -> PairResult:
    """Exact best pair total and largest side among best-total pairs."""
    edges = _assignment_order(g)
    count = len(edges)
    masks = [(1 << u) | (1 << v) for u, v in edges]

    nodes = 0
    exhausted = False

    # Greedy incumbent: one maximal side, then a maximal second side on
    # the leftover edges.  Seeds the bound; never affects exactness.
    taken = [False] * count
    used1 = 0
    side1 = []
    for k in range(count):
        if not used1 & masks[k]:
            used1 |= masks[k]
            side1.append(k)
            taken[k] = True
    used2 = 0
    side2 = []
    for k in range(count):
        if not taken[k] and not used2 & masks[k]:
            used2 |= masks[k]
            side2.append(k)

    best_total = len(side1) + len(side2)
    best_pair = (
        frozenset(edges[k] for k in side1),
        frozenset(edges[k] for k in side2),
    )

    # Each side is a matching, so no pair can beat these caps; an incumbent
    # meeting one certifies that phase without any search.
    total_cap = min(2 * (g.n // 2), count)
    side_cap = g.n // 2

    sel1: list[int] = []
    sel2: list[int] = []

    def dfs_total(i: int, occ1: int, occ2: int) -> None:
        nonlocal nodes, exhausted, best_total, best_pair
        if exhausted:
            return
        nodes += 1
        if nodes > node_budget:
            exhausted = True
            return
        total = len(sel1) + len(sel2)
        if total + (count - i) <= best_total:
            return
        if i == count:
            best_total = total
            best_pair = (
                frozenset(edges[k] for k in sel1),
                frozenset(edges[k] for k in sel2),
            )
            return
        mask = masks[i]
        if not occ1 & mask:
            sel1.append(i)
            dfs_total(i + 1, occ1 | mask, occ2)
            sel1.pop()
        if sel1 and not occ2 & mask:  # swap symmetry: side two opens after side one
            sel2.append(i)
            dfs_total(i + 1, occ1, occ2 | mask)
            sel2.pop()
        dfs_total(i + 1, occ1, occ2)

    if best_total < total_cap:
        dfs_total(0, 0, 0)
    lam = best_total

    # Second pass: total fixed at the optimum, maximize the larger side.
    best_side = max(len(best_pair[0]), len(best_pair[1]))
    best_sides = best_pair

    def dfs_side(i: int, occ1: int, occ2: int) -> None:
        nonlocal nodes, exhausted, best_side, best_sides
        if exhausted:
            return
        nodes += 1
        if nodes > node_budget:
            exhausted = True
            return
        c1, c2 = len(sel1), len(sel2)
        rem = count - i
        if c1 + c2 + rem < lam:
            return
        if max(c1, c2) + rem <= best_side:
            return
        if i == count:
            best_side = max(c1, c2)
            best_sides = (
                frozenset(edges[k] for k in sel1),
                frozenset(edges[k] for k in sel2),
            )
            return
        mask = masks[i]
        if not occ1 & mask:
            sel1.append(i)
            dfs_side(i + 1, occ1 | mask, occ2)
            sel1.pop()
        if sel1 and not occ2 & mask:
            sel2.append(i)
            dfs_side(i + 1, occ1, occ2 | mask)
            sel2.pop()
        dfs_side(i + 1, occ1, occ2)

    if not exhausted and best_side < min(side_cap, lam):
        dfs_side(0, 0, 0)

    h, hp = best_sides
    if len(hp) > len(h):
        h, hp = hp, h
    status = "budget_exceeded" if exhausted else "optimal"
    return PairResult(len(h) + len(hp), len(h), h, hp, status, nodes)


def _scan(g: Graph) -> list[tuple[frozenset[Edge], frozenset[Edge]]]:
    """Every matching H of ``g`` in scan order, each with the exhaustive
    oracle's maximum matching of the graph without H's edges."""
    return [
        (h, max_matching_bruteforce(Graph(g.n, g.edges - h)))
        for h in _matchings(sorted(g.edges))
    ]


def _best_pair(scan: list[tuple[frozenset[Edge], frozenset[Edge]]]) -> PairResult:
    """Best total, then largest side, with the first such scan entry as
    the witness."""
    best_total = 0
    best_side = 0
    best: tuple[frozenset[Edge], frozenset[Edge]] = (frozenset(), frozenset())
    for h, partner in scan:
        total = len(h) + len(partner)
        side = max(len(h), len(partner))
        if total > best_total or (total == best_total and side > best_side):
            best_total = total
            best_side = side
            best = (h, partner) if len(h) >= len(partner) else (partner, h)
    return PairResult(best_total, best_side, best[0], best[1])


def solve_pair_bruteforce(g: Graph) -> PairResult:
    """Exhaustive oracle for ``solve_pair`` (graphs up to 14 edges).

    Every matching H is enumerated; the best disjoint partner is a
    maximum matching of the graph without H's edges, found by the
    exhaustive matching oracle.  Totals and the larger side are read off
    the full scan, so no branch-and-bound machinery is shared.
    """
    if g.m > PAIR_ORACLE_MAX_EDGES:
        raise ValueError(f"oracle ceiling is {PAIR_ORACLE_MAX_EDGES} edges")
    return _best_pair(_scan(g))


def enumerate_m2(g: Graph) -> Iterator[tuple[frozenset[Edge], frozenset[Edge]]]:
    """Yield every ordered optimal pair: total equal to the best total and
    first side equal to the largest attainable side, each exactly once.

    The pairs are read off the oracle's one scan: H runs over the
    matchings of size alpha2 whose removal leaves matching number
    lambda2 - alpha2, in scan order, and for each H the second side runs
    over the maximum matchings of the graph without H's edges, in
    take-then-skip order over sorted edges.
    """
    if g.m > PAIR_ORACLE_MAX_EDGES:
        raise ValueError(f"enumeration ceiling is {PAIR_ORACLE_MAX_EDGES} edges")
    scan = _scan(g)
    opt = _best_pair(scan)
    beta = opt.lambda2 - opt.alpha2
    for h, partner in scan:
        if len(h) == opt.alpha2 and len(partner) == beta:
            for hp in _matchings(sorted(g.edges - h), beta):
                yield h, hp


def canonical_triples(g: Graph) -> list[CanonicalTriple]:
    """All triples attaining the lexicographic maximum of
    (|m & h|, |m & h_prime|) over optimal pairs and maximum matchings.

    Sorted by (h, h_prime, m) as sorted edge tuples, so the first entry
    is the canonical representative.
    """
    if g.m > PAIR_ORACLE_MAX_EDGES:
        raise ValueError(f"triple-search ceiling is {PAIR_ORACLE_MAX_EDGES} edges")
    pairs = list(enumerate_m2(g))
    matchings = maximum_matchings(g)
    best_key = (-1, -1)
    found: list[CanonicalTriple] = []
    for h, hp in pairs:
        for m in matchings:
            key = (len(m & h), len(m & hp))
            if key > best_key:
                best_key = key
                found = [CanonicalTriple(h, hp, m)]
            elif key == best_key:
                found.append(CanonicalTriple(h, hp, m))
    found.sort(key=lambda t: (sorted(t.h), sorted(t.h_prime), sorted(t.m)))
    return found


def canonical_triple(g: Graph) -> CanonicalTriple:
    """The deterministic representative among all maximizing triples."""
    return canonical_triples(g)[0]
