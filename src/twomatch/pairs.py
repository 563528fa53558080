"""Exact optima over pairs of edge-disjoint matchings.

For a graph G, the quantities computed here are the best total size of a
pair of edge-disjoint matchings, the largest single side among pairs
attaining that total, the full set of attaining pairs, and the canonical
triple (pair plus maximum matching) that maximizes the overlap of the
maximum matching first with the larger side and then with the smaller.

``solve_pair`` takes three routes, cheapest first.  Two incumbents come
first: a maximum matching M paired with a maximum matching of the graph
without M's edges, and, when the cheap caps leave a gap, a maximum simple
2-matching (Tutte's gadget, reduced to ``max_matching``) colored
alternately along its paths and cycles.  Three caps bound them: nu = |M|
caps the larger side; 2 * nu and half the sum of min(2, deg v) cap the
total, and so does the size of that 2-matching, since the union of a
pair is a 2-matching.  An incumbent that meets both caps is certified
with nothing searched.

Otherwise, when a greedy vertex order keeps at most ``_DP_MAX_WIDTH``
vertices on its frontier, a dynamic program over that order (the classic
one over a bounded-width decomposition, Arnborg and Proskurowski 1989, in
the frontier form of frontier-based search) gives both optima in one
sweep: its state is two bits per frontier vertex, one per side, and its
value weighs side one m + 2 and side two m + 1 per edge, so the best
value is lambda2 * (m + 1) + alpha2.  Every extremal-family instance has
width at most 5.

Wider orders go to branch and bound over per-edge assignments {unused,
side one, side two}: feasibility pruning keeps each side a matching, and
a swap-symmetry cut pins the first colored edge to side one.  One
depth-first search, over an explicit stack so that its depth is bounded
by memory and not by Python's recursion limit, looks for a pair with
total at least a goal and larger side at least a second goal.  It runs
twice: the first pass raises the total goal past each pair it finds, the
second fixes the total at the optimum and raises the side goal.  The
total is bounded by the assigned total plus half the free vertex slots
(each vertex can take min(2 - its assigned pair edges, its unassigned
edges) more), a bound that updates in O(1) per node.  A pass whose
incumbent meets its cap is not run, and a pass whose goal passes its cap
stops there.

Both the dynamic program and the search are exact; one that passes the
node budget (table entries or search nodes) is reported as such, never
silently mis-answered.

``solve_pair_bruteforce`` is the independent oracle: it enumerates every
matching H outright, by a depth-first search of its own, and pairs it
with an exhaustively computed maximum matching of the graph minus H's
edges, sharing no code with the dynamic program, the branch and bound or
the triple search's lister ``_matchings``.  The package never calls it;
the tests compare against it.

The triple search runs no oracle and no ``solve_pair``.
``_triple_masks`` lists the matchings once per graph as edge bitmasks,
with no recursion.  ``_optimal_pairs`` scores each H in that list by the
matching number of the graph minus H's edges: the size of H's largest
disjoint partner in the list.  Each H of size alpha2 whose score is
lambda2 - alpha2 is followed by every matching of that size disjoint
from it.  When the first H is a maximum matching, alpha2 = nu and the
triples are (H, H', H), read off the pairs with no scoring.  Otherwise
every pair meets every maximum matching, the largest masks of the same
list: each (pair, M) gets the key (|M & H|, |M & H'|), counted on
bitmasks, and the triples are those whose key is the one maximum,
already in order.  ``canonical_triples`` turns the masks of every triple
into edge sets, ``canonical_triple`` those of the first alone.
``enumerate_m2`` yields the same pairs as edge sets.
"""

from __future__ import annotations

import heapq
from itertools import chain
from typing import Iterable, Iterator, NamedTuple

from .graph import Edge, Graph, _paths_and_cycles
from .matching import _edge_set, _matchings, max_matching, max_matching_bruteforce


DEFAULT_NODE_BUDGET = 10**8

#: Ceiling for the exhaustive oracle, pair enumeration, and triple search.
PAIR_ORACLE_MAX_EDGES = 14

#: Widest vertex order ``solve_pair`` hands to the frontier dynamic
#: program; a table holds at most 4**width states.  Measured on random
#: graphs of 16-30 vertices: up to width 6 the program took at most
#: 0.023 s and beat branch and bound on 21 of 23 graphs; at 7 it took at
#: most 0.14 s, where branch and bound took 0.02 s on some and ran out of
#: 2*10**6 nodes on others; at 8 it took up to 0.4 s where branch and
#: bound took 0.07 s.
_DP_MAX_WIDTH = 7


class _PairFields(NamedTuple):
    lambda2: int
    alpha2: int
    h: frozenset[Edge]
    h_prime: frozenset[Edge]
    nu: int
    status: str = "optimal"
    nodes: int = 0
    route: str = "oracle"


class PairResult(_PairFields):
    """Optimal pair sizes plus a witness, normalized so ``len(h) == alpha2``,
    and the matching number ``nu``.

    ``status`` is ``"optimal"`` for a certified optimum; a run that hits
    the node budget reports ``"budget_exceeded"`` and the fields hold the
    best pair found so far (valid lower bounds, not certified optima).
    ``route`` is how ``solve_pair`` got there, ``"caps"``, ``"dp"`` or
    ``"search"``, and ``nodes`` is what that route spent: none, table
    entries, or search nodes.  The exhaustive oracle's results read
    ``"oracle"``.  The checks run in ``__new__``, and ``_make`` and
    ``_replace`` go through it too.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "PairResult":
        self = super().__new__(cls, *args, **kwargs)
        if len(self.h) != self.alpha2 or len(self.h) + len(self.h_prime) != self.lambda2:
            raise ValueError("witness sizes disagree with the reported optima")
        if self.h & self.h_prime:
            raise ValueError("witness sides are not edge-disjoint")
        return self

    @classmethod
    def _make(cls, iterable: Iterable) -> "PairResult":
        return cls(*iterable)


class CanonicalTriple(NamedTuple):
    """An optimal pair (h, h_prime) together with a maximum matching m
    chosen to maximize (|m & h|, |m & h_prime|) lexicographically."""

    h: frozenset[Edge]
    h_prime: frozenset[Edge]
    m: frozenset[Edge]


def _max_2_matching(g: Graph, deg: list[int]) -> frozenset[Edge]:
    """A maximum simple 2-matching of ``g``: a largest edge set in which
    every vertex has degree at most 2.

    Tutte's gadget reduces it to ``max_matching``: min(2, deg v) copies of
    each vertex v, and for each edge (u, v) two new vertices a, b joined
    to each other, a to every copy of u and b to every copy of v.  A
    maximum matching of the gadget covers each pair a, b by the edge a-b,
    by one copy edge or by two, never by none.  So its size is |E| plus
    the number of pairs with two copy edges, and their edges form the
    2-matching.
    """
    first = []
    n = 0
    for v in range(g.n):
        first.append(n)
        n += min(2, deg[v])
    copies = n
    order = sorted(g.edges)
    pairs = []
    gadget = []
    for u, v in order:
        a, b = n, n + 1
        n += 2
        pairs.append((a, b))
        gadget.append((a, b))
        gadget += [(c, a) for c in range(first[u], first[u] + min(2, deg[u]))]
        gadget += [(c, b) for c in range(first[v], first[v] + min(2, deg[v]))]
    held = {y for x, y in max_matching(Graph._unchecked(n, frozenset(gadget))) if x < copies}
    return frozenset(e for e, (a, b) in zip(order, pairs) if a in held and b in held)


def _pair_from_2_matching(two: frozenset[Edge]) -> tuple[frozenset[Edge], frozenset[Edge]]:
    """Split a 2-matching (disjoint paths and cycles) into two disjoint
    matchings by coloring each path and cycle alternately in the order
    ``_paths_and_cycles`` walks it; an odd cycle loses its closing edge.
    Side one gets the extra edge of each odd path, so it is the larger
    side."""
    side1: list[Edge] = []
    side2: list[Edge] = []
    for walk in _paths_and_cycles(two):
        trail = [(u, v) if u < v else (v, u) for u, v in zip(walk, walk[1:])]
        if walk[0] == walk[-1] and len(trail) % 2:
            trail.pop()
        side1 += trail[0::2]
        side2 += trail[1::2]
    return frozenset(side1), frozenset(side2)


def _remaining_degree_masks(edges: list[Edge], deg: list[int]) -> tuple[list[int], list[int]]:
    """For each edge i of ``edges``, the endpoint bits whose remaining
    degree (edges i, i+1, ... that touch the endpoint) is exactly 1, and
    those where it is exactly 2.  They keep the node bound of
    ``_branch_and_bound`` current in O(1) per node."""
    left = deg[:]
    last1 = []
    last2 = []
    for u, v in edges:
        last1.append((1 << u if left[u] == 1 else 0) | (1 << v if left[v] == 1 else 0))
        last2.append((1 << u if left[u] == 2 else 0) | (1 << v if left[v] == 2 else 0))
        left[u] -= 1
        left[v] -= 1
    return last1, last2


def _frontier_order(g: Graph, deg: list[int], cap: int) -> list[tuple[Edge, tuple[int, ...]]] | None:
    """A vertex order that keeps the frontier small, as the edge program
    ``_frontier_dp`` runs, or None once its width passes ``cap``.

    The frontier is the set of added vertices that still have a neighbor
    to come; the width is its largest size while a vertex's edges are
    decided, that vertex included.  The next vertex is the one whose
    addition grows the frontier least (it stays if it has a neighbor to
    come; each added neighbor whose last neighbor to come it is leaves),
    then the one with most added neighbors, then the one with fewest
    neighbors to come, then the lowest label; keys live in a heap and are
    pushed again when they change, which is only around the vertex just
    added.  Each step of the program is an edge, decided when its second
    endpoint arrives, with the endpoints whose last edge it is.
    """
    adj = g.adjacency()
    left = deg[:]  # neighbors not yet added
    last = [0] * g.n  # added neighbors whose only neighbor left is this vertex
    added = [False] * g.n
    key = {v: (1, 0, deg[v], v) for v in range(g.n) if deg[v]}
    heap = list(key.values())
    heapq.heapify(heap)
    frontier = 0
    program: list[tuple[Edge, tuple[int, ...]]] = []
    while heap:
        item = heapq.heappop(heap)
        v = item[3]
        if added[v] or item != key[v]:
            continue
        added[v] = True
        frontier += 1
        if frontier > cap:
            return None
        back = sorted(u for u in adj[v] if added[u])
        for u in adj[v]:
            left[u] -= 1
        for u in back:
            gone = (u,) if not left[u] else ()
            if u == back[-1] and not left[v]:
                gone += (v,)
            program.append(((u, v) if u < v else (v, u), gone))
            frontier -= len(gone)
        touched = [u for u in adj[v] if not added[u]]
        for u in back + [v]:
            if left[u] == 1:
                w = next(w for w in adj[u] if not added[w])
                last[w] += 1
                touched.append(w)
        for w in touched:
            key[w] = ((left[w] > 0) - last[w], left[w] - deg[w], left[w], w)
            heapq.heappush(heap, key[w])
    return program


def _frontier_dp(
    program: list[tuple[Edge, tuple[int, ...]]], m: int, node_budget: int
) -> tuple[tuple[frozenset[Edge], frozenset[Edge]] | None, int]:
    """The pair maximizing total first and side one second, by dynamic
    programming over the edge program of ``_frontier_order``, with the
    table entries processed; the pair is None if they pass the budget.

    A state holds two bits per frontier vertex, side one used and side
    two used, in the slot the vertex holds while it is on the frontier.
    Its value weighs each side-one edge m + 2 and each side-two edge
    m + 1, so the best value is lambda2 * (m + 1) + alpha2: one sweep
    settles both.  An edge step maps each state to up to three (edge
    unused, on side one, on side two, where both endpoints have that side
    free); a vertex whose last edge is decided drops its bits, and states
    that then coincide keep the larger value, the first one on a tie.
    Each state carries its used edges as a persistent chain (edge, side,
    previous link), so the witness needs no second pass.
    """
    weight = (0, m + 2, m + 1)
    slot: dict[int, int] = {}
    free: list[int] = []  # released slots; any one gives the same table
    table: dict[int, tuple[int, tuple | None]] = {0: (0, None)}
    nodes = 0
    for edge, gone in program:
        for x in edge:
            if x not in slot:
                slot[x] = free.pop() if free else len(slot)
        one = (1 << 2 * slot[edge[0]]) | (1 << 2 * slot[edge[1]])
        keep = -1
        for x in gone:
            keep &= ~(3 << 2 * slot[x])
            free.append(slot.pop(x))
        nodes += len(table)
        if nodes > node_budget:
            return None, nodes
        step: dict[int, tuple[int, tuple | None]] = {}
        for state, (value, chain) in table.items():
            for side, bits in ((0, 0), (1, one), (2, one << 1)):
                if state & bits:
                    continue
                target = (state | bits) & keep
                better = value + weight[side]
                held = step.get(target)
                if held is None or held[0] < better:
                    step[target] = (better, (edge, side, chain) if side else chain)
        table = step
    _, chain = max(table.values(), key=lambda entry: entry[0])
    sides: tuple[list[Edge], list[Edge]] = ([], [])
    while chain is not None:
        edge, side, chain = chain
        sides[side - 1].append(edge)
    return (frozenset(sides[0]), frozenset(sides[1])), nodes


def _branch_and_bound(
    g: Graph,
    deg: list[int],
    best_pair: tuple[frozenset[Edge], frozenset[Edge]],
    nu: int,
    total_cap: int,
    node_budget: int,
) -> tuple[tuple[frozenset[Edge], frozenset[Edge]], int]:
    """The best pair from ``best_pair`` on by two passes of branch and
    bound over per-edge assignments, with the nodes searched.

    One depth-first search over an explicit stack serves both passes, so
    its depth is bounded by memory, not by the edge count.  A call looks
    for a pair with total at least ``need_total`` and larger side at
    least ``need_side``; each leaf it reaches raises one goal just past
    what it found, the total in the first pass and the side in the
    second.  It returns when that goal passes its cap, when the budget
    runs out, or when the stack empties.  The free vertex slots bound the
    total (see the module docstring), and the larger side is checked at
    the leaves only.  The bound cuts only subtrees that cannot meet the
    total goal, so the pair returned is the one the search without it
    returns given budget enough.
    """
    # Fail-first edge order: descending endpoint degree sum, then lex.
    edges = sorted(g.edges, key=lambda e: (-(deg[e[0]] + deg[e[1]]), e))
    count = len(edges)
    masks = [(1 << u) | (1 << v) for u, v in edges]
    last1, last2 = _remaining_degree_masks(edges, deg)
    slots = sum(min(2, d) for d in deg)
    nodes = 0
    color = [0] * count  # side (1 or 2) or 0 (unused) of each decided edge

    def search(need_total: int, need_side: int) -> tuple[frozenset[Edge], frozenset[Edge]] | None:
        """The last pair found with total >= ``need_total`` and larger side
        >= ``need_side``, or None; each leaf raises the side goal when it
        is set, the total goal otherwise."""
        nonlocal nodes
        found = None
        # A node at depth i has decided edges 0..i-1; it carries the color
        # of edge i-1, each side's vertex bits, the free vertex slots and
        # each side's size.  Node bound: each vertex can still take
        # min(2 - its assigned pair edges, its remaining degree) pair
        # edges, and each edge uses two such slots; ``slack`` is that slot
        # sum.  Assigning edge i uses two slots; skipping it uses an
        # endpoint's slot only where its remaining degree was the smaller
        # side of the min: 1 with a free side, or 2 with both.
        stack = [(0, 0, 0, 0, slots, 0, 0)]
        while stack:
            i, c, occ1, occ2, slack, c1, c2 = stack.pop()
            nodes += 1
            if nodes > node_budget:
                break
            if c1 + c2 + (slack >> 1) < need_total:
                continue
            if i:
                color[i - 1] = c
            if i == count:
                if max(c1, c2) < need_side:
                    continue
                found = (
                    frozenset(e for e, side in zip(edges, color) if side == 1),
                    frozenset(e for e, side in zip(edges, color) if side == 2),
                )
                if need_side:
                    need_side = max(c1, c2) + 1
                    if need_side > nu:
                        break
                else:
                    need_total = c1 + c2 + 1
                    if need_total > total_cap:
                        break
                continue
            mask = masks[i]
            lost = (last1[i] & ~(occ1 & occ2)).bit_count() + (last2[i] & ~(occ1 | occ2)).bit_count()
            # Children pushed in reverse, so side one is tried first, then
            # side two, then leaving edge i unused.
            stack.append((i + 1, 0, occ1, occ2, slack - lost, c1, c2))
            if c1 and not occ2 & mask:  # swap symmetry: side two opens after side one
                stack.append((i + 1, 2, occ1, occ2 | mask, slack - 2, c1, c2 + 1))
            if not occ1 & mask:
                stack.append((i + 1, 1, occ1 | mask, occ2, slack - 2, c1 + 1, c2))
        return found

    # First pass: raise the total.  Second pass: total fixed at the
    # optimum, raise the larger side.
    total = len(best_pair[0]) + len(best_pair[1])
    if total < total_cap:
        best_pair = search(total + 1, 0) or best_pair
    best_side = max(len(best_pair[0]), len(best_pair[1]))
    if nodes <= node_budget and best_side < nu:
        best_pair = search(len(best_pair[0]) + len(best_pair[1]), best_side + 1) or best_pair
    return best_pair, nodes


def solve_pair(g: Graph, node_budget: int = DEFAULT_NODE_BUDGET) -> PairResult:
    """Exact best pair total and largest side among best-total pairs.

    Two incumbents come first: a maximum matching M with a maximum
    matching of the graph without M's edges, and a maximum simple
    2-matching split into two matchings; the better by (total, larger
    side) is kept.  Three caps bound the answer: the larger side is at
    most nu = |M|, and the total at most 2 * nu, at most half the sum of
    min(2, deg v), and at most the maximum simple 2-matching (computed,
    with its incumbent, only when the incumbent is below the first two).
    An incumbent meeting both caps is certified with no node searched
    (route ``"caps"``).  Otherwise a vertex order is built, and if its
    width is at most ``_DP_MAX_WIDTH`` the frontier dynamic program
    settles both quantities in one sweep (route ``"dp"``, ``nodes``
    counting table entries); past that width, branch and bound does
    (route ``"search"``, ``nodes`` counting search nodes).  Either route
    stops once ``nodes`` passes ``node_budget`` and reports the
    incumbent as ``budget_exceeded``; a budget of 0 allows the caps only,
    and a negative one raises ``ValueError``.
    """
    if node_budget < 0:
        raise ValueError(f"node budget must be at least 0, got {node_budget}")
    deg = [0] * g.n
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1

    # Matching incumbent: M, then a maximum matching of the rest.
    m = max_matching(g)
    rest = max_matching(Graph._unchecked(g.n, g.edges - m))
    nu = len(m)
    best_total = nu + len(rest)
    best_pair = (m, rest)

    # Each side is a matching and every vertex meets at most two pair
    # edges; the 2-matching bound costs a blossom run, so it is only
    # computed when the cheap caps leave a gap.  The 2-matching, colored
    # alternately, is the second incumbent; it meets the cap unless it
    # has an odd cycle.
    total_cap = min(2 * nu, sum(min(2, d) for d in deg) // 2)
    if best_total < total_cap:
        two = _max_2_matching(g, deg)
        total_cap = min(total_cap, len(two))
        h2, hp2 = _pair_from_2_matching(two)
        if (len(h2) + len(hp2), len(h2)) > (best_total, nu):
            best_total = len(h2) + len(hp2)
            best_pair = (h2, hp2)

    nodes = 0
    route = "caps"
    if best_total < total_cap or max(len(best_pair[0]), len(best_pair[1])) < nu:
        program = _frontier_order(g, deg, _DP_MAX_WIDTH)
        if program is not None:
            route = "dp"
            found, nodes = _frontier_dp(program, g.m, node_budget)
            best_pair = found or best_pair
        else:
            route = "search"
            best_pair, nodes = _branch_and_bound(g, deg, best_pair, nu, total_cap, node_budget)

    h, hp = best_pair
    if len(hp) > len(h):
        h, hp = hp, h
    status = "budget_exceeded" if nodes > node_budget else "optimal"
    return PairResult(len(h) + len(hp), len(h), h, hp, nu, status, nodes, route)


def solve_pair_bruteforce(g: Graph) -> PairResult:
    """Exhaustive oracle for ``solve_pair`` (graphs up to 14 edges).

    Every matching H is enumerated, by a take-then-skip depth-first
    search of its own over the sorted edges, on an explicit stack; the
    best disjoint partner is a maximum matching of the graph without H's
    edges, found by the exhaustive matching oracle.  The witness is the
    first H in that order with the best (total, larger side).  No
    dynamic-program, branch-and-bound or triple-search machinery is
    shared.
    """
    if g.m > PAIR_ORACLE_MAX_EDGES:
        raise ValueError(f"oracle ceiling is {PAIR_ORACLE_MAX_EDGES} edges")
    edges = sorted(g.edges)
    nu = 0
    best_key = (0, 0)
    best: tuple[frozenset[Edge], frozenset[Edge]] = (frozenset(), frozenset())
    # (next edge, covered vertices as a bitmask, edges taken); the skip
    # branch goes on the stack first, so the take branch runs first.
    stack = [(0, 0, frozenset())]
    while stack:
        i, covered, h = stack.pop()
        if i < len(edges):
            u, v = edges[i]
            ends = (1 << u) | (1 << v)
            stack.append((i + 1, covered, h))
            if not covered & ends:
                stack.append((i + 1, covered | ends, h | {edges[i]}))
            continue
        partner = max_matching_bruteforce(Graph(g.n, g.edges - h))
        nu = max(nu, len(h))
        key = (len(h) + len(partner), max(len(h), len(partner)))
        if key > best_key:
            best_key = key
            best = (h, partner) if len(h) >= len(partner) else (partner, h)
    return PairResult(*best_key, *best, nu)


def _optimal_pairs(listed: list[int]) -> Iterator[tuple[int, int]]:
    """Every ordered optimal pair, as bitmasks, from the matchings of
    ``_matchings`` over the sorted edges.

    Every matching of the graph without H's edges is in that list, so nu
    of that graph is the size of H's largest disjoint partner: the first
    one met in the list taken from the largest size down.  That scan
    gives lambda2 and alpha2.  H then runs over the matchings of size
    alpha2 whose largest partner has size lambda2 - alpha2, in scan
    order, and for each H the second side runs over the partners of that
    size, in list order.
    """
    largest_first = sorted(listed, key=int.bit_count, reverse=True)
    scan = []
    for h in listed:
        for partner in largest_first:
            if not partner & h:
                break
        scan.append((h, h.bit_count(), partner.bit_count()))
    lambda2 = max(size + rest for _, size, rest in scan)
    # A best partner of an optimal H is itself an optimal H, so the
    # largest side shows up as some |H|.
    alpha2 = max(size for _, size, rest in scan if size + rest == lambda2)
    beta = lambda2 - alpha2
    # The scan lists the partners too, and in the order that a search over
    # the edges outside H alone would.
    partners = [x for x in listed if x.bit_count() == beta]
    for h, size, rest in scan:
        if size == alpha2 and rest == beta:
            for x in partners:
                if not x & h:
                    yield h, x


def enumerate_m2(g: Graph) -> Iterator[tuple[frozenset[Edge], frozenset[Edge]]]:
    """Yield every ordered optimal pair: total equal to the best total and
    first side equal to the largest attainable side, each exactly once.

    The pairs are those of ``_optimal_pairs`` over the matchings listed
    once in take-then-skip order over sorted edges: H in scan order, and
    for each H the second side in that order.
    """
    if g.m > PAIR_ORACLE_MAX_EDGES:
        raise ValueError(f"enumeration ceiling is {PAIR_ORACLE_MAX_EDGES} edges")
    edges = sorted(g.edges)
    for h, x in _optimal_pairs(_matchings(edges)):
        yield _edge_set(edges, h), _edge_set(edges, x)


def _triple_masks(edges: list[Edge]) -> Iterator[tuple[int, int, int]]:
    """The maximizing triples over the sorted ``edges`` as bitmasks
    (h, h_prime, m), in the order ``canonical_triples`` returns them.

    Every pair of ``_optimal_pairs`` has |H| = alpha2.  So when the first
    H is a maximum matching, alpha2 = nu: the only M meeting such an H in
    nu edges is H itself, the best key is (nu, 0), and the triples are
    (H, H', H) for each pair in order, with no scoring.  Otherwise each
    (pair, maximum matching), pairs in order and M in order within a
    pair, gets the key (|M & H|, |M & H'|), and every triple whose key is
    the maximum is yielded; the maximum runs over all pairs, since the
    best M for one pair alone can score below it.
    """
    if len(edges) > PAIR_ORACLE_MAX_EDGES:
        raise ValueError(f"graph has {len(edges)} edges, over the triple-search ceiling of {PAIR_ORACLE_MAX_EDGES}")
    listed = _matchings(edges)
    nu = max(map(int.bit_count, listed))
    pairs = iter(_optimal_pairs(listed))
    first = next(pairs)
    pairs = chain((first,), pairs)
    if first[0].bit_count() == nu:
        for a, b in pairs:
            yield a, b, a
        return
    ms = [x for x in listed if x.bit_count() == nu]
    scored = [(((x & a).bit_count(), (x & b).bit_count()), (a, b, x)) for a, b in pairs for x in ms]
    best = max(key for key, _ in scored)
    yield from (triple for key, triple in scored if key == best)


def canonical_triples(g: Graph) -> list[CanonicalTriple]:
    """All triples attaining the lexicographic maximum of
    (|m & h|, |m & h_prime|) over optimal pairs and maximum matchings.

    The matchings are listed once, as edge bitmasks; the optimal pairs of
    ``_optimal_pairs`` and the maximum matchings, those of largest size,
    both come from that list.  When alpha2 = nu the triples are
    (h, h_prime, h) for each pair, with nothing scored.  Otherwise every
    (pair, maximum matching) is scored, and the triples are those whose
    key equals the one maximum over them all.  The pairs come H first,
    then h_prime, and the matchings in take-then-skip order over sorted
    edges, which for sets of one size is lexicographic order of their
    sorted edges.  So the triples come out sorted by (h, h_prime, m) as
    sorted edge tuples, with no sort afterwards, and the first is the
    canonical representative.  Only the masks of the triples returned
    become edge sets, each distinct mask once.
    """
    edges = sorted(g.edges)
    found = list(_triple_masks(edges))
    sets = {x: _edge_set(edges, x) for triple in found for x in triple}
    return [CanonicalTriple(sets[a], sets[b], sets[x]) for a, b, x in found]


def canonical_triple(g: Graph) -> CanonicalTriple:
    """The deterministic representative among all maximizing triples: the
    first of ``canonical_triples``.  Only its three masks become edge
    sets, and when alpha2 = nu only the first optimal pair is read."""
    edges = sorted(g.edges)
    return CanonicalTriple(*(_edge_set(edges, x) for x in next(_triple_masks(edges))))
