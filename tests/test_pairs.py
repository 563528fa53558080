from __future__ import annotations

import json
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings

from twomatch import cli, matching, pairs
from twomatch.alternating import verify_lemmas
from twomatch.graph import (
    Graph,
    enumerate_graphs,
    gen_complete,
    gen_cycle,
    gen_gap_family,
    gen_path,
    gen_random,
    gen_tight_family,
    to_edge_list,
)
from twomatch.matching import matching_violation, max_matching, maximum_matchings
from twomatch.pairs import (
    PAIR_ORACLE_MAX_EDGES,
    CanonicalTriple,
    PairResult,
    _frontier_dp,
    _frontier_order,
    _max_2_matching,
    _pair_from_2_matching,
    canonical_triple,
    canonical_triples,
    enumerate_m2,
    solve_pair,
    solve_pair_bruteforce,
)
from twomatch.reports import analyze_graph, run_census, verify_graph

from conftest import all_matchings_by_filtering, graphs, per_pair_trap


def pair_optima_by_filtering(g: Graph) -> tuple[int, int, set]:
    """Independent lambda2/alpha2/M2 oracle built on the filter above."""
    ms = all_matchings_by_filtering(g)
    lam = max((len(h) + len(hp) for h in ms for hp in ms if not h & hp), default=0)
    alpha = max(
        (
            max(len(h), len(hp))
            for h in ms
            for hp in ms
            if not h & hp and len(h) + len(hp) == lam
        ),
        default=0,
    )
    members = {
        (h, hp)
        for h in ms
        for hp in ms
        if not h & hp and len(h) + len(hp) == lam and len(h) == alpha
    }
    return lam, alpha, members


def max_2_matching_by_filtering(g: Graph) -> int:
    """Largest edge subset with every degree at most 2, by trying them all."""
    edges = sorted(g.edges)
    best = 0
    for mask in range(1 << len(edges)):
        size = bin(mask).count("1")
        if size <= best:
            continue
        deg = [0] * g.n
        for k, (u, v) in enumerate(edges):
            if mask >> k & 1:
                deg[u] += 1
                deg[v] += 1
        if max(deg) <= 2:
            best = size
    return best


def odd_cycles(n: int, two: frozenset) -> int:
    """Components of a 2-matching that are cycles of odd length."""
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in two:
        parent[find(u)] = find(v)
    sizes: dict[int, list[int]] = {}
    for v in range(n):
        sizes.setdefault(find(v), [0, 0])[0] += 1
    for u, _ in two:
        sizes[find(u)][1] += 1
    return sum(1 for verts, edges in sizes.values() if verts == edges and verts % 2)


def graphs_up_to(n: int):
    for k in range(n + 1):
        yield from enumerate_graphs(k)


@pytest.fixture()
def search_only(monkeypatch):
    """Send every graph the caps leave open to branch and bound, so the
    tests that guard the search keep its graphs when the dynamic program
    would take them."""
    monkeypatch.setattr(pairs, "_DP_MAX_WIDTH", -1)


def forced_dp(g: Graph, node_budget: int = 10**8):
    """The frontier dynamic program on any graph, caps or not."""
    program = _frontier_order(g, [len(a) for a in g.adjacency()], g.n)
    return _frontier_dp(program, g.m, node_budget)


class TestBruteforce:
    def test_empty_graph(self):
        r = solve_pair_bruteforce(Graph(4, frozenset()))
        assert (r.lambda2, r.alpha2) == (0, 0)
        assert r.h == r.h_prime == frozenset()

    def test_single_edge(self):
        r = solve_pair_bruteforce(gen_complete(2))
        assert (r.lambda2, r.alpha2) == (1, 1)
        assert (r.h, r.h_prime) == (frozenset({(0, 1)}), frozenset())

    def test_triangle(self):
        r = solve_pair_bruteforce(gen_cycle(3))
        assert (r.lambda2, r.alpha2) == (2, 1)

    def test_p4(self):
        r = solve_pair_bruteforce(gen_path(3))
        assert (r.lambda2, r.alpha2) == (3, 2)
        assert r.h == frozenset({(0, 1), (2, 3)})
        assert r.h_prime == frozenset({(1, 2)})

    def test_gap_family_hand_check(self):
        # 4 edges: center pendant pair (0,1),(0,2) and path 0-3-4; at most
        # two edges at the center across both sides, so the total is 3.
        r = solve_pair_bruteforce(gen_gap_family(2))
        assert (r.lambda2, r.alpha2) == (3, 2)

    def test_ceiling(self):
        with pytest.raises(ValueError):
            solve_pair_bruteforce(gen_complete(6))  # 15 edges
        with pytest.raises(ValueError, match="enumeration ceiling is 14 edges"):
            list(enumerate_m2(gen_complete(6)))

    def test_lists_its_own_matchings(self, monkeypatch):
        # The triple search lists through ``_matchings``; a fault there must
        # not reach the oracle that the triples are checked against.
        monkeypatch.setattr(pairs, "_matchings", lambda edges: [0])
        for g in [*enumerate_graphs(4), *(gen_random(7, 0.35, seed) for seed in range(8)), gen_gap_family(2)]:
            lam, alpha, members = pair_optima_by_filtering(g)
            r = solve_pair_bruteforce(g)
            assert (r.lambda2, r.alpha2, r.nu) == (lam, alpha, len(max_matching(g)))
            assert (r.h, r.h_prime) in members


class TestPairResult:
    H = frozenset({(0, 1), (2, 3)})
    H_PRIME = frozenset({(1, 2)})

    def test_defaults_and_repr(self):
        r = PairResult(3, 2, self.H, self.H_PRIME, 2)
        assert (r.status, r.nodes, r.route) == ("optimal", 0, "oracle")
        assert repr(r) == (
            "PairResult(lambda2=3, alpha2=2, h=frozenset({(0, 1), (2, 3)}), "
            "h_prime=frozenset({(1, 2)}), nu=2, status='optimal', nodes=0, route='oracle')"
        )
        assert PairResult(3, 2, self.H, self.H_PRIME, 2, route="dp", nodes=7).route == "dp"

    @pytest.mark.parametrize("lambda2,alpha2", [(3, 1), (2, 2), (4, 2)])
    def test_size_mismatch_rejected(self, lambda2, alpha2):
        with pytest.raises(ValueError, match="sizes disagree"):
            PairResult(lambda2, alpha2, self.H, self.H_PRIME, 2)

    def test_overlapping_sides_rejected(self):
        with pytest.raises(ValueError, match="not edge-disjoint"):
            PairResult(4, 2, self.H, frozenset({(0, 1), (1, 2)}), 2)
        with pytest.raises(ValueError, match="not edge-disjoint"):
            PairResult(lambda2=4, alpha2=2, h=self.H, h_prime=self.H, nu=2)

    def test_make_and_replace_run_the_checks(self):
        r = PairResult(3, 2, self.H, self.H_PRIME, 2)
        assert r._replace(nodes=5).nodes == 5
        assert PairResult._make(tuple(r)) == r
        with pytest.raises(ValueError, match="sizes disagree"):
            r._replace(alpha2=1)
        with pytest.raises(ValueError, match="not edge-disjoint"):
            PairResult._make((4, 2, self.H, self.H, 2, "optimal", 0, "oracle"))


class TestSolvePair:
    def test_tight_family_known_values(self):
        r = solve_pair(gen_tight_family(gen_complete(2)))
        assert (r.lambda2, r.alpha2) == (8, 4)

    def test_triangle(self):
        r = solve_pair(gen_cycle(3))
        assert (r.lambda2, r.alpha2) == (2, 1)

    def test_witness_valid(self):
        g = gen_random(8, 0.5, 99)
        r = solve_pair(g)
        assert matching_violation(g, r.h) is None and matching_violation(g, r.h_prime) is None
        assert not r.h & r.h_prime
        assert len(r.h) == r.alpha2 >= len(r.h_prime)
        assert len(r.h) + len(r.h_prime) == r.lambda2

    def test_deterministic(self):
        g = gen_random(9, 0.4, 123)
        assert solve_pair(g) == solve_pair(g)

    def test_budget_exceeded_is_reported(self):
        # Tight family on C4: alpha2 = 8 never meets nu = 10, so the
        # dynamic program runs until the budget runs out.
        r = solve_pair(gen_tight_family(gen_cycle(4)), node_budget=10)
        assert r.status == "budget_exceeded"
        assert r.nodes > 10
        # best-known values are still a valid (uncertified) pair
        assert len(r.h) + len(r.h_prime) == r.lambda2

    def test_budget_stops_the_search(self, search_only):
        # The budget runs out in branch and bound, not in the DP.  The
        # pair found by then is a valid lower bound; the oracle gives
        # (10, 6), which a larger budget certifies.
        g = gen_random(14, 0.2, 337)
        r = solve_pair(g, node_budget=10)
        assert (r.route, r.status, r.nodes) == ("search", "budget_exceeded", 11)
        assert (r.lambda2, r.alpha2) == (10, 5)
        rb = solve_pair_bruteforce(g)
        assert (rb.lambda2, rb.alpha2) == (10, 6)
        r = solve_pair(g, node_budget=1000)
        assert (r.route, r.status, r.nodes, r.lambda2, r.alpha2) == ("search", "optimal", 109, 10, 6)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            solve_pair(gen_gap_family(10), node_budget=-1)
        r = solve_pair(gen_gap_family(10), node_budget=0)
        assert (r.status, r.route, r.nodes) == ("optimal", "caps", 0)

    def test_rank_tie_keeps_the_first_incumbent(self):
        # The matching incumbent ({0-4, 1-2}, {1-3}) and the colored
        # 2-matching ({0-4, 1-2}, {2-3}) both rank (3, 2), below the caps
        # (4, 2); with no budget to search, the witness is the first.
        g = Graph(5, [(0, 4), (1, 2), (1, 3), (2, 3)])
        assert _pair_from_2_matching(_max_2_matching(g, [1, 2, 2, 2, 1])) == (
            frozenset({(0, 4), (1, 2)}),
            frozenset({(2, 3)}),
        )
        r = solve_pair(g, 0)
        assert (r.h, r.h_prime, r.status) == (
            frozenset({(0, 4), (1, 2)}),
            frozenset({(1, 3)}),
            "budget_exceeded",
        )

    def test_oracle_equivalence_exhaustive_n5(self):
        for g in graphs_up_to(5):
            rb = solve_pair_bruteforce(g)
            rs = solve_pair(g)
            assert (rs.lambda2, rs.alpha2) == (rb.lambda2, rb.alpha2)

    def test_gap_family_certified_at_the_root(self):
        # 1,200 edges, certified by the caps before any search.
        r = solve_pair(gen_gap_family(600))
        assert (r.lambda2, r.alpha2, r.status, r.nodes) == (601, 600, "optimal", 0)

    def test_deep_search_runs_on_an_explicit_stack(self, search_only):
        # tight k=2 on C4 beside a 1,200-edge path: 1,220 edges, and the
        # second pass searches all of them deep, far past Python's
        # recursion limit.
        tight = gen_tight_family(gen_cycle(4))
        path = gen_path(1200)
        shift = tight.n
        g = Graph(shift + path.n, tight.edges | {(u + shift, v + shift) for u, v in path.edges})
        r = solve_pair(g)
        assert (r.lambda2, r.alpha2, r.status, r.route) == (1216, 608, "optimal", "search")

    def test_node_counts_pinned(self, search_only):
        # Node counts are deterministic and are the solver's main metric.
        # Each graph here is searched by the first pass.  A change to a
        # bound, the edge order or the child order that moves a pin needs
        # a CHANGES.md entry that says so.
        for seed, m, nodes in ((59, 12, 74), (61, 14, 419), (100, 14, 326)):
            g = gen_random(9, 0.35, seed)
            r = solve_pair(g)
            rb = solve_pair_bruteforce(g)
            assert (g.m, r.nodes, r.route) == (m, nodes, "search")
            assert (r.lambda2, r.alpha2, r.status) == (rb.lambda2, rb.alpha2, "optimal")

    def test_tight_family_total_met_at_the_root(self):
        # tight k=100, 1,000 edges: the colored 2-matching meets
        # lambda2 = 8k before any search; alpha2 = 4k < nu = 5k leaves the
        # rest to the dynamic program, which the budget stops.
        r = solve_pair(gen_tight_family(gen_cycle(200)), node_budget=1)
        assert (r.lambda2, r.status) == (800, "budget_exceeded")

    def test_searched_pair_reaches_the_nu_cap(self, search_only):
        # Pass 1 ends here with a larger side below nu = alpha2 = 6, so
        # pass 2 must search on up to the nu cap, not stop below it.
        for n, p, seed in ((14, 0.2, 337), (14, 0.15, 2064)):
            g = gen_random(n, p, seed)
            r = solve_pair(g)
            rb = solve_pair_bruteforce(g)
            assert r.nodes > 0 and r.route == "search"
            assert (r.lambda2, r.alpha2) == (rb.lambda2, rb.alpha2)
            assert r.alpha2 == len(max_matching(g))

    def test_node_bounds_keep_the_optimum(self, search_only):
        # Inputs on which a node bound that counts one vertex slot too few
        # cuts off every optimal pair: on the first it loses the total, on
        # the second, in the second pass, the larger side.
        for n, edges in (
            (10, [(0, 2), (0, 9), (1, 6), (2, 3), (2, 8), (2, 9), (3, 7), (3, 8), (4, 5), (5, 8), (6, 8)]),
            (14, [(0, 3), (1, 3), (1, 5), (1, 6), (1, 7), (1, 8), (1, 9), (2, 8), (2, 9), (3, 9), (5, 7), (6, 12), (8, 9)]),
        ):
            g = Graph(n, frozenset(edges))
            r = solve_pair(g)
            rb = solve_pair_bruteforce(g)
            assert (r.lambda2, r.alpha2, r.route) == (rb.lambda2, rb.alpha2, "search")

    def test_search_from_the_empty_pair_keeps_searching(self):
        # With no incumbent the first leaves found are far from optimal, so
        # each pass must go on past every improving leaf; a search that
        # stopped at its first leaf is wrong on 106 of these 158 graphs.
        checked = 0
        for seed in range(200):
            g = gen_random(7 + seed % 4, 0.35, seed)
            if not 1 <= g.m <= PAIR_ORACLE_MAX_EDGES:
                continue
            deg = [len(a) for a in g.adjacency()]
            nu = len(max_matching(g))
            total_cap = min(2 * nu, sum(min(2, d) for d in deg) // 2)
            empty = (frozenset(), frozenset())
            (h, hp), _ = pairs._branch_and_bound(g, deg, empty, (total_cap, nu), 10**8)
            rb = solve_pair_bruteforce(g)
            assert (len(h) + len(hp), max(len(h), len(hp))) == (rb.lambda2, rb.alpha2), g
            assert matching_violation(g, h) is None and matching_violation(g, hp) is None and not h & hp
            checked += 1
        assert checked == 158

    def test_2_matching_bound_exhaustive_n5(self):
        for g in graphs_up_to(5):
            deg = [len(a) for a in g.adjacency()]
            two = _max_2_matching(g, deg)
            assert two <= g.edges
            assert all(sum(v in e for e in two) <= 2 for v in range(g.n))
            assert len(two) == max_2_matching_by_filtering(g)
            assert len(two) >= solve_pair_bruteforce(g).lambda2

    def test_2_matching_colored_into_a_pair_exhaustive_n5(self):
        for g in graphs_up_to(5):
            two = _max_2_matching(g, [len(a) for a in g.adjacency()])
            h, hp = _pair_from_2_matching(two)
            assert matching_violation(g, h) is None and matching_violation(g, hp) is None
            assert not h & hp and h | hp <= two
            assert len(h) >= len(hp)
            # Each odd cycle of the 2-matching loses exactly one edge.
            assert len(h) + len(hp) == len(two) - odd_cycles(g.n, two)

    def test_2_matching_split_order_pinned(self):
        # An odd path 0-5-1-7, an even path 2-8-3-9-4 and an odd cycle
        # 6-12-10-11-13.  The even path is colored from its smaller end,
        # and the odd cycle from 6 toward 12, so it loses (6, 13).
        two = frozenset(
            [(0, 5), (1, 5), (1, 7)]
            + [(2, 8), (3, 8), (3, 9), (4, 9)]
            + [(6, 12), (10, 12), (10, 11), (11, 13), (6, 13)]
        )
        h, hp = _pair_from_2_matching(two)
        assert h == {(0, 5), (1, 7), (2, 8), (3, 9), (6, 12), (10, 11)}
        assert hp == {(1, 5), (3, 8), (4, 9), (10, 12), (11, 13)}

    def test_independent_filter_oracle_n4(self):
        for g in enumerate_graphs(4):
            lam, alpha, _ = pair_optima_by_filtering(g)
            r = solve_pair(g)
            assert (r.lambda2, r.alpha2) == (lam, alpha)


class TestFrontierDP:
    def test_oracle_equivalence_exhaustive_n5(self):
        for g in graphs_up_to(5):
            (h, hp), _ = forced_dp(g)
            rb = solve_pair_bruteforce(g)
            assert (len(h) + len(hp), len(h)) == (rb.lambda2, rb.alpha2)
            assert matching_violation(g, h) is None and matching_violation(g, hp) is None and not h & hp

    def test_closed_forms(self):
        for k in range(1, 17):
            (h, hp), _ = forced_dp(gen_tight_family(gen_complete(2) if k == 1 else gen_cycle(2 * k)))
            assert (len(h) + len(hp), len(h)) == (8 * k, 4 * k)
        for k in range(2, 101):
            (h, hp), _ = forced_dp(gen_gap_family(k))
            assert (len(h) + len(hp), len(h)) == (k + 1, k)

    def test_witness_deterministic(self):
        g = gen_random(9, 0.35, 61)
        assert forced_dp(g) == forced_dp(g)
        (h, hp), nodes = forced_dp(gen_tight_family(gen_complete(2)))
        assert sorted(h) == [(0, 2), (1, 8), (4, 5), (6, 7)]
        assert sorted(hp) == [(0, 4), (1, 6), (2, 3), (8, 9)]
        assert nodes == 35

    def test_budget_stops_the_table(self):
        g = gen_tight_family(gen_cycle(4))
        pair, nodes = forced_dp(g, node_budget=10)
        assert pair is None and nodes > 10

    def test_routes(self):
        # The caps settle the gap family; the tight family's alpha2 = 4k
        # stays below nu = 5k, and its order has width 5.
        assert solve_pair(gen_gap_family(10)).route == "caps"
        for k in (8, 16):
            r = solve_pair(gen_tight_family(gen_cycle(2 * k)))
            assert (r.lambda2, r.alpha2, r.nu, r.status, r.route) == (8 * k, 4 * k, 5 * k, "optimal", "dp")


def tight_and_pendant() -> tuple[Graph, Graph]:
    """Two gap = 1 graphs: tight(1) (4 optimal pairs), and tight(1) with a
    pendant length-2 path on vertex 0 (12 pairs)."""
    tight = gen_tight_family(gen_complete(2))
    pendant = Graph(tight.n + 2, tight.edges | {(0, tight.n), (tight.n, tight.n + 1)})
    return tight, pendant


def small_graphs():
    for n in range(6):
        yield from enumerate_graphs(n)


def triples_by_reference(g: Graph) -> list[CanonicalTriple]:
    """The maximizing triples from the public ``enumerate_m2`` and
    ``maximum_matchings``, scored by (|M & H|, |M & H'|): pairs in their
    order, then M in its order."""
    ms = maximum_matchings(g)
    scored = [
        ((len(m & h), len(m & hp)), CanonicalTriple(h, hp, m)) for h, hp in enumerate_m2(g) for m in ms
    ]
    best = max(key for key, _ in scored)
    return [t for key, t in scored if key == best]


def random_corpus():
    """The seeded G(6, p) graphs of the enumeration and triple tests that
    fit the triple-search ceiling."""
    corpus = [gen_random(6, 0.4, 6_000 + i) for i in range(25)]
    corpus += [gen_random(6, 0.5, 7_000 + i) for i in range(15)]
    return [g for g in corpus if g.m <= PAIR_ORACLE_MAX_EDGES]


def triple_corpus():
    """Every graph the triple tests run on: small, seeded random, tight(1)
    with and without a pendant path, and the gap family up to the
    ceiling."""
    yield from small_graphs()
    yield from random_corpus()
    yield from tight_and_pendant()
    for k in range(2, 8):
        yield gen_gap_family(k)


class TestEnumerateM2:
    def test_single_edge(self):
        assert list(enumerate_m2(gen_complete(2))) == [
            (frozenset({(0, 1)}), frozenset())
        ]

    def test_triangle_ordered_pairs(self):
        pairs = list(enumerate_m2(gen_cycle(3)))
        assert len(pairs) == 6
        assert all(len(h) == 1 and len(hp) == 1 and not h & hp for h, hp in pairs)

    def test_p4(self):
        pairs = list(enumerate_m2(gen_path(3)))
        assert pairs == [(frozenset({(0, 1), (2, 3)}), frozenset({(1, 2)}))]

    def test_deterministic_order(self):
        g = gen_random(6, 0.5, 5)
        assert list(enumerate_m2(g)) == list(enumerate_m2(g))

    def test_matches_filter_oracle(self):
        for g in small_graphs():
            _, _, expect = pair_optima_by_filtering(g)
            got = list(enumerate_m2(g))
            assert len(got) == len(set(got))
            assert set(got) == expect

    def test_pair_sizes_match_the_pair_oracle(self):
        for g in [*small_graphs(), *tight_and_pendant()]:
            r = solve_pair_bruteforce(g)
            sizes = {(len(h) + len(hp), len(h)) for h, hp in enumerate_m2(g)}
            assert sizes == {(r.lambda2, r.alpha2)}

    def test_pendant_order_pinned(self):
        _, pendant = tight_and_pendant()
        got = [(sorted(h), sorted(hp)) for h, hp in enumerate_m2(pendant)]
        sides = [
            [(0, 2), (1, 6), (4, 5), (8, 9), (10, 11)],
            [(0, 2), (1, 8), (4, 5), (6, 7), (10, 11)],
            [(0, 4), (1, 6), (2, 3), (8, 9), (10, 11)],
            [(0, 4), (1, 8), (2, 3), (6, 7), (10, 11)],
            [(0, 10), (1, 6), (2, 3), (4, 5), (8, 9)],
            [(0, 10), (1, 8), (2, 3), (4, 5), (6, 7)],
        ]
        partners = [
            [(0, 4), (1, 8), (2, 3), (6, 7)],
            [(0, 10), (1, 8), (2, 3), (6, 7)],
            [(0, 4), (1, 6), (2, 3), (8, 9)],
            [(0, 10), (1, 6), (2, 3), (8, 9)],
            [(0, 2), (1, 8), (4, 5), (6, 7)],
            [(0, 10), (1, 8), (4, 5), (6, 7)],
            [(0, 2), (1, 6), (4, 5), (8, 9)],
            [(0, 10), (1, 6), (4, 5), (8, 9)],
            [(0, 2), (1, 8), (6, 7), (10, 11)],
            [(0, 4), (1, 8), (6, 7), (10, 11)],
            [(0, 2), (1, 6), (8, 9), (10, 11)],
            [(0, 4), (1, 6), (8, 9), (10, 11)],
        ]
        assert got == [(sides[i // 2], hp) for i, hp in enumerate(partners)]

    def test_matches_filter_oracle_random(self):
        for g in [*random_corpus(), *tight_and_pendant()]:
            _, _, expect = pair_optima_by_filtering(g)
            assert set(enumerate_m2(g)) == expect


class TestCanonicalTriple:
    def test_single_edge(self):
        t = canonical_triple(gen_complete(2))
        e = frozenset({(0, 1)})
        assert (t.h, t.h_prime, t.m) == (e, frozenset(), e)

    def test_p4_m_equals_h(self):
        t = canonical_triple(gen_path(3))
        assert t.m == t.h == frozenset({(0, 1), (2, 3)})
        assert len(t.m & t.h) == 2

    def test_tight_family_overlap(self):
        # nu - alpha2 = 1 here, and the shared part M∩H is pinched to
        # exactly twice that gap.
        g = gen_tight_family(gen_complete(2))
        t = canonical_triple(g)
        assert len(t.m & t.h) == 2

    def test_optimality_of_key(self):
        for i in range(15):
            g = gen_random(6, 0.5, 7_000 + i)
            if g.m > PAIR_ORACLE_MAX_EDGES:
                continue
            t = canonical_triple(g)
            best = max(
                (len(m & h), len(m & hp))
                for h, hp in enumerate_m2(g)
                for m in maximum_matchings(g)
            )
            assert (len(t.m & t.h), len(t.m & t.h_prime)) == best

    def test_emitted_in_sorted_order(self):
        # The search emits H, then H', then M in take-then-skip order and
        # never sorts; for sets of one size that order is lexicographic.
        for g in [*small_graphs(), *random_corpus(), *tight_and_pendant()]:
            ts = canonical_triples(g)
            assert ts == sorted(ts, key=lambda t: (sorted(t.h), sorted(t.h_prime), sorted(t.m)))

    def test_all_triples_share_key(self):
        g = gen_gap_family(3)
        ts = canonical_triples(g)
        keys = {(len(t.m & t.h), len(t.m & t.h_prime)) for t in ts}
        assert len(keys) == 1

    def test_deterministic(self):
        g = gen_random(7, 0.4, 321)
        assert canonical_triple(g) == canonical_triple(g)

    def test_ceiling(self):
        with pytest.raises(ValueError):
            canonical_triple(gen_tight_family(gen_cycle(4)))  # 20 edges

    def test_equals_the_reference_in_order(self):
        for g in [*small_graphs(), *random_corpus(), *tight_and_pendant()]:
            assert canonical_triples(g) == triples_by_reference(g)

    def test_scoring_equals_the_reference_on_other_pairs(self, monkeypatch):
        # On optimal pairs the best M has been unique per pair on every
        # graph tried, so the order of tied M shows only on other pair
        # lists: the empty pair ties every M, and among the single-edge
        # pairs the M that meet H can miss H'.
        def empty_pair(listed):
            return [(0, 0)]

        def single_edge_pairs(listed):
            ones = [x for x in listed if x.bit_count() == 1]
            return [(x, y) for x in ones for y in ones if x != y]

        for pair_list in (empty_pair, single_edge_pairs):
            monkeypatch.setattr(pairs, "_optimal_pairs", pair_list)
            for g in [*random_corpus(), *tight_and_pendant()]:
                assert canonical_triples(g) == triples_by_reference(g)

    def test_lists_the_matchings_once(self, monkeypatch):
        listing = matching._matchings
        calls = []

        def counted(edges):
            calls.append(len(edges))
            return listing(edges)

        monkeypatch.setattr(matching, "_matchings", counted)
        monkeypatch.setattr(pairs, "_matchings", counted)
        for g in [*tight_and_pendant(), gen_gap_family(3), gen_random(7, 0.4, 321)]:
            for search in (canonical_triples, canonical_triple):
                calls.clear()
                search(g)
                assert calls == [g.m]

    def test_first_equals_the_full_list(self):
        for g in triple_corpus():
            assert canonical_triple(g) == canonical_triples(g)[0]

    def test_turns_only_the_first_triple_into_edge_sets(self, monkeypatch):
        convert = pairs._edge_set
        calls = []

        def counted(edges, mask):
            calls.append(mask)
            return convert(edges, mask)

        monkeypatch.setattr(pairs, "_edge_set", counted)
        tight, _ = tight_and_pendant()
        for g in (gen_gap_family(3), tight):
            assert len(canonical_triples(g)) > 1
            calls.clear()
            canonical_triple(g)
            assert len(calls) <= 3

    def test_alpha2_is_nu_exactly_when_every_m_is_h(self):
        # The premise of the alpha2 = nu shortcut, with alpha2 and nu from
        # the oracle and the triples from the reference scoring of every
        # pair against every maximum matching.
        seen = set()
        for g in triple_corpus():
            r = solve_pair_bruteforce(g)
            m_is_h = all(t.m == t.h for t in triples_by_reference(g))
            assert (r.alpha2 == r.nu) == m_is_h
            seen.add(m_is_h)
        assert seen == {True, False}


class TestMaximumOverAllPairs:
    """On ``per_pair_trap`` the best key over all optimal pairs, (3, 2), is
    above the best key of some pairs, so a best M per pair is not enough."""

    def test_canonical_triples_pass_every_check(self):
        doc = verify_graph(per_pair_trap())
        assert len(doc["triples"]) == 4
        for t in doc["triples"]:
            m, h, h_prime = ({tuple(e) for e in t[side]} for side in ("m", "h", "h_prime"))
            assert (len(m & h), len(m & h_prime)) == (3, 2)
            failures = [name for name, v in t["checks"].items() if not v["ok"]]
            assert (len(t["checks"]), failures) == (15, [])

    def test_a_best_m_per_pair_fails_six_checks(self):
        g = per_pair_trap()
        nu = len(max_matching(g))
        ms = maximum_matchings(g)
        per_pair = []
        for h, hp in enumerate_m2(g):
            keys = [(len(m & h), len(m & hp)) for m in ms]
            per_pair += [CanonicalTriple(h, hp, m) for m, key in zip(ms, keys) if key == max(keys)]
        failed = [report.failures() for report in (verify_lemmas(g, t, nu) for t in per_pair)]
        assert len(per_pair) == 10
        assert [names for names in failed if names] == 2 * [
            [
                "l2_two_smaller_side_neighbors",
                "l3_core_odd_paths_only",
                "l5_long_paths_end_edges",
                "c3_path_vertices_covered",
                "l6a_launched_paths",
                "r1_ratio_chain",
            ]
        ]


class TestRelabeling:
    """Relabeling the vertices leaves nu, lambda2 and alpha2 unchanged, but
    often moves a graph to another route, so each relabeling checks one
    route against another above the oracle's ceiling."""

    def test_answers_survive_relabeling(self):
        certified = 0
        moves = Counter()
        hits = []
        for n, p in ((12, 0.3), (16, 0.2), (20, 0.15), (24, 0.12), (30, 0.1)):
            for s in range(12):
                g = gen_random(n, p, s)
                r = solve_pair(g, node_budget=10**5)
                rng = random.Random(f"relabel/{n}/{s}")
                for _ in range(2):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in sorted(g.edges)])
                    rh = solve_pair(h, node_budget=10**5)
                    for graph, res in ((g, r), (h, rh)):
                        assert matching_violation(graph, res.h) is None
                        assert matching_violation(graph, res.h_prime) is None
                    if r.status == rh.status == "optimal":
                        assert (rh.nu, rh.lambda2, rh.alpha2) == (r.nu, r.lambda2, r.alpha2)
                        certified += 1
                        if rh.route != r.route:
                            moves[r.route, rh.route] += 1
                    else:
                        hits.append((n, s, r.route, r.status, rh.route, rh.status))
        assert certified == 118
        assert moves == {("caps", "dp"): 5, ("dp", "caps"): 2}
        # G(30, 0.1) seed 2 has width 7, which the DP certifies, but both
        # relabelings have width 8 and run out of budget in the search.
        assert hits == 2 * [(30, 2, "dp", "optimal", "search", "budget_exceeded")]


def test_oracle_is_off_the_production_path(monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("oracle called on the production path")

    oracles = (matching.max_matching_bruteforce, pairs.solve_pair_bruteforce)
    for name, module in list(sys.modules.items()):
        if name == "twomatch" or name.startswith("twomatch."):
            for attr, value in list(vars(module).items()):
                if any(value is oracle for oracle in oracles):
                    monkeypatch.setattr(module, attr, refuse)
    for g in tight_and_pendant():
        r = analyze_graph(g, with_timings=False)
        assert (r.lemmas_skipped, r.lemmas_passed, r.lemma_failures) == (None, 15, ())
        assert all(t["ok"] for t in verify_graph(g)["triples"])
    tight, pendant = tight_and_pendant()
    graphs = [("tight", tight), ("gap", gen_gap_family(3)), ("random", gen_random(8, 0.4, 5))]
    summary, rows = run_census(len(graphs), graphs.__getitem__, jobs=1, with_timings=False)
    assert not summary.failures and all(r.lemmas_skipped is None for r in rows)
    path = tmp_path / "pendant.txt"
    path.write_text(to_edge_list(pendant))
    assert cli.main(["verify-lemmas", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=7))
def test_pair_invariants(g):
    r = solve_pair(g)
    nu = len(max_matching(g))
    assert r.alpha2 <= nu
    assert 4 * nu <= 5 * r.alpha2
    assert r.lambda2 <= 2 * nu
    assert 2 * r.alpha2 >= r.lambda2
    if g.m == 0:
        assert r.alpha2 == 0
    else:
        assert r.alpha2 >= 1
