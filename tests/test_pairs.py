from __future__ import annotations

import pytest
from hypothesis import given, settings

from twomatch import (
    PAIR_ORACLE_MAX_EDGES,
    Graph,
    canonical_triple,
    canonical_triples,
    enumerate_graphs,
    enumerate_m2,
    gen_complete,
    gen_cycle,
    gen_gap_family,
    gen_path,
    gen_random,
    gen_tight_family,
    is_matching,
    max_matching,
    maximum_matchings,
    solve_pair,
    solve_pair_bruteforce,
)

from conftest import all_matchings_by_filtering, graphs


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
        assert is_matching(g, r.h) and is_matching(g, r.h_prime)
        assert not r.h & r.h_prime
        assert len(r.h) == r.alpha2 >= len(r.h_prime)
        assert len(r.h) + len(r.h_prime) == r.lambda2

    def test_deterministic(self):
        g = gen_random(9, 0.4, 123)
        assert solve_pair(g) == solve_pair(g)

    def test_budget_exceeded_is_reported(self):
        r = solve_pair(gen_complete(6), node_budget=10)
        assert r.status == "budget_exceeded"
        assert r.nodes > 10
        # best-known values are still a valid (uncertified) pair
        assert len(r.h) + len(r.h_prime) == r.lambda2

    def test_oracle_equivalence_exhaustive_n4(self):
        for g in enumerate_graphs(4):
            rb = solve_pair_bruteforce(g)
            rs = solve_pair(g)
            assert (rs.lambda2, rs.alpha2) == (rb.lambda2, rb.alpha2)

    def test_independent_filter_oracle_n4(self):
        for g in enumerate_graphs(4):
            lam, alpha, _ = pair_optima_by_filtering(g)
            r = solve_pair(g)
            assert (r.lambda2, r.alpha2) == (lam, alpha)


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
        for g in enumerate_graphs(4):
            _, _, expect = pair_optima_by_filtering(g)
            got = list(enumerate_m2(g))
            assert len(got) == len(set(got))
            assert set(got) == expect

    def test_matches_filter_oracle_random(self):
        # Two gap = 1 graphs: tight(1) (4 pairs), and tight(1) with a pendant
        # length-2 path on vertex 0 (12 pairs).
        tight = gen_tight_family(gen_complete(2))
        pendant = Graph(tight.n + 2, tight.edges | {(0, tight.n), (tight.n, tight.n + 1)})
        corpus = [gen_random(6, 0.4, 6_000 + i) for i in range(25)] + [tight, pendant]
        for g in corpus:
            if g.m > PAIR_ORACLE_MAX_EDGES:
                continue
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
