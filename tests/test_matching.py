from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twomatch import (
    BRUTEFORCE_MAX_EDGES,
    Graph,
    enumerate_graphs,
    gen_complete,
    gen_cycle,
    gen_gap_family,
    gen_path,
    gen_random,
    gen_tight_family,
    is_matching,
    matching_violation,
    max_matching,
    max_matching_bruteforce,
    maximum_matchings,
)
from twomatch.matching import _edge_set, _matchings

from conftest import (
    AugmentingPath,
    all_matchings_by_filtering,
    augment,
    find_augmenting_path,
    graph_with_matchings,
    graphs,
    matchings_by_recursion,
    petersen,
)


class TestIsMatching:
    def test_valid(self):
        p4 = gen_path(3)
        assert is_matching(p4, {(0, 1), (2, 3)})

    def test_shared_vertex(self):
        p4 = gen_path(3)
        assert not is_matching(p4, {(0, 1), (1, 2)})
        assert "vertex 1" in matching_violation(p4, {(0, 1), (1, 2)})

    def test_empty(self):
        assert is_matching(gen_path(3), set())

    def test_foreign_edge(self):
        assert "not an edge" in matching_violation(gen_path(3), {(0, 2)})


class TestFindAugmentingPath:
    def test_p4_middle_edge(self):
        p4 = gen_path(3)
        path = find_augmenting_path(p4, {(1, 2)})
        assert path is not None
        assert path.vertices == (0, 1, 2, 3)
        assert path.matched_indices == (1,)
        assert path.length == 3

    def test_p4_perfect(self):
        assert find_augmenting_path(gen_path(3), {(0, 1), (2, 3)}) is None

    def test_c5_augmentable(self):
        c5 = gen_cycle(5)
        path = find_augmenting_path(c5, {(0, 1)})
        assert path is not None  # nu(C5)=2 > 1, so a path must exist
        bigger = augment({(0, 1)}, path)
        assert is_matching(c5, bigger) and len(bigger) == 2

    def test_invalid_matching_rejected(self):
        with pytest.raises(ValueError, match="invalid matching"):
            find_augmenting_path(gen_path(3), {(0, 1), (1, 2)})

    def test_odd_cycle_needs_blossoms(self):
        # A bipartite-only search stalls here: the exposed vertices of
        # C9 with this matching see each other only through a blossom.
        c9 = gen_cycle(9)
        m = {(1, 2), (3, 4), (5, 6), (7, 8)}
        assert find_augmenting_path(c9, m) is None
        m = {(1, 2), (3, 4), (6, 7)}
        path = find_augmenting_path(c9, m)
        assert path is not None
        bigger = augment(m, path)
        assert is_matching(c9, bigger) and len(bigger) == len(m) + 1

    def test_augment_rejects_a_path_of_the_wrong_parity(self):
        # 0-1-2-3 with (0, 1) and (2, 3) matched: (1, 2) sits at an odd
        # position but is not matched, so the path cannot augment.
        path = AugmentingPath((0, 1, 2, 3), (1,))
        with pytest.raises(KeyError):
            augment({(0, 1), (2, 3)}, path)


class TestMaxMatching:
    @pytest.mark.parametrize(
        "g,expect",
        [
            (gen_path(3), 2),
            (gen_cycle(5), 2),
            (gen_complete(4), 2),
            (Graph(4, frozenset()), 0),
            (petersen(), 5),
            (gen_tight_family(gen_complete(2)), 5),
            (gen_gap_family(3), 3),
        ],
    )
    def test_known_sizes(self, g, expect):
        m = max_matching(g)
        assert is_matching(g, m)
        assert len(m) == expect

    def test_deterministic(self):
        g = gen_random(9, 0.5, 7)
        assert max_matching(g) == max_matching(g)

    @pytest.mark.parametrize("k", range(3, 12))
    def test_cycles(self, k):
        assert len(max_matching(gen_cycle(k))) == k // 2

    def test_never_exceeds_half_n(self):
        for i in range(50):
            g = gen_random(3 + i % 8, 0.6, i)
            assert len(max_matching(g)) <= g.n // 2


class TestBruteforceOracle:
    def test_hand_checked(self):
        assert len(max_matching_bruteforce(gen_cycle(5))) == 2
        assert len(max_matching_bruteforce(gen_complete(4))) == 2
        # 7-vertex spider: one center edge plus both outer edges
        assert len(max_matching_bruteforce(gen_gap_family(3))) == 3

    def test_ceiling(self):
        with pytest.raises(ValueError):
            max_matching_bruteforce(gen_complete(8))  # 28 edges
        assert BRUTEFORCE_MAX_EDGES == 24

    def test_agreement_exhaustive_small(self):
        for n in range(5):
            for g in enumerate_graphs(n):
                assert len(max_matching(g)) == len(max_matching_bruteforce(g))

    def test_agreement_against_networkx(self):
        for i in range(120):
            g = gen_random(4 + i % 7, 0.45, 2_000 + i)
            nxg = nx.Graph()
            nxg.add_nodes_from(range(g.n))
            nxg.add_edges_from(g.edges)
            expect = len(nx.max_weight_matching(nxg, maxcardinality=True))
            assert len(max_matching(g)) == expect


class TestMaximumMatchings:
    def test_p4(self):
        assert maximum_matchings(gen_path(3)) == [frozenset({(0, 1), (2, 3)})]

    def test_c4(self):
        found = set(maximum_matchings(gen_cycle(4)))
        assert found == {
            frozenset({(0, 1), (2, 3)}),
            frozenset({(1, 2), (0, 3)}),
        }

    def test_empty_graph(self):
        assert maximum_matchings(Graph(3, frozenset())) == [frozenset()]

    def test_all_are_maximum_and_distinct(self):
        for i in range(40):
            g = gen_random(5 + i % 4, 0.5, 4_000 + i)
            ms = maximum_matchings(g)
            nu = len(max_matching(g))
            assert len(set(ms)) == len(ms)
            assert all(len(m) == nu and is_matching(g, m) for m in ms)
            assert set(ms) == {m for m in all_matchings_by_filtering(g) if len(m) == nu}


    def test_order_matches_the_recursive_reference(self):
        # The lister builds from the last edge back; the reference recurses
        # take-then-skip.  Every graph with n <= 5 and the seeded corpora.
        corpus = [g for n in range(6) for g in enumerate_graphs(n)]
        corpus += [gen_random(5 + i % 4, 0.5, 4_000 + i) for i in range(40)]
        corpus += [gen_random(6, 0.4, 6_000 + i) for i in range(25)]
        corpus += [gen_random(6, 0.5, 7_000 + i) for i in range(15)]
        for g in corpus:
            edges = sorted(g.edges)
            assert _matchings(edges) == matchings_by_recursion(edges)
            nu = len(max_matching(g))
            expect = [_edge_set(edges, x) for x in matchings_by_recursion(edges, nu)]
            assert maximum_matchings(g) == expect


@settings(max_examples=150, deadline=None)
@given(graph_with_matchings())
def test_augmenting_path_contract(data):
    g, m, _ = data
    path = find_augmenting_path(g, m)
    nu = len(max_matching(g))
    if path is None:
        assert len(m) == nu  # Berge: no path certifies maximality
    else:
        vs = path.vertices
        assert len(set(vs)) == len(vs)
        assert path.length % 2 == 1
        covered = {v for e in m for v in e}
        assert vs[0] not in covered and vs[-1] not in covered
        for k, e in enumerate(path.edges()):
            assert e in g.edges
            assert (e in m) == (k % 2 == 1)
        bigger = augment(m, path)
        assert is_matching(g, bigger)
        assert len(bigger) == len(m) + 1


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_blossom_agrees_with_oracle(g):
    if g.m <= BRUTEFORCE_MAX_EDGES:
        assert len(max_matching(g)) == len(max_matching_bruteforce(g))


def test_berge_certificate_on_families():
    corpus = [
        petersen(),
        gen_tight_family(gen_cycle(4)),
        gen_gap_family(5),
        gen_complete(7),
    ] + [gen_random(8, 0.4, s) for s in range(30)]
    for g in corpus:
        assert find_augmenting_path(g, max_matching(g)) is None
