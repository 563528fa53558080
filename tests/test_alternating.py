from __future__ import annotations

import pytest
from hypothesis import given, settings

from twomatch import (
    CanonicalTriple,
    Graph,
    LEMMA_CHECKS,
    canonical_triple,
    canonical_triples,
    check_property_1,
    check_property_2,
    decompose,
    derive_artifacts,
    enumerate_graphs,
    enumerate_m2,
    gen_complete,
    gen_cycle,
    gen_gap_family,
    gen_path,
    gen_random,
    gen_tight_family,
    max_matching,
    verify_lemmas,
)

from conftest import check_property_3, check_property_4, graph_with_matchings, greedy_matching


class TestDecompose:
    def test_identical_matchings_all_shared(self):
        g = gen_path(3)
        d = decompose(g, {(0, 1)}, {(0, 1)})
        assert d.shared == frozenset({(0, 1)})
        assert d.components() == ()

    def test_p3_even_path(self):
        g = gen_path(2)
        d = decompose(g, {(0, 1)}, {(1, 2)})
        assert len(d.even_paths) == 1
        comp = d.even_paths[0]
        assert comp.edges == ((0, 1), (1, 2))
        assert comp.sides == ("A", "B")
        assert comp.vertices == (0, 1, 2)

    def test_p4_odd_path_started_by_a(self):
        g = gen_path(3)
        d = decompose(g, {(0, 1), (2, 3)}, {(1, 2)})
        assert len(d.odd_paths_a) == 1
        comp = d.odd_paths_a[0]
        assert comp.edges == ((0, 1), (1, 2), (2, 3))
        assert comp.start_side == "A"
        assert not d.odd_paths_b and not d.cycles and not d.even_paths

    def test_isolated_edge_is_odd_path_on_its_side(self):
        g = gen_path(3)
        d = decompose(g, {(0, 1)}, set())
        assert len(d.odd_paths_a) == 1
        assert d.odd_paths_a[0].edges == ((0, 1),)
        d = decompose(g, set(), {(0, 1)})
        assert len(d.odd_paths_b) == 1

    def test_cycle_component(self):
        g = gen_cycle(4)
        d = decompose(g, {(0, 1), (2, 3)}, {(1, 2), (0, 3)})
        assert len(d.cycles) == 1
        comp = d.cycles[0]
        assert comp.length == 4
        assert comp.vertices[0] == 0  # starts at smallest vertex
        assert comp.vertices[1] == 1  # oriented toward the smaller neighbor
        assert comp.start_side is None

    def test_invalid_matching_rejected(self):
        g = gen_path(3)
        with pytest.raises(ValueError, match="second matching"):
            decompose(g, set(), {(0, 1), (1, 2)})

    def test_component_order_by_smallest_vertex(self):
        g = Graph.from_edges(8, [(4, 5), (5, 6), (0, 1), (1, 2)])
        d = decompose(g, {(0, 1), (4, 5)}, {(1, 2), (5, 6)})
        assert [min(c.vertices) for c in d.components()] == [0, 4]


class TestPartitionInvariant:
    @settings(max_examples=200, deadline=None)
    @given(graph_with_matchings())
    def test_every_edge_once(self, data):
        g, a, b = data
        d = decompose(g, a, b)
        seen = set(d.shared)
        count = len(d.shared)
        for c in d.components():
            for e in c.edges:
                seen.add(e)
                count += 1
        assert seen == a | b
        assert count == len(a | b)

    @settings(max_examples=200, deadline=None)
    @given(graph_with_matchings())
    def test_components_alternate_and_are_maximal(self, data):
        g, a, b = data
        d = decompose(g, a, b)
        sym = (a - b) | (b - a)
        incident = {}
        for u, v in sym:
            incident.setdefault(u, []).append((u, v))
            incident.setdefault(v, []).append((u, v))
        for c in d.components():
            for s, t in zip(c.sides, c.sides[1:]):
                assert s != t
            if c.kind != "cycle":
                for endpoint in (c.vertices[0], c.vertices[-1]):
                    assert len(incident[endpoint]) == 1  # nothing to extend with

    @settings(max_examples=200, deadline=None)
    @given(graph_with_matchings())
    def test_property_1_and_2_hold(self, data):
        g, a, b = data
        d = decompose(g, a, b)
        assert check_property_1(d).ok
        assert check_property_2(a, b, d).ok


class TestPropertyCheckers:
    def test_property_1_p4_counts(self):
        g = gen_path(3)
        d = decompose(g, {(0, 1), (2, 3)}, {(1, 2)})
        assert check_property_1(d).ok
        comp = d.odd_paths_a[0]
        assert comp.side_count("A") == 2 and comp.side_count("B") == 1

    def test_property_1_vacuous_on_empty(self):
        d = decompose(gen_path(3), set(), set())
        assert check_property_1(d).ok

    def test_property_2_identity_cases(self):
        g = gen_path(3)
        a = {(0, 1), (2, 3)}
        d = decompose(g, a, {(1, 2)})
        assert check_property_2(a, {(1, 2)}, d).ok
        d0 = decompose(g, a, a)
        assert check_property_2(a, a, d0).ok

    def test_property_2_seeded_sweep(self):
        g = gen_random(10, 0.3, 7)
        for seed in range(1000):
            a = greedy_matching(g, 2 * seed)
            b = greedy_matching(g, 2 * seed + 1)
            assert check_property_2(a, b, decompose(g, a, b)).ok

    def test_property_3_trivial_and_p4(self):
        g = gen_path(3)
        m = max_matching(g)
        assert check_property_3(g, m, m).ok
        assert check_property_3(g, {(0, 1), (2, 3)}, {(1, 2)}).ok

    def test_property_3_rejects_non_maximum(self):
        g = gen_path(3)
        with pytest.raises(ValueError, match="not maximum"):
            check_property_3(g, {(1, 2)}, set())

    def test_property_3_seeded_sweep(self):
        for i in range(500):
            g = gen_random(4 + i % 6, 0.45, 11_000 + i)
            m = max_matching(g)
            h = greedy_matching(g, i)
            assert check_property_3(g, m, h).ok

    def test_property_4_on_m2_members(self):
        for i in range(20):
            g = gen_random(6, 0.4, 12_000 + i)
            if g.m > 14:
                continue
            for h, hp in enumerate_m2(g):
                assert check_property_4(g, h, hp).ok


class TestDeriveArtifacts:
    def test_tight_family_core_objects(self):
        g = gen_tight_family(gen_complete(2))
        t = canonical_triple(g)
        art = derive_artifacts(g, t)
        # one odd path (nu - alpha2 = 1), so two launched paths
        assert len(art.y_paths) == 2
        assert art.launch_count == 2
        assert len(art.h_a) >= 2
        assert all(c.length >= 4 for c in art.y_paths)
        assert art.h_y <= (frozenset(t.m) & frozenset(t.h))
        assert not art.defects

    def test_m_equals_h_degenerate(self):
        g = gen_cycle(4)
        t = canonical_triple(g)
        assert t.m == t.h
        art = derive_artifacts(g, t)
        assert art.m_a == art.h_a == frozenset()
        assert art.y_paths == ()

    def test_malformed_triple_rejected(self):
        g = gen_path(3)
        bad = CanonicalTriple(
            frozenset({(0, 1), (1, 2)}), frozenset(), frozenset({(0, 1)})
        )
        with pytest.raises(ValueError):
            derive_artifacts(g, bad)


class TestVerifyLemmas:
    def test_check_catalog_is_complete(self):
        g = gen_complete(2)
        rep = verify_lemmas(g, canonical_triple(g))
        assert list(rep.checks) == list(LEMMA_CHECKS)

    def test_tight_family_all_pass(self):
        g = gen_tight_family(gen_complete(2))
        rep = verify_lemmas(g, canonical_triple(g))
        assert rep.ok, rep.failures()

    def test_k2_degenerate_pass(self):
        g = gen_complete(2)
        rep = verify_lemmas(g, canonical_triple(g))
        assert rep.ok
        assert rep.artifacts.y_paths == ()

    def test_lemma4_degenerate_with_perfect_matching(self):
        # M == H makes the core empty; the smaller side is counted purely
        # by its own single-edge odd paths.
        g = gen_cycle(4)
        t = canonical_triple(g)
        rep = verify_lemmas(g, t)
        assert rep.ok
        assert len(t.h_prime) == 2

    def test_gap_family_all_maximizing_triples(self):
        g = gen_gap_family(2)
        for t in canonical_triples(g):
            rep = verify_lemmas(g, t)
            assert rep.ok, rep.failures()

    def test_exhaustive_n4_all_triples(self):
        for g in enumerate_graphs(4):
            for t in canonical_triples(g):
                rep = verify_lemmas(g, t)
                assert rep.ok, (g, t, rep.failures())

    def test_non_canonical_triple_fails_informatively(self):
        # A valid pair that is not overlap-maximizing: M disjoint from H
        # where overlap 2 is attainable, so the launched-path counts break.
        g = gen_path(3)
        t = CanonicalTriple(
            frozenset({(0, 1), (2, 3)}),
            frozenset({(1, 2)}),
            frozenset({(0, 1), (2, 3)}),
        )
        good = verify_lemmas(g, t)
        assert good.ok
        skewed = CanonicalTriple(
            frozenset({(1, 2)}),  # not even alpha2-sized: suite must flag it
            frozenset({(0, 1)}),
            frozenset({(0, 1), (2, 3)}),
        )
        rep = verify_lemmas(g, skewed)
        assert not rep.ok
        assert rep.failures()

    def test_m_not_maximum_rejected(self):
        g = gen_path(3)
        t = CanonicalTriple(frozenset({(1, 2)}), frozenset(), frozenset({(1, 2)}))
        with pytest.raises(ValueError, match="not a maximum"):
            verify_lemmas(g, t)

    def test_random_canonical_triples_pass(self):
        checked = 0
        for i in range(60):
            g = gen_random(5 + i % 4, 0.4, 13_000 + i)
            if g.m > 14:
                continue
            rep = verify_lemmas(g, canonical_triple(g))
            assert rep.ok, (g, rep.failures())
            checked += 1
        assert checked >= 40
