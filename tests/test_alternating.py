from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings

from twomatch import alternating
from twomatch.alternating import (
    AlternatingComponent,
    Decomposition,
    Verdict,
    _property_3,
    check_property_1,
    check_property_2,
    decompose,
    derive_artifacts,
    verify_lemmas,
)
from twomatch.graph import (
    Graph,
    enumerate_graphs,
    gen_complete,
    gen_cycle,
    gen_gap_family,
    gen_path,
    gen_random,
    gen_tight_family,
)
from twomatch.matching import max_matching
from twomatch.pairs import CanonicalTriple, canonical_triple, canonical_triples, enumerate_m2
from conftest import check_property_3, check_property_4, graph_with_matchings, greedy_matching


def readme_check_ids() -> list[str]:
    """The check ids of README's check table, in its order: the rows under
    ``| id | statement |``."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    rows = lines[lines.index("| id | statement |") + 2:]
    ids = []
    for row in rows:
        if not row.startswith("| `"):
            break
        ids.append(row.split("`")[1])
    return ids


class TestDecompose:
    def test_identical_matchings_all_shared(self):
        g = gen_path(3)
        d = decompose(g, {(0, 1)}, {(0, 1)})
        assert d.shared == frozenset({(0, 1)})
        assert d.cycles + d.paths() == ()

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
        assert (comp.kind, comp.sides[0]) == ("odd_path", "A")
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
        assert comp.kind == "cycle"

    def test_invalid_matching_rejected(self):
        g = gen_path(3)
        with pytest.raises(ValueError, match="second matching"):
            decompose(g, set(), {(0, 1), (1, 2)})

    def test_component_order_by_smallest_vertex(self):
        g = Graph.from_edges(8, [(4, 5), (5, 6), (0, 1), (1, 2)])
        d = decompose(g, {(0, 1), (4, 5)}, {(1, 2), (5, 6)})
        assert [min(c.vertices) for c in d.cycles + d.paths()] == [0, 4]


class TestPartitionInvariant:
    @settings(max_examples=200, deadline=None)
    @given(graph_with_matchings())
    def test_every_edge_once(self, data):
        g, a, b = data
        d = decompose(g, a, b)
        seen = set(d.shared)
        count = len(d.shared)
        for c in d.cycles + d.paths():
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
        for c in d.cycles + d.paths():
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
        assert comp.sides.count("A") == 2 and comp.sides.count("B") == 1

    def test_failing_verdict_is_falsy(self):
        # A two-field tuple is truthy whatever it holds; the truth is ``ok``.
        assert not Verdict(False, "x")
        assert Verdict(True)

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
        assert 2 * len(decompose(g, t.m, t.h).odd_paths_a) - len(art.defects) == 2  # launches
        assert len(art.h_a) >= 2
        assert all(c.length >= 4 for c in art.y_paths)
        assert {c.edges[-1] for c in art.y_paths} <= (frozenset(t.m) & frozenset(t.h))
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
        rep = verify_lemmas(g, canonical_triple(g), len(max_matching(g)))
        assert list(rep.checks) == readme_check_ids()

    def test_each_matching_is_checked_by_its_decompositions(self, monkeypatch):
        # One run for each of m, h and h_prime, none besides.
        check = alternating.matching_violation
        runs = []

        def counted(g, s):
            runs.append(s)
            return check(g, s)

        monkeypatch.setattr(alternating, "matching_violation", counted)
        g = gen_tight_family(gen_complete(2))
        verify_lemmas(g, canonical_triple(g), len(max_matching(g)))
        assert len(runs) == 3

    def test_tight_family_all_pass(self):
        g = gen_tight_family(gen_complete(2))
        rep = verify_lemmas(g, canonical_triple(g), len(max_matching(g)))
        assert rep.ok, rep.failures()

    def test_k2_degenerate_pass(self):
        g = gen_complete(2)
        rep = verify_lemmas(g, canonical_triple(g), len(max_matching(g)))
        assert rep.ok
        assert rep.artifacts.y_paths == ()

    def test_lemma4_degenerate_with_perfect_matching(self):
        # M == H makes the core empty; the smaller side is counted purely
        # by its own single-edge odd paths.
        g = gen_cycle(4)
        t = canonical_triple(g)
        rep = verify_lemmas(g, t, 2)
        assert rep.ok
        assert len(t.h_prime) == 2

    def test_gap_family_all_maximizing_triples(self):
        g = gen_gap_family(2)
        for t in canonical_triples(g):
            rep = verify_lemmas(g, t, 2)
            assert rep.ok, rep.failures()

    def test_exhaustive_n4_all_triples(self):
        for g in enumerate_graphs(4):
            nu = len(max_matching(g))
            for t in canonical_triples(g):
                rep = verify_lemmas(g, t, nu)
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
        good = verify_lemmas(g, t, 2)
        assert good.ok
        skewed = CanonicalTriple(
            frozenset({(1, 2)}),  # not even alpha2-sized: suite must flag it
            frozenset({(0, 1)}),
            frozenset({(0, 1), (2, 3)}),
        )
        rep = verify_lemmas(g, skewed, 2)
        assert not rep.ok
        assert rep.failures()

    def test_m_not_maximum_rejected(self):
        g = gen_path(3)
        t = CanonicalTriple(frozenset({(1, 2)}), frozenset(), frozenset({(1, 2)}))
        with pytest.raises(ValueError, match="not a maximum"):
            verify_lemmas(g, t, 2)

    def test_nu_above_a_maximum_m_rejected(self):
        g = gen_path(3)
        t = CanonicalTriple(frozenset({(0, 1), (2, 3)}), frozenset({(1, 2)}), frozenset({(0, 1), (2, 3)}))
        assert verify_lemmas(g, t, 2).ok
        with pytest.raises(ValueError, match="not a maximum"):
            verify_lemmas(g, t, 3)

    def test_random_canonical_triples_pass(self):
        checked = 0
        for i in range(60):
            g = gen_random(5 + i % 4, 0.4, 13_000 + i)
            if g.m > 14:
                continue
            rep = verify_lemmas(g, canonical_triple(g), len(max_matching(g)))
            assert rep.ok, (g, rep.failures())
            checked += 1
        assert checked >= 40


K2 = [(0, 1)]
P3 = [(0, 1), (1, 2)]
C4 = [(0, 1), (1, 2), (2, 3), (0, 3)]

#: (edges, m, h, h_prime, check, detail): a triple with a maximum matching
#: m and edge-disjoint sides on which ``check`` fails, saying why.
FAILING_CHECKS = [
    (K2, K2, [], K2, "p4_optimal_pair_paths", "odd path starting in the smaller side: ((0, 1),)"),
    (P3, [(0, 1)], [(1, 2)], [], "l1_only_odd_m_paths", "even path ((0, 1), (1, 2))"),
    (C4, [(0, 3), (1, 2)], [(0, 1), (2, 3)], [], "l1_only_odd_m_paths",
     "cycle ((0, 1), (1, 2), (2, 3), (0, 3))"),
    (P3, [(0, 1)], [(1, 2)], [], "c1_shared_complement", "shared [] vs [(0, 1)] and [(1, 2)]"),
    (K2, K2, [], [], "l2_two_smaller_side_neighbors", "edge (0, 1) meets 0 smaller-side edges"),
    (K2, K2, [], [], "l3_core_odd_paths_only", "odd path ((0, 1),) starting in the core"),
    (P3, [(1, 2)], [], [(0, 1)], "l3_core_odd_paths_only", "even path ((0, 1), (1, 2))"),
    (C4, [(0, 1), (2, 3)], [], [(0, 3), (1, 2)], "l3_core_odd_paths_only",
     "cycle ((0, 1), (1, 2), (2, 3), (0, 3))"),
    (K2, K2, [], [], "l4_smaller_side_size_identity", "0 != 1"),
    (K2, K2, [], [], "l5_long_paths_end_edges",
     "odd path ((0, 1),) has length 1 < 5; "
     "odd path ((0, 1),) has an end-edge outside the smaller side"),
    (K2, K2, [], [], "c2_h_edges_bound", "0 < 2"),
    (K2, K2, [], [], "c3_path_vertices_covered",
     "vertex 0 of path ((0, 1),) meets no smaller-side edge; "
     "vertex 1 of path ((0, 1),) meets no smaller-side edge"),
    (K2, K2, [], [], "l6a_launched_paths",
     "end-edge (0, 1) of odd path ((0, 1),) outside the smaller side; "
     "end-edge (0, 1) of odd path ((0, 1),) outside the smaller side; "
     "0 launches for 1 odd paths; 0 distinct launched paths, expected 2"),
    (K2, K2, [], K2, "l6a_launched_paths",
     "1 distinct launched paths, expected 2; launched path ((0, 1),) has odd length; "
     "launched path ((0, 1),) has length 1 < 4; launched last edges [(0, 1)] not shared"),
    (K2, K2, [], [], "l6b_odd_core_bound", "0 < 1"),
    (K2, K2, [], [], "r1_ratio_chain", "twice launched count 0 != four gaps 4"),
    (K2, K2, [], K2, "r1_ratio_chain",
     "larger side 0 < smaller side 1; smaller side 1 < twice launched count 2; "
     "twice launched count 2 != four gaps 4"),
]


def component(kind: str, vertices: tuple, sides: str) -> AlternatingComponent:
    """A hand-built component walking ``vertices``; ``sides`` spells the
    side of each edge, one letter each."""
    walk = vertices + vertices[:1] if kind == "cycle" else vertices
    edges = tuple((min(u, v), max(u, v)) for u, v in zip(walk, walk[1:]))
    return AlternatingComponent(kind, vertices, edges, tuple(sides))


def decomposition(cycles=(), even_paths=(), odd_paths_a=(), odd_paths_b=()) -> Decomposition:
    """A hand-built decomposition with no shared edge."""
    parts = (cycles, even_paths, odd_paths_a, odd_paths_b)
    return Decomposition(frozenset(), *map(tuple, parts))


class TestEveryCheckCanFail:
    @pytest.mark.parametrize("edges, m, h, h_prime, name, detail", FAILING_CHECKS)
    def test_detail_names_the_witness(self, edges, m, h, h_prime, name, detail):
        g = Graph.from_edges(max(v for e in edges for v in e) + 1, edges)
        t = CanonicalTriple(frozenset(h), frozenset(h_prime), frozenset(m))
        check = verify_lemmas(g, t, len(max_matching(g))).checks[name]
        assert (check.ok, check.detail) == (False, detail)

    def test_every_check_past_p3_is_in_the_table(self):
        assert {row[4] for row in FAILING_CHECKS} == set(readme_check_ids()[3:])

    @pytest.mark.parametrize(
        "d, detail",
        [
            (decomposition(cycles=[component("cycle", (0, 1, 2, 3), "AABA")]),
             "cycle ((0, 1), (1, 2), (2, 3), (0, 3)) has unbalanced sides"),
            (decomposition(even_paths=[component("even_path", (0, 1, 2), "AA")]),
             "even_path ((0, 1), (1, 2)) has unbalanced sides"),
            (decomposition(odd_paths_a=[component("odd_path", (0, 1, 2, 3), "ABB")]),
             "odd path ((0, 1), (1, 2), (2, 3)) lacks the one-edge A surplus"),
            (decomposition(odd_paths_b=[component("odd_path", (0, 1, 2, 3), "BAA")]),
             "odd path ((0, 1), (1, 2), (2, 3)) lacks the one-edge B surplus"),
        ],
    )
    def test_property_1(self, d, detail):
        assert check_property_1(d) == (False, detail)

    def test_property_1_joins_every_witness(self):
        d = decomposition(
            even_paths=[component("even_path", (0, 1, 2), "AA")],
            odd_paths_b=[component("odd_path", (4, 5), "A")],
        )
        assert check_property_1(d).detail == (
            "even_path ((0, 1), (1, 2)) has unbalanced sides; "
            "odd path ((4, 5),) lacks the one-edge B surplus"
        )

    def test_property_2(self):
        assert check_property_2({(0, 1)}, set(), decomposition()) == (False, "size difference 1 != 0")

    def test_property_3(self):
        opposite = decomposition(odd_paths_b=[component("odd_path", (0, 1), "B")])
        assert _property_3(0, opposite) == (False, "odd path starting opposite: ((0, 1),)")
        assert _property_3(1, decomposition()) == (False, "gap 1 != 0 odd paths")

    def test_sides_that_share_an_edge_are_refused(self):
        t = CanonicalTriple(frozenset(K2), frozenset(K2), frozenset(K2))
        with pytest.raises(ValueError, match="triple sides are not edge-disjoint"):
            verify_lemmas(gen_complete(2), t, 1)
