from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twomatch.graph import (
    ENUMERATION_MAX_VERTICES,
    MAX_VERTICES,
    EdgeListError,
    Graph,
    edge,
    enumerate_graphs,
    gen_complete,
    gen_cycle,
    gen_gap_family,
    gen_path,
    gen_random,
    gen_tight_family,
    parse_edge_list,
    to_edge_list,
)
from twomatch.graph6 import Graph6Error, parse_graph6


class TestGraphType:
    def test_canonical_edges_required(self):
        with pytest.raises(ValueError):
            Graph(3, frozenset({(2, 1)}))

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, frozenset({(1, 1)}))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, frozenset({(0, 3)}))
        with pytest.raises(ValueError):
            Graph(3, frozenset({(-1, 2)}))

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            Graph(-1, frozenset())

    def test_edge_collection_becomes_a_frozenset(self):
        for edges in ({(0, 1), (1, 2)}, [(1, 2), (0, 1)], iter([(0, 1), (1, 2)])):
            g = Graph(3, edges)
            assert type(g.edges) is frozenset
            assert g == Graph(n=3, edges=frozenset({(0, 1), (1, 2)}))
        with pytest.raises(ValueError):
            Graph(3, {(0, 1), (2, 2)})

    def test_repr_names_the_fields(self):
        assert repr(Graph(2, {(0, 1)})) == "Graph(n=2, edges=frozenset({(0, 1)}))"

    def test_make_and_replace_run_the_checks(self):
        g = Graph(3, {(0, 1)})
        assert g._replace(edges=[(1, 2)]) == Graph(3, frozenset({(1, 2)}))
        assert type(Graph._make((3, [(0, 2)])).edges) is frozenset
        with pytest.raises(ValueError, match="out of range"):
            g._replace(n=1)
        with pytest.raises(ValueError, match="canonical order"):
            Graph._make((3, {(2, 0)}))

    def test_from_edges_canonicalizes(self):
        g = Graph.from_edges(4, [(3, 1), (0, 2)])
        assert g.edges == frozenset({(1, 3), (0, 2)})

    def test_edge_helper(self):
        assert edge(5, 2) == (2, 5)
        with pytest.raises(ValueError):
            edge(1, 1)

    def test_adjacency_sorted(self):
        g = Graph.from_edges(4, [(0, 3), (0, 1), (1, 3)])
        assert g.adjacency() == [[1, 3], [0, 3], [], [0, 1]]


class TestParseEdgeList:
    def test_basic(self):
        g = parse_edge_list("0 1\n1 2")
        assert g == Graph(3, frozenset({(0, 1), (1, 2)}))

    def test_declared_count(self):
        g = parse_edge_list("n 4\n0 1\n2 3")
        assert g == Graph(4, frozenset({(0, 1), (2, 3)}))

    def test_loop_rejected(self):
        with pytest.raises(EdgeListError) as exc:
            parse_edge_list("0 0")
        assert exc.value.line == 1

    def test_comments_and_blanks(self):
        g = parse_edge_list("# header\n\nn 3  # count\n0 1\n\n# done\n")
        assert g == Graph(3, frozenset({(0, 1)}))

    def test_duplicate_rejected_with_line(self):
        with pytest.raises(EdgeListError) as exc:
            parse_edge_list("0 1\n1 0")
        assert exc.value.line == 2

    def test_endpoint_beyond_declared(self):
        with pytest.raises(EdgeListError) as exc:
            parse_edge_list("n 2\n0 5")
        assert exc.value.line == 2

    def test_vertex_ceiling(self):
        # The graph6 ceiling: edge lists take no more vertices than graph6.
        with pytest.raises(Graph6Error, match="supported range"):
            parse_graph6("~~??")  # the header of MAX_VERTICES + 1
        with pytest.raises(EdgeListError, match="ceiling"):
            parse_edge_list(f"n {MAX_VERTICES + 1}")
        assert parse_edge_list(f"n {MAX_VERTICES}").n == MAX_VERTICES
        assert parse_edge_list(f"0 {MAX_VERTICES - 1}").n == MAX_VERTICES
        for text in (f"n {MAX_VERTICES + 1}", f"0 1\n0 {MAX_VERTICES}"):
            with pytest.raises(EdgeListError, match="ceiling") as exc:
                parse_edge_list(text)
            assert exc.value.line == text.count("\n") + 1

    def test_malformed_token(self):
        with pytest.raises(EdgeListError) as exc:
            parse_edge_list("0 1\n2 x")
        assert exc.value.line == 2

    def test_wrong_token_count(self):
        with pytest.raises(EdgeListError):
            parse_edge_list("0 1 2")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n", "expected 'n <count>'"),
            ("n x", "bad vertex count 'x'"),
            ("n -3", "vertex count must be non-negative"),
        ],
    )
    def test_bad_header(self, text, message):
        with pytest.raises(EdgeListError) as exc:
            parse_edge_list(text)
        assert (exc.value.line, str(exc.value)) == (1, f"line 1: {message}")

    def test_negative_vertex(self):
        with pytest.raises(EdgeListError):
            parse_edge_list("-1 2")

    def test_late_header_rejected(self):
        with pytest.raises(EdgeListError):
            parse_edge_list("0 1\nn 5")

    def test_empty_text_is_empty_graph(self):
        assert parse_edge_list("") == Graph(0, frozenset())

    def test_roundtrip_preserves_isolated_vertices(self):
        g = Graph(6, frozenset({(0, 1)}))
        assert parse_edge_list(to_edge_list(g)) == g


class TestGenerators:
    def test_path(self):
        g = gen_path(3)
        assert g.n == 4
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3)})
        assert gen_path(0) == Graph(1, frozenset())

    def test_cycle(self):
        g = gen_cycle(3)
        assert g.edges == frozenset({(0, 1), (1, 2), (0, 2)})
        with pytest.raises(ValueError):
            gen_cycle(2)

    def test_complete(self):
        assert gen_complete(4).m == 6
        assert gen_complete(0) == Graph(0, frozenset())

    def test_random_extremes(self):
        assert gen_random(5, 0.0, 3).m == 0
        assert gen_random(5, 1.0, 3) == gen_complete(5)

    def test_random_deterministic(self):
        assert gen_random(8, 0.4, 42) == gen_random(8, 0.4, 42)

    def test_random_golden(self):
        # Pins the documented MT19937 draw order; platform drift would show here.
        g = gen_random(6, 0.5, 12345)
        assert sorted(g.edges) == [
            (0, 1), (0, 2), (0, 4), (0, 5), (1, 2),
            (1, 4), (1, 5), (2, 3), (2, 5), (3, 5),
        ]

    def test_random_passes_the_checks_it_skips(self):
        # gen_random builds its graph unchecked; the checked constructor
        # must accept the same edges and give an equal graph.
        for n in (0, 1, 12):
            for seed in range(500):
                g = gen_random(n, 0.5, seed)
                assert type(g) is Graph and type(g.edges) is frozenset
                assert g == Graph(n, g.edges)
        for bad in ({(1, 1)}, {(0, 3)}, {(2, 1)}):
            with pytest.raises(ValueError):
                Graph(3, frozenset(bad))

    def test_random_bad_probability(self):
        with pytest.raises(ValueError):
            gen_random(5, 1.5, 0)
        with pytest.raises(ValueError):
            gen_random(5, -0.1, 0)


class TestTightFamily:
    def test_counts_over_k2(self):
        g = gen_tight_family(gen_complete(2))
        assert g.n == 10
        assert g.m == 9

    @pytest.mark.parametrize("base", [gen_complete(2), gen_cycle(4), gen_complete(4), gen_cycle(6)])
    def test_counts_general(self, base):
        g = gen_tight_family(base)
        assert g.n == 5 * base.n
        assert g.m == base.m + 4 * base.n

    def test_deterministic_block_labels(self):
        g = gen_tight_family(gen_complete(2))
        # vertex 0's pendant paths occupy the first appended block
        assert {(0, 2), (2, 3), (0, 4), (4, 5)} <= g.edges

    @pytest.mark.parametrize("base", [gen_path(2), gen_cycle(3), gen_cycle(5), Graph(3, frozenset())])
    def test_no_perfect_matching_rejected(self, base):
        with pytest.raises(ValueError):
            gen_tight_family(base)


class TestGapFamily:
    @pytest.mark.parametrize("k", range(2, 8))
    def test_counts(self, k):
        g = gen_gap_family(k)
        assert g.n == 2 * k + 1
        assert g.m == 2 * k

    def test_shape(self):
        g = gen_gap_family(2)
        assert g.edges == frozenset({(0, 1), (0, 2), (0, 3), (3, 4)})

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            gen_gap_family(1)


class TestEnumerate:
    @pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 8), (5, 1024)])
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_graphs(n)) == count

    def test_no_duplicates(self):
        seen = {g.edges for g in enumerate_graphs(4)}
        assert len(seen) == 64

    def test_bitstring_order(self):
        first = list(enumerate_graphs(3))[:3]
        assert first[0].edges == frozenset()
        assert first[1].edges == frozenset({(1, 2)})  # last pair is least significant
        assert first[2].edges == frozenset({(0, 2)})

    def test_ceiling(self):
        with pytest.raises(ValueError):
            next(enumerate_graphs(ENUMERATION_MAX_VERTICES + 1))


@given(st.integers(0, 10**6), st.integers(2, 9), st.sampled_from([0.1, 0.3, 0.5, 0.9]))
def test_gen_random_within_model(seed, n, p):
    g = gen_random(n, p, seed)
    assert g.n == n
    for u, v in g.edges:
        assert 0 <= u < v < n

