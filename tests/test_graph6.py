from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twomatch import (
    MAX_VERTICES,
    Graph,
    Graph6Error,
    encode_graph6,
    enumerate_graphs,
    gen_random,
    iter_graph6,
    parse_graph6,
)


def to_networkx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges)
    return out


class TestDecode:
    def test_single_vertex(self):
        assert parse_graph6("@") == Graph(1, frozenset())

    def test_single_edge(self):
        # payload '_' = 32 = 0b100000: the lone upper-triangle bit is set
        assert parse_graph6("A_") == Graph(2, frozenset({(0, 1)}))

    def test_five_vertex_star(self):
        # 'D' = 5 vertices; bits 0000001111 are the column-order pairs
        # (0,4), (1,4), (2,4), (3,4) -- cross-checked against networkx below
        g = parse_graph6("D?{")
        assert g.n == 5
        assert sorted(g.edges) == [(0, 4), (1, 4), (2, 4), (3, 4)]
        assert encode_graph6(g) == "D?{"

    def test_empty_graph(self):
        assert parse_graph6("?") == Graph(0, frozenset())

    def test_header_prefix_stripped(self):
        assert parse_graph6(">>graph6<<A_") == Graph(2, frozenset({(0, 1)}))


class TestErrors:
    def test_byte_out_of_range(self):
        with pytest.raises(Graph6Error, match="outside"):
            parse_graph6("A" + chr(33))

    def test_truncated_payload(self):
        with pytest.raises(Graph6Error, match="truncated"):
            parse_graph6("D?")

    def test_trailing_bytes(self):
        with pytest.raises(Graph6Error, match="trailing"):
            parse_graph6("A_?")

    def test_nonzero_padding(self):
        with pytest.raises(Graph6Error, match="padding"):
            parse_graph6("Aw")

    def test_n_too_large_encode(self):
        with pytest.raises(Graph6Error, match="supported range"):
            encode_graph6(Graph(MAX_VERTICES + 1, frozenset()))

    def test_long_form_marker_rejected(self):
        with pytest.raises(Graph6Error, match="supported range"):
            parse_graph6("~~?????")

    def test_non_canonical_long_header(self):
        with pytest.raises(Graph6Error, match="non-canonical"):
            parse_graph6("~??B")

    def test_empty_input(self):
        with pytest.raises(Graph6Error, match="empty"):
            parse_graph6("   ")


class TestRoundTrip:
    def test_exhaustive_small(self):
        for n in range(5):
            for g in enumerate_graphs(n):
                assert parse_graph6(encode_graph6(g)) == g

    @given(st.integers(0, 10**6), st.integers(0, 40), st.sampled_from([0.1, 0.5, 0.9]))
    def test_encode_decode_identity(self, seed, n, p):
        g = gen_random(n, p, seed)
        assert parse_graph6(encode_graph6(g)) == g

    def test_long_header_boundary(self):
        for n in (62, 63, 64, 100):
            g = gen_random(n, 0.05, n)
            s = encode_graph6(g)
            assert parse_graph6(s) == g

    def test_iter_graph6(self):
        gs = [gen_random(k, 0.4, k) for k in (3, 5, 8)]
        text = "\n".join(encode_graph6(g) for g in gs) + "\n\n"
        assert list(iter_graph6(text)) == gs


class TestAgainstReferenceCodec:
    """networkx is the independent reference decoder/encoder."""

    @pytest.mark.parametrize("seed", range(60))
    def test_both_directions(self, seed):
        n = (seed * 7) % 23
        g = gen_random(n, 0.15 + 0.6 * ((seed % 5) / 5), 9000 + seed)
        ours = encode_graph6(g)
        theirs = nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
        assert ours == theirs
        back = nx.from_graph6_bytes(ours.encode())
        assert {tuple(sorted(e)) for e in back.edges} == set(g.edges)
        assert back.number_of_nodes() == g.n
        assert parse_graph6(theirs) == g

    def test_reference_long_header(self):
        g = gen_random(70, 0.1, 4)
        theirs = nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
        assert encode_graph6(g) == theirs
        assert parse_graph6(theirs) == g
