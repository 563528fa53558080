"""graph6 codec: the compact printable interchange format for small graphs.

Layout: a vertex-count header (one byte ``n + 63`` for ``n <= 62``, or
byte 126 followed by a big-endian 18-bit count split into three 6-bit
groups, each offset by 63), then the upper-triangle adjacency bits in
column order -- pair (i, j) with i < j, ordered by j then i -- packed six
per byte, zero-padded, every byte offset by 63.  The codec is strict:
non-canonical headers, nonzero padding, and trailing bytes are rejected,
so ``decode . encode`` and ``encode . decode`` are exact identities.
"""

from __future__ import annotations

from typing import Iterator

from .graph import MAX_VERTICES, Graph

__all__ = ["Graph6Error", "parse_graph6", "encode_graph6", "iter_graph6"]

_HEADER_PREFIX = ">>graph6<<"


class Graph6Error(ValueError):
    """Raised for bytes outside 63..126, truncated or overlong payloads,
    non-canonical headers, and vertex counts beyond the supported range."""


def _column_pairs(n: int) -> Iterator[tuple[int, int]]:
    for j in range(1, n):
        for i in range(j):
            yield i, j


def parse_graph6(text: str) -> Graph:
    """Decode a single graph6 line (an optional ``>>graph6<<`` prefix is
    stripped)."""
    line = text.strip()
    if line.startswith(_HEADER_PREFIX):
        line = line[len(_HEADER_PREFIX):]
    if not line:
        raise Graph6Error("empty graph6 input")
    values = []
    for ch in line:
        o = ord(ch)
        if o < 63 or o > 126:
            raise Graph6Error(f"byte {o} outside the graph6 range 63..126")
        values.append(o - 63)

    if values[0] < 63:
        n = values[0]
        pos = 1
    else:
        if len(values) < 4:
            raise Graph6Error("truncated long vertex-count header")
        if values[1] == 63:
            raise Graph6Error("vertex count beyond the supported range")
        n = (values[1] << 12) | (values[2] << 6) | values[3]
        if n <= 62:
            raise Graph6Error("non-canonical long header for a small vertex count")
        if n > MAX_VERTICES:
            raise Graph6Error(f"vertex count {n} beyond the supported range")
        pos = 4

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    payload = values[pos:]
    if len(payload) < nbytes:
        raise Graph6Error(
            f"truncated payload: expected {nbytes} bytes, got {len(payload)}"
        )
    if len(payload) > nbytes:
        raise Graph6Error("trailing bytes after the adjacency payload")

    edges = set()
    for idx, (i, j) in enumerate(_column_pairs(n)):
        if (payload[idx // 6] >> (5 - idx % 6)) & 1:
            edges.add((i, j))
    used = nbits % 6
    if used and payload and payload[-1] & ((1 << (6 - used)) - 1):
        raise Graph6Error("nonzero padding bits in the final payload byte")
    return Graph(n, frozenset(edges))


def encode_graph6(g: Graph) -> str:
    """Encode a graph as a single graph6 line (no trailing newline)."""
    n = g.n
    if n > MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} beyond the supported range")
    if n <= 62:
        head = chr(n + 63)
    else:
        head = chr(126) + chr(((n >> 12) & 63) + 63) + chr(((n >> 6) & 63) + 63) + chr(
            (n & 63) + 63
        )
    out = []
    acc = 0
    count = 0
    for i, j in _column_pairs(n):
        acc = (acc << 1) | ((i, j) in g.edges)
        count += 1
        if count == 6:
            out.append(chr(acc + 63))
            acc = 0
            count = 0
    if count:
        out.append(chr((acc << (6 - count)) + 63))
    return head + "".join(out)


def iter_graph6(text: str) -> Iterator[Graph]:
    """Decode one graph per non-blank line."""
    for line in text.splitlines():
        if line.strip():
            yield parse_graph6(line)
