"""Alternating structure of pairs of matchings, and the lemma suite.

Two matchings A and B of one graph induce a symmetric-difference subgraph
in which every vertex meets at most one edge of A-only and one of B-only,
so the components are vertex-disjoint paths and even cycles whose edges
strictly alternate sides.  Shared edges stand apart: their endpoints are
isolated in the difference.  Each path component is automatically a
maximal alternating path (its end vertices have no unused opposite edge),
which makes the decomposition here the literal object the checkers below
reason about.

The checkers are exact integer assertions -- no tolerances -- about the
structure of a canonical triple (optimal pair plus overlap-maximizing
maximum matching).  Together they force the ratio bound: the maximum
matching can exceed the larger side of an optimal pair by at most a
quarter of that side.  Each checker returns a verdict carrying a concrete
witness on failure; failures are data, not exceptions.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .graph import Edge, Graph, _paths_and_cycles
from .matching import matching_violation, max_matching
from .pairs import CanonicalTriple

__all__ = [
    "AlternatingComponent",
    "Decomposition",
    "TripleArtifacts",
    "Verdict",
    "LemmaReport",
    "decompose",
    "check_property_1",
    "check_property_2",
    "derive_artifacts",
    "verify_lemmas",
    "LEMMA_CHECKS",
]


class AlternatingComponent(NamedTuple):
    """One path or even cycle of the symmetric difference of two matchings.

    ``edges`` is the walk order; ``sides[i]`` says which matching owns
    ``edges[i]`` ("A" for the first argument of decompose, "B" for the
    second).  For a path ``vertices`` has one more entry than ``edges``;
    for a cycle both have equal length and the walk closes back to
    ``vertices[0]``.
    """

    kind: str  # "cycle" | "even_path" | "odd_path"
    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]
    sides: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.edges)

    @property
    def start_side(self) -> str | None:
        """Majority side for odd paths, first traversed side otherwise;
        ``None`` for cycles."""
        if self.kind == "cycle":
            return None
        return self.sides[0]

    def side_count(self, side: str) -> int:
        return self.sides.count(side)


class Decomposition(NamedTuple):
    """Classification of two matchings' union: shared edges plus the
    alternating cycles, even paths, and odd paths by starting side."""

    shared: frozenset[Edge]
    cycles: tuple[AlternatingComponent, ...]
    even_paths: tuple[AlternatingComponent, ...]
    odd_paths_a: tuple[AlternatingComponent, ...]
    odd_paths_b: tuple[AlternatingComponent, ...]

    def components(self) -> tuple[AlternatingComponent, ...]:
        return self.cycles + self.even_paths + self.odd_paths_a + self.odd_paths_b

    def paths(self) -> tuple[AlternatingComponent, ...]:
        return self.even_paths + self.odd_paths_a + self.odd_paths_b


def _difference(a: frozenset[Edge], b: frozenset[Edge]) -> dict[Edge, str]:
    """The side, "A" or "B", of each edge in just one of ``a`` and ``b``."""
    side_of = dict.fromkeys(a - b, "A")
    side_of.update(dict.fromkeys(b - a, "B"))
    return side_of


def _component(walk: list[int], side_of: dict[Edge, str]) -> AlternatingComponent:
    """The component that ``walk`` (from ``_paths_and_cycles``) traces."""
    edges = tuple((u, v) if u < v else (v, u) for u, v in zip(walk, walk[1:]))
    sides = tuple(side_of[e] for e in edges)
    if walk[0] == walk[-1]:
        return AlternatingComponent("cycle", tuple(walk[:-1]), edges, sides)
    kind = "odd_path" if len(edges) % 2 else "even_path"
    return AlternatingComponent(kind, tuple(walk), edges, sides)


def decompose(g: Graph, a: Iterable[Edge], b: Iterable[Edge]) -> Decomposition:
    """Decompose two matchings of ``g`` into shared edges and alternating
    components, deterministically ordered by smallest component vertex.

    Paths are traversed from their smallest-indexed endpoint; cycles from
    their smallest vertex toward its smaller neighbor.  Raises
    ``ValueError`` if either input is not a matching of ``g``.
    """
    a = frozenset(a)
    b = frozenset(b)
    for name, s in (("first", a), ("second", b)):
        reason = matching_violation(g, s)
        if reason is not None:
            raise ValueError(f"{name} matching invalid: {reason}")
    side_of = _difference(a, b)
    comps = [_component(walk, side_of) for walk in _paths_and_cycles(side_of)]
    comps.sort(key=lambda c: min(c.vertices))

    cycles = tuple(c for c in comps if c.kind == "cycle")
    evens = tuple(c for c in comps if c.kind == "even_path")
    odds_a = tuple(c for c in comps if c.kind == "odd_path" and c.sides[0] == "A")
    odds_b = tuple(c for c in comps if c.kind == "odd_path" and c.sides[0] == "B")
    return Decomposition(a & b, cycles, evens, odds_a, odds_b)


class Verdict(NamedTuple):
    """Outcome of one exact check; ``detail`` names a witness on failure."""

    ok: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def check_property_1(d: Decomposition) -> Verdict:
    """Cycles and even paths carry both sides equally; an odd path's
    starting side exceeds the other by exactly one."""
    bad: list[str] = []
    for c in d.cycles + d.even_paths:
        if c.side_count("A") != c.side_count("B"):
            bad.append(f"{c.kind} {c.edges} has unbalanced sides")
    for c in d.odd_paths_a:
        if c.side_count("A") != c.side_count("B") + 1:
            bad.append(f"odd path {c.edges} lacks the one-edge A surplus")
    for c in d.odd_paths_b:
        if c.side_count("B") != c.side_count("A") + 1:
            bad.append(f"odd path {c.edges} lacks the one-edge B surplus")
    return Verdict(not bad, "; ".join(bad))


def check_property_2(a: Iterable[Edge], b: Iterable[Edge], d: Decomposition) -> Verdict:
    """|A| - |B| equals the count of A-started odd paths minus B-started."""
    a, b = frozenset(a), frozenset(b)
    lhs = len(a) - len(b)
    rhs = len(d.odd_paths_a) - len(d.odd_paths_b)
    return Verdict(lhs == rhs, "" if lhs == rhs else f"size difference {lhs} != {rhs}")


def _property_3(gap: int, d: Decomposition) -> Verdict:
    """Against a maximum matching A no odd path starts on the other side,
    and the size gap |A| - |B| equals the number of odd A-started paths."""
    if d.odd_paths_b:
        return Verdict(False, f"odd path starting opposite: {d.odd_paths_b[0].edges}")
    if gap != len(d.odd_paths_a):
        return Verdict(False, f"gap {gap} != {len(d.odd_paths_a)} odd paths")
    return Verdict(True)


def _property_4(d: Decomposition) -> Verdict:
    """For an optimal pair (A, B), no odd path starts from the smaller
    side B.  Meaningful only when the pair attains both pair optima."""
    if d.odd_paths_b:
        return Verdict(False, f"odd path starting in the smaller side: {d.odd_paths_b[0].edges}")
    return Verdict(True)


class TripleArtifacts(NamedTuple):
    """Derived objects of a canonical triple.

    ``m_a`` / ``h_a``: edges of the maximum matching / larger side lying
    on the odd maximum-side paths of their decomposition.  ``y_paths``:
    for each end-edge of each such odd path, the maximal (h, h_prime)
    alternating path launched from the path's outer endpoint (duplicates
    collapsed).  ``h_y``: the last edges of those launched paths.
    ``launch_count`` is the number of launch attempts that succeeded;
    ``defects`` records structural anomalies (end-edge outside the
    smaller side, launch vertex not free), which on a genuine canonical
    triple never occur and otherwise surface as lemma failures.
    """

    m_a: frozenset[Edge]
    h_a: frozenset[Edge]
    y_paths: tuple[AlternatingComponent, ...]
    h_y: frozenset[Edge]
    launch_count: int
    defects: tuple[str, ...] = ()


def _triple_sets(
    g: Graph, t: CanonicalTriple
) -> tuple[frozenset[Edge], frozenset[Edge], frozenset[Edge]]:
    """(m, h, h_prime) of ``t`` as frozensets, each checked to be a
    matching of ``g``, and the two sides checked to be edge-disjoint."""
    m, h, hp = frozenset(t.m), frozenset(t.h), frozenset(t.h_prime)
    for name, s in (("m", m), ("h", h), ("h_prime", hp)):
        reason = matching_violation(g, s)
        if reason is not None:
            raise ValueError(f"triple component {name} invalid: {reason}")
    if h & hp:
        raise ValueError("triple sides are not edge-disjoint")
    return m, h, hp


def derive_artifacts(g: Graph, t: CanonicalTriple) -> TripleArtifacts:
    """Build the odd-path edge sets and launched-path family for ``t``."""
    m, h, hp = _triple_sets(g, t)
    return _artifacts(h, hp, decompose(g, m, h))


def _artifacts(
    h: frozenset[Edge], hp: frozenset[Edge], d_mh: Decomposition
) -> TripleArtifacts:
    """``derive_artifacts`` of a checked triple, given the decomposition of
    its (m, h)."""
    odd_m = d_mh.odd_paths_a
    m_a = frozenset(e for c in odd_m for e, s in zip(c.edges, c.sides) if s == "A")
    h_a = frozenset(e for c in odd_m for e, s in zip(c.edges, c.sides) if s == "B")

    if not odd_m:  # nothing to launch from
        return TripleArtifacts(m_a, h_a, (), frozenset(), 0)

    # Each path of the pair difference, keyed by either end and walked
    # from it.
    side_of = _difference(h, hp)
    from_end: dict[int, list[int]] = {}
    for walk in _paths_and_cycles(side_of):
        if walk[0] != walk[-1]:
            from_end[walk[0]] = walk
            from_end[walk[-1]] = walk[::-1]
    defects: list[str] = []
    launched: list[AlternatingComponent] = []
    seen: set[frozenset[Edge]] = set()
    launches = 0
    for path in odd_m:
        ends = [(path.vertices[0], path.edges[0]), (path.vertices[-1], path.edges[-1])]
        for vertex, end_edge in ends:
            if end_edge not in hp:
                defects.append(
                    f"end-edge {end_edge} of odd path {path.edges} outside the smaller side"
                )
                continue
            if vertex not in from_end:
                defects.append(
                    f"launch vertex {vertex} is not a path endpoint in the pair difference"
                )
                continue
            comp = _component(from_end[vertex], side_of)
            launches += 1
            key = frozenset(comp.edges)
            if key not in seen:
                seen.add(key)
                launched.append(comp)
    h_y = frozenset(c.edges[-1] for c in launched)
    return TripleArtifacts(m_a, h_a, tuple(launched), h_y, launches, tuple(defects))


class LemmaReport(NamedTuple):
    """Per-check verdicts for one triple, plus the derived artifacts."""

    checks: dict[str, Verdict]
    artifacts: TripleArtifacts

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.checks.values())

    def failures(self) -> list[str]:
        return [name for name, v in self.checks.items() if not v.ok]


#: Check identifiers in report order, with one-line statements.
LEMMA_CHECKS: dict[str, str] = {
    "p1_component_balance": "per-component side counts balance (odd paths tip by one)",
    "p2_count_identity": "size difference equals odd-path count difference",
    "p3_max_matching_paths": "no odd path starts opposite a maximum matching",
    "p4_optimal_pair_paths": "no odd path starts in the smaller side of the pair",
    "l1_only_odd_m_paths": "max-vs-larger-side difference is odd max-started paths only",
    "c1_shared_complement": "shared edges are exactly both sides minus their odd-path edges",
    "l2_two_smaller_side_neighbors": "every uncovered odd-path max edge meets two smaller-side edges",
    "l3_core_odd_paths_only": "core-vs-smaller-side difference has only smaller-started odd paths",
    "l4_smaller_side_size_identity": "smaller side counts its odd paths plus larger-side odd-path edges plus the gap",
    "l5_long_paths_end_edges": "odd paths have length five or more and both end-edges in the smaller side",
    "c2_h_edges_bound": "larger-side odd-path edges number at least twice the gap",
    "c3_path_vertices_covered": "every odd-path vertex meets a smaller-side edge",
    "l6a_launched_paths": "launched paths: twice the gap of them, even, length four or more, last edges shared",
    "l6b_odd_core_bound": "smaller-started odd core paths number at least the gap",
    "r1_ratio_chain": "larger side bounds smaller side bounds twice the launched count equals four gaps",
}


def verify_lemmas(g: Graph, t: CanonicalTriple) -> LemmaReport:
    """Evaluate every structural fact on a canonical triple exactly.

    Trusts that ``t`` came from the canonical-triple search; on other
    inputs the verdicts describe that input, nothing more.  Raises
    ``ValueError`` for structurally malformed triples (sides not
    matchings, not disjoint, or ``m`` not maximum).
    """
    m, h, hp = _triple_sets(g, t)
    if len(m) != len(max_matching(g)):
        raise ValueError("triple component m is not a maximum matching")

    nu = len(m)
    alpha = len(h)
    gap = nu - alpha
    d_mh = decompose(g, m, h)
    art = _artifacts(h, hp, d_mh)
    d_hhp = decompose(g, h, hp)
    d_core = decompose(g, art.m_a, hp)

    checks: dict[str, Verdict] = {}

    p1_parts = [check_property_1(d) for d in (d_mh, d_hhp, d_core)]
    checks["p1_component_balance"] = Verdict(
        all(v.ok for v in p1_parts),
        "; ".join(v.detail for v in p1_parts if not v.ok),
    )
    p2_parts = [
        check_property_2(m, h, d_mh),
        check_property_2(h, hp, d_hhp),
        check_property_2(art.m_a, hp, d_core),
    ]
    checks["p2_count_identity"] = Verdict(
        all(v.ok for v in p2_parts),
        "; ".join(v.detail for v in p2_parts if not v.ok),
    )
    checks["p3_max_matching_paths"] = _property_3(gap, d_mh)
    checks["p4_optimal_pair_paths"] = _property_4(d_hhp)

    bad = []
    if d_mh.cycles:
        bad.append(f"cycle {d_mh.cycles[0].edges}")
    if d_mh.even_paths:
        bad.append(f"even path {d_mh.even_paths[0].edges}")
    if d_mh.odd_paths_b:
        bad.append(f"odd path {d_mh.odd_paths_b[0].edges} starting in the larger side")
    checks["l1_only_odd_m_paths"] = Verdict(not bad, "; ".join(bad))

    shared = m & h
    ok_c1 = shared == m - art.m_a and shared == h - art.h_a
    checks["c1_shared_complement"] = Verdict(
        ok_c1,
        ""
        if ok_c1
        else f"shared {sorted(shared)} vs {sorted(m - art.m_a)} and {sorted(h - art.h_a)}",
    )

    bad = []
    for e in sorted(art.m_a - hp):
        u, v = e
        touching = sum(1 for f in hp if u in f or v in f)
        if touching != 2:
            bad.append(f"edge {e} meets {touching} smaller-side edges")
    checks["l2_two_smaller_side_neighbors"] = Verdict(not bad, "; ".join(bad))

    bad = []
    if d_core.cycles:
        bad.append(f"cycle {d_core.cycles[0].edges}")
    if d_core.even_paths:
        bad.append(f"even path {d_core.even_paths[0].edges}")
    if d_core.odd_paths_a:
        bad.append(f"odd path {d_core.odd_paths_a[0].edges} starting in the core")
    checks["l3_core_odd_paths_only"] = Verdict(not bad, "; ".join(bad))

    lhs = len(hp)
    rhs = len(d_core.odd_paths_b) + len(art.h_a) + gap
    checks["l4_smaller_side_size_identity"] = Verdict(
        lhs == rhs, "" if lhs == rhs else f"{lhs} != {rhs}"
    )

    bad = []
    for c in d_mh.odd_paths_a:
        if c.length < 5:
            bad.append(f"odd path {c.edges} has length {c.length} < 5")
        if c.edges[0] not in hp or c.edges[-1] not in hp:
            bad.append(f"odd path {c.edges} has an end-edge outside the smaller side")
    checks["l5_long_paths_end_edges"] = Verdict(not bad, "; ".join(bad))

    checks["c2_h_edges_bound"] = Verdict(
        len(art.h_a) >= 2 * gap,
        "" if len(art.h_a) >= 2 * gap else f"{len(art.h_a)} < {2 * gap}",
    )

    bad = []
    for c in d_mh.paths():
        for v in c.vertices:
            if not any(v in f for f in hp):
                bad.append(f"vertex {v} of path {c.edges} meets no smaller-side edge")
    checks["c3_path_vertices_covered"] = Verdict(not bad, "; ".join(bad))

    bad = []
    if art.defects:
        bad.extend(art.defects)
    if art.launch_count != 2 * len(d_mh.odd_paths_a):
        bad.append(f"{art.launch_count} launches for {len(d_mh.odd_paths_a)} odd paths")
    if len(art.y_paths) != 2 * gap:
        bad.append(f"{len(art.y_paths)} distinct launched paths, expected {2 * gap}")
    for c in art.y_paths:
        if c.length % 2 == 1:
            bad.append(f"launched path {c.edges} has odd length")
        if c.length < 4:
            bad.append(f"launched path {c.edges} has length {c.length} < 4")
    if not art.h_y <= (m & h):
        bad.append(f"launched last edges {sorted(art.h_y - (m & h))} not shared")
    checks["l6a_launched_paths"] = Verdict(not bad, "; ".join(bad))

    checks["l6b_odd_core_bound"] = Verdict(
        len(d_core.odd_paths_b) >= gap,
        "" if len(d_core.odd_paths_b) >= gap else f"{len(d_core.odd_paths_b)} < {gap}",
    )

    y_count = len(art.y_paths)
    bad = []
    if alpha < len(hp):
        bad.append(f"larger side {alpha} < smaller side {len(hp)}")
    if len(hp) < 2 * y_count:
        bad.append(f"smaller side {len(hp)} < twice launched count {2 * y_count}")
    if 2 * y_count != 4 * gap:
        bad.append(f"twice launched count {2 * y_count} != four gaps {4 * gap}")
    checks["r1_ratio_chain"] = Verdict(not bad, "; ".join(bad))

    return LemmaReport(checks, art)
