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
witness on failure; failures are data, not exceptions.  ``verify_lemmas``
takes nu from its caller, checks m, h and h_prime once each, decomposes
(m, h), (h, h_prime) and the core against h_prime, and reads every check
and every launched path off those three.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .graph import Edge, Graph, _paths_and_cycles
from .matching import matching_violation
from .pairs import CanonicalTriple


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


class Decomposition(NamedTuple):
    """Classification of two matchings' union: shared edges plus the
    alternating cycles, even paths, and odd paths by starting side."""

    shared: frozenset[Edge]
    cycles: tuple[AlternatingComponent, ...]
    even_paths: tuple[AlternatingComponent, ...]
    odd_paths_a: tuple[AlternatingComponent, ...]
    odd_paths_b: tuple[AlternatingComponent, ...]

    def paths(self) -> tuple[AlternatingComponent, ...]:
        return self.even_paths + self.odd_paths_a + self.odd_paths_b


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
    _check_matching(g, a, "first")
    _check_matching(g, b, "second")
    return _decompose(a, b)


def _check_matching(g: Graph, s: frozenset[Edge], name: str) -> None:
    reason = matching_violation(g, s)
    if reason is not None:
        raise ValueError(f"{name} matching invalid: {reason}")


def _decompose(a: frozenset[Edge], b: frozenset[Edge]) -> Decomposition:
    """``decompose`` of two matchings that are already checked."""
    side_of = dict.fromkeys(a - b, "A")  # the side of each unshared edge
    side_of.update(dict.fromkeys(b - a, "B"))
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


def _verdict(problems: list[str]) -> Verdict:
    """The verdict of a check that found ``problems``: it holds when there
    are none, and its detail lists them."""
    return Verdict(not problems, "; ".join(problems))


def check_property_1(d: Decomposition) -> Verdict:
    """Cycles and even paths carry both sides equally; an odd path's
    starting side exceeds the other by exactly one."""
    bad: list[str] = []
    for c in d.cycles + d.even_paths:
        if c.sides.count("A") != c.sides.count("B"):
            bad.append(f"{c.kind} {c.edges} has unbalanced sides")
    for c in d.odd_paths_a:
        if c.sides.count("A") != c.sides.count("B") + 1:
            bad.append(f"odd path {c.edges} lacks the one-edge A surplus")
    for c in d.odd_paths_b:
        if c.sides.count("B") != c.sides.count("A") + 1:
            bad.append(f"odd path {c.edges} lacks the one-edge B surplus")
    return _verdict(bad)


def check_property_2(a: Iterable[Edge], b: Iterable[Edge], d: Decomposition) -> Verdict:
    """|A| - |B| equals the count of A-started odd paths minus B-started."""
    lhs = len(frozenset(a)) - len(frozenset(b))
    rhs = len(d.odd_paths_a) - len(d.odd_paths_b)
    return _verdict([f"size difference {lhs} != {rhs}"] if lhs != rhs else [])


def _property_3(gap: int, d: Decomposition) -> Verdict:
    """Against a maximum matching A no odd path starts on the other side,
    and the size gap |A| - |B| equals the number of odd A-started paths."""
    if d.odd_paths_b:
        return _verdict([f"odd path starting opposite: {d.odd_paths_b[0].edges}"])
    odd = len(d.odd_paths_a)
    return _verdict([f"gap {gap} != {odd} odd paths"] if gap != odd else [])


def _property_4(d: Decomposition) -> Verdict:
    """For an optimal pair (A, B), no odd path starts from the smaller
    side B.  Meaningful only when the pair attains both pair optima."""
    wrong = d.odd_paths_b
    return _verdict([f"odd path starting in the smaller side: {wrong[0].edges}"] if wrong else [])


def _odd_paths_only(d: Decomposition, wrong: tuple[AlternatingComponent, ...], where: str) -> Verdict:
    """``d`` has no cycle, no even path and no odd path in ``wrong``, the
    odd paths that start in ``where``."""
    bad = []
    if d.cycles:
        bad.append(f"cycle {d.cycles[0].edges}")
    if d.even_paths:
        bad.append(f"even path {d.even_paths[0].edges}")
    if wrong:
        bad.append(f"odd path {wrong[0].edges} starting in {where}")
    return _verdict(bad)


class TripleArtifacts(NamedTuple):
    """Derived objects of a canonical triple.

    ``m_a`` / ``h_a``: edges of the maximum matching / larger side lying
    on the odd maximum-side paths of their decomposition.  ``y_paths``:
    for each end-edge of each such odd path, the maximal (h, h_prime)
    alternating path launched from the path's outer endpoint (duplicates
    collapsed).  ``defects`` records each end-edge outside the smaller
    side, which on a genuine canonical triple never occurs and otherwise
    surfaces as a lemma failure; every other end-edge launches a path.
    """

    m_a: frozenset[Edge]
    h_a: frozenset[Edge]
    y_paths: tuple[AlternatingComponent, ...]
    defects: tuple[str, ...] = ()


def _decomposed(
    g: Graph, t: CanonicalTriple
) -> tuple[frozenset[Edge], frozenset[Edge], frozenset[Edge], Decomposition, Decomposition]:
    """(m, h, h_prime) of ``t`` as frozensets, with the decompositions of
    (m, h) and (h, h_prime).  m, h and h_prime are checked to be matchings
    of ``g``, once each and in that order; the two sides are then checked
    to be edge-disjoint."""
    m, h, hp = frozenset(t.m), frozenset(t.h), frozenset(t.h_prime)
    d_mh = decompose(g, m, h)
    _check_matching(g, hp, "second")
    d_hhp = _decompose(h, hp)
    if d_hhp.shared:
        raise ValueError("triple sides are not edge-disjoint")
    return m, h, hp, d_mh, d_hhp


def derive_artifacts(g: Graph, t: CanonicalTriple) -> TripleArtifacts:
    """Build the odd-path edge sets and launched-path family for ``t``."""
    _, _, hp, d_mh, d_hhp = _decomposed(g, t)
    return _artifacts(hp, d_mh, d_hhp)


def _artifacts(hp: frozenset[Edge], d_mh: Decomposition, d_hhp: Decomposition) -> TripleArtifacts:
    """``derive_artifacts`` of a checked triple, given the decompositions
    of its (m, h) and its (h, h_prime).

    The launch vertex, the outer end of an odd (m, h) path, meets no edge
    of h, so its end-edge, when in h_prime, makes it the end of a path of
    the (h, h_prime) difference.
    """
    odd_m = d_mh.odd_paths_a
    m_a = frozenset(e for c in odd_m for e, s in zip(c.edges, c.sides) if s == "A")
    h_a = frozenset(e for c in odd_m for e, s in zip(c.edges, c.sides) if s == "B")

    # Each path of the pair difference, keyed by either end.
    at_end = {c.vertices[i]: c for c in d_hhp.paths() for i in (0, -1)}
    defects: list[str] = []
    launched: list[AlternatingComponent] = []
    seen: set[AlternatingComponent] = set()
    for path in odd_m:
        ends = [(path.vertices[0], path.edges[0]), (path.vertices[-1], path.edges[-1])]
        for vertex, end_edge in ends:
            if end_edge not in hp:
                defects.append(
                    f"end-edge {end_edge} of odd path {path.edges} outside the smaller side"
                )
                continue
            comp = at_end[vertex]
            if comp not in seen:
                seen.add(comp)
                if comp.vertices[0] != vertex:  # walk it from the launch vertex
                    comp = comp._replace(
                        vertices=comp.vertices[::-1], edges=comp.edges[::-1], sides=comp.sides[::-1]
                    )
                launched.append(comp)
    return TripleArtifacts(m_a, h_a, tuple(launched), tuple(defects))


class LemmaReport(NamedTuple):
    """Per-check verdicts for one triple, plus the derived artifacts."""

    checks: dict[str, Verdict]
    artifacts: TripleArtifacts

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.checks.values())

    def failures(self) -> list[str]:
        return [name for name, v in self.checks.items() if not v.ok]


def verify_lemmas(g: Graph, t: CanonicalTriple, nu: int) -> LemmaReport:
    """Evaluate every structural fact on a canonical triple exactly.

    Trusts that ``t`` came from the canonical-triple search and ``nu``,
    the matching number of ``g``, from the caller; on other inputs the
    verdicts describe that input only.  Raises ``ValueError`` for
    malformed triples (sides not matchings, not disjoint, or |m| != nu).
    """
    m, h, hp, d_mh, d_hhp = _decomposed(g, t)
    if len(m) != nu:
        raise ValueError("triple component m is not a maximum matching")

    alpha = len(h)
    gap = nu - alpha
    art = _artifacts(hp, d_mh, d_hhp)
    d_core = _decompose(art.m_a, hp)  # m_a is part of m, both checked

    checks: dict[str, Verdict] = {}

    p1_parts = [check_property_1(d) for d in (d_mh, d_hhp, d_core)]
    checks["p1_component_balance"] = _verdict([v.detail for v in p1_parts if not v.ok])
    p2_parts = [
        check_property_2(m, h, d_mh),
        check_property_2(h, hp, d_hhp),
        check_property_2(art.m_a, hp, d_core),
    ]
    checks["p2_count_identity"] = _verdict([v.detail for v in p2_parts if not v.ok])
    checks["p3_max_matching_paths"] = _property_3(gap, d_mh)
    checks["p4_optimal_pair_paths"] = _property_4(d_hhp)
    checks["l1_only_odd_m_paths"] = _odd_paths_only(d_mh, d_mh.odd_paths_b, "the larger side")

    shared = d_mh.shared
    checks["c1_shared_complement"] = _verdict(
        []
        if shared == m - art.m_a and shared == h - art.h_a
        else [f"shared {sorted(shared)} vs {sorted(m - art.m_a)} and {sorted(h - art.h_a)}"]
    )

    # h_prime is a matching, so each vertex meets at most one of its edges.
    hp_covered = {w for f in hp for w in f}
    bad = []
    for e in sorted(art.m_a - hp):
        u, v = e
        touching = (u in hp_covered) + (v in hp_covered)
        if touching != 2:
            bad.append(f"edge {e} meets {touching} smaller-side edges")
    checks["l2_two_smaller_side_neighbors"] = _verdict(bad)

    checks["l3_core_odd_paths_only"] = _odd_paths_only(d_core, d_core.odd_paths_a, "the core")

    lhs = len(hp)
    rhs = len(d_core.odd_paths_b) + len(art.h_a) + gap
    checks["l4_smaller_side_size_identity"] = _verdict([f"{lhs} != {rhs}"] if lhs != rhs else [])

    bad = []
    for c in d_mh.odd_paths_a:
        if c.length < 5:
            bad.append(f"odd path {c.edges} has length {c.length} < 5")
        if c.edges[0] not in hp or c.edges[-1] not in hp:
            bad.append(f"odd path {c.edges} has an end-edge outside the smaller side")
    checks["l5_long_paths_end_edges"] = _verdict(bad)

    h_count = len(art.h_a)
    checks["c2_h_edges_bound"] = _verdict(
        [f"{h_count} < {2 * gap}"] if h_count < 2 * gap else []
    )

    checks["c3_path_vertices_covered"] = _verdict(
        [
            f"vertex {v} of path {c.edges} meets no smaller-side edge"
            for c in d_mh.paths()
            for v in c.vertices
            if v not in hp_covered
        ]
    )

    bad = list(art.defects)
    # Each odd path has two end-edges, and each defect is one that launched nothing.
    if art.defects:
        odd = len(d_mh.odd_paths_a)
        bad.append(f"{2 * odd - len(art.defects)} launches for {odd} odd paths")
    if len(art.y_paths) != 2 * gap:
        bad.append(f"{len(art.y_paths)} distinct launched paths, expected {2 * gap}")
    for c in art.y_paths:
        if c.length % 2 == 1:
            bad.append(f"launched path {c.edges} has odd length")
        if c.length < 4:
            bad.append(f"launched path {c.edges} has length {c.length} < 4")
    h_y = frozenset(c.edges[-1] for c in art.y_paths)
    if not h_y <= shared:
        bad.append(f"launched last edges {sorted(h_y - shared)} not shared")
    checks["l6a_launched_paths"] = _verdict(bad)

    core_odd = len(d_core.odd_paths_b)
    checks["l6b_odd_core_bound"] = _verdict([f"{core_odd} < {gap}"] if core_odd < gap else [])

    y_count = len(art.y_paths)
    bad = []
    if alpha < len(hp):
        bad.append(f"larger side {alpha} < smaller side {len(hp)}")
    if len(hp) < 2 * y_count:
        bad.append(f"smaller side {len(hp)} < twice launched count {2 * y_count}")
    if 2 * y_count != 4 * gap:
        bad.append(f"twice launched count {2 * y_count} != four gaps {4 * gap}")
    checks["r1_ratio_chain"] = _verdict(bad)

    return LemmaReport(checks, art)
