"""Graph analysis reports and census sweeps.

One graph in, one report out: maximum matching size, exact pair optima,
the ratio check (as an integer cross-product, never floating point, and
only on certified optima), and the lemma suite when the instance is
within the triple-search ceiling.  A census maps this over a corpus,
aggregates exact maxima and histograms over the certified rows, and
collects failures; graphs are independent, so sweeps parallelize
over a worker pool with input order preserved in the output.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Iterable, Sequence

from .alternating import LemmaReport, verify_lemmas
from .graph import Graph
from .pairs import (
    DEFAULT_NODE_BUDGET,
    PAIR_ORACLE_MAX_EDGES,
    CanonicalTriple,
    canonical_triple,
    canonical_triples,
    solve_pair,
)

__all__ = [
    "LemmaSummary",
    "GraphReport",
    "CensusSummary",
    "SCHEMA_VERSION",
    "analyze_graph",
    "verify_graph",
    "run_census",
]

SCHEMA_VERSION = 4


@dataclass(frozen=True)
class LemmaSummary:
    """Outcome of the lemma suite for one graph (or why it was skipped)."""

    checked: bool
    triples: int = 0
    passed: int = 0
    failed: int = 0
    failures: tuple[str, ...] = ()
    skipped_reason: str | None = None

    def to_dict(self) -> dict:
        if not self.checked:
            return {"checked": False, "skipped_reason": self.skipped_reason}
        return {
            "checked": True,
            "triples": self.triples,
            "passed": self.passed,
            "failed": self.failed,
            "failures": list(self.failures),
        }


@dataclass(frozen=True)
class GraphReport:
    """Solver results for one graph; ``ratio_ok`` is the exact integer
    comparison 4*nu <= 5*alpha2, and ``ratio``, ``ratio_ok`` and the
    reported ``nu_minus_alpha2`` are ``None`` unless the pair optima are
    certified (status ``ok``); ``certified_by`` names the route that
    certified them (``"caps"``, ``"dp"`` or ``"search"``), else ``None``."""

    source: str
    n: int
    m: int
    nu: int
    lambda2: int
    alpha2: int
    ratio: str | None
    ratio_ok: bool | None
    status: str
    solver_nodes: int
    certified_by: str | None
    lemmas: LemmaSummary
    timings: dict[str, float] | None = None
    witness: dict[str, list[list[int]]] | None = None

    @property
    def gap(self) -> int:
        return self.nu - self.alpha2

    def to_dict(self) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": "graph_report",
            "source": self.source,
            "n": self.n,
            "m": self.m,
            "nu": self.nu,
            "lambda2": self.lambda2,
            "alpha2": self.alpha2,
            "nu_minus_alpha2": self.gap if self.status == "ok" else None,
            "ratio": self.ratio,
            "ratio_ok": self.ratio_ok,
            "status": self.status,
            "solver_nodes": self.solver_nodes,
            "certified_by": self.certified_by,
            "lemmas": self.lemmas.to_dict(),
        }
        if self.witness is not None:
            doc["witness"] = self.witness
        if self.timings is not None:
            doc["timings"] = self.timings
        return doc


def _ratio_str(nu: int, alpha2: int) -> str | None:
    if alpha2 == 0:
        return None
    f = Fraction(nu, alpha2)
    return f"{f.numerator}/{f.denominator}"


def _edge_lists(edges: Iterable) -> list[list[int]]:
    return [list(e) for e in sorted(edges)]


def analyze_graph(
    g: Graph,
    source: str = "",
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    lemmas: bool = True,
    with_timings: bool = True,
    with_witness: bool = False,
) -> GraphReport:
    """Full single-graph analysis: nu, pair optima, ratio check, lemma suite."""
    timings: dict[str, float] = {}

    t0 = perf_counter()
    pair = solve_pair(g, node_budget)
    nu = pair.nu
    timings["pair_solver"] = perf_counter() - t0

    # An uncertified alpha2 bounds nothing, so it gets no ratio verdict.
    certified = pair.status == "optimal"
    ratio_ok = 4 * nu <= 5 * pair.alpha2 if certified else None
    witness = None
    if with_witness:
        witness = {"h": _edge_lists(pair.h), "h_prime": _edge_lists(pair.h_prime)}

    t0 = perf_counter()
    if not lemmas:
        summary = LemmaSummary(checked=False, skipped_reason="disabled")
    elif not certified:
        summary = LemmaSummary(checked=False, skipped_reason="budget exceeded")
    elif g.m > PAIR_ORACLE_MAX_EDGES:
        summary = LemmaSummary(
            checked=False,
            skipped_reason=f"over ceiling ({g.m} > {PAIR_ORACLE_MAX_EDGES} edges)",
        )
    else:
        triple = canonical_triple(g)
        report = verify_lemmas(g, triple)
        failures = list(report.failures())
        # Dual-route consistency: solve_pair vs exhaustive enumeration.
        if len(triple.h) != pair.alpha2 or len(triple.h) + len(triple.h_prime) != pair.lambda2:
            failures.append("solver_vs_enumeration_mismatch")
        summary = LemmaSummary(
            checked=True,
            triples=1,
            passed=len(report.checks) - len(report.failures()),
            failed=len(failures),
            failures=tuple(failures),
        )
    timings["lemmas"] = perf_counter() - t0

    return GraphReport(
        source=source,
        n=g.n,
        m=g.m,
        nu=nu,
        lambda2=pair.lambda2,
        alpha2=pair.alpha2,
        ratio=_ratio_str(nu, pair.alpha2) if certified else None,
        ratio_ok=ratio_ok,
        status="ok" if certified else pair.status,
        solver_nodes=pair.nodes,
        certified_by=pair.route if certified else None,
        lemmas=summary,
        timings=timings if with_timings else None,
        witness=witness,
    )


def verify_graph(g: Graph) -> list[tuple[CanonicalTriple, LemmaReport]]:
    """Run the lemma suite over every maximizing triple of ``g``."""
    return [(t, verify_lemmas(g, t)) for t in canonical_triples(g)]


@dataclass(frozen=True)
class CensusSummary:
    """Aggregate of a census sweep; ``max_ratio`` is an exact reduced
    fraction and ``failures`` must stay empty for the bound to stand.
    ``max_ratio`` and ``gap_histogram`` cover certified rows only; the
    others are counted in ``budget_exceeded`` alone."""

    corpus: str
    count: int
    max_ratio: str
    max_ratio_source: str
    gap_histogram: dict[int, int]
    failures: tuple[dict, ...]
    budget_exceeded: int
    lemma_checked: int
    elapsed: float | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": "census_summary",
            "corpus": self.corpus,
            "count": self.count,
            "max_ratio": self.max_ratio,
            "max_ratio_source": self.max_ratio_source,
            "gap_histogram": {str(k): v for k, v in sorted(self.gap_histogram.items())},
            "failures": list(self.failures),
            "budget_exceeded": self.budget_exceeded,
            "lemma_checked": self.lemma_checked,
        }
        if self.elapsed is not None:
            doc["elapsed_seconds"] = self.elapsed
        return doc


def _census_worker(item: tuple[str, Graph, int, bool]) -> GraphReport:
    source, g, node_budget, lemmas = item
    return analyze_graph(
        g, source, node_budget=node_budget, lemmas=lemmas, with_timings=False
    )


def _report_failures(r: GraphReport) -> list[dict]:
    out = []
    if r.ratio_ok is False:
        out.append(
            {
                "source": r.source,
                "kind": "ratio_bound",
                "detail": f"4*nu = {4 * r.nu} > 5*alpha2 = {5 * r.alpha2}",
            }
        )
    if r.status == "ok" and not r.nu >= r.alpha2 >= (r.lambda2 + 1) // 2:
        out.append(
            {
                "source": r.source,
                "kind": "report_invariant",
                "detail": f"nu={r.nu}, alpha2={r.alpha2}, lambda2={r.lambda2}",
            }
        )
    if r.lemmas.checked and r.lemmas.failed:
        out.append(
            {
                "source": r.source,
                "kind": "lemma",
                "detail": ", ".join(r.lemmas.failures),
            }
        )
    return out


def run_census(
    items: Sequence[tuple[str, Graph]],
    *,
    corpus: str = "",
    jobs: int = 1,
    node_budget: int = DEFAULT_NODE_BUDGET,
    lemmas: bool = True,
    with_timings: bool = True,
) -> tuple[CensusSummary, list[GraphReport]]:
    """Analyze every (source, graph) pair; row order follows input order."""
    start = perf_counter()
    packed = [(src, g, node_budget, lemmas) for src, g in items]
    if jobs > 1 and len(packed) > 1:
        chunk = max(1, len(packed) // (jobs * 8))
        with multiprocessing.Pool(jobs) as pool:
            reports = pool.map(_census_worker, packed, chunksize=chunk)
    else:
        reports = [_census_worker(p) for p in packed]

    max_ratio = Fraction(0, 1)
    max_source = ""
    histogram: dict[int, int] = {}
    failures: list[dict] = []
    budget = 0
    lemma_checked = 0
    for r in reports:
        failures.extend(_report_failures(r))
        if r.status == "budget_exceeded":
            budget += 1
            continue
        if r.alpha2 > 0:
            f = Fraction(r.nu, r.alpha2)
            if f > max_ratio:
                max_ratio = f
                max_source = r.source
        histogram[r.gap] = histogram.get(r.gap, 0) + 1
        if r.lemmas.checked:
            lemma_checked += 1

    summary = CensusSummary(
        corpus=corpus,
        count=len(reports),
        max_ratio=f"{max_ratio.numerator}/{max_ratio.denominator}",
        max_ratio_source=max_source,
        gap_histogram=histogram,
        failures=tuple(failures),
        budget_exceeded=budget,
        lemma_checked=lemma_checked,
        elapsed=(perf_counter() - start) if with_timings else None,
    )
    return summary, reports
