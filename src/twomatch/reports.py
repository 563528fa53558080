"""Graph analysis reports and census sweeps.

Every output is built here: the three JSON documents (``graph_report``,
``census_summary`` and ``lemma_report``) and the CSV row; this is the one
module that writes ``schema_version``.  One graph in, one flat report
out, each result stored once: maximum matching size, exact pair optima,
the lemma suite when the instance is within the triple-search ceiling,
and the ratio check derived from the report's own nu and alpha2 (an
integer cross-product, never floating point, and only on certified
optima).  ``GraphReport.failures`` is the one failure rule: a broken
ratio bound, optima out of order, or a lemma failure.  A census maps the
analysis over a corpus, aggregates exact maxima and histograms over the
certified rows, and collects those failures; graphs are independent, so
sweeps fan out over forked children with input order preserved in the
output.  A census addresses its corpus by index: graph i is made, or
looked up, in the process that analyzes it.
"""

from __future__ import annotations

import marshal
import os
from math import gcd
from time import perf_counter
from typing import Callable, Iterable, NamedTuple

from .alternating import verify_lemmas
from .graph import Graph
from .pairs import (
    DEFAULT_NODE_BUDGET,
    PAIR_ORACLE_MAX_EDGES,
    CanonicalTriple,
    PairResult,
    canonical_triple,
    canonical_triples,
    solve_pair,
)


SCHEMA_VERSION = 4

#: The most graphs one census holds: the ``--exhaustive 7`` corpus.  Its
#: rows are all kept until the census returns.
MAX_CENSUS_GRAPHS = 2**21

#: The CSV header, in ``GraphReport.to_row`` order.
CSV_COLUMNS = (
    "source", "n", "m", "nu", "lambda2", "alpha2", "ratio", "ratio_ok", "status",
    "lemmas_passed", "lemmas_failed", "lemmas_skipped",
)


class GraphReport(NamedTuple):
    """Solver results for one graph, each stored once; ``lemmas_skipped``
    is why the lemma suite did not run, or ``None`` once it ran.  ``ratio``,
    ``ratio_ok`` (4*nu <= 5*alpha2) and the reported ``nu_minus_alpha2``
    are ``None`` unless the pair optima are certified (status ``ok``);
    ``certified_by`` names the route that certified them (``"caps"``,
    ``"dp"`` or ``"search"``), else ``None``."""

    source: str
    n: int
    m: int
    nu: int
    lambda2: int
    alpha2: int
    status: str
    solver_nodes: int
    certified_by: str | None
    lemmas_skipped: str | None
    lemmas_passed: int = 0
    lemma_failures: tuple[str, ...] = ()
    timings: dict[str, float] | None = None
    witness: dict[str, list[list[int]]] | None = None

    @property
    def gap(self) -> int:
        return self.nu - self.alpha2

    @property
    def ratio(self) -> str | None:
        return _ratio_str(self.nu, self.alpha2) if self.status == "ok" else None

    @property
    def ratio_ok(self) -> bool | None:
        # An uncertified alpha2 bounds nothing, so it gets no verdict.
        return 4 * self.nu <= 5 * self.alpha2 if self.status == "ok" else None

    def failures(self) -> list[dict]:
        """What this report breaks, as census failure entries: the ratio
        bound, the order nu >= alpha2 >= lambda2 / 2 of certified optima,
        or a lemma check (the solver cross-check included)."""
        found = []
        if self.ratio_ok is False:
            found.append(("ratio_bound", f"4*nu = {4 * self.nu} > 5*alpha2 = {5 * self.alpha2}"))
        if self.status == "ok" and not self.nu >= self.alpha2 >= (self.lambda2 + 1) // 2:
            found.append(
                ("report_invariant", f"nu={self.nu}, alpha2={self.alpha2}, lambda2={self.lambda2}")
            )
        if self.lemma_failures:
            found.append(("lemma", ", ".join(self.lemma_failures)))
        return [{"source": self.source, "kind": kind, "detail": detail} for kind, detail in found]

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
            "lemmas": (
                {"checked": False, "skipped_reason": self.lemmas_skipped}
                if self.lemmas_skipped is not None
                else {
                    "checked": True, "triples": 1, "passed": self.lemmas_passed,
                    "failed": len(self.lemma_failures), "failures": list(self.lemma_failures),
                }
            ),
        }
        if self.witness is not None:
            doc["witness"] = self.witness
        if self.timings is not None:
            doc["timings"] = self.timings
        return doc

    def to_row(self) -> tuple:
        """This report as a CSV row, in ``CSV_COLUMNS`` order."""
        checked = self.lemmas_skipped is None
        return (
            self.source,
            self.n,
            self.m,
            self.nu,
            self.lambda2,
            self.alpha2,
            self.ratio or "",
            "" if self.ratio_ok is None else int(self.ratio_ok),
            self.status,
            self.lemmas_passed if checked else "",
            len(self.lemma_failures) if checked else "",
            self.lemmas_skipped or "",
        )


def _ratio_str(nu: int, alpha2: int) -> str | None:
    """``nu/alpha2`` in lowest terms, or ``None`` when alpha2 is 0."""
    if alpha2 == 0:
        return None
    d = gcd(nu, alpha2)
    return f"{nu // d}/{alpha2 // d}"


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
    """Full single-graph analysis: nu, pair optima, ratio check, and the lemma
    suite on the canonical triple, whose sizes must equal the solver's nu, lambda2, alpha2."""
    timings: dict[str, float] = {}

    t0 = perf_counter()
    pair = solve_pair(g, node_budget)
    timings["pair_solver"] = perf_counter() - t0

    certified = pair.status == "optimal"
    witness = None
    if with_witness:
        witness = {"h": _edge_lists(pair.h), "h_prime": _edge_lists(pair.h_prime)}

    t0 = perf_counter()
    skipped, passed, failures = None, 0, []
    if not lemmas:
        skipped = "disabled"
    elif not certified:
        skipped = "budget exceeded"
    elif g.m > PAIR_ORACLE_MAX_EDGES:
        skipped = f"over ceiling ({g.m} > {PAIR_ORACLE_MAX_EDGES} edges)"
    else:
        triple = canonical_triple(g)
        report = verify_lemmas(g, triple, len(triple.m))
        failures = report.failures()
        passed = len(report.checks) - len(failures)
        if _solver_mismatch(pair, triple):
            failures.append("solver_vs_enumeration_mismatch")
    timings["lemmas"] = perf_counter() - t0

    return GraphReport(
        source=source,
        n=g.n,
        m=g.m,
        nu=pair.nu,
        lambda2=pair.lambda2,
        alpha2=pair.alpha2,
        status="ok" if certified else pair.status,
        solver_nodes=pair.nodes,
        certified_by=pair.route if certified else None,
        lemmas_skipped=skipped,
        lemmas_passed=passed,
        lemma_failures=tuple(failures),
        timings=timings if with_timings else None,
        witness=witness,
    )


def _solver_mismatch(pair: PairResult, triple: CanonicalTriple) -> str | None:
    """The one solver cross-check: ``None`` when the triple's sizes (|M|,
    |H| + |H'|, |H|) equal the solver's (nu, lambda2, alpha2), else a
    message naming both."""
    solver = (pair.nu, pair.lambda2, pair.alpha2)
    sizes = (len(triple.m), len(triple.h) + len(triple.h_prime), len(triple.h))
    return None if sizes == solver else (
        f"solver_vs_enumeration_mismatch: solver (nu, lambda2, alpha2) = {solver}, "
        f"triple (|M|, |H| + |H'|, |H|) = {sizes}"
    )


class SolverMismatch(Exception):
    """The solver's optima and the triples' sizes disagree: a check failure,
    as ``solver_vs_enumeration_mismatch`` is in a report, not a bad input."""


def verify_graph(g: Graph, source: str = "") -> dict:
    """The ``lemma_report`` document: the lemma suite over every maximizing
    triple of ``g``, with the solver's nu, lambda2 and alpha2.  Raises
    ``ValueError`` over the triple-search ceiling, before any solve, and
    ``SolverMismatch`` when the triples' sizes are not the solver's optima."""
    triples = canonical_triples(g)
    pair = solve_pair(g, DEFAULT_NODE_BUDGET)
    if mismatch := _solver_mismatch(pair, triples[0]):
        raise SolverMismatch(mismatch)
    docs = []
    for t in triples:
        report = verify_lemmas(g, t, pair.nu)
        launched = report.y_paths
        docs.append(
            {
                "h": _edge_lists(t.h),
                "h_prime": _edge_lists(t.h_prime),
                "m": _edge_lists(t.m),
                "ok": report.ok,
                "launched_paths": {"count": len(launched), "lengths": [c.length for c in launched]},
                "checks": {name: v._asdict() for name, v in report.checks.items()},
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "lemma_report",
        "source": source,
        "n": g.n,
        "m": g.m,
        "nu": pair.nu,
        "lambda2": pair.lambda2,
        "alpha2": pair.alpha2,
        "triple_count": len(docs),
        "ok": all(d["ok"] for d in docs),
        "triples": docs,
    }


class CensusSummary(NamedTuple):
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

    def to_dict(self) -> dict:
        doc = {"schema_version": SCHEMA_VERSION, "kind": "census_summary", **self._asdict()}
        doc["gap_histogram"] = {str(k): v for k, v in sorted(self.gap_histogram.items())}
        doc["failures"] = list(self.failures)
        if doc.pop("elapsed") is not None:
            doc["elapsed_seconds"] = self.elapsed
        return doc


def run_census(
    count: int,
    item: Callable[[int], tuple[str, Graph]],
    *,
    corpus: str = "",
    jobs: int = 1,
    node_budget: int = DEFAULT_NODE_BUDGET,
    lemmas: bool = True,
    with_timings: bool = True,
) -> tuple[CensusSummary, list[GraphReport]]:
    """Analyze graphs 0 .. count - 1 of a corpus; row order follows input order.

    ``item(i)`` returns graph i as ``(source, graph)``, in the process that
    analyzes it; ``item`` may be any callable, since children inherit it.
    At ``jobs = J`` the parent forks J - 1 children, fewer if there are
    fewer graphs: child k analyzes graphs k, k + J, ... and sends back all
    its rows as one marshal blob, while the parent analyzes graphs 0, J, ...
    Each of the J processes first moves itself onto allowed CPU k (modulo
    their number) and then restores its mask: a freshly forked child can
    otherwise stay on its parent's CPU for longer than a short census
    lasts.  Without ``os.fork``, one process does every job.  Raises
    ``ValueError`` above ``MAX_CENSUS_GRAPHS`` graphs, before any is made.
    """
    if count > MAX_CENSUS_GRAPHS:
        raise ValueError(f"census of {count} graphs above the ceiling of {MAX_CENSUS_GRAPHS}")
    start = perf_counter()
    jobs = max(1, min(jobs, count)) if hasattr(os, "fork") else 1
    reports: list[GraphReport] = [None] * count  # type: ignore[list-item]

    def share(k: int) -> list[GraphReport]:  # graphs k, k + jobs, k + 2*jobs, ...
        if jobs > 1 and hasattr(os, "sched_setaffinity"):
            try:
                allowed = os.sched_getaffinity(0)
                if len(allowed) > 1:
                    os.sched_setaffinity(0, {sorted(allowed)[k % len(allowed)]})  # moves it now
                    os.sched_setaffinity(0, allowed)  # the scheduler stays free to move it later
            except OSError:
                pass  # the rows do not depend on placement
        return [
            analyze_graph(g, source, node_budget=node_budget, lemmas=lemmas, with_timings=False)
            for source, g in map(item, range(k, count, jobs))
        ]
    children = []
    try:
        for k in range(1, jobs):
            read, write = os.pipe()
            if (pid := os.fork()) == 0:  # child k: never returns, ends in os._exit
                try:
                    os.close(read)
                    with open(write, "wb") as pipe:
                        try:
                            pipe.write(marshal.dumps([tuple(r) for r in share(k)]))
                        except Exception as exc:
                            import pickle
                            pipe.write(marshal.dumps(pickle.dumps(exc)))
                finally:
                    os._exit(0)
            os.close(write)  # before the next fork, so that only child k holds it
            children.append((pid, open(read, "rb")))
        reports[::jobs] = share(0)
        for k, (_, pipe) in enumerate(children, 1):
            rows = marshal.loads(pipe.read())
            if isinstance(rows, bytes):
                import pickle
                raise pickle.loads(rows)
            for j, row in enumerate(rows):  # in place: each plain tuple goes as its report comes
                rows[j] = GraphReport._make(row)
            reports[k::jobs] = rows
    except EOFError:
        raise ChildProcessError("a census worker ended before sending all its rows") from None
    finally:
        for pid, pipe in children:  # all rows are in, or a child may be deep in a search
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
            pipe.close()

    # The largest nu/alpha2 as (nu, alpha2), compared by cross-multiplying.
    top_nu, top_alpha2 = 0, 1
    max_source = ""
    histogram: dict[int, int] = {}
    failures: list[dict] = []
    budget = 0
    lemma_checked = 0
    for r in reports:
        failures.extend(r.failures())
        if r.status == "budget_exceeded":
            budget += 1
            continue
        if r.alpha2 > 0 and r.nu * top_alpha2 > top_nu * r.alpha2:
            top_nu, top_alpha2 = r.nu, r.alpha2
            max_source = r.source
        histogram[r.gap] = histogram.get(r.gap, 0) + 1
        if r.lemmas_skipped is None:
            lemma_checked += 1

    summary = CensusSummary(
        corpus=corpus,
        count=len(reports),
        max_ratio=_ratio_str(top_nu, top_alpha2),
        max_ratio_source=max_source,
        gap_histogram=histogram,
        failures=tuple(failures),
        budget_exceeded=budget,
        lemma_checked=lemma_checked,
        elapsed=(perf_counter() - start) if with_timings else None,
    )
    return summary, reports
