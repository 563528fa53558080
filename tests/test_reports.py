from __future__ import annotations

import pickle
import sys
from fractions import Fraction

from twomatch import (
    Graph,
    GraphReport,
    LemmaSummary,
    analyze_graph,
    gen_complete,
    gen_gap_family,
    gen_tight_family,
    run_census,
    solve_pair,
    verify_graph,
)
from twomatch import matching, reports


def row(source: str, nu: int, alpha2: int, status: str = "ok") -> GraphReport:
    """A report with the given optima, as ``run_census`` aggregates it."""
    return GraphReport(
        source=source,
        n=2 * nu,
        m=nu + alpha2,
        nu=nu,
        lambda2=2 * alpha2,
        alpha2=alpha2,
        ratio=None,
        ratio_ok=4 * nu <= 5 * alpha2 if status == "ok" else None,
        status=status,
        solver_nodes=0,
        certified_by="caps" if status == "ok" else None,
        lemmas=LemmaSummary(checked=False, skipped_reason="disabled"),
    )


def census_of(monkeypatch, rows: list[GraphReport]):
    """``run_census`` over the given rows, in order, with nothing solved."""
    by_source = {r.source: r for r in rows}
    monkeypatch.setattr(reports, "_census_worker", lambda item: by_source[item[0]])
    summary, _ = run_census([(r.source, None, ()) for r in rows], with_timings=False)
    return summary.max_ratio, summary.max_ratio_source


class TestRatio:
    def test_reduced_like_a_fraction(self):
        for nu in range(13):
            for alpha2 in range(1, 13):
                f = Fraction(nu, alpha2)
                assert reports._ratio_str(nu, alpha2) == f"{f.numerator}/{f.denominator}"
        assert reports._ratio_str(3, 0) is None

    def test_census_reduces_the_largest(self, monkeypatch):
        assert census_of(monkeypatch, [row("a", 10, 8)]) == ("5/4", "a")

    def test_census_picks_the_largest(self, monkeypatch):
        rows = [row("one", 1, 1), row("six-fifths", 6, 5), row("five-quarters", 10, 8), row("again", 6, 5)]
        assert census_of(monkeypatch, rows) == ("5/4", "five-quarters")

    def test_census_keeps_the_first_on_a_tie(self, monkeypatch):
        rows = [row("small", 5, 4), row("large", 10, 8), row("one", 3, 3)]
        assert census_of(monkeypatch, rows) == ("5/4", "small")

    def test_census_without_a_certified_positive_alpha2(self, monkeypatch):
        rows = [row("empty", 0, 0), row("stuck", 5, 4, status="budget_exceeded")]
        assert census_of(monkeypatch, rows) == ("0/1", "")


class TestRecords:
    def test_pickle_round_trip(self):
        g = gen_tight_family(gen_complete(2))
        report = analyze_graph(g, "tight", with_timings=False, with_witness=True)
        summary, _ = run_census([("gap", gen_gap_family, (3,)), ("tight", Graph, (g.n, g.edges))], corpus="mixed")
        for value in (g, report, summary):
            copy = pickle.loads(pickle.dumps(value))
            assert type(copy) is type(value)
            assert copy == value
            assert repr(copy) == repr(value)


def count_max_matching(monkeypatch) -> list:
    """Rebind ``max_matching`` in every loaded twomatch module to a wrapper
    that records each run; returns the record."""
    runs = []
    original = matching.max_matching

    def counted(g):
        runs.append(g)
        return original(g)

    for name, module in list(sys.modules.items()):
        if name == "twomatch" or name.startswith("twomatch."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return runs


class TestOneNuPerGraph:
    def test_verify_graph_runs_the_blossom_once(self, monkeypatch):
        g = gen_tight_family(gen_complete(2))
        runs = count_max_matching(monkeypatch)
        results = verify_graph(g)
        assert len(results) == 4
        assert len(runs) == 1

    def test_lemma_path_adds_no_blossom_run(self, monkeypatch):
        runs = count_max_matching(monkeypatch)
        for g in (gen_complete(2), gen_gap_family(3), gen_tight_family(gen_complete(2))):
            solve_pair(g)
            alone = len(runs)
            report = analyze_graph(g, with_timings=False)
            assert report.lemmas.checked and not report.lemmas.failed
            assert len(runs) - alone <= alone
            runs.clear()
