from __future__ import annotations

import os
import pickle
import sys
import time
from fractions import Fraction

import pytest

from twomatch import (
    Graph,
    GraphReport,
    analyze_graph,
    gen_complete,
    gen_gap_family,
    gen_path,
    gen_random,
    gen_tight_family,
    run_census,
    solve_pair,
    verify_graph,
)
from twomatch import matching, reports

from conftest import fail_on


def row(source: str, nu: int, alpha2: int, status: str = "ok") -> GraphReport:
    """A report with the given optima, as ``run_census`` aggregates it."""
    return GraphReport(
        source=source,
        n=2 * nu,
        m=nu + alpha2,
        nu=nu,
        lambda2=2 * alpha2,
        alpha2=alpha2,
        status=status,
        solver_nodes=0,
        certified_by="caps" if status == "ok" else None,
        lemmas_skipped="disabled",
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

    def test_verdict_follows_the_row_optima(self):
        broken = row("broken", 5, 3)
        assert (broken.ratio, broken.ratio_ok) == ("5/3", False)
        assert [f["kind"] for f in broken.failures()] == ["ratio_bound"]
        stuck = row("stuck", 5, 3, status="budget_exceeded")
        assert (stuck.ratio, stuck.ratio_ok) == (None, None)
        assert stuck.failures() == []

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
            assert report.lemmas_skipped is None and not report.lemma_failures
            assert len(runs) - alone <= alone
            runs.clear()


class TestForkedCensus:
    """``run_census`` at ``jobs > 1``: forked children, rows back by pipe."""

    @pytest.mark.parametrize("jobs", [2, 3, 4])
    def test_rows_equal_the_serial_rows(self, jobs):
        # More graphs than one batch per process, and a count no job count divides.
        items = [(f"r{s}", gen_random, (6, 0.5, s)) for s in range(64 * jobs * 2 + 5)]
        serial = run_census(items, with_timings=False, lemmas=False)
        forked = run_census(items, jobs=jobs, with_timings=False, lemmas=False)
        assert forked == serial
        assert {type(r) for r in forked[1]} == {GraphReport}

    def test_any_callable_makes_the_graph(self):
        # Recipes are inherited, not pickled: a lambda is a recipe too.
        items = [(f"p{k}", lambda k: gen_path(k), (k,)) for k in range(5)]
        assert run_census(items, jobs=2, with_timings=False) == run_census(items, with_timings=False)

    @pytest.mark.parametrize("jobs", [2, 3, 4])
    def test_a_child_exception_reaches_the_caller(self, monkeypatch, jobs):
        fail_on(monkeypatch, f"p{jobs - 1}", "no such path")  # the last child's first graph
        items = [(f"p{k}", gen_path, (k,)) for k in range(2 * jobs)]
        with pytest.raises(ValueError) as exc:
            run_census(items, jobs=jobs)
        assert type(exc.value) is ValueError
        assert str(exc.value) == "no such path"

    def test_a_parent_exception_leaves_no_child(self, monkeypatch):
        # Every graph but the parent's first sleeps far longer than the
        # test may take, so the children are still running at the raise.
        fail_on(monkeypatch, "p0", "first graph", others=lambda: time.sleep(60))
        items = [(f"p{k}", gen_path, (k,)) for k in range(6)]
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^first graph$"):
            run_census(items, jobs=3)
        assert time.perf_counter() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_child_that_dies_is_an_error(self, monkeypatch):
        # As a child killed from outside would: it ends without its rows.
        real, parent = reports.analyze_graph, os.getpid()

        def patched(g, src="", **kw):
            if src == "p1" and os.getpid() != parent:
                os._exit(1)
            return real(g, src, **kw)

        monkeypatch.setattr(reports, "analyze_graph", patched)
        items = [(f"p{k}", gen_path, (k,)) for k in range(4)]
        with pytest.raises(ChildProcessError, match="ended before sending all its rows"):
            run_census(items, jobs=2)
