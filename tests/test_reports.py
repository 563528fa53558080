from __future__ import annotations

import os
import pickle
import sys
import time
from fractions import Fraction

import pytest

from twomatch import matching, reports
from twomatch.graph import gen_complete, gen_gap_family, gen_path, gen_random, gen_tight_family
from twomatch.pairs import solve_pair
from twomatch.reports import GraphReport, analyze_graph, run_census, verify_graph

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
    monkeypatch.setattr(reports, "analyze_graph", lambda g, source, **kw: by_source[source])
    pairs = [(r.source, gen_path(r.n)) for r in rows]
    summary, _ = run_census(len(pairs), pairs.__getitem__, with_timings=False)
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
        pairs = [("gap", gen_gap_family(3)), ("tight", g)]
        summary, _ = run_census(len(pairs), pairs.__getitem__, corpus="mixed")
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
    def test_verify_graph_runs_no_blossom_beyond_solve_pairs(self, monkeypatch):
        g = gen_tight_family(gen_complete(2))
        runs = count_max_matching(monkeypatch)
        solve_pair(g)
        alone = len(runs)
        runs.clear()
        doc = verify_graph(g)
        assert len(doc["triples"]) == 4
        assert len(runs) == alone

    def test_lemma_path_adds_no_blossom_run(self, monkeypatch):
        runs = count_max_matching(monkeypatch)
        for g in (gen_complete(2), gen_gap_family(3), gen_tight_family(gen_complete(2))):
            solve_pair(g)
            alone = len(runs)
            report = analyze_graph(g, with_timings=False)
            assert report.lemmas_skipped is None and not report.lemma_failures
            assert len(runs) - alone <= alone
            runs.clear()


def path_item(i: int):
    """Graph i of a census corpus: the path with i edges."""
    return f"p{i}", gen_path(i)


class TestForkedCensus:
    """``run_census`` at ``jobs > 1``: forked children, rows back by pipe."""

    @pytest.mark.parametrize("jobs", [2, 3, 4])
    def test_rows_equal_the_serial_rows(self, jobs):
        # A count that the job count does not divide.
        pairs = [(f"r{s}", gen_random(6, 0.5, s)) for s in range(64 * jobs * 2 + 5)]
        serial = run_census(len(pairs), pairs.__getitem__, with_timings=False, lemmas=False)
        forked = run_census(len(pairs), pairs.__getitem__, jobs=jobs, with_timings=False, lemmas=False)
        assert forked == serial
        assert {type(r) for r in forked[1]} == {GraphReport}

    def test_a_lambda_item_gives_the_serial_rows(self):
        # Children inherit ``item``, nothing is pickled: a lambda will do.
        item = lambda i: (f"p{i}", gen_path(i))  # noqa: E731
        assert run_census(5, item, jobs=2, with_timings=False) == run_census(5, item, with_timings=False)

    def test_without_fork_one_process_does_every_job(self, monkeypatch):
        pairs = [(f"p{k}", gen_path(k)) for k in range(7)]
        serial = run_census(len(pairs), pairs.__getitem__, with_timings=False)
        monkeypatch.delattr(os, "fork")
        assert run_census(len(pairs), pairs.__getitem__, jobs=3, with_timings=False) == serial

    @pytest.mark.parametrize("jobs", [2, 3, 4])
    def test_a_child_exception_reaches_the_caller(self, monkeypatch, jobs):
        fail_on(monkeypatch, f"p{jobs - 1}", "no such path")  # the last child's first graph
        pairs = [(f"p{k}", gen_path(k)) for k in range(2 * jobs)]
        with pytest.raises(ValueError) as exc:
            run_census(len(pairs), pairs.__getitem__, jobs=jobs)
        assert type(exc.value) is ValueError
        assert str(exc.value) == "no such path"

    def test_a_parent_exception_leaves_no_child(self, monkeypatch):
        # Every graph but the parent's first sleeps far longer than the
        # test may take, so the children are still running at the raise.
        fail_on(monkeypatch, "p0", "first graph", others=lambda: time.sleep(60))
        pairs = [(f"p{k}", gen_path(k)) for k in range(6)]
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^first graph$"):
            run_census(len(pairs), pairs.__getitem__, jobs=3)
        assert time.perf_counter() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def placements(self, monkeypatch, tmp_path, allowed: set[int], jobs: int):
        """Run a census with ``allowed`` as the CPU set and a stand-in
        ``sched_setaffinity`` that only appends each call to a file, as
        the children inherit it; returns each pid's masks as sorted tuples."""
        log = tmp_path / "affinity.log"

        def record(pid, mask):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {','.join(map(str, sorted(mask)))}\n")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(allowed), raising=False)
        monkeypatch.setattr(os, "sched_setaffinity", record, raising=False)
        serial = run_census(7, path_item, with_timings=False)
        assert run_census(7, path_item, jobs=jobs, with_timings=False) == serial
        calls: dict[int, list[tuple[int, ...]]] = {}
        for line in log.read_text().splitlines() if log.exists() else ():
            pid, mask = line.split()
            calls.setdefault(int(pid), []).append(tuple(map(int, mask.split(","))))
        return calls

    def test_each_process_moves_to_its_own_cpu_and_restores_its_mask(self, monkeypatch, tmp_path):
        calls = self.placements(monkeypatch, tmp_path, {0, 1, 2, 3}, jobs=3)
        assert calls[os.getpid()] == [(0,), (0, 1, 2, 3)]  # the parent takes share 0
        assert sorted(calls.values()) == [[(k,), (0, 1, 2, 3)] for k in range(3)]

    def test_cpus_wrap_around_the_allowed_set(self, monkeypatch, tmp_path):
        calls = self.placements(monkeypatch, tmp_path, {0, 1}, jobs=5)
        assert calls[os.getpid()] == [(0,), (0, 1)]
        assert sorted(calls.values()) == [[(k % 2,), (0, 1)] for k in (0, 2, 4, 1, 3)]

    @pytest.mark.parametrize("allowed, jobs", [({0, 1, 2, 3}, 1), ({5}, 3)])
    def test_no_move_at_one_job_or_one_cpu(self, monkeypatch, tmp_path, allowed, jobs):
        assert self.placements(monkeypatch, tmp_path, allowed, jobs=jobs) == {}

    @pytest.mark.parametrize("missing", [False, True])
    def test_a_refused_or_missing_move_gives_the_serial_rows(self, monkeypatch, missing):
        def refuse(pid, mask):
            raise OSError(22, "Invalid argument")

        if missing:  # as on macOS
            monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        serial = run_census(7, path_item, with_timings=False)
        assert run_census(7, path_item, jobs=3, with_timings=False) == serial

    def test_the_callers_mask_is_unchanged(self):
        before = os.sched_getaffinity(0)
        run_census(6, path_item, jobs=2, with_timings=False)
        assert os.sched_getaffinity(0) == before

    def test_a_child_that_dies_is_an_error(self, monkeypatch):
        # As a child killed from outside would: it ends without its rows.
        real, parent = reports.analyze_graph, os.getpid()

        def patched(g, src="", **kw):
            if src == "p1" and os.getpid() != parent:
                os._exit(1)
            return real(g, src, **kw)

        monkeypatch.setattr(reports, "analyze_graph", patched)
        pairs = [(f"p{k}", gen_path(k)) for k in range(4)]
        with pytest.raises(ChildProcessError, match="ended before sending all its rows"):
            run_census(len(pairs), pairs.__getitem__, jobs=2)


class TestCensusCeiling:
    def test_a_count_above_the_ceiling_is_refused_before_any_graph(self):
        made = []
        item = lambda i: made.append(i) or (f"p{i}", gen_path(1))  # noqa: E731
        with pytest.raises(ValueError, match=f"^census of {2**21 + 1} graphs above the ceiling of {2**21}$"):
            run_census(reports.MAX_CENSUS_GRAPHS + 1, item, jobs=2)
        assert made == []
        assert reports.MAX_CENSUS_GRAPHS == 2**21  # the --exhaustive 7 corpus
