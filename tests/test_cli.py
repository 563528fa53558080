from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twomatch import cli, reports
from twomatch.alternating import Verdict, verify_lemmas
from twomatch.cli import main
from twomatch.graph import (
    Graph,
    enumerate_graphs,
    gen_complete,
    gen_cycle,
    gen_gap_family,
    gen_random,
    gen_tight_family,
    to_edge_list,
)
from twomatch.graph6 import encode_graph6
from twomatch.pairs import PairResult, solve_pair

from conftest import fail_on, per_pair_trap


def cli_env() -> dict[str, str]:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def tight_k2_cycle_file(tmp_path):
    """Tight family on C4 (20 edges): pass 2 needs a search at any budget."""
    path = tmp_path / "tight_c4.txt"
    path.write_text(to_edge_list(gen_tight_family(gen_cycle(4))))
    return str(path)


@pytest.fixture()
def tight_k2_file(tmp_path):
    path = tmp_path / "tight_k2.txt"
    path.write_text(to_edge_list(gen_tight_family(gen_complete(2))))
    return str(path)


class TestSolve:
    def test_tight_k2_report(self, capsys, tight_k2_file):
        code, out, _ = run_cli(capsys, "solve", tight_k2_file, "--no-timings")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 4
        assert (doc["nu"], doc["lambda2"], doc["alpha2"]) == (5, 8, 4)
        assert doc["ratio"] == "5/4"
        assert doc["ratio_ok"] is True
        assert doc["lemmas"]["checked"] is True
        assert doc["lemmas"]["failed"] == 0
        assert "timings" not in doc

    def test_p4_from_stdin(self, capsys, tmp_path, monkeypatch):
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO("0 1\n1 2\n2 3\n"))
        code, out, _ = run_cli(capsys, "solve", "-", "--no-timings")
        assert code == 0
        doc = json.loads(out)
        assert (doc["nu"], doc["lambda2"], doc["alpha2"]) == (2, 3, 2)

    def test_empty_graph(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("n 4\n")
        code, out, _ = run_cli(capsys, "solve", str(path), "--no-timings")
        assert code == 0
        doc = json.loads(out)
        assert (doc["nu"], doc["alpha2"]) == (0, 0)
        assert doc["ratio"] is None
        assert doc["ratio_ok"] is True

    def test_graph6_input(self, capsys, tmp_path):
        g = gen_random(7, 0.5, 11)
        path = tmp_path / "g.g6"
        path.write_text(encode_graph6(g) + "\n")
        code, out, _ = run_cli(
            capsys, "solve", str(path), "--format", "graph6", "--no-timings"
        )
        assert code == 0
        assert json.loads(out)["n"] == 7

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n1 1\n")
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("text", ["0 99999999999\n", "n 99999999999\n"])
    def test_vertex_count_above_the_ceiling_exit_2(self, capsys, monkeypatch, text):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run_cli(capsys, "solve", "-")
        assert (code, out) == (2, "")
        assert err.startswith("error: line 1: ") and "ceiling of 258047" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "solve", "/nonexistent/file.txt")
        assert code == 2

    def test_budget_exit_3(self, capsys, tight_k2_file):
        code, out, _ = run_cli(
            capsys, "solve", tight_k2_file, "--node-budget", "5", "--no-timings"
        )
        assert code == 3
        assert json.loads(out)["status"] == "budget_exceeded"

    def test_budget_exceeded_has_no_ratio_verdict(self, capsys, tight_k2_cycle_file):
        code, out, _ = run_cli(
            capsys,
            "solve",
            tight_k2_cycle_file,
            "--node-budget",
            "5",
            "--skip-lemmas",
            "--no-timings",
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["status"] == "budget_exceeded"
        assert doc["ratio"] is None
        assert doc["ratio_ok"] is None
        code, out, _ = run_cli(
            capsys,
            "solve",
            tight_k2_cycle_file,
            "--node-budget",
            "5",
            "--output",
            "csv",
            "--no-timings",
        )
        assert code == 3
        row = out.strip().splitlines()[1].split(",")
        assert row[6:9] == ["", "", "budget_exceeded"]  # ratio, ratio_ok, status

    def test_budget_exceeded_has_no_gap(self, capsys, tmp_path):
        # Stopped after one node, the best pair found has alpha2 = 6 < nu = 7,
        # but the certified alpha2 is 7: the gap is 0, not the 1 that pair
        # would report.
        path = tmp_path / "random16.txt"
        path.write_text(to_edge_list(gen_random(16, 0.2, 180)))
        code, out, _ = run_cli(
            capsys, "solve", str(path), "--node-budget", "1", "--skip-lemmas", "--no-timings"
        )
        assert code == 3
        doc = json.loads(out)
        assert (doc["status"], doc["nu"], doc["alpha2"]) == ("budget_exceeded", 7, 6)
        assert doc["nu_minus_alpha2"] is None
        code, out, _ = run_cli(capsys, "solve", str(path), "--skip-lemmas", "--no-timings")
        assert code == 0
        doc = json.loads(out)
        assert (doc["status"], doc["alpha2"], doc["nu_minus_alpha2"]) == ("ok", 7, 0)

    def test_certified_by_names_the_route(self, capsys, tmp_path, tight_k2_cycle_file):
        # gap 10 meets its caps; tight 8 (alpha2 32 < nu 40) goes to the
        # dynamic program; this G(24, 0.15) graph's vertex order is too
        # wide for it, so branch and bound certifies it.
        for argv, route in (
            (("gap", "10"), "caps"),
            (("tight", "8"), "dp"),
            (("random", "24", "0.15", "--seed", "196"), "search"),
        ):
            code, out, _ = run_cli(capsys, "generate", *argv)
            assert code == 0
            path = tmp_path / f"{argv[0]}.txt"
            path.write_text(out)
            code, out, _ = run_cli(capsys, "solve", str(path), "--skip-lemmas", "--no-timings")
            assert code == 0
            doc = json.loads(out)
            assert (doc["status"], doc["certified_by"]) == ("ok", route)
        code, out, _ = run_cli(
            capsys, "solve", tight_k2_cycle_file, "--node-budget", "5", "--skip-lemmas", "--no-timings"
        )
        assert code == 3
        assert json.loads(out)["certified_by"] is None

    def test_negative_node_budget_is_a_usage_error(self, capsys, tmp_path):
        # Even the caps' zero nodes pass a budget of -1, so a graph the caps
        # certify would read budget_exceeded.  A budget of 0 stays valid:
        # the root caps only.
        _, text, _ = run_cli(capsys, "generate", "gap", "10")
        path = tmp_path / "gap10.txt"
        path.write_text(text)
        for argv in (["solve", str(path)], ["census", "--exhaustive", "3"]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--node-budget", "-1", "--no-timings"])
            assert exc.value.code == 2
            assert "--node-budget" in capsys.readouterr().err
        code, out, _ = run_cli(
            capsys, "solve", str(path), "--node-budget", "0", "--skip-lemmas", "--no-timings"
        )
        assert code == 0
        doc = json.loads(out)
        assert (doc["status"], doc["certified_by"], doc["solver_nodes"]) == ("ok", "caps", 0)

    def test_two_graph6_lines_are_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "two.g6"
        path.write_text(encode_graph6(gen_complete(2)) + "\n" + encode_graph6(gen_complete(3)) + "\n")
        code, out, err = run_cli(capsys, "solve", str(path), "--format", "graph6")
        assert (code, out) == (2, "")
        assert err == "error: expected exactly one graph6 line, got 2\n"

    def test_node_budget_must_be_an_integer(self, capsys, tight_k2_file):
        with pytest.raises(SystemExit) as exc:
            main(["solve", tight_k2_file, "--node-budget", "1e6"])
        assert exc.value.code == 2
        assert "--node-budget: expected an integer, got '1e6'" in capsys.readouterr().err

    def test_timings(self, capsys, tight_k2_file):
        code, out, _ = run_cli(capsys, "solve", tight_k2_file)
        assert code == 0
        timings = json.loads(out)["timings"]
        assert sorted(timings) == ["lemmas", "pair_solver"]
        assert all(t >= 0 for t in timings.values())

    def test_csv_output(self, capsys, tight_k2_file):
        code, out, _ = run_cli(
            capsys, "solve", tight_k2_file, "--output", "csv", "--no-timings"
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("source,n,m,nu,lambda2,alpha2")
        assert ",5,8,4," in row


class TestCensus:
    def test_exhaustive_n4(self, capsys):
        code, out, _ = run_cli(
            capsys, "census", "--exhaustive", "4", "--no-timings"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "census_summary"
        assert doc["count"] == 64
        assert doc["failures"] == []
        assert doc["max_ratio"] == "1/1"  # no n<=4 graph is ratio-tight

    def test_exhaustive_n5_with_lemmas(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--exhaustive", "5", "--no-timings")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 1024
        assert doc["failures"] == []
        assert doc["lemma_checked"] == 1024
        num, den = map(int, doc["max_ratio"].split("/"))
        assert 4 * num <= 5 * den

    def test_byte_stable_output(self, capsys):
        _, out1, _ = run_cli(capsys, "census", "--exhaustive", "3", "--no-timings")
        _, out2, _ = run_cli(capsys, "census", "--exhaustive", "3", "--no-timings")
        assert out1 == out2

    def test_solve_byte_stable(self, capsys, tight_k2_file):
        _, out1, _ = run_cli(capsys, "solve", tight_k2_file, "--no-timings")
        _, out2, _ = run_cli(capsys, "solve", tight_k2_file, "--no-timings")
        assert out1 == out2

    def test_exhaustive_n5_csv_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--exhaustive", "5", "--no-timings", "--output", "csv")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a734531e71ef06870b8c703f2d943b4462cb98b7996c48f805b60637b91f0b61"
        )

    def test_exhaustive_item_is_graph_i(self):
        # Each graph is built once, in the worker, from its index.
        for n in range(6):
            _, count, item = cli._census_corpus(cli.build_parser().parse_args(["census", "--exhaustive", str(n)]))
            graphs = list(enumerate_graphs(n))
            assert count == len(graphs)
            assert [item(i) for i in range(count)] == [(f"n{n}#{i}", g) for i, g in enumerate(graphs)]

    @pytest.mark.parametrize(
        "g, digest",
        [
            (gen_tight_family(gen_cycle(4)), "2442d5a20aeb2f782e7d3985796c04b342e286590fe1163f2db607074cd101d7"),
            (gen_gap_family(3), "02688e50432cc13c754d1fc75aa8fa4a44953a752d4d0ddf718b7031258fbd74"),
            (per_pair_trap(), "b679a3b8ae46609738f49b525313ca91a35ee114e8eff6946ac2cd0fa4022e5b"),
        ],
        ids=["tight2", "gap3", "per_pair_trap"],
    )
    def test_solve_pinned(self, capsys, monkeypatch, g, digest):
        monkeypatch.setattr(sys, "stdin", io.StringIO(to_edge_list(g)))
        code, out, _ = run_cli(capsys, "solve", "-", "--no-timings")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, code, digest",
        [
            (["--skip-lemmas"], 0, "4fbc3fb7f8bc505c01a85b3eaa5eb584615f979845c1f47fdd83ae676cc46d5d"),
            (["--skip-lemmas", "--output", "csv"], 0, "06612cbb5e88b1414c5c20217a503fc28d8cc2da5ec6012e1afbe29820cdcdb6"),
            (["--node-budget", "5"], 3, "0a5237fe809ca75c098fc2c06c8a986792a1e27036e31a6d170d89dd6628bffc"),
            (["--node-budget", "5", "--output", "csv"], 3, "bc86d7a0fd9bd1ff8a2bd72edaf1002ad7b80594e986f173d592a12a989527f4"),
        ],
        ids=["skipped-json", "skipped-csv", "budget-json", "budget-csv"],
    )
    def test_solve_uncertified_or_unchecked_pinned(self, capsys, monkeypatch, argv, code, digest):
        # Lemmas skipped as "disabled", or as "budget exceeded" with a null
        # ratio verdict: the rows test_solve_pinned does not reach.
        monkeypatch.setattr(sys, "stdin", io.StringIO(to_edge_list(gen_tight_family(gen_cycle(4)))))
        got, out, _ = run_cli(capsys, "solve", "-", "--no-timings", *argv)
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_pooled_census_csv_pinned(self, capsys):
        # These rows come back from a forked child by marshal.
        argv = ["census", "--random", "9", "0.4", "200", "--seed", "3", "--jobs", "2"]
        code, out, _ = run_cli(capsys, *argv, "--no-timings", "--output", "csv")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "1b7e927e33852cc57917d83b4b5ca20f833a93262b1da3f1b6be99b34bcd9df1"
        )

    def test_jobs_match_serial(self, capsys, tmp_path):
        # Generated graphs are built in the children from their recipes,
        # read ones as (Graph, (n, edges)); every job count must give the
        # serial bytes, also with fewer graphs than jobs, or none.
        path = tmp_path / "corpus.g6"
        path.write_text("".join(encode_graph6(gen_random(4 + s % 5, 0.4, s)) + "\n" for s in range(30)))
        corpora = [
            (["--exhaustive", "3"], ("2", "3")),
            (["--random", "7", "0.5", "200", "--seed", "5"], ("2", "3")),
            (["--family", "tight", "--k-range", "1:3"], ("2", "3")),
            (["--input", str(path), "--format", "graph6"], ("2", "3")),
            (["--family", "tight", "--k-range", "1:1"], ("4",)),
            (["--random", "7", "0.5", "0"], ("2",)),
        ]
        for corpus, jobs in corpora:
            for output in ("json", "csv"):
                argv = ["census", *corpus, "--output", output, "--no-timings"]
                serial = run_cli(capsys, *argv, "--jobs", "1")
                assert serial[0] == 0
                for j in jobs:
                    assert run_cli(capsys, *argv, "--jobs", j) == serial

    def test_an_error_in_a_child_exits_2(self, capsys, monkeypatch):
        fail_on(monkeypatch, "gap(k=3)", "planted failure")  # the second graph: a child's
        argv = ["census", "--family", "gap", "--k-range", "2:5", "--jobs", "2"]
        assert run_cli(capsys, *argv) == (2, "", "error: planted failure\n")

    def test_family_gap(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "census",
            "--family",
            "gap",
            "--k-range",
            "2:5",
            "--output",
            "csv",
            "--no-timings",
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 4
        for k, row in zip(range(2, 6), rows):
            cells = row.split(",")
            assert int(cells[3]) == k  # nu
            assert int(cells[4]) == k + 1  # lambda2
            assert int(cells[5]) == k  # alpha2

    def test_family_tight_hits_the_bound(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "census",
            "--family",
            "tight",
            "--k-range",
            "1:2",
            "--no-timings",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["max_ratio"] == "5/4"
        assert doc["failures"] == []

    def test_budget_exceeded_rows_left_out_of_aggregates(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "census",
            "--family",
            "tight",
            "--k-range",
            "2:2",
            "--node-budget",
            "5",
            "--no-timings",
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["gap_histogram"] == {}
        assert doc["budget_exceeded"] == 1
        assert doc["failures"] == []

    def test_broken_pipe_exits_141_quietly(self):
        self.check_broken_pipe("1")

    def test_broken_pipe_exits_141_quietly_at_jobs_2(self):
        self.check_broken_pipe("2")

    def check_broken_pipe(self, jobs: str) -> None:
        # Far more than a pipe buffer of CSV: the write after the reader
        # closes fails every time.
        argv = ["census", "--random", "7", "0.5", "3000", "--skip-lemmas", "--output", "csv", "--jobs", jobs]
        proc = subprocess.Popen(
            [sys.executable, "-m", "twomatch", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=cli_env(),
        )
        assert proc.stdout.readline().startswith(b"source,")
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 141
        assert err == b""

    def test_random_corpus(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "census",
            "--random",
            "7",
            "0.3",
            "12",
            "--seed",
            "5",
            "--no-timings",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 12

    def test_negative_count_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "census", "--random", "7", "0.3", "-1")
        assert code == 2
        assert out == ""
        assert "COUNT" in err

    @pytest.mark.parametrize("count", ["0", "2"])
    @pytest.mark.parametrize(
        "n, p, message",
        [
            ("7", "1.5", "error: edge probability 1.5 outside [0, 1]"),
            ("7", "-0.5", "error: edge probability -0.5 outside [0, 1]"),
            ("7", "nan", "error: edge probability nan outside [0, 1]"),
            ("-1", "0.5", "error: vertex count must be non-negative"),
        ],
    )
    def test_bad_random_parameters_are_usage_errors(self, capsys, monkeypatch, n, p, count, message):
        # Refused before any graph is built or a worker is forked, whatever COUNT.
        started = []
        monkeypatch.setattr(cli, "run_census", lambda *a, **k: started.append(a))
        code, out, err = run_cli(capsys, "census", "--random", n, p, count, "--jobs", "2")
        assert (code, out, err) == (2, "", message + "\n")
        assert started == []

    @pytest.mark.parametrize(
        "n, p, count, message",
        [
            ("x", "0.5", "3", "--random N must be an integer, got 'x'"),
            ("7", "x", "3", "--random P must be a number, got 'x'"),
            ("7", "0.5", "x", "--random COUNT must be an integer, got 'x'"),
            ("7", "0.5", "2.5", "--random COUNT must be an integer, got '2.5'"),
        ],
    )
    def test_bad_random_number_names_the_argument(self, capsys, n, p, count, message):
        code, out, err = run_cli(capsys, "census", "--random", n, p, count)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_a_usage_error(self, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["census", "--exhaustive", "3", "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_graph6_file_corpus(self, capsys, tmp_path):
        gs = [gen_random(6, 0.4, s) for s in range(8)]
        path = tmp_path / "corpus.g6"
        path.write_text("\n".join(encode_graph6(g) for g in gs) + "\n")
        code, out, _ = run_cli(
            capsys,
            "census",
            "--input",
            str(path),
            "--format",
            "graph6",
            "--no-timings",
        )
        assert code == 0
        assert json.loads(out)["count"] == 8

    def test_edge_list_file_corpus(self, capsys, tight_k2_file):
        code, out, _ = run_cli(capsys, "census", "--input", tight_k2_file, "--no-timings")
        assert code == 0
        doc = json.loads(out)
        assert (doc["corpus"], doc["count"]) == (f"file {tight_k2_file}", 1)
        assert (doc["max_ratio"], doc["max_ratio_source"]) == ("5/4", tight_k2_file)
        assert doc["lemma_checked"] == 1

    @pytest.mark.parametrize(
        "k_range, message",
        [("x", "bad k-range 'x', expected A:B"), ("3:2", "bad k-range '3:2', expected A <= B")],
    )
    def test_bad_k_range(self, capsys, k_range, message):
        code, out, err = run_cli(capsys, "census", "--family", "gap", "--k-range", k_range)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "corpus",
        [["--random", "7", "0.5", str(2**21 + 1)], ["--family", "gap", "--k-range", f"2:{2**21 + 2}"]],
    )
    def test_a_corpus_over_the_census_ceiling_exits_2(self, capsys, corpus):
        code, out, err = run_cli(capsys, "census", *corpus, "--skip-lemmas", "--output", "csv")
        assert (code, out, err) == (2, "", f"error: census of {2**21 + 1} graphs above the ceiling of {2**21}\n")

    def test_elapsed_seconds(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--exhaustive", "3")
        assert code == 0
        assert json.loads(out)["elapsed_seconds"] >= 0


def fake_pair(lambda2: int, alpha2: int, h, h_prime, nu: int):
    """A stand-in for ``solve_pair`` that reports the given pair as optimal."""
    return lambda g, node_budget: PairResult(
        lambda2, alpha2, frozenset(h), frozenset(h_prime), nu, "optimal", 0, "caps"
    )


def true_pair_with_nu(nu: int):
    """A stand-in for ``solve_pair`` that reports the true pair with the
    given nu."""
    return lambda g, node_budget: solve_pair(g, node_budget)._replace(nu=nu)


def failing_lemma(g, t, nu):
    """``verify_lemmas`` with the l4 check turned into a failure."""
    report = verify_lemmas(g, t, nu)
    report.checks["l4_smaller_side_size_identity"] = Verdict(False, "planted")
    return report


class TestCheckFailureExit1:
    """``solve`` and ``census`` share one failure rule, and exit 1 on it;
    ``verify-lemmas`` exits 1 on its solver cross-check."""

    P3 = [(0, 1), (1, 2), (2, 3)]
    TIGHT1 = sorted(gen_tight_family(gen_complete(2)).edges)
    MISMATCH = ("lemma", "solver_vs_enumeration_mismatch")
    # The solver misses lambda2 = 3 that the triple search finds.
    LAMBDA2_MISS = (P3, fake_pair(2, 2, [(0, 1), (2, 3)], [], 2))
    # The solver's pair is right and its nu is 4, not 5: a ratio of 1/1
    # that breaks no bound, caught by the triple's |m| alone.
    NU_MISS = (TIGHT1, true_pair_with_nu(4))

    @pytest.mark.parametrize(
        "edges, pair, lemmas, found",
        [
            # nu = 2 against alpha2 = 1: 4*nu > 5*alpha2; K2's nu is 1,
            # so the triple search disagrees too.
            ([(0, 1)], fake_pair(1, 1, [(0, 1)], [], 2), None,
             [("ratio_bound", "4*nu = 8 > 5*alpha2 = 5"), MISMATCH]),
            # alpha2 above nu, with the ratio bound holding; the triple
            # search disagrees on nu again.
            ([(0, 1)], fake_pair(1, 1, [(0, 1)], [], 0), None,
             [("report_invariant", "nu=0, alpha2=1, lambda2=1"), MISMATCH]),
            (P3, None, failing_lemma, [("lemma", "l4_smaller_side_size_identity")]),
            (*LAMBDA2_MISS, None, [MISMATCH]),
            (*NU_MISS, None, [MISMATCH]),
        ],
        ids=["ratio_bound", "report_invariant", "lemma", "solver_vs_enumeration_mismatch", "nu_mismatch"],
    )
    def test_solve_and_census(self, capsys, monkeypatch, tmp_path, edges, pair, lemmas, found):
        if pair is not None:
            monkeypatch.setattr(reports, "solve_pair", pair)
        if lemmas is not None:
            monkeypatch.setattr(reports, "verify_lemmas", lemmas)
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in edges))
        code, out, _ = run_cli(capsys, "solve", str(path), "--no-timings")
        assert code == 1, out
        code, out, _ = run_cli(capsys, "census", "--input", str(path), "--no-timings")
        assert code == 1
        failures = json.loads(out)["failures"]
        assert failures == [{"source": str(path), "kind": kind, "detail": detail} for kind, detail in found]

    @pytest.mark.parametrize(
        "edges, pair, solver, triple, stdin",
        [
            (*LAMBDA2_MISS, (2, 2, 2), (2, 3, 2), False),
            (*NU_MISS, (4, 8, 4), (5, 8, 4), False),
            (*NU_MISS, (4, 8, 4), (5, 8, 4), True),
        ],
        ids=["solver_vs_enumeration_mismatch", "nu_mismatch", "nu_mismatch_stdin"],
    )
    def test_verify_lemmas(self, capsys, monkeypatch, tmp_path, edges, pair, solver, triple, stdin):
        monkeypatch.setattr(reports, "solve_pair", pair)
        text = "".join(f"{u} {v}\n" for u, v in edges)
        if stdin:
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            path = "-"
        else:
            path = tmp_path / "g.txt"
            path.write_text(text)
        code, out, err = run_cli(capsys, "verify-lemmas", str(path))
        assert (code, out) == (1, "")
        assert err == (
            f"error: solver_vs_enumeration_mismatch: solver (nu, lambda2, alpha2) = {solver}, "
            f"triple (|M|, |H| + |H'|, |H|) = {triple}\n"
        )


class TestVerifyLemmas:
    def test_gap2_all_triples_pass(self, capsys, tmp_path):
        path = tmp_path / "gap2.txt"
        path.write_text(to_edge_list(gen_gap_family(2)))
        code, out, _ = run_cli(capsys, "verify-lemmas", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["triple_count"] >= 1
        assert (doc["nu"], doc["lambda2"], doc["alpha2"]) == (2, 3, 2)
        for triple in doc["triples"]:
            assert triple["ok"] is True

    def test_k2_degenerate(self, capsys, tmp_path):
        path = tmp_path / "k2.txt"
        path.write_text("0 1\n")
        code, out, _ = run_cli(capsys, "verify-lemmas", str(path))
        assert code == 0
        assert json.loads(out)["triple_count"] == 1

    def test_over_ceiling_refused(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text(to_edge_list(gen_tight_family(gen_cycle(4))))
        code, _, err = run_cli(capsys, "verify-lemmas", str(path))
        assert code == 2
        assert "ceiling" in err

    def test_tight_k2_reports_launched_paths(self, capsys, tmp_path):
        path = tmp_path / "tight.txt"
        path.write_text(to_edge_list(gen_tight_family(gen_complete(2))))
        code, out, _ = run_cli(capsys, "verify-lemmas", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        for triple in doc["triples"]:
            launched = triple["launched_paths"]
            assert launched["count"] == 2
            assert all(length >= 4 for length in launched["lengths"])

    def test_node_budget_is_not_an_option(self, capsys, tmp_path):
        path = tmp_path / "k2.txt"
        path.write_text("0 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["verify-lemmas", str(path), "--node-budget", "5"])
        assert exc.value.code == 2

    def test_no_timings_is_not_an_option(self, capsys, tmp_path):
        # The report has no timings to omit.
        path = tmp_path / "k2.txt"
        path.write_text("0 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["verify-lemmas", str(path), "--no-timings"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "spec, digest",
        [
            (["tight", "1"], "7dffa4512992b3a93dc36e4ee03ca058c7d11da69066a88232fb75220206a042"),
            (["gap", "4"], "3bef58957045395d1d6f7a40f9d6999510ece84f7e23918f04dcdaab71fba4f3"),
            (
                ["random", "8", "0.35", "--seed", "3"],
                "7c0eeb541c10662077d726cd95435aa181b13db852457825dad08014771b708d",
            ),
            (per_pair_trap(), "4b9628c831a1211c82d256cf5c775d1ea5004bacd523746ff825efe198b4a668"),
            (["gap", "3"], "d0c48c14efa0384f8a54adba0618a1744a64d14c71439a760de8f6e79dfc4b93"),
        ],
    )
    def test_every_triple_pinned(self, capsys, monkeypatch, spec, digest):
        # The report lists every maximizing triple with its checks, so this
        # pins the triple search's output and order byte for byte.  A spec
        # is the arguments of ``generate``, or a graph to read as it is.
        if isinstance(spec, Graph):
            text = to_edge_list(spec)
        else:
            _, text, _ = run_cli(capsys, "generate", *spec)
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run_cli(capsys, "verify-lemmas", "-")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestGenerate:
    def test_gap_roundtrip_through_solve(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "generate", "gap", "3")
        assert code == 0
        path = tmp_path / "gap3.txt"
        path.write_text(out)
        code, out, _ = run_cli(capsys, "solve", str(path), "--no-timings")
        assert code == 0
        doc = json.loads(out)
        assert (doc["nu"], doc["lambda2"], doc["alpha2"]) == (3, 4, 3)

    def test_graph6_output(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "complete", "4", "--format", "graph6")
        assert code == 0
        assert out.strip() == encode_graph6(gen_complete(4))

    def test_enumerate_needs_graph6(self, capsys):
        code, _, err = run_cli(capsys, "generate", "enumerate", "3")
        assert code == 2
        code, out, _ = run_cli(
            capsys, "generate", "enumerate", "3", "--format", "graph6"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 8

    def test_enumerate_prints_as_it_enumerates(self, capsys, monkeypatch):
        events = []

        def enumerate_logged(n):
            for g in enumerate_graphs(n):
                events.append("yield")
                yield g

        def encode_logged(g):
            events.append("encode")
            return encode_graph6(g)

        monkeypatch.setattr(cli, "enumerate_graphs", enumerate_logged)
        monkeypatch.setattr(cli, "encode_graph6", encode_logged)
        code, out, _ = run_cli(capsys, "generate", "enumerate", "3", "--format", "graph6")
        assert code == 0
        assert events == ["yield", "encode"] * 8

    def test_random_seeded(self, capsys):
        _, out1, _ = run_cli(capsys, "generate", "random", "8", "0.4", "--seed", "42")
        _, out2, _ = run_cli(capsys, "generate", "random", "8", "0.4", "--seed", "42")
        assert out1 == out2

    def test_cycle(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "cycle", "4")
        assert (code, out) == (0, to_edge_list(gen_cycle(4)))

    def test_missing_param(self, capsys):
        code, _, err = run_cli(capsys, "generate", "path")
        assert code == 2

    @pytest.mark.parametrize(
        "params, message",
        [
            (("path", "3", "9"), "generate path takes 1 parameter (N), got 2"),
            (("cycle", "4", "9"), "generate cycle takes 1 parameter (N), got 2"),
            (("complete", "4", "9"), "generate complete takes 1 parameter (N), got 2"),
            (("tight", "3", "extra"), "generate tight takes 1 parameter (K), got 2"),
            (("gap", "4", "9", "9"), "generate gap takes 1 parameter (K), got 3"),
            (("enumerate", "3", "9"), "generate enumerate takes 1 parameter (N), got 2"),
            (("random", "8", "0.4", "9"), "generate random takes 2 parameters (N P), got 3"),
        ],
    )
    def test_extra_params_are_refused(self, capsys, params, message):
        code, out, err = run_cli(capsys, "generate", *params, "--format", "graph6")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "params, message",
        [
            (("path", "x"), "generate path N must be an integer, got 'x'"),
            (("random", "8", "half"), "generate random P must be a number, got 'half'"),
        ],
    )
    def test_bad_number_names_the_parameter(self, capsys, params, message):
        code, out, err = run_cli(capsys, "generate", *params)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["census"])  # no corpus selected
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("generate", "tight", "0"), "tight family index must be at least 1"),
        (("census", "--family", "tight", "--k-range", "0:2"), "tight family index must be at least 1"),
        (("generate", "path", "-1"), "edge count must be non-negative"),
        (("generate", "complete", "-1"), "vertex count must be non-negative"),
        (("census", "--exhaustive", "-1"), "vertex count must be non-negative"),
        (("generate", "path", "258047"), "vertex count 258048 above the ceiling of 258047"),
        (("generate", "complete", "258048"), "vertex count 258048 above the ceiling of 258047"),
        (("generate", "tight", "25805"), "vertex count 258050 above the ceiling of 258047"),
        (("generate", "cycle", "258048"), "vertex count 258048 above the ceiling of 258047"),
        (("generate", "gap", "129024"), "vertex count 258049 above the ceiling of 258047"),
        (("census", "--random", "258048", "0.5", "1"), "vertex count 258048 above the ceiling of 258047"),
    ],
)
def test_out_of_range_number_is_a_usage_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


class TestStartup:
    """Every CLI call pays for what ``twomatch.cli`` imports."""

    #: Modules the CLI must not load at start: record decorators and their
    #: introspection, ``multiprocessing``, and rational numbers.
    HEAVY = {"dataclasses", "inspect", "multiprocessing", "fractions", "decimal"}

    def loaded(self, code: str) -> set[str]:
        script = f"import sys\n{code}\nprint(*sys.modules, sep='\\n')"
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=cli_env(), check=True
        ).stdout
        return set(out.split())

    def test_package_import_loads_no_submodule(self):
        added = self.loaded("import twomatch") - self.loaded("")
        assert {m for m in added if m.partition(".")[0] == "twomatch"} == {"twomatch"}

    def test_import_loads_no_heavy_module(self):
        added = self.loaded("import twomatch.cli") - self.loaded("")
        assert "twomatch.cli" in added
        assert not added & self.HEAVY, sorted(added & self.HEAVY)

    def test_forked_census_loads_no_pool(self):
        run = "from twomatch.cli import main\nmain(['census', '--random', '7', '0.5', '20', '--jobs', '2'])"
        added = self.loaded(run) - self.loaded("")
        assert "twomatch.reports" in added
        assert "multiprocessing" not in added
