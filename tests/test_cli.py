from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twomatch import (
    encode_graph6,
    gen_complete,
    gen_cycle,
    gen_gap_family,
    gen_random,
    gen_tight_family,
    to_edge_list,
)
from twomatch.cli import main


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

    def test_jobs_match_serial(self, capsys):
        serial = run_cli(capsys, "census", "--exhaustive", "3", "--no-timings")
        parallel = run_cli(capsys, "census", "--exhaustive", "3", "--jobs", "2", "--no-timings")
        assert serial[0] == 0
        assert serial == parallel

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
        # Far more than a pipe buffer of CSV: the write after the reader
        # closes fails every time.
        argv = ["census", "--random", "7", "0.5", "3000", "--skip-lemmas", "--output", "csv"]
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
        ],
    )
    def test_every_triple_pinned(self, capsys, monkeypatch, spec, digest):
        # The report lists every maximizing triple with its checks, so this
        # pins the triple search's output and order byte for byte.
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

    def test_random_seeded(self, capsys):
        _, out1, _ = run_cli(capsys, "generate", "random", "8", "0.4", "--seed", "42")
        _, out2, _ = run_cli(capsys, "generate", "random", "8", "0.4", "--seed", "42")
        assert out1 == out2

    def test_missing_param(self, capsys):
        code, _, err = run_cli(capsys, "generate", "path")
        assert code == 2


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["census"])  # no corpus selected
    assert exc.value.code == 2


class TestStartup:
    """Every CLI call pays for what ``twomatch.cli`` imports."""

    #: Modules the CLI must not load at start: record decorators and their
    #: introspection, the process pool, and rational numbers.
    HEAVY = {"dataclasses", "inspect", "multiprocessing", "fractions", "decimal"}

    def loaded(self, code: str) -> set[str]:
        script = f"import sys\n{code}\nprint(*sys.modules, sep='\\n')"
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=cli_env(), check=True
        ).stdout
        return set(out.split())

    def test_import_loads_no_heavy_module(self):
        added = self.loaded("import twomatch.cli") - self.loaded("")
        assert "twomatch.cli" in added
        assert not added & self.HEAVY, sorted(added & self.HEAVY)
