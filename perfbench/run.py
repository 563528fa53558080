"""The twomatch benchmark: seeded workloads through the real CLI.

    python3 perfbench/run.py --workload census-lemmas --seed 1 --seconds 30 --trace 0

Run from the repository root.  The benchmark builds its inputs from
``--seed``, computes reference answers, then runs ``python3 -m twomatch``
in a closed loop with one client for ``--seconds`` and checks every
answer.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 1``
replays the same inputs in-process instead, once without and once with
spans around each module's public functions, and reports per-layer
metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

from inputs import Instance, edge_list, encode_graph6, gap, gnp, perturbed_tight, random_small, relabel, tight
from reference import PAIR_ORACLE_MAX_EDGES, Outcome, Ref, check_census, check_solve, reference
from spans import Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
SOLVE_BUDGET = "2000000"
ONE_EDGE = Instance("one-edge", 2, frozenset({(0, 1)}))


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the graphs it reports on, in output order."""

    argv: tuple[str, ...]
    instances: tuple[Instance, ...]
    refs: tuple[Ref, ...]
    lemmas: bool = True

    @property
    def jobs(self) -> int:
        return int(self.argv[self.argv.index("--jobs") + 1]) if "--jobs" in self.argv else 1

    def serial(self) -> "Call":
        if self.jobs == 1:
            return self
        at = self.argv.index("--jobs") + 1
        return replace(self, argv=self.argv[:at] + ("1",) + self.argv[at + 1 :])

    def check(self, code: int | None, stdout: str, stderr: str) -> Outcome:
        if self.argv[0] == "solve":
            return check_solve(self.instances[0], self.refs[0], code, stdout, stderr)
        return check_census(list(self.instances), list(self.refs), self.lemmas, code, stdout, stderr)


@dataclass(frozen=True)
class Workload:
    calls: list[Call]
    #: Stop only between passes, so every run attempts whole passes and
    #: its shares are a function of the seed alone.
    whole_passes: bool
    trace_repeats: int = 1


def _census_call(argv: list[str], graphs: list[tuple[Instance, Ref]], lemmas: bool = True) -> Call:
    return Call(tuple(argv), tuple(i for i, _ in graphs), tuple(r for _, r in graphs), lemmas)


def census_lemmas(seed: int, work: Path, tiny: bool) -> Workload:
    """Random graphs with 7-12 vertices and 8-14 edges; a tenth of the slots
    are tight(1) copies kept only where the reference finds gap > 0."""
    rng = random.Random(f"census-lemmas/{seed}")
    size, chunk = (20, 10) if tiny else (1200, 100)
    graphs = []
    for i in range(size - size // 10):
        inst = Instance(f"small-{i}", *random_small(rng))
        graphs.append((inst, reference(inst)))
    for i in range(size // 10):
        while True:
            inst = Instance(f"tight1-copy-{i}", *perturbed_tight(rng))
            ref = reference(inst)
            if ref.gap:
                break
        graphs.append((inst, ref))
    rng.shuffle(graphs)
    calls = []
    for k in range(0, size, chunk):
        part = graphs[k : k + chunk]
        path = work / f"census-lemmas-{k // chunk}.g6"
        path.write_text("".join(encode_graph6(i.n, i.edges) + "\n" for i, _ in part))
        calls.append(_census_call(["census", "--input", str(path), "--format", "graph6", "--output", "csv"], part))
    return Workload(calls, whole_passes=False)


def census_sweep(seed: int, work: Path, tiny: bool) -> Workload:
    """One ``census --random 7 0.5 COUNT`` corpus, swept again on each call."""
    count = 200 if tiny else 3000
    first = seed * count
    graphs = []
    for s in range(first, first + count):
        inst = Instance(f"random(n=7,p=0.5,seed={s})", 7, gnp(7, 0.5, s))
        graphs.append((inst, reference(inst)))
    argv = ["census", "--random", "7", "0.5", str(count), "--seed", str(first)]
    argv += ["--skip-lemmas", "--jobs", "2", "--output", "csv"]
    return Workload([_census_call(argv, graphs, lemmas=False)], whole_passes=False, trace_repeats=4)


def solve_hard(seed: int, work: Path, tiny: bool) -> Workload:
    """G(16, 0.3) and G(20, 0.15) on graph seeds 0-19, relabeled by the
    benchmark seed, plus the extremal families; one ``solve`` per graph."""
    rng = random.Random(f"solve-hard/{seed}")
    instances = []
    for n, p in ((16, 0.3), (20, 0.15)):
        for s in range(1 if tiny else 20):
            instances.append(Instance(f"gnp-{n}-{p}-s{s}", n, relabel(n, gnp(n, p, s), rng)))
    instances += [tight(k) for k in ((2,) if tiny else (2, 4, 8, 16, 60, 100))]
    instances += [gap(k) for k in ((10,) if tiny else (10, 100, 600))]
    rng.shuffle(instances)
    calls = []
    for inst in instances:
        path = work / f"{inst.name}.txt"
        path.write_text(edge_list(inst.n, inst.edges))
        calls.append(Call(("solve", str(path), "--node-budget", SOLVE_BUDGET), (inst,), (reference(inst),)))
    return Workload(calls, whole_passes=True)


WORKLOADS = {"census-lemmas": census_lemmas, "census-sweep": census_sweep, "solve-hard": solve_hard}


def run_cli(call: Call, work: Path) -> tuple[float, Outcome, float]:
    """Run one CLI call; wall seconds, checked outcome, peak RSS in MB of
    the largest process in its tree (the call and its waited-for workers)."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "twomatch", *call.argv], stdout=out, stderr=err, env=CLI_ENV)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    outcome = call.check(proc.returncode, out_path.read_text(), err_path.read_text())
    return wall, outcome, usage.ru_maxrss / 1024


def one_edge_call(work: Path, fmt: str = "edgelist") -> Call:
    if fmt == "graph6":
        path = work / "one-edge.g6"
        path.write_text(encode_graph6(ONE_EDGE.n, ONE_EDGE.edges) + "\n")
        argv = ("census", "--input", str(path), "--format", "graph6", "--output", "csv")
    else:
        path = work / "one-edge.txt"
        path.write_text(edge_list(ONE_EDGE.n, ONE_EDGE.edges))
        argv = ("solve", str(path))
    return Call(argv, (ONE_EDGE,), (reference(ONE_EDGE),))


def measure(workload: Workload, seconds: float, work: Path, outcome: Outcome, setup_outcome: Outcome) -> dict:
    """Closed loop, one client: call after call until ``seconds`` pass.

    After each call, one ``solve`` of a one-edge graph is timed for
    setup_s, so its median spans the same window as the other metrics.
    ``outcome`` gets the workload's calls only, ``setup_outcome`` the rest.
    """
    setup = one_edge_call(work)
    setup_outcome.add(run_cli(setup, work)[1])  # warm-up: fills the bytecode cache
    walls, rss, setup_walls = [], [], []
    ok_graphs = 0
    start = perf_counter()
    done = False
    while not done:
        pass_start = perf_counter()
        for call in workload.calls:
            wall, result, mb = run_cli(call, work)
            outcome.add(result)
            ok_graphs += result.attempted - result.failed
            walls.append(float("inf") if result.failed else wall)
            rss.append(mb)
            wall, result, _ = run_cli(setup, work)
            setup_outcome.add(result)
            setup_walls.append(wall)
            if not workload.whole_passes and perf_counter() - start >= seconds:
                done = True
                break
        now = perf_counter()
        # Start another whole pass only if it should end within the window.
        if workload.whole_passes and (now - start) + (now - pass_start) > seconds:
            done = True
    busy = sum(w for w in walls if w != float("inf"))
    ordered = sorted(walls)
    tail_at = max(len(ordered) - 11, 0)
    tail_pct = 100 * (tail_at + 1) / len(ordered)
    print(f"calls: {len(walls)}; call_tail_s is p{tail_pct:.1f} ({len(walls) - tail_at - 1} calls beyond it)")

    def pick(value: float) -> float:
        # A failed call ranks as infinitely slow; a percentile that lands
        # on one reads as the whole window.
        return seconds if value == float("inf") else value

    return {
        "setup_s": (statistics.median(setup_walls), "s"),
        "graphs_per_s": (ok_graphs / busy if busy else 0.0, "1/s"),
        "call_p50_s": (pick(ordered[(len(ordered) - 1) // 2]), "s"),
        "call_tail_s": (pick(ordered[tail_at]), "s"),
        "certified_share": (outcome.certified / max(outcome.attempted, 1), "ratio"),
        "peak_rss_mb": (max(rss), "MB"),
    }


def run_inprocess(call: Call) -> tuple[int | None, str, str]:
    from twomatch import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(call.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = None
            traceback.print_exc()
    return code, out.getvalue(), err.getvalue()


def replay(calls: list[Call], tracers: list[Tracer], outcome: Outcome) -> list[float]:
    """Run each call in-process once under each tracer, alternating which
    goes first, so that drift in machine speed hits every tracer alike.
    Returns wall seconds per tracer; outputs are checked after the clocks
    stop."""
    walls = [0.0] * len(tracers)
    results = []
    for k, call in enumerate(calls):
        order = list(range(len(tracers)))
        for i in order if k % 2 == 0 else order[::-1]:
            tracers[i].install()
            try:
                start = perf_counter()
                results.append((call, run_inprocess(call)))
                walls[i] += perf_counter() - start
            finally:
                tracers[i].uninstall()
    for call, result in results:
        outcome.add(call.check(*result))
    return walls


def traced(workload: Workload, work: Path, outcome: Outcome, spans_path: Path) -> dict:
    """Per-layer metrics from an in-process replay at --jobs 1.

    Each call of the replay runs twice, untraced and traced; the traced
    wall minus the untraced wall is the tracing overhead.  The replay
    starts with three one-edge probe calls (``solve``, a graph6 census, a
    one-graph random census) so every layer runs on every workload, and so
    ``cli.main.one_edge_s`` can be set against setup_s.  Census wall time
    at the workload's own --jobs is timed around ``run_census`` alone, in
    the untraced run when that is already at those --jobs, else in one
    more replay.
    """
    probe = [one_edge_call(work), one_edge_call(work, "graph6")]
    probe.append(Call(("census", "--random", "2", "1.0", "1", "--output", "csv"), (ONE_EDGE,), probe[0].refs))
    calls = probe + workload.calls * workload.trace_repeats
    serial = [call.serial() for call in calls]

    census_timer, tracer = Tracer(["reports.run_census"]), Tracer()
    if serial != calls:
        replay(calls, [census_timer], outcome)
        untraced_wall, traced_wall = replay(serial, [Tracer([]), tracer], outcome)
    else:
        untraced_wall, traced_wall = replay(serial, [census_timer, tracer], outcome)
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)

    expected_content = sum(
        1
        for call in serial
        if call.lemmas
        for inst, ref in zip(call.instances, call.refs)
        if ref.gap and len(inst.edges) <= PAIR_ORACLE_MAX_EDGES
    )
    content = tracer.counts["alternating.content_graphs"]
    if content != expected_content:
        outcome.wrong.append(f"lemmas checked with content on {content} graphs, reference expects {expected_content}")
    print(f"alternating.content_graphs {content} (reference expects {expected_content})")

    metrics = tracer.layer_metrics()
    solve_busy = metrics["pairs.solve_pair.busy_s"][0]
    metrics["pairs.solve_pair.nodes_per_s"] = (metrics["pairs.solve_pair.nodes"][0] / solve_busy, "1/s")
    census_walls = [end - start for _, start, end, _ in census_timer.spans]
    census_calls = [call for call in calls if call.argv[0] == "census"]
    capacity = sum(call.jobs * wall for call, wall in zip(census_calls, census_walls))
    spans = tracer.spans
    in_census = sum(
        end - start
        for name, start, end, parent in spans
        if name == "reports.analyze_graph" and parent >= 0 and spans[parent][0] == "reports.run_census"
    )
    metrics["reports.run_census.wall_s"] = (sum(census_walls), "s")
    metrics["reports.run_census.parallel_efficiency"] = (in_census / capacity, "ratio")
    first_root = next(span for span in spans if span[3] < 0)
    metrics["cli.main.one_edge_s"] = (first_root[2] - first_root[1], "s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.unattributed_share"] = (1 - tracer.root_time() / traced_wall, "ratio")
    metrics["trace.spans"] = (len(spans), "count")
    return metrics


def machine() -> str:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return f"nproc {os.cpu_count()}, {model}, Python {platform.python_version()}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind normally: stop the running call, remove the inputs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "twomatch" / "cli.py").is_file():
        print(f"error: no twomatch sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))

    outcome, setup_outcome = Outcome(), Outcome()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-work-") as tmp:
        work = Path(tmp)
        workload = WORKLOADS[args.workload](args.seed, work, args.tiny)
        print(f"machine: {machine()}")
        if args.trace:
            name = f"trace-{args.workload}-seed{args.seed}.tsv"
            metrics = traced(workload, work, outcome, ROOT / ".perfbench_out" / name)
        else:
            metrics = measure(workload, args.seconds, work, outcome, setup_outcome)

    graphs = [(i, r) for call in workload.calls for i, r in zip(call.instances, call.refs)]
    content = sum(1 for _, r in graphs if r.gap)
    print(f"corpus: {len(graphs)} graphs, {content} with gap > 0 ({content / len(graphs):.3f})")
    print(
        f"lemma_checked {outcome.lemma_checked} (reference expects {outcome.lemma_expected}), "
        f"with gap > 0 {outcome.content} (reference expects {outcome.content_expected})"
    )
    print(f"failed_share {outcome.failed / max(outcome.attempted, 1):.6f} ({outcome.failed} of {outcome.attempted})")
    if setup_outcome.attempted:
        print(f"setup probes: {setup_outcome.failed} of {setup_outcome.attempted} failed")
    outcome.add(setup_outcome)
    nodes = [entry for entry in outcome.nodes if entry["name"] != ONE_EDGE.name]
    if nodes:
        print(json.dumps({"solve_nodes": nodes[: len(workload.calls)]}))
    for line in (outcome.wrong + outcome.crashes)[:20]:
        print(f"FAIL {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    result = {
        "correct": not outcome.wrong,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
