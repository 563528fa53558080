"""Command-line front end: solve, census, verify-lemmas, generate.

Exit codes: 0 all checks pass, 1 check failure (``solve`` and ``census``
both by ``GraphReport.failures``; ``verify-lemmas`` on a failed check or
a ``SolverMismatch``), 2 usage or parse error, 3 node budget exceeded,
141 standard output closed early (broken pipe).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from itertools import islice
from typing import Iterable

from .graph import (
    Graph,
    _check_gnp,
    _enumerated_graph,
    _enumeration_size,
    gen_complete,
    gen_cycle,
    gen_gap_family,
    gen_path,
    gen_random,
    gen_tight_family,
    enumerate_graphs,
    parse_edge_list,
    to_edge_list,
)
from .graph6 import Graph6Error, encode_graph6, iter_graph6, parse_graph6
from .pairs import DEFAULT_NODE_BUDGET
from .reports import (
    SCHEMA_VERSION,
    CensusItem,
    SolverMismatch,
    _edge_lists,
    analyze_graph,
    run_census,
    verify_graph,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports it

_CSV_COLUMNS = (
    "source", "n", "m", "nu", "lambda2", "alpha2", "ratio", "ratio_ok", "status",
    "lemmas_passed", "lemmas_failed", "lemmas_skipped",
)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_single(path: str, fmt: str) -> Graph:
    text = _read_text(path)
    if fmt == "graph6":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if len(lines) != 1:
            raise Graph6Error(f"expected exactly one graph6 line, got {len(lines)}")
        return parse_graph6(lines[0])
    return parse_edge_list(text)


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _csv_row(r) -> tuple:
    """One report as a CSV row, in ``_CSV_COLUMNS`` order."""
    checked = r.lemmas_skipped is None
    return (
        r.source,
        r.n,
        r.m,
        r.nu,
        r.lambda2,
        r.alpha2,
        r.ratio or "",
        "" if r.ratio_ok is None else int(r.ratio_ok),
        r.status,
        r.lemmas_passed if checked else "",
        len(r.lemma_failures) if checked else "",
        r.lemmas_skipped or "",
    )


def _write_csv(rows: Iterable[tuple]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    writer.writerows(rows)


def cmd_solve(args: argparse.Namespace) -> int:
    g = _load_single(args.input, args.format)
    report = analyze_graph(
        g,
        source=args.input,
        node_budget=args.node_budget,
        lemmas=not args.skip_lemmas,
        with_timings=not args.no_timings,
        with_witness=True,
    )
    if args.output == "csv":
        _write_csv([_csv_row(report)])
    else:
        _print_json(report.to_dict())
    if report.failures():
        return EXIT_CHECK_FAILED
    if report.status == "budget_exceeded":
        return EXIT_BUDGET
    return EXIT_OK


def _tight(k: int) -> Graph:
    """The ratio-tight family over its built-in base series: the single
    edge for k=1, the even cycle on 2k vertices for k >= 2."""
    if k < 1:
        raise ValueError("tight family index must be at least 1")
    return gen_tight_family(gen_complete(2) if k == 1 else gen_cycle(2 * k))


#: The graphs named by one integer, for ``generate`` and ``census --family``.
_ONE_INTEGER = {
    "path": gen_path,
    "cycle": gen_cycle,
    "complete": gen_complete,
    "tight": _tight,
    "gap": gen_gap_family,
}

#: The parameters each ``generate`` kind takes, by name, in help order.
_GENERATE_PARAMS = {
    "path": "N", "cycle": "N", "complete": "N", "random": "N P", "tight": "K", "gap": "K", "enumerate": "N"
}


def _number(parse, text: str, name: str):
    """``parse(text)``, for ``parse`` of ``int`` or ``float``; a text that
    does not parse is a ``ValueError`` naming the argument ``name``."""
    try:
        return parse(text)
    except ValueError:
        expected = "an integer" if parse is int else "a number"
        raise ValueError(f"{name} must be {expected}, got {text!r}") from None


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _parse_k_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        raise ValueError(f"bad k-range {text!r}, expected A:B") from None
    if b < a:
        raise ValueError(f"bad k-range {text!r}, expected A <= B")
    return a, b


def _census_corpus(args: argparse.Namespace) -> tuple[str, list[CensusItem]]:
    """The corpus name and its recipes ``(source, make, args)``: generated
    graphs travel as their generator and its arguments, so ``run_census``
    builds them where it analyzes them; graphs read here travel as
    ``(Graph, (n, edges))``."""
    if args.exhaustive is not None:
        n = args.exhaustive
        items = [(f"n{n}#{i}", _enumerated_graph, (n, i)) for i in range(_enumeration_size(n))]
        return f"exhaustive n={n}", items
    if args.random is not None:
        n = _number(int, args.random[0], "--random N")
        p = _number(float, args.random[1], "--random P")
        count = _number(int, args.random[2], "--random COUNT")
        if count < 0:
            raise ValueError(f"--random COUNT must be at least 0, got {count}")
        _check_gnp(n, p)  # before any graph is built
        items = [
            (f"random(n={n},p={p},seed={args.seed + i})", gen_random, (n, p, args.seed + i))
            for i in range(count)
        ]
        return f"random n={n} p={p} count={count} seed={args.seed}", items
    if args.family is not None:
        lo, hi = _parse_k_range(args.k_range)
        family = _ONE_INTEGER[args.family]
        items = [(f"{args.family}(k={k})", family, (k,)) for k in range(lo, hi + 1)]
        return f"family {args.family} k={lo}..{hi}", items
    text = _read_text(args.input)
    if args.format == "graph6":
        items = [(f"{args.input}#{i}", Graph, (g.n, g.edges)) for i, g in enumerate(iter_graph6(text))]
    else:
        g = parse_edge_list(text)
        items = [(args.input, Graph, (g.n, g.edges))]
    return f"file {args.input}", items


def cmd_census(args: argparse.Namespace) -> int:
    corpus, items = _census_corpus(args)
    summary, reports = run_census(
        items,
        corpus=corpus,
        jobs=args.jobs,
        node_budget=args.node_budget,
        lemmas=not args.skip_lemmas,
        with_timings=not args.no_timings,
    )
    if args.output == "csv":
        _write_csv(_csv_row(r) for r in reports)
        print(
            f"census: {summary.count} graphs, max ratio {summary.max_ratio}, "
            f"{len(summary.failures)} failures",
            file=sys.stderr,
        )
    else:
        _print_json(summary.to_dict())
    if summary.failures:
        return EXIT_CHECK_FAILED
    if summary.budget_exceeded:
        return EXIT_BUDGET
    return EXIT_OK


def cmd_verify_lemmas(args: argparse.Namespace) -> int:
    g = _load_single(args.input, args.format)
    try:
        results = verify_graph(g)
    except SolverMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    nu = len(results[0][0].m)
    alpha2 = len(results[0][0].h)
    lambda2 = alpha2 + len(results[0][0].h_prime)
    triples = []
    all_ok = True
    for triple, rep in results:
        all_ok &= rep.ok
        art = rep.artifacts
        triples.append(
            {
                "h": _edge_lists(triple.h),
                "h_prime": _edge_lists(triple.h_prime),
                "m": _edge_lists(triple.m),
                "ok": rep.ok,
                "launched_paths": {
                    "count": len(art.y_paths),
                    "lengths": [c.length for c in art.y_paths],
                },
                "checks": {name: v._asdict() for name, v in rep.checks.items()},
            }
        )
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "lemma_report",
        "source": args.input,
        "n": g.n,
        "m": g.m,
        "nu": nu,
        "lambda2": lambda2,
        "alpha2": alpha2,
        "triple_count": len(triples),
        "ok": all_ok,
        "triples": triples,
    }
    _print_json(doc)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_generate(args: argparse.Namespace) -> int:
    kind = args.kind
    names = _GENERATE_PARAMS[kind].split()
    if len(args.params) != len(names):
        s = "s" * (len(names) > 1)
        raise ValueError(
            f"generate {kind} takes {len(names)} parameter{s} ({' '.join(names)}), got {len(args.params)}"
        )
    values = [
        _number(float if name == "P" else int, text, f"generate {kind} {name}")
        for text, name in zip(args.params, names)
    ]
    if kind == "random":
        graphs = [gen_random(*values, args.seed)]
    elif kind == "enumerate":
        graphs = enumerate_graphs(*values)  # printed as it is made
    else:
        graphs = [_ONE_INTEGER[kind](*values)]
    if args.format == "graph6":
        for g in graphs:
            print(encode_graph6(g))
        return EXIT_OK
    first, *more = islice(graphs, 2)
    if more:
        raise ValueError("edge-list output holds a single graph; use --format graph6 for enumerate")
    sys.stdout.write(to_edge_list(first))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twomatch",
        description=(
            "Exact maximum matchings and optimal pairs of edge-disjoint "
            "matchings, with structural verification and census sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, solver: bool = True) -> None:
        p.add_argument(
            "--format",
            choices=["edgelist", "graph6"],
            default="edgelist",
            help="input format (default: edgelist)",
        )
        if solver:
            p.add_argument(
                "--node-budget",
                type=_int_at_least(0),
                default=DEFAULT_NODE_BUDGET,
                help="solver work budget per graph (search nodes or DP table entries)",
            )
            p.add_argument(
                "--no-timings",
                action="store_true",
                help="omit timing fields for byte-stable output",
            )
            p.add_argument("--output", choices=["json", "csv"], default="json")
            p.add_argument("--skip-lemmas", action="store_true", help="skip the lemma suite")

    p_solve = sub.add_parser("solve", help="analyze a single graph")
    p_solve.add_argument("input", help="path to a graph file, or - for stdin")
    add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_census = sub.add_parser("census", help="sweep a corpus of graphs")
    corpus = p_census.add_mutually_exclusive_group(required=True)
    corpus.add_argument(
        "--exhaustive", type=int, metavar="N", help="all labeled graphs on N vertices"
    )
    corpus.add_argument(
        "--random",
        nargs=3,
        metavar=("N", "P", "COUNT"),
        help="COUNT random graphs G(N, P) with consecutive seeds",
    )
    corpus.add_argument(
        "--family",
        choices=["tight", "gap"],
        help="built-in family, indexed by --k-range",
    )
    corpus.add_argument("--input", help="graph file (see --format)")
    p_census.add_argument(
        "--k-range",
        default="2:4",
        metavar="A:B",
        help="index range for --family (default 2:4)",
    )
    p_census.add_argument("--seed", type=int, default=0, help="base seed for --random")
    p_census.add_argument("--jobs", type=_int_at_least(1), default=1, help="parallel workers")
    add_common(p_census)
    p_census.set_defaults(func=cmd_census)

    p_verify = sub.add_parser(
        "verify-lemmas", help="check the lemma suite on every maximizing triple"
    )
    p_verify.add_argument("input", help="path to a graph file, or - for stdin")
    add_common(p_verify, solver=False)  # runs no solver and times nothing
    p_verify.set_defaults(func=cmd_verify_lemmas)

    p_gen = sub.add_parser("generate", help="emit a built-in graph")
    p_gen.add_argument(
        "kind",
        choices=list(_GENERATE_PARAMS),
    )
    p_gen.add_argument("params", nargs="*", help="kind-specific parameters")
    p_gen.add_argument("--seed", type=int, default=0, help="seed for random")
    p_gen.add_argument(
        "--format",
        choices=["edgelist", "graph6"],
        default="edgelist",
        help="output format (default: edgelist)",
    )
    p_gen.set_defaults(func=cmd_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a late broken pipe is caught here, not at exit
        return code
    except BrokenPipeError:
        # The reader went away (``| head``); silence the flush at exit too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
