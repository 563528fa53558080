"""Command-line front end: solve, census, verify-lemmas, generate.

Exit codes: 0 all checks pass, 1 check failure, 2 usage or parse error,
3 node budget exceeded, 141 standard output closed early (broken pipe).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Iterable

from .graph import (
    EdgeListError,
    Graph,
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
from .pairs import DEFAULT_NODE_BUDGET, PAIR_ORACLE_MAX_EDGES
from .reports import SCHEMA_VERSION, analyze_graph, run_census, verify_graph

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports it

_CSV_COLUMNS = [
    "source",
    "n",
    "m",
    "nu",
    "lambda2",
    "alpha2",
    "ratio",
    "ratio_ok",
    "status",
    "lemmas_passed",
    "lemmas_failed",
    "lemmas_skipped",
]


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


def _csv_row(r) -> dict:
    lem = r.lemmas
    return {
        "source": r.source,
        "n": r.n,
        "m": r.m,
        "nu": r.nu,
        "lambda2": r.lambda2,
        "alpha2": r.alpha2,
        "ratio": r.ratio or "",
        "ratio_ok": "" if r.ratio_ok is None else int(r.ratio_ok),
        "status": r.status,
        "lemmas_passed": lem.passed if lem.checked else "",
        "lemmas_failed": lem.failed if lem.checked else "",
        "lemmas_skipped": "" if lem.checked else (lem.skipped_reason or ""),
    }


def _write_csv(rows: Iterable[dict]) -> None:
    writer = csv.DictWriter(sys.stdout, fieldnames=_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)


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
    if report.ratio_ok is False or (report.lemmas.checked and report.lemmas.failed):
        return EXIT_CHECK_FAILED
    if report.status == "budget_exceeded":
        return EXIT_BUDGET
    return EXIT_OK


def _tight_base(k: int) -> Graph:
    """Built-in base series for the ratio-tight family: the single edge
    for k=1, the even cycle on 2k vertices for k >= 2."""
    if k < 1:
        raise ValueError("tight family index must be at least 1")
    return gen_complete(2) if k == 1 else gen_cycle(2 * k)


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


def _census_corpus(args: argparse.Namespace) -> tuple[str, list[tuple[str, Graph]]]:
    if args.exhaustive is not None:
        n = args.exhaustive
        items = [(f"n{n}#{i}", g) for i, g in enumerate(enumerate_graphs(n))]
        return f"exhaustive n={n}", items
    if args.random is not None:
        n, p, count = int(args.random[0]), float(args.random[1]), int(args.random[2])
        if count < 0:
            raise ValueError(f"--random COUNT must be at least 0, got {count}")
        items = [
            (f"random(n={n},p={p},seed={args.seed + i})", gen_random(n, p, args.seed + i))
            for i in range(count)
        ]
        return f"random n={n} p={p} count={count} seed={args.seed}", items
    if args.family is not None:
        lo, hi = _parse_k_range(args.k_range)
        items = []
        for k in range(lo, hi + 1):
            if args.family == "tight":
                items.append((f"tight(k={k})", gen_tight_family(_tight_base(k))))
            else:
                items.append((f"gap(k={k})", gen_gap_family(k)))
        return f"family {args.family} k={lo}..{hi}", items
    text = _read_text(args.input)
    if args.format == "graph6":
        items = [(f"{args.input}#{i}", g) for i, g in enumerate(iter_graph6(text))]
    else:
        items = [(args.input, parse_edge_list(text))]
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
    if g.m > PAIR_ORACLE_MAX_EDGES:
        print(
            f"error: graph has {g.m} edges, over the triple-search ceiling "
            f"of {PAIR_ORACLE_MAX_EDGES}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    results = verify_graph(g)
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
                "h": [list(e) for e in sorted(triple.h)],
                "h_prime": [list(e) for e in sorted(triple.h_prime)],
                "m": [list(e) for e in sorted(triple.m)],
                "ok": rep.ok,
                "launched_paths": {
                    "count": len(art.y_paths),
                    "lengths": [c.length for c in art.y_paths],
                },
                "checks": {
                    name: {"ok": v.ok, "detail": v.detail}
                    for name, v in rep.checks.items()
                },
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
    params = args.params
    try:
        if kind == "path":
            graphs = [gen_path(int(params[0]))]
        elif kind == "cycle":
            graphs = [gen_cycle(int(params[0]))]
        elif kind == "complete":
            graphs = [gen_complete(int(params[0]))]
        elif kind == "random":
            graphs = [gen_random(int(params[0]), float(params[1]), args.seed)]
        elif kind == "tight":
            graphs = [gen_tight_family(_tight_base(int(params[0])))]
        elif kind == "gap":
            graphs = [gen_gap_family(int(params[0]))]
        elif kind == "enumerate":
            graphs = list(enumerate_graphs(int(params[0])))
        else:  # pragma: no cover - argparse choices forbid this
            raise ValueError(f"unknown kind {kind}")
    except IndexError:
        print(f"error: missing parameter for generate {kind}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "graph6":
        for g in graphs:
            print(encode_graph6(g))
    else:
        if len(graphs) > 1:
            print(
                "error: edge-list output holds a single graph; "
                "use --format graph6 for enumerate",
                file=sys.stderr,
            )
            return EXIT_USAGE
        sys.stdout.write(to_edge_list(graphs[0]))
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

    p_solve = sub.add_parser("solve", help="analyze a single graph")
    p_solve.add_argument("input", help="path to a graph file, or - for stdin")
    add_common(p_solve)
    p_solve.add_argument("--output", choices=["json", "csv"], default="json")
    p_solve.add_argument(
        "--skip-lemmas", action="store_true", help="skip the lemma suite"
    )
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
    p_census.add_argument("--output", choices=["json", "csv"], default="json")
    p_census.add_argument(
        "--skip-lemmas", action="store_true", help="skip the lemma suite"
    )
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
        choices=["path", "cycle", "complete", "random", "tight", "gap", "enumerate"],
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
    except (EdgeListError, Graph6Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
