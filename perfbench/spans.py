"""In-memory spans around the public functions of each twomatch module.

``Tracer.install`` rebinds every traced function, in every loaded twomatch
module that refers to it, to a wrapper that records a span ``[name,
start, end, parent]``; ``uninstall`` puts the originals back.  Nothing
under ``src/`` changes.  A layer's busy time is the sum of its span
durations; its self time is busy time minus the durations of its direct
child spans.  A generator's span runs from its call to its exhaustion; its
one consumer, ``canonical_triples``, calls nothing traced in between.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: The layers, by module, and the public functions timed in each.
TRACED = {
    "graph6": ["parse_graph6"],
    "graph": ["parse_edge_list", "gen_random"],
    "matching": ["max_matching", "maximum_matchings"],
    "pairs": ["solve_pair", "canonical_triples", "enumerate_m2", "solve_pair_bruteforce"],
    "alternating": ["verify_lemmas", "decompose", "derive_artifacts"],
    "reports": ["analyze_graph", "run_census"],
    "cli": ["main"],
}
SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]

#: Work counters recorded at the span boundaries, with their units.
COUNTERS = {
    "pairs.solve_pair.nodes": "count",
    "pairs.solve_pair.budget_hits": "count",
    "pairs.solve_pair.searchless": "count",
    "pairs.canonical_triples.candidates": "count",
    "pairs.canonical_triples.triples": "count",
    "pairs.enumerate_m2.pairs": "count",
    "matching.maximum_matchings.matchings": "count",
    "alternating.content_graphs": "count",
}


class Tracer:
    def __init__(self, names: list[str] = SPAN_NAMES) -> None:
        self.names = names
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._child_counts: dict[int, list[int]] = defaultdict(list)
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        # Load every module first: one imported while wrappers are in place
        # would bind a wrapper, not the original, and keep it.
        importlib.import_module("twomatch.cli")
        modules = [m for key, m in sys.modules.items() if key == "twomatch" or key.startswith("twomatch.")]
        for name in self.names:
            mod, fn = name.split(".")
            original = getattr(sys.modules[f"twomatch.{mod}"], fn)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args, **kwargs):
                idx = self._open(name)
                count = 0
                try:
                    for item in fn(*args, **kwargs):
                        count += 1
                        yield item
                finally:
                    self._close(idx)
                    self._counted(name, idx, args, kwargs, count)

            return gen_wrapper

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._counted(name, idx, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name: str, idx: int, args: tuple, kwargs: dict, result) -> None:
        c = self.counts
        parent = self.spans[idx][3]
        if name == "pairs.solve_pair":
            c["pairs.solve_pair.nodes"] += result.nodes
            c["pairs.solve_pair.budget_hits"] += result.status != "optimal"
            c["pairs.solve_pair.searchless"] += result.status == "optimal" and result.nodes == 0
        elif name == "pairs.enumerate_m2":
            c["pairs.enumerate_m2.pairs"] += result
            self._child_counts[parent].append(result)
        elif name == "matching.maximum_matchings":
            c["matching.maximum_matchings.matchings"] += len(result)
            self._child_counts[parent].append(len(result))
        elif name == "pairs.canonical_triples":
            c["pairs.canonical_triples.triples"] += len(result)
            scanned = self._child_counts.pop(idx, [])
            c["pairs.canonical_triples.candidates"] += scanned[0] * scanned[1] if len(scanned) == 2 else 0
        elif name == "alternating.verify_lemmas":
            triple = args[1] if len(args) > 1 else kwargs["t"]
            c["alternating.content_graphs"] += len(triple.m) > len(triple.h)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """calls, busy_s and self_s per traced name, plus the work counters."""
        calls: Counter = Counter()
        busy: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - child[idx]
        out: dict[str, tuple[float, str]] = {}
        for name in self.names:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.busy_s"] = (busy[name], "s")
            out[f"{name}.self_s"] = (own[name], "s")
        for name, unit in COUNTERS.items():
            out[name] = (self.counts[name], unit)
        return out

    def root_time(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write(self, path) -> None:
        """Spans as tab-separated ``id parent name start end`` lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{idx}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
