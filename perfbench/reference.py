"""Reference values and output checks for the twomatch benchmark.

References come from the exhaustive oracles that ship with twomatch
(``max_matching_bruteforce`` up to 24 edges, ``solve_pair_bruteforce`` up
to 14 edges), from networkx for nu above 24 edges, and from the closed
forms of the extremal families.  They are computed before any timed call.

A checker turns one CLI call's exit code and output into an ``Outcome``.
A value the reference contradicts is ``wrong``; a traceback or an exit
code outside README's table is a ``crash``.  Both count as failed
operations.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction

from inputs import Instance

MATCHING_ORACLE_MAX_EDGES = 24
PAIR_ORACLE_MAX_EDGES = 14
LEMMA_CHECKS = 15
README_EXIT_CODES = {0, 1, 2, 3}


@dataclass(frozen=True)
class Ref:
    """Exact nu; exact lambda2 and alpha2 where an oracle or a closed form
    covers the graph, else ``None``."""

    nu: int
    lambda2: int | None
    alpha2: int | None

    @property
    def gap(self) -> int | None:
        return None if self.alpha2 is None else self.nu - self.alpha2


def reference(inst: Instance) -> Ref:
    from twomatch.graph import Graph
    from twomatch.matching import max_matching_bruteforce
    from twomatch.pairs import solve_pair_bruteforce

    g = Graph(inst.n, inst.edges)
    if g.m <= MATCHING_ORACLE_MAX_EDGES:
        nu = len(max_matching_bruteforce(g))
    else:
        import networkx as nx

        nxg = nx.Graph()
        nxg.add_nodes_from(range(inst.n))
        nxg.add_edges_from(inst.edges)
        nu = len(nx.max_weight_matching(nxg, maxcardinality=True))
    lam = alpha = None
    if g.m <= PAIR_ORACLE_MAX_EDGES:
        pair = solve_pair_bruteforce(g)
        lam, alpha = pair.lambda2, pair.alpha2
    if inst.closed_form is not None:
        form = inst.closed_form
        if nu != form[0] or (lam is not None and (lam, alpha) != form[1:]):
            raise RuntimeError(f"{inst.name}: oracles disagree with the closed form")
        lam, alpha = form[1:]
    return Ref(nu, lam, alpha)


def lemmas_expected(inst: Instance, certified: bool, lemmas_on: bool) -> bool:
    """The lemma suite must run on every certified graph within the ceiling."""
    return lemmas_on and certified and len(inst.edges) <= PAIR_ORACLE_MAX_EDGES


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    certified: int = 0
    lemma_checked: int = 0
    lemma_expected: int = 0
    content: int = 0
    content_expected: int = 0
    wrong: list[str] = field(default_factory=list)
    crashes: list[str] = field(default_factory=list)
    nodes: list[dict] = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        for name in ("attempted", "failed", "certified", "lemma_checked", "lemma_expected", "content",
                     "content_expected"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.wrong += other.wrong
        self.crashes += other.crashes
        self.nodes += other.nodes


def _values(inst: Instance, ref: Ref, got: dict, certified: bool) -> list[str]:
    """Problems with n, m, nu, lambda2, alpha2 and the ratio of one graph.
    An uncertified report holds lower bounds, so only its bounds and an
    explicit ``ratio_ok: false`` can be wrong."""
    bad = []
    for key, want in (("n", inst.n), ("m", len(inst.edges)), ("nu", ref.nu)):
        if got[key] != want:
            bad.append(f"{key}={got[key]}, reference {want}")
    lam, alpha = got["lambda2"], got["alpha2"]
    if certified and ref.lambda2 is not None and (lam, alpha) != (ref.lambda2, ref.alpha2):
        bad.append(f"(lambda2, alpha2)=({lam}, {alpha}), reference ({ref.lambda2}, {ref.alpha2})")
    if not alpha <= ref.nu or not lam <= 2 * alpha or (ref.lambda2 is not None and lam > ref.lambda2):
        bad.append(f"(lambda2, alpha2)=({lam}, {alpha}) impossible with nu={ref.nu}")
    if got["ratio_ok"] is False:
        bad.append("ratio_ok is false, but 4*nu <= 5*alpha2 is a theorem")
    elif certified and got["ratio_ok"] is not True:
        bad.append(f"ratio_ok is {got['ratio_ok']!r} on a certified optimum")
    if certified:
        ratio = Fraction(got["nu"], alpha) if alpha else None
        want = f"{ratio.numerator}/{ratio.denominator}" if ratio is not None else None
        if got["ratio"] != want:
            bad.append(f"ratio {got['ratio']!r}, expected {want!r}")
    return bad


def _lemma_problems(expected: bool, checked: bool, failed: int, detail: str) -> list[str]:
    if failed:
        return [f"lemma suite failed: {detail}"]
    if expected and not checked:
        return [f"lemma suite skipped on a certified graph within the ceiling ({detail})"]
    return []


def _expected_exit(rows_bad: bool, budget: bool) -> int:
    return 1 if rows_bad else 3 if budget else 0


def _crashed(code: int | None, stderr: str) -> str | None:
    if code is None or "Traceback (most recent call last)" in stderr:
        return stderr.strip().splitlines()[-1] if stderr.strip() else "no exit code"
    if code not in README_EXIT_CODES:
        return f"exit code {code} outside README's table"
    return None


def _count_row(
    out: Outcome, inst: Instance, ref: Ref, certified: bool, checked: bool, expected: bool, bad: list[str]
) -> None:
    out.attempted += 1
    out.certified += certified
    out.lemma_checked += checked
    out.lemma_expected += expected
    out.content += checked and bool(ref.gap)
    out.content_expected += expected and bool(ref.gap)
    if bad:
        out.failed += 1
        out.wrong += [f"{inst.name}: {b}" for b in bad]


def check_census(
    instances: list[Instance], refs: list[Ref], lemmas_on: bool, code: int | None, stdout: str, stderr: str
) -> Outcome:
    """Check ``census --output csv``: one row per graph, in input order."""
    out = Outcome()
    crash = _crashed(code, stderr)
    rows = list(csv.DictReader(io.StringIO(stdout))) if crash is None else []
    if crash is None and len(rows) != len(instances):
        crash = f"{len(rows)} rows for {len(instances)} graphs"
    if crash is not None:
        out.attempted = out.failed = len(instances)
        out.crashes.append(f"census of {len(instances)} graphs: {crash}")
        return out
    any_bad = any_budget = False
    for inst, ref, row in zip(instances, refs, rows):
        try:
            got = {key: int(row[key]) for key in ("n", "m", "nu", "lambda2", "alpha2")}
            got["ratio"] = row["ratio"] or None
            got["ratio_ok"] = {"1": True, "0": False}.get(row["ratio_ok"])
            certified = row["status"] == "ok"
            checked = row["lemmas_passed"] != ""
            failed = int(row["lemmas_failed"] or 0)
            passed = int(row["lemmas_passed"] or 0)
        except (KeyError, TypeError, ValueError) as exc:
            _count_row(out, inst, ref, False, False, False, [f"malformed row {row!r}: {exc!r}"])
            any_bad = True
            continue
        bad = _values(inst, ref, got, certified)
        if checked and passed + failed != LEMMA_CHECKS:
            bad.append(f"lemma suite reported {passed}+{failed} of {LEMMA_CHECKS} checks")
        expected = lemmas_expected(inst, certified, lemmas_on)
        bad += _lemma_problems(expected, checked, failed, row["lemmas_skipped"] or "failed")
        any_bad |= got["ratio_ok"] is False or failed > 0
        any_budget |= not certified
        _count_row(out, inst, ref, certified, checked, expected, bad)
    want = _expected_exit(any_bad, any_budget)
    if code != want:
        out.wrong.append(f"census exit code {code}, expected {want}")
        out.failed += out.attempted - out.failed
    return out


def _witness_problems(inst: Instance, doc: dict) -> list[str]:
    sides = []
    for key in ("h", "h_prime"):
        side = [tuple(e) for e in doc["witness"][key]]
        ends = [v for e in side for v in e]
        if not set(side) <= inst.edges or len(set(ends)) != len(ends):
            return [f"witness side {key} is not a matching of the graph"]
        sides.append(set(side))
    h, hp = sides
    if h & hp:
        return ["witness sides share an edge"]
    if (len(h), len(h) + len(hp)) != (doc["alpha2"], doc["lambda2"]):
        return [f"witness sizes ({len(h)}, {len(hp)}) disagree with alpha2/lambda2"]
    return []


def check_solve(inst: Instance, ref: Ref, code: int | None, stdout: str, stderr: str) -> Outcome:
    """Check one ``solve`` JSON report, its witness pair and its exit code."""
    out = Outcome()
    crash = _crashed(code, stderr)
    if crash is None:
        try:
            doc = json.loads(stdout)
        except ValueError:
            crash = "output is not JSON"
    if crash is not None:
        out.attempted = out.failed = 1
        out.crashes.append(f"{inst.name}: {crash}")
        out.nodes.append({"name": inst.name, "status": "crash", "nodes": None})
        return out
    try:
        certified = doc["status"] == "ok"
        lem = doc["lemmas"]
        checked, failed = lem["checked"], lem.get("failed", 0)
        bad = _values(inst, ref, doc, certified) + _witness_problems(inst, doc)
        nodes = doc.get("solver_nodes")
    except (KeyError, TypeError, ValueError) as exc:
        _count_row(out, inst, ref, False, False, False, [f"malformed report: {exc!r}"])
        out.nodes.append({"name": inst.name, "status": "malformed", "nodes": None})
        return out
    expected = lemmas_expected(inst, certified, True)
    detail = ", ".join(lem.get("failures", [])) or str(lem.get("skipped_reason"))
    bad += _lemma_problems(expected, checked, failed, detail)
    want = _expected_exit(doc["ratio_ok"] is False or failed > 0, not certified)
    if code != want:
        bad.append(f"exit code {code}, expected {want}")
    _count_row(out, inst, ref, certified, checked, expected, bad)
    out.nodes.append({"name": inst.name, "status": doc["status"], "nodes": nodes})
    return out
