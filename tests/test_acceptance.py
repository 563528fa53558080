"""Acceptance suite: the release gate, one criterion per test.

Every check is exact integer arithmetic; there are no tolerances to tune.
Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.
"""

from __future__ import annotations

import pytest

from twomatch.alternating import verify_lemmas
from twomatch.graph import (
    Graph,
    enumerate_graphs,
    gen_complete,
    gen_cycle,
    gen_gap_family,
    gen_random,
    gen_tight_family,
)
from twomatch.graph6 import encode_graph6, parse_graph6
from twomatch.matching import max_matching, max_matching_bruteforce
from twomatch.pairs import canonical_triple, canonical_triples, solve_pair, solve_pair_bruteforce
from twomatch.reports import run_census

from conftest import find_augmenting_path, petersen


def _report(name: str, ok: bool, extra: str = "") -> None:
    tail = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{tail}")


@pytest.fixture(scope="module")
def random_corpus() -> list[tuple[str, Graph]]:
    """1,000 seeded random instances with n <= 10 and p in {0.2, 0.4, 0.6}."""
    out = []
    for i in range(1000):
        n = 4 + (i % 7)
        p = (0.2, 0.4, 0.6)[i % 3]
        out.append((f"random#{i}(n={n},p={p})", gen_random(n, p, 20_000 + i)))
    return out


@pytest.fixture(scope="module")
def shared_corpus(random_corpus) -> list[tuple[str, Graph]]:
    """Exhaustive n <= 5, Petersen, odd cycles C3..C11, and the randoms."""
    items: list[tuple[str, Graph]] = []
    for n in range(6):
        items.extend((f"n{n}#{i}", g) for i, g in enumerate(enumerate_graphs(n)))
    items.append(("petersen", petersen()))
    items.extend((f"C{k}", gen_cycle(k)) for k in range(3, 12, 2))
    items.extend(random_corpus)
    return items


def test_criterion_1_ratio_bound_exhaustive_n6():
    """4*nu <= 5*alpha2 for every labeled graph on up to 6 vertices."""
    total = 0
    n6 = 0
    failures = 0
    for n in range(7):
        for i, g in enumerate(enumerate_graphs(n)):
            nu = len(max_matching(g))
            r = solve_pair(g)
            assert r.status == "optimal"
            if 4 * nu > 5 * r.alpha2:
                failures += 1
            total += 1
            if n == 6:
                n6 += 1
    ok = failures == 0 and n6 == 32768
    _report("1 ratio bound n<=6", ok, f"{total} graphs, {failures} failures")
    assert n6 == 32768
    assert failures == 0


def test_criterion_2_tight_families_attain_the_bound():
    """The pendant-path construction realizes nu/alpha2 = 5/4 exactly."""
    bases = {
        "K2": gen_complete(2),
        "C4": gen_cycle(4),
        "K4": gen_complete(4),
        "C16": gen_cycle(16),
        "C32": gen_cycle(32),
    }
    ok = True
    for name, base in bases.items():
        g = gen_tight_family(base)
        nu = len(max_matching(g))
        r = solve_pair(g)
        assert r.status == "optimal"
        expect = (5 * base.n // 2, 4 * base.n, 2 * base.n)
        if (nu, r.lambda2, r.alpha2) != expect or 4 * nu != 5 * r.alpha2:
            ok = False
    _report("2 tight family values", ok)
    assert ok


def test_criterion_3_gap_family_values():
    """nu = k, lambda2 = k+1, alpha2 = k for k = 2..6."""
    ok = True
    for k in range(2, 7):
        g = gen_gap_family(k)
        nu = len(max_matching(g))
        r = solve_pair(g)
        assert r.status == "optimal"
        if (nu, r.lambda2, r.alpha2) != (k, k + 1, k):
            ok = False
        if r.lambda2 - r.alpha2 != 1 or nu != k * (r.lambda2 - r.alpha2):
            ok = False
    _report("3 gap family values", ok)
    assert ok


def test_criterion_4_matching_oracle_equivalence(shared_corpus):
    """Blossom search equals brute force on every corpus graph <= 24 edges."""
    mismatches = 0
    checked = 0
    for _, g in shared_corpus:
        if g.m > 24:
            continue
        if len(max_matching(g)) != len(max_matching_bruteforce(g)):
            mismatches += 1
        checked += 1
    _report("4 matching oracle equivalence", mismatches == 0, f"{checked} graphs")
    assert checked > 2000
    assert mismatches == 0


def test_criterion_5_pair_oracle_equivalence(shared_corpus):
    """Branch and bound equals the exhaustive pair oracle <= 14 edges."""
    mismatches = 0
    checked = 0
    for _, g in shared_corpus:
        if g.m > 14:
            continue
        rb = solve_pair_bruteforce(g)
        rs = solve_pair(g)
        if (rs.lambda2, rs.alpha2) != (rb.lambda2, rb.alpha2):
            mismatches += 1
        checked += 1
    _report("5 pair oracle equivalence", mismatches == 0, f"{checked} graphs")
    assert checked > 1500
    assert mismatches == 0


@pytest.fixture(scope="module")
def lemma_random_corpus() -> list[Graph]:
    """500 seeded random graphs inside the triple-search ceiling."""
    out: list[Graph] = []
    seed = 40_000
    while len(out) < 500:
        n = 4 + (seed % 6)
        p = (0.2, 0.3, 0.4)[seed % 3]
        g = gen_random(n, p, seed)
        seed += 1
        if g.m <= 14:
            out.append(g)
    return out


def test_criterion_6_lemma_suite(lemma_random_corpus):
    """Structural checks pass on canonical triples everywhere, and on all
    maximizing triples for graphs up to 10 edges."""
    failures = 0
    canonical_checked = 0
    for n in range(6):
        for g in enumerate_graphs(n):
            if not verify_lemmas(g, canonical_triple(g), len(max_matching(g))).ok:
                failures += 1
            canonical_checked += 1
    for g in lemma_random_corpus:
        if not verify_lemmas(g, canonical_triple(g), len(max_matching(g))).ok:
            failures += 1
        canonical_checked += 1

    all_triples_checked = 0
    small = [g for n in range(6) for g in enumerate_graphs(n)] + [
        g for g in lemma_random_corpus if g.m <= 10
    ]
    for g in small:
        nu = len(max_matching(g))
        for t in canonical_triples(g):
            if not verify_lemmas(g, t, nu).ok:
                failures += 1
            all_triples_checked += 1

    ok = failures == 0
    _report(
        "6 lemma suite",
        ok,
        f"{canonical_checked} canonical, {all_triples_checked} exhaustive triples",
    )
    assert canonical_checked == 1100 + 500
    assert failures == 0


def test_criterion_7_berge_certificate(shared_corpus):
    """No augmenting path exists against any computed maximum matching."""
    bad = 0
    extra = [
        ("tight_k2", gen_tight_family(gen_complete(2))),
        ("tight_c4", gen_tight_family(gen_cycle(4))),
        ("tight_k4", gen_tight_family(gen_complete(4))),
        ("gap_6", gen_gap_family(6)),
    ]
    for _, g in shared_corpus + extra:
        if find_augmenting_path(g, max_matching(g)) is not None:
            bad += 1
    _report("7 Berge certificate", bad == 0)
    assert bad == 0


def test_criterion_8_graph6_roundtrip():
    """encode/decode identities, byte-exact, on 10,000 random graphs."""
    bad = 0
    count = 0
    for i in range(10_000):
        n = i % 33
        p = (0.05, 0.2, 0.5, 0.8, 1.0)[i % 5]
        g = gen_random(n, p, 60_000 + i)
        s = encode_graph6(g)
        if parse_graph6(s) != g or encode_graph6(parse_graph6(s)) != s:
            bad += 1
        count += 1
    _report("8 graph6 round-trip", bad == 0, f"{count} graphs")
    assert bad == 0


def test_acceptance_summary_via_census():
    """End-to-end: the census machinery reproduces the bound and tightness."""
    pairs = [(f"tight(k={k})", gen_tight_family(gen_complete(2) if k == 1 else gen_cycle(2 * k))) for k in (1, 2)]
    summary, _ = run_census(len(pairs), pairs.__getitem__, corpus="tight families", lemmas=True)
    assert not summary.failures
    assert summary.max_ratio == "5/4"
