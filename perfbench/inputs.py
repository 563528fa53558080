"""Seeded inputs for the twomatch benchmark.

Every input is built here from the benchmark seed, independently of the
program under test, so a change to the program's generators cannot change
what the benchmark feeds it.  ``gnp`` follows the randomness contract that
README documents for ``gen_random``; ``tight`` and ``gap`` follow README's
constructions of the two extremal families, with the same labels that
``twomatch generate`` prints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

Edge = tuple[int, int]


@dataclass(frozen=True)
class Instance:
    """A labeled graph plus, for the extremal families, its closed-form
    ``(nu, lambda2, alpha2)``."""

    name: str
    n: int
    edges: frozenset[Edge]
    closed_form: tuple[int, int, int] | None = None


def gnp(n: int, p: float, seed: int) -> frozenset[Edge]:
    """G(n, p): one ``random.Random(seed)`` draw per pair, lexicographic."""
    rng = random.Random(seed)
    return frozenset((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p)


def _attach_pendant_paths(n: int, base: set[Edge]) -> tuple[int, frozenset[Edge]]:
    edges = set(base)
    for v in range(n):
        x1 = n + 4 * v
        edges.update({(v, x1), (x1, x1 + 1), (v, x1 + 2), (x1 + 2, x1 + 3)})
    return 5 * n, frozenset(edges)


def tight(k: int) -> Instance:
    """Two pendant length-2 paths on every vertex of K2 (k=1) or C_2k."""
    if k == 1:
        base_n, base = 2, {(0, 1)}
    else:
        base_n = 2 * k
        base = {tuple(sorted((i, (i + 1) % base_n))) for i in range(base_n)}
    n, edges = _attach_pendant_paths(base_n, base)
    return Instance(f"tight-{k}", n, edges, (5 * k, 8 * k, 4 * k))


def gap(k: int) -> Instance:
    """Spider: center 0 with pendant edges to 1 and 2 and k-1 length-2 legs."""
    edges = {(0, 1), (0, 2)}
    for i in range(k - 1):
        edges.update({(0, 3 + 2 * i), (3 + 2 * i, 4 + 2 * i)})
    return Instance(f"gap-{k}", 2 * k + 1, frozenset(edges), (k, k + 1, k))


def relabel(n: int, edges: frozenset[Edge], rng: random.Random) -> frozenset[Edge]:
    perm = list(range(n))
    rng.shuffle(perm)
    return frozenset(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


def random_small(rng: random.Random) -> tuple[int, frozenset[Edge]]:
    """A uniform labeled graph with 7-12 vertices and 8-14 edges."""
    n = rng.randint(7, 12)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return n, frozenset(rng.sample(pairs, rng.randint(8, 14)))


def perturbed_tight(rng: random.Random) -> tuple[int, frozenset[Edge]]:
    """tight(1) relabeled, after zero to two perturbations: an added edge, or
    a pendant length-2 path.  Stays within 12 vertices and 14 edges.  The
    caller keeps the result only when the reference finds gap > 0."""
    t = tight(1)
    n, edges = t.n, set(t.edges)
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.5 and n + 2 <= 12:
            edges.update({(rng.randrange(n), n), (n, n + 1)})
            n += 2
        else:
            free = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
            edges.add(rng.choice(free))
    return n, relabel(n, frozenset(edges), rng)


def encode_graph6(n: int, edges: frozenset[Edge]) -> str:
    """graph6 for n <= 62: header byte, then column-order upper-triangle bits."""
    if n > 62:
        raise ValueError("the benchmark writes graph6 only for n <= 62")
    bits = [int((i, j) in edges) for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    groups = (bits[k : k + 6] for k in range(0, len(bits), 6))
    return chr(n + 63) + "".join(chr(int("".join(map(str, g)), 2) + 63) for g in groups)


def edge_list(n: int, edges: frozenset[Edge]) -> str:
    return "".join([f"n {n}\n"] + [f"{u} {v}\n" for u, v in sorted(edges)])
