"""Seeded benchmark inputs whose answers are known by construction.

A scrambled input is a disjoint union of standard graphs G_lam (all lam of
the same n, vertices relabelled ``k:<tableau id>``) followed by a few random
i-edge swaps between isomorphic i-packages.  A swap never touches a
signature, so the generating function stays sum(s_lam) and a certificate must
report exactly that expansion and the multiset of lam as its components.
Swaps are kept only while the graph stays locally Schur positive, so every
input satisfies the pipeline's hypothesis.

Only public library functions are used: ``build_standard_deg``,
``SignedColoredGraph.relabel``, ``package_isomorphism``,
``SignedColoredGraph.with_color_matching``, ``is_locally_schur_positive`` and
``check_axiom``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass

from degraphs import (
    SignedColoredGraph,
    build_standard_deg,
    check_axiom,
    enumerate_partitions,
    is_locally_schur_positive,
    package_isomorphism,
)
from degraphs.combinatorics import count_syt, partition_str

# Each slot fixes n and the number k of standard graphs in the union.  The
# multisets of k shapes of n whose union has at most MAX_UNION_VERTICES
# vertices are sorted by size and cut into as many strata of equal count as
# the slot has inputs, and the slot's m-th input takes the m-th stratum; the
# seed picks the multiset within the stratum and the swaps.  So every such
# multiset can occur, while every corpus holds the same spread of sizes.
# Pipeline time grows faster than linearly with the size and with the number
# of rewiring steps, and some unions of 208 and 230 vertices (n = 8) ran for
# minutes.  The cap keeps every input to a few seconds; the ROADMAP's
# 91-vertex abort case stays within it.
SLOTS = ((6, 3), (7, 3), (8, 3), (6, 4), (7, 4), (8, 4))
MAX_UNION_VERTICES = 96
# Inputs per slot on the scrambled workload.  An n = 6 union costs about a
# tenth of an n = 8 one, so the n = 6 slots take three times as many inputs:
# the run holds more inputs for little more time, and the median latency,
# which falls among them, moves less from seed to seed (see README.md).
SCRAMBLED_MIX = {(6, 3): 60, (7, 3): 20, (8, 3): 20, (6, 4): 60, (7, 4): 20, (8, 4): 20}
# replay_cli: four inputs per slot, from the smaller four of eight strata, so
# that its set-up, which runs the pipeline on each, stays short
REPLAY_MIX = dict.fromkeys(SLOTS, 4)
REPLAY_STRATA = 8
# swapping stops once MIN_SWAPS are kept and the graph is no longer a dual
# equivalence graph (so the pipeline has rewiring to do), or at MAX_SWAPS
MIN_SWAPS = 3
MAX_SWAPS = 6
SWAP_ATTEMPTS = 80
CANDIDATES_PER_ATTEMPT = 4

# standard_certify: every lam of 9, plus G_(4,3,2,1) (768 vertices) and
# G_(5,3,2) (450 vertices)
STANDARD_SHAPES = tuple(enumerate_partitions(9)) + ((4, 3, 2, 1), (5, 3, 2))


@dataclass(frozen=True)
class Case:
    """One benchmark input and the shapes its certificate must report."""

    name: str
    graph: SignedColoredGraph
    shapes: tuple[tuple[int, ...], ...]  # descending


def edge_shapes(n: int) -> list[tuple[int, ...]]:
    """Partitions of n whose standard graph has at least one edge."""
    return [lam for lam in enumerate_partitions(n) if len(lam) > 1 and lam[0] > 1]


def union(shapes) -> SignedColoredGraph:
    """Disjoint union of G_lam, the k-th copy relabelled ``k:<tableau id>``."""
    n = sum(shapes[0])
    sigma: dict = {}
    triples: list = []
    for k, lam in enumerate(shapes):
        G = build_standard_deg(lam)
        H = G.relabel({v: f"{k}:{v}" for v in G.vertices()})
        sigma.update(H.sigma)
        triples.extend(H.edge_triples())
    return SignedColoredGraph(n, n, sigma, triples)


def swap_i_edges(G: SignedColoredGraph, a: str, b: str, i: int):
    """Swap i-edges between the isomorphic i-packages of a and b (the gamma
    pattern): a package vertex takes the old i-partner of its image and the
    old partners follow.  None when the packages overlap, are not isomorphic
    or the result would not be a matching on the same vertices."""
    phi = package_isomorphism(G, a, b, i)
    if phi is None or set(phi) & set(phi.values()):
        return None
    full = {**phi, **{w: v for v, w in phi.items()}}
    old = G.matching(i)
    new = {}
    for v in sorted(set(old) | set(full)):
        if v in full:
            target = old.get(full[v])
        else:
            target = full.get(old[v], old[v])
        if target is None or target == v:
            return None
        new[v] = target
    if set(new) != set(old) or any(new[new[v]] != v for v in new):
        return None
    return G.with_color_matching(i, new)


def scramble(G: SignedColoredGraph, rng: random.Random) -> SignedColoredGraph:
    """Locally Schur positive swaps between vertices of equal signature in
    different copies, until the graph needs rewiring (see MIN_SWAPS)."""
    kept = 0
    for _ in range(SWAP_ATTEMPTS):
        i = rng.randrange(2, G.n)
        old = G.matching(i)
        if not old:
            continue
        a = rng.choice(sorted(old))
        part = a.split(":", 1)[0]
        candidates = [
            b
            for b in sorted(old)
            if G.sigma[b] == G.sigma[a] and b.split(":", 1)[0] != part
        ]
        rng.shuffle(candidates)
        for b in candidates[:CANDIDATES_PER_ATTEMPT]:
            H = swap_i_edges(G, a, b, i)
            if H is None:
                continue
            if is_locally_schur_positive(H).holds:
                G = H
                kept += 1
                if kept == MAX_SWAPS or (kept >= MIN_SWAPS and needs_rewiring(G)):
                    return G
            break
    return G


def needs_rewiring(G: SignedColoredGraph) -> bool:
    """Not a dual equivalence graph.  For a locally Schur positive graph
    axioms 1, 2, 3 and 5 hold, so only axioms 6 and 4 can fail."""
    return not (check_axiom(G, 6).holds and check_axiom(G, 4).holds)


def _strata(n: int, k: int, count: int) -> list[list[tuple[tuple[int, ...], ...]]]:
    sized = sorted(
        (sum(count_syt(lam) for lam in m), tuple(sorted(m, reverse=True)))
        for m in itertools.combinations_with_replacement(edge_shapes(n), k)
    )
    ms = [m for size, m in sized if size <= MAX_UNION_VERTICES]
    return [ms[b * len(ms) // count : (b + 1) * len(ms) // count] for b in range(count)]


def scrambled_cases(seed: int, mix: dict, strata: int | None = None) -> list[Case]:
    """Scrambled inputs for ``seed``: ``mix[slot]`` of each slot, one of
    every slot in turn while it has inputs left.  Each slot's multisets are
    cut into ``strata`` strata, by default as many as the slot has inputs,
    and the slot's m-th input takes the m-th stratum."""
    rng = random.Random(seed)
    cut = {slot: _strata(*slot, strata or mix[slot]) for slot in SLOTS}
    cases = []
    for m in range(max(mix.values())):
        for n, k in SLOTS:
            if m >= mix[n, k]:
                continue
            shapes = rng.choice(cut[n, k][m])
            graph = scramble(union(shapes), rng)
            cases.append(Case(f"s{len(cases):03d}-n{n}k{k}", graph, shapes))
    return cases


def standard_cases() -> list[Case]:
    return [
        Case(f"G({partition_str(lam)})", build_standard_deg(lam), (lam,))
        for lam in STANDARD_SHAPES
    ]


def build_standard_graphs(cases) -> None:
    """Build every G_lam the pipeline may compare a component of these inputs
    against: all lam of lower degree (split pivots are identified on
    restrictions) and the lam of the inputs' degree whose size occurs."""
    sizes = {(sum(lam), count_syt(lam)) for case in cases for lam in case.shapes}
    for n in {n for n, _ in sizes}:
        for m in range(1, n + 1):
            for lam in enumerate_partitions(m):
                if m < n or (n, count_syt(lam)) in sizes:
                    build_standard_deg(lam)


# ---------------------------------------------------------------------------
# known answers, checked without the library's own expansion or identification


def expected_expansion(shapes) -> str:
    """sum(s_lam) written as the library prints a Schur expansion."""
    terms = []
    for lam, c in sorted(Counter(shapes).items(), reverse=True):
        term = f"s[{partition_str(lam)}]"
        terms.append(term if c == 1 else f"{c}*{term}")
    return "+".join(terms)


def check_result(case: Case, res, may_abort: bool) -> str | None:
    """None when a pipeline result matches the known answer, else why not."""
    if res.graph.sigma != case.graph.sigma:
        return "rewiring changed the vertices or their signatures"
    if res.log.aborted:
        if not may_abort:
            return f"aborted: {res.log.diagnostic}"
        if not res.log.diagnostic:
            return "abort without a diagnostic"
        if res.log.failure_graph is None or not res.log.failure_graph.sigma:
            return "abort without a failure graph"
        return None
    if not res.certified:
        return f"neither certified nor aborted: {res.log.diagnostic}"
    exp = res.expansion
    if not exp.is_exact() or exp.coeffs != dict(Counter(case.shapes)):
        return f"wrong expansion {exp.to_string()}, expected {expected_expansion(case.shapes)}"
    found = sorted((lam for lam, _ in res.components), reverse=True)
    if tuple(found) != case.shapes:
        return f"wrong components {found}, expected {list(case.shapes)}"
    return None


def abort_kind(diagnostic: str) -> str:
    """Diagnostic without its color and details: 'color 4: defects remain
    but ...' -> 'defects remain but ...'."""
    text = diagnostic
    if text.startswith("color "):
        text = text.split(": ", 1)[-1]
    return text.split(":", 1)[0]


# ---------------------------------------------------------------------------
# digests


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def result_digest(res) -> str:
    """Digest of a pipeline run's step log and output graph, serialised here
    so that computing it calls no library serialiser."""
    G = res.graph
    doc = [
        [s.to_dict() for s in res.log.steps],
        res.log.aborted,
        res.log.diagnostic,
        [G.n, G.N, sorted(G.sigma.items()), G.edge_triples()],
    ]
    return sha(json.dumps(doc))
