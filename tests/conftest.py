import functools
import importlib.util
import random
import sys
from pathlib import Path

import pytest

from degraphs.combinatorics import enumerate_partitions
from degraphs.fixtures import fixture, fixture_names, signatures_from_structure
from degraphs.graph import SignedColoredGraph
from degraphs.standard import build_standard_deg
from degraphs.structure import _grow


BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@functools.cache
def benchmark_corpus():
    """``benchmarks/corpus.py``, loaded unchanged."""
    spec = importlib.util.spec_from_file_location("benchmark_corpus", BENCHMARKS / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


@functools.cache
def seed1_runs(workload: str):
    """(case, ``full_pipeline`` result) for each input of a benchmark
    workload at seed 1, in the order ``benchmarks/run.py`` runs them.  The
    runs are made once per session, so no caller may patch the library
    around its first call."""
    from degraphs.transform import full_pipeline

    bc = benchmark_corpus()
    if workload == "scrambled":
        cases = bc.scrambled_cases(1, bc.SCRAMBLED_MIX)
    else:
        cases = bc.standard_cases()
        random.Random(1).shuffle(cases)
    return tuple((case, full_pipeline(case.graph)) for case in cases)


def corpus(max_n: int = 8):
    """Every standard graph up to max_n plus all fixtures."""
    graphs = []
    for n in range(3, max_n + 1):
        for lam in enumerate_partitions(n):
            graphs.append((f"G{lam}", build_standard_deg(lam)))
    for name in fixture_names():
        graphs.append((name, fixture(name)))
    return graphs


def relabel_random(G: SignedColoredGraph, rng: random.Random):
    """Shuffle vertex ids; returns the new graph and the id map."""
    ids = list(G.vertices())
    perm = ids[:]
    rng.shuffle(perm)
    width = len(str(len(ids)))
    mapping = {v: f"v{str(k).zfill(width)}" for v, k in zip(ids, [perm.index(v) for v in ids])}
    return G.relabel(mapping), mapping


def unsorted_relabel(G: SignedColoredGraph, seed: int) -> SignedColoredGraph:
    """G with its vertices renamed v0, v1, ... in a shuffled order, unpadded
    so that v10 sorts before v9, with v1 upper-cased (it sorts before every
    lower-case id) and v2 renamed to a non-ASCII id (it sorts after every
    other), built with its vertices and edges inserted in reverse.  So the
    insertion order, the numbering and the sorted id order all differ, and
    the position order must follow the sorted ids."""
    old = list(G.vertices())
    random.Random(seed).shuffle(old)
    names = [f"v{k}" for k in range(len(old))]
    names[1], names[2] = "V1", "\u00e92"
    mapping = dict(zip(old, names))
    sigma = {mapping[v]: G.sigma[v] for v in reversed(G.vertices())}
    triples = [(c, mapping[w], mapping[u]) for c, u, w in reversed(G.edge_triples())]
    return SignedColoredGraph(G.n, G.N, sigma, triples)


def nonflat_chain_through(G: SignedColoredGraph, v: str, i: int) -> tuple[str, ...]:
    """The maximal alternating i / i-1 sequence around v's i-edge.

    Pairs are joined by i-edges and linked by i-1-edges; growth stops when a
    link is missing, would revisit a vertex, or the next pair is absent.
    """
    w = G.neighbor(v, i)
    if w is None:
        return ()
    p, q = G.pos[v], G.pos[w]
    used = {p, q}
    ahead = _grow(G, q, i, used) if i >= 3 else []  # a 2-edge has no link
    behind = _grow(G, p, i, used) if i >= 3 else []
    chain = [G.ids[x] for x in behind[::-1] + [p, q] + ahead]
    if chain[-1] < chain[0]:
        chain.reverse()
    return tuple(chain)


def gamma_instance(flip: bool = False) -> SignedColoredGraph:
    """A ten-vertex graph with a four-cycle of 3/4-edges over two pendant
    double-edge pairs; the subtree swap applies at the cycle vertices."""
    triples = [
        (3, "a1", "a2"), (4, "a2", "a3"), (3, "a3", "a4"), (4, "a4", "a1"),
        (2, "a2", "b2"), (2, "a4", "b4"),
        (4, "b2", "c2"), (4, "b4", "c4"),
        (2, "c1", "c2"), (3, "c1", "c2"),
        (2, "c3", "c4"), (3, "c3", "c4"),
    ]
    verts = sorted({u for _, u, _ in triples} | {w for _, _, w in triples})
    sigma = signatures_from_structure(5, 5, verts, triples)
    if flip:
        sigma = {v: tuple(-x for x in s) for v, s in sigma.items()}
    return SignedColoredGraph(5, 5, sigma, triples)


@pytest.fixture
def rng():
    return random.Random(20260808)
