"""The isomorphism searches against an independent oracle: networkx's VF2
matcher, with each vertex labelled by its signature and each edge by its set
of colors.  Component identification, ``find_isomorphism`` and
``package_isomorphism`` must find a map exactly when VF2 does, and every map
they return must preserve the colors and signature positions asked for; the
standard graphs' automorphism count must match VF2's."""

import functools
import itertools
import random

import pytest

nx = pytest.importorskip("networkx")

from degraphs.combinatorics import count_syt, enumerate_partitions
from degraphs.fixtures import fixture, fixture_names
from degraphs.graph import find_isomorphism, package_colors, package_positions
from degraphs.standard import build_standard_deg, standard_automorphisms
from degraphs.structure import _psi_path, defect_sets
from degraphs.transform import full_pipeline, package_isomorphism

from conftest import relabel_random
from test_equivalence import carry_inputs


def labelled(G, vertices=None, colors=None, positions=None, pin=None):
    """G on ``vertices`` (default all) as a networkx graph: each vertex
    labelled with its signature at ``positions`` (default all) and whether
    it is ``pin``, each edge with its set of ``colors`` (default all)."""
    vertices = G.vertices() if vertices is None else vertices
    colors = G.colors() if colors is None else colors
    positions = range(1, G.N) if positions is None else positions
    X = nx.Graph()
    for v in vertices:
        X.add_node(v, label=(tuple(G.sigma[v][p - 1] for p in positions), v == pin))
    for c in colors:
        for u, w in G.matching(c).items():
            if u < w and u in X and w in X:
                if not X.has_edge(u, w):
                    X.add_edge(u, w, colors=set())
                X[u][w]["colors"].add(c)
    return X


def vf2_isomorphic(X, Y) -> bool:
    return nx.is_isomorphic(
        X,
        Y,
        node_match=lambda a, b: a["label"] == b["label"],
        edge_match=lambda a, b: a["colors"] == b["colors"],
    )


def vf2_automorphisms(X, limit: int) -> int:
    """The number of automorphisms of X that VF2 finds, up to ``limit``."""
    matcher = nx.algorithms.isomorphism.GraphMatcher(
        X,
        X,
        node_match=lambda a, b: a["label"] == b["label"],
        edge_match=lambda a, b: a["colors"] == b["colors"],
    )
    return sum(1 for _ in itertools.islice(matcher.isomorphisms_iter(), limit))


def preserves(G, H, m, colors, positions):
    """Whether m maps G's vertices it covers onto H's, keeping every edge and
    non-edge of ``colors`` and the signature at ``positions``."""
    injective = len(set(m.values())) == len(m)
    signs = all(G.sigma[v][p - 1] == H.sigma[m[v]][p - 1] for v in m for p in positions)
    edges = all(H.neighbor(m[v], c) == m.get(G.neighbor(v, c)) for v in m for c in colors)
    return injective and signs and edges


@functools.cache
def pipeline_runs():
    """(name, input, result) for the fixtures and every graph under
    ``tests/data``."""
    return tuple((name, G, full_pipeline(G)) for name, G in carry_inputs())


def test_identified_components_match_only_their_standard_graph():
    """Every component of a certified output is VF2-isomorphic to the G_lam
    it was identified as, and to no other G_lam of its size."""
    compared = 0
    for name, _, res in pipeline_runs():
        if not res.certified or res.components is None:
            continue
        H = res.graph
        for lam, v in res.components:
            comp = H.component_vertices(v, H.colors())
            X = labelled(H, comp)
            for mu in enumerate_partitions(H.n):
                if count_syt(mu) == len(comp):
                    Y = labelled(build_standard_deg(mu))
                    assert vf2_isomorphic(X, Y) == (mu == lam), (name, v, lam, mu)
                    compared += 1
    assert compared >= 49  # 89 over 19 certified outputs


def test_standard_graphs_are_rigid_by_vf2():
    """G_lam has no automorphism but the identity, by ``standard_automorphisms``
    and by VF2 alike, for every lam with n <= 6."""
    for n in range(1, 7):
        for lam in enumerate_partitions(n):
            want = vf2_automorphisms(labelled(build_standard_deg(lam)), 2)
            assert standard_automorphisms(lam) == want == 1, lam


def test_find_isomorphism_agrees_with_vf2():
    """Each input against a relabelled copy of itself and against its
    pipeline output, and each output, whose components repeat, against a
    relabelled copy: ``find_isomorphism`` finds a map exactly when VF2 does,
    and the map keeps every color and signature."""
    rng = random.Random(5)
    found = []
    for name, G, res in pipeline_runs():
        H = res.graph
        for X, Y in ((G, relabel_random(G, rng)[0]), (H, relabel_random(H, rng)[0]), (G, H)):
            m = find_isomorphism(X, Y)
            assert (m is not None) == vf2_isomorphic(labelled(X), labelled(Y)), name
            if m is not None:
                assert set(m) == set(X.sigma), name
                assert preserves(X, Y, m, X.colors(), range(1, X.N)), name
            found.append(m is not None)
    copies, against_output = found[::3] + found[1::3], found[2::3]
    assert all(copies) and not all(against_output)


def anchor_pairs(G, i):
    """The package pairs (a, b) the rewiring maps at color i swap: (w,
    E_{i-1}(w)) for w in W_i, and (E_{i-2}(x), E_{i-2}(u)) for x in C_i
    with u the end of ``_psi_path``."""
    sets = defect_sets(G, i)
    for w in sorted(sets.W):
        yield w, G.neighbor(w, i - 1)
    for x in sorted(sets.C):
        path = _psi_path(G, G.pos[x], i)
        a = G.neighbor(x, i - 2)
        b = None if path is None else G.neighbor(G.ids[path[-1]], i - 2)
        if a is not None and b is not None:
            yield a, b


def test_package_isomorphism_agrees_with_vf2():
    """At the fixtures' phi and psi anchors, ``package_isomorphism`` finds a
    map exactly when VF2 finds one with a pinned to b, and the map takes
    a's i-package onto b's keeping the package colors and positions."""
    found = []
    for name in fixture_names():
        G = fixture(name)
        for i in G.colors():
            colors, positions = package_colors(G, i), package_positions(G, i)
            for a, b in anchor_pairs(G, i):
                A = G.component_vertices(a, colors)
                B = G.component_vertices(b, colors)
                want = vf2_isomorphic(
                    labelled(G, A, colors, positions, pin=a),
                    labelled(G, B, colors, positions, pin=b),
                )
                m = package_isomorphism(G, a, b, i)
                assert (m is not None) == want, (name, a, b, i)
                if m is not None:
                    assert set(m) == set(A) and set(m.values()) == set(B), (name, a, b, i)
                    assert m[a] == b and preserves(G, G, m, colors, positions), (name, a, b, i)
                found.append(m is not None)
    assert any(found) and not all(found)
