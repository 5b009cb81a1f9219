"""The memoised and first-eligible code paths against plain references: the
pipeline's output is pinned byte for byte, LSP witnesses match a per-window
positivity check, and the committed defect step is the first vertex of U_i."""

import hashlib
import random
from itertools import permutations

import pytest

from degraphs import axioms, cli, transform
from degraphs.axioms import check_axiom, check_lsp, is_locally_schur_positive
from degraphs.combinatorics import sig_from_str
from degraphs.fixtures import fixture, fixture_names
from degraphs.graph import SignedColoredGraph
from degraphs.standard import build_standard_deg
from degraphs.structure import defect_sets, set_U
from degraphs.symfunc import is_schur_positive
from degraphs.transform import (
    TransformError,
    TransformStep,
    _long_r,
    apply_phi,
    full_pipeline,
    one_step,
)

from conftest import corpus, relabel_random


def long_phi_union() -> SignedColoredGraph:
    """3*s[3,3] + s[2,1,1,1,1] with swapped 3- and 4-edges; its first step at
    color 4 is a long phi (variant 1)."""
    sigs = "++-++ +-+-+ +-++- -++-+ -+-+- " * 3 + "+---- -+--- --+-- ---+- ----+"
    sigma = {f"v{k:02d}": sig_from_str(s) for k, s in enumerate(sigs.split())}
    pairs = {
        2: "01-03 02-04 06-08 07-09 11-13 12-14 15-16",
        3: "00-11 01-10 02-04 05-06 07-09 12-14 16-17",
        4: "00-06 01-05 03-14 04-13 08-09 10-11 17-18",
        5: "01-02 03-04 06-07 08-09 11-12 13-14 18-19",
    }
    triples = [
        (c, f"v{p[:2]}", f"v{p[3:]}") for c, text in pairs.items() for p in text.split()
    ]
    return SignedColoredGraph(6, 6, sigma, triples)


def pipeline_inputs():
    graphs = [(name, fixture(name)) for name in fixture_names()]
    graphs.append(("G(3,2,1)", build_standard_deg((3, 2, 1))))
    graphs.append(("G(4,2,1)", build_standard_deg((4, 2, 1))))
    graphs.append(("long_phi_union", long_phi_union()))
    return graphs


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of (log.to_text(), graph.to_text()) from full_pipeline, recorded
# before window positivity was memoised and the candidate search made lazy
GOLDEN = {
    "fig1": ("c0684180c34951745986b8234d47a1bc843e075110db531abf5d63d0544e466e",
        "4aa027ca238bd4ce32af8c51d471b4e8496fce78f52a375114c3da7633ca47be"),
    "fig12": ("192534cbadf7f2a8efd4d4b856f70e1fe919a46c3aff7a2fae2bada29c2fa000",
        "fd2b5a625b5c0acbacf3c1499fe859f1291ae64f15d8fa60f2fa6c87a7e25150"),
    "fig13": ("c0684180c34951745986b8234d47a1bc843e075110db531abf5d63d0544e466e",
        "0c1bd802b2f08112dfb615d7e95a00b5c3f36957a54f4d711a4b83a59b48d477"),
    "fig19": ("6c5d0a0572759688e2414777001bbd5ac32f832f9a68fba966184368b869a072",
        "f3f523ab3c57f94c3d2e68f10859dccee6e68347038a456ae94d845cc37a12f0"),
    "fig21": ("6c5d0a0572759688e2414777001bbd5ac32f832f9a68fba966184368b869a072",
        "37f1cfa8c59de2436ace8670d6f858e0f1393328073fbfb9a9ba3da804c6c6a7"),
    "fig4a": ("d12f6de8ba9c5d0e2208f030517f202f64aca47c7e9897333a49f6366976f805",
        "0f74d7b9fe323fa64a74978ab251a8cdfc75c1cc892b1c9bbc9164b6638ab3a2"),
    "fig4b": ("06f45e1ed97feaab84f038d63f9e9f6c5d0591927bb997ebf3b3c1aff9649058",
        "1e8bd8a149380eadc033bcabce4468de28d573d10a7690ab907a559c4609c745"),
    "fig4c": ("4a0c17937d581bbc3fe51dc857ccc8522f387d1fcf17e7853cd039e2a8e9ee6d",
        "9884e3e48f965aa61d277a6da27ccef901180d59d0917e82bc381d289a02e1b6"),
    "fig5a": ("154f9011b898f9a3ad8c39b23eca409c1d1775c005c4f1409e1f099464f32bcd",
        "02a99c3eb224adaaecbf61d96f2b6ced264a8133d541c14379ef25ee945e0624"),
    "fig5b": ("6c03672353dc746a6c6a7489dd45a74877d5928b674842c698c8c09d8927b5d6",
        "a06f2a17e8619b52156e02108fd773a6697e389b419bdf38c0b75d2e00291d45"),
    "fig5c": ("108451dfb6095f628f70b1d2139f90d387ee88a7eff12f458a91e4f1ecae9b2e",
        "d7fe3552924f7ebd5850331e30b471e825aa6c7967e3db8a1a1b6cea0aab7f67"),
    "fig6": ("c8832c5bbacf9fc7fd11aada4b842fc1ce346c9368013578e28369f1d895bafb",
        "e51fa8415dfa7dafafc7b84fc843985e5706eefc8d7ab26ca97a9618a0b82ef3"),
    "fig8": ("af95ae9adba7e9c29d4457940aef0dc4babc589bb60b5b989034e551f1a12a4e",
        "87294b29fae8ac876349781559e1d29177c0df80a8fb3f5558bc8f737879793f"),
    "fig9": ("c0684180c34951745986b8234d47a1bc843e075110db531abf5d63d0544e466e",
        "d4d89b80424e12c889e0ec070cdada878dbddf6a34f57630708f9a56cc0f5942"),
    "G(3,2,1)": ("c0684180c34951745986b8234d47a1bc843e075110db531abf5d63d0544e466e",
        "c7190d9ad8950bc7f2328386a15ea14c0c4d674d98395a7cad60c11c9a8b4c23"),
    "G(4,2,1)": ("c0684180c34951745986b8234d47a1bc843e075110db531abf5d63d0544e466e",
        "a574591919d7ed3a77619eb3277dd0cfb4d906ff7c717b290d63a8a34feb233e"),
    "long_phi_union": ("2bff341f3c27ffb4479312fa59c9cf4f04ee71dd2fabb3be827ca9d94ec5b26a",
        "514e5ebd6d8fad097e1ca041c4e2c8079460632363b6f48d9c849b163d0a0e66"),
}


@pytest.mark.parametrize("name, G", [pytest.param(n, G, id=n) for n, G in pipeline_inputs()])
def test_pipeline_output_is_pinned(name, G):
    res = full_pipeline(G)
    assert (sha(res.log.to_text()), sha(res.graph.to_text())) == GOLDEN[name]


def reference_lsp_witnesses(G, m):
    """check_lsp without the memo: one positivity check per window."""
    out = []
    for i in range(m - 1, G.n):
        colors = range(i - (m - 3), i + 1)
        window = (i - (m - 2), i)
        for comp in G.components(colors):
            rep = is_schur_positive(comp.generating_function(window))
            if not rep.positive:
                out.append((i, comp.min_vertex(), rep.violation))
    return out


def random_signed_graph(rng: random.Random, n: int, size: int) -> SignedColoredGraph:
    """Random signatures and random matchings, with no axiom enforced, so
    windows fail positivity in every way the checker can report."""
    ids = [f"x{k}" for k in range(size)]
    sigma = {v: tuple(rng.choice((1, -1)) for _ in range(n - 1)) for v in ids}
    triples = []
    for c in range(2, n):
        order = ids[:]
        rng.shuffle(order)
        for a in range(0, rng.randrange(0, size // 2 + 1) * 2, 2):
            triples.append((c, order[a], order[a + 1]))
    return SignedColoredGraph(n, n, sigma, triples)


def schur_negative_window() -> SignedColoredGraph:
    """One component with window function s[3,1] + s[2,1,1] - s[2,2]:
    positive in the fundamental basis, not in the Schur basis."""
    sigma = {v: sig_from_str(s) for v, s in zip("abcd", ("++-", "-++", "+--", "--+"))}
    return SignedColoredGraph(4, 4, sigma, [(2, "a", "b"), (3, "b", "c"), (2, "c", "d")])


def lsp_corpus():
    rng = random.Random(1704)
    graphs = [G for _, G in pipeline_inputs()] + [schur_negative_window()]
    graphs += [random_signed_graph(rng, rng.choice((5, 6, 7)), 10) for _ in range(40)]
    return graphs


def test_lsp_witnesses_match_reference_cold_and_warm():
    graphs = lsp_corpus()  # includes the negative controls fig19 and fig21
    expected = [[reference_lsp_witnesses(G, m) for m in (4, 5, 6)] for G in graphs]
    reasons = {w[2].split()[0] for per_m in expected for ws in per_m for w in ws}
    assert reasons == {"negative", "nonzero"}
    axioms._window_violation.cache_clear()
    cold = [[check_lsp(G, m).witnesses for m in (4, 5, 6)] for G in graphs]
    warm = [[check_lsp(G, m).witnesses for m in (4, 5, 6)] for G in graphs]
    assert cold == expected
    assert warm == expected
    assert axioms._window_violation.cache_info().hits > 0


def reference_first_step(G, i):
    """The step the search commits first: U_i's first entry, upgraded to the
    long phi variant when that exists, shrinks W_i and stays positive."""
    eligible = set_U(G, i)
    if not eligible:
        return None
    anchor, kind = eligible[0]
    if kind == "phi":
        sets = defect_sets(G, i)
        r = _long_r(G, anchor, i, sets.W0)
        if r > 0:
            try:
                L = apply_phi(G, anchor, i, r)
            except TransformError:
                L = None
            if (
                L is not None
                and defect_sets(L, i).W < sets.W
                and is_locally_schur_positive(L).holds
            ):
                return TransformStep("phi", i, anchor, r)
    return TransformStep(kind, i, anchor, 0)


def defect_states():
    """(name, color, graph at the start of that color) wherever the color
    has defects to resolve."""
    for name, G in pipeline_inputs():
        for i in range(2, G.n):
            start = full_pipeline(G, stop_at=i - 1)
            if start.log.aborted:
                break
            if not defect_sets(start.graph, i).all_empty():
                yield name, i, start.graph


def test_first_defect_step_is_first_of_set_u():
    seen = []
    for name, i, G in defect_states():
        want = reference_first_step(G, i)
        _, log = one_step(G, i)
        got = log.steps[0] if log.steps else None
        if want is None:
            assert got is None or got.kind == "gamma", (name, i)
        else:
            assert got == want, (name, i)
        seen.append((name, i, want))
    long_steps = [s for _, _, s in seen if s is not None and s.variant > 0]
    assert long_steps == [TransformStep("phi", 4, "v00", 1)]
    assert {name for name, _, _ in seen} >= {"fig8", "fig12", "fig5a", "long_phi_union"}


# ---------------------------------------------------------------------------
# axiom 4: forced extension against the permutation matcher


def reference_matches_template(G, vertices, color_roles, window, templates):
    """Exact match of a component against one template, trying every vertex
    bijection under the global sign flip or not."""
    lo, hi = window
    edges = set()
    for c, role in color_roles.items():
        m = G.matching(c)
        for u in vertices:
            w = m.get(u)
            if w is not None and u < w:
                edges.add((u, w, role))
    sigs = {v: G.sigma[v][lo - 1 : hi] for v in vertices}
    k = len(vertices)
    for t_edges, t_sigs in templates:
        if len(t_sigs) != k or len(t_edges) != len(edges):
            continue
        t_sig_tuples = [sig_from_str(s) for s in t_sigs]
        t_edge_set = {(min(a, b), max(a, b), r) for a, b, r in t_edges}
        for perm in permutations(range(k)):
            # vertices[j] plays template role perm[j]
            for flip in (1, -1):
                if any(
                    tuple(flip * x for x in sigs[vertices[j]]) != t_sig_tuples[perm[j]]
                    for j in range(k)
                ):
                    continue
                mapped = set()
                for u, w, role in edges:
                    a = perm[vertices.index(u)]
                    b = perm[vertices.index(w)]
                    mapped.add((min(a, b), max(a, b), role))
                if mapped == t_edge_set:
                    return True
    return False


def reference_axiom4_witnesses(G):
    out = []
    for i in range(3, G.n):
        for comp in G.components((i - 1, i)):
            if not reference_matches_template(
                G, comp.vertices, {i - 1: "a", i: "b"}, (i - 2, i), axioms._TWO_COLOR_TEMPLATES
            ):
                out.append((i, comp.min_vertex(), "two-color component not allowed"))
    for i in range(4, G.n):
        for comp in G.components((i - 2, i - 1, i)):
            if not reference_matches_template(
                G, comp.vertices, {i - 2: "a", i - 1: "b", i: "c"}, (i - 3, i),
                axioms._THREE_COLOR_TEMPLATES,
            ):
                out.append((i, comp.min_vertex(), "three-color component not allowed"))
    return out


def sign_flipped(G):
    sigma = {v: tuple(-x for x in s) for v, s in G.sigma.items()}
    return SignedColoredGraph(G.n, G.N, sigma, G.edge_triples())


def package_swaps(shapes, count, rng):
    """``count`` disjoint unions of standard graphs, each with the i-edges of
    two isomorphic i-packages in different copies swapped (the gamma
    pattern).  Nothing is filtered by a checker, so no input is chosen by
    the code under test."""
    sigma, triples = {}, []
    for k, lam in enumerate(shapes):
        G = build_standard_deg(lam)
        G = G.relabel({v: f"{k}:{v}" for v in G.vertices()})
        sigma.update(G.sigma)
        triples += G.edge_triples()
    U = SignedColoredGraph(sum(shapes[0]), sum(shapes[0]), sigma, triples)
    out = []
    while len(out) < count:
        i = rng.randrange(2, U.n)
        a = rng.choice(sorted(U.matching(i)))
        side = a.partition(":")[0]
        partners = [
            b for b in sorted(U.matching(i))
            if U.sigma[b] == U.sigma[a] and b.partition(":")[0] != side
        ]
        if partners:
            try:
                out.append(transform._rewire(U, i, a, rng.choice(partners), through_edge=True))
            except TransformError:
                pass
    return out


def axiom4_inputs():
    rng = random.Random(4)
    base = [G for _, G in corpus(8)]
    base += [build_standard_deg((4, 3, 2, 1)), build_standard_deg((5, 3, 2))]
    swapped = []
    for shapes in (((3, 2), (3, 2)), ((4, 2), (3, 2, 1)), ((3, 3, 1), (4, 2, 1)),
                   ((4, 3, 1), (4, 2, 2))):
        swapped += package_swaps(shapes, 6, rng)
    # relabelled copies move the least vertex that seeds the map; flipped
    # ones need the template's flipped signs
    copies = [sign_flipped(relabel_random(G, rng)[0]) for G in base[:-2] + swapped]
    return base, copies, swapped


def test_axiom4_witnesses_match_permutation_matcher():
    base, copies, swapped = axiom4_inputs()
    failing = []
    for G in base + copies + swapped:
        want = reference_axiom4_witnesses(G)
        assert check_axiom(G, 4).witnesses == want, G
        failing.append(bool(want))
    assert sum(failing[: len(base)]) == 10
    assert sum(failing[-len(swapped) :]) == 21


# ---------------------------------------------------------------------------
# `degraphs analyze`: types, defect sets, U_i, chains and node trees


# sha256 of the stdout of `degraphs analyze <fixture> --color i`, recorded
# before the component refinement, chain walks and rewiring core were shared
ANALYZE_GOLDEN = {
    ("fig1", 3): "631947e23637a04e7c5d3703670017cdcb532689c1d5df909139b13a1d2c824a",
    ("fig1", 4): "b05b9228ae91c6dfc4633309b6600243b92fc319d8b04e604afd87182e00db33",
    ("fig12", 3): "4d8fccb8bd8dc6d03b149552869a3f9629385655671bf35a41211481e5797e9e",
    ("fig12", 4): "2662f9c4e61e29762760da633e74ad0b23610d560f8656688ef3e68b0509b543",
    ("fig13", 3): "a5a770b011e5f58dcb16aa1d2603ab352a3bcbd290535a942a9a6d17e3dc59eb",
    ("fig13", 4): "90c4d02e4654ccc9c6f73e43259be46917b4bb177424160ccdb90b80f5086040",
    ("fig19", 3): "6953fb6a6c6e8ff9c36453d25a888fc123ccb1503568ec76faf7c625d97fdabc",
    ("fig19", 4): "e7b821fd3a5006c66bddfe13e6c92b9674f6f2eed122cc69cbdd4443efa807fb",
    ("fig19", 5): "f8992ff838bdc1e302c54f6649ee42deeb85d49ca65fc9f7577dd5c240679bf7",
    ("fig21", 3): "76ef6f2e1e51356af256c3a0da0d2acdb4ab71d112c5c14c2b277f34a86348cf",
    ("fig21", 4): "efdbdda3e7a21a3388f21dc8c72ae767084dbb80eb24b263821e0eb415ef0cec",
    ("fig21", 5): "578d19a5a1bc0122c99d3ff785502abb99098b896882a804193ba5c7674540b0",
    ("fig4a", 3): "c79f1187cf2494526c492fe57cf43284c7610f0ecfc90182bb472cf6d75e4f4b",
    ("fig4b", 3): "3ace5c2906009bdeeb415cb076fbf6d01ff6b7d4ea8e2923429f9c56605dbc84",
    ("fig4c", 3): "7dc8a950411b2898082ef27eb06fc5e5e4e009ce05a13ec9ab75fed17cbe0d95",
    ("fig5a", 3): "a3d381ebf35752a5d6fc8b150894bc39c6d990d903808224080495bb45509b4a",
    ("fig5a", 4): "b81c23b7dd76bd3ede4140de3b0f024a3c3509685b5d6750dabc658fd9ca4f2e",
    ("fig5b", 3): "163ca9aebbcf36f3892fe6e93cdeae1c5633279a40c5e3eea3fbb280ee4d25be",
    ("fig5b", 4): "1885f04972a9a1331955df854ea4421156d7f6c515d13e9c8c9db4b8d02c4eef",
    ("fig5c", 3): "0a7fcddf350e1f15109fd476665d8ca03da0f7852e719a7498f282f77a699ffb",
    ("fig5c", 4): "508a70dcefc32e45702f86a727df1d2538eb24dd6df1e21bbc601b45fa454633",
    ("fig6", 3): "6dadfe052a12915b30589408b6fd2ef12fdb255181a68c6abbaae89f648c7b8c",
    ("fig6", 4): "e55b75d68d0e903aac5ad68c8ff29800295d2e7e3d4f2348fdb58151d08e6b8b",
    ("fig6", 5): "ccf00a4e1ad20c9d7e28b70b2e1e99341ab3f66c2ca5cd763c204238461df988",
    ("fig8", 3): "e90a916fbd092f4eef1acbeb2bebb50735c833e338bd763c7b7eef398a3afc1e",
    ("fig8", 4): "93d2e32649b01051e274d09314ad0f8363f16f6503e2a0338a29261984b214b4",
    ("fig9", 3): "e96d5ea92de3d4548225ca1c32078e88ce195b72b536a79144652327500b781a",
    ("fig9", 4): "afa051f9a78237427fe510d27a44f75c2015ab99659bf48179d998d904560355",
}


def test_analyze_output_is_pinned(capsys, tmp_path):
    outputs = {}
    for name in fixture_names():
        G = fixture(name)
        path = tmp_path / f"{name}.json"
        path.write_text(G.to_text())
        for i in range(3, G.n):
            assert cli.main(["analyze", str(path), "--color", str(i)]) == 0
            outputs[name, i] = capsys.readouterr().out
    assert {key: sha(text) for key, text in outputs.items()} == ANALYZE_GOLDEN
    trees = {name for (name, _), text in outputs.items() if "node tree of" in text}
    assert {"fig1", "fig5a", "fig6"} <= trees
    assert any(": n/a (" in text for text in outputs.values())
