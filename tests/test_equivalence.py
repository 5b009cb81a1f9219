"""The memoised and first-eligible code paths against plain references: the
pipeline's output is pinned byte for byte, LSP witnesses match a per-window
positivity check, and the committed defect step is the first vertex of U_i."""

import hashlib
import random

import pytest

from degraphs import axioms
from degraphs.axioms import check_lsp, is_locally_schur_positive
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
