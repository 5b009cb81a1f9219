"""Cross-cutting invariants tying the modules together."""

import random

from degraphs.axioms import (
    _TWO_COLOR_TEMPLATES,
    check_axiom,
    check_axiom4a,
    check_axiom4b,
    check_lsp,
)
from degraphs.fixtures import fixture, signatures_from_structure
from degraphs.graph import SignedColoredGraph
from degraphs.structure import _flat, _type_w, defect_sets
from degraphs.transform import apply_phi, apply_step, full_pipeline, one_step, replay

from conftest import benchmark_corpus, corpus, nonflat_chain_through, relabel_random
from test_axioms import _component_matches_template


def hexagon() -> SignedColoredGraph:
    """Six-vertex cycle alternating the two colors: a length-six non-flat
    chain, so the long rewiring variant applies."""
    triples = [
        (2, "w1", "w2"), (3, "w2", "w3"), (2, "w3", "w4"),
        (3, "w4", "w5"), (2, "w5", "w6"), (3, "w6", "w1"),
    ]
    verts = [f"w{k}" for k in range(1, 7)]
    sigma = signatures_from_structure(4, 4, verts, triples)
    return SignedColoredGraph(4, 4, sigma, triples)


class TestLongVariant:
    def test_long_phi_strictly_shrinks(self):
        G = hexagon()
        sets = defect_sets(G, 3)
        assert len(sets.W) == 6 and sets.W0 == sets.W
        chain = nonflat_chain_through(G, "w2", 3)
        assert len(chain) == 6 and len(set(chain)) == 6
        H = apply_phi(G, "w1", 3, r=1)
        after = defect_sets(H, 3)
        assert after.W < sets.W
        assert len(after.W) == 4
        assert H.generating_function() == G.generating_function()

    def test_pipeline_uses_long_step(self):
        G = hexagon()
        res = full_pipeline(G)
        assert res.certified
        assert res.expansion.to_string() == "3*s[2,2]"
        assert any(s.variant > 0 for s in res.log.steps)


class TestFlatnessEquivalences:
    def test_flat_edges_have_at_most_one_type_w_endpoint(self):
        # the converse fails on the corpus (a non-flat edge can have exactly
        # one type-W endpoint); only this direction is a theorem
        for name, G in corpus(7):
            if not all(check_axiom(G, k).holds for k in (1, 2, 3, 5)):
                continue
            for i in range(3, G.n):
                for u, w in G.matching(i).items():
                    if u > w:
                        continue
                    if _flat(G, G.pos[u], i):
                        assert not (
                            _type_w(G, G.pos[u], i) and _type_w(G, G.pos[w], i)
                        ), (name, i, u, w)

    def test_c_equals_c0_when_lower_templates_hold(self):
        for name, G in corpus(6):
            if not all(check_axiom(G, k).holds for k in (1, 2, 3, 5)):
                continue
            for i in range(4, G.n):
                ok = all(
                    _component_matches_template(
                        G, c, {i - 3: "a", i - 2: "b"}, (i - 4, i - 2),
                        _TWO_COLOR_TEMPLATES,
                    )
                    for c in G.components((i - 3, i - 2))
                )
                if not ok:
                    continue
                sets = defect_sets(G, i)
                assert sets.C0 == sets.C, (name, i)


class TestSupplementaryPreservation:
    def test_golden_steps_keep_4prime(self):
        for name in ("fig8", "fig12", "fig6"):
            G = fixture(name)
            res = full_pipeline(G)
            assert res.certified
            current = G
            for step in res.log.steps:
                current = apply_step(current, step)
                if check_lsp(current, 4).holds:
                    assert check_axiom4a(current).holds, (name, step)
                    assert check_axiom4b(current).holds, (name, step)


class TestOneStepContract:
    def test_restrictions_become_standard(self):
        G = fixture("fig8")
        for i in range(2, G.n):
            G, log = one_step(G, i)
            assert not log.aborted
            R = G.restrict(i + 1)
            for k in range(1, 7):
                assert check_axiom(R, k).holds, (i, k)

    def test_defect_free_colors_stay_clean(self):
        G = fixture("fig12")
        done = []
        for i in range(2, G.n):
            G, log = one_step(G, i)
            assert not log.aborted
            done.append(i)
            for j in done:
                if j >= 3:
                    assert defect_sets(G, j).all_empty(), (i, j)


class TestRunInvariants:
    """On scrambled unions of 2-3 standard graphs with n <= 6, each read
    back from its text as a user's file is: replaying a certified run's log
    on the input gives the run's graph, and the answer does not depend on
    the vertex names."""

    @staticmethod
    def answer(G):
        res = full_pipeline(G)
        shapes = None if res.components is None else sorted(lam for lam, _ in res.components)
        return res, (res.certified, res.log.aborted, res.expansion and res.expansion.to_string(),
                     shapes)

    def test_replay_and_relabelling_on_generated_unions(self):
        bc = benchmark_corpus()
        tally = {"replayed": 0, "aborted": 0}
        for seed in range(300):
            rng = random.Random(seed)
            n = rng.choice((4, 5, 6))
            shapes = [rng.choice(bc.edge_shapes(n)) for _ in range(rng.choice((2, 3)))]
            G = SignedColoredGraph.from_text(bc.scramble(bc.union(shapes), rng).to_text())
            res, want = self.answer(G)
            if res.certified and res.log.steps:
                assert replay(G, res.log).to_text() == res.graph.to_text(), seed
                tally["replayed"] += 1
            tally["aborted"] += res.log.aborted
            for _ in range(2):
                H = SignedColoredGraph.from_text(relabel_random(G, rng)[0].to_text())
                assert self.answer(H)[1] == want, seed
        # the draws reach both outcomes the invariants speak of
        assert tally["replayed"] >= 150 and tally["aborted"] >= 1, tally
