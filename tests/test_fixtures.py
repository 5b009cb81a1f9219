"""The built-in corpus and the structural signature solver."""

import pytest

from degraphs.axioms import check_axiom, is_locally_schur_positive
from degraphs.fixtures import (
    FIXTURES,
    fixture,
    fixture_names,
    signatures_from_structure,
    verify_fixture,
)
from degraphs.graph import SignedColoredGraph
from degraphs.standard import build_standard_deg


class TestRegistry:
    def test_names(self):
        assert set(fixture_names()) == {
            "fig1", "fig4a", "fig4b", "fig4c", "fig5a", "fig5b", "fig5c",
            "fig6", "fig8", "fig9", "fig12", "fig13", "fig19", "fig21",
        }

    def test_skip_large(self):
        small = fixture_names(skip_large=True)
        assert "fig6" not in small and "fig19" not in small and "fig21" not in small
        assert "fig8" in small

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            fixture("fig99")

    def test_each_caller_gets_an_unmarked_graph(self):
        """A check that marks one caller's graph does not reach the next
        caller, who would otherwise skip the scan."""
        G = fixture("fig8")
        assert is_locally_schur_positive(G).holds
        assert G._lsp_base is True
        H = fixture("fig8")
        assert H._lsp_base is None
        assert H == G and H.sigma is G.sigma

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_expectations(self, name):
        assert verify_fixture(name) == []


class TestStructuralSignatures:
    def test_recovers_standard_graph(self):
        G = build_standard_deg((3, 2, 1))
        sigma = signatures_from_structure(
            6, 6, G.vertices(), G.edge_triples()
        )
        lead = G.vertices()[0]
        flip = 1 if sigma[lead] == G.sigma[lead] else -1
        for v in G.vertices():
            assert sigma[v] == tuple(flip * x for x in G.sigma[v])

    def test_inconsistent_edges_rejected(self):
        # a lone top-color edge whose endpoints also carry low edges in a
        # pattern that cannot carry signs
        triples = [(3, "a", "b"), (4, "b", "c"), (4, "a", "d"), (3, "d", "c")]
        with pytest.raises(ValueError):
            signatures_from_structure(5, 5, ["a", "b", "c", "d"], triples)

    def test_reconstructed_fixtures_satisfy_reversal(self):
        for name in ("fig19", "fig21"):
            G = fixture(name)
            assert check_axiom(G, 1).holds
            assert check_axiom(G, 2).holds


class TestFig6:
    def test_double_cover_size(self):
        G = fixture("fig6")
        assert len(G.sigma) == 32
        assert len(G.components(G.colors())) == 1

    def test_restriction_pairs_up(self):
        G = fixture("fig6")
        comps = G.restrict(5).components(range(2, 5))
        sizes = sorted(len(c) for c in comps)
        assert sizes == [5, 5, 5, 5, 6, 6]  # shapes (3,2), (2,2,1) twice, (3,1,1) twice


class TestSerialisedFixtures:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_round_trip(self, name):
        G = fixture(name)
        assert SignedColoredGraph.from_text(G.to_text()) == G
