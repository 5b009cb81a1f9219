"""Standard and augmented graph construction plus identification."""

import hashlib

import pytest

from degraphs.axioms import is_locally_schur_positive
from degraphs.combinatorics import (
    descent_signature,
    dual_equiv_involution,
    enumerate_partitions,
    sig_str,
    tableau_from_id,
)
from degraphs.standard import (
    AugmentingTableau,
    build_augmented_deg,
    build_standard_deg,
    identify_component,
    single_cell_augmentation,
    standard_automorphisms,
)
from degraphs.symfunc import schur_to_fundamental

from conftest import relabel_random


class TestStandardGraph:
    def test_fig1_exact(self):
        G = build_standard_deg((3, 2))
        sigs = sorted(sig_str(s) for s in G.sigma.values())
        assert sigs == sorted(["+-++", "-+-+", "-++-", "+-+-", "++-+"])
        by_sig = {sig_str(s): v for v, s in G.sigma.items()}
        a, b, c = by_sig["+-++"], by_sig["-+-+"], by_sig["-++-"]
        d, e = by_sig["+-+-"], by_sig["++-+"]
        edges = {(c, frozenset((u, w))) for c, u, w in G.edge_triples()}
        assert edges == {
            (2, frozenset((a, b))), (3, frozenset((a, b))),
            (4, frozenset((b, c))),
            (2, frozenset((c, d))),
            (3, frozenset((d, e))), (4, frozenset((d, e))),
        }

    def test_single_row(self):
        G = build_standard_deg((4,))
        assert len(G.sigma) == 1
        assert not G.edge_triples()
        assert set(G.sigma.values()) == {(1, 1, 1)}

    def test_two_by_two_double_edge(self):
        G = build_standard_deg((2, 2))
        assert len(G.sigma) == 2
        assert sorted(c for c, _, _ in G.edge_triples()) == [2, 3]
        (u, w) = G.vertices()
        assert G.neighbor(u, 2) == w and G.neighbor(u, 3) == w

    def test_generating_function_is_schur(self):
        for n in range(1, 8):
            for lam in enumerate_partitions(n):
                G = build_standard_deg(lam)
                assert G.generating_function() == schur_to_fundamental(lam)

    def test_each_caller_gets_an_unmarked_graph(self):
        """A check that marks one caller's G_lam does not reach the next
        caller, who would otherwise skip the scan."""
        G = build_standard_deg((3, 2))
        assert is_locally_schur_positive(G).holds
        assert G._lsp_base is True
        H = build_standard_deg((3, 2))
        assert H._lsp_base is None
        assert H == G and H.sigma is G.sigma


class TestAugmented:
    def test_single_cell_on_column(self):
        aug = single_cell_augmentation((2, 1), 2)
        G = build_augmented_deg(aug)
        assert (G.n, G.N) == (3, 4)
        assert len(G.sigma) == 2
        assert all(len(s) == 3 for s in G.sigma.values())

    def test_empty_augmentation_matches_standard(self):
        lam = (3, 2)
        aug = AugmentingTableau.from_dict(lam, lam, {})
        assert build_augmented_deg(aug) == build_standard_deg(lam)

    def test_restriction_recovers_standard(self):
        lam = (2, 2)
        aug = single_cell_augmentation(lam, 0)  # cell with 5 at end of row 1
        G = build_augmented_deg(aug)
        assert (G.n, G.N) == (4, 5)
        comp = G.components(range(2, 4))[0]
        out = identify_component(G, comp, 4)
        assert out is not None and out[0] == lam

    def test_every_component_of_restriction_is_standard(self):
        for lam, row in [((2, 1), 0), ((2, 1), 1), ((3, 1), 1), ((2, 2), 0)]:
            n = sum(lam)
            G = build_augmented_deg(single_cell_augmentation(lam, row))
            for comp in G.components(range(2, n)):
                out = identify_component(G, comp, n)
                assert out is not None and out[0] == lam

    @pytest.mark.parametrize("row", [-1, -2, 3])
    def test_row_outside_the_shape_rejected(self, row):
        with pytest.raises(ValueError, match=rf"^cannot add a cell in row {row} of \(2, 1\)$"):
            single_cell_augmentation((2, 1), row)

    def test_invalid_filling_rejected(self):
        with pytest.raises(ValueError):
            AugmentingTableau.from_dict((2, 2), (2, 1), {(1, 1): 3}).validate()


def pinned_graphs():
    """Every G_lam with n <= 9, then every single-cell G_lam^A with n <= 8."""
    for n in range(1, 10):
        for lam in enumerate_partitions(n):
            yield build_standard_deg(lam)
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            for row in range(len(lam) + 1):
                if row == 0 or (lam + (0,))[row] < lam[row - 1]:
                    yield build_augmented_deg(single_cell_augmentation(lam, row))


class TestBuiltGraphs:
    def test_signatures_and_edges_are_the_definitions(self):
        """Each signature is its tableau's descent signature, each i-edge is
        d_i, and there is no i-edge where d_i fixes the tableau."""
        for G in pinned_graphs():
            tableau = {v: tableau_from_id(v) for v in G.vertices()}
            for v, t in tableau.items():
                assert G.sigma[v] == descent_signature(t)
                for i in range(2, G.n):
                    s = dual_equiv_involution(t, i)
                    w = G.neighbor(v, i)
                    assert w is None if s == t else tableau[w] == s

    def test_text_is_pinned(self):
        """The edge order, which the benchmark's input digests read."""
        digest = hashlib.sha256()
        for G in pinned_graphs():
            digest.update(G.to_text().encode())
        assert digest.hexdigest() == (
            "f6934285e8fb7cbd560b0219b5db779fbc4c5723a3bb6beccb993e71bcd7a198"
        )

    def test_degree_10_text_is_pinned(self):
        """The three G_lam of degree 10 that the benchmark's
        ``standard_certify`` set-up builds: its two inputs of degree 10 and
        the conjugate of (5, 3, 2), which has as many tableaux."""
        digest = hashlib.sha256()
        for lam in ((5, 3, 2), (4, 3, 2, 1), (3, 3, 2, 1, 1)):
            digest.update(build_standard_deg(lam).to_text().encode())
        assert digest.hexdigest() == (
            "c3c459f79773e75a2c820411be1d6c42d53a1380344e8b94c33a1c70ae4b00b4"
        )


class TestIdentify:
    def test_standard_graphs_identify(self, rng):
        for n in range(2, 7):
            for lam in enumerate_partitions(n):
                G, _ = relabel_random(build_standard_deg(lam), rng)
                out = identify_component(G, G.vertices(), G.n)
                assert out is not None and out[0] == lam

    def test_identification_map_is_isomorphism(self, rng):
        G, _ = relabel_random(build_standard_deg((3, 2, 1)), rng)
        lam, mapping = identify_component(G, G.vertices(), G.n)
        target = build_standard_deg(lam)
        for c, u, w in G.edge_triples():
            assert target.neighbor(mapping[u], c) == mapping[w]
        for v in G.vertices():
            assert G.sigma[v] == target.sigma[mapping[v]]

    def test_cover_not_identified(self):
        from degraphs.fixtures import fixture

        G = fixture("fig6")
        assert identify_component(G, G.vertices(), G.n) is None

    def test_single_all_plus_vertex(self):
        G = build_standard_deg((4,))
        out = identify_component(G, G.vertices(), G.n)
        assert out is not None and out[0] == (4,)

    @pytest.mark.parametrize("m", [0, 5])
    def test_degree_outside_the_colors_rejected(self, m):
        G = build_standard_deg((3, 1))
        with pytest.raises(ValueError, match=rf"^degree {m} outside 1\.\.4$"):
            identify_component(G, G.vertices(), m)


class TestRigidity:
    def test_no_extra_automorphisms_small(self):
        for n in range(2, 7):
            for lam in enumerate_partitions(n):
                assert standard_automorphisms(lam) == 1, lam
