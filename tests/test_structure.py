"""Vertex types, chains, defect sets, U_i and pivots."""

import pytest

from degraphs.combinatorics import enumerate_partitions
from degraphs.fixtures import fixture
from degraphs.standard import build_standard_deg, single_cell_augmentation, build_augmented_deg
from degraphs.structure import (
    StructureError,
    _flat,
    _type_w,
    all_flat_chains,
    defect_sets,
    i_type,
    maximal_flat_chains,
    negatively_dominant,
    set_U,
)

from conftest import corpus, nonflat_chain_through


class TestTypes:
    def test_fig8_type_w(self):
        G = fixture("fig8")
        assert i_type(G, "t3", 3) == "W"
        assert i_type(G, "t4", 4) == "W"
        assert _type_w(G, G.pos["t4"], 4)

    def test_type_a_needs_no_lower_edges(self):
        G = fixture("fig12")
        # A0 has a 4-edge but neither a 2- nor a 3-neighbor
        assert i_type(G, "A0", 4) == "A"

    def test_low_colors_have_no_letter_types(self):
        G = build_standard_deg((2, 2))
        v = G.vertices()[0]
        assert i_type(G, v, 2) == "none"

    def test_standard_graph_types_live_in_templates(self):
        G = build_standard_deg((3, 2, 1))
        for v in G.vertices():
            for i in (4, 5):
                kind = i_type(G, v, i)
                assert kind in ("none", "W", "A", "B", "C")

    def test_type_partition_on_fig12(self):
        G = fixture("fig12")
        kinds = {v: i_type(G, v, 4) for v in G.vertices() if G.neighbor(v, 4)}
        assert kinds["C1"] == "W" and kinds["D1"] == "W"
        assert kinds["C3"] == "C" and kinds["CD"] == "C"


class TestFlatEdges:
    def test_color_two_flat_by_convention(self):
        G = build_standard_deg((2, 2))
        v = G.vertices()[0]
        assert _flat(G, G.pos[v], 2)

    def test_color_three_and_four_computed(self):
        G = build_standard_deg((3, 2))
        by_sig = {tuple(s): v for v, s in G.sigma.items()}
        e = by_sig[(1, 1, -1, 1)]  # double 3/4 edge endpoint
        assert _flat(G, G.pos[e], 3)  # position 1 agrees across it
        assert not _flat(G, G.pos[e], 4)  # position 2 differs: the root loop

    def test_flat_iff_one_endpoint_has_lower_neighbor(self):
        # on graphs satisfying axioms 1, 2, 3, 5
        for name, G in corpus(7):
            for i in range(3, G.n):
                for u, w in G.matching(i).items():
                    if u > w:
                        continue
                    flat = _flat(G, G.pos[u], i)
                    lower = (G.neighbor(u, i - 1) is not None) + (
                        G.neighbor(w, i - 1) is not None
                    )
                    assert flat == (lower == 1), (name, i, u, w)


class TestChains:
    def test_nonflat_chain_fig8(self):
        G = fixture("fig8")
        chain = nonflat_chain_through(G, "t3", 3)
        assert chain == ("t2", "t3", "t4", "t5")

    def test_flat_chain_fig12(self):
        G = fixture("fig12")
        chains = maximal_flat_chains(G, 4)
        best = max(chains, key=len)
        assert best == ("C1", "C2", "C3", "CD", "D3", "D2")

    def test_standard_chains_short(self):
        for lam in enumerate_partitions(6):
            G = build_standard_deg(lam)
            for i in range(4, 6):
                for ch in maximal_flat_chains(G, i):
                    assert len(ch) <= 4

    def test_low_colors_have_no_flat_chains(self):
        G = fixture("fig8")
        for i in (2, 3):
            assert all_flat_chains(G, i) == maximal_flat_chains(G, i) == []


class TestDefectSets:
    def test_standard_all_empty(self):
        for n in range(3, 8):
            for lam in enumerate_partitions(n):
                G = build_standard_deg(lam)
                for i in range(3, n):
                    assert defect_sets(G, i).all_empty(), (lam, i)

    def test_fig8_values(self):
        G = fixture("fig8")
        d3 = defect_sets(G, 3)
        assert d3.W == {"b1", "m1", "t3", "t4"}
        assert d3.W0 == d3.W
        assert not d3.C

    def test_fig12_values(self):
        G = fixture("fig12")
        d4 = defect_sets(G, 4)
        assert d4.W == {"C1", "D1"}
        assert d4.C == {"C3", "CD"}
        assert d4.C0 == d4.C

    def test_w_symmetric_under_lower_edge(self):
        for name, G in corpus(7):
            for i in range(3, G.n):
                W = defect_sets(G, i).W
                for v in W:
                    u = G.neighbor(v, i - 1)
                    assert u is not None
                    assert _type_w(G, G.pos[u], i), (name, i, v)

    @pytest.mark.parametrize("color", [0, 1, 5, 99])
    def test_color_outside_the_graph_is_rejected(self, color):
        """A color outside 1 < i < n is an error, not an empty set."""
        G = fixture("fig8")
        assert G.n == 5
        type_of_t3 = lambda G, i: i_type(G, "t3", i)
        for query in (defect_sets, set_U, type_of_t3, all_flat_chains, maximal_flat_chains):
            with pytest.raises(ValueError, match=f"color {color} outside 1 < i < n = 5"):
                query(G, color)

    def test_fig19_w5_filtered_out(self):
        G = fixture("fig19")
        d5 = defect_sets(G, 5)
        assert d5.W and not d5.W0

    def test_w0_equals_w_when_lower_templates_hold(self):
        from degraphs.axioms import check_axiom

        for name, G in corpus(6):
            if not all(check_axiom(G, k).holds for k in (1, 2, 3, 5)):
                continue
            for i in range(3, G.n):
                # two-color components one level down in the templates?
                from degraphs.axioms import _TWO_COLOR_TEMPLATES
                from test_axioms import _component_matches_template

                if i >= 4:
                    ok = all(
                        _component_matches_template(
                            G, c, {i - 2: "a", i - 1: "b"}, (i - 3, i - 1),
                            _TWO_COLOR_TEMPLATES,
                        )
                        for c in G.components((i - 2, i - 1))
                    )
                    if not ok:
                        continue
                sets = defect_sets(G, i)
                assert sets.W0 == sets.W, (name, i)


class TestSetU:
    def test_fig8_u3(self):
        G = fixture("fig8")
        assert set_U(G, 3) == [
            ("b1", "phi"), ("m1", "phi"), ("t3", "phi"), ("t4", "phi"),
        ]

    def test_fig19_u4_empty(self):
        assert set_U(fixture("fig19"), 4) == []

    def test_fig21_u4_empty(self):
        assert set_U(fixture("fig21"), 4) == []

    def test_empty_without_defects(self):
        assert set_U(build_standard_deg((3, 2, 1)), 4) == []

    def test_fig12_u4_is_psi_only(self):
        # the type-W pair C1/D1 fails the package-flatness filter until the
        # color-3 rewiring has run, so only the flat-chain move is eligible
        got = set_U(fixture("fig12"), 4)
        assert got == [("C3", "psi"), ("CD", "psi")]

    def test_fig12_u4_gains_phi_after_color3(self):
        from degraphs.transform import apply_phi

        G = apply_phi(fixture("fig12"), "B1", 3)
        kinds = {k for _, k in set_U(G, 4)}
        assert kinds == {"phi", "psi"}


class TestNegativelyDominant:
    def test_fig6_picks_maximal_shape(self):
        G = fixture("fig6")
        H = G.components(range(2, 6))[0]
        pivot = negatively_dominant(G, H, 5)
        assert pivot is not None
        from degraphs.standard import identify_component

        lam, _ = identify_component(G, pivot, 5)
        assert lam == (3, 2)

    def test_single_component(self):
        G = build_standard_deg((3, 2))
        H = G.components(range(2, 5))[0]
        pivot = negatively_dominant(G, H, 4)
        assert pivot is not None
        assert set(pivot) <= set(H)

    def test_augmented_mixed_signs(self):
        # type (4, 5): the sign at position 4 separates the restricted
        # components, so the minus branch must win over dominance
        G = build_augmented_deg(single_cell_augmentation((3, 1), 1))
        H = G.components(range(2, 4))[0]
        pivot = negatively_dominant(G, H, 3)
        assert pivot is not None
        assert {G.sigma[v][3] for v in pivot} == {-1}
        assert len(pivot) == 2  # the minus-signed pair, not the plus singleton

    def test_all_plus_branch_takes_dominance_maximum(self):
        G = build_augmented_deg(single_cell_augmentation((3, 2), 0))
        H = G.components(range(2, 5))[0]
        pivot = negatively_dominant(G, H, 4)
        assert pivot is not None
        from degraphs.standard import identify_component

        lam, _ = identify_component(G, pivot, 4)
        assert lam == (3, 1)

    def test_unidentifiable_raises(self):
        G = fixture("fig6")
        with pytest.raises(StructureError):
            negatively_dominant(G, G.vertices(), 6)
