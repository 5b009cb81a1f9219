"""Axiom checkers, positivity conditions, classification, cross-checks."""

import gc
from collections import Counter

import pytest

from degraphs import axioms, symfunc
from degraphs.axioms import (
    check_axiom,
    check_axiom4a,
    check_axiom4b,
    check_lsf,
    check_lsp,
    classify_small_component,
    is_dual_equivalence_graph,
    is_locally_schur_positive,
)
from degraphs.combinatorics import enumerate_partitions, sig_from_str
from degraphs.fixtures import fixture
from degraphs.graph import SignedColoredGraph
from degraphs.standard import build_augmented_deg, build_standard_deg, single_cell_augmentation
from degraphs.structure import defect_sets

from conftest import corpus


def _component_matches_template(G, vertices, color_roles, window, templates) -> bool:
    """Exact match of an extracted component against one template, with the
    template's signs as listed or globally flipped, by its
    ``axioms._component_key``."""
    lo, hi = window
    if lo < 1:  # a window reaching below position 1 matches no template
        return False
    partners = [G.partner[c] for c in sorted(color_roles, key=color_roles.get)]
    code = axioms._window_codes(G.pbits, partners, lo, hi - lo + 1)
    positions = [G.ids.index(v) for v in vertices]
    return axioms._component_key(code, positions) in axioms._template_keys(templates)


class TestAxiomsOnStandard:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_g32_passes(self, k):
        assert check_axiom(build_standard_deg((3, 2)), k).holds

    def test_all_axioms_small(self):
        for n in range(1, 7):
            for lam in enumerate_partitions(n):
                G = build_standard_deg(lam)
                for k in range(1, 7):
                    assert check_axiom(G, k).holds, (lam, k)


class TestAxiomFailures:
    def test_fig6_fails_only_axiom6(self):
        G = fixture("fig6")
        for k in range(1, 6):
            assert check_axiom(G, k).holds, k
        rep = check_axiom(G, 6)
        assert not rep.holds and rep.witnesses

    def test_broken_axiom1(self):
        G = SignedColoredGraph(3, 3, {"a": (1, -1), "b": (-1, 1), "c": (1, -1)}, [(2, "a", "b")])
        rep = check_axiom(G, 1)
        assert not rep.holds
        assert any(w[1] == "c" for w in rep.witnesses)

    def test_broken_axiom2(self):
        G = SignedColoredGraph(
            3, 5, {"a": (1, -1, 1, 1), "b": (-1, 1, 1, -1)}, [(2, "a", "b")]
        )
        assert not check_axiom(G, 2).holds  # position 4 must be preserved

    def test_axiom5_commutation(self):
        sig = {
            "a": (1, -1, 1, 1, -1),
            "b": (-1, 1, 1, 1, -1),
            "c": (1, -1, 1, -1, 1),
            "d": (-1, 1, 1, -1, 1),
        }
        good = SignedColoredGraph(
            6, 6, sig, [(2, "a", "b"), (5, "a", "c"), (5, "b", "d"), (2, "c", "d")]
        )
        assert check_axiom(good, 5).holds
        bad = SignedColoredGraph(6, 6, sig, [(2, "a", "b"), (5, "a", "c")])
        assert not check_axiom(bad, 5).holds


class TestAxiomArguments:
    @pytest.mark.parametrize("k", [4, 6])
    @pytest.mark.parametrize("colors", [[3], {3: {0, 1}}, []])
    def test_axioms_4_and_6_take_no_colors(self, k, colors):
        with pytest.raises(ValueError) as err:
            check_axiom(fixture("fig8"), k, colors)
        assert str(err.value) == f"axiom {k} takes no colors"

    @pytest.mark.parametrize("k", [0, 7])
    def test_unknown_axiom(self, k):
        G = fixture("fig8")
        for call in (lambda: check_axiom(G, k), lambda: check_axiom(G, k, [3]),
                     lambda: axioms.axiom_holds(G, k)):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == f"unknown axiom {k}"

    @pytest.mark.parametrize(
        "check, k",
        [(check_axiom, k) for k in (1, 2, 3, 5)] + [(check_lsp, m) for m in (4, 5, 6)],
    )
    @pytest.mark.parametrize("color", [1, "n", 99])
    def test_colors_outside_the_graph(self, check, k, color):
        G = fixture("fig8")
        color = G.n if color == "n" else color
        with pytest.raises(ValueError) as err:
            check(G, k, [color])
        assert str(err.value) == f"color {color} outside 1 < i < n = {G.n}"

    def test_base_with_other_signatures_is_rejected(self):
        lam = (3, 2)
        B = build_augmented_deg(single_cell_augmentation(lam, 0))
        v = B.ids[0]
        sigma = {**B.sigma, v: B.sigma[v][:-1] + (-B.sigma[v][-1],)}
        G = SignedColoredGraph(B.n, B.N, sigma, B.edge_triples())
        assert not check_axiom(G, 2).holds
        assert not is_dual_equivalence_graph(G)
        with pytest.raises(ValueError):
            is_dual_equivalence_graph(G, B)
        # an equal base that shares nothing with the graph is taken
        assert is_dual_equivalence_graph(B, SignedColoredGraph.from_text(B.to_text()))


class TestLSF:
    def test_g32_multiplicity_free(self):
        G = build_standard_deg((3, 2))
        assert check_lsf(G, 4).holds

    def test_fig4a_fails(self):
        rep = check_lsf(fixture("fig4a"), 4)
        assert not rep.holds

    def test_fig8_fails_lsf4(self):
        assert not check_lsf(fixture("fig8"), 4).holds

    def test_fig8_is_lsp(self):
        for m in (4, 5, 6):
            assert check_lsp(fixture("fig8"), m).holds

    def test_fig19_fails_lsp6(self):
        G = fixture("fig19")
        assert check_lsp(G, 4).holds
        assert check_lsp(G, 5).holds
        assert not check_lsp(G, 6).holds

    def test_single_vertex_vacuous(self):
        G = SignedColoredGraph(6, 6, {"v": (1, 1, 1, 1, 1)}, [])
        for m in (4, 5, 6):
            assert check_lsp(G, m).holds and check_lsf(G, m).holds

    def test_second_check_runs_no_schur_expansion(self, monkeypatch):
        G = fixture("fig8")
        first = check_lsf(G, 4)
        expansions, real = [], symfunc.expand_in_schur

        def spy(f):
            expansions.append(f)
            return real(f)

        monkeypatch.setattr(symfunc, "expand_in_schur", spy)
        monkeypatch.setattr(axioms, "expand_in_schur", spy)
        assert check_lsf(G, 4) == first
        assert expansions == []


class TestLocallySchurPositive:
    @pytest.mark.parametrize("name", ["fig8", "fig12", "fig1"])
    def test_positive_fixtures(self, name):
        assert is_locally_schur_positive(fixture(name)).holds

    def test_fig19_not(self):
        assert not is_locally_schur_positive(fixture("fig19")).holds

    def test_only_color_rewiring_is_checked_by_difference(self, monkeypatch):
        bases = []  # the verified ancestors checked against
        real = axioms._changed_scope

        def spy(H, base):
            if base is not None:
                bases.append(base)
            return real(H, base)

        monkeypatch.setattr(axioms, "_changed_scope", spy)
        G = fixture("fig8")
        assert is_locally_schur_positive(G).holds and bases == []
        for H in (
            SignedColoredGraph(G.n, G.N, G.sigma, G.edge_triples()),
            SignedColoredGraph.from_text(G.to_text()),
            G.restrict(4),
            G.relabel({v: v.upper() for v in G.vertices()}),
            G.subgraph(G.vertices()[:8]),
        ):
            is_locally_schur_positive(H)
        assert bases == []
        H = G.with_color_matching(3, {})  # fails axiom 1
        K = H.with_color_matching(3, G.matching(3))
        assert not is_locally_schur_positive(H).holds
        assert is_locally_schur_positive(K).holds
        assert bases == [G, G]
        # a graph that passed holds no older graph; one that failed keeps
        # its verified ancestor
        assert all(r is not G for r in gc.get_referents(K))
        assert any(r is G for r in gc.get_referents(H))

    def test_a_graph_checked_twice_reads_its_mark(self):
        """The second call returns on the pass mark; scanning again would
        ask ``_changed_scope`` for the difference against ``True``."""
        G = fixture("fig8")
        assert is_locally_schur_positive(G).holds and G._lsp_base is True
        report = is_locally_schur_positive(G)
        assert report.holds and report.witnesses == []
        assert axioms.lsp_holds(G)

    def test_windows_missing_the_scope_are_not_walked(self, monkeypatch):
        """Checked by difference, a graph with color 2 rewired walks the
        windows holding color 2 and no other: on type (6, 6) those are
        2-3 at degree 4, 2-4 at degree 5 and 2-5 at degree 6."""
        G = fixture("fig6")
        assert is_locally_schur_positive(G).holds
        old = G.matching(2)
        u = min(old)
        H = G.with_color_matching(2, {a: b for a, b in old.items() if u not in (a, b)})
        scope = axioms._changed_scope(H, G)
        assert scope.keys() == {2}
        walked = []
        walk = SignedColoredGraph._walk

        def spy(self, starts, colors):
            walked.append(tuple(colors))
            return walk(self, starts, colors)

        monkeypatch.setattr(SignedColoredGraph, "_walk", spy)
        for m in (4, 5, 6):
            check_lsp(H, m, scope)
        assert walked == [(2, 3), (2, 3, 4), (2, 3, 4, 5)]


class TestClassification:
    @pytest.mark.parametrize(
        "name,degree,kind,k",
        [
            ("fig4a", 4, "s31_plus_k_s22", 1),
            ("fig4b", 4, "s211_plus_k_s22", 1),
            ("fig4c", 4, "k_s22", 2),
            ("fig5a", 5, "s32_plus_k_s311", 1),
            ("fig5b", 5, "s221_plus_k_s311", 1),
            ("fig5c", 5, "k_s311", 2),
            ("fig6", 6, "k_s321", 2),
        ],
    )
    def test_fixture_forms(self, name, degree, kind, k):
        G = fixture(name)
        comp = G.components(G.colors())[0]
        got = classify_small_component(G, comp)
        assert G.n == degree and got.ok and got.kind == kind and got.k == k

    def test_single_schur_component(self):
        G = build_standard_deg((3, 1))
        comp = G.components(G.colors())[0]
        got = classify_small_component(G, comp)
        assert got.ok and got.kind == "single" and got.lam == (3, 1)

    def test_hypothesis_violation_reported(self):
        # two isolated vertices with non-positive degree-4 window
        G = SignedColoredGraph(
            4, 4, {"a": (1, 1, -1), "b": (-1, -1, 1)}, [(3, "a", "b")]
        )
        comp = G.components(G.colors())[0]
        got = classify_small_component(G, comp)
        assert not got.ok

    def test_degree6_props_on_corpus(self):
        # connected degree-6 graphs with LSF up through 5 classify as a single
        # Schur function or a multiple of the staircase shape
        for lam in enumerate_partitions(6):
            G = build_standard_deg(lam)
            comp = G.components(G.colors())[0]
            got = classify_small_component(G, comp)
            assert got.ok and got.kind == "single" and got.lam == lam


class TestSupplementaryAxioms:
    def test_fig19_fails_4a(self):
        assert not check_axiom4a(fixture("fig19")).holds

    def test_fig8_passes_4a(self):
        assert check_axiom4a(fixture("fig8")).holds

    def test_fig21_passes_4a_fails_4b(self):
        G = fixture("fig21")
        assert check_axiom4a(G).holds
        assert not check_axiom4b(G).holds

    def test_vacuous_on_standard(self):
        for lam in [(3, 2), (3, 2, 1), (4, 2)]:
            G = build_standard_deg(lam)
            assert check_axiom4a(G).holds
            assert check_axiom4b(G).holds

    def test_4a_reads_w_alone(self, monkeypatch):
        """Axiom 4'a reads W_i and nothing else of the defect sets: it never
        builds the flat chains' interiors C_i."""
        from degraphs import structure

        def interiors(G, i):
            raise AssertionError(f"4'a built C_{i}")

        monkeypatch.setattr(structure, "_flat_interiors", interiors)
        assert not check_axiom4a(fixture("fig19")).holds
        for name in ("fig8", "fig21"):
            assert check_axiom4a(fixture(name)).holds
        assert check_axiom4a(build_standard_deg((4, 3, 2, 1))).holds


class TestAxiom4Lookup:
    @pytest.mark.parametrize(
        "templates", [axioms._TWO_COLOR_TEMPLATES, axioms._THREE_COLOR_TEMPLATES]
    )
    def test_template_signatures_are_distinct(self, templates):
        # the lookup is exact only because of this
        for _, sigs in templates:
            for flip in (1, -1):
                signed = [tuple(flip * x for x in sig_from_str(t)) for t in sigs]
                assert len(set(signed)) == len(signed), sigs

    def test_larger_component_fitting_a_template_everywhere_fails(self):
        # a 4-cycle alternating colors 2 and 3: every vertex sees what a
        # vertex of the double edge sees, but the component has four vertices
        sigma = {v: sig_from_str(t) for v, t in zip("abcd", ("+-+", "-+-", "+-+", "-+-"))}
        edges = [(2, "a", "b"), (2, "c", "d"), (3, "b", "c"), (3, "d", "a")]
        G = SignedColoredGraph(4, 4, sigma, edges)
        assert not _component_matches_template(
            G, ("a", "b", "c", "d"), {2: "a", 3: "b"}, (1, 3), axioms._TWO_COLOR_TEMPLATES
        )
        assert check_axiom(G, 4).witnesses == [(3, "a", "two-color component not allowed")]
        # the double edge itself is allowed
        H = G.subgraph("ab").with_color_matching(3, {"a": "b", "b": "a"})
        assert check_axiom(H, 4).holds

    @pytest.mark.parametrize(
        "sigs, edges",
        [
            # the double edge's signatures joined in one color only
            (("+-+", "-+-"), [(2, "a", "b")]),
            # the path's signatures with its two colors swapped
            (("-++", "+-+", "++-"), [(3, "a", "b"), (2, "b", "c")]),
        ],
    )
    def test_template_signatures_with_other_edges_fail(self, sigs, edges):
        G = SignedColoredGraph(4, 4, {v: sig_from_str(t) for v, t in zip("abc", sigs)}, edges)
        assert check_axiom(G, 4).witnesses == [(3, "a", "two-color component not allowed")]


class TestAxiom4ThreeColorFirst:
    """For n >= 5 the three-color pass decides axiom 4, and the two-color
    pass runs only to word the witnesses."""

    @pytest.mark.parametrize("edges, sigs", axioms._THREE_COLOR_TEMPLATES)
    @pytest.mark.parametrize("flip", (1, -1))
    def test_three_color_templates_hold_two_color_axiom4(self, edges, sigs, flip):
        # each template embedded as a type (5, 5) graph, a, b, c = 2, 3, 4,
        # so its signatures fill the window of color 4; the two-color pass
        # looks at windows 3 (colors 2, 3) and 4 (colors 3, 4)
        color = {"a": 2, "b": 3, "c": 4}
        sigma = {str(k): tuple(flip * x for x in sig_from_str(t)) for k, t in enumerate(sigs)}
        G = SignedColoredGraph(5, 5, sigma, [(color[r], str(u), str(w)) for u, w, r in edges])
        assert list(axioms._axiom4_pass(G, 4)) == []
        assert list(axioms._axiom4_pass(G, 3)) == []

    @staticmethod
    def _code_widths(monkeypatch, G, run):
        """The widths of the local codes built at G's windows by ``run()``."""
        widths = Counter()
        real = axioms._window_codes

        def spy(bits, partners, lo, width):
            if bits is G.pbits:
                widths[width] += 1
            return real(bits, partners, lo, width)

        with monkeypatch.context() as m:
            m.setattr(axioms, "_window_codes", spy)
            run()
        return widths

    def test_no_two_color_code_where_three_color_components_hold(self, monkeypatch):
        G = build_standard_deg((4, 3, 2, 1))
        widths = self._code_widths(monkeypatch, G, lambda: check_axiom(G, 4))
        assert widths == {4: G.n - 4}

    def test_both_passes_where_a_three_color_component_fails(self, monkeypatch):
        from test_equivalence import axiom4_inputs

        def first_three_color_window(H):
            return min((w[0] for w in check_axiom(H, 4).witnesses
                        if w[2] == "three-color component not allowed"), default=None)

        # the first swapped graph with a three-color witness below its top window
        _, _, swapped = axiom4_inputs()
        G = next(H for H in swapped if (first_three_color_window(H) or H.n) < H.n - 1)
        first = first_three_color_window(G)
        widths = self._code_widths(monkeypatch, G, lambda: check_axiom(G, 4))
        assert widths == {3: G.n - 3, 4: G.n - 4}
        # axiom_holds stops at the first three-color witness
        widths = self._code_widths(monkeypatch, G, lambda: axioms.axiom_holds(G, 4))
        assert widths == {4: first - 3} and first - 3 < G.n - 4


class TestEquivalences:
    def test_axiom4_iff_lsf45(self):
        for name, G in corpus(7):
            ax = check_axiom(G, 4).holds
            lsf = check_lsf(G, 4).holds and check_lsf(G, 5).holds
            assert ax == lsf, name

    def test_axiom6_iff_lsf6_given_axiom4(self):
        for name, G in corpus(7):
            if not check_axiom(G, 4).holds:
                continue
            assert check_axiom(G, 6).holds == check_lsf(G, 6).holds, name

    def test_axiom46_iff_lsf456(self):
        for name, G in corpus(7):
            left = check_axiom(G, 4).holds and check_axiom(G, 6).holds
            right = all(check_lsf(G, m).holds for m in (4, 5, 6))
            assert left == right, name

    def test_defects_empty_iff_axiom4(self):
        for name, G in corpus(7):
            empty = all(defect_sets(G, i).all_empty() for i in range(3, G.n))
            assert empty == check_axiom(G, 4).holds, name

    def test_axiom4_implies_axiom3(self):
        for name, G in corpus(7):
            if check_axiom(G, 4).holds:
                assert check_axiom(G, 3).holds, name

    def test_prop_axiom3_from_lsp4(self):
        # type (n, n) with axiom 1 and degree-4 positivity implies axiom 3
        for name, G in corpus(7):
            if G.n != G.N:
                continue
            if check_axiom(G, 1).holds and check_lsp(G, 4).holds:
                assert check_axiom(G, 3).holds, name
