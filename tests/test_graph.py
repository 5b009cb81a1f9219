"""The signed colored graph container and its searches."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degraphs.combinatorics import enumerate_partitions, sig_from_str
from degraphs.fixtures import _built, fixture
from degraphs.graph import (
    GraphFormatError,
    SignedColoredGraph,
    _package,
    find_isomorphism,
    seeded_isomorphism,
    signature_bits,
)
from degraphs.standard import _standard_graph, build_standard_deg, identify_component
from degraphs.symfunc import expand_in_schur

from conftest import corpus, relabel_random, unsorted_relabel


def tiny():
    return SignedColoredGraph(
        4,
        4,
        {"a": sig_from_str("-++"), "b": sig_from_str("+-+"), "c": sig_from_str("++-")},
        [(2, "a", "b"), (3, "b", "c")],
    )


class TestConstruction:
    def test_matching_enforced(self):
        with pytest.raises(GraphFormatError):
            SignedColoredGraph(
                4,
                4,
                {v: sig_from_str("+-+") for v in "abc"},
                [(2, "a", "b"), (2, "a", "c")],
            )

    def test_color_range(self):
        with pytest.raises(GraphFormatError):
            SignedColoredGraph(3, 3, {"a": (1, -1), "b": (-1, 1)}, [(3, "a", "b")])

    def test_signature_length(self):
        with pytest.raises(GraphFormatError):
            SignedColoredGraph(3, 3, {"a": (1,)}, [])

    def test_type_order(self):
        with pytest.raises(GraphFormatError):
            SignedColoredGraph(4, 3, {"a": (1, 1)}, [])

    def test_vertex_id_must_be_a_string(self):
        """As in ``from_text``: an int id once built a graph whose
        ``to_text`` raised TypeError."""
        with pytest.raises(GraphFormatError, match="vertex 1: id must be a string"):
            SignedColoredGraph(3, 3, {1: (1, -1), 2: (-1, 1)}, [(2, 1, 2)])
        G = SignedColoredGraph(3, 3, {"a": (1, -1), "b": (-1, 1)}, [(2, "a", "b")])
        with pytest.raises(GraphFormatError, match="id must be a string"):
            G.relabel({"a": 1, "b": 2})

    @pytest.mark.parametrize("n, N", [(0, 0), (-1, -1), (0, 3), (-2, 1)])
    def test_type_below_one(self, n, N):
        with pytest.raises(GraphFormatError, match=rf"need 1 <= n <= N, got \({n},{N}\)"):
            SignedColoredGraph(n, N, {}, [])

    def test_degenerate_types_valid(self):
        from degraphs.axioms import check_axiom, check_lsf, check_lsp

        for G in (
            SignedColoredGraph(1, 1, {"v": ()}, []),
            SignedColoredGraph(2, 2, {"v": (1,)}, []),
        ):
            for k in range(1, 7):
                assert check_axiom(G, k).holds
            for m in (4, 5, 6):
                assert check_lsf(G, m).holds and check_lsp(G, m).holds

    def test_isolated_vertices_allowed(self):
        G = SignedColoredGraph(5, 5, {"solo": sig_from_str("++++")}, [])
        assert G.vertices() == ("solo",)


class TestRestriction:
    def test_edge_filter(self):
        G = build_standard_deg((3, 2))
        R = G.restrict(4)
        assert R.n == 4 and R.N == 5
        assert {c for c, _, _ in R.edge_triples()} == {2, 3}
        assert R.sigma == G.sigma

    def test_identity(self):
        G = build_standard_deg((3, 2))
        assert G.restrict(G.n) == G

    def test_fig6_restriction_covers_shapes(self):
        G = fixture("fig6")
        R = G.restrict(5)
        comps = R.components(range(2, 5))
        assert len(comps) == 6
        from degraphs.standard import identify_component

        shapes = []
        for c in comps:
            out = identify_component(G, c, 5)
            assert out is not None
            shapes.append(out[0])
        assert sorted(shapes) == sorted([(3, 2), (3, 2), (3, 1, 1), (3, 1, 1), (2, 2, 1), (2, 2, 1)])


class TestDerivation:
    @pytest.mark.parametrize(
        "i, matching",
        [
            (99, {"b1": "b2", "b2": "b1"}),
            (1, {"b1": "b2", "b2": "b1"}),
            (3, {"b1": "b1"}),
            (3, {"b1": "zz", "zz": "b1"}),
            (3, {"b1": "t3", "b2": "t3"}),
        ],
        ids=["color-too-high", "color-too-low", "loop", "unknown-endpoint", "not-a-matching"],
    )
    def test_rejects_with_the_constructor_message(self, i, matching):
        G = fixture("fig8")
        with pytest.raises(GraphFormatError) as derived:
            G.with_color_matching(i, matching)
        triples = [t for t in G.edge_triples() if t[0] != i]
        triples += [(i, u, w) for u, w in matching.items() if u <= w]
        with pytest.raises(GraphFormatError) as built:
            SignedColoredGraph(G.n, G.N, G.sigma, triples)
        assert str(derived.value) == str(built.value)

    @pytest.mark.parametrize(
        "matching, message",
        [
            ({"t3": "b1"}, "color 3: 't3' is matched to 'b1', but 'b1' has no partner"),
            ({"b1": "t3"}, "color 3: 'b1' is matched to 't3', but 't3' has no partner"),
            (
                {"t3": "b1", "b1": "b2", "b2": "b1"},
                "color 3: 't3' is matched to 'b1', but 'b1' is matched to 'b2'",
            ),
        ],
        ids=["one-sided-down", "one-sided-up", "directions-disagree"],
    )
    def test_rejects_a_map_that_is_not_an_involution(self, matching, message):
        G = fixture("fig8")
        with pytest.raises(GraphFormatError) as derived:
            G.with_color_matching(3, matching)
        assert str(derived.value) == message

    def test_parent_is_unchanged(self):
        G = fixture("fig8")
        text, sigma = G.to_text(), dict(G.sigma)
        matchings = {c: G.matching(c) for c in G.colors()}
        H = G.with_color_matching(3, G.matching(4))
        R = H.restrict(4)
        assert H.matching(3) == matchings[4] and R.matching(3) == matchings[4]
        assert H.to_text() != text and R.n == 4
        assert G.to_text() == text and G.sigma == sigma
        assert {c: G.matching(c) for c in G.colors()} == matchings


def _made(how):
    """(graph, the graph it derives from or None, the colors it replaced),
    for each way a graph is made; the bases have ids whose insertion,
    numbering and sorted orders differ."""
    G = unsorted_relabel(fixture("fig8"), 5)
    if how == "triples":
        return SignedColoredGraph(G.n, G.N, G.sigma, reversed(G.edge_triples())), None, ()
    if how == "from_text":
        return SignedColoredGraph.from_text(G.to_text()), None, ()
    if how == "with_color_matching":
        return G.with_color_matching(3, G.matching(4)), G, (3,)
    if how == "with_color_matching_empty":
        return G.with_color_matching(2, {}), G, (2,)
    if how == "restrict":
        return G.restrict(4), G, ()
    if how == "subgraph":
        return G.subgraph(G.vertices()[3:]), None, ()
    if how == "relabel":
        return G.relabel({v: f"x{v}" if v < "v5" else v.upper() for v in G.vertices()}), None, ()
    if how == "build_standard_deg":
        return build_standard_deg((3, 2, 1)), _standard_graph((3, 2, 1)), ()
    if how == "fixture":
        return fixture("fig6"), _built("fig6"), ()
    raise AssertionError(how)


class TestPositionalIndex:
    @pytest.mark.parametrize("how", [
        "triples", "from_text", "with_color_matching", "with_color_matching_empty",
        "restrict", "subgraph", "relabel", "build_standard_deg", "fixture",
    ])
    def test_index_agrees_with_the_maps(self, how):
        """Positions follow the sorted ids, ``pos`` maps each id to its
        position, the positional bits are each signature's bits and each
        color's partner list is ``matching(i)``; a derived graph holds the
        same lists as its parent at every color it kept."""
        G, parent, replaced = _made(how)
        assert G.vertices() == G.ids == tuple(sorted(G.sigma))
        assert G.pos == {v: p for p, v in enumerate(G.ids)}
        assert G.pbits == [signature_bits(G.sigma[v]) for v in G.ids]
        assert sorted(G.partner) == list(G.colors())
        for i in G.colors():
            part = G.partner[i]
            assert len(part) == len(G.ids)
            got = {G.ids[p]: G.ids[q] for p, q in enumerate(part) if q >= 0}
            assert got == G.matching(i), i
        if parent is not None:
            assert G.ids is parent.ids and G.pos is parent.pos and G.pbits is parent.pbits
            for i in G.colors():
                assert (G.partner[i] is parent.partner[i]) == (i not in replaced), i


class TestOneStore:
    def test_reversed_triples_give_an_equal_graph_with_its_own_text(self):
        """Equality reads the partner lists; each graph writes its edges in
        the order they were inserted, and reading its text back keeps it."""
        G = fixture("fig8")
        H = SignedColoredGraph(G.n, G.N, G.sigma, reversed(G.edge_triples()))
        assert H == G and H.to_text() != G.to_text()
        for K in (G, H):
            assert SignedColoredGraph.from_text(K.to_text()).to_text() == K.to_text()
        by_color = [[t for t in G.edge_triples() if t[0] == c] for c in G.colors()]
        assert H.edge_triples() == [t for ts in by_color for t in reversed(ts)]

    def test_with_color_matching_shares_every_unchanged_list(self):
        """``axioms._changed_scope`` skips a color whose list object is the
        base's, so a derived graph must share each list it kept."""
        G = fixture("fig8")
        for i in G.colors():
            H = G.with_color_matching(i, G.matching(i))
            assert H == G and H.partner[i] is not G.partner[i]
            for c in G.colors():
                if c != i:
                    assert H.partner[c] is G.partner[c], (i, c)
                    assert H.edge_order[c] is G.edge_order[c], (i, c)


class TestUnknownVertex:
    """A public entry point given an id that is not a vertex raises a
    KeyError naming it."""

    @pytest.mark.parametrize("call", [
        lambda G: G.component_vertices("zz", (2, 3)),
        lambda G: seeded_isomorphism(G, G, "t3", "zz", G.colors(), range(1, G.N)),
        lambda G: identify_component(G, ["t3", "zz"], G.n),
        lambda G: G.subgraph(["t3", "zz"]),
    ], ids=["component_vertices", "seeded_isomorphism", "identify_component", "subgraph"])
    def test_names_the_id(self, call):
        with pytest.raises(KeyError) as e:
            call(fixture("fig8"))
        assert e.value.args == ("'zz' is not a vertex",)


class TestComponents:
    def test_g32_two_components_under_23(self):
        G = build_standard_deg((3, 2))
        comps = G.components((2, 3))
        assert sorted(len(c) for c in comps) == [2, 3]

    def test_empty_colors_gives_singletons(self):
        G = build_standard_deg((3, 2))
        comps = G.components(())
        assert all(len(c) == 1 for c in comps)
        assert len(comps) == 5

    def test_fig8_connected(self):
        G = fixture("fig8")
        assert len(G.components((2, 3, 4))) == 1

    def test_components_partition_vertices(self):
        for _, G in corpus(6):
            for colors in [(2,), (2, 3), tuple(G.colors())]:
                comps = G.components(colors)
                seen = [v for c in comps for v in c]
                assert sorted(seen) == list(G.vertices())


class TestGeneratingFunctions:
    def test_full_window_matches_schur(self):
        G = build_standard_deg((3, 2))
        assert expand_in_schur(G.generating_function()).to_string() == "s[3,2]"

    def test_component_sum(self):
        for _, G in corpus(5):
            total = G.generating_function()
            acc = None
            for comp in G.components(G.colors()):
                f = G.generating_function(comp)
                acc = f if acc is None else acc + f
            assert acc == total

    def test_fig4a_value(self):
        G = fixture("fig4a")
        assert expand_in_schur(G.generating_function()).to_string() == "s[3,1]+s[2,2]"


class TestNeighbor:
    def test_unique_neighbor(self):
        G = build_standard_deg((3, 2))
        a = "1,2,5|3,4"
        b = "1,3,5|2,4"
        assert G.neighbor(a, 2) == b
        assert G.neighbor(a, 4) is None

    def test_even_support(self):
        for _, G in corpus(6):
            for i in G.colors():
                covered = [v for v in G.vertices() if G.neighbor(v, i) is not None]
                assert len(covered) % 2 == 0


class TestIsomorphism:
    def test_identity_seed(self):
        G = build_standard_deg((3, 2))
        v = G.vertices()[0]
        m = seeded_isomorphism(G, G, v, v, G.colors(), range(1, G.N))
        assert m == {x: x for x in G.vertices()}

    def test_relabeled_found(self, rng):
        G = build_standard_deg((3, 2))
        H, _ = relabel_random(G, rng)
        m = find_isomorphism(G, H)
        assert m is not None
        for c, u, w in G.edge_triples():
            assert H.neighbor(m[u], c) == m[w]
        for v in G.vertices():
            assert G.sigma[v] == H.sigma[m[v]]

    def test_different_shapes_rejected(self):
        G = build_standard_deg((3, 2))
        H = build_standard_deg((2, 2, 1))
        assert find_isomorphism(G, H) is None

    def test_seed_respects_positions(self):
        G = build_standard_deg((3, 2))
        a, b = "1,2,5|3,4", "1,3,5|2,4"
        assert seeded_isomorphism(G, G, a, b, G.colors(), range(1, G.N)) is None


class TestPackages:
    def test_boundary_colors(self):
        G = build_standard_deg((3, 2))
        for p in range(len(G.ids)):
            assert _package(G, p, 4) == [p]

    def test_package_of_large_graph(self):
        G = fixture("fig6")  # n = 6: package colors for i = 5 are {2}
        v = "a3"
        pkg = G._id_tuple(_package(G, G.pos[v], 5))
        expected = G.component_vertices(v, (2,))
        assert pkg == expected


class TestSerialization:
    def test_byte_round_trip(self):
        for _, G in corpus(5):
            text = G.to_text()
            H = SignedColoredGraph.from_text(text)
            assert H == G
            assert H.to_text() == text

    def test_missing_field(self):
        with pytest.raises(GraphFormatError):
            SignedColoredGraph.from_text("{}")

    @pytest.mark.parametrize(
        "doc, message",
        [
            (5, "top level: expected a JSON object, got 5"),
            ([], "top level: expected a JSON object, got []"),
            ({"n": "3"}, "top level: field 'n' must be an integer, got \"3\""),
            ({"n": 3, "N": 3.0}, "top level: field 'N' must be an integer, got 3.0"),
            ({"n": True, "N": 3}, "top level: field 'n' must be an integer, got true"),
            ({"vertices": None}, "top level: missing field 'vertices'"),
            ({"vertices": [{"sigma": "+-"}]}, "vertex entry 0: missing field 'id'"),
            ({"vertices": [{"id": "a"}]}, "vertex entry 0: missing field 'sigma'"),
            ({"vertices": [{"id": 1, "sigma": "+-"}]}, "vertex entry 0: field 'id' must be a string"),
            ({"vertices": ["a"]}, "vertex entry 0: expected a JSON object, got \"a\""),
            (
                {"vertices": [{"id": "a", "sigma": "+-"}, {"id": "a", "sigma": "-+"}]},
                "vertex entry 1: duplicate vertex id 'a'",
            ),
            ({"vertices": [{"id": "a", "sigma": "+x"}]}, "vertex entry 0: bad signature character"),
            (
                {"vertices": [{"id": "a", "sigma": "+-", "stat": 2.5}]},
                "vertex entry 0: field 'stat' must be an integer, got 2.5",
            ),
            ({"edges": [{"u": "a", "v": "b"}]}, "edge entry 0: missing field 'color'"),
            ({"edges": [{"color": 2, "v": "b"}]}, "edge entry 0: missing field 'u'"),
            ({"edges": [{"color": 2, "u": "a"}]}, "edge entry 0: missing field 'v'"),
            ({"edges": [{"color": "2", "u": "a", "v": "b"}]}, "edge entry 0: field 'color'"),
            (
                {"edges": [{"color": True, "u": "a", "v": "b"}]},
                "edge entry 0: field 'color' must be an integer, got true",
            ),
            (
                {"edges": [{"color": 2, "u": 1, "v": "b"}]},
                "edge entry 0: field 'u' must be a string, got 1",
            ),
            (
                {"edges": [{"color": 2, "u": "a", "v": ["b"]}]},
                "edge entry 0: field 'v' must be a string, got [\"b\"]",
            ),
            (
                {"edges": [{"color": 2, "u": "a", "v": "b"}, "x"]},
                "edge entry 1: expected a JSON object, got \"x\"",
            ),
            (
                {"vertices": [{"id": "a", "sigma": "+-", "stat": True}]},
                "vertex entry 0: field 'stat' must be an integer, got true",
            ),
            (
                {
                    "vertices": [
                        {"id": "a", "sigma": "+-"},
                        {"id": "b", "sigma": "-+"},
                        {"id": "c", "sigma": "++"},
                        {"id": "a", "sigma": "--"},
                    ]
                },
                "vertex entry 3: duplicate vertex id 'a'",
            ),
            (
                {"vertices": [{"id": "a", "sigma": "+-"}, {"id": "a"}]},
                "vertex entry 1: duplicate vertex id 'a'",
            ),
            (
                {"vertices": [{"id": "a", "sigma": "+-"}, {"id": "b", "sigma": "+x"}]},
                "vertex entry 1: bad signature character 'x' in '+x'",
            ),
            ({"edge": []}, "top level: unknown field 'edge'"),
            (
                {"vertices": [{"id": "a", "sigma": "+-"}, {"id": "b", "sigma": "-+", "stats": 5}]},
                "vertex entry 1: unknown field 'stats'",
            ),
            (
                {"edges": [{"color": 2, "u": "a", "v": "b", "w": "a"}]},
                "edge entry 0: unknown field 'w'",
            ),
        ],
    )
    def test_rejects_bad_input_naming_the_entry(self, doc, message):
        if isinstance(doc, dict):
            # overrides of a valid two-vertex graph; None drops the field
            base = {
                "n": 3,
                "N": 3,
                "vertices": [{"id": "a", "sigma": "+-"}, {"id": "b", "sigma": "-+"}],
                "edges": [],
            }
            doc = {k: v for k, v in {**base, **doc}.items() if v is not None}
        with pytest.raises(GraphFormatError) as info:
            SignedColoredGraph.from_text(json.dumps(doc))
        assert str(info.value).startswith(message)

    def test_stats_round_trip(self):
        G = SignedColoredGraph(
            3, 3, {"a": (1, -1), "b": (-1, 1)}, [(2, "a", "b")], stats={"a": 2, "b": 2}
        )
        H = SignedColoredGraph.from_text(G.to_text())
        assert H.stats == {"a": 2, "b": 2}

    def test_dot_export(self):
        dot = tiny().to_dot()
        assert dot.startswith("graph G {")
        assert '"a" -- "b" [label="2"];' in dot
        assert '"a" [label="a\\n-++"];' in dot

    def test_dot_escapes_ids(self):
        """A double quote in an id is escaped wherever the id is written, and
        a backslash in an id is doubled in its label, so that ``\\n`` in an
        id is not read as a line break."""
        G = SignedColoredGraph(3, 3, {'a"b': (-1, 1), "c\\nd": (1, -1)}, [(2, 'a"b', "c\\nd")])
        assert G.to_dot() == r"""graph G {
  "a\"b" [label="a\"b\n-+"];
  "c\nd" [label="c\\nd\n+-"];
  "a\"b" -- "c\nd" [label="2"];
}
"""


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 6), st.integers(0, 10**6))
def test_relabel_preserves_structure(n, seed):
    import random as _random

    lam = enumerate_partitions(n)[seed % len(enumerate_partitions(n))]
    G = build_standard_deg(lam)
    H, mapping = relabel_random(G, _random.Random(seed))
    assert len(H.sigma) == len(G.sigma)
    assert sorted(H.sigma.values()) == sorted(G.sigma.values())
    assert find_isomorphism(G, H) is not None
