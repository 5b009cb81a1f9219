"""The four rewiring maps, logging/replay, and the pipeline."""

import json

import pytest

from degraphs.axioms import check_axiom, classify_small_component
from degraphs.fixtures import fixture
from degraphs.graph import GraphFormatError, SignedColoredGraph
from degraphs.standard import build_standard_deg, identify_component
from degraphs.structure import defect_sets, negatively_dominant
from degraphs.transform import (
    LogFormatError,
    TransformError,
    TransformLog,
    TransformStep,
    _rematch,
    apply_gamma,
    apply_phi,
    apply_psi,
    apply_step,
    apply_theta,
    full_pipeline,
    one_step,
    package_isomorphism,
    replay,
)

from conftest import gamma_instance


def preserved_apart_from_color(G, H, i):
    assert H.sigma == G.sigma
    assert H.N == G.N and H.n == G.n
    for c in G.colors():
        if c != i:
            assert H.matching(c) == G.matching(c), c
    assert H.generating_function() == G.generating_function()


class TestRematch:
    """Every map rebuilds its color class through ``_rematch``; a target
    (on vertex positions, -1 for none) that is not a matching on the old
    support is a ``TransformError``, so the search skips the candidate.  It
    names the least vertex that breaks the matching."""

    @pytest.mark.parametrize("kind", ["self-pair", "non-involution", "outside", "none"])
    def test_bad_target_is_a_transform_error(self, kind):
        G = fixture("fig8")
        part = G.partner[3]
        matched = [p for p, q in enumerate(part) if q >= 0]
        a, b = matched[0], part[matched[0]]
        outside = part.index(-1)
        targets = {
            "self-pair": lambda v, w: v if v in (a, b) else w,
            "non-involution": lambda v, w: matched[(matched.index(v) + 1) % len(matched)],
            "outside": lambda v, w: outside if v == a else w,
            "none": lambda v, w: -1 if v == a else w,
        }
        ids, (m1, m2) = G.ids, matched[1:3]
        messages = {
            "self-pair": f"rewiring is not a matching: {ids[a]!r} is paired with itself",
            "non-involution": f"rewiring is not a matching: {ids[a]!r} is paired with "
            f"{ids[m1]!r}, but {ids[m1]!r} is paired with {ids[m2]!r}",
            "outside": f"rewiring is not a matching: {ids[a]!r} is paired with "
            f"{ids[outside]!r}, but {ids[outside]!r} has no partner",
            "none": f"rewiring finds no 3-partner for {ids[a]!r}",
        }
        # a GraphFormatError (not a TransformError) would escape the search
        assert not issubclass(GraphFormatError, TransformError)
        with pytest.raises(TransformError) as e:
            _rematch(G, 3, targets[kind])
        assert str(e.value) == messages[kind]


class TestPackageIsomorphism:
    def test_identity_seed(self):
        G = fixture("fig8")
        assert package_isomorphism(G, "t3", "t3", 3) == {"t3": "t3"}

    def test_singleton_packages(self):
        G = fixture("fig8")
        m = package_isomorphism(G, "t3", "t4", 3)
        assert m == {"t3": "t4"}

    def test_position_mismatch_rejected(self):
        G = fixture("fig6")  # n = 6: packages for i = 5 use color 2, position 1
        assert package_isomorphism(G, "a3", "b2", 5) is None

    def test_matching_positions_accepted(self):
        G = fixture("fig6")
        m = package_isomorphism(G, "d1", "e2", 5)
        assert m is not None
        assert m["d1"] == "e2"


class TestPhi:
    def test_fig8_first_step(self):
        G = fixture("fig8")
        H = apply_phi(G, "b1", 3)
        preserved_apart_from_color(G, H, 3)
        assert H.neighbor("b1", 3) == "m1"  # new double edge with color 2
        assert H.neighbor("b2", 3) == "m0"  # outer pair rewired
        assert defect_sets(H, 3).W < defect_sets(G, 3).W

    def test_second_application_out_of_domain(self):
        # the rewiring removes b1 from the defect set, so the same arguments
        # no longer satisfy the precondition
        G = fixture("fig8")
        H = apply_phi(G, "b1", 3)
        assert H.neighbor("b1", 2) == H.neighbor("b1", 3)
        with pytest.raises(TransformError):
            apply_phi(H, "b1", 3)

    def test_precondition_not_in_w(self):
        G = fixture("fig8")
        with pytest.raises(TransformError):
            apply_phi(G, "t1", 3)

    def test_precondition_double_edge(self):
        G = build_standard_deg((2, 2))
        v = G.vertices()[0]
        with pytest.raises(TransformError):
            apply_phi(G, v, 2)

    def test_long_variant(self):
        # t3 sits second on the maximal non-flat 3-chain (t2, t3, t4, t5) of
        # fig8, whose length 4 only admits r = 0; force r = 1 to check the
        # guard.  fig4c's 3-chain through e1 is a cycle: walking r = 1 or 2
        # steps from e1 wraps round it (once giving fig4c back, once r = 0's
        # result), so those variants are rejected too
        for name, anchor, r in (("fig8", "t3", 1), ("fig4c", "e1", 1), ("fig4c", "e1", 2)):
            with pytest.raises(TransformError, match=f"long variant r={r}"):
                apply_phi(fixture(name), anchor, 3, r=r)

    def test_keeps_axiom1_support(self):
        G = fixture("fig8")
        H = apply_phi(G, "t3", 3)
        for v in G.vertices():
            assert (G.neighbor(v, 3) is None) == (H.neighbor(v, 3) is None)


class TestPsi:
    def test_fig12_step(self):
        G = fixture("fig12")
        H = apply_psi(G, "C3", 4)
        preserved_apart_from_color(G, H, 4)
        # the lower edges now commute with the rewired color at C3
        assert H.neighbor("C2", 4) == "D3"
        assert H.neighbor(H.neighbor("C3", 2), 4) == H.neighbor(H.neighbor("C3", 4), 2)

    def test_second_application_out_of_domain(self):
        G = fixture("fig12")
        H = apply_psi(G, "C3", 4)
        with pytest.raises(TransformError):
            apply_psi(H, "C3", 4)

    def test_same_map_from_both_anchors(self):
        G = fixture("fig12")
        assert apply_psi(G, "C3", 4) == apply_psi(G, "CD", 4)

    def test_shrinks_c_fixes_w(self):
        G = fixture("fig12")
        H = apply_psi(G, "C3", 4)
        assert defect_sets(H, 4).C < defect_sets(G, 4).C
        assert defect_sets(H, 4).W == defect_sets(G, 4).W

    def test_precondition(self):
        G = fixture("fig12")
        with pytest.raises(TransformError):
            apply_psi(G, "A0", 4)

    def test_long_variant_guard(self):
        # the fig12 chain has length six, so the stride-one variant walks
        # off the eligible set
        G = fixture("fig12")
        with pytest.raises(TransformError):
            apply_psi(G, "C3", 4, r=1)


class TestGamma:
    def test_subtree_swap(self):
        G = gamma_instance()
        H = apply_gamma(G, "a2", 4)
        preserved_apart_from_color(G, H, 4)
        assert H.neighbor("b2", 4) == "c4"
        assert H.neighbor("b4", 4) == "c2"

    def test_involution(self):
        G = gamma_instance()
        H = apply_gamma(G, "a2", 4)
        assert apply_gamma(H, "a2", 4) == G

    def test_fixes_defect_sets(self):
        G = gamma_instance()
        H = apply_gamma(G, "a2", 4)
        assert defect_sets(H, 4).W == defect_sets(G, 4).W
        assert defect_sets(H, 4).C == defect_sets(G, 4).C

    def test_followup_split_classifies(self):
        for flip, want in ((False, (3, 2)), (True, (2, 2, 1))):
            G = gamma_instance(flip)
            H = apply_gamma(G, "a2", 4)
            K = apply_phi(H, "a1", 4)
            comps = K.components((2, 3, 4))
            assert len(comps) == 2
            got = {classify_small_component(K, c).lam for c in comps}
            assert got == {want}

    def test_precondition_flat_edge(self):
        G = gamma_instance()
        with pytest.raises(TransformError):
            apply_gamma(G, "b2", 4)  # flat 4-edge at b2


class TestTheta:
    def test_fig6_split(self):
        G = fixture("fig6")
        H_comp = G.components(range(2, 6))[0]
        pivot = negatively_dominant(G, H_comp, 5)
        H = apply_theta(G, pivot[0], 5)
        preserved_apart_from_color(G, H, 5)
        comps = H.components(range(2, 6))
        assert len(comps) == 2
        for comp in comps:
            out = identify_component(H, comp, H.n)
            assert out is not None and out[0] == (3, 2, 1)
        for k in range(1, 7):
            assert check_axiom(H, k).holds, k

    def test_direct_call_on_satisfying_graph_splits_halves(self):
        # a disjoint doubled standard graph: theta splits it apart
        G = build_standard_deg((3, 2, 1))
        double = {}
        triples = []
        for copy in ("p", "q"):
            for v, s in G.sigma.items():
                double[f"{copy}{v}"] = s
            for c, u, w in G.edge_triples():
                if c < 5:
                    triples.append((c, f"p{u}" if copy == "p" else f"q{u}", f"p{w}" if copy == "p" else f"q{w}"))
        # cross-wire the top color between the copies
        for u, w in G.matching(5).items():
            if u < w:
                triples.append((5, f"p{u}", f"q{w}"))
                triples.append((5, f"q{u}", f"p{w}"))
        from degraphs.graph import SignedColoredGraph

        GG = SignedColoredGraph(6, 6, double, triples)
        assert not check_axiom(GG, 6).holds
        H_comp = GG.components(range(2, 6))[0]
        pivot = negatively_dominant(GG, H_comp, 5)
        HH = apply_theta(GG, pivot[0], 5)
        comps = HH.components(range(2, 6))
        assert len(comps) == 2
        for comp in comps:
            out = identify_component(HH, comp, HH.n)
            assert out is not None and out[0] == (3, 2, 1)


class TestLogging:
    def test_replay_reproduces(self):
        G = fixture("fig8")
        res = full_pipeline(G)
        assert replay(G, res.log) == res.graph

    def test_log_round_trip(self):
        G = fixture("fig12")
        res = full_pipeline(G)
        text = res.log.to_text()
        log2 = TransformLog.from_text(text)
        assert log2.steps == res.log.steps
        assert replay(G, log2) == res.graph

    def test_log_with_another_policy_name_replays(self):
        """The pipeline has one policy and names it "default"; a log written
        with another name still loads and replays."""
        G = fixture("fig12")
        res = full_pipeline(G)
        doc = json.loads(res.log.to_text())
        assert doc["policy"] == "default"
        doc["policy"] = "x"
        log2 = TransformLog.from_text(json.dumps(doc))
        assert log2.policy == "x" and log2.steps == res.log.steps
        assert replay(G, log2) == res.graph

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "log: expected a JSON object"),
            ('{"steps": "x"}', "log: field 'steps' must be a list"),
            ('{"steps": [{"kind": "phi", "color": 3}]}', "log step 0: missing field 'anchor'"),
            ('{"steps": [{"kind": "phi", "color": 3, "anchor": "b1", "variant": -2}]}',
             "log step 0: field 'variant' must not be negative"),
            ('{"steps": [{"kind": "swap", "color": 3, "anchor": "b1"}]}',
             "log step 0: unknown kind 'swap'"),
            ('{"steps": [], "aborted": "yes"}',
             "log: field 'aborted' must be a boolean, got \"yes\""),
            ('{"steps": [], "checkpoints": [1, 2]}',
             r"log: field 'checkpoints' must be a list of strings, got \[1, 2\]"),
            ('{"steps": [], "policy": 5}', "log: field 'policy' must be a string, got 5"),
            ('{"steps": [], "diagnostic": []}',
             r"log: field 'diagnostic' must be a string or null, got \[\]"),
            ('{"steps": [{"kind": "phi", "color": 4, "anchor": "b1", "varient": 2}]}',
             "log step 0: unknown field 'varient'"),
            ('{"steps": [], "abortd": true}', "log: unknown field 'abortd'"),
        ],
    )
    def test_from_text_rejects(self, text, message):
        with pytest.raises(LogFormatError, match=message):
            TransformLog.from_text(text)

    def test_from_text_variant_defaults_to_short(self):
        log = TransformLog.from_text('{"steps": [{"kind": "phi", "color": 3, "anchor": "b1"}]}')
        assert log.steps == [TransformStep("phi", 3, "b1", 0)]

    def test_rejects_unknown_anchor_and_negative_variant(self):
        G = fixture("fig8")
        apply_phi(G, "b1", 3)  # in the domain, so only the bad arguments fail below
        for kind in ("phi", "psi", "gamma", "theta"):
            with pytest.raises(TransformError, match="anchor 'zz' is not a vertex"):
                apply_step(G, TransformStep(kind, 3, "zz"))
        for apply in (apply_phi, apply_psi):
            with pytest.raises(TransformError, match="anchor 'zz' is not a vertex"):
                apply(G, "zz", 3)
            with pytest.raises(TransformError, match="variant r=-1 is negative"):
                apply(G, "b1", 3, -1)
        with pytest.raises(TransformError, match="variant r=-1 is negative"):
            apply_step(G, TransformStep("phi", 3, "b1", -1))

    @pytest.mark.parametrize("apply", [apply_phi, apply_psi, apply_gamma, apply_theta])
    def test_maps_reject_what_replay_rejects(self, apply):
        """Each map, called directly, rejects an unknown anchor and a color
        outside 1 < i < n with ``apply_step``'s messages, the color first."""
        G = fixture("fig8")
        for anchor, color, message in (
            ("zz", 3, "anchor 'zz' is not a vertex"),
            ("b1", 9, "color 9 outside 1 < i < n = 5"),
            ("b1", 1, "color 1 outside 1 < i < n = 5"),
            ("zz", 9, "color 9 outside 1 < i < n = 5"),
        ):
            with pytest.raises(TransformError) as direct:
                apply(G, anchor, color)
            assert str(direct.value) == message
            kind = apply.__name__.removeprefix("apply_")
            with pytest.raises(TransformError) as replayed:
                apply_step(G, TransformStep(kind, color, anchor))
            assert str(replayed.value) == message

    def test_apply_step_kinds(self):
        G = gamma_instance()
        step = TransformStep("gamma", 4, "a2")
        from degraphs.transform import apply_step

        assert apply_step(G, step) == apply_gamma(G, "a2", 4)


class TestOneStep:
    def test_standard_graph_is_noop(self):
        G = build_standard_deg((3, 2, 1))
        for i in range(2, 6):
            H, log = one_step(G, i)
            assert H == G and not log.steps and not log.aborted

    def test_fig8_color3(self):
        G = fixture("fig8")
        H, log = one_step(G, 3)
        assert not log.aborted
        assert defect_sets(H, 3).all_empty()
        assert [s.anchor for s in log.steps] == ["b1", "t3"]

    def test_color_outside_the_graph_is_rejected(self):
        G = build_standard_deg((3, 2, 1))
        for i in (0, 1, G.n):
            with pytest.raises(ValueError, match=f"color {i} outside 1 < i < n = 6"):
                one_step(G, i)


class TestPipeline:
    def test_fig8_reaches_fig9(self):
        res = full_pipeline(fixture("fig8"))
        assert res.certified
        assert res.graph == fixture("fig9")
        assert res.expansion.to_string() == "s[3,2]+s[3,1,1]+s[2,2,1]"
        assert sorted(lam for lam, _ in res.components) == [(2, 2, 1), (3, 1, 1), (3, 2)]

    def test_fig12_reaches_fig13(self):
        res = full_pipeline(fixture("fig12"))
        assert res.certified
        assert res.graph == fixture("fig13")
        assert res.expansion.to_string() == "s[4,1]+s[3,2]+s[3,1,1]"
        assert sorted(lam for lam, _ in res.components) == [(3, 1, 1), (3, 2), (4, 1)]

    def test_fig6_splits(self):
        res = full_pipeline(fixture("fig6"))
        assert res.certified
        assert [s.kind for s in res.log.steps] == ["theta"]
        assert [lam for lam, _ in res.components] == [(3, 2, 1), (3, 2, 1)]

    def test_standard_identity(self):
        G = build_standard_deg((4, 2))
        res = full_pipeline(G)
        assert res.certified and res.graph == G and not res.log.steps

    @pytest.mark.parametrize("name", ["fig19", "fig21"])
    def test_negative_controls_abort(self, name):
        res = full_pipeline(fixture(name))
        assert not res.certified
        assert res.log.aborted
        assert res.log.diagnostic
        assert res.log.failure_graph is not None
        assert res.expansion is None  # no certificate emitted

    def test_input_failing_axiom_1_aborts_before_any_step(self):
        G = fixture("fig8")
        assert G.edge_triples()[0] == (2, "t1", "t2")
        H = SignedColoredGraph(G.n, G.N, G.sigma, G.edge_triples()[1:])
        res = full_pipeline(H)
        assert res.log.aborted
        assert res.log.diagnostic == (
            "input fails axiom 1: [(2, 't1', 'edge missing'), (2, 't2', 'edge missing')]"
        )
        assert res.graph is H and res.log.failure_graph is H and not res.log.steps
        assert not res.certified and res.expansion is None

    def test_intermediate_generating_functions_preserved(self):
        G = fixture("fig8")
        res = full_pipeline(G)
        current = G
        for step in res.log.steps:
            from degraphs.transform import apply_step

            nxt = apply_step(current, step)
            assert nxt.generating_function() == G.generating_function()
            current = nxt
        assert current == res.graph

    def test_stop_at(self):
        G = fixture("fig8")
        res = full_pipeline(G, stop_at=3)
        assert defect_sets(res.graph, 3).all_empty()
        assert not defect_sets(res.graph, 4).all_empty()

    def test_stop_at_range(self):
        G = fixture("fig8")
        assert not full_pipeline(G, stop_at=1).certified
        assert full_pipeline(G, stop_at=4).certified
        for stop_at in (-4, 0, 5, 99):
            with pytest.raises(ValueError, match=f"stop_at {stop_at} outside"):
                full_pipeline(G, stop_at=stop_at)
