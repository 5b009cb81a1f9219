"""Built-in example graphs.

Small graphs are stored with explicit signatures.  The two large
negative controls are stored as edge lists only: their signatures are forced
(up to one global flip per component) by the existence pattern of edges at
each vertex together with the sign-reversal rule across edges, so they are
reconstructed at build time and validated by the axiom checkers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .axioms import (
    check_axiom,
    check_axiom4a,
    check_axiom4b,
    check_lsf,
    check_lsp,
    classify_small_component,
    is_locally_schur_positive,
)
from .combinatorics import sig_from_str
from .graph import SignedColoredGraph
from .standard import build_standard_deg
from .symfunc import expand_in_schur


def _graph(n: int, N: int, sigma_text: dict[str, str], triples) -> SignedColoredGraph:
    sigma = {v: sig_from_str(s) for v, s in sigma_text.items()}
    return SignedColoredGraph(n, N, sigma, triples)


def signatures_from_structure(
    n: int, N: int, vertices, triples
) -> dict[str, tuple[int, ...]]:
    """Recover signatures from the edge pattern.

    At each vertex the presence or absence of a c-edge fixes the relation
    between positions c-1 and c, so one free sign per component remains; the
    component's least vertex is given a leading +.  Axiom 2 (sign reversal at
    the two middle positions, preservation away from the edge) is then
    checked across every edge; any contradiction means the edge list is
    wrong.
    """
    if n != N:
        raise ValueError("structural reconstruction needs type (n, n)")
    G = SignedColoredGraph(n, N, dict.fromkeys(vertices, (1,) * (N - 1)), triples)
    lists = list(G.partner.values())

    def build(v: int, lead: int) -> tuple[int, ...]:
        sig = [lead]
        for a in lists:
            sig.append(-sig[-1] if a[v] >= 0 else sig[-1])
        return tuple(sig)

    signs: list = [None] * len(G.ids)
    for comp in G._walk(range(len(G.ids)), G.colors()):
        # walk order: each vertex after one it is joined to, so it has a sign
        signs[comp[0]] = build(comp[0], 1)
        for v in comp:
            for k, w in enumerate(a[v] for a in lists):
                if w < 0:
                    continue
                cand = build(w, 1)
                if cand[k] != -signs[v][k]:
                    cand = build(w, -1)
                if signs[w] is None:
                    signs[w] = cand
                elif signs[w] != cand:
                    raise ValueError(f"inconsistent signatures at {G.ids[w]!r}")
    sigma = dict(zip(G.ids, signs))
    report = check_axiom(SignedColoredGraph(n, N, sigma, triples), 2)
    if not report.holds:
        c, u, w, why = report.witnesses[0]
        raise ValueError(f"edge {u!r}-{w!r} color {c}: {why}")
    return sigma


def _structural_graph(n: int, vertices, triples) -> SignedColoredGraph:
    sigma = signatures_from_structure(n, n, vertices, triples)
    return SignedColoredGraph(n, n, sigma, triples)


# ---------------------------------------------------------------------------
# small fixtures, signatures stored directly


def fig1() -> SignedColoredGraph:
    return build_standard_deg((3, 2))


def fig4a() -> SignedColoredGraph:
    return _graph(
        4,
        4,
        {"c1": "++-", "c2": "+-+", "c3": "-+-", "c4": "+-+", "c5": "-++"},
        [(3, "c1", "c2"), (2, "c2", "c3"), (3, "c3", "c4"), (2, "c4", "c5")],
    )


def fig4b() -> SignedColoredGraph:
    return _graph(
        4,
        4,
        {"d1": "--+", "d2": "-+-", "d3": "+-+", "d4": "-+-", "d5": "+--"},
        [(3, "d1", "d2"), (2, "d2", "d3"), (3, "d3", "d4"), (2, "d4", "d5")],
    )


def fig4c() -> SignedColoredGraph:
    return _graph(
        4,
        4,
        {"e1": "+-+", "e2": "-+-", "f1": "-+-", "f2": "+-+"},
        [(2, "e1", "e2"), (3, "e1", "f1"), (3, "e2", "f2"), (2, "f1", "f2")],
    )


def fig5a() -> SignedColoredGraph:
    return _graph(
        5,
        5,
        {
            "b1": "++-+", "b3": "--++", "b5": "++--", "b7": "+-++",
            "c1": "+-+-", "c2": "-++-", "c3": "-+-+", "c4": "+--+",
            "c5": "+-+-", "c6": "-++-", "c7": "-+-+",
        },
        [
            (3, "b1", "c1"), (4, "b1", "c1"),
            (3, "b3", "c3"), (3, "b5", "c5"),
            (2, "b7", "c7"), (3, "b7", "c7"),
            (2, "c1", "c2"), (4, "c2", "c3"), (2, "c3", "c4"),
            (4, "c4", "c5"), (2, "c5", "c6"), (4, "c6", "c7"),
        ],
    )


def fig5b() -> SignedColoredGraph:
    return _graph(
        5,
        5,
        {
            "B1": "--+-", "B3": "++--", "B5": "--++", "B7": "-+--",
            "C1": "-+-+", "C2": "+--+", "C3": "+-+-", "C4": "-++-",
            "C5": "-+-+", "C6": "+--+", "C7": "+-+-",
        },
        [
            (3, "B1", "C1"), (4, "B1", "C1"),
            (3, "B3", "C3"), (3, "B5", "C5"),
            (2, "B7", "C7"), (3, "B7", "C7"),
            (2, "C1", "C2"), (4, "C2", "C3"), (2, "C3", "C4"),
            (4, "C4", "C5"), (2, "C5", "C6"), (4, "C6", "C7"),
        ],
    )


def fig5c() -> SignedColoredGraph:
    return _graph(
        5,
        5,
        {
            "a1": "++--", "a2": "+-+-", "a3": "+--+", "a4": "-+-+", "a5": "--++",
            "z2": "-++-", "z4": "-++-",
            "A1": "--++", "A2": "-+-+", "A3": "+--+", "A4": "+-+-", "A5": "++--",
        },
        [
            (3, "a1", "a2"), (4, "a2", "a3"), (2, "a3", "a4"), (3, "a4", "a5"),
            (2, "a2", "z2"), (4, "z2", "A2"),
            (4, "a4", "z4"), (2, "z4", "A4"),
            (3, "A1", "A2"), (2, "A2", "A3"), (4, "A3", "A4"), (3, "A4", "A5"),
        ],
    )


def fig8() -> SignedColoredGraph:
    return _graph(
        5,
        5,
        {
            "t1": "+--+", "t2": "-+-+", "t3": "+-++", "t4": "-+-+", "t5": "--+-",
            "m0": "++--", "m1": "+-+-", "m2": "-++-", "m4": "-++-",
            "m5": "-+-+", "m6": "--++",
            "b1": "-+--", "b2": "+-+-", "b3": "++-+", "b4": "+-+-", "b5": "+--+",
        },
        [
            (2, "t1", "t2"), (3, "t2", "t3"), (2, "t3", "t4"), (3, "t4", "t5"),
            (4, "t1", "m1"), (4, "t2", "m2"), (4, "t4", "m4"), (4, "t5", "m5"),
            (3, "m0", "m1"), (3, "m5", "m6"),
            (2, "m1", "b1"), (2, "m2", "b2"), (2, "m4", "b4"), (2, "m5", "b5"),
            (3, "b1", "b2"), (4, "b2", "b3"), (3, "b3", "b4"), (4, "b4", "b5"),
        ],
    )


def fig9() -> SignedColoredGraph:
    sigma = {v: sig for v, sig in fig8().sigma.items()}
    return SignedColoredGraph(
        5,
        5,
        sigma,
        [
            (2, "t1", "t2"), (2, "t3", "t4"), (3, "t3", "t4"),
            (3, "t2", "t5"), (4, "t2", "t5"),
            (4, "t1", "m1"), (4, "t4", "m4"), (4, "m2", "m5"),
            (3, "m0", "b2"), (3, "m5", "m6"),
            (2, "m1", "b1"), (3, "m1", "b1"),
            (2, "m2", "b2"), (2, "m4", "b4"), (2, "m5", "b5"),
            (4, "b2", "b5"), (3, "b3", "b4"), (4, "b3", "b4"),
        ],
    )


def fig12() -> SignedColoredGraph:
    return _graph(
        5,
        5,
        {
            "A0": "+++-", "A1": "++-+", "B1": "+-++", "C1": "-+-+",
            "D1": "+-+-", "E1": "++-+", "F1": "+-++", "F0": "-+++",
            "C2": "-++-", "D2": "-++-",
            "B3": "++--", "C3": "+-+-", "D3": "-+-+", "E3": "--++",
            "CD": "+--+",
        },
        [
            (4, "A0", "A1"), (2, "F1", "F0"),
            (3, "A1", "B1"), (2, "B1", "C1"), (3, "C1", "D1"),
            (4, "D1", "E1"), (3, "E1", "F1"),
            (4, "C2", "C1"), (2, "D1", "D2"),
            (2, "C3", "C2"), (4, "D2", "D3"),
            (3, "B3", "C3"), (4, "C3", "CD"), (2, "CD", "D3"), (3, "D3", "E3"),
        ],
    )


def fig13() -> SignedColoredGraph:
    sigma = {v: sig for v, sig in fig12().sigma.items()}
    return SignedColoredGraph(
        5,
        5,
        sigma,
        [
            (4, "A0", "E1"),
            (2, "B1", "C1"), (3, "B1", "C1"),
            (3, "E1", "F1"),
            (3, "A1", "D1"), (4, "A1", "D1"),
            (2, "F1", "F0"),
            (2, "D1", "D2"), (4, "C2", "D3"), (4, "D2", "C1"),
            (2, "C3", "C2"), (2, "CD", "D3"),
            (3, "B3", "C3"), (4, "C3", "CD"), (3, "D3", "E3"),
        ],
    )


def fig6() -> SignedColoredGraph:
    sigma = {
        "c2": "+-+-+", "b2": "+--++", "a3": "-+-++", "a4": "--+-+",
        "b5": "--++-", "c5": "-+-+-",
        "d3": "+-++-", "d1": "-+--+", "d4": "+--+-", "d6": "-++-+",
        "e2": "-+-+-", "f2": "-++--", "g3": "+-+--", "g4": "++-+-",
        "f5": "++--+", "e5": "+-+-+",
        "xc2": "+-+-+", "xb2": "+--++", "xa3": "-+-++", "xa4": "--+-+",
        "xb5": "--++-", "xc5": "-+-+-",
        "xd3": "+-++-", "xd1": "-+--+", "xd4": "+--+-", "xd6": "-++-+",
        "xe2": "-+-+-", "xf2": "-++--", "xg3": "+-+--", "xg4": "++-+-",
        "xf5": "++--+", "xe5": "+-+-+",
    }

    def side(p: str, other: str):
        return [
            (3, p + "a3", p + "a4"), (4, p + "a3", p + "a4"),
            (2, p + "b2", p + "a3"), (5, p + "a4", p + "b5"),
            (4, p + "c2", p + "b2"), (3, p + "b5", p + "c5"),
            (2, p + "d1", p + "c2"), (3, p + "d1", p + "c2"),
            (5, p + "c2", p + "d3"), (2, p + "d4", p + "c5"),
            (4, p + "c5", p + "d6"), (5, p + "c5", p + "d6"),
            (5, p + "d1", p + "e2"),
            (2, p + "e2", p + "d3"), (3, p + "e2", p + "d3"),
            (4, p + "d4", p + "e5"), (5, p + "d4", p + "e5"),
            (2, p + "e5", p + "d6"),
            (4, p + "e2", p + "f2"), (3, p + "f5", p + "e5"),
            (2, p + "f2", p + "g3"),
            (5, p + "g4", other + "f5"),
            (3, p + "g3", p + "g4"), (4, p + "g3", p + "g4"),
        ]

    triples = side("", "x") + side("x", "")
    return _graph(6, 6, sigma, triples)


def fig19() -> SignedColoredGraph:
    triples = [
        (2, "z1", "a0"), (3, "a0", "b0"), (4, "b0", "c0"),
        (4, "g0", "h0"), (3, "h0", "i0"), (2, "i0", "y1"),
        (5, "c0", "c2"), (5, "g0", "g2"),
        (4, "c2", "d2"),
        (2, "d2", "e1"), (3, "d2", "e1"),
        (5, "d2", "e3"),
        (2, "e3", "f2"), (3, "e3", "f2"),
        (5, "e1", "f2"), (4, "f2", "g2"),
        (3, "c2", "c4"), (3, "g2", "g4"),
        (5, "a4", "b4"), (4, "b4", "c4"), (4, "g4", "h4"), (5, "h4", "i4"),
        (2, "a4", "a6"), (2, "b4", "b6"), (2, "c4", "c6"),
        (2, "g4", "g6"), (2, "h4", "h6"), (2, "i4", "i6"),
        (5, "a6", "b6"), (4, "c6", "d6"),
        (2, "d6", "e7"), (3, "d6", "e7"),
        (5, "d6", "e5"),
        (2, "e5", "f6"), (3, "e5", "f6"),
        (5, "e7", "f6"), (4, "f6", "g6"), (5, "h6", "i6"),
        (3, "a6", "a8"),
        (3, "b6", "b8"), (4, "b6", "b8"),
        (3, "h6", "h8"), (4, "h6", "h8"),
        (3, "i6", "i8"),
        (4, "z8", "a8"), (5, "z8", "a8"),
        (4, "i8", "y8"), (5, "i8", "y8"),
    ]
    vertices = sorted({u for _, u, _ in triples} | {w for _, _, w in triples})
    return _structural_graph(6, vertices, triples)


def fig21() -> SignedColoredGraph:
    triples = [
        (3, "b1", "c1"), (4, "b1", "c1"),
        (5, "c1", "d1"), (3, "d1", "e1"), (4, "e1", "f1"),
        (2, "c1", "c2"), (2, "d1", "d2"), (5, "e1", "e2"), (4, "h1", "h2"),
        (2, "a2", "b2"), (3, "a2", "b2"),
        (4, "b2", "c2"), (5, "c2", "d2"), (5, "g2", "h2"),
        (3, "e2", "e3"), (3, "g2", "g3"), (3, "h2", "h3"),
        (3, "b3", "c3"), (4, "b3", "c3"),
        (2, "c3", "d3"), (4, "d3", "e3"), (2, "e3", "f3"),
        (4, "f3", "g3"), (5, "g3", "h3"),
        (5, "b3", "b4"), (5, "e3", "e4"), (5, "f3", "f4"),
        (2, "g3", "g4"), (2, "h3", "h4"),
        (2, "e4", "f4"), (3, "e4", "f4"),
        (5, "g4", "h4"),
        (3, "b4", "b5"), (4, "f4", "f5"), (4, "g4", "g5"),
        (4, "b5", "c5"), (5, "b5", "c5"),
        (2, "b5", "b6"), (2, "c5", "c6"), (2, "f5", "f6"),
        (2, "g5", "g6"), (3, "g5", "g6"),
        (4, "b6", "c6"), (5, "b6", "c6"),
        (3, "c6", "d6"), (5, "d6", "e6"),
        (3, "e6", "f6"), (4, "e6", "f6"),
    ]
    vertices = sorted({u for _, u, _ in triples} | {w for _, _, w in triples})
    return _structural_graph(6, vertices, triples)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class FixtureEntry:
    name: str
    builder: object
    large: bool = False
    expected: dict = field(default_factory=dict)


FIXTURES: dict[str, FixtureEntry] = {}


def _register(name: str, builder, large=False, **expected):
    FIXTURES[name] = FixtureEntry(name, builder, large, expected)


_register(
    "fig1",
    fig1,
    axioms_pass=(1, 2, 3, 4, 5, 6),
    expansion="s[3,2]",
)
_register("fig4a", fig4a, expansion="s[3,1]+s[2,2]", classify=("s31_plus_k_s22", 1))
_register("fig4b", fig4b, expansion="s[2,2]+s[2,1,1]", classify=("s211_plus_k_s22", 1))
_register("fig4c", fig4c, expansion="2*s[2,2]", classify=("k_s22", 2))
_register("fig5a", fig5a, expansion="s[3,2]+s[3,1,1]", classify=("s32_plus_k_s311", 1))
_register("fig5b", fig5b, expansion="s[3,1,1]+s[2,2,1]", classify=("s221_plus_k_s311", 1))
_register("fig5c", fig5c, expansion="2*s[3,1,1]", classify=("k_s311", 2))
_register(
    "fig6",
    fig6,
    large=True,
    axioms_pass=(1, 2, 3, 4, 5),
    axioms_fail=(6,),
    expansion="2*s[3,2,1]",
    classify=("k_s321", 2),
)
_register(
    "fig8",
    fig8,
    locally_schur_positive=True,
    lsf_fail=(4,),
    expansion="s[3,2]+s[3,1,1]+s[2,2,1]",
)
_register("fig9", fig9, axioms_pass=(1, 2, 3, 4, 5, 6), expansion="s[3,2]+s[3,1,1]+s[2,2,1]")
_register(
    "fig12",
    fig12,
    locally_schur_positive=True,
    expansion="s[4,1]+s[3,2]+s[3,1,1]",
)
_register("fig13", fig13, axioms_pass=(1, 2, 3, 4, 5, 6), expansion="s[4,1]+s[3,2]+s[3,1,1]")
_register(
    "fig19",
    fig19,
    large=True,
    axioms_pass=(1, 2, 3, 5),
    lsp_pass=(4, 5),
    lsp_fail=(6,),
    axiom4a=False,
)
_register(
    "fig21",
    fig21,
    large=True,
    axioms_pass=(1, 2, 3, 5),
    lsp_fail=(6,),
    axiom4a=True,
    axiom4b=False,
)


@lru_cache(maxsize=None)
def _built(name: str) -> SignedColoredGraph:
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; have {sorted(FIXTURES)}")
    return FIXTURES[name].builder()


def fixture(name: str) -> SignedColoredGraph:
    """The named fixture, built once per process; each caller gets its own
    unmarked graph object sharing the built one's lists and signatures."""
    G = _built(name)
    return G._derive(G.n, G.partner, G.edge_order)


def fixture_names(skip_large: bool = False) -> list[str]:
    return [n for n, e in sorted(FIXTURES.items()) if not (skip_large and e.large)]


def verify_fixture(name: str) -> list[str]:
    """Check one fixture's recorded expectations; returns failure messages."""
    entry = FIXTURES[name]
    G = fixture(name)
    problems: list[str] = []

    def expect(cond, label):
        if not cond:
            problems.append(f"{name}: {label}")

    exp = entry.expected
    for k in exp.get("axioms_pass", ()):
        expect(check_axiom(G, k).holds, f"axiom {k} should pass")
    for k in exp.get("axioms_fail", ()):
        expect(not check_axiom(G, k).holds, f"axiom {k} should fail")
    if "expansion" in exp:
        got = expand_in_schur(G.generating_function()).to_string()
        expect(got == exp["expansion"], f"expansion {got} != {exp['expansion']}")
    if exp.get("locally_schur_positive"):
        expect(is_locally_schur_positive(G).holds, "should be locally Schur positive")
    for m in exp.get("lsf_fail", ()):
        expect(not check_lsf(G, m).holds, f"LSF{m} should fail")
    for m in exp.get("lsp_pass", ()):
        expect(check_lsp(G, m).holds, f"LSP{m} should pass")
    for m in exp.get("lsp_fail", ()):
        expect(not check_lsp(G, m).holds, f"LSP{m} should fail")
    if "classify" in exp:
        kind, k = exp["classify"]
        comp = G.components(G.colors())[0]
        got = classify_small_component(G, comp)
        expect(
            got.ok and got.kind == kind and got.k == k,
            f"classification {got} != ({kind}, k={k})",
        )
    if "axiom4a" in exp:
        expect(check_axiom4a(G).holds == exp["axiom4a"], "axiom 4a expectation")
    if "axiom4b" in exp:
        expect(check_axiom4b(G).holds == exp["axiom4b"], "axiom 4b expectation")
    return problems
