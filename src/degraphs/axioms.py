"""Checkers for the dual equivalence axioms, the local Schur positivity and
multiplicity-free conditions, the small-degree classification, and the two
supplementary axioms governing structure above the active color.

Axiom 4 is checked by seeded forced extension against small template graphs
(the allowed two- and three-color components): from a component's least
vertex the map to each template vertex is forced along the colors, with the
template's signs as listed or globally flipped.  This keeps the axiom
checkers independent of the symmetric function code, so agreement between
axiom 4/6 and the multiplicity-free conditions is a genuine cross-check of
two code paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .combinatorics import Partition, Signature, sig_from_str
from .graph import ComponentView, SignedColoredGraph, _forced_extension
from .symfunc import QSym, expand_in_schur, is_schur_positive, is_single_schur


@dataclass
class AxiomReport:
    axiom: str
    holds: bool
    witnesses: list[tuple] = field(default_factory=list)

    @staticmethod
    def from_witnesses(axiom, witnesses) -> "AxiomReport":
        ws = list(witnesses)
        return AxiomReport(str(axiom), not ws, ws)

    def describe(self) -> str:
        status = "PASS" if self.holds else "FAIL"
        head = f"{self.axiom}: {status}"
        if self.holds:
            return head
        lines = [head] + [f"  witness: {w}" for w in self.witnesses]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# axiom templates
#
# Allowed two-color components (colors a = i-1, b = i), window i-2..i:
#   isolated vertex, three-vertex path, double edge.
# Allowed three-color components (colors a = i-2, b = i-1, c = i),
# window i-3..i: isolated vertex, four-vertex path, five-vertex graph with
# double edges at both ends, six-vertex cycle with two pendant edges.
# Signs listed for one global assignment; the flip is tried during matching.

_TWO_COLOR_TEMPLATES = (
    ((), ("+++",)),
    (((0, 1, "a"), (1, 2, "b")), ("-++", "+-+", "++-")),
    (((0, 1, "a"), (0, 1, "b")), ("+-+", "-+-")),
)

_THREE_COLOR_TEMPLATES = (
    ((), ("++++",)),
    (((0, 1, "a"), (1, 2, "b"), (2, 3, "c")), ("-+++", "+-++", "++-+", "+++-")),
    (
        ((0, 1, "a"), (0, 1, "b"), (1, 2, "c"), (2, 3, "a"), (3, 4, "b"), (3, 4, "c")),
        ("+-++", "-+-+", "-++-", "+-+-", "++-+"),
    ),
    (
        ((0, 1, "b"), (1, 2, "a"), (1, 3, "c"), (2, 4, "c"), (3, 4, "a"), (4, 5, "b")),
        ("++--", "+-+-", "-++-", "+--+", "-+-+", "--++"),
    ),
)


@lru_cache(maxsize=None)
def _template_graphs(templates, roles: tuple[tuple[int, str], ...], window) -> tuple:
    """Each template as a graph at the real colors, with its signs at the
    window positions (plus below them), once as listed and once flipped."""
    lo, hi = window
    color_of = {role: c for c, role in roles}
    graphs = []
    for t_edges, t_sigs in templates:
        triples = [(color_of[role], f"t{a}", f"t{b}") for a, b, role in t_edges]
        for flip in (1, -1):
            sigma = {
                f"t{k}": (1,) * (lo - 1) + tuple(flip * x for x in sig_from_str(s))
                for k, s in enumerate(t_sigs)
            }
            graphs.append(SignedColoredGraph(hi + 1, hi + 1, sigma, triples))
    return tuple(graphs)


def _component_matches_template(
    G: SignedColoredGraph,
    vertices: tuple[str, ...],
    color_roles: dict[int, str],
    window: tuple[int, int],
    templates,
) -> bool:
    """Exact match of an extracted component against one template: the map
    forced from the component's least vertex to some template vertex, with
    the template's signs as listed or globally flipped, is a bijection onto
    the template."""
    lo, hi = window
    if lo < 1:  # a window reaching below position 1 matches no template
        return False
    anchor = min(vertices)
    positions = range(lo, hi + 1)
    roles = tuple(sorted(color_roles.items()))
    for T in _template_graphs(templates, roles, window):
        if len(T.sigma) != len(vertices):
            continue
        for t in T.sigma:
            m = _forced_extension(G, T, {anchor: t}, color_roles, positions)
            if m is not None and set(m) == set(vertices):
                return True
    return False


# ---------------------------------------------------------------------------
# the six axioms


def _check_axiom1(G: SignedColoredGraph):
    for v in G.vertices():
        s = G.sigma[v]
        for i in G.colors():
            wants_edge = s[i - 2] == -s[i - 1]
            has_edge = G.neighbor(v, i) is not None
            if wants_edge != has_edge:
                yield (i, v, "edge present" if has_edge else "edge missing")


def _check_axiom2(G: SignedColoredGraph):
    for i, u, w in G.edge_triples():
        su, sw = G.sigma[u], G.sigma[w]
        for j in (i - 1, i):
            if su[j - 1] != -sw[j - 1]:
                yield (i, u, w, f"position {j} not reversed")
        for h in range(1, G.N):
            if (h < i - 2 or h > i + 1) and su[h - 1] != sw[h - 1]:
                yield (i, u, w, f"position {h} not preserved")


def _check_axiom3(G: SignedColoredGraph):
    for i, u, w in G.edge_triples():
        for a, b in ((u, w), (w, u)):
            sa, sb = G.sigma[a], G.sigma[b]
            if i - 2 >= 1 and sa[i - 3] == -sb[i - 3] and sa[i - 3] != -sa[i - 2]:
                yield (i, a, b, f"position {i - 2} flips but equals sigma_{i - 1}")
            if i + 1 <= G.N - 1 and sa[i] == -sb[i] and sa[i] != -sa[i - 1]:
                yield (i, a, b, f"position {i + 1} flips but equals sigma_{i}")


def _check_axiom4(G: SignedColoredGraph):
    for i in range(3, G.n):
        roles = {i - 1: "a", i: "b"}
        for comp in G.components((i - 1, i)):
            if not _component_matches_template(
                G, comp.vertices, roles, (i - 2, i), _TWO_COLOR_TEMPLATES
            ):
                yield (i, comp.min_vertex(), "two-color component not allowed")
    for i in range(4, G.n):
        roles = {i - 2: "a", i - 1: "b", i: "c"}
        for comp in G.components((i - 2, i - 1, i)):
            if not _component_matches_template(
                G, comp.vertices, roles, (i - 3, i), _THREE_COLOR_TEMPLATES
            ):
                yield (i, comp.min_vertex(), "three-color component not allowed")


def _check_axiom5(G: SignedColoredGraph):
    for i in G.colors():
        for j in G.colors():
            if j - i < 3:
                continue
            for v in G.vertices():
                a = G.neighbor(v, i)
                b = G.neighbor(v, j)
                if a is None or b is None:
                    continue
                if G.neighbor(a, j) is None or G.neighbor(a, j) != G.neighbor(b, i):
                    yield (i, j, v, "colors do not commute")


def _check_axiom6(G: SignedColoredGraph):
    for i in G.colors():
        for comp in G.components(range(2, i + 1)):
            sub, node_of = G.refine(comp.vertices, range(2, i))
            if len(sub) <= 1:
                continue
            adjacent: set[tuple[int, int]] = set()
            for u, w in G.matching(i).items():
                if u in node_of and w in node_of:
                    a, b = node_of[u], node_of[w]
                    if a != b:
                        adjacent.add((min(a, b), max(a, b)))
            for a in range(len(sub)):
                for b in range(a + 1, len(sub)):
                    if (a, b) not in adjacent:
                        yield (i, sub[a][0], sub[b][0], "needs two or more crossings")


_AXIOM_CHECKS = {
    1: _check_axiom1,
    2: _check_axiom2,
    3: _check_axiom3,
    4: _check_axiom4,
    5: _check_axiom5,
    6: _check_axiom6,
}


def check_axiom(G: SignedColoredGraph, k: int) -> AxiomReport:
    if k not in _AXIOM_CHECKS:
        raise ValueError(f"unknown axiom {k}")
    return AxiomReport.from_witnesses(k, _AXIOM_CHECKS[k](G))


def check_axioms(G: SignedColoredGraph, ks=(1, 2, 3, 4, 5, 6)) -> list[AxiomReport]:
    return [check_axiom(G, k) for k in ks]


def is_dual_equivalence_graph(G: SignedColoredGraph) -> bool:
    return all(check_axiom(G, k).holds for k in range(1, 7))


# ---------------------------------------------------------------------------
# local Schur positivity


def _degree_windows(G: SignedColoredGraph, m: int):
    """(i, colors, window) triples for the degree-m local conditions."""
    for i in range(m - 1, G.n):
        colors = tuple(range(i - (m - 3), i + 1))
        window = (i - (m - 2), i)
        yield i, colors, window


def check_lsf(G: SignedColoredGraph, m: int) -> AxiomReport:
    """Schur multiplicity-free for degree m: every window component is a
    single Schur function."""
    if m not in (4, 5, 6):
        raise ValueError("degree must be 4, 5 or 6")

    def witnesses():
        for i, colors, window in _degree_windows(G, m):
            for comp in G.components(colors):
                f = comp.generating_function(window)
                if is_single_schur(f) is None:
                    yield (i, comp.min_vertex(), expand_in_schur(f).to_string())

    return AxiomReport.from_witnesses(f"LSF{m}", witnesses())


@lru_cache(maxsize=None)
def _window_violation(degree: int, counts: tuple[tuple[Signature, int], ...]) -> str | None:
    """Why the window function with these (signature, count) pairs is not
    Schur positive, or None when it is.

    The pairs are the whole function, so the key is exact: two windows with
    the same key have the same expansion, whatever graph they come from.
    """
    return is_schur_positive(QSym(degree, dict(counts))).violation


def check_lsp(G: SignedColoredGraph, m: int) -> AxiomReport:
    """Schur positive for degree m."""
    if m not in (4, 5, 6):
        raise ValueError("degree must be 4, 5 or 6")

    def witnesses():
        for i, colors, window in _degree_windows(G, m):
            for comp in G.components(colors):
                f = comp.generating_function(window)
                violation = _window_violation(f.degree, tuple(sorted(f.coeffs.items())))
                if violation is not None:
                    yield (i, comp.min_vertex(), violation)

    return AxiomReport.from_witnesses(f"LSP{m}", witnesses())


def is_locally_schur_positive(G: SignedColoredGraph) -> AxiomReport:
    """Axioms 1, 2, 3 and 5 together with degree 4, 5, 6 positivity."""
    witnesses = []
    for k in (1, 2, 3, 5):
        rep = check_axiom(G, k)
        if not rep.holds:
            witnesses.extend((f"axiom {k}",) + w for w in rep.witnesses)
    for m in (4, 5, 6):
        rep = check_lsp(G, m)
        if not rep.holds:
            witnesses.extend((f"LSP{m}",) + w for w in rep.witnesses)
    return AxiomReport.from_witnesses("LSP", witnesses)


# ---------------------------------------------------------------------------
# small-degree classification


@dataclass(frozen=True)
class SmallClassification:
    degree: int
    ok: bool
    kind: str
    lam: Partition | None = None
    k: int | None = None
    detail: str = ""

    def describe(self) -> str:
        if not self.ok:
            return f"degree {self.degree}: OUTSIDE ({self.detail})"
        if self.kind == "single":
            return f"degree {self.degree}: s[{','.join(map(str, self.lam))}]"
        return f"degree {self.degree}: {self.kind} with k={self.k}"


_MIXED_FORMS = {
    4: [((3, 1), (2, 2), "s31_plus_k_s22"), ((2, 1, 1), (2, 2), "s211_plus_k_s22")],
    5: [
        ((3, 2), (3, 1, 1), "s32_plus_k_s311"),
        ((2, 2, 1), (3, 1, 1), "s221_plus_k_s311"),
    ],
}
_PURE_FORMS = {4: ((2, 2), "k_s22"), 5: ((3, 1, 1), "k_s311"), 6: ((3, 2, 1), "k_s321")}


def classify_small_component(comp: ComponentView, degree: int) -> SmallClassification:
    """Sort a connected low-degree component into its allowed generating
    function shape, or report that the hypotheses are violated."""
    if degree not in (4, 5, 6):
        raise ValueError("degree must be 4, 5 or 6")
    G = comp.graph
    if (G.n, G.N) != (degree, degree):
        return SmallClassification(
            degree, False, "error", detail=f"graph type {(G.n, G.N)} != ({degree},{degree})"
        )
    sub = comp.subgraph()
    hypotheses = [check_axiom(sub, k) for k in (1, 2, 3, 5)]
    hypotheses.append(check_lsp(sub, 4) if degree == 4 else check_lsp(sub, degree))
    if degree >= 5:
        hypotheses.append(check_lsf(sub, 4))
    if degree >= 6:
        hypotheses.append(check_lsf(sub, 5))
    for rep in hypotheses:
        if not rep.holds:
            return SmallClassification(
                degree, False, "error", detail=f"hypothesis {rep.axiom} fails"
            )
    exp = expand_in_schur(comp.generating_function())
    if not exp.is_exact():
        return SmallClassification(degree, False, "error", detail="not symmetric")
    coeffs = exp.coeffs
    if len(coeffs) == 1:
        ((lam, c),) = coeffs.items()
        if c == 1:
            return SmallClassification(degree, True, "single", lam=lam)
        pure = _PURE_FORMS[degree]
        if lam == pure[0] and c >= 1:
            return SmallClassification(degree, True, pure[1], k=c)
    if degree in _MIXED_FORMS and len(coeffs) == 2:
        for base, rep_lam, name in _MIXED_FORMS[degree]:
            if coeffs.get(base) == 1 and coeffs.get(rep_lam, 0) >= 1:
                return SmallClassification(degree, True, name, k=coeffs[rep_lam])
    return SmallClassification(
        degree, False, "error", detail=f"unexpected expansion {exp.to_string()}"
    )


# ---------------------------------------------------------------------------
# supplementary axioms


def check_axiom4a(G: SignedColoredGraph) -> AxiomReport:
    """For w on an overlong non-flat chain whose i-1-edge is not flat, the
    two-color components on either side must use the same degree-4
    quasisymmetric functions (equal supports)."""
    from .structure import defect_sets, is_flat_edge

    def witnesses():
        for i in range(4, G.n):
            W = defect_sets(G, i).W
            for w in sorted(W):
                if is_flat_edge(G, w, i - 1):
                    continue
                left = G.component_of(w, (i - 2, i - 1))
                right = G.component_of(w, (i - 1, i))
                left_support = left.generating_function((i - 3, i - 1)).support()
                right_support = right.generating_function((i - 2, i)).support()
                if left_support != right_support:
                    yield (i, w, "degree-4 supports differ across the colors")

    return AxiomReport.from_witnesses("4a", witnesses())


def check_axiom4b(G: SignedColoredGraph) -> AxiomReport:
    """For x interior to an overlong flat chain and carrying type W one color
    up, some maximal flat chain through x must have all predecessors or all
    successors of x carrying that type."""
    from .structure import defect_sets, has_type_w, maximal_flat_chains

    def witnesses():
        for i in range(4, G.n):
            if i + 1 >= G.n:
                break
            C = defect_sets(G, i).C
            suspects = sorted(x for x in C if has_type_w(G, x, i + 1))
            if not suspects:
                continue
            chains = maximal_flat_chains(G, i)
            for x in suspects:
                ok = False
                for chain in chains:
                    if x not in chain:
                        continue
                    j = chain.index(x)
                    before = chain[:j]
                    after = chain[j + 1 :]
                    if all(has_type_w(G, v, i + 1) for v in before) or all(
                        has_type_w(G, v, i + 1) for v in after
                    ):
                        ok = True
                        break
                if not ok:
                    yield (i, x, "no one-sided maximal flat chain")

    return AxiomReport.from_witnesses("4b", witnesses())
