"""Checkers for the dual equivalence axioms, the local Schur positivity and
multiplicity-free conditions, the small-degree classification, and the two
supplementary axioms governing structure above the active color.

Every checker reads the graph's positional store (``graph``): vertices are
positions in id order, each color a partner list, each signature one
integer (bit p set where position p + 1 is -1).  Ids appear only in the
witnesses, ordered by least vertex, and for axioms 2 and 3 in
``edge_triples`` order, which is read off ``G.edge_order`` only to word a
failing edge.  Axioms 1, 2 and 3 take one mask test per vertex or edge and
read the positions one by one only where it fails, to word the witness.
One walk, ``_window_witnesses``, visits the window components for axiom 4
and for the local Schur positivity and multiplicity-free conditions, and
keys each by the sorted tuple of its vertices' local codes.  For axiom 4 a
code is the vertex's slice of the window packed with its partners' slices,
and the key must be one of the allowed components' (templates', as listed
or globally sign-flipped), coded the same way; for n >= 5 the three-color
components decide it (``_check_axiom4``).  So axiom 4 never reads the
symmetric function code, and agreement between axiom 4/6 and the
multiplicity-free conditions is a genuine cross-check of two code paths.
For LSP and LSF the code is the bare slice, so the key is the window
function, and both verdicts are cached on it.

``axiom_holds`` stops at the first witness (for axiom 4 with n >= 5, the
first three-color one); ``full_pipeline`` checks axioms 4 and 6 on its
input that way.  A graph derived from a verified one has axioms 1, 2, 3 and
5 and the window positivity re-checked only on ``_changed_scope``, {color:
the positions whose partner there changed}: in the LSP report, in the gate
(``lsp_holds``) and in ``is_dual_equivalence_graph(G, base)``.  The
supplementary axioms 4a and 4b read the defect sets and chains of
``structure``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .combinatorics import Partition, sig_from_str
from .graph import SignedColoredGraph, _check_color, signature_bits
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


def _window_codes(bits, partners, lo: int, width: int) -> list[int]:
    """Each position's local code at the window of ``width`` positions from
    ``lo``, ``bits`` being the signature bits by position: its slice in the
    low ``width`` bits, then, for each partner list in turn, ``width + 1``
    bits holding its partner's slice plus one (0 for no partner).  So two
    vertices share a code exactly when their slices and their partners'
    slices agree; one pass over each list sets them."""
    mask, low = (1 << width) - 1, lo - 1
    code = [(b >> low) & mask for b in bits]
    # each slice plus one, and a last entry 0 that partner -1 reads
    above = [c + 1 for c in code] + [0]
    shift = width
    for a in partners:
        code = [c + (above[w] << shift) for c, w in zip(code, a)]
        shift += width + 1
    return code


def _component_key(code, vertices) -> tuple:
    """The sorted local codes of the vertices.

    Within each template, as listed or flipped, the slices are pairwise
    distinct, so a component has a template's key exactly when sending each
    vertex to the template vertex with its slice is an isomorphism."""
    return tuple(sorted(map(code.__getitem__, vertices)))


@lru_cache(maxsize=None)
def _template_keys(templates) -> frozenset:
    """The ``_component_key`` of each template, as listed and globally
    flipped, with the roles in alphabetical order as the partner lists."""
    keys = set()
    roles = sorted({role for edges, _ in templates for *_, role in edges})
    for edges, sigs in templates:
        partner = {role: [-1] * len(sigs) for role in roles}
        for a, b, role in edges:
            partner[role][a], partner[role][b] = b, a
        for flip in (1, -1):
            bits = [signature_bits(tuple(flip * x for x in sig_from_str(t))) for t in sigs]
            code = _window_codes(bits, [partner[r] for r in roles], 1, len(sigs[0]))
            keys.add(_component_key(code, range(len(sigs))))
    return frozenset(keys)


# ---------------------------------------------------------------------------
# the six axioms


def _scope(G: SignedColoredGraph, colors) -> dict:
    """{color: the positions to check there, or None for all}: every color
    of G when ``colors`` is None, or each listed color whole.  A
    ``{color: set of positions}`` map, such as ``_changed_scope``, is taken
    as it is; its positions must hold both ends of each of their edges, as
    the positions whose partner changed do.  A ValueError for a color
    outside 1 < i < n."""
    if colors is None:
        return dict.fromkeys(G.colors())
    scope = colors if isinstance(colors, dict) else dict.fromkeys(colors)
    for i in scope:
        _check_color(G, i)
    return scope


def _check_axiom1(G: SignedColoredGraph, colors=None):
    """An i-edge exactly where positions i-1 and i differ, that is where bit
    i-2 of ``b ^ b >> 1`` is set, b the signature bits.  At whole colors
    each vertex takes one mask test against the colors it has edges in."""
    scope = _scope(G, colors)
    bits = G.pbits
    suspects = {p for ps in scope.values() if ps is not None for p in ps}
    whole = [i for i, ps in scope.items() if ps is None]
    if whole:
        edged = [0] * len(bits)  # bit i-2 set where the vertex has an i-edge
        for i in whole:
            bit = 1 << (i - 2)
            edged = [e | bit if w >= 0 else e for e, w in zip(edged, G.partner[i])]
        cmask = sum(1 << (i - 2) for i in whole)
        suspects.update(
            p for p, (b, e) in enumerate(zip(bits, edged)) if (b ^ b >> 1) & cmask != e
        )
    for p in sorted(suspects):
        b = bits[p] ^ bits[p] >> 1
        for i, ps in scope.items():
            if ps is not None and p not in ps:
                continue
            has_edge = G.partner[i][p] >= 0
            if bool(b >> (i - 2) & 1) != has_edge:
                yield (i, G.ids[p], "edge present" if has_edge else "edge missing")


def _edges(G: SignedColoredGraph, colors):
    """(i, the i-partner list, the positions to read) for each color of the
    scope: every position at a whole color, else the given ones (a set).
    An i-edge (u, w) is read at its lesser end, u < w."""
    every = range(len(G.ids))
    for i, ps in _scope(G, colors).items():
        yield i, G.partner[i], every if ps is None else ps


def _in_edge_order(G: SignedColoredGraph, i: int, edges) -> list[tuple[str, str]]:
    """The i-edges among the position pairs ``edges``, as id pairs in
    ``edge_triples`` order, in which the witnesses are worded."""
    if not edges:
        return []
    wanted, a, ids = set(edges), G.partner[i], G.ids
    return [(ids[u], ids[a[u]]) for u in G.edge_order[i] if (u, a[u]) in wanted]


def _check_axiom2(G: SignedColoredGraph, colors=None):
    """An i-edge reverses positions i-1 and i and keeps every position
    outside i-2..i+1: one mask test on the xor of its ends' bits, and the
    positions are read one by one only where that test fails."""
    bits, full = G.pbits, (1 << (G.N - 1)) - 1
    for i, a, at in _edges(G, colors):
        flip = 3 << (i - 2)
        tested = full & ~((1 << (i + 1)) - (1 << max(i - 3, 0))) | flip
        bad = [(u, w) for u in at if u < (w := a[u]) and (bits[u] ^ bits[w]) & tested != flip]
        for u, w in _in_edge_order(G, i, bad):
            su, sw = G.sigma[u], G.sigma[w]
            for j in (i - 1, i):
                if su[j - 1] != -sw[j - 1]:
                    yield (i, u, w, f"position {j} not reversed")
            for h in range(1, G.N):
                if (h < i - 2 or h > i + 1) and su[h - 1] != sw[h - 1]:
                    yield (i, u, w, f"position {h} not preserved")


def _check_axiom3(G: SignedColoredGraph, colors=None):
    """Where an i-edge flips position i-2 (i+1), each end's sign there
    differs from its sign at position i-1 (i).  Bit q of ``~(b ^ b >> 1)``
    is set where an end's bits q and q+1 agree, so one mask test per edge
    finds every edge that breaks this, and only those are read again."""
    bits = G.pbits
    for i, a, at in _edges(G, colors):
        low, high = (1 << (i - 3) if i >= 3 else 0), 1 << i
        bad = []
        for u in at:
            if u < (w := a[u]):
                bu, bw = bits[u], bits[w]
                agree = ~(bu ^ bu >> 1) | ~(bw ^ bw >> 1)
                if (bu ^ bw) & (agree & low | agree << 1 & high):
                    bad.append((u, w))
        for u, w in _in_edge_order(G, i, bad):
            for a, b in ((u, w), (w, u)):
                sa, sb = G.sigma[a], G.sigma[b]
                if i - 2 >= 1 and sa[i - 3] == -sb[i - 3] and sa[i - 3] != -sa[i - 2]:
                    yield (i, a, b, f"position {i - 2} flips but equals sigma_{i - 1}")
                if i + 1 <= G.N - 1 and sa[i] == -sb[i] and sa[i] != -sa[i - 1]:
                    yield (i, a, b, f"position {i + 1} flips but equals sigma_{i}")


_AXIOM4_KINDS = {  # window width: templates, witness wording
    3: (_TWO_COLOR_TEMPLATES, "two-color"),
    4: (_THREE_COLOR_TEMPLATES, "three-color"),
}


def _window_witnesses(G: SignedColoredGraph, width: int, verdict, colors=None, partners=False):
    """(i, least vertex, reason) wherever ``verdict(width, key)`` is a
    reason, by window and then by least vertex.  The window ending at i is
    the ``width`` signature positions i-width+1..i (degree width + 1), over
    colors i-width+2..i.  A component's key is its vertices' sorted slices,
    or with ``partners`` their ``_window_codes``.  With ``colors``, as in
    ``check_axiom``, only the components holding a vertex of the scope at
    one of the window's colors are walked."""
    if width not in (3, 4, 5):
        raise ValueError("degree must be 4, 5 or 6")
    scope = _scope(G, colors)
    bits, mask = G.pbits, (1 << width) - 1
    for i in range(width, G.n):
        lo = i - width + 1
        window = range(lo + 1, i + 1)
        at = [scope[c] for c in window if c in scope]
        if not at:
            continue  # the scope misses every color of the window
        starts = range(len(bits)) if None in at else {p for ps in at for p in ps}
        if partners:
            code = _window_codes(bits, [G.partner[c] for c in window], lo, width)
        failing = []
        for comp in G._walk(starts, window):
            if partners:
                key = tuple(sorted(map(code.__getitem__, comp)))  # _component_key
            else:
                key = tuple(sorted([bits[p] >> (lo - 1) & mask for p in comp]))
            reason = verdict(width, key)
            if reason is not None:
                failing.append((min(comp), reason))
        for p, reason in sorted(failing):
            yield (i, G.ids[p], reason)


def _axiom4_pass(G: SignedColoredGraph, width: int):
    """The axiom-4 witnesses of one kind: each window component whose key
    is not an allowed one's."""
    templates, what = _AXIOM4_KINDS[width]
    allowed, reason = _template_keys(templates), f"{what} component not allowed"
    return _window_witnesses(
        G, width, lambda _, key: None if key in allowed else reason, partners=True
    )


def _check_axiom4(G: SignedColoredGraph):
    """Two-color components at colors i-1, i, then three-color ones at
    colors i-2..i.

    For n >= 5 the two-color pass can only find witnesses where the
    three-color pass finds some.  Each two-color component lies inside the
    three-color component at window max(i, 4), and each three-color
    template, as listed or flipped, splits into allowed two-color
    components at both of its sub-windows (``tests/test_axioms.py``,
    ``test_three_color_templates_hold_two_color_axiom4``).  So the
    three-color pass runs first, and the two-color one only to word the
    witnesses, in the same order, when it finds any or when n < 5, where
    there is no three-color window."""
    three = list(_axiom4_pass(G, 4))
    if three or G.n < 5:
        yield from _axiom4_pass(G, 3)
        yield from three


def _check_axiom5(G: SignedColoredGraph, colors=None):
    """Commutation of colors i and j, j - i >= 3; with ``colors``, only the
    pairs with a color among them.  The test at v reads the i- and
    j-partners of v and the j-partner of E_i(v), the i-partner of E_j(v), so
    at a color given with positions only those positions and their partners
    in the pair's other color are tested."""
    scope = _scope(G, colors)
    lists = G.partner
    for i, mi in lists.items():
        every = None
        for j, mj in lists.items():
            if j - i < 3 or (i not in scope and j not in scope):
                continue
            if any(c in scope and scope[c] is None for c in (i, j)):
                every = order = every or [v for v, a in enumerate(mi) if a >= 0]
            else:
                at = ((scope.get(i), mj), (scope.get(j), mi))
                near = {y for ps, other in at for x in ps or () for y in (x, other[x])}
                order = sorted(v for v in near if v >= 0 and mi[v] >= 0)
            # E_j E_i(v) must exist and be E_i E_j(v) wherever E_j(v) does
            bad = [v for v in order if (b := mj[v]) >= 0 and not 0 <= mj[mi[v]] == mi[b]]
            for v in bad:
                yield (i, j, G.ids[v], "colors do not commute")


def _axiom6_at(G: SignedColoredGraph, i: int, piece: list[int]):
    """The axiom-6 witnesses at color i, and the pieces under colors 2..i.

    ``piece[p]`` is the least position of p's component under colors
    2..i-1 (its piece).  The components under colors 2..i are exactly these
    pieces joined along the i-edges, so one pass over the i-partner list
    records which pairs of pieces an i-edge joins, and a walk over those
    pairs joins the pieces.  Each component's missing pairs are the
    witnesses, components by least vertex and pieces by least vertex inside
    each; when the joined pairs are as many as the pairs of pieces within
    the components, none is missing.
    """
    joined = {(a, b) for a, w in zip(piece, G.partner[i]) if w >= 0 and a < (b := piece[w])}
    if not joined:
        return [], piece
    near: dict[int, list[int]] = {}
    for a, b in joined:
        near.setdefault(a, []).append(b)
        near.setdefault(b, []).append(a)
    root_of: dict[int, int] = {}  # each joined piece's least piece
    comps = []
    for root in sorted(near):
        if root not in root_of:
            root_of[root] = root
            comp = [root]
            for a in comp:
                for b in near[a]:
                    if b not in root_of:
                        root_of[b] = root
                        comp.append(b)
            comps.append(comp)
    witnesses = []
    if len(joined) < sum(len(comp) * (len(comp) - 1) // 2 for comp in comps):
        ids = G.ids
        for comp in comps:
            comp.sort()
            for x, a in enumerate(comp):
                for b in comp[x + 1 :]:
                    if (a, b) not in joined:
                        witnesses.append((i, ids[a], ids[b], "needs two or more crossings"))
    return witnesses, list(map(root_of.get, piece, piece))


def _axiom6_sweep(G: SignedColoredGraph, top: int):
    """(the axiom-6 witnesses at color i, the pieces under colors 2..i) for
    i = 2..top-1, by one ascending sweep."""
    piece = list(range(len(G.ids)))
    for i in range(2, top):
        at_i, piece = _axiom6_at(G, i, piece)
        yield at_i, piece


_AXIOM_CHECKS = {
    1: _check_axiom1,
    2: _check_axiom2,
    3: _check_axiom3,
    4: _check_axiom4,
    5: _check_axiom5,
    6: lambda G: (w for at_i, _ in _axiom6_sweep(G, G.n) for w in at_i),
}


def check_axiom(G: SignedColoredGraph, k: int, colors=None) -> AxiomReport:
    """Axiom k on G.  With ``colors``, axiom 1, 2, 3 or 5 is checked only at
    those colors (axiom 5 on the pairs holding one of them), or only at the
    given positions of each color of a ``{color: set of positions}`` scope
    (see ``_scope``); axioms 4 and 6 take no colors."""
    check = _axiom_check(k)
    if colors is None:
        return AxiomReport.from_witnesses(k, check(G))
    if k in (4, 6):
        raise ValueError(f"axiom {k} takes no colors")
    return AxiomReport.from_witnesses(k, check(G, colors))


def _axiom_check(k: int):
    """The checker of axiom k; a ValueError for any other k."""
    if k not in _AXIOM_CHECKS:
        raise ValueError(f"unknown axiom {k}")
    return _AXIOM_CHECKS[k]


def axiom_holds(G: SignedColoredGraph, k: int) -> bool:
    """Whether axiom k holds on the whole of G, stopping at the first
    witness.  For axiom 4 with n >= 5 that is the first three-color
    witness: the two-color components are allowed wherever the three-color
    ones are (see ``_check_axiom4``)."""
    witnesses = _axiom4_pass(G, 4) if k == 4 and G.n >= 5 else _axiom_check(k)(G)
    return next(witnesses, None) is None


def _changed_scope(G: SignedColoredGraph, base: SignedColoredGraph | None):
    """{color: the set of positions whose partner differs from ``base``'s},
    at the colors where any does; None (the whole graph) for no base.  A
    ValueError when ``base`` has other vertices or signatures: its partner
    lists would then say nothing of G's."""
    if base is None:
        return None
    if (base.ids, base.N, base.pbits) != (G.ids, G.N, G.pbits):  # shared: O(1)
        raise ValueError("base has other vertices or signatures than the graph")
    scope = {}
    for i, a in G.partner.items():
        b = base.partner.get(i) or [-1] * len(a)
        if a is not b and a != b:
            scope[i] = {p for p, (x, y) in enumerate(zip(a, b)) if x != y}
    return scope


def is_dual_equivalence_graph(G: SignedColoredGraph, base: SignedColoredGraph | None = None) -> bool:
    """Whether axioms 1 to 6 hold.

    ``base``, when given, must have G's vertices and signatures (a
    ValueError otherwise) and must satisfy axioms 1, 2, 3 and 5, which the
    caller asserts.  Each of these reads, at a vertex or an edge, the
    signatures and that vertex's partners (axiom 5 also its partners'
    partners in the pair's other color), so it is checked only on the
    ``_changed_scope``.  Axioms 4 and 6 are checked on the whole graph
    either way.
    """
    scope = _changed_scope(G, base)
    return all(check_axiom(G, k, scope).holds for k in (1, 2, 3, 5)) and all(
        check_axiom(G, k).holds for k in (4, 6)
    )


# ---------------------------------------------------------------------------
# local Schur positivity


def _window_function(width: int, slices) -> QSym:
    """The window function of vertices with these signature slices, each
    the window's ``width`` bits of ``G.pbits``."""
    return QSym.from_signatures(
        width + 1, (tuple(-1 if s >> p & 1 else 1 for p in range(width)) for s in slices)
    )


@lru_cache(maxsize=None)
def _lsf_violation(width: int, slices: tuple[int, ...]) -> str | None:
    """The Schur expansion of the window function of these sorted slices
    when it is not a single Schur function, or None when it is."""
    f = _window_function(width, slices)
    return None if is_single_schur(f) is not None else expand_in_schur(f).to_string()


def check_lsf(G: SignedColoredGraph, m: int) -> AxiomReport:
    """Schur multiplicity-free for degree m: every window component is a
    single Schur function."""
    return AxiomReport.from_witnesses(f"LSF{m}", _window_witnesses(G, m - 1, _lsf_violation))


@lru_cache(maxsize=None)
def _window_violation(width: int, slices: tuple[int, ...]) -> str | None:
    """Why the window function of these sorted slices is not Schur
    positive, or None when it is.  The slices are the whole function, so
    the key is exact: two windows with the same key have the same
    expansion, whatever graph they come from."""
    return is_schur_positive(_window_function(width, slices)).violation


def check_lsp(G: SignedColoredGraph, m: int, colors=None) -> AxiomReport:
    """Schur positive for degree m.  With ``colors``, as in ``check_axiom``,
    only the windows' components at the scope are checked."""
    return AxiomReport.from_witnesses(
        f"LSP{m}", _window_witnesses(G, m - 1, _window_violation, colors)
    )


def _lsp_reports(G: SignedColoredGraph):
    """(tag, report) for axioms 1, 2, 3 and 5, then degrees 4, 5 and 6, on
    the ``_changed_scope`` of G against its verified ancestor.  A vertex,
    edge or window component whose partners are the ancestor's is the
    ancestor's, with the same signatures, so the scoped reports hold the
    whole graph's witnesses, in the same order."""
    scope = _changed_scope(G, G._lsp_base)
    for k in (1, 2, 3, 5):
        yield f"axiom {k}", check_axiom(G, k, scope)
    for m in (4, 5, 6):
        yield f"LSP{m}", check_lsp(G, m, scope)


def lsp_holds(G: SignedColoredGraph) -> bool:
    """``is_locally_schur_positive(G).holds``, stopping at the first report
    that fails.  Marks G as passed, as that does, when it holds."""
    if G._lsp_base is not True and all(rep.holds for _, rep in _lsp_reports(G)):
        G._lsp_base = True
    return G._lsp_base is True


def is_locally_schur_positive(G: SignedColoredGraph) -> AxiomReport:
    """Axioms 1, 2, 3 and 5 together with degree 4, 5, 6 positivity, every
    witness tagged with its check.

    Graphs are immutable, so a graph that passes is marked as passed, and a
    graph made from it by ``with_color_matching`` (directly or through graphs
    that did not pass) names it as its verified ancestor, against which it
    is checked by difference (``_lsp_reports``).
    """
    if G._lsp_base is True:
        return AxiomReport("LSP", True)
    witnesses = [(tag,) + w for tag, rep in _lsp_reports(G) for w in rep.witnesses]
    report = AxiomReport.from_witnesses("LSP", witnesses)
    if report.holds:
        G._lsp_base = True
    return report


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


_MIXED_FORMS = {
    4: [((3, 1), (2, 2), "s31_plus_k_s22"), ((2, 1, 1), (2, 2), "s211_plus_k_s22")],
    5: [
        ((3, 2), (3, 1, 1), "s32_plus_k_s311"),
        ((2, 2, 1), (3, 1, 1), "s221_plus_k_s311"),
    ],
}
_PURE_FORMS = {4: ((2, 2), "k_s22"), 5: ((3, 1, 1), "k_s311"), 6: ((3, 2, 1), "k_s321")}


def classify_small_component(
    G: SignedColoredGraph, vertices, degree: int
) -> SmallClassification:
    """Sort a connected low-degree component of G, given by its vertices,
    into its allowed generating function shape, or report that the
    hypotheses are violated."""
    if degree not in (4, 5, 6):
        raise ValueError("degree must be 4, 5 or 6")
    if (G.n, G.N) != (degree, degree):
        return SmallClassification(
            degree, False, "error", detail=f"graph type {(G.n, G.N)} != ({degree},{degree})"
        )
    sub = G.subgraph(vertices)
    hypotheses = [check_axiom(sub, k) for k in (1, 2, 3, 5)]
    hypotheses.append(check_lsp(sub, degree))
    hypotheses += [check_lsf(sub, m) for m in range(4, degree)]
    for rep in hypotheses:
        if not rep.holds:
            return SmallClassification(
                degree, False, "error", detail=f"hypothesis {rep.axiom} fails"
            )
    exp = expand_in_schur(G.generating_function(vertices))
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
    quasisymmetric functions (equal supports): the 3-bit slices of ``G.pbits``
    at positions i-3..i-1 on the (i-2, i-1) side and i-2..i on the other."""
    from .structure import _flat, _w_positions

    def witnesses():
        bits = G.pbits
        for i in range(4, G.n):
            for p in _w_positions(G, i):
                if _flat(G, p, i - 1):
                    continue
                left = {bits[q] >> (i - 4) & 7 for q in next(G._walk((p,), (i - 2, i - 1)))}
                right = {bits[q] >> (i - 3) & 7 for q in next(G._walk((p,), (i - 1, i)))}
                if left != right:
                    yield (i, G.ids[p], "degree-4 supports differ across the colors")

    return AxiomReport.from_witnesses("4a", witnesses())


def check_axiom4b(G: SignedColoredGraph) -> AxiomReport:
    """For x interior to an overlong flat chain and carrying type W one color
    up, some maximal flat chain through x must have all predecessors or all
    successors of x carrying that type."""
    from .structure import _flat_interiors, _type_w, maximal_flat_chains

    def one_sided(chain, x, i):
        j = chain.index(x)
        sides = (chain[:j], chain[j + 1 :])
        return any(all(_type_w(G, G.pos[v], i + 1) for v in side) for side in sides)

    def witnesses():
        for i in range(4, G.n - 1):
            suspects = sorted(p for p in _flat_interiors(G, i) if _type_w(G, p, i + 1))
            if not suspects:
                continue
            chains = maximal_flat_chains(G, i)
            for x in map(G.ids.__getitem__, suspects):
                if not any(x in chain and one_sided(chain, x, i) for chain in chains):
                    yield (i, x, "no one-sided maximal flat chain")

    return AxiomReport.from_witnesses("4b", witnesses())
