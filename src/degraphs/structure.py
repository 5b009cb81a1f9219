"""Vertex typing, flat and non-flat chains, defect sets, the set U_i and
negatively dominant components.

The defect sets W_i (overlong non-flat chains) and C_i (overlong flat
chains) measure how far a graph is from having only allowed three-color
components; their package-filtered refinements W_i0 and C_i0 mark vertices
where the rewiring maps are defined, and U_i (``set_U``) marks those where
rewiring also keeps the graph locally Schur positive.  The rewiring maps
and the search over U_i live in ``transform``.

Every chain grows from i-edges plus one walk along alternating (c-1, c)
edges, ``_grow``; a W-detour is that walk one color down.  A flat chain's
next i-edge starts at ``_flat_successor``, and ``defect_sets`` reads C_i
off one list of those successors.  The private functions, which
``transform`` reads too, work on vertex positions and partner lists; type W
and flatness compare one bit of ``G.pbits``.  Ids appear only at the
public boundary, which looks each id up once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinatorics import Partition, dominance_ge
from .graph import SignedColoredGraph, _check_color, _package
from .standard import identify_component


class StructureError(ValueError):
    pass


# ---------------------------------------------------------------------------
# vertex types


def _type_w(G: SignedColoredGraph, v: int, i: int) -> bool:
    """Type W at color i: position v has an i-edge and an i-1-neighbor
    across which the sign at position i reverses."""
    if not 3 <= i < G.n:
        return False
    u = G.partner[i - 1][v]
    return G.partner[i][v] >= 0 and u >= 0 and bool((G.pbits[v] ^ G.pbits[u]) >> (i - 1) & 1)


def i_type(G: SignedColoredGraph, v: str, i: int) -> str:
    """One of 'W', 'A', 'B', 'C', 'none'.

    W needs i >= 3; A, B, C need i >= 4.  The B/C discriminator without an
    i-1-neighbor relies on the i-2-neighbor having one (guaranteed by axiom
    3); if it does not, the input is off-spec and an error is raised.
    """
    p = G.position(v)
    if not 3 <= i < G.n or G.partner[i][p] < 0:
        return "none"
    if _type_w(G, p, i):
        return "W"
    if i < 4:
        return "none"
    u2, bits = G.partner[i - 2][p], G.pbits
    if u2 < 0:
        return "A"
    if G.partner[i - 1][p] >= 0:
        return "B" if (bits[p] ^ bits[u2]) >> (i - 2) & 1 else "C"
    u21 = G.partner[i - 1][u2]
    if u21 < 0:
        raise StructureError(
            f"vertex {v!r}: classifying color {i} needs an {i - 1}-edge at "
            f"{G.ids[u2]!r} (axiom 3 violated)"
        )
    return "B" if (bits[p] ^ bits[u21]) >> (i - 1) & 1 else "C"


def _flat(G: SignedColoredGraph, v: int, i: int) -> bool:
    """Whether the i-edge at position v, which has one, is flat: the sign at
    position i-2 agrees across it.

    Flatness compares position i-2, which exists for i >= 3; 2-edges are
    flat by convention.
    """
    return i < 3 or not (G.pbits[v] ^ G.pbits[G.partner[i][v]]) >> (i - 3) & 1


# ---------------------------------------------------------------------------
# chains


def _grow(G: SignedColoredGraph, end: int, i: int, used: set[int]) -> list[int]:
    """The positions E_{i-1}(y), E_i E_{i-1}(y), ... met growing a non-flat
    chain one way from its end y, the position ``end``; growth stops when a
    link is missing or would revisit a position.  ``used`` gains the new
    positions.  i - 1 and i must be colors."""
    down, up, grown = G.partner[i - 1], G.partner[i], []
    while True:
        nxt = down[end]
        if nxt < 0 or nxt in used:
            return grown
        end = up[nxt]
        if end < 0 or end in used:
            return grown
        grown += (nxt, end)
        used.update((nxt, end))


def _w_detour(G: SignedColoredGraph, y: int, i: int) -> list[int] | None:
    """The positions E_{i-2}(y), E_{i-1}E_{i-2}(y), ... of the color-(i-1)
    non-flat chain ahead of position y, read pair by pair while y and then
    each second vertex has type W one color down; None when the chain ends
    first."""
    if not _type_w(G, y, i - 1):
        return []
    chain = _grow(G, y, i - 1, {y})
    for k in range(1, len(chain), 2):
        if not _type_w(G, chain[k], i - 1):
            return chain[: k + 1]
    return None


def _psi_path(G: SignedColoredGraph, x: int, i: int) -> tuple[int, ...] | None:
    """Path of positions (x, E_i(x), ..., u) to the first vertex past x's
    i-edge clear of type W one color down; None when the walk dies.  i must
    be a color."""
    w = G.partner[i][x]
    detour = None if w < 0 else _w_detour(G, w, i)
    return None if detour is None else (x, w, *detour)


def _flat_successor(G: SignedColoredGraph, a: int, i: int) -> int:
    """The start of the flat chain's next i-edge after the oriented i-edge
    (a, E_i(a)): E_{i-2} of psi's partner, when that vertex, its i-partner
    and the partner's i-2-partner exist; else -1."""
    path = _psi_path(G, a, i)
    low = G.partner[i - 2]
    nxt = -1 if path is None else low[path[-1]]
    pair = -1 if nxt < 0 else G.partner[i][nxt]
    return nxt if pair >= 0 and low[pair] >= 0 else -1


def _flat_chain(G: SignedColoredGraph, x1: int, x2: int, i: int) -> list[int]:
    """Grow a flat chain of positions forward from the oriented starting
    i-edge (x1, x2), until the next i-edge is missing or would revisit a
    vertex."""
    chain, used, up = [x1, x2], {x1, x2}, G.partner[i]
    nxt = _flat_successor(G, x1, i) if i >= 4 else -1  # no i-2-edges below 4
    while nxt >= 0 and nxt not in used and (pair := up[nxt]) not in used:
        chain += (nxt, pair)
        used.update((nxt, pair))
        nxt = _flat_successor(G, chain[-2], i)
    return chain


def all_flat_chains(G: SignedColoredGraph, i: int) -> list[tuple[str, ...]]:
    """Chains grown from every oriented i-edge whose endpoints admit
    i-2-edges.  Every flat chain is a prefix of one of these."""
    if not 4 <= i < G.n:
        return []
    up, low, ids = G.partner[i], G.partner[i - 2], G.ids
    return [
        tuple(map(ids.__getitem__, _flat_chain(G, u, w, i)))
        for u, w in enumerate(up)
        if w >= 0 and low[u] >= 0 and low[w] >= 0
    ]


def maximal_flat_chains(G: SignedColoredGraph, i: int) -> list[tuple[str, ...]]:
    """Grown chains that are not contiguous subsequences of longer ones.

    A chain whose reversal was also grown is recorded once, anchored at its
    lexicographically least endpoint.
    """
    grown = set(all_flat_chains(G, i))
    chains = sorted(grown, key=lambda c: (-len(c), c))
    out: list[tuple[str, ...]] = []

    def contained(small, big):
        k = len(small)
        return any(big[j : j + k] == small for j in range(len(big) - k + 1))

    for ch in chains:
        canon = min(ch, ch[::-1]) if ch[::-1] in grown else ch
        if not any(
            contained(canon, kept) or contained(canon[::-1], kept) for kept in out
        ):
            out.append(canon)
    return out


# ---------------------------------------------------------------------------
# defect sets


@dataclass(frozen=True)
class DefectSets:
    W: frozenset[str]
    W0: frozenset[str]
    C: frozenset[str]
    C0: frozenset[str]

    def all_empty(self) -> bool:
        return not (self.W or self.C)


def _package_flat(G: SignedColoredGraph, v: int, j: int) -> bool:
    """Every vertex of the j-package of position v admits a flat j-edge."""
    a = G.partner[j]
    return all(a[u] >= 0 and _flat(G, u, j) for u in _package(G, v, j))


def _flat_interiors(G: SignedColoredGraph, i: int) -> set[int]:
    """C_i: the positions of ``all_flat_chains(G, i)`` two or more in from
    either end, read off one flat-successor list.

    Each i-matched vertex's successor (``_flat_successor``) is computed
    once, psi's partner inline where E_i(a) has no W-detour.  An i-edge is
    interior to some grown chain exactly when it is interior to the
    three-edge chain grown from its predecessor in that chain, which is a
    start itself: that chain has used only vertices the longer one has, so
    where the longer one goes on past the edge, it does too.
    """
    up, mid, low, bits = G.partner[i], G.partner[i - 1], G.partner[i - 2], G.pbits
    succ = [-1] * len(up)
    for a, b in enumerate(up):
        if b < 0:
            continue
        u = low[b]
        if mid[b] >= 0 and u >= 0 and (bits[b] ^ bits[u]) >> (i - 2) & 1:
            succ[a] = _flat_successor(G, a, i)  # b has type W one color down
        elif u >= 0 and (pair := up[u]) >= 0 and low[pair] >= 0:
            succ[a] = u
    inner: set[int] = set()
    for p, a in enumerate(succ):
        if a < 0 or low[p] < 0 or low[q := up[p]] < 0 or a == p or a == q:
            continue
        c, b = succ[a], up[a]
        if c >= 0 and c not in (p, q, a, b):
            inner.update((a, b))
    return inner


def _w_positions(G: SignedColoredGraph, i: int) -> list[int]:
    """W_i by position, ascending: type W at color i (``_type_w``), read
    off the two partner lists in one pass, without the double edges."""
    if not 3 <= i < G.n:
        return []
    up, down, bits = G.partner[i], G.partner[i - 1], G.pbits
    return [
        v
        for v, w in enumerate(up)
        if w >= 0
        and (u := down[v]) >= 0
        and u != w
        and (bits[v] ^ bits[u]) >> (i - 1) & 1
    ]


def defect_sets(G: SignedColoredGraph, i: int) -> DefectSets:
    """W_i, W_i0, C_i and C_i0 as id sets; a ValueError for a color outside
    1 < i < n."""
    _check_color(G, i)
    W = _w_positions(G, i)
    W0 = [w for w in W if _package_flat(G, w, i - 1)]
    C = _flat_interiors(G, i) if i >= 4 else ()
    C0 = [
        x
        for x in C
        if (path := _psi_path(G, x, i)) is not None
        and all(_package_flat(G, v, i - 2) for v in path)
    ]
    ids = G.ids.__getitem__
    return DefectSets(*(frozenset(map(ids, s)) for s in (W, W0, C, C0)))


# ---------------------------------------------------------------------------
# U_i


def set_U(G: SignedColoredGraph, i: int) -> list[tuple[str, str]]:
    """Vertices of W_i0 / C_i0 whose rewiring keeps the graph locally Schur
    positive, tagged 'phi' or 'psi'.  The search that finds them is
    ``transform.eligible_rewirings``, which the pipeline runs lazily."""
    from .transform import eligible_rewirings

    return [(v, kind) for v, kind, _ in eligible_rewirings(G, i, defect_sets(G, i))]


# ---------------------------------------------------------------------------
# negatively dominant components


def _component_sign(G: SignedColoredGraph, positions, position: int) -> int:
    """Constant sign of a signature position across a component's vertex
    positions, read off ``G.pbits``; +1 when it is out of range (top color)."""
    if position > G.N - 1:
        return 1
    signs = {G.pbits[p] >> (position - 1) & 1 for p in positions}
    if len(signs) != 1:
        raise StructureError(
            f"position {position} not constant on component of {G.ids[min(positions)]!r}"
        )
    return -1 if signs.pop() else 1


def negatively_dominant(
    G: SignedColoredGraph, H_vertices, i: int
) -> tuple[str, ...] | None:
    """Choose the rewiring pivot inside one component H of the colors-below-
    (i+1) restriction: a minus-signed restricted component of dominance-
    maximal shape, or the overall dominance maximum when every sign is plus.
    The pieces are walked from H's sorted positions and identified on G at degree i.
    """
    labeled: list[tuple[tuple[str, ...], Partition, int]] = []
    for comp in G._walk(sorted(map(G.position, H_vertices)), range(2, i)):
        piece = G._id_tuple(comp)
        ident = identify_component(G, piece, i)
        if ident is None:
            raise StructureError(f"restricted component at {piece[0]!r} is not standard")
        labeled.append((piece, ident[0], _component_sign(G, comp, i + 1)))
    minus = [t for t in labeled if t[2] == -1]
    pool = minus if minus else labeled
    for piece, lam, _sign in pool:
        if all(dominance_ge(lam, other) for _, other, _ in pool):
            return piece
    return None
