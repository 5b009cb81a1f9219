"""Vertex typing, flat and non-flat chains, defect sets, the set U_i and
negatively dominant components.

The defect sets W_i (overlong non-flat chains) and C_i (overlong flat
chains) measure how far a graph is from having only allowed three-color
components; their package-filtered refinements W_i0 and C_i0 mark vertices
where the rewiring maps are defined, and U_i (``set_U``) marks those where
rewiring also keeps the graph locally Schur positive.  The rewiring maps
and the search over U_i live in ``transform``.

Every chain grows from i-edges plus one walk along alternating (c-1, c)
edges, ``extend_nonflat_chain``; a W-detour is that walk one color down.
A flat chain's next i-edge starts at ``_flat_successor``, and
``defect_sets`` reads C_i off one map of those successors.  Type W and
flatness compare one bit of the signature bits ``G.bits``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinatorics import Partition, dominance_ge
from .graph import SignedColoredGraph, i_package
from .standard import identify_component


class StructureError(ValueError):
    pass


# ---------------------------------------------------------------------------
# vertex types


def has_type_w(G: SignedColoredGraph, v: str, i: int) -> bool:
    """Type W at color i: an i-edge and an i-1-neighbor across which the
    sign at position i reverses."""
    if i < 3 or i >= G.n:
        return False
    if G.neighbor(v, i) is None:
        return False
    u = G.neighbor(v, i - 1)
    if u is None:
        return False
    return bool((G.bits[v] ^ G.bits[u]) >> (i - 1) & 1)


def i_type(G: SignedColoredGraph, v: str, i: int) -> str:
    """One of 'W', 'A', 'B', 'C', 'none'.

    W needs i >= 3; A, B, C need i >= 4.  The B/C discriminator without an
    i-1-neighbor relies on the i-2-neighbor having one (guaranteed by axiom
    3); if it does not, the input is off-spec and an error is raised.
    """
    if G.neighbor(v, i) is None or i < 3:
        return "none"
    if has_type_w(G, v, i):
        return "W"
    if i < 4:
        return "none"
    u2 = G.neighbor(v, i - 2)
    if u2 is None:
        return "A"
    if G.neighbor(v, i - 1) is not None:
        flip = G.sigma[v][i - 2] == -G.sigma[u2][i - 2]
        return "B" if flip else "C"
    u21 = G.neighbor(u2, i - 1)
    if u21 is None:
        raise StructureError(
            f"vertex {v!r}: classifying color {i} needs an {i - 1}-edge at "
            f"{u2!r} (axiom 3 violated)"
        )
    flip = G.sigma[v][i - 1] == -G.sigma[u21][i - 1]
    return "B" if flip else "C"


def is_flat_edge(G: SignedColoredGraph, v: str, i: int) -> bool:
    """True when the sign at position i-2 agrees across the i-edge.

    Flatness compares position i-2, which exists for i >= 3; 2-edges are
    flat by convention.
    """
    w = G.neighbor(v, i)
    if w is None:
        raise ValueError(f"vertex {v!r} has no {i}-edge")
    if i < 3:
        return True
    return not (G.bits[v] ^ G.bits[w]) >> (i - 3) & 1


# ---------------------------------------------------------------------------
# chains


def extend_nonflat_chain(G: SignedColoredGraph, end: str, i: int, used: set[str]) -> list[str]:
    """The vertices E_{i-1}(y), E_i E_{i-1}(y), ... met growing a non-flat
    chain one way from its end y; growth stops when a link is missing or
    would revisit a vertex.  ``used`` gains the new vertices."""
    grown: list[str] = []
    while True:
        nxt = G.neighbor(end, i - 1)
        if nxt is None or nxt in used:
            return grown
        end = G.neighbor(nxt, i)
        if end is None or end in used:
            return grown
        grown.extend((nxt, end))
        used.update((nxt, end))


def _w_detour(G: SignedColoredGraph, y: str, i: int) -> list[str] | None:
    """The vertices E_{i-2}(y), E_{i-1}E_{i-2}(y), ... of the color-(i-1)
    non-flat chain ahead of y, read pair by pair while y and then each
    second vertex has type W one color down; None when the chain ends
    first."""
    if not has_type_w(G, y, i - 1):
        return []
    chain = extend_nonflat_chain(G, y, i - 1, {y})
    for k in range(1, len(chain), 2):
        if not has_type_w(G, chain[k], i - 1):
            return chain[: k + 1]
    return None


def psi_target(G: SignedColoredGraph, x: str, i: int) -> tuple[str, ...] | None:
    """Path (x, E_i(x), ..., u) to the first vertex past x's i-edge clear of
    type W one color down; None when the walk dies."""
    w = G.neighbor(x, i)
    detour = None if w is None else _w_detour(G, w, i)
    return None if detour is None else (x, w, *detour)


def _flat_successor(G: SignedColoredGraph, a: str, i: int) -> str | None:
    """The start of the flat chain's next i-edge after the oriented i-edge
    (a, E_i(a)): E_{i-2} of psi's partner, when that vertex, its i-partner
    and the partner's i-2-partner exist; else None."""
    path = psi_target(G, a, i)
    nxt = None if path is None else G.neighbor(path[-1], i - 2)
    pair = None if nxt is None else G.neighbor(nxt, i)
    return nxt if pair is not None and G.neighbor(pair, i - 2) is not None else None


def flat_chains_from(G: SignedColoredGraph, x1: str, x2: str, i: int) -> tuple[str, ...]:
    """Grow a flat chain forward from the oriented starting i-edge (x1, x2),
    until the next i-edge is missing or would revisit a vertex."""
    if G.neighbor(x2, i) != x1:
        raise ValueError("starting vertices are not an i-edge")
    chain = [x1, x2]
    used = {x1, x2}
    while True:
        nxt = _flat_successor(G, chain[-2], i)
        if nxt is None or nxt in used or (pair := G.neighbor(nxt, i)) in used:
            return tuple(chain)
        chain.extend([nxt, pair])
        used.update((nxt, pair))


def all_flat_chains(G: SignedColoredGraph, i: int) -> list[tuple[str, ...]]:
    """Chains grown from every oriented i-edge whose endpoints admit
    i-2-edges.  Every flat chain is a prefix of one of these."""
    if i < 4:
        return []
    out = []
    for u, w in sorted(G.matching(i).items()):
        if G.neighbor(u, i - 2) is None or G.neighbor(w, i - 2) is None:
            continue
        out.append(flat_chains_from(G, u, w, i))
    return out


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


def package_all_flat(G: SignedColoredGraph, v: str, j: int) -> bool:
    """Every vertex of the j-package of v admits a flat j-edge."""
    for u in i_package(G, v, j):
        if G.neighbor(u, j) is None or not is_flat_edge(G, u, j):
            return False
    return True


def _flat_interiors(G: SignedColoredGraph, i: int) -> frozenset[str]:
    """C_i: the vertices of ``all_flat_chains(G, i)`` two or more in from
    either end, read off one flat-successor map.

    Each i-matched vertex's successor (``_flat_successor``) is computed
    once, psi's partner inline where E_i(a) has no W-detour.  An i-edge is
    interior to some grown chain exactly when it is interior to the
    three-edge chain grown from its predecessor in that chain, which is a
    start itself: that chain has used only vertices the longer one has, so
    where the longer one goes on past the edge, it does too.
    """
    up, mid, low, bits = G._partners(i), G._partners(i - 1), G._partners(i - 2), G.bits
    succ = {}
    for a, b in up.items():
        u = low.get(b)
        if b in mid and u is not None and (bits[b] ^ bits[u]) >> (i - 2) & 1:
            nxt = _flat_successor(G, a, i)  # b has type W one color down
        else:
            nxt = None if u is None or (pair := up.get(u)) is None or pair not in low else u
        if nxt is not None:
            succ[a] = nxt
    inner: set[str] = set()
    for p, a in succ.items():
        q = up[p]
        if p not in low or q not in low or a in (p, q) or (c := succ.get(a)) is None:
            continue
        b = up[a]
        if c not in (p, q, a, b):
            inner.update((a, b))
    return frozenset(inner)


def defect_sets(G: SignedColoredGraph, i: int) -> DefectSets:
    # W_i: type W at color i (``has_type_w``), read off the two partner maps
    # in one pass, without the double edges
    W: frozenset[str] = frozenset()
    if 3 <= i < G.n:
        down, bits = G._partners(i - 1), G.bits
        W = frozenset(
            v
            for v, w in G._partners(i).items()
            if (u := down.get(v)) is not None
            and u != w
            and (bits[v] ^ bits[u]) >> (i - 1) & 1
        )
    W0 = frozenset(w for w in W if package_all_flat(G, w, i - 1))
    C = _flat_interiors(G, i) if 4 <= i < G.n else frozenset()
    C0 = frozenset(
        x
        for x in C
        if (path := psi_target(G, x, i)) is not None
        and all(package_all_flat(G, v, i - 2) for v in path)
    )
    return DefectSets(W, W0, C, C0)


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


def _component_sign(G: SignedColoredGraph, vertices, position: int) -> int:
    """Constant sign of a position across a component; +1 when the position
    is out of range (top color)."""
    if position > G.N - 1:
        return 1
    signs = {G.sigma[v][position - 1] for v in vertices}
    if len(signs) != 1:
        raise StructureError(
            f"position {position} not constant on component of {min(vertices)!r}"
        )
    return signs.pop()


def negatively_dominant(
    G: SignedColoredGraph, H_vertices, i: int
) -> tuple[str, ...] | None:
    """Choose the rewiring pivot inside one component H of the colors-below-
    (i+1) restriction: a minus-signed restricted component of dominance-
    maximal shape, or the overall dominance maximum when every sign is plus.
    Each restricted component is identified on G at degree i.
    """
    pieces, _ = G.refine(H_vertices, range(2, i))
    labeled: list[tuple[tuple[str, ...], Partition, int]] = []
    for piece in pieces:
        ident = identify_component(G, piece, i)
        if ident is None:
            raise StructureError(f"restricted component at {piece[0]!r} is not standard")
        labeled.append((piece, ident[0], _component_sign(G, piece, i + 1)))
    minus = [t for t in labeled if t[2] == -1]
    pool = minus if minus else labeled
    for piece, lam, _sign in pool:
        if all(dominance_ge(lam, other) for _, other, _ in pool):
            return piece
    return None
