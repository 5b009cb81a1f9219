"""Vertex typing, flat and non-flat chains, defect sets, transform
eligibility, negatively dominant components, and the rooted node tree used to
unblock stuck configurations.

The defect sets W_i (overlong non-flat chains) and C_i (overlong flat
chains) measure how far a graph is from having only allowed three-color
components; their package-filtered refinements W_i0 and C_i0 mark vertices
where the rewiring maps are defined, and U_i marks those where rewiring also
keeps the graph locally Schur positive.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinatorics import Partition, dominance_ge, sig_str
from .graph import (
    ComponentView,
    SignedColoredGraph,
    i_package,
)
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
    return G.sigma[v][i - 1] == -G.sigma[u][i - 1]


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
    return G.sigma[v][i - 3] == G.sigma[w][i - 3]


# ---------------------------------------------------------------------------
# chains


def nonflat_chain_through(G: SignedColoredGraph, v: str, i: int) -> tuple[str, ...]:
    """The maximal alternating i / i-1 sequence around v's i-edge.

    Pairs are joined by i-edges and linked by i-1-edges; growth stops when a
    link is missing, would revisit a vertex, or the next pair is absent.
    """
    w = G.neighbor(v, i)
    if w is None:
        return ()
    used = {v, w}
    ahead = extend_nonflat_chain(G, w, i, used)
    behind = extend_nonflat_chain(G, v, i, used)
    chain = behind[::-1] + [v, w] + ahead
    if chain[-1] < chain[0]:
        chain.reverse()
    return tuple(chain)


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


def _w_detour(G: SignedColoredGraph, start: str, i: int) -> list[str] | None:
    """The vertices E_{i-2}(y), E_{i-1}E_{i-2}(y), ... stepped through from
    y = start while y has type W one color down; None when a step is
    missing or revisits a vertex."""
    detour: list[str] = []
    seen = {start}
    y = start
    while has_type_w(G, y, i - 1):
        y2 = G.neighbor(y, i - 2)
        if y2 is None:
            return None
        y = G.neighbor(y2, i - 1)
        if y is None or y in seen:
            return None
        detour.extend((y2, y))
        seen.add(y)
    return detour


def _flat_hop(G: SignedColoredGraph, v: str, i: int) -> str | None:
    """Next odd-position vertex of a flat chain: follow i-2 with the smallest
    number of i-1/i-2 detours landing clear of type W one color down."""
    detour = _w_detour(G, v, i)
    if detour is None:
        return None
    return G.neighbor(detour[-1] if detour else v, i - 2)


def flat_chains_from(G: SignedColoredGraph, x1: str, x2: str, i: int) -> tuple[str, ...]:
    """Grow a flat chain forward from the oriented starting i-edge (x1, x2)."""
    if G.neighbor(x2, i) != x1:
        raise ValueError("starting vertices are not an i-edge")
    chain = [x1, x2]
    used = {x1, x2}
    while True:
        nxt = _flat_hop(G, chain[-1], i)
        if nxt is None or nxt in used or G.neighbor(nxt, i - 2) is None:
            return tuple(chain)
        pair = G.neighbor(nxt, i)
        if pair is None or pair in used or G.neighbor(pair, i - 2) is None:
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
    for u in i_package(G, v, j).vertices:
        if G.neighbor(u, j) is None or not is_flat_edge(G, u, j):
            return False
    return True


def psi_target(G: SignedColoredGraph, x: str, i: int) -> tuple[str, ...] | None:
    """Path (x, E_i(x), ..., u) to the first vertex past x's i-edge clear of
    type W one color down; None when the walk dies."""
    w = G.neighbor(x, i)
    if w is None:
        return None
    detour = _w_detour(G, w, i)
    if detour is None:
        return None
    return (x, w, *detour)


def defect_sets(G: SignedColoredGraph, i: int) -> DefectSets:
    W = frozenset(
        v
        for v in G.vertices()
        if has_type_w(G, v, i) and G.neighbor(v, i - 1) != G.neighbor(v, i)
    )
    W0 = frozenset(w for w in W if package_all_flat(G, w, i - 1))
    C: set[str] = set()
    for chain in all_flat_chains(G, i):
        # interior means at least two vertices on each side
        for j in range(2, len(chain) - 2):
            C.add(chain[j])
    C0 = set()
    for x in C:
        path = psi_target(G, x, i)
        if path is None:
            continue
        if all(package_all_flat(G, v, i - 2) for v in path):
            C0.add(x)
    return DefectSets(W, W0, frozenset(C), frozenset(C0))


# ---------------------------------------------------------------------------
# transform eligibility


def eligible_rewirings(G: SignedColoredGraph, i: int, sets: DefectSets):
    """Yield (anchor, kind, H) for each vertex of U_i: the phi anchors of
    W_i0, then the psi anchors of C_i0, each in id order.  H is the rewired
    graph, already checked locally Schur positive.  ``sets`` must be
    ``defect_sets(G, i)``.  Anchors are tried lazily, so a caller that takes
    the first one pays for no others."""
    from .axioms import is_locally_schur_positive
    from .transform import TransformError, _phi, _psi

    for kind, apply, anchors in (("phi", _phi, sets.W0), ("psi", _psi, sets.C0)):
        for v in sorted(anchors):
            try:
                H = apply(G, v, i, 0, sets)
            except TransformError:
                continue
            if is_locally_schur_positive(H).holds:
                yield v, kind, H


def set_U(G: SignedColoredGraph, i: int) -> list[tuple[str, str]]:
    """Vertices of W_i0 / C_i0 whose rewiring keeps the graph locally Schur
    positive, tagged 'phi' or 'psi'."""
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
) -> ComponentView | None:
    """Choose the rewiring pivot inside one component H of the colors-below-
    (i+1) restriction: a minus-signed restricted component of dominance-
    maximal shape, or the overall dominance maximum when every sign is plus.
    """
    H_set = set(H_vertices)
    lower = frozenset(range(2, i))
    pieces, _ = G.refine(H_set, lower)
    slice_graph = G.restrict_full(i)
    labeled: list[tuple[tuple[str, ...], Partition, int]] = []
    for piece in pieces:
        if not H_set.issuperset(piece):
            continue
        ident = identify_component(ComponentView(slice_graph, lower, piece))
        if ident is None:
            raise StructureError(f"restricted component at {piece[0]!r} is not standard")
        labeled.append((piece, ident[0], _component_sign(G, piece, i + 1)))
    minus = [t for t in labeled if t[2] == -1]
    pool = minus if minus else labeled
    for piece, lam, _sign in pool:
        if all(dominance_ge(lam, other) for _, other, _ in pool):
            return ComponentView(G, lower, piece)
    return None


# ---------------------------------------------------------------------------
# the node tree


@dataclass(frozen=True)
class RLCNode:
    index: int
    kind: str  # 'R', 'L', 'C'
    sign: int
    vertices: tuple[str, ...]


@dataclass(frozen=True)
class RLCTree:
    nodes: tuple[RLCNode, ...]
    edges: tuple[tuple[int, int, bool], ...]  # (parent, child, flat)
    root: int

    def describe(self) -> str:
        lines = []
        for node in self.nodes:
            mark = "*" if node.index == self.root else " "
            sign = "+" if node.sign > 0 else "-"
            lines.append(
                f"{mark}node {node.index}: {node.kind}{sign} {{{', '.join(node.vertices)}}}"
            )
        for a, b, flat in self.edges:
            lines.append(f" edge {a} -> {b} [{'flat' if flat else 'non-flat'}]")
        return "\n".join(lines)


class RLCTreeError(StructureError):
    pass


def _left_type_b(G: SignedColoredGraph, v: str, i: int) -> bool:
    """Type B with the double edge at the vertex itself."""
    u = G.neighbor(v, i - 2)
    return (
        G.neighbor(v, i) is not None
        and u is not None
        and u == G.neighbor(v, i - 1)
    )


def _right_type_b(G: SignedColoredGraph, v: str, i: int) -> bool:
    """Type B with the double edge one step across the i-2-edge."""
    u = G.neighbor(v, i - 2)
    if G.neighbor(v, i) is None or u is None:
        return False
    w = G.neighbor(u, i - 1)
    return w is not None and w == G.neighbor(u, i)


_L_SIGNS = {"+-++": 1, "-+--": -1}
_R_SIGNS = {"-++-": 1, "+--+": -1}
_C_SIGNS = {"++--": 1, "--++": -1}


def _window(G: SignedColoredGraph, v: str, i: int) -> str:
    return sig_str(G.sigma[v][i - 4 : i])


def build_rlc_tree(G: SignedColoredGraph, comp: ComponentView, i: int) -> RLCTree:
    """Label the two-color pieces of a stuck three-color component and orient
    its i-edges away from the unique rooted double edge.

    Raises RLCTreeError when the structure deviates from the rooted-tree shape
    (which signals that the hypotheses are not met).
    """
    if i < 4:
        raise ValueError("tree analysis needs i >= 4")
    pieces, node_of = G.refine(comp.vertices, (i - 2, i - 1))

    # root vertex: no i-2-neighbor, double edge in colors i-1 and i
    roots = [
        v
        for v in comp.vertices
        if G.neighbor(v, i - 2) is None
        and G.neighbor(v, i - 1) is not None
        and G.neighbor(v, i - 1) == G.neighbor(v, i)
    ]
    if not roots:
        raise RLCTreeError("no rooted double edge found")
    root_node = node_of[roots[0]]

    nodes: list[RLCNode] = []
    for idx, piece in enumerate(pieces):
        kinds = set()
        for v in piece:
            if has_type_w(G, v, i):
                kinds.add("W")
            if _left_type_b(G, v, i):
                kinds.add("LB")
            if _right_type_b(G, v, i):
                kinds.add("RB")
            if G.neighbor(v, i) is not None and i_type(G, v, i) == "C":
                kinds.add("C")
        sign = 0
        if "RB" in kinds or "W" in kinds:
            kind = "R"
            for v in piece:
                if _right_type_b(G, v, i):
                    sign = _R_SIGNS.get(_window(G, v, i), 0)
                    break
        elif "LB" in kinds:
            kind = "L"
            for v in piece:
                if _left_type_b(G, v, i):
                    sign = _L_SIGNS.get(_window(G, G.neighbor(v, i - 2), i), 0)
                    break
        elif "C" in kinds:
            kind = "C"
            for v in piece:
                if G.neighbor(v, i - 2) is None and G.neighbor(v, i) is None:
                    sign = _C_SIGNS.get(_window(G, v, i), 0)
                    break
        else:
            raise RLCTreeError(f"piece at {piece[0]!r} carries no recognized type")
        if sign == 0:
            raise RLCTreeError(f"piece at {piece[0]!r} has no recognizable sign")
        nodes.append(RLCNode(idx, kind, sign, piece))

    # orient i-edges away from the root
    adjacency: dict[int, list[tuple[int, str, str]]] = {k: [] for k in range(len(pieces))}
    loop_count = 0
    for u, w in G.matching(i).items():
        if u < w and u in node_of and w in node_of:
            a, b = node_of[u], node_of[w]
            if a == b:
                if a != root_node:
                    raise RLCTreeError(f"internal i-edge loop away from root at {u!r}")
                loop_count += 1
                continue
            adjacency[a].append((b, u, w))
            adjacency[b].append((a, w, u))
    if loop_count != 1:
        raise RLCTreeError(f"expected exactly one root loop, found {loop_count}")

    edges: list[tuple[int, int, bool]] = []
    visited = {root_node}
    stack = [root_node]
    while stack:
        a = stack.pop()
        for b, u, _w in adjacency[a]:
            if b in visited:
                continue
            visited.add(b)
            edges.append((a, b, is_flat_edge(G, u, i)))
            stack.append(b)
    if len(visited) != len(pieces):
        raise RLCTreeError("node graph is not connected")
    if len(edges) != len(pieces) - 1:
        raise RLCTreeError("node graph has a cycle")
    tree = RLCTree(tuple(nodes), tuple(edges), root_node)

    outgoing: dict[int, list[bool]] = {k: [] for k in range(len(pieces))}
    for a, b, flat in edges:
        outgoing[a].append(flat)
    for node in nodes:
        outs = outgoing[node.index]
        if node.kind == "L" and outs:
            raise RLCTreeError(f"L-node {node.index} is not a leaf")
        if node.kind == "C" and outs != [True]:
            raise RLCTreeError(f"C-node {node.index} lacks its single flat exit")
        if node.kind == "R":
            want = sorted([True]) if node.index == root_node else sorted([True, False])
            if sorted(outs) != want:
                raise RLCTreeError(f"R-node {node.index} has exits {outs}")
    return tree


def rlc_balance(tree: RLCTree) -> bool:
    """Count balance satisfied by locally Schur positive components."""
    tally = {("C", 1): 0, ("C", -1): 0, ("L", 1): 0, ("L", -1): 0, ("R", 1): 0, ("R", -1): 0}
    for node in tree.nodes:
        tally[(node.kind, node.sign)] += 1
    return (
        tally[("C", 1)] == tally[("C", -1)]
        and tally[("L", 1)] == tally[("R", 1)]
        and tally[("L", -1)] == tally[("R", -1)]
    )
