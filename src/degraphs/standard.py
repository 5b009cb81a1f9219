"""Standard and augmented dual equivalence graphs, and identification of
components against them.

The standard graph on shape lam has the SYT of that shape as vertices,
descent signatures as signs, and an i-edge wherever the elementary dual
equivalence move for i acts nontrivially.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from operator import mul

from .combinatorics import (
    Partition,
    Tableau,
    check_partition,
    count_syt,
    enumerate_partitions,
    enumerate_syt,
    is_standard,
    tableau_moves,
)
from .graph import SignedColoredGraph, _id_map, anchored_maps


@lru_cache(maxsize=None)
def _standard_graph(lam: Partition) -> SignedColoredGraph:
    """G_lam, built once per process and shared: callers only read it.  It
    is the graph augmented by nothing."""
    return build_augmented_deg(AugmentingTableau(lam, lam, ()))


def build_standard_deg(lam: Partition) -> SignedColoredGraph:
    """The graph G_lam of type (n, n) on SYT(lam).  Each caller gets its own
    unmarked graph sharing the built one's lists and signatures."""
    G = _standard_graph(lam)
    return G._derive(G.n, G.partner, G.edge_order)


@dataclass(frozen=True)
class AugmentingTableau:
    """Standard filling of the cells of outer/inner by n+1 .. N, given as
    (cell, value) pairs in any order and stored sorted.

    Cells are (row, col) pairs, rows counted from the bottom starting at 0.
    It is checked when made: placed on the first SYT of inner, the filling
    must give a standard tableau of shape outer, with one pair per cell.
    """

    outer: Partition
    inner: Partition
    filling: tuple[tuple[tuple[int, int], int], ...]

    def __post_init__(self):
        outer, inner = check_partition(self.outer), check_partition(self.inner)
        filling = tuple(sorted(self.filling))
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "filling", filling)
        try:
            t = self.embed(enumerate_syt(inner)[0])
            ok = tuple(map(len, t)) == outer and is_standard(t)
        except KeyError:  # a cell of outer/inner left empty
            ok = False
        if not ok or len(filling) != sum(outer) - sum(inner):
            raise ValueError(f"{filling} is not a standard filling of {outer}/{inner}")

    def embed(self, t: Tableau) -> Tableau:
        """The tableau t of shape inner with the cells of outer/inner filled."""
        fixed = dict(self.filling)
        rows = [list(r) for r in t] + [[] for _ in range(len(self.outer) - len(t))]
        for r in range(len(self.outer)):
            for c in range(len(rows[r]), self.outer[r]):
                rows[r].append(fixed[(r, c)])
        return tuple(tuple(r) for r in rows)


def single_cell_augmentation(lam: Partition, row: int) -> AugmentingTableau:
    """Augment lam by one cell holding n+1 at the end of the given row."""
    lam = check_partition(lam)
    n = sum(lam)
    rows = list(lam) + [0]
    if not 0 <= row <= len(lam) or (row > 0 and rows[row] >= rows[row - 1]):
        raise ValueError(f"cannot add a cell in row {row} of {lam}")
    rows[row] += 1
    outer = tuple(p for p in rows if p)
    return AugmentingTableau(outer, lam, (((row, rows[row] - 1), n + 1),))


def build_augmented_deg(aug: AugmentingTableau) -> SignedColoredGraph:
    """Graph of type (n, N) on SYT of the outer shape restricting to aug.

    Each tableau, with the cells of aug filled in when it has any, is read
    once by ``tableau_moves`` and keyed by its row word packed into one
    integer, whose digit k in base B, one more than the number of rows, is
    the row of entry k + 1.  Where d_i exchanges i with j, sitting in rows
    r_i and r_j, its image is keyed by that integer plus
    (r_j - r_i)(B^(i-1) - B^(j-1)), one dict lookup.  This is exact for
    i < n: d_i depends only on the order of i-1, i, i+1 in the reading
    word, which the fixed cells keep.  Edges come in ``enumerate_syt``
    order, then by color; ``edge_triples``, ``to_text`` and the
    benchmark's input digests depend on that order.
    """
    lam = aug.inner
    n, N = sum(lam), sum(aug.outer)
    powers = [(len(aug.outer) + 1) ** k for k in range(N)]
    sigma: dict[str, tuple[int, ...]] = {}
    ids: dict[int, str] = {}
    reads = []
    for t in enumerate_syt(lam):
        v, rows, sig, moves = tableau_moves(aug.embed(t) if aug.filling else t)
        code = sum(map(mul, rows, powers))
        sigma[v], ids[code] = sig, v
        reads.append((v, code, rows, moves))
    triples = []
    for v, code, rows, moves in reads:
        for i, j in moves.items():
            if i < n:
                w = ids[code + (rows[j - 1] - rows[i - 1]) * (powers[i - 1] - powers[j - 1])]
                if v < w:
                    triples.append((i, v, w))
    return SignedColoredGraph(n, N, sigma, triples)


@lru_cache(maxsize=None)
def _shapes(n: int) -> tuple[tuple[Partition, int], ...]:
    """Each partition of n with its number of SYT, in ``enumerate_partitions``
    order."""
    return tuple((lam, count_syt(lam)) for lam in enumerate_partitions(n))


@lru_cache(maxsize=None)
def _targets(lam: Partition) -> tuple[tuple[int, ...], dict[int, tuple[int, ...]]]:
    """G_lam's sorted signature bits, and its positions by signature bits,
    ascending.  Built on the first identification that reaches lam, not
    with G_lam."""
    G = _standard_graph(lam)
    by_sig: dict[int, list[int]] = {}
    for p, b in enumerate(G.pbits):
        by_sig.setdefault(b, []).append(p)
    return tuple(sorted(G.pbits)), {b: tuple(ps) for b, ps in by_sig.items()}


def identify_component(
    G: SignedColoredGraph, vertices, m: int
) -> tuple[Partition, dict[str, str]] | None:
    """Match a piece of G against some G_lam with lam a partition of m: the
    piece is read under colors 2..m-1 and at signature positions 1..m-1, so
    a component of the (m, m)-restriction is identified on G itself.

    Candidates are pruned by vertex count and signature multiset, scanned in
    dominance-descending order; the returned map sends the piece's vertices
    to tableau ids of the standard graph, and it is returned only when the
    piece is a whole component under those colors.  The map is forced from
    the least vertex of the piece, tried in id order against the vertices
    of G_lam with its signature: the forced extension rejects any other
    image at its first check, as every position read is preserved.
    """
    if not 1 <= m <= G.n:
        raise ValueError(f"degree {m} outside 1..{G.n}")
    mask = (1 << (m - 1)) - 1
    bits = G.pbits
    members = set(map(G.position, vertices))
    sigs = tuple(sorted(bits[p] & mask for p in members))
    anchor = min(members)
    for lam, count in _shapes(m):
        if count != len(members):
            continue
        target_sigs, by_sig = _targets(lam)
        if target_sigs != sigs:
            continue
        target = _standard_graph(lam)
        images = by_sig[bits[anchor] & mask]
        for found in anchored_maps(G, anchor, target, images, range(2, m), range(1, m)):
            if found.keys() == members:
                return lam, _id_map(G, target, found)
    return None


def standard_automorphisms(lam: Partition) -> int:
    """Number of self-isomorphisms of G_lam found, up to 2: G_lam is
    connected, so each is forced from its least vertex, tried against the
    vertices with that vertex's signature."""
    G = _standard_graph(lam)
    images = _targets(lam)[1][G.pbits[0]]
    maps = anchored_maps(G, 0, G, images, G.colors(), range(1, G.N))
    return sum(1 for _ in islice(maps, 2))
