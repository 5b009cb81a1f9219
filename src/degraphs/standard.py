"""Standard and augmented dual equivalence graphs, and identification of
components against them.

The standard graph on shape lam has the SYT of that shape as vertices,
descent signatures as signs, and an i-edge wherever the elementary dual
equivalence move for i acts nontrivially.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .combinatorics import (
    Partition,
    Tableau,
    check_partition,
    count_syt,
    descent_signature,
    dual_equiv_involution,
    enumerate_partitions,
    enumerate_syt,
    tableau_id,
)
from .graph import (
    ComponentView,
    SignedColoredGraph,
    count_component_isomorphisms,
)


@lru_cache(maxsize=None)
def build_standard_deg(lam: Partition) -> SignedColoredGraph:
    """The graph G_lam of type (n, n) on SYT(lam)."""
    lam = check_partition(lam)
    n = sum(lam)
    tableaux = enumerate_syt(lam)
    sigma = {tableau_id(t): descent_signature(t) for t in tableaux}
    triples = []
    for t in tableaux:
        u = tableau_id(t)
        for i in range(2, n):
            s = dual_equiv_involution(t, i)
            if s != t:
                w = tableau_id(s)
                if u < w:
                    triples.append((i, u, w))
    return SignedColoredGraph(n, n, sigma, triples)


@dataclass(frozen=True)
class AugmentingTableau:
    """Fixed filling of the cells of outer/inner by n+1 .. N.

    Cells are (row, col) pairs, rows counted from the bottom starting at 0.
    """

    outer: Partition
    inner: Partition
    filling: tuple[tuple[tuple[int, int], int], ...]

    @staticmethod
    def from_dict(outer, inner, cells: dict[tuple[int, int], int]) -> "AugmentingTableau":
        return AugmentingTableau(
            check_partition(outer),
            check_partition(inner),
            tuple(sorted(cells.items())),
        )

    def cells(self) -> dict[tuple[int, int], int]:
        return dict(self.filling)

    def validate(self) -> None:
        outer, inner = self.outer, self.inner
        n, N = sum(inner), sum(outer)
        rows_in = list(inner) + [0] * (len(outer) - len(inner))
        if len(inner) > len(outer) or any(
            rows_in[r] > outer[r] for r in range(len(outer))
        ):
            raise ValueError(f"inner {inner} not contained in outer {outer}")
        skew = {
            (r, c)
            for r in range(len(outer))
            for c in range(outer[r])
            if c >= rows_in[r]
        }
        cells = self.cells()
        if set(cells) != skew:
            raise ValueError("filling does not cover exactly the skew cells")
        if sorted(cells.values()) != list(range(n + 1, N + 1)):
            raise ValueError(f"filling values must be {n + 1}..{N}")
        for (r, c), v in cells.items():
            if (r, c + 1) in cells and cells[(r, c + 1)] <= v:
                raise ValueError("filling not increasing along a row")
            if (r + 1, c) in cells and cells[(r + 1, c)] <= v:
                raise ValueError("filling not increasing up a column")


def single_cell_augmentation(lam: Partition, row: int) -> AugmentingTableau:
    """Augment lam by one cell holding n+1 at the end of the given row."""
    lam = check_partition(lam)
    n = sum(lam)
    rows = list(lam) + [0]
    if row > len(lam) or (row > 0 and rows[row] >= rows[row - 1]):
        raise ValueError(f"cannot add a cell in row {row} of {lam}")
    rows[row] += 1
    outer = tuple(p for p in rows if p)
    return AugmentingTableau.from_dict(outer, lam, {(row, rows[row] - 1): n + 1})


def build_augmented_deg(lam: Partition, aug: AugmentingTableau) -> SignedColoredGraph:
    """Graph of type (n, N) on SYT of the outer shape restricting to aug."""
    lam = check_partition(lam)
    if aug.inner != lam:
        raise ValueError(f"augmentation inner shape {aug.inner} != {lam}")
    aug.validate()
    n, N = sum(lam), sum(aug.outer)
    fixed = aug.cells()

    def embed(t: Tableau) -> Tableau:
        rows = [list(r) for r in t] + [[] for _ in range(len(aug.outer) - len(t))]
        for r in range(len(aug.outer)):
            for c in range(len(rows[r]), aug.outer[r]):
                rows[r].append(fixed[(r, c)])
        return tuple(tuple(r) for r in rows)

    sigma: dict[str, tuple[int, ...]] = {}
    ids: dict[Tableau, str] = {}
    for t in enumerate_syt(lam):
        full = embed(t)
        ids[t] = tableau_id(full)
        sigma[ids[t]] = descent_signature(full)
    triples = []
    for t in enumerate_syt(lam):
        for i in range(2, n):
            s = dual_equiv_involution(t, i)
            if s != t and ids[t] < ids[s]:
                triples.append((i, ids[t], ids[s]))
    return SignedColoredGraph(n, N, sigma, triples)


def identify_component(comp: ComponentView) -> tuple[Partition, dict[str, str]] | None:
    """Match a component of a type (n, n) graph against some G_lam.

    Candidates are pruned by vertex count and signature multiset, scanned in
    dominance-descending order; the returned map sends component vertices to
    tableau ids of the standard graph.
    """
    G = comp.graph
    if G.n != G.N:
        raise ValueError("identification requires a type (n, n) graph")
    n = G.n
    size = comp.size()
    sigs = comp.signature_multiset()
    for lam in enumerate_partitions(n):
        if count_syt(lam) != size:
            continue
        target = build_standard_deg(lam)
        if sorted(target.sigma.values()) != sigs:
            continue
        found = count_component_isomorphisms(
            G, comp.vertices, target, target.vertices(), range(2, n), range(1, n), limit=1
        )
        if found:
            return lam, found[0]
    return None


def standard_automorphisms(lam: Partition, limit: int = 2) -> int:
    """Number of self-isomorphisms of G_lam found, up to ``limit``."""
    G = build_standard_deg(lam)
    maps = count_component_isomorphisms(
        G,
        G.vertices(),
        G,
        G.vertices(),
        colors=G.colors(),
        positions=range(1, G.N),
        limit=limit,
    )
    return len(maps)


def rigidity_survey(max_n: int) -> dict[Partition, int]:
    """Automorphism counts of every G_lam for |lam| <= max_n."""
    out: dict[Partition, int] = {}
    for n in range(1, max_n + 1):
        for lam in enumerate_partitions(n):
            out[lam] = standard_automorphisms(lam)
    return out
