"""Signed colored graphs: vertices carrying sign vectors plus one partial
matching per edge color.

A graph of type (n, N) has colors i with 1 < i < n and signatures of length
N - 1.  Color classes are stored as involutive partner maps, which makes the
matching requirement (no vertex on two same-color edges) structural.  Graphs
are immutable; transformations build new graphs sharing vertex data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .combinatorics import Signature, sig_from_str, sig_str
from .symfunc import QSym

Window = tuple[int, int]


class GraphFormatError(ValueError):
    pass


class SignedColoredGraph:
    __slots__ = ("n", "N", "sigma", "_adj", "stats")

    def __init__(
        self,
        n: int,
        N: int,
        sigma: dict[str, Signature],
        edges,
        stats: dict[str, int] | None = None,
    ):
        """edges: iterable of (color, u, v) triples or a {color: {u: v}} map."""
        if n > N:
            raise GraphFormatError(f"need n <= N, got ({n},{N})")
        self.n = n
        self.N = N
        self.sigma = {v: tuple(s) for v, s in sigma.items()}
        for v, s in self.sigma.items():
            if len(s) != N - 1:
                raise GraphFormatError(
                    f"vertex {v!r}: signature length {len(s)} != N-1 = {N - 1}"
                )
            if any(x not in (1, -1) for x in s):
                raise GraphFormatError(f"vertex {v!r}: signature entries must be +-1")
        adj: dict[int, dict[str, str]] = {}
        if isinstance(edges, dict):
            triples = [
                (c, u, w) for c, m in edges.items() for u, w in m.items() if u < w
            ]
        else:
            triples = list(edges)
        for c, u, w in triples:
            if not 1 < c < n:
                raise GraphFormatError(f"edge color {c} outside 1 < i < n = {n}")
            if u == w:
                raise GraphFormatError(f"loop at {u!r} in color {c}")
            for x in (u, w):
                if x not in self.sigma:
                    raise GraphFormatError(f"edge endpoint {x!r} not a vertex")
            m = adj.setdefault(c, {})
            if m.get(u, w) != w or m.get(w, u) != u:
                raise GraphFormatError(
                    f"color {c} is not a matching at {u!r}/{w!r}"
                )
            m[u] = w
            m[w] = u
        self._adj = adj
        self.stats = dict(stats) if stats else None

    # -- basic queries ------------------------------------------------------

    def vertices(self) -> tuple[str, ...]:
        return tuple(sorted(self.sigma))

    def signature(self, v: str) -> Signature:
        return self.sigma[v]

    def colors(self) -> tuple[int, ...]:
        return tuple(range(2, self.n))

    def neighbor(self, v: str, i: int) -> str | None:
        return self._adj.get(i, {}).get(v)

    def matching(self, i: int) -> dict[str, str]:
        return dict(self._adj.get(i, {}))

    def edge_triples(self) -> list[tuple[int, str, str]]:
        out = []
        for c in sorted(self._adj):
            for u, w in self._adj[c].items():
                if u < w:
                    out.append((c, u, w))
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SignedColoredGraph)
            and self.n == other.n
            and self.N == other.N
            and self.sigma == other.sigma
            and self._adj == other._adj
            and self.stats == other.stats
        )

    def __repr__(self) -> str:
        return (
            f"SignedColoredGraph(type=({self.n},{self.N}), "
            f"|V|={len(self.sigma)}, |E|={len(self.edge_triples())})"
        )

    # -- derived graphs -----------------------------------------------------

    def with_color_matching(self, i: int, matching: dict[str, str]) -> "SignedColoredGraph":
        """New graph with color class i replaced (copy-on-write)."""
        triples = [(c, u, w) for c, u, w in self.edge_triples() if c != i]
        triples += [(i, u, w) for u, w in matching.items() if u < w]
        return SignedColoredGraph(self.n, self.N, self.sigma, triples, self.stats)

    def restrict(self, m: int) -> "SignedColoredGraph":
        """(m, N)-restriction: keep colors below m, signatures intact."""
        if not 2 <= m <= self.n:
            raise ValueError(f"restriction bound {m} outside 2..{self.n}")
        triples = [(c, u, w) for c, u, w in self.edge_triples() if c < m]
        return SignedColoredGraph(m, self.N, self.sigma, triples, self.stats)

    def restrict_full(self, m: int) -> "SignedColoredGraph":
        """(m, m)-restriction: also truncate signatures to length m - 1."""
        if not 2 <= m <= self.n:
            raise ValueError(f"restriction bound {m} outside 2..{self.n}")
        sigma = {v: s[: m - 1] for v, s in self.sigma.items()}
        triples = [(c, u, w) for c, u, w in self.edge_triples() if c < m]
        return SignedColoredGraph(m, m, sigma, triples, self.stats)

    def subgraph(self, vertices) -> "SignedColoredGraph":
        keep = set(vertices)
        sigma = {v: s for v, s in self.sigma.items() if v in keep}
        triples = [
            (c, u, w) for c, u, w in self.edge_triples() if u in keep and w in keep
        ]
        stats = None
        if self.stats:
            stats = {v: x for v, x in self.stats.items() if v in keep}
        return SignedColoredGraph(self.n, self.N, sigma, triples, stats)

    def relabel(self, mapping: dict[str, str]) -> "SignedColoredGraph":
        sigma = {mapping[v]: s for v, s in self.sigma.items()}
        if len(sigma) != len(self.sigma):
            raise ValueError("relabeling is not injective")
        triples = [(c, mapping[u], mapping[w]) for c, u, w in self.edge_triples()]
        stats = {mapping[v]: x for v, x in self.stats.items()} if self.stats else None
        return SignedColoredGraph(self.n, self.N, sigma, triples, stats)

    # -- components ---------------------------------------------------------

    def component_vertices(self, start: str, colors) -> tuple[str, ...]:
        colors = [c for c in colors if c in self._adj]
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for c in colors:
                w = self._adj[c].get(v)
                if w is not None and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return tuple(sorted(seen))

    def components(self, colors) -> list["ComponentView"]:
        colors = frozenset(colors)
        done: set[str] = set()
        out = []
        for v in self.vertices():
            if v in done:
                continue
            comp = self.component_vertices(v, colors)
            done.update(comp)
            out.append(ComponentView(self, colors, comp))
        return out

    def component_of(self, v: str, colors) -> "ComponentView":
        colors = frozenset(colors)
        return ComponentView(self, colors, self.component_vertices(v, colors))

    def refine(self, vertices, colors) -> tuple[list[tuple[str, ...]], dict[str, int]]:
        """Split a vertex set into its components under ``colors``: the
        pieces in min-vertex order, and each vertex's piece index.

        Pieces are not cut back to ``vertices``; callers pass a component
        of a larger color set, which holds each of its pieces whole.
        """
        pieces: list[tuple[str, ...]] = []
        piece_of: dict[str, int] = {}
        for v in sorted(vertices):
            if v not in piece_of:
                piece = self.component_vertices(v, colors)
                piece_of.update(dict.fromkeys(piece, len(pieces)))
                pieces.append(piece)
        return pieces, piece_of

    # -- generating functions -------------------------------------------------

    def full_window(self) -> Window:
        return (1, self.N - 1)

    def generating_function(self, vertices=None, window: Window | None = None) -> QSym:
        if vertices is None:
            vertices = self.vertices()
        lo, hi = window if window is not None else self.full_window()
        if not (1 <= lo and hi <= self.N - 1 and lo <= hi + 1):
            raise ValueError(f"window {lo}..{hi} outside 1..{self.N - 1}")
        degree = hi - lo + 2
        return QSym.from_signatures(
            degree, (self.sigma[v][lo - 1 : hi] for v in vertices)
        )

    # -- serialization --------------------------------------------------------

    def to_text(self) -> str:
        vertices = []
        for v in self.vertices():
            entry = {"id": v, "sigma": sig_str(self.sigma[v])}
            if self.stats and v in self.stats:
                entry["stat"] = self.stats[v]
            vertices.append(entry)
        doc = {
            "n": self.n,
            "N": self.N,
            "vertices": vertices,
            "edges": [
                {"color": c, "u": u, "v": w} for c, u, w in self.edge_triples()
            ],
        }
        return json.dumps(doc, indent=2) + "\n"

    @staticmethod
    def from_text(text: str) -> "SignedColoredGraph":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise GraphFormatError(f"not valid JSON: {e}") from None
        n = _field(doc, "n", int, "top level")
        N = _field(doc, "N", int, "top level")
        vertices = _field(doc, "vertices", list, "top level")
        edges = _field(doc, "edges", list, "top level")
        sigma = {}
        stats = {}
        for k, entry in enumerate(vertices):
            where = f"vertex entry {k}"
            v = _field(entry, "id", str, where)
            if v in sigma:
                raise GraphFormatError(f"{where}: duplicate vertex id {v!r}")
            sig_text = _field(entry, "sigma", str, where)
            try:
                sigma[v] = sig_from_str(sig_text)
            except ValueError as e:
                raise GraphFormatError(f"{where}: {e}") from None
            if "stat" in entry:
                stats[v] = _field(entry, "stat", int, where)
        triples = []
        for k, entry in enumerate(edges):
            where = f"edge entry {k}"
            triples.append(
                (
                    _field(entry, "color", int, where),
                    _field(entry, "u", str, where),
                    _field(entry, "v", str, where),
                )
            )
        return SignedColoredGraph(n, N, sigma, triples, stats or None)

    def to_dot(self) -> str:
        lines = ["graph G {"]
        for v in self.vertices():
            label = f"{v}\\n{sig_str(self.sigma[v])}"
            lines.append(f'  "{v}" [label="{label}"];')
        for c, u, w in self.edge_triples():
            lines.append(f'  "{u}" -- "{w}" [label="{c}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


_KIND_NAMES = {int: "an integer", str: "a string", list: "a list"}


def _excerpt(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _field(entry, key: str, kind: type, where: str, error: type = GraphFormatError):
    """entry[key] from a parsed JSON object, checked to be of type ``kind``
    (a JSON boolean is not an integer); ``error`` is raised otherwise."""
    if not isinstance(entry, dict):
        raise error(f"{where}: expected a JSON object, got {_excerpt(entry)}")
    if key not in entry:
        raise error(f"{where}: missing field {key!r}")
    value = entry[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise error(
            f"{where}: field {key!r} must be {_KIND_NAMES[kind]}, got {_excerpt(value)}"
        )
    return value


@dataclass(frozen=True)
class ComponentView:
    """A connected component of a graph under a chosen color subset."""

    graph: SignedColoredGraph
    colors: frozenset[int]
    vertices: tuple[str, ...]

    def min_vertex(self) -> str:
        return self.vertices[0]

    def size(self) -> int:
        return len(self.vertices)

    def generating_function(self, window: Window | None = None) -> QSym:
        return self.graph.generating_function(self.vertices, window)

    def subgraph(self) -> SignedColoredGraph:
        return self.graph.subgraph(self.vertices)

    def signature_multiset(self, window: Window | None = None):
        lo, hi = window if window is not None else self.graph.full_window()
        return sorted(self.graph.sigma[v][lo - 1 : hi] for v in self.vertices)


# ---------------------------------------------------------------------------
# isomorphism search


def _forced_extension(
    G: SignedColoredGraph,
    H: SignedColoredGraph,
    seeds: dict[str, str],
    colors,
    positions,
) -> dict[str, str] | None:
    """Grow a partial map across matchings; matchings make the image forced."""
    colors = sorted(set(colors))
    positions = sorted(set(positions))
    mapping: dict[str, str] = {}
    used: dict[str, str] = {}
    queue: list[tuple[str, str]] = list(seeds.items())
    while queue:
        x, y = queue.pop()
        if x in mapping:
            if mapping[x] != y:
                return None
            continue
        if used.get(y, x) != x:
            return None
        for p in positions:
            if G.sigma[x][p - 1] != H.sigma[y][p - 1]:
                return None
        mapping[x] = y
        used[y] = x
        for c in colors:
            xn = G.neighbor(x, c)
            yn = H.neighbor(y, c)
            if (xn is None) != (yn is None):
                return None
            if xn is not None:
                queue.append((xn, yn))
    return mapping


def seeded_isomorphism(
    G: SignedColoredGraph,
    H: SignedColoredGraph,
    seeds: list[tuple[str, str]] | dict[str, str],
    colors=None,
    positions=None,
) -> dict[str, str] | None:
    """Bijection extending the seeds, preserving the stated signature
    positions and every listed color; None if propagation fails.

    The map is defined on the union of the seed components (color-connected).
    """
    if colors is None:
        colors = set(G.colors()) | set(H.colors())
    if positions is None:
        positions = range(1, min(G.N, H.N))
    return _forced_extension(G, H, dict(seeds), colors, positions)


def find_isomorphism(
    G: SignedColoredGraph,
    H: SignedColoredGraph,
    colors=None,
    positions=None,
) -> dict[str, str] | None:
    """Unseeded isomorphism search over whole graphs.

    Seeds are chosen by signature-class refinement (rarest class first) and
    each component map is forced from its seed, so the search is effectively
    a product of small candidate scans.
    """
    if colors is None:
        if (G.n, G.N) != (H.n, H.N):
            return None
        colors = set(G.colors())
    if positions is None:
        positions = range(1, min(G.N, H.N))
    colors = sorted(set(colors))
    positions = sorted(set(positions))
    if len(G.sigma) != len(H.sigma):
        return None

    def key(graph, v):
        return tuple(graph.sigma[v][p - 1] for p in positions)

    if sorted(key(G, v) for v in G.sigma) != sorted(key(H, v) for v in H.sigma):
        return None

    comps = G.components(colors)
    comps.sort(key=lambda c: c.size())
    mapping: dict[str, str] = {}
    taken: set[str] = set()

    def place(k: int) -> bool:
        if k == len(comps):
            return True
        comp = comps[k]
        classes: dict[tuple, list[str]] = {}
        for v in comp.vertices:
            classes.setdefault(key(G, v), []).append(v)
        sig_key, members = min(classes.items(), key=lambda kv: len(kv[1]))
        anchor = members[0]
        for w in H.vertices():
            if w in taken or key(H, w) != sig_key:
                continue
            local = _forced_extension(G, H, {anchor: w}, colors, positions)
            if local is None:
                continue
            if set(local) != set(comp.vertices):
                continue
            if any(img in taken for img in local.values()):
                continue
            mapping.update(local)
            taken.update(local.values())
            if place(k + 1):
                return True
            for x in local:
                del mapping[x]
            taken.difference_update(local.values())
        return False

    if not place(0):
        return None
    return mapping


def count_component_isomorphisms(
    G: SignedColoredGraph,
    gverts,
    H: SignedColoredGraph,
    hverts,
    colors,
    positions,
    limit: int = 2,
) -> list[dict[str, str]]:
    """All isomorphisms between two connected pieces, up to ``limit`` found."""
    gverts = tuple(sorted(gverts))
    hverts = set(hverts)
    if len(gverts) != len(hverts):
        return []
    anchor = gverts[0]
    found = []
    for w in sorted(hverts):
        m = _forced_extension(G, H, {anchor: w}, colors, positions)
        if m is None or set(m) != set(gverts) or set(m.values()) != hverts:
            continue
        if m not in found:
            found.append(m)
            if len(found) >= limit:
                break
    return found


def i_package(G: SignedColoredGraph, v: str, i: int) -> ComponentView:
    """Component of v under all colors except i-2 .. i+2."""
    if not 1 < i < G.n:
        raise ValueError(f"color {i} outside 1 < i < n = {G.n}")
    return G.component_of(v, package_colors(G, i))


def package_colors(G: SignedColoredGraph, i: int) -> frozenset[int]:
    return frozenset(c for c in G.colors() if c <= i - 3 or c >= i + 3)


def package_positions(G: SignedColoredGraph, i: int) -> tuple[int, ...]:
    """Signature positions an i-package isomorphism must preserve."""
    return tuple(
        p for p in range(1, G.N) if p <= i - 3 or p >= i + 2
    )
