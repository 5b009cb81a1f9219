"""Signed colored graphs: vertices carrying sign vectors plus one partial
matching per edge color.

A graph of type (n, N) has colors i with 1 < i < n and signatures of length
N - 1.  Color classes are stored as involutive partner maps, which makes the
matching requirement (no vertex on two same-color edges) structural.  Graphs
are immutable; a derived graph (one color class replaced, or colors cut off)
shares its signatures and unchanged partner maps with the graph it came from.

Each signature is also held as one integer, ``G.bits[v]``, whose bit p is set
where position p + 1 is -1, so that every check comparing signature
positions reads a shift and a mask (``signature_bits``).
"""

from __future__ import annotations

import json
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote

from .combinatorics import Signature, sig_from_str, sig_str
from .symfunc import QSym

Window = tuple[int, int]


class GraphFormatError(ValueError):
    pass


class SignedColoredGraph:
    # _lsp_base records what is known about local Schur positivity: None when
    # nothing is, True once this graph passed the check, otherwise the nearest
    # graph that passed and this one derives from by with_color_matching
    # (same vertices and signatures, some color classes replaced)
    __slots__ = ("n", "N", "sigma", "bits", "_adj", "stats", "_lsp_base")

    def __init__(
        self,
        n: int,
        N: int,
        sigma: dict[str, Signature],
        edges,
        stats: dict[str, int] | None = None,
    ):
        """edges: iterable of (color, u, v) triples or a {color: {u: v}} map."""
        if not 1 <= n <= N:
            raise GraphFormatError(f"need 1 <= n <= N, got ({n},{N})")
        self.n = n
        self.N = N
        self.sigma = {v: tuple(s) for v, s in sigma.items()}
        self.bits = {}
        for v, s in self.sigma.items():
            if type(v) is not str:
                raise GraphFormatError(f"vertex {v!r}: id must be a string")
            if len(s) != N - 1:
                raise GraphFormatError(
                    f"vertex {v!r}: signature length {len(s)} != N-1 = {N - 1}"
                )
            try:
                self.bits[v] = signature_bits(s)
            except (ValueError, TypeError):  # an unhashable entry is not +-1 either
                raise GraphFormatError(f"vertex {v!r}: signature entries must be +-1") from None
        if isinstance(edges, dict):
            self._adj = _insert_maps({}, n, self.sigma, edges)
        else:
            self._adj = _insert_edges({}, n, self.sigma, edges)
        self.stats = dict(stats) if stats else None
        self._lsp_base: SignedColoredGraph | bool | None = None

    def _derive(self, n: int, adj: dict[int, dict[str, str]]) -> "SignedColoredGraph":
        """A graph of type (n, N) with these partner maps, sharing this
        graph's signatures and statistics (graphs are never mutated)."""
        H = SignedColoredGraph.__new__(SignedColoredGraph)
        H.n, H.N, H.sigma, H.bits, H.stats = n, self.N, self.sigma, self.bits, self.stats
        H._adj = adj
        H._lsp_base = None
        return H

    # -- basic queries ------------------------------------------------------

    def vertices(self) -> tuple[str, ...]:
        return tuple(sorted(self.sigma))

    def colors(self) -> tuple[int, ...]:
        return tuple(range(2, self.n))

    def neighbor(self, v: str, i: int) -> str | None:
        return self._adj.get(i, {}).get(v)

    def matching(self, i: int) -> dict[str, str]:
        return dict(self._adj.get(i, {}))

    def _partners(self, i: int) -> dict[str, str]:
        """The i-partner map itself, not a copy; callers must not mutate it."""
        return self._adj.get(i, {})

    def changed_vertices(self, other: "SignedColoredGraph", i: int) -> set[str]:
        """The set of vertices whose i-partner differs between this graph and
        ``other``."""
        mine, theirs = self._adj.get(i, {}), other._adj.get(i, {})
        if mine is theirs or mine == theirs:
            return set()
        return {v for v in mine.keys() | theirs.keys() if mine.get(v) != theirs.get(v)}

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
        """New graph with color class i replaced.  Only the new class is
        validated, as the constructor validates a partner map; every other
        partner map is shared with this graph."""
        adj = {c: m for c, m in self._adj.items() if c != i}
        _insert_maps(adj, self.n, self.sigma, {i: matching})
        H = self._derive(self.n, adj)
        H._lsp_base = self if self._lsp_base is True else self._lsp_base
        return H

    def restrict(self, m: int) -> "SignedColoredGraph":
        """(m, N)-restriction: keep colors below m, signatures intact; the
        kept partner maps are shared with this graph."""
        if not 2 <= m <= self.n:
            raise ValueError(f"restriction bound {m} outside 2..{self.n}")
        return self._derive(m, {c: mp for c, mp in self._adj.items() if c < m})

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

    def _walk(self, starts, colors):
        """Each component under ``colors`` that holds a vertex of ``starts``,
        once, as a list beginning at the first start it holds; with
        ``starts`` in id order, that is the component's least vertex."""
        maps = [self._adj[c] for c in colors if c in self._adj]
        seen: set[str] = set()
        for v in starts:
            if v in seen:
                continue
            seen.add(v)
            comp = [v]
            for u in comp:
                for m in maps:
                    w = m.get(u)
                    if w is not None and w not in seen:
                        seen.add(w)
                        comp.append(w)
            yield comp

    def component_vertices(self, start: str, colors) -> tuple[str, ...]:
        """The component of ``start`` under ``colors``, as its sorted vertex
        tuple."""
        return tuple(sorted(next(self._walk((start,), colors))))

    def components(self, colors) -> list[tuple[str, ...]]:
        """Each component under ``colors`` as its sorted vertex tuple, in
        least-vertex order."""
        return [tuple(sorted(comp)) for comp in self._walk(self.vertices(), colors)]

    def refine(self, vertices, colors) -> tuple[list[tuple[str, ...]], dict[str, int]]:
        """Split a vertex set into its components under ``colors``: the
        pieces in min-vertex order, and each vertex's piece index.

        Pieces are not cut back to ``vertices``; callers pass a component
        of a larger color set, which holds each of its pieces whole.
        """
        pieces = [tuple(sorted(p)) for p in self._walk(sorted(vertices), colors)]
        return pieces, {v: k for k, piece in enumerate(pieces) for v in piece}

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
        """Byte for byte ``json.dumps(doc, indent=2) + "\\n"``, written directly:
        an indent sends ``json.dumps`` to its pure-Python encoder."""
        stats = self.stats or {}
        vertices = [
            f'    {{\n      "id": {_quote(v)},\n      "sigma": "{sig_str(self.sigma[v])}"'
            + (f',\n      "stat": {json.dumps(stats[v])}' if v in stats else "")
            + "\n    }"
            for v in self.vertices()
        ]
        edges = [
            f'    {{\n      "color": {c},\n      "u": {_quote(u)},\n      "v": {_quote(w)}\n    }}'
            for c, u, w in self.edge_triples()
        ]
        head = f'{{\n  "n": {self.n},\n  "N": {self.N},\n  "vertices": {_json_list(vertices)},'
        return head + f'\n  "edges": {_json_list(edges)}\n}}\n'

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
        # an entry failing a type test goes through _field, which raises naming
        # the field (a duplicate id first)
        sigma, stats = {}, {}
        for k, entry in enumerate(vertices):
            if not (type(entry) is dict and type(entry.get("id")) is str
                    and type(entry.get("sigma")) is str):
                if _field(entry, "id", str, f"vertex entry {k}") not in sigma:
                    _field(entry, "sigma", str, f"vertex entry {k}")
            v = entry["id"]
            if v in sigma:
                raise GraphFormatError(f"vertex entry {k}: duplicate vertex id {v!r}")
            try:
                sigma[v] = sig_from_str(entry["sigma"])
            except ValueError as e:
                raise GraphFormatError(f"vertex entry {k}: {e}") from None
            if "stat" in entry:
                stats[v] = _field(entry, "stat", int, f"vertex entry {k}")
        for k, entry in enumerate(edges):
            if not (type(entry) is dict and type(entry.get("color")) is int
                    and type(entry.get("u")) is str and type(entry.get("v")) is str):
                for key, kind in (("color", int), ("u", str), ("v", str)):
                    _field(entry, key, kind, f"edge entry {k}")
        triples = [(entry["color"], entry["u"], entry["v"]) for entry in edges]
        return SignedColoredGraph(n, N, sigma, triples, stats or None)

    def to_dot(self) -> str:
        """Graphviz DOT text.  A label doubles the id's backslashes, so that
        none reads as a label escape such as ``\\n``."""
        lines = ["graph G {"]
        for v in self.vertices():
            label = v.replace("\\", "\\\\") + "\\n" + sig_str(self.sigma[v])
            lines.append(f"  {_dot_quote(v)} [label={_dot_quote(label)}];")
        for c, u, w in self.edge_triples():
            lines.append(f'  {_dot_quote(u)} -- {_dot_quote(w)} [label="{c}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def signature_bits(s: tuple) -> int:
    """The signature as an integer whose bit p is set where position p + 1
    is -1, so that a window's slice is a shift and a mask; raises
    ``ValueError`` for an entry other than +-1.  Cached: a graph has at most
    2^(N-1) distinct signatures, and every graph built from the same
    signatures reads them here."""
    bits = 0
    for p, x in enumerate(s):
        if x == -1:
            bits |= 1 << p
        elif x != 1:
            raise ValueError(f"signature entry {x!r} is not +-1")
    return bits


def _insert_edges(adj: dict[int, dict[str, str]], n: int, sigma, triples) -> dict:
    """Add (color, u, w) edges to the partner maps ``adj``, rejecting a color
    outside 1 < c < n, a loop, an endpoint not in ``sigma`` and a second
    edge of one color at a vertex; returns ``adj``."""
    for c, u, w in triples:
        if not 1 < c < n:
            raise GraphFormatError(f"edge color {c} outside 1 < i < n = {n}")
        if u == w:
            raise GraphFormatError(f"loop at {u!r} in color {c}")
        for x in (u, w):
            if x not in sigma:
                raise GraphFormatError(f"edge endpoint {x!r} not a vertex")
        m = adj.setdefault(c, {})
        if m.get(u, w) != w or m.get(w, u) != u:
            raise GraphFormatError(f"color {c} is not a matching at {u!r}/{w!r}")
        m[u] = w
        m[w] = u
    return adj


def _insert_maps(adj: dict[int, dict[str, str]], n: int, sigma, maps) -> dict:
    """Add the partner maps ``{color: {u: w}}`` to ``adj`` by their pairs
    u <= w, with the checks of ``_insert_edges``, and reject a map that is
    not an involution (a vertex whose partner does not have it as partner);
    returns ``adj``."""
    for c, m in maps.items():
        _insert_edges(adj, n, sigma, ((c, u, w) for u, w in m.items() if u <= w))
        if adj.get(c, {}) != m:
            # the pairs u <= w, inserted both ways, give m only if m is one
            u, w = next((u, w) for u, w in m.items() if m.get(w) != u)
            back = "has no partner" if w not in m else f"is matched to {m[w]!r}"
            raise GraphFormatError(f"color {c}: {u!r} is matched to {w!r}, but {w!r} {back}")
    return adj


def _dot_quote(text: str) -> str:
    """``text`` as a quoted DOT string, its double quotes escaped."""
    return '"' + text.replace('"', '\\"') + '"'


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


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


# ---------------------------------------------------------------------------
# isomorphism search


def _position_mask(positions) -> int:
    """The signature bits of the positions, numbered from 1."""
    return sum(1 << (p - 1) for p in set(positions))


def _forced_extension(
    G: SignedColoredGraph,
    H: SignedColoredGraph,
    seeds: dict[str, str],
    colors,
    positions,
) -> dict[str, str] | None:
    """Grow a partial map across matchings; matchings make the image forced.
    Each pair must agree at ``positions``, tested as one mask on the
    signature bits.  A partner pair whose vertex is already mapped is
    compared when found and not queued; one queued twice before it is
    mapped is compared when popped."""
    maps = [(G._partners(c), H._partners(c)) for c in sorted(set(colors))]
    mask = _position_mask(positions)
    gbits, hbits = G.bits, H.bits
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
        if (gbits[x] ^ hbits[y]) & mask:
            return None
        mapping[x] = y
        used[y] = x
        for gm, hm in maps:
            xn, yn = gm.get(x), hm.get(y)
            if (xn is None) != (yn is None):
                return None
            if xn is not None:
                seen = mapping.get(xn)
                if seen is None:
                    queue.append((xn, yn))
                elif seen != yn:
                    return None
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


def anchored_maps(
    G: SignedColoredGraph, anchor: str, H: SignedColoredGraph, images, colors, positions
):
    """The maps forced from ``anchor`` onto each of ``images`` in turn,
    skipping the images it cannot be sent to.  Each map covers the anchor's
    component under ``colors`` and sends it onto a whole component of H;
    maps forced onto different images differ."""
    for w in images:
        m = _forced_extension(G, H, {anchor: w}, colors, positions)
        if m is not None:
            yield m


def find_isomorphism(
    G: SignedColoredGraph,
    H: SignedColoredGraph,
    colors=None,
    positions=None,
) -> dict[str, str] | None:
    """Unseeded isomorphism search over whole graphs.

    Seeds are chosen by signature-class refinement (rarest class first) and
    each component map is forced from its seed, so the search tries only the
    images in its seed's class, bucketed once from H.
    """
    if colors is None:
        if (G.n, G.N) != (H.n, H.N):
            return None
        colors = set(G.colors())
    if positions is None:
        positions = range(1, min(G.N, H.N))
    colors = sorted(set(colors))
    if len(G.sigma) != len(H.sigma):
        return None

    mask = _position_mask(positions)
    gkey = {v: b & mask for v, b in G.bits.items()}
    hkey = {v: b & mask for v, b in H.bits.items()}
    if sorted(gkey.values()) != sorted(hkey.values()):
        return None
    candidates: dict[int, list[str]] = {}  # H's vertices by key, in id order
    for w in sorted(hkey):
        candidates.setdefault(hkey[w], []).append(w)

    # One pass, no backtracking: a forced extension that succeeds covers the
    # anchor's component and maps it onto a whole component of H, so images
    # never overlap, and isomorphic components are interchangeable, so if any
    # isomorphism extends the fits so far, one also extends the first fit.
    mapping: dict[str, str] = {}
    taken: set[str] = set()
    for comp in sorted(G.components(colors), key=len):
        classes: dict[int, list[str]] = {}
        for v in comp:
            classes.setdefault(gkey[v], []).append(v)
        sig_key, members = min(classes.items(), key=lambda kv: len(kv[1]))
        images = (w for w in candidates[sig_key] if w not in taken)
        local = next(anchored_maps(G, members[0], H, images, colors, positions), None)
        if local is None:
            return None
        mapping.update(local)
        taken.update(local.values())
    return mapping


def i_package(G: SignedColoredGraph, v: str, i: int) -> tuple[str, ...]:
    """Component of v under all colors except i-2 .. i+2."""
    if not 1 < i < G.n:
        raise ValueError(f"color {i} outside 1 < i < n = {G.n}")
    return G.component_vertices(v, package_colors(G, i))


def package_colors(G: SignedColoredGraph, i: int) -> frozenset[int]:
    return frozenset(c for c in G.colors() if c <= i - 3 or c >= i + 3)


def package_positions(G: SignedColoredGraph, i: int) -> tuple[int, ...]:
    """Signature positions an i-package isomorphism must preserve."""
    return tuple(
        p for p in range(1, G.N) if p <= i - 3 or p >= i + 2
    )
