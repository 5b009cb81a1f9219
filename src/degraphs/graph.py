"""Signed colored graphs: vertices carrying sign vectors plus one partial
matching per edge color.

A graph of type (n, N) has colors i with 1 < i < n and signatures of length
N - 1.  It is stored by vertex position: ``G.ids`` lists the vertex ids in
sorted order, so that positions order as ids do, and ``G.pos`` maps each id
back to its position.  ``G.pbits[p]`` is the signature of position p as one
integer (``signature_bits``), ``G.partner[i][p]`` the position of p's
i-partner, -1 for none, which makes the matching requirement structural,
and ``G.edge_order[i]`` the lesser end of each i-edge in first-insertion
order, the order in which ``edge_triples`` and the writers list edges.
Graphs are immutable; a derived graph (one color class replaced, or colors
cut off) shares ids, positions, signatures and every list it keeps.  Ids
appear only in public arguments and results and in serialization.
"""

from __future__ import annotations

import json
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote

from .combinatorics import Signature, sig_from_str, sig_str
from .symfunc import QSym


class GraphFormatError(ValueError):
    pass


class SignedColoredGraph:
    # _lsp_base records what is known about local Schur positivity: None when
    # nothing is, True once this graph passed the check, otherwise the nearest
    # graph that passed and this one derives from by with_color_matching
    # (same vertices and signatures, some color classes replaced)
    __slots__ = ("n", "N", "sigma", "stats", "_lsp_base", "ids", "pos", "pbits", "partner", "edge_order")

    def __init__(
        self,
        n: int,
        N: int,
        sigma: dict[str, Signature],
        edges,
        stats: dict[str, int] | None = None,
    ):
        """edges: iterable of (color, u, v) triples."""
        if not 1 <= n <= N:
            raise GraphFormatError(f"need 1 <= n <= N, got ({n},{N})")
        self.n = n
        self.N = N
        self.sigma = {v: tuple(s) for v, s in sigma.items()}
        bits = {}
        for v, s in self.sigma.items():
            if type(v) is not str:
                raise GraphFormatError(f"vertex {v!r}: id must be a string")
            if len(s) != N - 1:
                raise GraphFormatError(
                    f"vertex {v!r}: signature length {len(s)} != N-1 = {N - 1}"
                )
            try:
                bits[v] = signature_bits(s)
            except (ValueError, TypeError):  # an unhashable entry is not +-1 either
                raise GraphFormatError(f"vertex {v!r}: signature entries must be +-1") from None
        self.ids = tuple(sorted(bits))
        self.pos = dict(zip(self.ids, range(len(self.ids))))
        self.pbits = list(map(bits.__getitem__, self.ids))
        self.partner = {c: [-1] * len(self.ids) for c in range(2, n)}
        self.edge_order = {c: [] for c in range(2, n)}
        _insert_edges(self.partner, self.edge_order, n, self.pos, edges)
        self.stats = dict(stats) if stats else None
        self._lsp_base: SignedColoredGraph | bool | None = None

    def _derive(self, n: int, partner: dict, edge_order: dict) -> "SignedColoredGraph":
        """A graph of type (n, N) with these partner lists and write orders,
        sharing this graph's signatures, statistics and positions (graphs
        are never mutated)."""
        H = SignedColoredGraph.__new__(SignedColoredGraph)
        H.n, H.N, H.sigma, H.stats = n, self.N, self.sigma, self.stats
        H.ids, H.pos, H.pbits = self.ids, self.pos, self.pbits
        H.partner, H.edge_order = partner, edge_order
        H._lsp_base = None
        return H

    def position(self, v: str) -> int:
        """The position of vertex ``v``; a KeyError naming ``v`` when it is
        not a vertex."""
        p = self.pos.get(v)
        if p is None:
            raise KeyError(f"{v!r} is not a vertex")
        return p

    # -- basic queries ------------------------------------------------------

    def vertices(self) -> tuple[str, ...]:
        return self.ids

    def colors(self) -> tuple[int, ...]:
        return tuple(range(2, self.n))

    def neighbor(self, v: str, i: int) -> str | None:
        a, p = self.partner.get(i), self.pos.get(v)
        return None if a is None or p is None or a[p] < 0 else self.ids[a[p]]

    def matching(self, i: int) -> dict[str, str]:
        """The i-partner of each i-matched vertex, edge by edge in write
        order, the lesser end first."""
        ids, a, m = self.ids, self.partner.get(i), {}
        for p in self.edge_order.get(i, ()):
            u, w = ids[p], ids[a[p]]
            m[u] = w
            m[w] = u
        return m

    def edge_triples(self) -> list[tuple[int, str, str]]:
        """Each edge (color, lesser end, greater end), by color, then in
        write order."""
        ids = self.ids
        return [
            (c, ids[p], ids[a[p]]) for c, a in self.partner.items() for p in self.edge_order[c]
        ]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SignedColoredGraph)
            and self.n == other.n
            and self.N == other.N
            and self.sigma == other.sigma
            and self.partner == other.partner
            and self.stats == other.stats
        )

    def __repr__(self) -> str:
        return (
            f"SignedColoredGraph(type=({self.n},{self.N}), "
            f"|V|={len(self.sigma)}, |E|={sum(map(len, self.edge_order.values()))})"
        )

    # -- derived graphs -----------------------------------------------------

    def with_color_matching(self, i: int, matching: dict[str, str]) -> "SignedColoredGraph":
        """New graph with color class i replaced.  Only the new class is
        validated, as the constructor validates edges, and it must be an
        involution; every other color's list is shared with this graph."""
        a, order = [-1] * len(self.ids), []
        _insert_map({i: a}, {i: order}, self.n, self.pos, i, matching)
        return self._with_partner(i, a, order)

    def _with_partner(self, i: int, a: list[int], order: list[int]) -> "SignedColoredGraph":
        """New graph with color i's partner list ``a`` and write order
        ``order``, taken as they are; the verified ancestor carries over."""
        partner, edge_order = dict(self.partner), dict(self.edge_order)
        if i in partner:
            partner[i], edge_order[i] = a, order
        H = self._derive(self.n, partner, edge_order)
        H._lsp_base = self if self._lsp_base is True else self._lsp_base
        return H

    def restrict(self, m: int) -> "SignedColoredGraph":
        """(m, N)-restriction: keep colors below m, signatures intact; the
        kept partner lists are shared with this graph."""
        if not 2 <= m <= self.n:
            raise ValueError(f"restriction bound {m} outside 2..{self.n}")
        return self._derive(
            m,
            {c: a for c, a in self.partner.items() if c < m},
            {c: o for c, o in self.edge_order.items() if c < m},
        )

    def subgraph(self, vertices) -> "SignedColoredGraph":
        """The induced subgraph; a KeyError names an id that is not a vertex."""
        keep = {self.ids[p] for p in map(self.position, vertices)}
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
        """Each component under ``colors`` that holds a position of
        ``starts``, once, as a list of positions beginning at the first
        start it holds; with ``starts`` ascending, that is the component's
        least vertex."""
        lists = [self.partner[c] for c in colors if c in self.partner]
        seen = bytearray(len(self.ids) + 1)
        seen[-1] = 1  # what partner -1 reads: never walked to
        for v in starts:
            if seen[v]:
                continue
            seen[v] = 1
            comp = [v]
            for u in comp:
                for a in lists:
                    w = a[u]
                    if not seen[w]:
                        seen[w] = 1
                        comp.append(w)
            yield comp

    def _id_tuple(self, positions) -> tuple[str, ...]:
        """The ids of the positions, as a sorted tuple."""
        ids = self.ids
        return tuple([ids[p] for p in sorted(positions)])

    def component_vertices(self, start: str, colors) -> tuple[str, ...]:
        """The component of ``start`` under ``colors``, as its sorted vertex
        tuple."""
        return self._id_tuple(next(self._walk((self.position(start),), colors)))

    def components(self, colors) -> list[tuple[str, ...]]:
        """Each component under ``colors`` as its sorted vertex tuple, in
        least-vertex order."""
        return [self._id_tuple(comp) for comp in self._walk(range(len(self.ids)), colors)]

    # -- generating functions -------------------------------------------------

    def generating_function(self, vertices=None) -> QSym:
        if vertices is None:
            vertices = self.vertices()
        return QSym.from_signatures(self.N, map(self.sigma.__getitem__, vertices))

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
        _known_fields(doc, ("n", "N", "vertices", "edges"), "top level")
        # an entry failing a type or length test goes through _field and
        # _known_fields, which raise naming the field (a duplicate id first)
        sigma, stats = {}, {}
        for k, entry in enumerate(vertices):
            if not (type(entry) is dict and type(entry.get("id")) is str
                    and type(entry.get("sigma")) is str and len(entry) == 2 + ("stat" in entry)):
                if _field(entry, "id", str, f"vertex entry {k}") not in sigma:
                    _field(entry, "sigma", str, f"vertex entry {k}")
                _known_fields(entry, ("id", "sigma", "stat"), f"vertex entry {k}")
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
                    and type(entry.get("u")) is str and type(entry.get("v")) is str
                    and len(entry) == 3):
                for key, kind in (("color", int), ("u", str), ("v", str)):
                    _field(entry, key, kind, f"edge entry {k}")
                _known_fields(entry, ("color", "u", "v"), f"edge entry {k}")
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


def _insert_edges(partner, edge_order, n: int, pos, triples) -> None:
    """Add (color, u, w) edges to the partner lists ``partner`` (vertex
    positions ``pos``), each new edge's lesser end to ``edge_order``,
    rejecting a color outside 1 < c < n, a loop, an endpoint that is not a
    vertex and a second edge of one color at a vertex."""
    for c, u, w in triples:
        if not 1 < c < n:
            raise GraphFormatError(f"edge color {c} outside 1 < i < n = {n}")
        if u == w:
            raise GraphFormatError(f"loop at {u!r} in color {c}")
        pu, pw = pos.get(u), pos.get(w)
        if pu is None or pw is None:
            raise GraphFormatError(f"edge endpoint {(u if pu is None else w)!r} not a vertex")
        a = partner[c]
        if -1 != a[pu] != pw or -1 != a[pw] != pu:
            raise GraphFormatError(f"color {c} is not a matching at {u!r}/{w!r}")
        if a[pu] < 0:
            a[pu], a[pw] = pw, pu
            edge_order[c].append(pu if pu < pw else pw)


def _insert_map(partner, edge_order, n: int, pos, c: int, m: dict) -> None:
    """Add color c's partner map ``{u: w}`` by its pairs u <= w, as
    ``_insert_edges`` adds edges, and reject a map that is not an involution
    (a vertex whose partner does not have it as partner)."""
    _insert_edges(partner, edge_order, n, pos, ((c, u, w) for u, w in m.items() if u <= w))
    # the pairs u <= w, inserted both ways, give m only if m is one
    bad = next(((u, w) for u, w in m.items() if m.get(w) != u), None)
    if bad is not None:
        u, w = bad
        back = "has no partner" if w not in m else f"is matched to {m[w]!r}"
        raise GraphFormatError(f"color {c}: {u!r} is matched to {w!r}, but {w!r} {back}")


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


def _known_fields(entry: dict, keys, where: str, error: type = GraphFormatError) -> None:
    """Raise ``error`` naming the first key of ``entry`` outside ``keys``."""
    unknown = next((key for key in entry if key not in keys), None)
    if unknown is not None:
        raise error(f"{where}: unknown field {unknown!r}")


def _check_color(G: SignedColoredGraph, i: int, error: type = ValueError) -> None:
    """Raise ``error`` unless i is a color of G, 1 < i < n."""
    if not 1 < i < G.n:
        raise error(f"color {i} outside 1 < i < n = {G.n}")


# ---------------------------------------------------------------------------
# isomorphism search


def _position_mask(positions) -> int:
    """The signature bits of the positions, numbered from 1."""
    return sum(1 << (p - 1) for p in set(positions))


def _list_pairs(G: SignedColoredGraph, H: SignedColoredGraph, colors) -> list:
    """(G's partner list, H's) at each of ``colors``, ascending; a color
    that one graph lacks reads as no edges there."""
    pairs = []
    for c in sorted(set(colors)):
        g, h = G.partner.get(c), H.partner.get(c)
        if g is not None or h is not None:
            pairs.append((g or [-1] * len(G.ids), h or [-1] * len(H.ids)))
    return pairs


def _forced_extension(gbits, hbits, pairs, mask: int, x: int, y: int) -> dict[int, int] | None:
    """Grow a partial map of positions from the seed x -> y across the
    partner lists ``pairs`` (``_list_pairs``); matchings make the image
    forced.  Each pair must agree on the signature bits in ``mask``.  A
    vertex is mapped when first reached and compared when reached again,
    so the map is grown breadth first from the seed."""
    if (gbits[x] ^ hbits[y]) & mask:
        return None
    image, used, queue = {x: y}, {y}, [x]
    for x in queue:
        y = image[x]
        for gm, hm in pairs:
            xn, yn = gm[x], hm[y]
            if xn < 0 or yn < 0:
                if xn != yn:
                    return None
            elif xn in image:
                if image[xn] != yn:
                    return None
            elif yn in used or (gbits[xn] ^ hbits[yn]) & mask:
                return None
            else:
                image[xn] = yn
                used.add(yn)
                queue.append(xn)
    return image


def _id_map(G: SignedColoredGraph, H: SignedColoredGraph, mapping: dict[int, int]) -> dict[str, str]:
    """A map of positions as a map of ids, in the same order."""
    gids, hids = G.ids, H.ids
    return {gids[x]: hids[y] for x, y in mapping.items()}


def seeded_isomorphism(
    G: SignedColoredGraph, H: SignedColoredGraph, a: str, b: str, colors, positions
) -> dict[str, str] | None:
    """The map forced from a -> b that preserves the signature
    ``positions`` and every color of ``colors``; None if propagation fails.

    The map is defined on a's component under ``colors``.
    """
    found = next(anchored_maps(G, G.position(a), H, (H.position(b),), colors, positions), None)
    return None if found is None else _id_map(G, H, found)


def anchored_maps(
    G: SignedColoredGraph, anchor: int, H: SignedColoredGraph, images, colors, positions
):
    """The maps of positions forced from the position ``anchor`` onto each
    position of ``images`` in turn, skipping the images it cannot be sent
    to.  Each map covers the anchor's component under ``colors`` and sends
    it onto a whole component of H; maps forced onto different images
    differ."""
    pairs = _list_pairs(G, H, colors)
    mask = _position_mask(positions)
    for w in images:
        m = _forced_extension(G.pbits, H.pbits, pairs, mask, anchor, w)
        if m is not None:
            yield m


def find_isomorphism(G: SignedColoredGraph, H: SignedColoredGraph) -> dict[str, str] | None:
    """Unseeded isomorphism search over whole graphs.

    Seeds are chosen by signature-class refinement (rarest class first) and
    each component map is forced from its seed, so the search tries only the
    images in its seed's class, bucketed once from H.
    """
    if (G.n, G.N, len(G.ids)) != (H.n, H.N, len(H.ids)):
        return None
    colors, positions = G.colors(), range(1, G.N)
    gkey, hkey = G.pbits, H.pbits
    if sorted(gkey) != sorted(hkey):
        return None
    candidates: dict[int, list[int]] = {}  # H's positions by key, ascending
    for w, key in enumerate(hkey):
        candidates.setdefault(key, []).append(w)

    # One pass, no backtracking: a forced extension that succeeds covers the
    # anchor's component and maps it onto a whole component of H, so images
    # never overlap, and isomorphic components are interchangeable, so if any
    # isomorphism extends the fits so far, one also extends the first fit.
    mapping: dict[int, int] = {}
    taken: set[int] = set()
    comps = sorted((sorted(c) for c in G._walk(range(len(G.ids)), colors)), key=len)
    for comp in comps:
        classes: dict[int, list[int]] = {}
        for v in comp:
            classes.setdefault(gkey[v], []).append(v)
        sig_key, members = min(classes.items(), key=lambda kv: len(kv[1]))
        images = (w for w in candidates[sig_key] if w not in taken)
        local = next(anchored_maps(G, members[0], H, images, colors, positions), None)
        if local is None:
            return None
        mapping.update(local)
        taken.update(local.values())
    return _id_map(G, H, mapping)


def _package(G: SignedColoredGraph, p: int, i: int) -> list[int]:
    """The positions of the i-package of position p, p first: its component
    under all colors except i-2 .. i+2 (``package_colors``); i must be a
    color."""
    return next(G._walk((p,), package_colors(G, i)))


def package_colors(G: SignedColoredGraph, i: int) -> frozenset[int]:
    return frozenset(c for c in G.colors() if c <= i - 3 or c >= i + 3)


def package_positions(G: SignedColoredGraph, i: int) -> tuple[int, ...]:
    """Signature positions an i-package isomorphism must preserve."""
    return tuple(
        p for p in range(1, G.N) if p <= i - 3 or p >= i + 2
    )
