"""Edge-rewiring involutions and the orchestrator that turns a locally Schur
positive graph into a dual equivalence graph one color at a time.

All four maps replace a single color class and leave vertices, signatures,
and every other color untouched, so the quasisymmetric generating function is
preserved exactly.  The maps read the partner lists by vertex position and
build their new color class one way, in ``_rematch``: each i-matched
position is given its new partner, and the result must be a matching on the
same vertices.  The long phi variant and gamma's partner read the non-flat
chain ahead of an i-edge, ``_chain_ahead``; the long psi variant reads the
flat chain grown from the anchor's i-edge.  Anchors are ids, looked up once.

At color i the orchestrator drains the defect sets W_i and C_i, then splits
covers with theta until axiom 6 holds at colors 2..i.  A drain step is the
first candidate whose result is a color-i matching not seen before: the
vertices of U_i (``eligible_rewirings``), a phi anchor taking its long
variant where that shrinks W_i, then gamma at each vertex in id order.  Every
candidate and every split passes one gate, ``_gate`` (the result is locally
Schur positive), before it is committed; when none does, the run aborts with
a diagnostic rather than certifying a dubious graph.  Every step rewires
color i only; defects a split leaves at higher colors are drained when the
pipeline reaches them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .axioms import (
    _axiom6_at,
    _axiom6_sweep,
    axiom_holds,
    check_axiom,
    is_dual_equivalence_graph,
    lsp_holds,
)
from .graph import (
    SignedColoredGraph,
    _check_color,
    _excerpt,
    _field,
    _known_fields,
    anchored_maps,
    package_colors,
    package_positions,
    seeded_isomorphism,
)
from .standard import identify_component
from .structure import (
    DefectSets,
    StructureError,
    _flat,
    _flat_chain,
    _grow,
    _psi_path,
    _type_w,
    defect_sets,
    negatively_dominant,
)
from .symfunc import SchurExpansion, expand_in_schur


class TransformError(ValueError):
    """A rewiring map was invoked outside its domain."""


# ---------------------------------------------------------------------------
# package machinery


def package_isomorphism(
    G: SignedColoredGraph, a: str, b: str, i: int
) -> dict[str, str] | None:
    """Forced isomorphism between the i-packages of a and b seeded by a -> b,
    preserving package colors and the signature positions away from i.  The
    forced extension covers exactly a's i-package, the component of a under
    the package colors."""
    _check_color(G, i)
    return seeded_isomorphism(G, G, a, b, package_colors(G, i), package_positions(G, i))


def _rematch(G: SignedColoredGraph, i: int, target) -> SignedColoredGraph:
    """G with its i-matching rebuilt: each i-matched position v, ascending,
    is paired with ``target(v, E_i(v))``, a position or -1 for none.  Every
    map builds its new matching here; the result must be a matching on the
    same vertices, or the error names the least vertex that breaks it."""
    old = G.partner[i]
    new = [-1] * len(old)
    for v, w in enumerate(old):
        if w >= 0:
            new[v] = t = target(v, w)
            if t < 0:
                raise TransformError(f"rewiring finds no {i}-partner for {G.ids[v]!r}")
    bad = next((v for v, t in enumerate(new) if t >= 0 and (t == v or new[t] != v)), None)
    if bad is not None:
        ids, t = G.ids, new[bad]
        back = f"is paired with {ids[new[t]]!r}" if new[t] >= 0 else "has no partner"
        why = "itself" if t == bad else f"{ids[t]!r}, but {ids[t]!r} {back}"
        raise TransformError(f"rewiring is not a matching: {ids[bad]!r} is paired with {why}")
    return G._with_partner(i, new, [v for v, t in enumerate(new) if v < t])


def _rewire(
    G: SignedColoredGraph, i: int, a: int, b: int, through_edge: bool
) -> SignedColoredGraph:
    """Replace the i-matching using the isomorphism of the i-packages of the
    positions a and b, made an involution phi by adding its inverse unless
    the packages overlap.

    ``through_edge`` False pairs v with phi(v) on the packages (the phi/psi
    pattern); True pairs v with the old i-neighbor of phi(v) (the gamma
    pattern).  Off-package edges follow so the result stays a matching.
    """
    ids, pos = G.ids, G.pos
    found = package_isomorphism(G, ids[a], ids[b], i)
    if found is None:
        raise TransformError(f"packages of {ids[a]!r} and {ids[b]!r} are not isomorphic")
    phi = {pos[x]: pos[y] for x, y in found.items()}
    back = {v: k for k, v in phi.items()}
    if not back.keys() & phi.keys():
        phi.update(back)
    old = G.partner[i]

    def target(v: int, w: int) -> int:
        if v in phi:
            return old[phi[v]] if through_edge else phi[v]
        if w in phi:
            return phi[w] if through_edge else old[phi[w]]
        return w

    return _rematch(G, i, target)


# ---------------------------------------------------------------------------
# the four involutions


def _check_anchor(G: SignedColoredGraph, v: str, i: int, r: int = 0):
    """Reject a color outside 1 < i < n, an anchor that is not a vertex and
    a negative variant, in that order: every map and every replayed step
    is checked here first."""
    _check_color(G, i, TransformError)
    if v not in G.pos:
        raise TransformError(f"anchor {v!r} is not a vertex")
    if r < 0:
        raise TransformError(f"variant r={r} is negative")


def _chain_ahead(G: SignedColoredGraph, w: int, i: int) -> list[int]:
    """The non-flat chain grown ahead of position w's own i-edge:
    E_{i-1}(w), E_i E_{i-1}(w), ..., stopping before a vertex met already.
    Gamma's partner is an even entry.  The long phi variant r pairs w with
    entry 2r, u = E_{i-1}(E_i E_{i-1})^r (w), and needs the entries before
    it in W_i0, so a walk that wraps round a cyclic chain never gets that
    far."""
    return _grow(G, w, i, {w, G.partner[i][w]})


def apply_phi(G: SignedColoredGraph, w: str, i: int, r: int = 0) -> SignedColoredGraph:
    """Rewire so the overlong non-flat chain through w closes into a double
    edge at w, swapping the i-edges of two isomorphic packages."""
    _check_anchor(G, w, i, r)
    return _phi(G, w, i, r, defect_sets(G, i))


def _phi(G: SignedColoredGraph, w: str, i: int, r: int, sets) -> SignedColoredGraph:
    """apply_phi given ``sets = defect_sets(G, i)``."""
    if w not in sets.W0:
        if w in sets.W:
            raise TransformError(f"{w!r} is in W_{i} but fails the package filter")
        raise TransformError(f"{w!r} is not in W_{i}")
    p = G.pos[w]
    if r == 0:
        u = G.partner[i - 1][p]  # w has type W, so the edge exists
    else:
        ahead = _chain_ahead(G, p, i)
        if len(ahead) <= 2 * r or not {G.ids[v] for v in ahead[: 2 * r]} <= sets.W0:
            raise TransformError(f"long variant r={r} leaves the eligible chain")
        u = ahead[2 * r]
    return _rewire(G, i, p, u, through_edge=False)


def apply_psi(G: SignedColoredGraph, x: str, i: int, r: int = 0) -> SignedColoredGraph:
    """Rewire so the overlong flat chain through x shortens, swapping i-edges
    across the i-2-edges at x and at the first clear vertex past E_i(x)."""
    _check_anchor(G, x, i, r)
    return _psi(G, x, i, r, defect_sets(G, i))


def _psi(G: SignedColoredGraph, x: str, i: int, r: int, sets) -> SignedColoredGraph:
    """apply_psi given ``sets = defect_sets(G, i)``.  The long variant r
    starts from entry 4r of the flat chain grown from (x, E_i(x)), with
    entries 4, 8, ..., 4r in C_i0."""
    if x not in sets.C0:
        if x in sets.C:
            raise TransformError(f"{x!r} is in C_{i} but fails the package filter")
        raise TransformError(f"{x!r} is not in C_{i}")
    base = p = G.pos[x]
    if r:
        chain = _flat_chain(G, p, G.partner[i][p], i)
        for k in range(4, 4 * r + 1, 4):
            if len(chain) <= k:
                raise TransformError(f"long variant r={r} runs off the chain")
            base = chain[k]
            if G.ids[base] not in sets.C0:
                raise TransformError(f"long variant r={r} leaves C0 at {G.ids[base]!r}")
    path = _psi_path(G, base, i)
    if path is None:
        raise TransformError(f"no eligible partner past {G.ids[base]!r}")
    low = G.partner[i - 2]
    a, b = low[p], low[path[-1]]
    if a < 0 or b < 0:
        raise TransformError("chain endpoints lack their lower edges")
    return _rewire(G, i, a, b, through_edge=False)


def _gate(H: SignedColoredGraph) -> bool:
    """Whether the pipeline may commit a step whose result is H: H must be
    locally Schur positive.  Every candidate of the search and every split
    passes this one check before it is committed.  A rejection stops at
    the first check that fails (``lsp_holds``)."""
    return lsp_holds(H)


def eligible_rewirings(G: SignedColoredGraph, i: int, sets: DefectSets):
    """Yield (anchor, kind, H) for each vertex of U_i: the phi anchors of
    W_i0, then the psi anchors of C_i0, each in id order.  H is the rewired
    graph, already through the gate.  ``sets`` must be
    ``defect_sets(G, i)``.  Anchors are tried lazily, so a caller that takes
    the first one pays for no others."""
    for kind, apply, anchors in (("phi", _phi, sets.W0), ("psi", _psi, sets.C0)):
        for v in sorted(anchors):
            try:
                H = apply(G, v, i, 0, sets)
            except TransformError:
                continue
            if _gate(H):
                yield v, kind, H


def _gamma_partner(G: SignedColoredGraph, z: int, i: int) -> int:
    """First u = (E_{i-1} E_i)^m (z), m >= 1, sharing the qualifications of
    position z: the first such even entry of the non-flat chain grown ahead
    of z's i-edge, as a position."""
    w, low = G.partner[i][z] if i in G.partner else -1, G.partner.get(i - 2)
    ahead = _chain_ahead(G, w, i) if w >= 0 and low is not None else []
    for y in ahead[::2]:
        if not _type_w(G, y, i - 1) and low[y] >= 0 and _flat(G, y, i - 2):
            return y
    raise TransformError(f"no eligible partner on the walk from {G.ids[z]!r}")


def apply_gamma(G: SignedColoredGraph, z: str, i: int) -> SignedColoredGraph:
    """Exchange the subtrees hanging below z and its partner along the
    non-flat walk, unblocking the other two maps."""
    _check_anchor(G, z, i)
    p, low = G.pos[z], G.partner.get(i - 2)
    if G.partner[i][p] < 0 or _flat(G, p, i):
        raise TransformError(f"{z!r} lacks a non-flat {i}-edge")
    if _type_w(G, p, i - 1):
        raise TransformError(f"{z!r} has type W one color down")
    if low is None or low[p] < 0 or not _flat(G, p, i - 2):
        raise TransformError(f"{z!r} lacks a flat {i - 2}-edge")
    u = _gamma_partner(G, p, i)
    return _rewire(G, i, low[p], low[u], through_edge=True)


def apply_theta(G: SignedColoredGraph, pivot: str, i: int) -> SignedColoredGraph:
    """Split an axiom-6 violating component: i-edges between the components
    adjacent to the pivot and their isomorphic copies are swapped so the
    pivot's neighborhood closes up.  The pivot is the component under
    colors 2..i-1 of the vertex ``pivot``, which may be any of its vertices."""
    _check_anchor(G, pivot, i)
    p = G.pos[pivot]
    lower = tuple(range(2, i))
    H = next(G._walk((p,), range(2, i + 1)))
    comps = [sorted(c) for c in G._walk(sorted(H), lower)]
    comp_of = {v: k for k, comp in enumerate(comps) for v in comp}
    pivot_idx = comp_of[p]

    # H is closed under color i, so the i-partner of a vertex of H is in H
    old = G.partner[i]
    adjacent = {comp_of[old[u]] for u in comps[pivot_idx] if old[u] >= 0} - {pivot_idx}
    if not adjacent:
        raise TransformError("pivot component has no outgoing i-edges")
    ring = set().union(*(comps[k] for k in adjacent))

    # each other piece i-joined to the ring ("need") maps onto its unique
    # isomorphic twin adjacent to the pivot; ``image`` holds all those maps
    need = {comp_of[old[u]] for u in ring if old[u] >= 0} - adjacent - {pivot_idx}
    image: dict[int, int] = {}
    bits = G.pbits
    for k in sorted(need):
        anchor = comps[k][0]
        images = [w for t in sorted(adjacent) for w in comps[t] if bits[w] == bits[anchor]]
        found = list(anchored_maps(G, anchor, G, images, lower, range(1, G.N)))
        where = f"component at {G.ids[anchor]!r}"
        if not found:
            raise TransformError(f"{where} matches nothing adjacent to the pivot")
        if len({comp_of[m[anchor]] for m in found}) > 1:
            raise TransformError(f"{where} matches several adjacent components")
        if len(found) > 1:
            raise TransformError(f"{where} has a non-unique isomorphism")
        image.update(found[0])

    def target(v: int, w: int) -> int:
        if v in ring and w in image:
            return image[w]
        if w in ring and v in image:
            return old[image[v]]
        return w

    return _rematch(G, i, target)


# ---------------------------------------------------------------------------
# logging


@dataclass(frozen=True)
class TransformStep:
    kind: str  # 'phi' | 'psi' | 'gamma' | 'theta'
    color: int
    anchor: str
    variant: int = 0

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "color": self.color,
            "anchor": self.anchor,
            "variant": self.variant,
        }


_STEP_KINDS = ("phi", "psi", "gamma", "theta")
_LOG_FIELDS = ("steps", "checkpoints", "policy", "aborted", "diagnostic")


class LogFormatError(ValueError):
    """A step log that cannot be read."""


def _parse_step(entry, where: str) -> TransformStep:
    """A step record checked field by field; ``variant`` may be omitted."""
    kind = _field(entry, "kind", str, where, LogFormatError)
    if kind not in _STEP_KINDS:
        raise LogFormatError(f"{where}: unknown kind {kind!r}")
    color = _field(entry, "color", int, where, LogFormatError)
    anchor = _field(entry, "anchor", str, where, LogFormatError)
    variant = 0
    if "variant" in entry:
        variant = _field(entry, "variant", int, where, LogFormatError)
    if len(entry) != 3 + ("variant" in entry):
        _known_fields(entry, ("kind", "color", "anchor", "variant"), where, LogFormatError)
    if variant < 0:
        raise LogFormatError(f"{where}: field 'variant' must not be negative, got {variant}")
    return TransformStep(kind, color, anchor, variant)


@dataclass
class TransformLog:
    steps: list[TransformStep] = field(default_factory=list)
    checkpoints: list[str] = field(default_factory=list)
    policy: str = "default"  # a field of the log format; the pipeline has one policy
    aborted: bool = False
    diagnostic: str | None = None
    failure_graph: SignedColoredGraph | None = None

    def record(self, step: TransformStep, note: str):
        self.steps.append(step)
        self.checkpoints.append(note)

    def to_text(self) -> str:
        doc = {
            "policy": self.policy,
            "steps": [s.to_dict() for s in self.steps],
            "checkpoints": self.checkpoints,
            "aborted": self.aborted,
            "diagnostic": self.diagnostic,
        }
        return json.dumps(doc, indent=2) + "\n"

    @staticmethod
    def from_text(text: str) -> "TransformLog":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise LogFormatError(f"log is not valid JSON: {e}") from None
        steps = _field(doc, "steps", list, "log", LogFormatError)
        _known_fields(doc, _LOG_FIELDS, "log", LogFormatError)
        for key, kind, what in (  # the optional fields, their JSON types and wording
            ("checkpoints", list, "a list of strings"),
            ("policy", str, "a string"),
            ("aborted", bool, "a boolean"),
            ("diagnostic", (str, type(None)), "a string or null"),
        ):
            value = doc.get(key)
            if key in doc and not (isinstance(value, kind) and (
                    kind is not list or all(type(c) is str for c in value))):
                raise LogFormatError(f"log: field {key!r} must be {what}, got {_excerpt(value)}")
        return TransformLog(
            steps=[_parse_step(d, f"log step {k}") for k, d in enumerate(steps)],
            checkpoints=list(doc.get("checkpoints", [])),
            policy=doc.get("policy", "default"),
            aborted=doc.get("aborted", False),
            diagnostic=doc.get("diagnostic"),
        )


def apply_step(G: SignedColoredGraph, step: TransformStep) -> SignedColoredGraph:
    _check_anchor(G, step.anchor, step.color, step.variant)
    if step.variant and step.kind in ("gamma", "theta"):
        raise TransformError(f"{step.kind} takes no variant, got {step.variant}")
    if step.kind == "phi":
        return apply_phi(G, step.anchor, step.color, step.variant)
    if step.kind == "psi":
        return apply_psi(G, step.anchor, step.color, step.variant)
    if step.kind == "gamma":
        return apply_gamma(G, step.anchor, step.color)
    if step.kind == "theta":
        return apply_theta(G, step.anchor, step.color)
    raise ValueError(f"unknown step kind {step.kind!r}")


def replay(G: SignedColoredGraph, log: TransformLog) -> SignedColoredGraph:
    for k, step in enumerate(log.steps):
        try:
            G = apply_step(G, step)
        except TransformError as e:
            raise TransformError(f"log step {k}: {e}") from None
    return G


# ---------------------------------------------------------------------------
# orchestration


def _long_r(G: SignedColoredGraph, w: str, i: int, W0) -> int:
    """Largest r for the long rewiring anchored at w in W0: the chain ahead
    of w must stay inside W0 up to and including the partner."""
    ahead = _chain_ahead(G, G.pos[w], i)
    if len(ahead) < 4 or not {G.ids[v] for v in ahead[:-1]} <= W0:
        return 0
    return len(ahead) // 2 - 1


class PipelineAbort(Exception):
    """A run that cannot go on: the graph it stopped at and, when the
    failure is local, the sorted vertices of the component at fault."""

    def __init__(
        self, message: str, graph: SignedColoredGraph, component: tuple[str, ...] | None = None
    ):
        super().__init__(message)
        self.graph = graph
        self.component = component


def _state(G: SignedColoredGraph, i: int) -> tuple[int, ...]:
    """The color-i partner list, which identifies a graph state among graphs
    that differ in color i only."""
    return tuple(G.partner[i])


def _next_step(G, i, sets, seen):
    """The step committed next at color i, with its result and the result's
    defect sets; None when no candidate leads to a state not in ``seen``
    through the gate.

    The vertices of U_i come first.  A phi anchor takes its long variant when
    that leads to an unseen state, strictly shrinks W_i and passes the gate;
    otherwise its short rewiring, already through the gate, is committed as
    it is.  Gamma follows, at each vertex in id order.
    """
    for anchor, kind, H in eligible_rewirings(G, i, sets):
        if _state(H, i) in seen:
            continue
        if kind == "phi" and (r := _long_r(G, anchor, i, sets.W0)):
            try:
                L = _phi(G, anchor, i, r, sets)
            except TransformError:
                L = None
            if L is not None and _state(L, i) not in seen:
                L_sets = defect_sets(L, i)
                if L_sets.W < sets.W and _gate(L):
                    return TransformStep("phi", i, anchor, r), L, L_sets
        return TransformStep(kind, i, anchor), H, defect_sets(H, i)
    for z in G.vertices():
        try:
            H = apply_gamma(G, z, i)
        except TransformError:
            continue
        if _state(H, i) not in seen and _gate(H):
            return TransformStep("gamma", i, z), H, defect_sets(H, i)
    return None


def _resolve_defects(G, i, log, limit) -> SignedColoredGraph:
    """Drain W_i and C_i, interposing gamma when nothing is eligible, while
    the log holds fewer than ``limit`` steps.

    Every step here rewires color i only, so the i-matching identifies a
    graph state, and no step returns to a state seen before.
    """
    seen = {_state(G, i)}
    sets = defect_sets(G, i)
    while not sets.all_empty():
        if len(log.steps) >= limit:
            raise PipelineAbort(f"step budget exhausted at color {i}", G)
        found = _next_step(G, i, sets, seen)
        if found is None:
            bad = min(sets.W | sets.C)
            comp = G.component_vertices(bad, (i - 2, i - 1, i) if i >= 4 else (i - 1, i))
            raise PipelineAbort(
                f"color {i}: defects remain but no eligible rewiring preserves "
                "local Schur positivity",
                G,
                comp,
            )
        step, G, sets = found
        seen.add(_state(G, i))
        if step.kind == "gamma":
            note = f"gamma unblocking at color {i}"
        else:
            note = f"defect step at color {i}; |W|={len(sets.W)} |C|={len(sets.C)}"
        log.record(step, f"{note}; locally Schur positive")
    return G


def _resolve_axiom6(G, i, log, limit, piece):
    """Split covers at color i until axiom 6 holds at color i, while the log
    holds fewer than ``limit`` steps; returns the graph and its pieces under
    colors 2..i.

    ``piece`` holds the pieces under colors 2..i-1 (see
    ``axioms._axiom6_at``).  A split rewires color i only, so they stay
    valid and only color i is checked again.  Defects a split leaves at
    higher colors are drained when the pipeline reaches them.
    """
    while True:
        at_i, after = _axiom6_at(G, i, piece)
        if not at_i:
            return G, after
        if len(log.steps) >= limit:
            raise PipelineAbort(f"step budget exhausted during splits at color {i}", G)
        H_comp = G.component_vertices(at_i[0][1], range(2, i + 1))
        try:
            dominant = negatively_dominant(G, H_comp, i)
            if dominant is None:
                raise TransformError("no negatively dominant restricted component")
            pivot = dominant[0]
            H = apply_theta(G, pivot, i)
        except (TransformError, StructureError) as e:
            raise PipelineAbort(f"color {i}: split failed: {e}", G, H_comp) from None
        if not _gate(H):
            raise PipelineAbort(f"color {i}: split broke local Schur positivity", G)
        log.record(TransformStep("theta", i, pivot), f"cover split at color {i}")
        G = H


def one_step(G: SignedColoredGraph, i: int) -> tuple[SignedColoredGraph, TransformLog]:
    """Make the restriction to colors up to i a dual equivalence graph,
    assuming the restriction one color lower already is one.  The step
    aborts, once its splits are done, when axiom 6 fails below color i."""
    _check_color(G, i)
    log = TransformLog()
    below, piece = [], list(range(len(G.ids)))
    for at_i, piece in _axiom6_sweep(G, i):
        below += at_i
    G, piece = _one_step(G, i, piece, log)
    if below and piece is not None:
        log.aborted, log.failure_graph = True, G
        log.diagnostic = f"axiom 6 fails below color {i}: {below[:2]}"
    return G, log


def _one_step(G, i, piece, log):
    """``one_step`` given the pieces under colors 2..i-1, recording into
    ``log``; also returns the pieces under colors 2..i, or None when the
    step aborts.  At most 4 V max(n, 2) steps are logged at this color."""
    limit = len(log.steps) + 4 * len(G.sigma) * max(G.n, 2)
    try:
        G = _resolve_defects(G, i, log, limit)
        return _resolve_axiom6(G, i, log, limit, piece)
    except PipelineAbort as e:
        log.aborted = True
        log.diagnostic = str(e)
        log.failure_graph = e.graph.subgraph(e.component) if e.component else e.graph
        return e.graph, None


@dataclass
class PipelineResult:
    graph: SignedColoredGraph
    log: TransformLog
    expansion: SchurExpansion | None
    certified: bool
    components: list[tuple[tuple, str]] | None = None


def full_pipeline(G: SignedColoredGraph, *, stop_at: int | None = None) -> PipelineResult:
    """Run the per-color step for every color in ascending order and certify
    the result by the axiom checkers plus component identification.

    Axioms 1, 2, 3 and 5 are checked on the input, and a run that goes on
    has them.  Then axioms 4 and 6 are checked on the input, each stopping
    at its first witness.  When both hold the input is a dual equivalence
    graph, and no color of it can take a step: the two-color templates hold
    no vertex of type W, the three-color ones no flat chain of three
    i-edges, and axiom 6 leaves nothing to split.  So the color loop is
    skipped and those checks are the certification.  Otherwise the steps
    replace partner lists only, so the certification re-checks axioms 1, 2,
    3 and 5 only at the colors whose partner list the run changed, and axioms
    4 and 6 on the whole result.  The identification of every component
    runs on the result either way.  ``stop_at``, in 1..n-1, ends the run
    after that color, uncertified unless it is the last."""
    if stop_at is not None and not 1 <= stop_at <= G.n - 1:
        raise ValueError(f"stop_at {stop_at} outside 1 <= stop_at <= n - 1 = {G.n - 1}")
    log = TransformLog()
    original = G
    for k in (1, 2, 3, 5):
        rep = check_axiom(G, k)
        if not rep.holds:
            log.aborted = True
            log.diagnostic = f"input fails axiom {k}: {rep.witnesses[:3]}"
            log.failure_graph = G
            return PipelineResult(G, log, None, False)
    certified = all(axiom_holds(G, k) for k in (4, 6))
    if not certified:
        last = stop_at if stop_at is not None else G.n - 1
        # a step that does not abort leaves axiom 6 holding at colors 2..i,
        # and later steps rewire only higher colors, so its pieces carry over
        piece = list(range(len(G.ids)))
        for i in range(2, last + 1):
            G, piece = _one_step(G, i, piece, log)
            if log.aborted:
                return PipelineResult(G, log, None, False)
    if stop_at is not None and stop_at < G.n - 1:
        return PipelineResult(G, log, None, False)
    certified = certified or is_dual_equivalence_graph(G, original)
    expansion = expand_in_schur(G.generating_function())
    components = None
    if G.n == G.N:
        components = []
        for comp in G.components(G.colors()):
            ident = identify_component(G, comp, G.n)
            components.append((ident[0] if ident else None, comp[0]))
        certified = certified and all(lam is not None for lam, _ in components)
    if not certified:
        log.diagnostic = log.diagnostic or "result failed final certification"
    return PipelineResult(G, log, expansion, certified, components)
