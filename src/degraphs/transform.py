"""Edge-rewiring involutions and the orchestrator that turns a locally Schur
positive graph into a dual equivalence graph one color at a time.

All four maps replace a single color class and leave vertices, signatures,
and every other color untouched, so the quasisymmetric generating function is
preserved exactly.  Each application is validated structurally (the new color
class must again be a matching on the same vertex support) and the orchestrator
additionally verifies local Schur positivity after every committed step,
aborting with a diagnostic rather than certifying a dubious graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .axioms import check_axiom, is_locally_schur_positive
from .graph import (
    ComponentView,
    SignedColoredGraph,
    _field,
    count_component_isomorphisms,
    i_package,
    package_colors,
    package_positions,
    seeded_isomorphism,
)
from .standard import identify_component
from .structure import (
    StructureError,
    defect_sets,
    eligible_rewirings,
    extend_nonflat_chain,
    has_type_w,
    is_flat_edge,
    negatively_dominant,
    nonflat_chain_through,
    psi_target,
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
    preserving package colors and the signature positions away from i."""
    mapping = seeded_isomorphism(
        G,
        G,
        {a: b},
        colors=package_colors(G, i),
        positions=package_positions(G, i),
    )
    if mapping is None:
        return None
    if set(mapping) != set(i_package(G, a, i).vertices):
        return None
    return mapping


def _rewire(
    G: SignedColoredGraph, i: int, a: str, b: str, through_edge: bool
) -> SignedColoredGraph:
    """Replace the i-matching using the isomorphism of the i-packages of a
    and b, made an involution phi by adding its inverse unless the packages
    overlap.

    ``through_edge`` False pairs v with phi(v) on the packages (the phi/psi
    pattern); True pairs v with the old i-neighbor of phi(v) (the gamma
    pattern).  Off-package edges follow so the result stays a matching.
    """
    phi = package_isomorphism(G, a, b, i)
    if phi is None:
        raise TransformError(f"packages of {a!r} and {b!r} are not isomorphic")
    back = {v: k for k, v in phi.items()}
    if not set(back) & set(phi):
        phi.update(back)
    old = G.matching(i)
    domain = set(phi)
    new: dict[str, str] = {}

    def pair(u: str, w: str, why: str):
        if u == w:
            raise TransformError(f"rewiring would match {u!r} with itself ({why})")
        if new.get(u, w) != w or new.get(w, u) != u:
            raise TransformError(f"rewiring conflict at {u!r}/{w!r} ({why})")
        new[u] = w
        new[w] = u

    for v in sorted(old):
        if v in domain:
            target = phi[v] if not through_edge else old.get(phi[v])
            if target is None:
                raise TransformError(f"no old {i}-edge at image of {v!r}")
            pair(v, target, "package")
        elif old[v] in domain:
            x = old[v]
            target = phi[x] if through_edge else old.get(phi[x])
            if target is None:
                raise TransformError(f"image of {x!r} lacks an old {i}-edge")
            pair(v, target, "beyond package")
        else:
            pair(v, old[v], "unchanged")
    if set(new) != set(old):
        raise TransformError("rewiring changed the matched vertex set")
    return G.with_color_matching(i, new)


# ---------------------------------------------------------------------------
# the four involutions


def phi_partner(G: SignedColoredGraph, w: str, i: int, r: int = 0) -> str:
    """u = E_{i-1}(E_i E_{i-1})^r (w)."""
    u = w
    for _ in range(r):
        nxt = G.neighbor(u, i - 1)
        if nxt is None:
            raise TransformError(f"non-flat chain from {w!r} ends before r={r}")
        u = G.neighbor(nxt, i)
        if u is None:
            raise TransformError(f"non-flat chain from {w!r} ends before r={r}")
    u = G.neighbor(u, i - 1)
    if u is None:
        raise TransformError(f"vertex {w!r} has no {i - 1}-neighbor")
    return u


def _check_anchor(G: SignedColoredGraph, v: str, r: int = 0):
    if v not in G.sigma:
        raise TransformError(f"anchor {v!r} is not a vertex")
    if r < 0:
        raise TransformError(f"variant r={r} is negative")


def apply_phi(G: SignedColoredGraph, w: str, i: int, r: int = 0) -> SignedColoredGraph:
    """Rewire so the overlong non-flat chain through w closes into a double
    edge at w, swapping the i-edges of two isomorphic packages."""
    _check_anchor(G, w, r)
    return _phi(G, w, i, r, defect_sets(G, i))


def _phi(G: SignedColoredGraph, w: str, i: int, r: int, sets) -> SignedColoredGraph:
    """apply_phi given ``sets = defect_sets(G, i)``."""
    if w not in sets.W0:
        if w in sets.W:
            raise TransformError(f"{w!r} is in W_{i} but fails the package filter")
        raise TransformError(f"{w!r} is not in W_{i}")
    u = phi_partner(G, w, i, r)
    if r > 0:
        chain = nonflat_chain_through(G, w, i)
        between = set()
        if w in chain and u in chain:
            a, b = sorted((chain.index(w), chain.index(u)))
            between = set(chain[a : b + 1])
        if not between or not between <= (sets.W0 | {w, u}):
            raise TransformError(f"long variant r={r} leaves the eligible chain")
    return _rewire(G, i, w, u, through_edge=False)


def apply_psi(G: SignedColoredGraph, x: str, i: int, r: int = 0) -> SignedColoredGraph:
    """Rewire so the overlong flat chain through x shortens, swapping i-edges
    across the i-2-edges at x and at the first clear vertex past E_i(x)."""
    _check_anchor(G, x, r)
    return _psi(G, x, i, r, defect_sets(G, i))


def _psi(G: SignedColoredGraph, x: str, i: int, r: int, sets) -> SignedColoredGraph:
    """apply_psi given ``sets = defect_sets(G, i)``."""
    if x not in sets.C0:
        if x in sets.C:
            raise TransformError(f"{x!r} is in C_{i} but fails the package filter")
        raise TransformError(f"{x!r} is not in C_{i}")
    base = x
    for _ in range(r):
        step = base
        for color in (i, i - 2, i, i - 2):
            step = G.neighbor(step, color)
            if step is None:
                raise TransformError(f"long variant r={r} runs off the chain")
        base = step
        if base not in sets.C0:
            raise TransformError(f"long variant r={r} leaves C0 at {base!r}")
    path = psi_target(G, base, i)
    if path is None:
        raise TransformError(f"no eligible partner past {base!r}")
    u = path[-1]
    a = G.neighbor(x, i - 2)
    b = G.neighbor(u, i - 2)
    if a is None or b is None:
        raise TransformError("chain endpoints lack their lower edges")
    return _rewire(G, i, a, b, through_edge=False)


def gamma_partner(G: SignedColoredGraph, z: str, i: int) -> str:
    """First u = (E_{i-1} E_i)^m (z), m >= 1, sharing z's qualifications."""
    y = z
    visited = {z}
    while True:
        step = G.neighbor(y, i)
        if step is None:
            raise TransformError(f"walk from {z!r} leaves the graph")
        y = G.neighbor(step, i - 1)
        if y is None or y in visited:
            raise TransformError(f"no eligible partner on the walk from {z!r}")
        visited.add(y)
        if (
            G.neighbor(y, i) is not None
            and not has_type_w(G, y, i - 1)
            and G.neighbor(y, i - 2) is not None
            and is_flat_edge(G, y, i - 2)
        ):
            return y


def apply_gamma(G: SignedColoredGraph, z: str, i: int) -> SignedColoredGraph:
    """Exchange the subtrees hanging below z and its partner along the
    non-flat walk, unblocking the other two maps."""
    if G.neighbor(z, i) is None or is_flat_edge(G, z, i):
        raise TransformError(f"{z!r} lacks a non-flat {i}-edge")
    if has_type_w(G, z, i - 1):
        raise TransformError(f"{z!r} has type W one color down")
    if G.neighbor(z, i - 2) is None or not is_flat_edge(G, z, i - 2):
        raise TransformError(f"{z!r} lacks a flat {i - 2}-edge")
    u = gamma_partner(G, z, i)
    return _rewire(G, i, G.neighbor(z, i - 2), G.neighbor(u, i - 2), through_edge=True)


def theta_pivot(G: SignedColoredGraph, i: int, H_vertices) -> ComponentView:
    pivot = negatively_dominant(G, H_vertices, i)
    if pivot is None:
        raise TransformError("no negatively dominant restricted component")
    return pivot


def apply_theta(
    G: SignedColoredGraph, pivot: ComponentView, i: int
) -> SignedColoredGraph:
    """Split an axiom-6 violating component: i-edges between the components
    adjacent to the pivot and their isomorphic copies are swapped so the
    pivot's neighborhood closes up."""
    H = G.component_vertices(pivot.min_vertex(), range(2, i + 1))
    lower = tuple(range(2, i))
    comps, comp_of = G.refine(H, lower)
    pivot_idx = comp_of[pivot.min_vertex()]

    old = G.matching(i)
    adjacent: set[int] = set()
    for u, w in old.items():
        if u in comp_of and comp_of[u] == pivot_idx and w in comp_of:
            if comp_of[w] != pivot_idx:
                adjacent.add(comp_of[w])
    if not adjacent:
        raise TransformError("pivot component has no outgoing i-edges")
    ring = set().union(*(comps[k] for k in adjacent))

    # components needing an isomorphism into the ring
    need: set[int] = set()
    for u, w in old.items():
        if u in ring and w in comp_of and comp_of[w] not in adjacent | {pivot_idx}:
            need.add(comp_of[w])
    maps: dict[int, dict[str, str]] = {k: {v: v for v in comps[k]} for k in adjacent}
    positions = range(1, G.N)
    for k in sorted(need):
        source = comps[k]
        found: list[tuple[int, dict[str, str]]] = []
        for t in sorted(adjacent):
            target = comps[t]
            if sorted(G.sigma[v] for v in source) != sorted(G.sigma[v] for v in target):
                continue
            isos = count_component_isomorphisms(
                G, source, G, target, lower, positions, limit=2
            )
            for m in isos:
                found.append((t, m))
        if not found:
            raise TransformError(
                f"component at {source[0]!r} matches nothing adjacent to the pivot"
            )
        targets = {t for t, _ in found}
        if len(targets) > 1:
            raise TransformError(
                f"component at {source[0]!r} matches several adjacent components"
            )
        if len(found) > 1:
            raise TransformError(
                f"component at {source[0]!r} has a non-unique isomorphism"
            )
        maps[k] = found[0][1]

    def mapped(v: str) -> str | None:
        k = comp_of.get(v)
        if k is None or k not in maps:
            return None
        return maps[k].get(v)

    new: dict[str, str] = {}

    def pair(u: str, w: str):
        if u == w or new.get(u, w) != w or new.get(w, u) != u:
            raise TransformError(f"theta rewiring conflict at {u!r}/{w!r}")
        new[u] = w
        new[w] = u

    for v in sorted(old):
        if v in new:
            continue
        w = old[v]
        v_in_ring = v in ring
        w_in_ring = w in ring
        v_in_pivot = comp_of.get(v) == pivot_idx
        w_in_pivot = comp_of.get(w) == pivot_idx
        if v_in_ring and not w_in_ring and not w_in_pivot and mapped(w) is not None:
            pair(v, mapped(w))
        elif w_in_ring and not v_in_ring and not v_in_pivot and mapped(v) is not None:
            img = maps[comp_of[v]][v]
            target = old.get(img)
            if target is None:
                raise TransformError(f"image {img!r} lacks an old {i}-edge")
            pair(v, target)
        else:
            pair(v, w)
    if set(new) != set(old):
        raise TransformError("theta changed the matched vertex set")
    return G.with_color_matching(i, new)


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

    @staticmethod
    def from_dict(d: dict) -> "TransformStep":
        return _parse_step(d, "step")


_STEP_KINDS = ("phi", "psi", "gamma", "theta")


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
    if variant < 0:
        raise LogFormatError(f"{where}: field 'variant' must not be negative, got {variant}")
    return TransformStep(kind, color, anchor, variant)


@dataclass
class TransformLog:
    steps: list[TransformStep] = field(default_factory=list)
    checkpoints: list[str] = field(default_factory=list)
    policy: str = "default"
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
        checkpoints = []
        if "checkpoints" in doc:
            checkpoints = _field(doc, "checkpoints", list, "log", LogFormatError)
        log = TransformLog(
            steps=[_parse_step(d, f"log step {k}") for k, d in enumerate(steps)],
            checkpoints=list(checkpoints),
            policy=doc.get("policy", "default"),
            aborted=doc.get("aborted", False),
            diagnostic=doc.get("diagnostic"),
        )
        return log


def apply_step(G: SignedColoredGraph, step: TransformStep) -> SignedColoredGraph:
    _check_anchor(G, step.anchor, step.variant)
    if step.kind == "phi":
        return apply_phi(G, step.anchor, step.color, step.variant)
    if step.kind == "psi":
        return apply_psi(G, step.anchor, step.color, step.variant)
    if step.kind == "gamma":
        return apply_gamma(G, step.anchor, step.color)
    if step.kind == "theta":
        pivot = G.component_of(step.anchor, range(2, step.color))
        return apply_theta(G, pivot, step.color)
    raise ValueError(f"unknown step kind {step.kind!r}")


def replay(G: SignedColoredGraph, log: TransformLog) -> SignedColoredGraph:
    for step in log.steps:
        G = apply_step(G, step)
    return G


# ---------------------------------------------------------------------------
# orchestration


@dataclass(frozen=True)
class Policy:
    """Selection rules: colors ascending, phi before psi, least anchor id,
    longest strictly-shrinking variant preferred.  ``name`` is recorded in
    the step log."""

    name: str = "default"


def _long_r(G: SignedColoredGraph, w: str, i: int, W0) -> int:
    """Largest r for the long rewiring anchored at w: the chain grown ahead
    of w's own edge must stay inside the eligible set."""
    u0 = G.neighbor(w, i)
    if u0 is None:
        return 0
    chain = [u0, w] + extend_nonflat_chain(G, w, i, {u0, w})
    if len(chain) < 6 or not set(chain[1:-1]) <= W0:
        return 0
    return (len(chain) - 4) // 2


def _try_step(G: SignedColoredGraph, step: TransformStep):
    try:
        H = apply_step(G, step)
    except TransformError:
        return None
    if not is_locally_schur_positive(H).holds:
        return None
    return H


class PipelineAbort(Exception):
    def __init__(self, message: str, graph: SignedColoredGraph, component=None):
        super().__init__(message)
        self.graph = graph
        self.component = component


def _defect_step(G, i, sets):
    """The step committed at the first vertex of U_i, with its result and the
    result's defect sets; None when U_i is empty.

    The long phi variant is taken when it strictly shrinks W_i and keeps
    local Schur positivity; otherwise the short rewiring, already checked by
    the search, is committed as it is.
    """
    first = next(eligible_rewirings(G, i, sets), None)
    if first is None:
        return None
    anchor, kind, H = first
    if kind == "phi":
        r = _long_r(G, anchor, i, sets.W0)
        if r > 0:
            try:
                L = _phi(G, anchor, i, r, sets)
            except TransformError:
                L = None
            if L is not None:
                L_sets = defect_sets(L, i)
                if L_sets.W < sets.W and is_locally_schur_positive(L).holds:
                    return TransformStep("phi", i, anchor, r), L, L_sets
    return TransformStep(kind, i, anchor, 0), H, defect_sets(H, i)


def _resolve_defects(G, i, log, budget) -> SignedColoredGraph:
    """Drain W_i and C_i, interposing gamma when nothing is eligible."""
    # every step here rewires color i only, so the i-matching identifies a
    # graph state
    seen_matchings: set[frozenset] = set()
    sets = defect_sets(G, i)
    while not sets.all_empty():
        if budget[0] <= 0:
            raise PipelineAbort(f"step budget exhausted at color {i}", G)
        found = _defect_step(G, i, sets)
        if found is not None:
            step, G, sets = found
            log.record(
                step,
                f"defect step at color {i}; |W|={len(sets.W)} "
                f"|C|={len(sets.C)}; locally Schur positive",
            )
            budget[0] -= 1
            continue
        # nothing eligible: try gamma to grow the eligible set
        gamma_done = False
        for z in G.vertices():
            if G.neighbor(z, i) is None or G.neighbor(z, i - 2) is None:
                continue
            if is_flat_edge(G, z, i) or has_type_w(G, z, i - 1):
                continue
            if not is_flat_edge(G, z, i - 2):
                continue
            step = TransformStep("gamma", i, z)
            try:
                H = apply_gamma(G, z, i)
            except TransformError:
                continue
            key = frozenset(H.matching(i).items())
            if key in seen_matchings or not is_locally_schur_positive(H).holds:
                continue
            seen_matchings.add(key)
            log.record(step, f"gamma unblocking at color {i}; locally Schur positive")
            G = H
            sets = defect_sets(G, i)
            budget[0] -= 1
            gamma_done = True
            break
        if not gamma_done:
            bad = min(sets.W | sets.C)
            comp = G.component_of(bad, (i - 2, i - 1, i) if i >= 4 else (i - 1, i))
            raise PipelineAbort(
                f"color {i}: defects remain but no eligible rewiring preserves "
                "local Schur positivity",
                G,
                comp,
            )
    return G


def _resolve_axiom6(G, i, log, budget) -> SignedColoredGraph:
    """Split covers at color i until the restriction satisfies axiom 6,
    repairing any defects the splits create one and two colors up."""
    while True:
        report = check_axiom(G.restrict(i + 1), 6)
        if report.holds:
            return G
        if budget[0] <= 0:
            raise PipelineAbort(f"step budget exhausted during splits at color {i}", G)
        at_i = [w for w in report.witnesses if w[0] == i]
        if not at_i:
            raise PipelineAbort(
                f"axiom 6 fails below color {i}: {report.witnesses[:2]}", G
            )
        witness = at_i[0]
        H_comp = G.component_of(witness[1], range(2, i + 1))
        before_w = defect_sets(G, i + 1).W if i + 1 < G.n else frozenset()
        before_c = defect_sets(G, i + 2).C if i + 2 < G.n else frozenset()
        try:
            pivot = theta_pivot(G, i, H_comp.vertices)
            H = apply_theta(G, pivot, i)
        except (TransformError, StructureError) as e:
            raise PipelineAbort(f"color {i}: split failed: {e}", G, H_comp) from None
        step = TransformStep("theta", i, pivot.min_vertex())
        log.record(step, f"cover split at color {i}")
        G = H
        budget[0] -= 1
        # repair freshly created defects one and two colors up
        for color, kind, before in (
            (i + 1, "phi", before_w),
            (i + 2, "psi", before_c),
        ):
            if color >= G.n:
                continue
            while True:
                sets = defect_sets(G, color)
                fresh = sorted((sets.W if kind == "phi" else sets.C) - before)
                if not fresh:
                    break
                if budget[0] <= 0:
                    raise PipelineAbort(
                        f"step budget exhausted repairing color {color}", G
                    )
                repaired = False
                for anchor in fresh:
                    step = TransformStep(kind, color, anchor)
                    H = _try_step(G, step)
                    if H is not None:
                        log.record(step, f"post-split repair at color {color}")
                        G = H
                        budget[0] -= 1
                        repaired = True
                        break
                if not repaired:
                    raise PipelineAbort(
                        f"color {color}: split left unrepairable defects", G
                    )
        if not is_locally_schur_positive(G).holds:
            raise PipelineAbort(f"color {i}: split broke local Schur positivity", G)


def one_step(
    G: SignedColoredGraph, i: int, policy: Policy | None = None
) -> tuple[SignedColoredGraph, TransformLog]:
    """Make the restriction to colors up to i a dual equivalence graph,
    assuming the restriction one color lower already is one."""
    policy = policy or Policy()
    log = TransformLog(policy=policy.name)
    budget = [4 * len(G.sigma) * max(G.n, 2)]
    try:
        G = _resolve_defects(G, i, log, budget)
        G = _resolve_axiom6(G, i, log, budget)
    except PipelineAbort as e:
        log.aborted = True
        log.diagnostic = str(e)
        log.failure_graph = e.component.subgraph() if e.component else e.graph
        return e.graph, log
    return G, log


@dataclass
class PipelineResult:
    graph: SignedColoredGraph
    log: TransformLog
    expansion: SchurExpansion | None
    certified: bool
    components: list[tuple[tuple, str]] | None = None


def full_pipeline(
    G: SignedColoredGraph, policy: Policy | None = None, stop_at: int | None = None
) -> PipelineResult:
    """Run the per-color step for every color in ascending order and certify
    the result by the axiom checkers plus component identification."""
    policy = policy or Policy()
    log = TransformLog(policy=policy.name)
    for k in (1, 2, 3, 5):
        rep = check_axiom(G, k)
        if not rep.holds:
            log.aborted = True
            log.diagnostic = f"input fails axiom {k}: {rep.witnesses[:3]}"
            log.failure_graph = G
            return PipelineResult(G, log, None, False)
    last = stop_at if stop_at is not None else G.n - 1
    for i in range(2, last + 1):
        G, step_log = one_step(G, i, policy)
        log.steps.extend(step_log.steps)
        log.checkpoints.extend(step_log.checkpoints)
        if step_log.aborted:
            log.aborted = True
            log.diagnostic = step_log.diagnostic
            log.failure_graph = step_log.failure_graph
            return PipelineResult(G, log, None, False)
    if stop_at is not None and stop_at < G.n - 1:
        return PipelineResult(G, log, None, False)
    certified = all(check_axiom(G, k).holds for k in range(1, 7))
    expansion = expand_in_schur(G.generating_function())
    components = None
    if G.n == G.N:
        components = []
        for comp in G.components(G.colors()):
            ident = identify_component(comp)
            components.append(
                (ident[0] if ident else None, comp.min_vertex())
            )
        certified = certified and all(lam is not None for lam, _ in components)
    if not certified:
        log.diagnostic = log.diagnostic or "result failed final certification"
    return PipelineResult(G, log, expansion, certified, components)
