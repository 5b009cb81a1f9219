"""Span recorder for the traced benchmark run.

Spans are recorded from outside the library: each traced function is
replaced by a wrapper in every ``degraphs`` module namespace that holds it
(and methods on ``SignedColoredGraph`` on the class), so calls between
library modules pass through the wrappers as well.  A span has a name, a
start and end (``perf_counter_ns``), a parent span and the id of the input
being processed.  Spans stay in memory until the run ends.  Functions called
too often to keep a span for every call are only counted.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.graph = array("l")
        self.start = array("q")
        self.end = array("q")
        self._open: list[int] = []
        self.graph_id = -1
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.graph.append(self.graph_id)
        self.end.append(0)
        self._open.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._open.pop()

    def __len__(self) -> int:
        return len(self.name)

    def layers(self) -> dict[str, list]:
        """name -> [calls, total ns, self ns].  Self time is a span's duration
        minus the durations of its child spans; on one thread children are
        disjoint and inside their parent, so that is the time they cover."""
        covered = [0] * len(self.name)
        for k, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[k] - self.start[k]
        out: dict[str, list] = {}
        for k, nid in enumerate(self.name):
            dur = self.end[k] - self.start[k]
            row = out.setdefault(self.names[nid], [0, 0, 0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - covered[k]
        return out

    def child_names(self, parent_name: str) -> Counter:
        """How many spans of each name have a span called parent_name as
        their direct parent."""
        pid = self._ids.get(parent_name)
        out: Counter = Counter()
        for k, p in enumerate(self.parent):
            if p >= 0 and self.name[p] == pid:
                out[self.names[self.name[k]]] += 1
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span\tname\tgraph\tparent\tstart_ns\tend_ns\n")
            for k in range(len(self.name)):
                fh.write(
                    f"{k}\t{self.names[self.name[k]]}\t{self.graph[k]}\t"
                    f"{self.parent[k]}\t{self.start[k]}\t{self.end[k]}\n"
                )


def spanned(rec: Recorder, name, fn, on_result=None):
    """Wrap fn in a span.  ``name`` is a string or a function of the call's
    arguments; exceptions are counted under ``<name>.errors`` and re-raised;
    ``on_result(rec, args, result)`` may count what the call returned."""

    def wrapper(*args, **kwargs):
        label = name if isinstance(name, str) else name(args, kwargs)
        idx = rec.open(label)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.counts[label + ".errors"] += 1
            raise
        finally:
            rec.close(idx)
        if on_result is not None:
            on_result(rec, args, result)
        return result

    return wrapper


def counted(rec: Recorder, name: str, fn):
    def wrapper(*args, **kwargs):
        rec.counts[name + ".calls"] += 1
        return fn(*args, **kwargs)

    return wrapper


class _Installation:
    """Rebinds wrappers into the library's namespaces; ``remove`` restores
    the originals."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def function(self, module: str, attr: str, make) -> None:
        """Replace module.attr in every degraphs module that bound it."""
        original = getattr(sys.modules[module], attr)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "degraphs" or mod_name.startswith("degraphs.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def method(self, cls, attr: str, make) -> None:
        raw = cls.__dict__[attr]
        self._undo.append((cls, attr, raw))
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(make(raw.__func__)))
        else:
            setattr(cls, attr, make(raw))

    def remove(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()


# ---------------------------------------------------------------------------
# what the traced run wraps


def _on_pipeline(rec, args, res):
    rec.counts["transform.committed_steps"] += len(res.log.steps)


def _on_replay(rec, args, res):
    rec.counts["transform.committed_steps"] += len(args[1].steps)


def _on_set_u(rec, args, res):
    rec.counts["structure.set_U.eligible"] += len(res)


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def install(rec: Recorder) -> _Installation:
    """Wrap the public functions of each library module; returns the
    installation, whose ``remove`` puts the originals back."""
    from degraphs.graph import SignedColoredGraph

    inst = _Installation()

    def span(module, attr, name, on_result=None):
        inst.function(module, attr, lambda fn: spanned(rec, name, fn, on_result))

    def count(module, attr, name):
        inst.function(module, attr, lambda fn: counted(rec, name, fn))

    span("degraphs.cli", "main", lambda a, kw: "cli.main." + _arg(a, kw, 0, "argv")[0])
    span("degraphs.transform", "full_pipeline", "transform.full_pipeline", _on_pipeline)
    span("degraphs.transform", "replay", "transform.replay", _on_replay)
    for kind in ("phi", "psi", "gamma", "theta"):
        span("degraphs.transform", f"apply_{kind}", f"transform.apply_{kind}")
    count("degraphs.transform", "apply_step", "transform.apply_step")
    count("degraphs.transform", "package_isomorphism", "transform.package_isomorphism")
    span("degraphs.structure", "set_U", "structure.set_U", _on_set_u)
    count("degraphs.structure", "defect_sets", "structure.defect_sets")
    span(
        "degraphs.axioms",
        "is_locally_schur_positive",
        "axioms.is_locally_schur_positive",
    )
    span("degraphs.axioms", "check_lsp", lambda a, kw: f"axioms.check_lsp.{_arg(a, kw, 1, 'm')}")
    span("degraphs.axioms", "check_axiom", lambda a, kw: f"axioms.check_axiom.{_arg(a, kw, 1, 'k')}")
    span("degraphs.standard", "identify_component", "standard.identify_component")
    span("degraphs.symfunc", "expand_in_schur", "symfunc.expand_in_schur")
    count("degraphs.symfunc", "is_schur_positive", "symfunc.is_schur_positive")
    count("degraphs.combinatorics", "enumerate_partitions", "combinatorics.enumerate_partitions")
    count(
        "degraphs.combinatorics",
        "superstandard_signature",
        "combinatorics.superstandard_signature",
    )
    span("degraphs.graph", "find_isomorphism", "graph.find_isomorphism")
    count("degraphs.graph", "seeded_isomorphism", "graph.seeded_isomorphism")
    for attr, make in (
        ("components", lambda fn: spanned(rec, "graph.components", fn)),
        ("to_text", lambda fn: spanned(rec, "graph.to_text", fn)),
        ("from_text", lambda fn: spanned(rec, "graph.from_text", fn)),
        ("with_color_matching", lambda fn: counted(rec, "graph.with_color_matching", fn)),
    ):
        inst.method(SignedColoredGraph, attr, make)
    return inst


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, names, extra) -> dict[str, tuple[float, str]]:
    """The named per-layer figures of one traced pass, as name -> (value,
    unit).  ``<layer>.calls``, ``.ms`` and ``.self_ms`` come from the spans
    of that layer (calls also from plain counters), ``.errors`` from the
    exceptions counted; ``extra`` supplies figures measured elsewhere.  A layer
    that was never called reads 0."""
    layers = rec.layers()
    under_set_u = rec.child_names("structure.set_U")
    candidates = under_set_u["transform.apply_phi"] + under_set_u["transform.apply_psi"]
    derived = {
        "structure.set_U.candidates": (candidates, "count"),
        "structure.set_U.eligible_ratio": (
            _ratio(rec.counts["structure.set_U.eligible"], candidates), "ratio"),
        # gamma and theta steps are committed without apply_step in the
        # pipeline, so this ratio can exceed 1
        "transform.step_accept_ratio": (
            _ratio(rec.counts["transform.committed_steps"],
                   rec.counts["transform.apply_step.calls"]), "ratio"),
        "trace.spans": (len(rec), "count"),
        **extra,
    }
    out = {}
    for name in names:
        layer, _, field = name.rpartition(".")
        calls, ns, self_ns = layers.get(layer, (rec.counts[name], 0, 0))
        if name in derived:
            out[name] = derived[name]
        elif field == "calls":
            out[name] = (calls, "count")
        elif field == "ms":
            out[name] = (ns / 1e6, "ms")
        elif field == "self_ms":
            out[name] = (self_ns / 1e6, "ms")
        elif field == "errors":
            out[name] = (rec.counts[name], "count")
        else:
            raise KeyError(f"no per-layer figure {name!r}")
    return out
