"""Malformed input at the boundary: mutated graph and log texts.

Each example takes the text of a fixture, of a standard graph G_lam with
n <= 6 or of a fixture run's step log, changes one thing in it and reads it
back.  ``SignedColoredGraph.from_text`` either returns a graph or raises
``GraphFormatError``, and a graph it returns re-reads to an equal graph
with the same text.  ``TransformLog.from_text`` either raises
``LogFormatError`` or returns a log whose fields have the format's types and
whose text re-reads to the same text.  Every integer a mutation writes is
at most 9, so no mutated graph asks for a large type.
"""

import functools
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from degraphs.combinatorics import enumerate_partitions
from degraphs.fixtures import fixture, fixture_names
from degraphs.graph import GraphFormatError, SignedColoredGraph
from degraphs.standard import build_standard_deg
from degraphs.transform import LogFormatError, TransformLog, TransformStep, full_pipeline

# one value of each JSON type: int, str, list, bool and null
VALUES = st.one_of(
    st.integers(-2, 9),
    st.text("+-x1 ", max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.booleans(),
    st.none(),
)


@functools.cache
def graph_texts():
    graphs = [fixture(name) for name in fixture_names()]
    graphs += [build_standard_deg(lam) for n in range(1, 7) for lam in enumerate_partitions(n)]
    return tuple(G.to_text() for G in graphs)


@functools.cache
def log_texts():
    return tuple(full_pipeline(fixture(name)).log.to_text() for name in fixture_names())


def pick(draw, items):
    return draw(st.integers(0, len(items) - 1))


def objects(doc, *lists):
    """The document and each entry of the named lists that is an object."""
    return [doc] + [e for key in lists for e in doc[key] if isinstance(e, dict)]


def drop_field(draw, doc, lists):
    entry = draw(st.sampled_from(objects(doc, *lists)))
    if entry:
        del entry[draw(st.sampled_from(sorted(entry)))]


def change_type(draw, doc, lists):
    entry = draw(st.sampled_from(objects(doc, *lists)))
    if entry:
        entry[draw(st.sampled_from(sorted(entry)))] = draw(VALUES)


def duplicate_id(draw, doc):
    vertices = doc["vertices"]
    if len(vertices) > 1:
        k, j = pick(draw, vertices), pick(draw, vertices)
        vertices[k]["id"] = vertices[j if j != k else k - 1]["id"]
    else:
        vertices.append(dict(vertices[0]))


def shorten_signature(draw, doc):
    entry = draw(st.sampled_from(doc["vertices"]))
    entry["sigma"] = entry["sigma"][: draw(st.integers(0, max(len(entry["sigma"]) - 1, 0)))]


def bad_signature_character(draw, doc):
    entry = draw(st.sampled_from(doc["vertices"]))
    s = entry["sigma"]
    k = draw(st.integers(0, len(s)))
    entry["sigma"] = s[:k] + draw(st.sampled_from("x0 *,")) + s[k + 1 :]


def edge_of(draw, doc):
    """One edge entry of the document, or None when it has no edges."""
    edges = doc["edges"]
    return edges[pick(draw, edges)] if edges else None


def out_of_range_color(draw, doc):
    if edge := edge_of(draw, doc):
        edge["color"] = draw(st.sampled_from([-1, 0, 1, doc["n"], doc["n"] + 1]))


def loop(draw, doc):
    if edge := edge_of(draw, doc):
        edge["v"] = edge["u"]


def unknown_endpoint(draw, doc):
    if edge := edge_of(draw, doc):
        edge[draw(st.sampled_from("uv"))] = "zz"


def second_edge_at_a_vertex(draw, doc):
    """One more edge of an edge's color at its end u."""
    if edge := edge_of(draw, doc):
        others = [v["id"] for v in doc["vertices"] if v["id"] not in (edge["u"], edge["v"])]
        if others:
            w = draw(st.sampled_from(others))
            doc["edges"].append({"color": edge["color"], "u": edge["u"], "v": w})


GRAPH_MUTATIONS = {
    "drop a field": lambda draw, doc: drop_field(draw, doc, ("vertices", "edges")),
    "change a type": lambda draw, doc: change_type(draw, doc, ("vertices", "edges")),
    "duplicate an id": duplicate_id,
    "shorten a signature": shorten_signature,
    "bad signature character": bad_signature_character,
    "out-of-range color": out_of_range_color,
    "loop": loop,
    "unknown endpoint": unknown_endpoint,
    "second edge at a vertex": second_edge_at_a_vertex,
}


@st.composite
def mutated_graph_texts(draw):
    doc = json.loads(draw(st.sampled_from(graph_texts())))
    GRAPH_MUTATIONS[draw(st.sampled_from(sorted(GRAPH_MUTATIONS)))](draw, doc)
    return json.dumps(doc, indent=draw(st.sampled_from([None, 2])))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(mutated_graph_texts())
def test_mutated_graph_text_is_read_or_rejected(text):
    try:
        G = SignedColoredGraph.from_text(text)
    except GraphFormatError:
        return
    again = SignedColoredGraph.from_text(G.to_text())
    assert again == G
    assert again.to_text() == G.to_text()


@st.composite
def mutated_log_texts(draw):
    doc = json.loads(draw(st.sampled_from(log_texts())))
    if doc["checkpoints"] and draw(st.booleans()):
        doc["checkpoints"][pick(draw, doc["checkpoints"])] = draw(VALUES)
    elif draw(st.booleans()):
        drop_field(draw, doc, ("steps",))
    else:
        change_type(draw, doc, ("steps",))
    return json.dumps(doc)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(mutated_log_texts())
def test_mutated_log_text_is_read_or_rejected(text):
    try:
        log = TransformLog.from_text(text)
    except LogFormatError:
        return
    assert all(type(step) is TransformStep for step in log.steps)
    assert all(type(note) is str for note in log.checkpoints)
    assert type(log.policy) is str and type(log.aborted) is bool
    assert log.diagnostic is None or type(log.diagnostic) is str
    assert TransformLog.from_text(log.to_text()).to_text() == log.to_text()


def test_every_mutation_is_drawn_and_some_texts_stay_valid():
    """The strategies reach every graph mutation, and both properties see
    texts that are read as well as texts that are rejected."""
    seen = {"graph": set(), "log": set()}

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.sampled_from(sorted(GRAPH_MUTATIONS)), st.data())
    def graphs(kind, data):
        doc = json.loads(data.draw(st.sampled_from(graph_texts())))
        GRAPH_MUTATIONS[kind](data.draw, doc)
        try:
            SignedColoredGraph.from_text(json.dumps(doc))
            seen["graph"].add((kind, "read"))
        except GraphFormatError:
            seen["graph"].add((kind, "rejected"))

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(mutated_log_texts())
    def logs(text):
        try:
            TransformLog.from_text(text)
            seen["log"].add("read")
        except LogFormatError:
            seen["log"].add("rejected")

    graphs()
    logs()
    assert {kind for kind, _ in seen["graph"]} == set(GRAPH_MUTATIONS)
    assert {outcome for _, outcome in seen["graph"]} == {"read", "rejected"}
    assert seen["log"] == {"read", "rejected"}
