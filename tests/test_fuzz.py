"""Malformed input at the boundary: mutated graph and log texts.

Each example takes the text of a fixture, of a standard graph G_lam with
n <= 6 or of a fixture run's step log, changes one thing in it and reads it
back.  ``SignedColoredGraph.from_text`` either returns a graph or raises
``GraphFormatError``, and a graph it returns re-reads to an equal graph
with the same text.  ``TransformLog.from_text`` either raises
``LogFormatError`` or returns a log whose fields have the format's types and
whose text re-reads to the same text.  A text either reader accepts holds
only the format's fields.  The command line reads the same texts:
``degraphs check -`` exits 2, with one ``error:`` line, exactly when
``from_text`` rejects the graph, and ``transform G --replay LOG`` exits 0
or 2, never 1.  Every integer a mutation writes is at most 9, so no
mutated graph asks for a large type.
"""

import contextlib
import functools
import io
import json
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from degraphs.cli import main
from degraphs.combinatorics import enumerate_partitions
from degraphs.fixtures import fixture, fixture_names
from degraphs.graph import GraphFormatError, SignedColoredGraph
from degraphs.standard import build_standard_deg
from degraphs.transform import LogFormatError, TransformLog, TransformStep, full_pipeline

GRAPH_FIELDS = {"n", "N", "vertices", "edges"}
VERTEX_FIELDS = {"id", "sigma", "stat"}
EDGE_FIELDS = {"color", "u", "v"}
LOG_FIELDS = {"steps", "checkpoints", "policy", "aborted", "diagnostic"}
STEP_FIELDS = {"kind", "color", "anchor", "variant"}
# names no entry of either format has: near misses and a stray key
UNKNOWN_FIELDS = ("stats", "edge", "varient", "abortd", "w")

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


def unknown_field(draw, doc, lists):
    entry = draw(st.sampled_from(objects(doc, *lists)))
    entry[draw(st.sampled_from(UNKNOWN_FIELDS))] = draw(VALUES)


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
    "unknown field": lambda draw, doc: unknown_field(draw, doc, ("vertices", "edges")),
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
    doc = json.loads(text)
    assert set(doc) <= GRAPH_FIELDS
    assert all(set(entry) <= VERTEX_FIELDS for entry in doc["vertices"])
    assert all(set(entry) <= EDGE_FIELDS for entry in doc["edges"])


def run_cli(argv, stdin=""):
    """``degraphs`` run in-process on ``argv`` with ``stdin`` as standard
    input: the exit code and what it wrote to standard error."""
    err, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, err.getvalue()


def one_error_line(err):
    return err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@settings(max_examples=200, derandomize=True, deadline=None)
@given(mutated_graph_texts())
def test_check_exits_2_exactly_when_the_graph_text_is_rejected(text):
    try:
        SignedColoredGraph.from_text(text)
        rejected = False
    except GraphFormatError:
        rejected = True
    code, err = run_cli(["check", "-"], text)
    if rejected:
        assert code == 2 and one_error_line(err), err
    else:
        assert code in (0, 1), err


def change_checkpoint(draw, doc):
    if notes := doc["checkpoints"]:
        notes[pick(draw, notes)] = draw(VALUES)


LOG_MUTATIONS = {
    "change a checkpoint": change_checkpoint,
    "drop a field": lambda draw, doc: drop_field(draw, doc, ("steps",)),
    "change a type": lambda draw, doc: change_type(draw, doc, ("steps",)),
    "unknown field": lambda draw, doc: unknown_field(draw, doc, ("steps",)),
}


def mutate_log(draw, text):
    doc = json.loads(text)
    LOG_MUTATIONS[draw(st.sampled_from(sorted(LOG_MUTATIONS)))](draw, doc)
    return json.dumps(doc)


@st.composite
def mutated_log_texts(draw):
    return mutate_log(draw, draw(st.sampled_from(log_texts())))


@st.composite
def mutated_fixture_logs(draw):
    """A fixture's name and its run's log text, mutated."""
    k = pick(draw, fixture_names())
    return fixture_names()[k], mutate_log(draw, log_texts()[k])


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
    doc = json.loads(text)
    assert set(doc) <= LOG_FIELDS
    assert all(set(entry) <= STEP_FIELDS for entry in doc["steps"])


def test_replay_of_a_mutated_log_exits_0_or_2(tmp_path):
    """``transform G --replay LOG`` on a fixture and its run's mutated log
    exits 0, or 2 with one ``error:`` line; never 1, and nothing escapes."""
    for name in fixture_names():
        (tmp_path / f"{name}.json").write_text(fixture(name).to_text())
    log = tmp_path / "log.json"
    codes = set()

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(mutated_fixture_logs())
    def replays(case):
        name, text = case
        log.write_text(text)
        code, err = run_cli(["transform", str(tmp_path / f"{name}.json"), "--replay", str(log)])
        assert code == 0 or code == 2 and one_error_line(err), (code, err)
        codes.add(code)

    replays()
    assert codes == {0, 2}


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
