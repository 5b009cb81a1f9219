"""The library's public surface: every public function and method is used.

Each public module-level function and public method under ``src/degraphs``
must be exported from ``degraphs/__init__`` or referenced by the library,
the benchmarks or the scripts.  References from the tests do not count, so
code that only tests read does not stay public.  A reference is a name, an
attribute, an imported name or a string constant spelling an identifier;
strings count because the benchmark's spans wrap functions by name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "degraphs"

# public names that nothing reads yet, each with why it stays
ALLOWED = {
    "neighbor": "the public query for one vertex's i-partner",
    "restrict": "ROADMAP item 1 gates a color-i step on restrict(i + 1)",
    "tableau_from_id": "ROADMAP item 4's certificate verifier reads tableau ids",
}


def public_definitions():
    """(qualified name, name) of each public module-level function and each
    public method of a module-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = [(None, node)]
            if isinstance(node, ast.ClassDef):
                members = [(node.name, m) for m in node.body]
            for owner, m in members:
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                    yield f"{owner}.{m.name}" if owner else m.name, m.name


def references(paths):
    """Every name, attribute, imported name and identifier string in the
    files."""
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.update(filter(None, (node.name.split(".")[-1], node.asname)))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    found.add(node.value)
    return found


def test_every_public_name_is_used_outside_the_tests():
    """Only the allowed names are unused, and each of them is: an allowed
    name that gains a caller, or goes, leaves the list."""
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "benchmarks").glob("*.py")]
    used = references(paths + [*(ROOT / "scripts").glob("*.py")])
    unused = sorted(q for q, name in public_definitions() if name not in used)
    assert {q.split(".")[-1] for q in unused} == ALLOWED.keys(), unused


def test_the_scan_sees_definitions_and_references():
    defined = {qualified for qualified, _ in public_definitions()}
    assert {"full_pipeline", "SignedColoredGraph.from_text", "TransformLog.to_text"} <= defined
    assert "_grow" not in defined and "SignedColoredGraph.__eq__" not in defined
    used = references([ROOT / "benchmarks" / "spans.py"])
    assert {"package_isomorphism", "set_U", "with_color_matching"} <= used
