"""The library's public surface: every public name is used, and the
exported API is pinned.

Each public module-level function and public method under ``src/degraphs``
must be exported from ``degraphs/__init__`` or referenced by the library,
the benchmarks or the scripts.  Each exported name is listed in
``PUBLIC_API`` with why it is public, and must be read by the library
outside ``__init__``, the benchmarks or the scripts, unless its reason is a
decision to keep it.  References from the tests do not count, so code that
only tests read does not stay public.  A reference is a name, an attribute,
an imported name or a string constant spelling an identifier; strings count
because the benchmark's spans wrap functions by name.
"""

import ast
import types
from pathlib import Path

import degraphs

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "degraphs"
KEPT = "kept: "  # the reason of an exported name that only tests read

# every name ``degraphs`` exports, with why it is public
PUBLIC_API = {
    # signed colored graphs
    "SignedColoredGraph": "the graph type that every checker and map takes",
    "find_isomorphism": "whole-graph isomorphism, the search behind `degraphs iso`",
    "seeded_isomorphism": "the forced extension that package_isomorphism runs",
    # combinatorics
    "Partition": "the shape type of expansions and identifications",
    "Signature": "the sign-vector type of every vertex",
    "Tableau": "the standard Young tableau type of G_lam's vertices",
    "enumerate_partitions": "the shapes of degree n; the benchmark builds G_lam from them",
    "enumerate_syt": "the vertices of G_lam",
    "dominance_ge": "the order that theta's pivot is chosen by",
    "descent_signature": "the single-color signature definition that tableau_moves is "
    "tested against; schur_to_fundamental reads it",
    "dual_equiv_involution": KEPT + "the single-color definition of the dual equivalence "
    "move that tableau_moves is tested against",
    "superstandard_signature": "benchmarks/spans.py wraps it by name (ROADMAP item 11)",
    "sig_from_str": "reads the +- text of a signature",
    "sig_str": "writes the +- text of a signature",
    # quasisymmetric and Schur functions
    "QSym": "generating functions in the fundamental basis; its +, - and scale stay as "
    "the algebra of an exported type, though only tests add",
    "SchurExpansion": "what expand_in_schur returns",
    "expand_in_schur": "the Schur expansion that certification and `degraphs expand` print",
    "is_schur_positive": "the verdict behind LSP",
    "is_single_schur": "the verdict behind LSF",
    "schur_to_fundamental": "s_lam in the fundamental basis",
    # standard graphs
    "AugmentingTableau": "the augmentation that build_augmented_deg takes",
    "build_standard_deg": "G_lam, the standard dual equivalence graphs",
    "build_augmented_deg": "the standard graphs of type (n, N)",
    "identify_component": "names a component's shape; certification reads it",
    "single_cell_augmentation": KEPT + "the one-cell augmentations that ROADMAP item 5 "
    "identifies (n, N) components by",
    # axioms
    "AxiomReport": "what every checker returns",
    "check_axiom": "axioms 1 to 6",
    "check_axiom4a": "the supplementary axiom 4'a, `degraphs fixtures conjecture-4prime`",
    "check_axiom4b": "the supplementary axiom 4'b, `degraphs fixtures conjecture-4prime`",
    "check_lsf": "local Schur multiplicity-freeness",
    "check_lsp": "local Schur positivity of one degree",
    "classify_small_component": "the small-degree classification the fixtures verify",
    "is_dual_equivalence_graph": "the certification's axiom check",
    "is_locally_schur_positive": "the hypothesis of the maps, as a report",
    # defect sets
    "DefectSets": "what defect_sets returns",
    "defect_sets": "W_i, W_i0, C_i and C_i0, `degraphs analyze`",
    "i_type": "a vertex's type at color i, `degraphs analyze`",
    "negatively_dominant": "theta's pivot component",
    "set_U": "U_i, `degraphs analyze`",
    # transformations
    "TransformError": "a map called outside its domain",
    "TransformLog": "the step log that replay reads; its policy field stays for the log pins",
    "TransformStep": "one logged step",
    "apply_phi": "the map phi",
    "apply_psi": "the map psi",
    "apply_gamma": "the map gamma",
    "apply_theta": "the map theta",
    "eligible_rewirings": "the search over U_i",
    "full_pipeline": "the transformation into a dual equivalence graph, `degraphs transform`",
    "one_step": KEPT + "the per-color step; the tests' single-color harness, the drain's "
    "loop-guard regressions among them",
    "package_isomorphism": "the i-package isomorphism that phi, psi and gamma swap along",
    "replay": "`degraphs transform --replay`",
    # the paper's figures
    "fixture": "a figure of the paper by name",
    "fixture_names": "the figures",
    "verify_fixture": "`degraphs fixtures verify`",
}

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


def names_in(tree):
    """Every name, attribute, imported name and identifier string under the
    node ``tree``."""
    found = set()
    for node in ast.walk(tree):
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


def references(paths):
    """Every name, attribute, imported name and identifier string in the
    files."""
    return set().union(*(names_in(ast.parse(path.read_text())) for path in paths))


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


def test_the_exported_api_is_pinned():
    """``__all__`` is the listed API and holds no submodule."""
    assert set(degraphs.__all__) == PUBLIC_API.keys()
    assert not [n for n in degraphs.__all__ if isinstance(getattr(degraphs, n), types.ModuleType)]


def test_every_exported_name_is_read_outside_the_tests_or_kept():
    """An exported name that only tests read fails unless its reason keeps
    it; a kept name that gains a reader loses the mark."""
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "benchmarks").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    used = references(paths)
    kept = {name for name, why in PUBLIC_API.items() if why.startswith(KEPT)}
    assert {name for name in PUBLIC_API if name not in used} == kept


def test_the_forced_extension_has_one_entry():
    """``anchored_maps`` is the one seeded search: no other statement of the
    library refers to ``_forced_extension``."""
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if "_forced_extension" in names_in(node):
                readers.add(f"{path.stem}.{getattr(node, 'name', node.lineno)}")
    assert readers == {"graph.anchored_maps"}
