"""The scripts under scripts/ run end to end against the library in src/."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "argv, line",
    [
        (("run_fixture_pipelines.py", "--skip-large"),
         "  steps: phi_3@b1, phi_3@t3, phi_4@b3, phi_4@t2"),
        (("survey_standard_graphs.py", "--max-n", "5"),
         "           3,2     5      ok       ok     none      1 s[3,2]"),
    ],
    ids=["run_fixture_pipelines", "survey_standard_graphs"],
)
def test_script_runs(argv, line):
    proc = run_script(*argv)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()


def test_traced_run_wraps_and_restores_the_library():
    """The traced benchmark run wraps library functions by module and name
    (``benchmarks/spans.py``, loaded here unchanged); a name it wraps that
    moved or was deleted fails here instead of in the per-layer run."""
    import degraphs.cli  # noqa: F401  (spans wraps names in every loaded module)
    from degraphs import transform
    from degraphs.fixtures import fixture
    from degraphs.graph import SignedColoredGraph

    spec = importlib.util.spec_from_file_location("spans", ROOT / "benchmarks" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)

    def bindings():
        mods = [m for k, m in sys.modules.items() if k.split(".")[0] == "degraphs" and m]
        return [dict(vars(m)) for m in mods] + [dict(SignedColoredGraph.__dict__)]

    # a copy: the cached fixture may already be marked locally Schur positive
    G = SignedColoredGraph.from_text(fixture("fig8").to_text())
    before = bindings()
    rec = spans.Recorder()
    inst = spans.install(rec)
    try:
        assert bindings() != before
        res = transform.full_pipeline(G)
    finally:
        inst.remove()
    assert res.certified
    layers = rec.layers()
    assert len(rec) > 0 and layers["transform.full_pipeline"][0] == 1
    assert {"graph.components", "axioms.check_lsp.4", "axioms.check_axiom.4"} <= set(layers)
    assert rec.counts["transform.package_isomorphism.calls"] > 0
    assert bindings() == before
