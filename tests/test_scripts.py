"""The scripts under scripts/ run end to end against the library in src/."""

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
