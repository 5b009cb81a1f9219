"""The scripts under scripts/ and ``python -m degraphs`` run end to end
against the library in src/."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import benchmark_corpus, seed1_runs

ROOT = Path(__file__).resolve().parents[1]


def run_python(*argv, stdin=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *argv],
        input=stdin, capture_output=True, text=True, env=env, timeout=120,
    )


def run_script(*argv):
    return run_python(str(ROOT / "scripts" / argv[0]), *argv[1:])


@pytest.mark.parametrize(
    "argv, line, last",
    [
        (("run_fixture_pipelines.py",),
         "  steps: phi_3@b1, phi_3@t3, phi_4@b3, phi_4@t2", None),
        (("survey_standard_graphs.py", "--max-n", "5"),
         "           3,2     5      ok       ok     none     ok      1 s[3,2]",
         r"elapsed: build \d+\.\d\ds, check \d+\.\d\ds"),
    ],
    ids=["run_fixture_pipelines", "survey_standard_graphs"],
)
def test_script_runs(argv, line, last):
    proc = run_script(*argv)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert line in lines
    assert last is None or re.fullmatch(last, lines[-1]), lines[-1]


def test_run_fixture_pipelines_takes_no_options():
    proc = run_script("run_fixture_pipelines.py", "--skip-large")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines()[-1].endswith("error: unrecognized arguments: --skip-large")


def test_module_entry_point_pipes(capsys, monkeypatch):
    """``python -m degraphs standard 3,2 | python -m degraphs check -``
    prints what the command line prints in-process."""
    import io

    from degraphs.cli import main

    standard = run_python("-m", "degraphs", "standard", "3,2")
    assert standard.returncode == 0, standard.stderr
    check = run_python("-m", "degraphs", "check", "-", stdin=standard.stdout)
    assert check.returncode == 0, check.stderr
    monkeypatch.setattr(sys, "stdin", io.StringIO(standard.stdout))
    assert main(["check", "-"]) == 0
    assert check.stdout == capsys.readouterr().out
    assert len(check.stdout.splitlines()) == 6


def load_spans():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "benchmarks" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def check_pinned(workload, digest, certified):
    """A workload's results digest for seed 1, as ``benchmarks/run.py``
    prints it (``benchmarks/corpus.py``, loaded unchanged): a change to any
    step log or output graph fails here, not only in the benchmark.  Every
    result matches its known answer, and the inputs certified are those
    ``benchmarks/corpus_digests.json`` records."""
    bc = benchmark_corpus()
    runs = seed1_runs(workload)
    assert bc.sha("".join(bc.result_digest(res) for _, res in runs)) == digest
    for case, res in runs:
        assert bc.check_result(case, res, may_abort=True) is None, case.name
    recorded = json.loads((ROOT / "benchmarks" / "corpus_digests.json").read_text())[workload]
    assert [name for name, _ in recorded["inputs"]] == [case.name for case, _ in runs]
    names = [case.name for case, res in runs if res.certified]
    assert names == recorded["certified"] and len(names) == certified


def test_scrambled_benchmark_output_is_pinned():
    check_pinned("scrambled", "1a2f7967cc983ed5", 195)
    assert len(seed1_runs("scrambled")) == 200


def test_standard_certify_benchmark_output_is_pinned():
    check_pinned("standard_certify", "6b9282617da72616", 32)


def test_traced_run_wraps_and_restores_the_library():
    """The traced benchmark run wraps library functions by module and name
    (``benchmarks/spans.py``, loaded here unchanged); a name it wraps that
    moved or was deleted fails here instead of in the per-layer run."""
    import degraphs.cli  # noqa: F401  (spans wraps names in every loaded module)
    from degraphs import transform
    from degraphs.fixtures import fixture
    from degraphs.graph import SignedColoredGraph

    spans = load_spans()

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


def test_traced_fixture_run_does_not_depend_on_earlier_calls():
    """A fixture marked locally Schur positive by an earlier caller does not
    make a later traced run skip the scan."""
    import degraphs.cli  # noqa: F401
    from degraphs import transform
    from degraphs.axioms import is_locally_schur_positive
    from degraphs.fixtures import fixture

    assert is_locally_schur_positive(fixture("fig8")).holds
    spans = load_spans()
    rec = spans.Recorder()
    inst = spans.install(rec)
    try:
        assert transform.full_pipeline(fixture("fig8")).certified
    finally:
        inst.remove()
    assert any(name.startswith("axioms.check_lsp.") for name in rec.layers())


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_applies_the_claim_rule():
    """Medians, quartiles, pairs won and the claim rule, on fixed runs: a
    throughput that wins 9 of 10 pairs by more than the parent's IQR may
    be claimed; a latency that wins every pair by less than that IQR, and
    one that loses, may not."""
    bp = load_bench_pairs()
    parent = [{"rate": r, "p50": 10.0 + k, "rss": 30.0} for k, r in enumerate(
        [100, 102, 98, 110, 105, 99, 101, 103, 97, 104])]
    change = [{"rate": r, "p50": 9.5 + k, "rss": 30.0 + k % 2} for k, r in enumerate(
        [120, 125, 119, 130, 128, 121, 97, 124, 118, 126])]
    rows = bp.summarize(parent, change, {"rate": "higher", "p50": "lower", "rss": "lower"})
    rate, p50, rss = rows
    assert rate["parent"] == (99.25, 101.5, 103.75)
    assert rate["change"] == (119.25, 122.5, 125.75)
    assert (rate["wins"], rate["ties"], rate["pairs"]) == (9, 0, 10)
    assert rate["gap"] == 21.0 and rate["parent_iqr"] == 4.5 and rate["claim"]
    assert p50["wins"] == 10 and p50["gap"] == 0.5 and p50["parent_iqr"] == 4.5
    assert not p50["claim"]
    assert (rss["wins"], rss["ties"]) == (0, 5) and not rss["claim"]
    text = bp.format_rows(rows)
    assert "rate: parent 101.5 (99.25-103.8) -> change 122.5 (119.2-125.8)" in text
    assert "change better in 9/10; median gap +21 vs parent IQR 4.5; claim rule holds" in text
    assert "rss: parent 30 (30-30) -> change 30.5 (30-31); change better in 0/10, 5 tied" in text


def test_bench_pairs_flags_a_metric_worse_than_its_bound():
    """A change median worse than the parent's by more than the metric's
    bound, as a fraction of the parent's median, is flagged in either
    direction; one within its bound, better, or without a bound is not."""
    bp = load_bench_pairs()
    parent = [{"rate": r, "p50": p, "rss": 30.0, "free": 1.0} for r, p in zip(
        [100, 102, 98, 104, 96], [4.0, 4.2, 3.8, 4.4, 3.6])]
    change = [{"rate": r, "p50": p, "rss": 33.5, "free": 0.1} for r, p in zip(
        [74, 76, 72, 78, 70], [4.9, 5.1, 4.7, 5.3, 4.5])]
    better = {"rate": "higher", "p50": "lower", "rss": "lower", "free": "higher"}
    bounds = {"rate": 0.25, "p50": 0.25, "rss": 0.1}
    rows = {r["metric"]: r for r in bp.summarize(parent, change, better, bounds)}
    # rate: 100 -> 74 is 26 % worse; p50: 4.0 -> 4.9 is 22.5 % worse;
    # rss: 30 -> 33.5 is 11.7 % worse; free has no bound
    assert rows["rate"]["regressed"] and rows["rss"]["regressed"]
    assert not rows["p50"]["regressed"] and not rows["free"]["regressed"]
    assert rows["rate"]["bound"] == 0.25 and rows["free"]["bound"] is None
    text = bp.format_rows(list(rows.values())).splitlines()
    assert text[0].endswith("claim rule does not hold; WORSE than the parent by more than "
                            "its bound of 25%")
    assert text[2].endswith("its bound of 10%")
    unflagged = [line.endswith("claim rule does not hold") for line in text]
    assert unflagged == [False, True, False, True]
    # without bounds nothing is flagged, and a gain is never flagged
    assert not any(r["regressed"] for r in bp.summarize(parent, change, better))
    assert not any(r["regressed"] for r in bp.summarize(change, parent, better, bounds))


def test_bench_pairs_marks_a_metric_spread_wider_than_its_bound():
    """A metric whose parent runs spread wider than its bound is unresolved,
    whatever its median does, unless every change run beats every parent
    run; a metric with a narrower spread, or without a bound, never is."""
    bp = load_bench_pairs()
    # setup: parent quartiles 0.45-0.6 around 0.5, an IQR of 30 % of the median
    parent = [{"setup": s, "rate": r, "free": s} for s, r in zip(
        [0.4, 0.45, 0.5, 0.6, 0.7], [100, 102, 98, 104, 96])]
    change = [{"setup": s, "rate": r, "free": s} for s, r in zip(
        [0.42, 0.44, 0.5, 0.55, 0.45], [101, 99, 100, 103, 97])]
    better = {"setup": "lower", "rate": "higher", "free": "lower"}
    bounds = {"setup": 0.25, "rate": 0.25}
    rows = {r["metric"]: r for r in bp.summarize(parent, change, better, bounds)}
    assert rows["setup"]["parent"] == (0.45, 0.5, 0.6)
    assert rows["setup"]["unresolved"] and not rows["setup"]["regressed"]
    assert not rows["rate"]["unresolved"] and not rows["free"]["unresolved"]
    text = bp.format_rows(list(rows.values())).splitlines()
    assert text[0].endswith("claim rule does not hold; UNRESOLVED: the parent IQR is wider "
                            "than 25% of its median")
    assert [line.endswith("claim rule does not hold") for line in text] == [False, True, True]
    # every change run better than every parent run resolves it; worse ones do not
    fast = [{**run, "setup": run["setup"] / 2} for run in parent]
    slow = [{**run, "setup": run["setup"] * 2} for run in parent]
    assert not bp.summarize(parent, fast, better, bounds)[0]["unresolved"]
    row = bp.summarize(parent, slow, better, bounds)[0]
    assert row["unresolved"] and row["regressed"]


def test_bench_pairs_prints_one_table_per_workload(monkeypatch, capsys):
    """``--workload`` given twice runs each workload's pairs in turn, parent
    first in odd pairs, and prints a table for each, bounds read from
    ``BENCHMARK.json``, then each side's results digests, flagging a
    workload whose two sides' digests differ."""
    bp = load_bench_pairs()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    calls = []

    def run_once(checkout, workload, seed, seconds, default_seed):
        # the parent is ROOT; the change is any other path, whatever its name
        side = "parent" if checkout == ROOT else "change"
        calls.append((side, workload, seed, seconds, default_seed))
        value = 2.0 if side == "change" else 1.0
        # the two sides print the same digest on workload a, not on b
        digest = f"{workload}-{side if workload == 'b' else 'same'}"
        return dict.fromkeys(names, value), digest

    monkeypatch.setattr(bp, "run_once", run_once)
    argv = [str(ROOT), "change", "--workload", "a", "--workload", "b",
            "--seed", "5", "--pairs", "2", "--seconds", "0.5"]
    assert bp.main(argv) == 0
    side = [("parent", "change"), ("change", "parent")]
    assert [c[:2] for c in calls] == [
        (name, w) for w in ("a", "b") for pair in side for name in pair
    ]
    assert {c[2:] for c in calls} == {(5, 0.5, 1)}
    out = capsys.readouterr().out
    assert out.count("seed 5, 2 pairs of 0.5 s runs") == 2
    assert out.index("a, seed 5") < out.index("b pair 1:") < out.index("b, seed 5")
    # doubled latencies and memory are flagged, doubled throughput is not
    assert out.count("WORSE") == 2 * (len(names) - 1)
    assert "a results digest: parent a-same; change a-same\n" in out
    assert "b results digest: parent b-parent; change b-change; OUTPUT DIFFERS\n" in out
    assert out.count("OUTPUT DIFFERS") == 1


def test_bench_pairs_reads_the_results_digest(monkeypatch):
    """``run_once`` returns the metrics of the last line and the digest of
    the ``results digest:`` line, or None when the run printed none."""
    import subprocess

    bp = load_bench_pairs()
    result = json.dumps({"correct": True, "metrics": {"graphs_per_s": {"value": 3.0}}})
    for stdout, digest in (
        (f"workload x\nresults digest: 6b9282617da72616\n{result}\n", "6b9282617da72616"),
        (f"workload x\n{result}\n", None),
    ):
        done = subprocess.CompletedProcess([], 0, stdout=stdout, stderr="")
        monkeypatch.setattr(bp.subprocess, "run", lambda *args, **kwargs: done)
        assert bp.run_once(ROOT, "x", 2, 0.5, 1) == ({"graphs_per_s": 3.0}, digest)


def test_bench_pairs_records_every_run(monkeypatch, tmp_path, capsys):
    """``--record`` writes, per workload, both commits (None outside git),
    both line counts of ``src/degraphs/*.py``, the seed, processor count and
    Python version, every run, each side's median and quartile distance,
    the relative gap, wins, ties, the claim verdict, the flags and the
    digests."""
    import platform
    import subprocess

    bp = load_bench_pairs()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    runs = {"parent": [1.0, 3.0, 4.0], "change": [2.0, 2.0, 8.0]}
    served = {}

    def run_once(checkout, workload, seed, seconds, default_seed):
        key = ("parent" if checkout == ROOT else "change", workload)
        served[key] = served.get(key, -1) + 1
        return dict.fromkeys(names, runs[key[0]][served[key]]), f"{workload}-digest"

    monkeypatch.setattr(bp, "run_once", run_once)
    package = tmp_path / "change" / "src" / "degraphs"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3\n")
    (package / "notes.txt").write_text("not counted\n")
    out = tmp_path / "BENCH_test.json"
    argv = [str(ROOT), str(tmp_path / "change"), "--workload", "a", "--workload", "b",
            "--seed", "5", "--pairs", "3", "--seconds", "0.5", "--record", str(out)]
    assert bp.main(argv) == 0
    doc = json.loads(out.read_text())
    assert [w["workload"] for w in doc["workloads"]] == ["a", "b"]
    a = doc["workloads"][0]
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    recorded = a["commits"]["parent"]
    assert recorded is None if head.returncode else recorded.split("+")[0] == head.stdout.strip()
    assert a["commits"]["change"] is None
    wc = subprocess.run(["wc", "-l", *map(str, sorted((ROOT / "src/degraphs").glob("*.py")))],
                        capture_output=True, text=True)
    total = int(wc.stdout.split()[-2])
    assert a["src_lines"] == {"parent": total, "change": 3}
    assert (a["seed"], a["pairs"], a["seconds"]) == (5, 3, 0.5)
    assert a["nproc"] >= 1 and a["python"] == platform.python_version()
    parent = [run[names[0]] for run in a["runs"]["parent"]]
    change = [run[names[0]] for run in a["runs"]["change"]]
    assert parent == [1.0, 3.0, 4.0] and change == [2.0, 2.0, 8.0]
    assert a["digests"] == {"parent": ["a-digest"] * 3, "change": ["a-digest"] * 3}
    latency = a["metrics"]["latency_p50_ms"]
    assert latency["parent_median"] == 3.0 and latency["change_median"] == 2.0
    assert latency["parent_iqr"] == 1.5 and latency["change_iqr"] == 3.0
    assert (latency["wins"], latency["ties"]) == (1, 0)
    assert latency["worse"] is False and latency["unresolved"] is True
    # the claim verdict, and the median gap as a share of the parent's
    # median, positive where the change is better; the rows print it first
    assert latency["claim"] is False and latency["relative_gap"] == 1 / 3
    rate = a["metrics"]["graphs_per_s"]
    assert rate["claim"] is False and rate["relative_gap"] == -1 / 3
    printed = capsys.readouterr().out
    assert " +33.3% latency_p50_ms: parent 3 (2-3.5) -> change 2 (2-5)" in printed
    assert " -33.3% graphs_per_s: parent 3 (2-3.5) -> change 2 (2-5)" in printed
    assert set(a["metrics"]) == set(names)
