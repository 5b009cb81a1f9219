"""The degraphs benchmark: one workload per process, a closed loop with one
client and no extra threads, timing the library from outside.

    python3 benchmarks/run.py --default-seed 1 --workload scrambled --seed 1 --seconds 12 --trace 0

Workloads, metrics and the reasons for them are in benchmarks/README.md.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units are the
ones BENCHMARK.json lists (end_to_end with --trace 0, per_layer with --trace 1).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "corpus_digests.json"
SETUP_REPEATS = 3


class SetupFailure(Exception):
    """The inputs could not be prepared, or a known answer failed during set-up."""


def import_library():
    """Import degraphs from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "degraphs" / "__init__.py").is_file():
        raise SystemExit(f"error: no degraphs sources under {src}")
    sys.path.insert(0, str(src))
    import degraphs

    if src.resolve() not in Path(degraphs.__file__).resolve().parents:
        raise SystemExit(f"error: degraphs imported from {degraphs.__file__}, not {src}")


def clear_library_caches() -> None:
    """Empty every functools cache in the library, so that each set-up run
    starts cold."""
    for name, module in list(sys.modules.items()):
        if name != "degraphs" and not name.startswith("degraphs."):
            continue
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and getattr(value, "__module__", "") == name:
                value.cache_clear()


# ---------------------------------------------------------------------------
# workloads


class Scrambled:
    """full_pipeline on seeded scrambled unions; aborts are allowed answers."""

    def setup(self, seed):
        cases = corpus.scrambled_cases(seed, corpus.SCRAMBLED_MIX)
        corpus.build_standard_graphs(cases)
        return cases

    def inputs(self, cases):
        return [(c.name, corpus.sha(c.graph.to_text())) for c in cases]

    def run(self, case):
        return transform.full_pipeline(case.graph)

    def check(self, case, res):
        return corpus.check_result(case, res, may_abort=True)

    def digest(self, case, res):
        return corpus.result_digest(res)

    def abort(self, res):
        return res.log.diagnostic if res.log.aborted else None


class StandardCertify(Scrambled):
    """full_pipeline on standard graphs: verification only, never aborts."""

    def setup(self, seed):
        cases = corpus.standard_cases()
        corpus.build_standard_graphs(cases)
        random.Random(seed).shuffle(cases)
        return cases

    def check(self, case, res):
        return corpus.check_result(case, res, may_abort=False)


@dataclass(frozen=True)
class ReplayItem:
    name: str
    case: object
    files: dict  # role -> path
    texts: dict  # role -> file contents written at set-up
    expected: str  # the pipeline's output graph, as the pipeline wrote it

    def commands(self):
        f = self.files
        return (
            ["transform", f["graph"], "--replay", f["steps"], "--out", f["again"]],
            ["check", f["again"]],
            ["expand", f["again"]],
            ["iso", f["again"], f["reference"]],
        )


class ReplayCli:
    """A third party checks certificates: the four CLI commands per certified
    scrambled input, called in-process."""

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def setup(self, seed):
        cases = corpus.scrambled_cases(seed, corpus.REPLAY_MIX, strata=corpus.REPLAY_STRATA)
        corpus.build_standard_graphs(cases)
        items = []
        for case in cases:
            res = transform.full_pipeline(case.graph)
            err = corpus.check_result(case, res, may_abort=True)
            if err:
                raise SetupFailure(f"{case.name}: {err}")
            if not res.certified:
                continue
            folder = self.workdir / case.name
            folder.mkdir(exist_ok=True)
            texts = {
                "graph": case.graph.to_text(),
                "steps": res.log.to_text(),
                "reference": corpus.union(case.shapes).to_text(),
            }
            files = {role: str(folder / f"{role}.json") for role in (*texts, "again")}
            for role, text in texts.items():
                Path(files[role]).write_text(text)
            items.append(ReplayItem(case.name, case, files, texts, res.graph.to_text()))
        if not items:
            raise SetupFailure("no scrambled input was certified")
        return items

    def inputs(self, items):
        return [
            (it.name, corpus.sha("".join(it.texts.values()) + it.expected))
            for it in items
        ]

    def run(self, item):
        outputs = []
        for argv in item.commands():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = cli.main(argv)
            outputs.append((argv[0], code, buf.getvalue()))
        return outputs

    def check(self, item, outputs):
        for command, code, text in outputs:
            if code != 0:
                return f"{command} exited {code}: {text.strip()[-200:]}"
        again = Path(item.files["again"]).read_text()
        if again != item.expected:
            return "replayed graph differs from the pipeline's output"
        _, _, checked = outputs[1]
        if not all(line.endswith("PASS") for line in checked.splitlines()):
            return f"check reports a failure: {checked.strip()}"
        _, _, expanded = outputs[2]
        want = corpus.expected_expansion(item.case.shapes)
        if expanded.splitlines()[:1] != [want]:
            return f"expand printed {expanded.strip()!r}, expected {want}"
        _, _, iso = outputs[3]
        pairs = [line for line in iso.splitlines() if " -> " in line]
        if len(pairs) != len(item.case.graph.sigma):
            return f"iso mapped {len(pairs)} of {len(item.case.graph.sigma)} vertices"
        return None

    def digest(self, item, outputs):
        again = Path(item.files["again"]).read_text()
        return corpus.sha(again + json.dumps(outputs))

    def abort(self, outputs):
        return None


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    aborts: Counter = field(default_factory=Counter)
    certified: dict = field(default_factory=dict)  # input name -> no abort

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def timed_call(workload, item, tally: Tally):
    """Run one operation; returns (ns, output) or (ns, None) if it raised."""
    t0 = time.perf_counter_ns()
    try:
        out = workload.run(item)
    except Exception:
        ns = time.perf_counter_ns() - t0
        tally.fail(f"{item.name}: raised\n{traceback.format_exc()}")
        return ns, None
    return time.perf_counter_ns() - t0, out


def measure(workload, items, seconds: float, tally: Tally):
    """Closed loop making whole passes over the inputs, at least two and
    until ``seconds`` have passed, so that every input weighs the same.  Every
    output is checked, and a later pass must give the same digests as the
    first."""
    latencies: list[int] = []
    digests: dict[str, str] = {}
    deadline = time.perf_counter() + seconds
    while len(latencies) < 2 * len(items) or time.perf_counter() < deadline:
        for item in items:
            ns, out = timed_call(workload, item, tally)
            tally.attempted += 1
            latencies.append(ns)
            if out is not None:
                check_output(workload, item, out, digests, tally)
    return latencies, digests


def check_output(workload, item, out, digests, tally: Tally) -> None:
    err = workload.check(item, out)
    if err:
        tally.fail(f"{item.name}: {err}")
    digest = workload.digest(item, out)
    if item.name not in digests:
        digests[item.name] = digest
        diagnostic = workload.abort(out)
        tally.certified[item.name] = not diagnostic
        if diagnostic:
            tally.aborts[corpus.abort_kind(diagnostic)] += 1
    elif digests[item.name] != digest:
        tally.fail(f"{item.name}: a later pass gave a different step log or output")


def traced_pass(workload, items, digests, tally: Tally):
    """One pass over every input with spans recorded; returns the recorder
    and the seconds the pass took."""
    rec = spans.Recorder()
    installed = spans.install(rec)
    total = 0
    try:
        for k, item in enumerate(items):
            rec.graph_id = k
            ns, out = timed_call(workload, item, tally)
            total += ns
            if out is not None and workload.digest(item, out) != digests[item.name]:
                tally.fail(f"{item.name}: traced pass gave a different step log or output")
    finally:
        installed.remove()
    return rec, total / 1e9


def check_recorded(workload_name, inputs, record: bool, tally: Tally):
    """For the default seed: the generated inputs must match their digests in
    corpus_digests.json, and no input recorded as certified may abort."""
    doc = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    certified = [name for name, _ in inputs if tally.certified.get(name)]
    if record:
        doc[workload_name] = {"inputs": inputs, "certified": certified}
        DIGESTS.write_text(json.dumps(doc, indent=1) + "\n")
        return
    want = doc.get(workload_name)
    if want is None:
        tally.fail(f"{DIGESTS.name} has nothing recorded for {workload_name}")
        return
    recorded = [tuple(x) for x in want["inputs"]]
    for k in range(max(len(recorded), len(inputs))):
        a = recorded[k] if k < len(recorded) else None
        b = inputs[k] if k < len(inputs) else None
        if a != b:
            tally.fail(
                f"input {(b or a)[0]} differs from the recorded corpus of the default "
                f"seed: recorded {a}, generated {b}"
            )
            return
    lost = [name for name in want["certified"] if not tally.certified.get(name)]
    if lost:
        tally.fail(f"{len(lost)} inputs recorded as certified now abort: {', '.join(lost)}")


def set_up(workload, seed: int, tally: Tally):
    """Prepare the inputs SETUP_REPEATS times from cold library caches;
    returns the inputs, their digests and the set-up times."""
    times, digests, items = [], None, None
    for _ in range(SETUP_REPEATS):
        clear_library_caches()
        t0 = time.perf_counter()
        items = workload.setup(seed)
        times.append(time.perf_counter() - t0)
        got = workload.inputs(items)
        if digests is not None and got != digests:
            tally.fail("set-up generated different inputs on a second run")
        digests = got
    return items, digests, times


def print_table(metrics) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.4f} {unit}")


def run_workload(workload, items, setup_times, args, bench, tally: Tally):
    """Measure, print every figure, and return the metrics for the result
    line: end-to-end ones, or with --trace 1 the per-layer ones."""
    latencies, digests = measure(workload, items, args.seconds, tally)
    seconds = [ns / 1e9 for ns in latencies]
    # throughput of each whole pass; their median keeps a slow spell of the
    # host from setting the figure, as it would in a total over the run
    per_pass = [
        len(items) / sum(seconds[k : k + len(items)])
        for k in range(0, len(seconds), len(items))
    ]
    print(f"workload {args.workload}  seed {args.seed}  inputs {len(items)}  "
          f"samples {len(seconds)}  set-up runs {len(setup_times)}")
    if len(seconds) < 100:
        print(f"warning: {len(seconds)} samples, fewer than ten lie beyond p90")
    metrics = {
        "graphs_per_s": (statistics.median(per_pass), "1/s"),
        "latency_p50_ms": (statistics.median(seconds) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(seconds, n=10)[8] * 1e3, "ms"),
        "abort_share": (sum(tally.aborts.values()) / len(items), "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print_table(metrics)
    print("aborts by diagnostic:", dict(tally.aborts) or "none")
    print("results digest:", corpus.sha("".join(digests[it.name] for it in items)))
    if not args.trace:
        return metrics
    rec, traced_s = traced_pass(workload, items, digests, tally)
    untraced = metrics["graphs_per_s"][0]
    traced = len(items) / traced_s
    layers = spans.layer_metrics(rec, [e["name"] for e in bench["per_layer"]], {
        "trace.untraced_graphs_per_s": (untraced, "1/s"),
        "trace.traced_graphs_per_s": (traced, "1/s"),
        "trace.overhead_graphs_per_s": (traced - untraced, "1/s"),
    })
    print_table(layers)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv"
    rec.write(path)
    print(f"{len(rec)} spans written to {path.relative_to(ROOT)}")
    return layers


def main(argv=None) -> int:
    workloads = {
        "scrambled": lambda workdir: Scrambled(),
        "standard_certify": lambda workdir: StandardCertify(),
        "replay_cli": ReplayCli,
    }
    p = argparse.ArgumentParser(description="Run one workload of the degraphs benchmark.")
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--default-seed", type=int, required=True, dest="default_seed",
                   help="seed whose generated inputs are recorded in corpus_digests.json")
    p.add_argument("--record-digests", action="store_true", dest="record_digests",
                   help="rewrite the recorded inputs and outcomes (default seed only)")
    args = p.parse_args(argv)
    if args.record_digests and args.seed != args.default_seed:
        p.error("--record-digests needs --seed equal to --default-seed")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    import_library()
    global corpus, spans, transform, cli
    import corpus
    import spans
    from degraphs import cli, transform

    tally = Tally()
    metrics = {}
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        workload = workloads[args.workload](Path(tmp))
        try:
            items, inputs, setup_times = set_up(workload, args.seed, tally)
        except SetupFailure as e:
            tally.attempted += 1
            tally.fail(f"set-up: {e}")
        else:
            metrics = run_workload(workload, items, setup_times, args, bench, tally)
            if args.seed == args.default_seed:
                check_recorded(args.workload, inputs, args.record_digests, tally)
    for message in tally.errors:
        print("FAIL", message)

    reported = {}
    for entry in (bench["per_layer"] if args.trace else bench["end_to_end"]) if metrics else ():
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise SystemExit(f"error: {entry['name']} is in {unit}, BENCHMARK.json says {entry['unit']}")
        reported[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
