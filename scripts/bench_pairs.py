#!/usr/bin/env python3
"""Compare two checkouts on benchmark workloads by alternating pairs of
runs, and say whether a gain may be claimed and whether a metric regressed.

    python scripts/bench_pairs.py PARENT CHANGE --workload standard_certify \
        --workload scrambled --seed 5

Each pair runs ``benchmarks/run.py`` once in each checkout, with end-to-end
metrics only (``--trace 0``), the first of the two alternating from pair to
pair.  For every end-to-end metric of ``BENCHMARK.json`` it prints the
median and quartiles of each side, the pairs the change won (ties count
for neither side), and, first on the row, the median gap as a percent of
the parent's median, positive where the change is better.  The claim rule: the change wins at least nine tenths of
the pairs, and its median is better than the parent's by more than the
distance between the parent's quartiles.  A metric whose change median is
worse than the parent's by more than its ``bound`` (a fraction of the
parent's median) is flagged.  A metric whose parent runs spread wider than
its bound (quartile distance over median) is marked UNRESOLVED, since
pairs that noisy cannot show it unchanged, unless every run of the change
is better than every run of the parent.  With ``--workload`` given more
than once, the workloads run one after another, one table each.  Under
each table it prints the ``results digest:`` line of the parent's runs and
of the change's, and ``OUTPUT DIFFERS`` when they differ, so that a change
claimed to leave every output unchanged is checked on the seed of the
pairs too.  With ``--record BENCH_<label>.json`` it also writes, per
workload, both checkouts' commits and the line counts of their
``src/degraphs/*.py``, the seed, the processor count, the
Python version, every run's metrics, each side's median and quartile
distance per metric, the relative gap, the pairs won and tied, whether
the claim rule holds, the WORSE and UNRESOLVED flags and both sides'
digests.  Nothing under ``benchmarks/`` is written
to; the run length defaults to the benchmark's own.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(
    parent: list[dict], change: list[dict], better: dict[str, str], bounds: dict | None = None
) -> list[dict]:
    """One row per metric of ``better`` ({name: "higher" | "lower"}) from
    paired runs, ``parent[k]`` and ``change[k]`` being pair k's
    {name: value}: each side's quartiles, the pairs won and tied, the
    median gap (positive where the change is better) and that gap as a
    share of the parent's median (None for a zero median), whether the
    claim rule holds, whether the change median is worse than the
    parent's by more than the metric's entry in ``bounds`` times the
    parent's median, and whether the metric is unresolved: the parent's
    quartile distance exceeds that bound times its median, and some run of
    the change is no better than some run of the parent (neither, for a
    metric without a bound)."""
    bounds = bounds or {}
    rows = []
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        ties = sum(a == b for a, b in zip(p, c))
        pq, cq = quartiles(p), quartiles(c)
        gap = sign * (cq[1] - pq[1])
        spread = pq[2] - pq[0]
        separated = min(sign * b for b in c) > max(sign * a for a in p)
        rows.append({
            "metric": name,
            "parent": pq,
            "change": cq,
            "pairs": len(p),
            "wins": wins,
            "ties": ties,
            "gap": gap,
            "relative_gap": gap / abs(pq[1]) if pq[1] else None,
            "parent_iqr": spread,
            "claim": wins * 10 >= 9 * len(p) and gap > spread,
            "bound": bounds.get(name),
            "regressed": name in bounds and -gap > bounds[name] * abs(pq[1]),
            "unresolved": name in bounds and spread > bounds[name] * abs(pq[1])
            and not separated,
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = []
    for r in rows:
        (p1, pm, p3), (c1, cm, c3) = r["parent"], r["change"]
        tied = f", {r['ties']} tied" if r["ties"] else ""
        worse = ""
        if r["regressed"]:
            worse = f"; WORSE than the parent by more than its bound of {r['bound']:.0%}"
        if r["unresolved"]:
            worse += f"; UNRESOLVED: the parent IQR is wider than {r['bound']:.0%} of its median"
        share = "n/a" if r["relative_gap"] is None else f"{r['relative_gap']:+.1%}"
        lines.append(
            f"{share:>7} {r['metric']}: parent {pm:.4g} ({p1:.4g}-{p3:.4g}) -> change {cm:.4g} "
            f"({c1:.4g}-{c3:.4g}); change better in {r['wins']}/{r['pairs']}{tied}; "
            f"median gap {r['gap']:+.4g} vs parent IQR {r['parent_iqr']:.4g}; "
            f"claim rule {'holds' if r['claim'] else 'does not hold'}{worse}"
        )
    return "\n".join(lines)


def run_once(
    checkout: Path, workload: str, seed: int, seconds: float, default_seed: int
) -> tuple[dict, str | None]:
    """The end-to-end metrics of one run, {name: value}, and its results
    digest (None when the run printed none)."""
    argv = [
        sys.executable, "benchmarks/run.py", "--default-seed", str(default_seed),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: run in {checkout} failed:\n{proc.stderr}")
    doc = json.loads(lines[-1])
    if not doc["correct"]:
        raise SystemExit(f"error: run in {checkout} reported failures:\n{proc.stdout}")
    digests = [line.split(":", 1)[1].strip() for line in lines if line.startswith("results digest:")]
    metrics = {name: m["value"] for name, m in doc["metrics"].items()}
    return metrics, digests[-1] if digests else None


def digest_line(workload: str, parent: list, change: list) -> str:
    """The results digests each side's runs printed, and ``OUTPUT
    DIFFERS`` when the two sides' digests are not the same."""
    sides = [sorted({str(d) for d in digests}) for digests in (parent, change)]
    line = f"{workload} results digest: parent {', '.join(sides[0])}; change {', '.join(sides[1])}"
    return line + ("; OUTPUT DIFFERS" if sides[0] != sides[1] else "")


def commit(checkout: Path) -> str | None:
    """The commit checked out at ``checkout``, marked ``+dirty`` when its
    tracked files differ from it; None outside a git checkout."""
    git = ["git", "-C", str(checkout)]
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
    if head.returncode != 0:
        return None
    status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                            capture_output=True, text=True)
    return head.stdout.strip() + ("+dirty" if status.stdout.strip() else "")


def src_lines(checkout: Path) -> int:
    """The total line count of ``src/degraphs/*.py`` at ``checkout``, as
    ``wc -l`` counts it."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src/degraphs").glob("*.py"))


def record(workload: str, args, seconds: float, runs: dict, digests: dict, rows) -> dict:
    """The record of one workload's pairs that ``--record`` writes; ``runs``
    and ``digests`` hold each side's runs, by side name."""
    return {
        "workload": workload,
        "commits": {"parent": commit(args.parent), "change": commit(args.change)},
        "src_lines": {"parent": src_lines(args.parent), "change": src_lines(args.change)},
        "seed": args.seed,
        "pairs": args.pairs,
        "seconds": seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "runs": runs,
        "digests": digests,
        "metrics": {
            r["metric"]: {
                "parent_median": r["parent"][1],
                "parent_iqr": r["parent_iqr"],
                "change_median": r["change"][1],
                "change_iqr": r["change"][2] - r["change"][0],
                "relative_gap": r["relative_gap"],
                "wins": r["wins"],
                "ties": r["ties"],
                "claim": r["claim"],
                "worse": r["regressed"],
                "unresolved": r["unresolved"],
            }
            for r in rows
        },
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Alternating benchmark pairs of two checkouts.")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", action="append", required=True,
                   help="a workload to compare; give it once per workload")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json's)")
    p.add_argument("--record", type=Path, help="write every run and the summary here as JSON")
    args = p.parse_args(argv)
    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    command = bench["command"]
    default_seed = int(command[command.index("--default-seed") + 1])
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"] if "bound" in m}
    records = []
    for workload in args.workload:
        parent, change, parent_digests, change_digests = [], [], [], []
        for k in range(args.pairs):
            sides = [(args.parent, parent, parent_digests), (args.change, change, change_digests)]
            for checkout, runs, digests in sides if k % 2 == 0 else sides[::-1]:
                metrics, digest = run_once(checkout, workload, args.seed, seconds, default_seed)
                runs.append(metrics)
                digests.append(digest)
            print(f"{workload} pair {k + 1}: " + ", ".join(
                f"{name} {parent[-1][name]:.4g} -> {change[-1][name]:.4g}" for name in better
            ), flush=True)
        rows = summarize(parent, change, better, bounds)
        print(f"{workload}, seed {args.seed}, {args.pairs} pairs of {seconds} s runs")
        print(format_rows(rows))
        print(digest_line(workload, parent_digests, change_digests), flush=True)
        if args.record:
            runs = {"parent": parent, "change": change}
            digests = {"parent": parent_digests, "change": change_digests}
            records.append(record(workload, args, seconds, runs, digests, rows))
            args.record.write_text(json.dumps({"workloads": records}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
