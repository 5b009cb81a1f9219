"""Command-line interface.

Subcommands: check, expand, standard, transform, analyze, iso, export-dot,
fixtures (list, show, verify, conjecture-4prime), each taking only the
arguments it reads.  Commands reading a graph accept ``-`` for stdin and
commands writing one accept ``-`` for stdout, so pipelines compose.  Exit
codes: 0 success, 1 failed check, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .axioms import (
    check_axiom,
    check_axiom4a,
    check_axiom4b,
    check_lsf,
    check_lsp,
    is_locally_schur_positive,
)
from .combinatorics import parse_partition, partition_str, sig_str
from .fixtures import fixture, fixture_names, verify_fixture
from .graph import SignedColoredGraph, find_isomorphism
from .standard import build_standard_deg, identify_component
from .structure import StructureError, defect_sets, i_type, maximal_flat_chains, set_U
from .symfunc import expand_in_schur
from .transform import TransformLog, full_pipeline, replay


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _read_graph(path: str) -> SignedColoredGraph:
    return SignedColoredGraph.from_text(_read_text(path))


def _write(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _cmd_standard(args) -> int:
    lam = parse_partition(args.partition)
    _write(args.out, build_standard_deg(lam).to_text())
    return 0


def _cmd_check(args) -> int:
    G = _read_graph(args.graph)
    reports = []
    explicit = args.axiom or args.lsf or args.lsp or args.axiom4a or args.axiom4b or args.lsp_all
    for k in args.axiom or ():
        reports.append(check_axiom(G, k))
    for m in args.lsf or ():
        reports.append(check_lsf(G, m))
    for m in args.lsp or ():
        reports.append(check_lsp(G, m))
    if args.axiom4a:
        reports.append(check_axiom4a(G))
    if args.axiom4b:
        reports.append(check_axiom4b(G))
    if args.lsp_all:
        reports.append(is_locally_schur_positive(G))
    if not explicit:
        reports = [check_axiom(G, k) for k in range(1, 7)]
    if args.format == "json":
        doc = [
            {"check": r.axiom, "holds": r.holds, "witnesses": [list(map(str, w)) for w in r.witnesses]}
            for r in reports
        ]
        print(json.dumps(doc, indent=2))
    else:
        for r in reports:
            print(r.describe())
    return 0 if all(r.holds for r in reports) else 1


def _cmd_expand(args) -> int:
    G = _read_graph(args.graph)
    exp = expand_in_schur(G.generating_function())
    print(exp.to_string())
    if G.stats and G.n == G.N:
        terms = []
        for comp in G.components(G.colors()):
            values = {G.stats.get(v) for v in comp}
            if len(values) != 1 or None in values:
                print(f"warning: statistic not constant on {comp[0]}")
                continue
            ident = identify_component(G, comp, G.n)
            if ident is None:
                print(f"warning: component at {comp[0]} is not a standard graph")
                continue
            terms.append((ident[0], values.pop()))
        if terms:
            rendered = " + ".join(
                f"q^{a}*s[{partition_str(lam)}]" for lam, a in sorted(terms, reverse=True)
            )
            print(f"graded: {rendered}")
    if not exp.is_exact():
        print("RESIDUAL")
        print(exp.residual.to_lines())
        return 1
    return 0


def _cmd_transform(args) -> int:
    if args.replay:
        dropped = [opt for opt, value in (("--log", args.log), ("--stop-at", args.stop_at))
                   if value is not None]
        if dropped:
            raise ValueError(f"--replay takes no {' or '.join(dropped)}")
    G = _read_graph(args.graph)
    if args.replay:
        log = TransformLog.from_text(_read_text(args.replay))
        result = replay(G, log)
        _write(args.out, result.to_text())
        return 0
    res = full_pipeline(G, stop_at=args.stop_at)
    _write(args.out, res.graph.to_text())
    if args.log:
        _write(args.log, res.log.to_text())
    if res.log.aborted:
        print(f"ABORT: {res.log.diagnostic}", file=sys.stderr)
        if res.log.failure_graph is not None and args.out not in (None, "-"):
            bad = args.out + ".failed.json"
            _write(bad, res.log.failure_graph.to_text())
            print(f"offending component written to {bad}", file=sys.stderr)
        return 1
    if args.stop_at is None:
        print(
            f"certified: {res.certified}; expansion: {res.expansion.to_string()}",
            file=sys.stderr,
        )
        if not res.certified:
            return 1
    return 0


def _cmd_analyze(args) -> int:
    G = _read_graph(args.graph)
    i = args.color
    sets = defect_sets(G, i)  # rejects a color outside 1 < i < n first
    print(f"color {i}")
    print("types:")
    for v in G.vertices():
        try:
            kind = i_type(G, v, i)
        except StructureError as e:
            kind = f"error ({e})"
        if kind != "none":
            print(f"  {v} [{sig_str(G.sigma[v])}]: {kind}")
    print(f"W  = {sorted(sets.W)}")
    print(f"W0 = {sorted(sets.W0)}")
    print(f"C  = {sorted(sets.C)}")
    print(f"C0 = {sorted(sets.C0)}")
    print(f"U  = {set_U(G, i)}")
    if i >= 4:
        chains = maximal_flat_chains(G, i)
        print("maximal flat chains:")
        for ch in chains:
            print("  " + " -> ".join(ch))
    return 0


def _cmd_iso(args) -> int:
    G = _read_graph(args.left)
    H = _read_graph(args.right)
    mapping = find_isomorphism(G, H)
    if mapping is None:
        print("NONE")
        return 1
    for u in sorted(mapping):
        print(f"{u} -> {mapping[u]}")
    return 0


def _cmd_export_dot(args) -> int:
    G = _read_graph(args.graph)
    _write(args.out, G.to_dot())
    return 0


def _cmd_fixtures_list(args) -> int:
    for name in fixture_names():
        print(f"{name}: {len(fixture(name).sigma)} vertices")
    return 0


def _cmd_fixtures_show(args) -> int:
    _write(args.out, fixture(args.name).to_text())
    return 0


def _cmd_fixtures_verify(args) -> int:
    failures = [f for name in fixture_names() for f in verify_fixture(name)]
    for f in failures:
        print(f)
    print("fixtures:", "all expectations hold" if not failures else f"{len(failures)} failures")
    return 0 if not failures else 1


def _cmd_conjecture_4prime(args) -> int:
    hits = []
    for name in fixture_names():
        F = fixture(name)
        if check_lsp(F, 6).holds and not (check_axiom4a(F).holds and check_axiom4b(F).holds):
            hits.append(name)
    print("fixtures with degree-6 positivity but failing 4'a/4'b:", hits or "none")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="degraphs",
        description="dual equivalence graphs: checks, expansions, transformations",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("standard", help="emit the standard graph of a partition")
    sp.add_argument("partition", help="comma-separated parts, e.g. 3,2")
    sp.add_argument("--out", default="-")
    sp.set_defaults(func=_cmd_standard)

    sp = sub.add_parser("check", help="run axiom and positivity checks")
    sp.add_argument("graph")
    sp.add_argument("--axiom", action="append", type=int, choices=range(1, 7))
    sp.add_argument("--lsf", action="append", type=int, choices=(4, 5, 6))
    sp.add_argument("--lsp", action="append", type=int, choices=(4, 5, 6))
    sp.add_argument("--axiom4a", action="store_true")
    sp.add_argument("--axiom4b", action="store_true")
    sp.add_argument("--lsp-all", action="store_true", dest="lsp_all")
    sp.add_argument("--format", choices=("human", "json"), default="human")
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("expand", help="Schur expansion of the generating function")
    sp.add_argument("graph")
    sp.set_defaults(func=_cmd_expand)

    sp = sub.add_parser("transform", help="run the rewiring pipeline")
    sp.add_argument("graph")
    sp.add_argument("--out", default="-")
    sp.add_argument("--log")
    sp.add_argument("--stop-at", type=int, dest="stop_at")
    sp.add_argument("--replay")
    sp.set_defaults(func=_cmd_transform)

    sp = sub.add_parser("analyze", help="types, chains, defect sets, U")
    sp.add_argument("graph")
    sp.add_argument("--color", type=int, required=True)
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("iso", help="isomorphism between two graph files")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.set_defaults(func=_cmd_iso)

    sp = sub.add_parser("export-dot", help="DOT rendering of a graph file")
    sp.add_argument("graph")
    sp.add_argument("--out", default="-")
    sp.set_defaults(func=_cmd_export_dot)

    sp = sub.add_parser("fixtures", help="the paper's figures as built-in graphs")
    actions = sp.add_subparsers(dest="action", required=True)
    actions.add_parser("list", help="names and sizes").set_defaults(func=_cmd_fixtures_list)
    ap = actions.add_parser("show", help="emit one fixture")
    ap.add_argument("name")
    ap.add_argument("--out", default="-")
    ap.set_defaults(func=_cmd_fixtures_show)
    ap = actions.add_parser("verify", help="check every fixture's recorded expectations")
    ap.set_defaults(func=_cmd_fixtures_verify)
    ap = actions.add_parser("conjecture-4prime", help="fixtures with LSP6 failing 4'a or 4'b")
    ap.set_defaults(func=_cmd_conjecture_4prime)

    return p


# built on first use; parse_args keeps no state, so one parser serves every call
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    _parser = _parser or build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as e:
        # str() of a KeyError quotes its message
        message = e.args[0] if isinstance(e, KeyError) and e.args else e
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
