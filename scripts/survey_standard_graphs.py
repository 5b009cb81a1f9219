#!/usr/bin/env python3
"""Survey the standard graphs up to a given degree: axiom status, positivity
conditions, defect sets, identification of restricted components, and
automorphism counts.

The restriction column reads ok when, for every 3 <= m < n, each component
of G_lam under colors 2..m-1 identifies at degree m on G_lam itself, as the
cover-splitting map identifies its pieces.  The automorphism column records
the empirical rigidity of the standard graphs, which the cover-splitting map
relies on when it matches restricted components against each other.
"""

import argparse
import time

from degraphs.axioms import check_axiom, check_lsf, check_lsp
from degraphs.combinatorics import enumerate_partitions, partition_str
from degraphs.standard import build_standard_deg, identify_component, standard_automorphisms
from degraphs.structure import defect_sets
from degraphs.symfunc import expand_in_schur


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=8)
    args = parser.parse_args()

    build_s = check_s = 0.0
    print(f"{'shape':>14} {'|V|':>5} {'axioms':>7} {'lsf/lsp':>8} "
          f"{'defects':>8} {'restr':>6} {'autos':>6} expansion")
    for n in range(1, args.max_n + 1):
        for lam in enumerate_partitions(n):
            t0 = time.perf_counter()
            G = build_standard_deg(lam)
            t1 = time.perf_counter()
            axioms_ok = all(check_axiom(G, k).holds for k in range(1, 7))
            local_ok = all(
                check_lsf(G, m).holds and check_lsp(G, m).holds for m in (4, 5, 6)
            )
            defects_empty = all(
                defect_sets(G, i).all_empty() for i in range(3, max(G.n, 3))
            )
            restr_ok = all(
                identify_component(G, piece, m) is not None
                for m in range(3, G.n)
                for piece in G.components(range(2, m))
            )
            autos = standard_automorphisms(lam)
            exp = expand_in_schur(G.generating_function()).to_string()
            build_s += t1 - t0
            check_s += time.perf_counter() - t1
            print(
                f"{partition_str(lam):>14} {len(G.sigma):>5} "
                f"{'ok' if axioms_ok else 'FAIL':>7} "
                f"{'ok' if local_ok else 'FAIL':>8} "
                f"{'none' if defects_empty else 'FAIL':>8} "
                f"{'ok' if restr_ok else 'FAIL':>6} "
                f"{autos:>6} {exp}"
            )
    print(f"\nelapsed: build {build_s:.2f}s, check {check_s:.2f}s")


if __name__ == "__main__":
    main()
