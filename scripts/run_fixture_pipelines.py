#!/usr/bin/env python3
"""Run the rewiring pipeline over every built-in fixture and report what
happened: the steps taken, the certification outcome, and the expansion."""

import argparse

from degraphs.fixtures import fixture, fixture_names
from degraphs.transform import full_pipeline


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()

    for name in fixture_names():
        G = fixture(name)
        res = full_pipeline(G)
        steps = ", ".join(
            f"{s.kind}_{s.color}@{s.anchor}" + (f"(r={s.variant})" if s.variant else "")
            for s in res.log.steps
        )
        print(f"{name} ({len(G.sigma)} vertices)")
        print(f"  steps: {steps or 'none'}")
        if res.certified:
            shapes = ", ".join(str(lam) for lam, _ in res.components)
            print(f"  certified: {res.expansion.to_string()}  components: {shapes}")
        else:
            print(f"  aborted: {res.log.diagnostic}")
        print()


if __name__ == "__main__":
    main()
