"""Acceptance criteria.

Each test covers one numbered criterion, collects every violation, prints a
single pass/fail line, and fails with the collected details.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import random
import time

import pytest

from degraphs.axioms import (
    check_axiom,
    check_axiom4a,
    check_axiom4b,
    check_lsf,
    check_lsp,
    classify_small_component,
    is_dual_equivalence_graph,
)
from degraphs.combinatorics import enumerate_partitions, sig_str
from degraphs.fixtures import fixture
from degraphs.standard import build_standard_deg, identify_component
from degraphs.structure import defect_sets, negatively_dominant
from degraphs.symfunc import (
    QSym,
    expand_in_schur,
    is_schur_positive,
    schur_to_fundamental,
)
from degraphs.transform import (
    TransformError,
    apply_gamma,
    apply_phi,
    apply_psi,
    apply_step,
    apply_theta,
    full_pipeline,
)

from conftest import corpus, gamma_instance, relabel_random


def _report(number: int, label: str, problems: list[str]):
    status = "PASS" if not problems else "FAIL"
    print(f"criterion {number} ({label}): {status}")
    assert not problems, f"criterion {number}: {problems[:10]}"


def test_criterion_1_standard_graph_suite():
    problems = []
    start = time.time()
    for n in range(3, 9):
        for lam in enumerate_partitions(n):
            G = build_standard_deg(lam)
            for k in range(1, 7):
                if not check_axiom(G, k).holds:
                    problems.append(f"{lam}: axiom {k}")
            for m in (4, 5, 6):
                if not check_lsf(G, m).holds:
                    problems.append(f"{lam}: LSF{m}")
                if not check_lsp(G, m).holds:
                    problems.append(f"{lam}: LSP{m}")
            exp = expand_in_schur(G.generating_function())
            if exp.coeffs != {lam: 1} or not exp.residual.is_zero():
                problems.append(f"{lam}: expansion {exp.to_string()}")
    elapsed = time.time() - start
    if elapsed >= 60:
        problems.append(f"took {elapsed:.1f}s (budget 60s)")
    _report(1, "standard graph suite", problems)


def test_criterion_2_fig1_reproduction():
    problems = []
    G = build_standard_deg((3, 2))
    sigs = sorted(sig_str(s) for s in G.sigma.values())
    if sigs != sorted(["+-++", "-+-+", "-++-", "+-+-", "++-+"]):
        problems.append(f"signatures {sigs}")
    by_sig = {sig_str(s): v for v, s in G.sigma.items()}
    a, b, c, d, e = (by_sig[k] for k in ("+-++", "-+-+", "-++-", "+-+-", "++-+"))
    want = {
        (2, frozenset((a, b))), (3, frozenset((a, b))),
        (4, frozenset((b, c))),
        (2, frozenset((c, d))),
        (3, frozenset((d, e))), (4, frozenset((d, e))),
    }
    got = {(k, frozenset((u, w))) for k, u, w in G.edge_triples()}
    if got != want:
        problems.append(f"edges {sorted(got)}")
    _report(2, "fig1 reproduced", problems)


def test_criterion_3_classification():
    problems = []
    cases = [
        ("fig4a", "s31_plus_k_s22", 1),
        ("fig4b", "s211_plus_k_s22", 1),
        ("fig4c", "k_s22", 2),
        ("fig5a", "s32_plus_k_s311", 1),
        ("fig5b", "s221_plus_k_s311", 1),
        ("fig5c", "k_s311", 2),
    ]
    for name, kind, k in cases:
        G = fixture(name)
        comp = G.components(G.colors())[0]
        got = classify_small_component(G, comp)
        if not (got.ok and got.kind == kind and got.k == k):
            problems.append(f"{name}: {got}")
    _report(3, "small-degree classification", problems)


def test_criterion_4_cover_counterexample():
    problems = []
    G = fixture("fig6")
    for k in range(1, 6):
        if not check_axiom(G, k).holds:
            problems.append(f"axiom {k} should pass")
    if check_axiom(G, 6).holds:
        problems.append("axiom 6 should fail")
    exp = expand_in_schur(G.generating_function())
    if exp.to_string() != "2*s[3,2,1]":
        problems.append(f"expansion {exp.to_string()}")
    H_comp = G.components(range(2, 6))[0]
    pivot = negatively_dominant(G, H_comp, 5)
    H = apply_theta(G, pivot[0], 5)
    comps = H.components(range(2, 6))
    if len(comps) != 2:
        problems.append(f"{len(comps)} components after split")
    for comp in comps:
        out = identify_component(H, comp, H.n)
        if out is None or out[0] != (3, 2, 1):
            problems.append(f"component at {comp[0]} identifies as {out}")
    _report(4, "cover counterexample and split", problems)


@pytest.mark.parametrize(
    "name,target,expansion,shapes",
    [
        (
            "fig8",
            "fig9",
            "s[3,2]+s[3,1,1]+s[2,2,1]",
            [(2, 2, 1), (3, 1, 1), (3, 2)],
        ),
        (
            "fig12",
            "fig13",
            "s[4,1]+s[3,2]+s[3,1,1]",
            [(3, 1, 1), (3, 2), (4, 1)],
        ),
    ],
)
def test_criterion_5_golden_runs(name, target, expansion, shapes):
    problems = []
    G = fixture(name)
    res = full_pipeline(G)
    if not res.certified:
        problems.append(f"not certified: {res.log.diagnostic}")
    if not is_dual_equivalence_graph(res.graph):
        problems.append("result fails an axiom")
    if res.expansion.to_string() != expansion:
        problems.append(f"expansion {res.expansion.to_string()}")
    if sorted(lam for lam, _ in res.components) != shapes:
        problems.append(f"components {res.components}")
    if res.graph != fixture(target):
        problems.append("result differs from the recorded transformed graph")
    base = G.generating_function()
    current = G
    for step in res.log.steps:
        current = apply_step(current, step)
        if current.generating_function() != base:
            problems.append(f"generating function drifted at {step}")
    _report(5, f"golden run {name}", problems)


@pytest.mark.parametrize(
    "name,fails_4a,fails_4b",
    [("fig19", True, False), ("fig21", False, True)],
)
def test_criterion_6_negative_controls(name, fails_4a, fails_4b):
    problems = []
    G = fixture(name)
    if check_axiom4a(G).holds == fails_4a:
        problems.append("axiom 4a expectation")
    if check_axiom4b(G).holds == fails_4b:
        problems.append("axiom 4b expectation")
    if check_lsp(G, 6).holds:
        problems.append("degree-6 positivity should fail")
    res = full_pipeline(G)
    if not res.log.aborted or not res.log.diagnostic:
        problems.append("pipeline should abort with a diagnostic")
    if res.certified or res.expansion is not None:
        problems.append("pipeline must not certify")
    _report(6, f"negative control {name}", problems)


def _phi_hypotheses(G, i) -> bool:
    """Restriction shape under which the shrink guarantees are stated."""
    if i - 2 >= 2 and not is_dual_equivalence_graph(G.restrict(i - 2)):
        return False
    return check_axiom(G.restrict(i), 4).holds


def test_criterion_7_randomized_property_suite():
    problems = []
    rng = random.Random(1729)
    bases = [fixture(n) for n in ("fig4a", "fig4b", "fig4c", "fig5a", "fig5b", "fig5c", "fig8", "fig12")]
    bases.append(gamma_instance())
    bases.append(gamma_instance(flip=True))
    applied = 0
    trials = 0
    while applied < 200 and trials < 2000:
        trials += 1
        base = bases[trials % len(bases)]
        G, _ = relabel_random(base, rng)
        i = rng.randrange(3, G.n)
        sets = defect_sets(G, i)
        kind = rng.choice(("phi", "psi", "gamma"))
        try:
            if kind == "phi":
                if not sets.W0 or not _phi_hypotheses(G, i):
                    continue
                anchor = rng.choice(sorted(sets.W0))
                H = apply_phi(G, anchor, i)
                after = defect_sets(H, i)
                if not after.W < sets.W:
                    problems.append(f"phi at {anchor} color {i}: W not shrunk")
            elif kind == "psi":
                if not sets.C0 or not _phi_hypotheses(G, i):
                    continue
                anchor = rng.choice(sorted(sets.C0))
                H = apply_psi(G, anchor, i)
                after = defect_sets(H, i)
                if not after.C < sets.C:
                    problems.append(f"psi at {anchor} color {i}: C not shrunk")
                if after.W != sets.W:
                    problems.append(f"psi at {anchor} color {i}: W changed")
            else:
                if not _phi_hypotheses(G, i):
                    continue
                candidates = [
                    z
                    for z in G.vertices()
                    if G.neighbor(z, i) is not None
                    and G.neighbor(z, i - 2) is not None
                ]
                rng.shuffle(candidates)
                H = None
                for z in candidates:
                    try:
                        H = apply_gamma(G, z, i)
                        anchor = z
                        break
                    except TransformError:
                        continue
                if H is None:
                    continue
                after = defect_sets(H, i)
                if after.W != sets.W or after.C != sets.C:
                    problems.append(f"gamma at {anchor} color {i}: defect sets moved")
                # preconditions hold again, so the double application restores
                if apply_gamma(H, anchor, i) != G:
                    problems.append(f"gamma at {anchor} color {i}: not an involution")
        except TransformError:
            continue
        applied += 1
        if H.sigma != G.sigma:
            problems.append(f"{kind} changed signatures")
        for c in G.colors():
            if c != i and H.matching(c) != G.matching(c):
                problems.append(f"{kind} changed color {c}")
        if H.generating_function() != G.generating_function():
            problems.append(f"{kind} changed the generating function")
    if applied < 200:
        problems.append(f"only {applied} applicable instances found")
    _report(7, f"defect-set monotonicity over {applied} instances", problems)


def test_criterion_8_equivalence_cross_checks():
    problems = []
    for name, G in corpus(8):
        ax4 = check_axiom(G, 4).holds
        lsf45 = check_lsf(G, 4).holds and check_lsf(G, 5).holds
        if ax4 != lsf45:
            problems.append(f"{name}: axiom4={ax4} lsf45={lsf45}")
        # the degree-6 equivalence is stated for graphs whose three-color
        # components are already in the allowed shapes
        if ax4:
            ax6 = check_axiom(G, 6).holds
            lsf6 = check_lsf(G, 6).holds
            if ax6 != lsf6:
                problems.append(f"{name}: axiom6={ax6} lsf6={lsf6}")
        empty = all(defect_sets(G, i).all_empty() for i in range(3, G.n))
        if empty != ax4:
            problems.append(f"{name}: defects empty={empty} axiom4={ax4}")
    _report(8, "independent code path agreement", problems)


def test_criterion_9_expansion_oracle():
    problems = []
    rng = random.Random(9999)
    for trial in range(100):
        n = rng.randint(2, 7)
        parts = enumerate_partitions(n)
        chosen = rng.sample(parts, k=rng.randint(1, min(4, len(parts))))
        coeffs = {lam: rng.randint(1, 5) for lam in chosen}
        f = QSym(n, {})
        for lam, c in coeffs.items():
            f = f + schur_to_fundamental(lam).scale(c)
        exp = expand_in_schur(f)
        if exp.coeffs != coeffs or not exp.residual.is_zero():
            problems.append(f"trial {trial}: recovery failed for {coeffs}")
    for trial in range(100):
        n = rng.randint(3, 7)
        parts = enumerate_partitions(n)
        chosen = rng.sample(parts, k=rng.randint(1, min(4, len(parts))))
        f = QSym(n, {})
        for lam in chosen:
            f = f + schur_to_fundamental(lam).scale(rng.randint(1, 5))
        # one-term perturbations by the two constant signatures are them-
        # selves Schur functions, so they are excluded from the sample
        while True:
            sig = tuple(rng.choice((1, -1)) for _ in range(n - 1))
            if len(set(sig)) > 1:
                break
        if rng.random() < 0.5:
            g = f + QSym(n, {sig: 1})
        else:
            support = sorted(s for s in f.coeffs if len(set(s)) > 1)
            if not support:
                g = f + QSym(n, {sig: 1})
            else:
                g = f - QSym(n, {rng.choice(support): 1})
        rep = is_schur_positive(g)
        if rep.positive:
            problems.append(f"trial {trial}: perturbation declared positive")
    _report(9, "expansion oracle with perturbations", problems)
