"""Quasisymmetric arithmetic and the triangular Schur solve."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degraphs.combinatorics import (
    dominance_ge,
    enumerate_partitions,
    sig_from_str,
    sig_str,
    superstandard_signature,
)
from degraphs.symfunc import (
    QSym,
    expand_in_schur,
    is_schur_positive,
    is_single_schur,
    schur_to_fundamental,
)


def triangularity_holds(n: int) -> bool:
    """Superstandard signature of lam occurs in s_mu only when mu >= lam."""
    for lam in enumerate_partitions(n):
        key = superstandard_signature(lam)
        for mu in enumerate_partitions(n):
            if schur_to_fundamental(mu).coeffs.get(key, 0) != 0 and not dominance_ge(mu, lam):
                return False
    return True


class TestQSym:
    def test_zero_coefficients_dropped(self):
        f = QSym(3, {(1, 1): 1, (1, -1): 0})
        assert f.coeffs == {(1, 1): 1}

    def test_length_guard(self):
        with pytest.raises(ValueError):
            QSym(3, {(1,): 1})

    def test_arithmetic(self):
        a = QSym(3, {(1, 1): 2})
        b = QSym(3, {(1, 1): -2, (1, -1): 1})
        assert (a + b).coeffs == {(1, -1): 1}
        assert (a - a).is_zero()
        assert a.scale(3).coeffs == {(1, 1): 6}

    def test_to_lines(self):
        """One line per signature in order, as the CLI prints a residual."""
        f = QSym(4, {sig_from_str("+-+"): 2, sig_from_str("-+-"): -1})
        assert f.to_lines() == "-+- -1\n+-+ 2"


class TestSchurToFundamental:
    def test_shape_32_matches_fig1_multiset(self):
        f = schur_to_fundamental((3, 2))
        assert {sig_str(s): c for s, c in f.coeffs.items()} == {
            "+-++": 1, "-+-+": 1, "-++-": 1, "+-+-": 1, "++-+": 1,
        }

    def test_single_row(self):
        assert schur_to_fundamental((2,)).coeffs == {(1,): 1}

    def test_shape_22_computed(self):
        f = schur_to_fundamental((2, 2))
        assert {sig_str(s) for s in f.coeffs} == {"+-+", "-+-"}
        assert all(c == 1 for c in f.coeffs.values())


class TestExpansion:
    def test_round_trip_all_shapes(self):
        for n in range(1, 9):
            for lam in enumerate_partitions(n):
                exp = expand_in_schur(schur_to_fundamental(lam))
                assert exp.coeffs == {lam: 1}
                assert exp.residual.is_zero()

    def test_triangularity(self):
        for n in range(1, 8):
            assert triangularity_holds(n)

    def test_single_row_string(self):
        f = QSym(4, {(1, 1, 1): 1})
        exp = expand_in_schur(f)
        assert exp.coeffs == {(4,): 1}
        assert exp.to_string() == "s[4]"

    def test_random_nonnegative_combinations(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(2, 7)
            coeffs = {
                lam: rng.randint(0, 5)
                for lam in rng.sample(
                    enumerate_partitions(n), k=min(3, len(enumerate_partitions(n)))
                )
            }
            coeffs = {lam: c for lam, c in coeffs.items() if c}
            f = QSym(n, {})
            for lam, c in coeffs.items():
                f = f + schur_to_fundamental(lam).scale(c)
            exp = expand_in_schur(f)
            assert exp.coeffs == coeffs and exp.residual.is_zero()

    @settings(max_examples=60)
    @given(st.integers(2, 6), st.data())
    def test_linearity(self, n, data):
        parts = enumerate_partitions(n)
        lam = data.draw(st.sampled_from(parts))
        mu = data.draw(st.sampled_from(parts))
        a = data.draw(st.integers(0, 4))
        b = data.draw(st.integers(0, 4))
        f = schur_to_fundamental(lam).scale(a)
        g = schur_to_fundamental(mu).scale(b)
        left = expand_in_schur(f + g)
        want = {}
        for key, c in ((lam, a), (mu, b)):
            if c:
                want[key] = want.get(key, 0) + c
        want = {k: c for k, c in want.items() if c}
        assert left.coeffs == want and left.residual.is_zero()

    def test_any_function_matches_the_walk_over_every_partition(self):
        """On integer combinations of arbitrary signatures, most of them not
        symmetric, the coefficients and the residual are those of the solve
        that reaches every partition of n in descending lex order."""
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 7)
            sigs = [tuple(rng.choice((1, -1)) for _ in range(n - 1)) for _ in range(6)]
            f = QSym(n, {s: rng.randint(-3, 3) for s in sigs})
            for lam in rng.sample(enumerate_partitions(n), k=min(2, len(enumerate_partitions(n)))):
                f = f + schur_to_fundamental(lam).scale(rng.randint(1, 3))
            remaining, coeffs = f, {}
            for lam in enumerate_partitions(n):
                c = remaining.coeffs.get(superstandard_signature(lam), 0)
                if c:
                    coeffs[lam] = c
                    remaining = remaining - schur_to_fundamental(lam).scale(c)
            exp = expand_in_schur(f)
            assert exp.coeffs == coeffs and exp.residual == remaining

    def test_degree_60_is_not_walked(self, monkeypatch):
        """A one-vertex graph of type (1, 60), and the empty graph of type
        (80, 80) through the pipeline, expand without listing the
        partitions of their degree."""
        import degraphs.combinatorics
        import degraphs.symfunc
        from degraphs.graph import SignedColoredGraph
        from degraphs.transform import full_pipeline

        listed = enumerate_partitions

        def small_only(n):
            if n > 30:
                raise AssertionError(f"listed the partitions of {n}")
            return listed(n)

        monkeypatch.setattr(degraphs.combinatorics, "enumerate_partitions", small_only)
        monkeypatch.setattr(degraphs.symfunc, "enumerate_partitions", small_only, raising=False)
        for sig, text in (("+" * 59, "s[60]"), ("-" + "+" * 58, "RESIDUAL")):
            G = SignedColoredGraph(1, 60, {"v": sig_from_str(sig)}, [])
            assert expand_in_schur(G.generating_function()).to_string() == text
        res = full_pipeline(SignedColoredGraph(80, 80, {}, []))
        assert res.certified and res.expansion.to_string() == "0"


class TestPositivity:
    def test_known_negative_example(self):
        f = QSym.from_signatures(4, [sig_from_str("++-"), sig_from_str("--+")])
        rep = is_schur_positive(f)
        assert not rep.positive

    def test_schur_is_positive(self):
        assert is_schur_positive(schur_to_fundamental((3, 1))).positive

    def test_single_schur_detection(self):
        assert is_single_schur(schur_to_fundamental((3, 2))) == (3, 2)
        assert is_single_schur(schur_to_fundamental((2, 2)).scale(2)) is None
        assert is_single_schur(QSym(2, {(1,): 1})) == (2,)

    def test_expansion_string_format(self):
        f = (
            schur_to_fundamental((3, 2))
            + schur_to_fundamental((3, 1, 1))
            + schur_to_fundamental((2, 2, 1))
        )
        assert expand_in_schur(f).to_string() == "s[3,2]+s[3,1,1]+s[2,2,1]"
        g = schur_to_fundamental((2, 2)).scale(2)
        assert expand_in_schur(g).to_string() == "2*s[2,2]"
