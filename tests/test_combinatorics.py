"""Tableau layer, checked against brute-force oracles."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degraphs.combinatorics import (
    count_syt,
    descent_signature,
    dominance_ge,
    dual_equiv_involution,
    enumerate_partitions,
    enumerate_syt,
    is_standard,
    reading_word,
    sig_from_str,
    sig_str,
    superstandard_signature,
    tableau_from_id,
    tableau_id,
    tableau_moves,
)


def brute_partitions(n):
    """Independent enumeration: nondecreasing compositions reversed."""
    out = set()

    def rec(remaining, parts):
        if remaining == 0:
            out.add(tuple(sorted(parts, reverse=True)))
            return
        start = parts[-1] if parts else 1
        for p in range(start, remaining + 1):
            rec(remaining - p, parts + [p])

    rec(n, [])
    return out


def brute_syt(shape):
    """Independent enumeration: filter all permutation fillings."""
    n = sum(shape)
    cells = [(r, c) for r, row in enumerate(shape) for c in range(row)]
    found = set()
    for perm in permutations(range(1, n + 1)):
        rows = [[0] * row for row in shape]
        for (r, c), v in zip(cells, perm):
            rows[r][c] = v
        t = tuple(tuple(r) for r in rows)
        if is_standard(t):
            found.add(t)
    return found


class TestPartitions:
    def test_single(self):
        assert enumerate_partitions(1) == [(1,)]

    def test_four_explicit(self):
        assert enumerate_partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_against_brute_force(self, n):
        got = enumerate_partitions(n)
        assert len(got) == len(set(got))
        assert set(got) == brute_partitions(n)

    def test_six_has_eleven(self):
        assert len(enumerate_partitions(6)) == 11

    def test_order_refines_dominance(self):
        for n in range(2, 8):
            parts = enumerate_partitions(n)
            for i, mu in enumerate(parts):
                for nu in parts[i + 1 :]:
                    assert not dominance_ge(nu, mu) or mu == nu


class TestDominance:
    def test_examples(self):
        assert dominance_ge((3, 2), (2, 2, 1))
        assert not dominance_ge((2, 2, 1), (3, 2))
        # incomparable pair: prefix sums 3,4,5,6 vs 2,4,6,6
        assert not dominance_ge((3, 1, 1, 1), (2, 2, 2))
        assert not dominance_ge((2, 2, 2), (3, 1, 1, 1))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            dominance_ge((3,), (2, 2))

    @given(st.integers(2, 7), st.data())
    def test_prefix_sum_oracle(self, n, data):
        parts = enumerate_partitions(n)
        mu = data.draw(st.sampled_from(parts))
        nu = data.draw(st.sampled_from(parts))

        def oracle(a, b):
            k = max(len(a), len(b))
            pa = [sum(a[: j + 1]) for j in range(k)]
            pb = [sum(b[: j + 1]) for j in range(k)]
            return all(x >= y for x, y in zip(pa, pb))

        assert dominance_ge(mu, nu) == oracle(mu, nu)


class TestSYT:
    @pytest.mark.parametrize(
        "shape", [(3, 2), (2, 2), (4,), (1, 1, 1), (3, 1), (2, 2, 1)]
    )
    def test_against_brute_force(self, shape):
        got = enumerate_syt(shape)
        assert len(got) == len(set(got))
        assert set(got) == brute_syt(shape)

    def test_counts(self):
        assert len(enumerate_syt((3, 2))) == 5
        assert len(enumerate_syt((6,))) == 1
        assert len(enumerate_syt((2, 2))) == 2

    def test_id_round_trip(self):
        for t in enumerate_syt((3, 2, 1)):
            assert tableau_from_id(tableau_id(t)) == t

    def test_hook_length_count_matches_enumeration(self):
        assert count_syt(()) == len(enumerate_syt(())) == 1
        for n in range(1, 11):
            for lam in enumerate_partitions(n):
                assert count_syt(lam) == len(enumerate_syt(lam)), lam

    def test_count_lists_no_tableaux(self):
        count_syt.cache_clear()
        before = enumerate_syt.cache_info().currsize
        assert count_syt((6, 4, 2, 1)) == 17160
        assert count_syt((4, 3, 2, 1)) == 768
        assert enumerate_syt.cache_info().currsize == before


class TestSignatures:
    def test_fig1_values(self):
        assert sig_str(descent_signature(((1, 2, 5), (3, 4)))) == "+-++"
        assert sig_str(descent_signature(((1, 2, 3), (4, 5)))) == "++-+"
        assert sig_str(descent_signature(((1, 2, 3, 4),))) == "+++"

    def test_five_strings_of_shape_32(self):
        sigs = {sig_str(descent_signature(t)) for t in enumerate_syt((3, 2))}
        assert sigs == {"+-++", "-+-+", "-++-", "+-+-", "++-+"}

    def test_superstandard(self):
        assert sig_str(superstandard_signature((3, 2))) == "++-+"
        assert sig_str(superstandard_signature((4,))) == "+++"
        assert sig_str(superstandard_signature((1, 1, 1))) == "--"

    def test_superstandard_is_row_filling_signature(self):
        for n in range(2, 8):
            for lam in enumerate_partitions(n):
                rows = []
                v = 1
                for p in lam:
                    rows.append(tuple(range(v, v + p)))
                    v += p
                assert superstandard_signature(lam) == descent_signature(tuple(rows))

    def test_round_trip_strings(self):
        assert sig_from_str(sig_str((1, -1, 1))) == (1, -1, 1)
        with pytest.raises(ValueError):
            sig_from_str("+*-")


def syt_strategy(max_n=7):
    shapes = [lam for n in range(3, max_n + 1) for lam in enumerate_partitions(n)]

    @st.composite
    def build(draw):
        shape = draw(st.sampled_from(shapes))
        tableaux = enumerate_syt(shape)
        t = draw(st.sampled_from(tableaux))
        i = draw(st.integers(2, sum(shape) - 1))
        return t, i

    return build()


class TestDualEquivalence:
    def test_fig1_edges(self):
        assert dual_equiv_involution(((1, 2, 5), (3, 4)), 2) == ((1, 3, 5), (2, 4))
        assert dual_equiv_involution(((1, 3, 5), (2, 4)), 4) == ((1, 3, 4), (2, 5))

    def test_one_row_fixed(self):
        t = ((1, 2, 3, 4, 5),)
        for i in (2, 3, 4):
            assert dual_equiv_involution(t, i) == t

    @settings(max_examples=200)
    @given(syt_strategy())
    def test_involution(self, case):
        t, i = case
        s = dual_equiv_involution(t, i)
        assert is_standard(s)
        assert dual_equiv_involution(s, i) == t

    @settings(max_examples=200)
    @given(syt_strategy())
    def test_moved_iff_signature_alternates(self, case):
        t, i = case
        sig = descent_signature(t)
        moved = dual_equiv_involution(t, i) != t
        assert moved == (sig[i - 2] == -sig[i - 1])

    @settings(max_examples=200)
    @given(syt_strategy())
    def test_signature_flip_pattern(self, case):
        t, i = case
        s = dual_equiv_involution(t, i)
        if s == t:
            return
        a, b = descent_signature(t), descent_signature(s)
        n = sum(sum(1 for _ in row) for row in t)
        assert a[i - 2] == -b[i - 2] and a[i - 1] == -b[i - 1]
        for h in range(1, n):
            if h < i - 2 or h > i + 1:
                assert a[h - 1] == b[h - 1]

    def test_exhaustive_involution_small(self):
        for n in range(3, 9):
            for lam in enumerate_partitions(n):
                for t in enumerate_syt(lam):
                    for i in range(2, n):
                        s = dual_equiv_involution(t, i)
                        assert is_standard(s)
                        assert dual_equiv_involution(s, i) == t

    def test_reading_word(self):
        assert reading_word(((1, 2, 5), (3, 4))) == (3, 4, 1, 2, 5)


def swap_entries(t, i, j):
    return tuple(tuple(j if v == i else i if v == j else v for v in row) for row in t)


def assert_read_matches_definitions(t):
    """``tableau_moves`` against ``tableau_id``, ``descent_signature`` and
    every d_i."""
    text, rows, sig, moves = tableau_moves(t)
    n = len(rows)
    assert text == tableau_id(t)
    assert all(v in t[rows[v - 1]] for v in range(1, n + 1))
    assert sig == descent_signature(t)
    for i in range(2, n):
        s = dual_equiv_involution(t, i)
        if s == t:
            assert i not in moves
        else:
            assert s == swap_entries(t, i, moves[i])
    return moves


class TestTableauMoves:
    def test_every_small_tableau(self):
        for n in range(1, 9):
            for lam in enumerate_partitions(n):
                for t in enumerate_syt(lam):
                    assert_read_matches_definitions(t)

    def test_single_cell_augmented_tableaux(self):
        """With n+1 added at the end of a row, the moves below n are those
        of the tableau without it: the read of an embedded tableau is exact
        there."""
        for n in range(1, 8):
            for lam in enumerate_partitions(n):
                for r in range(len(lam) + 1):
                    if r and (lam + (0,))[r] >= lam[r - 1]:
                        continue
                    for t in enumerate_syt(lam):
                        rows = [list(row) for row in t] + [[]]
                        rows[r].append(n + 1)
                        full = tuple(tuple(row) for row in rows if row)
                        moves = assert_read_matches_definitions(full)
                        below = {i: j for i, j in moves.items() if i < n}
                        assert below == tableau_moves(t)[3]
