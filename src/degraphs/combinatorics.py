"""Partitions, standard Young tableaux, descent signatures, and elementary
dual equivalence moves.

Conventions used throughout the package:

* A partition is a tuple of weakly decreasing positive integers.
* Tableaux are stored in French notation: ``rows[0]`` is the bottom row and
  row indices increase upward.  Entries increase left to right along rows
  and bottom to top up columns.
* A signature is a tuple over ``{+1, -1}``; the descent signature of a
  tableau on ``{1..n}`` has length ``n - 1``.
* The reading word lists rows left to right, starting from the top row and
  moving down.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, prod

Partition = tuple[int, ...]
Tableau = tuple[tuple[int, ...], ...]
Signature = tuple[int, ...]


def check_partition(parts) -> Partition:
    """Normalize to a tuple and validate weak decrease / positivity."""
    lam = tuple(int(p) for p in parts)
    for k in range(len(lam) - 1):
        if lam[k] < lam[k + 1]:
            raise ValueError(f"parts not weakly decreasing: {lam}")
    if lam and lam[-1] < 1:
        raise ValueError(f"parts must be positive: {lam}")
    return lam


def partition_str(lam: Partition) -> str:
    return ",".join(str(p) for p in lam)


def parse_partition(text: str) -> Partition:
    parts = [p for p in text.replace(" ", "").split(",") if p]
    if not parts:
        raise ValueError(f"empty partition spec: {text!r}")
    return check_partition(int(p) for p in parts)


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n, in descending lexicographic order.

    Descending lex refines dominance: mu > nu in dominance implies mu
    precedes nu here.
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    out: list[Partition] = []

    def rec(remaining: int, maxpart: int, prefix: list[int]):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(maxpart, remaining), 0, -1):
            prefix.append(p)
            rec(remaining - p, p, prefix)
            prefix.pop()

    rec(n, n, [])
    return out


def dominance_ge(mu: Partition, nu: Partition) -> bool:
    """True iff mu >= nu in dominance order (same size required)."""
    if sum(mu) != sum(nu):
        raise ValueError(f"partitions of different sizes: {mu} vs {nu}")
    total_mu = 0
    total_nu = 0
    for k in range(max(len(mu), len(nu))):
        total_mu += mu[k] if k < len(mu) else 0
        total_nu += nu[k] if k < len(nu) else 0
        if total_mu < total_nu:
            return False
    return True


# ---------------------------------------------------------------------------
# standard Young tableaux


def is_standard(t: Tableau) -> bool:
    rows = [list(r) for r in t]
    n = sum(len(r) for r in rows)
    seen = sorted(v for r in rows for v in r)
    if seen != list(range(1, n + 1)):
        return False
    for r in range(len(rows)):
        if r + 1 < len(rows) and len(rows[r + 1]) > len(rows[r]):
            return False
        for c in range(len(rows[r])):
            if c + 1 < len(rows[r]) and rows[r][c] >= rows[r][c + 1]:
                return False
            if r + 1 < len(rows) and c < len(rows[r + 1]) and rows[r][c] >= rows[r + 1][c]:
                return False
    return True


@lru_cache(maxsize=None)
def enumerate_syt(shape: Partition) -> tuple[Tableau, ...]:
    """All SYT of the given shape, sorted by bottom-up row reading, which
    for tableaux of one shape is their order as tuples.  Each is a tableau
    of the shape with one corner removed, n put in that corner: built on the
    cached tableaux of the smaller shapes."""
    shape = check_partition(shape)
    if not shape:
        return ((),)
    n = sum(shape)
    results: list[Tableau] = []
    for r, p in enumerate(shape):
        if r + 1 < len(shape) and shape[r + 1] == p:
            continue  # the cell at the end of row r is not a corner
        if p == 1:  # the top row is that cell alone
            results += [t + ((n,),) for t in enumerate_syt(shape[:r])]
        else:
            inner = shape[:r] + (p - 1,) + shape[r + 1 :]
            results += [t[:r] + (t[r] + (n,),) + t[r + 1 :] for t in enumerate_syt(inner)]
    results.sort()
    return tuple(results)


@lru_cache(maxsize=None)
def count_syt(shape: Partition) -> int:
    """f^lam by the hook length formula: n! over the product of the hooks."""
    shape = check_partition(shape)
    cols = [sum(1 for p in shape if p > c) for c in range(shape[0] if shape else 0)]
    hooks = prod(p - c + cols[c] - r - 1 for r, p in enumerate(shape) for c in range(p))
    return factorial(sum(shape)) // hooks


def tableau_id(t: Tableau) -> str:
    """Canonical serialization: rows bottom to top, '|' separated."""
    return "|".join([",".join(map(str, row)) for row in t])


def tableau_from_id(text: str) -> Tableau:
    t = tuple(tuple(int(v) for v in row.split(",")) for row in text.split("|"))
    if not is_standard(t):
        raise ValueError(f"not a standard tableau: {text!r}")
    return t


def reading_word(t: Tableau) -> tuple[int, ...]:
    """Rows left to right, top row first, then downward."""
    seq: list[int] = []
    for row in reversed(t):
        seq.extend(row)
    return tuple(seq)


def _row_of(t: Tableau, value: int) -> int:
    for r, row in enumerate(t):
        if value in row:
            return r
    raise ValueError(f"value {value} not in tableau")


def descent_signature(t: Tableau) -> Signature:
    """+1 at i when i sits weakly above i+1, -1 when i+1 sits strictly above."""
    n = sum(len(r) for r in t)
    sig = []
    for i in range(1, n):
        sig.append(1 if _row_of(t, i) >= _row_of(t, i + 1) else -1)
    return tuple(sig)


def dual_equiv_involution(t: Tableau, i: int) -> Tableau:
    """Elementary dual equivalence d_i for 1 < i < n.

    If i sits between i-1 and i+1 in the reading word, t is fixed;
    otherwise i is exchanged with whichever of i-1, i+1 is further away
    in the reading word.
    """
    n = sum(len(r) for r in t)
    if not 1 < i < n:
        raise ValueError(f"need 1 < i < n, got i={i}, n={n}")
    word = reading_word(t)
    pos = {v: k for k, v in enumerate(word)}
    lo, mid, hi = pos[i - 1], pos[i], pos[i + 1]
    if min(lo, hi) < mid < max(lo, hi):
        return t
    other = i - 1 if abs(mid - lo) > abs(mid - hi) else i + 1
    swapped = tuple(
        tuple(other if v == i else i if v == other else v for v in row) for row in t
    )
    return swapped


def tableau_moves(t: Tableau) -> tuple[str, tuple[int, ...], Signature, dict[int, int]]:
    """One read of t: its ``tableau_id``, its row word (the row of each
    entry 1..n), its descent signature, and for each color 1 < i < n that
    d_i does not fix, the entry d_i exchanges with i.  Agrees with
    ``descent_signature`` and ``dual_equiv_involution``, which stay the
    single-color definitions.

    Everything is read off the row word: for a < b, a comes before b in
    the reading word exactly when a sits weakly above b.  So with x, y, z
    the rows of i-1, i, i+1, d_i moves i, which then does not lie between
    the other two, exactly when (x >= y) != (y >= z), and exchanges it with
    i-1, then the further of the two, exactly when (x >= z) == (x >= y).
    """
    rows = [0] * sum(map(len, t))
    for r, entries in enumerate(t):
        for v in entries:
            rows[v - 1] = r
    sig = tuple([1 if x >= y else -1 for x, y in zip(rows, rows[1:])])
    moves = {}
    for i, (x, y, z) in enumerate(zip(rows, rows[1:], rows[2:]), 2):
        if (x >= y) != (y >= z):
            moves[i] = i - 1 if (x >= z) == (x >= y) else i + 1
    return tableau_id(t), tuple(rows), sig, moves


def superstandard_signature(lam: Partition) -> Signature:
    """Signature of the row-by-row filling: -1 exactly at partial row sums."""
    lam = check_partition(lam)
    n = sum(lam)
    descents = set()
    total = 0
    for p in lam[:-1]:
        total += p
        descents.add(total)
    return tuple(-1 if k in descents else 1 for k in range(1, n))


# ---------------------------------------------------------------------------
# signature rendering


def sig_str(sig: Signature) -> str:
    return "".join("+" if s > 0 else "-" for s in sig)


@lru_cache(maxsize=None)
def sig_from_str(text: str) -> Signature:
    """The signature written as ``text``, one of + and - per position.
    Cached: a graph repeats its few signatures over all its vertices."""
    out = []
    for ch in text.strip():
        if ch == "+":
            out.append(1)
        elif ch in "-−":
            out.append(-1)
        else:
            raise ValueError(f"bad signature character {ch!r} in {text!r}")
    return tuple(out)
