"""Exact arithmetic on sums of fundamental quasisymmetric functions.

A function of degree n is stored as an integer-valued map from signatures of
length n-1.  Schur functions enter through their fundamental expansion: s_lam
is the sum of Q_{sigma(T)} over standard tableaux T of shape lam.  Expansion
back into the Schur basis is a triangular solve that eliminates, in
dominance-descending order, the coefficient of each partition's superstandard
signature.  All arithmetic is exact; there is no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from bisect import insort
from operator import ge, sub

from .combinatorics import (
    Partition,
    Signature,
    check_partition,
    descent_signature,
    enumerate_syt,
    partition_str,
    sig_str,
)


@dataclass(frozen=True)
class QSym:
    """Integer combination of fundamental quasisymmetric functions."""

    degree: int
    coeffs: dict[Signature, int] = field(default_factory=dict)

    def __post_init__(self):
        clean = {s: c for s, c in self.coeffs.items() if c != 0}
        for s in clean:
            if len(s) != self.degree - 1:
                raise ValueError(
                    f"signature {sig_str(s)} has wrong length for degree {self.degree}"
                )
        object.__setattr__(self, "coeffs", clean)

    @staticmethod
    def from_signatures(degree: int, sigs) -> "QSym":
        coeffs: dict[Signature, int] = {}
        for s in sigs:
            coeffs[s] = coeffs.get(s, 0) + 1
        return QSym(degree, coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "QSym") -> "QSym":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        coeffs = dict(self.coeffs)
        for s, c in other.coeffs.items():
            coeffs[s] = coeffs.get(s, 0) + c
        return QSym(self.degree, coeffs)

    def __sub__(self, other: "QSym") -> "QSym":
        return self + other.scale(-1)

    def scale(self, k: int) -> "QSym":
        return QSym(self.degree, {s: k * c for s, c in self.coeffs.items()})

    def to_lines(self) -> str:
        items = sorted(self.coeffs.items())
        return "\n".join(f"{sig_str(s)} {c}" for s, c in items)


@lru_cache(maxsize=None)
def schur_to_fundamental(lam: Partition) -> QSym:
    """s_lam as the multiset of descent signatures over SYT(lam)."""
    lam = check_partition(lam)
    n = sum(lam)
    return QSym.from_signatures(n, (descent_signature(t) for t in enumerate_syt(lam)))


@dataclass(frozen=True)
class SchurExpansion:
    coeffs: dict[Partition, int]
    residual: QSym

    def is_exact(self) -> bool:
        return self.residual.is_zero()

    def to_string(self) -> str:
        """Render like ``s[3,2]+s[3,1,1]+2*s[2,2,1]`` in elimination order."""
        if not self.coeffs and self.residual.is_zero():
            return "0"
        parts: list[str] = []
        for lam in sorted(self.coeffs, reverse=True):
            c = self.coeffs[lam]
            term = f"s[{partition_str(lam)}]"
            if c == 1:
                parts.append(term)
            elif c == -1:
                parts.append(f"-{term}")
            else:
                parts.append(f"{c}*{term}")
        text = "+".join(parts).replace("+-", "-")
        if not self.residual.is_zero():
            text = (text + "+" if text else "") + "RESIDUAL"
        return text if text else "0"


@lru_cache(maxsize=None)
def _superstandard_shape(sig: Signature) -> Partition | None:
    """The partition whose superstandard signature is ``sig``, or None: the
    -1 positions of ``sig`` must be the partial row sums of weakly
    decreasing rows.  Cached: expansions read the same few signatures over
    and over."""
    ends = [k for k, s in enumerate(sig, 1) if s < 0]
    ends.append(len(sig) + 1)
    lam = tuple(map(sub, ends, [0] + ends))
    return lam if all(map(ge, lam, lam[1:])) else None


def expand_in_schur(f: QSym) -> SchurExpansion:
    """Triangular solve against the Schur basis.

    Partitions are eliminated in dominance-descending (descending lex) order
    by matching the coefficient of each superstandard signature; whatever is
    left over lands in the residual.  Only the partitions whose
    superstandard signature has a nonzero coefficient when reached are
    visited: subtracting s_lam changes the superstandard coefficients only
    of partitions that lam dominates, which come later, so the candidates
    are those of the support, and those of each signature a subtraction
    brings into it.
    """
    remaining = dict(f.coeffs)
    # (partition, superstandard signature) ascending: the last is the next
    pending = sorted((lam, s) for s in remaining if (lam := _superstandard_shape(s)))
    coeffs: dict[Partition, int] = {}
    while pending:
        lam, sig = pending.pop()
        c = remaining.get(sig)
        if not c:
            continue
        coeffs[lam] = c
        for s, k in schur_to_fundamental(lam).coeffs.items():
            left = remaining.get(s, 0) - c * k
            if not left:
                del remaining[s]
                continue
            if s not in remaining and (mu := _superstandard_shape(s)):
                insort(pending, (mu, s))
            remaining[s] = left
    return SchurExpansion(coeffs, QSym(f.degree, remaining))


@dataclass(frozen=True)
class PositivityReport:
    positive: bool
    expansion: SchurExpansion
    violation: str | None = None


def is_schur_positive(f: QSym) -> PositivityReport:
    """Positive iff the expansion is exact with nonnegative coefficients."""
    exp = expand_in_schur(f)
    if not exp.is_exact():
        return PositivityReport(False, exp, "nonzero residual (not symmetric)")
    for lam in sorted(exp.coeffs, reverse=True):
        if exp.coeffs[lam] < 0:
            return PositivityReport(
                False, exp, f"negative coefficient {exp.coeffs[lam]} at s[{partition_str(lam)}]"
            )
    return PositivityReport(True, exp, None)


def is_single_schur(f: QSym) -> Partition | None:
    """The unique lam with f = s_lam (coefficient 1), if any."""
    exp = expand_in_schur(f)
    if not exp.is_exact() or len(exp.coeffs) != 1:
        return None
    ((lam, c),) = exp.coeffs.items()
    return lam if c == 1 else None
