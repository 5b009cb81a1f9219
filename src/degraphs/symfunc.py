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

from .combinatorics import (
    Partition,
    Signature,
    check_partition,
    descent_signature,
    enumerate_partitions,
    enumerate_syt,
    partition_str,
    sig_str,
    superstandard_signature,
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

    def coefficient(self, sig: Signature) -> int:
        return self.coeffs.get(sig, 0)

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
def _elimination_order(n: int) -> tuple[tuple[Partition, Signature], ...]:
    """Partitions of n in descending lex order, each with its superstandard
    signature."""
    return tuple((lam, superstandard_signature(lam)) for lam in enumerate_partitions(n))


def expand_in_schur(f: QSym) -> SchurExpansion:
    """Triangular solve against the Schur basis.

    Partitions are eliminated in dominance-descending (descending lex) order
    by matching the coefficient of each superstandard signature; whatever is
    left over lands in the residual.
    """
    remaining = f
    coeffs: dict[Partition, int] = {}
    for lam, key in _elimination_order(f.degree):
        c = remaining.coefficient(key)
        if c != 0:
            coeffs[lam] = c
            remaining = remaining - schur_to_fundamental(lam).scale(c)
    return SchurExpansion(coeffs, remaining)


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
