"""Detection of the A^r = A property and its exact arithmetic consequences.

A matrix with A^r = A for some r >= 2 is called r-potent (idempotent is the
r = 2 case).  For such matrices A^(r-1) is an idempotent projection and the
rank of A equals the trace of that projection, an identity this module checks
with exact arithmetic only.  Reports take a ``Potent``, a matrix checked
once, so none of them re-checks potency or recomputes a power.  The walk that
finds the minimal exponent stops at the first power that no potent matrix can
have and returns that power as a ``NonPotency`` certificate.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from typing import Callable, Iterator

from .matrix import RMatrix, format_entry

DEFAULT_POTENCY_CAP = 64


def is_r_potent(a: RMatrix, r: int) -> bool:
    """True iff the exact r-th power of ``a`` equals ``a``."""
    if r < 2:
        raise ValueError("potency exponent must be at least 2")
    return a.pow(r) == a


@dataclass(frozen=True)
class Potent:
    """A matrix A with A^r = A, checked once.

    ``powers`` is A, ..., A^d for the least d with A^(d+1) = A, kept by the
    ``minimal_potency`` walk that found d; A^r = A exactly when d divides
    r - 1.  Past the walk's cap d is unknown and ``powers`` is None.  Only
    ``potency_report`` and ``minimal_potency`` build one: holding one proves A^r = A.
    """

    a: RMatrix
    r: int
    powers: tuple[RMatrix, ...] | None

    @cached_property
    def projection(self) -> RMatrix:
        """A^(r-1), which squares to itself because A^r = A."""
        return self.a.pow(self.r - 1) if self.powers is None else self.powers[-1]

    @cached_property
    def rank(self) -> int:
        return self.a.rank()

    def power_cycle(self) -> Iterator[RMatrix]:
        """A, A^2, ... over one period (d, or else r - 1), so A^j is item (j - 1) mod its length."""
        if self.powers is not None:
            return iter(self.powers)
        return accumulate(repeat(self.a, self.r - 2), operator.matmul, initial=self.a)

    def per_exponent(self, test: Callable[[RMatrix], bool]) -> tuple[bool, ...]:
        """``test`` of A^j for each j in 1, ..., r-1, run once per power in the cycle."""
        flags = [test(m) for m in self.power_cycle()]
        return tuple(flags[j % len(flags)] for j in range(self.r - 1))


@dataclass(frozen=True)
class NonPotency:
    """Proof that no r >= 2 has A^r = A: the power A^k breaks ``invariant``.

    Let A >= 0 with A^r = A.  Its minimal polynomial divides x^r - x, which
    has distinct roots, so A is diagonalizable with eigenvalues 0 and
    (r-1)-th roots of unity, rank(A) of them nonzero.  Hence every power A^k
    has a trace that is a sum of rank(A) roots of unity: an algebraic integer
    that is rational, so an integer, and it lies in [0, rank A] within
    [0, n] (A^k >= 0 has a nonnegative diagonal).  And A^k != 0 when A != 0,
    since A = A^(m(r-1)+1) for every m >= 1.  ``invariant`` names the broken
    fact: ``trace_integer``, ``trace_bound`` or ``nonzero``.
    """

    power: int
    invariant: str

    def to_dict(self) -> dict:
        return {"power": self.power, "invariant": self.invariant}


def _broken_invariant(p: RMatrix, n: int, a_is_zero: bool) -> str | None:
    """The invariant of every power of a potent n x n matrix that ``p`` breaks, if any."""
    trace = sum(map(operator.getitem, p.num, range(n)))
    if trace % p.den:
        return "trace_integer"
    if trace > n * p.den:
        return "trace_bound"
    if trace == 0 and not a_is_zero and p.is_zero():
        return "nonzero"
    return None


def minimal_potency(
    a: RMatrix, cap: int = DEFAULT_POTENCY_CAP, proof: list[NonPotency] | None = None
) -> Potent | None:
    """A checked at its smallest r in [2, cap] with A^r = A, or None if there is none.

    For a permutation matrix this r is the lcm of the cycle lengths plus one.
    Absence is a value, not an error: matrices that are not potent within the
    cap simply report None.  Before each product the walk screens the power
    it holds; the first power that breaks an invariant of ``NonPotency``
    proves that no r exists at all, so the walk stops there and appends that
    certificate to ``proof`` when one is given.
    """
    if cap < 2:
        raise ValueError("cap must be at least 2")
    n, a_is_zero = a.n, a.is_zero()
    powers = [a]
    for r in range(2, cap + 1):
        broken = _broken_invariant(powers[-1], n, a_is_zero)
        if broken is not None:
            if proof is not None:
                proof.append(NonPotency(r - 1, broken))
            return None
        p = powers[-1] @ a
        if p == a:
            return Potent(a, r, tuple(powers))
        powers.append(p)
    return None


def as_potent(a: RMatrix, r: int) -> Potent:
    """``a`` checked at exponent ``r``; ValueError unless A^r = A."""
    potent = potency_report(a, r).potent
    if potent is None:
        raise ValueError(f"matrix is not {r}-potent")
    return potent


def rank_trace_check(p: Potent) -> bool:
    """Exact test of rank(A) == trace(A^(r-1)) for an r-potent A."""
    return p.rank == p.projection.trace()


def zero_diagonal_powers(p: Potent) -> set[int]:
    """Exponents j in {1, ..., r-1} for which A^j has a zero diagonal entry."""
    flags = p.per_exponent(RMatrix.has_zero_diagonal_entry)
    return {j for j, zero in enumerate(flags, start=1) if zero}


@dataclass(frozen=True)
class PotencyReport:
    """Potency facts for one matrix at one exponent; ``potent`` is set iff A^r = A."""

    a: RMatrix
    r: int
    minimal_r: int | None
    potent: Potent | None

    @property
    def is_r_potent(self) -> bool:
        return self.potent is not None

    @cached_property
    def rank(self) -> int:
        return self.a.rank() if self.potent is None else self.potent.rank

    @cached_property
    def trace_of_projection(self) -> Fraction | None:
        """trace(A^(r-1)) when A^r = A; None otherwise, where A^(r-1) is no projection."""
        return None if self.potent is None else self.potent.projection.trace()

    @property
    def rank_trace_ok(self) -> bool:
        return not self.is_r_potent or self.trace_of_projection == self.rank

    def to_dict(self) -> dict:
        trace = self.trace_of_projection
        return {
            "is_r_potent": self.is_r_potent,
            "r": self.r,
            "minimal_r": self.minimal_r,
            "rank": self.rank,
            "trace_of_projection": None if trace is None else format_entry(trace),
            "rank_trace_ok": self.rank_trace_ok,
        }


def potency_report(
    a: RMatrix, r: int | None = None, proof: list[NonPotency] | None = None
) -> PotencyReport | None:
    """Potency facts of ``a`` at ``r`` (default: the minimal exponent), from one walk.

    None when ``r`` is not given and no exponent up to the cap has A^r = A.
    Past the cap, one power A^r decides, where a walk could take r - 1
    products, unless the walk found a ``NonPotency`` certificate; that
    certificate is appended to ``proof`` when one is given.
    """
    if r is not None and r < 2:
        raise ValueError("potency exponent must be at least 2")
    found: list[NonPotency] = []
    walk = minimal_potency(a, proof=found)
    if proof is not None:
        proof.extend(found)
    if r is None:
        if walk is None:
            return None
        r = walk.r
    if walk is not None:
        potent = None if (r - 1) % len(walk.powers) else replace(walk, r=r)
    else:
        past_cap = r > DEFAULT_POTENCY_CAP and not found
        potent = Potent(a, r, None) if past_cap and a.pow(r) == a else None
    return PotencyReport(a, r, None if walk is None else walk.r, potent)
