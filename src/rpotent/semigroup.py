"""Finite semigroup machinery: pattern closures, common zeros, rank floors.

For semigroups of nonnegative matrices, decomposability is a property of
zero patterns alone, and products of nonnegative matrices have the boolean
product of the factors' patterns.  Closures are therefore computed over
boolean pattern matrices, which are finite (at most 2^(n^2) of them), with a
member cap and an explicit truncation flag; a truncated closure refuses
every verdict rather than reporting one from an incomplete set.

Pattern and exact closures share one routine.  Every member of the
semigroup generated by G is a word in G, so the closure multiplies each
member on the right by each generator only: |S|·|G| products for |S|
members, instead of multiplying every new member against every member on
both sides.

For a closed semigroup the union pattern U of all members is transitively
closed (U_{ik} and U_{kj} nonzero in some members forces U_{ij} nonzero via
their product), which ties three facts together: the union has a zero entry
iff it has a zero entry off the diagonal iff its digraph is not strongly
connected.  Two facets are computed independently, from one union pattern:
the invariant-subset witness (the sink component of the union's block
triangularization) and the union's first zero entry in row-major order, so
the equivalence is tested rather than assumed.  Whether the sum of all
members has a zero is no third computation: the members are nonnegative, so
the sum vanishes exactly where the union does.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from math import lcm

from .decomposition import InvariantSubsetWitness, block_triangularize
from .matrix import PatternMatrix, Permutation, RMatrix
from .potency import DecompositionPrediction, Potent, is_r_potent, main_decomposability_test, potency_report

DEFAULT_CLOSURE_CAP = 10_000


class ClosureTruncated(RuntimeError):
    """A closure hit its member cap; verdicts on it are withheld."""


class _Closure:
    """What the two closure types share; both have ``members`` and ``truncated``."""

    def __len__(self) -> int:
        return len(self.members)

    def require_complete(self) -> None:
        if self.truncated:
            raise ClosureTruncated("closure was truncated at the member cap")


@dataclass(frozen=True)
class PatternSemigroup(_Closure):
    """Multiplicatively closed set of patterns (unless ``truncated``)."""

    n: int
    members: tuple[PatternMatrix, ...]
    generator_count: int
    truncated: bool

    def union_pattern(self) -> PatternMatrix:
        return _union_pattern(self.n, self.members)


@dataclass(frozen=True)
class RationalSemigroup(_Closure):
    """Multiplicatively closed set of exact matrices (unless ``truncated``)."""

    members: tuple[RMatrix, ...]
    truncated: bool

    def union_pattern(self) -> PatternMatrix:
        n = self.members[0].n
        return _union_pattern(n, (m.pattern() for m in self.members))


def _union_pattern(n: int, patterns: Iterable[PatternMatrix]) -> PatternMatrix:
    """The n x n pattern nonzero wherever one of the given patterns is."""
    rows = [0] * n
    for p in patterns:
        for i, mask in enumerate(p.rows):
            rows[i] |= mask
    return PatternMatrix(n, tuple(rows))


def _close(generators: list, product: Callable, cap: int) -> tuple[list, bool]:
    """Members of the semigroup the generators generate, and whether it exceeds ``cap``.

    Every member is a word g1 g2 ... gk in the generators, so one pass over
    the member list that admits x * g for each member x and generator g
    reaches all of them (Froidure & Pin, 1997) in |S|·|G| products.  When
    the semigroup has more than ``cap`` members, exactly ``cap`` of them are
    returned with the flag set.
    """
    gens = list(dict.fromkeys(generators))
    if len(gens) > cap:
        return gens[:cap], True
    members = list(gens)
    seen = set(gens)
    for x in members:  # also visits the members appended on the way
        for g in gens:
            p = product(x, g)
            if p not in seen:
                if len(members) == cap:
                    return members, True
                seen.add(p)
                members.append(p)
    return members, False


def _check_generators(generators: list, cap: int) -> int:
    if not generators:
        raise ValueError("need at least one generator")
    if cap < 1:
        raise ValueError("cap must be positive")
    n = generators[0].n
    if any(g.n != n for g in generators):
        raise ValueError("generators must share a dimension")
    return n


def pattern_closure(
    generators: list[PatternMatrix], cap: int = DEFAULT_CLOSURE_CAP
) -> PatternSemigroup:
    """Closure under boolean product by right multiplication with the generators.

    Costs |S|·|G| boolean products for |S| members and |G| distinct
    generators; deduplicated and cap-bounded (see ``_close``).
    """
    n = _check_generators(generators, cap)
    members, truncated = _close(generators, operator.mul, cap)
    return PatternSemigroup(
        n=n,
        members=tuple(members),
        generator_count=len(set(generators)),
        truncated=truncated,
    )


def rational_closure(
    generators: list[RMatrix], cap: int = DEFAULT_CLOSURE_CAP
) -> RationalSemigroup:
    """Exact-arithmetic closure under matrix product, built like ``pattern_closure``."""
    _check_generators(generators, cap)
    members, truncated = _close(generators, operator.matmul, cap)
    return RationalSemigroup(members=tuple(members), truncated=truncated)


@dataclass(frozen=True)
class EquivalenceReport:
    """The decomposability facets of one closed semigroup, from its union pattern.

    Each member's support lies in the union's, so the union's sink component
    is an index set invariant under every member at once: the witness.
    The witness and the zero entry are found separately; ``sum_has_zero`` is
    whether a zero entry exists, as the sum of nonnegative members vanishes
    exactly where their union does.  When a common zero exists at (i, j),
    the nonzero functional M -> M_{ij} vanishes on the semigroup and the
    selector pair (E_ii, E_jj) multiplies every member to zero;
    ``selector_pair`` records those indices.  A witness subset W yields
    off-diagonal common zeros at every (i, j) with i outside W and j inside.
    """

    decomposable: bool
    witness: InvariantSubsetWitness | None
    zero_entry: tuple[int, int] | None
    offdiagonal_zero_entry: tuple[int, int] | None
    selector_pair: tuple[int, int] | None
    sum_has_zero: bool

    @property
    def consistent(self) -> bool:
        facets = (self.witness is not None, self.zero_entry is not None, self.sum_has_zero)
        return all(facets) or not any(facets)

    def to_dict(self) -> dict:
        return {
            "decomposable": self.decomposable,
            "witness": None if self.witness is None else self.witness.sorted_indices(),
            "zero_entry": self.zero_entry,
            "offdiagonal_zero_entry": self.offdiagonal_zero_entry,
            "selector_pair": self.selector_pair,
            "sum_has_zero": self.sum_has_zero,
            "consistent": self.consistent,
        }


def equivalence_report(s: PatternSemigroup) -> EquivalenceReport:
    """Every facet of ``s``, read off one union pattern."""
    s.require_complete()
    u = s.union_pattern()
    witness = block_triangularize(u.to_matrix()).witness
    zero = u.first_zero()
    offdiag = None
    if witness is not None:
        inside = min(witness.subset)
        outside = min(i for i in range(s.n) if i not in witness.subset)
        offdiag = (outside, inside)
        if u.get(*offdiag):
            raise RuntimeError("witness-derived zero position is not zero")
    return EquivalenceReport(
        decomposable=witness is not None,
        witness=witness,
        zero_entry=zero,
        offdiagonal_zero_entry=offdiag,
        selector_pair=zero,
        sum_has_zero=zero is not None,
    )


def cyclic_semigroup(p: Potent) -> RationalSemigroup:
    """The distinct powers A, A^2, ..., A^(r-1); closed because A^r = A."""
    return RationalSemigroup(members=tuple(dict.fromkeys(p.power_cycle())), truncated=False)


@dataclass(frozen=True)
class CyclicSemigroupReport:
    """Single-generator semigroup check: one permutation triangularizes every power."""

    prediction: DecompositionPrediction
    applicable: bool
    powers_triangular: tuple[bool, ...]

    @property
    def all_triangular(self) -> bool:
        return all(self.powers_triangular)


def cyclic_semigroup_decomposable_check(p: Potent) -> CyclicSemigroupReport:
    """When A decomposes, its triangularizing permutation must fit every power."""
    t = p.tri
    pred = main_decomposability_test(p)
    if t.is_trivial:
        return CyclicSemigroupReport(prediction=pred, applicable=False, powers_triangular=())
    flags = p.per_exponent(t.is_respected_by)
    return CyclicSemigroupReport(prediction=pred, applicable=True, powers_triangular=flags)


@dataclass(frozen=True)
class BlockFloorRecord:
    indices: tuple[int, ...]
    is_nonzero: bool
    min_rank: int | None
    all_compressions_r_potent: bool
    floor_ok: bool

    def to_dict(self) -> dict:
        return {
            "indices": list(self.indices),
            "is_nonzero": self.is_nonzero,
            "min_rank": self.min_rank,
            "all_compressions_r_potent": self.all_compressions_r_potent,
            "floor_ok": self.floor_ok,
        }


@dataclass(frozen=True)
class RankFloorReport:
    closure_size: int
    truncated: bool
    decomposable: bool
    blocks: tuple[BlockFloorRecord, ...]

    @property
    def all_ok(self) -> bool:
        return all(b.floor_ok and b.all_compressions_r_potent for b in self.blocks)

    def to_dict(self) -> dict:
        return {
            "closure_size": self.closure_size,
            "truncated": self.truncated,
            "decomposable": self.decomposable,
            "blocks": [b.to_dict() for b in self.blocks],
            "all_ok": self.all_ok,
        }


def semigroup_rank_floor_check(
    generators: list[RMatrix], r: int, cap: int = DEFAULT_CLOSURE_CAP
) -> RankFloorReport:
    """Close the semigroup, triangularize it jointly, check each block's rank floor.

    Every nonzero diagonal block of the common triangularization is itself a
    closed set of r-potent compressions and must contain an element of rank
    at most r-1.  Raises ``ClosureTruncated`` when the closure hits the cap.
    """
    if not generators:
        raise ValueError("need at least one generator")
    # from the block periods, not the r-th power, whose entries can grow to r bits
    if not all(potency_report(block_triangularize(g), r).is_r_potent for g in generators):
        raise ValueError(f"every generator must be {r}-potent")
    closure = rational_closure(generators, cap)
    closure.require_complete()
    t = block_triangularize(closure.union_pattern().to_matrix())
    records = []
    for comp in t.components:
        compressions = {m.submatrix(comp) for m in closure.members}
        nonzero = any(not c.is_zero() for c in compressions)
        min_rank = min(c.rank() for c in compressions) if nonzero else None
        records.append(
            BlockFloorRecord(
                indices=comp,
                is_nonzero=nonzero,
                min_rank=min_rank,
                all_compressions_r_potent=not nonzero or all(is_r_potent(c, r) for c in compressions),
                floor_ok=not nonzero or min_rank <= r - 1,
            )
        )
    return RankFloorReport(
        closure_size=len(closure),
        truncated=closure.truncated,
        decomposable=len(t.components) > 1,
        blocks=tuple(records),
    )


@dataclass(frozen=True)
class SymmetricGroupReport:
    """Potency classification of all n x n permutation matrices.

    ``potency_counts`` maps the minimal potency exponent to the number of
    group elements attaining it; the minimal potency of a permutation matrix
    is the lcm of its cycle lengths plus one.  The union of the supports of
    all elements covers every position, so the group as a semigroup has no
    common zero entry and is indecomposable.
    """

    n: int
    order: int
    potency_counts: tuple[tuple[int, int], ...]
    formula_mismatches: int
    max_potency: int
    sum_positive: bool

    @property
    def indecomposable(self) -> bool:
        return self.sum_positive


def symmetric_group_analysis(n: int) -> SymmetricGroupReport:
    """Enumerate all n! permutation matrices and classify their potencies."""
    if not 1 <= n <= 8:
        raise ValueError("enumeration supported for 1 <= n <= 8")
    counts: Counter[int] = Counter()
    mismatches = 0
    union_rows = [0] * n
    for images in itertools.permutations(range(n)):
        perm = Permutation(tuple(images))
        pattern = perm.to_matrix().pattern()
        expected = lcm(*perm.cycle_lengths()) + 1
        # a walk over the powers, independent of the cycle lengths and of
        # the block periods: for a permutation matrix P, P^k is its own support
        got, power = 2, pattern * pattern
        while power != pattern:
            got, power = got + 1, power * pattern
        mismatches += got != expected
        counts[got] += 1
        for i, mask in enumerate(pattern.rows):
            union_rows[i] |= mask
    full = (1 << n) - 1
    return SymmetricGroupReport(
        n=n,
        order=sum(counts.values()),
        potency_counts=tuple(sorted(counts.items())),
        formula_mismatches=mismatches,
        max_potency=max(counts),
        sum_positive=all(mask == full for mask in union_rows),
    )
