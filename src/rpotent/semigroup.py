"""Finite semigroup machinery: pattern closures, common zeros, rank floors.

For semigroups of nonnegative matrices, decomposability is a property of
zero patterns alone, and no product cancels: (AB)_ij = sum_k A_ik B_kj is
positive exactly when A_ik > 0 and B_kj > 0 for some k.  By induction,
(g1 g2 ... gk)_ij > 0 exactly when the union digraph G of the generators'
patterns has a walk i -> ... -> j of k edges whose t-th edge is an edge of
g_t.  So every member's pattern lies in G+, the pairs joined by a walk of
length at least 1, and each such walk, read edge by edge from generators
holding its edges, spells a member positive at its ends: the union pattern
of the semigroup is G+, however large the semigroup (``generator_reach``).

G+ is transitively closed, so for n >= 2 it has a zero entry iff it has one
off the diagonal iff its digraph is not strongly connected.  Two facets are
computed independently from G+, the invariant-subset witness (the sink
component of its digraph, in block order) and its first zero entry in
row-major order, so the equivalence is tested rather than assumed.  The sum
of all members has a zero exactly where their union does.

Only the rank floor needs the members: it decides each one's r-potency as
the member is admitted, and reads its block ranks off that decision's
projection; its blocks are those of G+ (``generator_blocks``, computed once
for both reports), and its generators come checked (``Potent``).  Pattern
and exact closures share one routine, which yields the members one at a
time and multiplies each member on the right by each generator only (every
member is a word in them): |S|·|G| products for |S| members.  For
r - 1 <= n the rank floor runs it over a table of the products it has made
(the right Cayley graph), and decides a member M by walking M's word
through that table to M^(r-1) and M^r: a complete closure makes its |S|·|G|
exact products and none besides.  The pattern closure runs it on bare row
tuples, hashed and compared as tuples, and takes x·g from tables built once
per generator g: one list of at most 256 entries per 8 rows of g, so a
product row costs one lookup per 8 columns.  A closure stops at a member
cap with a truncation flag.  The rank floor stops at its first member that
is not r-potent, and reports it; once every member is r-potent the
semigroup is finite (McNaughton & Zalcstein, 1975), and the cap only bounds
the work.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from math import lcm

from .decomposition import Digraph, InvariantSubsetWitness, sink_witness
from .matrix import PatternMatrix, Permutation, RMatrix
from .potency import Potent, block_ranks, potent_at

DEFAULT_CLOSURE_CAP = 10_000


@dataclass(frozen=True)
class PatternSemigroup:
    """Multiplicatively closed set of patterns (unless ``truncated``).

    The closure holds its members as row tuples, ``member_rows``; the
    ``PatternMatrix`` members are built on first read of ``members``.
    """

    n: int
    member_rows: tuple[tuple[int, ...], ...]
    generator_count: int
    truncated: bool

    def __len__(self) -> int:
        return len(self.member_rows)

    @functools.cached_property
    def members(self) -> tuple[PatternMatrix, ...]:
        n = self.n
        return tuple([PatternMatrix._make(n, rows) for rows in self.member_rows])

    def union_pattern(self) -> PatternMatrix:
        return _union_pattern(self.n, self.member_rows)


@dataclass(frozen=True)
class RationalSemigroup:
    """Multiplicatively closed set of exact matrices (unless ``truncated``)."""

    members: tuple[RMatrix, ...]
    truncated: bool

    def __len__(self) -> int:
        return len(self.members)

    def union_pattern(self) -> PatternMatrix:
        n = self.members[0].n
        return _union_pattern(n, (m.pattern().rows for m in self.members))


def _union_pattern(n: int, member_rows: Iterable[tuple[int, ...]]) -> PatternMatrix:
    """The n x n pattern nonzero wherever one of the given row tuples is.

    The rows are those of validated members, so their ORs stay below 2^n.
    """
    rows = [0] * n
    for member in member_rows:
        for i, mask in enumerate(member):
            rows[i] |= mask
    return PatternMatrix._make(n, tuple(rows))


def _close(generators: list, product: Callable) -> Iterator:
    """The members of the semigroup the generators generate, one at a time, with no cap.

    Every member is a word g1 g2 ... gk in the generators, so one pass over
    the member list that admits x * g for each member x and generator g
    reaches all of them (Froidure & Pin, 1997) in |S|·|G| products.  The
    distinct generators come first, then each product as it is admitted, so
    a caller that stops after cap + 1 members has made exactly the products
    that decide whether the semigroup has more than ``cap``.
    """
    gens = list(dict.fromkeys(generators))
    yield from gens
    members = list(gens)
    seen = set(gens)
    for x in members:  # also visits the members appended on the way
        for g in gens:
            p = product(x, g)
            if p not in seen:
                seen.add(p)
                members.append(p)
                yield p


def _check_generators(generators: list, cap: int) -> int:
    if not generators:
        raise ValueError("need at least one generator")
    if cap < 1:
        raise ValueError("cap must be positive")
    n = generators[0].n
    if any(g.n != n for g in generators):
        raise ValueError("generators must share a dimension")
    return n


def _row_tables(rows: tuple[int, ...]) -> list[list[int]]:
    """For each 8-row chunk of a pattern, the OR of its rows at every set of bits.

    Entry b of chunk c is the OR of rows 8c + k over the set bits k of b: at
    most 256 entries per chunk, fewer for a last partial chunk.
    """
    tables = []
    for base in range(0, len(rows), 8):
        table = [0]
        for row in rows[base : base + 8]:
            table += [t | row for t in table]  # the entries whose next bit is set
        tables.append(table)
    return tables


def _row_product(x: tuple[int, ...], tables: list[list[int]]) -> tuple[int, ...]:
    """The rows of x·g, from g's ``_row_tables``: one lookup per 8 columns of each row of x."""
    if len(tables) == 1:
        (table,) = tables
        return tuple([table[r] for r in x])
    out = []
    for r in x:
        acc = 0
        for table in tables:
            acc |= table[r & 255]
            r >>= 8
        out.append(acc)
    return tuple(out)


def pattern_closure(
    generators: list[PatternMatrix], cap: int = DEFAULT_CLOSURE_CAP
) -> PatternSemigroup:
    """Closure under boolean product by right multiplication with the generators.

    Costs |S|·|G| boolean products for |S| members and |G| distinct
    generators; deduplicated and cap-bounded (see ``_close``).  The closure
    runs on row tuples, and each product row is one lookup per 8 columns in
    the ``_row_tables`` of its generator, built once per distinct generator
    (at most 256 entries per 8-row chunk).  The members stay row tuples
    until ``members`` is read.
    """
    n = _check_generators(generators, cap)
    tables = {g.rows: _row_tables(g.rows) for g in generators}
    members = tuple(itertools.islice(_close(list(tables), lambda x, g: _row_product(x, tables[g])), cap + 1))
    return PatternSemigroup(
        n=n,
        member_rows=members[:cap],
        generator_count=len(tables),
        truncated=len(members) > cap,
    )


def rational_closure(
    generators: list[RMatrix], cap: int = DEFAULT_CLOSURE_CAP
) -> RationalSemigroup:
    """Exact-arithmetic closure under matrix product, built like ``pattern_closure``."""
    _check_generators(generators, cap)
    members = tuple(itertools.islice(_close(generators, operator.matmul), cap + 1))
    return RationalSemigroup(members=members[:cap], truncated=len(members) > cap)


def generator_reach(generators: list[PatternMatrix]) -> PatternMatrix:
    """G+, the union pattern of the semigroup the generator patterns generate.

    Repeats U <- U | U*U from the generators' union until U is fixed.  After
    k squarings U holds every walk of 1 to 2^k edges, and G+ needs walks of
    at most n edges, so this takes at most ceil(log2 n) + 1 boolean products.
    """
    if not generators:
        raise ValueError("need at least one generator")
    u = functools.reduce(operator.or_, generators)
    while (wider := u | u * u) != u:
        u = wider
    return u


@dataclass(frozen=True)
class EquivalenceReport:
    """The decomposability facets of a semigroup, from its union pattern G+.

    Each member's support lies in G+, so the sink component of G+ is an
    index set invariant under every member at once: the witness.  The
    witness and the zero entry are found separately; ``sum_has_zero`` is
    whether a zero entry exists, as the sum of nonnegative members vanishes
    exactly where their union does.  A common zero at (i, j) is a nonzero
    functional M -> M_ij that vanishes on the semigroup.  A witness subset W
    yields off-diagonal common zeros at every (i, j) with i outside W and j
    inside.

    "A common zero exists iff a proper invariant index set exists" needs
    n >= 2: at n = 1 no proper nonempty index set exists, and the zero 1x1
    semigroup has a common zero without a witness.  So ``consistent`` holds
    at n = 1, and the zero entry and the sum facet are still reported.
    """

    n: int
    decomposable: bool
    witness: InvariantSubsetWitness | None
    zero_entry: tuple[int, int] | None
    offdiagonal_zero_entry: tuple[int, int] | None
    sum_has_zero: bool

    @property
    def consistent(self) -> bool:
        facets = (self.witness is not None, self.zero_entry is not None, self.sum_has_zero)
        return self.n == 1 or all(facets) or not any(facets)

    def to_dict(self) -> dict:
        return {
            "decomposable": self.decomposable,
            "witness": None if self.witness is None else self.witness.sorted_indices(),
            "zero_entry": self.zero_entry,
            "offdiagonal_zero_entry": self.offdiagonal_zero_entry,
            "sum_has_zero": self.sum_has_zero,
            "consistent": self.consistent,
        }


def generator_blocks(generators: list[PatternMatrix]) -> tuple[PatternMatrix, list[tuple[int, ...]]]:
    """G+ (``generator_reach``) and the strongly connected components of its digraph, in block order.

    The semigroup's blocks: its equivalence report and its rank floor both
    read them, so a caller that needs both computes them once.
    """
    u = generator_reach(generators)
    return u, Digraph(u).strongly_connected_components()


def equivalence_report(u: PatternMatrix, components: list[tuple[int, ...]]) -> EquivalenceReport:
    """Every facet of a semigroup, read off its G+ ``u`` and that pattern's ``components`` (``generator_blocks``)."""
    witness = sink_witness(u, components)
    zero = u.first_zero()
    offdiag = None
    if witness is not None:
        inside = min(witness.subset)
        outside = min(i for i in range(u.n) if i not in witness.subset)
        offdiag = (outside, inside)
        if u.get(*offdiag):
            raise RuntimeError("witness-derived zero position is not zero")
    return EquivalenceReport(
        n=u.n,
        decomposable=witness is not None,
        witness=witness,
        zero_entry=zero,
        offdiagonal_zero_entry=offdiag,
        sum_has_zero=zero is not None,
    )


@dataclass(frozen=True)
class BlockFloorRecord:
    indices: tuple[int, ...]
    is_nonzero: bool
    min_rank: int | None
    floor_ok: bool

    def to_dict(self) -> dict:
        return {
            "indices": list(self.indices),
            "is_nonzero": self.is_nonzero,
            "min_rank": self.min_rank,
            "floor_ok": self.floor_ok,
        }


@dataclass(frozen=True)
class RankFloorReport:
    """The rank floor of each diagonal block of the jointly triangularized closure.

    It needs every exact member, each r-potent, so it is withheld (no
    blocks and ``decomposable`` None, the defaults, and ``all_ok`` false)
    when the closure is ``truncated`` at the cap, or when a member is not
    r-potent: then ``non_potent_member`` is the first such member and
    ``closure_size`` counts the members admitted before it.
    """

    closure_size: int
    truncated: bool
    decomposable: bool | None = None
    blocks: tuple[BlockFloorRecord, ...] = ()
    non_potent_member: RMatrix | None = None

    @property
    def all_ok(self) -> bool:
        return not self.truncated and self.non_potent_member is None and all(b.floor_ok for b in self.blocks)

    def to_dict(self) -> dict:
        """The report as a dict; ``"non_potent_member"`` is an ``RMatrix`` or None, written by ``json_text``."""
        return {
            "closure_size": self.closure_size,
            "truncated": self.truncated,
            "decomposable": self.decomposable,
            "blocks": [b.to_dict() for b in self.blocks],
            "non_potent_member": self.non_potent_member,
            "all_ok": self.all_ok,
        }


class _RightCayleyGraph:
    """The exact products met so far, numbered, with each one's right product by each generator.

    ``elements[i]`` times ``generators[k]`` is element ``right[i][k]``, or
    None until someone needs it: the closure (``product``), or a walk that
    follows a word from element i.  Whoever needs it first makes the
    product and stores it, and later readers take it from the table, so
    each is made once.  A member the closure admits as x·g takes the word
    of x plus g.
    """

    def __init__(self, generators: list[RMatrix]) -> None:
        self.generators = generators
        self.elements = list(generators)
        self.number = {g: i for i, g in enumerate(generators)}
        self.right: list[list[int | None]] = [[None] * len(generators) for _ in generators]
        self.words = {i: (i,) for i in range(len(generators))}

    def times(self, i: int, k: int) -> int:
        j = self.right[i][k]
        if j is None:
            p = self.elements[i] @ self.generators[k]
            j = self.number.setdefault(p, len(self.elements))
            if j == len(self.elements):
                self.elements.append(p)
                self.right.append([None] * len(self.generators))
            self.right[i][k] = j
        return j

    def product(self, x: RMatrix, g: RMatrix) -> RMatrix:
        """x·g for the closure, from the table; a member it admits takes its word here."""
        i, k = self.number[x], self.number[g]
        j = self.times(i, k)
        if j not in self.words:
            self.words[j] = self.words[i] + (k,)
        return self.elements[j]

    def walk(self, i: int, word: Iterable[int]) -> int:
        """The number of element i times the generators of ``word``, in order."""
        right = self.right
        for k in word:
            j = right[i][k]
            i = self.times(i, k) if j is None else j
        return i

    def projection(self, m: RMatrix, r: int) -> RMatrix | None:
        """M^(r-1) when M^r = M, else None, for an admitted member M with word w.

        The walk takes M·w^(r-2) = M^(r-1) = E, then E·w = M^r, and M^r = M
        exactly when it has M's number.
        """
        i = self.number[m]
        w = self.words[i]
        e = self.walk(i, w * (r - 2))
        return self.elements[e] if self.walk(e, w) == i else None


def semigroup_rank_floor_check(
    generators: list[Potent], components: list[tuple[int, ...]], *, cap: int = DEFAULT_CLOSURE_CAP
) -> RankFloorReport:
    """Close the semigroup of checked r-potents (``Potent``, one r), check each block's rank floor.

    Every nonzero diagonal block of the common triangularization is itself a
    closed set of r-potent compressions and must contain an element of rank
    at most r-1.  The blocks are ``components``, those of G+ in block order
    (``generator_blocks`` of the generators' patterns), so ``decomposable``
    is the verdict of ``equivalence_report`` whenever the floor is given.

    The statement assumes every member r-potent, so each member is decided
    once as it is admitted: the generators by the ``Potent`` they come with,
    and for r - 1 <= n every other member M by a walk in the closure's own
    products (``_RightCayleyGraph``): along M's word w, M·w^(r-2) = M^(r-1)
    = E, then E·w = M^r, compared with M by number.  A product the walk
    needs before the closure has made it is made then and kept for the
    closure.  Each is some x·g with x in the semigroup, so a complete
    closure makes exactly |S|·|G| exact products and none for the
    decisions; a truncated one makes at most (r - 1)·|w| more per member,
    past the cap.  Past n the closure keeps no table, and each member takes
    ``potent_at``: its cycles when it is monomial, else the period route, so
    a large r takes no r-th power.  The
    first member that fails ends the closure and is reported.  Once every
    member is r-potent, every element is periodic, and a finitely generated
    semigroup of matrices whose elements are all periodic is finite
    (McNaughton & Zalcstein, J. Algebra 34, 1975); so the cap only bounds
    the work, and a closure past it withholds the floor.

    A block's rank in a member M is read off M's projection E by
    ``block_ranks``, with no rank computed: M's pattern lies in G+, so M is
    block triangular in the order of G+'s blocks, the form that routine
    asks for.
    """
    exponents = {p.r for p in generators}
    if len(exponents) != 1:
        raise ValueError(f"need generators checked at one exponent, got {sorted(exponents)}")
    (r,) = exponents
    decided = list({p.a: p for p in generators}.values())  # _close yields them first, in this order
    matrices = [p.a for p in decided]
    n = _check_generators(matrices, cap)
    graph = None if r - 1 > n else _RightCayleyGraph(matrices)
    ranks = [set() for _ in components]
    for admitted, m in enumerate(_close(matrices, operator.matmul if graph is None else graph.product)):
        if admitted == cap:
            return RankFloorReport(closure_size=cap, truncated=True)
        if admitted < len(decided):
            e = decided[admitted].projection
        elif graph is None:
            p = potent_at(m, r)
            e = None if p is None else p.projection
        else:
            e = graph.projection(m, r)
        if e is None:
            return RankFloorReport(closure_size=admitted, truncated=False, non_potent_member=m)
        for seen, rank in zip(ranks, block_ranks(e, components)):
            seen.add(rank)
    lows = [min(seen) if max(seen) else None for seen in ranks]
    blocks = tuple(
        BlockFloorRecord(comp, low is not None, low, low is None or low <= r - 1)
        for comp, low in zip(components, lows)
    )
    return RankFloorReport(admitted + 1, truncated=False, decomposable=len(components) > 1, blocks=blocks)


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


def symmetric_group_analysis(n: int) -> SymmetricGroupReport:
    """Enumerate all n! permutation matrices and classify their potencies."""
    if not 1 <= n <= 8:
        raise ValueError("enumeration supported for 1 <= n <= 8")
    counts: Counter[int] = Counter()
    mismatches = 0
    union = PatternMatrix(n, (0,) * n)
    for images in itertools.permutations(range(n)):
        perm = Permutation(tuple(images))
        rows = [0] * n
        for j, i in enumerate(images):
            rows[i] = 1 << j  # column j has its one entry in row images[j]
        pattern = PatternMatrix(n, tuple(rows))
        expected = lcm(*perm.cycle_lengths()) + 1
        # a walk over the powers, independent of the cycle lengths and of
        # the block periods: for a permutation matrix P, P^k is its own support
        got, power = 2, pattern * pattern
        while power != pattern:
            got, power = got + 1, power * pattern
        mismatches += got != expected
        counts[got] += 1
        union |= pattern
    return SymmetricGroupReport(
        n=n,
        order=sum(counts.values()),
        potency_counts=tuple(sorted(counts.items())),
        formula_mismatches=mismatches,
        max_potency=max(counts),
        sum_positive=union.is_full(),
    )
