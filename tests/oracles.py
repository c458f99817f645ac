"""Independent oracle implementations used to cross-check the package.

Each oracle takes a deliberately different route than the implementation it
checks: naive cubic multiplication against the packed-row product, plain
fraction Gaussian elimination and fraction-free Bareiss elimination, which
divides each row by the previous pivot, against elimination on primitive
rows, which divides each updated row by the gcd of its entries, diagonal hits of
boolean powers against the BFS-level period, the enumeration of every
invariant index set against the column-closure witness, a closure that
multiplies every new member with every member on both sides against the
one that multiplies each member by the generators on the right, the
product of every pair of powers against check 6.1's test of A's powers,
which multiplies each by A alone, and a
potency walk that takes every power up to its cap against the decision from
the block periods.  The block-order reference reads the components off a
transitive closure built by boolean squaring and places the sink of least
index again and again, against the two bitmask searches per component and
the order kept from them.  The semigroup witness oracle takes that
reference's first block of the enumerated closure's union pattern, against
the report that reads it off the block triangularization of the generators'
reach, computed without the members; the rank floor's blocks, read off that
reach too, are checked against the blocks of the union of every exact
member's own pattern.  The per-member rank floor decides every member by
``potent_at`` and ranks its compressions exactly, against the floor that
walks each member's word in the closure's table of products and reads its
block ranks as traces of the projection the walk reaches.  The
right-product closure reference admits members in the package's order but
multiplies with the bit loop of ``PatternMatrix.__mul__``, against the
closure that runs on row tuples and looks each product row up in
per-generator tables.  The generator oracles place
``Fraction`` entries one by one and compute the coupling B^(r-1) X with a
triple loop, against builders that pad integer rows and take one exact
product; the rank-one idempotent oracle draws ``Fraction`` factors and goes
through the validating constructor, against the builder that forms
U_i R_j / U.R on the integer grid.  The matrix reader's reference builds a
``Fraction`` for every entry with ``coerce_entry`` and checks that grid,
against the reader that splits plain integers and ``p/q`` strings with
``int`` onto the integer grid.

The boolean power of a pattern by repeated squaring from the identity is the
reference of the Wielandt squaring, and the hand-written Fisher-Yates loop,
which calls ``rng.randrange(i + 1)`` for i = n - 1 down to 1, that of
``Permutation.random``, which calls ``rng.shuffle``.

``naive_power`` is the one ``Fraction`` power: square-and-multiply over
``naive_multiply``, kept per (A, k), so a sweep over r takes one new product
per exponent.  ``diagonal_hit_period_lcm`` is the one period oracle: L, the
lcm of the diagonal-hit periods of A's nonzero diagonal blocks.

Tier-1's exhaustive small inputs come from here alone, each built once and
kept: ``zero_one_patterns(n)`` and ``zero_one_matrices(n)``, every n x n 0/1
pattern and matrix; ``small_patterns`` and ``small_zero_one_matrices``, the
2 + 16 + 512 = 530 of them with n <= 3; and ``small_zero_one_potents``, the
87 potent ones, each with its least r, read off the naive powers up to
A^(L+1).

The pattern, permutation and predicate helpers at the end (boolean grids,
row-major bit packing, nonzero counts, positivity, transpositions, composed
and inverse permutations, and the validity of a block triangularization)
build or inspect test inputs; the package itself needs none of them.  So
do the short forms after them: ``as_potent`` (``potent_at`` that raises
unless A^r = A), ``decide`` (``minimal_potency`` of the block
triangularization), the decomposability predicates on a matrix and on a
pattern, the zero-diagonal test of a rank-one idempotent, the zero-trace
identity's four-part applicability rule and Wielandt's exponent
n^2 - 2n + 2.  ``rank_one_idempotent`` builds u v^T from checked ``Fraction``
factors through the validating constructor; the package builds its
rank-one idempotents on the integer grid.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from fractions import Fraction
from functools import cache
from math import gcd, lcm

from rpotent.decomposition import BlockTriangularization, Digraph, InvariantSubsetWitness, block_triangularize
from rpotent.matrix import Entry, PatternMatrix, Permutation, RMatrix, coerce_entry
from rpotent.potency import NonPotency, Potent, minimal_potency, potent_at
from rpotent.semigroup import BlockFloorRecord, PatternSemigroup, RankFloorReport, generator_reach


def fraction_grid(rows) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``(den, num)`` of the matrix read from ``rows`` through one ``Fraction`` per entry.

    Every entry goes through ``coerce_entry`` first, so parse and type errors
    come before the dimension, squareness and negativity checks.
    """
    grid = [[coerce_entry(x) for x in row] for row in rows]
    n = len(grid)
    if n < 1:
        raise ValueError("matrix dimension must be positive")
    for i, row in enumerate(grid):
        if len(row) != n:
            raise ValueError("matrix must be square")
        for j, x in enumerate(row):
            if x.numerator < 0:
                raise ValueError(f"negative entry {x} at ({i}, {j})")
    den = lcm(*[x.denominator for row in grid for x in row])
    return den, tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in grid)


def naive_multiply(a: RMatrix, b: RMatrix) -> RMatrix:
    n = a.n
    rows = [
        tuple(
            sum((a.entries[i][k] * b.entries[k][j] for k in range(n)), Fraction(0))
            for j in range(n)
        )
        for i in range(n)
    ]
    return RMatrix(tuple(rows))


@cache
def naive_power(a: RMatrix, k: int) -> RMatrix:
    """A^k over ``naive_multiply``, kept per (A, k): A^0 = I, A^(k-1) A for odd k, (A^(k/2))^2 for even k."""
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    if k == 0:
        return RMatrix.identity(a.n)
    if k % 2:
        return naive_multiply(naive_power(a, k - 1), a)
    half = naive_power(a, k // 2)
    return naive_multiply(half, half)


def fraction_cycle_matrix(length: int) -> RMatrix:
    """Cycle 0 -> 1 -> ... -> length-1 -> 0, one ``Fraction`` entry at a time."""
    rows = [[Fraction(0)] * length for _ in range(length)]
    for j in range(length):
        rows[(j + 1) % length][j] = Fraction(1)
    return RMatrix(tuple(tuple(row) for row in rows))


def fraction_block_diagonal(blocks: list[RMatrix]) -> RMatrix:
    """Direct sum built by copying each block's ``Fraction`` entries."""
    n = sum(b.n for b in blocks)
    rows = [[Fraction(0)] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i in range(b.n):
            for j in range(b.n):
                rows[offset + i][offset + j] = b.entries[i][j]
        offset += b.n
    return RMatrix(tuple(tuple(row) for row in rows))


def fraction_triangular_family(p: Potent, x) -> RMatrix:
    """[[B, B^(r-1) X], [0, 0]] with the coupling summed entry by entry."""
    b = p.a
    xs = [[coerce_entry(c) for c in row] for row in x]
    k, m = b.n, len(xs[0])
    proj = p.projection
    coupling = [
        [sum((proj.entries[i][t] * xs[t][j] for t in range(k)), Fraction(0)) for j in range(m)]
        for i in range(k)
    ]
    rows = [[Fraction(0)] * (k + m) for _ in range(k + m)]
    for i in range(k):
        rows[i][:k] = b.entries[i]
        rows[i][k:] = coupling[i]
    return RMatrix(tuple(tuple(row) for row in rows))


def rank_one_idempotent(u: list[Entry], v: list[Entry]) -> RMatrix:
    """Outer product u v^T, idempotent because the inner product v.u is 1."""
    uu = [coerce_entry(x) for x in u]
    vv = [coerce_entry(x) for x in v]
    if len(uu) != len(vv):
        raise ValueError("u and v must have the same length")
    if any(x < 0 for x in uu) or any(x < 0 for x in vv):
        raise ValueError("u and v must be nonnegative")
    dot = sum((a * b for a, b in zip(vv, uu)), Fraction(0))
    if dot != 1:
        raise ValueError(f"inner product v.u must be exactly 1, got {dot}")
    return RMatrix(tuple(tuple(a * b for b in vv) for a in uu))


_FRACTION_POOL = (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2), Fraction(3))


def fraction_random_idempotent(rng: random.Random, dim: int, su, sv) -> RMatrix:
    """u v^T from ``Fraction`` pool draws on the supports ``su`` and ``sv``, v scaled so v.u = 1."""
    u = [rng.choice(_FRACTION_POOL) if i in su else Fraction(0) for i in range(dim)]
    raw = [rng.choice(_FRACTION_POOL) if i in sv else Fraction(0) for i in range(dim)]
    s = sum((a * b for a, b in zip(raw, u)), Fraction(0))
    return rank_one_idempotent(u, [x / s for x in raw])


REFERENCE_POTENCY_CAP = 64


def unscreened_minimal_potency(a: RMatrix, cap: int = REFERENCE_POTENCY_CAP) -> int | None:
    """The least r in [2, cap] with A^r = A, by a walk that takes every power up to the cap."""
    p = a
    for r in range(2, cap + 1):
        p = p @ a
        if p == a:
            return r
    return None


def gauss_rank(a: RMatrix) -> int:
    """Rank by plain fraction pivoting, no fraction-free tricks."""
    m = [list(row) for row in a.entries]
    n = a.n
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, n) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, n):
            if m[i][col] == 0:
                continue
            factor = m[i][col] / m[rank][col]
            for j in range(col, n):
                m[i][j] -= factor * m[rank][j]
        rank += 1
    return rank


def bareiss_rank(a: RMatrix, updates: list | None = None) -> int:
    """Rank by fraction-free Bareiss elimination on the integer grid.

    Each step updates every remaining row, t = p row - lead pivot_row, and
    divides t by the previous pivot (exactly: asserted); a row whose lead is
    0 is only scaled.  Rows that become zero are dropped.  Each t of a row
    whose lead is not 0 is appended to ``updates``, when given, before its
    division, in the order the rows are updated.
    """
    rows = [row for row in a.num if any(row)]
    r = 0
    prev = 1
    for c in range(a.n):
        pivot = next((row for row in rows if row[c]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        p = pivot[c]
        out = []
        for row in rows:
            lead = row[c]
            if lead:
                t = [p * x - lead * y for x, y in zip(row, pivot)]
                if updates is not None:
                    updates.append(tuple(t))
            else:
                t = [p * x for x in row]
            if prev != 1:
                q = [x // prev for x in t]
                assert [x * prev for x in q] == t, "Bareiss division not exact"
                t = q
            if any(t):
                out.append(t)
        rows = out
        prev = p
        r += 1
    return r


def kron_entry(a: RMatrix, b: RMatrix, i: int, j: int) -> Fraction:
    """Closed-form Kronecker entry: a[i // nb][j // nb] * b[i % nb][j % nb]."""
    nb = b.n
    return a.entries[i // nb][j // nb] * b.entries[i % nb][j % nb]


def bool_product(p: PatternMatrix, q: PatternMatrix) -> PatternMatrix:
    """Boolean product entry by entry, without bitmask tricks."""
    n = p.n
    grid = [
        [any(p.get(i, k) and q.get(k, j) for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    return pattern_from_bools(grid)


def period_by_diagonal_hits(p: PatternMatrix) -> int:
    """Gcd of all closed-walk lengths up to n, read off boolean powers.

    Every simple cycle has length at most n and shows up as a diagonal hit of
    the corresponding power, and every closed walk is a sum of simple cycles,
    so the gcd over m <= n equals the gcd of all cycle lengths.
    """
    n = p.n
    g = 0
    q = p
    for m in range(1, n + 1):
        if any(q.get(i, i) for i in range(n)):
            g = gcd(g, m)
        q = bool_product(q, p)
    return g


def diagonal_hit_period_lcm(a: RMatrix) -> int:
    """L, the lcm of ``period_by_diagonal_hits`` over the nonzero diagonal blocks, not of the BFS-level periods; 1 with none."""
    blocks = block_triangularize(a).diagonal_blocks
    return lcm(*[p for p in (period_by_diagonal_hits(b.pattern()) for b in blocks) if p])


def closed_subsets(p: PatternMatrix) -> list[frozenset[int]]:
    """All proper nonempty index sets whose columns have support inside the set."""
    n = p.n
    out = []
    for size in range(1, n):
        for combo in itertools.combinations(range(n), size):
            subset = set(combo)
            if all(
                all(i in subset for i in range(n) if p.get(i, j)) for j in subset
            ):
                out.append(frozenset(subset))
    return out


def random_small_matrix(rng: random.Random, n: int, density: float = 0.6) -> RMatrix:
    pool = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2), Fraction(3)]
    rows = [
        [rng.choice(pool) if rng.random() < density else Fraction(0) for _ in range(n)]
        for _ in range(n)
    ]
    return RMatrix(rows)


def random_pattern_local(rng: random.Random, n: int, density: float) -> PatternMatrix:
    rows = []
    for _ in range(n):
        mask = 0
        for j in range(n):
            if rng.random() < density:
                mask |= 1 << j
        rows.append(mask)
    return PatternMatrix(n, tuple(rows))


def two_sided_closure(gens: list, product, cap: int) -> tuple[list, bool]:
    """Breadth-first closure multiplying each new member with every member on both sides.

    O(|S|^2) products; returns the admitted members in order and whether the
    member cap was hit.
    """
    members: list = []
    seen: set = set()
    queue: deque = deque()
    truncated = False

    def admit(p) -> bool:
        nonlocal truncated
        if p in seen:
            return True
        if len(members) >= cap:
            truncated = True
            return False
        seen.add(p)
        members.append(p)
        queue.append(p)
        return True

    for g in gens:
        if not admit(g):
            break
    while queue and not truncated:
        z = queue.popleft()
        for m in list(members):
            if not admit(product(z, m)) or not admit(product(m, z)):
                break
    return members, truncated


def all_pairs_closed(members) -> bool:
    """Whether ``members`` is closed under products, by multiplying every ordered pair."""
    members = set(members)
    return all(x @ y in members for x in members for y in members)


def right_product_closure(gens: list[PatternMatrix], cap: int) -> tuple[list[PatternMatrix], bool, int]:
    """The first ``cap`` members in admission order, whether there are more, and the distinct generator count.

    The distinct generators in first-seen order, then each member times each
    distinct generator on the right, admitted when new: the order
    ``pattern_closure`` promises, built from ``PatternMatrix.__mul__`` (the
    bit loop over the set bits of each row) alone.
    """
    distinct = list(dict.fromkeys(gens))
    members = list(distinct)
    seen = set(distinct)
    for x in members:  # also visits the members appended on the way
        if len(members) > cap:
            break
        for g in distinct:
            p = x * g
            if p not in seen:
                seen.add(p)
                members.append(p)
    return members[:cap], len(members) > cap, len(distinct)


def closure_block_order(p: PatternMatrix) -> list[tuple[int, ...]]:
    """The components of ``p``'s digraph in block order, read off its transitive closure.

    A nonzero entry (i, j) is the edge j -> i, so entry (i, j) of the closure
    (I + P)^(2^k), squared until it is stable, says that j reaches i.  The
    components are the classes of mutual reachability.  The blocks are placed
    one by one: each time the component of least index that reaches no
    unplaced vertex outside itself.
    """
    n = p.n
    reach = pattern_from_bools([[i == j or p.get(i, j) for j in range(n)] for i in range(n)])
    while (squared := bool_product(reach, reach)) != reach:
        reach = squared
    comps: list[tuple[int, ...]] = []
    for v in range(n):
        if not any(v in c for c in comps):
            comps.append(tuple(u for u in range(n) if reach.get(u, v) and reach.get(v, u)))
    order: list[tuple[int, ...]] = []
    placed: set[int] = set()
    while comps:
        sink = next(
            c for c in comps
            if all(w in c or w in placed for w in range(n) if reach.get(w, c[0]))
        )
        comps.remove(sink)
        order.append(sink)
        placed.update(sink)
    return order


def union_digraph_witness(s: PatternSemigroup) -> InvariantSubsetWitness | None:
    """The semigroup's invariant index set: the first block of its union pattern.

    The first block in ``closure_block_order`` is the sink component holding
    the smallest index.
    """
    if s.truncated:
        raise ValueError("a truncated closure's union need not be the semigroup's")
    u = s.union_pattern()
    blocks = closure_block_order(u)
    if len(blocks) == 1:
        return None
    witness = InvariantSubsetWitness(frozenset(blocks[0]), u.n)
    assert witness.verify_pattern(u)
    return witness


def member_union_rank_floor(members: list[RMatrix]) -> list[tuple[tuple[int, ...], int | None]]:
    """Each block of the members' union pattern with its least nonzero-block rank (None for a zero block).

    The blocks are those of the triangularization of the union of every
    member's own ``pattern()``, as the rank floor read them before it took
    them from the generators' reach.
    """
    union = PatternMatrix(members[0].n, (0,) * members[0].n)
    for m in members:
        union |= m.pattern()
    floor = []
    for comp in block_triangularize(union.to_matrix()).components:
        compressions = [m.submatrix(comp) for m in members]
        nonzero = any(not c.is_zero() for c in compressions)
        floor.append((comp, min(c.rank() for c in compressions) if nonzero else None))
    return floor


def per_member_rank_floor(generators: list[Potent], *, cap: int) -> RankFloorReport:
    """The rank floor with every member decided by ``potent_at`` on its own, as it is admitted.

    The members come in the closure's order, the distinct generators and then
    each member times each distinct generator on the right, when new.  The
    generators are decided by their own ``Potent``, every other member by
    ``potent_at`` (its own powers up to r - 1 <= n, past that the block
    periods); the first that fails ends the floor.  The blocks are
    ``closure_block_order`` of G+, and a block's rank in a member is the
    exact rank of its compression: no walk, no product table and no trace.
    """
    (r,) = {p.r for p in generators}
    gens = list(dict.fromkeys(p.a for p in generators))
    components = closure_block_order(generator_reach([g.pattern() for g in gens]))
    members, seen = list(gens), set(gens)

    def admitted():
        yield from gens
        for x in members:  # also visits the members appended on the way
            for g in gens:
                p = x @ g
                if p not in seen:
                    seen.add(p)
                    members.append(p)
                    yield p

    ranks = [set() for _ in components]
    for count, m in enumerate(admitted()):
        if count == cap:
            return RankFloorReport(closure_size=cap, truncated=True)
        if count >= len(gens) and potent_at(m, r) is None:
            return RankFloorReport(closure_size=count, truncated=False, non_potent_member=m)
        for block_ranks, comp in zip(ranks, components):
            block_ranks.add(m.submatrix(comp).rank())
    lows = [min(block_ranks) if max(block_ranks) else None for block_ranks in ranks]
    blocks = tuple(
        BlockFloorRecord(comp, low is not None, low, low is None or low <= r - 1) for comp, low in zip(components, lows)
    )
    return RankFloorReport(len(members), truncated=False, decomposable=len(components) > 1, blocks=blocks)


def pattern_from_bools(grid) -> PatternMatrix:
    """The pattern whose entry (i, j) is set iff ``grid[i][j]`` is true."""
    n = len(grid)
    if any(len(row) != n for row in grid):
        raise ValueError("pattern must be square")
    return PatternMatrix(n, tuple(sum(1 << j for j, v in enumerate(row) if v) for row in grid))


def pattern_from_packed(n: int, packed: int) -> PatternMatrix:
    """Unpack row-major bits: bit ``i*n + j`` of ``packed`` is entry (i, j)."""
    full = (1 << n) - 1
    return PatternMatrix(n, tuple((packed >> (i * n)) & full for i in range(n)))


def pattern_to_bools(p: PatternMatrix) -> list[list[bool]]:
    return [[p.get(i, j) for j in range(p.n)] for i in range(p.n)]


@cache
def zero_one_patterns(n: int) -> tuple[PatternMatrix, ...]:
    """Every n x n 0/1 pattern, 2^(n^2) of them, in the order of their row-major packing."""
    return tuple(pattern_from_packed(n, packed) for packed in range(1 << n * n))


@cache
def zero_one_matrices(n: int) -> tuple[RMatrix, ...]:
    """The matrices of ``zero_one_patterns(n)``, in order, each built from its 0/1 grid by the validating constructor."""
    return tuple(RMatrix([[int(v) for v in row] for row in pattern_to_bools(p)]) for p in zero_one_patterns(n))


@cache
def small_patterns() -> tuple[PatternMatrix, ...]:
    """Every 0/1 pattern with n <= 3: 2 + 16 + 512 = 530, by n."""
    return tuple(p for n in (1, 2, 3) for p in zero_one_patterns(n))


@cache
def small_zero_one_matrices() -> tuple[RMatrix, ...]:
    """The 530 matrices of ``small_patterns``, in the same order."""
    return tuple(a for n in (1, 2, 3) for a in zero_one_matrices(n))


@cache
def small_zero_one_potents() -> tuple[tuple[RMatrix, int], ...]:
    """The 87 potent matrices of ``small_zero_one_matrices``, each with its least r.

    A^r = A for some r >= 2 iff A^(L+1) = A, for L = ``diagonal_hit_period_lcm``;
    the least r is the first of 2, ..., L + 1 whose ``naive_power`` returns A.
    """
    potents = []
    for a in small_zero_one_matrices():
        big_l = diagonal_hit_period_lcm(a)
        r = next((k for k in range(2, big_l + 2) if naive_power(a, k) == a), None)
        if r is not None:
            potents.append((a, r))
    return tuple(potents)


def count_nonzero(p: PatternMatrix) -> int:
    return sum(mask.bit_count() for mask in p.rows)


def is_positive(a: RMatrix) -> bool:
    return all(map(all, a.num))


def is_primitive(a: RMatrix) -> bool:
    """Indecomposable with period one; False (not an error) otherwise.

    A filter for drawing primitive test inputs; the package reads
    primitivity off the periods of the triangularization it already holds.
    """
    return block_triangularize(a).periods == (1,)


def pattern_identity(n: int) -> PatternMatrix:
    return PatternMatrix(n, tuple(1 << i for i in range(n)))


def pattern_power(p: PatternMatrix, k: int) -> PatternMatrix:
    """k-th boolean power by repeated squaring from the identity; k = 0 gives the identity."""
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    result = pattern_identity(p.n)
    base = p
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


def fisher_yates_permutation(n: int, rng: random.Random) -> Permutation:
    """The hand-written Fisher-Yates loop: swap position i with ``rng.randrange(i + 1)``, i = n - 1 ... 1."""
    images = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        images[i], images[j] = images[j], images[i]
    return Permutation(tuple(images))


def transposition(n: int, i: int, j: int) -> Permutation:
    images = list(range(n))
    images[i], images[j] = images[j], images[i]
    return Permutation(tuple(images))


def permutation_compose(p: Permutation, q: Permutation) -> Permutation:
    """p . q, the permutation i -> p(q(i))."""
    return Permutation(tuple(p.images[q.images[i]] for i in range(p.n)))


def permutation_inverse(p: Permutation) -> Permutation:
    inv = [0] * p.n
    for i, img in enumerate(p.images):
        inv[img] = i
    return Permutation(tuple(inv))


def triangularization_is_valid(t: BlockTriangularization) -> bool:
    """Whether A itself, conjugated by the triangularization's permutation, is block upper triangular."""
    return t.is_respected_by(t.source.pattern())


def as_potent(a: RMatrix, r: int) -> Potent:
    """``a`` checked at exponent ``r`` by ``potent_at``; ValueError unless A^r = A."""
    p = potent_at(a, r)
    if p is None:
        raise ValueError(f"matrix is not {r}-potent")
    return p


def decide(a: RMatrix) -> Potent | NonPotency:
    """``minimal_potency`` of ``a``'s block triangularization: ``a`` at its least r, or the proof that no r exists."""
    return minimal_potency(block_triangularize(a))


def is_decomposable_pattern(p: PatternMatrix) -> bool:
    return len(Digraph(p).strongly_connected_components()) > 1


def is_decomposable(a: RMatrix) -> bool:
    """True iff the support digraph is not strongly connected."""
    return is_decomposable_pattern(a.pattern())


def rank_one_idempotent_diag_test(a: RMatrix) -> bool:
    """Whether a nonnegative rank-one idempotent has a zero diagonal entry; ValueError for other input.

    For such a matrix that is equivalent to being decomposable.
    """
    if a @ a != a or a.rank() != 1:
        raise ValueError("input must be a nonnegative idempotent of rank one")
    return a.pattern().has_zero_diagonal_entry()


def four_part_zero_trace_rule(a: RMatrix, r: int | None) -> tuple[bool, bool | None]:
    """``(applicable, trace_is_zero)`` of the zero-trace identity, by the rule's four parts.

    It applies when A is nonzero and indecomposable, and A is r-potent with
    r >= 3 and rank r - 1; ``r`` is None when A is not potent.  Rank and
    decomposability come from ``gauss_rank`` and the SCC count, not from
    a ``Potent``.
    """
    applicable = (
        not a.is_zero()
        and not is_decomposable(a)
        and r is not None
        and r >= 3
        and gauss_rank(a) == r - 1
    )
    return applicable, (sum(a.entries[i][i] for i in range(a.n)) == 0 if applicable else None)


def wielandt_exponent(n: int) -> int:
    """n^2 - 2n + 2, the power at which every primitive n x n matrix is positive."""
    return n * n - 2 * n + 2
