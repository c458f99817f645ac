"""Reducibility of nonnegative matrices via the support digraph.

Decomposability depends on the zero pattern alone, and ``Digraph`` is that
pattern read as a graph.  Orientation convention, used consistently by every
routine here: the digraph of a matrix has an edge j -> i exactly when entry
(i, j) is nonzero, so out-neighbors are a column and in-neighbors a row.
Column j is the image of basis vector j, so a vertex set closed under
out-edges is precisely a coordinate subspace invariant under the matrix.  A
matrix is *decomposable* iff such a proper nonempty closed set exists, iff
the digraph is not strongly connected.  Both the component decision, which
finds each component and the block order with two bitmask reachability
searches, and the column-closure oracle below, which finds the invariant set
of least bitmask at any dimension with at most n reachability searches, rely
on this single convention, so they cannot drift apart by a transposition.
Each step of the component search and of ``Digraph.cycle_gcd`` is one
``matrix.mask_step`` over the columns (out-neighbors) or rows (in-neighbors);
the oracle walks the set bits itself, to stay independent of what it checks.

A lone vertex without a self-loop (a 1x1 zero matrix) counts as strongly
connected: no proper nonempty subset of a singleton exists, so it is
indecomposable by definition.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm

from .matrix import PatternMatrix, Permutation, RMatrix, mask_step


def _reach(masks: Sequence[int], start: int, within: int) -> int:
    """The vertices of ``within`` that ``start`` reaches along ``masks``, ``start`` included."""
    seen = frontier = start
    while frontier:
        frontier = mask_step(masks, frontier) & within & ~seen
        seen |= frontier
    return seen


@dataclass(frozen=True)
class Digraph:
    """The support digraph of a matrix: its pattern read as a graph.

    Edge j -> i exactly when entry (i, j) is nonzero, so the out-neighbors of
    v are the support of column v, the mask ``out[v]``, and its in-neighbors
    the support of row v, ``pattern.rows[v]``.
    """

    pattern: PatternMatrix

    @property
    def n(self) -> int:
        return self.pattern.n

    @cached_property
    def out(self) -> tuple[int, ...]:
        return self.pattern.column_masks()

    def strongly_connected_components(self) -> list[tuple[int, ...]]:
        """The strongly connected components, each sorted, in block order.

        Block order is sink first: each component comes after every component
        it has an edge into, and of the components whose successors are all
        placed, the one holding the least index comes next.  The components
        are found one at a time.  Let v be the least vertex of no component
        found yet; F is what v reaches through such vertices, and v's
        component is what in F reaches v through F.  Both searches see the
        whole component: every vertex below v lies in a component already
        found, components are found whole, and a walk between two vertices of
        one component stays inside it.  So v is the least index of its
        component, and the components are found in order of least index.
        Each is kept with the mask of the vertices outside it that it has an
        edge into; the order then takes, again and again, the first one found
        whose successors are all placed.  Nothing recurses.
        """
        n, out, into = self.n, self.out, self.pattern.rows
        found: list[tuple[int, int]] = []
        left = (1 << n) - 1
        while left:
            start = left & -left
            comp = _reach(into, start, _reach(out, start, left))
            left &= ~comp
            found.append((comp, mask_step(out, comp) & ~comp))
        order: list[tuple[int, ...]] = []
        placed = 0
        while found:
            i = next(i for i, (_, succ) in enumerate(found) if not succ & ~placed)
            comp = found.pop(i)[0]
            placed |= comp
            order.append(tuple(v for v in range(n) if comp >> v & 1))
        return order

    def cycle_gcd(self, comp: Sequence[int]) -> int:
        """Gcd of the lengths of the cycles inside ``comp``, a strongly connected vertex set.

        0 when ``comp`` has no edge, as a lone vertex without a self-loop.
        One ``mask_step`` takes BFS level k (from ``comp[0]``, inside ``comp``)
        to level k + 1 and shows which levels j <= k its edges enter, so g is
        the gcd of level(v) + 1 - level(w) over the edges v -> w (an edge into
        level k + 1 adds 0).  Over any closed walk these terms add up to its
        length, so g divides every cycle length.  Each term is the difference
        of two closed-walk lengths through the root (down the levels to v, the
        edge, a path back; down the levels to w, the same path back), so the
        period divides g, and g is the period.
        """
        out = self.out
        levels: list[int] = []
        g = 0
        left, frontier = sum(1 << v for v in comp), 1 << comp[0]
        while frontier:
            left ^= frontier
            levels.append(frontier)
            step = mask_step(out, frontier)
            g = gcd(g, *(len(levels) - j for j, level in enumerate(levels) if step & level))
            frontier = step & left
        return g


@dataclass(frozen=True)
class InvariantSubsetWitness:
    """A proper nonempty index set whose columns have support inside the set."""

    subset: frozenset[int]
    n: int

    def __post_init__(self) -> None:
        if not self.subset or len(self.subset) >= self.n:
            raise ValueError("witness must be a proper nonempty subset")
        if any(i < 0 or i >= self.n for i in self.subset):
            raise ValueError("witness index out of range")

    def verify_pattern(self, p: PatternMatrix) -> bool:
        """Whether every column of the subset has support inside it: no row outside it meets it."""
        if p.n != self.n:
            return False
        mask = sum(1 << i for i in self.subset)
        return not any(row & mask for i, row in enumerate(p.rows) if not mask >> i & 1)

    def sorted_indices(self) -> list[int]:
        return sorted(self.subset)


def sink_witness(p: PatternMatrix, components: Sequence[tuple[int, ...]]) -> InvariantSubsetWitness | None:
    """The sink, ``components[0]`` in block order, as an invariant index set; None for one component.

    A sink of the condensation has no edge leaving it, so its columns have
    support inside it; the witness is re-verified against ``p`` all the same.
    """
    if len(components) == 1:
        return None
    w = InvariantSubsetWitness(frozenset(components[0]), p.n)
    if not w.verify_pattern(p):
        raise RuntimeError("sink component failed to verify as invariant")
    return w


# Both oracle names are kept: bench/tracer.py times them as decomposition.oracle.
def brute_force_decomposable_pattern(p: PatternMatrix) -> InvariantSubsetWitness | None:
    """Oracle: the invariant index set of least bitmask, or None, from column closures.

    An index set is invariant when each of its columns has support inside
    it.  Invariant sets are closed under intersection, and C(m), the indices
    reachable from m along column supports, is the least one holding m.  Let
    S be the proper nonempty invariant set of least bitmask and M its largest
    index.  C(M) lies inside S and has largest index M, so its bitmask is at
    most that of S: C(M) = S.  For m < M, C(m) reaches an index above m, or it
    would be a proper invariant set below 2^(m+1) <= 2^M, under S.  So S is
    the first proper C(m), m = 0, 1, ..., that reaches no index above m:
    at most n searches, each dropped at its first index above m.  The
    component decision searches along column supports too, but it also
    searches backward, finds every component and orders them; this oracle
    does none of that, so it checks the decision at every dimension.
    """
    n = p.n
    cols = p.column_masks()
    full = (1 << n) - 1
    for m in range(n):
        limit = 2 << m
        seen = frontier = 1 << m
        while frontier and seen < limit:
            reach = 0
            while frontier:
                reach |= cols[(frontier & -frontier).bit_length() - 1]
                frontier &= frontier - 1
            frontier = reach & ~seen
            seen |= frontier
        if seen < limit and seen != full:
            return InvariantSubsetWitness(frozenset(i for i in range(m + 1) if seen >> i & 1), n)
    return None


def brute_force_decomposable(a: RMatrix) -> InvariantSubsetWitness | None:
    return brute_force_decomposable_pattern(a.pattern())


@dataclass(frozen=True)
class BlockTriangularization:
    """Ordered components of A = ``source`` that put A in block upper triangular form.

    ``components`` lists, per block, the original indices it contains.  Each
    block is one strongly connected component of ``graph``, the support
    digraph of A, hence indecomposable, which is what makes the
    triangularization maximal.  The order is the block order of
    ``Digraph.strongly_connected_components``: sink first, ties toward the
    least index, so conjugation by ``permutation`` leaves zeros strictly
    below the diagonal blocks.

    This is the one place where the component facts of A are decided: A is
    decomposable iff ``is_trivial`` is False, ``witness`` is the first (sink)
    component as an invariant index set, and ``periods`` are the block
    periods.  A semigroup's union pattern has no matrix: its components come
    from ``Digraph`` and its witness from ``sink_witness``, as here.
    Everything else is derived from the components when first asked for,
    then kept.  A's pattern is read once, into ``graph``; every later reader
    of A's support takes ``graph.pattern``.
    """

    components: tuple[tuple[int, ...], ...]
    source: RMatrix
    graph: Digraph

    @property
    def is_trivial(self) -> bool:
        return len(self.components) == 1

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.components)

    @cached_property
    def permutation(self) -> Permutation:
        return Permutation(tuple(v for comp in self.components for v in comp))

    @cached_property
    def diagonal_blocks(self) -> tuple[RMatrix, ...]:
        return tuple(self.source.submatrix(c) for c in self.components)

    @cached_property
    def periods(self) -> tuple[int | None, ...]:
        """Period of each diagonal block, None for a zero block; found once, then kept.

        Each block is strongly connected, so its period is the cycle gcd of
        its component in ``graph``; no block is built.
        """
        return tuple(self.graph.cycle_gcd(c) or None for c in self.components)

    @property
    def period_lcm(self) -> int:
        """The lcm of the periods of the nonzero blocks; 1 when every block is zero."""
        return lcm(*filter(None, self.periods))

    @cached_property
    def witness(self) -> InvariantSubsetWitness | None:
        """The sink component as an invariant index set, None when there is one block (``sink_witness``)."""
        return sink_witness(self.graph.pattern, self.components)

    def is_respected_by(self, m: PatternMatrix) -> bool:
        """Whether a matrix of support ``m``, conjugated by the same permutation, is block upper triangular."""
        if m.n != self.source.n:
            return False
        # row i may have support only in the block of i and the blocks after it
        allowed, later = [0] * m.n, 0
        for comp in reversed(self.components):
            later |= sum(1 << v for v in comp)
            for v in comp:
                allowed[v] = later
        return not any(row & ~ok for row, ok in zip(m.rows, allowed))

    def to_dict(self) -> dict:
        return {
            "is_trivial": self.is_trivial,
            "block_sizes": list(self.block_sizes),
            "permutation": list(self.permutation.images),
            "components": [list(c) for c in self.components],
        }


def block_triangularize(a: RMatrix) -> BlockTriangularization:
    """Maximal standard block triangularization via strongly connected components.

    Indecomposable input yields the trivial single-block result, flagged
    ``is_trivial``.
    """
    graph = Digraph(a.pattern())
    return BlockTriangularization(tuple(graph.strongly_connected_components()), a, graph)
