"""Reducibility of nonnegative matrices via the support digraph.

Orientation convention, used consistently by every routine here: the digraph
of a matrix has an edge j -> i exactly when entry (i, j) is nonzero.  Column
j is the image of basis vector j, so a vertex set closed under out-edges is
precisely a coordinate subspace invariant under the matrix.  A matrix is
*decomposable* iff such a proper nonempty closed set exists, iff the digraph
is not strongly connected.  Both the component-based decision and the
exhaustive subset oracle below rely on this single convention, so they cannot
drift apart by a transposition.

A lone vertex without a self-loop (a 1x1 zero matrix) counts as strongly
connected: no proper nonempty subset of a singleton exists, so it is
indecomposable by definition.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm

from .matrix import PatternMatrix, Permutation, RMatrix

BRUTE_FORCE_LIMIT = 20


@dataclass(frozen=True)
class Digraph:
    """Support digraph with per-vertex out-neighbor bitmasks."""

    n: int
    out: tuple[int, ...]

    @classmethod
    def from_pattern(cls, p: PatternMatrix) -> Digraph:
        # out-neighbors of v = support of column v
        return cls(p.n, p.column_masks())

    @classmethod
    def from_matrix(cls, a: RMatrix) -> Digraph:
        return cls.from_pattern(a.pattern())

    def strongly_connected_components(self) -> list[tuple[int, ...]]:
        """Tarjan's algorithm; components sorted internally by vertex index.

        Emission order places a component after every component it can reach,
        which is already a valid block order; the deterministic tie-broken
        order used for triangularization is computed separately.  The depth
        first search keeps its own stack of ``[vertex, unvisited out-mask]``
        frames instead of recursing, so a long path or cycle cannot hit the
        interpreter's recursion limit; it visits neighbours in increasing
        index order, as the recursive form does, and emits the same sequence.
        """
        n = self.n
        out = self.out
        index = [-1] * n
        low = [0] * n
        on_stack = [False] * n
        stack: list[int] = []
        comps: list[tuple[int, ...]] = []
        counter = 0
        for root in range(n):
            if index[root] >= 0:
                continue
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack[root] = True
            frames = [[root, out[root]]]
            while frames:
                frame = frames[-1]
                v, m = frame
                if m:
                    w = (m & -m).bit_length() - 1
                    frame[1] = m & (m - 1)
                    if index[w] < 0:
                        index[w] = low[w] = counter
                        counter += 1
                        stack.append(w)
                        on_stack[w] = True
                        frames.append([w, out[w]])
                    elif on_stack[w]:
                        low[v] = min(low[v], index[w])
                    continue
                frames.pop()
                if frames:
                    u = frames[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(tuple(sorted(comp)))
        return comps

    def cycle_gcd(self, comp: Sequence[int]) -> int:
        """Gcd of the lengths of the cycles inside ``comp``, a strongly connected vertex set.

        0 when ``comp`` has no edge, as a lone vertex without a self-loop.
        Computed from a BFS level assignment inside ``comp``: the gcd over
        all its edges v -> w of level(v) + 1 - level(w) equals the gcd of all
        cycle lengths.
        """
        out = self.out
        inside = sum(1 << v for v in comp)
        level = {comp[0]: 0}
        frontier = [comp[0]]
        while frontier:
            nxt = []
            for v in frontier:
                m = out[v] & inside
                while m:
                    w = (m & -m).bit_length() - 1
                    m &= m - 1
                    if w not in level:
                        level[w] = level[v] + 1
                        nxt.append(w)
            frontier = nxt
        g = 0
        for v in comp:
            m = out[v] & inside
            while m:
                w = (m & -m).bit_length() - 1
                m &= m - 1
                g = gcd(g, abs(level[v] + 1 - level[w]))
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
        if p.n != self.n:
            return False
        mask = 0
        for i in self.subset:
            mask |= 1 << i
        cols = p.column_masks()
        return all(not (cols[j] & ~mask) for j in self.subset)

    def verify(self, a: RMatrix) -> bool:
        return self.verify_pattern(a.pattern())

    def sorted_indices(self) -> list[int]:
        return sorted(self.subset)


def is_decomposable_pattern(p: PatternMatrix) -> bool:
    return len(Digraph.from_pattern(p).strongly_connected_components()) > 1


def is_decomposable(a: RMatrix) -> bool:
    """True iff the support digraph is not strongly connected."""
    return is_decomposable_pattern(a.pattern())


def brute_force_decomposable_pattern(p: PatternMatrix) -> InvariantSubsetWitness | None:
    """Exhaustive oracle: scan all proper nonempty index subsets.

    Returns the witness with the smallest bitmask, or None.  Deliberately
    independent of the component-based decision so the two can cross-check
    each other.
    """
    n = p.n
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"exhaustive subset search limited to n <= {BRUTE_FORCE_LIMIT}")
    cols = p.column_masks()
    for subset in range(1, (1 << n) - 1):
        s = subset
        closed = True
        while s:
            j = (s & -s).bit_length() - 1
            s &= s - 1
            if cols[j] & ~subset:
                closed = False
                break
        if closed:
            members = frozenset(i for i in range(n) if subset >> i & 1)
            return InvariantSubsetWitness(members, n)
    return None


def brute_force_decomposable(a: RMatrix) -> InvariantSubsetWitness | None:
    return brute_force_decomposable_pattern(a.pattern())


@dataclass(frozen=True)
class BlockTriangularization:
    """Ordered components of A = ``source`` that put A in block upper triangular form.

    ``components`` lists, per block, the original indices it contains.  Each
    block is one strongly connected component of ``graph``, the support
    digraph of A, hence indecomposable, which is what makes the
    triangularization maximal.  The order is a sink-first linear extension of
    the condensation, so conjugation by ``permutation`` leaves zeros strictly
    below the diagonal blocks.

    This is the one place where the component facts of A are decided: A is
    decomposable iff ``is_trivial`` is False, ``witness`` is the first (sink)
    component as an invariant index set, and ``periods`` are the block
    periods.  A semigroup's facts are those of the triangularization of its
    union pattern.  Everything else is derived from the components when first
    asked for, then kept.
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
        """The sink component as an invariant index set, None when there is one block.

        A sink of the condensation has no edge leaving it, so its columns have
        support inside it; the witness is re-verified against A all the same.
        """
        if self.is_trivial:
            return None
        w = InvariantSubsetWitness(frozenset(self.components[0]), self.source.n)
        if not w.verify(self.source):
            raise RuntimeError("sink component failed to verify as invariant")
        return w

    def conjugated(self) -> RMatrix:
        return self.source.conjugate(self.permutation)

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

    def is_valid(self) -> bool:
        return self.is_respected_by(self.source.pattern())

    def with_component_order(self, order: list[int]) -> BlockTriangularization:
        """Rebuild with components permuted into the given order (indices into ``components``)."""
        if sorted(order) != list(range(len(self.components))):
            raise ValueError("order must permute the component indices")
        return BlockTriangularization(tuple(self.components[i] for i in order), self.source, self.graph)

    def to_dict(self) -> dict:
        return {
            "is_trivial": self.is_trivial,
            "block_sizes": list(self.block_sizes),
            "permutation": list(self.permutation.images),
            "components": [list(c) for c in self.components],
        }


def condensation_successors(
    components: tuple[tuple[int, ...], ...], graph: Digraph
) -> list[set[int]]:
    """Per component, the set of other components reachable by a single edge."""
    comp_of = [0] * graph.n
    for ci, comp in enumerate(components):
        for v in comp:
            comp_of[v] = ci
    succ: list[set[int]] = [set() for _ in components]
    for v in range(graph.n):
        m = graph.out[v]
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            if comp_of[w] != comp_of[v]:
                succ[comp_of[v]].add(comp_of[w])
    return succ


def _sink_first_order(components: list[tuple[int, ...]], graph: Digraph) -> list[int]:
    """Kahn's algorithm on the condensation, sinks first.

    A component becomes available once all condensation successors are
    placed; edges then point from later blocks into earlier ones, which is
    exactly block upper triangular under the chosen orientation.  Ties break
    toward the component containing the smallest original index, making the
    output deterministic.
    """
    if len(components) == 1:
        return [0]
    succ = condensation_successors(tuple(components), graph)
    placed = [False] * len(components)
    order: list[int] = []
    for _ in components:
        best = None
        for ci in range(len(components)):
            if placed[ci]:
                continue
            if all(placed[t] for t in succ[ci]):
                if best is None or components[ci][0] < components[best][0]:
                    best = ci
        assert best is not None, "condensation of a DAG always has a sink"
        order.append(best)
        placed[best] = True
    return order


def block_triangularize(a: RMatrix) -> BlockTriangularization:
    """Maximal standard block triangularization via strongly connected components.

    Indecomposable input yields the trivial single-block result, flagged
    ``is_trivial``.
    """
    graph = Digraph.from_matrix(a)
    comps = graph.strongly_connected_components()
    order = _sink_first_order(comps, graph)
    return BlockTriangularization(tuple(comps[ci] for ci in order), a, graph)


def rank_one_idempotent_diag_test(a: RMatrix) -> bool:
    """Zero-diagonal test for rank-one idempotents.

    For a nonnegative idempotent of rank one, having a zero diagonal entry is
    equivalent to being decomposable; callers assert that equivalence against
    ``is_decomposable``.
    """
    if a @ a != a or a.rank() != 1:
        raise ValueError("input must be a nonnegative idempotent of rank one")
    return a.pattern().has_zero_diagonal_entry()
