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

from dataclasses import dataclass

from .matrix import PatternMatrix, Permutation, RMatrix
from .potency import is_r_potent, zero_diagonal_powers

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

    def is_strongly_connected(self) -> bool:
        return len(self.strongly_connected_components()) == 1


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
    """Permutation plus ordered diagonal blocks of a block upper triangular form.

    ``components`` lists, per block, the original indices it contains.  Each
    block is one strongly connected component of the support digraph, hence
    indecomposable, which is what makes the triangularization maximal.  The
    order is a sink-first linear extension of the condensation, so conjugation
    by ``permutation`` leaves zeros strictly below the diagonal blocks.
    """

    permutation: Permutation
    block_sizes: tuple[int, ...]
    diagonal_blocks: tuple[RMatrix, ...]
    is_trivial: bool
    components: tuple[tuple[int, ...], ...]
    source: RMatrix

    def conjugated(self) -> RMatrix:
        return self.source.conjugate(self.permutation)

    def block_starts(self) -> list[int]:
        starts = [0]
        for size in self.block_sizes[:-1]:
            starts.append(starts[-1] + size)
        return starts

    def is_respected_by(self, m: RMatrix) -> bool:
        """Whether conjugating ``m`` by the same permutation is block upper triangular."""
        if m.n != self.source.n:
            return False
        b = m.conjugate(self.permutation)
        starts = self.block_starts()
        bounds = list(zip(starts, self.block_sizes))
        for bi, (ri, rs) in enumerate(bounds):
            for bj, (cj, cs) in enumerate(bounds):
                if bi <= bj:
                    continue
                for i in range(ri, ri + rs):
                    for j in range(cj, cj + cs):
                        if b.num[i][j]:
                            return False
        return True

    def is_valid(self) -> bool:
        return self.is_respected_by(self.source)

    def with_component_order(self, order: list[int]) -> BlockTriangularization:
        """Rebuild with components permuted into the given order (indices into ``components``)."""
        if sorted(order) != list(range(len(self.components))):
            raise ValueError("order must permute the component indices")
        comps = tuple(self.components[i] for i in order)
        return _assemble(self.source, list(comps))

    def to_dict(self) -> dict:
        return {
            "is_trivial": self.is_trivial,
            "block_sizes": list(self.block_sizes),
            "permutation": list(self.permutation.images),
            "components": [list(c) for c in self.components],
        }


def _assemble(a: RMatrix, ordered: list[tuple[int, ...]]) -> BlockTriangularization:
    images = tuple(v for comp in ordered for v in comp)
    return BlockTriangularization(
        permutation=Permutation(images),
        block_sizes=tuple(len(c) for c in ordered),
        diagonal_blocks=tuple(a.submatrix(c) for c in ordered),
        is_trivial=len(ordered) == 1,
        components=tuple(ordered),
        source=a,
    )


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
    return _assemble(a, [comps[ci] for ci in order])


def rank_one_idempotent_diag_test(a: RMatrix) -> bool:
    """Zero-diagonal test for rank-one idempotents.

    For a nonnegative idempotent of rank one, having a zero diagonal entry is
    equivalent to being decomposable; callers assert that equivalence against
    ``is_decomposable``.
    """
    if not is_r_potent(a, 2) or a.rank() != 1:
        raise ValueError("input must be a nonnegative idempotent of rank one")
    return a.has_zero_diagonal_entry()


@dataclass(frozen=True)
class DecompositionPrediction:
    """Outcome of the rank/diagonal decomposability criteria on one r-potent matrix.

    ``case`` is one of:

    * ``rank_above_threshold``   rank > r-1, decomposability predicted;
    * ``singular_zero_diagonal`` rank <= r-1, singular, and A^2 .. A^(r-1)
      each have a zero diagonal entry, decomposability predicted;
    * ``no_prediction``          neither criterion fires.

    The second case only fires for r >= 3 and n >= 2: for r = 2 the power
    condition is vacuous and positive rank-one idempotents are singular yet
    indecomposable, and the 1x1 zero matrix satisfies everything while having
    no proper nonempty subset to decompose along.
    """

    case: str
    predicted_decomposable: bool | None
    actual_decomposable: bool
    rank: int
    r: int

    @property
    def agrees(self) -> bool:
        return self.predicted_decomposable is None or (
            self.predicted_decomposable == self.actual_decomposable
        )

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "predicted_decomposable": self.predicted_decomposable,
            "actual_decomposable": self.actual_decomposable,
            "rank": self.rank,
            "r": self.r,
            "agrees": self.agrees,
        }


def main_decomposability_test(a: RMatrix, r: int) -> DecompositionPrediction:
    """Classify an r-potent matrix by the decomposability criteria and compare."""
    if not is_r_potent(a, r):
        raise ValueError(f"matrix is not {r}-potent")
    k = a.rank()
    actual = is_decomposable(a)
    if k > r - 1:
        case, predicted = "rank_above_threshold", True
    elif (
        r >= 3
        and a.n >= 2
        and k < a.n
        and set(range(2, r)) <= zero_diagonal_powers(a, r)
    ):
        case, predicted = "singular_zero_diagonal", True
    else:
        case, predicted = "no_prediction", None
    return DecompositionPrediction(
        case=case,
        predicted_decomposable=predicted,
        actual_decomposable=actual,
        rank=k,
        r=r,
    )
