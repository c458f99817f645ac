"""Per-block structure of maximal triangularizations of r-potent matrices.

For a decomposable r-potent matrix of rank k, every diagonal block of a
maximal standard block triangularization is either zero or an indecomposable
r-potent block of rank at most r-1; the block ranks sum to k, so the number
of nonzero blocks lies between ceil(k/(r-1)) and k.  When the blocks can be
ordered so that no two zero blocks are adjacent, the total block count is at
most 2k+1.  This module computes those facts and searches the linear
extensions of the condensation for a zero-separating order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomposition import BlockTriangularization, condensation_successors
from .potency import Potent

EXACT_REORDER_LIMIT = 16


@dataclass(frozen=True)
class BlockRecord:
    size: int
    is_zero: bool
    block_rank: int
    block_is_r_potent: bool
    block_is_indecomposable: bool

    @property
    def satisfies_dichotomy(self) -> bool:
        """Zero, or an indecomposable r-potent block (rank bound checked by caller)."""
        return self.is_zero or (self.block_is_r_potent and self.block_is_indecomposable)

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "is_zero": self.is_zero,
            "block_rank": self.block_rank,
            "block_is_r_potent": self.block_is_r_potent,
            "block_is_indecomposable": self.block_is_indecomposable,
        }


@dataclass(frozen=True)
class StructureReport:
    """Block-level classification and count bounds for one r-potent matrix.

    ``applicable`` is False for indecomposable input (trivial single block),
    in which case the bounds are reported but carry no content.
    """

    k: int
    r: int
    applicable: bool
    blocks: tuple[BlockRecord, ...]
    nonzero_count: int
    total_count: int
    consecutive_zero_pairs: int
    bounds_ok: bool

    @property
    def blocks_ok(self) -> bool:
        return all(
            b.satisfies_dichotomy and (b.is_zero or b.block_rank <= self.r - 1)
            for b in self.blocks
        )

    @property
    def rank_sum_ok(self) -> bool:
        return sum(b.block_rank for b in self.blocks) == self.k

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "r": self.r,
            "applicable": self.applicable,
            "blocks": [b.to_dict() for b in self.blocks],
            "nonzero_count": self.nonzero_count,
            "total_count": self.total_count,
            "consecutive_zero_pairs": self.consecutive_zero_pairs,
            "bounds_ok": self.bounds_ok,
            "blocks_ok": self.blocks_ok,
            "rank_sum_ok": self.rank_sum_ok,
        }


def count_adjacent_zero_pairs(t: BlockTriangularization) -> int:
    flags = [blk.is_zero() for blk in t.diagonal_blocks]
    return sum(1 for a, b in zip(flags, flags[1:]) if a and b)


def analyze_structure(p: Potent) -> StructureReport:
    """Classify every diagonal block of A's triangularization ``p.tri`` and evaluate the bounds.

    A block B on a component C is r-potent iff B ``p.projection``[C, C] = B:
    every walk between two vertices of one strongly connected component
    stays inside it, so A^(r-1)[C, C] = B^(r-1), and the test is B^r = B.
    """
    t, r, k = p.tri, p.r, p.rank
    if t.is_trivial:
        # the one block is A itself, whose facts are known
        records = [BlockRecord(p.a.n, p.a.is_zero(), k, True, True)]
    else:
        projection = p.projection
        records = [
            BlockRecord(
                size=blk.n,
                is_zero=blk.is_zero(),
                block_rank=blk.rank(),
                block_is_r_potent=blk @ projection.submatrix(comp) == blk,
                block_is_indecomposable=True,  # a strongly connected component, by construction
            )
            for comp, blk in zip(t.components, t.diagonal_blocks)
        ]
    nonzero_count = sum(1 for rec in records if not rec.is_zero)
    total = len(records)
    lower = -(-k // (r - 1))  # ceil(k / (r-1))
    bounds_ok = (lower <= nonzero_count <= k) and total <= 2 * k + 1
    return StructureReport(
        k=k,
        r=r,
        applicable=not t.is_trivial,
        blocks=tuple(records),
        nonzero_count=nonzero_count,
        total_count=total,
        consecutive_zero_pairs=count_adjacent_zero_pairs(t),
        bounds_ok=bounds_ok,
    )


def reorder_to_avoid_consecutive_zeros(t: BlockTriangularization) -> BlockTriangularization:
    """Reorder blocks to minimize adjacent zero-zero pairs.

    Searches the linear extensions of the condensation order: exact dynamic
    programming over placed-component bitmasks up to ``EXACT_REORDER_LIMIT``
    components, a flag-alternating greedy beyond.  The result is always a
    valid block triangularization of the same components; the achieved pair
    count is whatever ``count_adjacent_zero_pairs`` reports on it, which may
    be nonzero when no extension separates the zeros.
    """
    m = len(t.components)
    if m <= 1:
        return t
    succ = condensation_successors(t.components, t.graph)
    succ_masks = [0] * m
    for ci, targets in enumerate(succ):
        for tj in targets:
            succ_masks[ci] |= 1 << tj
    zero_flags = [blk.is_zero() for blk in t.diagonal_blocks]
    if m <= EXACT_REORDER_LIMIT:
        order = _best_order_exact(m, succ_masks, zero_flags, t)
    else:
        order = _best_order_greedy(m, succ_masks, zero_flags, t)
    return t.with_component_order(order)


def _best_order_exact(
    m: int, succ_masks: list[int], zero_flags: list[bool], t: BlockTriangularization
) -> list[int]:
    # States keyed by (placed mask, last block was zero); value: (pairs, parent key, chosen).
    # Masks are processed in order of population count, so every predecessor
    # state is finalized before it is extended.
    start = (0, False)
    layers: list[dict[tuple[int, bool], tuple[int, tuple[int, bool] | None, int | None]]] = [
        {} for _ in range(m + 1)
    ]
    layers[0][start] = (0, None, None)
    for count in range(m):
        for (mask, last_zero), (pairs, _, _) in layers[count].items():
            for ci in range(m):
                bit = 1 << ci
                if mask & bit:
                    continue
                if succ_masks[ci] & ~mask:
                    continue
                new_pairs = pairs + (1 if (count > 0 and last_zero and zero_flags[ci]) else 0)
                key = (mask | bit, zero_flags[ci])
                prev = layers[count + 1].get(key)
                if prev is None or new_pairs < prev[0]:
                    layers[count + 1][key] = (new_pairs, (mask, last_zero), ci)
    final_key = min(layers[m], key=lambda k: layers[m][k][0])
    order_rev = []
    key: tuple[int, bool] | None = final_key
    count = m
    while key is not None and count > 0:
        _, parent, chosen = layers[count][key]
        order_rev.append(chosen)
        key = parent
        count -= 1
    order = [ci for ci in reversed(order_rev) if ci is not None]
    assert len(order) == m
    return order


def _best_order_greedy(
    m: int, succ_masks: list[int], zero_flags: list[bool], t: BlockTriangularization
) -> list[int]:
    placed_mask = 0
    last_zero: bool | None = None
    order: list[int] = []
    while len(order) < m:
        avail = [
            ci
            for ci in range(m)
            if not (placed_mask >> ci & 1) and not (succ_masks[ci] & ~placed_mask)
        ]
        # After a zero block prefer a nonzero one; after a nonzero block place
        # a zero block if possible so nonzero blocks are saved as separators.
        want_zero = not last_zero if last_zero is not None else True
        preferred = [ci for ci in avail if zero_flags[ci] == want_zero]
        pool = preferred or avail
        pick = min(pool, key=lambda ci: t.components[ci][0])
        order.append(pick)
        placed_mask |= 1 << pick
        last_zero = zero_flags[pick]
    return order
