"""Exact dense matrices over the rationals, their zero patterns, and permutations.

Everything downstream (potency detection, reducibility, semigroup closures)
is built from three immutable value types:

* ``RMatrix``       square nonnegative rational matrix, stored as one common
                    denominator and a grid of integer numerators
* ``PatternMatrix`` boolean support of such a matrix, stored as row bitmasks
* ``Permutation``   bijection of ``{0, ..., n-1}`` for simultaneous relabeling

Arithmetic in this module is exact; no floating point enters.  A product of
two matrices is an integer matrix product plus one gcd normalisation, instead
of a ``Fraction`` gcd on every multiply and add.  Input is validated where it
enters: ``coerce_entry`` and the public ``RMatrix`` constructors reject
booleans, unparsable strings, non-square grids and negative entries, and
operations on validated matrices build their results without re-checking.
Storage is dense: the target dimensions are at most a few dozen, where dense
layout is the simplest thing that works.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from operator import add, mul
from typing import Iterator, Sequence

Entry = Fraction | int | str

_ZERO = Fraction(0)
_ONE = Fraction(1)


def coerce_entry(value: Entry) -> Fraction:
    """Turn an int, ``"p/q"`` string, or Fraction into a Fraction.

    ``bool`` is rejected although it is an ``int`` subclass: a JSON ``true``
    is not a matrix entry.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"boolean matrix entry {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse matrix entry {value!r}") from exc
    raise TypeError(f"unsupported matrix entry type {type(value).__name__}")


def format_entry(x: Fraction) -> int | str:
    """Render an entry for JSON: a plain int when integral, else ``"p/q"``."""
    return _format_ratio(x.numerator, x.denominator)


def _format_ratio(p: int, q: int) -> int | str:
    """``format_entry`` of ``p / q`` (q > 0) without building the Fraction."""
    g = gcd(p, q)
    if g == q:
        return p // q
    return f"{p // g}/{q // g}"


@dataclass(frozen=True)
class PatternMatrix:
    """Zero/nonzero support of a nonnegative matrix.

    Bit ``j`` of ``rows[i]`` is set iff entry ``(i, j)`` is nonzero.  Because
    nonnegative products cannot cancel, supports compose multiplicatively:
    the support of ``A @ B`` equals the boolean product of the supports.
    That makes patterns a faithful carrier for closure computations.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("pattern dimension must be positive")
        if len(self.rows) != self.n:
            raise ValueError("row count does not match dimension")
        full = (1 << self.n) - 1
        for mask in self.rows:
            if mask & ~full:
                raise ValueError("row bitmask wider than dimension")

    @classmethod
    def from_bools(cls, grid: Sequence[Sequence[bool]]) -> PatternMatrix:
        n = len(grid)
        rows = []
        for row in grid:
            if len(row) != n:
                raise ValueError("pattern must be square")
            mask = 0
            for j, v in enumerate(row):
                if v:
                    mask |= 1 << j
            rows.append(mask)
        return cls(n, tuple(rows))

    @classmethod
    def from_packed(cls, n: int, packed: int) -> PatternMatrix:
        """Unpack row-major bits: bit ``i*n + j`` of ``packed`` is entry (i, j)."""
        full = (1 << n) - 1
        return cls(n, tuple((packed >> (i * n)) & full for i in range(n)))

    @classmethod
    def identity(cls, n: int) -> PatternMatrix:
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def full(cls, n: int) -> PatternMatrix:
        return cls(n, ((1 << n) - 1,) * n)

    def get(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def __mul__(self, other: PatternMatrix) -> PatternMatrix:
        if not isinstance(other, PatternMatrix):
            return NotImplemented
        if other.n != self.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        out = []
        for mask in self.rows:
            acc = 0
            m = mask
            while m:
                k = (m & -m).bit_length() - 1
                acc |= other.rows[k]
                m &= m - 1
            out.append(acc)
        return PatternMatrix(self.n, tuple(out))

    def __or__(self, other: PatternMatrix) -> PatternMatrix:
        if not isinstance(other, PatternMatrix):
            return NotImplemented
        if other.n != self.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        return PatternMatrix(self.n, tuple(a | b for a, b in zip(self.rows, other.rows)))

    def column_masks(self) -> tuple[int, ...]:
        """Bitmask per column: bit ``i`` of result[j] iff entry (i, j) is set."""
        cols = [0] * self.n
        for i, mask in enumerate(self.rows):
            m = mask
            while m:
                j = (m & -m).bit_length() - 1
                cols[j] |= 1 << i
                m &= m - 1
        return tuple(cols)

    def is_full(self) -> bool:
        full = (1 << self.n) - 1
        return all(mask == full for mask in self.rows)

    def count_nonzero(self) -> int:
        return sum(mask.bit_count() for mask in self.rows)

    def first_zero(self) -> tuple[int, int] | None:
        """First position (row-major) at which the pattern is zero, if any."""
        full = (1 << self.n) - 1
        for i, mask in enumerate(self.rows):
            missing = full & ~mask
            if missing:
                return i, (missing & -missing).bit_length() - 1
        return None

    def zero_positions(self) -> Iterator[tuple[int, int]]:
        for i in range(self.n):
            for j in range(self.n):
                if not self.get(i, j):
                    yield i, j

    def to_bools(self) -> list[list[bool]]:
        return [[self.get(i, j) for j in range(self.n)] for i in range(self.n)]


@dataclass(frozen=True)
class Permutation:
    """Bijection of ``{0, ..., n-1}``, stored as the image tuple.

    ``to_matrix`` produces the matrix P with P e_j = e_{images[j]}, so
    conjugating by P relabels coordinate i of the original as position
    ``images^{-1}(i)``.
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if n < 1:
            raise ValueError("permutation size must be positive")
        if sorted(self.images) != list(range(n)):
            raise ValueError("images do not form a bijection")

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(tuple(range(n)))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> Permutation:
        images = list(range(n))
        images[i], images[j] = images[j], images[i]
        return cls(tuple(images))

    @classmethod
    def random(cls, n: int, rng) -> Permutation:
        """Fisher-Yates shuffle driven by ``rng.randrange`` (reproducible)."""
        images = list(range(n))
        for i in range(n - 1, 0, -1):
            j = rng.randrange(i + 1)
            images[i], images[j] = images[j], images[i]
        return cls(tuple(images))

    def __call__(self, i: int) -> int:
        return self.images[i]

    def compose(self, other: Permutation) -> Permutation:
        """(self . other)(i) = self(other(i))."""
        if other.n != self.n:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.images[other.images[i]] for i in range(self.n)))

    def inverse(self) -> Permutation:
        inv = [0] * self.n
        for i, img in enumerate(self.images):
            inv[img] = i
        return Permutation(tuple(inv))

    def cycle_lengths(self) -> tuple[int, ...]:
        seen = [False] * self.n
        lengths = []
        for start in range(self.n):
            if seen[start]:
                continue
            length = 0
            i = start
            while not seen[i]:
                seen[i] = True
                i = self.images[i]
                length += 1
            lengths.append(length)
        return tuple(sorted(lengths))

    def to_matrix(self) -> RMatrix:
        rows = [[_ZERO] * self.n for _ in range(self.n)]
        for j, img in enumerate(self.images):
            rows[img][j] = _ONE
        return RMatrix(tuple([tuple(row) for row in rows]))


class RMatrix:
    """Square nonnegative matrix with exact rational entries.

    Stored as one positive common denominator ``den`` and a tuple-of-tuples
    grid ``num`` of nonnegative integers: entry (i, j) is ``num[i][j] / den``.
    The form is canonical: ``gcd(den, every numerator) == 1``, so the zero
    matrix has ``den == 1``, and two matrices are equal iff their ``(den,
    num)`` pairs are.  Products are integer matrix products followed by one
    gcd normalisation.

    Instances are immutable and hashable; every operation returns a new
    matrix.  Squareness, entry types and nonnegativity are checked in
    ``__post_init__``, which every public constructor runs: ``RMatrix(entries)``
    with a grid of ``Fraction``, ``from_rows``, ``identity``, ``zeros``,
    ``diagonal``, the JSON and CSV readers and ``Permutation.to_matrix``.
    Results of operations on validated matrices (products, powers, Kronecker
    products, relabellings, submatrices) are built by ``_make`` without those
    checks: products and sums of nonnegative integers stay nonnegative.

    ``entries`` is a read-only ``Fraction`` view of the grid, built on first
    use and then kept.

    Tuples are built from lists, ``tuple([...])``, never from generators or
    ``map``: CPython sizes a tuple built from an iterator by reallocating it,
    so such a tuple is not taken from the per-length free list of short
    tuples but is put on it when freed.  Over many products those lists grow
    to thousands of tuples per length and hold megabytes.
    """

    __slots__ = ("den", "num", "_entries", "_hash")

    den: int
    num: tuple[tuple[int, ...], ...]

    def __init__(self, entries: Sequence[Sequence[Fraction]]) -> None:
        object.__setattr__(self, "_entries", entries)
        self.__post_init__()

    def __post_init__(self) -> None:
        # Kept under its dataclass name: bench/tracer.py counts validated
        # constructions by wrapping RMatrix.__post_init__.
        grid = self._entries
        n = len(grid)
        if n < 1:
            raise ValueError("matrix dimension must be positive")
        for i, row in enumerate(grid):
            if len(row) != n:
                raise ValueError("matrix must be square")
            for j, x in enumerate(row):
                if not isinstance(x, Fraction):
                    raise TypeError(f"entry ({i}, {j}) is not a Fraction")
                if x.numerator < 0:
                    raise ValueError(f"negative entry {x} at ({i}, {j})")
        den = lcm(*[x.denominator for row in grid for x in row])
        if den == 1:
            num = tuple([tuple([x.numerator for x in row]) for row in grid])
        else:
            num = tuple([tuple([x.numerator * (den // x.denominator) for x in row]) for row in grid])
        setattr_ = object.__setattr__
        setattr_(self, "den", den)
        setattr_(self, "num", num)
        setattr_(self, "_entries", tuple([tuple(row) for row in grid]))
        setattr_(self, "_hash", None)

    @classmethod
    def _make(cls, den: int, num: tuple[tuple[int, ...], ...]) -> RMatrix:
        """Trusted constructor: ``(den, num)`` must already be canonical and nonnegative."""
        m = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(m, "den", den)
        setattr_(m, "num", num)
        setattr_(m, "_entries", None)
        setattr_(m, "_hash", None)
        return m

    @classmethod
    def _normalized(cls, den: int, num: tuple[tuple[int, ...], ...]) -> RMatrix:
        """Divide ``den`` and every numerator by their gcd, then build without checks."""
        if den != 1:
            g = gcd(den, *chain.from_iterable(num))
            if g != 1:
                den //= g
                num = tuple([tuple([x // g for x in row]) for row in num])
        return cls._make(den, num)

    def __setattr__(self, name, value):
        raise AttributeError(f"RMatrix is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"RMatrix is immutable: cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RMatrix):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.den, self.num))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def n(self) -> int:
        return len(self.num)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """Entries as ``Fraction`` values (built once, on first use)."""
        grid = self._entries
        if grid is None:
            den = self.den
            grid = tuple([tuple([Fraction(x, den) if x else _ZERO for x in row]) for row in self.num])
            object.__setattr__(self, "_entries", grid)
        return grid

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Entry]]) -> RMatrix:
        return cls(tuple([tuple([coerce_entry(x) for x in row]) for row in rows]))

    @classmethod
    def identity(cls, n: int) -> RMatrix:
        return cls(tuple([tuple([_ONE if i == j else _ZERO for j in range(n)]) for i in range(n)]))

    @classmethod
    def zeros(cls, n: int) -> RMatrix:
        return cls(((_ZERO,) * n,) * n)

    @classmethod
    def diagonal(cls, values: Sequence[Entry]) -> RMatrix:
        vals = [coerce_entry(v) for v in values]
        n = len(vals)
        return cls(tuple([tuple([vals[i] if i == j else _ZERO for j in range(n)]) for i in range(n)]))

    def get(self, i: int, j: int) -> Fraction:
        return Fraction(self.num[i][j], self.den)

    def __matmul__(self, other: RMatrix) -> RMatrix:
        if not isinstance(other, RMatrix):
            return NotImplemented
        n = len(self.num)
        if len(other.num) != n:
            raise ValueError(f"dimension mismatch: {n} vs {other.n}")
        b = other.num
        zero_row = (0,) * n
        cols = None
        rows = []
        for row in self.num:
            support = [k for k, f in enumerate(row) if f]
            if 2 * len(support) < n:
                # Sparse row: add up the rows of b it selects, n operations
                # per nonzero instead of n per column.
                acc = zero_row
                for k in support:
                    f = row[k]
                    if f == 1 and acc is zero_row:
                        acc = b[k]
                    else:
                        acc = tuple([*map(add, acc, b[k] if f == 1 else map(mul, b[k], repeat(f)))])
                rows.append(acc)
            else:
                if cols is None:
                    cols = tuple(zip(*b))
                rows.append(tuple([sum(map(mul, row, col)) for col in cols]))
        return RMatrix._normalized(self.den * other.den, tuple(rows))

    def pow(self, k: int) -> RMatrix:
        """Exact k-th power by repeated squaring; ``pow(0)`` is the identity."""
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        n = self.n
        result = RMatrix._make(1, tuple([tuple([int(i == j) for j in range(n)]) for i in range(n)]))
        base = self
        while k:
            if k & 1:
                result = result @ base
            k >>= 1
            if k:
                base = base @ base
        return result

    def kron(self, other: RMatrix) -> RMatrix:
        """Kronecker product: block (i, j) of the result is entry (i,j) times ``other``."""
        zero_block = (0,) * other.n
        rows = []
        for arow in self.num:
            for brow in other.num:
                row: list[int] = []
                for f in arow:
                    row.extend(map(mul, brow, repeat(f)) if f else zero_block)
                rows.append(tuple(row))
        return RMatrix._normalized(self.den * other.den, tuple(rows))

    def trace(self) -> Fraction:
        return Fraction(sum(row[i] for i, row in enumerate(self.num)), self.den)

    def diagonal_entries(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple([Fraction(row[i], den) for i, row in enumerate(self.num)])

    def has_zero_diagonal_entry(self) -> bool:
        return any(not row[i] for i, row in enumerate(self.num))

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def is_positive(self) -> bool:
        return all(map(all, self.num))

    def rank(self) -> int:
        """Exact rank over the rationals.

        Fraction-free Bareiss elimination on the integer grid ``num`` (scaling
        by the common denominator does not change rank).  Every division in
        the Bareiss update is exact; this is asserted rather than assumed so
        that a bug cannot silently floor-divide its way to a wrong rank.
        """
        m = [list(row) for row in self.num]
        n = self.n
        r = 0
        prev = 1
        for c in range(n):
            piv = next((i for i in range(r, n) if m[i][c]), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            for i in range(r + 1, n):
                row_i = m[i]
                row_r = m[r]
                lead = row_i[c]
                for j in range(c + 1, n):
                    q, rem = divmod(row_r[c] * row_i[j] - lead * row_r[j], prev)
                    assert rem == 0, "Bareiss division not exact"
                    row_i[j] = q
                row_i[c] = 0
            prev = m[r][c]
            r += 1
            if r == n:
                break
        return r

    def pattern(self) -> PatternMatrix:
        rows = []
        for row in self.num:
            mask = 0
            for j, x in enumerate(row):
                if x:
                    mask |= 1 << j
            rows.append(mask)
        return PatternMatrix(self.n, tuple(rows))

    def conjugate(self, p: Permutation) -> RMatrix:
        """Simultaneous row/column relabeling: entry (i, j) becomes entry (p(i), p(j)).

        Equals P^{-1} A P for the permutation matrix P = ``p.to_matrix()``.
        """
        if p.n != self.n:
            raise ValueError(f"size mismatch: matrix {self.n}, permutation {p.n}")
        images = p.images
        num = self.num
        return RMatrix._make(self.den, tuple([tuple([num[i][j] for j in images]) for i in images]))

    def submatrix(self, indices: Sequence[int]) -> RMatrix:
        """Principal submatrix on the given (distinct) index set, in the given order."""
        idx = tuple(indices)
        if not idx:
            raise ValueError("submatrix needs at least one index")
        num = self.num
        return RMatrix._normalized(self.den, tuple([tuple([num[i][j] for j in idx]) for i in idx]))

    def to_json_dict(self) -> dict:
        den = self.den
        return {
            "n": self.n,
            "entries": [[_format_ratio(x, den) for x in row] for row in self.num],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> RMatrix:
        if not isinstance(data, dict) or "n" not in data or "entries" not in data:
            raise ValueError("matrix JSON must contain 'n' and 'entries'")
        n = data["n"]
        entries = data["entries"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError("'n' must be a positive integer")
        if not isinstance(entries, list) or len(entries) != n:
            raise ValueError(f"'entries' must be a list of {n} rows")
        for row in entries:
            if not isinstance(row, list) or len(row) != n:
                raise ValueError(f"every row must have length {n}")
        return cls.from_rows(entries)

    def __str__(self) -> str:
        den = self.den
        cells = [[str(_format_ratio(x, den)) for x in row] for row in self.num]
        width = max(len(c) for row in cells for c in row)
        return "\n".join("  ".join(c.rjust(width) for c in row) for row in cells)

    def __repr__(self) -> str:
        return f"RMatrix(n={self.n})"


def matrix_to_json(a: RMatrix, provenance: dict | None = None, indent: int = 2) -> str:
    """Serialize a matrix (optionally with a provenance header) to stable JSON."""
    doc: dict = {}
    if provenance is not None:
        doc["provenance"] = provenance
    doc.update(a.to_json_dict())
    return json.dumps(doc, indent=indent, sort_keys=True) + "\n"


def matrix_from_json(text: str) -> RMatrix:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid matrix JSON: {exc}") from exc
    return RMatrix.from_json_dict(data)


def matrix_from_csv(text: str) -> RMatrix:
    """Parse a CSV matrix: one row per line, integer or ``p/q`` cells."""
    rows = [row for row in csv.reader(io.StringIO(text)) if row and any(c.strip() for c in row)]
    if not rows:
        raise ValueError("empty CSV matrix")
    return RMatrix.from_rows([[cell for cell in row] for row in rows])


def load_matrix(path: str) -> RMatrix:
    """Load a matrix from a JSON or CSV file (sniffed by suffix, then content)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".csv"):
        return matrix_from_csv(text)
    if text.lstrip().startswith("{"):
        return matrix_from_json(text)
    return matrix_from_csv(text)
