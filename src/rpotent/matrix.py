"""Exact dense matrices over the rationals, their zero patterns, and permutations.

Everything downstream (potency detection, reducibility, semigroup closures)
is built from three immutable value types:

* ``RMatrix``       square nonnegative rational matrix, stored as one common
                    denominator and a grid of integer numerators
* ``PatternMatrix`` boolean support of such a matrix, stored as row bitmasks
* ``Permutation``   bijection of ``{0, ..., n-1}`` for simultaneous relabeling

``mask_step``, the OR of masks over the set bits of one mask, is the one
step along a support: a row of a pattern product, or a digraph search step.

Arithmetic in this module is exact; no floating point enters.  A product of
two matrices is an integer matrix product plus one gcd normalisation of the
whole grid, instead of a ``Fraction`` gcd on every multiply and add; each row
of the integer product is one sum of packed integers over the nonzero entries
of a row, a fixed-width slot per entry, so the interpreter loops over rows,
not entries (``RMatrix``).  Rank is fraction-free elimination on primitive
rows: an updated row is divided by the gcd of its entries, and a row with a
zero in the pivot column is left as it is.  Input is validated where it
enters: ``RMatrix(rows)``, the one validating constructor, which every
reader calls, reads each entry as ``coerce_entry`` does and rejects
booleans, unparsable strings, non-square grids and negative entries, and
operations on validated matrices build their results without re-checking.
It takes a plain int with no call.
Storage is dense: the target dimensions are at most a few dozen, where
dense layout is the simplest thing that works.

``json_text`` is the one JSON writer of the command line.  Its output is
exactly ``json.dumps(doc, indent=2, sort_keys=True)``, the oracle of its
tests, and it writes an ``RMatrix`` value straight from its integer grid.
"""

from __future__ import annotations

import csv
import io
import json
import re
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii as _quote
from math import gcd, lcm
from operator import add, mul
from typing import Sequence

Entry = Fraction | int | str

_ZERO = Fraction(0)
_INF = float("inf")

# (array type code, bytes) of the unsigned slots a packed row may use, narrowest first
_SLOTS = tuple((code, array(code).itemsize) for code in "IQ")


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
        s = value.strip()
        try:
            # ``Fraction`` and ``int`` read "٣" (Arabic-Indic three) as 3, and
            # ``Fraction`` reads "1_000" as 1000 from Python 3.11 on only
            if not s.isascii() or "_" in s:
                raise ValueError("matrix entries are written in ASCII digits, without underscores")
            x = _parse_fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse matrix entry {value!r}") from exc
        if x is None or not _printable(x):
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"matrix entry {value!r} has more than {limit} digits")
        return x
    raise TypeError(f"unsupported matrix entry type {type(value).__name__}")


# The exponent form of ``Fraction``'s string syntax, with the same groups, less underscores.
_EXPONENT_FORM = re.compile(r"[-+]?(?=\d|\.\d)(\d*)(?:\.(\d*))?[eE]([-+]?\d+)")


def _parse_fraction(s: str) -> Fraction | None:
    """``Fraction(s)``, or None when the result would have too many digits to print.

    ``Fraction`` builds 10^|e| for an exponent e before anything can check
    the result's length, which takes seconds to minutes once |e| reaches
    millions.  So an exponent entry m * 10^k (m the mantissa's integer, k the
    exponent less the fractional digits) is decided first: a nonzero m with
    k >= limit has a numerator of more than limit digits, and with
    -k >= limit + d, where m has at most d digits, a reduced denominator
    10^-k / gcd(m, 10^-k) above 10^limit.  The mantissa and exponent are
    converted with ``int`` as ``Fraction`` converts them, so an entry that
    ``Fraction`` cannot parse still raises ``ValueError``.
    """
    limit = sys.get_int_max_str_digits()
    form = _EXPONENT_FORM.fullmatch(s) if limit else None
    if form is None:
        return Fraction(s)
    whole, decimal, exponent = form.groups()
    decimal = decimal or ""
    mantissa = int(whole or "0") * 10 ** len(decimal) + int(decimal or "0")
    k = int(exponent) - len(decimal)
    if not mantissa:
        return Fraction(0)
    if k >= limit or -k >= limit + len(whole) + len(decimal):
        return None
    return Fraction(s)


def _printable(x: Fraction) -> bool:
    """Whether numerator and denominator convert to decimal strings.

    An exponent ("1e-10000") parses into integers longer than the interpreter
    converts to text (``sys.get_int_max_str_digits``), so the entry could be
    computed with but never printed.
    """
    limit = sys.get_int_max_str_digits()
    big = max(abs(x.numerator), x.denominator)
    # d digits need at least 3.32 (d - 1) bits: under 3 * limit bits, d <= limit
    return not limit or big.bit_length() <= 3 * limit or big < 10**limit


def format_entry(x: Fraction) -> int | str:
    """Render an entry for JSON: a plain int when integral, else ``"p/q"``."""
    return _format_ratio(x.numerator, x.denominator)


def format_bound(x: Fraction, up: bool) -> int | str:
    """``format_entry`` of a bound ``x``, rounded outward when it cannot be printed.

    A bound whose numerator or denominator is too long to print becomes the
    string ``"<m>e<k>"``, the value m * 10^k with about 20 significant digits,
    rounded up (``up``) or down so that it still bounds the same side.
    ``Fraction`` parses the string back.
    """
    if _printable(x):
        return format_entry(x)
    p, q = x.numerator, x.denominator
    k = int((p.bit_length() - q.bit_length()) * 0.30103) - 20
    p, q = (p, q * 10**k) if k >= 0 else (p * 10**-k, q)
    return f"{-(-p // q) if up else p // q}e{k}"


def _format_ratio(p: int, q: int) -> int | str:
    """``format_entry`` of ``p / q`` (q > 0) without building the Fraction."""
    g = gcd(p, q)
    if g == q:
        return p // q
    return f"{p // g}/{q // g}"


def mask_step(masks: Sequence[int], m: int) -> int:
    """The OR of ``masks[k]`` over the set bits k of ``m``: one step along a support.

    Over the rows of B it takes a row of A to that row of A·B; over a
    digraph's out-neighbor masks, a vertex set to its out-neighbors.
    """
    acc = 0
    while m:
        low = m & -m
        acc |= masks[low.bit_length() - 1]
        m ^= low
    return acc


@dataclass(frozen=True)
class PatternMatrix:
    """Zero/nonzero support of a nonnegative matrix.

    Bit ``j`` of ``rows[i]`` is set iff entry ``(i, j)`` is nonzero.  Because
    nonnegative products cannot cancel, supports compose multiplicatively:
    the support of ``A @ B`` equals the boolean product of the supports.
    That makes patterns a faithful carrier for closure computations.
    Products and unions of validated patterns are built by ``_make``: rows
    made from rows below 2^n stay below it.
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
    def _make(cls, n: int, rows: tuple[int, ...]) -> PatternMatrix:
        """Trusted constructor: ``rows`` must already be n masks below 2^n."""
        p = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(p, "n", n)
        setattr_(p, "rows", rows)
        return p

    def get(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def __mul__(self, other: PatternMatrix) -> PatternMatrix:
        if not isinstance(other, PatternMatrix):
            return NotImplemented
        if other.n != self.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        return PatternMatrix._make(self.n, tuple([mask_step(other.rows, mask) for mask in self.rows]))

    def __or__(self, other: PatternMatrix) -> PatternMatrix:
        if not isinstance(other, PatternMatrix):
            return NotImplemented
        if other.n != self.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        return PatternMatrix._make(self.n, tuple([a | b for a, b in zip(self.rows, other.rows)]))

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

    def has_zero_diagonal_entry(self) -> bool:
        return any(not mask >> i & 1 for i, mask in enumerate(self.rows))

    def first_zero(self) -> tuple[int, int] | None:
        """First position (row-major) at which the pattern is zero, if any."""
        full = (1 << self.n) - 1
        for i, mask in enumerate(self.rows):
            missing = full & ~mask
            if missing:
                return i, (missing & -missing).bit_length() - 1
        return None

    def to_matrix(self) -> RMatrix:
        """The 0/1 matrix with this support."""
        n = self.n
        return RMatrix._make(1, tuple([tuple([mask >> j & 1 for j in range(n)]) for mask in self.rows]))


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
    def random(cls, n: int, rng) -> Permutation:
        """``rng.shuffle`` of ``range(n)``: a Fisher-Yates shuffle, reproducible from ``rng``'s state."""
        images = list(range(n))
        rng.shuffle(images)
        return cls(tuple(images))

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
        rows = [[0] * self.n for _ in range(self.n)]
        for j, img in enumerate(self.images):
            rows[img][j] = 1
        return RMatrix._make(1, tuple([tuple(row) for row in rows]))


def _entry_ratio(x: object) -> tuple[int, int]:
    """``coerce_entry(x)`` as a reduced pair ``(p, q)``, q > 0.

    A string of ASCII digits, or ``digits/digits``, is split with ``int``
    and no ``Fraction``; anything else, or a string ``int`` refuses (too
    many digits), or a zero denominator, goes through ``coerce_entry``,
    which accepts or rejects it with its own message.  ``RMatrix.__init__``,
    the one caller, reads a plain ``int`` itself.
    """
    if type(x) is str:
        s = x.strip()
        p, slash, q = s.partition("/")
        if s.isascii() and p.isdigit() and (q.isdigit() or not slash):
            try:
                p, q = int(p), int(q) if slash else 1
            except ValueError:
                pass
            else:
                if q:
                    g = gcd(p, q)
                    return p // g, q // g
    f = coerce_entry(x)
    return f.numerator, f.denominator


class RMatrix:
    """Square nonnegative matrix with exact rational entries.

    Stored as one positive common denominator ``den`` and a tuple-of-tuples
    grid ``num`` of nonnegative integers: entry (i, j) is ``num[i][j] / den``.
    The form is canonical: ``gcd(den, every numerator) == 1``, so the zero
    matrix has ``den == 1``, and two matrices are equal iff their ``(den,
    num)`` pairs are.  Products are integer matrix products followed by one
    gcd normalisation of the whole grid.

    Every numerator is a nonnegative integer, so a row of B packs into one
    integer, entry j in slot j of w bits: packed_k = Σ_j b_kj 2^(wj), with w
    = 32 or 64 (array type codes ``I`` and ``Q``).  Row i of A·B is then the
    one integer Σ_k a_ik packed_k, summed over the k with a_ik ≠ 0 only,
    whose bytes read as an array of w-bit unsigned slots are the product
    row.  No slot carries into the next: the entry in slot j is Σ_k a_ik
    b_kj <= (Σ_k a_ik) max B, and w is the narrower of the two widths with
    max_i (Σ_k a_ik) max B < 2^w.  No term is negative, so no slot borrows
    either.  The bytes of all n product rows are joined and read as one
    array, the n² numerators in row-major order.  One gcd of the
    denominator den_A den_B and that flat list, and when it is not 1 one
    division pass over the list, normalise the product before its rows are
    cut from the list.

    Instances are immutable and hashable; every operation returns a new
    matrix.  ``RMatrix(rows)`` is the one validating constructor: the JSON
    and CSV readers, ``identity`` and ``zeros`` all call it.
    It reads each entry as ``coerce_entry`` would (an int, a ``Fraction`` or
    a string), but builds no ``Fraction`` for a plain int or a string of
    digits or ``digits/digits``: it splits them into integer pairs.  Then
    ``__post_init__`` checks the dimension, squareness and nonnegativity.
    Results of operations on validated matrices (products, powers, Kronecker
    products, relabellings, submatrices) are built by ``_make`` without
    those checks: products and sums of nonnegative integers stay
    nonnegative.  So are the 0/1 matrices of ``Permutation.to_matrix`` and
    ``PatternMatrix.to_matrix``, whose images and bitmasks their own
    constructors have validated.

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

    def __init__(self, rows: Sequence[Sequence[Entry]]) -> None:
        """The matrix of ``coerce_entry`` of every entry, read onto the integer grid directly.

        A plain ``int`` becomes ``(x, 1)`` with no call; every other entry
        goes through ``_entry_ratio``.  A grid or a row that is a ``str`` or
        ``bytes`` is refused before any entry is read: iterated, it would
        give its characters as entries.
        """
        if isinstance(rows, (str, bytes)) or any(isinstance(row, (str, bytes)) for row in rows):
            raise ValueError("matrix rows must be sequences of entries, not strings")
        self.__post_init__([[(x, 1) if type(x) is int else _entry_ratio(x) for x in row] for row in rows])

    def __post_init__(self, pairs: list[list[tuple[int, int]]]) -> None:
        """The validating loop of ``RMatrix(rows)``.

        ``pairs`` holds each entry as a reduced pair ``(p, q)``, q > 0.  Parse
        and type errors were raised while the pairs were read, in row-major
        order; then come the dimension, and row by row squareness and
        negative entries.
        """
        # Kept under its dataclass name: bench/tracer.py counts validated
        # constructions by wrapping RMatrix.__post_init__.
        n = len(pairs)
        if n < 1:
            raise ValueError("matrix dimension must be positive")
        den = lcm(*[q for row in pairs for _, q in row])
        if den == 1:
            num = tuple([tuple([p for p, _ in row]) for row in pairs])
        else:
            num = tuple([tuple([p * (den // q) for p, q in row]) for row in pairs])
        if any(len(row) != n for row in num) or min(map(min, num)) < 0:
            for i, row in enumerate(pairs):
                if len(row) != n:
                    raise ValueError("matrix must be square")
                for j, (p, q) in enumerate(row):
                    if p < 0:
                        raise ValueError(f"negative entry {Fraction(p, q)} at ({i}, {j})")
        setattr_ = object.__setattr__
        setattr_(self, "den", den)
        setattr_(self, "num", num)
        setattr_(self, "_entries", None)
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
    def identity(cls, n: int) -> RMatrix:
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, n: int) -> RMatrix:
        return cls([[0] * n] * n)

    def __matmul__(self, other: RMatrix) -> RMatrix:
        """Exact product: the integer product of the grids, then one gcd normalisation.

        When every row of A sums to 0 or 1, each row is a zero row or a
        single entry 1, so each product row is the zero row or a row of B,
        reused as it is (a permutation product packs nothing).  Otherwise
        every row is Σ_k a_ik packed_k over B's packed rows and the nonzero
        a_ik (class docstring), and the rows are read off one array of their
        joined bytes.  When the bound needs slots wider than 64 bits, each
        product row adds up the rows of B that the row of A selects.
        """
        if not isinstance(other, RMatrix):
            return NotImplemented
        a = self.num
        n = len(a)
        if len(other.num) != n:
            raise ValueError(f"dimension mismatch: {n} vs {other.n}")
        b = other.num
        den = self.den * other.den
        sums = [*map(sum, a)]
        top = max(sums)
        if top < 2:
            zero_row = (0,) * n
            return RMatrix._normalized(den, tuple([b[row.index(1)] if s else zero_row for row, s in zip(a, sums)]))
        # top >= 2 makes the bound at least max B, so B's own entries fit the
        # slots too; code "" means that no slot is wide enough
        bound = top * max(map(max, b))
        code, size = next(((c, n * w) for c, w in _SLOTS if not bound >> 8 * w), ("", 0))
        if code:
            order = sys.byteorder
            packed = [int.from_bytes(array(code, r), order) for r in b]
            data = b"".join([sum(map(mul, compress(row, row), compress(packed, row))).to_bytes(size, order) for row in a])
            flat = array(code, data).tolist()
        else:
            flat = []
            for row in a:
                acc = [0] * n
                for f, b_row in zip(row, b):
                    if f:
                        acc = [*map(add, acc, map(mul, b_row, repeat(f)))]
                flat += acc
        if den != 1:
            g = gcd(den, *flat)
            if g != 1:
                den //= g
                flat = [x // g for x in flat]
        return RMatrix._make(den, tuple([*zip(*[iter(flat)] * n)]))

    def pow(self, k: int) -> RMatrix:
        """Exact k-th power by repeated squaring; ``pow(0)`` is the identity.

        The result starts as the power at the lowest set bit of k, not as the
        identity, so k >= 1 takes bit_length(k) - 1 squarings and
        popcount(k) - 1 further products, and ``pow(1)`` is ``self``.
        """
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        if k == 0:
            return RMatrix.identity(self.n)
        base = self
        while not k & 1:
            base = base @ base
            k >>= 1
        result = base
        k >>= 1
        while k:
            base = base @ base
            if k & 1:
                result = result @ base
            k >>= 1
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

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def rank(self) -> int:
        """Exact rank over the rationals.

        Fraction-free elimination on primitive rows of the integer grid
        ``num`` (scaling by the common denominator does not change rank).
        At each pivot p = pivot_row[c], a remaining row whose entry in column
        c is 0 stays as it is; every other row becomes t = p row - lead
        pivot_row, divided by its content gcd(t).  A row whose content is 0
        is zero: it is dropped, as it holds no pivot and no other row's
        update reads it.

        The division needs no exactness check, and no entry grows past
        Bareiss's.  After k pivots, take a remaining row and the span of its
        input row and the input rows of the k pivots.  The pivot rows are
        independent on the k pivot columns, so the vectors of that span that
        are zero there form one line, or only 0 when the row is dropped.  An
        updated row is the primitive integer vector of that line, up to sign;
        a row never updated is its input row, zero on every pivot column, so
        on that line too.  Bareiss's row is a nonzero integer vector on the
        same line, and an integer multiple of this row: of a primitive vector
        because it is an integer vector, and of an untouched input row
        because each of its entries, a (k + 1)-minor of the grid, expands to
        ± det(pivot block) times that row's entry.  So both pick the same
        pivots and drop the same rows, and Bareiss's intermediate (before its
        division) is the product of the two rows' integer factors times this
        intermediate p x - lead y, which is therefore no larger.
        """
        rows = [row for row in self.num if any(row)]
        r = 0
        for c in range(len(self.num)):
            pivot = next((row for row in rows if row[c]), None)
            if pivot is None:
                continue
            rows.remove(pivot)
            r += 1
            if not rows:
                break
            p = pivot[c]
            out = []
            for row in rows:
                lead = row[c]
                if not lead:
                    out.append(row)
                    continue
                t = [p * x - lead * y for x, y in zip(row, pivot)]
                g = gcd(*t)
                if g == 1:
                    out.append(t)
                elif g:
                    out.append([x // g for x in t])
            rows = out
        return r

    def pattern(self) -> PatternMatrix:
        """The support: bit j of row i is set iff entry (i, j) is nonzero."""
        n = len(self.num)
        bits = [1 << j for j in range(n)]
        return PatternMatrix._make(n, tuple([sum(compress(bits, row)) for row in self.num]))

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

    def __repr__(self) -> str:
        return f"RMatrix(n={self.n})"


def json_text(doc: object) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, with each ``RMatrix`` as its JSON object.

    The one writer of the command line's JSON.  It takes the values the
    command line emits: dicts with str keys, lists, tuples, str, int, bool,
    None and float (NaN and the infinities included).  It raises where
    ``json.dumps`` raises: ``TypeError`` for a value it cannot serialize (and
    for a key that is not a str), ``ValueError`` for an int too long to
    print.  A matrix is written as ``{"entries": ..., "n": ...}`` straight
    from ``(den, num)`` (``_matrix_text``).  The report dicts that hold a
    matrix (the ``analyze`` bundle, ``Failure.to_dict``,
    ``CheckResult.to_dict``, ``RankFloorReport.to_dict``) hold the
    ``RMatrix`` itself: they are written by this function, and
    ``json.dumps`` raises ``TypeError`` on them.
    """
    return _text(doc, "\n")


def _text(x: object, nl: str) -> str:
    """The JSON text of ``x`` starting on a line whose break and indent are ``nl``."""
    if isinstance(x, str):
        return _quote(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if x in (_INF, -_INF):
            return "Infinity" if x > 0 else "-Infinity"
        return float.__repr__(x)
    inner = nl + "  "
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        return "[" + inner + ("," + inner).join([_text(v, inner) for v in x]) + nl + "]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        items = [_quote(k) + ": " + _text(v, inner) for k, v in sorted(x.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(x, RMatrix):
        return _matrix_text(x, nl)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _matrix_text(a: RMatrix, nl: str, extra: dict | None = None) -> str:
    """``_text`` of the object ``{"entries": rows, "n": n, **extra}`` of a matrix, read off its integer grid.

    Each distinct numerator is formatted once, as ``format_entry`` formats
    its entry (a bare int, or a reduced ``"p/q"``), and each row is one join.
    """
    i1, i2, i3 = nl + "  ", nl + "    ", nl + "      "
    den = a.den
    values = set(chain.from_iterable(a.num))
    if den == 1:
        cell = {x: int.__repr__(x) for x in values}
    else:
        cell = {x: _text(_format_ratio(x, den), "") for x in values}
    sep = "," + i3
    rows = ("," + i2).join(["[" + i3 + sep.join(map(cell.__getitem__, row)) + i2 + "]" for row in a.num])
    items = {"entries": "[" + i2 + rows + i1 + "]", "n": int.__repr__(len(a.num))}
    if extra:
        items.update({k: _text(v, i1) for k, v in extra.items()})
    return "{" + i1 + ("," + i1).join([_quote(k) + ": " + v for k, v in sorted(items.items())]) + nl + "}"


def matrix_to_json(a: RMatrix, provenance: dict | None = None) -> str:
    """Serialize a matrix (optionally with a provenance header) to stable JSON."""
    return _matrix_text(a, "\n", None if provenance is None else {"provenance": provenance}) + "\n"


def matrix_from_json(text: str) -> RMatrix:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: malformed JSON, or an integer longer than the interpreter
        # converts from text; RecursionError: nesting deeper than the decoder's
        # recursion limit
        raise ValueError(f"invalid matrix JSON: {exc}") from exc
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
    return RMatrix(entries)


def matrix_from_csv(text: str) -> RMatrix:
    """Parse a CSV matrix: one row per line, integer or ``p/q`` cells."""
    try:
        rows = [row for row in csv.reader(io.StringIO(text)) if row and any(c.strip() for c in row)]
    except csv.Error as exc:  # a field beyond csv.field_size_limit(), for one
        raise ValueError(f"invalid CSV matrix: {exc}") from exc
    if not rows:
        raise ValueError("empty CSV matrix")
    return RMatrix(rows)


def load_matrix(path: str) -> RMatrix:
    """Load a matrix from a JSON or CSV file.

    A ``.json`` file is read as JSON and a ``.csv`` file as CSV, whatever
    their text; a file with any other name is read as JSON when its text
    starts with ``{``, else as CSV.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json") or (not path.endswith(".csv") and text.lstrip().startswith("{")):
        return matrix_from_json(text)
    return matrix_from_csv(text)
