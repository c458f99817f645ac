"""Self-test of the benchmark's own checkers: ``python3 bench/selftest.py``.

Exits 0 when every case holds.  It needs nothing from ``rpotent``.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import checks
import exact as ex
import workloads


def _cases():
    c3 = workloads._cycle(3)
    yield "certificate rejects the 4-potent 3-cycle", checks.nonpotency_certificate(c3) is None
    idem = ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)))
    yield "certificate rejects an idempotent", checks.nonpotency_certificate(idem) is None
    yield "certificate rejects [[1, 1], [0, 0]]", checks.nonpotency_certificate(workloads._E_ROW) is None
    yield "row sums certify [[2]]", checks.nonpotency_certificate(((Fraction(2),),)) == "min row sum above 1"
    nil = ((Fraction(0), Fraction(3)), (Fraction(0), Fraction(0)))
    yield "nilpotency certifies [[0, 3], [0, 0]]", checks.nonpotency_certificate(nil) == "nonzero nilpotent"
    half = ((Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 4), Fraction(1, 2)))
    yield "modular powers certify a subunit matrix", (checks.nonpotency_certificate(half) or "").startswith("A^k x")

    s4 = [ex.pattern(workloads._transposition(4)), ex.pattern(workloads._cycle(4))]
    yield "generator BFS gives |S4| = 24", len(checks.closure(s4, ex.pattern_mul)) == 24
    cyc = [workloads._cycle(3)]
    yield "exact BFS gives the 3 powers of a 3-cycle", len(checks.closure(cyc, ex.matmul)) == 3

    yield "a cycle is strongly connected", ex.strongly_connected(ex.pattern(c3))
    yield "[[1, 1], [0, 0]] is not", not ex.strongly_connected(ex.pattern(workloads._E_ROW))
    yield "a 1x1 zero counts as strongly connected", ex.strongly_connected(ex.pattern(workloads._zero(1)))

    yield "perron 1 lies in [1, 1]", checks.perron_error(1.0, c3) is None
    yield "perron 0 does not", checks.perron_error(0.0, c3) is not None
    big = Fraction(10**200)
    yield "a withheld estimate passes for 1e200 entries", checks.perron_error(None, ((big,),)) is None
    yield "but not for small ones", checks.perron_error(None, c3) is not None

    schema = {"type": "object", "required": ["a"], "properties": {"a": {"type": ["integer", "null"], "minimum": 0}}}
    yield "schema accepts {a: 1}", checks.schema_errors({"a": 1}, schema) == []
    yield "schema rejects {a: true}", checks.schema_errors({"a": True}, schema) != []
    yield "schema rejects {a: -1}", checks.schema_errors({"a": -1}, schema) != []
    yield "schema rejects {}", checks.schema_errors({}, schema) != []


def main() -> int:
    failed = 0
    for name, ok in _cases():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        failed += not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
