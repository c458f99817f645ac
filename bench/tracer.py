"""Per-layer tracing of ``rpotent`` from outside the program.

``Tracer.install`` wraps the public functions of each module and the hot
methods of the matrix types, and rebinds every module's copy of a name it
imported with ``from .x import y``, so calls between modules are seen too.
``uninstall`` puts the originals back.

Most wrapped calls become spans (name, start, end, parent span, operation id)
kept in memory; ``write`` stores them when the run ends and ``layer_metrics``
derives self time from them: a span's duration less the durations of its
child spans and of the hot calls made directly inside it.  Very hot calls
(matrix products, construction, rank, pattern products, ...) get a counter and
accumulated time instead of a span.  The tracer's own bookkeeping shows up as
``trace.overhead_ratio``, traced over untraced time.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter_ns

from workloads import VERIFY_TOTALS

VERIFY_IDS = tuple(VERIFY_TOTALS)

# (module, class or None, attribute, metric layer name, kind)
HOT, SPAN = "hot", "span"
TARGETS = (
    ("matrix", "RMatrix", "__matmul__", "matrix.matmul", HOT),
    ("matrix", "RMatrix", "__post_init__", "matrix.construct", HOT),
    ("matrix", "RMatrix", "rank", "matrix.rank", HOT),
    ("matrix", "RMatrix", "pow", "matrix.pow", HOT),
    ("matrix", "PatternMatrix", "__mul__", "matrix.pattern_mul", HOT),
    ("matrix", None, "load_matrix", "cli.load", SPAN),
    ("potency", None, "is_r_potent", "potency.is_r_potent", HOT),
    ("potency", None, "minimal_potency", "potency.minimal_potency", SPAN),
    ("decomposition", "Digraph", "strongly_connected_components", "decomposition.scc", HOT),
    ("decomposition", None, "block_triangularize", "decomposition.triangularize", HOT),
    ("decomposition", None, "brute_force_decomposable", "decomposition.oracle", SPAN),
    ("decomposition", None, "brute_force_decomposable_pattern", "decomposition.oracle", SPAN),
    ("structure", None, "analyze_structure", "structure.analyze", SPAN),
    ("structure", None, "reorder_to_avoid_consecutive_zeros", "structure.reorder", SPAN),
    ("spectral", None, "perron_value", "spectral.perron", SPAN),
    ("spectral", None, "wielandt_check", "spectral.wielandt", SPAN),
    ("semigroup", None, "pattern_closure", "semigroup.pattern_closure", SPAN),
    ("semigroup", None, "rational_closure", "semigroup.rational_closure", SPAN),
    ("semigroup", "PatternSemigroup", "union_pattern", "semigroup.union_pattern", HOT),
    ("semigroup", "RationalSemigroup", "union_pattern", "semigroup.union_pattern", HOT),
    ("semigroup", None, "equivalence_report", "semigroup.equivalence", SPAN),
    ("generators", None, "random_r_potent", "generators.build", SPAN),
    ("generators", None, "random_singular_zero_diag", "generators.build", SPAN),
    ("generators", None, "random_rank_one_idempotent", "generators.build", SPAN),
    ("generators", None, "rank_dominant_semigroup_generators", "generators.build", SPAN),
    ("generators", "GeneratorSpec", "build", "generators.build", SPAN),
    ("generators", None, "_verify_emission", "generators.emission_check", HOT),
    ("verification", None, "run_check", "verification.check", SPAN),
    ("cli", None, "_analysis_bundle", "cli.bundle", SPAN),
    ("cli", None, "cmd_analyze", "cli.command", SPAN),
    ("cli", None, "cmd_semigroup", "cli.command", SPAN),
    ("cli", None, "cmd_verify", "cli.command", SPAN),
)
# Spans whose records keep the hot-call counts of their subtree.
_COUNTED = {"potency.minimal_potency", "semigroup.pattern_closure", "semigroup.rational_closure"}

# (metric, unit) in the order they are reported.
LAYER_METRICS = (
    [
        ("matrix.matmul.calls", "count"),
        ("matrix.matmul.self_ms", "ms"),
        ("matrix.matmul.max_entry_bits", "bits"),
        ("matrix.construct.calls", "count"),
        ("matrix.construct.self_ms", "ms"),
        ("matrix.rank.calls", "count"),
        ("matrix.rank.self_ms", "ms"),
        ("matrix.pow.calls", "count"),
        ("matrix.pattern_mul.calls", "count"),
        ("matrix.pattern_mul.self_ms", "ms"),
        ("potency.is_r_potent.calls", "count"),
        ("potency.minimal_potency.self_ms", "ms"),
        ("potency.minimal_potency.matmuls", "count"),
        ("decomposition.scc.calls", "count"),
        ("decomposition.triangularize.calls", "count"),
        ("decomposition.oracle.self_ms", "ms"),
        ("structure.analyze.self_ms", "ms"),
        ("structure.reorder.self_ms", "ms"),
        ("spectral.perron.self_ms", "ms"),
        ("spectral.wielandt.self_ms", "ms"),
        ("semigroup.pattern_closure.self_ms", "ms"),
        ("semigroup.pattern_closure.products", "count"),
        ("semigroup.pattern_closure.members", "count"),
        ("semigroup.pattern_closure.admit_ratio", "ratio"),
        ("semigroup.rational_closure.self_ms", "ms"),
        ("semigroup.rational_closure.products", "count"),
        ("semigroup.union_pattern.calls", "count"),
        ("semigroup.equivalence.self_ms", "ms"),
        ("generators.build.self_ms", "ms"),
        ("generators.emission_checks", "count"),
    ]
    + [(f"verification.check.{cid}.ms", "ms") for cid in VERIFY_IDS]
    + [
        ("cli.load.ms", "ms"),
        ("cli.bundle.self_ms", "ms"),
        ("cli.emit.ms", "ms"),
        ("setup.import_rpotent_ms", "ms"),
        ("setup.import_numpy_ms", "ms"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


def _charge(parent: list, ns: int) -> None:
    """Count ``ns`` of a hot call as child time of the enclosing frame."""
    parent[0] += ns
    if len(parent) > 1:
        parent[1] += ns


def _entry_bits(m) -> int:
    return max(max(x.numerator.bit_length(), x.denominator.bit_length()) for row in m.entries for x in row)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op, hot_ns, counts)
        self.members: dict[int, int] = {}  # pattern_closure span id -> members
        self.hot: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])  # calls, total, self ns
        self.op_hot: list[dict[str, list[int]]] = []
        self.op_bits: list[int] = []
        self.max_bits = 0
        self._stack: list[list] = []  # frames: [child_ns] (hot) or [child_ns, hot_ns, counts, id]
        self._spans: list[list] = []
        self._next_id = 0
        self._op: int | None = None
        self._hot_before: dict[str, tuple[int, int, int]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- operation boundaries -------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._hot_before = {k: tuple(v) for k, v in self.hot.items()}
        self.max_bits = 0
        frame = [0, 0, {}, self._new_id()]
        self._stack.append(frame)
        self._spans.append(frame)
        frame.append(perf_counter_ns())

    def end_op(self) -> None:
        end = perf_counter_ns()
        frame = self._stack.pop()
        self._spans.pop()
        self.spans.append((frame[3], "op", frame[4], end, None, self._op, frame[1], frame[2]))
        diff = {}
        for k, v in self.hot.items():
            b = self._hot_before.get(k, (0, 0, 0))
            diff[k] = [v[0] - b[0], v[1] - b[1], v[2] - b[2]]
        self.op_hot.append(diff)
        self.op_bits.append(self.max_bits)
        self._op = None

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name, fn):
        tr = self

        def wrapper(*args, **kwargs):
            label = name
            if name == "verification.check":
                label = f"verification.check.{args[0] if args else kwargs.get('check_id')}"
            parent = tr._spans[-1] if tr._spans else None
            frame = [0, 0, {}, tr._new_id()]
            tr._stack.append(frame)
            tr._spans.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                tr._stack.pop()
                tr._spans.pop()
                if tr._stack:
                    tr._stack[-1][0] += t1 - t0
                if parent is not None:
                    pc = parent[2]
                    for k, c in frame[2].items():
                        pc[k] = pc.get(k, 0) + c
                counts = frame[2] if name in _COUNTED else None
                tr.spans.append((frame[3], label, t0, t1, None if parent is None else parent[3], tr._op, frame[1], counts))
            if name == "semigroup.pattern_closure":
                tr.members[frame[3]] = len(result.members)
            return result

        return wrapper

    def _hot(self, name, fn):
        tr = self
        stats = self.hot[name]
        bits = name == "matrix.matmul"

        def wrapper(*args, **kwargs):
            stack = tr._stack
            frame = [0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if tr._spans:
                    counts = tr._spans[-1][2]
                    counts[name] = counts.get(name, 0) + 1
                if stack:
                    _charge(stack[-1], dur)
            if bits:
                b = _entry_bits(result)
                if b > tr.max_bits:
                    tr.max_bits = b
                if stack:
                    # the bit count is tracer work: keep it out of every self time
                    _charge(stack[-1], perf_counter_ns() - t1)
            return result

        return wrapper

    # -- patching -----------------------------------------------------------------

    def install(self) -> None:
        modules = {k: v for k, v in sys.modules.items() if k == "rpotent" or k.startswith("rpotent.")}
        for mod_name, cls_name, attr, name, kind in TARGETS:
            module = modules[f"rpotent.{mod_name}"]
            owner = getattr(module, cls_name) if cls_name else module
            original = owner.__dict__[attr] if cls_name else getattr(module, attr)
            wrapped = (self._hot if kind == HOT else self._span)(name, original)
            if cls_name:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start_ns", "end_ns", "parent", "op", "hot_child_ns", "counts"]}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            for op_index, hot in enumerate(self.op_hot):
                fh.write(json.dumps({"op_index": op_index, "hot": hot, "max_entry_bits": self.op_bits[op_index]}) + "\n")

    def layer_metrics(self, factors: list[float], op_ids: list[int]) -> dict[str, float]:
        """Per-operation layer figures, each op's times scaled by its factor.

        ``op_ids[k]`` is the operation id given to the k-th ``begin_op`` and
        ``factors[k]`` the normalisation factor of that operation.
        """
        n_ops = len(op_ids)
        factor_of = dict(zip(op_ids, factors))
        child = defaultdict(int)
        for sid, _, t0, t1, parent, _, _, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        self_ns = defaultdict(float)
        total_ns = defaultdict(float)
        calls = defaultdict(int)
        counted = defaultdict(int)
        check_calls = defaultdict(int)
        for sid, name, t0, t1, parent, op, hot_ns, counts in self.spans:
            f = factor_of[op]
            self_ns[name] += (t1 - t0 - child[sid] - hot_ns) * f
            total_ns[name] += (t1 - t0) * f
            calls[name] += 1
            if counts:
                for k, c in counts.items():
                    counted[(name, k)] += c
            if name.startswith("verification.check."):
                check_calls[name] += 1
        hot_calls = defaultdict(int)
        hot_self = defaultdict(float)
        for k, hot in enumerate(self.op_hot):
            f = factors[k]
            for name, (c, _, s) in hot.items():
                hot_calls[name] += c
                hot_self[name] += s * f
        ms = 1e-6 / n_ops
        per = 1.0 / n_ops
        members = sum(self.members.values())
        products = counted[("semigroup.pattern_closure", "matrix.pattern_mul")]
        out = {
            "matrix.matmul.calls": hot_calls["matrix.matmul"] * per,
            "matrix.matmul.self_ms": hot_self["matrix.matmul"] * ms,
            "matrix.matmul.max_entry_bits": statistics.median(self.op_bits) if self.op_bits else 0,
            "matrix.construct.calls": hot_calls["matrix.construct"] * per,
            "matrix.construct.self_ms": hot_self["matrix.construct"] * ms,
            "matrix.rank.calls": hot_calls["matrix.rank"] * per,
            "matrix.rank.self_ms": hot_self["matrix.rank"] * ms,
            "matrix.pow.calls": hot_calls["matrix.pow"] * per,
            "matrix.pattern_mul.calls": hot_calls["matrix.pattern_mul"] * per,
            "matrix.pattern_mul.self_ms": hot_self["matrix.pattern_mul"] * ms,
            "potency.is_r_potent.calls": hot_calls["potency.is_r_potent"] * per,
            "potency.minimal_potency.self_ms": self_ns["potency.minimal_potency"] * ms,
            "potency.minimal_potency.matmuls": counted[("potency.minimal_potency", "matrix.matmul")] * per,
            "decomposition.scc.calls": hot_calls["decomposition.scc"] * per,
            "decomposition.triangularize.calls": hot_calls["decomposition.triangularize"] * per,
            "decomposition.oracle.self_ms": self_ns["decomposition.oracle"] * ms,
            "structure.analyze.self_ms": self_ns["structure.analyze"] * ms,
            "structure.reorder.self_ms": self_ns["structure.reorder"] * ms,
            "spectral.perron.self_ms": self_ns["spectral.perron"] * ms,
            "spectral.wielandt.self_ms": self_ns["spectral.wielandt"] * ms,
            "semigroup.pattern_closure.self_ms": self_ns["semigroup.pattern_closure"] * ms,
            "semigroup.pattern_closure.products": products * per,
            "semigroup.pattern_closure.members": members * per,
            "semigroup.pattern_closure.admit_ratio": members / products if products else 0.0,
            "semigroup.rational_closure.self_ms": self_ns["semigroup.rational_closure"] * ms,
            "semigroup.rational_closure.products": counted[("semigroup.rational_closure", "matrix.matmul")] * per,
            "semigroup.union_pattern.calls": hot_calls["semigroup.union_pattern"] * per,
            "semigroup.equivalence.self_ms": self_ns["semigroup.equivalence"] * ms,
            "generators.build.self_ms": self_ns["generators.build"] * ms,
            "generators.emission_checks": hot_calls["generators.emission_check"] * per,
            "cli.load.ms": total_ns["cli.load"] * ms,
            "cli.bundle.self_ms": self_ns["cli.bundle"] * ms,
            "cli.emit.ms": self_ns["cli.command"] * ms,
        }
        for cid in VERIFY_IDS:
            name = f"verification.check.{cid}"
            n = check_calls[name]
            out[f"{name}.ms"] = total_ns[name] * 1e-6 / n if n else 0.0
        return out
