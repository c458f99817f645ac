"""Speed-normalised benchmark of ``rpotent`` analyze, semigroup and verify.

Usage, from the root of a checkout:

    python3 bench/run.py --workload analyze_potent --seed 1 --seconds 10 --trace 0

One operation is one call of ``rpotent.cli.main`` in this process: a closed
loop with one caller, one thread and one process.  An untimed warm-up pass
comes first; then whole rounds of the workload's operations run until
``--seconds`` have passed and, for workloads that report a tail, at least
``TAIL_MIN_OPS`` operations were timed.  Between consecutive operations the
frozen reference kernel (``refkernel.py``) runs, and each operation's wall time
is scaled by ``NOMINAL_S / (median of the neighbouring kernel times)``.  The
outputs are checked after timing (``checks.py``).

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced rounds alternate
and it carries the per-layer metrics (``tracer.py``).  Earlier lines print
every figure by name and unit, raw wall figures included.  Inputs, results and
traces are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import checks
import refkernel
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")

# A tail needs ten operations beyond it, and is only worth reporting from 40 on.
TAIL_MIN_OPS = 40
TAIL_BEYOND = 10
# verify_checks runs 16 operations of up to several seconds in a round, too few
# for a tail; there op_tail_ms repeats the median.
WITHOUT_TAIL = {"verify_checks"}
# Kernel runs made in each gap between two operations, and the gaps on each
# side of an operation whose kernel times' median scales it.  One kernel run
# scatters by about 15% on a shared machine, so many are needed per operation.
REF_REPS = 8
REF_WINDOW = 3
SETUP_RUNS = 9

_SETUP_CHILD = (
    "import sys, time\n"
    "import rpotent\n"
    "from rpotent.matrix import load_matrix\n"
    "for path in sys.argv[1:]:\n"
    "    load_matrix(path)\n"
    "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))\n"
    "print(rpotent.__file__)\n"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _import_times(stderr: str) -> tuple[float, float]:
    """Cumulative import time of rpotent and of numpy, in ms, from -X importtime."""
    found = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[0].startswith("import time:"):
            name = parts[2].strip()
            if name in ("rpotent", "numpy") and name not in found:
                found[name] = int(parts[1]) / 1000.0
    return found.get("rpotent", 0.0), found.get("numpy", 0.0)


def measure_setup(files: list[str], importtime: bool) -> dict:
    """Fresh interpreter to ready: ``import rpotent`` plus parsing the inputs.

    Raw wall time from just before the child starts to the child's ready
    stamp on the shared monotonic clock; ``setup_s`` is the median over
    ``SETUP_RUNS`` children started one after another on a core warmed by
    the kernel.  The first child, which may compile bytecode, is not counted.
    The kernel is not used to scale it: on a shared machine its times did
    not follow import times.
    """
    refkernel.spin(0.3)
    argv = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", _SETUP_CHILD, *files]
    wall, imp_rpotent, imp_numpy = [], [], []
    for i in range(SETUP_RUNS + 1):
        t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        proc = subprocess.run(argv, env=_child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()[-300:]}")
        ready, module_file = proc.stdout.split()[:2]
        if not os.path.abspath(module_file).startswith(SRC + os.sep):
            raise BenchError(f"set-up child imported rpotent from {module_file}, not from {SRC}")
        if i == 0:
            continue
        wall.append((int(ready) - t0) / 1e9)
        if importtime:
            a, b = _import_times(proc.stderr)
            imp_rpotent.append(a)
            imp_numpy.append(b)
    out = {"setup_s": statistics.median(wall), "setup_samples_s": wall}
    if importtime:
        out["setup.import_rpotent_ms"] = statistics.median(imp_rpotent)
        out["setup.import_numpy_ms"] = statistics.median(imp_numpy)
    return out


def import_program():
    if not os.path.isfile(os.path.join(SRC, "rpotent", "__init__.py")):
        raise BenchError(f"no rpotent package under {SRC}")
    sys.path.insert(0, SRC)
    import rpotent
    from rpotent import cli

    if not os.path.abspath(rpotent.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported rpotent from {rpotent.__file__}, not from {SRC}")
    return cli.main


def call(main, argv):
    """Run one command-line call; returns (exit code or None, stdout, error, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, ""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except (Exception, SystemExit) as exc:  # a raising operation counts as failed
        error = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    return rc, out.getvalue(), error, elapsed


class Recorder:
    """Kernel and operation times of a run, plus each distinct outcome."""

    def __init__(self) -> None:
        self.refs: list[list[float]] = [self._gap()]
        self.times: list[float] = []
        self.traced: list[bool] = []
        self.outcomes: dict[tuple, int] = {}

    def run_round(self, main, ops, tracer=None) -> None:
        for idx, op in enumerate(ops):
            gc.collect()
            if tracer is not None:
                tracer.begin_op(len(self.times))
            rc, out, error, elapsed = call(main, op.argv)
            if tracer is not None:
                tracer.end_op()
            self.refs.append(self._gap())
            self.times.append(elapsed)
            self.traced.append(tracer is not None)
            key = (idx, rc, out, error)
            self.outcomes[key] = self.outcomes.get(key, 0) + 1

    @staticmethod
    def _gap() -> list[float]:
        return [refkernel.timed_kernel() for _ in range(REF_REPS)]

    def factors(self) -> list[float]:
        """Per operation: NOMINAL_S / median of the kernel times around it."""
        out = []
        for i in range(len(self.times)):
            window = [t for gap in self.refs[max(0, i + 1 - REF_WINDOW): i + 1 + REF_WINDOW] for t in gap]
            out.append(refkernel.NOMINAL_S / statistics.median(window))
        return out


def judge(ops, rec: Recorder, schema) -> dict:
    attempted = failed = 0
    correct = True
    reasons = {}
    for (idx, rc, out, error), count in rec.outcomes.items():
        op = ops[idx]
        attempted += count
        reason = error or checks.check(op, rc, out, schema)
        if reason:
            failed += count
            correct = correct and op.known_fault
            reasons[op.label] = reason
    return {"correct": correct, "attempted": attempted, "failed": failed, "reasons": reasons}


def end_to_end(times: list[float], block: int | None) -> dict:
    """Throughput, median and tail of normalised operation times.

    ``block`` is the number of operations in the fewest whole rounds that
    hold ``TAIL_MIN_OPS``.  The tail is the highest percentile with
    ``TAIL_BEYOND`` operations beyond it in a sample of that size, read off
    all the run's operations by linear interpolation, so that it names the
    same percentile however many rounds a run makes.  Without a block the
    median stands in for the tail.
    """
    p50 = statistics.median(times)
    tail = p50
    if block:
        ordered = sorted(times)
        pos = (len(ordered) - 1) * (block - 1 - TAIL_BEYOND) / (block - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        tail = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    return {"ops_per_s": len(times) / sum(times), "op_p50_ms": p50 * 1e3, "op_tail_ms": tail * 1e3}


def run(args) -> dict:
    main = import_program()
    workdir = os.path.join(OUT, "inputs", f"{args.workload}-s{args.seed}")
    ops = workloads.build(args.workload, args.seed, workdir, ROOT)
    with open(os.path.join(SRC, "rpotent", "schemas", "analyze.schema.json"), encoding="utf-8") as fh:
        schema = json.load(fh)
    files = sorted({f for op in ops for f in op.files})
    setup = measure_setup(files, importtime=bool(args.trace))

    for op in ops:
        call(main, op.warm_argv or op.argv)

    with_tail = args.workload not in WITHOUT_TAIL
    min_rounds = math.ceil(TAIL_MIN_OPS / len(ops)) if with_tail else 1
    block = min_rounds * len(ops) if with_tail else None
    rec = Recorder()
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    start = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - start < args.seconds:
        rec.run_round(main, ops)
        if tracer is not None:
            tracer.install()
            try:
                rec.run_round(main, ops, tracer)
            finally:
                tracer.uninstall()
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    factors = rec.factors()
    norm = [t * f for t, f in zip(rec.times, factors)]
    plain = [t for t, traced in zip(norm, rec.traced) if not traced]
    result = judge(ops, rec, schema)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "ops_per_round": len(ops),
        "ref_kernel_ms_median": statistics.median(t for gap in rec.refs for t in gap) * 1e3,
        "raw": end_to_end([t for t, traced in zip(rec.times, rec.traced) if not traced], block),
        "setup": setup,
        "op_labels": [op.label for op in ops],
        "op_times_s": rec.times,
        "ref_times_s": rec.refs,
        "traced": rec.traced,
        "failures": result.pop("reasons"),
    }
    if tracer is None:
        metrics = end_to_end(plain, block)
        metrics["peak_rss_mb"] = peak_rss_mb
        metrics["setup_s"] = setup["setup_s"]
        units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
    else:
        traced_ids = [k for k, traced in enumerate(rec.traced) if traced]
        metrics = tracer.layer_metrics([factors[k] for k in traced_ids], traced_ids)
        metrics["setup.import_rpotent_ms"] = setup["setup.import_rpotent_ms"]
        metrics["setup.import_numpy_ms"] = setup["setup.import_numpy_ms"]
        metrics["trace.overhead_ratio"] = sum(norm[k] for k in traced_ids) / sum(plain)
        units = dict(tracing.LAYER_METRICS)
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.jsonl"))
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    detail["result"] = result
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    return detail


def report(detail: dict) -> None:
    result = detail["result"]
    print(f"workload {detail['workload']} seed {detail['seed']}: {detail['rounds']} rounds of {detail['ops_per_round']} operations")
    print(f"attempted {result['attempted']} failed {result['failed']} correct {str(result['correct']).lower()}")
    for label, reason in sorted(detail["failures"].items()):
        known = " (known fault)" if label in workloads.KNOWN_FAULTS else ""
        print(f"  failed {label}{known}: {reason}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    raw = detail["raw"]
    print(
        f"raw wall (no bound): ops_per_s = {raw['ops_per_s']:.6g} 1/s, op_p50_ms = {raw['op_p50_ms']:.6g} ms, "
        f"op_tail_ms = {raw['op_tail_ms']:.6g} ms"
    )
    print(f"reference kernel median = {detail['ref_kernel_ms_median']:.6g} ms (nominal {refkernel.NOMINAL_S * 1e3:g} ms)")
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        detail = run(args)
    except (BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    report(detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
