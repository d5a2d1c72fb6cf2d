"""Run one workload of the redeiberge benchmark and print its metrics.

    python3 bench/run.py --workload verify-n5 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its
``src`` directory.  One client runs one op at a time (a closed loop), in
whole rounds of inputs, until the ops have taken ``--seconds`` seconds.
Every op's output is checked outside the timed region.  Reported times
are scaled to the machine's idle speed by the reference work run after
each op (see reference.py); the mean scale factor is printed.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics named in BENCHMARK.json.  With ``--trace 1``
the same rounds first run untraced for half of ``--seconds``, then run
again with spans recorded around the package's functions; the last line
then holds the per-layer metrics, normalised per traced op, and the span
records are written to ``bench/out/spans-<workload>.jsonl``.  The lines
before the last give the run's environment and each metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from time import perf_counter

import reference
from tracer import PACKAGE, Tracer
from workloads import WORKLOADS, CheckFailed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 9
POOL_ROUNDS = 64  # rounds built at set-up; a run that needs more reuses them
TAIL_BEYOND = 10  # op_tail_s is the highest percentile with this many samples above


# ------------------------------------------------------------------ set-up

def import_package():
    """Import the package and its CLI module afresh from this checkout."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module(PACKAGE)
    importlib.import_module(f"{PACKAGE}.cli")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"{PACKAGE} imported from {pkg.__file__}, not from {SRC}")
    return pkg


def set_up(workload, seed: int):
    """Import the package and build the inputs, several times.

    Returns the package, the warm-up digraph, the rounds of digraphs, and
    the median set-up time, each scaled by the reference work run after it.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        pkg = import_package()
        warmup, rounds = workload.rounds(seed, POOL_ROUNDS)
        warm = pkg.digraph(workload.n, warmup)
        inputs = [[pkg.digraph(workload.n, edges) for edges in r] for r in rounds]
        elapsed = perf_counter() - t0
        chunks = reference.reference_times(workload.reference, elapsed)
        times.append(elapsed * reference.KERNELS[workload.reference][1] / statistics.fmean(chunks))
    return pkg, warm, inputs, statistics.median(times)


# ------------------------------------------------------------------ ops

class Runner:
    """Runs ops one at a time, checks each, and keeps the tallies."""

    def __init__(self, pkg, workload, tracer=None):
        self.pkg = pkg
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.guard_errors = 0
        self.identities = 0
        self.failures: list = []

    def _fail(self, D, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{D!r}: {what}")

    def run_op(self, D, op_id=None):
        """Time one op; return (seconds, ok).  The check is not timed."""
        self.attempted += 1
        op, tracer = self.workload.op, self.tracer
        t0 = perf_counter()
        try:
            if tracer is None:
                out = op(self.pkg, D)
            else:
                tracer.op = op_id
                tracer.active = True
                try:
                    out = tracer.call("bench.op", op, self.pkg, D)
                finally:
                    tracer.active = False
        except self.pkg.GuardError as exc:
            elapsed = perf_counter() - t0
            self.guard_errors += 1
            self._fail(D, f"GuardError: {exc}")
            return elapsed, False
        except Exception as exc:  # one bad op must not end the run
            elapsed = perf_counter() - t0
            self._fail(D, "".join(traceback.format_exception_only(exc)).strip())
            return elapsed, False
        elapsed = perf_counter() - t0
        try:
            self.identities += self.workload.check(self.pkg, D, out)
        except CheckFailed as exc:
            self._fail(D, f"wrong output: {exc}")
            return elapsed, False
        return elapsed, True


def measure(runner: Runner, inputs, seconds=None, rounds=None):
    """Run whole rounds until the ops add up to seconds, or exactly rounds.

    Returns the op times scaled to reference speed, the number of correct
    ops, the rounds run, and the mean scale factor.
    """
    kernel = runner.workload.reference
    times, ok, marks, chunks = [], 0, [0], []
    r = 0
    while (sum(times) < seconds) if rounds is None else (r < rounds):
        for D in inputs[r % len(inputs)]:
            elapsed, good = runner.run_op(D, op_id=len(times))
            times.append(elapsed)
            ok += good
            chunks += reference.reference_times(kernel, elapsed * reference.SHARE)
            marks.append(len(chunks))
        r += 1
    scaled = reference.scale_to_reference(kernel, times, marks, chunks)
    return scaled, ok, r, sum(scaled) / sum(times)


def tail(times: list):
    """(value, percentile, samples beyond) for the highest percentile that
    has TAIL_BEYOND samples above it; the lowest sample if there are fewer."""
    ordered = sorted(times)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


# ------------------------------------------------------------------ metrics

def end_to_end(times, ok, setup_s) -> tuple:
    value, pct, beyond = tail(times)
    metrics = {
        "ops_per_s": ok / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": value,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {"op_tail_s": f"p{pct:.1f} of {len(times)} ops, {beyond} beyond"}
    return metrics, notes


def per_layer(tracer: Tracer, runner: Runner, traced_ops: int, scale: float) -> dict:
    """Per-layer metrics per traced op; span times are multiplied by scale."""
    per_op = 1.0 / traced_ops
    metrics = {}
    for name, row in tracer.summary().items():
        metrics[f"{name}.busy_s"] = row["busy_s"] * scale * per_op
        metrics[f"{name}.self_s"] = row["self_s"] * scale * per_op
        metrics[f"{name}.calls"] = row["calls"] * per_op
    counts = tracer.counts
    space = counts["digraph.perms_with_cycles_in_either.space"]
    kept = counts["digraph.perms_with_cycles_in_either.kept"]
    metrics.update(
        {
            "guards.calls": counts["guards.calls"] * per_op,
            "guards.guard_errors": runner.guard_errors,
            "symfun.SymFun.constructed": counts["symfun.SymFun.constructed"] * per_op,
            "redei.routes_per_digraph": counts["redei.routes"] * per_op,
            "digraph.perms_with_cycles_in_either.yield_ratio": kept / space if space else 0.0,
            "trace.spans_per_op": len(tracer.spans) * per_op,
        }
    )
    return metrics


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    pkg_dir = os.path.join(SRC, PACKAGE)
    for name in sorted(os.listdir(pkg_dir)):
        if name.endswith(".py"):
            with open(os.path.join(pkg_dir, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


# ------------------------------------------------------------------ entry point

def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: the result record, display notes and failures."""
    pkg, warm, inputs, setup_s = set_up(workload, seed)
    runner = Runner(pkg, workload)
    runner.run_op(warm)
    if not trace:
        times, ok, _, scale = measure(runner, inputs, seconds)
        metrics, notes = end_to_end(times, ok, setup_s)
    else:
        times, ok, rounds, _ = measure(runner, inputs, seconds / 2)
        untraced = ok / sum(times)
        runner.tracer = tracer = Tracer()
        identities = runner.identities
        tracer.install()
        try:
            times, ok, _, scale = measure(runner, inputs, rounds=rounds)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, runner, len(times), scale)
        traced = ok / sum(times)
        metrics["cli.identities_checked"] = (runner.identities - identities) / len(times)
        metrics["trace.untraced_ops_per_s"] = untraced
        metrics["trace.traced_ops_per_s"] = traced
        metrics["trace.overhead_ops_per_s"] = traced - untraced
        notes = {}
        out_dir = os.path.join(BENCH_DIR, "out")
        os.makedirs(out_dir, exist_ok=True)
        meta = {"workload": workload.name, "time_scale": scale, **environment(seed)}
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        tracer.write_jsonl(os.path.join(out_dir, f"spans-{workload.name}.jsonl"), meta, origin)
    notes["machine"] = f"op times scaled by {scale:.4f} on average, see bench/reference.py"
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
        "notes": notes,
        "failures": runner.failures,
        "guard_errors": runner.guard_errors,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"cannot import {PACKAGE} from {SRC}: {exc}", file=sys.stderr)
        return 2
    measured = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 2

    print(f"# {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("# env " + json.dumps(environment(args.seed), sort_keys=True))
    print(f"# machine: {result['notes']['machine']}")
    for line in result["failures"]:
        print(f"# failed: {line}", file=sys.stderr)
    metrics = {}
    for m in wanted:
        value = measured[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = result["notes"].get(m["name"])
        print(f"{m['name']:<52} {value:>14.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    error_rate = result["failed"] / result["attempted"]
    print(
        f"{'error_rate':<52} {error_rate:>14.6g} ratio  "
        f"({result['failed']} failed / {result['attempted']} attempted, "
        f"{result['guard_errors']} GuardError)"
    )
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
