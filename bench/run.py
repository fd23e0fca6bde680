"""padicdesk benchmark: one workload per invocation, one JSON line of results.

    python3 bench/run.py --workload branch-batch --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The process puts `src/` on the path,
imports `padicdesk.cli` and calls `padicdesk.cli.main(argv)` once per
operation with stdout captured: a closed loop with one client, no threads and
no subprocesses.  Inputs come from `--seed` (see gen.py) and are written to
files before timing starts.  Every output is checked (see checks.py).

A run repeats whole rounds of the workload's operations while another round
still fits in `--seconds`; it always runs at least one.  With `--trace 0` the
last line of stdout holds the end-to-end metrics; with `--trace 1` it runs one
round with the tracer installed and holds the per-layer metrics, and the spans
go to `.bench_out/trace-<workload>-seed<seed>.json`.  Times are read from
refclock.ReferenceClock, which scales out the drift of the machine's speed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import checks
import gen
from refclock import ReferenceClock
from tracer import ROOT_METRIC, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 15


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _drop_package() -> None:
    for name in [m for m in sys.modules if m == "padicdesk" or m.startswith("padicdesk.")]:
        del sys.modules[name]


def fresh_cli():
    """Import padicdesk.cli anew, dropping every module-level cache of the package.

    Each round starts from a fresh import, as a new process would, so that no
    round finds tables an earlier round filled.
    """
    _drop_package()
    gc.collect()
    import padicdesk.cli
    return padicdesk.cli


def setup_time(now) -> float:
    """Median time, over SETUP_REPEATS fresh imports, to import the CLI and build its parser.

    The first import also pays for stdlib imports and bytecode compilation;
    the median leaves that one out.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        _drop_package()
        start = now()
        import padicdesk.cli
        padicdesk.cli.build_parser()
        times.append(now() - start)
    return statistics.median(times)


def call(main, argv: list, now=perf_counter):
    """Run main(argv) with stdout captured; returns (exit code, stdout, seconds by `now`)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = now()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse errors exit through SystemExit
            code = exc.code if isinstance(exc.code, int) else 1
        elapsed = now() - start
    return code, buf.getvalue(), elapsed


class Run:
    """Counts and checks the operations of one invocation."""

    def __init__(self, ops: list, now=perf_counter):
        self.ops = ops
        self.now = now
        self.attempted = 0
        self.failed = 0
        self.errors = []  # wrong outputs of operations that did not fail
        self.latencies = [[] for _ in ops]  # per operation, one entry per round
        self.round_walls = []
        self.raw_seconds = []  # unscaled time of each round, checks included
        self.digests = {}  # op index -> sha256 of its stdout, equal in every round

    def round(self, main) -> None:
        """Run every operation, then check them all.

        Checking after the round keeps the checks' allocations from moving
        the garbage collector's schedule inside the timed calls.
        """
        wall = 0.0
        raw_start = perf_counter()
        results = []
        for op in self.ops:
            code, out, seconds = call(main, op["argv"], self.now)
            results.append((code, out))
            wall += seconds
            self.latencies[len(results) - 1].append(seconds)
        self.round_walls.append(wall)
        self.raw_seconds.append(perf_counter() - raw_start)
        for i, (op, (code, out)) in enumerate(zip(self.ops, results)):
            self.attempted += 1
            if code != 0:
                self.failed += 1
                print(f"bench: op {i} failed with exit code {code}", file=sys.stderr)
                continue
            digest = hashlib.sha256(out.encode()).hexdigest()
            if self.digests.setdefault(i, digest) != digest:
                self.errors.append(f"op {i}: report bytes differ between rounds")
            try:
                report = json.loads(out)
            except json.JSONDecodeError as err:
                self.errors.append(f"op {i}: output is not JSON ({err})")
                continue
            problem = checks.check(op, code, report)
            if problem:
                self.errors.append(f"op {i}: {problem}")


def _percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def measured(args, ops: list):
    """Whole rounds until another would overrun --seconds; end-to-end metrics."""
    with ReferenceClock() as clock:
        setup_s = setup_time(clock.now)
        run = Run(ops, clock.now)
        start = perf_counter()
        while True:
            run.round(fresh_cli().main)
            elapsed = perf_counter() - start
            if elapsed + elapsed / len(run.round_walls) > args.seconds:
                break
    # an operation's latency is its median over the rounds, which keeps a
    # stall of the machine in one round out of the percentiles
    per_op = [statistics.median(v) for v in run.latencies]
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": statistics.median(run.round_walls), "unit": "s"},
        "op_p50_ms": {"value": 1000 * statistics.median(per_op), "unit": "ms"},
        "op_p90_ms": {"value": 1000 * _percentile(per_op, 90), "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    print("bench: unscaled seconds per round, checks included: "
          + " ".join(f"{x:.3f}" for x in run.raw_seconds), file=sys.stderr)
    return run, metrics


def traced(args, ops: list):
    """One round with the tracer installed; per-layer metrics."""
    with ReferenceClock() as clock:
        cli = fresh_cli()
        run = Run(ops, clock.now)
        tracer = Tracer(clock.now)
        tracer.install()
        try:
            run.round(tracer.spanned(cli.main, ROOT_METRIC))
        finally:
            tracer.restore()
    metrics = tracer.metrics(run.round_walls[0])
    trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(str(trace_path), {"workload": args.workload, "seed": args.seed,
                                   "metrics": {k: v["value"] for k, v in metrics.items()}})
    print(f"bench: spans written to {trace_path}", file=sys.stderr)
    return run, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "padicdesk" / "cli.py").is_file():
        _fail(f"no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    ops = gen.build_round(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    inputs = tempfile.mkdtemp(prefix=f"inputs-{args.workload}-", dir=OUT_DIR)
    try:
        gen.materialize(ops, inputs)
        if args.trace:
            run, metrics = traced(args, ops)
        else:
            run, metrics = measured(args, ops)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    for err in run.errors[:20]:
        print(f"bench: {err}", file=sys.stderr)
    if args.workload == "verify-all" and run.digests:
        print(f"bench: report sha256 {run.digests[0]}", file=sys.stderr)
    print(f"bench: {args.workload} seed {args.seed}: {len(run.round_walls)} round(s), "
          f"{run.attempted} attempted, {run.failed} failed", file=sys.stderr)
    for name, m in metrics.items():
        print(f"bench:   {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": not run.errors, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
