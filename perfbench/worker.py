"""One workload in one process: a closed loop of in-process CLI operations.

Run by `run.py` with the program's `src` on PYTHONPATH:

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE OUTDIR

An operation is one call `plumbook.cli.main(argv)` with stdout and stderr
captured; its wall time covers parse, validate, solve, search, assemble
and render.  The report is checked against `oracles` after the clock
stops.  WARMUP_OPS untimed operations warm up.  Then the run does whole
passes over the workload's fixed pool of operations: a pass is begun only
when it is expected to end within SECONDS, and there is always one.  So
every run weights every input equally, however fast the program is.

A shared host's speed can change by up to half in phases of seconds to
minutes, longer than a run can average out.  So every timed operation and
interpreter start lies between two runs of `calibration`, a fixed loop of
rational and integer-list arithmetic that imports nothing from plumbook,
and its wall time is scaled by CAL_REF_S over the mean of the two: the
times are given at the speed at which that loop takes CAL_REF_S.  The
result file keeps the calibration times, so the speed of the run shows.

With TRACE 0, SETUP_STARTS fresh interpreters that start and import
plumbook.cli are timed between the operations of the first pass, outside
the operations' clocks; `setup_s` is their median.  With TRACE 1 each
pass runs the whole pool traced, for at most TRACE_PASSES passes, and
runs every OVERHEAD_EVERY-th operation untraced just before its traced
copy; the per-layer metrics come from the traced operations, unscaled.
The last stdout line is a JSON object with the measurements.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

import checks
import workloads
from tracer import Tracer

SETUP_STARTS = 36      # timed interpreter starts, spread over the first pass
CAL_REF_S = 0.0015     # the calibration's time at the speed the times are given at
TRACE_PASSES = 8       # a traced run keeps its spans in memory, so it stops here
OVERHEAD_EVERY = 4     # a traced pass also runs every 4th operation untraced
WARMUP_OPS = 3         # untimed operations before the clock starts


class Runner:
    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def run(self, op) -> float | None:
        """Time one operation and check its report; None if it failed."""
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                code = self.cli.main(list(op.argv))
                elapsed = time.perf_counter() - start
        except Exception:  # a crash is one failed operation, not the end of the run
            code = traceback.format_exc()
        if code != 0:
            self.failed += 1
            print(f"failed ({code}): {' '.join(op.argv)}: {err.getvalue().strip()}",
                  file=sys.stderr)
            return None
        try:
            checks.check(op, checks.parse(out.getvalue(), op.json))
        except checks.CheckError as exc:
            self.wrong.append(f"{' '.join(op.argv)}: {exc}")
        return elapsed


def interpreter_start() -> float:
    """Wall time of a fresh interpreter that starts and imports plumbook.cli."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import plumbook.cli"], check=True)
    return time.perf_counter() - start


def calibration() -> float:
    """Least wall time of three runs of a fixed loop of exact rational and
    integer-list arithmetic, the kind of work plumbook does, with the
    collector off so that no setting of the program's changes it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            total = Fraction(0)
            for i in range(1, 300):
                total += Fraction(i, i * i + 1)
            row = list(range(24))
            for _ in range(150):
                row = [(3 * x + row[i - 1]) % 1009 for i, x in enumerate(row)]
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, outdir = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    import plumbook.cli as cli

    pool = [op for ops in workloads.build(workload, seed,
                                          os.path.join(outdir, f"{workload}-{seed}"))
            for op in ops]
    runner = Runner(cli)
    for op in pool[:WARMUP_OPS]:
        runner.run(op)
    runner.attempted = runner.failed = 0
    if not trace:
        interpreter_start()   # fills the file and bytecode caches; not timed

    tracer = Tracer() if trace else None
    plain: list[float] = []
    by_kind: dict[str, list[float]] = {}
    starts: list[float] = []
    calibrations = [] if trace else [calibration()]
    overhead: list[tuple[float, float]] = []   # (untraced, traced) per operation
    argv_by_op: dict[int, list[str]] = {}
    start = time.perf_counter()
    passes, last_pass = 0, 0.0
    while passes == 0 or (time.perf_counter() - start + last_pass <= seconds
                          and not (trace and passes == TRACE_PASSES)):
        pass_start = time.perf_counter()
        if tracer:
            for i, op in enumerate(pool):
                u = runner.run(op) if i % OVERHEAD_EVERY == 0 else None
                tracer.op += 1
                argv_by_op[tracer.op] = list(op.argv)
                tracer.install()
                try:
                    t = runner.run(op)
                finally:
                    tracer.uninstall()
                if t is not None and u is not None:
                    overhead.append((u, t))
        else:
            for i, op in enumerate(pool):
                t = runner.run(op)
                walls = []
                if passes == 0:
                    # start k of SETUP_STARTS follows operation k * len(pool) // SETUP_STARTS
                    walls = [interpreter_start() for _ in range(
                        i * SETUP_STARTS // len(pool), (i + 1) * SETUP_STARTS // len(pool))]
                calibrations.append(calibration())
                scale = 2 * CAL_REF_S / (calibrations[-2] + calibrations[-1])
                if t is not None:
                    plain.append(t * scale)
                    by_kind.setdefault(op.kind, []).append(t * scale)
                starts += [wall * scale for wall in walls]
        passes += 1
        last_pass = time.perf_counter() - pass_start

    result = {"correct": not runner.wrong, "attempted": runner.attempted,
              "failed": runner.failed, "passes": passes, "pool": len(pool)}
    for line in runner.wrong[:10]:
        print(f"wrong: {line}", file=sys.stderr)
    if tracer:
        tracer.write(os.path.join(outdir, f"trace-{workload}-{seed}.jsonl"), argv_by_op)
        result["metrics"] = tracer.metrics(len(argv_by_op))
        if overhead:
            result["trace_overhead"] = (statistics.median(t for _, t in overhead)
                                        / statistics.median(u for u, _ in overhead))
    else:
        result["setup_starts"] = starts
        result["calibration_ms"] = {"least": 1000 * min(calibrations),
                                    "median": 1000 * statistics.median(calibrations),
                                    "most": 1000 * max(calibrations)}
        result["median_ms_by_kind"] = {kind: 1000 * statistics.median(times)
                                       for kind, times in sorted(by_kind.items())}
        result["metrics"] = {
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(starts), "unit": "s"},
        }
        if plain:   # with every operation failed there is no time to report
            result["metrics"].update({
                "ops_per_s": {"value": len(plain) / sum(plain), "unit": "1/s"},
                "op_p50_ms": {"value": 1000 * statistics.median(plain), "unit": "ms"},
                "op_tail_ms": {"value": 1000 * statistics.quantiles(
                    plain, n=4, method="inclusive")[2], "unit": "ms"},
            })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
