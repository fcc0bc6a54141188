"""plumbook benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload random_plumbing --seed 1 --seconds 30 --trace 0

Run from the root of a plumbook checkout.  The workload runs in one worker
process (`worker.py`) with the checkout's `src` on PYTHONPATH.  With
`--trace 0` the result holds the end-to-end metrics, `setup_s` among
them; with `--trace 1` it holds the per-layer metrics of the traced run.
Inputs, result files and trace files go to perfbench/out/.
The last stdout line is the JSON result; the exit code is nonzero, with no
result, when the program cannot be found or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170       # the worker is stopped after this long


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "plumbook", "cli.py")):
        print(f"error: no plumbook source under {src}", file=sys.stderr)
        return 1
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)

    try:
        worker = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
             str(args.seed), str(args.seconds), str(args.trace), outdir],
            env=env, cwd=root, stdout=subprocess.PIPE, text=True,
            timeout=DEADLINE_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        print("error: the worker did not finish in time", file=sys.stderr)
        return 1
    if worker.returncode != 0:
        print(f"error: the worker exited with {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads(worker.stdout.strip().splitlines()[-1])
    if "trace_overhead" in result:
        print(f"trace overhead (traced / untraced op_p50_ms): "
              f"{result['trace_overhead']:.4f}", file=sys.stderr)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
