"""Paired benchmark runs of a parent checkout against a change checkout.

    python3 scripts/bench_pairs.py --parent ../parent --change . --pr 9 \\
        --note "what the change does" [--claim-workload random_plumbing \\
        --claim-metric ops_per_s]

For every workload in the change's BENCHMARK.json and each of SEEDS, this
runs `perfbench/run.py --trace 0` for BENCHMARK.json's run_seconds once in
each checkout, one process at a time, the side that runs first
alternating from pair to pair.  Then it makes one `--trace 1` run per
side and workload on TRACE_SEED.  It writes BENCH_<pr>.json into the
change checkout: per workload and end-to-end metric, every run, each
side's median and quartiles, the ratio of the medians and the pairs the
change won, and whether the change's median stays within the metric's
relative bound of the parent's; per workload, the per-layer means of the
traced runs.  A claim names a workload and a metric, or neither is given
and the file records "claim": null.  The claim is met when the change
wins at least nine tenths of the pairs on the claimed workload and
metric, and its median beats the parent's by more than the distance
between the parent's quartiles.

Both checkouts must hold the same benchmark: the script stops if their
BENCHMARK.json or perfbench/*.py differ.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
SEEDS = (7919, 1, 2, 3, 4, 5, 6, 8, 9, 10)   # the first is held back while developing
TRACE_SEED = 1


def benchmark_files(root: str) -> dict[str, bytes]:
    names = ["BENCHMARK.json"] + sorted(
        os.path.join("perfbench", name) for name in os.listdir(os.path.join(root, "perfbench"))
        if name.endswith(".py"))
    files = {}
    for name in names:
        with open(os.path.join(root, name), "rb") as fh:
            files[name] = fh.read()
    return files


def run(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv[1:])} exited {done.returncode} in {root}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def better(a: float, b: float, direction: str) -> bool:
    return a > b if direction == "higher" else a < b


def within_bound(parent: float, change: float, spec: dict) -> bool:
    """The change is no worse than the parent by more than the relative bound."""
    if spec["better"] == "higher":
        return change >= parent * (1 - spec["bound"])
    return change <= parent * (1 + spec["bound"])


def compare(results: dict, spec: dict) -> dict:
    runs = {side: [r["metrics"][spec["name"]]["value"] for r in results[side]] for side in SIDES}
    stats = {side: summary(runs[side]) for side in SIDES}
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "parent": stats["parent"],
        "change": stats["change"],
        "change_over_parent": round(stats["change"]["median"] / stats["parent"]["median"], 4),
        "change_better_pairs": sum(better(c, p, spec["better"])
                                   for p, c in zip(runs["parent"], runs["change"])),
        "bound": spec["bound"],
        "within_bound": within_bound(stats["parent"]["median"], stats["change"]["median"], spec),
        "runs": {side: [round(v, 6) for v in runs[side]] for side in SIDES},
    }


def claim_met(metric: dict) -> bool:
    parent, change = metric["parent"], metric["change"]
    gap = change["median"] - parent["median"]
    if metric["better"] == "lower":
        gap = -gap
    pairs = len(metric["runs"]["parent"])
    return 10 * metric["change_better_pairs"] >= 9 * pairs and gap > parent["q3"] - parent["q1"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--note", required=True, help="what the change does, in one line")
    parser.add_argument("--claim-workload", help="workload of the claimed gain, if any")
    parser.add_argument("--claim-metric", help="end-to-end metric of the claimed gain, if any")
    args = parser.parse_args()
    claim = args.claim_workload is not None
    if claim != (args.claim_metric is not None):
        parser.error("give both --claim-workload and --claim-metric, or neither")

    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    if benchmark_files(roots["parent"]) != benchmark_files(roots["change"]):
        print("error: the two checkouts hold different benchmarks", file=sys.stderr)
        return 1
    with open(os.path.join(roots["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    seconds = benchmark["run_seconds"]
    names = [w["name"] for w in benchmark["workloads"]]
    if claim and (args.claim_workload not in names or args.claim_metric not in {
            spec["name"] for spec in benchmark["end_to_end"]}):
        parser.error("the claim must name a workload and an end-to-end metric of BENCHMARK.json")
    layer_names = [spec["name"] for spec in benchmark["per_layer"]]

    workloads, layers = {}, {}
    for workload in names:
        results: dict = {side: [] for side in SIDES}
        first = []
        for pair, seed in enumerate(SEEDS):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            first.append(order[0])
            for side in order:
                print(f"{workload} seed {seed} {side}", file=sys.stderr, flush=True)
                results[side].append(run(roots[side], workload, seed, seconds, 0))
        workloads[workload] = {
            "pairs": len(SEEDS),
            "runs": 2 * len(SEEDS),
            "seeds": list(SEEDS),
            "first_side": first,
            "attempted_failed_correct": {
                side: [[r["attempted"], r["failed"], r["correct"]] for r in results[side]]
                for side in SIDES},
            "metrics": {spec["name"]: compare(results, spec) for spec in benchmark["end_to_end"]},
        }
        traced = {side: run(roots[side], workload, TRACE_SEED, seconds, 1)["metrics"]
                  for side in SIDES}
        layers[workload] = {name: {side: round(traced[side][name]["value"], 4) for side in SIDES}
                            for name in layer_names if name in traced["parent"]}

    report = {
        "change": args.note,
        "machine": f"{os.cpu_count()}-CPU {platform.machine()} {platform.system()}; "
                   f"Python {platform.python_version()}",
        "method": f"perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0, "
                  "run on the parent commit and on this change in turn, one pair per seed, "
                  "the side that runs first alternating from pair to pair; each side in its "
                  "own checkout, one benchmark process at a time (scripts/bench_pairs.py)",
    }
    report["claim"] = None
    if claim:
        metric = workloads[args.claim_workload]["metrics"][args.claim_metric]
        report["claim"] = {
            "workload": args.claim_workload,
            "metric": args.claim_metric,
            "held_back_seed": SEEDS[0],
            "met": claim_met(metric),
            "note": f"the change is better in {metric['change_better_pairs']} of "
                    f"{len(SEEDS)} pairs; medians {metric['parent']['median']} (parent, "
                    f"quartiles {metric['parent']['q1']}-{metric['parent']['q3']}) and "
                    f"{metric['change']['median']} (change)",
        }
    report["workloads"] = workloads
    report[f"per_layer_seed_{TRACE_SEED}"] = {
        "method": f"perfbench/run.py --workload W --seed {TRACE_SEED} --seconds {seconds:g} "
                  "--trace 1 on each side, once; mean per operation",
        "workloads": layers,
    }
    out = os.path.join(roots["change"], f"BENCH_{args.pr}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
