#!/usr/bin/env python3
"""Steadiness study: run each workload with several seeds and summarise.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 --out perfbench/steadiness.json
    python3 perfbench/steadiness.py --workloads exact_dp --runs 5

For every workload and end-to-end metric it reports the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median, next to the bound BENCHMARK.json gives the metric.
Seeds are 1..runs; each run is one `python3 perfbench/run.py` invocation,
made one after another so runs never compete for the machine.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    result = subprocess.run(command, capture_output=True, text=True,
                            check=False)
    if result.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{result.returncode}:\n{result.stderr[-2000:]}")
    lines = result.stdout.strip().splitlines()
    info = {}
    for line in lines[:-1]:
        info.update(json.loads(line))
    return json.loads(lines[-1]), info


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf"),
            "values": values}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", help="write the study as JSON here")
    args = parser.parse_args()

    study = {"run_seconds": args.seconds, "runs": args.runs, "workloads": {}}
    for workload in args.workloads:
        per_metric, failures, steal, machine = {}, [], [], None
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, info = run_once(workload, seed, args.seconds, 0)
            run_info = info.get("run_info", {})
            steal.append(run_info.get("steal_ticks"))
            machine = {k: run_info.get(k) for k in (
                "cpu_model", "simd_isa", "compiler", "build_type", "commit",
                "nproc", "mc_threads", "dp_threads", "sweep_workers",
                "journal_fs")}
            failures.append(result["failed"])
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed={seed} failed={result['failed']} " +
                  " ".join(f"{k}={v['value']:.6g}"
                           for k, v in result["metrics"].items()),
                  flush=True)
        summary = {name: summarise(values)
                   for name, values in per_metric.items()}
        study["workloads"][workload] = {
            "machine": machine, "failed": failures, "steal_ticks": steal,
            "metrics": summary}
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- over bound/3"
            print(f"  {workload:14s} {name:12s} median={s['median']:.6g} "
                  f"q1={s['q1']:.6g} q3={s['q3']:.6g} "
                  f"spread={s['spread']:.4f} bound={bound}{flag}",
                  flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(study, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
