#!/usr/bin/env python3
"""Distill bench_micro's probe-throughput run into the stable BENCH schema.

Reads the raw google-benchmark JSON (bench_micro --benchmark_out=...) and
writes BENCH_micro_probe.json in the same {experiment, metrics, checks,
all_pass} shape every other BENCH_*.json artifact uses, under STABLE metric
names -- `probe_trials/<Case>/<path>_trials_per_sec` and
`speedup/<series>/<Case>` -- so the per-commit artifacts are
machine-comparable PR-over-PR instead of raw benchmark dumps.

Benchmarks pair up by suffix:
  BM_ProbeTrials_Ref_X     / BM_ProbeTrials_Batch_X -> speedup/batch_vs_ref/X
  BM_ProbeTrials_Ref_X     / BM_ProbeTrials_RandBatch_X
                           -> speedup/randomized_batch_vs_ref/X
  BM_EstimatePpcGenericLambda / BM_EstimatePpcBitSliced
                           -> the engine end-to-end series
The Batch tier pins --simd off (one lane word); RandBatch runs the default
width.
Every speedup is gated > 1 (a path that stops beating its baseline fails
the job); the exit code doubles as the CI gate.
"""
import json
import sys

REF, BATCH, RANDBATCH = "_Ref_", "_Batch_", "_RandBatch_"


def main() -> int:
    if len(sys.argv) != 3:
        print(f"usage: {sys.argv[0]} RAW_BENCHMARK_JSON OUT_SCHEMA_JSON")
        return 2
    raw_path, out_path = sys.argv[1], sys.argv[2]
    with open(raw_path) as f:
        raw = json.load(f)
    rate = {b["name"]: b["items_per_second"]
            for b in raw["benchmarks"] if "items_per_second" in b}

    metrics, checks = {}, {}

    def case_of(name, tag):
        return name.split(tag, 1)[1]

    def record(case, path, value):
        metrics[f"probe_trials/{case}/{path}_trials_per_sec"] = value

    def gate(series, case, numerator, denominator):
        speedup = numerator / denominator
        metrics[f"speedup/{series}/{case}"] = speedup
        checks[f"{series}/{case}"] = speedup > 1.0
        print(f"{series}/{case}: {speedup:.2f}x "
              f"({denominator:.0f} -> {numerator:.0f} trials/sec)")
        return speedup

    for name in sorted(rate):
        if REF in name:
            record(case_of(name, REF), "ref", rate[name])
        elif BATCH in name:
            record(case_of(name, BATCH), "batch", rate[name])
        elif RANDBATCH in name:
            record(case_of(name, RANDBATCH), "randomized_batch", rate[name])

    # Pairing is strict: a Batch or RandBatch benchmark without its Ref
    # baseline is a broken suite and must fail the job (KeyError), not
    # silently drop the gate.
    for name in sorted(rate):
        if BATCH in name:
            case = case_of(name, BATCH)
            gate("batch_vs_ref", case, rate[name],
                 rate[name.replace(BATCH, REF)])
        elif RANDBATCH in name:
            case = case_of(name, RANDBATCH)
            gate("randomized_batch_vs_ref", case, rate[name],
                 rate[name.replace(RANDBATCH, REF)])

    # Engine end-to-end (estimate_ppc on Maj63): the generic run() lambda
    # vs. the bit-sliced default.
    metrics["engine/estimate_ppc/generic_trials_per_sec"] = \
        rate["BM_EstimatePpcGenericLambda"]
    metrics["engine/estimate_ppc/bitsliced_trials_per_sec"] = \
        rate["BM_EstimatePpcBitSliced"]
    gate("engine_batch_vs_ref", "EstimatePpc",
         rate["BM_EstimatePpcBitSliced"], rate["BM_EstimatePpcGenericLambda"])

    report = {
        "experiment": "micro_probe",
        "metrics": metrics,
        "checks": checks,
        "all_pass": all(checks.values()),
    }
    with open(out_path, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")

    failures = sorted(name for name, ok in checks.items() if not ok)
    if failures:
        print(f"speedup gates failed: {failures}")
        return 1
    print(f"all {len(checks)} speedup gates passed; schema -> {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
