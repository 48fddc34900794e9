#!/usr/bin/env python3
"""Gate the kernel-speed ratios of one bench_spice_kernel run.

Timing gates are noisy, so they stay out of ctest: CI runs the bench once
with medians over interleaved repetitions at a long min_time, and this
script checks the four ratios on that JSON:

  ./build/bench_spice_kernel \\
      --benchmark_filter='BM_OtaChunk.*/100|BM_OtaAcSweep|BM_OtaMcParetoPoints' \\
      --benchmark_min_time=0.5 --benchmark_repetitions=3 \\
      --benchmark_enable_random_interleaving=true \\
      --benchmark_report_aggregates_only=true \\
      --benchmark_out=kernel_gates.json --benchmark_out_format=json
  python3 scripts/check_kernel_gates.py kernel_gates.json

Each gate is median(numerator) / median(denominator) of one counter,
oriented so that higher is better, against a floor:
  prototype_reuse  warm-prototype chunk vs per-point rebuild throughput
                   (chunk 100), >= 1.5x;
  reduced_ac       dense run_ac sweep time vs the Hessenberg-reduced sweep
                   on the same OTA testbench and frequencies, >= 3x;
  obs_disabled     fully instrumented chunk loop (tracing disarmed) vs its
                   uninstrumented twin throughput, >= 0.98x (<= 2 % cost);
  overlapped_mc    blocking vs async streaming wall time over six Pareto
                   points x (Bode + 100 MC samples + stats), >= 1.1x (the
                   overlap win grows with core count; 1.1x keeps 4-vCPU
                   runners gating on real regressions, not scheduler noise).

Usage: check_kernel_gates.py <bench_spice_kernel JSON>
"""

import json
import sys

MC = "BM_OtaMcParetoPoints{}/100/process_time/real_time"

# (gate, counter, numerator benchmark, denominator benchmark, floor)
GATES = [
    ("prototype_reuse", "points_per_second", "BM_OtaChunkPrototypeReuse/100",
     "BM_OtaChunkRebuildPerPoint/100", 1.5),
    ("reduced_ac", "real_time", "BM_OtaAcSweep", "BM_OtaAcSweepReduced", 3.0),
    ("obs_disabled", "points_per_second", "BM_OtaChunkObsDisabledOverhead/100",
     "BM_OtaChunkPrototypeReuse/100", 0.98),
    ("overlapped_mc", "real_time", MC.format("Blocking"), MC.format("Async"),
     1.1),
]


def main(path):
    with open(path) as f:
        benchmarks = json.load(f)["benchmarks"]
    median = {b["run_name"]: b for b in benchmarks
              if b.get("aggregate_name") == "median"}
    failures = []
    for gate, counter, num, den, floor in GATES:
        if num not in median or den not in median:
            failures.append(gate)
            print(f"FAIL {gate}: median of {num} or {den} missing")
            continue
        ratio = median[num][counter] / median[den][counter]
        ok = ratio >= floor
        if not ok:
            failures.append(gate)
        print(f"{'PASS' if ok else 'FAIL'} {gate}: {num} / {den} {counter} "
              f"-> {ratio:.3f}x (floor {floor}x)")
    if failures:
        sys.exit(f"\n{len(failures)} kernel gate(s) FAILED: {failures}")
    print("\nall kernel gates passed")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
