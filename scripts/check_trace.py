#!/usr/bin/env python3
"""Validate a ypm Chrome trace-event artifact (the flow_trace_gate ctest).

Usage: check_trace.py TRACE_JSON

Checks, in order:
 1. the file is valid JSON in Chrome trace-event *object form* with a
    "traceEvents" list (what chrome://tracing and Perfetto load);
 2. every event carries the required trace-event fields, with complete
    ("X") events owning a non-negative duration;
 3. the required span names from a traced flow run are all present:
    flow.run / flow.moo / flow.mc / flow.yield / engine.submit /
    engine.batch / engine.kernel / yield.chunk;
 4. yield.chunk instants carry the sequential runner's diagnostics
    (samples, ess, max_weight_share, half_width);
 5. time containment: every engine.kernel span lies inside its
    engine.batch span (matched by the "batch" argument), and the flow.run
    span covers the sum of the sequential step spans (flow.moo + flow.mc +
    flow.yield + flow.table);
 6. the embedded metrics snapshot agrees with the flow.run span's engine
    ledger arguments (requests / evaluations / cache_hits - same run, same
    process, so the process-wide counters must match the ledger exactly);
 7. AC sweeps take the Hessenberg-reduced path: guard fallbacks are at most
    1 % of all sweeps (spice.ac.reduced_sweeps + spice.ac.guard_fallbacks);
 8. process samples start DC Newton from their sizing's nominal operating
    point: spice.dc.warm_starts > 0, and spice.dc.warm_fallbacks (warm
    Newton failed, gmin or source stepping answered) is at most 1 % of them.
    The OK line also reports ota.nominal_op_misses (cold nominal solves the
    warm starts paid for), ungated.

Exit status 0 when every check passes; 1 with a message otherwise.
"""

import json
import sys

REQUIRED_SPANS = [
    "flow.run",
    "flow.moo",
    "flow.mc",
    "flow.yield",
    "engine.submit",
    "engine.batch",
    "engine.kernel",
    "yield.chunk",
]

CHUNK_ARGS = ["samples", "ess", "max_weight_share", "half_width"]

# Largest share of AC sweeps the reduced path may hand to the dense guard
# fallback, and of warm DC starts that may fall back to the homotopies.
MAX_FALLBACK_SHARE = 0.01

# Export rounds timestamps to 1/1000 us; containment comparisons allow one
# rounding step on each side.
EPS_US = 0.002


def fail(message):
    print(f"check_trace: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 2:
        fail(f"usage: {sys.argv[0]} TRACE_JSON")
    path = sys.argv[1]

    try:
        with open(path, encoding="utf-8") as f:
            trace = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not readable as JSON: {e}")

    if not isinstance(trace, dict) or "traceEvents" not in trace:
        fail("not in Chrome trace-event object form (no 'traceEvents' key)")
    events = trace["traceEvents"]
    if not isinstance(events, list) or not events:
        fail("'traceEvents' is empty")

    for i, e in enumerate(events):
        for key in ("name", "cat", "ph", "ts", "pid", "tid"):
            if key not in e:
                fail(f"event {i} is missing '{key}': {e}")
        if e["ph"] not in ("X", "i"):
            fail(f"event {i} has unexpected phase {e['ph']!r}")
        if e["ph"] == "X" and e.get("dur", -1) < 0:
            fail(f"complete event {i} ({e['name']}) lacks a duration")

    by_name = {}
    for e in events:
        by_name.setdefault(e["name"], []).append(e)
    for name in REQUIRED_SPANS:
        if name not in by_name:
            fail(f"required span '{name}' absent from the trace")

    for e in by_name["yield.chunk"]:
        args = e.get("args", {})
        missing = [a for a in CHUNK_ARGS if a not in args]
        if missing:
            fail(f"yield.chunk instant lacks diagnostics {missing}: {e}")

    # --- kernel-within-batch containment, matched by the batch id arg.
    batch_span = {}
    for e in by_name["engine.batch"]:
        bid = e.get("args", {}).get("batch")
        if bid is None:
            fail(f"engine.batch span without a 'batch' argument: {e}")
        batch_span[bid] = (e["ts"], e["ts"] + e["dur"])
    for e in by_name["engine.kernel"]:
        bid = e.get("args", {}).get("batch")
        if bid is None:
            fail(f"engine.kernel span without a 'batch' argument: {e}")
        if bid not in batch_span:
            fail(f"engine.kernel span references unknown batch {bid}")
        lo, hi = batch_span[bid]
        if e["ts"] < lo - EPS_US or e["ts"] + e["dur"] > hi + EPS_US:
            fail(
                f"engine.kernel span [{e['ts']}, {e['ts'] + e['dur']}] us "
                f"escapes engine.batch {bid} [{lo}, {hi}] us"
            )

    # --- the run span covers the sequential flow steps.
    if len(by_name["flow.run"]) != 1:
        fail(f"expected exactly one flow.run span, got {len(by_name['flow.run'])}")
    run = by_name["flow.run"][0]
    step_total = 0.0
    for step in ("flow.moo", "flow.mc", "flow.yield", "flow.table"):
        step_total += sum(e["dur"] for e in by_name.get(step, []))
    if run["dur"] + EPS_US < step_total:
        fail(
            f"flow.run duration {run['dur']} us shorter than the sum of its "
            f"step spans {step_total} us"
        )

    # --- embedded metrics agree with the run span's engine ledger args.
    metrics = trace.get("metrics")
    if not isinstance(metrics, dict) or "counters" not in metrics:
        fail("no embedded 'metrics' snapshot")
    counters = metrics["counters"]
    run_args = run.get("args", {})
    for ledger_arg, counter in (
        ("requests", "engine.requests"),
        ("evaluations", "engine.evaluations"),
        ("cache_hits", "engine.cache_hits"),
    ):
        if ledger_arg not in run_args:
            fail(f"flow.run span lacks the '{ledger_arg}' ledger argument")
        if counters.get(counter) != run_args[ledger_arg]:
            fail(
                f"metrics counter {counter}={counters.get(counter)} disagrees "
                f"with the flow.run ledger arg {ledger_arg}={run_args[ledger_arg]}"
            )

    # --- AC sweeps stay on the reduced path.
    ac = {}
    for name in ("reduced_sweeps", "guard_fallbacks"):
        key = f"spice.ac.{name}"
        if key not in counters:
            fail(f"metrics snapshot lacks the counter {key}")
        ac[name] = counters[key]
    sweeps = ac["reduced_sweeps"] + ac["guard_fallbacks"]
    if sweeps == 0:
        fail("no AC sweep recorded (spice.ac.* counters are all zero)")
    fallback_share = ac["guard_fallbacks"] / sweeps
    if fallback_share > MAX_FALLBACK_SHARE:
        fail(
            f"spice.ac.guard_fallbacks={ac['guard_fallbacks']} is "
            f"{fallback_share:.1%} of {sweeps} AC sweeps "
            f"(limit {MAX_FALLBACK_SHARE:.0%})"
        )

    # --- process samples start DC from the nominal operating point.
    dc = {}
    for name in ("warm_starts", "warm_fallbacks"):
        key = f"spice.dc.{name}"
        if key not in counters:
            fail(f"metrics snapshot lacks the counter {key}")
        dc[name] = counters[key]
    if dc["warm_starts"] == 0:
        fail("no warm DC start recorded (spice.dc.warm_starts is zero)")
    warm_fallback_share = dc["warm_fallbacks"] / dc["warm_starts"]
    if warm_fallback_share > MAX_FALLBACK_SHARE:
        fail(
            f"spice.dc.warm_fallbacks={dc['warm_fallbacks']} is "
            f"{warm_fallback_share:.1%} of {dc['warm_starts']} warm DC starts "
            f"(limit {MAX_FALLBACK_SHARE:.0%})"
        )

    kernels = len(by_name["engine.kernel"])
    batches = len(by_name["engine.batch"])
    chunks = len(by_name["yield.chunk"])
    print(
        f"check_trace: OK: {len(events)} events, {batches} engine batches, "
        f"{kernels} kernel spans, {chunks} yield chunks, "
        f"{sweeps} AC sweeps ({ac['guard_fallbacks']} fallbacks), "
        f"{dc['warm_starts']} warm DC starts ({dc['warm_fallbacks']} fallbacks, "
        f"{counters.get('ota.nominal_op_misses', 0)} nominal-OP misses), "
        f"flow.run {run['dur'] / 1e3:.1f} ms"
    )


if __name__ == "__main__":
    main()
