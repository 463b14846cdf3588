#!/usr/bin/env python3
"""CI perf-smoke gate over bench_micro's perf accounting.

Reads the dpar-bench-perf-v1 JSON that bench_micro appends to
BENCH_sim_core.json (or DPAR_BENCH_JSON) and applies these checks:

1. Machine-independent ratio gates: the flat schedulers must sustain at
   least MIN_DUTY_RATIO x the events/sec of their retained multimap
   references on the enqueue/next/completed duty cycle. NOOP is reported
   but not gated -- its reference is already a flat std::deque, not a
   multimap, so there is no node-based baseline to beat.
2. Machine-dependent absolute floor: every benchmark present in the
   checked-in baseline must reach (1 - MAX_REGRESSION) x its baseline
   events/sec. This catches large regressions on comparable hardware;
   the ratio gates above are the authoritative cross-machine signal.

On a fresh clone the baseline file may not exist yet; in that case this
script seeds it from the current run's rates and reports success, so the
first CI run establishes the floor instead of erroring.

Exit status is non-zero on any failure unless --warn-only is given
(sanitizer legs: instrumentation skews timings far beyond 30%).
"""

import argparse
import json
import os
import sys

MAX_REGRESSION = 0.30
MIN_DUTY_RATIO = 1.3
MIN_DECOMPOSE_SPEEDUP = 2.0
MIN_QUEUE_SPEEDUP = 1.5
# Figure/table bench sections are gated as whole-suite events/sec rates
# (total engine events / total wall): per-experiment walls at DPAR_SCALE=64
# are sub-second and noisy, the suite aggregate is stable — especially under
# DPAR_BENCH_REPEAT median timing. 5% guards the ladder queue's promise that
# the tiered structure never taxes the mainline simulation benches.
MAX_FIGURE_REGRESSION = 0.05
FIGURE_PREFIX = "figures/"
GATED_POLICIES = ("deadline", "cscan", "cfq", "anticipatory")
UNGATED_POLICIES = ("noop",)
# Benchmarks that must be present in every bench_micro run: a silently
# dropped benchmark would otherwise keep passing on its stale baseline row.
# Each entry is gated by the absolute floor below once the auto-seeded
# baseline picks it up (extend_baseline on the first run after landing).
REQUIRED_LABELS = ("BM_RepairThroughput",
                   "BM_EventQueueSweep/cancel_heavy_ladder",
                   "BM_EventQueueSweep/cancel_heavy_heap",
                   "BM_EventQueueTimerChurn/ladder",
                   "BM_EventQueueTimerChurn/heap")


def label_config(label):
    """Human description of the configuration behind a benchmark label, so
    a gated regression names the setup that produced it instead of just an
    aggregate events/sec number."""
    if label.startswith("BM_RepairThroughput"):
        return ("rf=3 repair after a 5-40 ms server crash, 400 MB/s repair "
                "cap, 32 MB foreground demo job")
    if label.startswith("BM_EventQueueSweep/"):
        kind = label.rsplit("_", 1)[-1]
        return (f"{kind} queue: 32k standing timeout timers, "
                "64 rounds of 512 cancel+re-arm churn")
    if label.startswith("BM_EventQueueTimerChurn/"):
        kind = label.rsplit("/", 1)[-1]
        return (f"{kind} queue: 4096 self-re-arming timers, "
                "64k fired events")
    if label.startswith(FIGURE_PREFIX):
        return ("whole figure/table bench suite at DPAR_SCALE: total engine "
                "events / total wall seconds")
    return None


def load_micro(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "dpar-bench-perf-v1":
        raise SystemExit(f"{path}: unexpected schema {doc.get('schema')!r}")
    micro = doc.get("benches", {}).get("bench_micro")
    if micro is None:
        raise SystemExit(f"{path}: no bench_micro section")
    return {e["label"]: float(e["value"]) for e in micro["experiments"]}


def load_figure_rates(path):
    """Aggregate events/sec per figure/table bench section, keyed
    'figures/<section>'. Sections the run did not produce simply yield no
    label (the release leg runs every bench before this gate; local partial
    runs just gate what they ran)."""
    rates = {}
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError):
        return rates
    for name, section in doc.get("benches", {}).items():
        if not name.startswith(("bench_fig", "bench_table")):
            continue
        events = sum(int(e.get("events", 0)) for e in section["experiments"])
        wall = sum(float(e.get("wall_s", 0.0)) for e in section["experiments"])
        if events > 0 and wall > 0:
            rates[FIGURE_PREFIX + name] = events / wall
    return rates


def gate_queue(current, failures):
    """Gate the tiered event queue against its frozen heap oracle. The
    cancel-heavy sweep is the workload the ladder exists for (O(1)
    generation-kill cancels, no sift/compaction storms) and must show >=
    MIN_QUEUE_SPEEDUP; the steady-state re-arm churn is printed for trend
    visibility only — both queue kinds are near-optimal there."""
    print("== tiered event queue: ladder vs heap oracle ==")
    lad = current.get("BM_EventQueueSweep/cancel_heavy_ladder")
    heap = current.get("BM_EventQueueSweep/cancel_heavy_heap")
    if lad is None or heap is None or heap <= 0:
        failures.append("BM_EventQueueSweep ladder/heap pair missing")
    else:
        r = lad / heap
        ok = r >= MIN_QUEUE_SPEEDUP
        print(f"  cancel-heavy ladder/heap {r:6.2f}x  "
              f"{'ok' if ok else f'FAIL (< {MIN_QUEUE_SPEEDUP}x)'}")
        if not ok:
            failures.append(
                f"BM_EventQueueSweep: ladder only {r:.2f}x the heap oracle "
                f"on the cancel-heavy sweep (limit {MIN_QUEUE_SPEEDUP}x)")
    churn_l = current.get("BM_EventQueueTimerChurn/ladder")
    churn_h = current.get("BM_EventQueueTimerChurn/heap")
    if churn_l is not None and churn_h is not None and churn_h > 0:
        print(f"  re-arm churn ladder/heap {churn_l / churn_h:6.2f}x  "
              "(tracked, not gated)")


def report_faults(path):
    """Warn-only tracking of the fault sweep: print DualPar-vs-vanilla
    throughput per fault level so trends are visible in CI logs, but never
    gate on them -- faulted throughput is dominated by the injected plan, not
    by code performance."""
    try:
        with open(path) as f:
            doc = json.load(f)
        faults = doc.get("benches", {}).get("bench_faults")
    except (OSError, ValueError):
        faults = None
    print("== bench_faults throughput (MB/s; tracked, never gated) ==")
    if faults is None:
        print("  (no bench_faults section in this run)")
        return
    for e in faults["experiments"]:
        print(f"  {e['label']:<20} {float(e['value']):10.2f}")


def gate_scaleout(path, failures, required):
    """Gate the bench_scaleout section: the closed-form striping
    decomposition must beat the frozen per-chunk reference loop by
    MIN_DECOMPOSE_SPEEDUP on wall time at every swept server count
    (machine-independent -- both paths run the same segment stream in the
    same process). Sweep throughputs are printed for trend visibility but
    never gated: they are deterministic simulator outputs, not timings."""
    try:
        with open(path) as f:
            doc = json.load(f)
        scaleout = doc.get("benches", {}).get("bench_scaleout")
    except (OSError, ValueError):
        scaleout = None
    print("== bench_scaleout ==")
    if scaleout is None:
        print("  (no bench_scaleout section in this run)")
        if required:
            failures.append("bench_scaleout section missing (--require-scaleout)")
        return
    entries = {e["label"]: e for e in scaleout["experiments"]}
    closed = {l.rsplit("=", 1)[1]: e for l, e in entries.items()
              if l.startswith("decompose/closed")}
    ref = {l.rsplit("=", 1)[1]: e for l, e in entries.items()
           if l.startswith("decompose/ref")}
    if not closed or closed.keys() != ref.keys():
        failures.append("bench_scaleout: decompose closed/ref pairs incomplete")
    for servers in sorted(closed, key=int):
        if servers not in ref:
            continue
        cw = float(closed[servers]["wall_s"])
        rw = float(ref[servers]["wall_s"])
        if cw <= 0:
            failures.append(f"decompose servers={servers}: zero closed wall time")
            continue
        speedup = rw / cw
        ok = speedup >= MIN_DECOMPOSE_SPEEDUP
        print(f"  decompose servers={servers:<4} closed/ref speedup "
              f"{speedup:6.1f}x  {'ok' if ok else f'FAIL (< {MIN_DECOMPOSE_SPEEDUP}x)'}")
        if not ok:
            failures.append(
                f"decompose servers={servers}: closed form only {speedup:.2f}x "
                f"faster than reference (limit {MIN_DECOMPOSE_SPEEDUP}x)")
    rss = entries.get("peak_rss_mb")
    tracked = [(l, e) for l, e in entries.items()
               if l.startswith(("weak/", "strong/"))]
    for label, e in tracked:
        print(f"  {label:<45} {float(e['value']):10.1f} MB/s "
              f"({e['events']} events; tracked, never gated)")
    if rss is not None:
        print(f"  peak RSS {float(rss['value']):.1f} MB (tracked, never gated)")


def seed_baseline(path, current):
    """First run on a fresh clone: write the baseline from the current
    rates so later runs have an absolute floor to compare against."""
    rates = dict(sorted(current.items()))
    with open(path, "w") as f:
        json.dump(rates, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"perf-smoke: baseline {path!r} was missing; seeded it with "
          f"{len(rates)} rates from this run (no gate applied)")


def extend_baseline(path, baseline, current):
    """A new benchmark (e.g. BM_RepairThroughput on its first run after
    landing) has no checked-in floor yet: append its current rate to the
    baseline file so the *next* run gates it. The current run is not gated
    against the rate it just produced."""
    fresh = {label: value for label, value in sorted(current.items())
             if label not in baseline}
    if not fresh:
        return
    merged = dict(baseline)
    merged.update(fresh)
    with open(path, "w") as f:
        json.dump(merged, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"perf-smoke: added {len(fresh)} new benchmark(s) to {path!r}: "
          + ", ".join(sorted(fresh)))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--current", default="BENCH_sim_core.json",
                    help="perf JSON written by a fresh bench_micro run")
    ap.add_argument("--baseline", default="bench/perf_baseline.json",
                    help="checked-in {label: events_per_sec} baseline")
    ap.add_argument("--warn-only", action="store_true",
                    help="report failures but exit 0 (sanitizer legs)")
    ap.add_argument("--require-scaleout", action="store_true",
                    help="fail if the perf JSON has no bench_scaleout section")
    args = ap.parse_args()

    try:
        current = load_micro(args.current)
    except OSError as e:
        raise SystemExit(
            f"perf_smoke: cannot read current perf JSON {args.current!r}: "
            f"{e.strerror or e} — run build/bench/bench_micro first (it writes "
            "the dpar-bench-perf-v1 report this gate consumes)")
    # Figure/table suite rates join the same auto-seeded baseline flow as the
    # micros, but with the tighter MAX_FIGURE_REGRESSION floor below.
    current.update(load_figure_rates(args.current))
    if os.path.exists(args.baseline):
        try:
            with open(args.baseline) as f:
                baseline = json.load(f)
        except OSError as e:
            raise SystemExit(
                f"perf_smoke: baseline file {args.baseline!r} unreadable "
                f"({e.strerror or e})")
        except ValueError as e:
            raise SystemExit(
                f"perf_smoke: baseline file {args.baseline!r} is not valid JSON: {e}")
    else:
        seed_baseline(args.baseline, current)
        baseline = {}
    extend_baseline(args.baseline, baseline, current)

    failures = []

    print("== required benchmarks present ==")
    for label in REQUIRED_LABELS:
        present = label in current
        print(f"  {label:<45} {'ok' if present else 'MISSING'}")
        if not present:
            failures.append(
                f"{label}: required benchmark absent from this run "
                "(was it filtered out or did registration break?)")

    def ratio(policy):
        flat = current.get(f"BM_SchedDutyCycle/{policy}_flat")
        ref = current.get(f"BM_SchedDutyCycle/{policy}_ref")
        if flat is None or ref is None or ref <= 0:
            return None
        return flat / ref

    print("== scheduler duty-cycle: flat vs reference ==")
    for policy in GATED_POLICIES + UNGATED_POLICIES:
        r = ratio(policy)
        gated = policy in GATED_POLICIES
        if r is None:
            if gated:
                failures.append(f"duty-cycle pair missing for {policy}")
            continue
        verdict = ""
        if gated:
            ok = r >= MIN_DUTY_RATIO
            verdict = "ok" if ok else f"FAIL (< {MIN_DUTY_RATIO}x)"
            if not ok:
                failures.append(
                    f"{policy}: flat/ref duty-cycle {r:.2f}x < {MIN_DUTY_RATIO}x")
        else:
            verdict = "tracked, not gated"
        print(f"  {policy:<13} {r:6.2f}x  {verdict}")

    print("== striping decomposition: closed form vs reference loop ==")
    dec = current.get("BM_StripeDecompose")
    dec_ref = current.get("BM_StripeDecomposeRef")
    if dec is None or dec_ref is None or dec_ref <= 0:
        failures.append("BM_StripeDecompose/BM_StripeDecomposeRef pair missing")
    else:
        r = dec / dec_ref
        ok = r >= MIN_DECOMPOSE_SPEEDUP
        print(f"  closed/ref   {r:6.2f}x  "
              f"{'ok' if ok else f'FAIL (< {MIN_DECOMPOSE_SPEEDUP}x)'}")
        if not ok:
            failures.append(
                f"BM_StripeDecompose: {r:.2f}x vs reference "
                f"(limit {MIN_DECOMPOSE_SPEEDUP}x)")

    gate_queue(current, failures)
    report_faults(args.current)
    gate_scaleout(args.current, failures, args.require_scaleout)

    print("== absolute events/sec vs checked-in baseline ==")
    for label in sorted(baseline):
        base = float(baseline[label])
        if base <= 0:
            print(f"  {label:<45} skipped (no baseline rate)")
            continue
        cur = current.get(label)
        if cur is None:
            if label.startswith(FIGURE_PREFIX):
                # A figure section absent from this run (filtered local
                # invocation) is not an error; the release leg always runs
                # the full suite.
                print(f"  {label:<45} skipped (section not in this run)")
                continue
            failures.append(f"{label}: present in baseline, missing from run")
            print(f"  {label:<45} MISSING")
            continue
        limit = (MAX_FIGURE_REGRESSION if label.startswith(FIGURE_PREFIX)
                 else MAX_REGRESSION)
        delta = cur / base - 1.0
        bad = cur < base * (1.0 - limit)
        if bad:
            cfg = label_config(label)
            failures.append(
                f"{label}: {cur:.3g} ev/s is {-delta:.0%} below baseline "
                f"{base:.3g} (limit {limit:.0%})"
                + (f" [{cfg}]" if cfg else ""))
        print(f"  {label:<45} {delta:+7.1%}{'  FAIL' if bad else ''}")

    if failures:
        print(f"\nperf-smoke: {len(failures)} failure(s)")
        for f in failures:
            print(f"  - {f}")
        if args.warn_only:
            print("perf-smoke: --warn-only set; not failing the build")
            return 0
        return 1
    print("\nperf-smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
