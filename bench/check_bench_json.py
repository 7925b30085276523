#!/usr/bin/env python3
"""Bench-record gate: validates the smoke-run JSONs the CI benches emit.

The benches already exit non-zero on their own invariants; this step is the
second line of defense — it re-checks the *records* (schema + cross-field
invariants), so a bench that silently emitted an empty or malformed JSON
(or a refactor that broke a field the trajectory tracking relies on) fails
the build instead of uploading garbage. With --merge it also folds every
record into one bench-trajectory artifact so BENCH_*.json history can be
tracked across PRs from a single file.

Usage:
    check_bench_json.py [--merge OUT.json] RECORD.json [RECORD.json ...]

Each record is recognized by its file name (drain_failover, multi_frontend,
heterogeneous_cluster, failure_replay); unknown names only get the generic
schema checks (valid JSON object with a config block).
"""

import argparse
import json
import os
import sys

_FAILURES = []


def fail(record, message):
    _FAILURES.append(f"{record}: {message}")


def require(record, data, dotted_path, types=None):
    """Returns data[dotted.path], recording a failure when absent/mistyped."""
    node = data
    for key in dotted_path.split("."):
        if not isinstance(node, dict) or key not in node:
            fail(record, f"missing required field '{dotted_path}'")
            return None
        node = node[key]
    if types is not None and not isinstance(node, types):
        fail(record, f"field '{dotted_path}' has type {type(node).__name__}")
        return None
    return node


NUM = (int, float)


def check_samples(record, data, key="samples"):
    samples = require(record, data, key, list)
    if not samples:
        fail(record, f"'{key}' must be a non-empty list")
        return
    last_t = -1
    for i, sample in enumerate(samples):
        if not isinstance(sample, dict) or "t_ms" not in sample:
            fail(record, f"{key}[{i}] malformed")
            return
        if sample["t_ms"] < last_t:
            fail(record, f"{key}[{i}] time went backwards")
            return
        last_t = sample["t_ms"]


def check_drain_failover(record, data):
    check_samples(record, data)
    proto = require(record, data, "prototype", dict)
    if proto is None:
        return
    for key in ("requests", "responses_ok", "responses_bad", "transport_errors",
                "rehandoffs", "reassignments", "throughput_rps"):
        require(record, proto, key, NUM)
    if proto.get("responses_bad", 1) != 0 or proto.get("transport_errors", 1) != 0:
        fail(record, "client-visible errors during the rolling drain")
    if proto.get("responses_ok", 0) != proto.get("requests", -1):
        fail(record, "responses_ok != requests")
    if proto.get("rehandoffs", 0) == 0:
        fail(record, "no re-handoffs recorded during the drain")
    if proto.get("rehandoffs") != proto.get("reassignments"):
        fail(record, "prototype rehandoffs != dispatcher reassignments")
    drains = require(record, data, "drains", list)
    if drains is not None:
        if not drains:
            fail(record, "no drains recorded")
        for i, drain in enumerate(drains):
            if "recovery_ms" not in drain:
                fail(record, f"drains[{i}] missing recovery_ms")
            elif drain["recovery_ms"] is None or drain["recovery_ms"] < 0:
                fail(record, f"drains[{i}] never recovered (recovery_ms={drain['recovery_ms']})")
    slo = require(record, data, "slo", dict)
    if slo is not None:
        for key in ("p50_ms", "p95_ms", "p99_ms"):
            require(record, slo, key, NUM)
    sim = require(record, data, "sim", dict)
    if sim is not None:
        if sim.get("failovers", 1) != 0:
            fail(record, "sim drains must migrate, not drop (failovers != 0)")
        if sim.get("rehandoffs", 0) == 0 or sim.get("rehandoffs") != sim.get("reassignments"):
            fail(record, "sim migration counters inconsistent")


def check_multi_frontend(record, data):
    runs = require(record, data, "runs", list)
    baseline = require(record, data, "baseline", dict)
    audited = ([] if runs is None else list(runs)) + ([] if baseline is None else [baseline])
    if not audited:
        fail(record, "no runs to audit")
    for i, run in enumerate(audited):
        where = f"runs[{i}]"
        for key in ("frontends", "throughput_rps", "ownership_violations",
                    "epoch_regressions", "load_conserved"):
            if key not in run:
                fail(record, f"{where} missing '{key}'")
        # The mesh audit invariants: a connection owned by exactly one
        # dispatcher, monotone membership epochs, load fully drained.
        if run.get("ownership_violations", 1) != 0:
            fail(record, f"{where}: ownership audit violated")
        if run.get("epoch_regressions", 1) != 0:
            fail(record, f"{where}: membership epoch regressed")
        if run.get("load_conserved") is not True:
            fail(record, f"{where}: load not conserved")
    require(record, data, "speedup_2fe", NUM)


def check_frontend_scalability(record, data):
    runs = require(record, data, "runs", list)
    if not runs:
        fail(record, "no loop-sweep runs recorded")
        return
    for i, run in enumerate(runs):
        for key in ("frontends", "fe_loops", "backends", "throughput_rps",
                    "fe_utilization"):
            if key not in run:
                fail(record, f"runs[{i}] missing '{key}'")
        if run.get("throughput_rps", 0) <= 0:
            fail(record, f"runs[{i}] throughput not positive")
    # The reactor-per-core acceptance floor: past the single-loop knee
    # (24 back-ends, saturated baseline), 4 loops must beat 1 loop by a wide
    # margin. The bench itself asserts >= 2x; the gate re-checks a slightly
    # looser 1.5x so run-to-run model drift fails loudly here, not silently.
    baseline_util = require(record, data, "baseline_util_24be", NUM)
    speedup = require(record, data, "speedup_4loop_24be", NUM)
    if baseline_util is not None and speedup is not None:
        if baseline_util < 0.95:
            fail(record, f"single-loop baseline not saturated ({baseline_util:.2f})")
        elif speedup < 1.5:
            fail(record, f"4-loop speedup at 24 back-ends too low: {speedup:.2f}x < 1.5x")


def check_heterogeneous_cluster(record, data):
    regimes = require(record, data, "regimes", list)
    if not regimes:
        fail(record, "no regimes recorded")
        return
    for r, regime in enumerate(regimes):
        policies = regime.get("policies")
        if not policies:
            fail(record, f"regimes[{r}] has no policy rows")
            continue
        for p, policy in enumerate(policies):
            for key in ("policy", "throughput_rps", "normalized_load_imbalance_cv"):
                if key not in policy:
                    fail(record, f"regimes[{r}].policies[{p}] missing '{key}'")
            if policy.get("throughput_rps", 0) <= 0:
                fail(record, f"regimes[{r}].policies[{p}] throughput not positive")
    regression = require(record, data, "equal_weight_regression", dict)
    if regression is not None and regression.get("identical") is not True:
        fail(record, "equal-weight run diverged from the unweighted baseline")


def check_failure_replay(record, data):
    check_samples(record, data)
    kills = require(record, data, "kills", list)
    if kills is not None and not kills:
        fail(record, "no kills recorded — the storm never crashed a node")
    with_replay = require(record, data, "with_replay", dict)
    if with_replay is not None:
        for key in ("requests", "responses_ok", "lost_requests", "replays",
                    "replay_giveups", "failure_reassignments"):
            require(record, with_replay, key, NUM)
        # The tentpole acceptance: idempotent workloads lose ~nothing per
        # crash with replay on.
        if with_replay.get("lost_requests", 1) != 0:
            fail(record, "requests lost despite replay (idempotent workload)")
        if with_replay.get("replays", 0) == 0:
            fail(record, "storm triggered no replays")
        if with_replay.get("replay_giveups", 1) != 0:
            fail(record, "replay giveups on a pure-GET workload")
        if with_replay.get("replays") != with_replay.get("failure_reassignments"):
            fail(record, "fe replays != dispatcher failure_reassignments")
    without = data.get("without_replay")
    if isinstance(without, dict) and with_replay is not None:
        if without.get("lost_requests", 0) <= with_replay.get("lost_requests", 0):
            fail(record, "baseline (no replay) lost no more than the replay run")
    sim = require(record, data, "sim", dict)
    if sim is not None:
        # The shared sim/prototype invariant.
        if sim.get("lost_requests") != sim.get("non_idempotent_in_flight"):
            fail(record, "sim invariant lost == non_idempotent_in_flight violated")
        if sim.get("pure_idempotent_lost", 1) != 0:
            fail(record, "sim lost requests on a pure-idempotent workload")
        if sim.get("replayed_requests", 0) == 0:
            fail(record, "sim storm replayed nothing")


def check_tracing_overhead(record, data):
    record_ns = require(record, data, "record_ns", dict)
    if record_ns is not None:
        for key in ("disabled", "unsampled", "sampled"):
            value = require(record, record_ns, key, NUM)
            if value is not None and value < 0:
                fail(record, f"record_ns.{key} is negative")
    modes = require(record, data, "modes", dict)
    if modes is None:
        return
    for name in ("untraced", "sampled", "full"):
        mode = require(record, modes, name, dict)
        if mode is None:
            continue
        if require(record, mode, "throughput_rps", NUM) in (None, 0):
            fail(record, f"modes.{name} has no throughput")
        if mode.get("responses_bad", 1) != 0 or mode.get("transport_errors", 1) != 0:
            fail(record, f"modes.{name} had client-visible errors")
    # Tracing must actually have happened in the traced modes...
    if modes.get("sampled", {}).get("spans_recorded", 0) == 0:
        fail(record, "sampled mode recorded no spans")
    if modes.get("full", {}).get("spans_recorded", 0) == 0:
        fail(record, "full mode recorded no spans")
    # ...and the PR's acceptance bound: default sampling costs < 2% of
    # throughput (best-of-N per mode absorbs run-to-run noise).
    ratio = require(record, data, "sampled_over_untraced", NUM)
    if ratio is not None and ratio < 0.98:
        fail(record, f"sampled tracing overhead too high: {ratio:.3f}x < 0.98x untraced")


def check_telemetry_overhead(record, data):
    modes = require(record, data, "modes", dict)
    if modes is not None:
        for name in ("off", "on"):
            mode = require(record, modes, name, dict)
            if mode is None:
                continue
            if require(record, mode, "throughput_rps", NUM) in (None, 0):
                fail(record, f"modes.{name} has no throughput")
            if mode.get("responses_bad", 1) != 0 or mode.get("transport_errors", 1) != 0:
                fail(record, f"modes.{name} had client-visible errors")
        # The pipeline must actually have sampled in the "on" mode...
        if modes.get("on", {}).get("fe_samples", 0) == 0:
            fail(record, "telemetry-on mode recorded no samples")
    # ...within the acceptance bound: sampling + shipping costs < 2% of
    # throughput (best-of-N per mode absorbs run-to-run noise).
    ratio = require(record, data, "on_over_off", NUM)
    if ratio is not None and ratio < 0.98:
        fail(record, f"telemetry overhead too high: {ratio:.3f}x < 0.98x telemetry-off")
    watchdog = require(record, data, "watchdog", dict)
    if watchdog is None:
        return
    # The watchdog acceptance: zero false transitions on a steady cacheable
    # load, detection of induced back-end saturation within 5 sampling
    # intervals, and the health view must carry mirrored back-end telemetry
    # (proof the rows in the back-ends' kNodeStatus frames reached the FE).
    if watchdog.get("steady_transitions", 1) != 0:
        fail(record, "watchdog flapped during steady state")
    if watchdog.get("steady_status") != "ok":
        fail(record, f"steady-state status is '{watchdog.get('steady_status')}', not 'ok'")
    if watchdog.get("be_mirrored") is not True:
        fail(record, "front-end health view carries no back-end telemetry")
    detection = require(record, watchdog, "detection_intervals", NUM)
    if detection is not None:
        if detection < 0:
            fail(record, "watchdog never detected the saturated back-ends")
        elif detection > 5:
            fail(record, f"detection took {detection:.1f} sampling intervals (> 5)")


def check_connection_scale(record, data):
    target = require(record, data, "config.target_conns", NUM)
    sustained = require(record, data, "max_sustained_conns", NUM)
    # The headline acceptance: one FE process holds the whole requested sweep
    # concurrently (the CI smoke asks for 50k).
    if target is not None and sustained is not None and sustained < target:
        fail(record, f"sustained only {sustained} of {target} idle connections")
    sweep = require(record, data, "sweep", list)
    if not sweep:
        fail(record, "no sweep points recorded")
        return
    for i, point in enumerate(sweep):
        for key in ("connections", "sustained", "rss_bytes_per_conn", "leaked_conns"):
            if key not in point:
                fail(record, f"sweep[{i}] missing '{key}'")
        if point.get("sustained") is not True:
            fail(record, f"sweep[{i}]: {point.get('connections')} connections not sustained")
        if point.get("leaked_conns", 1) != 0:
            fail(record, f"sweep[{i}]: {point.get('leaked_conns')} connections leaked")
        # The connection-memory-diet ceiling: user-space RSS per idle conn.
        # Measured ~0.7-0.9 KB (FeConn + Conn buffers + epoll bookkeeping);
        # the 8 KB gate is allocator-noise headroom, not the target.
        if point.get("connections", 0) >= 5000 and \
                point.get("rss_bytes_per_conn", 1 << 30) > 8192:
            fail(record, f"sweep[{i}]: {point.get('rss_bytes_per_conn'):.0f} RSS bytes/conn "
                         "> 8192 ceiling")
    reap = require(record, data, "idle_reap", dict)
    if reap is not None:
        if reap.get("ok") is not True:
            fail(record, "idle-reap phase failed")
        if reap.get("idle_closes") != reap.get("conns"):
            fail(record, f"reaped {reap.get('idle_closes')} of {reap.get('conns')} idle conns")
        lateness = require(record, reap, "reap_lateness_ms", NUM)
        if lateness is not None and lateness > 2000:
            fail(record, f"idle reap ran {lateness:.0f} ms past the deadline (> 2000)")
    timers = require(record, data, "timers", dict)
    if timers is not None:
        if timers.get("pending_after_cancel") != 0:
            fail(record, f"{timers.get('pending_after_cancel')} of {timers.get('entries')} "
                         "timers still pending after cancelling all")
        # Per-op bounds at bench scale; the gates absorb CI-runner noise.
        for key, bound in (("arm_ns", 5000), ("cancel_ns", 2000)):
            value = require(record, timers, key, NUM)
            if value is not None and value > bound:
                fail(record, f"timers.{key} = {value:.0f} ns exceeds {bound}")
    open_loop = require(record, data, "open_loop", dict)
    if open_loop is not None:
        if open_loop.get("responses_ok") != open_loop.get("requests"):
            fail(record, "open-loop run dropped responses")
        if open_loop.get("responses_bad", 1) != 0 or open_loop.get("transport_errors", 1) != 0:
            fail(record, "open-loop run had client-visible errors")
        if open_loop.get("requests", 0) == 0:
            fail(record, "open-loop run served nothing")


CHECKERS = {
    "connection_scale": check_connection_scale,
    "drain_failover": check_drain_failover,
    "frontend_scalability": check_frontend_scalability,
    "multi_frontend": check_multi_frontend,
    "heterogeneous_cluster": check_heterogeneous_cluster,
    "failure_replay": check_failure_replay,
    "tracing_overhead": check_tracing_overhead,
    "telemetry_overhead": check_telemetry_overhead,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--merge", metavar="OUT",
                        help="write all validated records into one trajectory JSON")
    parser.add_argument("records", nargs="+", help="bench record JSONs to validate")
    args = parser.parse_args()

    merged = {}
    for path in args.records:
        name = os.path.splitext(os.path.basename(path))[0]
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            fail(name, f"unreadable record: {error}")
            continue
        if not isinstance(data, dict):
            fail(name, "top-level JSON is not an object")
            continue
        require(name, data, "config", dict)
        checker = CHECKERS.get(name)
        if checker is not None:
            checker(name, data)
        else:
            print(f"note: no specific checker for '{name}', generic checks only")
        merged[name] = data

    if args.merge and not _FAILURES:
        with open(args.merge, "w", encoding="utf-8") as handle:
            json.dump({"records": merged}, handle, indent=1, sort_keys=True)
        print(f"merged {len(merged)} records into {args.merge}")

    if _FAILURES:
        for failure in _FAILURES:
            print(f"FAIL {failure}", file=sys.stderr)
        return 1
    print(f"ok: {len(merged)} bench records pass schema + invariant checks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
