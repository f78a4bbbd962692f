#!/usr/bin/env python3
"""Validate BENCH_hotpath.json and gate on deterministic-field drift.

Two layers:

1. **Schema / invariant checks** — every scenario, recovery sweep point
   and fault scenario carries its required fields and its correctness
   oracles hold (a perf number from a broken run is worthless).

2. **Drift gate** (with ``--baseline``) — the simulation is a pure
   function of its seeds, so the *deterministic* fields (ops, msgs,
   events, wire byte sums, grants, fault counters, simulated-time
   latency quantiles — everything except wall-clock) must be identical
   to the committed baseline. Any drift means the protocol's behaviour
   changed: either a regression, or an intentional change that must be
   accompanied by a regenerated baseline in the same commit.

Usage:
    python3 scripts/check_bench.py BENCH_hotpath.json [--baseline FILE]
"""

import argparse
import json
import sys

# Wall-clock-dependent fields, excluded from the drift comparison.
NONDETERMINISTIC = {
    "wall_ms", "write_ms", "open_ms", "rebuild_ms", "recover_ms",
    "ops_per_sec", "msgs_per_sec", "events_per_sec",
    "replay_entries_per_sec",
    # The whole net section is measured over real sockets and wall time.
    "net",
}

SCENARIO_REQUIRED = [
    "name", "peers", "replication", "workload", "sim_secs", "wall_ms",
    "ops", "ops_per_sec", "msgs", "msgs_per_sec",
    "events", "events_per_sec", "stamp_p50_ms", "stamp_p99_ms",
    "wire_bytes", "wire_bytes_per_class",
    "continuity", "converged",
]

SWEEP_REQUIRED = [
    "entries", "checkpoint_every", "bytes", "segments",
    "write_ms", "open_ms", "rebuild_ms",
    "replay_entries_per_sec", "verified",
]

E2E_REQUIRED = [
    "peers", "grants_before_crash", "grants_total",
    "restart_entries", "recover_ms", "continuity", "converged",
]

NET_PHASE_REQUIRED = [
    "offered_rate", "secs", "achieved_rate", "send_p50_us", "send_p99_us",
    "recv_p50_us", "recv_p99_us", "backpressure_stalls", "slo_ok",
]

# The net section's saturation gate, msgs/s: twice the threaded
# one-write-per-frame TCP transport's last committed figure (375 961),
# which the runtime replaced.
SATURATION_FLOOR = 750_000

FAULT_REQUIRED = [
    "name", "peers", "sim_secs", "wall_ms", "edits", "grants", "msgs",
    "events", "crashes", "restarts", "faults_dropped",
    "faults_duplicated", "faults_reordered", "faults_cut",
    "continuity", "total_order", "converged",
    "equivocation_free", "epoch_monotonic", "pass",
]


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def replication_bytes(sc):
    """Wire bytes spent synchronizing replicas: the record push itself
    plus the Merkle descent chatter (root/diff/nodes/ack)."""
    return sum(v for k, v in sc["wire_bytes_per_class"].items()
               if k == "chord.replicate" or k.startswith("chord.sync."))


# Replication-byte budgets per scenario row, bytes: 50% of the last
# committed figure of the retired full-push replica sync (it re-sent the
# whole primary store on every change) on the same seed and workload.
REPLICATION_BUDGETS = {
    "quick_ring8_n3_collab": 105_906,
    "ring16_n3_collab": 639_956,
    "ring48_n3_collab": 1_185_015,
}


def check_replication_budgets(scenarios):
    """Hold each budgeted row's replication-class bytes under its fixed
    budget; a run must carry at least one budgeted row."""
    budgeted = [sc for sc in scenarios if sc["name"] in REPLICATION_BUDGETS]
    if not budgeted:
        fail("no scenario row has a replication budget")
    for sc in budgeted:
        budget = REPLICATION_BUDGETS[sc["name"]]
        rb = replication_bytes(sc)
        if rb > budget:
            fail(f"{sc['name']}: replication bytes {rb} exceed the "
                 f"budget {budget}")
        print(f"replication budget OK: {sc['name']} {rb} <= {budget} "
              f"({rb / budget:.0%} of budget)")


def check_schema(data):
    if data.get("schema") != "p2p-ltr/bench-hotpath/v1":
        fail(f"unexpected schema tag {data.get('schema')}")
    if not data.get("scenarios"):
        fail("no perf scenarios recorded")
    for sc in data["scenarios"]:
        for key in SCENARIO_REQUIRED:
            if key not in sc:
                fail(f"{sc.get('name')}: missing {key}")
        if not (sc["continuity"] and sc["converged"]):
            fail(f"{sc['name']}: correctness oracle failed")
        if sc["wire_bytes"] <= 0:
            fail(f"{sc['name']}: no bytes metered")
        per_class = sc["wire_bytes_per_class"]
        if not per_class or sum(per_class.values()) != sc["wire_bytes"]:
            fail(f"{sc['name']}: per-class bytes do not sum to the total")
    if "totals" not in data or "events_per_sec" not in data["totals"]:
        fail("missing totals")
    if data["totals"]["wire_bytes"] <= 0:
        fail("no wire bytes in totals")
    check_replication_budgets(data["scenarios"])

    rec = data.get("recovery")
    if rec is None:
        fail("missing recovery section (run exp_bench)")
    if not rec["sweep"]:
        fail("no recovery sweep points")
    for pt in rec["sweep"]:
        for key in SWEEP_REQUIRED:
            if key not in pt:
                fail(f"recovery sweep point missing {key}")
        if pt["verified"] is not True:
            fail(f"unverified recovery sweep point: {pt}")
    e2e = rec["e2e"]
    for key in E2E_REQUIRED:
        if key not in e2e:
            fail(f"recovery e2e missing {key}")
    if not (e2e["continuity"] and e2e["converged"]):
        fail(f"recovery e2e invariants failed: {e2e}")
    if e2e["restart_entries"] <= 0:
        fail("recovery e2e replayed no journal entries")

    faults = data.get("faults")
    if faults is None:
        fail("missing faults section (run exp_bench)")
    if len(faults["scenarios"]) < 6:
        fail(f"fault matrix shrank: {len(faults['scenarios'])} scenarios")
    for sc in faults["scenarios"]:
        for key in FAULT_REQUIRED:
            if key not in sc:
                fail(f"fault scenario {sc.get('name')}: missing {key}")
        if not sc["pass"]:
            fail(f"fault scenario {sc['name']}: invariant violated")
    if faults.get("all_pass") is not True:
        fail("fault matrix all_pass is not true")

    print("schema OK:",
          ", ".join(s["name"] for s in data["scenarios"]),
          f"+ recovery ({len(rec['sweep'])} sweep points)",
          f"+ faults ({len(faults['scenarios'])} scenarios)")


def check_net(data):
    """Validate the ``net`` section: the runtime row exists, every phase
    carries its fields, the runtime met its SLOs, and it sustained at
    least SATURATION_FLOOR msgs/s."""
    net = data.get("net")
    if net is None:
        fail("missing net section (run exp_bench)")
    if net.get("peers", 0) < 2 or not net.get("frame_mix_bytes"):
        fail(f"net: implausible topology {net.get('peers')} peers, "
             f"mix {net.get('frame_mix_bytes')}")
    rows = {t.get("transport"): t for t in net.get("transports", [])}
    row = rows.get("runtime")
    if row is None:
        fail("net: missing transport row 'runtime'")
    if not row.get("phases"):
        fail("net: runtime has no rated phases")
    for ph in row["phases"]:
        for key in NET_PHASE_REQUIRED:
            if key not in ph:
                fail(f"net: runtime phase missing {key}")
        if ph["slo_ok"] is not True:
            fail(f"net: runtime missed its SLO at "
                 f"{ph['offered_rate']} msgs/s: {ph}")
    if net.get("slo_ok") is not True:
        fail("net: runtime SLO verdict is not true")
    saturation = row.get("saturation_msgs_per_sec", 0)
    if saturation < SATURATION_FLOOR:
        fail(f"net: runtime saturation {saturation:.0f} msgs/s below the "
             f"{SATURATION_FLOOR} floor")
    print(f"net OK: runtime {saturation:.0f} msgs/s "
          f"(floor {SATURATION_FLOOR}), SLOs met")


def det_view(obj):
    """Strip wall-clock-dependent fields, recursively."""
    if isinstance(obj, dict):
        return {k: det_view(v) for k, v in obj.items()
                if k not in NONDETERMINISTIC}
    if isinstance(obj, list):
        return [det_view(v) for v in obj]
    return obj


def diff(path, a, b, out):
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            diff(f"{path}.{k}", a.get(k), b.get(k), out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{path}: length {len(b)} != baseline {len(a)}")
        for i, (x, y) in enumerate(zip(a, b)):
            diff(f"{path}[{i}]", x, y, out)
    elif a != b:
        out.append(f"{path}: {b!r} != baseline {a!r}")


def check_drift(data, baseline):
    drifts = []
    diff("", det_view(baseline), det_view(data), drifts)
    if drifts:
        print("Deterministic bench fields drifted from the committed "
              "baseline:", file=sys.stderr)
        for d in drifts[:40]:
            print(f"  {d}", file=sys.stderr)
        if len(drifts) > 40:
            print(f"  … and {len(drifts) - 40} more", file=sys.stderr)
        print("\nIf the change is intentional, regenerate the baseline "
              "(see EXPERIMENTS.md) and commit it with the change.",
              file=sys.stderr)
        sys.exit(1)
    print("drift gate OK: deterministic fields match the baseline")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("bench", help="freshly generated BENCH_hotpath.json")
    ap.add_argument("--baseline",
                    help="committed baseline to compare deterministic "
                         "fields against")
    args = ap.parse_args()
    with open(args.bench) as f:
        data = json.load(f)
    check_schema(data)
    check_net(data)
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)
        check_drift(data, baseline)


if __name__ == "__main__":
    main()
