#!/usr/bin/env bash
# Federation smoke test: start a live 2-shard federated run with a fault
# plan that kills a worker inside shard 1 and an admission gate tight
# enough to force cross-shard bounces, then curl the merged /metrics
# mid-run and assert the per-shard label dimension is exposed and
# reconciles with the federation totals:
#
#   - rtsads_fed_shards reports the topology
#   - the per-shard rtsads_fed_routed_total{shard="i"} counters sum to
#     rtsads_fed_routed_total
#   - the shard-labelled rtsads_* families appear for every shard, and the
#     injected worker failure surfaces under shard="1" (not shard="0")
#   - /healthz reports the dead worker in the right shard
#
# A second section re-runs the federation with both shards OUT OF PROCESS:
# two `rtcluster -shard-listen` servers driven over the TCP wire protocol,
# one of which is SIGKILLed mid-run. The router must finish anyway with
# balanced books — the killed shard's backlog charged to LostToFailure on
# the router's own ledger.
#
# A third section exercises the full kill → restart → rejoin cycle: the
# router runs with -rejoin, shard 1's process is SIGKILLed mid-run and
# immediately restarted on the same address, and the run must finish with
# balanced books, report at least one completed rejoin, and the restarted
# process must serve its session to a clean end.
#
# The final accounting identities (Reconcile) are enforced by rtcluster
# itself: it exits non-zero when the federation books do not balance.
#
# Run from the repository root: ./scripts/federation_smoke.sh
set -euo pipefail

ADDR="127.0.0.1:8078"
WORKDIR="$(mktemp -d)"
OUT="$WORKDIR/stdout.log"
RUN_PID=""
SHARD0_PID=""
SHARD1_PID=""
SHARD1B_PID=""
trap 'kill "$RUN_PID" "$SHARD0_PID" "$SHARD1_PID" "$SHARD1B_PID" 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

fail() { echo "federation_smoke: FAIL: $*" >&2; exit 1; }

scrape() { curl -sf "http://$ADDR/metrics" 2>/dev/null || true; }

metric() { # metric <scrape-file> <sample> — print the sample's value, default 0
    awk -v m="$2" '$1 == m { print $2; found=1 } END { if (!found) print 0 }' "$1"
}

echo "federation_smoke: building rtcluster"
go build -o "$WORKDIR/rtcluster" ./cmd/rtcluster

# Two shards of two workers on a slow clock (scale 300) so the run stays
# observable; kill global worker 2 — shard 1's first worker — early, and
# cap each shard's ready queue so the burst forces bounces through the
# router (migrations where the sibling has room, honest sheds where not).
echo "federation_smoke: starting 2-shard faulted live run on $ADDR"
"$WORKDIR/rtcluster" -workers 4 -shards 2 -txns 200 -scale 300 -sf 4 \
    -placement affinity -faults "kill=2@1ms" \
    -admission reject -queue-cap 24 \
    -debug-addr "$ADDR" >"$OUT" 2>&1 &
RUN_PID=$!

# Wait for the endpoint, the kill landing in shard 1, and a consistent
# scrape in which the per-shard routed counters sum to the federation
# total (the counters move mid-run, so poll until one scrape balances).
deadline=$((SECONDS + 60))
ok_scrape=""
while [ "$SECONDS" -lt "$deadline" ]; do
    if ! kill -0 "$RUN_PID" 2>/dev/null; then
        cat "$OUT" >&2
        fail "run exited before the federation was observed mid-run"
    fi
    SNAP="$WORKDIR/metrics.txt"
    scrape >"$SNAP"
    routed=$(metric "$SNAP" rtsads_fed_routed_total)
    routed0=$(metric "$SNAP" 'rtsads_fed_routed_total{shard="0"}')
    routed1=$(metric "$SNAP" 'rtsads_fed_routed_total{shard="1"}')
    failures1=$(metric "$SNAP" 'rtsads_worker_failures_total{shard="1"}')
    bounced=$(metric "$SNAP" rtsads_fed_bounced_total)
    if [ "$routed" -ge 1 ] && [ $((routed0 + routed1)) -eq "$routed" ] &&
       [ "$failures1" -ge 1 ] && [ "$bounced" -ge 1 ]; then
        ok_scrape="$SNAP"
        break
    fi
    sleep 0.2
done
[ -n "$ok_scrape" ] || fail "no consistent scrape within 60s: routed=$routed shard0=$routed0 shard1=$routed1 failures(shard1)=$failures1 bounced=$bounced"
echo "federation_smoke: mid-run /metrics: routed=$routed (= $routed0 + $routed1), bounced=$bounced, shard-1 failures=$failures1"

[ "$(metric "$ok_scrape" rtsads_fed_shards)" -eq 2 ] || fail "rtsads_fed_shards != 2"
[ "$(metric "$ok_scrape" 'rtsads_worker_failures_total{shard="0"}')" -eq 0 ] ||
    fail "worker failure leaked into shard 0's namespace"
for shard in 0 1; do
    grep -q "rtsads_task_admitted_total{shard=\"$shard\"}" "$ok_scrape" ||
        fail "per-shard label dimension missing for shard $shard"
done

HEALTH=$(curl -sf "http://$ADDR/healthz")
echo "federation_smoke: mid-run /healthz: $HEALTH"
echo "$HEALTH" | grep -q '"status":"degraded"' || fail "/healthz not degraded after the kill: $HEALTH"
echo "$HEALTH" | python3 -c '
import json, sys
h = json.load(sys.stdin)
shards = {s["shard"]: s for s in h["shards"]}
assert shards[0]["alive"] == shards[0]["total"], "shard 0 lost a worker it should not have"
assert shards[1]["alive"] < shards[1]["total"], "shard 1 does not report the killed worker"
print("federation_smoke: healthz shard states check out")
' || fail "/healthz shard breakdown wrong: $HEALTH"

echo "federation_smoke: waiting for the run to finish"
wait "$RUN_PID" || { cat "$OUT" >&2; fail "run exited non-zero (federation accounting did not reconcile?)"; }
cat "$OUT"

grep -q 'topology: 2 shard(s) × 2 worker(s) (4 total)' "$OUT" || fail "topology banner missing"
grep -q 'routing: 200 routed' "$OUT" || fail "routing summary missing or wrong task count"
grep -q 'shard 1:' "$OUT" || fail "per-shard summaries missing"

echo "federation_smoke: --- out-of-process shards over TCP ---"
SHARD0_ADDR="127.0.0.1:8079"
SHARD1_ADDR="127.0.0.1:8080"
TCP_DEBUG="127.0.0.1:8081"
TCP_OUT="$WORKDIR/tcp_router.log"
SHARD0_OUT="$WORKDIR/shard0.log"
SHARD1_OUT="$WORKDIR/shard1.log"

"$WORKDIR/rtcluster" -shard-listen "$SHARD0_ADDR" >"$SHARD0_OUT" 2>&1 &
SHARD0_PID=$!
"$WORKDIR/rtcluster" -shard-listen "$SHARD1_ADDR" >"$SHARD1_OUT" 2>&1 &
SHARD1_PID=$!
deadline=$((SECONDS + 30))
until grep -q 'shard listening' "$SHARD0_OUT" && grep -q 'shard listening' "$SHARD1_OUT"; do
    [ "$SECONDS" -lt "$deadline" ] || fail "shard servers did not come up within 30s"
    sleep 0.2
done
echo "federation_smoke: shard servers up on $SHARD0_ADDR and $SHARD1_ADDR"

# The same workload routed over the wire; a slow clock (scale 400) keeps
# the backlog draining long enough for the kill to land mid-run. Fault
# plans only apply to in-process shards — here the fault IS the process
# death.
"$WORKDIR/rtcluster" -workers 4 \
    -shards "tcp://$SHARD0_ADDR,tcp://$SHARD1_ADDR" \
    -txns 200 -scale 400 -sf 4 -placement affinity \
    -admission reject -queue-cap 24 \
    -debug-addr "$TCP_DEBUG" >"$TCP_OUT" 2>&1 &
RUN_PID=$!

# Kill shard 1's process the moment the router has demonstrably routed
# traffic to it — guaranteed mid-run with a multi-second drain ahead.
deadline=$((SECONDS + 60))
killed=""
while [ "$SECONDS" -lt "$deadline" ]; do
    if ! kill -0 "$RUN_PID" 2>/dev/null; then
        cat "$TCP_OUT" >&2
        fail "TCP run finished before the shard kill could land"
    fi
    TSNAP="$WORKDIR/tcp_metrics.txt"
    curl -sf "http://$TCP_DEBUG/metrics" >"$TSNAP" 2>/dev/null || { sleep 0.2; continue; }
    routed1=$(metric "$TSNAP" 'rtsads_fed_routed_total{shard="1"}')
    if [ "$routed1" -ge 1 ]; then
        kill -9 "$SHARD1_PID"
        killed=yes
        echo "federation_smoke: SIGKILLed shard 1's process after $routed1 routed tasks"
        break
    fi
    sleep 0.2
done
[ -n "$killed" ] || fail "router never routed to shard 1 within 60s"

echo "federation_smoke: waiting for the TCP run to finish"
wait "$RUN_PID" || { cat "$TCP_OUT" >&2; fail "TCP run exited non-zero (dead-shard books did not reconcile?)"; }
RUN_PID=""
cat "$TCP_OUT"

grep -q 'topology: 2 shard(s) × 2 worker(s) (4 total)' "$TCP_OUT" || fail "TCP topology banner missing"
grep -q 'routing: 200 routed' "$TCP_OUT" || fail "TCP routing summary missing or wrong task count"
grep -Eq 'shard 1:.*lostToFailure=[1-9]' "$TCP_OUT" ||
    fail "killed shard reports no lost tasks; the death did not land mid-run"
grep -q 'shard session complete' "$SHARD0_OUT" || fail "surviving shard session did not complete cleanly"

echo "federation_smoke: --- kill, restart and rejoin a shard process ---"
RJ_SHARD0_ADDR="127.0.0.1:8082"
RJ_SHARD1_ADDR="127.0.0.1:8083"
RJ_DEBUG="127.0.0.1:8084"
RJ_OUT="$WORKDIR/rejoin_router.log"
RJ_SHARD0_OUT="$WORKDIR/rejoin_shard0.log"
RJ_SHARD1_OUT="$WORKDIR/rejoin_shard1.log"
RJ_SHARD1B_OUT="$WORKDIR/rejoin_shard1_restarted.log"

"$WORKDIR/rtcluster" -shard-listen "$RJ_SHARD0_ADDR" >"$RJ_SHARD0_OUT" 2>&1 &
SHARD0_PID=$!
"$WORKDIR/rtcluster" -shard-listen "$RJ_SHARD1_ADDR" >"$RJ_SHARD1_OUT" 2>&1 &
SHARD1_PID=$!
deadline=$((SECONDS + 30))
until grep -q 'shard listening' "$RJ_SHARD0_OUT" && grep -q 'shard listening' "$RJ_SHARD1_OUT"; do
    [ "$SECONDS" -lt "$deadline" ] || fail "rejoin-section shard servers did not come up within 30s"
    sleep 0.2
done
echo "federation_smoke: shard servers up on $RJ_SHARD0_ADDR and $RJ_SHARD1_ADDR"

"$WORKDIR/rtcluster" -workers 4 \
    -shards "tcp://$RJ_SHARD0_ADDR,tcp://$RJ_SHARD1_ADDR" \
    -rejoin \
    -txns 200 -scale 400 -sf 4 -placement affinity \
    -admission reject -queue-cap 24 \
    -debug-addr "$RJ_DEBUG" >"$RJ_OUT" 2>&1 &
RUN_PID=$!

# Kill shard 1's process once the router has routed to it, then restart a
# fresh -shard-listen on the same address: the router's capped jittered
# redial must find it and complete the rejoin handshake.
deadline=$((SECONDS + 60))
killed=""
while [ "$SECONDS" -lt "$deadline" ]; do
    if ! kill -0 "$RUN_PID" 2>/dev/null; then
        cat "$RJ_OUT" >&2
        fail "rejoin run finished before the shard kill could land"
    fi
    RSNAP="$WORKDIR/rejoin_metrics.txt"
    curl -sf "http://$RJ_DEBUG/metrics" >"$RSNAP" 2>/dev/null || { sleep 0.2; continue; }
    routed1=$(metric "$RSNAP" 'rtsads_fed_routed_total{shard="1"}')
    if [ "$routed1" -ge 1 ]; then
        kill -9 "$SHARD1_PID"
        echo "federation_smoke: SIGKILLed shard 1's process after $routed1 routed tasks; restarting it"
        "$WORKDIR/rtcluster" -shard-listen "$RJ_SHARD1_ADDR" >"$RJ_SHARD1B_OUT" 2>&1 &
        SHARD1B_PID=$!
        killed=yes
        break
    fi
    sleep 0.2
done
[ -n "$killed" ] || fail "rejoin-section router never routed to shard 1 within 60s"

# The rejoin must be observable mid-run: the counter ticks the moment the
# restarted process completes the rejoin hello.
deadline=$((SECONDS + 60))
rejoined=""
while [ "$SECONDS" -lt "$deadline" ]; do
    kill -0 "$RUN_PID" 2>/dev/null || break # finished: settle it via stdout below
    RSNAP="$WORKDIR/rejoin_metrics.txt"
    curl -sf "http://$RJ_DEBUG/metrics" >"$RSNAP" 2>/dev/null || { sleep 0.2; continue; }
    if [ "$(metric "$RSNAP" rtsads_fed_rejoins_total)" -ge 1 ]; then
        rejoined=yes
        echo "federation_smoke: mid-run /metrics reports the rejoin"
        break
    fi
    sleep 0.2
done

echo "federation_smoke: waiting for the rejoin run to finish"
wait "$RUN_PID" || { cat "$RJ_OUT" >&2; fail "rejoin run exited non-zero (books did not reconcile across the rejoin?)"; }
RUN_PID=""
cat "$RJ_OUT"

grep -q 'routing: 200 routed' "$RJ_OUT" || fail "rejoin-run routing summary missing or wrong task count"
grep -Eq 'recovery: .* [1-9][0-9]* shard rejoin' "$RJ_OUT" ||
    fail "router reports no completed rejoin after the restart"
[ -n "$rejoined" ] || grep -Eq 'recovery: .* [1-9][0-9]* shard rejoin' "$RJ_OUT" ||
    fail "rejoin observed neither mid-run nor in the final summary"
# The restarted process must have served the rejoined session to a clean
# seal — proof the router placed the shard back into rotation.
deadline=$((SECONDS + 30))
until grep -q 'shard session complete' "$RJ_SHARD1B_OUT"; do
    [ "$SECONDS" -lt "$deadline" ] || fail "restarted shard 1 process never completed its session"
    sleep 0.2
done
echo "federation_smoke: restarted shard 1 served its session to a clean end"

echo "federation_smoke: PASS"
