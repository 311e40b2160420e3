#!/usr/bin/env bash
# Tier-1 CI: plain build + full test suite, then an ASan+UBSan build of
# the same suite, then the event-kernel and graph-generation
# microbenches as smoke tests.
# Run from anywhere; operates on the repo root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

echo "==> tier-1 build (-Wall -Wextra -Werror)"
cmake -S "$root" -B "$root/build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$root/build" -j "$jobs"

echo "==> tier-1 tests"
ctest --test-dir "$root/build" --output-on-failure -j "$jobs"

echo "==> sanitizer build (ASan+UBSan)"
cmake -S "$root" -B "$root/build-asan" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DENABLE_SANITIZERS=ON
cmake --build "$root/build-asan" -j "$jobs"

echo "==> sanitizer tests"
# Leak checking needs ptrace, which most CI containers deny; the
# sanitizers' aborts on ASan/UBSan findings are what we are after.
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --test-dir "$root/build-asan" --output-on-failure -j "$jobs"

echo "==> event-kernel microbench (smoke)"
# The kernel's schedule() must not allocate in steady state
# (docs/sim_kernel.md): every schedule-heavy row of the kernel under
# test has to report zero allocations per schedule.
micro_json="$("$root/build/bench/micro_eventqueue" \
    --benchmark_min_time=0.05 --benchmark_format=json)"
echo "$micro_json"
python3 - "$micro_json" <<'EOF'
import json, sys
rows = [b for b in json.loads(sys.argv[1])["benchmarks"]
        if b["name"].startswith("BM_ScheduleHeavy<dimmlink::EventQueue>")]
assert rows, "no BM_ScheduleHeavy<dimmlink::EventQueue> rows"
for b in rows:
    allocs = b.get("steady_allocs_per_sched")
    assert allocs == 0, (b["name"], "steady_allocs_per_sched", allocs)
print(f"    alloc-free OK: {len(rows)} schedule-heavy row(s) at 0")
EOF

echo "==> graph-generation and NoC microbenches (smoke)"
# R-MAT generation at scales 15 and 17, beyond what perfbench builds,
# and random traffic through 4- and 8-node networks.
"$root/build/bench/micro_components" \
    --benchmark_filter='GraphRmat|NetworkRandomTraffic' \
    --benchmark_min_time=0.05

echo "==> end-to-end run from the checked-in config"
"$root/build/examples/example_simulate" \
    --config "$root/configs/default.json" \
    -p system.numDimms=4 -p system.numChannels=2 \
    -p system.dramScheduler=FCFS \
    --workload stream --scale 4 --rounds 1

echo "==> malformed CLI numbers are usage errors (exit 2)"
for bad in abc -1; do
    rc=0
    "$root/build/examples/example_simulate" --workload pagerank \
        --scale "$bad" > /dev/null 2>&1 || rc=$?
    if [ "$rc" != 2 ]; then
        echo "--scale $bad exited $rc, want 2"
        exit 1
    fi
done
echo "    cli OK: --scale abc and --scale -1 rejected"

echo "==> bad config values fail fast (exit 1, naming the key)"
# validate() must reject each case before the run starts: a router
# buffer smaller than one packet (two on a cyclic topology) would
# otherwise spin until killed, and an unknown name lists the valid
# ones.
bad_config() { # <stderr pattern> <example_simulate args...>
    local want="$1" rc=0 err
    shift
    err="$(timeout 20 "$root/build/examples/example_simulate" "$@" \
        2>&1 > /dev/null)" || rc=$?
    if [ "$rc" != 1 ] || ! grep -q -- "$want" <<<"$err"; then
        echo "$* exited $rc, want 1 naming '$want'; stderr: $err"
        exit 1
    fi
}
bad_pagerank=(--preset 4D-2C --workload pagerank --scale 8 --rounds 1
    --broadcast)
bad_config link.bufferFlits "${bad_pagerank[@]}" -p link.bufferFlits=8
bad_config link.bufferFlits "${bad_pagerank[@]}" \
    -p link.topology=ring -p link.bufferFlits=33
bad_config "FCFS, FRFCFS" "${bad_pagerank[@]}" \
    -p system.dramScheduler=LIFO
bad_config "direct, switch" --config "$root/configs/rack_2host.json" \
    -p rack.fabric=infiniband --workload kv
bad_config "ber, degrade, none, stuck" "${bad_pagerank[@]}" \
    -p faults.model=burst
bad_config "Base, Base+Itrpt, P-P, P-P+Itrpt" "${bad_pagerank[@]}" \
    -p system.pollingMode=Itrpt
echo "    config OK: short buffers and unknown names rejected"

echo "==> trace smoke: emitted Chrome-trace JSON is valid and complete"
# A traced run must produce Perfetto-openable JSON with spans from
# every acceptance layer (DRAM, NoC, DLL, NMP cores) plus a non-empty
# counter time series from the periodic sampler.
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
"$root/build/examples/example_simulate" \
    --config "$root/configs/default.json" \
    -p system.numDimms=4 -p system.numChannels=2 \
    --workload bfs --scale 4 --rounds 1 \
    --trace-out "$trace_dir/trace.json" \
    --sample-interval-ps 1000000 \
    --sample-out "$trace_dir/samples.csv" > "$trace_dir/traced.out"
python3 - "$trace_dir/trace.json" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))
assert isinstance(events, list) and events, "empty trace"
cats = {e.get("cat") for e in events}
for want in ("dram", "noc", "dll", "core"):
    assert want in cats, f"no '{want}' events (got {sorted(cats)})"
pids = {e["pid"] for e in events if "pid" in e}
assert pids, "no pids"
names = {e["args"]["name"] for e in events
         if e.get("ph") == "M" and e.get("name") == "process_name"}
assert any(n.startswith("dimm") for n in names), names
EOF
sample_rows="$(tail -n +2 "$trace_dir/samples.csv" | wc -l)"
if [ "$sample_rows" -lt 1 ]; then
    echo "sampler emitted no rows"; exit 1
fi
echo "    trace OK: all layers present, $sample_rows sample rows"

echo "==> zero-perturbation guard: tracing off matches untraced output"
# The instrumented binary with obs.trace=off must print byte-identical
# stdout (config header, metrics, stats JSON) to a plain run.
"$root/build/examples/example_simulate" \
    --config "$root/configs/default.json" \
    -p system.numDimms=4 -p system.numChannels=2 \
    --workload bfs --scale 4 --rounds 1 --json \
    -p obs.trace=false > "$trace_dir/off.out"
"$root/build/examples/example_simulate" \
    --config "$root/configs/default.json" \
    -p system.numDimms=4 -p system.numChannels=2 \
    --workload bfs --scale 4 --rounds 1 --json > "$trace_dir/plain.out"
if ! cmp -s "$trace_dir/off.out" "$trace_dir/plain.out"; then
    echo "tracing-off run diverged from plain run"
    diff "$trace_dir/off.out" "$trace_dir/plain.out" | head
    exit 1
fi
echo "    guard OK: byte-identical stats output"

echo "==> polling modes: all four of Table III run to verification"
# Each mode drives the default machine's PageRank to verification
# (example_simulate exits nonzero otherwise); only the two ALERT_N
# modes may raise interrupts, and both of them must.
for mode in Base Base+Itrpt P-P P-P+Itrpt; do
    "$root/build/examples/example_simulate" \
        --config "$root/configs/default.json" \
        -p system.pollingMode="$mode" \
        --workload pagerank --scale 8 --rounds 1 --json \
        > "$trace_dir/poll.out"
    python3 - "$trace_dir/poll.out" "$mode" <<'EOF'
import json, sys
text = open(sys.argv[1]).read()
mode = sys.argv[2]
stats = json.loads(text[text.index('{\n  "config"'):])
interrupts = stats["host.polling"]["scalars"].get("interrupts", 0)
if mode.endswith("+Itrpt"):
    assert interrupts > 0, f"{mode}: no interrupts raised"
else:
    assert interrupts == 0, f"{mode}: {interrupts} interrupts raised"
EOF
    echo "    [$mode] OK: verified, interrupts as the mode says"
done

echo "==> DRAM standards matrix"
# Every DRAM timing preset must push the whole workload matrix to
# completion and verification (example_simulate exits nonzero when a
# kernel fails to verify), exercising each family's own constraint
# set: DDR5 sub-channels + write CRC, LPDDR5X groupless / windowless
# decode + REFpb, HBM2 pseudo-channels (docs/dram_timing.md).
for grade in DDR4_2400 DDR4_3200 DDR5_4800 DDR5_6400 HBM2_2000 \
    LPDDR5X_8533; do
    for wl in bfs gups hotspot kmeans nw pagerank spmv sssp stream \
        tspow; do
        "$root/build/examples/example_simulate" \
            --config "$root/configs/default.json" \
            -p system.numDimms=4 -p system.numChannels=2 \
            -p system.dramPreset="$grade" \
            --workload "$wl" --scale 5 --rounds 1 > /dev/null
    done
    echo "    [$grade] OK: 10-workload matrix completed and verified"
done

echo "==> serving smoke under ASan+UBSan"
# Short open-loop runs of both request-level workloads
# (docs/serving.md): the stats JSON must carry the serve group with a
# nonzero request count and the SLO percentiles, and the run must
# verify (example_simulate exits nonzero otherwise).
for wl in kv embed; do
    ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
        "$root/build-asan/examples/example_simulate" \
        --config "$root/configs/default.json" \
        -p system.numDimms=4 -p system.numChannels=2 \
        --workload "$wl" --requests 256 -p serve.keys=8192 --json \
        > "$trace_dir/serve-$wl.out"
    python3 - "$trace_dir/serve-$wl.out" <<'EOF'
import json, sys
text = open(sys.argv[1]).read()
stats = json.loads(text[text.index('{\n  "config"'):])
serve = stats["serve"]["scalars"]
assert serve["requests"] > 0, "no requests retired"
for k in ("latencyP50Ps", "latencyP95Ps", "latencyP99Ps"):
    assert serve[k] > 0, f"missing/zero {k}"
assert serve["latencyP50Ps"] <= serve["latencyP95Ps"] \
       <= serve["latencyP99Ps"], "percentiles not monotone"
hist = stats["serve"]["histograms"]["latencyPs"]
assert hist["total"] == serve["requests"], "histogram count mismatch"
EOF
    echo "    [$wl] OK: served, percentiles present"
done
# Determinism contract: two same-seed runs give byte-identical stats,
# for both serving workloads.
for wl in kv embed; do
    for run in 1 2; do
        "$root/build/examples/example_simulate" \
            --config "$root/configs/default.json" \
            -p system.numDimms=4 -p system.numChannels=2 \
            --workload "$wl" --requests 256 -p serve.keys=8192 --json \
            > "$trace_dir/serve$run.out"
    done
    if ! cmp -s "$trace_dir/serve1.out" "$trace_dir/serve2.out"; then
        echo "[$wl] serving run diverged between same-seed repeats"
        diff "$trace_dir/serve1.out" "$trace_dir/serve2.out" | head
        exit 1
    fi
    echo "    [$wl] OK: byte-identical across same-seed repeats"
done

echo "==> fault-injection soak under ASan+UBSan"
# A nonzero BER at a fixed seed drives the whole DLL retry path
# (corruption, NACK, timeout retransmission, dedup) under the
# sanitizers; bfs keeps traffic on the bridge where faults land.
soak_out="$(ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
    "$root/build-asan/examples/example_simulate" \
    --config "$root/configs/default.json" \
    -p system.numDimms=4 -p system.numChannels=2 \
    -p faults.model=ber -p faults.ber=2e-5 -p faults.seed=7 \
    --workload bfs --scale 6 --rounds 2 --json)"
if ! grep -q '"dllCorrupt": [1-9]' <<<"$soak_out"; then
    echo "soak injected no corruption"; exit 1
fi
if ! grep -q '"dllRetries": [1-9]' <<<"$soak_out"; then
    echo "soak triggered no retries"; exit 1
fi
if grep -q '"dllFailedTransfers": [1-9]' <<<"$soak_out"; then
    echo "soak lost transfers permanently"; exit 1
fi
echo "    soak OK: corruption injected, retries recovered, no losses"
# The degrade model derates every faulted link's serialization and
# corrupts nothing.
soak_out="$(ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
    "$root/build-asan/examples/example_simulate" \
    --config "$root/configs/default.json" \
    -p system.numDimms=4 -p system.numChannels=2 \
    -p faults.model=degrade -p faults.seed=7 \
    --workload bfs --scale 6 --rounds 2 --json)"
if ! grep -q '"faultDeratedPs": [1-9]' <<<"$soak_out"; then
    echo "degrade soak derated no link"; exit 1
fi
if grep -q '"dllCorrupt": [1-9]' <<<"$soak_out"; then
    echo "degrade soak corrupted packets"; exit 1
fi
echo "    soak OK: degrade derated links, no corruption"

echo "==> link-failure chaos matrix under ASan+UBSan"
# Fault model x topology x recovery policy. The stuck cells hold one
# direction of the 1<->2 bridge link down for the whole run — past the
# retry budget; the ber cells inject corruption the budget must absorb
# without a single exhaustion. Every cell must complete and verify
# (example_simulate exits nonzero otherwise) and recover through the
# configured path: failover re-sends through the host forwarder, drop
# completes on the warn-and-discard path. The hang watchdog rides
# along armed in every cell.
for model in stuck ber; do
    for topo in HalfRing Ring; do
        for policy in failover drop; do
            case "$model" in
            stuck) fault_args=(-p faults.model=stuck \
                -p faults.stuckAtPs=0 \
                -p faults.stuckForPs=400000000000000 \
                -p faults.stuckPeriodPs=0 \
                -p faults.linkFilter=link1to2) ;;
            ber) fault_args=(-p faults.model=ber \
                -p faults.ber=2e-5) ;;
            esac
            chaos_out="$(ASAN_OPTIONS=detect_leaks=0 \
                UBSAN_OPTIONS=print_stacktrace=1 \
                "$root/build-asan/examples/example_simulate" \
                --config "$root/configs/default.json" \
                -p system.numDimms=4 -p system.numChannels=2 \
                -p link.topology="$topo" \
                "${fault_args[@]}" -p faults.seed=7 \
                -p faults.onExhausted="$policy" \
                -p watchdog.stallPs=1000000000 \
                --workload bfs --scale 6 --rounds 1 --json 2>&1)"
            cell="$model/$topo/$policy"
            if [ "$model" = ber ]; then
                # The retry budget absorbs this BER: recovery, but no
                # exhaustions and no health transitions.
                if ! grep -q '"dllRetries": [1-9]' <<<"$chaos_out"; then
                    echo "[$cell] no retries recorded"; exit 1
                fi
                if grep -q '"dllFailedTransfers": [1-9]' \
                    <<<"$chaos_out"; then
                    echo "[$cell] transfers exhausted at soak BER"
                    exit 1
                fi
                echo "    [$cell] OK: completed, retries absorbed"
                continue
            fi
            if ! grep -q '"linkDownEvents": [1-9]' <<<"$chaos_out"; then
                echo "[$cell] dead link never detected"; exit 1
            fi
            case "$policy" in
            failover)
                if ! grep -q '"dllFailovers": [1-9]' \
                    <<<"$chaos_out"; then
                    echo "[$cell] no failovers recorded"; exit 1
                fi
                ;;
            drop)
                if ! grep -q '"dllFailedTransfers": [1-9]' \
                    <<<"$chaos_out"; then
                    echo "[$cell] no exhaustions recorded"; exit 1
                fi
                ;;
            esac
            echo "    [$cell] OK: completed, verified, recovered"
        done
    done
done
# Broadcast-mode PageRank: under fault injection a group broadcast is
# one reliable DLL unicast per destination, so these cells run that
# fork under the sanitizers. The ber cell must absorb its corruption;
# the stuck cells must route the copies behind the dead link over the
# host path.
for cell in ber/failover stuck/failover stuck/drop; do
    model="${cell%/*}"
    policy="${cell#*/}"
    case "$model" in
    stuck) fault_args=(-p faults.model=stuck -p faults.stuckAtPs=0 \
        -p faults.stuckForPs=400000000000000 \
        -p faults.stuckPeriodPs=0 -p faults.linkFilter=link1to2) ;;
    ber) fault_args=(-p faults.model=ber -p faults.ber=1e-4) ;;
    esac
    chaos_out="$(ASAN_OPTIONS=detect_leaks=0 \
        UBSAN_OPTIONS=print_stacktrace=1 \
        "$root/build-asan/examples/example_simulate" \
        --config "$root/configs/default.json" \
        -p system.numDimms=4 -p system.numChannels=2 \
        -p link.topology=HalfRing \
        "${fault_args[@]}" -p faults.seed=7 \
        -p faults.onExhausted="$policy" \
        -p watchdog.stallPs=1000000000 \
        --workload pagerank --broadcast --scale 6 --rounds 1 \
        --json 2>&1)"
    cell="broadcast/$model/HalfRing/$policy"
    if [ "$model" = ber ]; then
        if ! grep -q '"dllRetries": [1-9]' <<<"$chaos_out"; then
            echo "[$cell] no retries recorded"; exit 1
        fi
        if grep -q '"dllFailedTransfers": [1-9]' <<<"$chaos_out"; then
            echo "[$cell] transfers exhausted"; exit 1
        fi
        echo "    [$cell] OK: completed, retries absorbed"
        continue
    fi
    if ! grep -q '"hostReroutes": [1-9]' <<<"$chaos_out"; then
        echo "[$cell] no copy rerouted over the host"; exit 1
    fi
    if ! grep -q '"dllFailedTransfers": [1-9]' <<<"$chaos_out"; then
        echo "[$cell] no exhaustions recorded"; exit 1
    fi
    echo "    [$cell] OK: completed, verified, recovered"
done
# The 8D (two-group) stuck-bridge cell, re-enabled: PR 6 skipped it
# because a permanently-stuck bridge hung the proxy-notify path on
# multi-group systems; the requestForward retry-deadline fallback
# fixed that, so the cell now runs under the sanitizers like the rest
# of the matrix. No shape overrides: the default config is the 8-DIMM
# two-group machine.
for policy in failover drop; do
    chaos_out="$(ASAN_OPTIONS=detect_leaks=0 \
        UBSAN_OPTIONS=print_stacktrace=1 \
        "$root/build-asan/examples/example_simulate" \
        --config "$root/configs/default.json" \
        -p faults.model=stuck -p faults.stuckAtPs=0 \
        -p faults.stuckForPs=400000000000000 \
        -p faults.stuckPeriodPs=0 -p faults.linkFilter=link1to2 \
        -p faults.seed=7 -p faults.onExhausted="$policy" \
        -p watchdog.stallPs=1000000000 \
        --workload bfs --scale 6 --rounds 1 --json 2>&1)"
    cell="stuck-8D/HalfRing/$policy"
    if ! grep -q '"linkDownEvents": [1-9]' <<<"$chaos_out"; then
        echo "[$cell] dead bridge never detected"; exit 1
    fi
    echo "    [$cell] OK: completed, verified, recovered"
done

echo "==> finite-outage recovery under ASan+UBSan"
# The link dies at tick 0 and comes back mid-run: the HalfRing cut
# drops in-flight packets outright, the exhaustion policy retires
# their sequences, and the post-recovery DLL stream must resume past
# the gap instead of jamming the reorder buffer (the watchdog rides
# along armed to catch exactly that).
for policy in failover drop; do
    outage_out="$(ASAN_OPTIONS=detect_leaks=0 \
        UBSAN_OPTIONS=print_stacktrace=1 \
        "$root/build-asan/examples/example_simulate" \
        --config "$root/configs/default.json" \
        -p system.numDimms=4 -p system.numChannels=2 \
        -p link.topology=HalfRing \
        -p faults.model=stuck -p faults.stuckAtPs=0 \
        -p faults.stuckForPs=25000000 -p faults.stuckPeriodPs=0 \
        -p faults.linkFilter=link1to2 -p faults.seed=17 \
        -p faults.reprobeIntervalPs=5000000 \
        -p faults.onExhausted="$policy" \
        -p watchdog.stallPs=1000000000 \
        --workload bfs --scale 6 --rounds 1 --json 2>&1)"
    cell="finite-outage/$policy"
    if ! grep -q '"linkDownEvents": [1-9]' <<<"$outage_out"; then
        echo "[$cell] outage never masked the edge"; exit 1
    fi
    if ! grep -q '"linkRecoveredEvents": [1-9]' <<<"$outage_out"; then
        echo "[$cell] link never recovered mid-run"; exit 1
    fi
    if ! grep -q '"dllStreamResyncs": [1-9]' <<<"$outage_out"; then
        echo "[$cell] no stream resyncs recorded"; exit 1
    fi
    echo "    [$cell] OK: went down, recovered, stream resumed"
done

echo "==> rack-scale pooling smoke under ASan+UBSan"
# The checked-in two-host rack (configs/rack_2host.json, docs/rack.md)
# serves kv across the pooled NMP-DIMMs: the stats JSON must carry the
# rack group with cross-host traffic on the pooled bridges and the
# serve group with per-host SLO percentiles that partition the
# rack-wide request count.
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
    "$root/build-asan/examples/example_simulate" \
    --config "$root/configs/rack_2host.json" \
    --workload kv --json > "$trace_dir/rack.out"
python3 - "$trace_dir/rack.out" <<'EOF'
import json, sys
text = open(sys.argv[1]).read()
stats = json.loads(text[text.index('{\n  "config"'):])
rack = stats["rack"]["scalars"]
assert rack["pooledTransfers"] > 0, "no pooled cross-host transfers"
assert rack["pooledBytes"] > 0, "no pooled cross-host bytes"
# Zero-valued scalars are omitted from the example driver's JSON, so
# a pooled-primary run simply has no "crossings" entry.
assert rack.get("crossings", 0) == 0, "pooled primary used host path"
serve = stats["serve"]["scalars"]
assert serve["requests"] > 0, "no requests retired"
hosts = serve["host0.requests"] + serve["host1.requests"]
assert hosts == serve["requests"], "per-host counts do not partition"
for h in (0, 1):
    p50 = serve[f"host{h}.latencyP50Ps"]
    p99 = serve[f"host{h}.latencyP99Ps"]
    assert 0 < p50 <= p99, f"host{h} percentiles missing/non-monotone"
EOF
echo "    rack OK: pooled crossings, per-host SLO partition"
# Determinism contract at rack scale: two same-seed runs give
# byte-identical stats.
for run in 1 2; do
    "$root/build/examples/example_simulate" \
        --config "$root/configs/rack_2host.json" \
        --workload kv --json > "$trace_dir/rack$run.out"
done
if ! cmp -s "$trace_dir/rack1.out" "$trace_dir/rack2.out"; then
    echo "rack run diverged between same-seed repeats"
    diff "$trace_dir/rack1.out" "$trace_dir/rack2.out" | head
    exit 1
fi
echo "    rack OK: byte-identical across same-seed repeats"

echo "==> chaos serving smoke under ASan+UBSan"
# The two-host rack on the forwarded route through a mid-run host
# outage with the reliability layer armed (docs/serving.md,
# "Reliability & graceful degradation"): the outage must actually
# bite (misses/sheds), the tail must stay bounded by the deadline,
# and every request must be disposed of exactly once.
chaos_args=(
    --config "$root/configs/rack_2host.json"
    -p rack.idcMode=forwarded
    -p rack.hostDownId=1 -p rack.hostDownAtPs=500000000
    -p rack.hostDownForPs=60000000
    -p link.retryTimeoutPs=40000000
    --deadline-us 25 --max-retries 3
    -p serve.backoffUs=5 -p serve.maxInflight=128
    --workload kv --json
)
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
    "$root/build-asan/examples/example_simulate" \
    "${chaos_args[@]}" > "$trace_dir/chaos.out"
python3 - "$trace_dir/chaos.out" <<'EOF'
import json, sys
text = open(sys.argv[1]).read()
stats = json.loads(text[text.index('{\n  "config"'):])
serve = stats["serve"]["scalars"]
g = lambda k: serve.get(k, 0)
dropped = (g("deadlineMisses") + g("shedRequests")
           + g("failedRequests"))
assert dropped > 0, "outage never cost a request"
assert g("requests") + dropped == 4096, "dispositions do not partition"
assert g("latencyP99Ps") <= 25e6, \
    f'p99 {g("latencyP99Ps")} ps blew the 25 us deadline'
assert g("goodputQps") > 0, "no goodput reported"
rack = stats["rack"]["scalars"]
assert rack.get("parkedTransfers", 0) > 0, \
    "no transfer parked on the dead edge"
EOF
echo "    chaos OK: outage bitten, tail bounded, partition holds"
# The reliability layer keeps the rack determinism contract:
# byte-identical chaos stats across same-seed repeats.
for run in 1 2; do
    "$root/build/examples/example_simulate" \
        "${chaos_args[@]}" > "$trace_dir/chaos$run.out"
done
if ! cmp -s "$trace_dir/chaos1.out" "$trace_dir/chaos2.out"; then
    echo "chaos run diverged between same-seed repeats"
    diff "$trace_dir/chaos1.out" "$trace_dir/chaos2.out" | head
    exit 1
fi
echo "    chaos OK: byte-identical across same-seed repeats"

echo "==> provenance: a stats dump alone re-runs its experiment"
# The config block of a stats dump records every key that changes
# results (here the rack shape and the deadline): fed back through
# --config, it must reproduce the run byte for byte.
"$root/build/examples/example_simulate" \
    --config "$root/configs/rack_2host.json" \
    --workload kv --deadline-us 25 --json > "$trace_dir/prov.out"
python3 - "$trace_dir/prov.out" "$trace_dir/prov-config.json" <<'EOF'
import json, sys
text = open(sys.argv[1]).read()
line = next(l for l in text.splitlines() if l.startswith('  "config": '))
block = line[len('  "config": '):].rstrip(',')
config = json.loads(block)
assert config.get("rack.hosts") == 2, "rack.hosts not recorded"
assert config.get("serve.deadlineUs") == 25, \
    "serve.deadlineUs not recorded"
open(sys.argv[2], "w").write(block)
EOF
"$root/build/examples/example_simulate" \
    --config "$trace_dir/prov-config.json" \
    --workload kv --json > "$trace_dir/prov-replay.out"
if ! cmp -s "$trace_dir/prov.out" "$trace_dir/prov-replay.out"; then
    echo "re-run from the dump's config block diverged"
    diff "$trace_dir/prov.out" "$trace_dir/prov-replay.out" | head
    exit 1
fi
echo "    provenance OK: rack shape and deadline recorded, replay identical"

echo "==> committed results regenerate byte for byte"
# The four committed BENCH_*.json files are deterministic simulator
# output: each bench/ binary must rewrite its file exactly as
# committed. A change meant to move results regenerates and commits
# them.
regen() { # <committed file> <bench binary> [args...]
    local file="$1"
    shift
    "$root/build/bench/$@" "$trace_dir/$file" > /dev/null
    if ! cmp -s "$trace_dir/$file" "$root/$file"; then
        echo "$file differs from its regenerated copy"
        diff "$trace_dir/$file" "$root/$file" | head
        exit 1
    fi
    echo "    [$file] OK: identical"
}
regen BENCH_dram.json fig16_bandwidth --standards
regen BENCH_chaos.json chaos_serving
regen BENCH_serving.json serving
regen BENCH_rack.json rack_scale

echo "==> benchmark driver builds and runs against src/"
# perfbench/driver.cc drives src/ through its public API (System, the
# NoC probe's Network/Message, the DRAM probe), so an API change that
# breaks it must fail here, not only when the benchmark runs. One
# short traced run builds the Release driver (build-perfbench/) and
# exercises both probes; its verification must pass. The run must also
# damage packets (dll.corrupt > 0): a DLL packet's byte image is built
# only when a fault flipped its bits, and this keeps the benchmark
# exercising that path. Its stats digest is pinned: a change meant to
# keep results byte-identical that moves it fails here. Its event
# count may only fall: a kick on a router with nothing arrived fires
# no event, and a change that brings such events back fails here.
bench_out="$(CARGO_TARGET_DIR=build-perfbench python3 \
    "$root/perfbench/run.py" --workload kv-dl8-ber --seed 1 \
    --seconds 1 --trace 1)"
python3 - "$bench_out" <<'EOF'
import json, sys
lines = sys.argv[1].splitlines()
report = json.loads(lines[-2])["report"]
result = json.loads(lines[-1])
assert result["correct"], "perfbench run not correct"
assert result["failed"] == 0, f'{result["failed"]} failed operations'
metrics = result["metrics"]
for key in ("sim.events", "sim.allocs_per_event", "dll.sent",
            "dll.corrupt"):
    print(f"    {key} = {metrics[key]['value']}")
print(f'    digest = {report["digest"]}')
assert metrics["dll.corrupt"]["value"] > 0, \
    "kv-dl8-ber damaged no DLL packet (dll.corrupt = 0)"
assert report["digest"] == "d8a860087f087f2a", \
    f'kv-dl8-ber stats digest moved: {report["digest"]}'
assert metrics["sim.events"]["value"] <= 7137387, \
    f'kv-dl8-ber fired {metrics["sim.events"]["value"]} events (> 7137387)'
EOF
echo "    perfbench OK: driver built, kv-dl8-ber --trace 1 correct, packets damaged, digest and event count held"

echo "==> CI green"
