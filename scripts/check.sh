#!/usr/bin/env bash
# Repo health check: release build, full test suite, lints.
# Usage: scripts/check.sh [--offline]
set -euo pipefail
cd "$(dirname "$0")/.."

OFFLINE=()
if [[ "${1:-}" == "--offline" ]]; then
    OFFLINE=(--offline)
fi

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo build --release =="
cargo build --workspace --release "${OFFLINE[@]}"

echo "== cargo test =="
cargo test --workspace -q "${OFFLINE[@]}"

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets "${OFFLINE[@]}" -- -D warnings

echo "== verify committed example schedule =="
cargo run --release -p bench --bin verify_schedule "${OFFLINE[@]}" -- \
    --schedule examples/schedules/optflow_64px.sched --size 64 --iters 2 --strict

echo "== panic-free gate (ktiler non-test sources) =="
# No .unwrap() / panic!() on ktiler's library paths: scan each source file
# up to its #[cfg(test)] marker, skipping comment lines (doctests live in
# doc comments and may unwrap freely). `expect`/`assert!` with invariant
# messages remain allowed — see the error-policy table in DESIGN.md.
GATE_FAIL=0
for f in crates/ktiler/src/*.rs; do
    hits=$(awk '/^#\[cfg\(test\)\]/ { exit }
                /^[[:space:]]*\/\// { next }
                /\.unwrap\(\)|panic!\(/ { print FILENAME ":" FNR ": " $0 }' "$f")
    if [[ -n "$hits" ]]; then
        echo "$hits"
        GATE_FAIL=1
    fi
done
if [[ "$GATE_FAIL" -ne 0 ]]; then
    echo "error: .unwrap()/panic!() found on ktiler library paths" >&2
    exit 1
fi

echo "== unsafe gate (crates/ outside netpoll) =="
# The workspace's FFI calls, poll(2) and listen(2), live in crates/netpoll; every
# other crate stays safe Rust (ktiler-svc and ktiler-gateway also carry
# #![forbid(unsafe_code)]). The benchmark under benchmark/ keeps its own.
UNSAFE_HITS=$(grep -rnw --include='*.rs' 'unsafe' crates | grep -v '^crates/netpoll/' || true)
if [[ -n "$UNSAFE_HITS" ]]; then
    echo "$UNSAFE_HITS"
    echo "error: 'unsafe' outside crates/netpoll" >&2
    exit 1
fi

echo "== containment gate (ktiler-svc non-test sources) =="
# The service survives injected panics only because every lock goes
# through the poison-recovering helpers in the fault module and nothing
# on a library path unwraps. Forbid bare .unwrap() / .lock().expect(
# outside crates/ktiler-svc/src/fault.rs (same scan shape as above).
GATE_FAIL=0
for f in crates/ktiler-svc/src/*.rs; do
    [[ "$f" == */fault.rs ]] && continue
    hits=$(awk '/^#\[cfg\(test\)\]/ { exit }
                /^[[:space:]]*\/\// { next }
                /\.unwrap\(\)|\.lock\(\)\.expect\(/ { print FILENAME ":" FNR ": " $0 }' "$f")
    if [[ -n "$hits" ]]; then
        echo "$hits"
        GATE_FAIL=1
    fi
done
if [[ "$GATE_FAIL" -ne 0 ]]; then
    echo "error: bare .unwrap()/.lock().expect( found on ktiler-svc library paths" >&2
    echo "       (use the fault::lock/cv_wait helpers or propagate the error)" >&2
    exit 1
fi

echo "== chaos suite (fixed seed) =="
# The seeded fault-injection suite: panics mid-pipeline, crashed workers,
# failed stores, corrupt artifacts, stalled sockets, dropped connections.
# A fixed seed pins the delay jitter and backoff streams so a failure
# here reproduces byte-for-byte.
KTILER_CHAOS_SEED=20260806 cargo test -p ktiler-svc --test chaos_service -q "${OFFLINE[@]}"

echo "== analyzer equivalence + fast-vs-oracle gate (paper-scale, release) =="
# The fast analyzer (structural trace reuse + analytical affine footprints)
# and the full analyzer must be byte-identical to the word-level reference
# on the 512²/30-iter workload the acceptance bar names and on the zoo at
# mid scale. The paper-scale test also fails when the reference takes less
# than 5x the fastest of three analyze_fast runs, and prints the ratio.
cargo test --release -p bench --test analyzer_equivalence "${OFFLINE[@]}" -- --ignored --nocapture

echo "== analyzer scaling gate (release) =="
# The fast analyzer on optical flow at 256²×10×3 and 512²×10×3, min of 3
# interleaved samples each: 4x the pixels must cost at most 6x the time
# (linear reads ~4). A dependency pass that grows with blocks-per-node
# squared reads ~10x here, which the equivalence step's 5x fast-vs-oracle
# gate is too coarse to see.
cargo test --release -p bench --test analyzer_scaling "${OFFLINE[@]}" -- --ignored --nocapture

echo "== Algorithm 1 decision pins, paper scale (release) =="
# The TilingReport counters (candidates, merges accepted / rejected /
# invalid, memoized tilings) and the launch count of optical flow at
# 512²×30×3, (1324, 1600): any change to a merge decision moves one.
# The 256²×10×3 pin runs with the workspace tests above.
cargo test --release -p bench --test algorithm1_pins -q "${OFFLINE[@]}" -- --ignored

echo "== fuzz corpus regression suite (release) =="
# Every seed in crates/ktiler/tests/fuzz_corpus/ once exposed a real
# scheduler bug (missing WAR/WAW hazard edges; atomic-node pessimism
# missing transitive ancestors). Each replays the full differential
# pipeline from its seed alone.
cargo test --release -p ktiler --test fuzz_corpus -q "${OFFLINE[@]}"

echo "== DAG fuzz smoke (seeds 0..200) =="
# 200 seeded random DAGs through the differential oracle (analyzer
# equivalence, validation, verification, execution, byte-exact
# tiled-vs-untiled replay, forced tiling). Deterministic: any failure
# prints the seed and reproduces standalone via
#   fuzz_dags --seed0 <seed> --count 1 --verbose
# Exits non-zero on any divergence.
cargo run --release -p bench --bin fuzz_dags "${OFFLINE[@]}" -- --seed0 0 --count 200

ZOO_JSON=$(mktemp /tmp/bench_zoo_smoke.XXXXXX.json)
SVC_DIR=$(mktemp -d /tmp/ktiler_svc_smoke.XXXXXX)
MN_DIR=$(mktemp -d /tmp/ktiler_multi_smoke.XXXXXX)
FRESH_DIR=$(mktemp -d /tmp/ktiler_fresh.XXXXXX)
trap 'rm -f "$ZOO_JSON"; rm -rf "$SVC_DIR" "$MN_DIR" "$FRESH_DIR";
      for p in "${SERVE_PID:-}" "${NODE0_PID:-}" "${NODE1_PID:-}" "${GW_PID:-}"; do
          [[ -n "$p" ]] && kill "$p" 2>/dev/null || true
      done' EXIT

echo "== committed results are fresh (figs 1, 4, 5 and Sec. II) =="
# The simulator and the tiler are deterministic, so these binaries' stdout
# must equal the committed files byte for byte. fig5_ktiler's table also
# pins the schedules at all four Fig. 5 points (launch counts and gains).
# Each runs in a scratch directory: fig4_dfg writes its DOT file into the
# working directory.
BIN_DIR=$PWD/target/release
for bin in fig1_motivation fig4_dfg fig5_ktiler sec2_kernel_study; do
    (cd "$FRESH_DIR" && "$BIN_DIR/$bin") > "$FRESH_DIR/$bin.txt"
    if ! diff -u "results/$bin.txt" "$FRESH_DIR/$bin.txt"; then
        echo "error: results/$bin.txt differs from a fresh $bin run" >&2
        echo "       (regenerate it from the binary's stdout if the change is intended)" >&2
        exit 1
    fi
done

echo "== workload zoo: smoke run + committed-results freshness =="
# Smoke scale: the binary itself asserts verify_ok and outputs_match for
# every zoo workload before writing the JSON.
cargo run --release -p bench --bin bench_zoo "${OFFLINE[@]}" -- --small --out "$ZOO_JSON"
# Committed full-scale results must cover all three workload families,
# be a full-scale run, carry the speedup field, and have no failed gate.
for fam in multigrid image_pipeline matmul_chain; do
    if ! grep -q "\"name\": \"${fam}_" results/BENCH_zoo.json; then
        echo "error: workload family $fam missing from results/BENCH_zoo.json" >&2
        exit 1
    fi
done
grep -qF '"small": false' results/BENCH_zoo.json \
    || { echo "error: committed BENCH_zoo.json is a --small run" >&2; exit 1; }
grep -qF '"speedup"' results/BENCH_zoo.json \
    || { echo "error: committed BENCH_zoo.json carries no speedup field" >&2; exit 1; }
if grep -qE '"(verify_ok|outputs_match)": false' results/BENCH_zoo.json; then
    echo "error: committed BENCH_zoo.json records a failed correctness gate" >&2
    exit 1
fi

echo "== ktiler-svc service smoke test =="
# Full service loop against the release binaries: start the server on an
# ephemeral port, drive miss -> hit -> corrupted-artifact -> recompute
# through the network client, check the counters, shut down cleanly.
CLIENT=(target/release/ktiler_tool client)
target/release/ktiler_serve --addr 127.0.0.1:0 --cache-dir "$SVC_DIR/cache" \
    --port-file "$SVC_DIR/port" --stats-out "$SVC_DIR/stats.json" \
    >"$SVC_DIR/serve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [[ -s "$SVC_DIR/port" ]] && break
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "error: ktiler_serve exited early" >&2
        cat "$SVC_DIR/serve.log" >&2
        exit 1
    fi
    sleep 0.1
done
ADDR=$(cat "$SVC_DIR/port")
SCHED_ARGS=(schedule --addr "$ADDR" --size 64 --iters 3 --levels 2)

# Capture client output instead of piping into grep -q: -q exits on the
# first match, and the client's follow-up "wrote ..." line would then
# die on a broken pipe (flaky under pipefail).
"${CLIENT[@]}" "${SCHED_ARGS[@]}" --out "$SVC_DIR/first.sched" | grep '^MISS ' >/dev/null \
    || { echo "error: first request should be a MISS" >&2; exit 1; }
"${CLIENT[@]}" "${SCHED_ARGS[@]}" --out "$SVC_DIR/second.sched" | grep '^HIT ' >/dev/null \
    || { echo "error: second request should be a HIT" >&2; exit 1; }
cmp -s "$SVC_DIR/first.sched" "$SVC_DIR/second.sched" \
    || { echo "error: cache hit is not byte-identical to the miss" >&2; exit 1; }

# Corrupt the single cached artifact; the service must detect it on load
# and transparently recompute.
ARTIFACT=$(ls "$SVC_DIR"/cache/*.sched)
echo "garbage, not a schedule" > "$ARTIFACT"
"${CLIENT[@]}" "${SCHED_ARGS[@]}" --out "$SVC_DIR/third.sched" | grep '^RECOMPUTE ' >/dev/null \
    || { echo "error: corrupted artifact should trigger a RECOMPUTE" >&2; exit 1; }
cmp -s "$SVC_DIR/first.sched" "$SVC_DIR/third.sched" \
    || { echo "error: recompute did not reproduce the original schedule" >&2; exit 1; }

"${CLIENT[@]}" stats --addr "$ADDR" > "$SVC_DIR/live_stats.json"
for check in '"cache_hits": 1' '"cache_misses": 1' '"verify_failures": 1'; do
    if ! grep -qF "$check" "$SVC_DIR/live_stats.json"; then
        echo "error: service stats check failed: expected $check" >&2
        cat "$SVC_DIR/live_stats.json" >&2
        exit 1
    fi
done

"${CLIENT[@]}" shutdown --addr "$ADDR" | grep '^BYE$' >/dev/null \
    || { echo "error: shutdown not acknowledged" >&2; exit 1; }
for _ in $(seq 1 100); do
    kill -0 "$SERVE_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "error: ktiler_serve did not exit after SHUTDOWN" >&2
    exit 1
fi
SERVE_PID=""
grep -qF '"requests": 3' "$SVC_DIR/stats.json" \
    || { echo "error: final stats dump missing or wrong" >&2; cat "$SVC_DIR/stats.json" >&2; exit 1; }

echo "== ktiler-svc restart: each process verifies an artifact once =="
# The verified index lives in memory only, so a node restarted on a warm
# cache directory trusts nothing its predecessor verified: its first HIT
# re-runs analysis and the full verification (analysis_runs 1), later
# HITs are exact-byte checked against that copy (analysis_runs stays 1),
# and a corrupted artifact is still caught once the index is warm.
rm -f "$SVC_DIR/port"
target/release/ktiler_serve --addr 127.0.0.1:0 --cache-dir "$SVC_DIR/cache" \
    --port-file "$SVC_DIR/port" >"$SVC_DIR/serve2.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [[ -s "$SVC_DIR/port" ]] && break
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "error: restarted ktiler_serve exited early" >&2
        cat "$SVC_DIR/serve2.log" >&2
        exit 1
    fi
    sleep 0.1
done
ADDR=$(cat "$SVC_DIR/port")
SCHED_ARGS=(schedule --addr "$ADDR" --size 64 --iters 3 --levels 2)
expect_analysis_runs() { # <n> <context>
    "${CLIENT[@]}" stats --addr "$ADDR" > "$SVC_DIR/live_stats.json"
    grep -qF "\"analysis_runs\": $1," "$SVC_DIR/live_stats.json" \
        || { echo "error: expected analysis_runs $1 $2" >&2
             cat "$SVC_DIR/live_stats.json" >&2; exit 1; }
}
for n in 1 2; do
    "${CLIENT[@]}" "${SCHED_ARGS[@]}" --out "$SVC_DIR/restart$n.sched" | grep '^HIT ' >/dev/null \
        || { echo "error: request $n after the restart should be a HIT" >&2; exit 1; }
    cmp -s "$SVC_DIR/first.sched" "$SVC_DIR/restart$n.sched" \
        || { echo "error: HIT $n after the restart is not byte-identical" >&2; exit 1; }
    expect_analysis_runs 1 "after HIT $n of the restarted node"
done
ARTIFACT=$(ls "$SVC_DIR"/cache/*.sched)
echo "garbage, not a schedule" > "$ARTIFACT"
"${CLIENT[@]}" "${SCHED_ARGS[@]}" --out "$SVC_DIR/restart3.sched" | grep '^RECOMPUTE ' >/dev/null \
    || { echo "error: corrupting an indexed artifact should trigger a RECOMPUTE" >&2; exit 1; }
cmp -s "$SVC_DIR/first.sched" "$SVC_DIR/restart3.sched" \
    || { echo "error: recompute after the restart did not reproduce the schedule" >&2; exit 1; }
"${CLIENT[@]}" shutdown --addr "$ADDR" | grep '^BYE$' >/dev/null \
    || { echo "error: restarted node shutdown not acknowledged" >&2; exit 1; }
for _ in $(seq 1 100); do
    kill -0 "$SERVE_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "error: restarted ktiler_serve did not exit after SHUTDOWN" >&2
    exit 1
fi
SERVE_PID=""

echo "== multi-node smoke test (2 nodes + gateway) =="
# The deployment story live: two peered nodes behind a gateway, driven
# miss -> hit -> kill-the-owning-node -> failover, every answer
# byte-identical. The nodes name each other with --peer and run
# anti-entropy every 200 ms, so once their digests match the co-owner
# holds the artifact and the post-kill request must be served without a
# recompute.
wait_port_file() {
    local file=$1 pid=$2 what=$3
    for _ in $(seq 1 100); do
        [[ -s "$file" ]] && return 0
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "error: $what exited early" >&2
            cat "$MN_DIR"/*.log >&2 || true
            exit 1
        fi
        sleep 0.1
    done
    echo "error: $what never wrote its port file" >&2
    exit 1
}
# Both ports are fixed before either node starts, so each can name the
# other as a peer; a refused connect means nothing listens there.
free_port() {
    local p
    for p in $(seq "$1" $(($1 + 500))); do
        (exec 3<>"/dev/tcp/127.0.0.1/$p") 2>/dev/null || { echo "$p"; return 0; }
    done
}
PORT0=$(free_port $((20000 + $$ % 20000)))
PORT1=$(free_port $((PORT0 + 1)))
[[ -n "$PORT0" && -n "$PORT1" ]] || { echo "error: no free loopback ports" >&2; exit 1; }
ADDR0=127.0.0.1:$PORT0
ADDR1=127.0.0.1:$PORT1
target/release/ktiler_serve --addr "$ADDR0" --cache-dir "$MN_DIR/cache0" \
    --peer "$ADDR1" --sync-interval-ms 200 \
    --port-file "$MN_DIR/port0" >"$MN_DIR/node0.log" 2>&1 &
NODE0_PID=$!
target/release/ktiler_serve --addr "$ADDR1" --cache-dir "$MN_DIR/cache1" \
    --peer "$ADDR0" --sync-interval-ms 200 \
    --port-file "$MN_DIR/port1" >"$MN_DIR/node1.log" 2>&1 &
NODE1_PID=$!
wait_port_file "$MN_DIR/port0" "$NODE0_PID" "node 0"
wait_port_file "$MN_DIR/port1" "$NODE1_PID" "node 1"
target/release/ktiler_gateway --node "$ADDR0" --node "$ADDR1" \
    --addr 127.0.0.1:0 \
    --port-file "$MN_DIR/gwport" >"$MN_DIR/gateway.log" 2>&1 &
GW_PID=$!
wait_port_file "$MN_DIR/gwport" "$GW_PID" "gateway"
GW_ADDR=$(cat "$MN_DIR/gwport")
GW_SCHED=(schedule --addr "$GW_ADDR" --size 64 --iters 3 --levels 2)

"${CLIENT[@]}" "${GW_SCHED[@]}" --out "$MN_DIR/first.sched" | grep '^MISS ' >/dev/null \
    || { echo "error: first request through the gateway should be a MISS" >&2; exit 1; }
"${CLIENT[@]}" "${GW_SCHED[@]}" --out "$MN_DIR/second.sched" | grep '^HIT ' >/dev/null \
    || { echo "error: second request through the gateway should be a HIT" >&2; exit 1; }
cmp -s "$MN_DIR/first.sched" "$MN_DIR/second.sched" \
    || { echo "error: gateway hit is not byte-identical to the miss" >&2; exit 1; }

# Wait for anti-entropy to copy the artifact to the co-owner.
digest_keys() { "${CLIENT[@]}" digest --addr "$1" | tail -n +2 | sort; }
for _ in $(seq 1 100); do
    KEYS0=$(digest_keys "$ADDR0")
    KEYS1=$(digest_keys "$ADDR1")
    [[ -n "$KEYS0" && "$KEYS0" == "$KEYS1" ]] && break
    sleep 0.1
done
[[ -n "$KEYS0" && "$KEYS0" == "$KEYS1" ]] \
    || { echo "error: the nodes never reached DIGEST parity" >&2; exit 1; }

# The owning node is the one the gateway forwarded both requests to
# (per-node counters in the gateway's stats document).
"${CLIENT[@]}" stats --addr "$GW_ADDR" > "$MN_DIR/gw_stats.json"
OWNER=$(awk -F'"' '/"addr"/ {
            addr = $4
            if (match($0, /"forwarded": [0-9]+/)) {
                n = substr($0, RSTART + 13, RLENGTH - 13) + 0
                if (n > best) { best = n; owner = addr }
            }
        } END { print owner }' "$MN_DIR/gw_stats.json")
if [[ "$OWNER" == "$ADDR0" ]]; then
    kill "$NODE0_PID"; wait "$NODE0_PID" 2>/dev/null || true; NODE0_PID=""
elif [[ "$OWNER" == "$ADDR1" ]]; then
    kill "$NODE1_PID"; wait "$NODE1_PID" 2>/dev/null || true; NODE1_PID=""
else
    echo "error: cannot identify the owning node from gateway stats" >&2
    cat "$MN_DIR/gw_stats.json" >&2
    exit 1
fi

# The owner is dead; the co-owner must serve the synced artifact as a
# plain hit, byte-identical, with no client-visible error.
"${CLIENT[@]}" "${GW_SCHED[@]}" --out "$MN_DIR/failover.sched" | grep '^HIT ' >/dev/null \
    || { echo "error: post-kill request should fail over to a replica HIT" >&2; exit 1; }
cmp -s "$MN_DIR/first.sched" "$MN_DIR/failover.sched" \
    || { echo "error: failover response is not byte-identical" >&2; exit 1; }

"${CLIENT[@]}" shutdown --addr "$GW_ADDR" | grep '^BYE$' >/dev/null \
    || { echo "error: gateway shutdown not acknowledged" >&2; exit 1; }
for _ in $(seq 1 100); do
    kill -0 "$GW_PID" 2>/dev/null || break
    sleep 0.1
done
kill -0 "$GW_PID" 2>/dev/null && { echo "error: gateway did not exit" >&2; exit 1; }
GW_PID=""
for pid_var in NODE0_PID NODE1_PID; do
    pid=${!pid_var}
    [[ -n "$pid" ]] || continue
    if [[ "$pid_var" == NODE0_PID ]]; then addr=$ADDR0; else addr=$ADDR1; fi
    "${CLIENT[@]}" shutdown --addr "$addr" >/dev/null \
        || { echo "error: node shutdown not acknowledged" >&2; exit 1; }
    for _ in $(seq 1 100); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    kill -0 "$pid" 2>/dev/null && { echo "error: node did not exit" >&2; exit 1; }
    printf -v "$pid_var" ''
done

echo "== event loop: 10k idle connections + idle wake-ups (release) =="
# One ktiler_serve child holds 10,000 idle connections on its single
# event-loop thread (the test aborts after 100 connections if the node
# grew a thread), answers PING on a sample of them and a schedule HIT on
# a fresh one, each within 1 s; an idle node makes at most 10 voluntary
# context switches in 2 s.
cargo test --release -p bench --test event_loop_connections -q "${OFFLINE[@]}"

echo "== crash-recovery smoke (SIGKILL mid-store -> anti-entropy heal) =="
# The durability + anti-entropy story live (DESIGN.md §16): warm node A;
# start node B with an injected 30 s delay in the fsync window, SIGKILL
# it while its store is still a tmp file, assert no torn artifact under
# the live name; restart B empty with A as a peer and gate on
# anti-entropy reaching a byte-identical copy with zero client traffic,
# then a plain local HIT.
CR_DIR=$(mktemp -d /tmp/ktiler_crash_smoke.XXXXXX)
trap 'rm -f "$ZOO_JSON";
      rm -rf "$SVC_DIR" "$MN_DIR" "$FRESH_DIR" "$CR_DIR";
      for p in "${SERVE_PID:-}" "${NODE0_PID:-}" "${NODE1_PID:-}" "${GW_PID:-}" \
               "${CR_A_PID:-}" "${CR_B_PID:-}" "${CR_CLIENT_PID:-}"; do
          [[ -n "$p" ]] && kill -9 "$p" 2>/dev/null || true
      done' EXIT

target/release/ktiler_serve --addr 127.0.0.1:0 --cache-dir "$CR_DIR/cacheA" \
    --port-file "$CR_DIR/portA" >"$CR_DIR/nodeA.log" 2>&1 &
CR_A_PID=$!
wait_port_file "$CR_DIR/portA" "$CR_A_PID" "crash-smoke node A"
CR_ADDR_A=$(cat "$CR_DIR/portA")
"${CLIENT[@]}" schedule --addr "$CR_ADDR_A" --size 64 --iters 3 --levels 2 \
    --out "$CR_DIR/warm.sched" | grep '^MISS ' >/dev/null \
    || { echo "error: warming node A should be a MISS" >&2; exit 1; }
ARTIFACT_A=$(ls "$CR_DIR"/cacheA/*.sched)

# Node B: the fsync fault holds every store in the uncommitted tmp-file
# window for 30 s — the exact window the SIGKILL must land in.
target/release/ktiler_serve --addr 127.0.0.1:0 --cache-dir "$CR_DIR/cacheB" \
    --fault "cache.fsync=delay:30000" \
    --port-file "$CR_DIR/portB" >"$CR_DIR/nodeB.log" 2>&1 &
CR_B_PID=$!
wait_port_file "$CR_DIR/portB" "$CR_B_PID" "crash-smoke node B"
CR_ADDR_B=$(cat "$CR_DIR/portB")
"${CLIENT[@]}" schedule --addr "$CR_ADDR_B" --size 64 --iters 3 --levels 2 \
    >/dev/null 2>&1 &
CR_CLIENT_PID=$!
for _ in $(seq 1 200); do
    compgen -G "$CR_DIR/cacheB/*.sched.tmp.*" >/dev/null && break
    sleep 0.1
done
compgen -G "$CR_DIR/cacheB/*.sched.tmp.*" >/dev/null \
    || { echo "error: node B never entered the uncommitted store window" >&2
         cat "$CR_DIR/nodeB.log" >&2; exit 1; }
kill -9 "$CR_B_PID"; wait "$CR_B_PID" 2>/dev/null || true; CR_B_PID=""
wait "$CR_CLIENT_PID" 2>/dev/null || true; CR_CLIENT_PID=""
if compgen -G "$CR_DIR/cacheB/*.sched" >/dev/null; then
    echo "error: SIGKILL mid-store left an artifact under the live name" >&2
    exit 1
fi

# Restart B on the same (effectively empty) cache dir: the orphaned tmp
# file must be recovered on open, and anti-entropy against A must pull
# the artifact back with no client traffic at all.
target/release/ktiler_serve --addr 127.0.0.1:0 --cache-dir "$CR_DIR/cacheB" \
    --peer "$CR_ADDR_A" --sync-interval-ms 200 \
    --port-file "$CR_DIR/portB2" >"$CR_DIR/nodeB2.log" 2>&1 &
CR_B_PID=$!
wait_port_file "$CR_DIR/portB2" "$CR_B_PID" "crash-smoke node B (restart)"
CR_ADDR_B=$(cat "$CR_DIR/portB2")
HEALED="$CR_DIR/cacheB/$(basename "$ARTIFACT_A")"
for _ in $(seq 1 100); do
    [[ -f "$HEALED" ]] && cmp -s "$ARTIFACT_A" "$HEALED" && break
    sleep 0.1
done
cmp -s "$ARTIFACT_A" "$HEALED" \
    || { echo "error: anti-entropy never converged to a byte-identical artifact" >&2
         cat "$CR_DIR/nodeB2.log" >&2; exit 1; }
if compgen -G "$CR_DIR/cacheB/*.sched.tmp.*" >/dev/null; then
    echo "error: restart did not recover the orphaned tmp file" >&2
    exit 1
fi

# The healed node serves the key as a plain local HIT, byte-identical.
"${CLIENT[@]}" schedule --addr "$CR_ADDR_B" --size 64 --iters 3 --levels 2 \
    --out "$CR_DIR/healed.sched" | grep '^HIT ' >/dev/null \
    || { echo "error: the healed node should serve a local HIT" >&2; exit 1; }
cmp -s "$CR_DIR/warm.sched" "$CR_DIR/healed.sched" \
    || { echo "error: healed response is not byte-identical to the warm one" >&2; exit 1; }
# grep without -q reads to the end, so the client never hits a closed
# pipe (pipefail would turn its EPIPE into a failure).
"${CLIENT[@]}" stats --addr "$CR_ADDR_B" | grep -F '"tmp_recovered": 1' >/dev/null \
    || { echo "error: tmp_recovered counter missing after the restart" >&2; exit 1; }

for pid_var in CR_B_PID CR_A_PID; do
    pid=${!pid_var}
    [[ -n "$pid" ]] || continue
    if [[ "$pid_var" == CR_A_PID ]]; then addr=$CR_ADDR_A; else addr=$CR_ADDR_B; fi
    "${CLIENT[@]}" shutdown --addr "$addr" >/dev/null \
        || { echo "error: crash-smoke node shutdown not acknowledged" >&2; exit 1; }
    for _ in $(seq 1 100); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    kill -0 "$pid" 2>/dev/null && { echo "error: crash-smoke node did not exit" >&2; exit 1; }
    printf -v "$pid_var" ''
done

echo "== OK =="
