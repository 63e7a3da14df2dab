#!/usr/bin/env sh
# Tier-1 verification gate for this repo (see ROADMAP.md).
#
# Offline-safe: every dependency is a path dependency (workspace crates
# plus the std-only shims under vendor/), so no network access is needed.
# Run from anywhere; the script cd's to the repo root.

set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release --workspace"
cargo build --release --workspace

# perfbench is its own crate outside the workspace and imports the
# engine's public API: an API change that breaks the benchmark fails
# here, not first in a benchmark run. --locked fails the build, instead
# of rewriting perfbench/Cargo.lock, when a change would move the lock.
echo "==> cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml"
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# First-party packages only: the vendored std-only shims (vendor/) are
# API stand-ins and are not held to the documentation bar.
echo "==> cargo doc --no-deps (first-party, warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps \
    -p clio -p clio-relational -p clio-core -p clio-datagen \
    -p clio-obs -p clio-incr -p clio-net -p clio-cli -p clio-bench \
    -p clio-pager -p clio-lang

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# Observability is recorded per scope: each test that reads counters,
# spans or histograms installs a recorder of its own, so these crates'
# unit tests need no lock to run concurrently. Run them twice with 8
# test threads: state leaking between concurrent tests fails here.
echo "==> cargo test --lib (obs-recording crates, 8 test threads, twice)"
for pass in 1 2; do
    cargo test -q --lib -p clio-obs -p clio-pager -p clio-core -p clio-cli \
        -p clio-relational -- --test-threads 8
done

# Benches are part of the contract (EXPERIMENTS.md reproduces from
# them); they must at least compile even though running them is not a
# gate.
echo "==> cargo bench --no-run"
cargo bench --no-run

# Mutant patches: each scripts/mutants/*.patch is a deliberate bug the
# tests its header names must catch. Running them all takes minutes
# (scripts/mutants.sh); here each patch must only still apply, so a
# change that moves the code a mutant patches is noticed.
echo "==> mutant patches apply (git apply --check scripts/mutants/*.patch)"
for patch in scripts/mutants/*.patch; do
    if ! git apply --check "$patch"; then
        echo "verify: FAILED — $patch no longer applies; update it (see scripts/mutants.sh)" >&2
        exit 1
    fi
done

# Help gate: `clio-shell --help` is generated from the flag table
# (crates/cli/src/config.rs) and the command table (command.rs), and must
# stay byte-identical to scripts/golden/help.txt. After an intentional
# change to a flag or a command, regenerate it with
#
#   target/release/clio-shell --help > scripts/golden/help.txt
echo "==> help-text gate (clio-shell --help)"
if ! target/release/clio-shell --help | diff -u scripts/golden/help.txt -; then
    echo "verify: FAILED — clio-shell --help drifted from scripts/golden/help.txt" >&2
    exit 1
fi

# Tier 2a: golden work-counter gate. A scripted demo run with one worker
# thread and the evaluation cache off must reproduce the checked-in
# counter snapshot byte-for-byte — counters are per-work-unit sums, so
# any drift means an algorithmic change (e.g. a hash join silently
# degrading to a nested loop), which must be acknowledged by
# regenerating the golden file:
#
#   target/release/clio-shell --script examples/scripts/demo.clio \
#       --metrics scripts/golden/demo-counters.json --threads 1 --no-cache
#
# --no-cache keeps the gate about the *algorithms*: with memoization on,
# repeated operators legitimately skip work (gate 2b covers that path).
#
# One counter is exempt from byte-exactness: `cache.saved_ns` sums the
# *measured* recompute time of the entries that answered hits, so it is
# wall-clock-derived and differs run to run. Every golden file stores
# it as 0 and the snapshots are normalized the same way before
# diffing; the counter's behaviour is pinned separately by unit tests.
normalize_saved_ns() {
    sed -i 's/"cache\.saved_ns": [0-9][0-9]*/"cache.saved_ns": 0/' "$1"
}
# The illustration solver warns (`clio: illustration: ...`, category
# `illustration`) when its minimum-cover search stops at its bound and
# the illustration it returns may not be minimal. The stderr of the
# demo run here and of the cyclic telemetry run (tier 2e) is kept, shown,
# and must hold no such warning: a bound hit on a shipped script is a
# regression, not noise.
check_illustration_bound() { # $1 stderr of a run, $2 what ran
    cat "$1" >&2
    if grep -Eq '^clio: (illustration: |further `illustration` )' "$1"; then
        echo "verify: FAILED — the illustration cover search hit its bound on $2" >&2
        exit 1
    fi
}
echo "==> golden counter gate (demo.clio, --threads 1, --no-cache)"
tmp_metrics="$(mktemp)"
tmp_stderr="$(mktemp)"
tmp_twice_metrics="$(mktemp)"
tmp_twice_script="$(mktemp)"
tmp_serial_out="$(mktemp)"
tmp_chunk_dir="$(mktemp -d)"
tmp_cache_dir="$(mktemp -d)"
tmp_diskwarm_out="$(mktemp)"
tmp_diskwarm_metrics="$(mktemp)"
tmp_cyclic_map="$(mktemp)"
tmp_telemetry_script="$(mktemp)"
tmp_telemetry_out="$(mktemp)"
tmp_telemetry_metrics="$(mktemp)"
tmp_trace_jsonl="$(mktemp)"
tmp_serve_out="$(mktemp)"
tmp_serve_metrics="$(mktemp)"
tmp_shutdown_script="$(mktemp)"
trap 'rm -f "$tmp_metrics" "$tmp_stderr" "$tmp_twice_metrics" "$tmp_twice_script" "$tmp_serial_out" "$tmp_diskwarm_out" "$tmp_diskwarm_metrics" "$tmp_cyclic_map" "$tmp_telemetry_script" "$tmp_telemetry_out" "$tmp_telemetry_metrics" "$tmp_trace_jsonl" "$tmp_serve_out" "$tmp_serve_metrics" "$tmp_shutdown_script"; rm -rf "$tmp_chunk_dir" "$tmp_cache_dir"' EXIT
target/release/clio-shell \
    --script examples/scripts/demo.clio \
    --metrics "$tmp_metrics" \
    --threads 1 --no-cache >/dev/null 2>"$tmp_stderr"
check_illustration_bound "$tmp_stderr" "demo.clio"
normalize_saved_ns "$tmp_metrics"
if ! diff -u scripts/golden/demo-counters.json "$tmp_metrics"; then
    echo "verify: FAILED — work counters drifted from scripts/golden/demo-counters.json" >&2
    echo "         (if the change is intentional, regenerate the golden file)" >&2
    exit 1
fi

# Tier 2b: golden warm-path gate. The demo command sequence is replayed
# TWICE through one engine process with the cache on; the second pass
# re-runs every operator against already-memoized state. The combined
# counters are pinned (the honest deterministic form of "the second run
# does less algorithmic work": any regression in cache effectiveness
# inflates join.probes/scan.tuples and shows up as a diff), and the run
# must record at least one cache hit. Regenerate after intentional
# changes with the same sed/cat recipe below, writing the --metrics
# output over scripts/golden/demo-twice-counters.json.
echo "==> golden warm-path gate (demo.clio twice, cache on, --threads 1)"
sed '/^quit$/d' examples/scripts/demo.clio > "$tmp_twice_script"
sed '/^quit$/d' examples/scripts/demo.clio >> "$tmp_twice_script"
echo quit >> "$tmp_twice_script"
target/release/clio-shell \
    --script "$tmp_twice_script" \
    --metrics "$tmp_twice_metrics" \
    --threads 1 >/dev/null
normalize_saved_ns "$tmp_twice_metrics"
if ! diff -u scripts/golden/demo-twice-counters.json "$tmp_twice_metrics"; then
    echo "verify: FAILED — warm-path counters drifted from scripts/golden/demo-twice-counters.json" >&2
    echo "         (if the change is intentional, regenerate the golden file)" >&2
    exit 1
fi
cache_hits="$(sed -n 's/.*"cache\.hits": \([0-9][0-9]*\).*/\1/p' "$tmp_twice_metrics")"
if [ -z "$cache_hits" ] || [ "$cache_hits" -eq 0 ]; then
    echo "verify: FAILED — replaying demo.clio twice recorded no cache hits" >&2
    exit 1
fi
echo "    cache.hits = $cache_hits"

# Tier 2c: concurrent-session determinism gate. The demo script is run
# as FOUR concurrent sessions over one shared snapshot (the PR 4
# session service, see docs/concurrency.md); each session's chunk of
# the batch output must be byte-identical to a plain serial --script
# run. Any divergence means session isolation broke — shared mutable
# state leaking between sessions, or nondeterministic result merging.
echo "==> concurrent-session gate (demo.clio x4, --sessions 4, --threads 1)"
target/release/clio-shell \
    --script examples/scripts/demo.clio --threads 1 > "$tmp_serial_out"
target/release/clio-shell \
    --sessions 4 --threads 1 \
    examples/scripts/demo.clio examples/scripts/demo.clio \
    examples/scripts/demo.clio examples/scripts/demo.clio \
    | awk -v dir="$tmp_chunk_dir" '
        /^=== session [0-9]+: / { n++; next }
        n { print > (dir "/chunk" n-1) }'
for i in 0 1 2 3; do
    if ! diff -u "$tmp_serial_out" "$tmp_chunk_dir/chunk$i"; then
        echo "verify: FAILED — concurrent session $i diverged from the serial demo run" >&2
        exit 1
    fi
done
echo "    4 concurrent sessions byte-identical to serial"

# Tier 2d: disk-warm restart gate (PR 5 persistence). The demo runs
# with --cache-dir into a fresh directory (cold, populating the store),
# then FRESH PROCESSES replay it over the same directory. The cold run's
# and the disk-warm replay's stdout must be byte-identical to the plain
# serial run (persistence is invisible; the demo's in-shell `stats`
# table is all-zero without --metrics, so the comparison is exact), and
# a metrics-enabled replay's counter snapshot is pinned — it must match
# scripts/golden/demo-diskwarm-counters.json, which records
# cache.disk_hits > 0 (the replay really was served from disk).
# Regenerate after intentional changes by re-running the commands below
# and copying the --metrics output over the golden file.
echo "==> disk-warm restart gate (demo.clio, --cache-dir, fresh process replay)"
target/release/clio-shell \
    --script examples/scripts/demo.clio --threads 1 \
    --cache-dir "$tmp_cache_dir" > "$tmp_diskwarm_out"
if ! diff -u "$tmp_serial_out" "$tmp_diskwarm_out"; then
    echo "verify: FAILED — cold --cache-dir run diverged from the plain serial run" >&2
    exit 1
fi
target/release/clio-shell \
    --script examples/scripts/demo.clio --threads 1 \
    --cache-dir "$tmp_cache_dir" > "$tmp_diskwarm_out"
if ! diff -u "$tmp_serial_out" "$tmp_diskwarm_out"; then
    echo "verify: FAILED — disk-warm restart diverged from the plain serial run" >&2
    exit 1
fi
target/release/clio-shell \
    --script examples/scripts/demo.clio --threads 1 \
    --cache-dir "$tmp_cache_dir" \
    --metrics "$tmp_diskwarm_metrics" >/dev/null
normalize_saved_ns "$tmp_diskwarm_metrics"
if ! diff -u scripts/golden/demo-diskwarm-counters.json "$tmp_diskwarm_metrics"; then
    echo "verify: FAILED — disk-warm counters drifted from scripts/golden/demo-diskwarm-counters.json" >&2
    echo "         (if the change is intentional, regenerate the golden file)" >&2
    exit 1
fi
disk_hits="$(sed -n 's/.*"cache\.disk_hits": \([0-9][0-9]*\).*/\1/p' "$tmp_diskwarm_metrics")"
if [ -z "$disk_hits" ] || [ "$disk_hits" -eq 0 ]; then
    echo "verify: FAILED — restarted --cache-dir process recorded no disk hits" >&2
    exit 1
fi
echo "    cache.disk_hits = $disk_hits"

# Tier 2e: timing-telemetry gate (PR 6, docs/observability.md § Timing).
# The demo plus a loaded CYCLIC mapping (so the lattice full-disjunction
# plan runs, not just the tree-graph outer join) is traced with
# --trace-out and --metrics. The gate checks the whole export path:
# every JSONL line is a well-formed Chrome trace event, the event count
# equals the --trace tree's span count, and the metrics report carries
# nonzero latency histograms for `fd.lattice` and `incr.fd`. The golden
# gates above run WITHOUT tracing, so histogram keys never appear there
# — timing stays invisible to the counter snapshots by construction.
echo "==> timing-telemetry gate (demo + cyclic mapping, --trace-out, --metrics)"
cat > "$tmp_cyclic_map" <<'EOF'
MAP Kids (ID str not null, name str, affiliation str, address str, contactPh str, BusSchedule str, FamilyIncome int)
FROM Children, Parents, PhoneDir
JOIN Children, Parents ON Children.mid = Parents.ID
JOIN Parents, PhoneDir ON PhoneDir.ID = Parents.ID
JOIN Children, PhoneDir ON Children.mid = PhoneDir.ID
SELECT Children.ID AS ID, Children.name AS name, Parents.affiliation AS affiliation, PhoneDir.number AS contactPh
EOF
sed '/^quit$/d' examples/scripts/demo.clio > "$tmp_telemetry_script"
{
    echo "load $tmp_cyclic_map"
    echo "target"
    echo "quit"
} >> "$tmp_telemetry_script"
target/release/clio-shell \
    --script "$tmp_telemetry_script" --threads 1 \
    --trace --trace-out "$tmp_trace_jsonl" \
    --metrics "$tmp_telemetry_metrics" > "$tmp_telemetry_out" 2>"$tmp_stderr"
check_illustration_bound "$tmp_stderr" "demo.clio plus the cyclic mapping"
span_count="$(sed -n 's/^trace: \([0-9][0-9]*\) spans* on .*/\1/p' "$tmp_telemetry_out")"
if [ -z "$span_count" ] || [ "$span_count" -eq 0 ]; then
    echo "verify: FAILED — traced telemetry run printed no span tree" >&2
    exit 1
fi
event_count="$(wc -l < "$tmp_trace_jsonl" | tr -d ' ')"
if [ "$event_count" -ne "$span_count" ]; then
    echo "verify: FAILED — --trace-out exported $event_count events for $span_count spans" >&2
    exit 1
fi
python3 - "$tmp_trace_jsonl" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    for lineno, line in enumerate(f, 1):
        event = json.loads(line)
        for key in ("ph", "ts", "dur", "name", "pid", "tid"):
            assert key in event, f"line {lineno}: missing `{key}`: {line!r}"
        assert event["ph"] == "X", f"line {lineno}: not a complete event"
EOF
python3 - "$tmp_telemetry_metrics" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
hists = report.get("histograms", {})
for name in ("fd.lattice", "incr.fd", "incr.fd.scheduled"):
    count = hists.get(name, {}).get("count", 0)
    assert count > 0, f"histogram `{name}` missing or empty: {sorted(hists)}"
EOF
echo "    $event_count trace events = $span_count spans; fd.lattice + incr.fd + incr.fd.scheduled histograms populated"

# Tier 2f: eviction-pressure gate (docs/incremental.md § Eviction &
# cost model). The demo plus the cyclic mapping is replayed twice in
# one process, once with the unbounded default budget and once with the
# cache's byte budget shrunk to half the workload's measured demand
# (`cache limit` mid-script). The gate pins the end-to-end wiring under
# real pressure: the budget actually binds (the half-budget run must
# record evictions), eviction still converts lookups into hits under
# that pressure, and eviction is answer-invisible — both runs' stdout
# byte-identical. The in-shell `stats` counter table is the one
# legitimate difference (hit/miss/eviction counts are exactly what a
# budget is *allowed* to change), so its rows are filtered out of the
# comparison. Eviction quality across budgets and edit patterns is
# measured by the B14 sweep (EXPERIMENTS.md) and the bench
# `incremental_eviction_policy` group.
echo "==> eviction-pressure gate (demo + cyclic mapping twice, half budget vs unbounded)"
tmp_evict_script="$(mktemp)"
tmp_evict_probe="$(mktemp)"
tmp_evict_half="$(mktemp)"
tmp_evict_full_out="$(mktemp)"
tmp_evict_half_out="$(mktemp)"
evict_body() {
    sed '/^quit$/d' examples/scripts/demo.clio
    echo "load $tmp_cyclic_map"
    echo "target"
}
{ evict_body; evict_body; echo quit; } > "$tmp_evict_script"
target/release/clio-shell \
    --script "$tmp_evict_script" --threads 1 \
    --metrics "$tmp_evict_probe" > "$tmp_evict_full_out"
demand_bytes="$(sed -n 's/.*"cache\.bytes": \([0-9][0-9]*\).*/\1/p' "$tmp_evict_probe")"
budget=$((demand_bytes / 2))
{ echo "cache limit $budget"; evict_body; evict_body; echo quit; } > "$tmp_evict_script"
target/release/clio-shell \
    --script "$tmp_evict_script" --threads 1 \
    --metrics "$tmp_evict_half" > "$tmp_evict_half_out"
strip_counter_rows() {
    sed -i '/^[a-z_.][a-z_.]*  *[0-9][0-9]*$/d' "$1"
}
strip_counter_rows "$tmp_evict_full_out"
strip_counter_rows "$tmp_evict_half_out"
# the half-budget script opens with `cache limit`: drop its echo and `ok`
sed -i '1{/^clio> cache limit /d}' "$tmp_evict_half_out"
sed -i '1{/^ok$/d}' "$tmp_evict_half_out"
if ! diff -u "$tmp_evict_full_out" "$tmp_evict_half_out"; then
    echo "verify: FAILED — half budget changed shell output (eviction must be answer-invisible)" >&2
    exit 1
fi
counter() { sed -n 's/.*"'"$2"'": \([0-9][0-9]*\).*/\1/p' "$1"; }
half_hits="$(counter "$tmp_evict_half" 'cache\.hits')"
half_evictions="$(counter "$tmp_evict_half" 'cache\.evictions')"
if [ -z "$half_evictions" ] || [ "$half_evictions" -eq 0 ]; then
    echo "verify: FAILED — half budget ($budget bytes) induced no evictions" >&2
    exit 1
fi
if [ -z "$half_hits" ] || [ "$half_hits" -eq 0 ]; then
    echo "verify: FAILED — half budget ($budget bytes) served no hits" >&2
    exit 1
fi
rm -f "$tmp_evict_script" "$tmp_evict_probe" "$tmp_evict_half" \
    "$tmp_evict_full_out" "$tmp_evict_half_out"
echo "    half budget = $budget bytes: $half_hits hits / $half_evictions evictions"

# Tier 2g: networked-service gate (PR 8, docs/service.md). Phase A
# starts `clio-shell serve` on an ephemeral port and drives FOUR
# concurrent `connect --script demo.clio` clients; each client's stdout
# must be byte-identical to the serial --script run from tier 2c (the
# framed TCP path is answer-invisible), and the server must exit 0 when
# a client sends the protocol-level `shutdown`. Phase B repeats with
# --metrics and exactly four accepted connections (three demo clients
# plus one quit-stripped-demo + shutdown client) and pins the service
# counters: net.accepted == 4, net.frame_errors == 0 (no client sent a
# malformed frame; frame-fault handling itself is pinned by the
# crates/cli/tests/net_service.rs integration tests), and the shared
# cache store really is shared — later connections warm from earlier
# connections' spills (cache.hits > 0, cache.disk_hits > 0).
echo "==> networked-service gate (serve + 4 concurrent connect clients)"
wait_for_addr() {
    serve_addr=""
    tries=0
    while [ "$tries" -lt 100 ]; do
        serve_addr="$(sed -n 's/^listening on //p' "$1")"
        [ -n "$serve_addr" ] && return 0
        sleep 0.1
        tries=$((tries + 1))
    done
    echo "verify: FAILED — serve never announced its address" >&2
    return 1
}
: > "$tmp_serve_out"
target/release/clio-shell serve --port 0 --max-conns 4 --threads 1 \
    > "$tmp_serve_out" &
serve_pid=$!
wait_for_addr "$tmp_serve_out" || { kill "$serve_pid" 2>/dev/null; exit 1; }
client_pids=""
for i in 1 2 3 4; do
    target/release/clio-shell connect "$serve_addr" \
        --script examples/scripts/demo.clio > "$tmp_chunk_dir/net$i" &
    client_pids="$client_pids $!"
done
for pid in $client_pids; do
    if ! wait "$pid"; then
        echo "verify: FAILED — a networked client exited nonzero" >&2
        kill "$serve_pid" 2>/dev/null
        exit 1
    fi
done
for i in 1 2 3 4; do
    if ! diff -u "$tmp_serial_out" "$tmp_chunk_dir/net$i"; then
        echo "verify: FAILED — networked client $i diverged from the serial demo run" >&2
        kill "$serve_pid" 2>/dev/null
        exit 1
    fi
done
printf 'shutdown\n' | target/release/clio-shell connect "$serve_addr" >/dev/null
if ! wait "$serve_pid"; then
    echo "verify: FAILED — server did not exit cleanly on shutdown" >&2
    exit 1
fi
echo "    4 concurrent networked clients byte-identical to serial; clean shutdown"
: > "$tmp_serve_out"
target/release/clio-shell serve --port 0 --max-conns 4 --threads 1 \
    --metrics "$tmp_serve_metrics" > "$tmp_serve_out" &
serve_pid=$!
wait_for_addr "$tmp_serve_out" || { kill "$serve_pid" 2>/dev/null; exit 1; }
for i in 1 2 3; do
    target/release/clio-shell connect "$serve_addr" \
        --script examples/scripts/demo.clio >/dev/null
done
sed '/^quit$/d' examples/scripts/demo.clio > "$tmp_shutdown_script"
echo shutdown >> "$tmp_shutdown_script"
target/release/clio-shell connect "$serve_addr" \
    --script "$tmp_shutdown_script" >/dev/null
if ! wait "$serve_pid"; then
    echo "verify: FAILED — metrics server did not exit cleanly on shutdown" >&2
    exit 1
fi
# First match only: the report also mirrors every counter into
# per-connection session tables, and only the top-level total is wanted.
net_accepted="$(counter "$tmp_serve_metrics" 'net\.accepted' | head -n 1)"
net_frame_errors="$(counter "$tmp_serve_metrics" 'net\.frame_errors' | head -n 1)"
net_hits="$(counter "$tmp_serve_metrics" 'cache\.hits' | head -n 1)"
net_disk_hits="$(counter "$tmp_serve_metrics" 'cache\.disk_hits' | head -n 1)"
if [ "${net_accepted:-0}" -ne 4 ]; then
    echo "verify: FAILED — expected net.accepted == 4, got ${net_accepted:-none}" >&2
    exit 1
fi
if [ "${net_frame_errors:-1}" -ne 0 ]; then
    echo "verify: FAILED — well-formed clients recorded net.frame_errors = ${net_frame_errors:-none}" >&2
    exit 1
fi
if [ -z "$net_hits" ] || [ "$net_hits" -eq 0 ]; then
    echo "verify: FAILED — networked sessions recorded no cache hits" >&2
    exit 1
fi
if [ -z "$net_disk_hits" ] || [ "$net_disk_hits" -eq 0 ]; then
    echo "verify: FAILED — connections did not warm from the shared store (cache.disk_hits = 0)" >&2
    exit 1
fi
echo "    net.accepted = $net_accepted, net.frame_errors = $net_frame_errors, cache.hits = $net_hits, cache.disk_hits = $net_disk_hits"

# Tier 2h: paged-backend gate (PR 9, docs/storage.md). The paper
# database is spilled to a paged on-disk directory by the shell's own
# `db save`, then the demo replays over it with --db-dir and a buffer
# pool (2 pages) far smaller than the heap files, so relations stream
# through the pager instead of loading as a unit. The paged stdout must
# be byte-identical to the plain serial run from tier 2c (the storage
# backend is answer-invisible), and so must each chunk of a tier-2c
# style 4-session concurrent batch over the same directory. A metrics
# replay then pins that paging really happened — pager.misses > 0 and
# pager.evictions > 0 (the 2-page pool actually bounded memory) — and
# that the read path was clean (pager.load_errors == 0; a nonzero count
# means a checksum or framing fault degraded a page to a logged error).
echo "==> paged-backend gate (db save + demo.clio over --db-dir, pool 2)"
tmp_db_dir="$(mktemp -d)"
tmp_paged_out="$(mktemp)"
tmp_paged_metrics="$(mktemp)"
tmp_save_script="$(mktemp)"
{ echo "db save $tmp_db_dir/pg"; echo quit; } > "$tmp_save_script"
target/release/clio-shell --script "$tmp_save_script" >/dev/null
target/release/clio-shell \
    --script examples/scripts/demo.clio --threads 1 \
    --db-dir "$tmp_db_dir/pg" --db-pool 2 > "$tmp_paged_out"
if ! diff -u "$tmp_serial_out" "$tmp_paged_out"; then
    echo "verify: FAILED — paged-backend run diverged from the plain serial run" >&2
    rm -rf "$tmp_db_dir"; rm -f "$tmp_paged_out" "$tmp_paged_metrics" "$tmp_save_script"
    exit 1
fi
target/release/clio-shell \
    --sessions 4 --threads 1 --db-dir "$tmp_db_dir/pg" --db-pool 2 \
    examples/scripts/demo.clio examples/scripts/demo.clio \
    examples/scripts/demo.clio examples/scripts/demo.clio \
    | awk -v dir="$tmp_chunk_dir" '
        /^=== session [0-9]+: / { n++; next }
        n { print > (dir "/paged" n-1) }'
for i in 0 1 2 3; do
    if ! diff -u "$tmp_serial_out" "$tmp_chunk_dir/paged$i"; then
        echo "verify: FAILED — paged concurrent session $i diverged from the serial demo run" >&2
        rm -rf "$tmp_db_dir"; rm -f "$tmp_paged_out" "$tmp_paged_metrics" "$tmp_save_script"
        exit 1
    fi
done
target/release/clio-shell \
    --script examples/scripts/demo.clio --threads 1 \
    --db-dir "$tmp_db_dir/pg" --db-pool 2 \
    --metrics "$tmp_paged_metrics" >/dev/null
pager_misses="$(counter "$tmp_paged_metrics" 'pager\.misses' | head -n 1)"
pager_evictions="$(counter "$tmp_paged_metrics" 'pager\.evictions' | head -n 1)"
pager_load_errors="$(counter "$tmp_paged_metrics" 'pager\.load_errors' | head -n 1)"
rm -rf "$tmp_db_dir"; rm -f "$tmp_paged_out" "$tmp_paged_metrics" "$tmp_save_script"
if [ "${pager_misses:-0}" -eq 0 ]; then
    echo "verify: FAILED — paged run recorded no pager misses (nothing streamed from disk)" >&2
    exit 1
fi
if [ "${pager_evictions:-0}" -eq 0 ]; then
    echo "verify: FAILED — the 2-page buffer pool never evicted (pool did not bound memory)" >&2
    exit 1
fi
if [ "${pager_load_errors:-1}" -ne 0 ]; then
    echo "verify: FAILED — paged run degraded pages (pager.load_errors = ${pager_load_errors:-none})" >&2
    exit 1
fi
echo "    paged demo + 4 concurrent paged sessions byte-identical; pager.misses = $pager_misses, pager.evictions = $pager_evictions, pager.load_errors = $pager_load_errors"

# Tier 2i: planner / MAP-language gate (docs/planner.md). A
# cyclic mapping (three-node cycle plus a pushable source filter) is
# loaded from its MAP file and `save`d; the original file and the saved
# copy are then each loaded and run through `target`, `map show` (the
# canonical printer) and `explain` (must render a plan tree). The two
# runs' stdout (prompt-echo lines stripped, since the load paths differ)
# must be byte-identical: `save` writes a mapping `load` reads back
# unchanged. Every mapping evaluation runs through the plan, so a plain
# metrics replay then pins that the rewrite really fired:
# plan.pushed_filters > 0 (the filter was pushed below the union) and
# plan.evals > 0 (evaluation actually ran a plan). That the pushdown is
# answer-invisible is pinned by the byte-identity proptests against a
# no-pushdown reference. The plan tree itself is pinned too: the MAP
# file's `explain`, run with --no-cache so every branch is marked
# `[cold]`, must match
# scripts/golden/explain-cyclic.txt byte-for-byte. Regenerate it after
# an intentional plan change with
#
#   printf 'load <the MAP file below>\nexplain\nquit\n' > explain.clio
#   target/release/clio-shell --script explain.clio --threads 1 --no-cache \
#       | sed '/^clio> /d' > scripts/golden/explain-cyclic.txt
echo "==> planner gate (MAP file vs its saved copy, explain, cyclic counters, cache-on replay, pushdown counters)"
tmp_lang_map="$(mktemp)"
tmp_lang_saved="$(mktemp)"
tmp_lang_script_save="$(mktemp)"
tmp_lang_script_a="$(mktemp)"
tmp_lang_script_b="$(mktemp)"
tmp_lang_out_a="$(mktemp)"
tmp_lang_out_b="$(mktemp)"
tmp_plan_metrics="$(mktemp)"
tmp_explain_script="$(mktemp)"
tmp_explain_out="$(mktemp)"
tmp_cyclic_metrics="$(mktemp)"
tmp_cyclic_replay="$(mktemp)"
tmp_cyclic_off="$(mktemp)"
tmp_cyclic_on="$(mktemp)"
cat > "$tmp_lang_map" <<'EOF'
MAP Kids (ID str not null, name str, affiliation str, address str, contactPh str, BusSchedule str, FamilyIncome int)
FROM Children, Parents, PhoneDir
JOIN Children, Parents ON Children.mid = Parents.ID
JOIN Parents, PhoneDir ON PhoneDir.ID = Parents.ID
JOIN Children, PhoneDir ON Children.mid = PhoneDir.ID
WHERE SOURCE Children.age < 7
SELECT Children.ID AS ID, Children.name AS name, Parents.affiliation AS affiliation, PhoneDir.number AS contactPh
EOF
{ echo "load $tmp_lang_map"; echo "save $tmp_lang_saved"; echo quit; } > "$tmp_lang_script_save"
target/release/clio-shell --script "$tmp_lang_script_save" --threads 1 >/dev/null
{ echo "load $tmp_lang_map"; echo target; echo "map show"; echo explain; echo quit; } > "$tmp_lang_script_a"
{ echo "load $tmp_lang_saved"; echo target; echo "map show"; echo explain; echo quit; } > "$tmp_lang_script_b"
run_and_strip() { # $1 script, $2 output; prompt-echo lines removed
    target/release/clio-shell --script "$1" --threads 1 > "$2"
    sed -i '/^clio> /d' "$2"
}
run_and_strip "$tmp_lang_script_a" "$tmp_lang_out_a"
run_and_strip "$tmp_lang_script_b" "$tmp_lang_out_b"
if ! diff -u "$tmp_lang_out_a" "$tmp_lang_out_b"; then
    echo "verify: FAILED — the saved copy's run diverged from the original MAP file's run" >&2
    exit 1
fi
{ echo "load $tmp_lang_map"; echo explain; echo quit; } > "$tmp_explain_script"
target/release/clio-shell --script "$tmp_explain_script" --threads 1 --no-cache \
    | sed '/^clio> /d' > "$tmp_explain_out"
if ! diff -u scripts/golden/explain-cyclic.txt "$tmp_explain_out"; then
    echo "verify: FAILED — explain drifted from scripts/golden/explain-cyclic.txt" >&2
    echo "         (if the change is intentional, regenerate the golden file)" >&2
    exit 1
fi
# The same run with --threads 1 --no-cache is the cyclic work-counter
# gate: unlike the demo goldens (tree graphs, `"fd.subgraphs": 0`) it
# runs the lattice `D(G)` union — the examples' un-pushed one and the
# plan's pushed one — so its counters must match
# scripts/golden/cyclic-counters.json byte-for-byte, as in tier 2a.
# Regenerate after an intentional change with
#
#   printf 'load <the MAP file below>\ntarget\nmap show\nexplain\nquit\n' > cyclic.clio
#   target/release/clio-shell --script cyclic.clio --threads 1 --no-cache \
#       --metrics scripts/golden/cyclic-counters.json >/dev/null
target/release/clio-shell --script "$tmp_lang_script_a" --threads 1 --no-cache \
    --metrics "$tmp_cyclic_metrics" >/dev/null
normalize_saved_ns "$tmp_cyclic_metrics"
if ! diff -u scripts/golden/cyclic-counters.json "$tmp_cyclic_metrics"; then
    echo "verify: FAILED — cyclic work counters drifted from scripts/golden/cyclic-counters.json" >&2
    echo "         (if the change is intentional, regenerate the golden file)" >&2
    exit 1
fi
# The MAP file's load, target and map show, replayed with the cache on,
# must print what the --no-cache run prints. With the cache off the
# lattice D(G) is projected through its tuple ids; with it on, the
# examples' D(G) inserts every F(J) as tuple ids and `target`'s pushed
# branches are served from those entries. (explain is left out: with
# the cache on, it marks the branches the examples warmed `[warm]`.)
{ echo "load $tmp_lang_map"; echo target; echo "map show"; echo quit; } > "$tmp_cyclic_replay"
target/release/clio-shell --script "$tmp_cyclic_replay" --threads 1 --no-cache > "$tmp_cyclic_off"
target/release/clio-shell --script "$tmp_cyclic_replay" --threads 1 > "$tmp_cyclic_on"
if ! diff -u "$tmp_cyclic_off" "$tmp_cyclic_on"; then
    echo "verify: FAILED — the cyclic script printed differently with the cache on" >&2
    exit 1
fi
target/release/clio-shell --script "$tmp_lang_script_a" --threads 1 \
    --metrics "$tmp_plan_metrics" >/dev/null
plan_pushed="$(counter "$tmp_plan_metrics" 'plan\.pushed_filters' | head -n 1)"
plan_evals="$(counter "$tmp_plan_metrics" 'plan\.evals' | head -n 1)"
rm -f "$tmp_lang_map" "$tmp_lang_saved" "$tmp_lang_script_save" "$tmp_lang_script_a" \
    "$tmp_lang_script_b" "$tmp_lang_out_a" "$tmp_lang_out_b" "$tmp_plan_metrics" \
    "$tmp_explain_script" "$tmp_explain_out" "$tmp_cyclic_metrics" "$tmp_cyclic_replay" \
    "$tmp_cyclic_off" "$tmp_cyclic_on"
if [ "${plan_pushed:-0}" -eq 0 ]; then
    echo "verify: FAILED — the plan pushed no filters (plan.pushed_filters = ${plan_pushed:-none})" >&2
    exit 1
fi
if [ "${plan_evals:-0}" -eq 0 ]; then
    echo "verify: FAILED — mapping evaluation ran no plan (plan.evals = 0)" >&2
    exit 1
fi
echo "    MAP file == its saved copy (byte-identical); explain == golden; cyclic counters == golden; cache-on replay == --no-cache stdout; plan.pushed_filters = $plan_pushed, plan.evals = $plan_evals"

# Tier 2j: chain-refresh counter gate. The bulk refresh — the synthetic
# 4-relation chain of 1000 rows each, a 2-relation prefix mapping
# accepted first and the full chain mapping active — runs with one
# worker thread and the cache off, and its work counters (join.probes,
# subsumption.comparisons, scan.tuples, dedup.rows, ...) must match
# scripts/golden/chain-counters.json byte-for-byte, as in tier 2a. It
# pins the joins, the merge dedup and the minimum union's subsumption
# at a size the demo goldens do not reach. The same script is then
# replayed with the cache on, and its stdout must equal the cache-off
# run's: the cache-off preview projects through the tree D(G)'s tuple
# ids as computed, the cache-on one through the ids memoized under
# "D(G).tree.ids", and both must print the same 1000-row answer. Regenerate after an intentional change
# with
#
#   printf 'load <prefix MAP>\naccept\nload <chain MAP>\ntarget\nquit\n' > chain.clio
#   target/release/clio-shell --synthetic chain,4,1000 --threads 1 --no-cache \
#       --script chain.clio --metrics scripts/golden/chain-counters.json >/dev/null
#
# with the two MAP files below.
#
# Both of those runs project through the same code, so an answer that is
# wrong the same way with the cache on and off would pass them. The
# answer itself is pinned too: the cksum of the table lines of the
# cache-off stdout must match scripts/golden/chain-preview.cksum.
# Regenerate it, after a change meant to move the answer, with
#
#   target/release/clio-shell --synthetic chain,4,1000 --threads 1 --no-cache \
#       --script chain.clio | grep '^|' | cksum > scripts/golden/chain-preview.cksum
echo "==> chain-refresh counter gate (--synthetic chain,4,1000, prefix accepted, --threads 1, --no-cache, then cache on)"
tmp_chain_prefix="$(mktemp)"
tmp_chain_full="$(mktemp)"
tmp_chain_script="$(mktemp)"
tmp_chain_metrics="$(mktemp)"
tmp_chain_out="$(mktemp)"
tmp_chain_cached_out="$(mktemp)"
cat > "$tmp_chain_prefix" <<'EOF'
MAP T (B0 str not null, B1 str, B2 str, B3 str)
FROM R0, R1
JOIN R0, R1 ON R1.l0 = R0.id
SELECT R0.p0 AS B0, R1.p0 AS B1
WHERE TARGET T.B0 IS NOT NULL
EOF
cat > "$tmp_chain_full" <<'EOF'
MAP T (B0 str not null, B1 str, B2 str, B3 str)
FROM R0, R1, R2, R3
JOIN R0, R1 ON R1.l0 = R0.id
JOIN R1, R2 ON R2.l1 = R1.id
JOIN R2, R3 ON R3.l2 = R2.id
SELECT R0.p0 AS B0, R1.p0 AS B1, R2.p0 AS B2, R3.p0 AS B3
WHERE TARGET T.B0 IS NOT NULL
EOF
{
    echo "load $tmp_chain_prefix"
    echo accept
    echo "load $tmp_chain_full"
    echo target
    echo quit
} > "$tmp_chain_script"
target/release/clio-shell --synthetic chain,4,1000 --threads 1 --no-cache \
    --script "$tmp_chain_script" --metrics "$tmp_chain_metrics" >"$tmp_chain_out"
normalize_saved_ns "$tmp_chain_metrics"
target/release/clio-shell --synthetic chain,4,1000 --threads 1 \
    --script "$tmp_chain_script" >"$tmp_chain_cached_out"
chain_diff=0
diff -u scripts/golden/chain-counters.json "$tmp_chain_metrics" || chain_diff=1
chain_cached_diff=0
diff -u "$tmp_chain_out" "$tmp_chain_cached_out" || chain_cached_diff=1
chain_answer="$(grep '^|' "$tmp_chain_out" | cksum)"
rm -f "$tmp_chain_prefix" "$tmp_chain_full" "$tmp_chain_script" "$tmp_chain_metrics" \
    "$tmp_chain_out" "$tmp_chain_cached_out"
if [ "$chain_diff" -ne 0 ]; then
    echo "verify: FAILED — chain-refresh counters drifted from scripts/golden/chain-counters.json" >&2
    echo "         (if the change is intentional, regenerate the golden file)" >&2
    exit 1
fi
if [ "$chain_cached_diff" -ne 0 ]; then
    echo "verify: FAILED — the chain refresh printed a different answer with the cache on" >&2
    exit 1
fi
if [ "$chain_answer" != "$(cat scripts/golden/chain-preview.cksum)" ]; then
    echo "verify: FAILED — the chain refresh's answer ($chain_answer) drifted from scripts/golden/chain-preview.cksum" >&2
    exit 1
fi
echo "    chain refresh counters == golden; cache-on answer == cache-off answer; answer cksum == golden"

# Tier 2k: example-verb gate. The example population's readers — the
# `examples` listing, `alternatives` for a slot, `swap` and the
# `illustration` it leaves — run on the Kids mapping (three
# correspondences, the mid scenario confirmed) on slot 0, which has
# alternatives. The script runs once with the cache on and once with
# --no-cache, and both stdouts must match
# scripts/golden/alternatives-kids.txt byte-for-byte. Regenerate it,
# after a change meant to move what these verbs print, with
#
#   printf '%s\n' 'corr Children.ID -> ID' 'corr Children.name -> name' \
#       'corr Parents.affiliation -> affiliation' 'confirm 1' examples \
#       'alternatives 0' 'swap 0 0' illustration quit > alternatives.clio
#   target/release/clio-shell --script alternatives.clio --threads 1 \
#       > scripts/golden/alternatives-kids.txt
echo "==> example-verb gate (examples, alternatives, swap, illustration; cache on and off)"
tmp_alt_script="$(mktemp)"
tmp_alt_on="$(mktemp)"
tmp_alt_off="$(mktemp)"
printf '%s\n' 'corr Children.ID -> ID' 'corr Children.name -> name' \
    'corr Parents.affiliation -> affiliation' 'confirm 1' examples \
    'alternatives 0' 'swap 0 0' illustration quit > "$tmp_alt_script"
target/release/clio-shell --script "$tmp_alt_script" --threads 1 >"$tmp_alt_on"
target/release/clio-shell --script "$tmp_alt_script" --threads 1 --no-cache >"$tmp_alt_off"
alt_diff=0
diff -u scripts/golden/alternatives-kids.txt "$tmp_alt_on" || alt_diff=1
diff -u scripts/golden/alternatives-kids.txt "$tmp_alt_off" || alt_diff=1
rm -f "$tmp_alt_script" "$tmp_alt_on" "$tmp_alt_off"
if [ "$alt_diff" -ne 0 ]; then
    echo "verify: FAILED — the example verbs drifted from scripts/golden/alternatives-kids.txt" >&2
    echo "         (if the change is intentional, regenerate the golden file)" >&2
    exit 1
fi
echo "    examples / alternatives / swap / illustration == golden, cache on and off"

echo "verify: OK"
