#!/usr/bin/env bash
# Tier-1 verification for a hermetic checkout: offline release build, the
# full offline test suite, and a gate that fails if any Cargo.toml
# reintroduces an external registry dependency.
#
# Usage: scripts/check.sh   (from anywhere; cd's to the repo root)
set -euo pipefail

cd "$(dirname "$0")/.."

# A grep gate: fail with message $1 when its findings $2 are not empty.
gate() {
    [ -z "$2" ] || { echo "$1"; echo "$2"; exit 1; }
}

# Lines matching regex $1 in the files that follow, comments and everything
# from a file's first `#[cfg(test)]` down left out.
nontest() {
    local re=$1
    shift
    re=$re awk '
        /#\[cfg\(test\)\]/ { intest[FILENAME] = 1 }
        !intest[FILENAME] && $0 !~ /^[[:space:]]*\/\// && $0 ~ ENVIRON["re"] { print FILENAME ": " $0 }
    ' "$@"
}

# ---------------------------------------------------------------------------
# Gate: zero registry dependencies anywhere in the workspace.
#
# Policy (see README "Hermetic build"): every [dependencies] /
# [dev-dependencies] / [build-dependencies] entry must be a path/workspace
# dependency on an in-repo crate. A version-only requirement like
# `foo = "1"` or `foo = { version = "1", ... }` means cargo would hit the
# registry, which the target environment cannot reach.
# ---------------------------------------------------------------------------
echo "== registry-dependency gate =="
fail=0
while IFS= read -r manifest; do
    # Lines inside dependency tables of the form `name = "semver"` or
    # `name = { version = ... }`; workspace/path deps never match.
    bad=$(awk '
        /^\[.*dependencies[.\]]?/ { indeps = ($0 ~ /dependencies/) }
        /^\[/ && $0 !~ /dependencies/ { indeps = 0 }
        indeps && /^[A-Za-z0-9_-]+[[:space:]]*=[[:space:]]*"/ { print FILENAME ": " $0 }
        indeps && /^[A-Za-z0-9_-]+[[:space:]]*=.*version/ { print FILENAME ": " $0 }
    ' "$manifest")
    if [ -n "$bad" ]; then
        echo "registry dependency detected:"
        echo "$bad"
        fail=1
    fi
done < <(find . -name Cargo.toml -not -path "./target/*")
if [ "$fail" -ne 0 ]; then
    echo "FAIL: external registry dependencies are not allowed (use crates/compat)"
    exit 1
fi
echo "ok: no registry dependencies"

# ---------------------------------------------------------------------------
# Gate: every emitted name is declared once, in a typed place.
#
# Counters and trace events share one sink in the `Scheduler` and one
# namespace (DESIGN §9). Each crate declares the names it emits in its
# `metrics.rs`; a string literal handed straight to a recording call forks
# the namespace, and the same literal declared twice merges two counters
# silently. (rustfmt puts a first argument either on the call's line or
# alone on the next one; both are checked. `crates/sim/src` is the sink
# itself and its unit tests.)
# ---------------------------------------------------------------------------
echo "== typed-names gate =="
emitters=$(find crates/*/src -name '*.rs' | grep -v -e '/metrics\.rs$' -e '^crates/sim/src/')
bad=$(awk '
    wrapped && /^[[:space:]]*"/ { print FILENAME ":" FNR ": " $0 }
    { wrapped = ($0 ~ /\.(count|count_n|mark|trace_instant|trace_span|trace_span_in)\($/) }
    /\.(count|count_n|mark|trace_instant|trace_span|trace_span_in)\("/ { print FILENAME ":" FNR ": " $0 }
' $emitters)
gate "string literal recorded as a metric or trace name (declare it in the crate's metrics.rs):" "$bad"
gate "Metric::counter(\"...\") outside a metrics.rs (an inline name escapes the uniqueness check):" \
    "$(nontest 'Metric::counter\("' $emitters)"
bad=$(grep -ho 'Metric::counter("[^"]*")' crates/*/src/metrics.rs | sort | uniq -d)
gate "metric name declared twice (one namespace: the two would merge):" "$bad"
echo "ok: names come from the per-crate registries, each declared once"

# ---------------------------------------------------------------------------
# Gate: no panics on the communication paths.
#
# The fault-injection subsystem makes "impossible" wire states reachable;
# crates/ucp surfaces them as typed `UcpError`s, AMPI and Charm4py as
# `MPI_ERR_OTHER` statuses and exception records, OpenMPI as statuses and
# the service layer as one `SvcError`, never `panic!` / `unreachable!` /
# `.expect(` / `.unwrap()` / a run-time `assert!`. The one exception is
# `svc::run_load`, whose panicking signature the frozen benchmark compiles
# against (it panics over `run_load_on`'s `SvcError`). Test modules
# (everything from `#[cfg(test)]` down) and comments are exempt.
# ---------------------------------------------------------------------------
echo "== panic-free gate: ucp, ampi, charm4py, svc, ompi =="
bad=$(awk '
    FNR == 1 { cur = "" }
    /#\[cfg\(test\)\]/ { intest[FILENAME] = 1 }
    intest[FILENAME] || $0 ~ /^[[:space:]]*\/\// { next }
    match($0, /fn [a-z_0-9]+/) { cur = substr($0, RSTART + 3, RLENGTH - 3) }
    /panic!|unreachable!|\.expect\(|\.unwrap\(\)|assert(_eq|_ne)?!/ && !/const _: \(\) = assert!/ {
        if (FILENAME ":" cur != "crates/svc/src/lib.rs:run_load")
            print FILENAME ":" FNR ": " $0
    }
' crates/{ucp,ampi,charm4py,svc,ompi}/src/*.rs)
gate "panic!/unreachable!/.expect(/.unwrap()/assert! on a communication path (return a typed outcome):" "$bad"
echo "ok: crates/ucp, ampi, charm4py, svc and ompi surface errors as values"

# ---------------------------------------------------------------------------
# Gate: one way a simulation ends.
#
# Every machine simulation ends through `rucx_ucp::finish`, which runs it to
# the end, turns a stall into a `RunError` and audits the protocol state the
# run left behind (DESIGN §3, "How a run ends"). The only other ends are
# `finish` itself and the three watchdog tests, which bound virtual time
# with `run_until` and call `rucx_ucp::audit` after it. (crates/sim,
# crates/gpu and crates/fabric run their own worlds below UCP.)
# ---------------------------------------------------------------------------
echo "== one-way-a-run-ends gate =="
bad=$(awk '
    $0 ~ /^[[:space:]]*\/\// { next }
    match($0, /fn [a-z_0-9]+/) { cur = substr($0, RSTART + 3, RLENGTH - 3) }
    /\.run\(\)|run_until\(/ {
        at = FILENAME ":" cur
        if (at !~ /^(crates\/ucp\/src\/machine\.rs:finish|tests\/coll_chaos\.rs:run_allreduce|tests\/fault_injection\.rs:(chaos_property_no_silent_loss_no_hang|chaos_scales_to_1536_endpoints))$/)
            print FILENAME ":" FNR ": " $0
    }
' $(find crates/{ucp,charm,ampi,ompi,charm4py,coll,osu,jacobi,svc,bench} tests src -name '*.rs') examples/*.rs)
gate "a simulation run outside rucx_ucp::finish (end it with finish, or audit after a watchdog):" "$bad"
echo "ok: every simulation ends through rucx_ucp::finish or an audited watchdog"

# ---------------------------------------------------------------------------
# Gate: one process representation, one home for unsafe code.
#
# Simulated processes are coroutines on the caller's thread (DESIGN §3).
# The thread handoff cell stays out of crates/sim; no model code keys state
# by OS thread (a process may resume on another one, and simulations run
# side by side); the one farm of OS threads is the OSU sweep's; and unsafe
# code stays in `crates/sim/src/coro.rs` plus the baton hand-off sites in
# `process.rs` / `sim.rs`, each under a `// SAFETY:` comment.
# ---------------------------------------------------------------------------
echo "== coroutine gates =="
bad=$(grep -rn 'rendezvous::' crates/sim || true)
gate "the thread handoff cell is referenced in crates/sim:" "$bad"
bad=$(grep -rn 'thread_local!' crates/*/src --include='*.rs' \
    | grep -v '^crates/sim/src/coro\.rs:' || true)
gate "thread_local! in model code (carry the state in the process instead):" "$bad"
gate "std::thread outside test modules, crates/osu/src/sweep.rs and compat's rendezvous.rs:" \
    "$(nontest 'std::thread' $(find crates/*/src examples/*.rs -name '*.rs' | grep -vE '(osu/src/sweep|compat/src/rendezvous)\.rs$'))"
bad=$(grep -rnE '(^|[^[:alnum:]_])unsafe([^[:alnum:]_]|$)' crates/*/src src --include='*.rs' \
    | grep -vE '^crates/sim/src/(coro|process|sim)\.rs:' \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
gate "unsafe outside crates/sim/src/{coro,process,sim}.rs:" "$bad"
bad=$(awk '
    FNR == 1 { safety = -100 }
    /SAFETY:/ { safety = FNR }
    /#\[cfg\(test\)\]/ { intest[FILENAME] = 1 }
    !intest[FILENAME] && $0 !~ /^[[:space:]]*\/\// && /unsafe (\{|impl)/ && FNR - safety > 12 {
        print FILENAME ":" FNR ": " $0
    }
' crates/sim/src/coro.rs crates/sim/src/process.rs crates/sim/src/sim.rs)
gate "unsafe block without a // SAFETY: comment above it:" "$bad"
echo "ok: coroutines only; no thread-keyed state; unsafe confined and justified"

# ---------------------------------------------------------------------------
# Gate: one event queue, one map type for simulator-internal ids.
#
# The scheduler owns one concrete queue (crates/sim/src/queue.rs, DESIGN
# §11). `BinaryHeap` survives in crates/sim only as the reference the queue's
# property test compares against. Tables keyed by ids the simulator mints
# itself use `rucx_compat::idmap::IdMap` (no SipHash on the message path);
# a table that genuinely takes keys from outside the program keeps the
# default hasher, says so in a comment, and has its file dropped from the
# list below (none does today).
# ---------------------------------------------------------------------------
echo "== event-core gates =="
gate "BinaryHeap in crates/sim/src outside a test module:" \
    "$(nontest 'BinaryHeap' crates/sim/src/*.rs)"
gate "default-hasher table in model code (use rucx_compat::idmap::IdMap::default()):" \
    "$(nontest 'Hash(Map|Set)::new\(\)' crates/{gpu,ucp,charm,ampi,charm4py,svc}/src/*.rs)"
echo "ok: one queue, no backend switch; id-keyed tables use IdMap"

# ---------------------------------------------------------------------------
# Gate: what was deleted stays deleted.
#
# Each "one of" decision removed its loser by name; none may come back
# under that name. One row per decision: names (regexes, space-separated),
# the PR that removed them, and why — the rule itself is in DESIGN and
# EXPERIMENTS.md under the same words. (The table's own rows are exempt.)
# ---------------------------------------------------------------------------
echo "== deleted-names gate =="
while IFS='|' read -r names pr reason; do
    bad=$(grep -rnE -e "${names// /|}" crates src tests examples/*.rs scripts README.md \
        .claude/skills/verify/SKILL.md | grep -vE '^scripts/check\.sh:[0-9]+:[^|]*\|[0-9]+\|' || true)
    gate "deleted in PR $pr ($reason) and referenced again:" "$bad"
done <<'TABLE'
ProcessPool lease_process sim-pool|17|processes are coroutines on the caller's thread, DESIGN §3
CalendarQueue OracleQueue SchedulerBackend QueueImpl with_backend RUCX_SCHED_BACKEND|18|one event queue, no backend switch, DESIGN §11
ShardedEngine EnvelopePool EnvelopeLease Outbox RouteHook ShardPlan shard_plan run_sharded ShardedOpts ShardedRun merge_chrome_json next_event_time RUCX_SHARDS --shards compat::channel|19|one engine, one Jacobi, no sweep-driver thread farms
GpuParams NetParams CharmParams AmpiParams OmpiParams PyParams launch_with build_sim_with device_mem am_register am_send_nb deliver_am_wire spawn_process SimRng BENCH_engine|20|a value with one setting is a pub const; UcpConfig keeps the eight fields two callers set differently
DurationStats MetricKind Metric::gauge pub.counters: recv_host_any_deadline drain_one_recover|22|one counter sink in the Scheduler, one drain path with an optional deadline, DESIGN §9
migrate_packed set_factory start_quiescence SYS_QD_ pre_post_device send_user_tagged user_device_tag UserDevice TagScheme::new set_reduction_tree send_ext ProtocolEngine observe_rtt cross_node_rtt rtt_sample|28|code no workload runs goes; the collective cost model prices alpha_inter at PIPE_LATENCY, never from acks, DESIGN §13
SeqSeen PeerInbox reorder_stash next_chan_seq MpiOp RedOp marshal:: compat::timer fault_overhead RUCX_BENCH_ITERS|31|one sequence-and-reorder type (rucx_ucp::order), one reduction operator, one byte codec, one AMPI path into the collective engine, DESIGN §9
set_send_ctx send_ctx_stamp stamp_ctx encode_chare_ctx current_chare error_handlers ChanPayload AmpiPayload encode_chan decode_chan invoke_future future_get PyFuture PyMethod register_method gen_range_i64 fmt_dur RwLock|32|one Zero Copy payload, one error route, and code no workload runs goes
occupy_transfer occupy_egress occupy_ingress mpi_mbw_point ucp_max_retries trace_events LoadResult::metrics start_fetch machine::with_parts Attribution::from_events|33|one GPU contention rule (GpuSubsystem::book), the caller owns the svc simulation, and pass-throughs go, DESIGN §12
bcast_with allreduce_with select_allreduce select_bcast reduce_binomial barrier_dissemination alltoall_pairwise TAG_REDUCE TAG_BARRIER TAG_ALLTOALL|34|one entry per collective taking Option<Algo>, and code no workload runs goes, DESIGN §13
mpi_latency_point mpi_bw_point mpi_bibw_point bibw_series charm_osu py_osu latency_point bandwidth_point run_one|35|one way to run an OSU point (osu::point over one run harness), DESIGN §7
JacobiStall inflight_rndv inflight_tracked|37|one way a simulation ends (rucx_ucp::finish audits every run), DESIGN §3
table1_improvements RUCX_MAX_NODES max_nodes|41|one scorecard (SCORECARD.md) at the paper's one sweep size, DESIGN §4
alloc_mapped alloc_all recv_any dsend hsend hrecv grid_mem|44|one Jacobi rank: a list of halo faces, each side an osu::Side, and results max-merged into the run's ResultCell, DESIGN §3
ChanState handle_ampi_msg send_chan barrier_epoch SlotState pop_inbox MpiRank::create PyProc::create|46|one rank on a PE: AMPI and Charm4py share the rank shell (rucx_charm::rank), DESIGN §9
SvcMsg DataRef MAX_MSG_BYTES red_tree subtree_elems subtree_weights expected_children Tree::binary|50|one way svc fails: direction-typed messages, a private frontend and one SvcError; a PE keeps only its own reduction step, DESIGN §14
has_errors fn.wtime|54|one event per completion, and API no caller uses goes (Worker::has_errors, OmpiRank::wtime), DESIGN §11
task_checksums checksum_lanes|55|one hash per dataset: a task's checksum mixes its dataset's digest, taken once per side, DESIGN §14
TABLE
echo "ok: no deleted engine, queue, params struct, sink, twin path or caller-less extension is back"

# ---------------------------------------------------------------------------
# Formatting gate.
# ---------------------------------------------------------------------------
echo "== cargo fmt --check =="
cargo fmt --check

# ---------------------------------------------------------------------------
# Build + test, fully offline (tier-1 verify plus the per-crate suites).
# ---------------------------------------------------------------------------
echo "== cargo build --release --offline =="
cargo build --release --offline

echo "== cargo test -q --offline (root package: tier-1) =="
cargo test -q --offline

echo "== cargo test -q --offline --workspace (all crates) =="
cargo test -q --offline --workspace

# ---------------------------------------------------------------------------
# The scorecard: every paper number the repository claims, with the value
# the simulator gives for it (crates/bench/src/scorecard.rs). The two figure
# benches render it from the figures they compute, Figures 14-16 from the
# paper's full 1-256-node sweep on the real stack (~25 s). All eight Jacobi
# figure files must be written, and the rendered scorecard must equal the
# committed SCORECARD.md (regenerate it only for a change that moves a
# number on purpose, and say why).
# ---------------------------------------------------------------------------
echo "== scorecard: figure benches vs SCORECARD.md =="
rm -f target/rucx-results/fig1[4-6]_*.json target/rucx-results/scorecard_*.md
cargo bench -q --offline -p rucx-bench --bench microbench_figures >/dev/null
cargo bench -q --offline -p rucx-bench --bench jacobi_figures >/dev/null
n=$(find target/rucx-results -name 'fig1[4-6]_*.json' -size +0c | wc -l)
[ "$n" -eq 8 ] || { echo "FAIL: jacobi_figures wrote $n of 8 figure files"; exit 1; }
cat target/rucx-results/scorecard_{osu,jacobi}.md | diff -u SCORECARD.md - \
    || { echo "FAIL: the rendered scorecard differs from SCORECARD.md"; exit 1; }
echo "ok: weak/strong sweep of all four models runs end to end; scorecard unchanged"

# ---------------------------------------------------------------------------
# Sweep drivers: every point of every driver is an independent seeded
# simulation, so the JSON each prints must be byte-identical across
# repeated runs. One harness, a driver x args table.
# ---------------------------------------------------------------------------
echo "== sweep drivers: run-twice determinism gate =="
cargo build -q --offline --release \
    --example osu_cli --example train_proxy --example svc_bench --example scenario_matrix
declare -A out
while read -r driver args; do
    # $args is a word list: unquoted on purpose.
    a=$(./target/release/examples/"$driver" $args)
    b=$(./target/release/examples/"$driver" $args)
    [ -n "$a" ] && [ "$a" = "$b" ] \
        || { echo "FAIL: $driver $args: JSON empty or differs across runs"; exit 1; }
    out[$driver]=$a
done <<'TABLE'
osu_cli coll --quick --json
osu_cli bibw --quick --json
train_proxy --quick --json
svc_bench --quick --json
scenario_matrix --quick --json
TABLE
echo "ok: collective bench, train proxy, svc_bench and scenario matrix byte-identical across runs"

# ---------------------------------------------------------------------------
# Collective engine: the cross-model/chaos suite must hold: AMPI, OpenMPI
# and Charm4py produce byte-identical reductions, and no fault mix yields a
# silently wrong sum (tests/coll_chaos.rs).
# ---------------------------------------------------------------------------
echo "== collective engine: cross-model conformance + chaos =="
cargo test -q --offline --test coll_chaos
echo "ok: models agree byte-for-byte; no silent wrong sums under faults"

# ---------------------------------------------------------------------------
# Service layer: the rucx-svc suite must hold: cache-on and cache-off runs
# compute identical task results, and cache-on wins at small-task scale.
# Every load run ends through `rucx_ucp::finish`, whose audit holds the
# registration accounting identity (`ucp.reg.miss == ucp.reg.evict + live
# mappings`, no mapping on a freed buffer) in every build profile; the
# suite's own runs also check that nothing stays mapped and every
# pre-mapped pool allocation is returned at shutdown. Run in release, the
# profile the benchmark runs in.
# ---------------------------------------------------------------------------
echo "== service layer: cache-on/off conformance + registration-leak asserts =="
cargo test -q --offline --release -p rucx-svc
echo "ok: identical results with caching on/off; no registration leaks"

echo "== protocol engine: multi-path ablation smoke =="
RUCX_ABLATION=multipath cargo bench -q --offline -p rucx-bench --bench ablations >/dev/null
test -s target/rucx-results/ablation_multipath.json \
    || { echo "FAIL: ablation_multipath.json not written"; exit 1; }
echo "ok: striping beats single-path NVLink at 16 MiB"

# ---------------------------------------------------------------------------
# Trace subsystem: a traced run must emit the Chrome JSON and attribution
# outputs, and identical runs must emit byte-identical traces.
# ---------------------------------------------------------------------------
echo "== trace: attribution bench smoke =="
cargo bench -q --offline -p rucx-bench --bench trace_attribution
for f in trace_ampi_1M.json trace_attribution.json; do
    test -s "target/rucx-results/$f" \
        || { echo "FAIL: $f not written"; exit 1; }
done
grep -q '"traceEvents"' target/rucx-results/trace_ampi_1M.json \
    || { echo "FAIL: trace_ampi_1M.json is not a Chrome trace"; exit 1; }
echo "ok: traced run + Chrome trace + attribution table"

echo "== trace: determinism test =="
cargo test -q --offline --test determinism trace_output_is_byte_identical
echo "ok: byte-identical trace across same-seed runs"

# ---------------------------------------------------------------------------
# Chaos smoke: the OSU latency path must complete under the canned 1%-drop
# spec with every loss retried or surfaced (tests/fault_injection.rs), and
# a seeded chaos run must replay byte-identically (tests/determinism.rs).
# ---------------------------------------------------------------------------
echo "== chaos smoke: OSU under canned 1% drop + seeded replay =="
cargo test -q --offline --test fault_injection
cargo test -q --offline --test determinism chaos
echo "ok: chaos runs complete, lose nothing silently, replay identically"

# ---------------------------------------------------------------------------
# Chaos scenario matrix (its JSON is from the determinism gate above): the
# clean column's recovery counters are all zero (the recovery machinery
# costs nothing on a clean path), and each degraded-mode cell attributes
# its recovery to the expected mechanism.
# ---------------------------------------------------------------------------
echo "== chaos scenario matrix: clean-path + recovery-attribution gate =="
a=${out[scenario_matrix]}
clean=$(grep -o '"scenario":"clean","workload":"[a-z_0-9]*","headline":[0-9.]*,"unit":"[^"]*","dominant":"none","recovery":{"retry":0,"parked":0,"healed":0,"reroute":0,"host_staged":0,"giveup":0,"resubmit":0}' \
    <<<"$a" | wc -l)
[ "$clean" -eq 4 ] \
    || { echo "FAIL: a clean-scenario cell shows nonzero recovery counters"; exit 1; }
grep -q '"scenario":"degrade","workload":"osu_latency"[^}]*"dominant":"reroute"' <<<"$a" \
    || { echo "FAIL: degraded rail did not reroute pipeline chunks"; exit 1; }
grep -q '"scenario":"partition","workload":"svc_load"[^}]*"dominant":"park+probe"' <<<"$a" \
    || { echo "FAIL: partition not absorbed by endpoint park+probe"; exit 1; }
grep -q '"scenario":"gpufail","workload":"osu_latency"[^}]*"dominant":"host-staged fallback"' <<<"$a" \
    || { echo "FAIL: GPU copy-engine failure did not fall back to host staging"; exit 1; }
echo "ok: 24-cell matrix deterministic; clean path pays zero recovery"

# ---------------------------------------------------------------------------
# The benchmark package is frozen and compiles against the `rucx` facade
# from outside the workspace, so a facade removal that breaks it would
# otherwise only fail in the pipeline. Its six `virt_digest`s at seed 1
# fold every simulated output's bit pattern, so comparing them with the
# committed golden gates "the paper's figures did not move" on every
# change; a change that moves them on purpose (a recalibration) updates
# scripts/golden_virt_digests.txt once and says why.
# ---------------------------------------------------------------------------
echo "== frozen benchmark package builds, runs, and matches the golden digests =="
out=$(cargo run --release --offline --quiet --manifest-path examples/benchmark/Cargo.toml -- \
    --workload all --seed 1 --passes 3)
awk '/^== / { w = $2 } /virt_digest/ { print w, $NF }' <<<"$out" \
    | diff -u scripts/golden_virt_digests.txt - \
    || { echo "FAIL: virt_digests differ from scripts/golden_virt_digests.txt"; exit 1; }
# Its two paper_err_pct are means over scorecard rows: they must agree.
for w in osu_figures jacobi_8n; do
    pct=$(awk -v w="$w" '/^== / { cur = $2 } cur == w && $1 == "paper_err_pct" { printf "%.1f", $2 }' <<<"$out")
    echo "  $w paper_err_pct $pct %"
    grep -qF "**\`$w\` paper_err_pct: $pct %**" SCORECARD.md \
        || { echo "FAIL: $w paper_err_pct $pct % is not SCORECARD.md's"; exit 1; }
done
echo "ok: examples/benchmark builds against the facade; all six virt_digests match; paper_err_pct equals the scorecard's"

echo "ALL CHECKS PASSED"
