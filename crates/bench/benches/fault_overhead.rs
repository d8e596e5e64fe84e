//! Cost of *having* the fault-injection and reliability machinery when it is
//! not in use — the property that lets chaos infrastructure ship enabled in
//! every build. Two claims are checked, with generous CI headroom:
//!
//! 1. The engine's resume hot path is unregressed: a resume hop through a
//!    fault-capable `Machine` still lands in the tens of nanoseconds
//!    (~70 ns median on an idle machine; asserted < 2 µs so a loaded CI
//!    box never flakes but a re-introduced context switch or allocation
//!    still fails loudly).
//! 2. The send path with no spec loaded costs exactly one predicted branch
//!    (`faults.enabled()`): a clean run takes the early exit everywhere —
//!    zero reliability envelopes, zero retransmission state, zero fault
//!    metrics — and its virtual-time result is byte-identical across runs.
//!
//! Run with `cargo bench --bench fault_overhead`. `RUCX_BENCH_ITERS` /
//! `RUCX_BENCH_WARMUP` control iteration counts.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use rucx_compat::timer::Runner;
use rucx_fabric::Topology;
use rucx_fault::FaultSpec;
use rucx_ucp::{blocking, build_sim, MachineConfig, SendBuf, MASK_FULL};

/// Resume-hop samples through a full fault-capable machine world (the
/// frozen benchmark's `sim.self_resume_ns` rung measures a bare
/// `Simulation`; this one carries the whole `Machine` with its
/// `FaultState`, so any fat added to the world struct's hot path shows up
/// here).
fn bench_resume_hop_nofault(r: &mut Runner) {
    let hops = (r.iters() as usize) * 100;
    let warmup = (r.warmup() as usize) * 100;
    let out: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::with_capacity(hops)));
    let sink = out.clone();
    let mut sim = build_sim(Topology::summit(1), MachineConfig::default());
    sim.spawn("hopper", 0, move |ctx| {
        for _ in 0..warmup {
            ctx.advance(1);
        }
        let mut samples = Vec::with_capacity(hops);
        for _ in 0..hops {
            let t0 = Instant::now();
            ctx.advance(1);
            samples.push(t0.elapsed().as_nanos() as u64);
        }
        *sink.lock().unwrap() = samples;
    });
    sim.run();
    let samples = std::mem::take(&mut *out.lock().unwrap());
    r.record_samples("resume_hop_nofault", samples);
}

/// One inter-node eager roundtrip per sample. Returns the virtual end time
/// and the reliability/fault counters that must stay zero on a clean run.
fn send_run(fault: Option<FaultSpec>, rounds: u32) -> (u64, u64, u64, u64) {
    let mut cfg = MachineConfig::default();
    cfg.fault = fault;
    let mut sim = build_sim(Topology::summit(2), cfg);
    let a = sim.world_mut().gpu.pool.alloc_host(0, 4096, true, true);
    let b = sim.world_mut().gpu.pool.alloc_host(1, 4096, true, true);
    sim.spawn("s", 0, move |ctx| {
        for i in 0..rounds as u64 {
            blocking::send(ctx, 0, 6, SendBuf::Mem(a), i);
        }
    });
    sim.spawn("r", 6, move |ctx| {
        for i in 0..rounds as u64 {
            blocking::recv(ctx, 6, b, i, MASK_FULL);
        }
    });
    sim.run();
    let end = sim.scheduler().now();
    let m = sim.world();
    (
        end,
        sim.metrics().get("ucp.retry"),
        m.faults.injected(),
        sim.metrics().get("ucp.dup_drop"),
    )
}

fn main() {
    let mut r = Runner::from_env();

    bench_resume_hop_nofault(&mut r);

    // Wall-clock per 16-message eager burst, clean machine vs loaded
    // all-zero spec (protocol armed, nothing injected).
    r.bench("send_burst_clean", || {
        send_run(None, 16);
    });
    r.bench("send_burst_spec_loaded", || {
        send_run(Some(FaultSpec::default()), 16);
    });

    // Claim 2: with no spec loaded the send path must have taken the
    // single-branch early exit — no retries, no duplicate suppression, no
    // injections — and the virtual-time result is a pure function of the
    // configuration.
    let (end_a, retries, injected, dups) = send_run(None, 16);
    let (end_b, ..) = send_run(None, 16);
    assert_eq!(end_a, end_b, "clean run must be deterministic");
    assert_eq!(
        retries, 0,
        "clean run must not arm the reliability protocol"
    );
    assert_eq!(injected, 0, "clean run must not inject faults");
    assert_eq!(dups, 0, "clean run must not track sequence numbers");

    // An armed-but-zero spec also injects nothing (it only pays protocol
    // overhead), and is deterministic too.
    let (end_c, _, injected_c, _) = send_run(Some(FaultSpec::default()), 16);
    let (end_d, ..) = send_run(Some(FaultSpec::default()), 16);
    assert_eq!(end_c, end_d, "armed run must be deterministic");
    assert_eq!(injected_c, 0, "all-zero spec must not inject");

    // Claim 1: resume hot path unregressed (~70 ns median when idle).
    let hop = r
        .results()
        .iter()
        .find(|b| b.name == "resume_hop_nofault")
        .expect("resume_hop_nofault recorded");
    println!(
        "  resume_hop_nofault median {} ns (p99 {} ns)",
        hop.median_ns, hop.p99_ns
    );
    assert!(
        hop.median_ns < 2_000,
        "resume hop regressed: median {} ns (expect ~70 ns, bound 2000 ns)",
        hop.median_ns
    );

    rucx_bench::write_json("fault_overhead", r.results());
    println!("  fault overhead checks passed");
}
