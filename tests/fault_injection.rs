//! Tier-1 chaos gate: the full stack must survive a seeded adversary.
//!
//! Three layers of assurance, all deterministic:
//! 1. A smoke run of the OSU latency sweep under the canned 1%-drop spec
//!    (the same spec `scripts/check.sh` gates on) — completes and produces
//!    finite numbers.
//! 2. A counter-audited chaos run: every injected loss is either retried
//!    by the reliability protocol or surfaced as a typed error; payloads
//!    arrive intact; no tracked send leaks.
//! 3. A 64-case seeded property: random fault mixes (drop/dup/delay/
//!    corrupt) against random message schedules, under a virtual-time
//!    watchdog — no hang, no silent loss, ever. Failing cases replay with
//!    `RUCX_PROP_SEED` (printed on failure).

use rucx::fabric::Topology;
use rucx::fault::FaultSpec;
use rucx::sim::time::us;
use rucx::sim::RunOutcome;
use rucx::ucp::{blocking, build_sim, MachineConfig, SendBuf, MASK_FULL};

/// Deterministic payload for size `size`, distinguishable per message.
fn pattern(size: u64, salt: u8) -> Vec<u8> {
    (0..size)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
        .collect()
}

fn chaos_machine(spec: FaultSpec) -> MachineConfig {
    let mut cfg = MachineConfig::default();
    cfg.fault = Some(spec);
    cfg
}

/// OSU latency under the canned CI spec: the whole benchmark path (AMPI and
/// Charm++ models, GPU-direct, inter-node) completes under 1% drop and
/// yields finite positive latencies.
#[test]
fn osu_latency_completes_under_canned_drop() {
    use rucx::osu::{latency, Mode, Model, OsuConfig, Placement};

    let mut cfg = OsuConfig::quick();
    cfg.sizes = vec![8, 4 * 1024, 1 << 20];
    cfg.machine.fault = Some(FaultSpec::canned_one_percent_drop());
    for model in [Model::Ampi, Model::Charm] {
        let s = latency(&cfg, model, Mode::Device, Placement::InterNode);
        assert_eq!(s.points.len(), cfg.sizes.len());
        for (size, v) in &s.points {
            assert!(
                v.is_finite() && *v > 0.0,
                "{model:?} latency at {size}B not finite/positive: {v}"
            );
        }
    }
}

/// Counter audit under a heavier drop rate: all losses recovered (zero
/// give-ups), every payload intact, retransmissions actually happened, and
/// the send-tracking table drained — i.e. zero unsurfaced losses.
#[test]
fn chaos_run_has_zero_unsurfaced_losses() {
    let mut spec = FaultSpec::canned_one_percent_drop();
    spec.seed = 41;
    spec.drop_p = 0.10;
    let mut sim = build_sim(Topology::summit(2), chaos_machine(spec));

    let n = 24u64;
    let size = 4096u64;
    let mut bufs = Vec::new();
    {
        let m = sim.world_mut();
        for i in 0..n {
            let src = m.gpu.pool.alloc_host(0, size, true, true);
            m.gpu.pool.write(src, &pattern(size, i as u8)).unwrap();
            let dst = m.gpu.pool.alloc_host(1, size, true, true);
            bufs.push((src, dst));
        }
    }
    let dsts: Vec<_> = bufs.iter().map(|(_, d)| *d).collect();
    for (i, (s, d)) in bufs.into_iter().enumerate() {
        let tag = i as u64;
        sim.spawn("snd", 0, move |ctx| {
            blocking::send(ctx, 0, 6, SendBuf::Mem(s), tag);
        });
        sim.spawn("rcv", 6, move |ctx| {
            blocking::recv(ctx, 6, d, tag, MASK_FULL);
        });
    }
    assert_eq!(sim.run(), RunOutcome::Completed);

    let m = sim.world();
    let drops = sim.metrics().get("fault.drop");
    let retries = sim.metrics().get("ucp.retry");
    assert!(
        drops > 0,
        "10% drop over {n} messages must inject something"
    );
    assert!(retries > 0, "drops must be recovered by retransmission");
    assert_eq!(sim.metrics().get("ucp.unreachable"), 0);
    assert_eq!(m.ucp.inflight_tracked(), 0, "tracked sends must drain");
    for (i, d) in dsts.iter().enumerate() {
        assert_eq!(
            m.gpu.pool.read(*d).unwrap(),
            pattern(size, i as u8),
            "payload {i} corrupted or lost"
        );
    }
}

/// Satellite: the RTT estimator under a lossy wire. Karn's rule must keep
/// retransmitted envelopes out of the estimate: the sample / skipped
/// counters exactly partition the acks.
#[test]
fn chaos_rtt_is_karn_disciplined() {
    let mut spec = FaultSpec::canned_one_percent_drop();
    spec.seed = 23;
    spec.drop_p = 0.05;
    let mut sim = build_sim(Topology::summit(2), chaos_machine(spec));
    let n = 48u64;
    let mut bufs = Vec::new();
    {
        let m = sim.world_mut();
        for i in 0..n {
            // Mixed sizes straddling the eager threshold, so eager, RTS
            // and ATS envelopes all feed the estimator.
            let size = [512u64, 8 * 1024, 256 * 1024][i as usize % 3];
            let src = m.gpu.pool.alloc_host(0, size, true, true);
            m.gpu.pool.write(src, &pattern(size, i as u8)).unwrap();
            let dst = m.gpu.pool.alloc_host(1, size, true, true);
            bufs.push((src, dst));
        }
    }
    for (i, (s, d)) in bufs.into_iter().enumerate() {
        let tag = i as u64;
        sim.spawn("snd", 0, move |ctx| {
            blocking::send(ctx, 0, 6, SendBuf::Mem(s), tag);
        });
        sim.spawn("rcv", 6, move |ctx| {
            blocking::recv(ctx, 6, d, tag, MASK_FULL);
        });
    }
    assert_eq!(sim.run(), RunOutcome::Completed);

    let m = sim.world();
    let acked = sim.metrics().get("ucp.acked");
    let sampled = sim.metrics().get("ucp.rtt_sample");
    let skipped = sim.metrics().get("ucp.rtt_skipped");
    assert!(
        sim.metrics().get("ucp.retry") > 0,
        "5% drop over {n} messages must retransmit"
    );
    assert_eq!(sampled + skipped, acked, "every ack is sampled xor skipped");
    assert!(
        skipped > 0,
        "retransmitted envelopes must be excluded (Karn)"
    );
    assert!(sampled > 0, "clean acks must still feed the estimator");
    assert_eq!(sim.metrics().get("ucp.unreachable"), 0);
    assert_eq!(m.ucp.inflight_tracked(), 0, "tracked sends must drain");
}

/// 64 seeded cases of randomized adversity. Invariants, per case:
/// - the run never outlives the virtual-time watchdog (no hang);
/// - on completion with no give-ups, every payload is byte-intact and no
///   tracked send leaks (no silent loss);
/// - any non-duplicate injected loss was either retransmitted or ended in
///   a typed give-up error queued at the sender's worker (no unsurfaced
///   loss);
/// - a deadlocked run is legal only when a give-up left a receiver
///   unpaired, and the give-up error is observable.
#[test]
fn chaos_property_no_silent_loss_no_hang() {
    rucx::compat::check::check_with("chaos_no_silent_loss", 64, |g| {
        let mut spec = FaultSpec::default();
        spec.seed = g.any_u64();
        spec.drop_p = g.f64(0.0..0.70);
        spec.dup_p = g.f64(0.0..0.10);
        spec.corrupt_p = g.f64(0.0..0.10);
        spec.delay_p = g.f64(0.0..0.10);
        spec.delay = us(g.f64(1.0..50.0));
        let mut sim = build_sim(Topology::summit(2), chaos_machine(spec));

        let n = g.usize(1..6) as u64;
        let sizes: Vec<u64> = (0..n)
            .map(|_| g.pick(&[64u64, 1024, 16 * 1024, 256 * 1024]))
            .collect();
        let mut dsts = Vec::new();
        let mut pairs = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            let m = sim.world_mut();
            let src = m.gpu.pool.alloc_host(0, size, true, true);
            m.gpu.pool.write(src, &pattern(size, i as u8)).unwrap();
            let dst = m.gpu.pool.alloc_host(1, size, true, true);
            dsts.push((dst, size));
            pairs.push((src, dst));
        }
        for (i, (src, dst)) in pairs.into_iter().enumerate() {
            let tag = i as u64;
            sim.spawn("snd", 0, move |ctx| {
                blocking::send(ctx, 0, 6, SendBuf::Mem(src), tag);
            });
            sim.spawn("rcv", 6, move |ctx| {
                blocking::recv(ctx, 6, dst, tag, MASK_FULL);
            });
        }

        // Watchdog: 10 virtual seconds dwarfs the worst retry schedule
        // (10 retries, 5 ms RTO cap, 6 messages) by two orders of
        // magnitude; hitting it means a hang, not slowness.
        let outcome = sim.run_until(us(10_000_000.0));
        let unreachable = sim.metrics().get("ucp.unreachable");
        match &outcome {
            RunOutcome::Completed => {}
            RunOutcome::Deadlock(_) if unreachable > 0 => {}
            other => panic!(
                "case seed {:#x}: outcome {other:?} with {unreachable} give-ups",
                g.case_seed
            ),
        }

        let drops = sim.metrics().get("fault.drop");
        let corrupt = sim.metrics().get("fault.corrupt");
        let dups = sim.metrics().get("fault.duplicate");
        let retries = sim.metrics().get("ucp.retry");
        let m = sim.world_mut();
        if drops + corrupt > 0 && dups == 0 {
            // Every non-duplicate loss is either retransmitted or gave up.
            assert!(
                retries + unreachable > 0,
                "losses injected but never retried nor surfaced"
            );
        }
        if unreachable == 0 {
            assert!(matches!(outcome, RunOutcome::Completed));
            assert_eq!(m.ucp.inflight_tracked(), 0, "tracked sends leaked");
            for (i, (d, size)) in dsts.iter().enumerate() {
                assert_eq!(
                    m.gpu.pool.read(*d).unwrap(),
                    pattern(*size, i as u8),
                    "payload {i} silently corrupted"
                );
            }
        } else {
            // Give-ups must be observable as typed errors at some worker.
            let procs = 12;
            let mut surfaced = 0;
            for p in 0..procs {
                while let Some(e) = m.ucp.take_worker_error(p) {
                    let msg = e.to_string();
                    assert!(msg.contains("gave up"), "unexpected error: {msg}");
                    surfaced += 1;
                }
            }
            assert_eq!(
                surfaced, unreachable,
                "every give-up must queue exactly one typed error"
            );
        }
    });
}

/// Retransmission/health state at scale: 1536 processes (a 256-node
/// Summit slice), each sending one small message to the rank one node
/// over — 1536 distinct directed endpoint pairs, every one crossing the
/// fabric, all under a seeded 5% drop. The reliability layer must keep
/// per-pair state straight (no cross-pair sequence confusion), recover
/// every loss, and drain its tracking tables completely.
#[test]
fn chaos_scales_to_1536_endpoints() {
    let mut spec = FaultSpec::default();
    spec.seed = 97;
    spec.drop_p = 0.05;
    let mut sim = build_sim(Topology::summit(256), chaos_machine(spec));

    let procs = 1536usize;
    let size = 256u64;
    let mut pairs = Vec::with_capacity(procs);
    {
        let m = sim.world_mut();
        for p in 0..procs {
            let peer = (p + 6) % procs;
            let src = m.gpu.pool.alloc_host(p / 6, size, true, true);
            m.gpu.pool.write(src, &pattern(size, p as u8)).unwrap();
            let dst = m.gpu.pool.alloc_host(peer / 6, size, true, true);
            pairs.push((src, dst));
        }
    }
    let dsts: Vec<_> = pairs.iter().map(|(_, d)| *d).collect();
    for (p, (src, dst)) in pairs.into_iter().enumerate() {
        let peer = (p + 6) % procs;
        let tag = p as u64;
        sim.spawn("snd", p as u64, move |ctx| {
            blocking::send(ctx, p, peer, SendBuf::Mem(src), tag);
        });
        sim.spawn("rcv", peer as u64, move |ctx| {
            blocking::recv(ctx, peer, dst, tag, MASK_FULL);
        });
    }

    assert_eq!(
        sim.run_until(us(10_000_000.0)),
        RunOutcome::Completed,
        "1536-endpoint chaos run hung"
    );
    let m = sim.world();
    assert!(
        sim.metrics().get("fault.drop") > 0,
        "5% drop over 1536 messages must inject losses"
    );
    assert!(sim.metrics().get("ucp.retry") > 0, "losses must be retried");
    assert_eq!(sim.metrics().get("ucp.unreachable"), 0);
    assert_eq!(sim.metrics().get("ucp.giveup"), 0);
    // One ack per delivery at minimum: per-pair ack state exists for every
    // one of the 1536 endpoints.
    assert!(sim.metrics().get("ucp.acked") >= procs as u64);
    assert_eq!(m.ucp.inflight_tracked(), 0, "tracked sends must drain");
    for (p, d) in dsts.iter().enumerate() {
        assert_eq!(
            m.gpu.pool.read(*d).unwrap(),
            pattern(size, p as u8),
            "payload {p} corrupted or lost"
        );
    }
}
