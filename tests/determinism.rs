//! Whole-stack determinism: identical configurations must produce
//! bit-identical virtual-time results, across every layer at once — the
//! property that makes simulation results citable and regressions
//! detectable.

use rucx::jacobi::{run, JacobiConfig, JacobiModel, Mode};

fn jacobi_fingerprint(model: JacobiModel) -> (u64, u64) {
    let mut cfg = JacobiConfig::weak(2, Mode::Device);
    cfg.iters = 2;
    cfg.warmup = 1;
    let r = run(model, &cfg);
    // Exact bit patterns, not approximate comparisons.
    (r.overall_ms.to_bits(), r.comm_ms.to_bits())
}

#[test]
fn jacobi_runs_are_bit_reproducible() {
    for model in [
        JacobiModel::Charm,
        JacobiModel::Ampi,
        JacobiModel::Ompi,
        JacobiModel::Charm4py,
    ] {
        let a = jacobi_fingerprint(model);
        let b = jacobi_fingerprint(model);
        assert_eq!(a, b, "{model:?} must be deterministic");
    }
}

#[test]
fn overdecomposed_run_is_reproducible() {
    let once = || {
        let mut cfg = JacobiConfig::weak(1, Mode::Device);
        cfg.iters = 2;
        cfg.warmup = 1;
        cfg.overdecomp = 4;
        let r = run(JacobiModel::Charm, &cfg);
        (r.overall_ms.to_bits(), r.comm_ms.to_bits())
    };
    assert_eq!(once(), once());
}

/// The OSU latency microbenchmark, run twice under the same configuration
/// (same seed by construction: the machine config pins every stochastic
/// choice), produces byte-identical result structs — every point's f64 bit
/// pattern, every label, every unit. The second run executes on a spawned
/// thread while the first runs on the test thread: simulations advancing
/// concurrently in one process share the coroutine-stack free list and
/// must keep no thread-keyed state, so neither may perturb the other.
#[test]
fn osu_latency_is_byte_identical_across_runs() {
    use rucx::osu::{latency, Mode, Model, OsuConfig, Placement};

    let start = std::sync::Barrier::new(2);
    let run_once = || {
        let mut cfg = OsuConfig::quick();
        cfg.sizes = vec![8, 1024, 1 << 20];
        start.wait();
        latency(&cfg, Model::Charm, Mode::Device, Placement::InterNode)
    };
    let (a, b) = std::thread::scope(|s| {
        let second = s.spawn(run_once);
        (run_once(), second.join().expect("second run panicked"))
    });
    // Struct-level equality first (labels, units, sizes)...
    assert_eq!(a, b, "OSU latency results must be identical across runs");
    // ...then the stronger bit-pattern check on every floating point value
    // (PartialEq would accept -0.0 == 0.0; bit equality does not).
    let bits = |s: &rucx::osu::Series| -> Vec<(u64, u64)> {
        s.points.iter().map(|(sz, v)| (*sz, v.to_bits())).collect()
    };
    assert_eq!(bits(&a), bits(&b), "f64 bit patterns must match exactly");
    // And the serialized form (what benchmark figures persist) is stable.
    use rucx_compat::json::ToJson;
    assert_eq!(a.to_json(), b.to_json());
}

/// A slice of the `jacobi_figures` bench (weak scaling, nodes 1–2, both
/// transfer modes), run twice: the figure JSON — the exact serialized form
/// `write_json` persists — must be byte-identical. This covers the
/// refactored scheduler with a full Charm++ PE sweep, not just
/// microbenchmarks: hundreds of processes per run, pooled threads reused
/// across `Simulation` lifetimes, and the zero-switch resume path all must
/// leave virtual-time results untouched.
#[test]
fn jacobi_figures_slice_json_is_byte_identical() {
    use rucx_compat::json::ToJson;

    let sweep_json = || {
        let rows: Vec<(usize, f64, f64, f64, f64)> = [1usize, 2]
            .iter()
            .map(|&n| {
                let mut ch = JacobiConfig::weak(n, Mode::HostStaging);
                let mut cd = JacobiConfig::weak(n, Mode::Device);
                ch.iters = 2;
                ch.warmup = 1;
                cd.iters = 2;
                cd.warmup = 1;
                let h = run(JacobiModel::Charm, &ch);
                let d = run(JacobiModel::Charm, &cd);
                (n, h.overall_ms, d.overall_ms, h.comm_ms, d.comm_ms)
            })
            .collect();
        rows.to_json()
    };
    assert_eq!(
        sweep_json(),
        sweep_json(),
        "jacobi_figures slice must serialize identically across runs"
    );
}

/// A traced run's serialized Chrome trace is a pure function of
/// `(seed, config)`: two identical runs — full stack, mixed eager/rendezvous
/// traffic across the fabric, trace sink enabled — must produce
/// byte-identical JSON. This is the property that makes traces diffable:
/// any byte that moves between two same-config runs is a real behavioural
/// change, not serialization noise.
#[test]
fn trace_output_is_byte_identical_across_runs() {
    use rucx::fabric::Topology;
    use rucx::gpu::DeviceId;
    use rucx::sim::RunOutcome;
    use rucx::ucp::{build_sim, MachineConfig};

    let traced_run = || {
        let mut sim = build_sim(Topology::summit(2), MachineConfig::default());
        sim.scheduler().trace.enable(0);
        let a = sim
            .world_mut()
            .gpu
            .pool
            .alloc_device(DeviceId(0), 1 << 20, false)
            .unwrap();
        let b = sim
            .world_mut()
            .gpu
            .pool
            .alloc_device(DeviceId(6), 1 << 20, false)
            .unwrap();
        rucx::ampi::launch(&mut sim, move |mpi, ctx| match mpi.rank() {
            0 => {
                for i in 0..4 {
                    // Small host-inline round plus a large rendezvous
                    // round, so both protocol paths land in the trace.
                    mpi.send(ctx, a.slice(0, 64), 6, i);
                    mpi.send(ctx, a, 6, i);
                }
            }
            6 => {
                for i in 0..4 {
                    mpi.recv(ctx, b.slice(0, 64), 0, i);
                    mpi.recv(ctx, b, 0, i);
                }
            }
            _ => {}
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        let json = sim.scheduler().trace.to_chrome_json();
        assert!(!sim.scheduler().trace.is_empty(), "trace recorded events");
        json
    };
    assert_eq!(
        traced_run(),
        traced_run(),
        "Chrome trace JSON must be byte-identical for identical runs"
    );
}

/// A chaos run is as replayable as a clean one: the same `(seed, fault
/// spec, config)` triple must reproduce the OSU latency JSON byte for byte,
/// drops, retransmissions, backoff jitter and all. This is what makes a
/// failing chaos case a bug report instead of an anecdote.
#[test]
fn chaos_osu_run_is_byte_identical() {
    use rucx::fault::FaultSpec;
    use rucx::osu::{latency, Mode, Model, OsuConfig, Placement};
    use rucx_compat::json::ToJson;

    let run_once = || {
        let mut cfg = OsuConfig::quick();
        cfg.sizes = vec![8, 4 * 1024, 1 << 20];
        let mut spec = FaultSpec::canned_one_percent_drop();
        spec.seed = 77;
        spec.drop_p = 0.05;
        spec.dup_p = 0.02;
        cfg.machine.fault = Some(spec);
        latency(&cfg, Model::Ampi, Mode::Device, Placement::InterNode)
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b, "chaos OSU results must replay identically");
    assert_eq!(a.to_json(), b.to_json());
    // And the faults genuinely perturbed the run: same sweep without the
    // spec must differ (otherwise this test would pass vacuously).
    let mut clean = OsuConfig::quick();
    clean.sizes = vec![8, 4 * 1024, 1 << 20];
    let c = latency(&clean, Model::Ampi, Mode::Device, Placement::InterNode);
    assert_ne!(a.points, c.points, "fault spec must actually change timing");
}

/// The serialized Chrome trace of a chaos run — injections, retransmission
/// spans, duplicate suppressions — is also a pure function of
/// `(seed, spec, config)`: two identical lossy runs emit byte-identical
/// trace JSON.
#[test]
fn chaos_trace_is_byte_identical() {
    use rucx::fabric::Topology;
    use rucx::fault::FaultSpec;
    use rucx::sim::RunOutcome;
    use rucx::ucp::{blocking, build_sim, MachineConfig, SendBuf, MASK_FULL};

    let traced_run = || {
        let mut cfg = MachineConfig::default();
        let mut spec = FaultSpec::canned_one_percent_drop();
        spec.seed = 9;
        spec.drop_p = 0.15;
        spec.delay_p = 0.10;
        spec.delay = rucx::sim::time::us(20.0);
        cfg.fault = Some(spec);
        let mut sim = build_sim(Topology::summit(2), cfg);
        sim.scheduler().trace.enable(0);
        let mut pairs = Vec::new();
        for _ in 0..6 {
            let m = sim.world_mut();
            let s = m.gpu.pool.alloc_host(0, 4096, true, true);
            let d = m.gpu.pool.alloc_host(1, 4096, true, true);
            pairs.push((s, d));
        }
        for (i, (s, d)) in pairs.into_iter().enumerate() {
            let tag = i as u64;
            sim.spawn("snd", 0, move |ctx| {
                blocking::send(ctx, 0, 6, SendBuf::Mem(s), tag);
            });
            sim.spawn("rcv", 6, move |ctx| {
                blocking::recv(ctx, 6, d, tag, MASK_FULL);
            });
        }
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert!(
            sim.metrics().get("fault.drop") > 0 || sim.metrics().get("fault.delay") > 0,
            "spec must inject something for this test to mean anything"
        );
        sim.scheduler().trace.to_chrome_json()
    };
    assert_eq!(
        traced_run(),
        traced_run(),
        "chaos Chrome trace must be byte-identical for identical seeds"
    );
}

#[test]
fn config_changes_actually_change_results() {
    // Guard against accidentally ignoring configuration: flipping GDRCopy
    // must move microbenchmark output.
    let mut on = rucx::osu::OsuConfig::quick();
    on.sizes = vec![8];
    let mut off = on.clone();
    off.machine.ucp.gdrcopy_enabled = false;
    let a = rucx::osu::latency(
        &on,
        rucx::osu::Model::Ompi,
        rucx::osu::Mode::Device,
        rucx::osu::Placement::IntraNode,
    );
    let b = rucx::osu::latency(
        &off,
        rucx::osu::Model::Ompi,
        rucx::osu::Mode::Device,
        rucx::osu::Placement::IntraNode,
    );
    assert_ne!(a.at(8), b.at(8));
}

/// Satellite: striped multi-path rendezvous (>= 8 MiB intra-node D2D,
/// NVLink and X-Bus legs driven concurrently) completes deterministically.
/// The Chrome trace pins the full interleaving — every per-leg chunk
/// completion (`ucp.mp.chunk`) and the merged finalize — and must be
/// byte-identical across reruns.
#[test]
fn multipath_chunk_trace_is_byte_identical_across_runs() {
    use rucx::fabric::Topology;
    use rucx::gpu::DeviceId;
    use rucx::sim::RunOutcome;
    use rucx::ucp::{blocking, build_sim, MachineConfig, SendBuf, MASK_FULL};

    let traced_run = || {
        let mut sim = build_sim(Topology::summit(1), MachineConfig::default());
        sim.scheduler().trace.enable(0);
        // Concurrent 16 MiB device-to-device fetches over several pairs:
        // same-socket (NVLink + X-Bus stripes) and cross-socket (X-Bus +
        // host-bounce stripes), all in flight at once so leg completions
        // genuinely interleave.
        let size = 16u64 << 20;
        let pairs = [(0usize, 1usize), (2, 3), (1, 4), (0, 5)];
        let mut bufs = Vec::new();
        for &(s, d) in &pairs {
            let m = sim.world_mut();
            let src = m
                .gpu
                .pool
                .alloc_device(DeviceId(s as u32), size, false)
                .unwrap();
            let dst = m
                .gpu
                .pool
                .alloc_device(DeviceId(d as u32), size, false)
                .unwrap();
            bufs.push((src, dst));
        }
        for (i, (&(sp, dp), (src, dst))) in pairs.iter().zip(bufs).enumerate() {
            let tag = i as u64;
            sim.spawn("snd", sp as u64, move |ctx| {
                blocking::send(ctx, sp, dp, SendBuf::Mem(src), tag);
            });
            sim.spawn("rcv", dp as u64, move |ctx| {
                blocking::recv(ctx, dp, dst, tag, MASK_FULL);
            });
        }
        assert_eq!(sim.run(), RunOutcome::Completed);
        let c = sim.metrics();
        assert_eq!(
            c.get("ucp.rndv.multipath"),
            pairs.len() as u64,
            "every transfer must take the striped path"
        );
        assert!(c.get("ucp.multipath_chunks") > 0);
        sim.scheduler().trace.to_chrome_json()
    };
    let a = traced_run();
    assert!(a.contains("ucp.mp.chunk"), "chunk completions traced");
    assert_eq!(traced_run(), a, "rerun diverged");
}
