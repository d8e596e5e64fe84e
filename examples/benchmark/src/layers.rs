//! The layer ladder: one rung per crate-level cost, timed from outside.
//!
//! Layers are the crates. Each rung is a small driver that owns its
//! `Simulation`, calls that crate's public functions, asserts the
//! simulation completed and prints its fixed configuration; the reported
//! number is the median of `SAMPLES` samples. The model rungs run the same
//! 8 B device inter-node ping-pong on every layer of the stack, so
//! differencing two rungs gives a layer's own cost per message
//! (`<model>.self_ns_per_msg`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rucx::charm::{ChareRef, Collection, EpId, Pe};
use rucx::coll::schedule::Tree;
use rucx::compat::rendezvous::rendezvous;
use rucx::fabric::{net_transfer, Topology, WireKind};
use rucx::fault::FaultSpec;
use rucx::gpu::ops::{copy_async, kernel_async};
use rucx::gpu::{DeviceId, KernelCost, MemRef};
use rucx::osu::coll::CollOp;
use rucx::osu::mpi_like::{AmpiFactory, OmpiFactory, P2p, RankFactory};
use rucx::sim::{RunOutcome, Simulation};
use rucx::ucp::{
    blocking, build_sim, probe_pop, tag_recv_nb, tag_send_nb, Completion, MSim, MachineConfig,
    RecvCompletion, RegCache, SendBuf, MASK_FULL,
};

use crate::measure::{median, Metric};
use crate::trace::{virt_share_pct, Spans, VIRT_LAYERS};

/// Samples per rung (the issue asks for a median of at least 11).
const SAMPLES: usize = 11;
/// Rank 0's inter-node peer on a 2-node Summit slice.
const PEER: usize = 6;
/// One-way messages of a steady-state model rung.
const STEADY_MSGS: u32 = 20_000;
/// One-way messages of a cold rung: the first messages of a fresh simulation.
const COLD_MSGS: u32 = 100;
/// One-way messages of a traced model rung (virtual shares do not depend
/// on the count; this many fit the simulator's default trace ring).
const TRACED_MSGS: u32 = 2_000;

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_nanos() as f64, r)
}

fn samples(mut f: impl FnMut() -> f64) -> Vec<f64> {
    (0..SAMPLES).map(|_| f()).collect()
}

fn completed<W: Send + 'static>(sim: &mut Simulation<W>, rung: &str) {
    assert_eq!(
        sim.run(),
        RunOutcome::Completed,
        "rung `{rung}` did not complete"
    );
}

struct Ladder {
    metrics: Vec<Metric>,
}

impl Ladder {
    /// Record a sampled rung and print its fixed configuration.
    fn push(&mut self, name: &str, unit: &'static str, config: &str, s: &[f64]) {
        println!("  [rung {name}: {config}]");
        self.metrics.push(Metric::from_samples(name, unit, s));
    }

    fn exact(&mut self, name: impl Into<String>, unit: &'static str, v: f64) {
        self.metrics.push(Metric::exact(name, unit, v));
    }
}

// ------------------------------------------------------------------- compat

fn compat_rungs(l: &mut Ladder) {
    const TRIPS: u64 = 2_000;
    let s = samples(|| {
        let (req_tx, req_rx) = rendezvous::<u64>();
        let (rep_tx, rep_rx) = rendezvous::<u64>();
        std::thread::scope(|sc| {
            let echo = sc.spawn(move || {
                for _ in 0..TRIPS {
                    let v = req_rx.recv().expect("request");
                    rep_tx.send(v + 1).expect("reply");
                }
            });
            let (ns, v) = timed(|| {
                let mut v = 0;
                for _ in 0..TRIPS {
                    req_tx.send(v).expect("request");
                    v = rep_rx.recv().expect("reply");
                }
                v
            });
            assert_eq!(v, TRIPS);
            echo.join().expect("echo thread");
            ns / (2 * TRIPS) as f64
        })
    });
    l.push(
        "compat.rendezvous_ns_per_handoff",
        "ns",
        "2 threads, 2 one-slot cells, 2000 round trips = 4000 handoffs",
        &s,
    );
}

// ---------------------------------------------------------------------- sim

fn sim_rungs(l: &mut Ladder) {
    const EVENTS: u64 = 100_000;
    let s = samples(|| {
        let mut sim = Simulation::new(0u64);
        for i in 0..EVENTS {
            sim.scheduler().schedule_at(i, |w, _| *w += 1);
        }
        let (ns, _) = timed(|| completed(&mut sim, "sim.dispatch"));
        assert_eq!(*sim.world(), EVENTS);
        ns / EVENTS as f64
    });
    l.push(
        "sim.dispatch_ns_per_event",
        "ns",
        "100000 closures at distinct times, no processes",
        &s,
    );

    const HOPS: u64 = 50_000;
    let s = samples(|| {
        let mut sim = Simulation::new(());
        sim.spawn("hopper", 0, |ctx| {
            for _ in 0..HOPS {
                ctx.advance(1);
            }
        });
        timed(|| completed(&mut sim, "sim.self_resume")).0 / HOPS as f64
    });
    l.push(
        "sim.self_resume_ns",
        "ns",
        "1 process, 50000 x advance(1), no thread switch",
        &s,
    );

    // `procs` processes woken round-robin: process i runs at times
    // i, i+procs, i+2*procs, ..., so every wake-up hands the baton to
    // another thread.
    let handoff = |procs: u64, rounds: u64| {
        samples(|| {
            let mut sim = Simulation::new(());
            for i in 0..procs {
                sim.spawn(format!("p{i}"), i, move |ctx| {
                    for _ in 0..rounds {
                        ctx.advance(procs);
                    }
                });
            }
            timed(|| completed(&mut sim, "sim.handoff")).0 / (procs * rounds) as f64
        })
    };
    l.push(
        "sim.handoff_2proc_ns",
        "ns",
        "2 processes alternating, 5000 wake-ups each",
        &handoff(2, 5_000),
    );
    l.push(
        "sim.handoff_48proc_ns",
        "ns",
        "48 processes woken round-robin, 50 wake-ups each",
        &handoff(48, 50),
    );

    const SPAWNS: u64 = 48;
    let s = samples(|| {
        timed(|| {
            let mut sim = Simulation::new(());
            for i in 0..SPAWNS {
                sim.spawn(format!("p{i}"), 0, |_| {});
            }
            completed(&mut sim, "sim.spawn");
        })
        .0 / SPAWNS as f64
            / 1e3
    });
    l.push(
        "sim.spawn_us_per_proc",
        "us",
        "Simulation::new + 48 x spawn of an empty body + run + drop, pooled threads",
        &s,
    );

    const TIMERS: u64 = 10_000;
    let s = samples(|| {
        let mut sim = Simulation::new(0u64);
        let sched = sim.scheduler();
        let (ns, _) = timed(|| {
            let keys: Vec<_> = (0..TIMERS)
                .map(|i| sched.schedule_cancellable_at(1_000 + i, |w, _| *w += 1))
                .collect();
            for k in keys {
                assert!(sched.cancel(k));
            }
        });
        completed(&mut sim, "sim.cancel");
        assert_eq!(*sim.world(), 0);
        ns / TIMERS as f64
    });
    l.push(
        "sim.cancel_ns_per_timer",
        "ns",
        "10000 x schedule_cancellable_at then cancel",
        &s,
    );

    const TRACE_SPANS: u64 = 50_000;
    let s = samples(|| {
        let mut sim = Simulation::new(());
        let sched = sim.scheduler();
        sched.trace.enable(TRACE_SPANS as usize);
        let (ns, _) = timed(|| {
            for i in 0..TRACE_SPANS {
                sched.trace_span("ucp.eager", i, i + 10, 0, i, 8);
            }
        });
        assert_eq!(sched.trace.len() as u64, TRACE_SPANS);
        ns / TRACE_SPANS as f64
    });
    l.push(
        "sim.trace_ns_per_span",
        "ns",
        "TraceSink enabled, 50000 x Scheduler::trace_span",
        &s,
    );
}

// ------------------------------------------------------------- gpu, fabric

fn gpu_fabric_rungs(l: &mut Ladder) {
    const N: u64 = 10_000;
    let mut sim = build_sim(Topology::summit(2), MachineConfig::default());

    let s = samples(|| {
        let pool = &mut sim.world_mut().gpu.pool;
        timed(|| {
            for _ in 0..N {
                let m = pool.alloc_device(DeviceId(0), 4096, false).expect("alloc");
                pool.free(m.id).expect("free");
            }
        })
        .0 / N as f64
    });
    l.push(
        "gpu.alloc_free_ns",
        "ns",
        "10000 x alloc_device(4 KiB phantom) + free",
        &s,
    );

    const MIB: u64 = 1 << 20;
    const COPIES: u64 = 200;
    let pool = &mut sim.world_mut().gpu.pool;
    let a = pool.alloc_device(DeviceId(0), MIB, true).expect("alloc");
    let b = pool.alloc_device(DeviceId(1), MIB, true).expect("alloc");
    pool.write(a, &vec![7u8; MIB as usize]).expect("write");
    let s = samples(|| {
        let pool = &mut sim.world_mut().gpu.pool;
        let (ns, _) = timed(|| {
            for _ in 0..COPIES {
                pool.copy(a, b).expect("copy");
            }
        });
        (COPIES * MIB) as f64 / ns
    });
    assert_eq!(
        sim.world().gpu.pool.read(b).expect("read")[MIB as usize - 1],
        7
    );
    l.push(
        "gpu.copy_real_gb_per_s",
        "GB/s",
        "MemPool::copy, 200 x 1 MiB materialized device to device",
        &s,
    );

    let src = sim
        .world_mut()
        .gpu
        .pool
        .alloc_device(DeviceId(0), 4096, false)
        .expect("alloc");
    let dst = sim
        .world_mut()
        .gpu
        .pool
        .alloc_device(DeviceId(1), 4096, false)
        .expect("alloc");
    let stream = sim.world().gpu.default_stream(DeviceId(0));
    let s = samples(|| {
        let (ns, _) = timed(|| {
            sim.with_parts(|w, sch| {
                for _ in 0..N {
                    copy_async(w, sch, src, dst, stream, None);
                }
            });
            completed(&mut sim, "gpu.copy_async");
        });
        ns / N as f64
    });
    l.push(
        "gpu.copy_async_ns",
        "ns",
        "10000 x copy_async(4 KiB phantom, NVLink) enqueue + completion event",
        &s,
    );

    let s = samples(|| {
        let (ns, _) = timed(|| {
            sim.with_parts(|w, sch| {
                for _ in 0..N {
                    let t = sch.new_trigger();
                    let cost = KernelCost {
                        fixed: 1_000,
                        bytes: 4096,
                    };
                    kernel_async(w, sch, stream, cost, Some(t));
                }
            });
            completed(&mut sim, "gpu.kernel_async");
        });
        ns / N as f64
    });
    l.push(
        "gpu.kernel_async_ns",
        "ns",
        "10000 x kernel_async with a completion trigger + its event",
        &s,
    );

    let s = samples(|| {
        let (ns, _) = timed(|| {
            sim.with_parts(|w, sch| {
                for _ in 0..N {
                    net_transfer(w, sch, (0, 0), (1, 0), 4096, WireKind::Host, |_, _| {});
                }
            });
            completed(&mut sim, "fabric.net_transfer");
        });
        ns / N as f64
    });
    l.push(
        "fabric.net_transfer_ns",
        "ns",
        "10000 x net_transfer(4 KiB host, node 0 to 1) + arrival event",
        &s,
    );
}

// ---------------------------------------------------------------------- ucp

/// Messages per burst of the event-driven ucp rungs: the window of the
/// `stream` workload, so posted/unexpected queues are 64 deep.
const BURST: u64 = 64;

/// Event-driven tagged traffic 0 -> 6 with no processes, in `bursts`
/// bursts of `BURST` messages: receives posted first (`expected`) or after
/// the burst has arrived (unexpected). Returns host ns per message.
fn ucp_msgs(cfg: &MachineConfig, bursts: u64, size: u64, device: bool, expected: bool) -> f64 {
    let mut sim = build_sim(Topology::summit(2), cfg.clone());
    let pool = &mut sim.world_mut().gpu.pool;
    let (src, dst) = if device {
        (
            pool.alloc_device(DeviceId(0), size, false).expect("alloc"),
            pool.alloc_device(DeviceId(PEER as u32), size, false)
                .expect("alloc"),
        )
    } else {
        (
            pool.alloc_host(0, size, true, false),
            pool.alloc_host(1, size, true, false),
        )
    };
    let done = Arc::new(AtomicU64::new(0));
    let post = |sim: &mut MSim| {
        let done = done.clone();
        sim.with_parts(move |w, s| {
            for tag in 0..BURST {
                let done = done.clone();
                let count = RecvCompletion::Callback(Box::new(move |_, _, _| {
                    done.fetch_add(1, Ordering::Relaxed);
                }));
                tag_recv_nb(w, s, PEER, dst, tag, MASK_FULL, count);
            }
        })
    };
    let send = |sim: &mut MSim| {
        sim.with_parts(|w, s| {
            for tag in 0..BURST {
                tag_send_nb(w, s, 0, PEER, SendBuf::Mem(src), tag, Completion::None);
            }
        })
    };
    let (ns, _) = timed(|| {
        for _ in 0..bursts {
            if expected {
                post(&mut sim);
                send(&mut sim);
            } else {
                send(&mut sim);
                completed(&mut sim, "ucp msgs (arrive)");
                post(&mut sim);
            }
            completed(&mut sim, "ucp msgs");
        }
    });
    assert_eq!(done.load(Ordering::Relaxed), bursts * BURST);
    ns / (bursts * BURST) as f64
}

fn ucp_rungs(l: &mut Ladder) {
    for (nodes, name) in [(2, "ucp.build_sim_2n_us"), (8, "ucp.build_sim_8n_us")] {
        let s = samples(|| {
            timed(|| drop(build_sim(Topology::summit(nodes), MachineConfig::default()))).0 / 1e3
        });
        l.push(
            name,
            "us",
            "build_sim(Topology::summit(n), default) + drop",
            &s,
        );
    }

    let clean = MachineConfig::default();
    let eager = samples(|| ucp_msgs(&clean, 32, 8, false, true));
    l.push(
        "ucp.eager_ns_per_msg",
        "ns",
        "32 bursts of 64 x 8 B host eager 0->6 inter-node, receives pre-posted, no processes",
        &eager,
    );
    let s = samples(|| ucp_msgs(&clean, 8, 1 << 20, true, true));
    l.push(
        "ucp.rndv_ns_per_msg",
        "ns",
        "8 bursts of 64 x 1 MiB device rendezvous 0->6 (pipelined host staging), receives \
         pre-posted",
        &s,
    );
    let s = samples(|| ucp_msgs(&clean, 32, 8, false, false));
    l.push(
        "ucp.unexpected_ns_per_msg",
        "ns",
        "32 bursts of 64 x 8 B host eager 0->6, receives posted after arrival, in order",
        &s,
    );

    let s = samples(|| {
        let mut sim = build_sim(Topology::summit(1), MachineConfig::default());
        sim.with_parts(|w, s| {
            for i in 0..1_000u64 {
                let buf = SendBuf::bytes(vec![0u8; 8]);
                tag_send_nb(w, s, 0, 1, buf, i, Completion::None);
            }
        });
        completed(&mut sim, "ucp.match_depth1k");
        let (ns, found) =
            timed(|| sim.with_parts(|w, _| probe_pop(w, 1, 999, MASK_FULL).is_some()));
        assert!(found);
        ns
    });
    l.push(
        "ucp.match_depth1k_ns",
        "ns",
        "probe_pop of the deepest of 1000 unexpected messages",
        &s,
    );

    const REGS: u64 = 10_000;
    let hit = samples(|| {
        let mut reg = RegCache::new(true);
        reg.register(1, 4096, 1 << 30);
        let (ns, _) = timed(|| {
            for _ in 0..REGS {
                assert!(reg.register(1, 4096, 1 << 30).hit);
            }
        });
        ns / REGS as f64
    });
    l.push(
        "ucp.reg_hit_ns",
        "ns",
        "10000 x RegCache::register of a cached buffer",
        &hit,
    );
    let miss = samples(|| {
        let mut reg = RegCache::new(true);
        let (ns, _) = timed(|| {
            for id in 0..REGS {
                // A 64-buffer budget, so steady state is miss + evict.
                assert!(!reg.register(id, 4096, 64 * 4096).hit);
            }
        });
        ns / REGS as f64
    });
    l.push(
        "ucp.reg_miss_ns",
        "ns",
        "10000 x RegCache::register of a new 4 KiB buffer, 256 KiB budget (miss + evict)",
        &miss,
    );

    let armed = MachineConfig {
        fault: Some(FaultSpec::parse("seed=1,drop=0").expect("spec")),
        ..MachineConfig::default()
    };
    let tracked = samples(|| ucp_msgs(&armed, 32, 8, false, true));
    l.push(
        "ucp.reliable_extra_ns_per_msg",
        "ns",
        "eager rung under an armed fault spec with drop=0, minus the clean eager rung",
        &[median(&tracked) - median(&eager)],
    );
}

// -------------------------------------------------------------- model rungs

#[derive(Clone, Copy, PartialEq)]
enum Layer {
    Ucp,
    Ompi,
    Charm,
    Ampi,
    Charm4py,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Ucp => "ucp",
            Layer::Ompi => "ompi",
            Layer::Charm => "charm",
            Layer::Ampi => "ampi",
            Layer::Charm4py => "charm4py",
        }
    }

    fn spans(self) -> (&'static str, &'static str) {
        match self {
            Layer::Ucp => ("ucp.rung", "ucp.launch"),
            Layer::Ompi => ("ompi.rung", "ompi.launch"),
            Layer::Charm => ("charm.rung", "charm.launch"),
            Layer::Ampi => ("ampi.rung", "ampi.launch"),
            Layer::Charm4py => ("charm4py.rung", "charm4py.launch"),
        }
    }
}

fn mpi_pingpong<F: RankFactory>(sim: &mut MSim, factory: F, a: MemRef, b: MemRef, iters: u32) {
    factory.launch(sim, move |mpi, ctx| {
        if mpi.rank() == 0 {
            for _ in 0..iters {
                mpi.send(ctx, a, PEER, 1);
                mpi.recv(ctx, a, PEER, 2);
            }
        } else if mpi.rank() == PEER {
            for _ in 0..iters {
                mpi.recv(ctx, b, 0, 1);
                mpi.send(ctx, b, 0, 2);
            }
        }
    });
}

/// Message-driven ping-pong between chares 0 and `PEER`: each delivery of
/// the entry method sends the device buffer back.
struct PingChare {
    buf: MemRef,
    me: u64,
    col: Collection,
    ep: EpId,
    /// Round trips rank 0 still has to complete.
    remaining: u32,
}

impl PingChare {
    fn send(&self, pe: &mut Pe, ctx: &mut rucx::ucp::MCtx) {
        let to = ChareRef {
            col: self.col,
            index: if self.me == 0 { PEER as u64 } else { 0 },
        };
        pe.send(ctx, to, self.ep, vec![], 0, vec![self.buf]);
    }
}

fn charm_pingpong(sim: &mut MSim, a: MemRef, b: MemRef, iters: u32) {
    rucx::charm::launch(sim, move |pe, ctx| {
        let n = pe.n_pes as u64;
        let col = pe.register_collection(n, |i| i as usize);
        let ep = pe.register_ep(
            col,
            Some(Box::new(|chare, _| {
                vec![chare.downcast_mut::<PingChare>().expect("PingChare").buf]
            })),
            Box::new(|chare, _, pe, ctx| {
                let c = chare.downcast_mut::<PingChare>().expect("PingChare");
                if c.me == 0 {
                    c.remaining -= 1;
                    if c.remaining == 0 {
                        pe.exit_all(ctx);
                        return;
                    }
                }
                c.send(pe, ctx);
            }),
        );
        let me = pe.index as u64;
        pe.insert_chare(
            col,
            me,
            Box::new(PingChare {
                buf: if me == 0 { a } else { b },
                me,
                col,
                ep,
                remaining: iters,
            }),
        );
        if me == 0 {
            pe.with_chare::<PingChare, _>(ctx, col, 0, |c, pe, ctx| c.send(pe, ctx));
        }
        pe.run(ctx);
    });
}

struct RungRun {
    run_ns: f64,
    events: u64,
    virt_share: Option<[f64; 5]>,
}

/// One 8 B device inter-node ping-pong of `msgs` one-way messages on
/// `layer`, on a fresh 2-node simulation the rung owns. With `spans` the
/// rung's phases are recorded (build_sim → alloc → launch → run →
/// fold → teardown); with `virt` the simulator's `TraceSink` is on as well
/// and folded into per-layer shares of virtual time.
fn model_rung(layer: Layer, msgs: u32, mut spans: Option<&mut Spans>, virt: bool) -> RungRun {
    let iters = msgs / 2;
    let (rung_span, launch_span) = layer.spans();
    let rung = spans.as_deref_mut().map(|s| s.begin(rung_span));
    macro_rules! phase {
        ($name:expr, $body:expr) => {{
            let id = spans.as_deref_mut().map(|s| s.begin($name));
            let r = $body;
            if let (Some(s), Some(id)) = (spans.as_deref_mut(), id) {
                s.end(id);
            }
            r
        }};
    }
    let mut sim = phase!("ucp.build_sim", {
        let mut sim = build_sim(Topology::summit(2), MachineConfig::default());
        if virt {
            sim.scheduler().trace.enable(0);
        }
        sim
    });
    let (a, b) = phase!("gpu.alloc", {
        let pool = &mut sim.world_mut().gpu.pool;
        (
            pool.alloc_device(DeviceId(0), 8, false).expect("alloc"),
            pool.alloc_device(DeviceId(PEER as u32), 8, false)
                .expect("alloc"),
        )
    });
    phase!(launch_span, {
        match layer {
            Layer::Ucp => {
                sim.spawn("ucp0", 0, move |ctx| {
                    for _ in 0..iters {
                        blocking::send(ctx, 0, PEER, SendBuf::Mem(a), 1);
                        blocking::recv(ctx, 0, a, 2, MASK_FULL);
                    }
                });
                sim.spawn("ucp6", 0, move |ctx| {
                    for _ in 0..iters {
                        blocking::recv(ctx, PEER, b, 1, MASK_FULL);
                        blocking::send(ctx, PEER, 0, SendBuf::Mem(b), 2);
                    }
                });
            }
            Layer::Ompi => mpi_pingpong(&mut sim, OmpiFactory, a, b, iters),
            Layer::Ampi => mpi_pingpong(&mut sim, AmpiFactory, a, b, iters),
            Layer::Charm => charm_pingpong(&mut sim, a, b, iters),
            Layer::Charm4py => rucx::charm4py::launch(&mut sim, move |py, ctx| {
                if py.rank() == 0 {
                    let ch = py.channel(PEER);
                    for _ in 0..iters {
                        py.send(ctx, ch, a);
                        py.recv(ctx, ch, a);
                    }
                } else if py.rank() == PEER {
                    let ch = py.channel(0);
                    for _ in 0..iters {
                        py.recv(ctx, ch, b);
                        py.send(ctx, ch, b);
                    }
                }
            }),
        }
    });
    let (run_ns, _) = phase!("sim.run", timed(|| completed(&mut sim, layer.name())));
    let events = sim.scheduler_ref().events_executed();
    let virt_share = phase!("trace.fold", {
        let sink = &sim.scheduler_ref().trace;
        assert_eq!(
            sink.dropped(),
            0,
            "trace ring too small for the traced rung"
        );
        virt.then(|| virt_share_pct(sink))
    });
    phase!("teardown", drop(sim));
    if let (Some(s), Some(id)) = (spans, rung) {
        s.end(id);
    }
    RungRun {
        run_ns,
        events,
        virt_share,
    }
}

fn model_rungs(l: &mut Ladder) {
    let layers = [
        Layer::Ucp,
        Layer::Ompi,
        Layer::Charm,
        Layer::Ampi,
        Layer::Charm4py,
    ];
    let mut steady = Vec::new();
    for layer in layers {
        let name = layer.name();
        let mut events = 0;
        let s = samples(|| {
            let r = model_rung(layer, STEADY_MSGS, None, false);
            events = r.events;
            r.run_ns / STEADY_MSGS as f64
        });
        l.push(
            &format!("{name}.pingpong_ns_per_msg"),
            "ns",
            "8 B device inter-node ping-pong, ranks 0 and 6 of 12, 20000 one-way messages, \
             sim.run() only",
            &s,
        );
        l.exact(
            format!("{name}.events_per_msg"),
            "count",
            events as f64 / STEADY_MSGS as f64,
        );
        if layer == Layer::Ampi {
            l.exact(
                "sim.fullstack_ns_per_event",
                "ns",
                median(&s) * STEADY_MSGS as f64 / events as f64,
            );
        }
        steady.push(median(&s));
        if layer != Layer::Ucp {
            let s = samples(|| model_rung(layer, COLD_MSGS, None, false).run_ns / COLD_MSGS as f64);
            l.push(
                &format!("{name}.cold_ns_per_msg"),
                "ns",
                "same ping-pong, the first 100 messages of a fresh simulation",
                &s,
            );
        }
    }
    // ompi and charm sit on ucp; ampi and charm4py sit on charm.
    let [ucp, ompi, charm, ampi, charm4py] = steady[..] else {
        unreachable!("five layers")
    };
    for (name, v) in [
        ("ompi", ompi - ucp),
        ("charm", charm - ucp),
        ("ampi", ampi - charm),
        ("charm4py", charm4py - charm),
    ] {
        l.exact(format!("{name}.self_ns_per_msg"), "ns", v);
    }
}

/// The traced model rungs: one ping-pong per model with host spans
/// around its phases and the simulator's `TraceSink` on. Returns the
/// `<model>.virt_share_pct.<layer>` metrics and, per rung, how far the
/// phases' self times are from the rung's span (percent).
pub fn traced_model_rungs(spans: &mut Spans) -> (Vec<Metric>, Vec<(&'static str, f64)>) {
    let mut metrics = Vec::new();
    let mut gaps = Vec::new();
    for layer in [Layer::Ompi, Layer::Charm, Layer::Ampi, Layer::Charm4py] {
        let first = spans.spans.len();
        let r = model_rung(layer, TRACED_MSGS, Some(spans), true);
        let share = r.virt_share.expect("traced rung folds its sink");
        for (i, vl) in VIRT_LAYERS.iter().enumerate() {
            metrics.push(Metric::exact(
                format!("{}.virt_share_pct.{vl}", layer.name()),
                "%",
                share[i],
            ));
        }
        let rung = spans.spans[first].dur_ns() as f64;
        let phases: u64 = (first + 1..spans.spans.len())
            .map(|id| spans.self_ns(id))
            .sum();
        gaps.push((layer.name(), 100.0 * (rung - phases as f64).abs() / rung));
    }
    (metrics, gaps)
}

// --------------------------------------------------------------------- coll

fn allreduce_rung(size: u64, iters: u32) -> f64 {
    let topo = Topology::summit(2);
    let n = topo.procs();
    let mut sim = build_sim(topo.clone(), MachineConfig::default());
    let pool = &mut sim.world_mut().gpu.pool;
    let mut alloc = || -> Arc<Vec<MemRef>> {
        Arc::new(
            (0..n)
                .map(|p| {
                    pool.alloc_device(topo.device_of(p), size, false)
                        .expect("alloc")
                })
                .collect(),
        )
    };
    let (bufs, scratch) = (alloc(), alloc());
    OmpiFactory.launch(&mut sim, move |mpi, ctx| {
        let me = mpi.rank();
        let dev = ctx.with_world_ref(|w, _| w.topo.device_of(me));
        for _ in 0..iters {
            rucx::osu::coll::allreduce(mpi, ctx, bufs[me], scratch[me], CollOp::Sum, n, dev);
        }
    });
    timed(|| completed(&mut sim, "coll.allreduce")).0 / (n as u64 * iters as u64) as f64 / 1e3
}

fn coll_rungs(l: &mut Ladder) {
    const CHOICES: u64 = 10_000;
    let sim = build_sim(Topology::summit(2), MachineConfig::default());
    let s = samples(|| {
        let w = sim.world();
        timed(|| {
            for i in 0..CHOICES {
                std::hint::black_box(rucx::coll::engine::choose_allreduce(
                    w,
                    12,
                    std::hint::black_box(8 << (i % 20)),
                ));
            }
        })
        .0 / CHOICES as f64
    });
    l.push(
        "coll.choose_ns",
        "ns",
        "10000 x choose_allreduce(12 ranks, 8 B..4 MiB)",
        &s,
    );

    let topo = Topology::summit(256);
    let s = samples(|| {
        let (ns, tree) = timed(|| Tree::topology(&topo, 1536));
        assert_eq!(tree.len(), 1536);
        ns / 1e3
    });
    l.push(
        "coll.tree_build_us_1536",
        "us",
        "Tree::topology over 256 nodes x 6 = 1536 participants",
        &s,
    );

    for (name, size, iters) in [
        ("coll.allreduce_8b_us_per_rank_call", 8, 10),
        ("coll.allreduce_1m_us_per_rank_call", 1 << 20, 10),
        ("coll.allreduce_4m_us_per_rank_call", 4 << 20, 2),
    ] {
        let s = samples(|| allreduce_rung(size, iters));
        l.push(
            name,
            "us",
            &format!("ompi allreduce (engine-chosen), 12 ranks on 2 nodes, {iters} calls, sim.run() only"),
            &s,
        );
    }
}

/// Run every rung once.
pub fn run() -> Vec<Metric> {
    let mut l = Ladder {
        metrics: Vec::new(),
    };
    compat_rungs(&mut l);
    sim_rungs(&mut l);
    gpu_fabric_rungs(&mut l);
    ucp_rungs(&mut l);
    model_rungs(&mut l);
    coll_rungs(&mut l);
    l.metrics
}
