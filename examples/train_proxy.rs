//! Data-parallel training-step proxy: every GPU runs a backward-pass
//! compute kernel per gradient bucket, then allreduces that bucket's
//! gradients through the topology-aware collective engine. Buckets later
//! in the backward pass compute on a dedicated stream while earlier
//! buckets' allreduces are in flight — the standard DDP compute/comm
//! overlap — so step time is max(compute, comm) plus the exposed tails,
//! not their sum.
//!
//! ```text
//! cargo run --release --example train_proxy
//! cargo run --release --example train_proxy -- --algo ring --buckets 8
//! cargo run --release --example train_proxy -- --no-overlap --json
//! ```

use std::sync::Arc;

use rucx::coll::{allreduce, Algo};
use rucx::fault::FaultSpec;
use rucx::osu::coll::{CollOp, P2pComm};
use rucx::osu::coll_bench::CollKind;
use rucx::osu::mpi_like::{AmpiFactory, OmpiFactory, P2p, RankFactory};
use rucx::osu::Series;
use rucx::prelude::*;
use rucx::sim::time::as_us;

#[derive(Clone)]
struct TrainConfig {
    /// Total gradient bytes per rank (the "model size") to sweep.
    sizes: Vec<u64>,
    buckets: u64,
    steps: u32,
    warmup: u32,
    overlap: bool,
    /// HBM bytes the backward pass touches per gradient byte produced
    /// (activation recomputation + weight reads across the bucket's
    /// layers). Sized so backward compute is comparable to gradient
    /// communication — the regime bucketed overlap targets.
    intensity: u64,
    algo: Option<Algo>,
    machine: MachineConfig,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            sizes: vec![1 << 20, 4 << 20, 16 << 20, 64 << 20],
            buckets: 4,
            steps: 5,
            warmup: 1,
            overlap: true,
            intensity: 300,
            algo: None,
            machine: MachineConfig::default(),
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: train_proxy [--model ampi|openmpi] [--algo auto|rd|ring|hier] \
         [--buckets N] [--steps N] [--intensity BYTES_PER_GRAD_BYTE] [--no-overlap] \
         [--quick] [--fault-spec SPEC] [--json]"
    );
    std::process::exit(2)
}

/// One training step: launch every bucket's backward kernel on the compute
/// stream, then allreduce each bucket as its gradients become ready. The
/// collective engine's reduction kernels run on the device's default
/// stream, so bucket k+1's backward overlaps bucket k's communication.
#[allow(clippy::too_many_arguments)]
fn train_step<M: P2p>(
    mpi: &mut M,
    ctx: &mut MCtx,
    grads: MemRef,
    scratch: MemRef,
    compute: rucx::gpu::StreamId,
    cfg: &TrainConfig,
    n: usize,
) {
    let bucket = grads.len / cfg.buckets;
    let intensity = cfg.intensity;
    if cfg.overlap {
        // Backward pass emits gradients bucket by bucket.
        let ready: Vec<_> = (0..cfg.buckets)
            .map(|_| {
                ctx.with_world(move |w, s| {
                    let t = s.new_trigger();
                    rucx::gpu::kernel_async(
                        w,
                        s,
                        compute,
                        KernelCost {
                            fixed: us(25.0),
                            bytes: bucket * intensity,
                        },
                        Some(t),
                    );
                    t
                })
            })
            .collect();
        for (k, t) in ready.into_iter().enumerate() {
            ctx.wait(t);
            ctx.with_world(move |_, s| s.recycle_trigger(t));
            let off = k as u64 * bucket;
            let (g, s) = (grads.slice(off, bucket), scratch.slice(off, bucket));
            allreduce(&mut P2pComm::new(mpi, n), ctx, g, s, CollOp::Sum, cfg.algo);
        }
    } else {
        // Synchronous baseline: full backward, then one fat allreduce.
        let t = ctx.with_world(move |w, s| {
            let t = s.new_trigger();
            rucx::gpu::kernel_async(
                w,
                s,
                compute,
                KernelCost {
                    fixed: us(25.0) * cfg.buckets,
                    bytes: grads.len * intensity,
                },
                Some(t),
            );
            t
        });
        ctx.wait(t);
        ctx.with_world(move |_, s| s.recycle_trigger(t));
        allreduce(
            &mut P2pComm::new(mpi, n),
            ctx,
            grads,
            scratch,
            CollOp::Sum,
            cfg.algo,
        );
    }
}

/// Average step time (µs) for one model size.
fn step_time<F: RankFactory>(cfg: &TrainConfig, size: u64, factory: F) -> f64 {
    let topo = Topology::summit(2);
    let mut sim = build_sim(topo.clone(), cfg.machine.clone());
    let mut grads = Vec::new();
    let mut scratch = Vec::new();
    {
        let m = sim.world_mut();
        for p in 0..topo.procs() {
            grads.push(
                m.gpu
                    .pool
                    .alloc_device(topo.device_of(p), size, false)
                    .expect("grad alloc"),
            );
            scratch.push(
                m.gpu
                    .pool
                    .alloc_device(topo.device_of(p), size, false)
                    .expect("scratch alloc"),
            );
        }
    }
    let (grads, scratch) = (Arc::new(grads), Arc::new(scratch));
    let cfg2 = cfg.clone();

    let step = rucx::ucp::run(&mut sim, |sim, result| {
        factory.launch(sim, move |mpi, ctx| {
            let me = mpi.rank();
            let n = grads.len();
            let compute = ctx.with_world(move |w, _| {
                let dev = w.topo.device_of(me);
                w.gpu.create_stream(dev)
            });
            let mut t0 = 0;
            for i in 0..(cfg2.warmup + cfg2.steps) {
                if i == cfg2.warmup {
                    mpi.barrier(ctx);
                    t0 = ctx.now();
                }
                train_step(mpi, ctx, grads[me], scratch[me], compute, &cfg2, n);
            }
            if me == 0 {
                *result.lock() = as_us(ctx.now() - t0) / cfg2.steps as f64;
            }
        })
    });
    step.unwrap_or_else(|e| panic!("training step: {e}"))
}

/// The sweep over `cfg.sizes` (ascending), each rounded to a whole number
/// of 8-byte elements per bucket.
fn sweep(cfg: &TrainConfig, ampi: bool) -> Series {
    let points = cfg
        .sizes
        .iter()
        .map(|&s| {
            let size = (s / (8 * cfg.buckets)).max(16) * 8 * cfg.buckets;
            let v = if ampi {
                step_time(cfg, size, AmpiFactory)
            } else {
                step_time(cfg, size, OmpiFactory)
            };
            (size, v)
        })
        .collect();
    Series {
        label: format!(
            "train-proxy {} [{}] {}x{} step time",
            if ampi { "AMPI" } else { "OpenMPI" },
            cfg.algo.map_or("auto", Algo::label),
            cfg.buckets,
            if cfg.overlap { "overlap" } else { "sync" },
        ),
        unit: "us",
        points,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = TrainConfig::default();
    let mut ampi = false;
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--model" => match it.next().map(|s| s.as_str()) {
                Some("ampi") => ampi = true,
                Some("openmpi") => ampi = false,
                _ => usage(),
            },
            "--algo" => {
                cfg.algo = match it.next().map(|s| s.as_str()) {
                    Some("auto") => None,
                    Some(name) => Some(
                        Algo::parse(name)
                            .filter(|a| CollKind::Allreduce.algos().contains(a))
                            .unwrap_or_else(|| usage()),
                    ),
                    None => usage(),
                }
            }
            "--buckets" => {
                cfg.buckets = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--steps" => {
                cfg.steps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--no-overlap" => cfg.overlap = false,
            "--intensity" => {
                cfg.intensity = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--quick" => {
                cfg.sizes = vec![256 << 10, 4 << 20];
                cfg.steps = 2;
                cfg.warmup = 1;
            }
            "--fault-spec" => {
                let spec = it.next().unwrap_or_else(|| usage());
                cfg.machine.fault = Some(FaultSpec::parse(spec).unwrap_or_else(|e| {
                    eprintln!("bad --fault-spec: {e}");
                    std::process::exit(2);
                }));
            }
            "--json" => json = true,
            _ => usage(),
        }
    }

    let series = sweep(&cfg, ampi);
    if json {
        use rucx::compat::json::ToJson;
        println!("{}", series.to_json());
        return;
    }
    println!("# {} ({})", series.label, series.unit);
    println!("{:>12}  {:>14}", "model bytes", "step us");
    for (size, v) in &series.points {
        println!("{size:>12}  {v:>14.2}");
    }
}
