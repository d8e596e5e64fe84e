//! OSU-style collective latency benchmark (`osu_allreduce` / `osu_bcast`):
//! all 12 ranks of a two-node Summit slice run the collective repeatedly;
//! reported latency is the per-iteration time of one (collective +
//! barrier) round measured on rank 0. Buffers are phantom (timing never
//! depends on payload content), so the combine kernels pay their launch
//! and memory-bound time without the element-wise math.
//!
//! `algo: None` lets the engine's cost model pick per size — the curve a
//! user sees; forcing an [`Algo`] produces the ablation curves
//! (flat recursive doubling vs ring vs hierarchical NVLink-aware).

use std::sync::Arc;

use rucx_coll::Algo;
use rucx_fabric::Topology;
use rucx_gpu::MemRef;
use rucx_sim::time::as_us;
use rucx_sim::RunOutcome;
use rucx_ucp::{build_sim, MSim, MachineConfig};

use crate::coll::{self, CollOp};
use crate::mpi_like::{P2p, RankFactory};
use crate::{Model, OsuConfig, Series};

/// Which collective to time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollKind {
    Allreduce,
    Bcast,
}

impl CollKind {
    pub fn label(self) -> &'static str {
        match self {
            CollKind::Allreduce => "allreduce",
            CollKind::Bcast => "bcast",
        }
    }
}

/// Per-process phantom device buffer + scratch on a 2-node Summit slice.
fn coll_setup(machine: &MachineConfig, size: u64) -> (MSim, Vec<MemRef>, Vec<MemRef>) {
    let topo = Topology::summit(2);
    let mut sim = build_sim(topo.clone(), machine.clone());
    let mut bufs = Vec::new();
    let mut scratch = Vec::new();
    {
        let m = sim.world_mut();
        for p in 0..topo.procs() {
            bufs.push(
                m.gpu
                    .pool
                    .alloc_device(topo.device_of(p), size, false)
                    .expect("device alloc"),
            );
            scratch.push(
                m.gpu
                    .pool
                    .alloc_device(topo.device_of(p), size, false)
                    .expect("device alloc"),
            );
        }
    }
    (sim, bufs, scratch)
}

fn mpi_coll_point<F: RankFactory>(
    cfg: &OsuConfig,
    size: u64,
    kind: CollKind,
    algo: Option<Algo>,
    factory: F,
) -> f64 {
    let (mut sim, bufs, scratch) = coll_setup(&cfg.machine, size);
    let n = bufs.len();
    let (bufs, scratch) = (Arc::new(bufs), Arc::new(scratch));
    let result = Arc::new(rucx_compat::sync::Mutex::new(0.0f64));
    let result2 = result.clone();
    let (iters, warmup) = (cfg.lat_iters, cfg.lat_warmup);

    factory.launch(&mut sim, move |mpi, ctx| {
        let me = mpi.rank();
        let buf = bufs[me];
        let scr = scratch[me];
        let mut t0 = 0;
        for i in 0..(warmup + iters) {
            if i == warmup {
                mpi.barrier(ctx);
                t0 = ctx.now();
            }
            run_one(mpi, ctx, kind, algo, buf, scr, n);
            mpi.barrier(ctx);
        }
        if me == 0 {
            *result2.lock() = as_us(ctx.now() - t0) / iters as f64;
        }
    });
    assert_eq!(sim.run(), RunOutcome::Completed, "collective deadlocked");
    let r = *result.lock();
    r
}

fn run_one<M: P2p>(
    mpi: &mut M,
    ctx: &mut rucx_ucp::MCtx,
    kind: CollKind,
    algo: Option<Algo>,
    buf: MemRef,
    scr: MemRef,
    n: usize,
) {
    match (kind, algo) {
        (CollKind::Allreduce, Some(a)) => {
            coll::allreduce_with(mpi, ctx, buf, scr, CollOp::Sum, n, a)
        }
        (CollKind::Allreduce, None) => {
            let me = mpi.rank();
            let dev = ctx.with_world_ref(|w, _| w.topo.device_of(me));
            coll::allreduce(mpi, ctx, buf, scr, CollOp::Sum, n, dev)
        }
        (CollKind::Bcast, Some(a)) => coll::bcast_with(mpi, ctx, buf, 0, n, a),
        (CollKind::Bcast, None) => coll::bcast(mpi, ctx, buf, 0, n),
    }
}

fn py_coll_point(cfg: &OsuConfig, size: u64, kind: CollKind, algo: Option<Algo>) -> f64 {
    let (mut sim, bufs, scratch) = coll_setup(&cfg.machine, size);
    let (bufs, scratch) = (Arc::new(bufs), Arc::new(scratch));
    let result = Arc::new(rucx_compat::sync::Mutex::new(0.0f64));
    let result2 = result.clone();
    let (iters, warmup) = (cfg.lat_iters, cfg.lat_warmup);

    rucx_charm4py::launch(&mut sim, move |py, ctx| {
        let me = py.rank();
        let buf = bufs[me];
        let scr = scratch[me];
        let mut t0 = 0;
        for i in 0..(warmup + iters) {
            if i == warmup {
                py.barrier(ctx);
                t0 = ctx.now();
            }
            match (kind, algo) {
                (CollKind::Allreduce, Some(a)) => {
                    py.allreduce_with(ctx, buf, scr, rucx_charm4py::ReduceOp::Sum, a)
                }
                (CollKind::Allreduce, None) => {
                    py.allreduce(ctx, buf, scr, rucx_charm4py::ReduceOp::Sum)
                }
                (CollKind::Bcast, Some(a)) => py.bcast_with(ctx, buf, 0, a),
                (CollKind::Bcast, None) => py.bcast(ctx, buf, 0),
            }
            py.barrier(ctx);
        }
        if me == 0 {
            *result2.lock() = as_us(ctx.now() - t0) / iters as f64;
        }
    });
    assert_eq!(sim.run(), RunOutcome::Completed, "collective deadlocked");
    let r = *result.lock();
    r
}

/// Latency-vs-size sweep for one model/collective/algorithm. Sizes are
/// rounded up to one `f64` (the engine's payload unit).
pub fn coll_latency(cfg: &OsuConfig, model: Model, kind: CollKind, algo: Option<Algo>) -> Series {
    let sizes: Vec<u64> = cfg
        .sizes
        .iter()
        .map(|&raw| raw.max(8).next_multiple_of(8))
        .collect();
    let points = crate::sweep::sweep(&sizes, |size| match model {
        Model::Ampi => mpi_coll_point(cfg, size, kind, algo, crate::mpi_like::AmpiFactory),
        Model::Ompi => mpi_coll_point(cfg, size, kind, algo, crate::mpi_like::OmpiFactory),
        Model::Charm4py => py_coll_point(cfg, size, kind, algo),
        Model::Charm => panic!(
            "collective benchmark supports AMPI/OpenMPI/Charm4py \
             (Charm++ reductions are scalar contributions)"
        ),
    });
    Series {
        label: format!(
            "{}-D {} [{}] latency",
            model.label(),
            kind.label(),
            algo.map_or("auto", Algo::label),
        ),
        unit: "us",
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allreduce_latency_sweeps_all_models() {
        let mut cfg = OsuConfig::quick();
        cfg.sizes = vec![256];
        for model in [Model::Ampi, Model::Ompi, Model::Charm4py] {
            let s = coll_latency(&cfg, model, CollKind::Allreduce, None);
            assert_eq!(s.points.len(), 1);
            assert!(s.points[0].1 > 0.0, "{model:?}");
        }
    }

    #[test]
    fn hierarchical_beats_flat_doubling_at_1mib() {
        let mut cfg = OsuConfig::quick();
        cfg.sizes = vec![1 << 20];
        cfg.lat_iters = 3;
        cfg.lat_warmup = 1;
        let rd = coll_latency(
            &cfg,
            Model::Ompi,
            CollKind::Allreduce,
            Some(Algo::RecursiveDoubling),
        );
        let hier = coll_latency(
            &cfg,
            Model::Ompi,
            CollKind::Allreduce,
            Some(Algo::Hierarchical),
        );
        assert!(
            hier.points[0].1 < rd.points[0].1,
            "hier {} us !< flat rd {} us",
            hier.points[0].1,
            rd.points[0].1
        );
    }

    #[test]
    #[should_panic(expected = "collective benchmark supports AMPI/OpenMPI/Charm4py")]
    fn a_failing_point_reraises_its_own_message() {
        let mut cfg = OsuConfig::quick();
        cfg.sizes = vec![8, 4096, 1 << 20];
        coll_latency(&cfg, Model::Charm, CollKind::Allreduce, None);
    }

    #[test]
    fn bcast_latency_runs() {
        let mut cfg = OsuConfig::quick();
        cfg.sizes = vec![4096];
        let s = coll_latency(&cfg, Model::Ampi, CollKind::Bcast, None);
        assert!(s.points[0].1 > 0.0);
    }
}
