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
use rucx_ucp::{build_sim, MSim, MachineConfig};

use crate::coll::{CollOp, P2pComm};
use crate::mpi_like::{AmpiFactory, OmpiFactory, P2p, RankFactory};
use crate::{run, Model, OsuConfig, Series};

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

    /// The algorithms this collective has a schedule for.
    pub fn algos(self) -> &'static [Algo] {
        match self {
            CollKind::Allreduce => &[Algo::RecursiveDoubling, Algo::Ring, Algo::Hierarchical],
            CollKind::Bcast => &[Algo::Tree, Algo::Hierarchical],
        }
    }
}

/// One collective point's simulation: a 2-node Summit slice with a phantom
/// device buffer and a device scratch buffer per process.
pub struct CollSetup {
    pub sim: MSim,
    bufs: Arc<Vec<(MemRef, MemRef)>>,
}

/// Build the simulation and buffers for one collective point of `size`
/// bytes.
pub fn coll_setup(machine: &MachineConfig, size: u64) -> CollSetup {
    let topo = Topology::summit(2);
    let mut sim = build_sim(topo.clone(), machine.clone());
    let pool = &mut sim.world_mut().gpu.pool;
    let mut alloc = |p| {
        pool.alloc_device(topo.device_of(p), size, false)
            .expect("device alloc")
    };
    // Buffer, then scratch, process by process.
    let bufs = Arc::new((0..topo.procs()).map(|p| (alloc(p), alloc(p))).collect());
    CollSetup { sim, bufs }
}

/// One latency measurement (µs per collective + barrier round on rank 0,
/// over `cfg.lat_iters` rounds after `cfg.lat_warmup`) on a fresh
/// [`coll_setup`]: the caller keeps the simulation, and can read its
/// counters or trace after. Panics on Charm++.
pub fn coll_point(
    s: &mut CollSetup,
    cfg: &OsuConfig,
    model: Model,
    kind: CollKind,
    algo: Option<Algo>,
) -> f64 {
    match model {
        Model::Ampi => mpi_coll_point(s, cfg, kind, algo, AmpiFactory),
        Model::Ompi => mpi_coll_point(s, cfg, kind, algo, OmpiFactory),
        Model::Charm4py => py_coll_point(s, cfg, kind, algo),
        Model::Charm => panic!(
            "collective benchmark supports AMPI/OpenMPI/Charm4py \
             (Charm++ reductions are scalar contributions)"
        ),
    }
}

fn mpi_coll_point<F: RankFactory>(
    s: &mut CollSetup,
    cfg: &OsuConfig,
    kind: CollKind,
    algo: Option<Algo>,
    factory: F,
) -> f64 {
    let (bufs, n) = (s.bufs.clone(), s.bufs.len());
    let (iters, warmup) = (cfg.lat_iters, cfg.lat_warmup);
    run(&mut s.sim, "collective", |sim, report| {
        factory.launch(sim, move |mpi, ctx| {
            let me = mpi.rank();
            let (buf, scr) = bufs[me];
            let mut t0 = 0;
            for i in 0..(warmup + iters) {
                if i == warmup {
                    mpi.barrier(ctx);
                    t0 = ctx.now();
                }
                let c = &mut P2pComm::new(mpi, n);
                match kind {
                    CollKind::Allreduce => {
                        rucx_coll::allreduce(c, ctx, buf, scr, CollOp::Sum, algo)
                    }
                    CollKind::Bcast => rucx_coll::bcast(c, ctx, buf, 0, algo),
                }
                mpi.barrier(ctx);
            }
            if me == 0 {
                *report.lock() = as_us(ctx.now() - t0) / iters as f64;
            }
        })
    })
}

fn py_coll_point(s: &mut CollSetup, cfg: &OsuConfig, kind: CollKind, algo: Option<Algo>) -> f64 {
    let bufs = s.bufs.clone();
    let (iters, warmup) = (cfg.lat_iters, cfg.lat_warmup);
    run(&mut s.sim, "collective", |sim, report| {
        rucx_charm4py::launch(sim, move |py, ctx| {
            let me = py.rank();
            let (buf, scr) = bufs[me];
            let mut t0 = 0;
            for i in 0..(warmup + iters) {
                if i == warmup {
                    py.barrier(ctx);
                    t0 = ctx.now();
                }
                match kind {
                    CollKind::Allreduce => py.allreduce(ctx, buf, scr, CollOp::Sum, algo),
                    CollKind::Bcast => py.bcast(ctx, buf, 0, algo),
                }
                py.barrier(ctx);
            }
            if me == 0 {
                *report.lock() = as_us(ctx.now() - t0) / iters as f64;
            }
        })
    })
}

/// Latency-vs-size sweep for one model/collective/algorithm. Sizes are
/// rounded up to one `f64` (the engine's payload unit). Panics on a forced
/// algorithm that is not in `kind.algos()`.
pub fn coll_latency(cfg: &OsuConfig, model: Model, kind: CollKind, algo: Option<Algo>) -> Series {
    if let Some(a) = algo.filter(|a| !kind.algos().contains(a)) {
        let names: Vec<&str> = kind.algos().iter().map(|a| a.label()).collect();
        panic!(
            "{} has no {} schedule (algorithms: {})",
            kind.label(),
            a.label(),
            names.join("|")
        );
    }
    let sizes: Vec<u64> = cfg
        .sizes
        .iter()
        .map(|&raw| raw.max(8).next_multiple_of(8))
        .collect();
    let points = crate::sweep::sweep(&sizes, |size| {
        coll_point(&mut coll_setup(&cfg.machine, size), cfg, model, kind, algo)
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
    #[should_panic(expected = "bcast has no ring schedule (algorithms: tree|hier)")]
    fn a_forced_algorithm_the_collective_lacks_is_refused() {
        let mut cfg = OsuConfig::quick();
        cfg.sizes = vec![4096];
        coll_latency(&cfg, Model::Ampi, CollKind::Bcast, Some(Algo::Ring));
    }

    #[test]
    fn bcast_latency_runs() {
        let mut cfg = OsuConfig::quick();
        cfg.sizes = vec![4096];
        let s = coll_latency(&cfg, Model::Ampi, CollKind::Bcast, None);
        assert!(s.points[0].1 > 0.0);
    }
}
