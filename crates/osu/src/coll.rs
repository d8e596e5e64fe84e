//! Collective communication of GPU data, translated to point-to-point
//! calls — the paper's §VI future-work item ("supporting collective
//! communication of GPU data, using this work as the basis to translate
//! collective communication primitives to point-to-point calls").
//!
//! The algorithms and their selection live in the shared topology-aware
//! engine ([`rucx_coll`]); this module adapts the generic
//! [`crate::mpi_like::P2p`] surface to [`CollComm`], so the same schedules
//! run on AMPI and OpenMPI. GPU payloads ride the GPU-aware point-to-point
//! path per hop.

use rucx_coll::CollComm;
use rucx_gpu::{DeviceId, MemRef};
use rucx_ucp::MCtx;

use crate::mpi_like::P2p;

/// Tag space reserved for collectives (distinct from user point-to-point).
pub const COLL_TAG_BASE: i32 = rucx_coll::tags::COLL_TAG_BASE;

/// Element-wise reduction operator for collectives over `f64` payloads.
pub use rucx_coll::ReduceOp as CollOp;

/// Adapts any [`P2p`] model to the collective engine's [`CollComm`].
pub struct P2pComm<'a, M: P2p> {
    mpi: &'a mut M,
    nranks: usize,
}

impl<'a, M: P2p> P2pComm<'a, M> {
    pub fn new(mpi: &'a mut M, nranks: usize) -> Self {
        P2pComm { mpi, nranks }
    }
}

impl<M: P2p> CollComm for P2pComm<'_, M> {
    fn rank(&self) -> usize {
        self.mpi.rank()
    }

    fn nranks(&self) -> usize {
        self.nranks
    }

    fn send(&mut self, ctx: &mut MCtx, buf: MemRef, dst: usize, tag: i32) {
        self.mpi.send(ctx, buf, dst, tag)
    }

    fn recv(&mut self, ctx: &mut MCtx, buf: MemRef, src: usize, tag: i32) {
        self.mpi.recv(ctx, buf, src, tag)
    }

    fn sendrecv(
        &mut self,
        ctx: &mut MCtx,
        sbuf: MemRef,
        dst: usize,
        stag: i32,
        rbuf: MemRef,
        src: usize,
        rtag: i32,
    ) {
        // Nonblocking both ways so a symmetric exchange cannot deadlock on
        // models whose blocking send is rendezvous-gated (AMPI).
        let r = self.mpi.irecv(ctx, rbuf, src, rtag);
        let s = self.mpi.isend(ctx, sbuf, dst, stag);
        self.mpi.waitall(ctx, vec![r, s]);
    }
}

/// Broadcast of `buf` from `root` to all ranks; the engine picks the
/// schedule (binomial tree or hierarchical) per size and placement.
pub fn bcast<M: P2p>(mpi: &mut M, ctx: &mut MCtx, buf: MemRef, root: usize, nranks: usize) {
    rucx_coll::bcast(&mut P2pComm::new(mpi, nranks), ctx, buf, root)
}

/// Broadcast with a forced algorithm (benchmarks, ablations).
#[allow(clippy::too_many_arguments)]
pub fn bcast_with<M: P2p>(
    mpi: &mut M,
    ctx: &mut MCtx,
    buf: MemRef,
    root: usize,
    nranks: usize,
    algo: rucx_coll::Algo,
) {
    rucx_coll::bcast_with(&mut P2pComm::new(mpi, nranks), ctx, buf, root, algo)
}

/// Allreduce over `f64` GPU buffers; the engine picks the schedule
/// (recursive doubling, ring, or hierarchical) per size and placement.
///
/// `scratch` is a device buffer of the same size used to receive partner
/// contributions. `device` is retained for API stability; the engine
/// derives each rank's stream from the topology.
#[allow(clippy::too_many_arguments)]
pub fn allreduce<M: P2p>(
    mpi: &mut M,
    ctx: &mut MCtx,
    buf: MemRef,
    scratch: MemRef,
    op: CollOp,
    nranks: usize,
    device: DeviceId,
) {
    let _ = device;
    rucx_coll::allreduce(&mut P2pComm::new(mpi, nranks), ctx, buf, scratch, op)
}

/// Allreduce with a forced algorithm (benchmarks, ablations).
#[allow(clippy::too_many_arguments)]
pub fn allreduce_with<M: P2p>(
    mpi: &mut M,
    ctx: &mut MCtx,
    buf: MemRef,
    scratch: MemRef,
    op: CollOp,
    nranks: usize,
    algo: rucx_coll::Algo,
) {
    rucx_coll::allreduce_with(&mut P2pComm::new(mpi, nranks), ctx, buf, scratch, op, algo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpi_like::RankFactory;
    use rucx_coll::Algo;
    use rucx_fabric::Topology;
    use rucx_sim::RunOutcome;
    use rucx_ucp::{build_sim, MSim, MachineConfig};
    use std::sync::Arc;

    fn setup(nodes: usize, size: u64) -> (MSim, Vec<MemRef>, Vec<MemRef>) {
        let topo = Topology::summit(nodes);
        let mut sim = build_sim(topo.clone(), MachineConfig::default());
        let mut bufs = vec![];
        let mut scratch = vec![];
        for p in 0..topo.procs() {
            let m = sim.world_mut();
            bufs.push(
                m.gpu
                    .pool
                    .alloc_device(topo.device_of(p), size, true)
                    .unwrap(),
            );
            scratch.push(
                m.gpu
                    .pool
                    .alloc_device(topo.device_of(p), size, true)
                    .unwrap(),
            );
        }
        (sim, bufs, scratch)
    }

    fn write_f64s(sim: &mut MSim, buf: MemRef, vals: &[f64]) {
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        sim.world_mut().gpu.pool.write(buf, &bytes).unwrap();
    }

    fn read_f64s(sim: &MSim, buf: MemRef) -> Vec<f64> {
        sim.world()
            .gpu
            .pool
            .read(buf)
            .unwrap()
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    fn run_bcast<F: RankFactory>(factory: F, root: usize) {
        let (mut sim, bufs, _) = setup(2, 64);
        write_f64s(&mut sim, bufs[root], &[1.5; 8]);
        let bufs2 = Arc::new(bufs.clone());
        let n = 12;
        factory.launch(&mut sim, move |mpi, ctx| {
            bcast(mpi, ctx, bufs2[mpi.rank()], root, n);
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        for b in &bufs {
            assert_eq!(read_f64s(&sim, *b), vec![1.5; 8]);
        }
    }

    #[test]
    fn bcast_openmpi_all_roots() {
        for root in [0usize, 3, 11] {
            run_bcast(crate::mpi_like::OmpiFactory, root);
        }
    }

    #[test]
    fn bcast_ampi() {
        for root in [5usize, 7] {
            run_bcast(crate::mpi_like::AmpiFactory, root);
        }
    }

    fn run_allreduce<F: RankFactory>(factory: F, nodes: usize, op: CollOp, algo: Option<Algo>) {
        // 8 elements/rank: enough for a 12-rank ring's per-rank segments.
        let (mut sim, bufs, scratch) = setup(nodes, 96);
        let n = nodes * 6;
        for (r, b) in bufs.iter().enumerate() {
            let vals: Vec<f64> = (0..12).map(|i| (r * 10 + i) as f64).collect();
            write_f64s(&mut sim, *b, &vals);
        }
        let bufs2 = Arc::new(bufs.clone());
        let scratch2 = Arc::new(scratch);
        factory.launch(&mut sim, move |mpi, ctx| {
            let me = mpi.rank();
            match algo {
                Some(a) => allreduce_with(mpi, ctx, bufs2[me], scratch2[me], op, n, a),
                None => {
                    let dev = ctx.with_world_ref(|w, _| w.topo.device_of(me));
                    allreduce(mpi, ctx, bufs2[me], scratch2[me], op, n, dev)
                }
            }
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        let expected: Vec<f64> = (0..12)
            .map(|i| {
                let vals = (0..n).map(|r| (r * 10 + i) as f64);
                match op {
                    CollOp::Sum => vals.sum(),
                    CollOp::Max => vals.fold(f64::NEG_INFINITY, f64::max),
                    CollOp::Min => vals.fold(f64::INFINITY, f64::min),
                }
            })
            .collect();
        for (r, b) in bufs.iter().enumerate() {
            assert_eq!(read_f64s(&sim, *b), expected, "rank {r}");
        }
    }

    #[test]
    fn allreduce_sum_openmpi_nonpow2() {
        // 12 ranks: exercises the fold-in/fold-out phases.
        run_allreduce(crate::mpi_like::OmpiFactory, 2, CollOp::Sum, None);
    }

    #[test]
    fn allreduce_max_openmpi() {
        run_allreduce(crate::mpi_like::OmpiFactory, 1, CollOp::Max, None);
    }

    #[test]
    fn allreduce_sum_ampi() {
        run_allreduce(crate::mpi_like::AmpiFactory, 1, CollOp::Sum, None);
    }

    #[test]
    fn allreduce_min_ampi_nonpow2() {
        run_allreduce(crate::mpi_like::AmpiFactory, 2, CollOp::Min, None);
    }

    #[test]
    fn allreduce_ring_both_models() {
        run_allreduce(
            crate::mpi_like::OmpiFactory,
            2,
            CollOp::Sum,
            Some(Algo::Ring),
        );
        run_allreduce(
            crate::mpi_like::AmpiFactory,
            2,
            CollOp::Sum,
            Some(Algo::Ring),
        );
    }

    #[test]
    fn allreduce_hierarchical_both_models() {
        run_allreduce(
            crate::mpi_like::OmpiFactory,
            2,
            CollOp::Max,
            Some(Algo::Hierarchical),
        );
        run_allreduce(
            crate::mpi_like::AmpiFactory,
            2,
            CollOp::Sum,
            Some(Algo::Hierarchical),
        );
    }
}
