//! Collectives of GPU data as point-to-point calls (the paper's §VI
//! future work): the shared engine ([`rucx_coll`]) owns algorithms and
//! their selection, and [`P2pComm`] adapts the generic [`P2p`] surface to
//! its [`CollComm`], so the same schedules run on AMPI and OpenMPI.

use crate::mpi_like::P2p;
use rucx_coll::CollComm;
use rucx_gpu::{DeviceId, MemRef};
use rucx_ucp::MCtx;

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
        // Nonblocking both ways: AMPI's blocking send is rendezvous-gated.
        let r = self.mpi.irecv(ctx, rbuf, src, rtag);
        let s = self.mpi.isend(ctx, sbuf, dst, stag);
        self.mpi.waitall(ctx, vec![r, s]);
    }
}

/// `rucx_coll::allreduce(&mut P2pComm::new(mpi, nranks), .., None)` for the
/// frozen benchmark and `rucx-bench`, which do not depend on `rucx-coll`.
#[allow(clippy::too_many_arguments)]
pub fn allreduce<M: P2p>(
    mpi: &mut M,
    ctx: &mut MCtx,
    buf: MemRef,
    scratch: MemRef,
    op: CollOp,
    nranks: usize,
    _: DeviceId,
) {
    rucx_coll::allreduce(&mut P2pComm::new(mpi, nranks), ctx, buf, scratch, op, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpi_like::RankFactory;
    use rucx_coll::{metrics, Algo};
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
            let me = mpi.rank();
            rucx_coll::bcast(&mut P2pComm::new(mpi, n), ctx, bufs2[me], root, None);
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
            let c = &mut P2pComm::new(mpi, n);
            rucx_coll::allreduce(c, ctx, bufs2[me], scratch2[me], op, algo);
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

    /// A forced algorithm the payload cannot carry falls back inside the
    /// engine, and the dispatch counter names the schedule that ran.
    #[test]
    fn forced_ring_falls_back_and_auto_counts_its_choice() {
        // 4 elements on 12 ranks: too few for one ring segment per rank.
        let (mut sim, bufs, scratch) = setup(2, 32);
        for (r, b) in bufs.iter().enumerate() {
            write_f64s(&mut sim, *b, &[r as f64; 4]);
        }
        let (bufs2, scratch2) = (Arc::new(bufs.clone()), Arc::new(scratch));
        crate::mpi_like::OmpiFactory.launch(&mut sim, move |mpi, ctx| {
            let me = mpi.rank();
            let c = &mut P2pComm::new(mpi, 12);
            rucx_coll::allreduce(
                c,
                ctx,
                bufs2[me],
                scratch2[me],
                CollOp::Sum,
                Some(Algo::Ring),
            );
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        for b in &bufs {
            assert_eq!(read_f64s(&sim, *b), vec![66.0; 4]);
        }
        assert_eq!(sim.metrics().get(metrics::ALGO_RD.name), 12);
        assert_eq!(sim.metrics().get(metrics::ALGO_RING.name), 0);

        let size = 1 << 20;
        let (mut sim, bufs, scratch) = setup(2, size);
        let chosen = rucx_coll::engine::choose_allreduce(sim.world(), 12, size);
        let (bufs, scratch) = (Arc::new(bufs), Arc::new(scratch));
        crate::mpi_like::OmpiFactory.launch(&mut sim, move |mpi, ctx| {
            let me = mpi.rank();
            let dev = ctx.with_world_ref(|w, _| w.topo.device_of(me));
            allreduce(mpi, ctx, bufs[me], scratch[me], CollOp::Sum, 12, dev);
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        for a in [
            Algo::Tree,
            Algo::RecursiveDoubling,
            Algo::Ring,
            Algo::Hierarchical,
        ] {
            let want = if a == chosen { 12 } else { 0 };
            assert_eq!(sim.metrics().get(metrics::algo(a).name), want, "{a:?}");
        }
    }
}
