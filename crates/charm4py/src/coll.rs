//! Charm4py collectives over channels, routed through the shared
//! topology-aware collective engine ([`rucx_coll`]).
//!
//! Channels are FIFO per ordered peer pair and carry no tags, which is
//! sufficient here: the engine's schedules are deterministic SPMD programs,
//! so between any (src, dst) pair the receive order equals the send order
//! and the adapter can ignore the engine's tag argument. Every hop pays the
//! Python/Cython costs ([`crate::PY_SEND`] and the constants beside it) —
//! `channel.send` argument handling and buffer-protocol traversal on the
//! way out, coroutine suspension and wake on the way in — which is what
//! keeps Charm4py's collectives measurably above AMPI/OpenMPI at small
//! sizes.

use rucx_coll::{Algo, CollComm};
use rucx_gpu::MemRef;
use rucx_ucp::MCtx;

use crate::PyProc;

/// Reduction operators for [`PyProc::allreduce`] (`charm.reducers`).
pub use rucx_coll::ReduceOp;

/// Adapts a [`PyProc`]'s channel surface to the collective engine.
struct ChanComm<'a> {
    p: &'a mut PyProc,
}

impl CollComm for ChanComm<'_> {
    fn rank(&self) -> usize {
        self.p.rank()
    }

    fn nranks(&self) -> usize {
        self.p.size()
    }

    fn send(&mut self, ctx: &mut MCtx, buf: MemRef, dst: usize, _tag: i32) {
        let ch = self.p.channel(dst);
        self.p.send(ctx, ch, buf);
    }

    fn recv(&mut self, ctx: &mut MCtx, buf: MemRef, src: usize, _tag: i32) {
        let ch = self.p.channel(src);
        self.p.recv(ctx, ch, buf);
    }

    fn sendrecv(
        &mut self,
        ctx: &mut MCtx,
        sbuf: MemRef,
        dst: usize,
        _stag: i32,
        rbuf: MemRef,
        src: usize,
        _rtag: i32,
    ) {
        // `channel.send` is asynchronous (the runtime takes over the
        // buffer), so send-then-recv cannot deadlock on a symmetric
        // exchange.
        let sch = self.p.channel(dst);
        self.p.send(ctx, sch, sbuf);
        let rch = self.p.channel(src);
        self.p.recv(ctx, rch, rbuf);
    }
}

impl PyProc {
    /// `charm.allreduce` of a device-resident `f64` array over channels.
    /// `scratch` must be a same-size buffer on the same device; `algo:
    /// None` lets the engine pick the schedule per (size, placement).
    pub fn allreduce(
        &mut self,
        ctx: &mut MCtx,
        buf: MemRef,
        scratch: MemRef,
        op: ReduceOp,
        algo: Option<Algo>,
    ) {
        rucx_coll::allreduce(&mut ChanComm { p: self }, ctx, buf, scratch, op, algo)
    }

    /// Broadcast of a device buffer from `root` over channels.
    pub fn bcast(&mut self, ctx: &mut MCtx, buf: MemRef, root: usize, algo: Option<Algo>) {
        rucx_coll::bcast(&mut ChanComm { p: self }, ctx, buf, root, algo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rucx_fabric::Topology;
    use rucx_ucp::{build_sim, MachineConfig};
    use std::sync::Arc;

    fn run(algo: Option<Algo>) {
        let topo = Topology::summit(2);
        let mut sim = build_sim(topo.clone(), MachineConfig::default());
        let n = topo.procs();
        let elems = 16usize;
        let mut bufs = vec![];
        let mut scratch = vec![];
        for p in 0..n {
            let m = sim.world_mut();
            let b = m
                .gpu
                .pool
                .alloc_device(topo.device_of(p), (elems * 8) as u64, true)
                .unwrap();
            let vals: Vec<u8> = (0..elems)
                .flat_map(|i| ((p * 100 + i) as f64).to_le_bytes())
                .collect();
            m.gpu.pool.write(b, &vals).unwrap();
            bufs.push(b);
            scratch.push(
                m.gpu
                    .pool
                    .alloc_device(topo.device_of(p), (elems * 8) as u64, true)
                    .unwrap(),
            );
        }
        let bufs2 = Arc::new(bufs.clone());
        let scratch2 = Arc::new(scratch);
        crate::launch(&mut sim, move |py, ctx| {
            let me = py.rank();
            py.allreduce(ctx, bufs2[me], scratch2[me], ReduceOp::Sum, algo);
            py.bcast(ctx, bufs2[me], 3, None);
        });
        rucx_ucp::finish(&mut sim).unwrap();
        let expected: Vec<f64> = (0..elems)
            .map(|i| (0..n).map(|r| (r * 100 + i) as f64).sum())
            .collect();
        for (r, b) in bufs.iter().enumerate() {
            let got: Vec<f64> = sim
                .world()
                .gpu
                .pool
                .read(*b)
                .unwrap()
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            assert_eq!(got, expected, "rank {r}");
        }
    }

    #[test]
    fn allreduce_and_bcast_auto() {
        run(None);
    }

    #[test]
    fn allreduce_forced_ring_and_hier() {
        run(Some(Algo::Ring));
        run(Some(Algo::Hierarchical));
    }
}
