//! # rucx-coll — the topology-aware collective engine
//!
//! One place that owns algorithm choice and schedule construction for
//! collective communication of GPU data (the paper's §VI follow-on). Every
//! programming model routes its collectives through here:
//!
//! - AMPI and OpenMPI come in through one [`CollComm`] adapter over their
//!   shared point-to-point surface, `rucx_osu::coll::P2pComm`;
//! - Charm++ section reductions take their tree from [`schedule::Tree`];
//! - Charm4py `allreduce` / `bcast` run over its channels, so Python
//!   pickle/buffer-protocol costs apply per hop.
//!
//! Algorithms are pluggable ([`Algo`]): binomial tree, recursive doubling,
//! ring (reduce-scatter + allgather), and a hierarchical NVLink-aware
//! schedule (intra-node phase over NVLink/X-Bus, one leader per node over
//! the inter-node links, then an intra-node broadcast). Dispatch picks per
//! (message size, topology placement) via [`engine`]'s integer cost model,
//! which consults the machine's [`rucx_fabric::Topology`].

mod algo;
pub mod engine;
pub mod metrics;
pub mod op;
pub mod schedule;
pub mod tags;

pub use engine::Algo;
pub use op::{combine, ReduceOp};
pub use schedule::Tree;

use rucx_gpu::{MemRef, StreamId};
use rucx_ucp::MCtx;

/// The point-to-point surface a model layer exposes to the engine.
///
/// Collective rank `r` is process `r` of the simulated machine (the SPMD
/// identity mapping every model layer uses); the engine consults the
/// topology under that mapping. `send` may be asynchronous under the hood;
/// `sendrecv` must not deadlock when every rank of a pair calls it
/// simultaneously (models with blocking rendezvous sends implement it with
/// nonblocking pairs).
pub trait CollComm {
    fn rank(&self) -> usize;
    fn nranks(&self) -> usize;
    fn send(&mut self, ctx: &mut MCtx, buf: MemRef, dst: usize, tag: i32);
    fn recv(&mut self, ctx: &mut MCtx, buf: MemRef, src: usize, tag: i32);
    #[allow(clippy::too_many_arguments)]
    fn sendrecv(
        &mut self,
        ctx: &mut MCtx,
        sbuf: MemRef,
        dst: usize,
        stag: i32,
        rbuf: MemRef,
        src: usize,
        rtag: i32,
    );
}

/// Broadcast `buf` from `root` to every rank. `algo: None` lets the
/// engine choose; a forced algorithm other than `Hierarchical` runs as the
/// binomial tree.
pub fn bcast<C: CollComm>(c: &mut C, ctx: &mut MCtx, buf: MemRef, root: usize, algo: Option<Algo>) {
    let n = c.nranks();
    match algo.unwrap_or_else(|| ctx.with_world_ref(|w, _| engine::choose_bcast(w, n, buf.len))) {
        Algo::Hierarchical => {
            record_algo(ctx, Algo::Hierarchical);
            algo::bcast_hier(c, ctx, buf, root)
        }
        _ => {
            record_algo(ctx, Algo::Tree);
            algo::bcast_binomial(c, ctx, buf, root)
        }
    }
}

/// Allreduce of an `f64` payload. `scratch` must be a same-size buffer on
/// the same device. `algo: None` lets the engine choose; a forced `Ring`
/// with fewer elements than ranks, and a forced `Tree`, run as recursive
/// doubling.
pub fn allreduce<C: CollComm>(
    c: &mut C,
    ctx: &mut MCtx,
    buf: MemRef,
    scratch: MemRef,
    op: ReduceOp,
    algo: Option<Algo>,
) {
    assert_eq!(buf.len, scratch.len, "scratch must match buffer size");
    assert_eq!(buf.len % 8, 0, "f64 payload");
    let n = c.nranks();
    let a = match algo
        .unwrap_or_else(|| ctx.with_world_ref(|w, _| engine::choose_allreduce(w, n, buf.len)))
    {
        Algo::Ring if buf.len / 8 < n as u64 => Algo::RecursiveDoubling,
        Algo::Tree => Algo::RecursiveDoubling,
        a => a,
    };
    record_algo(ctx, a);
    match a {
        Algo::Ring => algo::allreduce_ring(c, ctx, buf, scratch, op),
        Algo::Hierarchical => algo::allreduce_hier(c, ctx, buf, scratch, op),
        _ => algo::allreduce_rd(c, ctx, buf, scratch, op),
    }
}

fn record_algo(ctx: &mut MCtx, a: Algo) {
    ctx.with_world(move |_, s| s.count(metrics::algo(a)));
}

/// The default stream of the device that process `me` drives.
pub(crate) fn stream_of(ctx: &mut MCtx, me: usize) -> StreamId {
    ctx.with_world_ref(|w, _| {
        let d = w.topo.device_of(me);
        w.gpu.default_stream(d)
    })
}

/// Account a collective payload hop on the link class it rides, and send.
pub(crate) fn send_counted<C: CollComm + ?Sized>(
    c: &mut C,
    ctx: &mut MCtx,
    buf: MemRef,
    dst: usize,
    tag: i32,
) {
    let src = c.rank();
    account_hop(ctx, src, dst, buf.len);
    c.send(ctx, buf, dst, tag);
}

/// Account + sendrecv (the send half is the hop this rank pays for).
#[allow(clippy::too_many_arguments)]
pub(crate) fn sendrecv_counted<C: CollComm + ?Sized>(
    c: &mut C,
    ctx: &mut MCtx,
    sbuf: MemRef,
    dst: usize,
    stag: i32,
    rbuf: MemRef,
    src: usize,
    rtag: i32,
) {
    let me = c.rank();
    account_hop(ctx, me, dst, sbuf.len);
    c.sendrecv(ctx, sbuf, dst, stag, rbuf, src, rtag);
}

fn account_hop(ctx: &mut MCtx, src: usize, dst: usize, bytes: u64) {
    ctx.with_world(move |w, s| {
        let m = if w.topo.same_socket(src, dst) {
            metrics::BYTES_NVLINK
        } else if w.topo.same_node(src, dst) {
            metrics::BYTES_XBUS
        } else {
            metrics::BYTES_INTER
        };
        s.count_n(m, bytes);
    });
}
