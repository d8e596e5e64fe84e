//! # rucx-coll — the topology-aware collective engine
//!
//! One place that owns algorithm choice and schedule construction for
//! collective communication of GPU data (the paper's §VI follow-on). Every
//! programming model routes its collectives through here:
//!
//! - AMPI `MPI_Allreduce` / `MPI_Bcast` ([`rucx-ampi`]) and the OSU generic
//!   `P2p` collectives ([`rucx-osu`]) are thin [`CollComm`] adapters;
//! - Charm++ section reductions take their tree from [`schedule::Tree`];
//! - Charm4py `allreduce` / `bcast` run over its channels, so Python
//!   pickle/buffer-protocol costs apply per hop.
//!
//! Algorithms are pluggable ([`Algo`]): binomial tree, recursive doubling,
//! ring (reduce-scatter + allgather), and a hierarchical NVLink-aware
//! schedule (intra-node phase over NVLink/X-Bus, one leader per node over
//! the inter-node links, then an intra-node broadcast). Dispatch picks per
//! (message size, topology placement) via [`engine`]'s integer cost model,
//! which consults the machine's [`rucx_fabric::Topology`] and the
//! protocol engine's per-endpoint RTT state.

pub mod algo;
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

/// Broadcast `buf` from `root` to every rank, algorithm chosen by the
/// engine.
pub fn bcast<C: CollComm>(c: &mut C, ctx: &mut MCtx, buf: MemRef, root: usize) {
    let a = engine::select_bcast(ctx, c.nranks(), buf.len);
    bcast_with(c, ctx, buf, root, a)
}

/// Broadcast with a forced algorithm (benchmarks, ablations).
pub fn bcast_with<C: CollComm>(c: &mut C, ctx: &mut MCtx, buf: MemRef, root: usize, a: Algo) {
    let a = match a {
        Algo::Hierarchical => Algo::Hierarchical,
        _ => Algo::Tree,
    };
    record_algo(ctx, a);
    match a {
        Algo::Hierarchical => algo::bcast_hier(c, ctx, buf, root),
        _ => algo::bcast_binomial(c, ctx, buf, root),
    }
}

/// Allreduce of an `f64` payload, algorithm chosen by the engine.
/// `scratch` must be a same-size buffer on the same device.
pub fn allreduce<C: CollComm>(
    c: &mut C,
    ctx: &mut MCtx,
    buf: MemRef,
    scratch: MemRef,
    op: ReduceOp,
) {
    let a = engine::select_allreduce(ctx, c.nranks(), buf.len);
    allreduce_with(c, ctx, buf, scratch, op, a)
}

/// Allreduce with a forced algorithm (benchmarks, ablations).
pub fn allreduce_with<C: CollComm>(
    c: &mut C,
    ctx: &mut MCtx,
    buf: MemRef,
    scratch: MemRef,
    op: ReduceOp,
    a: Algo,
) {
    assert_eq!(buf.len, scratch.len, "scratch must match buffer size");
    assert_eq!(buf.len % 8, 0, "f64 payload");
    // A ring needs at least one element per rank; degrade to doubling.
    let a = match a {
        Algo::Ring if buf.len / 8 < c.nranks() as u64 => Algo::RecursiveDoubling,
        Algo::Tree => Algo::RecursiveDoubling,
        other => other,
    };
    record_algo(ctx, a);
    match a {
        Algo::Ring => algo::allreduce_ring(c, ctx, buf, scratch, op),
        Algo::Hierarchical => algo::allreduce_hier(c, ctx, buf, scratch, op),
        _ => algo::allreduce_rd(c, ctx, buf, scratch, op),
    }
}

/// Rooted reduce of an `f64` payload along a binomial tree; the result
/// lands in `buf` on `root` (other ranks' buffers are clobbered with
/// partial reductions, as in MPI implementations' in-place tree reduce).
pub fn reduce<C: CollComm>(
    c: &mut C,
    ctx: &mut MCtx,
    buf: MemRef,
    scratch: MemRef,
    op: ReduceOp,
    root: usize,
) {
    record_algo(ctx, Algo::Tree);
    algo::reduce_binomial(c, ctx, buf, scratch, op, root)
}

/// Dissemination barrier. `token` and `scratch` are small (≥1 byte)
/// buffers used as round tokens.
pub fn barrier<C: CollComm>(c: &mut C, ctx: &mut MCtx, token: MemRef, scratch: MemRef) {
    record_algo(ctx, Algo::RecursiveDoubling);
    algo::barrier_dissemination(c, ctx, token, scratch)
}

/// Pairwise-exchange all-to-all: `sbuf`/`rbuf` hold `nranks` equal
/// contiguous blocks; block `i` of `sbuf` lands in block `rank` of rank
/// `i`'s `rbuf`.
pub fn alltoall<C: CollComm>(c: &mut C, ctx: &mut MCtx, sbuf: MemRef, rbuf: MemRef) {
    record_algo(ctx, Algo::Ring);
    algo::alltoall_pairwise(c, ctx, sbuf, rbuf)
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
