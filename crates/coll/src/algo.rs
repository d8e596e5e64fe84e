//! The pluggable collective algorithms, written once over [`CollComm`].
//!
//! Every edge of every schedule is one GPU-aware point-to-point message,
//! so the full eager/rendezvous/IPC/pipeline machinery applies per hop;
//! local combining is the shared [`crate::op::combine`] model. All loops
//! are deterministic functions of (rank, nranks, topology) — no clocks, no
//! randomness — which is what makes cross-model conformance and the CI
//! byte-identical-JSON gates possible.

use rucx_gpu::MemRef;
use rucx_ucp::MCtx;

use crate::op::{combine, ReduceOp};
use crate::tags::*;
use crate::{send_counted, sendrecv_counted, stream_of, CollComm};

/// Node-major rank groups of the collective (ranks `0..n` under the SPMD
/// identity mapping), each sorted ascending; group order follows the
/// lowest rank in the group.
pub(crate) fn node_groups(ctx: &mut MCtx, n: usize) -> Vec<Vec<usize>> {
    ctx.with_world_ref(|w, _| {
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for r in 0..n {
            let node = w.topo.node_of(r);
            if node >= groups.len() {
                groups.resize(node + 1, Vec::new());
            }
            groups[node].push(r);
        }
        groups.retain(|g| !g.is_empty());
        groups
    })
}

/// Binomial-tree broadcast among `members` (sorted global ranks), rooted
/// at `members[root_idx]`.
fn bcast_among<C: CollComm>(
    c: &mut C,
    ctx: &mut MCtx,
    buf: MemRef,
    members: &[usize],
    root_idx: usize,
    tag: i32,
) {
    let p = members.len();
    if p <= 1 {
        return;
    }
    let me = c.rank();
    // Invariant: callers only invoke this for their own group.
    let li = members.binary_search(&me).expect("rank not in group");
    let vrank = (li + p - root_idx) % p;
    let mut mask = 1usize;
    while mask < p {
        if vrank & mask != 0 {
            let parent = members[(vrank - mask + root_idx) % p];
            c.recv(ctx, buf, parent, tag);
            break;
        }
        mask <<= 1;
    }
    let mut child = mask >> 1;
    while child > 0 {
        let vchild = vrank + child;
        if vchild < p {
            let dst = members[(vchild + root_idx) % p];
            send_counted(c, ctx, buf, dst, tag);
        }
        child >>= 1;
    }
}

/// Flat binomial-tree broadcast from global rank `root`.
pub fn bcast_binomial<C: CollComm>(c: &mut C, ctx: &mut MCtx, buf: MemRef, root: usize) {
    let members: Vec<usize> = (0..c.nranks()).collect();
    bcast_among(c, ctx, buf, &members, root, TAG_BCAST)
}

/// Hierarchical broadcast: the root hands the payload to its node leader,
/// leaders relay it across nodes (binomial over leaders), then each leader
/// broadcasts within its node over NVLink/X-Bus.
pub fn bcast_hier<C: CollComm>(c: &mut C, ctx: &mut MCtx, buf: MemRef, root: usize) {
    let n = c.nranks();
    let me = c.rank();
    let groups = node_groups(ctx, n);
    if groups.len() <= 1 {
        return bcast_binomial(c, ctx, buf, root);
    }
    let my_gi = groups
        .iter()
        .position(|g| g.binary_search(&me).is_ok())
        .expect("rank not in any node group");
    let leader = groups[my_gi][0];
    let root_gi = groups
        .iter()
        .position(|g| g.binary_search(&root).is_ok())
        .expect("root not in any node group");
    let root_leader = groups[root_gi][0];
    // Hand the payload from the root to its node leader if they differ.
    if root != root_leader {
        if me == root {
            send_counted(c, ctx, buf, root_leader, TAG_BCAST);
        } else if me == root_leader {
            c.recv(ctx, buf, root, TAG_BCAST);
        }
    }
    // Leaders relay across nodes.
    if me == leader {
        let leaders: Vec<usize> = groups.iter().map(|g| g[0]).collect();
        bcast_among(c, ctx, buf, &leaders, root_gi, TAG_BCAST);
    }
    // Intra-node broadcast from each leader.
    bcast_among(c, ctx, buf, &groups[my_gi], 0, TAG_HIER_BCAST)
}

/// Recursive-doubling allreduce among `members` (sorted global ranks),
/// with fold-in/fold-out for non-power-of-two group sizes.
fn rd_among<C: CollComm>(
    c: &mut C,
    ctx: &mut MCtx,
    buf: MemRef,
    scratch: MemRef,
    op: ReduceOp,
    members: &[usize],
) {
    let p = members.len();
    if p <= 1 {
        return;
    }
    let me = c.rank();
    let li = members.binary_search(&me).expect("rank not in group");
    let stream = stream_of(ctx, me);
    let p2 = p.next_power_of_two() / if p.is_power_of_two() { 1 } else { 2 };
    let extra = p - p2;
    // Fold-in: the trailing `extra` ranks park their contribution.
    if li >= p2 {
        send_counted(c, ctx, buf, members[li - p2], TAG_FOLD_IN);
    } else if li < extra {
        c.recv(ctx, scratch, members[li + p2], TAG_FOLD_IN);
        combine(ctx, buf, scratch, op, stream);
    }
    // Butterfly exchange among the first p2 ranks.
    if li < p2 {
        let mut mask = 1usize;
        while mask < p2 {
            let partner = members[li ^ mask];
            sendrecv_counted(
                c,
                ctx,
                buf,
                partner,
                TAG_EXCHANGE,
                scratch,
                partner,
                TAG_EXCHANGE,
            );
            combine(ctx, buf, scratch, op, stream);
            mask <<= 1;
        }
    }
    // Fold-out: hand the full result back.
    if li < extra {
        send_counted(c, ctx, buf, members[li + p2], TAG_FOLD_OUT);
    } else if li >= p2 {
        c.recv(ctx, buf, members[li - p2], TAG_FOLD_OUT);
    }
}

/// Flat recursive-doubling allreduce over all ranks.
pub fn allreduce_rd<C: CollComm>(
    c: &mut C,
    ctx: &mut MCtx,
    buf: MemRef,
    scratch: MemRef,
    op: ReduceOp,
) {
    let members: Vec<usize> = (0..c.nranks()).collect();
    rd_among(c, ctx, buf, scratch, op, &members)
}

/// Byte offset/length of ring segment `s` of `n` over an `len`-byte `f64`
/// payload: 8-byte aligned, remainder spread over the leading segments.
fn ring_seg(len: u64, n: u64, s: u64) -> (u64, u64) {
    let elems = len / 8;
    let base = elems / n;
    let rem = elems % n;
    let off = s * base + s.min(rem);
    let cnt = base + u64::from(s < rem);
    (off * 8, cnt * 8)
}

/// Ring allreduce: bandwidth-optimal reduce-scatter + allgather over
/// 8-byte-aligned segments. Requires at least one element per rank
/// (the dispatcher degrades smaller payloads to recursive doubling).
pub fn allreduce_ring<C: CollComm>(
    c: &mut C,
    ctx: &mut MCtx,
    buf: MemRef,
    scratch: MemRef,
    op: ReduceOp,
) {
    let n = c.nranks() as u64;
    if n <= 1 {
        return;
    }
    let me = c.rank() as u64;
    let stream = stream_of(ctx, me as usize);
    let right = ((me + 1) % n) as usize;
    let left = ((me + n - 1) % n) as usize;
    // Reduce-scatter: after n-1 steps, this rank owns the full reduction
    // of segment (me + 1) % n.
    for k in 0..n - 1 {
        let s_send = (me + n - k) % n;
        let s_recv = (me + n - k - 1) % n;
        let (so, sl) = ring_seg(buf.len, n, s_send);
        let (ro, rl) = ring_seg(buf.len, n, s_recv);
        sendrecv_counted(
            c,
            ctx,
            buf.slice(so, sl),
            right,
            TAG_RING_RS,
            scratch.slice(ro, rl),
            left,
            TAG_RING_RS,
        );
        combine(ctx, buf.slice(ro, rl), scratch.slice(ro, rl), op, stream);
    }
    // Allgather: circulate the owned segments.
    for k in 0..n - 1 {
        let s_send = (me + 1 + n - k) % n;
        let s_recv = (me + n - k) % n;
        let (so, sl) = ring_seg(buf.len, n, s_send);
        let (ro, rl) = ring_seg(buf.len, n, s_recv);
        sendrecv_counted(
            c,
            ctx,
            buf.slice(so, sl),
            right,
            TAG_RING_AG,
            buf.slice(ro, rl),
            left,
            TAG_RING_AG,
        );
    }
}

/// Hierarchical NVLink-aware allreduce: gather+reduce to one leader per
/// node over the intra-node links, recursive doubling among leaders over
/// the inter-node links, then an intra-node broadcast of the result.
pub fn allreduce_hier<C: CollComm>(
    c: &mut C,
    ctx: &mut MCtx,
    buf: MemRef,
    scratch: MemRef,
    op: ReduceOp,
) {
    let n = c.nranks();
    let me = c.rank();
    let groups = node_groups(ctx, n);
    if groups.len() <= 1 {
        return allreduce_rd(c, ctx, buf, scratch, op);
    }
    let my_gi = groups
        .iter()
        .position(|g| g.binary_search(&me).is_ok())
        .expect("rank not in any node group");
    let group = groups[my_gi].clone();
    let leader = group[0];
    let stream = stream_of(ctx, me);
    // Phase 1: reduce to the node leader. Contributions arrive in rank
    // order so the floating-point combine order is deterministic.
    if me == leader {
        for &r in &group[1..] {
            c.recv(ctx, scratch, r, TAG_HIER_GATHER);
            combine(ctx, buf, scratch, op, stream);
        }
    } else {
        send_counted(c, ctx, buf, leader, TAG_HIER_GATHER);
    }
    // Phase 2: one flow per node crosses the network.
    if me == leader {
        let leaders: Vec<usize> = groups.iter().map(|g| g[0]).collect();
        rd_among(c, ctx, buf, scratch, op, &leaders);
    }
    // Phase 3: fan the result back out over NVLink/X-Bus.
    bcast_among(c, ctx, buf, &group, 0, TAG_HIER_BCAST)
}

/// Rooted binomial-tree reduce; the result lands in `buf` on `root`.
pub fn reduce_binomial<C: CollComm>(
    c: &mut C,
    ctx: &mut MCtx,
    buf: MemRef,
    scratch: MemRef,
    op: ReduceOp,
    root: usize,
) {
    assert_eq!(buf.len, scratch.len, "scratch must match buffer size");
    assert_eq!(buf.len % 8, 0, "f64 payload");
    let n = c.nranks();
    if n <= 1 {
        return;
    }
    let me = c.rank();
    let stream = stream_of(ctx, me);
    let vrank = (me + n - root) % n;
    let mut mask = 1usize;
    while mask < n {
        if vrank & mask == 0 {
            let vchild = vrank | mask;
            if vchild < n {
                let child = (vchild + root) % n;
                c.recv(ctx, scratch, child, TAG_REDUCE);
                combine(ctx, buf, scratch, op, stream);
            }
        } else {
            let parent = (vrank - mask + root) % n;
            send_counted(c, ctx, buf, parent, TAG_REDUCE);
            break;
        }
        mask <<= 1;
    }
}

/// Dissemination barrier over small token buffers.
pub fn barrier_dissemination<C: CollComm>(
    c: &mut C,
    ctx: &mut MCtx,
    token: MemRef,
    scratch: MemRef,
) {
    let n = c.nranks();
    let me = c.rank();
    let mut mask = 1usize;
    while mask < n {
        let to = (me + mask) % n;
        let from = (me + n - mask) % n;
        sendrecv_counted(c, ctx, token, to, TAG_BARRIER, scratch, from, TAG_BARRIER);
        mask <<= 1;
    }
}

/// Pairwise-exchange all-to-all over `nranks` equal contiguous blocks.
pub fn alltoall_pairwise<C: CollComm>(c: &mut C, ctx: &mut MCtx, sbuf: MemRef, rbuf: MemRef) {
    let n = c.nranks() as u64;
    assert_eq!(sbuf.len, rbuf.len, "alltoall buffer mismatch");
    assert_eq!(sbuf.len % n, 0, "payload must split into nranks blocks");
    let me = c.rank() as u64;
    let block = sbuf.len / n;
    // Own block: a local device copy.
    let stream = stream_of(ctx, me as usize);
    let (src, dst) = (sbuf.slice(me * block, block), rbuf.slice(me * block, block));
    ctx.advance(rucx_gpu::device::COPY_LAUNCH);
    let t = ctx.with_world(move |w, s| {
        let t = s.new_trigger();
        rucx_gpu::copy_async(w, s, src, dst, stream, Some(t));
        t
    });
    ctx.wait(t);
    ctx.with_world(move |_, s| s.recycle_trigger(t));
    // Pairwise exchange, skewed so every step is a perfect matching.
    for k in 1..n {
        let dst_rank = ((me + k) % n) as usize;
        let src_rank = ((me + n - k) % n) as usize;
        sendrecv_counted(
            c,
            ctx,
            sbuf.slice(dst_rank as u64 * block, block),
            dst_rank,
            TAG_ALLTOALL,
            rbuf.slice(src_rank as u64 * block, block),
            src_rank,
            TAG_ALLTOALL,
        );
    }
}
