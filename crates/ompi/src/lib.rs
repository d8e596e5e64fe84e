//! # rucx-ompi — OpenMPI-style baseline directly on UCP
//!
//! The reference the paper compares AMPI against (§IV-A): an MPI whose
//! point-to-point path maps straight onto `ucp_tag_send_nb`/
//! `ucp_tag_recv_nb`, with MPI matching semantics encoded in the 64-bit UCP
//! tag. Both AMPI and this baseline move GPU data through the same UCX
//! layer, so comparing them isolates the overhead of the layers above UCX —
//! including AMPI's inability to post the device receive before its
//! metadata message arrives, which this baseline does not suffer from
//! (receives are posted immediately).

use rucx_gpu::MemRef;
use rucx_sim::sched::Trigger;
use rucx_sim::time::{us, Duration};
use rucx_ucp::config::CPU_CALL;
use rucx_ucp::{
    tag_recv_nb, tag_send_nb, Completion, MCtx, MSim, RecvCompletion, SendBuf, Tag, TagMask,
};

/// MPI wildcard source.
pub const ANY_SOURCE: i32 = -1;
/// MPI wildcard tag.
pub const ANY_TAG: i32 = -1;
/// Receive completed normally.
pub const MPI_SUCCESS: i32 = 0;
/// The message was longer than the posted receive buffer; only the
/// buffer-sized prefix was delivered.
pub const MPI_ERR_TRUNCATE: i32 = 15;

/// Tag layout: | comm:8 | src_rank:24 | user tag:32 |.
const SRC_SHIFT: u32 = 32;
const COMM_SHIFT: u32 = 56;
const USER_COMM: u64 = 1;
const COLL_COMM: u64 = 2;

fn encode_tag(comm: u64, src: usize, tag: i32) -> Tag {
    (comm << COMM_SHIFT) | ((src as u64) << SRC_SHIFT) | (tag as u32 as u64)
}

fn match_spec(comm: u64, src: i32, tag: i32) -> (Tag, TagMask) {
    let mut want = comm << COMM_SHIFT;
    let mut mask = 0xFFu64 << COMM_SHIFT;
    if src != ANY_SOURCE {
        want |= (src as u64) << SRC_SHIFT;
        mask |= 0xFF_FFFFu64 << SRC_SHIFT;
    }
    if tag != ANY_TAG {
        want |= tag as u32 as u64;
        mask |= 0xFFFF_FFFF;
    }
    (want, mask)
}

fn decode_src(tag: Tag) -> i32 {
    ((tag >> SRC_SHIFT) & 0xFF_FFFF) as i32
}

fn decode_tag(tag: Tag) -> i32 {
    (tag & 0xFFFF_FFFF) as u32 as i32
}

/// Completion status of a receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    pub src: i32,
    pub tag: i32,
    /// Wire size of the matched message (may exceed the receive buffer —
    /// see `error`).
    pub size: u64,
    /// [`MPI_SUCCESS`], or [`MPI_ERR_TRUNCATE`] when the message was
    /// longer than the posted buffer.
    pub error: i32,
}

/// A non-blocking request: the trigger plus, for receives, a status slot.
pub struct Request {
    trigger: Option<Trigger>,
    status: Option<std::sync::Arc<rucx_compat::sync::Mutex<Option<Status>>>>,
}

// Cost model of the (thin) MPI layer above UCX.

/// Per-call overhead of `MPI_Send`/`MPI_Isend` above the UCP call.
pub const SEND_OVERHEAD: Duration = us(0.40);
/// Per-call overhead of `MPI_Recv`/`MPI_Irecv` above the UCP call.
pub const RECV_OVERHEAD: Duration = us(0.40);

/// One MPI process (rank == simulated process index).
pub struct OmpiRank {
    rank: usize,
    nranks: usize,
    /// Scratch host buffer for zero-byte control messages (barrier).
    scratch: Option<MemRef>,
}

impl OmpiRank {
    pub fn create(rank: usize, nranks: usize) -> Self {
        OmpiRank {
            rank,
            nranks,
            scratch: None,
        }
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.nranks
    }

    /// `MPI_Wtime` in virtual seconds.
    pub fn wtime(&self, ctx: &MCtx) -> f64 {
        rucx_sim::time::as_secs(ctx.now())
    }

    /// `MPI_Isend`.
    pub fn isend(&mut self, ctx: &mut MCtx, buf: MemRef, dst: usize, tag: i32) -> Request {
        ctx.advance(SEND_OVERHEAD + CPU_CALL);
        let me = self.rank;
        let t = encode_tag(USER_COMM, me, tag);
        let trigger = ctx.with_world(move |w, s| {
            let trig = s.new_trigger();
            tag_send_nb(
                w,
                s,
                me,
                dst,
                SendBuf::Mem(buf),
                t,
                Completion::Trigger(trig),
            );
            trig
        });
        Request {
            trigger: Some(trigger),
            status: None,
        }
    }

    /// `MPI_Send` (blocking).
    pub fn send(&mut self, ctx: &mut MCtx, buf: MemRef, dst: usize, tag: i32) {
        let r = self.isend(ctx, buf, dst, tag);
        self.wait(ctx, r);
    }

    /// `MPI_Irecv`: the receive is posted into UCX immediately (this is the
    /// key structural advantage over AMPI's metadata-first flow).
    pub fn irecv(&mut self, ctx: &mut MCtx, buf: MemRef, src: i32, tag: i32) -> Request {
        ctx.advance(RECV_OVERHEAD + CPU_CALL);
        let me = self.rank;
        let (want, mask) = match_spec(USER_COMM, src, tag);
        let slot = std::sync::Arc::new(rucx_compat::sync::Mutex::new(None::<Status>));
        let slot2 = slot.clone();
        let trigger = ctx.with_world(move |w, s| {
            let trig = s.new_trigger();
            tag_recv_nb(
                w,
                s,
                me,
                buf,
                want,
                mask,
                RecvCompletion::Callback(Box::new(move |_, s, info| {
                    *slot2.lock() = Some(Status {
                        src: decode_src(info.tag),
                        tag: decode_tag(info.tag),
                        size: info.size,
                        error: if info.truncated {
                            MPI_ERR_TRUNCATE
                        } else {
                            MPI_SUCCESS
                        },
                    });
                    s.fire(trig);
                })),
            );
            trig
        });
        Request {
            trigger: Some(trigger),
            status: Some(slot),
        }
    }

    /// `MPI_Recv` (blocking).
    pub fn recv(&mut self, ctx: &mut MCtx, buf: MemRef, src: i32, tag: i32) -> Status {
        let r = self.irecv(ctx, buf, src, tag);
        self.wait(ctx, r).expect("recv produces a status")
    }

    /// `MPI_Wait`. No scheduler pumping is needed: everything below is
    /// event-driven, so a plain trigger wait cannot deadlock.
    pub fn wait(&mut self, ctx: &mut MCtx, req: Request) -> Option<Status> {
        if let Some(t) = req.trigger {
            ctx.wait(t);
            ctx.with_world(move |_, s| s.recycle_trigger(t));
        }
        req.status.and_then(|s| s.lock().take())
    }

    /// `MPI_Waitall`.
    pub fn waitall(&mut self, ctx: &mut MCtx, reqs: Vec<Request>) {
        for r in reqs {
            self.wait(ctx, r);
        }
    }

    fn scratch(&mut self, ctx: &mut MCtx) -> MemRef {
        if self.scratch.is_none() {
            let me = self.rank;
            self.scratch = Some(ctx.with_world(move |w, _| {
                let node = w.topo.node_of(me);
                w.gpu.pool.alloc_host(node, 8, true, false)
            }));
        }
        self.scratch.unwrap()
    }

    /// `MPI_Barrier`: dissemination algorithm (works for any rank count).
    pub fn barrier(&mut self, ctx: &mut MCtx) {
        let n = self.nranks;
        if n == 1 {
            return;
        }
        let me = self.rank;
        let scratch = self.scratch(ctx);
        let mut round = 0u32;
        let mut dist = 1usize;
        while dist < n {
            let to = (me + dist) % n;
            let from = (me + n - dist % n) % n;
            let tag = encode_tag(COLL_COMM, me, round as i32);
            ctx.advance(CPU_CALL);
            ctx.with_world(move |w, s| {
                tag_send_nb(
                    w,
                    s,
                    me,
                    to,
                    SendBuf::Phantom { wire_size: 1 },
                    tag,
                    Completion::None,
                );
            });
            let (want, mask) = match_spec(COLL_COMM, from as i32, round as i32);
            let trig = ctx.with_world(move |w, s| {
                let t = s.new_trigger();
                tag_recv_nb(w, s, me, scratch, want, mask, RecvCompletion::Trigger(t));
                t
            });
            ctx.wait(trig);
            ctx.with_world(move |_, s| s.recycle_trigger(trig));
            dist *= 2;
            round += 1;
        }
    }
}

/// SPMD launch: one MPI process per simulated process.
pub fn launch<F>(sim: &mut MSim, body: F)
where
    F: Fn(&mut OmpiRank, &mut MCtx) + Send + Sync + Clone + 'static,
{
    let n = sim.world().topo.procs();
    for p in 0..n {
        let body = body.clone();
        sim.spawn(format!("ompi{p}"), 0, move |ctx| {
            let mut rank = OmpiRank::create(p, n);
            body(&mut rank, ctx);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rucx_fabric::Topology;
    use rucx_gpu::DeviceId;
    use rucx_sim::time::as_us;
    use rucx_sim::RunOutcome;
    use rucx_ucp::{build_sim, MachineConfig};
    use std::sync::Arc;

    fn sim(nodes: usize) -> MSim {
        build_sim(Topology::summit(nodes), MachineConfig::default())
    }

    #[test]
    fn tag_encode_decode() {
        let t = encode_tag(USER_COMM, 123456, 789);
        assert_eq!(decode_src(t), 123456);
        assert_eq!(decode_tag(t), 789);
        let (want, mask) = match_spec(USER_COMM, ANY_SOURCE, 789);
        assert!(rucx_ucp::tag_matches(want, mask, t));
        let (want, mask) = match_spec(USER_COMM, 123456, ANY_TAG);
        assert!(rucx_ucp::tag_matches(want, mask, t));
        let (want, mask) = match_spec(USER_COMM, 9, 789);
        assert!(!rucx_ucp::tag_matches(want, mask, t));
        // Collective traffic never matches user receives.
        let bt = encode_tag(COLL_COMM, 123456, 789);
        let (want, mask) = match_spec(USER_COMM, ANY_SOURCE, ANY_TAG);
        assert!(!rucx_ucp::tag_matches(want, mask, bt));
    }

    #[test]
    fn device_ping_pong_and_latency_band() {
        let mut sim = sim(1);
        let a = sim
            .world_mut()
            .gpu
            .pool
            .alloc_device(DeviceId(0), 8, true)
            .unwrap();
        let b = sim
            .world_mut()
            .gpu
            .pool
            .alloc_device(DeviceId(1), 8, true)
            .unwrap();
        sim.world_mut().gpu.pool.write(a, &[9u8; 8]).unwrap();
        let out = Arc::new(rucx_compat::sync::Mutex::new(0u64));
        let out2 = out.clone();
        launch(&mut sim, move |mpi, ctx| match mpi.rank() {
            0 => {
                let iters = 20u64;
                let t0 = ctx.now();
                for i in 0..iters {
                    mpi.send(ctx, a, 1, i as i32);
                    mpi.recv(ctx, a, 1, i as i32);
                }
                *out2.lock() = (ctx.now() - t0) / (2 * iters);
            }
            1 => {
                for i in 0..20 {
                    mpi.recv(ctx, b, 0, i);
                    mpi.send(ctx, b, 0, i);
                }
            }
            _ => {}
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        let lat = *out.lock();
        assert!(
            lat > rucx_sim::time::us(1.5) && lat < rucx_sim::time::us(5.0),
            "OpenMPI small-device latency {}us out of band",
            as_us(lat)
        );
        assert_eq!(sim.world().gpu.pool.read(b).unwrap(), vec![9u8; 8]);
    }

    #[test]
    fn barrier_all_ranks() {
        let mut sim = sim(2);
        let times = Arc::new(rucx_compat::sync::Mutex::new(Vec::new()));
        let t2 = times.clone();
        launch(&mut sim, move |mpi, ctx| {
            ctx.advance(rucx_sim::time::us(7.0 * mpi.rank() as f64));
            mpi.barrier(ctx);
            t2.lock().push(ctx.now());
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        let v = times.lock();
        assert_eq!(v.len(), 12);
        let slowest_entry = rucx_sim::time::us(7.0 * 11.0);
        for &t in v.iter() {
            assert!(t >= slowest_entry);
        }
    }

    #[test]
    fn wildcard_recv_collects_from_all() {
        let mut sim = sim(1);
        let mut sbufs = vec![];
        let mut rbufs = vec![];
        for i in 0..6u32 {
            sbufs.push(
                sim.world_mut()
                    .gpu
                    .pool
                    .alloc_device(DeviceId(i), 16, true)
                    .unwrap(),
            );
            rbufs.push(
                sim.world_mut()
                    .gpu
                    .pool
                    .alloc_device(DeviceId(0), 16, true)
                    .unwrap(),
            );
        }
        for (i, s) in sbufs.iter().enumerate() {
            sim.world_mut()
                .gpu
                .pool
                .write(*s, &[i as u8 + 1; 16])
                .unwrap();
        }
        let sb = Arc::new(sbufs);
        let rb = Arc::new(rbufs);
        launch(&mut sim, move |mpi, ctx| {
            let r = mpi.rank();
            if r == 0 {
                let mut seen = std::collections::HashSet::new();
                for i in 0..5 {
                    let st = mpi.recv(ctx, rb[i], ANY_SOURCE, ANY_TAG);
                    seen.insert(st.src);
                    assert_eq!(st.size, 16);
                }
                assert_eq!(seen.len(), 5);
            } else {
                mpi.send(ctx, sb[r], 0, r as i32);
            }
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
    }

    #[test]
    fn nonblocking_bidirectional_window() {
        let mut sim = sim(2);
        let size = 512u64 << 10;
        let window = 4;
        let mut bufs = vec![];
        for dev in [0u32, 6] {
            for _ in 0..2 * window {
                bufs.push(
                    sim.world_mut()
                        .gpu
                        .pool
                        .alloc_device(DeviceId(dev), size, false)
                        .unwrap(),
                );
            }
        }
        let bufs = Arc::new(bufs);
        launch(&mut sim, move |mpi, ctx| {
            let (base, peer) = match mpi.rank() {
                0 => (0usize, 6usize),
                6 => (2 * window, 0usize),
                _ => return,
            };
            let mut reqs = vec![];
            for i in 0..window {
                reqs.push(mpi.irecv(ctx, bufs[base + window + i], peer as i32, i as i32));
            }
            for i in 0..window {
                reqs.push(mpi.isend(ctx, bufs[base + i], peer, i as i32));
            }
            mpi.waitall(ctx, reqs);
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(sim.metrics().get("ucp.rndv.pipeline"), 2 * window as u64);
    }

    #[test]
    fn truncation_is_reported_not_silent() {
        let mut sim = sim(1);
        let node = sim.world().topo.node_of(0);
        let send = sim.world_mut().gpu.pool.alloc_host(node, 64, true, true);
        let node1 = sim.world().topo.node_of(1);
        let small = sim.world_mut().gpu.pool.alloc_host(node1, 32, true, true);
        let exact = sim.world_mut().gpu.pool.alloc_host(node1, 64, true, true);
        sim.world_mut().gpu.pool.write(send, &[0xCD; 64]).unwrap();
        launch(&mut sim, move |mpi, ctx| match mpi.rank() {
            0 => {
                mpi.send(ctx, send, 1, 1);
                mpi.send(ctx, send, 1, 2);
            }
            1 => {
                let st = mpi.recv(ctx, small, 0, 1);
                assert_eq!(st.error, MPI_ERR_TRUNCATE);
                assert_eq!(st.size, 64, "status reports the wire size");
                let st = mpi.recv(ctx, exact, 0, 2);
                assert_eq!(st.error, MPI_SUCCESS);
            }
            _ => {}
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        // Only the buffer-sized prefix was delivered.
        let got = sim.world().gpu.pool.read(small).unwrap();
        assert_eq!(got, vec![0xCD; 32]);
        assert_eq!(sim.metrics().get("ucp.truncated"), 1);
    }
}
