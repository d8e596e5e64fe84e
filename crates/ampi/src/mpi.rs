//! The user-facing MPI interface of AMPI: blocking and non-blocking
//! point-to-point, barrier, and timing, with transparent GPU-awareness —
//! device buffers can be passed to `send`/`recv` directly, like any
//! CUDA-aware MPI implementation (§III-C).

use rucx_charm::{ChareRef, Collection, EpId, Msg, Pe};
use rucx_compat::idmap::{IdMap, IdSet};
use rucx_gpu::MemRef;
use rucx_sim::sched::Trigger;
use rucx_ucp::MCtx;

use crate::metrics;
use crate::msg::{AmpiMsg, AmpiPayload, Status};
use crate::rank::{
    copy_cost, status_into, status_of, PostedRecv, RankState, SlotState, CACHE_HIT, CACHE_MISS,
    INLINE_MAX, RECV_OVERHEAD, SEND_OVERHEAD,
};

/// A non-blocking communication request.
#[derive(Debug, Clone, Copy)]
pub enum Request {
    /// An in-flight send; `None` means already complete (eager/inline).
    Send(Option<Trigger>),
    /// A receive request identified by its slot.
    Recv(u64),
}

/// One AMPI rank: owns the PE runtime (non-SMP, one rank per PE, matching
/// the paper's configuration) and provides the MPI API.
pub struct MpiRank {
    pub pe: Pe,
    rank: usize,
    nranks: usize,
    col: Collection,
    ep_msg: EpId,
    ep_barrier: EpId,
    next_slot: u64,
    /// Software cache of addresses known to be on the GPU (§III-C1).
    gpu_cache: IdSet<u64>,
    /// Next send-sequence number per destination rank (stamped into every
    /// outgoing message so the receiver can restore send order).
    send_seq: IdMap<usize, u64>,
}

impl MpiRank {
    /// This rank's index in `MPI_COMM_WORLD`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.nranks
    }

    /// `MPI_Wtime` (virtual seconds).
    pub fn wtime(&self, ctx: &MCtx) -> f64 {
        rucx_sim::time::as_secs(ctx.now())
    }

    /// Set up the AMPI runtime on one PE. Used by [`crate::launch`]; direct
    /// use is for custom harnesses.
    pub fn create(pe_index: usize, n_pes: usize) -> Self {
        let mut pe = Pe::new(pe_index, n_pes);
        let n = n_pes as u64;
        let col = pe.register_collection(n, move |i| i as usize);
        // Entry method 0: AMPI message (metadata or inline payload).
        let ep_msg = pe.register_ep(
            col,
            None,
            Box::new(move |chare, msg: &Msg, pe, ctx| {
                // Invariant: this collection only ever holds RankState
                // chares (inserted a few lines below).
                let st = chare.downcast_mut::<RankState>().expect("rank state");
                handle_ampi_msg(st, msg, pe, ctx);
            }),
        );
        // Entry method 1: barrier release.
        let ep_barrier = pe.register_ep(
            col,
            None,
            Box::new(move |chare, _msg, _pe, _ctx| {
                // Invariant: same collection, same RankState-only contents.
                let st = chare.downcast_mut::<RankState>().expect("rank state");
                st.barrier_epoch += 1;
            }),
        );
        pe.insert_chare(col, pe_index as u64, Box::new(RankState::default()));
        // Reliability give-ups surface as MPI_ERR_OTHER statuses: queue
        // them at the rank and let MPI_Wait report them.
        let idx = pe_index as u64;
        pe.set_default_error_handler(Box::new(move |err, pe, _ctx| {
            pe.chare_mut::<RankState>(col, idx)
                .comm_errors
                .push_back(err.clone());
        }));
        MpiRank {
            pe,
            rank: pe_index,
            nranks: n_pes,
            col,
            ep_msg,
            ep_barrier,
            next_slot: 1,
            gpu_cache: IdSet::default(),
            send_seq: IdMap::default(),
        }
    }

    fn state(&mut self) -> &mut RankState {
        let (col, idx) = (self.col, self.rank as u64);
        self.pe.chare_mut::<RankState>(col, idx)
    }

    /// Model the GPU-pointer detection with its software cache. `None`
    /// when the handle is stale (freed before the send was posted).
    fn detect_device(&mut self, ctx: &mut MCtx, buf: MemRef) -> Option<bool> {
        let is_dev = ctx
            .with_world_ref(|w, _| w.gpu.pool.kind(buf.id).map(|k| k.is_device()))
            .ok()?;
        if is_dev && self.gpu_cache.contains(&buf.id.0) {
            ctx.advance(CACHE_HIT);
        } else {
            ctx.advance(CACHE_MISS);
            if is_dev {
                self.gpu_cache.insert(buf.id.0);
            }
        }
        Some(is_dev)
    }

    /// `MPI_Isend`: non-blocking standard send.
    pub fn isend(&mut self, ctx: &mut MCtx, buf: MemRef, dst: usize, tag: i32) -> Request {
        ctx.advance(SEND_OVERHEAD);
        let Some(is_dev) = self.detect_device(ctx, buf) else {
            // Freed-before-send is a caller error, not a crash: MPI_Wait
            // on this request reports MPI_ERR_OTHER.
            let me = self.rank;
            self.state()
                .comm_errors
                .push_back(rucx_ucp::UcpError::InvalidHandle {
                    op: "MPI_Isend",
                    proc: me,
                });
            return Request::Send(None);
        };
        let payload_inline = !is_dev && buf.len <= INLINE_MAX;
        let (payload, trig) = if payload_inline {
            let copy = copy_cost(buf.len);
            ctx.advance(copy);
            let bytes = ctx.with_world_ref(|w, _| {
                w.gpu
                    .pool
                    .is_materialized(buf.id)
                    .unwrap_or(false)
                    .then(|| w.gpu.pool.read(buf).expect("inline read"))
            });
            (
                AmpiPayload::Inline {
                    bytes,
                    size: buf.len,
                },
                None,
            )
        } else {
            // Zero Copy path: CkDeviceBuffer created, buffer handed to the
            // machine layer, ML tag stored in the metadata (Fig. 7).
            let (ml_tag, trig) = self.pe.ml_send_device(ctx, dst, buf, true);
            (
                AmpiPayload::ZeroCopy {
                    ml_tag,
                    size: buf.len,
                },
                trig,
            )
        };
        let seq = {
            let c = self.send_seq.entry(dst).or_insert(0);
            let seq = *c;
            *c += 1;
            seq
        };
        let m = AmpiMsg {
            src_rank: self.rank as u32,
            tag,
            seq,
            payload,
        };
        let col = self.col;
        let ep = self.ep_msg;
        self.pe.send(
            ctx,
            ChareRef {
                col,
                index: dst as u64,
            },
            ep,
            m.encode(),
            0,
            vec![],
        );
        Request::Send(trig)
    }

    /// `MPI_Send`: blocking standard send.
    pub fn send(&mut self, ctx: &mut MCtx, buf: MemRef, dst: usize, tag: i32) {
        let req = self.isend(ctx, buf, dst, tag);
        self.wait(ctx, req);
    }

    /// `MPI_Irecv`: non-blocking receive.
    pub fn irecv(&mut self, ctx: &mut MCtx, buf: MemRef, src: i32, tag: i32) -> Request {
        ctx.advance(RECV_OVERHEAD);
        let slot = self.next_slot;
        self.next_slot += 1;
        // Fast path: already in the unexpected queue?
        let matched = {
            let st = self.state();
            st.match_unexpected(src, tag)
                // Invariant: the index came from match_unexpected on the
                // same queue with no intervening mutation.
                .map(|i| st.unexpected.remove(i).expect("matched msg"))
        };
        match matched {
            Some(msg) => {
                let status = status_into(&msg, &buf);
                match msg.payload {
                    AmpiPayload::Inline { bytes, size } => {
                        deliver_inline(ctx, buf, bytes, size);
                        self.state().slots.insert(slot, SlotState::Done { status });
                    }
                    AmpiPayload::ZeroCopy { ml_tag, size } => {
                        let n = size.min(buf.len);
                        let trigger = self.pe.ml_recv_device(ctx, ml_tag, buf.slice(0, n));
                        self.state()
                            .slots
                            .insert(slot, SlotState::Matched { trigger, status });
                    }
                }
            }
            None => {
                let st = self.state();
                st.slots.insert(slot, SlotState::Pending);
                st.posted.push(PostedRecv {
                    slot,
                    src,
                    tag,
                    buf,
                });
            }
        }
        Request::Recv(slot)
    }

    /// `MPI_Recv`: blocking receive. Returns the completion status.
    pub fn recv(&mut self, ctx: &mut MCtx, buf: MemRef, src: i32, tag: i32) -> Status {
        let req = self.irecv(ctx, buf, src, tag);
        // Invariant: wait on a Recv request always yields a status.
        self.wait(ctx, req).expect("recv yields a status")
    }

    /// Drain one pending communication failure into an `MPI_ERR_OTHER`
    /// status. Pulls errors still sitting at the UCP worker first (the PE
    /// scheduler may not have stepped since the failure was recorded).
    /// `src`/`tag` identify the failing *operation's* endpoint when known
    /// from the error, else wildcards.
    pub fn take_comm_error(&mut self, ctx: &mut MCtx) -> Option<Status> {
        let me = self.rank;
        while let Some(e) = ctx.with_world(move |w, _| w.ucp.take_worker_error(me)) {
            self.state().comm_errors.push_back(e);
        }
        let err = self.state().comm_errors.pop_front()?;
        let (src, tag) = match &err {
            rucx_ucp::UcpError::EndpointTimeout { dst, .. } => (*dst as i32, crate::msg::ANY_TAG),
            _ => (crate::msg::ANY_SOURCE, crate::msg::ANY_TAG),
        };
        Some(Status {
            src,
            tag,
            size: 0,
            error: crate::msg::MPI_ERR_OTHER,
        })
    }

    /// `MPI_Wait`: block until the request completes, pumping the scheduler
    /// (the PE keeps delivering messages while this rank waits).
    ///
    /// A completed *send* normally yields `None`; when the reliability
    /// layer abandoned the transfer, the failure is reported here as a
    /// status with [`crate::msg::MPI_ERR_OTHER`].
    pub fn wait(&mut self, ctx: &mut MCtx, req: Request) -> Option<Status> {
        match req {
            Request::Send(None) => self.take_comm_error(ctx),
            Request::Send(Some(t)) => {
                self.pe
                    .pump_until(ctx, move |_, ctx| ctx.with_world_ref(|_, s| s.fired(t)));
                ctx.with_world(move |_, s| s.recycle_trigger(t));
                self.take_comm_error(ctx)
            }
            Request::Recv(slot) => {
                let (col, idx) = (self.col, self.rank as u64);
                self.pe.pump_until(ctx, move |pe, _| {
                    !matches!(
                        pe.chare_mut::<RankState>(col, idx).slots.get(&slot),
                        Some(SlotState::Pending)
                    )
                });
                // Invariant: irecv created the slot and nothing removes
                // it before wait consumes it here.
                let state = *self.state().slots.get(&slot).expect("slot");
                let status = match state {
                    SlotState::Pending => unreachable!(),
                    SlotState::Done { status } => status,
                    SlotState::Matched { trigger, status } => {
                        self.pe.pump_until(ctx, move |_, ctx| {
                            ctx.with_world_ref(|_, s| s.fired(trigger))
                        });
                        ctx.with_world(move |_, s| s.recycle_trigger(trigger));
                        status
                    }
                };
                self.state().slots.remove(&slot);
                Some(status)
            }
        }
    }

    /// `MPI_Waitall`.
    pub fn waitall(&mut self, ctx: &mut MCtx, reqs: &[Request]) {
        for &r in reqs {
            self.wait(ctx, r);
        }
    }

    /// `MPI_Sendrecv`: simultaneous send and receive without deadlock.
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv(
        &mut self,
        ctx: &mut MCtx,
        send_buf: MemRef,
        dst: usize,
        send_tag: i32,
        recv_buf: MemRef,
        src: i32,
        recv_tag: i32,
    ) -> Status {
        let r = self.irecv(ctx, recv_buf, src, recv_tag);
        let s = self.isend(ctx, send_buf, dst, send_tag);
        // Invariant: wait on a Recv request always yields a status.
        let status = self.wait(ctx, r).expect("recv status");
        self.wait(ctx, s);
        status
    }

    /// `MPI_Iprobe`: non-blocking check for a matching message. Pumps the
    /// scheduler once so pending metadata gets a chance to land.
    pub fn iprobe(&mut self, ctx: &mut MCtx, src: i32, tag: i32) -> Option<Status> {
        self.pe.try_step(ctx);
        let st = self.state();
        st.match_unexpected(src, tag)
            .map(|i| crate::rank::status_of(&st.unexpected[i]))
    }

    /// `MPI_Probe`: block until a matching message is available (without
    /// receiving it). The returned status identifies a concrete message: a
    /// subsequent `recv(status.src, status.tag)` receives *that* message
    /// (FIFO matching makes the probed message the first match).
    pub fn probe(&mut self, ctx: &mut MCtx, src: i32, tag: i32) -> Status {
        let (col, idx) = (self.col, self.rank() as u64);
        loop {
            self.pe.pump_until(ctx, move |pe, _| {
                pe.chare_mut::<RankState>(col, idx)
                    .match_unexpected(src, tag)
                    .is_some()
            });
            // Re-match rather than assuming the wakeup's message is still
            // queued: a message can be consumed between the predicate pass
            // and this read once probes and receives interleave.
            let st = self.state();
            if let Some(i) = st.match_unexpected(src, tag) {
                return status_of(&st.unexpected[i]);
            }
        }
    }

    /// `MPI_Barrier` over `MPI_COMM_WORLD`.
    pub fn barrier(&mut self, ctx: &mut MCtx) {
        let old = self.state().barrier_epoch;
        let (col, ep) = (self.col, self.ep_barrier);
        let elem = self.rank as u64;
        self.pe.contribute(
            ctx,
            col,
            elem,
            rucx_charm::RedOp::Barrier,
            0.0,
            rucx_charm::RedTarget::Broadcast(col, ep),
        );
        let idx = self.rank as u64;
        self.pe.pump_until(ctx, move |pe, _| {
            pe.chare_mut::<RankState>(col, idx).barrier_epoch > old
        });
    }
}

/// Copy an inline payload into the receive buffer.
fn deliver_inline(ctx: &mut MCtx, buf: MemRef, bytes: Option<Vec<u8>>, size: u64) {
    ctx.advance(copy_cost(size));
    if let Some(b) = bytes {
        let n = (buf.len as usize).min(b.len());
        ctx.with_world(move |w, _| {
            w.gpu
                .pool
                // Invariant: posted-receive buffers stay owned by the rank
                // until the matching wait, and the slice is clamped to the
                // buffer length, so the write cannot fail.
                .write(buf.slice(0, n as u64), &b[..n])
                .expect("inline deliver")
        });
    }
}

/// Entry-method handler: an AMPI message arrived at this rank.
///
/// Envelopes may complete out of send order at the machine layer: a large
/// envelope goes rendezvous and its bytes are re-injected asynchronously,
/// while a later small envelope arrives eagerly and is dispatched first.
/// MPI's non-overtaking rule is restored here with the sender-stamped
/// sequence number: an envelope from source `s` is matched only when every
/// earlier envelope from `s` has been matched; early arrivals wait in the
/// reorder stash.
fn handle_ampi_msg(st: &mut RankState, msg: &Msg, pe: &mut Pe, ctx: &mut MCtx) {
    ctx.advance(RECV_OVERHEAD);
    let am = AmpiMsg::decode(&msg.params);
    let src = am.src_rank;
    let expected = *st.next_recv_seq.get(&src).unwrap_or(&0);
    if am.seq != expected {
        debug_assert!(am.seq > expected, "duplicate AMPI envelope");
        ctx.with_world(|_, s| s.count(metrics::REORDER_HELD));
        st.reorder_stash.push(am);
        return;
    }
    accept_msg(st, am, pe, ctx);
    // The gap closed: release consecutively-sequenced stashed envelopes.
    let mut next = expected + 1;
    while let Some(i) = st
        .reorder_stash
        .iter()
        .position(|m| m.src_rank == src && m.seq == next)
    {
        let held = st.reorder_stash.swap_remove(i);
        accept_msg(st, held, pe, ctx);
        next += 1;
    }
}

/// Match one in-order message against the posted queue (or park it as
/// unexpected).
fn accept_msg(st: &mut RankState, am: AmpiMsg, pe: &mut Pe, ctx: &mut MCtx) {
    *st.next_recv_seq.entry(am.src_rank).or_insert(0) = am.seq + 1;
    match st.match_posted(&am) {
        Some(i) => {
            let p = st.posted.remove(i);
            let status = status_into(&am, &p.buf);
            match am.payload {
                AmpiPayload::Inline { bytes, size } => {
                    deliver_inline(ctx, p.buf, bytes, size);
                    st.slots.insert(p.slot, SlotState::Done { status });
                }
                AmpiPayload::ZeroCopy { ml_tag, size } => {
                    // The receive for the GPU data can only be posted now
                    // that the metadata has arrived (the delay the paper
                    // discusses in §III and plans to eliminate). Clamp to
                    // the posted buffer; `status` carries the truncation.
                    let n = size.min(p.buf.len);
                    let trigger = pe.ml_recv_device(ctx, ml_tag, p.buf.slice(0, n));
                    st.slots
                        .insert(p.slot, SlotState::Matched { trigger, status });
                }
            }
        }
        None => {
            let (me, seq, size) = (pe.index as u32, am.seq, am.payload.size());
            ctx.with_world(move |_, s| {
                s.trace_instant(metrics::TRACE_UNEXPECTED_ENQUEUE, me, seq, size)
            });
            st.unexpected.push_back(am);
        }
    }
}
