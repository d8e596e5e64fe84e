//! The user-facing MPI interface of AMPI: blocking and non-blocking
//! point-to-point, barrier, and timing, with transparent GPU-awareness —
//! device buffers can be passed to `send`/`recv` directly, like any
//! CUDA-aware MPI implementation (§III-C).

use rucx_charm::rank::{Layer, Rank};
use rucx_charm::{Payload, Pe};
use rucx_compat::buf::{Buf, BufMut};
use rucx_compat::idmap::IdSet;
use rucx_gpu::MemRef;
use rucx_sim::sched::Trigger;
use rucx_sim::time::Duration;
use rucx_sim::Metric;
use rucx_ucp::{MCtx, UcpError};

use crate::metrics;
use crate::msg::{AmpiMsg, Status, ANY_SOURCE, ANY_TAG, MPI_ERR_OTHER, MPI_SUCCESS};
use crate::rank::{
    copy_cost, status_into, Matched, PostedRecv, RankState, CACHE_HIT, CACHE_MISS, INLINE_MAX,
    RECV_OVERHEAD, SEND_OVERHEAD,
};

/// A non-blocking communication request.
#[derive(Debug, Clone, Copy)]
pub enum Request {
    /// An in-flight send; `None` means already complete (eager/inline).
    Send(Option<Trigger>),
    /// A receive request identified by its slot.
    Recv(u64),
}

/// One AMPI rank: the Charm++ rank shell (non-SMP, one rank per PE,
/// matching the paper's configuration) plus the MPI API.
pub struct MpiRank {
    shell: Rank<RankState>,
    next_slot: u64,
    /// Software cache of addresses known to be on the GPU (§III-C1).
    gpu_cache: IdSet<u64>,
}

impl AsMut<Rank<RankState>> for MpiRank {
    fn as_mut(&mut self) -> &mut Rank<RankState> {
        &mut self.shell
    }
}

impl MpiRank {
    pub(crate) fn open(shell: Rank<RankState>) -> Self {
        MpiRank {
            shell,
            next_slot: 1,
            gpu_cache: IdSet::default(),
        }
    }

    /// This rank's index in `MPI_COMM_WORLD`.
    pub fn rank(&self) -> usize {
        self.shell.pe.index
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.shell.pe.n_pes
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
            return self.invalid_handle();
        };
        let payload_inline = !is_dev && buf.len <= INLINE_MAX;
        let (payload, trig) = if payload_inline {
            let copy = copy_cost(buf.len);
            ctx.advance(copy);
            let read = ctx.with_world_ref(|w, _| {
                let materialized = w.gpu.pool.is_materialized(buf.id).unwrap_or(false);
                materialized.then(|| w.gpu.pool.read(buf)).transpose()
            });
            let Ok(bytes) = read else {
                return self.invalid_handle();
            };
            let size = buf.len;
            (Payload::Inline { bytes, size }, None)
        } else {
            // Zero Copy path: CkDeviceBuffer created, buffer handed to the
            // machine layer, ML tag stored in the metadata (Fig. 7).
            let (ml_tag, trig) = self.shell.pe.ml_send_device(ctx, dst, buf, true);
            let size = buf.len;
            (Payload::ZeroCopy { ml_tag, size }, trig)
        };
        self.shell.send(ctx, dst, tag, payload, 0);
        Request::Send(trig)
    }

    /// A send from a handle that does not name live memory (freed before
    /// the send, or a slice past its end) is a caller error, not a crash:
    /// MPI_Wait on the returned request reports MPI_ERR_OTHER.
    fn invalid_handle(&mut self) -> Request {
        let proc = self.rank();
        let err = UcpError::InvalidHandle {
            op: "MPI_Isend",
            proc,
        };
        self.shell.state().comm_errors.push_back(err);
        Request::Send(None)
    }

    /// `MPI_Send`: blocking standard send.
    pub fn send(&mut self, ctx: &mut MCtx, buf: MemRef, dst: usize, tag: i32) {
        let req = self.isend(ctx, buf, dst, tag);
        self.wait(ctx, req);
    }

    /// `MPI_Irecv`: non-blocking receive.
    pub fn irecv(&mut self, ctx: &mut MCtx, buf: MemRef, src: i32, tag: i32) -> Request {
        Request::Recv(self.post_recv(ctx, buf, src, tag))
    }

    /// Post a receive and return its slot: matched at once against the
    /// unexpected queue, else queued as posted.
    fn post_recv(&mut self, ctx: &mut MCtx, buf: MemRef, src: i32, tag: i32) -> u64 {
        ctx.advance(RECV_OVERHEAD);
        let slot = self.next_slot;
        self.next_slot += 1;
        let st = self.shell.state();
        let Some(msg) = st.take_unexpected(src, tag) else {
            st.slots.insert(slot, None);
            st.posted.push(PostedRecv {
                slot,
                src,
                tag,
                buf,
            });
            return slot;
        };
        let matched = deliver(&mut self.shell.pe, ctx, msg, buf);
        self.shell.state().slots.insert(slot, Some(matched));
        slot
    }

    /// `MPI_Recv`: blocking receive. Returns the completion status.
    pub fn recv(&mut self, ctx: &mut MCtx, buf: MemRef, src: i32, tag: i32) -> Status {
        let slot = self.post_recv(ctx, buf, src, tag);
        self.wait_recv(ctx, slot)
    }

    /// Drain one pending communication failure into an `MPI_ERR_OTHER`
    /// status. Pulls errors still sitting at the UCP worker first (the PE
    /// scheduler may not have stepped since the failure was recorded).
    /// `src`/`tag` identify the failing *operation's* endpoint when known
    /// from the error, else wildcards.
    fn take_comm_error(&mut self, ctx: &mut MCtx) -> Option<Status> {
        self.shell.pe.drain_errors(ctx);
        let err = self.shell.state().comm_errors.pop_front()?;
        let src = match err {
            UcpError::EndpointTimeout { dst, .. } => dst as i32,
            _ => ANY_SOURCE,
        };
        Some(Status {
            src,
            tag: ANY_TAG,
            size: 0,
            error: MPI_ERR_OTHER,
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
                self.shell.pe.wait_trigger(ctx, t);
                self.take_comm_error(ctx)
            }
            Request::Recv(slot) => Some(self.wait_recv(ctx, slot)),
        }
    }

    /// Wait on receive `slot` until its data is in the buffer. A slot that
    /// is no longer active (already waited on) completes at once with an
    /// empty status, as `MPI_Wait` does on an inactive request.
    fn wait_recv(&mut self, ctx: &mut MCtx, slot: u64) -> Status {
        let matched = self.shell.pump_for(ctx, |st, _| match st.slots.get(&slot) {
            Some(None) => None,
            _ => Some(st.slots.remove(&slot).flatten()),
        });
        let Some(Matched { status, trigger }) = matched else {
            return Status {
                src: ANY_SOURCE,
                tag: ANY_TAG,
                size: 0,
                error: MPI_SUCCESS,
            };
        };
        if let Some(t) = trigger {
            self.shell.pe.wait_trigger(ctx, t);
        }
        status
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
        let r = self.post_recv(ctx, recv_buf, src, recv_tag);
        let s = self.isend(ctx, send_buf, dst, send_tag);
        let status = self.wait_recv(ctx, r);
        self.wait(ctx, s);
        status
    }

    /// `MPI_Iprobe`: non-blocking check for a matching message. Pumps the
    /// scheduler once so pending metadata gets a chance to land.
    pub fn iprobe(&mut self, ctx: &mut MCtx, src: i32, tag: i32) -> Option<Status> {
        self.shell.pe.try_step(ctx);
        self.shell.state().probe(src, tag)
    }

    /// `MPI_Probe`: block until a matching message is available (without
    /// receiving it). The returned status identifies a concrete message: a
    /// subsequent `recv(status.src, status.tag)` receives *that* message
    /// (FIFO matching makes the probed message the first match).
    pub fn probe(&mut self, ctx: &mut MCtx, src: i32, tag: i32) -> Status {
        self.shell.pump_for(ctx, |st, _| st.probe(src, tag))
    }

    /// `MPI_Barrier` over `MPI_COMM_WORLD`.
    pub fn barrier(&mut self, ctx: &mut MCtx) {
        self.shell.barrier(ctx);
    }
}

/// Deliver a matched message into its receive buffer: an inline payload
/// is copied now (at `copy_cost`), a zero-copy one has its machine-layer
/// receive posted — only now that the metadata has arrived (the delay the
/// paper discusses in §III and plans to eliminate). Both clamp to `buf`;
/// the status carries the truncation.
fn deliver(pe: &mut Pe, ctx: &mut MCtx, am: AmpiMsg, buf: MemRef) -> Matched {
    let status = status_into(&am, &buf);
    if let Payload::Inline { size, .. } = am.payload {
        ctx.advance(copy_cost(size));
    }
    let trigger = pe.deliver_payload(ctx, am.payload, buf);
    Matched { status, trigger }
}

/// AMPI on the rank shell: the header is the MPI tag, and the shell's
/// per-source window gives MPI's non-overtaking rule. Envelopes may
/// complete out of send order at the machine layer: a large envelope goes
/// rendezvous and its bytes are re-injected asynchronously, while a later
/// small envelope arrives eagerly and is dispatched first; an envelope
/// from source `s` is matched only when every earlier envelope from `s`
/// has been.
impl Layer for RankState {
    type Header = i32;
    const HEADER_LEN: usize = 8;
    const HELD: Metric = metrics::REORDER_HELD;
    const ARRIVAL: Duration = RECV_OVERHEAD;

    fn put_header(tag: &i32, b: &mut Vec<u8>) {
        b.put_i64(*tag as i64);
    }

    fn get_header(r: &mut &[u8]) -> i32 {
        r.get_i64() as i32
    }

    /// Match one in-order message against the posted queue (or park it as
    /// unexpected).
    fn accept(&mut self, am: AmpiMsg, pe: &mut Pe, ctx: &mut MCtx) {
        match self.match_posted(&am) {
            Some(i) => {
                let p = self.posted.remove(i);
                let matched = deliver(pe, ctx, am, p.buf);
                self.slots.insert(p.slot, Some(matched));
            }
            None => {
                let (me, seq, size) = (pe.index as u32, am.seq, am.payload.size());
                ctx.with_world(move |_, s| {
                    s.trace_instant(metrics::TRACE_UNEXPECTED_ENQUEUE, me, seq, size)
                });
                self.unexpected.push_back(am);
            }
        }
    }

    /// Reliability give-ups surface as MPI_ERR_OTHER statuses: queue them
    /// at the rank and let MPI_Wait report them.
    fn error(&mut self, err: &UcpError) -> Option<usize> {
        self.comm_errors.push_back(err.clone());
        None
    }
}
