//! The PE (Processing Element) runtime: message-driven scheduler, chare
//! management, entry-method dispatch, and the GPU-aware send/receive paths
//! of §III-B.
//!
//! One [`Pe`] lives inside each simulated process (non-SMP build: one PE per
//! process per GPU). All Charm++ state is process-local; the only shared
//! state is the [`rucx_ucp::Machine`] below, accessed through the UCX
//! machine layer.

use std::any::Any;
use std::collections::VecDeque;
use std::rc::Rc;

use rucx_coll::ReduceOp;
use rucx_compat::buf::{Buf, BufMut};
use rucx_compat::idmap::IdMap;
use rucx_gpu::MemRef;
use rucx_sim::sched::Trigger;
use rucx_ucp::config::CPU_CALL;
use rucx_ucp::order::SendSeq;
use rucx_ucp::{
    probe_pop, rndv_fetch, tag_recv_nb, tag_send_nb, Completion, FetchDst, MCtx, PoppedMsg,
    RecvCompletion, SendBuf, UcpError,
};

use crate::metrics;
use crate::mltags::TagScheme;
use crate::params::{
    pack_cost, DEVICE_META_OVERHEAD, IDLE_POLL, POST_OVERHEAD, RECV_OVERHEAD, SEND_OVERHEAD,
};
use crate::wire::{DeviceMeta, Envelope, Payload};

/// Identifier of a chare collection (array) registered on a PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Collection(pub u16);

/// Entry-method id within a collection.
pub type EpId = u16;

/// Reference to a chare array element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChareRef {
    pub col: Collection,
    pub index: u64,
}

/// Reserved collection id for runtime-internal messages.
const SYS_COLLECTION: u16 = u16::MAX;
const SYS_EXIT: EpId = 0;
const SYS_REDUCE: EpId = 1;
/// Broadcast marker index: deliver to every local element.
const BCAST_INDEX: u64 = u64::MAX;

/// A message as seen by an entry method.
pub struct Msg {
    /// PE that sent the message.
    pub src_pe: usize,
    /// Marshalled host-side parameters.
    pub params: Vec<u8>,
    /// Sizes of the GPU buffers received in tandem (in declaration order);
    /// the data is already in the buffers the post entry method supplied
    /// when the regular entry method runs.
    pub device_sizes: Vec<u64>,
    /// Phantom host payload size carried by the envelope.
    pub phantom_payload: u64,
}

/// Post entry method (Zero Copy API): given the chare and the incoming
/// message, return the destination GPU buffers (one per device parameter).
#[allow(clippy::type_complexity)]
pub type PostFn = Box<dyn Fn(&mut dyn Any, &Msg) -> Vec<MemRef>>;
/// Regular entry method.
pub type ExecFn = Box<dyn Fn(&mut dyn Any, &Msg, &mut Pe, &mut MCtx)>;
/// PE-wide communication-error handler: every asynchronous error the
/// machine layer reports to this PE goes through it. Blocking layers built
/// on [`Pe`] (AMPI, Charm4py) install one to map errors onto their own
/// semantics.
pub type DefaultErrorFn = Box<dyn Fn(&UcpError, &mut Pe, &mut MCtx)>;

/// One registered entry method.
pub struct EpEntry {
    pub post: Option<PostFn>,
    pub exec: ExecFn,
}

/// Where a reduction result is delivered (as a regular entry-method
/// invocation with the result marshalled as one `f64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedTarget {
    /// Broadcast to every element of the collection.
    Broadcast(Collection, EpId),
    /// Send to a single chare.
    Chare(ChareRef, EpId),
}

struct RedEntry {
    local_got: usize,
    children_got: usize,
    acc: f64,
    count: u64,
    target: Option<RedTarget>,
}

#[derive(Default)]
struct RedMgr {
    entries: IdMap<u64, RedEntry>,
    /// Per element: the sequence number of its next contribution (each
    /// element contributes once per reduction, in the same order
    /// everywhere).
    elem_seq: SendSeq<u64>,
}

struct CollectionData {
    map: Rc<dyn Fn(u64) -> usize>,
    eps: Vec<Rc<EpEntry>>,
    local_indices: Vec<u64>,
    /// This PE's children in the reduction tree whose subtrees hold
    /// elements: the contributions a reduction waits for besides its own.
    red_children: usize,
    red: RedMgr,
}

struct PendingDevice {
    env: Envelope,
    triggers: Vec<Trigger>,
}

/// The per-process Charm++ runtime.
pub struct Pe {
    /// This PE's index (== process index == GPU index).
    pub index: usize,
    /// Total number of PEs.
    pub n_pes: usize,
    /// Machine-layer tag scheme.
    pub scheme: TagScheme,
    device_cnt: u64,
    collections: Vec<CollectionData>,
    chares: IdMap<(u16, u64), Box<dyn Any>>,
    local_q: VecDeque<Envelope>,
    pending_device: Vec<PendingDevice>,
    exit: bool,
    /// PE-wide error handler ([`Pe::set_default_error_handler`]).
    default_error_handler: Option<Rc<DefaultErrorFn>>,
    /// Errors no handler claimed — kept (not dropped) so drivers and tests
    /// can still observe them.
    pub unhandled_errors: Vec<UcpError>,
}

impl Pe {
    /// Create the runtime for one PE. Call inside the PE's process body.
    pub fn new(index: usize, n_pes: usize) -> Self {
        Pe {
            index,
            n_pes,
            scheme: TagScheme,
            device_cnt: 0,
            collections: Vec::new(),
            chares: IdMap::default(),
            local_q: VecDeque::new(),
            pending_device: Vec::new(),
            exit: false,
            default_error_handler: None,
            unhandled_errors: Vec::new(),
        }
    }

    // ---- Registration -------------------------------------------------

    /// Register a chare collection with `num_elements` elements and an
    /// index→PE placement map. Must be called identically on every PE
    /// (SPMD registration, as in the real runtime).
    pub fn register_collection(
        &mut self,
        num_elements: u64,
        map: impl Fn(u64) -> usize + 'static,
    ) -> Collection {
        let map: Rc<dyn Fn(u64) -> usize> = Rc::new(map);
        // One walk of the placement: this PE's elements, and which of its
        // two reduction-tree children head a subtree that holds any.
        let mut local_indices = Vec::new();
        let mut children = [false; 2];
        for i in 0..num_elements {
            let pe = map(i);
            assert!(pe < self.n_pes, "map({i}) = {pe} out of range");
            if pe == self.index {
                local_indices.push(i);
            } else if let Some(c) = heap_child_toward(self.index, pe) {
                children[c] = true;
            }
        }
        let id = Collection(self.collections.len() as u16);
        self.collections.push(CollectionData {
            map,
            eps: Vec::new(),
            local_indices,
            red_children: children.iter().filter(|&&c| c).count(),
            red: RedMgr::default(),
        });
        id
    }

    /// Register the next entry method of `col`; returns its id. Must be
    /// called in the same order on every PE.
    pub fn register_ep(&mut self, col: Collection, post: Option<PostFn>, exec: ExecFn) -> EpId {
        let c = &mut self.collections[col.0 as usize];
        let id = c.eps.len() as EpId;
        c.eps.push(Rc::new(EpEntry { post, exec }));
        id
    }

    /// Insert a local chare instance for `index` (must map to this PE).
    pub fn insert_chare(&mut self, col: Collection, index: u64, chare: Box<dyn Any>) {
        debug_assert_eq!(
            (self.collections[col.0 as usize].map)(index),
            self.index,
            "chare {index} does not map to PE {}",
            self.index
        );
        self.chares.insert((col.0, index), chare);
    }

    /// Register the PE-wide communication-error handler.
    pub fn set_default_error_handler(&mut self, f: DefaultErrorFn) {
        self.default_error_handler = Some(Rc::new(f));
    }

    /// Indices of this PE's local elements of `col`.
    pub fn local_indices(&self, col: Collection) -> &[u64] {
        &self.collections[col.0 as usize].local_indices
    }

    /// The element's PE per the placement map (chares never move).
    pub fn home_pe(&self, col: Collection, index: u64) -> usize {
        (self.collections[col.0 as usize].map)(index)
    }

    /// Typed access to a local chare (for driver-style code such as the
    /// rank shell's state chare, between scheduler pumps).
    pub fn chare_mut<T: 'static>(&mut self, col: Collection, index: u64) -> &mut T {
        self.chares
            .get_mut(&(col.0, index))
            .expect("chare not present on this PE")
            .downcast_mut::<T>()
            .expect("chare type mismatch")
    }

    /// Run `f` with a local chare detached from the PE table, so the chare
    /// can drive the runtime (send messages, contribute) like an entry
    /// method would. Used by driver code (e.g. a main-chare kickoff).
    pub fn with_chare<T: 'static, R>(
        &mut self,
        ctx: &mut MCtx,
        col: Collection,
        index: u64,
        f: impl FnOnce(&mut T, &mut Pe, &mut MCtx) -> R,
    ) -> R {
        self.detached((col.0, index), |chare, pe| {
            f(chare.downcast_mut().expect("chare type mismatch"), pe, ctx)
        })
    }

    /// Run `f` with chare `key` out of the table, so that it can use the PE.
    fn detached<R>(&mut self, key: (u16, u64), f: impl FnOnce(&mut dyn Any, &mut Pe) -> R) -> R {
        let mut chare = self
            .chares
            .remove(&key)
            .unwrap_or_else(|| panic!("chare ({}, {}) not on PE {}", key.0, key.1, self.index));
        let r = f(chare.as_mut(), self);
        self.chares.insert(key, chare);
        r
    }

    // ---- Sending ------------------------------------------------------

    /// Invoke entry method `ep` on chare `to` with marshalled `params`,
    /// `phantom` bytes of extra (unmaterialized) host payload, and GPU
    /// buffers sent in tandem through the machine layer (the
    /// `nocopydevice` path). Fire-and-forget, per Charm++ semantics.
    pub fn send(
        &mut self,
        ctx: &mut MCtx,
        to: ChareRef,
        ep: EpId,
        params: Vec<u8>,
        phantom: u64,
        device_bufs: Vec<MemRef>,
    ) {
        let dst_pe = self.home_pe(to.col, to.index);
        let ndev = device_bufs.len();
        // CPU cost: runtime send path + payload packing + per-device
        // metadata handling + the UCP calls themselves.
        let pack = pack_cost(params.len() as u64 + phantom);
        let cost =
            SEND_OVERHEAD + pack + ndev as u64 * (DEVICE_META_OVERHEAD + CPU_CALL) + CPU_CALL;
        ctx.advance(cost);

        // 1) Send GPU buffers through the machine layer (LrtsSendDevice),
        //    generating one device tag each (Fig. 6 steps 1-4).
        let mut metas = Vec::with_capacity(ndev);
        let src_pe = self.index;
        for buf in device_bufs {
            let tag = self.next_device_tag();
            metas.push(DeviceMeta { tag, size: buf.len });
            let done = Completion::None;
            ctx.with_world(move |w, s| {
                tag_send_nb(w, s, src_pe, dst_pe, SendBuf::Mem(buf), tag, done);
            });
        }

        // 2) Pack metadata with host-side data and send the envelope
        //    (Fig. 6 step 5).
        let env = Envelope {
            phantom_payload: phantom,
            device: metas,
            ..self.host_envelope(to.col.0, to.index, ep, params)
        };
        self.post_envelope(ctx, dst_pe, env);
    }

    /// A fresh machine-layer tag for a device buffer sent from this PE.
    fn next_device_tag(&mut self) -> u64 {
        let cnt = self.device_cnt;
        self.device_cnt += 1;
        self.scheme.device_tag(self.index, cnt)
    }

    /// An envelope from this PE with host-side `params` only.
    fn host_envelope(&self, collection: u16, index: u64, ep: EpId, params: Vec<u8>) -> Envelope {
        Envelope {
            collection,
            index,
            ep,
            src_pe: self.index as u32,
            params,
            phantom_payload: 0,
            device: vec![],
        }
    }

    /// Route an envelope to `dst_pe` (loopback for self-sends).
    fn post_envelope(&mut self, ctx: &mut MCtx, dst_pe: usize, env: Envelope) {
        if dst_pe == self.index {
            self.local_q.push_back(env);
        } else {
            let src_pe = self.index;
            let tag = self.scheme.host_tag(src_pe);
            let (wire_size, bytes) = (env.wire_size(), env.encode());
            let buf = SendBuf::Inline { bytes, wire_size };
            let done = Completion::None;
            ctx.with_world(move |w, s| tag_send_nb(w, s, src_pe, dst_pe, buf, tag, done));
        }
    }

    /// Deliver an entry-method invocation to a *local* chare at absolute
    /// virtual time `fire_at` (e.g. when an asynchronously launched GPU
    /// kernel completes). The envelope is injected into this PE's own
    /// worker, so the scheduler stays free to process other messages in the
    /// meantime — the mechanism behind computation-communication overlap
    /// with overdecomposition.
    pub fn send_local_at(
        &mut self,
        ctx: &mut MCtx,
        to: ChareRef,
        ep: EpId,
        params: Vec<u8>,
        fire_at: rucx_sim::time::Time,
    ) {
        debug_assert_eq!(self.home_pe(to.col, to.index), self.index);
        let env = self.host_envelope(to.col.0, to.index, ep, params);
        let me = self.index;
        let tag = self.scheme.host_tag(me);
        let bytes = env.encode();
        let wire = bytes.len() as u64;
        ctx.with_world(move |_, s| {
            s.schedule_at(fire_at, move |w, s| {
                rucx_ucp::inject_local(w, s, me, me, tag, Some(bytes), wire);
            });
        });
    }

    /// Broadcast entry method `ep` to every element of `col`.
    pub fn broadcast(&mut self, ctx: &mut MCtx, col: Collection, ep: EpId, params: Vec<u8>) {
        let cost = SEND_OVERHEAD;
        ctx.advance(cost);
        for pe in 0..self.n_pes {
            let env = self.host_envelope(col.0, BCAST_INDEX, ep, params.clone());
            self.post_envelope(ctx, pe, env);
        }
    }

    /// Raise the exit flag on every PE ("CkExit").
    pub fn exit_all(&mut self, ctx: &mut MCtx) {
        for pe in 0..self.n_pes {
            let env = self.host_envelope(SYS_COLLECTION, 0, SYS_EXIT, vec![]);
            self.post_envelope(ctx, pe, env);
        }
    }

    // ---- Reductions ---------------------------------------------------

    /// Contribute element `elem`'s value to its next reduction of `col`.
    /// Every element must contribute exactly once per reduction, in the
    /// same reduction order everywhere; when complete, the result is
    /// delivered to `target`. A barrier contributes `ReduceOp::Sum` of 0.
    pub fn contribute(
        &mut self,
        ctx: &mut MCtx,
        col: Collection,
        elem: u64,
        op: ReduceOp,
        value: f64,
        target: RedTarget,
    ) {
        // Element `elem`'s k-th contribution belongs to sequence k.
        let seq = self.collections[col.0 as usize].red.elem_seq.next(elem);
        self.reduce_merge(ctx, col, seq, op, value, 1, 0, Some(target), true);
    }

    /// Merge a contribution (local or from a child PE subtree) into the
    /// reduction state and forward when complete.
    #[allow(clippy::too_many_arguments)]
    fn reduce_merge(
        &mut self,
        ctx: &mut MCtx,
        col: Collection,
        seq: u64,
        op: ReduceOp,
        value: f64,
        count: u64,
        from_children: usize,
        target: Option<RedTarget>,
        local: bool,
    ) {
        let (done, acc, total) = {
            let c = &mut self.collections[col.0 as usize];
            let n_local = c.local_indices.len();
            let entry = c.red.entries.entry(seq).or_insert(RedEntry {
                local_got: 0,
                children_got: 0,
                acc: op.identity(),
                count: 0,
                target: None,
            });
            if local {
                entry.local_got += 1;
            } else {
                entry.children_got += from_children;
            }
            if target.is_some() {
                entry.target = target;
            }
            entry.acc = op.apply(entry.acc, value);
            entry.count += count;
            let done = entry.local_got == n_local && entry.children_got == c.red_children;
            (done, entry.acc, entry.count)
        };
        if !done {
            return;
        }
        let entries = &mut self.collections[col.0 as usize].red.entries;
        let target = entries.remove(&seq).and_then(|e| e.target);
        if let Some(parent) = self.index.checked_sub(1).map(|p| p / 2) {
            // Forward to the parent PE in the reduction tree.
            let mut params = Vec::new();
            params.put_u64(col.0 as u64);
            params.put_u64(seq);
            params.put_u64(op_code(op));
            params.put_f64(acc);
            params.put_u64(total);
            let env = self.host_envelope(SYS_COLLECTION, 0, SYS_REDUCE, params);
            self.post_envelope(ctx, parent, env);
        } else {
            // Root: deliver.
            let t = target.expect("reduction completed at root without a target");
            let mut params = Vec::new();
            params.put_f64(acc);
            params.put_u64(total);
            match t {
                RedTarget::Broadcast(c2, ep) => self.broadcast(ctx, c2, ep, params),
                RedTarget::Chare(cr, ep) => self.send(ctx, cr, ep, params, 0, vec![]),
            }
        }
    }

    // ---- Scheduling ---------------------------------------------------

    /// Run the message-driven scheduler until the exit flag rises.
    pub fn run(&mut self, ctx: &mut MCtx) {
        while !self.exit {
            if !self.try_step(ctx) {
                self.wait_for_work(ctx);
            }
        }
    }

    /// Pump the scheduler until `f` yields a value, and return it (used by
    /// blocking layers: AMPI ranks, Charm4py coroutines). Processes
    /// messages while waiting; `f` may consult the world (e.g. check
    /// trigger state) and takes what it waited for in the same call.
    pub fn pump_for<T>(
        &mut self,
        ctx: &mut MCtx,
        mut f: impl FnMut(&mut Self, &mut MCtx) -> Option<T>,
    ) -> T {
        loop {
            if let Some(t) = f(self, ctx) {
                return t;
            }
            if !self.try_step(ctx) {
                // Re-check after the failed step: `f` may depend on world
                // state that try_step's processing changed.
                if let Some(t) = f(self, ctx) {
                    return t;
                }
                self.wait_for_work(ctx);
            }
        }
    }

    // ---- Machine layer (Lrts*Device equivalents) -----------------------

    /// `LrtsSendDevice`: send a GPU (or zero-copy host) buffer directly
    /// through the UCP tagged API; returns the generated machine-layer tag
    /// and, when `want_trigger`, a trigger fired at sender completion.
    pub fn ml_send_device(
        &mut self,
        ctx: &mut MCtx,
        dst_pe: usize,
        buf: MemRef,
        want_trigger: bool,
    ) -> (u64, Option<Trigger>) {
        let tag = self.next_device_tag();
        let src_pe = self.index;
        ctx.advance(DEVICE_META_OVERHEAD + CPU_CALL);
        let trig = ctx.with_world(move |w, s| {
            let t = want_trigger.then(|| s.new_trigger());
            let done = t.map_or(Completion::None, Completion::Trigger);
            tag_send_nb(w, s, src_pe, dst_pe, SendBuf::Mem(buf), tag, done);
            t
        });
        (tag, trig)
    }

    /// `LrtsRecvDevice`: post the receive for an announced device transfer;
    /// returns a trigger fired when the data is in `dst`.
    pub fn ml_recv_device(&mut self, ctx: &mut MCtx, tag: u64, dst: MemRef) -> Trigger {
        let me = self.index;
        ctx.advance(CPU_CALL);
        ctx.with_world(move |w, s| {
            let t = s.new_trigger();
            tag_recv_nb(
                w,
                s,
                me,
                dst,
                tag,
                rucx_ucp::MASK_FULL,
                RecvCompletion::Trigger(t),
            );
            t
        })
    }

    /// Deliver an announced [`Payload`] into `buf`, clamped to its length:
    /// an inline payload's fitting prefix is written now (`None`); a zero
    /// copy one posts `LrtsRecvDevice` and returns its trigger (wait with
    /// [`Pe::wait_trigger`]). Costs above the machine layer stay with the
    /// caller.
    pub fn deliver_payload(
        &mut self,
        ctx: &mut MCtx,
        payload: Payload,
        buf: MemRef,
    ) -> Option<Trigger> {
        match payload {
            Payload::Inline { bytes, .. } => {
                if let Some(b) = bytes {
                    let n = (buf.len as usize).min(b.len());
                    ctx.with_world(move |w, _| {
                        w.gpu
                            .pool
                            // Invariant: the caller owns the receive buffer
                            // until the delivery completes, and the slice is
                            // clamped to its length, so the write cannot fail.
                            .write(buf.slice(0, n as u64), &b[..n])
                            .expect("inline deliver")
                    });
                }
                None
            }
            Payload::ZeroCopy { ml_tag, size } => {
                Some(self.ml_recv_device(ctx, ml_tag, buf.slice(0, size.min(buf.len))))
            }
        }
    }

    /// Pump the scheduler until trigger `t` fires, then recycle it.
    pub fn wait_trigger(&mut self, ctx: &mut MCtx, t: Trigger) {
        self.pump_for(ctx, move |_, ctx| {
            ctx.with_world_ref(|_, s| s.fired(t)).then_some(())
        });
        ctx.with_world(move |_, s| s.recycle_trigger(t));
    }

    /// Route every asynchronous error still queued at this PE's worker
    /// (the scheduler may not have stepped since it was recorded).
    pub fn drain_errors(&mut self, ctx: &mut MCtx) {
        let me = self.index;
        while let Some(err) = ctx.with_world(move |w, _| w.ucp.take_worker_error(me)) {
            self.deliver_error(ctx, err);
        }
    }

    /// Route an asynchronous communication error to the PE-wide handler,
    /// else keep it visible in `unhandled_errors`.
    fn deliver_error(&mut self, ctx: &mut MCtx, err: UcpError) {
        if let Some(h) = self.default_error_handler.clone() {
            h(&err, self, ctx);
            return;
        }
        let me = self.index as u32;
        ctx.with_world(move |_, s| s.trace_instant(metrics::TRACE_ERROR_UNHANDLED, me, 0, 0));
        self.unhandled_errors.push(err);
    }

    /// One scheduler step; returns whether progress was made.
    pub fn try_step(&mut self, ctx: &mut MCtx) -> bool {
        // 0) Asynchronous communication errors from the reliability layer.
        let me = self.index;
        let err = ctx.with_world(move |w, _| w.ucp.take_worker_error(me));
        if let Some(err) = err {
            self.deliver_error(ctx, err);
            return true;
        }
        // 1) Device-complete entry methods ready to run?
        if let Some(i) = self.find_ready_pending(ctx) {
            let PendingDevice { env, triggers } = self.pending_device.swap_remove(i);
            ctx.with_world(move |_, s| triggers.into_iter().for_each(|t| s.recycle_trigger(t)));
            self.exec_envelope(ctx, env);
            return true;
        }
        // 2) Local (same-PE) messages.
        if let Some(env) = self.local_q.pop_front() {
            self.dispatch(ctx, env);
            return true;
        }
        // 3) Host-side messages from the machine layer.
        let me = self.index;
        let (want, mask) = self.scheme.host_probe();
        let popped = ctx.with_world(move |w, _| probe_pop(w, me, want, mask));
        match popped {
            Some(PoppedMsg::Eager { bytes, .. }) => {
                let bytes = bytes.expect("envelope must be materialized");
                let env = Envelope::decode(&bytes).expect("malformed envelope");
                self.dispatch(ctx, env);
                true
            }
            Some(PoppedMsg::Rndv { rts_id, tag, .. }) => {
                // Large host-side message: start fetching its bytes without
                // blocking the scheduler; the completed message is
                // re-injected into the worker as an eager arrival and
                // dispatched on a later step (the real machine layer
                // likewise overlaps the rendezvous with scheduling).
                ctx.with_world(move |w, s| {
                    // A failed fetch (rendezvous retired by the reliability
                    // layer) already queued a typed error at this PE's
                    // worker; `try_step` surfaces it to the error handler.
                    let _ = rndv_fetch(
                        w,
                        s,
                        me,
                        tag,
                        rts_id,
                        FetchDst::Bytes,
                        RecvCompletion::Bytes(Box::new(move |w, s, bytes, info| {
                            if info.size > 0 {
                                rucx_ucp::inject_local(w, s, me, info.src, tag, bytes, info.size);
                            }
                        })),
                    );
                });
                true
            }
            None => false,
        }
    }

    fn find_ready_pending(&mut self, ctx: &mut MCtx) -> Option<usize> {
        if self.pending_device.is_empty() {
            return None;
        }
        // Read-only fast path: borrow the pending list directly instead of
        // cloning every trigger set per scheduler pump.
        let pending = &self.pending_device;
        ctx.with_world_ref(|_, s| {
            pending
                .iter()
                .position(|p| p.triggers.iter().all(|t| s.fired(*t)))
        })
    }

    /// Park until the machine layer signals new work.
    ///
    /// Safe against lost wakeups: no yield happens between `try_step`
    /// returning false and the epoch snapshot below (world calls do not
    /// yield the processor), so any notification after the failed check
    /// moves the epoch past `seen`.
    fn wait_for_work(&mut self, ctx: &mut MCtx) {
        let me = self.index;
        let (n, seen) = ctx.with_world_ref(|w, s| {
            let n = w.ucp.worker(me).notify;
            (n, s.notify_epoch(n))
        });
        ctx.wait_notify(n, seen);
        // Account the scheduler's wake-from-idle poll cost.
        ctx.advance(IDLE_POLL);
    }

    /// Dispatch one envelope: system handling, post entry methods for
    /// device buffers, or direct execution.
    fn dispatch(&mut self, ctx: &mut MCtx, env: Envelope) {
        {
            // One instant per delivered envelope: id packs (collection, ep)
            // so a trace viewer can tell entry methods apart; arg = sender.
            let me = self.index as u32;
            let id = ((env.collection as u64) << 16) | env.ep as u64;
            let src = env.src_pe as u64;
            ctx.with_world(move |_, s| s.trace_instant(metrics::TRACE_SCHED_DELIVER, me, id, src));
        }
        let unpack = pack_cost(env.params.len() as u64 + env.phantom_payload);
        ctx.advance(RECV_OVERHEAD + unpack);

        if env.collection == SYS_COLLECTION {
            self.handle_sys(ctx, env);
            return;
        }
        if env.device.is_empty() {
            self.exec_envelope(ctx, env);
            return;
        }
        // Post entry method: obtain destination GPU buffers, then post the
        // machine-layer receives (LrtsRecvDevice) for each incoming buffer.
        ctx.advance(POST_OVERHEAD);
        let key = (env.collection, env.index);
        let col = &self.collections[env.collection as usize];
        let entry = col.eps[env.ep as usize].clone();
        let post = entry
            .post
            .as_ref()
            .expect("device buffers sent to an entry method without a post function");
        let msg = Msg {
            src_pe: env.src_pe as usize,
            params: env.params.clone(),
            device_sizes: env.device.iter().map(|d| d.size).collect(),
            phantom_payload: env.phantom_payload,
        };
        let bufs = self.detached(key, |chare, _| post(chare, &msg));
        assert_eq!(
            bufs.len(),
            env.device.len(),
            "post entry method must supply one buffer per device parameter"
        );
        let me = self.index;
        ctx.advance(CPU_CALL * env.device.len() as u64);
        let pairs: Vec<(DeviceMeta, MemRef)> = env.device.iter().copied().zip(bufs).collect();
        let triggers = ctx.with_world(move |w, s| {
            let mut ts = Vec::with_capacity(pairs.len());
            for (meta, buf) in pairs {
                assert!(
                    buf.len >= meta.size,
                    "posted device buffer smaller than incoming data"
                );
                let t = s.new_trigger();
                tag_recv_nb(
                    w,
                    s,
                    me,
                    buf.slice(0, meta.size),
                    meta.tag,
                    rucx_ucp::MASK_FULL,
                    RecvCompletion::Trigger(t),
                );
                ts.push(t);
            }
            ts
        });
        self.pending_device.push(PendingDevice { env, triggers });
    }

    /// Run the regular entry method(s) for an envelope whose data (host and
    /// device) is fully available.
    fn exec_envelope(&mut self, ctx: &mut MCtx, env: Envelope) {
        let col_idx = env.collection as usize;
        let entry = self.collections[col_idx].eps[env.ep as usize].clone();
        let msg = Msg {
            src_pe: env.src_pe as usize,
            params: env.params,
            device_sizes: env.device.iter().map(|d| d.size).collect(),
            phantom_payload: env.phantom_payload,
        };
        if env.index == BCAST_INDEX {
            let indices = self.collections[col_idx].local_indices.clone();
            for i in indices {
                self.exec_one(ctx, (env.collection, i), &entry, &msg);
            }
        } else {
            self.exec_one(ctx, (env.collection, env.index), &entry, &msg);
        }
    }

    fn exec_one(&mut self, ctx: &mut MCtx, key: (u16, u64), entry: &Rc<EpEntry>, msg: &Msg) {
        self.detached(key, |chare, pe| (entry.exec)(chare, msg, pe, ctx));
    }

    fn handle_sys(&mut self, ctx: &mut MCtx, env: Envelope) {
        match env.ep {
            SYS_EXIT => self.exit = true,
            SYS_REDUCE => {
                let mut r: &[u8] = &env.params;
                let col = Collection(r.get_u64() as u16);
                let seq = r.get_u64();
                let op = op_from(r.get_u64());
                let value = r.get_f64();
                let count = r.get_u64();
                self.reduce_merge(ctx, col, seq, op, value, count, 1, None, false);
            }
            other => panic!("unknown system entry {other}"),
        }
    }
}

/// Reductions climb the binary heap over PEs: PE `p`'s parent is
/// `(p - 1) / 2`. Which child of `pe` (0 for `2 pe + 1`, 1 for `2 pe + 2`)
/// heads the subtree that holds PE `q`, if either does. In 1-based labels a
/// subtree's members are the labels that start with its root's bits.
fn heap_child_toward(pe: usize, q: usize) -> Option<usize> {
    let (label, left) = (q + 1, 2 * (pe + 1));
    let shift = label.ilog2().checked_sub(left.ilog2())?;
    (label >> shift).checked_sub(left).filter(|&c| c < 2)
}

/// The reduction message carries its operator as one `u64`.
fn op_code(op: ReduceOp) -> u64 {
    match op {
        ReduceOp::Sum => 0,
        ReduceOp::Min => 1,
        ReduceOp::Max => 2,
    }
}

fn op_from(v: u64) -> ReduceOp {
    match v {
        0 => ReduceOp::Sum,
        1 => ReduceOp::Min,
        2 => ReduceOp::Max,
        _ => panic!("bad reduction op code {v}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_child_toward_matches_a_climb_to_the_root() {
        for pe in 0..40 {
            for q in 0..200 {
                let mut climb = q;
                while climb > 2 * pe + 2 {
                    climb = (climb - 1) / 2;
                }
                let want = [2 * pe + 1, 2 * pe + 2].iter().position(|&c| c == climb);
                assert_eq!(heap_child_toward(pe, q), want, "pe {pe}, q {q}");
            }
        }
    }

    #[test]
    fn op_codes_roundtrip() {
        for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
            assert_eq!(op_from(op_code(op)), op);
        }
    }
}
