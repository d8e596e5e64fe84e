//! # rucx-charm4py — Charm4py-style channels over the Charm++ runtime
//!
//! Reproduces the paper's Charm4py layer (§II-E, §III-D): a Python parallel
//! programming framework whose channel send/receive semantics are
//! implemented with futures and coroutine suspension, while the heavy
//! lifting happens in the C++ (here: Rust) Charm++ runtime reached through
//! a Cython layer. The Python and Cython costs are modeled explicitly as
//! per-call overheads ([`PY_SEND`] and the constants beside it), which is
//! what produces Charm4py's characteristic gap from Charm++/AMPI in the
//! paper's figures (higher small-message latency, bandwidth plateau well
//! under NVLink).
//!
//! GPU-aware path (Fig. 8, `gpu_direct`): buffer address and size go
//! straight through Cython into a `CkDeviceBuffer`, the data moves via the
//! UCX machine layer, and the receive completion fulfills the future that
//! suspended the coroutine. The host-staging path (`not gpu_direct`) is
//! exposed via [`PyProc::cuda_dtoh`]/[`PyProc::cuda_htod`] wrappers that add
//! the Python call overhead on top of the simulated CUDA costs.

pub mod coll;
pub mod metrics;
pub use coll::ReduceOp;

use std::collections::{BTreeMap, VecDeque};

use rucx_charm::{marshal, ChareRef, Collection, EpId, Msg, Pe};
use rucx_compat::idmap::IdMap;
use rucx_gpu::device::{COPY_LAUNCH, SYNC_OVERHEAD};
use rucx_gpu::{copy_async, stream_sync_trigger, MemRef, StreamId};
use rucx_sim::time::{transfer_time, us, Duration, Time};
use rucx_ucp::{MCtx, MSim, UcpError};

// Calibration constants of the Python/Cython layers.

/// Python-side cost of a `channel.send` call (argument handling, Cython
/// transition, future bookkeeping).
pub const PY_SEND: Duration = us(6.0);
/// Python-side cost of a `channel.recv` call until the coroutine suspends.
pub const PY_RECV: Duration = us(6.5);
/// Cost of resuming a suspended coroutine when its future is fulfilled.
pub const PY_WAKE: Duration = us(3.0);
/// Overhead of one CUDA call made from Python through the Cython layer
/// (used by the host-staging path of Fig. 8).
pub const PY_CUDA_CALL: Duration = us(1.8);
/// Python/Cython per-byte buffer-handling cost on the GPU-direct data path
/// (GB/s) — buffer-protocol traversal, future payload handling.
pub const PY_BUFFER_GBPS: f64 = 150.0;
/// Pickle/unpickle bandwidth for host objects.
pub const PICKLE_GBPS: f64 = 12.0;

/// Pickling cost for `size` bytes.
pub fn pickle_cost(size: u64) -> Duration {
    transfer_time(size, PICKLE_GBPS)
}

/// Per-byte Python-side handling cost of a GPU-direct payload.
pub fn buffer_cost(size: u64) -> Duration {
    transfer_time(size, PY_BUFFER_GBPS)
}

/// A channel message as delivered to the receiving chare.
enum ChanPayload {
    Inline { bytes: Option<Vec<u8>>, size: u64 },
    ZeroCopy { ml_tag: u64, size: u64 },
}

/// A remote-invocable method: receives pickled args, returns an optional
/// pickled result (fulfilling the caller's future).
pub type PyMethod = Box<dyn FnMut(&[u8]) -> Option<Vec<u8>>>;

/// A Python-style exception raised by the communication layer (what the
/// real Charm4py would surface as a raised exception in the coroutine).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PyExceptionRecord {
    /// Python exception class, e.g. `"TimeoutError"`.
    pub exc_type: &'static str,
    /// `str(exc)` — the human-readable failure description.
    pub message: String,
    /// The rank the failed communication addressed, when the error names
    /// one (an endpoint give-up does). Lets channel state tied to a dead
    /// peer be released when the exception surfaces.
    pub peer: Option<usize>,
}

fn py_exception(err: &UcpError) -> PyExceptionRecord {
    let (exc_type, peer) = match err {
        UcpError::EndpointTimeout { dst, .. } => ("TimeoutError", Some(*dst)),
        _ => ("RuntimeError", None),
    };
    PyExceptionRecord {
        exc_type,
        message: err.to_string(),
        peer,
    }
}

/// Per-peer channel delivery state. Charm4py channels are ordered even
/// though the underlying runtime's message delivery is not: each message
/// carries a per-pair sequence number, and arrivals the network reordered
/// are stashed until their turn (the real Channel class does the same
/// buffering with its internal seqnum).
#[derive(Default)]
struct PeerInbox {
    next_seq: u64,
    ready: VecDeque<ChanPayload>,
    stashed: BTreeMap<u64, ChanPayload>,
}

impl PeerInbox {
    /// Returns whether the message arrived out of turn and was stashed.
    fn deliver(&mut self, seq: u64, payload: ChanPayload) -> bool {
        let held = seq != self.next_seq;
        if held {
            self.stashed.insert(seq, payload);
        } else {
            self.next_seq += 1;
            self.ready.push_back(payload);
            while let Some(p) = self.stashed.remove(&self.next_seq) {
                self.next_seq += 1;
                self.ready.push_back(p);
            }
        }
        held
    }
}

/// The chare behind one Charm4py process: per-peer channel inboxes,
/// registered methods, and fulfilled futures.
struct ChanState {
    inbox: IdMap<u32, PeerInbox>,
    barrier_epoch: u64,
    methods: IdMap<u16, PyMethod>,
    futures: IdMap<u64, Option<Vec<u8>>>,
    /// Communication failures mapped into Python exceptions, awaiting
    /// [`PyProc::take_exception`].
    exceptions: VecDeque<PyExceptionRecord>,
    /// Where a remote invocation ships its result (registered after the
    /// invoke entry method that needs it, hence carried here).
    ep_fulfil: EpId,
}

/// A channel endpoint (paired with `peer`'s endpoint back to us).
#[derive(Debug, Clone, Copy)]
pub struct Channel {
    pub peer: usize,
}

/// One Charm4py process: owns its PE and exposes the channels API.
pub struct PyProc {
    pub pe: Pe,
    rank: usize,
    nranks: usize,
    col: Collection,
    ep_chan: EpId,
    ep_barrier: EpId,
    ep_invoke: EpId,
    next_future: u64,
    /// Next per-peer channel sequence number on the send side.
    chan_seq: IdMap<usize, u64>,
}

/// A Charm4py future: redeem with [`PyProc::future_get`] (the coroutine
/// suspends until the remote invocation's result arrives).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PyFuture(u64);

fn encode_chan(src: u32, seq: u64, payload: &ChanPayload) -> Vec<u8> {
    let mut b = Vec::new();
    marshal::put_u32(&mut b, src);
    marshal::put_u64(&mut b, seq);
    match payload {
        ChanPayload::Inline { bytes, size } => {
            marshal::put_u8(&mut b, 0);
            marshal::put_u64(&mut b, *size);
            match bytes {
                Some(d) => {
                    marshal::put_u8(&mut b, 1);
                    marshal::put_bytes(&mut b, d);
                }
                None => marshal::put_u8(&mut b, 0),
            }
        }
        ChanPayload::ZeroCopy { ml_tag, size } => {
            marshal::put_u8(&mut b, 1);
            marshal::put_u64(&mut b, *ml_tag);
            marshal::put_u64(&mut b, *size);
        }
    }
    b
}

fn decode_chan(params: &[u8]) -> (u32, u64, ChanPayload) {
    let mut r = marshal::Reader(params);
    let src = r.u32();
    let seq = r.u64();
    let payload = match r.u8() {
        0 => {
            let size = r.u64();
            let bytes = match r.u8() {
                1 => Some(r.bytes().to_vec()),
                _ => None,
            };
            ChanPayload::Inline { bytes, size }
        }
        1 => ChanPayload::ZeroCopy {
            ml_tag: r.u64(),
            size: r.u64(),
        },
        k => panic!("bad channel payload kind {k}"),
    };
    (src, seq, payload)
}

impl PyProc {
    /// Build the Charm4py runtime on one PE.
    pub fn create(rank: usize, nranks: usize) -> Self {
        let mut pe = Pe::new(rank, nranks);
        let n = nranks as u64;
        let col = pe.register_collection(n, move |i| i as usize);
        let ep_chan = pe.register_ep(
            col,
            None,
            Box::new(|chare, msg: &Msg, _pe, ctx| {
                let st = chare.downcast_mut::<ChanState>().expect("chan state");
                let (src, seq, payload) = decode_chan(&msg.params);
                if st.inbox.entry(src).or_default().deliver(seq, payload) {
                    ctx.with_world(|_, s| s.count(metrics::REORDER_HELD));
                }
            }),
        );
        let ep_barrier = pe.register_ep(
            col,
            None,
            Box::new(|chare, _msg, _pe, _ctx| {
                let st = chare.downcast_mut::<ChanState>().expect("chan state");
                st.barrier_epoch += 1;
            }),
        );
        // Remote entry-method invocation: run the registered method, then
        // (if the caller attached a future) ship the pickled result back.
        let ep_invoke = pe.register_ep(
            col,
            None,
            Box::new(move |chare, msg: &Msg, pe, ctx| {
                let st = chare.downcast_mut::<ChanState>().expect("chan state");
                let mut r = marshal::Reader(&msg.params);
                let method = r.u64() as u16;
                let fut = r.u64();
                let reply_to = r.u64();
                let args = r.bytes().to_vec();
                let m = st
                    .methods
                    .get_mut(&method)
                    .unwrap_or_else(|| panic!("method {method} not registered"));
                let result = m(&args);
                if fut != 0 {
                    let mut p = Vec::new();
                    marshal::put_u64(&mut p, fut);
                    match &result {
                        Some(bytes) => {
                            marshal::put_u8(&mut p, 1);
                            marshal::put_bytes(&mut p, bytes);
                        }
                        None => marshal::put_u8(&mut p, 0),
                    }
                    let ep_fulfil = st.ep_fulfil;
                    pe.send(
                        ctx,
                        ChareRef {
                            col,
                            index: reply_to,
                        },
                        ep_fulfil,
                        p,
                        0,
                        vec![],
                    );
                }
            }),
        );
        // Future fulfilment: wakes whoever suspended on `PyFuture::get`.
        let ep_fulfil = pe.register_ep(
            col,
            None,
            Box::new(|chare, msg: &Msg, _pe, _ctx| {
                let st = chare.downcast_mut::<ChanState>().expect("chan state");
                let mut r = marshal::Reader(&msg.params);
                let fut = r.u64();
                let bytes = match r.u8() {
                    1 => Some(r.bytes().to_vec()),
                    _ => None,
                };
                st.futures.insert(fut, bytes);
            }),
        );
        pe.insert_chare(
            col,
            rank as u64,
            Box::new(ChanState {
                inbox: IdMap::default(),
                barrier_epoch: 0,
                methods: IdMap::default(),
                futures: IdMap::default(),
                exceptions: VecDeque::new(),
                ep_fulfil,
            }),
        );
        // Reliability give-ups become Python exception records awaiting
        // `take_exception` (as Charm4py would raise into the coroutine).
        let idx = rank as u64;
        pe.set_default_error_handler(Box::new(move |err, pe, _ctx| {
            let rec = py_exception(err);
            let st = pe.chare_mut::<ChanState>(col, idx);
            // A timed-out peer never completes the in-order sequence its
            // stashed reorderings wait on: drop its whole inbox so a dead
            // endpoint cannot pin payload memory for the run's lifetime.
            if rec.exc_type == "TimeoutError" {
                if let Some(p) = rec.peer {
                    st.inbox.remove(&(p as u32));
                }
            }
            st.exceptions.push_back(rec);
        }));
        PyProc {
            pe,
            rank,
            nranks,
            col,
            ep_chan,
            ep_barrier,
            ep_invoke,
            next_future: 1,
            chan_seq: IdMap::default(),
        }
    }

    fn next_chan_seq(&mut self, peer: usize) -> u64 {
        let s = self.chan_seq.entry(peer).or_insert(0);
        let v = *s;
        *s += 1;
        v
    }

    /// Register a remotely-invocable method (a Python method of this
    /// process's chare).
    pub fn register_method(&mut self, id: u16, m: PyMethod) {
        let (col, idx) = (self.col, self.rank as u64);
        self.pe
            .chare_mut::<ChanState>(col, idx)
            .methods
            .insert(id, m);
    }

    /// Asynchronously invoke method `id` on `target`'s chare
    /// (`proxy.method(args)` in Charm4py) — fire-and-forget.
    pub fn invoke(&mut self, ctx: &mut MCtx, target: usize, id: u16, args: Vec<u8>) {
        self.invoke_inner(ctx, target, id, args, 0);
    }

    /// Invoke with a future for the return value
    /// (`proxy.method(args, ret=True)` in Charm4py).
    pub fn invoke_future(
        &mut self,
        ctx: &mut MCtx,
        target: usize,
        id: u16,
        args: Vec<u8>,
    ) -> PyFuture {
        let fut = self.next_future;
        self.next_future += 1;
        self.invoke_inner(ctx, target, id, args, fut);
        PyFuture(fut)
    }

    /// Advance by a Python/Cython overhead and attribute it in the trace
    /// as a `charm4py.call_overhead` span. `site` distinguishes the call
    /// site: 0 = send path, 1 = recv path, 2 = coroutine wake, 3 = CUDA
    /// call; `arg` carries the duration so the attribution table can sum
    /// spans without re-deriving them.
    fn py_overhead(&self, ctx: &mut MCtx, dur: Duration, site: u64) {
        let me = self.rank as u32;
        ctx.with_world(move |_, s| {
            s.trace_span_in(metrics::TRACE_CALL_OVERHEAD, dur, me, site, dur)
        });
        ctx.advance(dur);
    }

    fn invoke_inner(&mut self, ctx: &mut MCtx, target: usize, id: u16, args: Vec<u8>, fut: u64) {
        let dur = PY_SEND + pickle_cost(args.len() as u64);
        self.py_overhead(ctx, dur, 0);
        let mut p = Vec::new();
        marshal::put_u64(&mut p, id as u64);
        marshal::put_u64(&mut p, fut);
        marshal::put_u64(&mut p, self.rank as u64);
        marshal::put_bytes(&mut p, &args);
        let (col, ep) = (self.col, self.ep_invoke);
        self.pe.send(
            ctx,
            ChareRef {
                col,
                index: target as u64,
            },
            ep,
            p,
            0,
            vec![],
        );
    }

    /// Suspend until the future is fulfilled; returns the pickled result.
    pub fn future_get(&mut self, ctx: &mut MCtx, fut: PyFuture) -> Option<Vec<u8>> {
        let (col, idx) = (self.col, self.rank as u64);
        self.pe.pump_until(ctx, move |pe, _| {
            pe.chare_mut::<ChanState>(col, idx)
                .futures
                .contains_key(&fut.0)
        });
        self.py_overhead(ctx, PY_WAKE, 2);
        self.pe
            .chare_mut::<ChanState>(col, idx)
            .futures
            .remove(&fut.0)
            .expect("future fulfilled")
    }

    /// Pop one pending communication exception (non-blocking). Drains
    /// errors still sitting at the UCP worker first, so a failure surfaced
    /// in the same event as a completion is not missed.
    pub fn take_exception(&mut self, ctx: &mut MCtx) -> Option<PyExceptionRecord> {
        let me = self.rank;
        let (col, idx) = (self.col, self.rank as u64);
        while let Some(e) = ctx.with_world(move |w, _| w.ucp.take_worker_error(me)) {
            self.pe
                .chare_mut::<ChanState>(col, idx)
                .exceptions
                .push_back(py_exception(&e));
        }
        let rec = self
            .pe
            .chare_mut::<ChanState>(col, idx)
            .exceptions
            .pop_front();
        // Release everything still tied to a dead peer: stashed/ready
        // arrivals (for errors drained above, which bypassed the default
        // handler) and the sender-side sequence counter, so a later
        // reconnection starts a fresh in-order stream.
        if let Some(r) = &rec {
            if r.exc_type == "TimeoutError" {
                if let Some(p) = r.peer {
                    self.pe
                        .chare_mut::<ChanState>(col, idx)
                        .inbox
                        .remove(&(p as u32));
                    self.chan_seq.remove(&p);
                }
            }
        }
        rec
    }

    /// Suspend until a communication exception is raised (used after a
    /// send that is expected to fail; pairs with `take_exception` for
    /// polling-style use).
    pub fn wait_exception(&mut self, ctx: &mut MCtx) -> PyExceptionRecord {
        let (col, idx) = (self.col, self.rank as u64);
        let me = self.rank;
        self.pe.pump_until(ctx, move |pe, ctx| {
            !pe.chare_mut::<ChanState>(col, idx).exceptions.is_empty()
                || ctx.with_world_ref(|w, _| w.ucp.worker(me).has_errors())
        });
        self.py_overhead(ctx, PY_WAKE, 2);
        self.take_exception(ctx).expect("exception present")
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.nranks
    }

    /// Establish a channel to `peer` (channels are lightweight; creation is
    /// implicit on first use in this model).
    pub fn channel(&self, peer: usize) -> Channel {
        Channel { peer }
    }

    /// `channel.send(d_buf, size)` — GPU-direct send (Fig. 8 `gpu_direct`).
    /// Asynchronous: returns once the runtime has taken over the buffer.
    pub fn send(&mut self, ctx: &mut MCtx, ch: Channel, buf: MemRef) {
        let dur = PY_SEND + buffer_cost(buf.len);
        self.py_overhead(ctx, dur, 0);
        let (ml_tag, _trig) = self.pe.ml_send_device(ctx, ch.peer, buf, false);
        let payload = ChanPayload::ZeroCopy {
            ml_tag,
            size: buf.len,
        };
        let seq = self.next_chan_seq(ch.peer);
        let bytes = encode_chan(self.rank as u32, seq, &payload);
        let (col, ep) = (self.col, self.ep_chan);
        self.pe.send(
            ctx,
            ChareRef {
                col,
                index: ch.peer as u64,
            },
            ep,
            bytes,
            0,
            vec![],
        );
    }

    /// `channel.send(host_obj)` — pickle a host object into the message.
    pub fn send_host(&mut self, ctx: &mut MCtx, ch: Channel, data: Vec<u8>) {
        let size = data.len() as u64;
        self.send_host_payload(ctx, ch, Some(data), size)
    }

    /// Host-object send with an explicit wire size; `bytes: None` models a
    /// payload that is not materialized (timing-only benchmarks).
    pub fn send_host_payload(
        &mut self,
        ctx: &mut MCtx,
        ch: Channel,
        bytes: Option<Vec<u8>>,
        size: u64,
    ) {
        let dur = PY_SEND + pickle_cost(size);
        self.py_overhead(ctx, dur, 0);
        // Unmaterialized payloads still occupy `size` bytes on the wire.
        let phantom = if bytes.is_none() { size } else { 0 };
        let payload = ChanPayload::Inline { bytes, size };
        let seq = self.next_chan_seq(ch.peer);
        let bytes = encode_chan(self.rank as u32, seq, &payload);
        let (col, ep) = (self.col, self.ep_chan);
        self.pe.send(
            ctx,
            ChareRef {
                col,
                index: ch.peer as u64,
            },
            ep,
            bytes,
            phantom,
            vec![],
        );
    }

    /// `channel.recv(d_buf, size)` — suspend until the message arrives,
    /// post the device receive, and resume when the data lands. Returns the
    /// received size.
    pub fn recv(&mut self, ctx: &mut MCtx, ch: Channel, buf: MemRef) -> u64 {
        self.py_overhead(ctx, PY_RECV, 1);
        let payload = self.pop_inbox(ctx, ch.peer);
        match payload {
            ChanPayload::ZeroCopy { ml_tag, size } => {
                self.py_overhead(ctx, buffer_cost(size), 1);
                let trigger = self.pe.ml_recv_device(ctx, ml_tag, buf.slice(0, size));
                self.pe.pump_until(ctx, move |_, ctx| {
                    ctx.with_world_ref(|_, s| s.fired(trigger))
                });
                ctx.with_world(move |_, s| s.recycle_trigger(trigger));
                self.py_overhead(ctx, PY_WAKE, 2);
                size
            }
            ChanPayload::Inline { bytes, size } => {
                let dur = pickle_cost(size) + PY_WAKE;
                self.py_overhead(ctx, dur, 2);
                if let Some(b) = bytes {
                    let n = (buf.len as usize).min(b.len());
                    ctx.with_world(move |w, _| {
                        w.gpu
                            .pool
                            .write(buf.slice(0, n as u64), &b[..n])
                            .expect("inline channel deliver")
                    });
                }
                size
            }
        }
    }

    /// `channel.recv()` of a pickled host object.
    pub fn recv_host(&mut self, ctx: &mut MCtx, ch: Channel) -> Option<Vec<u8>> {
        self.py_overhead(ctx, PY_RECV, 1);
        match self.pop_inbox(ctx, ch.peer) {
            ChanPayload::Inline { bytes, size } => {
                let dur = pickle_cost(size) + PY_WAKE;
                self.py_overhead(ctx, dur, 2);
                bytes
            }
            ChanPayload::ZeroCopy { .. } => {
                panic!("recv_host on a channel carrying a GPU buffer")
            }
        }
    }

    /// `charm.iwait`-style select: suspend until any of `peers` has a
    /// ready pickled host object and return `Some((peer, bytes))`. Ties
    /// are broken by `peers` order, so the choice is deterministic.
    ///
    /// With a `deadline` the wait is bounded: `None` is returned once it
    /// passes with nothing ready. A wakeup is scheduled at the deadline so
    /// a blocked receiver cannot sleep through it, and the
    /// ready-vs-deadline decision is made in virtual time — this is what
    /// lets the service layer's futures frontend detect dead workers
    /// instead of hanging in `gather_all`. Without one, no wakeup is
    /// scheduled and the result is never `None`.
    pub fn recv_host_any(
        &mut self,
        ctx: &mut MCtx,
        peers: &[usize],
        deadline: Option<Time>,
    ) -> Option<(usize, Option<Vec<u8>>)> {
        self.py_overhead(ctx, PY_RECV, 1);
        let me = self.rank;
        if let Some(dl) = deadline.filter(|&dl| ctx.now() < dl) {
            ctx.with_world(move |w, s| {
                let n = w.ucp.worker(me).notify;
                s.schedule_at(dl, move |_, s| s.notify(n));
            });
        }
        let (col, idx) = (self.col, self.rank as u64);
        let scan: Vec<u32> = peers.iter().map(|&p| p as u32).collect();
        let scan2 = scan.clone();
        self.pe.pump_until(ctx, move |pe, ctx| {
            let st = pe.chare_mut::<ChanState>(col, idx);
            scan2
                .iter()
                .any(|p| st.inbox.get(p).is_some_and(|q| !q.ready.is_empty()))
                || deadline.is_some_and(|dl| ctx.now() >= dl)
        });
        let st = self.pe.chare_mut::<ChanState>(col, idx);
        let hit = scan.iter().find_map(|&p| {
            let payload = st.inbox.get_mut(&p)?.ready.pop_front()?;
            Some((p as usize, payload))
        });
        match hit {
            Some((peer, ChanPayload::Inline { bytes, size })) => {
                let dur = pickle_cost(size) + PY_WAKE;
                self.py_overhead(ctx, dur, 2);
                Some((peer, bytes))
            }
            Some((_, ChanPayload::ZeroCopy { .. })) => {
                panic!("recv_host_any on a channel carrying a GPU buffer")
            }
            None => {
                // Deadline expired with every scanned inbox empty.
                self.py_overhead(ctx, PY_WAKE, 2);
                None
            }
        }
    }

    fn pop_inbox(&mut self, ctx: &mut MCtx, peer: usize) -> ChanPayload {
        let (col, idx) = (self.col, self.rank as u64);
        self.pe.pump_until(ctx, move |pe, _| {
            pe.chare_mut::<ChanState>(col, idx)
                .inbox
                .get(&(peer as u32))
                .is_some_and(|q| !q.ready.is_empty())
        });
        self.pe
            .chare_mut::<ChanState>(col, idx)
            .inbox
            .get_mut(&(peer as u32))
            .unwrap()
            .ready
            .pop_front()
            .unwrap()
    }

    /// Global barrier (via a Charm++ reduction, as `charm.barrier()`).
    pub fn barrier(&mut self, ctx: &mut MCtx) {
        let (col, idx) = (self.col, self.rank as u64);
        let old = self.pe.chare_mut::<ChanState>(col, idx).barrier_epoch;
        let ep = self.ep_barrier;
        self.pe.contribute(
            ctx,
            col,
            idx,
            rucx_charm::RedOp::Barrier,
            0.0,
            rucx_charm::RedTarget::Broadcast(col, ep),
        );
        self.pe.pump_until(ctx, move |pe, _| {
            pe.chare_mut::<ChanState>(col, idx).barrier_epoch > old
        });
    }

    // ---- Host-staging helpers (Fig. 8, `not gpu_direct`) --------------

    /// `charm.lib.CudaDtoH` / `CudaHtoD`: async copy issued from Python.
    pub fn cuda_copy(&mut self, ctx: &mut MCtx, src: MemRef, dst: MemRef, stream: StreamId) {
        self.py_overhead(ctx, PY_CUDA_CALL, 3);
        ctx.advance(COPY_LAUNCH);
        ctx.with_world(move |w, s| {
            copy_async(w, s, src, dst, stream, None);
        });
    }

    /// `charm.lib.CudaStreamSynchronize` from Python.
    pub fn cuda_stream_sync(&mut self, ctx: &mut MCtx, stream: StreamId) {
        self.py_overhead(ctx, PY_CUDA_CALL, 3);
        let t = ctx.with_world(move |w, s| stream_sync_trigger(w, s, stream));
        ctx.wait(t);
        ctx.with_world(move |_, s| s.recycle_trigger(t));
        ctx.advance(SYNC_OVERHEAD);
    }

    /// Virtual time in seconds (`time.perf_counter()`).
    pub fn time(&self, ctx: &MCtx) -> f64 {
        rucx_sim::time::as_secs(ctx.now())
    }
}

/// SPMD launch: one Charm4py process per simulated process.
pub fn launch<F>(sim: &mut MSim, body: F)
where
    F: Fn(&mut PyProc, &mut MCtx) + Send + Sync + Clone + 'static,
{
    let n = sim.world().topo.procs();
    for p in 0..n {
        let body = body.clone();
        sim.spawn(format!("py{p}"), 0, move |ctx| {
            let mut proc = PyProc::create(p, n);
            body(&mut proc, ctx);
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
    fn gpu_direct_channel_roundtrip() {
        let mut sim = sim(1);
        let size = 1u64 << 20;
        let a = sim
            .world_mut()
            .gpu
            .pool
            .alloc_device(DeviceId(0), size, true)
            .unwrap();
        let b = sim
            .world_mut()
            .gpu
            .pool
            .alloc_device(DeviceId(1), size, true)
            .unwrap();
        let data: Vec<u8> = (0..size).map(|i| (i % 199) as u8).collect();
        sim.world_mut().gpu.pool.write(a, &data).unwrap();
        launch(&mut sim, move |py, ctx| match py.rank() {
            0 => {
                let ch = py.channel(1);
                py.send(ctx, ch, a);
            }
            1 => {
                let ch = py.channel(0);
                let n = py.recv(ctx, ch, b);
                assert_eq!(n, size);
            }
            _ => {}
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(sim.world().gpu.pool.read(b).unwrap(), data);
        assert_eq!(sim.metrics().get("ucp.rndv.ipc"), 1);
    }

    #[test]
    fn recv_host_any_times_out_and_delivers() {
        // Rank 1 sends immediately; rank 2 never sends. A select on
        // {1, 2} with a generous deadline returns rank 1's object; a
        // second select on {2} alone expires at its deadline (virtual time
        // reaches it exactly — no busy wait, no hang) and returns None.
        // Without a deadline the select simply blocks until rank 3 sends.
        let mut sim = sim(1);
        let done = Arc::new(rucx_compat::sync::Mutex::new((false, false)));
        let done2 = done.clone();
        launch(&mut sim, move |py, ctx| match py.rank() {
            1 => {
                let ch = py.channel(0);
                py.send_host(ctx, ch, vec![7, 7]);
            }
            3 => {
                ctx.advance(us(1_000.0));
                let ch = py.channel(0);
                py.send_host(ctx, ch, vec![9]);
            }
            0 => {
                let hit = py.recv_host_any(ctx, &[1, 2], Some(us(5_000.0)));
                assert_eq!(hit, Some((1, Some(vec![7, 7]))));
                let deadline = ctx.now() + us(300.0);
                let miss = py.recv_host_any(ctx, &[2], Some(deadline));
                assert_eq!(miss, None);
                assert!(ctx.now() >= deadline, "must sleep to the deadline");
                let late = py.recv_host_any(ctx, &[2, 3], None);
                assert_eq!(late, Some((3, Some(vec![9]))));
                assert!(ctx.now() >= us(1_000.0), "must block until the send");
                *done2.lock() = (true, true);
            }
            _ => {}
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(*done.lock(), (true, true));
    }

    #[test]
    fn host_object_pickling_roundtrip() {
        let mut sim = sim(1);
        let got = Arc::new(rucx_compat::sync::Mutex::new(None));
        let got2 = got.clone();
        launch(&mut sim, move |py, ctx| match py.rank() {
            2 => {
                let ch = py.channel(3);
                py.send_host(ctx, ch, vec![1, 2, 3, 4]);
            }
            3 => {
                let ch = py.channel(2);
                *got2.lock() = py.recv_host(ctx, ch);
            }
            _ => {}
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(got.lock().take(), Some(vec![1, 2, 3, 4]));
    }

    #[test]
    fn python_overhead_dominates_small_latency() {
        // Small-message one-way latency must sit well above Charm++'s
        // (~4-5us) because of interpreter costs — the paper's Fig. 10c.
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
        let out = Arc::new(rucx_compat::sync::Mutex::new(0u64));
        let out2 = out.clone();
        launch(&mut sim, move |py, ctx| match py.rank() {
            0 => {
                let ch = py.channel(1);
                let iters = 10u64;
                let t0 = ctx.now();
                for _ in 0..iters {
                    py.send(ctx, ch, a);
                    py.recv(ctx, ch, a);
                }
                *out2.lock() = (ctx.now() - t0) / (2 * iters);
            }
            1 => {
                let ch = py.channel(0);
                for _ in 0..10 {
                    py.recv(ctx, ch, b);
                    py.send(ctx, ch, b);
                }
            }
            _ => {}
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        let lat = *out.lock();
        assert!(
            lat > us(12.0) && lat < us(35.0),
            "charm4py small latency {}us out of expected band",
            as_us(lat)
        );
    }

    #[test]
    fn unreachable_peer_raises_timeout_error() {
        // A permanently partitioned peer: the GPU-direct channel send is
        // abandoned by the reliability layer and surfaces as a Python-style
        // TimeoutError record instead of hanging the coroutine.
        let mut spec = rucx_fault::FaultSpec::default();
        spec.partitions.push(rucx_fault::PartitionWindow {
            from: 0,
            until: u64::MAX,
        });
        let mut cfg = MachineConfig::default();
        cfg.ucp.max_retries = 2;
        cfg.fault = Some(spec);
        let mut sim = build_sim(Topology::summit(2), cfg);
        let a = sim
            .world_mut()
            .gpu
            .pool
            .alloc_device(DeviceId(0), 1 << 20, false)
            .unwrap();
        let got = Arc::new(rucx_compat::sync::Mutex::new(None));
        let got2 = got.clone();
        launch(&mut sim, move |py, ctx| {
            if py.rank() == 0 {
                let ch = py.channel(6); // other node
                py.send(ctx, ch, a);
                *got2.lock() = Some(py.wait_exception(ctx));
            }
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        let exc = got.lock().take().expect("exception raised");
        assert_eq!(exc.exc_type, "TimeoutError");
        assert!(
            exc.message.contains("gave up"),
            "message should describe the retry exhaustion: {}",
            exc.message
        );
    }

    /// Regression: a peer that times out used to leave its out-of-order
    /// stash (`PeerInbox::stashed`) and the sender-side `chan_seq` entry in
    /// place forever, pinning payload memory for the simulation's lifetime.
    /// Surfacing the TimeoutError must drain both.
    #[test]
    fn peer_timeout_drains_stash_and_chan_seq() {
        let mut spec = rucx_fault::FaultSpec::default();
        spec.partitions.push(rucx_fault::PartitionWindow {
            from: 0,
            until: u64::MAX,
        });
        let mut cfg = MachineConfig::default();
        cfg.ucp.max_retries = 2;
        cfg.fault = Some(spec);
        let mut sim = build_sim(Topology::summit(2), cfg);
        let a = sim
            .world_mut()
            .gpu
            .pool
            .alloc_device(DeviceId(0), 1 << 20, false)
            .unwrap();
        let checked = Arc::new(rucx_compat::sync::Mutex::new(false));
        let checked2 = checked.clone();
        launch(&mut sim, move |py, ctx| {
            if py.rank() != 0 {
                return;
            }
            let ch = py.channel(6); // other node, fully partitioned
            py.send(ctx, ch, a);
            assert!(py.chan_seq.contains_key(&6));
            // Model the reordering race the stash exists for: seq 1 from
            // the dying peer arrives while seq 0 is lost with the
            // partition, so the payload parks in the stash with no
            // predecessor ever coming.
            let (col, idx) = (py.col, 0u64);
            py.pe
                .chare_mut::<ChanState>(col, idx)
                .inbox
                .entry(6)
                .or_default()
                .deliver(
                    1,
                    ChanPayload::Inline {
                        bytes: Some(vec![7u8; 4096]),
                        size: 4096,
                    },
                );
            let exc = py.wait_exception(ctx);
            assert_eq!(exc.exc_type, "TimeoutError");
            assert_eq!(exc.peer, Some(6));
            let st = py.pe.chare_mut::<ChanState>(col, idx);
            assert!(
                !st.inbox.contains_key(&6),
                "dead peer's stash must be drained"
            );
            assert!(
                !py.chan_seq.contains_key(&6),
                "sender chan_seq must be released"
            );
            // A reconnected peer starts a fresh in-order stream.
            assert_eq!(py.next_chan_seq(6), 0);
            *checked2.lock() = true;
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert!(*checked.lock());
    }

    #[test]
    fn barrier_synchronizes() {
        let mut sim = sim(1);
        let times = Arc::new(rucx_compat::sync::Mutex::new(Vec::new()));
        let t2 = times.clone();
        launch(&mut sim, move |py, ctx| {
            ctx.advance(us(5.0 * py.rank() as f64));
            py.barrier(ctx);
            t2.lock().push(ctx.now());
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        let v = times.lock();
        assert_eq!(v.len(), 6);
        for &t in v.iter() {
            assert!(t >= us(25.0));
        }
    }

    #[test]
    fn cuda_helpers_model_host_staging() {
        let mut sim = sim(1);
        let size = 1u64 << 20;
        let d = sim
            .world_mut()
            .gpu
            .pool
            .alloc_device(DeviceId(0), size, true)
            .unwrap();
        let h = sim.world_mut().gpu.pool.alloc_host(0, size, true, true);
        sim.world_mut()
            .gpu
            .pool
            .write(d, &vec![0xAB; size as usize])
            .unwrap();
        let elapsed = Arc::new(rucx_compat::sync::Mutex::new(0u64));
        let e2 = elapsed.clone();
        launch(&mut sim, move |py, ctx| {
            if py.rank() != 0 {
                return;
            }
            let stream = ctx.with_world_ref(|w, _| w.gpu.default_stream(DeviceId(0)));
            let t0 = ctx.now();
            py.cuda_copy(ctx, d, h, stream);
            py.cuda_stream_sync(ctx, stream);
            *e2.lock() = ctx.now() - t0;
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(sim.world().gpu.pool.read(h).unwrap(), vec![0xAB; 1 << 20]);
        // 1 MiB D2H ≈ 25us + launch/sync/python ≈ 35us total.
        let t = *elapsed.lock();
        assert!(t > us(28.0) && t < us(50.0), "staging took {}us", as_us(t));
    }
}
