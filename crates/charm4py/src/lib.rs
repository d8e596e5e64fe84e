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

use std::collections::VecDeque;

use rucx_charm::rank::{Arrived, Layer, Rank};
use rucx_charm::{Payload, Pe};
use rucx_compat::idmap::IdMap;
use rucx_gpu::device::{COPY_LAUNCH, SYNC_OVERHEAD};
use rucx_gpu::{copy_async, stream_sync_trigger, MemRef, StreamId};
use rucx_sim::time::{transfer_time, us, Duration, Time};
use rucx_sim::Metric;
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

/// The layer state behind one Charm4py process (in the rank shell's state
/// chare): per-peer ready queues and raised exceptions.
///
/// Charm4py channels are ordered even though the underlying runtime's
/// message delivery is not: the rank shell stamps each message with a
/// per-peer sequence number and holds arrivals that overtook an earlier one
/// until their turn (the real Channel class does the same buffering with
/// its internal seqnum).
#[derive(Default)]
struct PyState {
    /// Per peer: in-order messages ready for `recv`.
    inbox: IdMap<u32, VecDeque<Payload>>,
    /// Messages queued in `inbox`, over every peer. A select that finds it
    /// zero returns without looking any peer up.
    ready: usize,
    /// Communication failures mapped into Python exceptions, awaiting
    /// [`PyProc::take_exception`].
    exceptions: VecDeque<PyExceptionRecord>,
}

impl PyState {
    fn pop(&mut self, peer: usize) -> Option<Payload> {
        if self.ready == 0 {
            return None;
        }
        let got = self.inbox.get_mut(&(peer as u32))?.pop_front()?;
        self.ready -= 1;
        Some(got)
    }

    /// The next message from `peer` for a host receive: a pickled object
    /// is taken off the channel; a GPU buffer stays queued for `recv`, and
    /// only a copy of its descriptor is returned.
    fn take_host(&mut self, peer: usize) -> Option<Payload> {
        if self.ready == 0 {
            return None;
        }
        let q = self.inbox.get_mut(&(peer as u32))?;
        match q.front()? {
            Payload::ZeroCopy { .. } => q.front().cloned(),
            Payload::Inline { .. } => {
                self.ready -= 1;
                q.pop_front()
            }
        }
    }
}

impl Layer for PyState {
    type Header = ();
    const HEADER_LEN: usize = 0;
    const HELD: Metric = metrics::REORDER_HELD;
    const ARRIVAL: Duration = 0;

    fn put_header(_: &(), _: &mut Vec<u8>) {}
    fn get_header(_: &mut &[u8]) {}

    fn accept(&mut self, m: Arrived<()>, _: &mut Pe, _: &mut MCtx) {
        self.inbox.entry(m.src).or_default().push_back(m.payload);
        self.ready += 1;
    }

    /// Queue `err` as a Python exception record. A timed-out peer is
    /// forgotten on both sides of its channel: its ready messages go here
    /// and the shell drops its held ones (it never completes the sequence
    /// a held message waits on, and a dead endpoint must not pin payload
    /// memory for the run's lifetime), so a later reconnection starts a
    /// fresh in-order stream.
    fn error(&mut self, err: &UcpError) -> Option<usize> {
        let (exc_type, peer) = match err {
            UcpError::EndpointTimeout { dst, .. } => ("TimeoutError", Some(*dst)),
            _ => ("RuntimeError", None),
        };
        if let Some(dropped) = peer.and_then(|p| self.inbox.remove(&(p as u32))) {
            self.ready -= dropped.len();
        }
        let message = err.to_string();
        let rec = PyExceptionRecord {
            exc_type,
            message,
            peer,
        };
        self.exceptions.push_back(rec);
        peer
    }
}

/// A channel endpoint (paired with `peer`'s endpoint back to us).
#[derive(Debug, Clone, Copy)]
pub struct Channel {
    pub peer: usize,
}

/// One Charm4py process: the Charm++ rank shell plus the channels API.
pub struct PyProc {
    shell: Rank<PyState>,
}

impl AsMut<Rank<PyState>> for PyProc {
    fn as_mut(&mut self) -> &mut Rank<PyState> {
        &mut self.shell
    }
}

impl PyProc {
    /// Advance by a Python/Cython overhead and attribute it in the trace
    /// as a `charm4py.call_overhead` span. `site` distinguishes the call
    /// site: 0 = send path, 1 = recv path, 2 = coroutine wake, 3 = CUDA
    /// call; `arg` carries the duration so the attribution table can sum
    /// spans without re-deriving them.
    fn py_overhead(&self, ctx: &mut MCtx, dur: Duration, site: u64) {
        let me = self.rank() as u32;
        ctx.with_world(move |_, s| {
            s.trace_span_in(metrics::TRACE_CALL_OVERHEAD, dur, me, site, dur)
        });
        ctx.advance(dur);
    }

    /// Pop one pending communication exception (non-blocking). Drains
    /// errors still sitting at the UCP worker first, so a failure surfaced
    /// in the same event as a completion is not missed.
    pub fn take_exception(&mut self, ctx: &mut MCtx) -> Option<PyExceptionRecord> {
        self.shell.pe.drain_errors(ctx);
        self.shell.state().exceptions.pop_front()
    }

    /// Suspend until a communication exception is raised (used after a
    /// send that is expected to fail; pairs with `take_exception` for
    /// polling-style use).
    pub fn wait_exception(&mut self, ctx: &mut MCtx) -> PyExceptionRecord {
        let rec = self.shell.pump_for(ctx, |st, _| st.exceptions.pop_front());
        self.py_overhead(ctx, PY_WAKE, 2);
        rec
    }

    pub fn rank(&self) -> usize {
        self.shell.pe.index
    }

    pub fn size(&self) -> usize {
        self.shell.pe.n_pes
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
        let (ml_tag, _trig) = self.shell.pe.ml_send_device(ctx, ch.peer, buf, false);
        let payload = Payload::ZeroCopy {
            ml_tag,
            size: buf.len,
        };
        self.shell.send(ctx, ch.peer, (), payload, 0);
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
        let payload = Payload::Inline { bytes, size };
        self.shell.send(ctx, ch.peer, (), payload, phantom);
    }

    /// `channel.recv(d_buf, size)` — suspend until the message arrives,
    /// post the device receive, and resume when the data lands. Returns the
    /// size sent; only the prefix that fits in `buf` is delivered.
    pub fn recv(&mut self, ctx: &mut MCtx, ch: Channel, buf: MemRef) -> u64 {
        self.py_overhead(ctx, PY_RECV, 1);
        let payload = self.shell.pump_for(ctx, |st, _| st.pop(ch.peer));
        let size = payload.size();
        match payload {
            Payload::ZeroCopy { .. } => self.py_overhead(ctx, buffer_cost(size), 1),
            Payload::Inline { .. } => self.py_overhead(ctx, pickle_cost(size) + PY_WAKE, 2),
        }
        if let Some(t) = self.shell.pe.deliver_payload(ctx, payload, buf) {
            self.shell.pe.wait_trigger(ctx, t);
            self.py_overhead(ctx, PY_WAKE, 2);
        }
        size
    }

    /// `channel.recv()` of a pickled host object. A GPU buffer at the head
    /// of the channel is not taken: it raises a `TypeError` record (see
    /// [`PyProc::take_exception`]) and stays queued for [`PyProc::recv`].
    pub fn recv_host(&mut self, ctx: &mut MCtx, ch: Channel) -> Option<Vec<u8>> {
        self.py_overhead(ctx, PY_RECV, 1);
        let got = self.shell.pump_for(ctx, |st, _| st.take_host(ch.peer));
        self.host_object(ctx, ch.peer, got)
    }

    /// `charm.iwait`-style select: suspend until any of `peers` has a
    /// ready pickled host object and return `Some((peer, bytes))`. Ties
    /// are broken by `peers` order, so the choice is deterministic. A GPU
    /// buffer at the head of the chosen channel is handled as in
    /// [`PyProc::recv_host`].
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
        let me = self.rank();
        if let Some(dl) = deadline.filter(|&dl| ctx.now() < dl) {
            ctx.with_world(move |w, s| {
                let n = w.ucp.worker(me).notify;
                s.schedule_at(dl, move |_, s| s.notify(n));
            });
        }
        let hit = self.shell.pump_for(ctx, |st, ctx| {
            let hit = peers.iter().find_map(|&p| Some((p, st.take_host(p)?)));
            (hit.is_some() || deadline.is_some_and(|dl| ctx.now() >= dl)).then_some(hit)
        });
        let Some((peer, got)) = hit else {
            // Deadline expired with every scanned inbox empty.
            self.py_overhead(ctx, PY_WAKE, 2);
            return None;
        };
        Some((peer, self.host_object(ctx, peer, got)))
    }

    /// Unpickle what `take_host` found on `peer`'s channel, or raise the
    /// `TypeError` for a GPU buffer.
    fn host_object(&mut self, ctx: &mut MCtx, peer: usize, got: Payload) -> Option<Vec<u8>> {
        match got {
            Payload::Inline { bytes, size } => {
                self.py_overhead(ctx, pickle_cost(size) + PY_WAKE, 2);
                bytes
            }
            Payload::ZeroCopy { .. } => {
                self.py_overhead(ctx, PY_WAKE, 2);
                let rec = PyExceptionRecord {
                    exc_type: "TypeError",
                    message: format!("channel from {peer} carries a GPU buffer: recv into one"),
                    peer: None,
                };
                self.shell.state().exceptions.push_back(rec);
                None
            }
        }
    }

    /// Global barrier (via a Charm++ reduction, as `charm.barrier()`).
    pub fn barrier(&mut self, ctx: &mut MCtx) {
        self.shell.barrier(ctx);
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
}

/// SPMD launch: one Charm4py process per simulated process.
pub fn launch<F>(sim: &mut MSim, body: F)
where
    F: Fn(&mut PyProc, &mut MCtx) + Send + Sync + Clone + 'static,
{
    rucx_charm::rank::launch(sim, "py", |shell| PyProc { shell }, body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rucx_compat::buf::BufMut;
    use rucx_fabric::Topology;
    use rucx_gpu::DeviceId;
    use rucx_sim::time::as_us;
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
        rucx_ucp::finish(&mut sim).unwrap();
        assert_eq!(sim.world().gpu.pool.read(b).unwrap(), data);
        assert_eq!(sim.metrics().get("ucp.rndv.ipc"), 1);
    }

    /// An 8 KiB device message into a 4 KiB device buffer: the receive is
    /// clamped to the buffer (it used to panic slicing past its end), the
    /// first 4 KiB land, and `recv` still reports the size sent.
    #[test]
    fn device_recv_into_short_buffer_truncates() {
        let mut sim = sim(1);
        let a = sim
            .world_mut()
            .gpu
            .pool
            .alloc_device(DeviceId(0), 8192, true)
            .unwrap();
        let b = sim
            .world_mut()
            .gpu
            .pool
            .alloc_device(DeviceId(1), 4096, true)
            .unwrap();
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        sim.world_mut().gpu.pool.write(a, &data).unwrap();
        let got = Arc::new(rucx_compat::sync::Mutex::new(0u64));
        let got2 = got.clone();
        launch(&mut sim, move |py, ctx| match py.rank() {
            0 => py.send(ctx, py.channel(1), a),
            1 => *got2.lock() = py.recv(ctx, py.channel(0), b),
            _ => {}
        });
        rucx_ucp::finish(&mut sim).unwrap();
        assert_eq!(*got.lock(), 8192);
        assert_eq!(sim.world().gpu.pool.read(b).unwrap(), data[..4096]);
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
        rucx_ucp::finish(&mut sim).unwrap();
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
        rucx_ucp::finish(&mut sim).unwrap();
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
        rucx_ucp::finish(&mut sim).unwrap();
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
        rucx_ucp::finish(&mut sim).unwrap();
        let exc = got.lock().take().expect("exception raised");
        assert_eq!(exc.exc_type, "TimeoutError");
        assert!(
            exc.message.contains("gave up"),
            "message should describe the retry exhaustion: {}",
            exc.message
        );
    }

    /// Regression: a peer that times out used to leave its held
    /// out-of-order arrivals and the sender-side sequence counter in place
    /// forever, pinning payload memory for the simulation's lifetime.
    /// Surfacing the TimeoutError must forget the peer on both sides (the
    /// restart at sequence number 0 is pinned by the rank shell's tests).
    #[test]
    fn peer_timeout_forgets_the_peer() {
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
            // Model the reordering race the window exists for: seq 0 from
            // the dying peer is ready, seq 2 arrives while seq 1 is lost
            // with the partition, so seq 2 is held with no predecessor
            // ever coming. Ranks 1 and 2 each have one object ready. All
            // are injected as loopback envelopes in the rank shell's wire
            // format: `(src, seq)`, no header, the payload.
            let inject = |py: &mut PyProc, ctx: &mut MCtx, src: u32, seq: u64| {
                let payload = Payload::Inline {
                    bytes: Some(vec![src as u8; 4096]),
                    size: 4096,
                };
                let params = payload.encode(12, |b| {
                    b.put_u32(src);
                    b.put_u64(seq);
                });
                let (col, index) = (rucx_charm::Collection(0), 0);
                let me = rucx_charm::ChareRef { col, index };
                py.shell.pe.send(ctx, me, 0, params, 0, vec![]);
                py.shell.pe.try_step(ctx);
            };
            for (src, seq) in [(6, 0), (6, 2), (1, 0), (2, 0)] {
                inject(py, ctx, src, seq);
            }
            assert_eq!(py.shell.held(), 1, "seq 2 must be held");
            assert_eq!(py.shell.state().ready, 3);
            let exc = py.wait_exception(ctx);
            assert_eq!(exc.exc_type, "TimeoutError");
            assert_eq!(exc.peer, Some(6));
            assert_eq!(py.shell.held(), 0, "dead peer's holds must go");
            let st = py.shell.state();
            assert!(!st.inbox.contains_key(&6));
            // The ready count lost exactly the dropped inbox, and the
            // survivors' objects are still there to select.
            assert_eq!(st.ready, st.inbox.values().map(VecDeque::len).sum());
            assert_eq!(st.ready, 2);
            for src in [1, 2] {
                let hit = py.recv_host_any(ctx, &[6, 1, 2], None);
                assert_eq!(hit, Some((src, Some(vec![src as u8; 4096]))));
            }
            assert_eq!(py.shell.state().ready, 0);
            *checked2.lock() = true;
        });
        rucx_ucp::finish(&mut sim).unwrap();
        assert!(*checked.lock());
    }

    /// Mirror of AMPI's `large_then_small_from_same_source_stay_ordered`:
    /// a 32 KiB host object makes the envelope exceed the host eager
    /// threshold, so it travels rendezvous and `Pe` re-injects it only
    /// when its fetch completes — after the next (8 B, eager) envelope has
    /// been dispatched. The channel's window holds the small one, on one
    /// node with no fault spec: this hold is not UCP endpoint order.
    #[test]
    fn large_then_small_host_objects_stay_ordered() {
        let mut sim = sim(1);
        let got = Arc::new(rucx_compat::sync::Mutex::new(Vec::new()));
        let got2 = got.clone();
        launch(&mut sim, move |py, ctx| match py.rank() {
            0 => {
                let ch = py.channel(1);
                py.send_host(ctx, ch, vec![0xAB; 32 * 1024]);
                py.send_host(ctx, ch, vec![0xCD; 8]);
            }
            1 => {
                ctx.advance(us(300.0));
                let ch = py.channel(0);
                for _ in 0..2 {
                    let obj = py.recv_host(ctx, ch).expect("materialized object");
                    got2.lock().push(obj);
                }
            }
            _ => {}
        });
        rucx_ucp::finish(&mut sim).unwrap();
        assert_eq!(
            *got.lock(),
            vec![vec![0xAB; 32 * 1024], vec![0xCD; 8]],
            "send order violated"
        );
        assert_eq!(
            sim.metrics().get("charm4py.reorder.held"),
            1,
            "the small object waits in the window for the large one"
        );
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
        rucx_ucp::finish(&mut sim).unwrap();
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
        rucx_ucp::finish(&mut sim).unwrap();
        assert_eq!(sim.world().gpu.pool.read(h).unwrap(), vec![0xAB; 1 << 20]);
        // 1 MiB D2H ≈ 25us + launch/sync/python ≈ 35us total.
        let t = *elapsed.lock();
        assert!(t > us(28.0) && t < us(50.0), "staging took {}us", as_us(t));
    }
}
