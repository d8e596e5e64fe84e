//! UCP tagged-API protocols: eager, rendezvous (RTS/CTS/ATS), and the
//! GPU-aware transports (GDRCopy bounce, CUDA-IPC DMA, pipelined
//! host-staging) — the mechanisms §II-B and §IV-B1 of the paper attribute to
//! UCX.
//!
//! Protocol selection, matching the paper's description of UCX on Summit:
//!
//! | memory   | size                | path |
//! |----------|---------------------|------|
//! | host     | ≤ EAGER_THRESH_HOST | eager via shm (intra) / IB (inter) |
//! | host     | larger              | rendezvous, CMA (intra) / RDMA get (inter) |
//! | device   | ≤ eager_thresh_device, GDRCopy on | eager via GDRCopy bounce |
//! | device   | larger or GDRCopy off | rendezvous: CUDA IPC (intra), pipelined host-staging (inter) |

use rucx_fabric::{net_transfer, WireKind};
use rucx_gpu::{CopyPath, MemKind, MemRef};
use rucx_sim::time::Duration;

use crate::config::{
    eager_copy_cost, gdrcopy_cost, reg_cost, shm_time, ATS_SIZE, EP_CACHE_MAX, EP_SETUP,
    PROTO_OVERHEAD, REG_CACHE_BYTES, RTS_SIZE, SHM_GBPS, SHM_LATENCY,
};
use crate::engine::{self, gpu_direct_ok, ports};
use crate::error::{Protocol, UcpError};
use crate::machine::{Machine, RtsState, SendPayload};
use crate::metrics as m;
use crate::tag::{Tag, TagMask};
use crate::worker::{
    ArrivedBody, ArrivedMsg, Completion, ExpectedRecv, MSched, RecvCompletion, RecvInfo,
};

/// What a send supplies.
pub enum SendBuf {
    /// A buffer in the simulated memory pool (host or device).
    Mem(MemRef),
    /// Runtime-internal host bytes (message envelopes etc.). `wire_size`
    /// may exceed `bytes.len()` to model a payload that is not materialized.
    Inline { bytes: Vec<u8>, wire_size: u64 },
    /// Size-only host payload.
    Phantom { wire_size: u64 },
}

impl SendBuf {
    /// Bytes that travel on the wire.
    pub fn wire_size(&self) -> u64 {
        match self {
            SendBuf::Mem(r) => r.len,
            SendBuf::Inline { wire_size, .. } => *wire_size,
            SendBuf::Phantom { wire_size } => *wire_size,
        }
    }

    /// Convenience constructor for inline bytes whose wire size equals the
    /// byte length.
    pub fn bytes(b: Vec<u8>) -> Self {
        let wire_size = b.len() as u64;
        SendBuf::Inline {
            bytes: b,
            wire_size,
        }
    }
}

/// Where a rendezvous fetch should put the data.
pub enum FetchDst {
    /// Into a pool buffer.
    Mem(MemRef),
    /// Deliver the bytes to the completion (`RecvCompletion::Bytes`).
    Bytes,
}

/// Result of probing the unexpected queue.
pub enum PoppedMsg {
    /// A complete eager message.
    Eager {
        src: usize,
        tag: Tag,
        bytes: Option<Vec<u8>>,
        wire_size: u64,
    },
    /// A rendezvous announcement; fetch with [`rndv_fetch`].
    Rndv {
        src: usize,
        tag: Tag,
        rts_id: u64,
        size: u64,
    },
}

impl PoppedMsg {
    /// Which protocol this message arrived under.
    pub fn protocol(&self) -> Protocol {
        match self {
            PoppedMsg::Eager { .. } => Protocol::Eager,
            PoppedMsg::Rndv { .. } => Protocol::Rndv,
        }
    }

    /// Consume as an eager message: `(src, tag, bytes, wire_size)`.
    /// A rendezvous announcement yields a typed protocol-mismatch error
    /// instead of panicking.
    pub fn into_eager(self) -> Result<(usize, Tag, Option<Vec<u8>>, u64), UcpError> {
        match self {
            PoppedMsg::Eager {
                src,
                tag,
                bytes,
                wire_size,
            } => Ok((src, tag, bytes, wire_size)),
            PoppedMsg::Rndv { src, tag, .. } => Err(UcpError::ProtocolMismatch {
                expected: Protocol::Eager,
                got: Protocol::Rndv,
                src,
                tag,
            }),
        }
    }

    /// Consume as a rendezvous announcement: `(src, tag, rts_id, size)`.
    /// An eager payload yields a typed protocol-mismatch error instead of
    /// panicking.
    pub fn into_rndv(self) -> Result<(usize, Tag, u64, u64), UcpError> {
        match self {
            PoppedMsg::Rndv {
                src,
                tag,
                rts_id,
                size,
            } => Ok((src, tag, rts_id, size)),
            PoppedMsg::Eager { src, tag, .. } => Err(UcpError::ProtocolMismatch {
                expected: Protocol::Rndv,
                got: Protocol::Eager,
                src,
                tag,
            }),
        }
    }
}

/// Memory kind of the payload; `None` when a `Mem` buffer names a handle
/// the pool no longer knows (freed before the send was posted).
fn payload_kind(w: &Machine, buf: &SendBuf, src_proc: usize) -> Option<MemKind> {
    match buf {
        SendBuf::Mem(r) => w.gpu.pool.kind(r.id).ok(),
        SendBuf::Inline { .. } | SendBuf::Phantom { .. } => Some(MemKind::HostPinned {
            node: w.topo.node_of(src_proc),
        }),
    }
}

/// Registration-model charge for the first message on a (src,dst) pair:
/// endpoint wireup latency on a cache miss, zero on a hit. Always zero
/// when the cost model is off (the legacy timing contract).
pub(crate) fn reg_charge_ep(w: &mut Machine, s: &mut MSched, src: usize, dst: usize) -> Duration {
    if !w.ucp.config.reg_model {
        return 0;
    }
    let out = w.ucp.reg.touch_ep((src as u32, dst as u32), EP_CACHE_MAX);
    s.count_n(m::EP_EVICT, out.evicted);
    if out.hit {
        s.count(m::EP_HIT);
        0
    } else {
        s.count(m::EP_MISS);
        EP_SETUP
    }
}

/// Registration-model charge for handing a pool buffer to the transport:
/// mapping latency on a cache miss, zero on a hit. Pool-backed pre-mapped
/// allocations were registered once at pool-build time and always hit.
pub(crate) fn reg_charge_buf(w: &mut Machine, s: &mut MSched, r: &MemRef) -> Duration {
    if !w.ucp.config.reg_model {
        return 0;
    }
    if w.gpu.pool.is_premapped(r.id).unwrap_or(false) {
        s.count(m::REG_HIT);
        s.count(rucx_gpu::metrics::POOL_PREMAPPED_HIT);
        return 0;
    }
    // Registration maps whole allocations, not slices.
    let bytes = w.gpu.pool.size(r.id).unwrap_or(r.len);
    let out = w.ucp.reg.register(r.id.0, bytes, REG_CACHE_BYTES);
    s.count_n(m::REG_EVICT, out.evicted);
    if out.hit {
        s.count(m::REG_HIT);
        0
    } else {
        s.count(m::REG_MISS);
        reg_cost(bytes)
    }
}

/// Drop a buffer's cached registration when the allocation is freed, and
/// account the teardown as an eviction so `miss - evict == live` holds.
/// Call before `MemPool::free` on buffers that traveled through UCP.
pub fn reg_invalidate(w: &mut Machine, s: &mut MSched, id: rucx_gpu::MemId) {
    if w.ucp.reg.invalidate(id.0) {
        s.count(m::REG_EVICT);
    }
}

/// Reject a send posted against a stale buffer handle: count it, queue a
/// typed error at the sender's worker, and complete the operation with
/// nothing sent — a user error must not take down the whole simulation.
pub(crate) fn reject_bad_handle(
    w: &mut Machine,
    s: &mut MSched,
    src: usize,
    op: &'static str,
    done: Completion,
) {
    s.count(m::BAD_HANDLE);
    crate::reliable::push_error(w, s, src, crate::UcpError::InvalidHandle { op, proc: src });
    complete(w, s, src, done);
}

/// Reject a receive whose buffer handle is stale (freed before or during
/// the transfer): count it, queue a typed error at the receiver's worker,
/// and fail the receive.
fn reject_bad_recv(
    w: &mut Machine,
    s: &mut MSched,
    proc: usize,
    op: &'static str,
    src: usize,
    tag: Tag,
    done: RecvCompletion,
) {
    s.count(m::BAD_HANDLE);
    crate::reliable::push_error(w, s, proc, UcpError::InvalidHandle { op, proc });
    fail_fetch(w, s, proc, src, tag, done);
}

/// A receive cannot get its data: complete it with a zero-size status from
/// `src` so no waiter hangs. The caller queues the typed error first (who
/// learns of it, and in which order the workers wake, differs per failure).
fn fail_fetch(
    w: &mut Machine,
    s: &mut MSched,
    recv_proc: usize,
    src: usize,
    tag: Tag,
    done: RecvCompletion,
) {
    let info = RecvInfo {
        src,
        tag,
        size: 0,
        truncated: false,
    };
    complete_recv(w, s, recv_proc, done, None, info);
}

/// Run a completion action for process `proc` and wake its worker.
pub(crate) fn complete(w: &mut Machine, s: &mut MSched, proc: usize, c: Completion) {
    match c {
        Completion::None => {}
        Completion::Trigger(t) => s.fire(t),
        Completion::Callback(f) => f(w, s),
    }
    let n = w.ucp.workers[proc].notify;
    s.notify(n);
}

fn complete_recv(
    w: &mut Machine,
    s: &mut MSched,
    proc: usize,
    c: RecvCompletion,
    bytes: Option<Vec<u8>>,
    info: RecvInfo,
) {
    match c {
        RecvCompletion::Trigger(t) => s.fire(t),
        RecvCompletion::Callback(f) => f(w, s, info),
        RecvCompletion::Bytes(f) => f(w, s, bytes, info),
    }
    let n = w.ucp.workers[proc].notify;
    s.notify(n);
}

/// Schedule delivery of a tagged wire message (eager payload or RTS) from
/// `src` to `dst`, `local_delay` after now, and return nothing — arrival is
/// handled by the matching engine.
#[allow(clippy::too_many_arguments)]
fn send_wire(
    w: &mut Machine,
    s: &mut MSched,
    src: usize,
    dst: usize,
    wire_size: u64,
    local_delay: Duration,
    tag: Tag,
    body: ArrivedBody,
) {
    let now = s.now();
    if w.topo.same_node(src, dst) {
        // Intra-node shared memory is a reliable medium: never tracked.
        let msg = ArrivedMsg { tag, src, body };
        let arrival = shm_occupy(w, src, dst, now + local_delay, wire_size);
        s.schedule_at(arrival, move |w, s| deliver(w, s, dst, msg));
    } else if w.faults.enabled() {
        // The single branch the clean inter-node path pays: under a loaded
        // fault spec, envelopes go through the reliability protocol.
        crate::reliable::send_tracked(w, s, src, dst, wire_size, local_delay, tag, body);
    } else {
        let msg = ArrivedMsg { tag, src, body };
        let (src_port, dst_port) = ports(w, src, dst);
        s.schedule_at(now + local_delay, move |w, s| {
            net_transfer(
                w,
                s,
                src_port,
                dst_port,
                wire_size,
                WireKind::Host,
                move |w, s| deliver(w, s, dst, msg),
            );
        });
    }
}

/// Occupy the shared-memory channel between `src` and `dst` for a transfer
/// of `size` bytes becoming ready at `ready`; returns the arrival time.
/// The channel is a serial resource (a CPU-driven copy), so back-to-back
/// transfers between a pair queue behind each other — this bounds windowed
/// intra-node throughput to the CMA bandwidth and preserves ordering.
pub(crate) fn shm_occupy(
    w: &mut Machine,
    src: usize,
    dst: usize,
    ready: rucx_sim::time::Time,
    size: u64,
) -> rucx_sim::time::Time {
    let key = (src as u32, dst as u32);
    let busy = w.ucp.pair_busy.get(&key).copied().unwrap_or(0);
    let start = (ready + SHM_LATENCY).max(busy);
    let arrival = start + rucx_sim::time::transfer_time(size, SHM_GBPS);
    w.ucp.pair_busy.insert(key, arrival);
    arrival
}

/// Ack the rendezvous sender (ATS) from `recv_proc` so the request parked
/// in `sender_done` completes at `src_proc`. Under a loaded fault spec the
/// inter-node ATS is itself a tracked envelope.
fn ack_sender(
    w: &mut Machine,
    s: &mut MSched,
    recv_proc: usize,
    src_proc: usize,
    rts_id: u64,
    sender_done: Completion,
) {
    if w.topo.same_node(recv_proc, src_proc) {
        s.schedule_in(shm_time(ATS_SIZE), move |w, s| {
            complete(w, s, src_proc, sender_done)
        });
    } else if w.faults.enabled() {
        crate::reliable::send_tracked_ats(w, s, recv_proc, src_proc, rts_id, sender_done);
    } else {
        let (from, to) = ports(w, recv_proc, src_proc);
        net_transfer(w, s, from, to, ATS_SIZE, WireKind::Host, move |w, s| {
            complete(w, s, src_proc, sender_done)
        });
    }
}

/// `ucp_tag_send_nb`: non-blocking tagged send from `src` to `dst`.
///
/// CPU call cost is modeled by the calling layer (`advance(CPU_CALL)`); this
/// function models everything from protocol selection onward.
pub fn tag_send_nb(
    w: &mut Machine,
    s: &mut MSched,
    src: usize,
    dst: usize,
    buf: SendBuf,
    tag: Tag,
    done: Completion,
) {
    let size = buf.wire_size();
    let Some(kind) = payload_kind(w, &buf, src) else {
        return reject_bad_handle(w, s, src, "tag_send_nb", done);
    };
    let protocol = engine::plan_send(w, s, src, kind, size);
    // First touch of the endpoint / the source buffer pays wireup and
    // registration latency (zero when `reg_model` is off or on cache hits).
    let reg_delay = reg_charge_ep(w, s, src, dst)
        + match &buf {
            SendBuf::Mem(r) => reg_charge_buf(w, s, r),
            _ => 0,
        };

    if protocol == Protocol::Eager {
        // Sender-side staging: GDRCopy read for device payloads.
        let local_delay = PROTO_OVERHEAD
            + reg_delay
            + if kind.is_device() {
                s.count(m::EAGER_GDRCOPY_READ);
                gdrcopy_cost(size)
            } else {
                0
            };
        let bytes = match buf {
            SendBuf::Mem(r) => {
                if w.gpu.pool.is_materialized(r.id).unwrap_or(false) {
                    w.gpu.pool.read(r).ok()
                } else {
                    None
                }
            }
            SendBuf::Inline { bytes, .. } => Some(bytes),
            SendBuf::Phantom { .. } => None,
        };
        s.count(m::EAGER);
        send_wire(
            w,
            s,
            src,
            dst,
            size,
            local_delay,
            tag,
            ArrivedBody::Eager {
                bytes,
                wire_size: size,
            },
        );
        // Eager sends complete locally once the payload is staged out.
        let t_done = s.now() + local_delay;
        s.schedule_at(t_done, move |w, s| complete(w, s, src, done));
    } else {
        let payload = match buf {
            SendBuf::Mem(r) => SendPayload::Mem(r),
            SendBuf::Inline { bytes, .. } => SendPayload::Bytes(bytes),
            SendBuf::Phantom { .. } => SendPayload::Phantom,
        };
        let rts_id = w.ucp.next_rts;
        w.ucp.next_rts += 1;
        w.ucp.rts_table.insert(
            rts_id,
            RtsState {
                src_proc: src,
                payload,
                wire_size: size,
                sender_done: done,
            },
        );
        s.count(m::RNDV);
        s.trace_instant(m::TRACE_RNDV_RTS, src as u32, rts_id, size);
        send_wire(
            w,
            s,
            src,
            dst,
            RTS_SIZE,
            PROTO_OVERHEAD + reg_delay,
            tag,
            ArrivedBody::Rts { rts_id, size },
        );
    }
}

/// Arrival of a tagged wire message at `dst`'s worker: match a posted
/// receive or park in the unexpected queue.
pub(crate) fn deliver(w: &mut Machine, s: &mut MSched, dst: usize, msg: ArrivedMsg) {
    let worker = w.ucp.worker_mut(dst);
    if let Some(exp) = worker
        .find_expected(msg.tag)
        .and_then(|i| worker.expected.remove(i))
    {
        process_match(w, s, dst, exp, msg);
    } else {
        worker.unexpected.push_back(msg);
        let n = worker.notify;
        s.count(m::UNEXPECTED);
        s.notify(n);
    }
}

/// A receive met its message: run the data path.
fn process_match(
    w: &mut Machine,
    s: &mut MSched,
    dst_proc: usize,
    exp: ExpectedRecv,
    msg: ArrivedMsg,
) {
    match msg.body {
        ArrivedBody::Eager { bytes, wire_size } => {
            let Ok(dst_kind) = w.gpu.pool.kind(exp.buf.id) else {
                // The receive was posted against a handle the pool no
                // longer knows (freed while the message was in flight).
                return reject_bad_recv(w, s, dst_proc, "eager recv", msg.src, msg.tag, exp.done);
            };
            let delay = if let MemKind::Device(dev) = dst_kind {
                if gpu_direct_ok(w, s, dev, dst_proc, wire_size) {
                    s.count(m::EAGER_GDRCOPY_WRITE);
                    gdrcopy_cost(wire_size)
                } else {
                    // GDRCopy window gone on the receiver: land in pinned
                    // host memory, then one staged CPU-GPU leg.
                    s.count(rucx_gpu::metrics::PATH_HOST_STAGED);
                    eager_copy_cost(wire_size)
                        + rucx_gpu::device::wire_time(CopyPath::HostPinnedLink, wire_size)
                }
            } else {
                eager_copy_cost(wire_size)
            };
            // Receive-side buffer registration (zero unless `reg_model`).
            let delay = delay + reg_charge_buf(w, s, &exp.buf);
            // The message is larger than the posted buffer: deliver the
            // prefix (the wire already carried the full payload) but flag
            // the truncation so the request surfaces an error status
            // instead of silently succeeding.
            let truncated = wire_size > exp.buf.len;
            if truncated {
                s.count(m::TRUNCATED);
            }
            let info = RecvInfo {
                src: msg.src,
                tag: msg.tag,
                size: wire_size,
                truncated,
            };
            s.trace_span_in(m::EAGER.name, delay, dst_proc as u32, 0, wire_size);
            let buf = exp.buf;
            let done = exp.done;
            s.schedule_in(delay, move |w, s| {
                if let Some(b) = &bytes {
                    let n = (buf.len as usize).min(b.len());
                    if w.gpu.pool.write(buf.slice(0, n as u64), &b[..n]).is_err() {
                        // Buffer freed between match and copy-out.
                        return reject_bad_recv(
                            w,
                            s,
                            dst_proc,
                            "eager copy-out",
                            info.src,
                            info.tag,
                            done,
                        );
                    }
                }
                complete_recv(w, s, dst_proc, done, bytes, info);
            });
        }
        ArrivedBody::Rts { rts_id, .. } => {
            // A missing RTS entry (e.g. the reliability layer already gave
            // up on it) is surfaced by rndv_fetch as a completed-with-error
            // receive plus a worker error record; nothing further to do.
            let _ = rndv_fetch(
                w,
                s,
                dst_proc,
                msg.tag,
                rts_id,
                FetchDst::Mem(exp.buf),
                exp.done,
            );
        }
    }
}

/// `ucp_tag_recv_nb`: post a receive into `buf`.
pub fn tag_recv_nb(
    w: &mut Machine,
    s: &mut MSched,
    proc: usize,
    buf: MemRef,
    tag: Tag,
    mask: TagMask,
    done: RecvCompletion,
) {
    let worker = w.ucp.worker_mut(proc);
    if let Some(msg) = worker
        .find_unexpected(tag, mask)
        .and_then(|i| worker.unexpected.remove(i))
    {
        let exp = ExpectedRecv {
            tag,
            mask,
            buf,
            done,
        };
        process_match(w, s, proc, exp, msg);
    } else {
        worker.expected.push_back(ExpectedRecv {
            tag,
            mask,
            buf,
            done,
        });
    }
}

/// Probe-and-remove the first unexpected message matching `(tag, mask)` —
/// how the Converse machine layer ingests host-side messages without
/// pre-posted buffers.
pub fn probe_pop(w: &mut Machine, proc: usize, tag: Tag, mask: TagMask) -> Option<PoppedMsg> {
    let worker = w.ucp.worker_mut(proc);
    let i = worker.find_unexpected(tag, mask)?;
    let msg = worker.unexpected.remove(i)?;
    Some(match msg.body {
        ArrivedBody::Eager { bytes, wire_size } => PoppedMsg::Eager {
            src: msg.src,
            tag: msg.tag,
            bytes,
            wire_size,
        },
        ArrivedBody::Rts { rts_id, size } => PoppedMsg::Rndv {
            src: msg.src,
            tag: msg.tag,
            rts_id,
            size,
        },
    })
}

/// Deliver locally-produced bytes to a worker as if an eager message with
/// `tag` had just arrived. Used by runtime layers that complete a
/// rendezvous fetch asynchronously and re-inject the result so their
/// scheduler keeps processing other messages meanwhile.
pub fn inject_local(
    w: &mut Machine,
    s: &mut MSched,
    proc: usize,
    src: usize,
    tag: Tag,
    bytes: Option<Vec<u8>>,
    wire_size: u64,
) {
    deliver(
        w,
        s,
        proc,
        ArrivedMsg {
            tag,
            src,
            body: ArrivedBody::Eager { bytes, wire_size },
        },
    );
}

/// Fetch the data of a rendezvous into `dst`: one surfaced by
/// [`probe_pop`], or one that matched a posted receive. The rendezvous data
/// path; runs on the receiver (`recv_proc`).
///
/// An unknown `rts_id` (fetched twice, never announced, or already retired
/// by the reliability layer giving up on its RTS) returns a typed error.
/// `done` still completes — immediately, with a zero-size [`RecvInfo`] —
/// so no waiter hangs, and the error is also queued at `recv_proc`'s
/// worker.
pub fn rndv_fetch(
    w: &mut Machine,
    s: &mut MSched,
    recv_proc: usize,
    tag: Tag,
    rts_id: u64,
    dst: FetchDst,
    done: RecvCompletion,
) -> Result<(), UcpError> {
    let Some(rts) = w.ucp.rts_table.remove(&rts_id) else {
        // Fail the receive visibly instead of panicking or hanging.
        let err = UcpError::UnknownRendezvous { rts_id };
        crate::reliable::push_error(w, s, recv_proc, err.clone());
        fail_fetch(w, s, recv_proc, recv_proc, tag, done);
        return Err(err);
    };
    let src_proc = rts.src_proc;
    let size = rts.wire_size;
    let intra = w.topo.same_node(src_proc, recv_proc);
    let src_kind = match &rts.payload {
        SendPayload::Mem(r) => match w.gpu.pool.kind(r.id) {
            Ok(k) => k,
            Err(_) => {
                // The sender freed its source buffer while the rendezvous
                // was in flight: the data can never be fetched, so fail
                // both sides with a typed error. The sender's request
                // completes too, since nothing else ever will.
                let err = UcpError::InvalidHandle {
                    op: "rndv src",
                    proc: src_proc,
                };
                s.count(m::BAD_HANDLE);
                crate::reliable::push_error(w, s, recv_proc, err.clone());
                crate::reliable::push_error(w, s, src_proc, err.clone());
                fail_fetch(w, s, recv_proc, src_proc, tag, done);
                complete(w, s, src_proc, rts.sender_done);
                return Err(err);
            }
        },
        _ => MemKind::HostPinned {
            node: w.topo.node_of(src_proc),
        },
    };
    let dst_kind = match &dst {
        FetchDst::Mem(r) => match w.gpu.pool.kind(r.id) {
            Ok(k) => k,
            Err(_) => {
                // The receiver's destination handle is stale: fail the
                // receive with a typed error, and still ack the sender so
                // its request completes (the RTS was consumed here).
                let err = UcpError::InvalidHandle {
                    op: "rndv dst",
                    proc: recv_proc,
                };
                s.count(m::BAD_HANDLE);
                crate::reliable::push_error(w, s, recv_proc, err.clone());
                fail_fetch(w, s, recv_proc, src_proc, tag, done);
                ack_sender(w, s, recv_proc, src_proc, rts_id, rts.sender_done);
                return Err(err);
            }
        },
        FetchDst::Bytes => MemKind::HostPinned {
            node: w.topo.node_of(recv_proc),
        },
    };
    let truncated = match &dst {
        FetchDst::Mem(r) => size > r.len,
        FetchDst::Bytes => false,
    };
    if truncated {
        s.count(m::TRUNCATED);
    }
    let info = RecvInfo {
        src: src_proc,
        tag,
        size,
        truncated,
    };
    s.trace_instant(m::TRACE_RNDV_CTS, recv_proc as u32, rts_id, size);
    // Receive-side buffer registration: the fetch cannot start until the
    // destination is mapped. Zero (and the legacy direct dispatch, with no
    // extra event) unless `reg_model` charged a miss.
    let reg_delay = match &dst {
        FetchDst::Mem(r) => reg_charge_buf(w, s, r),
        FetchDst::Bytes => 0,
    };
    let sender_done = rts.sender_done;
    let payload = rts.payload;

    // After the data is in place: deliver bytes / run receive completion,
    // then ack the sender (ATS) so its request completes. Under a loaded
    // fault spec the inter-node ATS is itself a tracked envelope.
    let finalize = move |w: &mut Machine, s: &mut MSched| {
        let bytes = match finalize_data(w, &payload, &dst) {
            Ok(b) => b,
            Err(_) => {
                // A buffer was freed while the fetch was in flight:
                // surface a typed error; the receive still completes
                // (with no bytes) and the sender is still acked below.
                s.count(m::BAD_HANDLE);
                crate::reliable::push_error(
                    w,
                    s,
                    recv_proc,
                    UcpError::InvalidHandle {
                        op: "rndv finalize",
                        proc: recv_proc,
                    },
                );
                None
            }
        };
        complete_recv(w, s, recv_proc, done, bytes, info);
        ack_sender(w, s, recv_proc, src_proc, rts_id, sender_done);
    };

    if reg_delay > 0 {
        s.schedule_in(reg_delay, move |w, s| {
            if intra {
                engine::fetch_intra(
                    w, s, src_kind, dst_kind, size, recv_proc, src_proc, finalize,
                );
            } else {
                engine::fetch_inter(
                    w, s, src_kind, dst_kind, size, recv_proc, src_proc, finalize,
                );
            }
        });
    } else if intra {
        engine::fetch_intra(
            w, s, src_kind, dst_kind, size, recv_proc, src_proc, finalize,
        );
    } else {
        engine::fetch_inter(
            w, s, src_kind, dst_kind, size, recv_proc, src_proc, finalize,
        );
    }
    Ok(())
}

/// Move the actual bytes once the timing chain has completed, and return
/// bytes for `FetchDst::Bytes` completions. A stale handle (either side
/// freed mid-fetch) surfaces as an error for the caller to report.
fn finalize_data(
    w: &mut Machine,
    payload: &SendPayload,
    dst: &FetchDst,
) -> Result<Option<Vec<u8>>, rucx_gpu::MemError> {
    match (payload, dst) {
        (SendPayload::Mem(src), FetchDst::Mem(d)) => {
            let n = src.len.min(d.len);
            w.gpu.pool.copy(src.slice(0, n), d.slice(0, n))?;
            Ok(None)
        }
        (SendPayload::Mem(src), FetchDst::Bytes) => {
            if w.gpu.pool.is_materialized(src.id).unwrap_or(false) {
                Ok(Some(w.gpu.pool.read(*src)?))
            } else {
                Ok(None)
            }
        }
        (SendPayload::Bytes(b), FetchDst::Mem(d)) => {
            let n = (d.len as usize).min(b.len());
            w.gpu.pool.write(d.slice(0, n as u64), &b[..n])?;
            Ok(None)
        }
        (SendPayload::Bytes(b), FetchDst::Bytes) => Ok(Some(b.clone())),
        (SendPayload::Phantom, _) => Ok(None),
    }
}
