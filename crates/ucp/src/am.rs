//! UCP Active Messages with GPU payload support.
//!
//! The paper's §VI names "GPU support in the active messages API of UCX,
//! which could better fit the message-driven execution model of Charm++" as
//! a potential improvement: instead of a host-side metadata message plus a
//! separately tagged GPU message (two sends, two matches), one active
//! message carries the envelope as its *header* and announces the GPU
//! payload in the same packet — the receiver's handler runs on arrival and
//! can start the payload fetch immediately.
//!
//! This module implements that API over the same eager/rendezvous
//! machinery as the tagged path: small payloads ride inline (GDRCopy for
//! device memory), large ones are announced and fetched with
//! [`crate::rndv_fetch`].

use rucx_compat::idmap::IdMap;

use rucx_gpu::MemKind;

use crate::machine::{Machine, RtsState, SendPayload};
use crate::metrics as m;
use crate::proto::{deliver_am_wire, SendBuf};
use crate::worker::{Completion, MSched};

/// Active-message handler id.
pub type AmId = u16;

/// The payload part of a received active message.
pub enum AmPayload {
    /// No payload (header-only message).
    None,
    /// Complete eager payload (bytes present when materialized).
    Eager { bytes: Option<Vec<u8>>, size: u64 },
    /// Rendezvous descriptor: the data is still at the sender; fetch it
    /// with [`crate::rndv_fetch`] (pass the `rts_id`).
    Rndv { rts_id: u64, size: u64 },
}

/// A received active message, handed to the registered handler.
pub struct AmMsg {
    pub src: usize,
    pub header: Vec<u8>,
    pub payload: AmPayload,
}

/// Handler invoked under the execution core when an active message arrives.
pub type AmHandler = Box<dyn Fn(&mut Machine, &mut MSched, AmMsg) + Send>;

/// Per-worker active-message state.
#[derive(Default)]
pub struct AmState {
    handlers: IdMap<AmId, AmHandler>,
    /// Arrivals for ids with no handler yet (registration races at t=0).
    pending: IdMap<AmId, Vec<AmMsg>>,
}

impl AmState {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Register the handler for `id` on process `proc`'s worker; any arrivals
/// that raced ahead of registration are delivered immediately.
pub fn am_register(w: &mut Machine, s: &mut MSched, proc: usize, id: AmId, handler: AmHandler) {
    let st = &mut w.ucp.worker_mut(proc).am;
    let backlog = st.pending.remove(&id).unwrap_or_default();
    st.handlers.insert(id, handler);
    for msg in backlog {
        dispatch_am(w, s, proc, id, msg);
    }
}

/// Deliver an arrived active message to its handler (or park it until the
/// handler is registered).
pub(crate) fn dispatch_am(w: &mut Machine, s: &mut MSched, proc: usize, id: AmId, msg: AmMsg) {
    // Take the handler out during the call so it can re-enter the UCP layer.
    let handler = w.ucp.worker_mut(proc).am.handlers.remove(&id);
    match handler {
        Some(h) => {
            h(w, s, msg);
            w.ucp.worker_mut(proc).am.handlers.insert(id, h);
            let n = w.ucp.worker(proc).notify;
            s.notify(n);
        }
        None => {
            w.ucp
                .worker_mut(proc)
                .am
                .pending
                .entry(id)
                .or_default()
                .push(msg);
        }
    }
}

/// `ucp_am_send_nb`: send an active message with `header` and an optional
/// (possibly GPU-resident) payload. Handler id `id` is invoked on the
/// destination when the message arrives; payload protocol selection (eager
/// vs rendezvous, GDRCopy vs IPC/pipeline) matches the tagged path.
#[allow(clippy::too_many_arguments)]
pub fn am_send_nb(
    w: &mut Machine,
    s: &mut MSched,
    src: usize,
    dst: usize,
    id: AmId,
    header: Vec<u8>,
    payload: Option<SendBuf>,
    done: Completion,
) {
    let proto = w.ucp.config.proto_overhead;
    match payload {
        None => {
            let wire = header.len() as u64 + 16;
            w.ucp.counters.bump(m::AM_HEADER_ONLY);
            deliver_am_wire(w, s, src, dst, id, header, AmWire::None, wire, proto, done);
        }
        Some(buf) => {
            let size = buf.wire_size();
            let kind = match &buf {
                SendBuf::Mem(r) => match w.gpu.pool.kind(r.id) {
                    Ok(k) => k,
                    // Freed-before-send is a caller error, not a crash:
                    // surface it typed, same as the tagged path.
                    Err(_) => {
                        return crate::proto::reject_bad_handle(w, s, src, "am_send_nb", done)
                    }
                },
                _ => MemKind::HostPinned {
                    node: w.topo.node_of(src),
                },
            };
            let eager = if kind.is_device() {
                w.ucp.config.gdrcopy_enabled && size <= w.ucp.config.eager_thresh_device
            } else {
                size <= w.ucp.config.eager_thresh_host
            };
            if eager {
                let local_delay = proto
                    + if kind.is_device() {
                        w.ucp.config.gdrcopy_cost(size)
                    } else {
                        0
                    };
                let bytes = match &buf {
                    SendBuf::Mem(r) => w
                        .gpu
                        .pool
                        .is_materialized(r.id)
                        .unwrap_or(false)
                        .then(|| w.gpu.pool.read(*r).ok())
                        .flatten(),
                    SendBuf::Inline { bytes, .. } => Some(bytes.clone()),
                    SendBuf::Phantom { .. } => None,
                };
                let wire = header.len() as u64 + size + 16;
                w.ucp.counters.bump(m::AM_EAGER);
                deliver_am_wire(
                    w,
                    s,
                    src,
                    dst,
                    id,
                    header,
                    AmWire::Eager { bytes, size },
                    wire,
                    local_delay,
                    done,
                );
            } else {
                // Rendezvous: the header travels now; the payload is
                // announced and fetched by the handler.
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
                let wire = header.len() as u64 + w.ucp.config.rts_size;
                w.ucp.counters.bump(m::AM_RNDV);
                deliver_am_wire(
                    w,
                    s,
                    src,
                    dst,
                    id,
                    header,
                    AmWire::Rndv { rts_id, size },
                    wire,
                    proto,
                    Completion::None,
                );
            }
        }
    }
}

/// Wire form of the AM payload descriptor.
pub(crate) enum AmWire {
    None,
    Eager { bytes: Option<Vec<u8>>, size: u64 },
    Rndv { rts_id: u64, size: u64 },
}

impl AmWire {
    pub(crate) fn into_payload(self) -> AmPayload {
        match self {
            AmWire::None => AmPayload::None,
            AmWire::Eager { bytes, size } => AmPayload::Eager { bytes, size },
            AmWire::Rndv { rts_id, size } => AmPayload::Rndv { rts_id, size },
        }
    }
}
