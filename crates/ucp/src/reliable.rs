//! The UCP reliability protocol: per-endpoint tracking of inter-node
//! envelopes with virtual-time timeouts, bounded retransmission with
//! exponential backoff and seeded jitter, and duplicate suppression via
//! per-(src, dst) sequence numbers.
//!
//! Scope. Only *envelopes* — eager payloads, rendezvous RTS announcements,
//! and rendezvous ATS acks — are tracked, and only between nodes, and only
//! when a [`rucx_fault::FaultSpec`] is loaded: on clean runs the send path
//! pays exactly one `enabled()` branch and the timing is byte-identical to
//! the unprotected stack. Intra-node shared memory is a reliable medium, and
//! the rendezvous bulk-data paths (RDMA get, pipelined staging) ride the
//! transport-level reliability real IB HCAs provide, so neither is subject
//! to the envelope lottery (bandwidth degradation from the fault spec still
//! applies to them in the fabric).
//!
//! Protocol. Each tracked envelope gets a per-(src, dst) sequence number
//! and a machine-global id. Transmission runs the fault lottery
//! ([`rucx_fault::FaultState::wire_fault`]) and arms a retransmission timer
//! for `rto(attempt)`; arrival always (re-)acks — acks themselves travel
//! unreliably — then delivers exactly once, suppressing duplicates by
//! sequence number. A timer firing with the envelope still unacked
//! retransmits with backoff; after [`crate::UcpConfig::max_retries`]
//! retransmissions the sender gives up: the envelope's operation is
//! completed (never left hanging) and a typed
//! [`UcpError::EndpointTimeout`] is queued at the owning worker.
//!
//! Determinism. All timers live in virtual time; jitter comes from a
//! dedicated [`Rng`] stream derived from the fault-spec seed, so a chaos
//! run replays byte-identically.

use rucx_compat::idmap::IdMap;
use rucx_compat::rng::Rng;
use rucx_fabric::{net_transfer, wire_time, WireKind};
use rucx_fault::{metrics as fm, WireFault};
use rucx_sim::time::{Duration, Time};

use crate::config::{ACK_SIZE, ATS_SIZE, RTO_BACKOFF, RTO_BASE, RTO_JITTER, RTO_MAX, RTO_MIN};
use crate::engine::ports;
use crate::error::UcpError;
use crate::machine::Machine;
use crate::metrics as m;
use crate::order::{Arrival, RecvWindow, SendSeq};
use crate::proto::{complete, deliver};
use crate::tag::Tag;
use crate::worker::{ArrivedBody, ArrivedMsg, Completion, MSched};

/// What a tracked envelope carries.
#[derive(Clone)]
pub(crate) enum TrackedBody {
    /// Tag-matched traffic: an eager payload or a rendezvous RTS.
    Tagged(ArrivedBody),
    /// Rendezvous ATS: completes the (remote) rendezvous sender whose
    /// completion is parked in [`ReliableState::ats_table`].
    Ats { rts_id: u64 },
}

/// Sender-side state of one tracked envelope.
pub(crate) struct PendingSend {
    pub src: usize,
    pub dst: usize,
    pub tag: Tag,
    pub wire_size: u64,
    pub seq: u64,
    /// Transmissions so far (1 = original only).
    pub attempts: u32,
    /// When the envelope's very first transmission hit the wire; it
    /// survives a health-layer park/release cycle, so the `elapsed` stamped
    /// on a give-up error measures the whole ordeal.
    pub first_sent: Time,
    /// Times the health layer has parked this envelope on a Dead endpoint
    /// (bounded by [`crate::config::HEAL_RETRIES`]).
    pub parks: u32,
    pub body: TrackedBody,
}

/// Machine-wide reliability state. Every map is keyed, never iterated, so
/// `HashMap` ordering cannot leak into the schedule.
pub(crate) struct ReliableState {
    /// Backoff-jitter stream, derived from the fault-spec seed but salted so
    /// it does not correlate with the injection lottery.
    rng: Rng,
    next_id: u64,
    /// Per directed (src, dst) pair: UCX endpoints are non-overtaking, so
    /// an envelope the fabric reordered (a delay fault overtaken by a later
    /// send, a retransmission) waits for the gap below it, and a duplicate
    /// is suppressed by its sequence number.
    send_seq: SendSeq<(u32, u32)>,
    pub(crate) recv: RecvWindow<(u32, u32), (Tag, TrackedBody)>,
    pub(crate) inflight: IdMap<u64, PendingSend>,
    /// Rendezvous-sender completions parked until the tracked ATS arrives.
    pub(crate) ats_table: IdMap<u64, Completion>,
}

impl ReliableState {
    pub(crate) fn new(seed: u64) -> Self {
        ReliableState {
            rng: Rng::new(seed ^ 0x9E37_79B9_7F4A_7C15),
            next_id: 1,
            send_seq: SendSeq::default(),
            recv: RecvWindow::default(),
            inflight: IdMap::default(),
            ats_table: IdMap::default(),
        }
    }
}

/// Queue an asynchronous error at `proc`'s worker and wake it.
pub(crate) fn push_error(w: &mut Machine, s: &mut MSched, proc: usize, err: UcpError) {
    let worker = w.ucp.worker_mut(proc);
    worker.errors.push_back(err);
    let n = worker.notify;
    s.notify(n);
}

/// Entry point from `send_wire` for inter-node tagged envelopes under a
/// loaded fault spec. `local_delay` models sender-side staging, after which
/// the first transmission (and its timer) starts.
pub(crate) fn send_tracked(
    w: &mut Machine,
    s: &mut MSched,
    src: usize,
    dst: usize,
    wire_size: u64,
    local_delay: Duration,
    tag: Tag,
    body: ArrivedBody,
) {
    enqueue(
        w,
        s,
        src,
        dst,
        wire_size,
        local_delay,
        tag,
        TrackedBody::Tagged(body),
    );
}

/// Entry point from the rendezvous finalizer: park the remote sender's
/// completion and send the ATS as a tracked envelope.
pub(crate) fn send_tracked_ats(
    w: &mut Machine,
    s: &mut MSched,
    src: usize,
    dst: usize,
    rts_id: u64,
    sender_done: Completion,
) {
    let size = ACK_SIZE.max(ATS_SIZE);
    w.ucp.reliable.ats_table.insert(rts_id, sender_done);
    enqueue(w, s, src, dst, size, 0, 0, TrackedBody::Ats { rts_id });
}

#[allow(clippy::too_many_arguments)]
fn enqueue(
    w: &mut Machine,
    s: &mut MSched,
    src: usize,
    dst: usize,
    wire_size: u64,
    local_delay: Duration,
    tag: Tag,
    body: TrackedBody,
) {
    let r = &mut w.ucp.reliable;
    let id = r.next_id;
    r.next_id += 1;
    let seq = r.send_seq.next((src as u32, dst as u32));
    r.inflight.insert(
        id,
        PendingSend {
            src,
            dst,
            tag,
            wire_size,
            seq,
            attempts: 1,
            first_sent: 0,
            parks: 0,
            body,
        },
    );
    if local_delay == 0 {
        transmit(w, s, id);
    } else {
        s.schedule_in(local_delay, move |w, s| transmit(w, s, id));
    }
}

/// One transmission attempt: arm the retransmission timer for this attempt,
/// then put the envelope on the lossy wire.
pub(crate) fn transmit(w: &mut Machine, s: &mut MSched, id: u64) {
    let now = s.now();
    let Some(p) = w.ucp.reliable.inflight.get_mut(&id) else {
        return; // acked between scheduling and execution
    };
    if p.first_sent == 0 {
        p.first_sent = now;
    }
    let (src, dst, seq, tag, wire_size, attempt) =
        (p.src, p.dst, p.seq, p.tag, p.wire_size, p.attempts);
    let body = p.body.clone();
    let rto = rto_for(w, wire_size, attempt);
    s.schedule_in(rto, move |w, s| on_timeout(w, s, id, attempt));
    lossy_transfer(w, s, src, dst, wire_size, id, move |w, s| {
        arrive(w, s, id, src, dst, seq, tag, body)
    });
}

/// Put one `size`-byte envelope on the inter-node wire from process `from`
/// to process `to` through the fault lottery
/// ([`rucx_fault::FaultState::wire_fault`]): `arrive` runs once per copy
/// that reaches `to` intact — never for a drop or a corruption, twice for
/// a duplicate. A lost envelope still occupies the TX port. Every fault is
/// observable: a `fault.*` counter plus a trace instant carrying `id`
/// (0 for unsequenced probes), stamped at `from` except corruption, which
/// only the receiver's checksum sees.
pub(crate) fn lossy_transfer(
    w: &mut Machine,
    s: &mut MSched,
    from: usize,
    to: usize,
    size: u64,
    id: u64,
    arrive: impl FnOnce(&mut Machine, &mut MSched) + Clone + Send + 'static,
) {
    let (src_port, dst_port) = ports(w, from, to);
    match w.faults.wire_fault(src_port.0, dst_port.0, s.now()) {
        WireFault::None => {
            net_transfer(w, s, src_port, dst_port, size, WireKind::Host, arrive);
        }
        WireFault::Drop => {
            s.mark(fm::DROP, from as u32, id, size);
            net_transfer(w, s, src_port, dst_port, size, WireKind::Host, |_, _| {});
        }
        WireFault::Corrupt => {
            net_transfer(
                w,
                s,
                src_port,
                dst_port,
                size,
                WireKind::Host,
                move |_, s| s.mark(fm::CORRUPT, to as u32, id, size),
            );
        }
        WireFault::Duplicate => {
            s.mark(fm::DUPLICATE, from as u32, id, size);
            let twin = arrive.clone();
            net_transfer(w, s, src_port, dst_port, size, WireKind::Host, arrive);
            net_transfer(w, s, src_port, dst_port, size, WireKind::Host, twin);
        }
        WireFault::Delay(d) => {
            s.mark(fm::DELAY, from as u32, id, d);
            s.schedule_in(d, move |w, s| {
                net_transfer(w, s, src_port, dst_port, size, WireKind::Host, arrive);
            });
        }
    }
}

/// Retransmission timeout for transmission number `attempt` (1-based):
/// `(RTO_BASE + 2·wire-RTT-estimate) · RTO_BACKOFF^(attempt-1) · (1 + jitter)`,
/// clamped to `[RTO_MIN, RTO_MAX]`.
fn rto_for(w: &mut Machine, wire_size: u64, attempt: u32) -> Duration {
    let rtt_est = wire_time(wire_size, WireKind::Host) + wire_time(ACK_SIZE, WireKind::Host);
    let base = (RTO_BASE + 2 * rtt_est) as f64;
    let scaled = base * RTO_BACKOFF.powi(attempt.saturating_sub(1) as i32);
    let jittered = scaled * (1.0 + RTO_JITTER * w.ucp.reliable.rng.gen_f64());
    (jittered as Duration).clamp(RTO_MIN, RTO_MAX)
}

/// A tracked envelope reached `dst`: always (re-)ack — the sender may be
/// retransmitting because a previous ack was lost — then deliver exactly
/// once per sequence number and in sequence order (non-overtaking, as on
/// a real UCX endpoint). An envelope ahead of a gap waits in the window;
/// if the gap's envelope ultimately gives up at the sender, its
/// successors stay undelivered and the wedge is attributed to the typed
/// give-up error, never to silent reordering.
fn arrive(
    w: &mut Machine,
    s: &mut MSched,
    id: u64,
    src: usize,
    dst: usize,
    seq: u64,
    tag: Tag,
    body: TrackedBody,
) {
    send_ack(w, s, dst, src, id);
    let key = (src as u32, dst as u32);
    let first = match w.ucp.reliable.recv.arrive(key, seq, (tag, body)) {
        Arrival::Deliver(e) => e,
        Arrival::Duplicate => {
            s.count(m::DUP_DROP);
            return;
        }
        Arrival::Held => {
            s.count(m::REORDER_HELD);
            return;
        }
    };
    let mut next = Some(first);
    while let Some((tag, body)) = next {
        match body {
            TrackedBody::Tagged(b) => deliver(w, s, dst, ArrivedMsg { tag, src, body: b }),
            TrackedBody::Ats { rts_id } => {
                if let Some(done) = w.ucp.reliable.ats_table.remove(&rts_id) {
                    complete(w, s, dst, done);
                }
            }
        }
        next = w.ucp.reliable.recv.release(&key);
    }
}

/// Ack envelope `id` back to its sender. Acks are unreliable and idempotent:
/// they are subject to the same fault lottery, and a lost ack is recovered
/// by the data retransmission triggering a fresh one.
fn send_ack(w: &mut Machine, s: &mut MSched, from: usize, to: usize, id: u64) {
    lossy_transfer(w, s, from, to, ACK_SIZE, id, move |w, s| {
        if let Some(p) = w.ucp.reliable.inflight.remove(&id) {
            s.count(m::ACKED);
            crate::health::note_alive(w, s, p.src, p.dst);
        }
    });
}

/// The retransmission timer for transmission `attempt` of envelope `id`
/// fired.
fn on_timeout(w: &mut Machine, s: &mut MSched, id: u64, attempt: u32) {
    let max_retries = w.ucp.config.max_retries;
    let Some(p) = w.ucp.reliable.inflight.get_mut(&id) else {
        return; // acked; stale timer
    };
    if p.attempts != attempt {
        // Defensive: exactly one timer is live per envelope (each attempt
        // arms one, and only its firing starts the next attempt), so a
        // mismatch means this timer's attempt was already superseded.
        return;
    }
    let src = p.src as u32;
    let (psrc, pdst) = (p.src, p.dst);
    s.mark(m::TIMEOUT, src, id, attempt as u64);
    if p.attempts > max_retries {
        // Budget exhausted: the health layer may park the envelope on the
        // now-Dead endpoint and probe for a heal instead of abandoning it.
        if !crate::health::try_park(w, s, id) {
            give_up(w, s, id);
        }
        return;
    }
    p.attempts += 1;
    let n = p.attempts;
    s.mark(m::RETRY, src, id, n as u64);
    crate::health::note_timeout(w, s, psrc, pdst);
    transmit(w, s, id);
}

/// Retransmission budget exhausted: declare the endpoint unreachable for
/// this envelope, complete whatever operation it carried (no request is
/// ever left hanging at the *sender*), and queue a typed error.
pub(crate) fn give_up(w: &mut Machine, s: &mut MSched, id: u64) {
    let Some(p) = w.ucp.reliable.inflight.remove(&id) else {
        return;
    };
    s.mark(m::UNREACHABLE, p.src as u32, id, p.attempts as u64);
    s.count(m::GIVEUP);
    let err = UcpError::EndpointTimeout {
        src: p.src,
        dst: p.dst,
        tag: p.tag,
        attempts: p.attempts,
        elapsed: s.now().saturating_sub(p.first_sent),
    };
    match &p.body {
        TrackedBody::Tagged(ArrivedBody::Rts { rts_id, .. }) => {
            // The announcement never made it: retire the rendezvous so the
            // payload entry cannot leak, and release the sender's request.
            if let Some(rts) = w.ucp.rts_table.remove(rts_id) {
                complete(w, s, p.src, rts.sender_done);
            }
        }
        TrackedBody::Ats { rts_id } => {
            // The data was delivered but the ack cannot get back: release
            // the remote sender's request directly (in a real network it
            // would run its own timeout; the simulation shortcuts that
            // deterministically) and surface the error at the originator.
            if let Some(done) = w.ucp.reliable.ats_table.remove(rts_id) {
                complete(w, s, p.dst, done);
            }
        }
        TrackedBody::Tagged(ArrivedBody::Eager { .. }) => {
            // Eager sends complete locally at staging time (buffered
            // semantics); only the error record remains to surface.
        }
    }
    push_error(w, s, p.src, err);
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use rucx_compat::sync::Mutex;
    use rucx_fabric::Topology;
    use rucx_fault::FaultSpec;
    use rucx_sim::time::us;

    use super::*;
    use crate::machine::{build_sim, MSim, MachineConfig};

    const FAULT_COUNTERS: [&str; 4] = [
        "fault.drop",
        "fault.duplicate",
        "fault.corrupt",
        "fault.delay",
    ];

    /// One `lossy_transfer` 0 → 6 (inter-node) under `spec`: the times
    /// `arrive` ran at, and the simulation for its counters.
    fn one_transfer(spec: &str) -> (Vec<Time>, MSim) {
        let cfg = MachineConfig {
            fault: Some(FaultSpec::parse(spec).expect("spec")),
            ..MachineConfig::default()
        };
        let mut sim = build_sim(Topology::summit(2), cfg);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        sim.with_parts(move |w, s| {
            lossy_transfer(w, s, 0, 6, ACK_SIZE, 7, move |_, s| {
                seen2.lock().push(s.now())
            });
        });
        crate::finish(&mut sim).unwrap();
        let seen = seen.lock().clone();
        (seen, sim)
    }

    #[test]
    fn lossy_transfer_delivers_what_the_lottery_lets_through() {
        let mut clean_at = 0;
        for (spec, copies, counter) in [
            ("seed=1,drop=0", 1, "none"),
            ("seed=1,drop=1", 0, "fault.drop"),
            ("seed=1,dup=1", 2, "fault.duplicate"),
            ("seed=1,corrupt=1", 0, "fault.corrupt"),
            ("seed=1,delay=1:20", 1, "fault.delay"),
        ] {
            let (seen, sim) = one_transfer(spec);
            assert_eq!(seen.len(), copies, "{spec}");
            for name in FAULT_COUNTERS {
                let want = u64::from(name == counter);
                assert_eq!(sim.metrics().get(name), want, "{spec}: {name}");
            }
            match counter {
                "none" => clean_at = seen[0],
                "fault.delay" => {
                    // The extra delay is drawn from the upper half of the bound.
                    let extra = seen[0] - clean_at;
                    assert!(extra >= us(10.0) && extra <= us(20.0), "extra={extra}");
                }
                _ => {}
            }
        }
    }
}
