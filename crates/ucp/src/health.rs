//! Endpoint health state machine: Healthy → Suspect → Dead → Healed.
//!
//! The reliability layer ([`crate::reliable`]) can only retransmit-then-
//! give-up; this module adds the recovery layer above it. Per directed
//! (src, dst) pair the sender tracks an [`EpState`] driven by ack timing:
//! [`SUSPECT_AFTER`] consecutive retransmission timeouts mark the endpoint
//! *Suspect*; an envelope exhausting its whole retransmission budget marks
//! it *Dead* — but instead of abandoning the envelope immediately, the
//! health layer *parks* it (up to [`HEAL_RETRIES`] times per envelope) and
//! starts a deterministic keepalive probe loop at
//! [`KEEPALIVE_INTERVAL`]. Probes are unsequenced control envelopes (like
//! acks): they consume no sequence number, travel through the same fault
//! lottery, and an answered probe — or any data ack — heals the endpoint,
//! releasing every parked envelope in park order (= sequence order, so the
//! receiver's delivery window sees no reordering) with a fresh attempt
//! budget. If [`PROBE_BUDGET`] consecutive probe ticks go unanswered, every
//! parked envelope is flushed through the hard give-up path: the operation
//! completes, `ucp.unreachable`/`ucp.giveup` count it, and a typed
//! [`crate::UcpError::EndpointTimeout`] carrying the original attempt count
//! and end-to-end elapsed time surfaces at the owning worker. Termination
//! is therefore bounded: each envelope survives at most `HEAL_RETRIES` park
//! cycles, and each Dead activation at most `PROBE_BUDGET` ticks.
//!
//! Exactly-once in-order across partition-heal falls out of parking: a
//! parked envelope keeps its sequence number, the receiver's per-(src,dst)
//! delivery window ([`crate::order::RecvWindow`]) keeps suppressing
//! duplicates and holding ahead-of-gap arrivals, so no resynchronization
//! handshake is needed when the link returns.
//!
//! Everything here runs only under a loaded fault spec (the only way a
//! retransmission timer exists); clean runs pay nothing.

use rucx_compat::idmap::IdMap;

use crate::config::{ACK_SIZE, HEAL_RETRIES, KEEPALIVE_INTERVAL, PROBE_BUDGET, SUSPECT_AFTER};
use crate::machine::Machine;
use crate::metrics as m;
use crate::reliable::{self, lossy_transfer};
use crate::worker::MSched;

/// Health of one directed (src, dst) endpoint, as seen by the sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpState {
    /// Acks arriving normally.
    Healthy,
    /// [`SUSPECT_AFTER`] consecutive retransmission timeouts and counting.
    Suspect,
    /// An envelope exhausted its retransmission budget; parked envelopes
    /// wait while keepalive probes test the link.
    Dead,
    /// A probe (or data) ack came back after Dead; the next clean ack
    /// settles back to Healthy.
    Healed,
}

impl EpState {
    pub fn label(self) -> &'static str {
        match self {
            EpState::Healthy => "healthy",
            EpState::Suspect => "suspect",
            EpState::Dead => "dead",
            EpState::Healed => "healed",
        }
    }
}

/// Per-endpoint health record.
struct EpHealth {
    state: EpState,
    /// Retransmission timeouts since the last ack.
    consecutive_timeouts: u32,
    /// Probe ticks since activation without any ack coming back.
    probe_failures: u32,
    /// Whether a keepalive loop is currently scheduled for this endpoint.
    probing: bool,
    /// Parked envelope ids in park order (= sequence order).
    parked: Vec<u64>,
}

impl Default for EpHealth {
    fn default() -> Self {
        EpHealth {
            state: EpState::Healthy,
            consecutive_timeouts: 0,
            probe_failures: 0,
            probing: false,
            parked: Vec::new(),
        }
    }
}

/// Machine-wide endpoint health state. Keyed, never iterated, so map
/// ordering cannot leak into the deterministic schedule.
#[derive(Default)]
pub struct HealthState {
    eps: IdMap<(u32, u32), EpHealth>,
}

impl HealthState {
    /// Current state of the (src, dst) endpoint (Healthy when untracked).
    pub fn state(&self, src: usize, dst: usize) -> EpState {
        self.eps
            .get(&(src as u32, dst as u32))
            .map_or(EpState::Healthy, |e| e.state)
    }

    /// Envelopes currently parked, over all endpoints.
    pub fn parked(&self) -> usize {
        self.eps.values().map(|e| e.parked.len()).sum()
    }
}

/// A retransmission timer fired for an envelope that still has budget:
/// count it against the endpoint and mark Suspect past the threshold.
pub(crate) fn note_timeout(w: &mut Machine, s: &mut MSched, src: usize, dst: usize) {
    let ep = w
        .ucp
        .health
        .eps
        .entry((src as u32, dst as u32))
        .or_default();
    ep.consecutive_timeouts += 1;
    if matches!(ep.state, EpState::Healthy | EpState::Healed)
        && ep.consecutive_timeouts >= SUSPECT_AFTER
    {
        ep.state = EpState::Suspect;
        s.mark(m::EP_SUSPECT, src as u32, dst as u64, 0);
    }
}

/// Any ack (data or probe) came back from `dst`: reset the failure
/// counters and heal the endpoint, releasing parked envelopes.
pub(crate) fn note_alive(w: &mut Machine, s: &mut MSched, src: usize, dst: usize) {
    let Some(ep) = w.ucp.health.eps.get_mut(&(src as u32, dst as u32)) else {
        return;
    };
    ep.consecutive_timeouts = 0;
    ep.probe_failures = 0;
    match ep.state {
        EpState::Healthy => {}
        EpState::Suspect | EpState::Healed => ep.state = EpState::Healthy,
        EpState::Dead => {
            ep.state = EpState::Healed;
            ep.probing = false;
            let parked = std::mem::take(&mut ep.parked);
            s.mark(m::EP_HEALED, src as u32, dst as u64, parked.len() as u64);
            // Release in park order (= sequence order) with a fresh attempt
            // budget; ids acked while parked are no-ops inside `transmit`.
            for id in parked {
                if let Some(p) = w.ucp.reliable.inflight.get_mut(&id) {
                    p.attempts = 1;
                }
                reliable::transmit(w, s, id);
            }
        }
    }
}

/// An envelope exhausted its retransmission budget. Returns `true` when
/// the health layer parked it (caller must not give up); `false` sends the
/// caller to the hard give-up path.
pub(crate) fn try_park(w: &mut Machine, s: &mut MSched, id: u64) -> bool {
    let Some(p) = w.ucp.reliable.inflight.get_mut(&id) else {
        return false;
    };
    if p.parks >= HEAL_RETRIES {
        return false;
    }
    p.parks += 1;
    let (src, dst) = (p.src, p.dst);
    let ep = w
        .ucp
        .health
        .eps
        .entry((src as u32, dst as u32))
        .or_default();
    ep.parked.push(id);
    let activate = !ep.probing;
    if activate {
        ep.probing = true;
        ep.probe_failures = 0;
    }
    if ep.state != EpState::Dead {
        ep.state = EpState::Dead;
        s.mark(m::EP_DEAD, src as u32, dst as u64, 0);
    }
    s.mark(m::PARKED, src as u32, id, dst as u64);
    if activate {
        send_probe(w, s, src, dst);
        s.schedule_in(KEEPALIVE_INTERVAL, move |w, s| probe_tick(w, s, src, dst));
    }
    true
}

/// One keepalive tick: if the endpoint is still Dead with parked
/// envelopes, count the silence, flush everything through give-up once the
/// probe budget is spent, otherwise probe again.
fn probe_tick(w: &mut Machine, s: &mut MSched, src: usize, dst: usize) {
    let Some(ep) = w.ucp.health.eps.get_mut(&(src as u32, dst as u32)) else {
        return;
    };
    if !ep.probing {
        return; // healed (or flushed) since the tick was scheduled
    }
    if ep.parked.is_empty() {
        ep.probing = false;
        return;
    }
    ep.probe_failures += 1;
    if ep.probe_failures >= PROBE_BUDGET {
        ep.probing = false;
        let parked = std::mem::take(&mut ep.parked);
        for id in parked {
            reliable::give_up(w, s, id);
        }
        return;
    }
    send_probe(w, s, src, dst);
    s.schedule_in(KEEPALIVE_INTERVAL, move |w, s| probe_tick(w, s, src, dst));
}

/// Put one keepalive probe on the wire toward `dst`. Probes are
/// unsequenced and unreliable — the same fault lottery applies, and a lost
/// probe is simply a failed tick.
fn send_probe(w: &mut Machine, s: &mut MSched, src: usize, dst: usize) {
    s.mark(m::PROBE, src as u32, dst as u64, 0);
    lossy_transfer(w, s, src, dst, ACK_SIZE, 0, move |w, s| {
        probe_arrive(w, s, src, dst)
    });
}

/// A probe reached `dst`: answer it. The reply is idempotent and rides the
/// same lottery back.
fn probe_arrive(w: &mut Machine, s: &mut MSched, src: usize, dst: usize) {
    lossy_transfer(w, s, dst, src, ACK_SIZE, 0, move |w, s| {
        s.mark(m::PROBE_ACK, src as u32, dst as u64, 0);
        note_alive(w, s, src, dst);
    });
}
