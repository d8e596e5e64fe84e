//! Typed UCP error surface — the replacement for the protocol-mismatch
//! panics and silent hangs the fault-injection subsystem makes reachable.
//!
//! Errors flow two ways:
//! - as `Result` returns from fallible calls ([`crate::rndv_fetch`],
//!   [`crate::PoppedMsg::into_eager`] / [`crate::PoppedMsg::into_rndv`]);
//! - as asynchronous per-worker error records ([`crate::Worker::take_error`])
//!   when the reliability layer gives up on an envelope, which the
//!   programming-model layers map onto their own semantics (AMPI status
//!   codes, the Charm++ PE-wide error handler, Charm4py exception records).

use crate::tag::Tag;

/// Which wire protocol a message used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Payload travelled with the envelope.
    Eager,
    /// Rendezvous announcement; payload still at the sender.
    Rndv,
}

impl Protocol {
    pub fn label(self) -> &'static str {
        match self {
            Protocol::Eager => "eager",
            Protocol::Rndv => "rndv",
        }
    }
}

/// A typed UCP-layer error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UcpError {
    /// A popped message was not the protocol the caller demanded (e.g. a
    /// rendezvous announcement where an eager payload was expected).
    ProtocolMismatch {
        expected: Protocol,
        got: Protocol,
        src: usize,
        tag: Tag,
    },
    /// The reliability layer exhausted its retransmission budget for an
    /// envelope; the peer is considered unreachable for this operation.
    EndpointTimeout {
        src: usize,
        dst: usize,
        tag: Tag,
        /// Transmission attempts made (1 original + retries).
        attempts: u32,
        /// Virtual time spent between the first transmission and the
        /// give-up, so the scenario matrix can attribute abandoned
        /// transfers to wall time instead of opaque attempt counts.
        elapsed: rucx_sim::time::Duration,
    },
    /// A rendezvous fetch referenced an RTS id that is not (or no longer)
    /// announced — fetched twice, never announced, or already failed.
    UnknownRendezvous { rts_id: u64 },
    /// A send named a buffer handle the memory pool no longer (or never)
    /// knew — e.g. freed before the operation was posted. The operation
    /// completes immediately with nothing sent.
    InvalidHandle { op: &'static str, proc: usize },
}

impl std::fmt::Display for UcpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UcpError::ProtocolMismatch {
                expected,
                got,
                src,
                tag,
            } => write!(
                f,
                "protocol mismatch: expected {} but got {} (src {src}, tag {tag:#x})",
                expected.label(),
                got.label()
            ),
            UcpError::EndpointTimeout {
                src,
                dst,
                tag,
                attempts,
                elapsed,
            } => write!(
                f,
                "endpoint timeout: {src} -> {dst} tag {tag:#x} gave up after {attempts} attempts \
                 ({:.1} us elapsed)",
                rucx_sim::time::as_us(*elapsed)
            ),
            UcpError::UnknownRendezvous { rts_id } => {
                write!(f, "unknown rendezvous: rts id {rts_id} is not announced")
            }
            UcpError::InvalidHandle { op, proc } => {
                write!(f, "invalid buffer handle in {op} at process {proc}")
            }
        }
    }
}

impl std::error::Error for UcpError {}
