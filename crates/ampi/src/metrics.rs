//! AMPI-layer registry: every counter and trace name the layer emits,
//! declared once. Call sites pass these; string literals are rejected by
//! `scripts/check.sh`.

use rucx_sim::Metric;

/// Envelopes that arrived ahead of an earlier one from the same source and
/// waited in the reorder stash (the non-overtaking rule at work).
pub const REORDER_HELD: Metric = Metric::counter("ampi.reorder.held");

/// Instant: an in-order envelope found no posted receive and was queued as
/// unexpected (`id` = sequence number, `arg` = payload size).
pub const TRACE_UNEXPECTED_ENQUEUE: &str = "ampi.unexpected.enqueue";
