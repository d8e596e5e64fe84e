//! Charm4py-layer registry: every counter and trace name the layer emits,
//! declared once. Call sites pass these; string literals are rejected by
//! `scripts/check.sh`.

use rucx_sim::Metric;

/// Channel messages that arrived ahead of an earlier one from the same
/// peer and waited in the channel's stash.
pub const REORDER_HELD: Metric = Metric::counter("charm4py.reorder.held");

/// Span: interpreter/Cython overhead charged to a call (`id` = call site,
/// `arg` = duration).
pub const TRACE_CALL_OVERHEAD: &str = "charm4py.call_overhead";
