//! Charm++-layer registry: every counter and trace name the runtime emits,
//! declared once. Call sites pass these; string literals are rejected by
//! `scripts/check.sh`.

use rucx_sim::Metric;

/// Messages a rank shell's receive window still held when its launch body
/// returned (`rank::launch`): each waits for an earlier one that never came.
pub const RANK_HELD_AT_EXIT: Metric = Metric::counter("charm.rank.held_at_exit");

/// Instant: one envelope dispatched by a PE's scheduler
/// (`id` = collection << 16 | entry point, `arg` = sending PE).
pub const TRACE_SCHED_DELIVER: &str = "charm.sched.deliver";
/// Instant: a communication error reached a PE with no handler installed.
pub const TRACE_ERROR_UNHANDLED: &str = "charm.error.unhandled";
