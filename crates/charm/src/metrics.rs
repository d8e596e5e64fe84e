//! Charm++-layer registry: the trace names the runtime emits (it counts
//! nothing yet). Call sites pass these; string literals are rejected by
//! `scripts/check.sh`.

/// Instant: one envelope dispatched by a PE's scheduler
/// (`id` = collection << 16 | entry point, `arg` = sending PE).
pub const TRACE_SCHED_DELIVER: &str = "charm.sched.deliver";
/// Instant: a communication error reached a PE with no handler installed.
pub const TRACE_ERROR_UNHANDLED: &str = "charm.error.unhandled";
