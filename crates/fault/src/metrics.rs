//! Fault-injection metrics registry: events counted (and traced) by the
//! layers that consult [`crate::FaultState`] — the injection decisions
//! happen in the communication layer. Names follow the `fault.*` namespace
//! the trace attribution table groups on.

use rucx_sim::Metric;

/// Envelopes silently dropped by the fabric (includes partition windows).
pub const DROP: Metric = Metric::counter("fault.drop");
/// Envelopes delivered twice.
pub const DUPLICATE: Metric = Metric::counter("fault.duplicate");
/// Envelopes delivered late.
pub const DELAY: Metric = Metric::counter("fault.delay");
/// Envelopes discarded by the receiver's checksum.
pub const CORRUPT: Metric = Metric::counter("fault.corrupt");
/// Transfers that found a GPU-direct path failed and degraded.
pub const GPU_DEGRADED: Metric = Metric::counter("fault.gpu_degraded");
