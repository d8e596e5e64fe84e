//! Service-layer metrics registry: every counter the futures frontend's
//! recovery machinery emits, declared once as typed [`Metric`] handles.
//! Call sites pass these handles; ad-hoc string literals are rejected by
//! `scripts/check.sh`.

use rucx_sim::Metric;

/// Tasks resubmitted to a surviving worker after their deadline expired.
pub const RESUBMIT: Metric = Metric::counter("svc.resubmit");
/// Task deadlines that expired (each one either resubmits or fails the
/// task; `svc.resubmit + svc.task_failed` accounts for every timeout's
/// outcome except retries of already-resubmitted tasks).
pub const TASK_TIMEOUT: Metric = Metric::counter("svc.task_timeout");
/// Per-worker circuit breakers opened (consecutive timeouts reached the
/// threshold, or the UCP layer surfaced an endpoint give-up for the
/// worker). An open breaker removes the worker from resubmission targets
/// permanently — its channel sequence state may be torn down.
pub const BREAKER_OPEN: Metric = Metric::counter("svc.breaker_open");
/// Results that arrived for a task already gathered (the original worker
/// answered late, after a resubmission was counted). Never double-counted.
pub const DUP_RESULT: Metric = Metric::counter("svc.dup_result");
/// Tasks abandoned after exhausting `MAX_RESUBMIT` or running out of
/// eligible workers.
pub const TASK_FAILED: Metric = Metric::counter("svc.task_failed");
