//! Calibration constants of the Charm++ runtime layer.
//!
//! Per-message CPU costs of the Charm++ runtime (Converse + Charm++ core +
//! code generation layers), above whatever UCX itself costs. These reproduce
//! the layer-attribution the paper measures in §IV-B1: an entry-method
//! invocation costs a few microseconds of runtime processing on each side,
//! and host-side payloads are packed into (and unpacked out of) the Charm++
//! message, which is what makes the host-staging path so much slower than
//! GPU-direct for large buffers.

use rucx_sim::time::{us, Duration};

/// Sender-side cost of an entry-method invocation (message allocation,
/// marshalling, Converse + machine-layer call path).
pub const SEND_OVERHEAD: Duration = us(0.85);
/// Receiver-side cost (scheduler pop, envelope decode, handler dispatch).
pub const RECV_OVERHEAD: Duration = us(0.85);
/// Extra cost to run a post entry method (Zero Copy API receive setup).
pub const POST_OVERHEAD: Duration = us(0.35);
/// Extra CPU cost per device buffer descriptor (CkDeviceBuffer setup, tag
/// generation, metadata bookkeeping — includes the heap allocations the
/// paper calls out).
pub const DEVICE_META_OVERHEAD: Duration = us(0.40);
/// Bandwidth at which host payloads are packed into / unpacked from
/// Charm++ messages (single-core memcpy).
pub const PACK_GBPS: f64 = 18.0;
/// Payloads at or below this size ride in the envelope without a separate
/// packing pass.
pub const PACK_FREE_BELOW: u64 = 1024;
/// Cost of one trip through the scheduler when the queue was empty (polling
/// the machine layer).
pub const IDLE_POLL: Duration = us(0.10);

/// Packing (or unpacking) cost for `size` bytes of host payload.
pub fn pack_cost(size: u64) -> Duration {
    if size <= PACK_FREE_BELOW {
        0
    } else {
        rucx_sim::time::transfer_time(size, PACK_GBPS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_payloads_pack_free() {
        assert_eq!(pack_cost(64), 0);
        assert_eq!(pack_cost(1024), 0);
        assert!(pack_cost(1 << 20) > 0);
    }

    #[test]
    fn pack_cost_linear() {
        let c1 = pack_cost(1 << 20);
        let c4 = pack_cost(4 << 20);
        assert!((c4 as f64 / c1 as f64 - 4.0).abs() < 0.01);
    }
}
