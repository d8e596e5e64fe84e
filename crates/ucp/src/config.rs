//! UCX-layer configuration and calibration: the eight protocol settings
//! that vary between runs ([`UcpConfig`], the simulation analogue of `UCX_*`
//! environment variables) and the transport cost constants that do not.

use rucx_sim::time::{transfer_time, us, Duration};

/// What varies between runs of the UCP layer. Each field names the caller
/// that sets it away from the default; everything else about the layer is a
/// constant below.
///
/// Defaults correspond to the paper's Summit configuration *with GDRCopy
/// detected* (§IV-B1 notes its detection is essential for small-message
/// latency).
#[derive(Debug, Clone)]
pub struct UcpConfig {
    /// Device-memory messages up to this size use the eager protocol via
    /// GDRCopy bounce buffers (only when [`UcpConfig::gdrcopy_enabled`]).
    /// Swept by the `eager` arm of `benches/ablations.rs`.
    pub eager_thresh_device: u64,
    /// Whether the GDRCopy library was detected. When false, *all* device
    /// transfers take the rendezvous path regardless of size. Cleared by
    /// `osu_cli --no-gdrcopy` and the `gdrcopy` arm of `benches/ablations.rs`.
    pub gdrcopy_enabled: bool,
    /// Chunk size of the pipelined host-staging rendezvous for inter-node
    /// device transfers. Swept by the `pipeline` arm of
    /// `benches/ablations.rs`.
    pub pipeline_chunk: u64,
    /// Use direct GPUDirect-RDMA for inter-node device rendezvous instead of
    /// the pipelined host-staging path (off by default, matching the paper's
    /// observed UCX behaviour on Summit). Set by the `pipeline` arm of
    /// `benches/ablations.rs`.
    pub direct_gdr_rndv: bool,
    /// Intra-node device-to-device rendezvous of at least this size are
    /// striped across NVLink and the X-Bus concurrently instead of riding a
    /// single resolved path; below this the per-leg DMA setup outweighs the
    /// added bandwidth. `u64::MAX` never stripes, which is what the
    /// `multipath` arm of `benches/ablations.rs` compares against.
    pub multipath_min: u64,
    /// Model per-(src,dst) endpoint wireup and per-buffer memory
    /// registration costs. The MPI4Dask/distributed-ucxx deployments `svc`
    /// reproduces pay these for real, so `svc::run_load` turns it on; the
    /// paper's OSU and Jacobi runs leave it off.
    pub reg_model: bool,
    /// Cache endpoint wireups and buffer registrations (LRU over
    /// [`REG_CACHE_BYTES`]). When false every touch pays the mapping cost
    /// again — `svc::run_load` sets it from `LoadCfg::cache`, the "cache
    /// off" baseline of `svc_bench`.
    pub reg_cache: bool,
    /// Retransmissions after the original before the endpoint is declared
    /// unreachable and the operation fails with a typed error.
    /// `svc::run_load` sets it from `LoadCfg::ucp_max_retries`, which
    /// `bench::scenario` lowers to 3 so a partitioned endpoint parks and
    /// probes within a task deadline.
    pub max_retries: u32,
}

impl Default for UcpConfig {
    fn default() -> Self {
        UcpConfig {
            eager_thresh_device: 4 * 1024,
            gdrcopy_enabled: true,
            pipeline_chunk: 512 * 1024,
            direct_gdr_rndv: false,
            multipath_min: 8 << 20,
            reg_model: false,
            reg_cache: true,
            max_retries: 10,
        }
    }
}

// ---- Protocol and transport costs ----------------------------------------

/// Host-memory messages up to this size use the eager protocol.
pub const EAGER_THRESH_HOST: u64 = 16 * 1024;
/// Intra-node shared-memory transport: per-message latency.
pub const SHM_LATENCY: Duration = us(0.30);
/// Intra-node shared-memory / CMA copy bandwidth (GB/s).
pub const SHM_GBPS: f64 = 5.2;
/// GDRCopy mapped read/write fixed cost (per message).
pub const GDRCOPY_BASE: Duration = us(0.45);
/// GDRCopy mapped copy bandwidth (GB/s) — low; it is a CPU-driven copy
/// through the PCIe BAR window, only sensible for small messages.
pub const GDRCOPY_GBPS: f64 = 5.0;
/// Software protocol processing per message on each side.
pub const PROTO_OVERHEAD: Duration = us(0.15);
/// Host-side copy-out cost base when an eager message is matched.
pub const EAGER_COPY_BASE: Duration = us(0.05);
/// Host-side copy-out bandwidth for eager matches (GB/s).
pub const EAGER_COPY_GBPS: f64 = 11.0;
/// Fixed per-transfer overhead of the CUDA-IPC rendezvous path (event
/// synchronization, stream ordering; handle opens are cached).
pub const IPC_SYNC: Duration = us(4.5);
/// Wire size of an RTS control message.
pub const RTS_SIZE: u64 = 64;
/// Wire size of an ATS (ack-to-sender) control message.
pub const ATS_SIZE: u64 = 32;
/// CPU cost of one `ucp_tag_send_nb`/`ucp_tag_recv_nb` call (modeled by
/// calling layers via `ProcCtx::advance`).
pub const CPU_CALL: Duration = us(0.30);

// ---- Connection setup / memory registration ([`UcpConfig::reg_model`]) ---

/// One-time wireup latency for the first message on a (src,dst) pair
/// (address exchange + transport setup).
pub const EP_SETUP: Duration = us(150.0);
/// Fixed cost of registering (pinning + IB/CUDA mapping) one buffer.
pub const REG_BASE: Duration = us(40.0);
/// Page-table walk bandwidth of registration (GB/s): large buffers cost
/// proportionally more to pin.
pub const REG_GBPS: f64 = 2.0;
/// Registration-cache capacity in mapped bytes (LRU beyond this).
pub const REG_CACHE_BYTES: u64 = 1 << 30;
/// Endpoint-cache capacity in cached wireups (LRU beyond this).
pub const EP_CACHE_MAX: usize = 4096;

// ---- Reliability protocol (active only when a fault spec is loaded) ------

/// Base retransmission timeout added on top of the estimated wire RTT.
pub const RTO_BASE: Duration = us(50.0);
/// Floor under any single retransmission timeout (keeps the jittered
/// backoff from collapsing below the wire's plausible turnaround).
pub const RTO_MIN: Duration = us(25.0);
/// Hard cap on any single retransmission timeout.
pub const RTO_MAX: Duration = us(5_000.0);
/// Multiplicative backoff applied per retransmission.
pub const RTO_BACKOFF: f64 = 2.0;
/// Jitter fraction: each armed timer stretches by up to this fraction,
/// drawn from the seeded reliability RNG (decorrelates retry storms without
/// breaking determinism).
pub const RTO_JITTER: f64 = 0.25;
/// Wire size of a reliability ack.
pub const ACK_SIZE: u64 = 16;

// ---- Endpoint health state machine ---------------------------------------

/// Consecutive ack timeouts on a (src,dst) pair before the endpoint is
/// marked Suspect.
pub const SUSPECT_AFTER: u32 = 2;
/// Cadence of keepalive probes sent toward a Dead endpoint while envelopes
/// are parked on it.
pub const KEEPALIVE_INTERVAL: Duration = us(200.0);
/// Unanswered keepalive probes tolerated before every envelope parked on
/// the Dead endpoint is flushed through the hard give-up path.
pub const PROBE_BUDGET: u32 = 25;
/// Times one envelope may be parked-and-released across heal cycles before
/// exhausting its retransmission budget hard-fails it.
pub const HEAL_RETRIES: u32 = 1;

const _: () = assert!(
    RTO_MIN <= RTO_BASE
        && RTO_BASE <= RTO_MAX
        && SUSPECT_AFTER >= 1
        && PROBE_BUDGET >= 1
        && HEAL_RETRIES >= 1
);

/// Cost of a GDRCopy mapped read/write of `size` bytes.
pub fn gdrcopy_cost(size: u64) -> Duration {
    GDRCOPY_BASE + transfer_time(size, GDRCOPY_GBPS)
}

/// Cost of the receive-side eager copy-out into the user buffer.
pub fn eager_copy_cost(size: u64) -> Duration {
    EAGER_COPY_BASE + transfer_time(size, EAGER_COPY_GBPS)
}

/// Intra-node shared-memory wire time for `size` bytes.
pub fn shm_time(size: u64) -> Duration {
    SHM_LATENCY + transfer_time(size, SHM_GBPS)
}

/// Cost of registering a `size`-byte buffer with the NIC/driver.
pub fn reg_cost(size: u64) -> Duration {
    REG_BASE + transfer_time(size, REG_GBPS)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rule for a `UcpConfig` field: two non-test callers set it to
    /// different values, and the field's doc names them. Anything with one
    /// value in the tree is a constant in this file instead. The exhaustive
    /// destructure (no `..`) stops compiling when a field is added, so the
    /// rule is re-read before a ninth one lands.
    #[test]
    fn ucp_config_holds_exactly_the_fields_that_vary() {
        let UcpConfig {
            eager_thresh_device,
            gdrcopy_enabled,
            pipeline_chunk,
            direct_gdr_rndv,
            multipath_min,
            reg_model,
            reg_cache,
            max_retries,
        } = UcpConfig::default();
        assert!(eager_thresh_device < EAGER_THRESH_HOST);
        assert!(gdrcopy_enabled && !direct_gdr_rndv);
        assert!(pipeline_chunk >= 64 * 1024 && pipeline_chunk < multipath_min);
        assert!(!reg_model && reg_cache);
        assert!(max_retries >= 1);
    }

    #[test]
    fn gdrcopy_cost_grows_with_size() {
        assert!(gdrcopy_cost(4096) > gdrcopy_cost(8));
        // 4 KiB at 5 GB/s ≈ 0.82 us + base.
        let t = gdrcopy_cost(4096);
        assert!(t > us(1.0) && t < us(1.6), "t={t}");
    }

    #[test]
    fn shm_small_message_latency_dominated() {
        let t = shm_time(8);
        assert!((SHM_LATENCY..SHM_LATENCY + 10).contains(&t));
    }
}
