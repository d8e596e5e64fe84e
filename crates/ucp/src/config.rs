//! UCX-layer configuration: protocol thresholds and transport cost
//! parameters (the simulation analogue of `UCX_*` environment variables).

use rucx_sim::time::{us, Duration};

/// Protocol/transport configuration of the UCP layer.
///
/// Defaults correspond to the paper's Summit configuration *with GDRCopy
/// detected* (§IV-B1 notes its detection is essential for small-message
/// latency). The ablation benches flip [`UcpConfig::gdrcopy_enabled`].
#[derive(Debug, Clone)]
pub struct UcpConfig {
    /// Host-memory messages up to this size use the eager protocol.
    pub eager_thresh_host: u64,
    /// Device-memory messages up to this size use the eager protocol via
    /// GDRCopy bounce buffers (only when [`UcpConfig::gdrcopy_enabled`]).
    pub eager_thresh_device: u64,
    /// Whether the GDRCopy library was detected. When false, *all* device
    /// transfers take the rendezvous path regardless of size.
    pub gdrcopy_enabled: bool,
    /// Chunk size of the pipelined host-staging rendezvous for inter-node
    /// device transfers.
    pub pipeline_chunk: u64,
    /// Use direct GPUDirect-RDMA for inter-node device rendezvous instead of
    /// the pipelined host-staging path (off by default, matching the paper's
    /// observed UCX behaviour on Summit; the ablation bench enables it).
    pub direct_gdr_rndv: bool,
    /// Intra-node device-to-device rendezvous of at least this size are
    /// striped across NVLink and the X-Bus concurrently instead of riding a
    /// single resolved path; below this the per-leg DMA setup outweighs the
    /// added bandwidth. `u64::MAX` never stripes.
    pub multipath_min: u64,
    /// Intra-node shared-memory transport: per-message latency.
    pub shm_latency: Duration,
    /// Intra-node shared-memory / CMA copy bandwidth (GB/s).
    pub shm_gbps: f64,
    /// GDRCopy mapped read/write fixed cost (per message).
    pub gdrcopy_base: Duration,
    /// GDRCopy mapped copy bandwidth (GB/s) — low; it is a CPU-driven copy
    /// through the PCIe BAR window, only sensible for small messages.
    pub gdrcopy_gbps: f64,
    /// Software protocol processing per message on each side.
    pub proto_overhead: Duration,
    /// Host-side copy-out cost base when an eager message is matched.
    pub eager_copy_base: Duration,
    /// Host-side copy-out bandwidth for eager matches (GB/s).
    pub eager_copy_gbps: f64,
    /// Fixed per-transfer overhead of the CUDA-IPC rendezvous path
    /// (event synchronization, stream ordering; handle opens are cached).
    pub ipc_sync: Duration,
    /// Wire size of an RTS control message.
    pub rts_size: u64,
    /// Wire size of an ATS (ack-to-sender) control message.
    pub ats_size: u64,
    /// CPU cost of one `ucp_tag_send_nb`/`ucp_tag_recv_nb` call (modeled by
    /// calling layers via `ProcCtx::advance`).
    pub cpu_call: Duration,

    // ---- Connection-setup / memory-registration cost model ----
    /// Model per-(src,dst) endpoint wireup and per-buffer memory
    /// registration costs (off by default: legacy runs and their recorded
    /// timings are unchanged). The MPI4Dask/distributed-ucxx deployments
    /// this reproduces pay these costs for real; the registration cache
    /// below amortizes them.
    pub reg_model: bool,
    /// Cache endpoint wireups and buffer registrations (LRU over
    /// [`UcpConfig::reg_cache_bytes`]). When false every touch pays the
    /// mapping cost again — the "cache off" baseline of `svc_bench`.
    pub reg_cache: bool,
    /// One-time wireup latency for the first message on a (src,dst) pair
    /// (address exchange + transport setup).
    pub ep_setup: Duration,
    /// Fixed cost of registering (pinning + IB/CUDA mapping) one buffer.
    pub reg_base: Duration,
    /// Page-table walk bandwidth of registration (GB/s): large buffers
    /// cost proportionally more to pin.
    pub reg_gbps: f64,
    /// Registration-cache capacity in mapped bytes (LRU beyond this).
    pub reg_cache_bytes: u64,
    /// Endpoint-cache capacity in cached wireups (LRU beyond this).
    pub ep_cache_max: usize,

    // ---- Reliability protocol (active only when a fault spec is loaded) ----
    /// Base retransmission timeout added on top of the estimated wire RTT.
    pub rto_base: Duration,
    /// Floor under any single retransmission timeout (keeps the jittered
    /// backoff from collapsing below the wire's plausible turnaround).
    pub rto_min: Duration,
    /// Hard cap on any single retransmission timeout.
    pub rto_max: Duration,
    /// Multiplicative backoff applied per retransmission.
    pub rto_backoff: f64,
    /// Jitter fraction: each armed timer stretches by up to this fraction,
    /// drawn from the seeded reliability RNG (decorrelates retry storms
    /// without breaking determinism).
    pub rto_jitter: f64,
    /// Retransmissions after the original before the endpoint is declared
    /// unreachable and the operation fails with a typed error.
    pub max_retries: u32,
    /// Wire size of a reliability ack.
    pub ack_size: u64,

    // ---- Endpoint health state machine ----
    /// Consecutive ack timeouts on a (src,dst) pair before the endpoint is
    /// marked Suspect.
    pub suspect_after: u32,
    /// Cadence of keepalive probes sent toward a Dead endpoint while
    /// envelopes are parked on it.
    pub keepalive_interval: Duration,
    /// Unanswered keepalive probes tolerated before every envelope parked
    /// on the Dead endpoint is flushed through the hard give-up path.
    pub probe_budget: u32,
    /// Times one envelope may be parked-and-released across heal cycles
    /// before exhausting its retransmission budget hard-fails it (0 turns
    /// the parking layer off: budget exhaustion gives up immediately).
    pub heal_retries: u32,
}

impl Default for UcpConfig {
    fn default() -> Self {
        UcpConfig {
            eager_thresh_host: 16 * 1024,
            eager_thresh_device: 4 * 1024,
            gdrcopy_enabled: true,
            pipeline_chunk: 512 * 1024,
            direct_gdr_rndv: false,
            multipath_min: 8 << 20,
            shm_latency: us(0.30),
            shm_gbps: 5.2,
            gdrcopy_base: us(0.45),
            gdrcopy_gbps: 5.0,
            proto_overhead: us(0.15),
            eager_copy_base: us(0.05),
            eager_copy_gbps: 11.0,
            ipc_sync: us(4.5),
            rts_size: 64,
            ats_size: 32,
            cpu_call: us(0.30),
            reg_model: false,
            reg_cache: true,
            ep_setup: us(150.0),
            reg_base: us(40.0),
            reg_gbps: 2.0,
            reg_cache_bytes: 1 << 30,
            ep_cache_max: 4096,
            rto_base: us(50.0),
            rto_min: us(25.0),
            rto_max: us(5_000.0),
            rto_backoff: 2.0,
            rto_jitter: 0.25,
            max_retries: 10,
            ack_size: 16,
            suspect_after: 2,
            keepalive_interval: us(200.0),
            probe_budget: 25,
            heal_retries: 1,
        }
    }
}

impl UcpConfig {
    /// Cost of a GDRCopy mapped read/write of `size` bytes.
    pub fn gdrcopy_cost(&self, size: u64) -> Duration {
        self.gdrcopy_base + rucx_sim::time::transfer_time(size, self.gdrcopy_gbps)
    }

    /// Cost of the receive-side eager copy-out into the user buffer.
    pub fn eager_copy_cost(&self, size: u64) -> Duration {
        self.eager_copy_base + rucx_sim::time::transfer_time(size, self.eager_copy_gbps)
    }

    /// Intra-node shared-memory wire time for `size` bytes.
    pub fn shm_time(&self, size: u64) -> Duration {
        self.shm_latency + rucx_sim::time::transfer_time(size, self.shm_gbps)
    }

    /// Cost of registering a `size`-byte buffer with the NIC/driver.
    pub fn reg_cost(&self, size: u64) -> Duration {
        self.reg_base + rucx_sim::time::transfer_time(size, self.reg_gbps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sane() {
        let c = UcpConfig::default();
        assert!(c.eager_thresh_device < c.eager_thresh_host);
        assert!(c.gdrcopy_enabled);
        assert!(!c.direct_gdr_rndv);
        assert!(c.pipeline_chunk >= 64 * 1024);
        assert!(c.rto_min <= c.rto_base && c.rto_base <= c.rto_max);
        assert!(c.suspect_after >= 1 && c.probe_budget >= 1);
    }

    #[test]
    fn gdrcopy_cost_grows_with_size() {
        let c = UcpConfig::default();
        assert!(c.gdrcopy_cost(4096) > c.gdrcopy_cost(8));
        // 4 KiB at 5 GB/s ≈ 0.82 us + base.
        let t = c.gdrcopy_cost(4096);
        assert!(t > us(1.0) && t < us(1.6), "t={t}");
    }

    #[test]
    fn shm_small_message_latency_dominated() {
        let c = UcpConfig::default();
        let t = c.shm_time(8);
        assert!(t >= c.shm_latency && t < c.shm_latency + 10);
    }
}
