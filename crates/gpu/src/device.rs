//! Simulated GPU devices and the intra-node cost model.
//!
//! The constants describe a Summit-like node: 2 CPU sockets, 3 NVIDIA
//! V100-class GPUs per socket, GPUs and their socket's CPU fully connected
//! by NVLink (50 GB/s theoretical per direction), sockets bridged by the
//! X-Bus (64 GB/s). Effective bandwidths are derated to what microbenchmarks
//! achieve on the real machine (the paper reports Charm++ reaching
//! 44.7 GB/s intra-node).

use rucx_sim::time::{transfer_time, us, Duration};

/// Identifier of a GPU device, global across the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u32);

impl DeviceId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Static description of one simulated GPU.
#[derive(Debug, Clone)]
pub struct Device {
    pub id: DeviceId,
    /// Node this GPU belongs to.
    pub node: usize,
    /// CPU socket within the node this GPU hangs off.
    pub socket: usize,
    /// Device memory capacity in bytes.
    pub mem_capacity: u64,
}

// Calibration constants of the intra-node GPU cost model.
//
// All bandwidths are in GB/s (bytes per nanosecond); all latencies are
// virtual-time durations. Values are calibrated against published V100 /
// Summit microbenchmark behaviour; see EXPERIMENTS.md for the mapping from
// these constants to reproduced figures.

/// Device memory capacity per GPU (V100, 16 GiB).
pub const DEVICE_MEM: u64 = 16 << 30;
/// CPU-side cost to launch an async copy (driver + runtime).
pub const COPY_LAUNCH: Duration = us(3.2);
/// CPU-side cost of a stream synchronization call (beyond waiting).
pub const SYNC_OVERHEAD: Duration = us(2.4);
/// CPU-side cost to launch a kernel.
pub const KERNEL_LAUNCH: Duration = us(7.0);
/// DMA engine setup time per copy (added to the transfer itself).
pub const DMA_SETUP: Duration = us(1.1);
/// GPU<->GPU same-socket NVLink effective bandwidth.
pub const NVLINK_GBPS: f64 = 44.0;
/// GPU<->GPU cross-socket (X-Bus) effective per-flow bandwidth.
/// Cross-socket P2P is staged GPU->NVLink->CPU->X-Bus->CPU->NVLink->GPU;
/// despite the X-Bus's 64 GB/s headline rate the effective
/// device-to-device bandwidth is far below same-socket NVLink.
pub const XBUS_GBPS: f64 = 28.0;
/// Aggregate X-Bus bandwidth shared by all concurrent cross-socket flows
/// of a node (the bus itself is faster than any single staged flow).
pub const XBUS_AGGREGATE_GBPS: f64 = 52.0;
/// CPU<->GPU NVLink effective bandwidth (host staging path).
pub const CPU_GPU_GBPS: f64 = 42.0;
/// On-device (HBM2) copy bandwidth for D2D on the same device.
pub const HBM_GBPS: f64 = 780.0;
/// Host-to-host single-core memcpy bandwidth.
pub const HOST_MEMCPY_GBPS: f64 = 9.5;
/// Bandwidth derate factor when the host buffer is pageable (the driver
/// must bounce through an internal pinned buffer).
pub const PAGEABLE_FACTOR: f64 = 0.17;
/// Extra fixed latency for copies involving pageable host memory.
pub const PAGEABLE_OVERHEAD: Duration = us(4.0);

/// The physical route a copy takes inside one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyPath {
    /// Device-to-device on the same GPU (HBM).
    OnDevice,
    /// Device-to-device between GPUs on the same socket (NVLink).
    NvLink,
    /// Device-to-device between GPUs on different sockets (X-Bus).
    XBus,
    /// Host-to-device or device-to-host over CPU-GPU NVLink, pinned host.
    HostPinnedLink,
    /// Host-to-device or device-to-host with pageable host memory.
    HostPageableLink,
    /// Host-to-host memcpy.
    HostMem,
}

/// Effective bandwidth of a path in GB/s.
pub fn path_gbps(path: CopyPath) -> f64 {
    match path {
        CopyPath::OnDevice => HBM_GBPS,
        CopyPath::NvLink => NVLINK_GBPS,
        CopyPath::XBus => XBUS_GBPS,
        CopyPath::HostPinnedLink => CPU_GPU_GBPS,
        CopyPath::HostPageableLink => CPU_GPU_GBPS * PAGEABLE_FACTOR,
        CopyPath::HostMem => HOST_MEMCPY_GBPS,
    }
}

/// Pure wire time for `size` bytes along `path` (no launch overheads).
pub fn wire_time(path: CopyPath, size: u64) -> Duration {
    let extra = match path {
        CopyPath::HostPageableLink => PAGEABLE_OVERHEAD,
        _ => 0,
    };
    DMA_SETUP + extra + transfer_time(size, path_gbps(path))
}

/// Cost model of a GPU kernel: `fixed + bytes/hbm_bw` (memory-bound roofline,
/// which stencil kernels are).
#[derive(Debug, Clone, Copy)]
pub struct KernelCost {
    /// Fixed on-GPU time independent of data volume.
    pub fixed: Duration,
    /// Bytes of HBM traffic the kernel generates (reads + writes).
    pub bytes: u64,
}

impl KernelCost {
    /// On-GPU execution time.
    pub fn duration(&self) -> Duration {
        self.fixed + transfer_time(self.bytes, HBM_GBPS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_bandwidth_ordering_matches_hardware() {
        // HBM > NVLink >= CPU-GPU > X-Bus (staged) > host memcpy.
        assert!(path_gbps(CopyPath::OnDevice) > path_gbps(CopyPath::NvLink));
        assert!(path_gbps(CopyPath::NvLink) > path_gbps(CopyPath::XBus));
        assert!(path_gbps(CopyPath::NvLink) >= path_gbps(CopyPath::HostPinnedLink));
        assert!(path_gbps(CopyPath::XBus) > path_gbps(CopyPath::HostMem));
        assert!(path_gbps(CopyPath::HostPinnedLink) > path_gbps(CopyPath::HostMem));
        assert!(path_gbps(CopyPath::HostPageableLink) < path_gbps(CopyPath::HostPinnedLink));
    }

    #[test]
    fn wire_time_scales_linearly() {
        let t1 = wire_time(CopyPath::NvLink, 1 << 20);
        let t4 = wire_time(CopyPath::NvLink, 4 << 20);
        // Subtract the fixed DMA setup to check the slope.
        let s1 = t1 - DMA_SETUP;
        let s4 = t4 - DMA_SETUP;
        assert!((s4 as f64 / s1 as f64 - 4.0).abs() < 0.01);
    }

    #[test]
    fn pageable_copies_slower_than_pinned() {
        let size = 1 << 20;
        assert!(
            wire_time(CopyPath::HostPageableLink, size) > wire_time(CopyPath::HostPinnedLink, size)
        );
    }

    #[test]
    fn kernel_cost_memory_bound() {
        let k = KernelCost {
            fixed: us(2.0),
            bytes: 780_000_000, // exactly 1 ms of HBM traffic at 780 GB/s
        };
        let d = k.duration();
        assert!((d as i64 - (us(2.0) + 1_000_000) as i64).abs() < 1_000);
    }
}
