//! Asynchronous GPU operations: copies, kernels, stream synchronization.
//!
//! These mirror the CUDA calls the paper's software stack uses
//! (`cudaMemcpyAsync`, kernel launches, `cudaStreamSynchronize`), with
//! explicit virtual-time costs. CPU-side launch overhead is modeled by the
//! *caller* advancing its process clock by [`crate::device::COPY_LAUNCH`] /
//! [`crate::device::KERNEL_LAUNCH`] — the functions here model the device
//! side only (queueing, DMA, link occupancy).

use rucx_sim::sched::{Scheduler, Trigger};
use rucx_sim::time::Time;

use crate::device::{wire_time, CopyPath, KernelCost, XBUS_AGGREGATE_GBPS};
use crate::mem::{MemKind, MemRef};
use crate::subsystem::{GpuSubsystem, HasGpu, StreamId};

/// Resolve the intra-node path for a copy between two memory kinds.
///
/// Panics if the endpoints are on different nodes: cross-node movement is
/// the network's job (the UCX layer decomposes such transfers).
pub fn resolve_path(gpu: &GpuSubsystem, src: MemKind, dst: MemKind) -> CopyPath {
    let node_of = |k: MemKind| match k {
        MemKind::Host { node } | MemKind::HostPinned { node } => node,
        MemKind::Device(d) => gpu.device(d).node,
    };
    assert_eq!(
        node_of(src),
        node_of(dst),
        "copy endpoints must be on the same node (got {src:?} -> {dst:?})"
    );
    match (src, dst) {
        (MemKind::Device(a), MemKind::Device(b)) => {
            if a == b {
                CopyPath::OnDevice
            } else if gpu.device(a).socket == gpu.device(b).socket {
                CopyPath::NvLink
            } else {
                CopyPath::XBus
            }
        }
        (MemKind::Device(_), h) | (h, MemKind::Device(_)) => {
            if matches!(h, MemKind::HostPinned { .. }) {
                CopyPath::HostPinnedLink
            } else {
                CopyPath::HostPageableLink
            }
        }
        _ => CopyPath::HostMem,
    }
}

/// Enqueue an asynchronous copy on `stream`; returns the completion time.
///
/// The copy starts when the stream reaches it *and* the involved link ports
/// are free (device egress/ingress, plus the node's X-Bus for cross-socket
/// paths); data becomes visible in the destination at completion, when
/// `done` (if any) fires.
pub fn copy_async<W: HasGpu>(
    w: &mut W,
    s: &mut Scheduler<W>,
    src: MemRef,
    dst: MemRef,
    stream: StreamId,
    done: Option<Trigger>,
) -> Time {
    assert_eq!(src.len, dst.len, "copy length mismatch");
    let now = s.now();
    let gpu = w.gpu();
    let src_kind = gpu.pool.kind(src.id).expect("copy from bad handle");
    let dst_kind = gpu.pool.kind(dst.id).expect("copy to bad handle");
    let path = resolve_path(gpu, src_kind, dst_kind);
    let dur = wire_time(path, src.len);

    // Gather contention constraints.
    let mut start = now.max(gpu.stream_busy(stream));
    let mut ports: Vec<PortRef> = Vec::with_capacity(3);
    if let MemKind::Device(d) = src_kind {
        start = start.max(gpu.egress_busy(d));
        ports.push(PortRef::Egress(d));
    }
    if let MemKind::Device(d) = dst_kind {
        start = start.max(gpu.ingress_busy(d));
        ports.push(PortRef::Ingress(d));
    }
    if path == CopyPath::XBus {
        let node = match src_kind {
            MemKind::Device(d) => gpu.device(d).node,
            _ => unreachable!("XBus path implies device endpoints"),
        };
        start = start.max(gpu.xbus_busy(node));
        ports.push(PortRef::XBus(node));
    }
    let end = start + dur;
    gpu.set_stream_busy(stream, end);
    for p in &ports {
        // The X-Bus is a shared aggregate resource: each flow occupies it
        // for size/aggregate_bw even though the flow itself runs at the
        // (lower) per-flow rate.
        let busy_until = if matches!(p, PortRef::XBus(_)) {
            start + rucx_sim::time::transfer_time(src.len, XBUS_AGGREGATE_GBPS)
        } else {
            end
        };
        gpu.set_port_busy(*p, busy_until);
    }
    s.count(crate::metrics::copy_path(path));

    s.schedule_at(end, move |w, s| {
        w.gpu()
            .pool
            .copy(src, dst)
            .expect("copy completed on freed memory");
        if let Some(t) = done {
            s.fire(t);
        }
    });
    end
}

/// Link-port identifiers used for contention accounting.
#[derive(Debug, Clone, Copy)]
pub enum PortRef {
    Egress(crate::device::DeviceId),
    Ingress(crate::device::DeviceId),
    XBus(usize),
}

/// Enqueue a kernel on `stream`; returns its completion time.
pub fn kernel_async<W: HasGpu>(
    w: &mut W,
    s: &mut Scheduler<W>,
    stream: StreamId,
    cost: KernelCost,
    done: Option<Trigger>,
) -> Time {
    let now = s.now();
    let gpu = w.gpu();
    let start = now.max(gpu.stream_busy(stream));
    let end = start + cost.duration();
    gpu.set_stream_busy(stream, end);
    s.count(crate::metrics::KERNEL);
    if let Some(t) = done {
        s.schedule_at(end, move |_, s| s.fire(t));
    }
    end
}

/// Occupy the resources of a peer-to-peer device transfer (src egress, dst
/// ingress, X-Bus if cross-socket, and the driving stream) for a transfer of
/// precomputed duration `dur`; returns the completion time. Used by the
/// communication layer for DMA it drives itself (CUDA-IPC reads), where the
/// data movement is accounted separately.
pub fn occupy_transfer<W: HasGpu>(
    w: &mut W,
    s: &mut Scheduler<W>,
    src_dev: crate::device::DeviceId,
    dst_dev: crate::device::DeviceId,
    stream: StreamId,
    dur: rucx_sim::time::Duration,
    size: u64,
) -> Time {
    let now = s.now();
    let gpu = w.gpu();
    let cross = gpu.device(src_dev).socket != gpu.device(dst_dev).socket;
    let node = gpu.device(src_dev).node;
    if src_dev != dst_dev {
        let path = if cross {
            CopyPath::XBus
        } else {
            CopyPath::NvLink
        };
        if let Some(m) = crate::metrics::transfer_path(path) {
            s.count(m);
        }
    }
    let mut start = now
        .max(gpu.stream_busy(stream))
        .max(gpu.egress_busy(src_dev))
        .max(gpu.ingress_busy(dst_dev));
    if cross {
        start = start.max(gpu.xbus_busy(node));
    }
    let end = start + dur;
    gpu.set_stream_busy(stream, end);
    gpu.set_port_busy(PortRef::Egress(src_dev), end);
    gpu.set_port_busy(PortRef::Ingress(dst_dev), end);
    if cross {
        // Shared aggregate resource (see `copy_async`).
        let occ = start + rucx_sim::time::transfer_time(size, XBUS_AGGREGATE_GBPS);
        gpu.set_port_busy(PortRef::XBus(node), occ);
    }
    end
}

/// One leg of a striped multi-path device-to-device transfer: the path it
/// rides and the bytes assigned to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripedLeg {
    pub path: CopyPath,
    pub bytes: u64,
}

/// Occupy the resources of a *striped* peer-to-peer transfer: the legs run
/// concurrently over distinct links (NVLink + X-Bus, or X-Bus + a pinned
/// host bounce), each carrying its share of the bytes. Unlike
/// [`occupy_transfer`], the legs do not serialize against each other — the
/// whole point of striping is driving both links at once with separate copy
/// engines — but the transfer as a whole still waits for the driving
/// stream, the source egress and destination ingress ports, and each leg's
/// own shared-link state.
///
/// Returns `(leg_starts, end)`: per-leg start times (after `setup`, in the
/// order given) and the overall completion time. Stream and both device
/// ports are held until `end`; an X-Bus leg additionally occupies the
/// node's aggregate X-Bus for its share.
pub fn occupy_striped<W: HasGpu>(
    w: &mut W,
    s: &mut Scheduler<W>,
    src_dev: crate::device::DeviceId,
    dst_dev: crate::device::DeviceId,
    stream: StreamId,
    setup: rucx_sim::time::Duration,
    legs: &[StripedLeg],
) -> (Vec<Time>, Time) {
    let now = s.now();
    let gpu = w.gpu();
    let node = gpu.device(src_dev).node;
    let base = now
        .max(gpu.stream_busy(stream))
        .max(gpu.egress_busy(src_dev))
        .max(gpu.ingress_busy(dst_dev))
        + setup;
    let mut starts = Vec::with_capacity(legs.len());
    let mut end = base;
    for leg in legs {
        let start = if leg.path == CopyPath::XBus {
            base.max(gpu.xbus_busy(node))
        } else {
            base
        };
        let dur = match leg.path {
            // Degraded secondary leg: a pinned-host bounce pays the
            // CPU-GPU link twice (D2H then H2D).
            CopyPath::HostPinnedLink => 2 * wire_time(leg.path, leg.bytes),
            _ => wire_time(leg.path, leg.bytes),
        };
        let leg_end = start + dur;
        if leg.path == CopyPath::XBus {
            let occ = start + rucx_sim::time::transfer_time(leg.bytes, XBUS_AGGREGATE_GBPS);
            gpu.set_port_busy(PortRef::XBus(node), occ);
        }
        if let Some(m) = crate::metrics::transfer_path(leg.path) {
            s.count(m);
        }
        starts.push(start);
        end = end.max(leg_end);
    }
    gpu.set_stream_busy(stream, end);
    gpu.set_port_busy(PortRef::Egress(src_dev), end);
    gpu.set_port_busy(PortRef::Ingress(dst_dev), end);
    (starts, end)
}

/// Occupy a device's egress port and a stream for `dur` (device-to-host
/// staging leg driven by the communication layer). Returns completion time.
pub fn occupy_egress<W: HasGpu>(
    w: &mut W,
    s: &mut Scheduler<W>,
    dev: crate::device::DeviceId,
    stream: StreamId,
    dur: rucx_sim::time::Duration,
) -> Time {
    let now = s.now();
    let gpu = w.gpu();
    let start = now.max(gpu.stream_busy(stream)).max(gpu.egress_busy(dev));
    let end = start + dur;
    gpu.set_stream_busy(stream, end);
    gpu.set_port_busy(PortRef::Egress(dev), end);
    end
}

/// Occupy a device's ingress port and a stream for `dur` (host-to-device
/// staging leg driven by the communication layer). Returns completion time.
pub fn occupy_ingress<W: HasGpu>(
    w: &mut W,
    s: &mut Scheduler<W>,
    dev: crate::device::DeviceId,
    stream: StreamId,
    dur: rucx_sim::time::Duration,
) -> Time {
    let now = s.now();
    let gpu = w.gpu();
    let start = now.max(gpu.stream_busy(stream)).max(gpu.ingress_busy(dev));
    let end = start + dur;
    gpu.set_stream_busy(stream, end);
    gpu.set_port_busy(PortRef::Ingress(dev), end);
    end
}

/// Create a trigger that fires when every operation already enqueued on
/// `stream` has completed (CUDA `cudaStreamSynchronize` semantics: later
/// enqueues are not waited for).
pub fn stream_sync_trigger<W: HasGpu>(
    w: &mut W,
    s: &mut Scheduler<W>,
    stream: StreamId,
) -> Trigger {
    let t = s.new_trigger();
    let busy = w.gpu().stream_busy(stream);
    if busy <= s.now() {
        s.fire(t);
    } else {
        s.schedule_at(busy, move |_, s| s.fire(t));
    }
    t
}
