//! Asynchronous GPU operations: copies, kernels, stream synchronization.
//!
//! These mirror the CUDA calls the paper's software stack uses
//! (`cudaMemcpyAsync`, kernel launches, `cudaStreamSynchronize`), with
//! explicit virtual-time costs. CPU-side launch overhead is modeled by the
//! *caller* advancing its process clock by [`crate::device::COPY_LAUNCH`] /
//! [`crate::device::KERNEL_LAUNCH`] — the functions here model the device
//! side only (queueing, DMA, link occupancy).

use rucx_sim::sched::{Scheduler, Trigger};
use rucx_sim::time::{Duration, Time};

use crate::device::{path_gbps, wire_time, CopyPath, DeviceId, KernelCost};
use crate::mem::{MemKind, MemRef};
use crate::subsystem::{GpuSubsystem, HasGpu, PortRef, StreamId};

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

/// The link ports a copy along `path` holds: the source device's egress,
/// the destination device's ingress, and the node's X-Bus on a
/// cross-socket path. Host endpoints hold no GPU port.
pub fn copy_ports(
    gpu: &GpuSubsystem,
    src: MemKind,
    dst: MemKind,
    path: CopyPath,
) -> impl Iterator<Item = PortRef> + Clone {
    let device = |k| match k {
        MemKind::Device(d) => Some(d),
        _ => None,
    };
    let (sd, dd) = (device(src), device(dst));
    let xbus = sd
        .filter(|_| path == CopyPath::XBus)
        .map(|d| PortRef::XBus(gpu.device(d).node));
    [sd.map(PortRef::Egress), dd.map(PortRef::Ingress), xbus]
        .into_iter()
        .flatten()
}

/// Enqueue an asynchronous copy on `stream`; returns the completion time.
///
/// The copy is booked on the stream and its [`copy_ports`]; data becomes
/// visible in the destination at completion, when `done` (if any) fires.
pub fn copy_async<W: HasGpu>(
    w: &mut W,
    s: &mut Scheduler<W>,
    src: MemRef,
    dst: MemRef,
    stream: StreamId,
    done: Option<Trigger>,
) -> Time {
    assert_eq!(src.len, dst.len, "copy length mismatch");
    let gpu = w.gpu();
    let src_kind = gpu.pool.kind(src.id).expect("copy from bad handle");
    let dst_kind = gpu.pool.kind(dst.id).expect("copy to bad handle");
    let path = resolve_path(gpu, src_kind, dst_kind);
    let ports = copy_ports(gpu, src_kind, dst_kind, path);
    let dur = wire_time(path, src.len);
    let end = gpu.book(Some(stream), ports, s.now(), dur, src.len);
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

/// Enqueue a kernel on `stream`; returns its completion time.
pub fn kernel_async<W: HasGpu>(
    w: &mut W,
    s: &mut Scheduler<W>,
    stream: StreamId,
    cost: KernelCost,
    done: Option<Trigger>,
) -> Time {
    let end = w.gpu().book(Some(stream), [], s.now(), cost.duration(), 0);
    s.count(crate::metrics::KERNEL);
    if let Some(t) = done {
        s.schedule_at(end, move |_, s| s.fire(t));
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

impl StripedLeg {
    /// How many times a leg on `path` moves each byte over its link: a
    /// pinned-host bounce pays the CPU-GPU link twice (D2H, then H2D).
    fn passes(path: CopyPath) -> u32 {
        if path == CopyPath::HostPinnedLink {
            2
        } else {
            1
        }
    }

    /// Effective rate of a leg on `path`, in GB/s: what a planner splits
    /// the bytes by so that the legs finish together.
    pub fn gbps(path: CopyPath) -> f64 {
        path_gbps(path) / f64::from(Self::passes(path))
    }

    /// How long the leg keeps its link busy.
    pub fn duration(&self) -> Duration {
        u64::from(Self::passes(self.path)) * wire_time(self.path, self.bytes)
    }
}

/// Occupy the resources of a *striped* peer-to-peer transfer: the legs run
/// concurrently over distinct links (NVLink + X-Bus, or X-Bus + a pinned
/// host bounce), each carrying its share of the bytes. The legs do not
/// serialize against each other — the whole point of striping is driving
/// both links at once with separate copy engines — but the transfer as a
/// whole books the driving stream and the source egress and destination
/// ingress ports for `setup` first, and holds them until its slowest leg
/// ends; an X-Bus leg also books the node's X-Bus for its share.
///
/// Returns each leg's `(start, end)`, in the order given.
pub fn occupy_striped<W: HasGpu, const N: usize>(
    w: &mut W,
    s: &mut Scheduler<W>,
    src_dev: DeviceId,
    dst_dev: DeviceId,
    stream: StreamId,
    setup: Duration,
    legs: [StripedLeg; N],
) -> [(Time, Time); N] {
    let gpu = w.gpu();
    let node = gpu.device(src_dev).node;
    let ends = [PortRef::Egress(src_dev), PortRef::Ingress(dst_dev)];
    let base = gpu.book(Some(stream), ends, s.now(), setup, 0);
    let spans = legs.map(|leg| {
        let xbus = (leg.path == CopyPath::XBus).then_some(PortRef::XBus(node));
        let dur = leg.duration();
        let end = gpu.book(None, xbus, base, dur, leg.bytes);
        if let Some(m) = crate::metrics::transfer_path(leg.path) {
            s.count(m);
        }
        (end - dur, end)
    });
    // A zero-length booking at the slowest leg's end holds the stream and
    // both device ports until then.
    let last = spans.iter().fold(base, |t, &(_, end)| t.max(end));
    gpu.book(Some(stream), ends, last, 0, 0);
    spans
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
