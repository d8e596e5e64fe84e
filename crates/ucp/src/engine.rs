//! The protocol engine: every eager/rendezvous/chunk/path decision the UCP
//! layer makes, in one place.
//!
//! The static table — [`crate::UcpConfig`] (device eager threshold, pipeline
//! chunk, GDR on/off) plus the constants beside it in [`crate::config`] — is
//! the paper's frozen Summit configuration, and it is the only source of
//! protocol parameters. This module holds:
//!
//! 1. **The decision surface.** [`plan_send`] decides eager vs rendezvous
//!    from the table; the `fetch_*` family decides transport rung,
//!    chunking, and striping. `proto.rs` keeps the mechanics and asks here.
//! 2. **Striped multi-path rendezvous.** Following Sojoodi et al.
//!    (PAPERS.md), an intra-node device-to-device fetch of at least
//!    `multipath_min` bytes is split into per-path legs driven concurrently
//!    over NVLink and the X-Bus (or the X-Bus plus a pinned-host bounce
//!    when the peers sit on different sockets), with per-chunk completion
//!    events merged through a shared countdown so the finalizer runs
//!    exactly once, at the completion of the slowest leg.

use std::sync::Arc;

use rucx_compat::sync::Mutex;
use rucx_fabric::net::RAILS_PER_NODE;
use rucx_fabric::{net_transfer, WireKind};
use rucx_fault::metrics as fm;
use rucx_gpu::device::wire_time;
use rucx_gpu::ops::StripedLeg;
use rucx_gpu::{copy_ports, resolve_path, CopyPath, DeviceId, MemKind, PortRef};
use rucx_sim::time::Time;

use crate::config::{EAGER_THRESH_HOST, IPC_SYNC};
use crate::error::Protocol;
use crate::machine::Machine;
use crate::metrics as m;
use crate::proto::shm_occupy;
use crate::worker::MSched;

/// NIC rail a process uses by default: its CPU socket (Summit: dual-rail,
/// one port per socket).
fn rail(w: &Machine, proc: usize) -> usize {
    w.topo.socket_of(proc)
}

/// The `(node, rail)` NIC ports an inter-node transfer from process `src`
/// to process `dst` leaves and enters through.
pub(crate) fn ports(w: &Machine, src: usize, dst: usize) -> ((usize, usize), (usize, usize)) {
    (
        (w.topo.node_of(src), rail(w, src)),
        (w.topo.node_of(dst), rail(w, dst)),
    )
}

/// Least-backlogged TX rail on `node` at `now`, preferring `prefer` on
/// ties. Pipeline chunks use it to steer off a degraded link.
fn balanced_rail(w: &Machine, node: usize, prefer: usize, now: Time) -> usize {
    let mut best = prefer % RAILS_PER_NODE;
    let mut best_backlog = w.net.tx_backlog(node, best, now);
    for r in 0..RAILS_PER_NODE {
        let b = w.net.tx_backlog(node, r, now);
        if b < best_backlog {
            best = r;
            best_backlog = b;
        }
    }
    best
}

/// Whether `dev`'s GPU-direct paths (GDRCopy window, CUDA IPC mapping,
/// GPUDirect RDMA) are usable, degrading onto the host-staged ladder rung
/// when the fault spec has failed the device's copy engine. Each refusal is
/// observable: metric bump plus a trace instant at the affected process.
pub(crate) fn gpu_direct_ok(
    w: &mut Machine,
    s: &mut MSched,
    dev: DeviceId,
    proc: usize,
    size: u64,
) -> bool {
    if w.faults.enabled() && w.faults.gpudirect_lost(dev.index() as u32, s.now()) {
        s.count(fm::GPU_DEGRADED);
        s.mark(
            m::FALLBACK_HOST_STAGED,
            proc as u32,
            dev.index() as u64,
            size,
        );
        return false;
    }
    true
}

// ---------------------------------------------------------------------------
// Decision surface
// ---------------------------------------------------------------------------

/// Decide which protocol carries a send of `size` bytes of `kind` memory
/// from `src`. The short-circuit order matters: `gpu_direct_ok` (which bumps
/// fallback counters) is only consulted for device payloads already under
/// the eager threshold.
pub(crate) fn plan_send(
    w: &mut Machine,
    s: &mut MSched,
    src: usize,
    kind: MemKind,
    size: u64,
) -> Protocol {
    let eager = if let MemKind::Device(dev) = kind {
        // The GDRCopy bounce needs the sender's copy engine; a failed one
        // degrades the message to rendezvous, whose fetch paths re-check
        // per device and land on host staging.
        w.ucp.config.gdrcopy_enabled
            && size <= w.ucp.config.eager_thresh_device
            && gpu_direct_ok(w, s, dev, src, size)
    } else {
        size <= EAGER_THRESH_HOST
    };
    if eager {
        Protocol::Eager
    } else {
        Protocol::Rndv
    }
}

/// Striped legs for an intra-node device-to-device fetch whose single path
/// would be `path`, or `None` when the transfer should ride that path.
/// Byte shares are proportional to the legs' effective rates so both finish
/// together; cross-socket pairs pair the X-Bus with a pinned-host bounce.
fn plan_stripes(w: &Machine, path: CopyPath, size: u64) -> Option<[StripedLeg; 2]> {
    let (pa, pb) = match path {
        CopyPath::NvLink => (CopyPath::NvLink, CopyPath::XBus),
        CopyPath::XBus => (CopyPath::XBus, CopyPath::HostPinnedLink),
        _ => return None,
    };
    // A stripe needs at least one byte per leg.
    if size < w.ucp.config.multipath_min.max(2) {
        return None;
    }
    let (ga, gb) = (StripedLeg::gbps(pa), StripedLeg::gbps(pb));
    let a = ((size as f64 * ga / (ga + gb)) as u64).clamp(1, size - 1);
    Some([
        StripedLeg { path: pa, bytes: a },
        StripedLeg {
            path: pb,
            bytes: size - a,
        },
    ])
}

// ---------------------------------------------------------------------------
// Rendezvous fetch paths
// ---------------------------------------------------------------------------

/// Intra-node rendezvous: CUDA IPC DMA when both sides are devices
/// (striped across both links when the plan says so), a staged CPU-GPU leg
/// for mixed pairs, CMA for host-to-host.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fetch_intra<F>(
    w: &mut Machine,
    s: &mut MSched,
    src_kind: MemKind,
    dst_kind: MemKind,
    size: u64,
    recv_proc: usize,
    src_proc: usize,
    finalize: F,
) where
    F: FnOnce(&mut Machine, &mut MSched) + Send + 'static,
{
    match (src_kind, dst_kind) {
        (MemKind::Device(sd), MemKind::Device(dd)) => {
            if gpu_direct_ok(w, s, sd, src_proc, size) && gpu_direct_ok(w, s, dd, recv_proc, size) {
                let path = resolve_path(&w.gpu, src_kind, dst_kind);
                if let Some(legs) = plan_stripes(w, path, size) {
                    fetch_intra_striped(w, s, sd, dd, recv_proc, legs, finalize);
                    return;
                }
                // CUDA IPC: receiver-driven peer-to-peer DMA on the
                // receiver's UCX-internal stream, contending on device
                // ports / X-Bus.
                s.count(m::RNDV_IPC);
                if let Some(metric) = rucx_gpu::metrics::transfer_path(path) {
                    s.count(metric);
                }
                let stream = w.ucp.ucx_streams[recv_proc];
                let ports = copy_ports(&w.gpu, src_kind, dst_kind, path);
                let dur = IPC_SYNC + wire_time(path, size);
                let end = w.gpu.book(Some(stream), ports, s.now(), dur, size);
                s.schedule_at(end, finalize);
            } else {
                // The peer mapping needs both copy engines; a failed one
                // degrades onto the staged path.
                fetch_intra_staged(w, s, size, recv_proc, src_proc, finalize);
            }
        }
        (MemKind::Device(_), _) | (_, MemKind::Device(_)) => {
            fetch_intra_staged(w, s, size, recv_proc, src_proc, finalize);
        }
        _ => {
            // Host-to-host: CMA single copy (serial per pair).
            s.count(m::RNDV_CMA);
            let end = shm_occupy(w, src_proc, recv_proc, s.now(), size);
            s.schedule_at(end, finalize);
        }
    }
}

/// The striped multi-path fetch: occupy all legs concurrently, record each
/// chunk's completion as a trace instant at its own time, and run the
/// finalizer once, when the slowest leg ends. Chunk times are a
/// deterministic interpolation of each leg's own duration, so the
/// completion trace is a pure function of the plan (the property the
/// determinism suite pins across runs).
fn fetch_intra_striped<F>(
    w: &mut Machine,
    s: &mut MSched,
    sd: DeviceId,
    dd: DeviceId,
    recv_proc: usize,
    legs: [StripedLeg; 2],
    finalize: F,
) where
    F: FnOnce(&mut Machine, &mut MSched) + Send + 'static,
{
    s.count(m::RNDV_MULTIPATH);
    for leg in &legs {
        if leg.path == CopyPath::HostPinnedLink {
            // The degraded secondary leg stages through pinned host memory.
            s.count(rucx_gpu::metrics::PATH_HOST_STAGED);
        }
    }
    let chunk = w.ucp.config.pipeline_chunk.max(1);
    let stream = w.ucp.ucx_streams[recv_proc];
    let spans = rucx_gpu::ops::occupy_striped(w, s, sd, dd, stream, IPC_SYNC, legs);

    let mut idx = 0;
    for (leg, (start, end)) in legs.iter().zip(spans) {
        let n = leg.bytes.div_ceil(chunk).max(1);
        for j in 1..=n {
            // Interpolated completion of the j-th chunk; the last chunk
            // lands exactly at the leg's end.
            let t = start + (end - start) * j / n;
            let len = (j * leg.bytes / n) - ((j - 1) * leg.bytes / n);
            s.trace
                .instant(m::TRACE_MP_CHUNK, t, recv_proc as u32, idx, len);
            idx += 1;
        }
    }
    s.count_n(m::MULTIPATH_CHUNKS, idx);
    s.schedule_at(spans[0].1.max(spans[1].1), finalize);
}

/// A countdown over `n` calls: the `n`-th call to a clone of the returned
/// closure hands back `finalize`, every other call `None`. Event closures
/// must be `Send`, hence `Arc` and a lock, not `Rc`.
fn last_of<F: Send + 'static>(
    n: u64,
    finalize: F,
) -> impl Fn() -> Option<F> + Clone + Send + 'static {
    let state = Arc::new(Mutex::new((n, Some(finalize))));
    move || {
        let mut st = state.lock();
        st.0 -= 1;
        if st.0 == 0 {
            st.1.take()
        } else {
            None
        }
    }
}

/// Intra-node staged path: one leg over the CPU-GPU link plus the shm
/// handoff. Both the mixed-pair rung and the degraded device-device rung.
pub(crate) fn fetch_intra_staged<F>(
    w: &mut Machine,
    s: &mut MSched,
    size: u64,
    recv_proc: usize,
    src_proc: usize,
    finalize: F,
) where
    F: FnOnce(&mut Machine, &mut MSched) + Send + 'static,
{
    let leg = wire_time(CopyPath::HostPinnedLink, size);
    s.count(m::RNDV_STAGED_INTRA);
    s.count(rucx_gpu::metrics::PATH_HOST_STAGED);
    let end = shm_occupy(w, src_proc, recv_proc, s.now(), size) + leg;
    s.schedule_at(end, finalize);
}

/// Inter-node rendezvous.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fetch_inter<F>(
    w: &mut Machine,
    s: &mut MSched,
    src_kind: MemKind,
    dst_kind: MemKind,
    size: u64,
    recv_proc: usize,
    src_proc: usize,
    finalize: F,
) where
    F: FnOnce(&mut Machine, &mut MSched) + Send + 'static,
{
    let (src_port, dst_port) = ports(w, src_proc, recv_proc);
    match (src_kind, dst_kind) {
        (MemKind::Device(sd), MemKind::Device(dd)) => {
            // Direct GPUDirect RDMA needs working copy engines on both
            // ends; otherwise (or by default) the pipelined host-staging
            // path carries the transfer — it is the fallback rung, so a
            // mid-pipeline copy-engine failure degrades to it seamlessly.
            if w.ucp.config.direct_gdr_rndv
                && gpu_direct_ok(w, s, sd, src_proc, size)
                && gpu_direct_ok(w, s, dd, recv_proc, size)
            {
                s.count(m::RNDV_GDR_DIRECT);
                net_transfer(w, s, src_port, dst_port, size, WireKind::Gdr, finalize);
            } else {
                pipeline_fetch(w, s, src_proc, recv_proc, size, finalize);
            }
        }
        (MemKind::Device(_), _) | (_, MemKind::Device(_)) => {
            // One CPU-GPU leg: D2H on the sender before the RDMA, or H2D on
            // the receiver after it.
            s.count(m::RNDV_STAGED_INTER);
            s.count(rucx_gpu::metrics::PATH_HOST_STAGED);
            let leg = wire_time(CopyPath::HostPinnedLink, size);
            if src_kind.is_device() {
                s.schedule_in(leg, move |w, s| {
                    net_transfer(w, s, src_port, dst_port, size, WireKind::Host, finalize);
                });
            } else {
                let h2d = move |_: &mut Machine, s: &mut MSched| s.schedule_in(leg, finalize);
                net_transfer(w, s, src_port, dst_port, size, WireKind::Host, h2d);
            }
        }
        _ => {
            // Zero-copy RDMA get.
            s.count(m::RNDV_RDMA);
            net_transfer(w, s, src_port, dst_port, size, WireKind::Host, finalize);
        }
    }
}

/// Whether the fault spec has a bandwidth-degradation window active on the
/// `(a, b)` node link right now. Consulted per pipeline chunk at wire-entry
/// time so the engine can steer chunks off a degraded rail; `None` link
/// faults (every clean run) answers without any scan.
fn link_degraded(w: &Machine, a: usize, b: usize, now: Time) -> bool {
    w.net
        .link_faults
        .as_ref()
        .is_some_and(|lf| lf.bw_factor(a, b, now) < 1.0)
}

/// The pipelined host-staging path for large inter-node device transfers:
/// chunks are staged D2H on the sender, sent over the wire, and staged H2D
/// on the receiver, all overlapped (§IV-B1). Chunks ride the sender's
/// socket rail; during a link-degrade window each chunk instead picks the
/// least-backlogged TX rail at wire-entry time, and every chunk steered off
/// the socket rail counts as a `ucp.reroute`.
fn pipeline_fetch<F>(
    w: &mut Machine,
    s: &mut MSched,
    src_proc: usize,
    recv_proc: usize,
    size: u64,
    finalize: F,
) where
    F: FnOnce(&mut Machine, &mut MSched) + Send + 'static,
{
    let chunk = w.ucp.config.pipeline_chunk.max(1);
    let nchunks = size.div_ceil(chunk);
    s.count_n(m::PIPELINE_CHUNKS, nchunks);
    s.count(m::RNDV_PIPELINE);
    s.count(rucx_gpu::metrics::PATH_HOST_STAGED);
    let (src_port, dst_port) = ports(w, src_proc, recv_proc);
    let src_dev = w.topo.device_of(src_proc);
    let dst_dev = w.topo.device_of(recv_proc);
    let src_stream = w.ucp.ucx_streams[src_proc];
    let dst_stream = w.ucp.ucx_streams[recv_proc];

    let landed = last_of(nchunks, finalize);

    for i in 0..nchunks {
        let len = chunk.min(size - i * chunk);
        // Sender-side D2H staging (serializes on the sender's UCX stream).
        let dur = wire_time(CopyPath::HostPinnedLink, len);
        let egress = [PortRef::Egress(src_dev)];
        let d2h_end = w.gpu.book(Some(src_stream), egress, s.now(), dur, len);
        // The sender-side D2H staging window of this chunk.
        s.trace_span(
            m::TRACE_PIPELINE_CHUNK,
            d2h_end.saturating_sub(dur),
            d2h_end,
            src_proc as u32,
            i,
            len,
        );
        let landed = landed.clone();
        s.schedule_at(d2h_end, move |w, s| {
            let now = s.now();
            let (sp, dp) = if link_degraded(w, src_port.0, dst_port.0, now) {
                let r = balanced_rail(w, src_port.0, src_port.1, now);
                if r != src_port.1 {
                    s.mark(m::REROUTE, src_proc as u32, i, len);
                }
                ((src_port.0, r), (dst_port.0, r))
            } else {
                (src_port, dst_port)
            };
            net_transfer(w, s, sp, dp, len, WireKind::Host, move |w, s| {
                let h2d_dur = wire_time(CopyPath::HostPinnedLink, len);
                let ingress = [PortRef::Ingress(dst_dev)];
                let h2d_end = w.gpu.book(Some(dst_stream), ingress, s.now(), h2d_dur, len);
                // H2D bookings serialise on the receiver's stream, so the
                // chunk that arrives last also lands last.
                if let Some(finalize) = landed() {
                    s.schedule_at(h2d_end, finalize);
                }
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{build_sim, MachineConfig};
    use rucx_fabric::Topology;

    /// The stripe plan for a fetch from device `a` to device `b`.
    fn stripes(w: &Machine, a: u32, b: u32, size: u64) -> Option<[StripedLeg; 2]> {
        let (a, b) = (MemKind::Device(DeviceId(a)), MemKind::Device(DeviceId(b)));
        plan_stripes(w, resolve_path(&w.gpu, a, b), size)
    }

    #[test]
    fn stripes_split_proportionally_and_cover_the_bytes() {
        let sim = build_sim(Topology::summit(1), MachineConfig::default());
        let w = sim.world();
        let size = 16u64 << 20;
        let legs = stripes(w, 0, 1, size).unwrap();
        assert_eq!(legs[0].path, CopyPath::NvLink);
        assert_eq!(legs[1].path, CopyPath::XBus);
        assert_eq!(legs[0].bytes + legs[1].bytes, size);
        // NVLink is faster, so it carries the larger share.
        assert!(legs[0].bytes > legs[1].bytes);

        // Cross-socket: X-Bus plus the pinned-host bounce.
        let legs = stripes(w, 0, 4, size).unwrap();
        assert_eq!(legs[0].path, CopyPath::XBus);
        assert_eq!(legs[1].path, CopyPath::HostPinnedLink);
        assert_eq!(legs[0].bytes + legs[1].bytes, size);

        // Below the floor or on-device: single path.
        assert!(stripes(w, 0, 1, 1 << 20).is_none());
        assert!(stripes(w, 0, 0, size).is_none());
    }

    #[test]
    fn stripes_need_a_byte_per_leg() {
        let mut cfg = MachineConfig::default();
        cfg.ucp.multipath_min = 0;
        let sim = build_sim(Topology::summit(1), cfg);
        let w = sim.world();
        for size in [0u64, 1] {
            assert!(stripes(w, 0, 1, size).is_none());
        }
        for size in [2u64, 3] {
            let legs = stripes(w, 0, 1, size).unwrap();
            assert!(legs.iter().all(|l| l.bytes >= 1), "size={size}");
            assert_eq!(legs[0].bytes + legs[1].bytes, size);
        }
    }

    #[test]
    fn plan_send_follows_the_static_table() {
        let host_mem = MemKind::Host { node: 0 };
        let dev = MemKind::Device(DeviceId(0));
        for gdrcopy in [true, false] {
            let mut cfg = MachineConfig::default();
            cfg.ucp.gdrcopy_enabled = gdrcopy;
            let (host, device) = (EAGER_THRESH_HOST, cfg.ucp.eager_thresh_device);
            // Without GDRCopy every device payload is a rendezvous.
            let device_at_thresh = if gdrcopy {
                Protocol::Eager
            } else {
                Protocol::Rndv
            };
            let table = [
                (host_mem, host, Protocol::Eager),
                (host_mem, host + 1, Protocol::Rndv),
                (dev, device, device_at_thresh),
                (dev, device + 1, Protocol::Rndv),
            ];
            let mut sim = build_sim(Topology::summit(1), cfg);
            sim.scheduler().schedule_at(0, move |w, s| {
                for (kind, size, want) in table {
                    let got = plan_send(w, s, 0, kind, size);
                    assert_eq!(got, want, "gdrcopy={gdrcopy} {kind:?} size={size}");
                }
            });
            crate::finish(&mut sim).unwrap();
        }
    }
}
