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
//! 3. **Observed RTT.** A per-endpoint EWMA of reliability-ack round trips
//!    (first transmissions only, per Karn's rule) that `reliable.rs` feeds
//!    and the collective cost model in `rucx-coll` reads. It informs no
//!    protocol decision in this crate.

use std::sync::Arc;

use rucx_compat::idmap::IdMap;
use rucx_compat::sync::Mutex;
use rucx_fabric::net::RAILS_PER_NODE;
use rucx_fabric::{net_transfer, WireKind};
use rucx_fault::metrics as fm;
use rucx_gpu::device::{wire_time, CPU_GPU_GBPS, NVLINK_GBPS, XBUS_GBPS};
use rucx_gpu::{CopyPath, DeviceId, MemKind};
use rucx_sim::time::{Duration, Time};

use crate::config::{EAGER_THRESH_HOST, IPC_SYNC};
use crate::error::Protocol;
use crate::machine::Machine;
use crate::metrics as m;
use crate::proto::shm_occupy;
use crate::worker::MSched;

/// One leg of a striped transfer (re-exported from the GPU layer, which
/// accounts the concurrent link occupancy).
pub type Stripe = rucx_gpu::ops::StripedLeg;

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
// Per-endpoint observed RTT
// ---------------------------------------------------------------------------

/// Per-(sender, receiver) EWMA (α = 1/8) of clean ack round trips in ns,
/// Karn-filtered. Keyed lookups plus one order-independent minimum — map
/// order cannot leak into the schedule.
#[derive(Default)]
pub struct ProtocolEngine {
    rtt: IdMap<(u32, u32), u64>,
}

impl ProtocolEngine {
    /// Feed one clean (first-transmission) ack round trip for `key`.
    /// Public so model layers (and their tests) can prime it with
    /// out-of-band measurements.
    pub fn observe_rtt(&mut self, key: (u32, u32), rtt: u64) {
        // The first sample seeds the EWMA (the update below is then a no-op).
        let ewma = self.rtt.entry(key).or_insert(rtt);
        *ewma = *ewma + (rtt.max(*ewma) - *ewma) / 8 - ewma.saturating_sub(rtt) / 8;
    }

    /// Karn-filtered RTT EWMA for an endpoint; `None` before any sample.
    pub fn rtt(&self, key: (u32, u32)) -> Option<u64> {
        self.rtt.get(&key).copied()
    }

    /// Best observed RTT EWMA across *cross-node* endpoint pairs whose both
    /// ends are communicator participants (`rank < n`). Collective cost
    /// estimators use this so any participating pair's traffic — not just
    /// rank 0's — refreshes the inter-node alpha. Taking the minimum over a
    /// map iteration is order-independent, so determinism holds.
    pub fn cross_node_rtt(&self, topo: &rucx_fabric::Topology, n: usize) -> Option<u64> {
        self.rtt
            .iter()
            .filter(|&(&(a, b), _)| {
                (a as usize) < n && (b as usize) < n && !topo.same_node(a as usize, b as usize)
            })
            .map(|(_, &ewma)| ewma)
            .min()
    }
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

/// Striped legs for an intra-node device-to-device fetch, or empty when the
/// transfer should ride a single path. Byte shares are proportional to the
/// legs' bandwidths so both finish together; cross-socket pairs pair the
/// X-Bus with a pinned-host bounce (which pays the CPU-GPU link twice).
fn plan_stripes(w: &Machine, sd: DeviceId, dd: DeviceId, size: u64) -> Vec<Stripe> {
    // A stripe needs at least one byte per leg.
    if size < w.ucp.config.multipath_min.max(2) || sd == dd {
        return Vec::new();
    }
    let same_socket = w.gpu.device(sd).socket == w.gpu.device(dd).socket;
    let (pa, ga, pb, gb) = if same_socket {
        (CopyPath::NvLink, NVLINK_GBPS, CopyPath::XBus, XBUS_GBPS)
    } else {
        // The bounce moves every byte twice over the CPU-GPU link, so its
        // effective rate is half that link.
        (
            CopyPath::XBus,
            XBUS_GBPS,
            CopyPath::HostPinnedLink,
            CPU_GPU_GBPS / 2.0,
        )
    };
    let a = ((size as f64 * ga / (ga + gb)) as u64).clamp(1, size - 1);
    vec![
        Stripe { path: pa, bytes: a },
        Stripe {
            path: pb,
            bytes: size - a,
        },
    ]
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
                let stripes = plan_stripes(w, sd, dd, size);
                if !stripes.is_empty() {
                    fetch_intra_striped(w, s, sd, dd, recv_proc, stripes, finalize);
                    return;
                }
                // CUDA IPC: receiver-driven peer-to-peer DMA on the
                // receiver's UCX-internal stream, contending on device
                // ports / X-Bus.
                s.count(m::RNDV_IPC);
                let stream = w.ucp.ucx_streams[recv_proc];
                let path = if sd == dd {
                    CopyPath::OnDevice
                } else if w.gpu.device(sd).socket == w.gpu.device(dd).socket {
                    CopyPath::NvLink
                } else {
                    CopyPath::XBus
                };
                let dur = IPC_SYNC + wire_time(path, size);
                let end = rucx_gpu::ops::occupy_transfer(w, s, sd, dd, stream, dur, size);
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

/// The striped multi-path fetch: occupy all legs concurrently, then emit
/// per-leg chunk-completion events and merge them through a shared
/// countdown — the finalizer runs exactly once, when the last chunk of the
/// slowest leg lands. Chunk times are a deterministic interpolation of each
/// leg's own duration, so the completion order is a pure function of the
/// plan (the property the determinism suite pins across runs).
fn fetch_intra_striped<F>(
    w: &mut Machine,
    s: &mut MSched,
    sd: DeviceId,
    dd: DeviceId,
    recv_proc: usize,
    stripes: Vec<Stripe>,
    finalize: F,
) where
    F: FnOnce(&mut Machine, &mut MSched) + Send + 'static,
{
    s.count(m::RNDV_MULTIPATH);
    for leg in &stripes {
        if leg.path == CopyPath::HostPinnedLink {
            // The degraded secondary leg stages through pinned host memory.
            s.count(rucx_gpu::metrics::PATH_HOST_STAGED);
        }
    }
    let chunk = w.ucp.config.pipeline_chunk.max(1);
    let stream = w.ucp.ucx_streams[recv_proc];
    // Leg durations mirror `occupy_striped`'s accounting (the bounce leg
    // pays the CPU-GPU link twice).
    let durs: Vec<Duration> = stripes
        .iter()
        .map(|leg| {
            let t = wire_time(leg.path, leg.bytes);
            if leg.path == CopyPath::HostPinnedLink {
                2 * t
            } else {
                t
            }
        })
        .collect();
    let (starts, _end) = rucx_gpu::ops::occupy_striped(w, s, sd, dd, stream, IPC_SYNC, &stripes);

    let mut events: Vec<(Time, u64)> = Vec::new();
    for (li, leg) in stripes.iter().enumerate() {
        let n = leg.bytes.div_ceil(chunk).max(1);
        for j in 1..=n {
            // Interpolated completion of the j-th chunk; the last chunk
            // lands exactly at the leg's end.
            let t = starts[li] + durs[li] * j / n;
            let len = (j * leg.bytes / n) - ((j - 1) * leg.bytes / n);
            events.push((t, len));
        }
    }
    s.count_n(m::MULTIPATH_CHUNKS, events.len() as u64);

    let landed = last_of(events.len() as u64, finalize);
    for (i, (t, len)) in events.into_iter().enumerate() {
        let landed = landed.clone();
        let idx = i as u64;
        s.schedule_at(t, move |w, s| {
            s.trace_instant(m::TRACE_MP_CHUNK, recv_proc as u32, idx, len);
            landed(w, s);
        });
    }
}

/// A countdown over `n` chunk completions: each of them calls a clone of
/// the returned closure, and the `n`-th call runs `finalize` — exactly
/// once. Event closures must be `Send`, hence `Arc` and a lock, not `Rc`.
fn last_of<F>(n: u64, finalize: F) -> impl Fn(&mut Machine, &mut MSched) + Clone + Send + 'static
where
    F: FnOnce(&mut Machine, &mut MSched) + Send + 'static,
{
    let state = Arc::new(Mutex::new((n, Some(finalize))));
    move |w, s| {
        let last = {
            let mut st = state.lock();
            st.0 -= 1;
            if st.0 == 0 {
                st.1.take()
            } else {
                None
            }
        };
        if let Some(f) = last {
            f(w, s);
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
        (MemKind::Device(_), _) => {
            // D2H on the sender, then RDMA.
            let leg = wire_time(CopyPath::HostPinnedLink, size);
            s.count(m::RNDV_STAGED_INTER);
            s.count(rucx_gpu::metrics::PATH_HOST_STAGED);
            s.schedule_in(leg, move |w, s| {
                let _ = net_transfer(w, s, src_port, dst_port, size, WireKind::Host, finalize);
            });
        }
        (_, MemKind::Device(_)) => {
            // RDMA, then H2D on the receiver.
            s.count(m::RNDV_STAGED_INTER);
            s.count(rucx_gpu::metrics::PATH_HOST_STAGED);
            let leg = wire_time(CopyPath::HostPinnedLink, size);
            net_transfer(
                w,
                s,
                src_port,
                dst_port,
                size,
                WireKind::Host,
                move |w, s| {
                    let _ = w;
                    s.schedule_in(leg, finalize);
                },
            );
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
        let path = CopyPath::HostPinnedLink;
        let dur = wire_time(path, len);
        let d2h_end = rucx_gpu::ops::occupy_egress(w, s, src_dev, src_stream, dur);
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
                let h2d_end = rucx_gpu::ops::occupy_ingress(w, s, dst_dev, dst_stream, h2d_dur);
                s.schedule_at(h2d_end, landed);
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{build_sim, MachineConfig};
    use rucx_fabric::Topology;

    #[test]
    fn stripes_split_proportionally_and_cover_the_bytes() {
        let sim = build_sim(Topology::summit(1), MachineConfig::default());
        let w = sim.world();
        let size = 16u64 << 20;
        let legs = plan_stripes(w, DeviceId(0), DeviceId(1), size);
        assert_eq!(legs.len(), 2);
        assert_eq!(legs[0].path, CopyPath::NvLink);
        assert_eq!(legs[1].path, CopyPath::XBus);
        assert_eq!(legs[0].bytes + legs[1].bytes, size);
        // NVLink is faster, so it carries the larger share.
        assert!(legs[0].bytes > legs[1].bytes);

        // Cross-socket: X-Bus plus the pinned-host bounce.
        let legs = plan_stripes(w, DeviceId(0), DeviceId(4), size);
        assert_eq!(legs[0].path, CopyPath::XBus);
        assert_eq!(legs[1].path, CopyPath::HostPinnedLink);
        assert_eq!(legs[0].bytes + legs[1].bytes, size);

        // Below the floor or on-device: single path.
        assert!(plan_stripes(w, DeviceId(0), DeviceId(1), 1 << 20).is_empty());
        assert!(plan_stripes(w, DeviceId(0), DeviceId(0), size).is_empty());
    }

    #[test]
    fn stripes_need_a_byte_per_leg() {
        let mut cfg = MachineConfig::default();
        cfg.ucp.multipath_min = 0;
        let sim = build_sim(Topology::summit(1), cfg);
        let w = sim.world();
        for size in [0u64, 1] {
            assert!(plan_stripes(w, DeviceId(0), DeviceId(1), size).is_empty());
        }
        for size in [2u64, 3] {
            let legs = plan_stripes(w, DeviceId(0), DeviceId(1), size);
            assert_eq!(legs.len(), 2, "size={size}");
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
            sim.run();
        }
    }

    #[test]
    fn rtt_ewma_is_karn_fed_and_converges() {
        let mut e = ProtocolEngine::default();
        let key = (0, 6);
        assert_eq!(e.rtt(key), None);
        e.observe_rtt(key, 8_000);
        assert_eq!(e.rtt(key), Some(8_000));
        for _ in 0..64 {
            e.observe_rtt(key, 16_000);
        }
        let r = e.rtt(key).unwrap();
        assert!(r > 14_000 && r <= 16_000, "r={r}");
        for _ in 0..64 {
            e.observe_rtt(key, 4_000);
        }
        let r = e.rtt(key).unwrap();
        assert!(r >= 4_000 && r < 6_000, "r={r}");
    }
}
