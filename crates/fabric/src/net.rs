//! Inter-node network model: EDR InfiniBand with one NIC per node.
//!
//! An α-β (latency-bandwidth) model with cut-through routing and NIC port
//! serialization: a message injected at time `t` arrives at
//! `t + injection + hops·hop_latency + size/bw`, and occupies the sender's
//! TX port and the receiver's RX port for `size/bw` each, which is what
//! creates contention when six processes on a node share the NIC (visible in
//! the Jacobi3D scaling experiments).

use rucx_sim::sched::Scheduler;
use rucx_sim::time::{transfer_time, us, Duration, Time};

/// What kind of memory the wire transfer touches on its endpoints; selects
/// the effective bandwidth (GPUDirect RDMA reads run slightly below the host
/// path on PCIe-attached NICs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireKind {
    /// Host-to-host RDMA.
    Host,
    /// At least one endpoint is GPU memory accessed via GPUDirect RDMA.
    Gdr,
}

// Calibration constants of the network: Summit EDR InfiniBand.

/// Peak per-NIC bandwidth, host path (paper: 12.5 GB/s).
pub const NIC_GBPS: f64 = 12.2;
/// Effective bandwidth for GPUDirect RDMA transfers.
pub const GDR_GBPS: f64 = 11.0;
/// Per-message software injection overhead (post WQE, doorbell).
pub const INJECTION: Duration = us(0.35);
/// Per-hop switch latency.
pub const HOP_LATENCY: Duration = us(0.30);
/// Number of switch hops between any two nodes (fat tree, uniform).
pub const HOPS: u32 = 3;
/// Independent NIC rails per node (Summit: dual-rail EDR, one port per
/// CPU socket). A single point-to-point stream uses one rail; a full
/// node of processes can drive all of them.
pub const RAILS_PER_NODE: usize = 2;

/// Latency of the unloaded pipe: injection plus every switch hop.
pub const PIPE_LATENCY: Duration = INJECTION + HOP_LATENCY * HOPS as Duration;

fn wire_gbps(kind: WireKind) -> f64 {
    match kind {
        WireKind::Host => NIC_GBPS,
        WireKind::Gdr => GDR_GBPS,
    }
}

/// Index of `(node, rail)` in the per-port busy tables.
fn port(node: usize, rail: usize) -> usize {
    node * RAILS_PER_NODE + rail % RAILS_PER_NODE
}

/// Unloaded one-way wire time for `size` bytes.
pub fn wire_time(size: u64, kind: WireKind) -> Duration {
    PIPE_LATENCY + transfer_time(size, wire_gbps(kind))
}

/// World component: network state for the cluster.
pub struct NetSubsystem {
    /// Link bandwidth-degradation schedule from a loaded fault spec; `None`
    /// on clean runs (the common case pays one `Option` check).
    pub link_faults: Option<rucx_fault::LinkFaults>,
    nodes: usize,
    tx_busy: Vec<Time>,
    rx_busy: Vec<Time>,
    bytes_sent: u64,
    messages_sent: u64,
}

impl NetSubsystem {
    pub fn new(nodes: usize) -> Self {
        NetSubsystem {
            link_faults: None,
            nodes,
            tx_busy: vec![0; nodes * RAILS_PER_NODE],
            rx_busy: vec![0; nodes * RAILS_PER_NODE],
            bytes_sent: 0,
            messages_sent: 0,
        }
    }

    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// How long the TX port of `(node, rail)` is already committed past
    /// `now` — the serialization backlog a new injection on that rail would
    /// queue behind. Zero when the rail is idle. This is the link-occupancy
    /// signal the protocol engine reads when balancing pipeline chunks
    /// across a node's rails.
    pub fn tx_backlog(&self, node: usize, rail: usize, now: Time) -> Duration {
        self.tx_busy[port(node, rail)].saturating_sub(now)
    }

    /// Total payload bytes ever injected.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Total messages ever injected.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }
}

/// World types that contain a network subsystem.
pub trait HasNet: Sized + 'static {
    fn net(&mut self) -> &mut NetSubsystem;
    fn net_ref(&self) -> &NetSubsystem;
}

impl HasNet for NetSubsystem {
    fn net(&mut self) -> &mut NetSubsystem {
        self
    }
    fn net_ref(&self) -> &NetSubsystem {
        self
    }
}

/// Inject a message of `size` bytes from `(src_node, src_rail)` to
/// `(dst_node, dst_rail)`; `done` runs (on the driver thread) at arrival
/// time, which is also returned. The rail is the NIC port a process uses
/// (its socket, on Summit).
///
/// The payload itself is not moved here — the communication layer above
/// copies bytes between memory pools when the transfer completes, keeping
/// the wire model payload-agnostic.
#[allow(clippy::too_many_arguments)]
pub fn net_transfer<W, F>(
    w: &mut W,
    s: &mut Scheduler<W>,
    (src_node, src_rail): (usize, usize),
    (dst_node, dst_rail): (usize, usize),
    size: u64,
    kind: WireKind,
    done: F,
) -> Time
where
    W: HasNet,
    F: FnOnce(&mut W, &mut Scheduler<W>) + Send + 'static,
{
    assert_ne!(src_node, dst_node, "net_transfer is inter-node only");
    let now = s.now();
    let net = w.net();
    let mut bw = wire_gbps(kind);
    if let Some(lf) = &net.link_faults {
        bw *= lf.bw_factor(src_node, dst_node, now);
    }
    let serialize = transfer_time(size, bw);
    // TX and RX ports are decoupled (switches buffer in between): the
    // sender serializes onto its link as soon as that link is free; the
    // receiver's port serializes deliveries independently. Uncontended,
    // this reduces to cut-through: arrival = start + serialize + latency.
    let tx_port = port(src_node, src_rail);
    let rx_port = port(dst_node, dst_rail);
    let tx_start = now.max(net.tx_busy[tx_port]);
    let tx_end = tx_start + serialize;
    net.tx_busy[tx_port] = tx_end;
    let rx_start = (tx_start + PIPE_LATENCY).max(net.rx_busy[rx_port]);
    let arrival = rx_start + serialize;
    net.rx_busy[rx_port] = arrival;
    net.bytes_sent += size;
    net.messages_sent += 1;
    s.count(crate::metrics::msg(kind));
    // Link occupancy span: the window this message holds the TX port.
    s.trace_span(
        crate::metrics::TRACE_LINK_BUSY,
        tx_start,
        tx_end,
        src_node as u32,
        tx_port as u64,
        size,
    );
    s.schedule_at(arrival, done);
    arrival
}

#[cfg(test)]
mod tests {
    use super::*;
    use rucx_sim::{RunOutcome, Simulation};

    fn sys(nodes: usize) -> NetSubsystem {
        NetSubsystem::new(nodes)
    }

    #[test]
    fn small_message_latency_is_alpha() {
        let t = wire_time(8, WireKind::Host);
        // ~1.25 us + ~1 ns wire: small messages are latency-bound.
        assert!(t >= us(1.2) && t <= us(1.4), "t={t}");
    }

    #[test]
    fn large_message_bandwidth_bound() {
        let size = 4u64 << 20;
        let t = wire_time(size, WireKind::Host);
        let bw = rucx_sim::time::bandwidth_mbps(size, t);
        assert!((bw - 12_200.0).abs() / 12_200.0 < 0.02, "bw={bw}");
    }

    #[test]
    fn gdr_slower_than_host_path() {
        let size = 1u64 << 20;
        assert!(wire_time(size, WireKind::Gdr) > wire_time(size, WireKind::Host));
    }

    #[test]
    fn transfer_schedules_completion() {
        let mut sim = Simulation::new(sys(2));
        let expected = wire_time(1 << 20, WireKind::Host);
        sim.scheduler().schedule_at(0, move |w, s| {
            net_transfer(
                w,
                s,
                (0, 0),
                (1, 0),
                1 << 20,
                WireKind::Host,
                move |_, s| {
                    const ARRIVED: rucx_sim::Metric = rucx_sim::Metric::counter("arrived");
                    assert_eq!(s.now(), expected);
                    s.count(ARRIVED);
                },
            );
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(sim.metrics().get("arrived"), 1);
        assert_eq!(sim.metrics().get("net.msg.host"), 1);
        assert_eq!(sim.world().messages_sent(), 1);
        assert_eq!(sim.world().bytes_sent(), 1 << 20);
    }

    #[test]
    fn tx_port_serializes_two_senders_from_same_node() {
        let mut sim = Simulation::new(sys(3));
        let size = 4u64 << 20;
        sim.scheduler().schedule_at(0, move |w, s| {
            let a1 = net_transfer(w, s, (0, 0), (1, 0), size, WireKind::Host, |_, _| {});
            let a2 = net_transfer(w, s, (0, 0), (2, 0), size, WireKind::Host, |_, _| {});
            let serialize = transfer_time(size, NIC_GBPS);
            assert!(a2 >= a1 + serialize - 1, "a1={a1} a2={a2}");
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
    }

    #[test]
    fn rx_port_serializes_two_senders_to_same_node() {
        let mut sim = Simulation::new(sys(3));
        let size = 4u64 << 20;
        sim.scheduler().schedule_at(0, move |w, s| {
            let a1 = net_transfer(w, s, (0, 0), (2, 0), size, WireKind::Host, |_, _| {});
            let a2 = net_transfer(w, s, (1, 0), (2, 0), size, WireKind::Host, |_, _| {});
            let serialize = transfer_time(size, NIC_GBPS);
            assert!(a2 >= a1 + serialize - 1, "a1={a1} a2={a2}");
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
    }

    #[test]
    fn disjoint_pairs_do_not_contend() {
        let mut sim = Simulation::new(sys(4));
        let size = 4u64 << 20;
        sim.scheduler().schedule_at(0, move |w, s| {
            let a1 = net_transfer(w, s, (0, 0), (1, 0), size, WireKind::Host, |_, _| {});
            let a2 = net_transfer(w, s, (2, 0), (3, 0), size, WireKind::Host, |_, _| {});
            assert_eq!(a1, a2);
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
    }

    #[test]
    fn degraded_link_halves_effective_bandwidth() {
        let mut spec = rucx_fault::FaultSpec::default();
        spec.degrade.push(rucx_fault::DegradeWindow {
            from: 0,
            until: u64::MAX,
            factor: 0.5,
        });
        let lf = rucx_fault::FaultState::from_spec(spec)
            .link_faults()
            .unwrap();
        let mut net = sys(2);
        net.link_faults = Some(lf);
        let mut sim = Simulation::new(net);
        let size = 4u64 << 20;
        sim.scheduler().schedule_at(0, move |w, s| {
            let arrival = net_transfer(w, s, (0, 0), (1, 0), size, WireKind::Host, |_, _| {});
            let clean = wire_time(size, WireKind::Host);
            let degraded = PIPE_LATENCY + transfer_time(size, NIC_GBPS * 0.5);
            assert!(arrival > clean, "degradation must slow the wire");
            // Allow 1 ns of integer rounding.
            assert!(
                arrival.abs_diff(degraded) <= 1,
                "arrival={arrival} want={degraded}"
            );
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
    }

    #[test]
    #[should_panic(expected = "inter-node only")]
    fn loopback_rejected() {
        let mut sim = Simulation::new(sys(2));
        sim.scheduler().schedule_at(0, |w, s| {
            net_transfer(w, s, (1, 0), (1, 0), 8, WireKind::Host, |_, _| {});
        });
        let _ = sim.run();
    }
}
