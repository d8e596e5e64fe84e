//! Inter-node network model: EDR InfiniBand with one NIC per node.
//!
//! An α-β (latency-bandwidth) model with cut-through routing and NIC port
//! serialization: a message injected at time `t` arrives at
//! `t + injection + hops·hop_latency + size/bw`, and occupies the sender's
//! TX port and the receiver's RX port for `size/bw` each, which is what
//! creates contention when six processes on a node share the NIC (visible in
//! the Jacobi3D scaling experiments).

use rucx_sim::sched::Scheduler;
use rucx_sim::stats::Counters;
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

/// Calibration constants for the network (defaults: Summit EDR InfiniBand).
#[derive(Debug, Clone)]
pub struct NetParams {
    /// Peak per-NIC bandwidth, host path (paper: 12.5 GB/s).
    pub nic_gbps: f64,
    /// Effective bandwidth for GPUDirect RDMA transfers.
    pub gdr_gbps: f64,
    /// Per-message software injection overhead (post WQE, doorbell).
    pub injection: Duration,
    /// Per-hop switch latency.
    pub hop_latency: Duration,
    /// Number of switch hops between any two nodes (fat tree, uniform).
    pub hops: u32,
    /// Independent NIC rails per node (Summit: dual-rail EDR, one port per
    /// CPU socket). A single point-to-point stream uses one rail; a full
    /// node of processes can drive all of them.
    pub rails_per_node: usize,
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams {
            nic_gbps: 12.2,
            gdr_gbps: 11.0,
            injection: us(0.35),
            hop_latency: us(0.30),
            hops: 3,
            rails_per_node: 2,
        }
    }
}

impl NetParams {
    /// Unloaded one-way wire time for `size` bytes.
    pub fn wire_time(&self, size: u64, kind: WireKind) -> Duration {
        let bw = match kind {
            WireKind::Host => self.nic_gbps,
            WireKind::Gdr => self.gdr_gbps,
        };
        self.injection
            + self.hop_latency as Duration * self.hops as Duration
            + transfer_time(size, bw)
    }
}

/// World component: network state for the cluster.
pub struct NetSubsystem {
    pub params: NetParams,
    pub counters: Counters,
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
    pub fn new(nodes: usize, params: NetParams) -> Self {
        let rails = params.rails_per_node.max(1);
        NetSubsystem {
            params,
            counters: Counters::new(),
            link_faults: None,
            nodes,
            tx_busy: vec![0; nodes * rails],
            rx_busy: vec![0; nodes * rails],
            bytes_sent: 0,
            messages_sent: 0,
        }
    }

    pub fn nodes(&self) -> usize {
        self.nodes
    }

    fn port(&self, node: usize, rail: usize) -> usize {
        let rails = self.params.rails_per_node.max(1);
        node * rails + rail % rails
    }

    /// How long the TX port of `(node, rail)` is already committed past
    /// `now` — the serialization backlog a new injection on that rail would
    /// queue behind. Zero when the rail is idle. This is the link-occupancy
    /// signal the protocol engine reads when balancing pipeline chunks
    /// across a node's rails.
    pub fn tx_backlog(&self, node: usize, rail: usize, now: Time) -> Duration {
        self.tx_busy[self.port(node, rail)].saturating_sub(now)
    }

    /// RX-side analogue of [`Self::tx_backlog`].
    pub fn rx_backlog(&self, node: usize, rail: usize, now: Time) -> Duration {
        self.rx_busy[self.port(node, rail)].saturating_sub(now)
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
    let p = &net.params;
    let mut bw = match kind {
        WireKind::Host => p.nic_gbps,
        WireKind::Gdr => p.gdr_gbps,
    };
    if let Some(lf) = &net.link_faults {
        bw *= lf.bw_factor(src_node, dst_node, now);
    }
    let serialize = transfer_time(size, bw);
    let pipe_latency = p.injection + p.hop_latency as Duration * p.hops as Duration;
    // TX and RX ports are decoupled (switches buffer in between): the
    // sender serializes onto its link as soon as that link is free; the
    // receiver's port serializes deliveries independently. Uncontended,
    // this reduces to cut-through: arrival = start + serialize + latency.
    let tx_port = net.port(src_node, src_rail);
    let rx_port = net.port(dst_node, dst_rail);
    let tx_start = now.max(net.tx_busy[tx_port]);
    let tx_end = tx_start + serialize;
    net.tx_busy[tx_port] = tx_end;
    let rx_start = (tx_start + pipe_latency).max(net.rx_busy[rx_port]);
    let arrival = rx_start + serialize;
    net.rx_busy[rx_port] = arrival;
    net.bytes_sent += size;
    net.messages_sent += 1;
    net.counters.bump(crate::metrics::msg(kind));
    // Link occupancy span: the window this message holds the TX port.
    s.trace_span(
        "fabric.link.busy",
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
        NetSubsystem::new(nodes, NetParams::default())
    }

    #[test]
    fn small_message_latency_is_alpha() {
        let p = NetParams::default();
        let t = p.wire_time(8, WireKind::Host);
        // ~1.25 us + ~1 ns wire: small messages are latency-bound.
        assert!(t >= us(1.2) && t <= us(1.4), "t={t}");
    }

    #[test]
    fn large_message_bandwidth_bound() {
        let p = NetParams::default();
        let size = 4u64 << 20;
        let t = p.wire_time(size, WireKind::Host);
        let bw = rucx_sim::time::bandwidth_mbps(size, t);
        assert!((bw - 12_200.0).abs() / 12_200.0 < 0.02, "bw={bw}");
    }

    #[test]
    fn gdr_slower_than_host_path() {
        let p = NetParams::default();
        let size = 1u64 << 20;
        assert!(p.wire_time(size, WireKind::Gdr) > p.wire_time(size, WireKind::Host));
    }

    #[test]
    fn transfer_schedules_completion() {
        let mut sim = Simulation::new(sys(2));
        let expected = NetParams::default().wire_time(1 << 20, WireKind::Host);
        sim.scheduler().schedule_at(0, move |w, s| {
            net_transfer(
                w,
                s,
                (0, 0),
                (1, 0),
                1 << 20,
                WireKind::Host,
                move |w, s| {
                    const ARRIVED: rucx_sim::Metric = rucx_sim::Metric::counter("arrived");
                    assert_eq!(s.now(), expected);
                    w.net().counters.bump(ARRIVED);
                },
            );
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(sim.world().counters.get("arrived"), 1);
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
            let serialize = transfer_time(size, w.net().params.nic_gbps);
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
            let serialize = transfer_time(size, w.net().params.nic_gbps);
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
            let p = &w.net().params;
            let clean = p.wire_time(size, WireKind::Host);
            let degraded = p.injection
                + p.hop_latency as Duration * p.hops as Duration
                + transfer_time(size, p.nic_gbps * 0.5);
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
