//! The concrete simulated-world type: GPU subsystem + network + UCP state,
//! plus the builder that assembles a ready-to-run simulation.

use rucx_compat::idmap::IdMap;

use rucx_fabric::{HasNet, NetSubsystem, Topology};
use rucx_fault::{FaultSpec, FaultState};
use rucx_gpu::{GpuSubsystem, HasGpu, MemRef, StreamId};
use rucx_sim::time::Time;
use rucx_sim::{ProcCtx, Simulation};

use crate::config::UcpConfig;
use crate::worker::{Completion, Worker};

/// Payload still held at the sender during a rendezvous.
pub(crate) enum SendPayload {
    Mem(MemRef),
    Bytes(Vec<u8>),
    /// Size-only payload (phantom at-scale data).
    Phantom,
}

/// Sender-side state of an in-flight rendezvous.
pub(crate) struct RtsState {
    pub src_proc: usize,
    pub payload: SendPayload,
    pub wire_size: u64,
    pub sender_done: Completion,
}

/// World component: UCP framework state.
pub struct UcpSubsystem {
    pub config: UcpConfig,
    pub(crate) workers: Vec<Worker>,
    pub(crate) rts_table: IdMap<u64, RtsState>,
    pub(crate) next_rts: u64,
    /// Per (src, dst) pair: the shared-memory channel's busy-until time.
    /// Serializes intra-node transfers between a pair (the CPU-driven
    /// copies cannot overlap), which both enforces per-connection ordering
    /// and bounds windowed throughput to the CMA copy bandwidth.
    pub(crate) pair_busy: IdMap<(u32, u32), Time>,
    /// One internal stream per device for UCX-driven DMA (IPC reads,
    /// pipeline staging), so user streams are unaffected.
    pub(crate) ucx_streams: Vec<StreamId>,
    /// Per-process pinned staging buffer (phantom, 2x pipeline chunk) for
    /// the pipelined host-staging rendezvous path.
    pub staging: Vec<MemRef>,
    /// Reliability-protocol state (tracked envelopes, sequence windows,
    /// parked ATS completions). Only exercised under a loaded fault spec.
    pub(crate) reliable: crate::reliable::ReliableState,
    /// Endpoint health state machine (Healthy/Suspect/Dead/Healed per
    /// directed pair, parked envelopes, keepalive probe loops). Driven by
    /// the reliability layer, so likewise inert on clean runs.
    pub health: crate::health::HealthState,
    /// Endpoint-wireup and memory-registration caches; consulted on the
    /// comm paths only when [`UcpConfig::reg_model`] is set.
    pub reg: crate::reg::RegCache,
}

impl UcpSubsystem {
    /// Worker (tag-matching engine) of process `p`.
    pub fn worker(&self, p: usize) -> &Worker {
        &self.workers[p]
    }

    pub(crate) fn worker_mut(&mut self, p: usize) -> &mut Worker {
        &mut self.workers[p]
    }

    /// Number of rendezvous currently in flight (for leak tests).
    pub fn inflight_rndv(&self) -> usize {
        self.rts_table.len()
    }

    /// Tracked reliability envelopes not yet acknowledged or abandoned
    /// (for chaos leak tests; 0 when every fault was recovered).
    pub fn inflight_tracked(&self) -> usize {
        self.reliable.inflight_tracked()
    }

    /// Pop the oldest asynchronous error queued at process `p`'s worker
    /// (reliability give-ups, failed fetches). `None` on clean runs.
    pub fn take_worker_error(&mut self, p: usize) -> Option<crate::error::UcpError> {
        self.workers[p].take_error()
    }
}

/// The simulated world: everything below the parallel programming models.
pub struct Machine {
    pub topo: Topology,
    pub gpu: GpuSubsystem,
    pub net: NetSubsystem,
    pub ucp: UcpSubsystem,
    /// Fault-injection state; [`FaultState::disabled`] on clean runs.
    pub faults: FaultState,
}

impl HasGpu for Machine {
    fn gpu(&mut self) -> &mut GpuSubsystem {
        &mut self.gpu
    }
    fn gpu_ref(&self) -> &GpuSubsystem {
        &self.gpu
    }
}

impl HasNet for Machine {
    fn net(&mut self) -> &mut NetSubsystem {
        &mut self.net
    }
    fn net_ref(&self) -> &NetSubsystem {
        &self.net
    }
}

/// Simulation over the concrete world.
pub type MSim = Simulation<Machine>;
/// Process context over the concrete world.
pub type MCtx = ProcCtx<Machine>;

/// What varies between machines: the UCP protocol settings and the fault
/// spec. Calibration is constants in each layer's own file
/// (`rucx_gpu::device`, `rucx_fabric::net`, [`crate::config`]).
#[derive(Debug, Clone, Default)]
pub struct MachineConfig {
    pub ucp: UcpConfig,
    /// Fault-injection spec for chaos runs (`None` = clean run; the
    /// `--fault-spec` driver knob parses into this).
    pub fault: Option<FaultSpec>,
}

/// Build a ready-to-run simulation of `topo` under `cfg`.
///
/// Creates the GPU subsystem (one device per process), the network, one UCP
/// worker per process (with its wakeup [`rucx_sim::Notify`]), one internal
/// UCX stream per device, and a pinned staging buffer per process for the
/// pipelined host-staging rendezvous path.
pub fn build_sim(topo: Topology, cfg: MachineConfig) -> MSim {
    let mut gpu = GpuSubsystem::new(topo.nodes, topo.gpus_per_node, topo.gpus_per_socket);
    let faults = match &cfg.fault {
        Some(spec) => FaultState::from_spec(spec.clone()),
        None => FaultState::disabled(),
    };
    let mut net = NetSubsystem::new(topo.nodes);
    net.link_faults = faults.link_faults();
    let procs = topo.procs();

    let mut ucx_streams = Vec::with_capacity(procs);
    let mut staging = Vec::with_capacity(procs);
    for p in 0..procs {
        let dev = topo.device_of(p);
        ucx_streams.push(gpu.create_stream(dev));
        // Phantom pinned bounce buffer; 2x chunk so fill/drain can overlap.
        let buf = gpu
            .pool
            .alloc_host(topo.node_of(p), cfg.ucp.pipeline_chunk * 2, true, false);
        staging.push(buf);
    }

    let seed = cfg.fault.as_ref().map_or(0, |sp| sp.seed);
    let reliable = crate::reliable::ReliableState::new(seed);
    let reg = crate::reg::RegCache::new(cfg.ucp.reg_cache);
    let ucp = UcpSubsystem {
        config: cfg.ucp,
        workers: Vec::new(),
        rts_table: IdMap::default(),
        next_rts: 1,
        pair_busy: IdMap::default(),
        ucx_streams,
        staging,
        reliable,
        health: crate::health::HealthState::default(),
        reg,
    };

    let machine = Machine {
        topo,
        gpu,
        net,
        ucp,
        faults,
    };
    let mut sim = Simulation::new(machine);
    // Workers need Notify handles, which only the scheduler can mint.
    let notifies: Vec<_> = (0..procs).map(|_| sim.scheduler().new_notify()).collect();
    let workers = notifies.into_iter().map(Worker::new).collect();
    sim.world_mut().ucp.workers = workers;
    sim
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_creates_per_proc_state() {
        let topo = Topology::summit(2);
        let sim = build_sim(topo.clone(), MachineConfig::default());
        let m = sim.world();
        assert_eq!(m.ucp.workers.len(), 12);
        assert_eq!(m.ucp.ucx_streams.len(), 12);
        assert_eq!(m.ucp.staging.len(), 12);
        assert_eq!(m.gpu.device_count(), 12);
        assert_eq!(m.net.nodes(), 2);
        // UCX streams belong to the right devices.
        for p in 0..12 {
            assert_eq!(m.gpu.stream_device(m.ucp.ucx_streams[p]), topo.device_of(p));
        }
    }

    #[test]
    fn worker_notifies_are_distinct() {
        let sim = build_sim(Topology::summit(1), MachineConfig::default());
        let m = sim.world();
        let mut seen = std::collections::HashSet::new();
        for w in &m.ucp.workers {
            assert!(seen.insert(w.notify));
        }
    }

    #[test]
    fn staging_buffers_are_pinned_phantom() {
        let sim = build_sim(Topology::summit(1), MachineConfig::default());
        let m = sim.world();
        for (p, buf) in m.ucp.staging.iter().enumerate() {
            let kind = m.gpu.pool.kind(buf.id).unwrap();
            assert_eq!(
                kind,
                rucx_gpu::MemKind::HostPinned {
                    node: m.topo.node_of(p)
                }
            );
            assert!(!m.gpu.pool.is_materialized(buf.id).unwrap());
        }
    }
}
