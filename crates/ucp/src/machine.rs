//! The concrete simulated-world type: GPU subsystem + network + UCP state,
//! plus the builder that assembles a ready-to-run simulation.

use std::sync::Arc;

use rucx_compat::idmap::IdMap;
use rucx_compat::sync::Mutex;
use rucx_fabric::{HasNet, NetSubsystem, Topology};
use rucx_fault::{FaultSpec, FaultState};
use rucx_gpu::{GpuSubsystem, HasGpu, MemId, MemRef, StreamId};
use rucx_sim::time::Time;
use rucx_sim::{ProcCtx, RunOutcome, Simulation};

use crate::config::UcpConfig;
use crate::metrics as m;
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

/// Protocol state a completed run left behind: the first check of
/// [`audit`] that failed, with what it counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leak {
    /// Rendezvous announced and never fetched nor failed (the RTS table).
    Rendezvous(usize),
    /// Tracked envelopes never acknowledged nor given up.
    Tracked(usize),
    /// Rendezvous-sender completions still waiting for their tracked ATS.
    Ats(usize),
    /// Envelopes held in UCP's receive windows behind a gap never filled.
    Held(usize),
    /// Envelopes parked on an endpoint that never healed nor gave up.
    Parked(usize),
    /// `[miss, evict, live]` of the `"reg"` (registration) or `"ep"`
    /// (endpoint wireup) cache, where `miss != evict + live`: an entry paid
    /// for was neither torn down nor kept.
    Accounting(&'static str, [u64; 3]),
    /// A cached registration names this freed allocation.
    FreedRegistration(u64),
}

/// Why [`finish`] could not vouch for a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The event queue emptied with processes still parked: a lossy fault
    /// spec stranded them, or the program itself deadlocked.
    Stalled {
        /// `(process name, blocked-on)` for every process still parked.
        blocked: Vec<(String, String)>,
        /// Sends the reliability layer gave up on (`ucp.unreachable`).
        unreachable: u64,
    },
    /// The run completed but left protocol state behind.
    Leaked(Leak),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (blocked, unreachable) = match self {
            RunError::Leaked(leak) => return write!(f, "leaked {leak:?}"),
            RunError::Stalled {
                blocked,
                unreachable,
            } => (blocked, unreachable),
        };
        let n = blocked.len();
        write!(f, "stalled, {unreachable} give-up(s), {n} rank(s) blocked")?;
        match blocked.first() {
            Some((name, on)) => write!(f, ", first {name} on {on}"),
            None => Ok(()),
        }
    }
}

/// Check that no protocol state outlived a completed run: no rendezvous,
/// tracked envelope or parked ATS completion in flight, no envelope held
/// in a receive window or parked on an endpoint, both cache identities
/// (`miss == evict + live`) intact, and no registration on a freed buffer.
/// Reads only, so virtual time does not move.
pub fn audit(sim: &MSim) -> Result<(), Leak> {
    let (w, counters) = (sim.world(), sim.metrics());
    let (ucp, rel) = (&w.ucp, &w.ucp.reliable);
    let left = [
        (Leak::Rendezvous as fn(usize) -> Leak, ucp.rts_table.len()),
        (Leak::Tracked, rel.inflight.len()),
        (Leak::Ats, rel.ats_table.len()),
        (Leak::Held, rel.recv.held()),
        (Leak::Parked, ucp.health.parked()),
    ];
    if let Some((leak, n)) = left.into_iter().find(|&(_, n)| n > 0) {
        return Err(leak(n));
    }
    let get = |metric: rucx_sim::Metric| counters.get(metric.name);
    for (cache, miss, evict, live) in [
        ("reg", m::REG_MISS, m::REG_EVICT, ucp.reg.live_mappings()),
        ("ep", m::EP_MISS, m::EP_EVICT, ucp.reg.live_endpoints()),
    ] {
        let (miss, evict, live) = (get(miss), get(evict), live as u64);
        if miss != evict + live {
            return Err(Leak::Accounting(cache, [miss, evict, live]));
        }
    }
    let regs = ucp.reg.buffers();
    match regs.filter(|&id| w.gpu.pool.kind(MemId(id)).is_err()).min() {
        Some(id) => Err(Leak::FreedRegistration(id)),
        None => Ok(()),
    }
}

/// The one way a simulation ends: run it to the end, turn a stall into a
/// value, and [`audit`] what a completed run left behind.
pub fn finish(sim: &mut MSim) -> Result<(), RunError> {
    let blocked = match sim.run() {
        RunOutcome::Completed => return audit(sim).map_err(RunError::Leaked),
        RunOutcome::Deadlock(blocked) => blocked,
        // `run` sets no time limit, and no layer calls `stop`.
        RunOutcome::TimeLimit | RunOutcome::Stopped => Vec::new(),
    };
    let unreachable = sim.metrics().get(m::UNREACHABLE.name);
    Err(RunError::Stalled {
        blocked,
        unreachable,
    })
}

/// Where a launched program leaves its result for [`run`] to read back.
pub type ResultCell<T> = Arc<Mutex<T>>;

/// The run harness: `launch` starts a program on `sim`, handing it the
/// cell it reports into; the simulation ends through [`finish`], and the
/// cell's value is returned.
pub fn run<T: Default>(
    sim: &mut MSim,
    launch: impl FnOnce(&mut MSim, ResultCell<T>),
) -> Result<T, RunError> {
    let cell = ResultCell::default();
    launch(sim, cell.clone());
    finish(sim).map(|()| std::mem::take(&mut *cell.lock()))
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

    // Each audit check, live: plant exactly one leak in a fresh machine
    // and the audit must name it (a fresh machine itself passes).

    fn fresh() -> MSim {
        let sim = build_sim(Topology::summit(2), MachineConfig::default());
        assert_eq!(audit(&sim), Ok(()));
        sim
    }

    fn ats(rts_id: u64) -> crate::reliable::TrackedBody {
        crate::reliable::TrackedBody::Ats { rts_id }
    }

    /// A tracked envelope 0 -> 6 under machine-global id 1.
    fn track(w: &mut Machine) {
        let p = crate::reliable::PendingSend {
            src: 0,
            dst: 6,
            tag: 0,
            wire_size: 8,
            seq: 0,
            attempts: 1,
            first_sent: 0,
            parks: 0,
            body: ats(9),
        };
        w.ucp.reliable.inflight.insert(1, p);
    }

    #[test]
    fn audit_names_a_leftover_rendezvous() {
        let mut sim = fresh();
        let rts = RtsState {
            src_proc: 0,
            payload: SendPayload::Phantom,
            wire_size: 1 << 20,
            sender_done: Completion::None,
        };
        sim.world_mut().ucp.rts_table.insert(1, rts);
        assert_eq!(audit(&sim), Err(Leak::Rendezvous(1)));
    }

    #[test]
    fn audit_names_a_tracked_envelope() {
        let mut sim = fresh();
        track(sim.world_mut());
        assert_eq!(audit(&sim), Err(Leak::Tracked(1)));
    }

    #[test]
    fn audit_names_a_parked_ats_completion() {
        let mut sim = fresh();
        let rel = &mut sim.world_mut().ucp.reliable;
        rel.ats_table.insert(1, Completion::None);
        assert_eq!(audit(&sim), Err(Leak::Ats(1)));
    }

    #[test]
    fn audit_names_a_held_window_message() {
        let mut sim = fresh();
        let rel = &mut sim.world_mut().ucp.reliable;
        // Sequence number 1 arrives before 0: held behind the gap.
        let held = rel.recv.arrive((0, 6), 1, (0, ats(9)));
        assert!(matches!(held, crate::order::Arrival::Held));
        assert_eq!(audit(&sim), Err(Leak::Held(1)));
    }

    #[test]
    fn audit_names_a_parked_envelope() {
        let mut sim = fresh();
        sim.with_parts(|w, s| {
            track(w);
            assert!(crate::health::try_park(w, s, 1));
            // Acked while parked: the envelope retires, its park entry stays
            // until the endpoint heals or gives up, which never happens here.
            w.ucp.reliable.inflight.remove(&1);
        });
        assert_eq!(audit(&sim), Err(Leak::Parked(1)));
    }

    #[test]
    fn audit_names_an_off_by_one_in_either_cache() {
        let mut sim = fresh();
        sim.with_parts(|_, s| s.count(m::REG_MISS));
        assert_eq!(audit(&sim), Err(Leak::Accounting("reg", [1, 0, 0])));

        let mut sim = fresh();
        // A wireup cached without its miss counted.
        sim.world_mut().ucp.reg.touch_ep((0, 6), 8);
        assert_eq!(audit(&sim), Err(Leak::Accounting("ep", [0, 0, 1])));
    }

    #[test]
    fn audit_names_a_registration_on_a_freed_buffer() {
        let mut sim = fresh();
        let buf = sim.world_mut().gpu.pool.alloc_host(0, 4096, true, false);
        sim.with_parts(|w, s| {
            w.ucp.reg.register(buf.id.0, 4096, 1 << 30);
            s.count(m::REG_MISS);
        });
        assert_eq!(audit(&sim), Ok(()), "a live registration is no leak");
        // Freed without `reg_invalidate`: the mapping outlives its buffer.
        sim.world_mut().gpu.pool.free(buf.id).unwrap();
        assert_eq!(audit(&sim), Err(Leak::FreedRegistration(buf.id.0)));
    }

    #[test]
    fn finish_reports_a_receiver_nobody_sends_to_as_stalled() {
        let mut sim = fresh();
        let buf = sim.world_mut().gpu.pool.alloc_host(1, 64, true, true);
        sim.spawn("lonely", 0, move |ctx| {
            crate::blocking::recv(ctx, 6, buf, 7, crate::MASK_FULL);
        });
        let err = finish(&mut sim).unwrap_err();
        let RunError::Stalled {
            blocked,
            unreachable,
        } = &err
        else {
            panic!("expected a stall, got {err}");
        };
        assert_eq!((blocked.len(), *unreachable), (1, 0));
        assert_eq!(blocked[0].0, "lonely");
        let msg = err.to_string();
        assert!(
            msg.starts_with("stalled, 0 give-up(s), 1 rank(s) blocked, first lonely on "),
            "{msg}"
        );
    }

    #[test]
    fn run_reads_back_what_the_program_reported() {
        let mut sim = fresh();
        let got = run(&mut sim, |sim, cell| {
            sim.spawn("reporter", 0, move |ctx| {
                ctx.advance(5);
                *cell.lock() = ctx.now();
            });
        });
        assert_eq!(got, Ok(5));
    }
}
