//! Sharded Jacobi3D: the full halo-exchange timing model on the
//! conservative parallel engine ([`rucx_sim::ShardedEngine`]).
//!
//! The process-thread runtimes (`run_charm` & friends) simulate every
//! UCP/runtime layer and are the ground truth for protocol behaviour, but
//! they execute one global event queue. This module is the *scaling*
//! counterpart: a closed-form, event-driven reformulation of the same
//! per-iteration timing structure (stencil → pack → send → unpack →
//! barrier-free completion) that partitions the cluster into
//! node-contiguous shards, each advanced by its own OS thread inside
//! lookahead windows (see `DESIGN.md` §11). A 256-node weak-scaling sweep
//! that is hours of virtual time finishes in wall-clock seconds.
//!
//! ## Determinism across shard counts
//!
//! Results must be byte-identical for shard counts 1, 2, 8, … (the
//! sequential-oracle conformance suite asserts this), so every quantity a
//! rank computes is a *static* function of the configuration — never of
//! event-processing order:
//!
//! - Link times use fixed NIC-sharing factors (how many ranks on a socket
//!   have off-node neighbors) instead of the dynamic `tx_busy`/`rx_busy`
//!   port state of [`rucx_fabric::NetSubsystem`].
//! - Per-iteration completion is the max over halo arrival times, and
//!   `max` is commutative; reported figures fold `f64::max` over ranks in
//!   global rank order.
//! - Fault decisions hash `(seed, src rank, per-source sequence)` — pure
//!   per-envelope functions, not draws from a shared call-order RNG.
//!
//! Overdecomposition is not modelled here (one block per rank, the
//! paper's §IV-A configuration); `cfg.overdecomp` is ignored.

use std::sync::Arc;

use rucx_compat::rng::splitmix64;
use rucx_fabric::{NetParams, ShardPlan, Topology};
use rucx_fault::FaultSpec;
use rucx_gpu::GpuParams;
use rucx_sim::time::{as_ms, transfer_time, us, Duration, Time};
use rucx_sim::trace::merge_chrome_json;
use rucx_sim::{
    Outbox, RouteDecision, RouteInfo, Scheduler, ShardStats, ShardedEngine, Simulation,
};

use crate::config::{pack_cost, stencil_cost, JacobiConfig, JacobiResult, Mode};
use crate::decomp::{decompose, opposite, Block, DIRS};
use crate::JacobiModel;

/// Cross-shard payload: one halo face in flight.
#[derive(Debug, Clone, Copy)]
pub struct Halo {
    /// Destination rank (== block index).
    dst_rank: u64,
    /// Sender's iteration number.
    iter: u32,
    /// Direction *sent* (the receiver's face is [`opposite`]).
    dir: u8,
}

/// Per-model software overhead added to every halo send: runtime
/// dispatch, marshalling, and (for Charm4py) the Python crossing. These
/// are the knobs that separate the four curves in the paper's Fig. 14–16.
fn runtime_overhead(model: JacobiModel) -> Duration {
    match model {
        JacobiModel::Charm => us(0.8),
        JacobiModel::Ampi => us(1.2),
        JacobiModel::Ompi => us(1.0),
        JacobiModel::Charm4py => us(15.0),
    }
}

/// Immutable run parameters shared by all shards.
struct Params {
    topo: Topology,
    plan: ShardPlan,
    mode: Mode,
    iters: u32,
    warmup: u32,
    gpu: GpuParams,
    net: NetParams,
    overhead: Duration,
    /// Sockets per node (for indexing `nic_sharers`).
    sockets: usize,
    /// Per `(node, socket)`: ranks on that socket with at least one
    /// off-node neighbor — the static NIC contention factor.
    nic_sharers: Vec<u32>,
}

impl Params {
    fn socket_slot(&self, p: usize) -> usize {
        self.topo.node_of(p) * self.sockets + self.topo.socket_of(p)
    }

    /// Sender-side cost of staging one face: pack kernel, (host-staging)
    /// D2H copy, runtime dispatch.
    fn send_side(&self, fb: u64) -> Duration {
        let mut d = self.gpu.sync_overhead + pack_cost(fb).duration(&self.gpu);
        if self.mode == Mode::HostStaging {
            d += self.gpu.copy_launch
                + self.gpu.dma_setup
                + transfer_time(fb, self.gpu.cpu_gpu_gbps);
        }
        d + self.overhead
    }

    /// Wire plus receiver-side cost: link transfer, (host-staging) H2D
    /// copy, unpack kernel. Everything here is a static function of the
    /// endpoints, which is what keeps runs shard-count invariant.
    fn link_and_unpack(&self, src: usize, dst: usize, fb: u64) -> Duration {
        let link = if self.topo.same_node(src, dst) {
            match self.mode {
                Mode::Device => {
                    let bw = if self.topo.same_socket(src, dst) {
                        self.gpu.nvlink_gbps
                    } else {
                        self.gpu.xbus_gbps
                    };
                    self.gpu.dma_setup + transfer_time(fb, bw)
                }
                Mode::HostStaging => transfer_time(fb, self.gpu.host_memcpy_gbps),
            }
        } else {
            let bw = match self.mode {
                Mode::Device => self.net.gdr_gbps,
                Mode::HostStaging => self.net.nic_gbps,
            };
            let sharers = self.nic_sharers[self.socket_slot(src)]
                .max(self.nic_sharers[self.socket_slot(dst)])
                .max(1);
            self.plan.min_latency + transfer_time(fb, bw / sharers as f64)
        };
        let mut unpack = self.gpu.sync_overhead + pack_cost(fb).duration(&self.gpu);
        if self.mode == Mode::HostStaging {
            unpack += self.gpu.copy_launch
                + self.gpu.dma_setup
                + transfer_time(fb, self.gpu.cpu_gpu_gbps);
        }
        link + unpack
    }
}

/// One rank's iteration state (mirrors `JacobiChare`, faces as bitmasks).
struct Rank {
    block: Block,
    iter: u32,
    computing: bool,
    /// Faces received for the current / next iteration (bit = receiving
    /// direction). The bitmask doubles as duplicate detection.
    recv_cur: u8,
    recv_next: u8,
    expected: u8,
    tc: Time,
    t0: Time,
    comm_ns: u64,
    finished: bool,
}

impl Rank {
    fn new(block: Block) -> Self {
        let mut expected = 0u8;
        for (dir, n) in block.neighbors.iter().enumerate() {
            if n.is_some() {
                expected |= 1 << dir;
            }
        }
        Rank {
            block,
            iter: 0,
            computing: false,
            recv_cur: 0,
            recv_next: 0,
            expected,
            tc: 0,
            t0: 0,
            comm_ns: 0,
            finished: false,
        }
    }
}

/// Per-shard world: the contiguous rank slice this shard owns.
struct ShardWorld {
    shard: usize,
    first_rank: usize,
    states: Vec<Rank>,
    outbox: Outbox<Halo>,
    p: Arc<Params>,
    dup_suppressed: u64,
    /// `(rank, comm_ms, overall_ms)` for finished ranks.
    done: Vec<(u64, f64, f64)>,
}

fn start_iter(w: &mut ShardWorld, s: &mut Scheduler<ShardWorld>, l: usize) {
    let p = w.p.clone();
    let rank = (w.first_rank + l) as u32;
    if w.states[l].iter == p.warmup {
        w.states[l].t0 = s.now();
        w.states[l].comm_ns = 0;
    }
    if w.states[l].iter == p.warmup + p.iters {
        let (comm_ms, overall_ms) = {
            let st = &mut w.states[l];
            st.finished = true;
            (
                as_ms(st.comm_ns) / p.iters as f64,
                as_ms(s.now() - st.t0) / p.iters as f64,
            )
        };
        w.done.push((rank as u64, comm_ms, overall_ms));
        s.trace_instant("jacobi.rank.done", rank, p.iters as u64, 0);
        return;
    }
    let st = &mut w.states[l];
    st.iter += 1;
    // Halos that raced ahead belong to the iteration we are starting.
    st.recv_cur = st.recv_next;
    st.recv_next = 0;
    st.computing = true;
    let dur = p.gpu.kernel_launch + stencil_cost(&st.block).duration(&p.gpu);
    s.trace_instant("jacobi.iter.start", rank, st.iter as u64, 0);
    let at = s.now() + dur;
    s.schedule_at(at, move |w, s| after_compute(w, s, l));
}

/// Stencil done: pack and ship all faces, then complete if every halo for
/// this iteration already arrived.
fn after_compute(w: &mut ShardWorld, s: &mut Scheduler<ShardWorld>, l: usize) {
    let p = w.p.clone();
    let src = w.first_rank + l;
    let (block, iter) = {
        let st = &mut w.states[l];
        st.computing = false;
        st.tc = s.now();
        (st.block.clone(), st.iter)
    };
    // Pack kernels serialize on the rank's stream: a running cursor, like
    // the `kernel_sync` chain in `run_charm`.
    let mut t = s.now();
    for dir in 0..DIRS {
        let Some(nbr) = block.neighbors[dir] else {
            continue;
        };
        let fb = block.face_bytes(dir);
        t += p.send_side(fb);
        let recv = t + p.link_and_unpack(src, nbr as usize, fb);
        let dst_shard = p.plan.shard_of_proc(nbr as usize);
        let dir8 = dir as u8;
        if dst_shard == w.shard {
            let dl = nbr as usize - w.first_rank;
            s.schedule_at(recv, move |w, s| halo_arrive(w, s, dl, iter, dir8));
        } else {
            // Key `(src rank, iter*6 + dir)`: a *static* per-halo identity,
            // identical for every shard count, so fault hashes are too.
            let key = (src as u64, iter as u64 * DIRS as u64 + dir as u64);
            w.outbox.send(
                dst_shard,
                recv,
                key,
                Halo {
                    dst_rank: nbr,
                    iter,
                    dir: dir8,
                },
            );
        }
    }
    let st = &w.states[l];
    if st.recv_cur == st.expected {
        complete(w, s, l);
    }
}

/// One halo face arrived (local schedule or cross-shard delivery — both
/// funnel here, so faulted and clean paths share every line of logic).
fn halo_arrive(
    w: &mut ShardWorld,
    s: &mut Scheduler<ShardWorld>,
    l: usize,
    msg_iter: u32,
    dir: u8,
) {
    let rank = (w.first_rank + l) as u32;
    let od = opposite(dir as usize);
    let bit = 1u8 << od;
    s.trace_instant("jacobi.halo.recv", rank, msg_iter as u64, od as u64);
    let st = &mut w.states[l];
    if msg_iter == st.iter && st.recv_cur & bit == 0 {
        st.recv_cur |= bit;
        if !st.computing && st.recv_cur == st.expected {
            complete(w, s, l);
        }
    } else if msg_iter == st.iter + 1 && st.recv_next & bit == 0 {
        st.recv_next |= bit;
    } else if msg_iter <= st.iter + 1 {
        // The face was already refreshed for that iteration: a duplicated
        // (or duplicated-then-delayed) halo. Drop it, visibly.
        w.dup_suppressed += 1;
    } else {
        // A halo from iteration k can only exist once its sender finished
        // iteration k, which needed *our* k-halo, so we are at >= k.
        panic!(
            "rank {rank} at iter {} got halo for iter {msg_iter}",
            st.iter
        );
    }
}

/// All halos for the current iteration are in and the stencil is done.
fn complete(w: &mut ShardWorld, s: &mut Scheduler<ShardWorld>, l: usize) {
    let rank = (w.first_rank + l) as u32;
    let (tc, iter, measured) = {
        let st = &mut w.states[l];
        if st.iter > w.p.warmup {
            st.comm_ns += s.now() - st.tc;
        }
        (st.tc, st.iter, st.iter > w.p.warmup)
    };
    if measured {
        s.trace_span("jacobi.iter.comm", tc, s.now(), rank, iter as u64, 0);
    }
    start_iter(w, s, l);
}

/// Shard-count-invariant fault routing: every decision is a hash of
/// `(spec seed, src rank, per-rank sequence)`, so an envelope's fate does
/// not depend on barrier grouping. (`max_faults` is the one exception — a
/// global budget is inherently order-dependent; it is honored in the
/// engine's sorted envelope order, deterministic per shard count.)
fn route_fault(
    spec: &FaultSpec,
    topo: &Topology,
    injected: &mut u64,
    info: &RouteInfo,
    halo: &Halo,
) -> RouteDecision {
    let (a, b) = (
        topo.node_of(info.key.0 as usize),
        topo.node_of(halo.dst_rank as usize),
    );
    if !spec.links.matches(a, b) || *injected >= spec.max_faults {
        return RouteDecision::Deliver;
    }
    if spec
        .partitions
        .iter()
        .any(|w| w.from <= info.recv && info.recv < w.until)
    {
        *injected += 1;
        return RouteDecision::Drop;
    }
    // Detected corruption is discarded at arrival — at this model's
    // granularity that is observationally a drop.
    let drop_band = spec.drop_p + spec.corrupt_p;
    let total = drop_band + spec.dup_p + spec.delay_p;
    if total <= 0.0 {
        return RouteDecision::Deliver;
    }
    let mut st = spec.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ info.key.0.wrapping_mul(0xD1B5_4A32_D192_ED03)
        ^ info.key.1.wrapping_add(0x2545_F491_4F6C_DD1D);
    let r = (splitmix64(&mut st) >> 11) as f64 / (1u64 << 53) as f64;
    let decision = if r < drop_band {
        RouteDecision::Drop
    } else if r < drop_band + spec.dup_p {
        RouteDecision::Duplicate
    } else if r < total {
        let frac = (splitmix64(&mut st) >> 11) as f64 / (1u64 << 53) as f64;
        RouteDecision::Delay(((spec.delay as f64 * (0.5 + 0.5 * frac)) as Duration).max(1))
    } else {
        return RouteDecision::Deliver;
    };
    *injected += 1;
    decision
}

/// Knobs for [`run_sharded_full`].
#[derive(Debug, Clone)]
pub struct ShardedOpts {
    /// Requested shard count (clamped to `[1, nodes]` by the plan).
    pub shards: usize,
    /// Record per-shard traces and return the merged Chrome JSON.
    pub trace: bool,
    /// Ring capacity per shard (0 = default).
    pub trace_capacity: usize,
}

impl Default for ShardedOpts {
    fn default() -> Self {
        ShardedOpts {
            shards: 1,
            trace: false,
            trace_capacity: 0,
        }
    }
}

/// Everything a sharded run produced.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    /// Per-iteration timings, maxed over *finished* ranks.
    pub result: JacobiResult,
    /// Every rank ran all its iterations (always true on clean runs; a
    /// lossy route hook can strand ranks mid-iteration).
    pub completed: bool,
    /// `(rank, waiting-on)` descriptions for stranded ranks.
    pub blocked: Vec<(String, String)>,
    /// Envelopes lost to routing drops.
    pub lost: u64,
    /// Duplicate halos detected and discarded by receivers.
    pub dup_suppressed: u64,
    pub stats: ShardStats,
    /// Merged Chrome trace (when `opts.trace`).
    pub trace_json: Option<String>,
}

/// Run the sharded model and return the figure values; panics if the run
/// stalls (only possible with fault injection — use [`run_sharded_full`]
/// for chaos runs).
pub fn run_sharded(model: JacobiModel, cfg: &JacobiConfig, shards: usize) -> JacobiResult {
    let run = run_sharded_full(
        model,
        cfg,
        &ShardedOpts {
            shards,
            ..Default::default()
        },
    );
    assert!(
        run.completed,
        "sharded jacobi stalled: lost={} blocked={:?}",
        run.lost, run.blocked
    );
    run.result
}

/// Run the sharded Jacobi3D model.
pub fn run_sharded_full(model: JacobiModel, cfg: &JacobiConfig, opts: &ShardedOpts) -> ShardedRun {
    let topo = Topology::summit(cfg.nodes);
    let plan = topo.shard_plan(opts.shards, &cfg.machine.net);
    let grid = decompose(cfg.domain, cfg.ranks() as u64);
    let gpu = cfg.machine.gpu.clone();
    let net = cfg.machine.net.clone();

    // Static NIC contention factors and the smallest face that ever
    // crosses a node boundary (for the lookahead bound).
    let sockets = (topo.gpus_per_node / topo.gpus_per_socket).max(1);
    let mut nic_sharers = vec![0u32; topo.nodes * sockets];
    let mut min_cross_face: Option<u64> = None;
    for p in 0..topo.procs() {
        let b = Block::new(cfg.domain, grid, p as u64);
        let mut crossing = false;
        for dir in 0..DIRS {
            if let Some(nbr) = b.neighbors[dir] {
                if !topo.same_node(p, nbr as usize) {
                    crossing = true;
                    let fb = b.face_bytes(dir);
                    min_cross_face = Some(min_cross_face.map_or(fb, |m| m.min(fb)));
                }
            }
        }
        if crossing {
            nic_sharers[topo.node_of(p) * sockets + topo.socket_of(p)] += 1;
        }
    }
    // Lower bound on recv − send for any cross-shard (hence cross-node)
    // halo: the wire α term plus the unshared transfer of the smallest
    // face at the faster of the two NIC paths. Everything the model adds
    // on top (pack, unpack, staging copies, sharing) only increases it.
    let lookahead = plan.min_latency
        + min_cross_face.map_or(0, |fb| transfer_time(fb, net.nic_gbps.max(net.gdr_gbps)));

    let params = Arc::new(Params {
        topo: topo.clone(),
        plan,
        mode: cfg.mode,
        iters: cfg.iters,
        warmup: cfg.warmup,
        gpu,
        net,
        overhead: runtime_overhead(model),
        sockets,
        nic_sharers,
    });

    let deliver = |w: &mut ShardWorld, s: &mut Scheduler<ShardWorld>, halo: Halo| {
        let l = halo.dst_rank as usize - w.first_rank;
        halo_arrive(w, s, l, halo.iter, halo.dir);
    };
    let build = |shard: usize, outbox: Outbox<Halo>| {
        let ranks = params.plan.procs_of(shard);
        let states: Vec<Rank> = ranks
            .clone()
            .map(|r| Rank::new(Block::new(cfg.domain, grid, r as u64)))
            .collect();
        let n = states.len();
        let world = ShardWorld {
            shard,
            first_rank: ranks.start,
            states,
            outbox,
            p: params.clone(),
            dup_suppressed: 0,
            done: Vec::new(),
        };
        let mut sim = Simulation::new(world);
        if opts.trace {
            sim.scheduler().trace.enable(opts.trace_capacity);
        }
        for l in 0..n {
            sim.scheduler()
                .schedule_at(0, move |w, s| start_iter(w, s, l));
        }
        sim
    };
    let mut engine = ShardedEngine::new(plan.shards, lookahead, deliver, build);
    if let Some(spec) = cfg.machine.fault.clone() {
        let ftopo = topo.clone();
        let mut injected = 0u64;
        engine.set_route_hook(move |info, halo| {
            route_fault(&spec, &ftopo, &mut injected, info, halo)
        });
    }

    engine.run();
    let stats = engine.stats().clone();
    assert_eq!(engine.pool().in_use(), 0, "leaked envelope leases");

    // The world is event-driven (no parked process threads), so stalls
    // are judged by rank state, not by the engine's process accounting.
    let mut per_rank: Vec<(u64, f64, f64)> = Vec::new();
    let mut blocked: Vec<(String, String)> = Vec::new();
    let mut dup_suppressed = 0u64;
    for sim in engine.shards() {
        let w = sim.world();
        per_rank.extend(w.done.iter().copied());
        dup_suppressed += w.dup_suppressed;
        for (l, st) in w.states.iter().enumerate() {
            if !st.finished {
                let missing = st.expected & !st.recv_cur;
                blocked.push((
                    format!("rank {}", w.first_rank + l),
                    format!(
                        "iter {}: waiting for {} halo face(s) (mask {missing:#04x})",
                        st.iter,
                        missing.count_ones()
                    ),
                ));
            }
        }
    }
    per_rank.sort_by_key(|&(r, ..)| r);
    let mut result = JacobiResult {
        overall_ms: 0.0,
        comm_ms: 0.0,
    };
    for &(_, comm, overall) in &per_rank {
        result.comm_ms = result.comm_ms.max(comm);
        result.overall_ms = result.overall_ms.max(overall);
    }
    let trace_json = opts
        .trace
        .then(|| merge_chrome_json(engine.shards().iter().map(|s| &s.scheduler_ref().trace)));
    ShardedRun {
        result,
        completed: blocked.is_empty(),
        blocked,
        lost: stats.dropped,
        dup_suppressed,
        stats,
        trace_json,
    }
}

/// Weak-scaling sweep on the sharded engine: `(nodes, overall_ms,
/// comm_ms)` per point, in node order.
pub fn sharded_weak_series(
    model: JacobiModel,
    nodes: &[usize],
    mode: Mode,
    shards: usize,
) -> Vec<(usize, f64, f64)> {
    nodes
        .iter()
        .map(|&n| {
            let r = run_sharded(model, &JacobiConfig::weak(n, mode), shards);
            (n, r.overall_ms, r.comm_ms)
        })
        .collect()
}

/// Strong-scaling sweep on the sharded engine.
pub fn sharded_strong_series(
    model: JacobiModel,
    nodes: &[usize],
    mode: Mode,
    shards: usize,
) -> Vec<(usize, f64, f64)> {
    nodes
        .iter()
        .map(|&n| {
            let r = run_sharded(model, &JacobiConfig::strong(n, mode), shards);
            (n, r.overall_ms, r.comm_ms)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_weak_point_completes_and_reports() {
        let cfg = JacobiConfig::weak(2, Mode::Device);
        let r = run_sharded(JacobiModel::Charm, &cfg, 2);
        assert!(r.overall_ms > 0.0);
        assert!(r.comm_ms > 0.0);
        // Overall includes the ~12 ms stencil; comm is a fraction of it.
        assert!(r.overall_ms > r.comm_ms, "{r:?}");
    }

    #[test]
    fn shard_count_does_not_change_results() {
        for mode in [Mode::Device, Mode::HostStaging] {
            let cfg = JacobiConfig::weak(4, mode);
            let base = run_sharded(JacobiModel::Ampi, &cfg, 1);
            for shards in [2, 3, 4] {
                let r = run_sharded(JacobiModel::Ampi, &cfg, shards);
                assert_eq!(r, base, "shards={shards} mode={mode:?}");
            }
        }
    }

    #[test]
    fn model_overheads_order_comm_times() {
        let cfg = JacobiConfig::weak(2, Mode::Device);
        let charm = run_sharded(JacobiModel::Charm, &cfg, 2);
        let py = run_sharded(JacobiModel::Charm4py, &cfg, 2);
        assert!(
            py.comm_ms > charm.comm_ms,
            "charm4py {py:?} vs charm {charm:?}"
        );
    }

    #[test]
    fn single_node_run_has_no_envelopes() {
        let cfg = JacobiConfig::weak(1, Mode::Device);
        let r = run_sharded_full(JacobiModel::Charm, &cfg, &ShardedOpts::default());
        assert!(r.completed);
        assert_eq!(r.stats.envelopes, 0);
        assert!(r.result.overall_ms > 0.0);
    }
}
