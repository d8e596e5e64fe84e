//! # rucx-svc — a many-client distributed service layer
//!
//! MPI4Dask-style futures frontend over the Charm4py channel layer: clients
//! `scatter` a dataset to a worker, `submit` many small tasks against it,
//! and `gather` the results. Thousands of clients with tiny tasks make
//! per-message fixed costs (endpoint wireup, memory registration) dominate
//! unless the UCP endpoint/registration caches ([`rucx_ucp::RegCache`])
//! amortize them.
//!
//! [`run_load_on`] runs one load on a two-node Summit-like simulation the
//! caller built ([`run_load`] builds one from [`machine_config`]):
//! `LoadCfg::clients` logical clients over the first [`CLIENT_RANKS`]
//! ranks, [`WORKER_RANKS`] workers. It returns throughput, exact latency
//! percentiles, every task's checksum and the cache counters, or the one
//! [`SvcError`] that ended the run. The run ends through
//! [`rucx_ucp::finish`], whose audit holds the registration identity.
//!
//! Task results are pure functions of task content ([`task_checksum`]), so
//! cache-on and cache-off runs produce byte-identical result sets; only
//! the timing differs. A dataset is hashed once per side
//! ([`dataset_digest`]): by the client when it scatters it, and by the
//! worker over the bytes that landed in its staging buffer. Every task
//! result mixes that digest with the task's client, id and argument, so a
//! task costs O(1) host work on both sides.

use rucx_charm4py::{launch, PyExceptionRecord, PyProc};
use rucx_compat::buf::{Buf, BufMut};
use rucx_compat::idmap::{IdMap, IdSet};
use rucx_compat::rng::{splitmix64, Rng};
use rucx_fabric::Topology;
use rucx_fault::FaultSpec;
use rucx_gpu::{MemError, MemRef};
use rucx_sim::time::{as_us, us, Duration, Time};
use rucx_ucp::{build_sim, reg_invalidate, MCtx, MSim, MachineConfig, ResultCell, RunError};

pub mod metrics;

/// Resubmissions allowed per task before it is declared failed.
pub const MAX_RESUBMIT: u32 = 3;
/// Consecutive per-worker timeouts before its circuit breaker opens.
pub const BREAKER_THRESHOLD: u32 = 2;

/// Client ranks (node 0 plus two ranks of node 1 on `summit(2)`).
pub const CLIENT_RANKS: usize = 8;
/// Worker ranks (the remainder of node 1).
pub const WORKER_RANKS: usize = 4;

const MSG_SCATTER: u8 = 1;
const MSG_SUBMIT: u8 = 2;
const MSG_RESULT: u8 = 3;
const MSG_DONE: u8 = 4;

/// A client -> worker request, pickled into a channel host object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ToWorker {
    /// Dataset announcement; the payload follows as a zero-copy channel
    /// send on the same (ordered) channel.
    Scatter { client: u64, size: u64 },
    /// Run one task against a previously scattered dataset.
    Submit { client: u64, task: u64, arg: u64 },
    /// This client rank is finished with every worker.
    Done,
}

/// A worker -> client task result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ToClient {
    task: u64,
    checksum: u64,
}

/// A kind byte, then `words` big-endian. The length is the wire size the
/// channel prices (Scatter 17 B, Submit 25 B, Result 17 B, Done 1 B).
fn pack(kind: u8, words: &[u64]) -> Vec<u8> {
    let mut b = Vec::with_capacity(1 + 8 * words.len());
    b.put_u8(kind);
    for &w in words {
        b.put_u64(w);
    }
    b
}

/// The `N` words of a `kind` message, if `bytes` is exactly one.
fn unpack<const N: usize>(bytes: &[u8], kind: u8) -> Option<[u64; N]> {
    let (&k, mut r) = bytes.split_first()?;
    (k == kind && r.len() == 8 * N).then(|| std::array::from_fn(|_| r.get_u64()))
}

impl ToWorker {
    fn encode(self) -> Vec<u8> {
        match self {
            ToWorker::Scatter { client, size } => pack(MSG_SCATTER, &[client, size]),
            ToWorker::Submit { client, task, arg } => pack(MSG_SUBMIT, &[client, task, arg]),
            ToWorker::Done => pack(MSG_DONE, &[]),
        }
    }

    fn decode(bytes: &[u8]) -> Option<ToWorker> {
        if let Some([client, size]) = unpack(bytes, MSG_SCATTER) {
            Some(ToWorker::Scatter { client, size })
        } else if let Some([client, task, arg]) = unpack(bytes, MSG_SUBMIT) {
            Some(ToWorker::Submit { client, task, arg })
        } else {
            unpack(bytes, MSG_DONE).map(|[]| ToWorker::Done)
        }
    }
}

impl ToClient {
    fn encode(self) -> Vec<u8> {
        pack(MSG_RESULT, &[self.task, self.checksum])
    }

    fn decode(bytes: &[u8]) -> Option<ToClient> {
        unpack(bytes, MSG_RESULT).map(|[task, checksum]| ToClient { task, checksum })
    }
}

/// Why a load run failed. A rank that meets one of these ends its body
/// with it; the first one recorded wins over the stall it then causes in
/// the other ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SvcError {
    /// `rank` took a host object from `peer` that is no message of its
    /// direction: a GPU buffer, an unmaterialized payload, or bytes that do
    /// not decode.
    BadMessage { rank: usize, peer: usize },
    /// A communication exception other than a worker's `TimeoutError`.
    Exception(PyExceptionRecord),
    /// `worker` answered `task` with `got`; the client expected `expected`.
    WrongChecksum {
        task: u64,
        worker: usize,
        got: u64,
        expected: u64,
    },
    /// `worker` holds no dataset for `client`: a `Submit` came before its
    /// scatter, or the scatter payload was not the size it announced.
    NoDataset { worker: usize, client: u64 },
    /// A pool operation failed.
    Mem(MemError),
    /// The simulation has `procs` processes, not `CLIENT_RANKS + WORKER_RANKS`.
    WrongSize { procs: usize },
    /// The run ended badly with no rank error recorded: a stall or a leak.
    Run(RunError),
}

/// The variant as `Debug` prints it, except that a run error prints as its
/// own message.
impl std::fmt::Display for SvcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SvcError::Run(e) => write!(f, "{e}"),
            other => write!(f, "{other:?}"),
        }
    }
}

impl From<MemError> for SvcError {
    fn from(e: MemError) -> Self {
        SvcError::Mem(e)
    }
}

/// The digest of one dataset: a serial splitmix64 chain over its 8-byte
/// little-endian words (the last one zero-padded), seeded by its length.
/// Each step is a bijection in both the running hash and the word, so a
/// change within any one word always changes the digest.
pub fn dataset_digest(data: &[u8]) -> u64 {
    let mut h = (data.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for chunk in data.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h ^= u64::from_le_bytes(word);
        h = splitmix64(&mut h);
    }
    h
}

/// The result of one task: a pure function of the task's content (client,
/// task id, argument, and the [`dataset_digest`] of the scattered dataset)
/// — independent of scheduling, caching, and timing, which is what makes
/// cache-on/cache-off runs comparable byte-for-byte. The inputs enter one
/// splitmix64 step each, so a change to any one of them changes the result.
pub fn task_checksum(digest: u64, client: u64, task: u64, arg: u64) -> u64 {
    [client, task, arg]
        .into_iter()
        .fold(digest, |h, w| splitmix64(&mut (h ^ w)))
}

struct Pending {
    expected: u64,
    /// First-submission time — preserved across resubmissions so latency
    /// measures the client-observed wait, including recovery.
    submitted: Time,
    client: u64,
    arg: u64,
    worker: usize,
    /// Virtual-time deadline (`Time::MAX` when the frontend has none).
    deadline: Time,
    resubmits: u32,
}

/// A worker's consecutive timeouts (reset by any result) and whether its
/// circuit breaker is open. It never closes again: an endpoint give-up
/// leaves the receiver's delivery window expecting the abandoned sequence
/// number, so any later send to that worker would be held forever.
#[derive(Default)]
struct Breaker {
    timeouts: u32,
    open: bool,
}

/// Client-side futures frontend (the `distributed.Client` analogue), one
/// per client rank. With a deadline ([`LoadCfg`]'s `deadline_us`) it
/// survives worker failure: an overdue task is resubmitted to a surviving
/// worker (re-scattering the dataset on demand), a worker's [`Breaker`]
/// opens after [`BREAKER_THRESHOLD`] consecutive timeouts or on a UCP
/// endpoint give-up, and a late result for a gathered task is counted as a
/// duplicate, never twice. Any worker computes the same content-pure
/// checksum, so results match a clean run. Without a deadline the same
/// drain path is the blocking wait.
#[derive(Default)]
struct Frontend {
    workers: Vec<usize>,
    /// Per-task deadline; `None` waits for every result indefinitely.
    deadline: Option<Duration>,
    pending: IdMap<u64, Pending>,
    breakers: IdMap<usize, Breaker>,
    /// `(client, worker)` pairs that hold the client's dataset.
    placed: IdSet<(u64, usize)>,
    /// Scatter buffer per client, for on-demand re-scatter at resubmission.
    bufs: IdMap<u64, MemRef>,
    /// `(task id, checksum)` for every gathered task.
    results: Vec<(u64, u64)>,
    /// Submit-to-result latency of every gathered task.
    latencies: Vec<Time>,
}

impl Frontend {
    fn new(workers: Vec<usize>, deadline: Option<Duration>) -> Self {
        Frontend {
            workers,
            deadline,
            ..Frontend::default()
        }
    }

    /// `client.scatter(data)`: announce the dataset inline, then ship the
    /// bytes zero-copy from `buf` (the channel is ordered, so the worker
    /// pairs them up). The buffer must stay allocated until the client's
    /// teardown — freeing it mid-flight is exactly the bug the UCP layer
    /// surfaces as `InvalidHandle` instead of a panic.
    fn scatter(
        &mut self,
        py: &mut PyProc,
        ctx: &mut MCtx,
        worker: usize,
        client: u64,
        buf: MemRef,
    ) {
        let ch = py.channel(worker);
        let size = buf.len;
        py.send_host(ctx, ch, ToWorker::Scatter { client, size }.encode());
        py.send(ctx, ch, buf);
        self.placed.insert((client, worker));
        self.bufs.insert(client, buf);
    }

    /// `client.submit(fn, data, arg)`: fire one task at `worker`, which
    /// holds `client`'s dataset; the result arrives asynchronously via
    /// [`Frontend::drain_one`]. `expected` is the checksum the task must
    /// produce (the client can compute it locally — the task is pure).
    fn submit(
        &mut self,
        py: &mut PyProc,
        ctx: &mut MCtx,
        worker: usize,
        client: u64,
        (task, arg): (u64, u64),
        expected: u64,
    ) {
        let now = ctx.now();
        self.pending.insert(
            task,
            Pending {
                expected,
                submitted: now,
                client,
                arg,
                worker,
                deadline: self.deadline.map_or(Time::MAX, |d| now + d),
                resubmits: 0,
            },
        );
        let ch = py.channel(worker);
        py.send_host(ctx, ch, ToWorker::Submit { client, task, arg }.encode());
    }

    /// One drain step: surface endpoint give-ups, then wait for a result
    /// from any worker, with a deadline only until the earliest outstanding
    /// one. Every call gathers a result (checking its checksum), absorbs a
    /// duplicate, expires an overdue task or fails, so `gather_all` ends
    /// even with every worker dead.
    fn drain_one(&mut self, py: &mut PyProc, ctx: &mut MCtx) -> Result<(), SvcError> {
        self.reap_exceptions(py, ctx)?;
        if self.pending.is_empty() {
            return Ok(());
        }
        let dl = self
            .deadline
            .and_then(|_| self.pending.values().map(|p| p.deadline).min());
        let Some((peer, bytes)) = py.recv_host_any(ctx, &self.workers, dl) else {
            self.expire_overdue(py, ctx);
            return Ok(());
        };
        let rank = py.rank();
        let ToClient { task, checksum } = bytes
            .as_deref()
            .and_then(ToClient::decode)
            .ok_or(SvcError::BadMessage { rank, peer })?;
        // A result for a task that is no longer pending (the original
        // worker answered after the task was resubmitted and gathered):
        // absorb, never count twice.
        let Some(p) = self.pending.remove(&task) else {
            ctx.with_world(|_, s| s.count(metrics::DUP_RESULT));
            return Ok(());
        };
        if checksum != p.expected {
            return Err(SvcError::WrongChecksum {
                task,
                worker: peer,
                got: checksum,
                expected: p.expected,
            });
        }
        self.breakers.entry(peer).or_default().timeouts = 0;
        self.results.push((task, checksum));
        self.latencies.push(ctx.now() - p.submitted);
        Ok(())
    }

    /// Map queued communication exceptions onto worker breakers. A UCP
    /// endpoint give-up toward a worker trips its breaker immediately —
    /// `take_exception` already tore down the channel state for that peer,
    /// so it must never be sent to again. Tasks outstanding on it drain
    /// through their own deadlines. Any other exception is an error.
    fn reap_exceptions(&mut self, py: &mut PyProc, ctx: &mut MCtx) -> Result<(), SvcError> {
        while let Some(rec) = py.take_exception(ctx) {
            match rec.peer {
                Some(p) if rec.exc_type == "TimeoutError" && self.workers.contains(&p) => {
                    self.trip(ctx, p)
                }
                _ => return Err(SvcError::Exception(rec)),
            }
        }
        Ok(())
    }

    fn trip(&mut self, ctx: &mut MCtx, worker: usize) {
        let b = self.breakers.entry(worker).or_default();
        if !b.open {
            b.open = true;
            ctx.with_world(|_, s| s.count(metrics::BREAKER_OPEN));
        }
    }

    /// Take every task past its deadline out of `pending` and, in task-id
    /// order (for determinism), charge its worker's breaker and resubmit or
    /// fail it.
    fn expire_overdue(&mut self, py: &mut PyProc, ctx: &mut MCtx) {
        let now = ctx.now();
        let mut due: Vec<(u64, Pending)> =
            self.pending.extract_if(|_, p| p.deadline <= now).collect();
        due.sort_unstable_by_key(|&(task, _)| task);
        for (task, p) in due {
            ctx.with_world(|_, s| s.count(metrics::TASK_TIMEOUT));
            let b = self.breakers.entry(p.worker).or_default();
            b.timeouts += 1;
            if b.timeouts >= BREAKER_THRESHOLD {
                self.trip(ctx, p.worker);
            }
            self.requeue(py, ctx, task, p);
        }
    }

    /// Resubmit a timed-out task to a surviving worker (re-scattering the
    /// dataset if that worker has never seen it), or declare it failed.
    /// The target choice is a pure function of `(task, resubmits)` and the
    /// breakers, so runs are deterministic.
    fn requeue(&mut self, py: &mut PyProc, ctx: &mut MCtx, task: u64, p: Pending) {
        // Prefer any live worker other than the one that just timed out;
        // fall back to the timed-out worker only if it is the sole
        // survivor (it may merely be slow, not dead).
        let open = |w: &usize| self.breakers.get(w).is_some_and(|b| b.open);
        let live: Vec<usize> = self.workers.iter().copied().filter(|w| !open(w)).collect();
        let mut eligible: Vec<usize> = live.iter().copied().filter(|&w| w != p.worker).collect();
        if eligible.is_empty() {
            eligible = live;
        }
        if p.resubmits >= MAX_RESUBMIT || eligible.is_empty() {
            ctx.with_world(|_, s| s.count(metrics::TASK_FAILED));
            return;
        }
        let mut s = task ^ u64::from(p.resubmits + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let pick = eligible[(splitmix64(&mut s) % eligible.len() as u64) as usize];
        let buf = self.bufs.get(&p.client).copied();
        if let Some(buf) = buf.filter(|_| !self.placed.contains(&(p.client, pick))) {
            self.scatter(py, ctx, pick, p.client, buf);
        }
        ctx.with_world(|_, s| s.count(metrics::RESUBMIT));
        let ch = py.channel(pick);
        let (client, arg) = (p.client, p.arg);
        py.send_host(ctx, ch, ToWorker::Submit { client, task, arg }.encode());
        let deadline = self.deadline.map_or(Time::MAX, |d| ctx.now() + d);
        self.pending.insert(
            task,
            Pending {
                worker: pick,
                deadline,
                resubmits: p.resubmits + 1,
                ..p
            },
        );
    }

    /// `client.gather(futures)`: wait for every outstanding task.
    fn gather_all(&mut self, py: &mut PyProc, ctx: &mut MCtx) -> Result<(), SvcError> {
        while !self.pending.is_empty() {
            self.drain_one(py, ctx)?;
        }
        Ok(())
    }
}

/// Load-generator configuration: `clients` logical clients multiplexed
/// over [`CLIENT_RANKS`] ranks, each scattering one `data_size`-byte
/// dataset and submitting `tasks_per_client` small tasks against it.
#[derive(Debug, Clone)]
pub struct LoadCfg {
    pub clients: usize,
    pub tasks_per_client: usize,
    pub data_size: u64,
    /// Max outstanding futures per client rank before draining.
    pub window: usize,
    /// Per-task worker compute time (µs) — small on purpose: the regime
    /// where fixed communication costs dominate.
    pub compute_us: f64,
    /// Registration/endpoint caching on (`true`) or torn down after every
    /// use (`false`). The cost model itself is always on.
    pub cache: bool,
    pub seed: u64,
    /// Fault-injection spec for chaos runs (`None` = clean).
    pub fault: Option<FaultSpec>,
    /// Per-task deadline in µs arming the recovery layer (resubmission,
    /// circuit breakers); 0 = none, every result is waited for. A clean
    /// run is the same with or without one.
    pub deadline_us: f64,
    /// Simulated worker crash: `(worker index, crash time µs)` — that
    /// worker stops serving at the given virtual time. The crash time must
    /// fall after the scatter phase completes, or the in-flight zero-copy
    /// scatter would hold the client's buffer past teardown.
    pub fail_worker: Option<(usize, f64)>,
}

impl Default for LoadCfg {
    fn default() -> Self {
        LoadCfg {
            clients: 64,
            tasks_per_client: 16,
            data_size: 2048,
            window: 16,
            compute_us: 3.0,
            cache: true,
            seed: 1,
            fault: None,
            deadline_us: 0.0,
            fail_worker: None,
        }
    }
}

/// What one load run produced; everything here is deterministic for a
/// given [`LoadCfg`] (including `wall_us` — the simulation is exact).
#[derive(Debug, Clone)]
pub struct LoadResult {
    pub tasks: u64,
    pub wall_us: f64,
    pub tasks_per_sec: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// `(task id, checksum)`, sorted by task id.
    pub results: Vec<(u64, u64)>,
    /// Order-independent fold of `results`.
    pub digest: u64,
    pub reg_hit: u64,
    pub reg_miss: u64,
    pub reg_evict: u64,
    pub ep_hit: u64,
    pub ep_miss: u64,
    pub premapped_hit: u64,
    /// Tasks abandoned by the recovery machinery (zero on a clean run); the
    /// rest of its activity is the `svc.*` counters of the simulation.
    pub tasks_failed: u64,
    pub ucp_retry: u64,
}

fn percentile(sorted: &[Time], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    as_us(sorted[idx])
}

/// Seed-derived content for one logical client: its worker, dataset bytes,
/// and per-task arguments. Client ranks and workers derive the same values
/// independently, so no out-of-band coordination is needed.
fn client_worker(seed: u64, client: u64, workers: &[usize]) -> usize {
    let mut s = seed ^ client.wrapping_mul(0xa076_1d64_78bd_642f);
    workers[(splitmix64(&mut s) % workers.len() as u64) as usize]
}

fn client_data(seed: u64, client: u64, size: u64) -> Vec<u8> {
    let mut s = seed ^ client.rotate_left(32) ^ 0x5851_f42d_4c95_7f2d;
    let mut rng = Rng::new(splitmix64(&mut s));
    let mut data = vec![0u8; size as usize];
    rng.fill(&mut data);
    data
}

fn task_arg(seed: u64, client: u64, task: u64) -> u64 {
    let mut s = seed ^ client.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ task;
    splitmix64(&mut s)
}

/// The machine a load runs on (with [`Topology::summit`]`(2)`): the
/// registration cost model on, registration caching as `cfg.cache` says,
/// and `cfg.fault` armed.
pub fn machine_config(cfg: &LoadCfg) -> MachineConfig {
    let mut machine = MachineConfig::default();
    machine.ucp.reg_model = true;
    machine.ucp.reg_cache = cfg.cache;
    machine.fault = cfg.fault.clone();
    machine
}

/// Run one full scatter/submit/gather load on a two-node Summit-like
/// cluster built from [`machine_config`]; see [`run_load_on`]. Panics with
/// the [`SvcError`] as one line.
pub fn run_load(cfg: &LoadCfg) -> LoadResult {
    let mut sim = build_sim(Topology::summit(2), machine_config(cfg));
    run_load_on(&mut sim, cfg).unwrap_or_else(|e| panic!("svc load: {e}"))
}

/// Run one load on `sim`, a fresh two-node simulation the caller built
/// from [`machine_config`] (plus tracing or a tighter retry budget); its
/// counters and trace stay in `sim`. The first error a rank records wins
/// over the stall it causes; with none, a stall or a leak is
/// [`SvcError::Run`].
pub fn run_load_on(sim: &mut MSim, cfg: &LoadCfg) -> Result<LoadResult, SvcError> {
    let procs = sim.world().topo.procs();
    if procs != CLIENT_RANKS + WORKER_RANKS {
        return Err(SvcError::WrongSize { procs });
    }
    let cfg = cfg.clone();
    let out = Sink::default();
    let cell = out.clone();
    let clients: Vec<usize> = (0..CLIENT_RANKS).collect();
    launch(sim, move |py, ctx| {
        let body = if py.rank() < CLIENT_RANKS {
            client_body(py, ctx, &cfg, &cell)
        } else {
            worker_body(py, ctx, &cfg, &clients)
        };
        if let Err(e) = body {
            cell.lock().error.get_or_insert(e);
        }
    });
    let run = rucx_ucp::finish(sim);
    let mut g = std::mem::take(&mut *out.lock());
    if let Some(e) = g.error {
        return Err(e);
    }
    run.map_err(SvcError::Run)?;
    g.results.sort_by_key(|&(task, _)| task);
    g.lats.sort_unstable();
    let tasks = g.results.len() as u64;
    let mut digest = 0u64;
    for &(task, ck) in &g.results {
        let mut s = task ^ ck.rotate_left(23);
        digest ^= splitmix64(&mut s);
    }
    let wall_us = as_us(g.end);
    Ok(LoadResult {
        tasks,
        wall_us,
        tasks_per_sec: if wall_us > 0.0 {
            tasks as f64 / (wall_us / 1e6)
        } else {
            0.0
        },
        p50_us: percentile(&g.lats, 0.50),
        p99_us: percentile(&g.lats, 0.99),
        results: g.results,
        digest,
        reg_hit: sim.metrics().get("ucp.reg.hit"),
        reg_miss: sim.metrics().get("ucp.reg.miss"),
        reg_evict: sim.metrics().get("ucp.reg.evict"),
        ep_hit: sim.metrics().get("ucp.ep.hit"),
        ep_miss: sim.metrics().get("ucp.ep.miss"),
        premapped_hit: sim.metrics().get("gpu.pool.premapped_hit"),
        tasks_failed: sim.metrics().get("svc.task_failed"),
        ucp_retry: sim.metrics().get("ucp.retry"),
    })
}

/// What the ranks of a load report: every gathered `(task, checksum)` and
/// latency, the last client's end time, and the first error a rank met.
#[derive(Default)]
struct Gathered {
    results: Vec<(u64, u64)>,
    lats: Vec<Time>,
    end: Time,
    error: Option<SvcError>,
}
type Sink = ResultCell<Gathered>;

fn client_body(py: &mut PyProc, ctx: &mut MCtx, cfg: &LoadCfg, out: &Sink) -> Result<(), SvcError> {
    let rank = py.rank();
    let workers: Vec<usize> = (CLIENT_RANKS..CLIENT_RANKS + WORKER_RANKS).collect();
    let node = ctx.with_world_ref(move |w, _| w.topo.node_of(rank));
    let deadline = (cfg.deadline_us > 0.0).then(|| us(cfg.deadline_us));
    let mut fe = Frontend::new(workers.clone(), deadline);

    // Scatter phase: every logical client ships its dataset to its worker.
    // One send buffer per client — the payload must stay valid until the
    // transfer lands, and the spread of buffers exercises the LRU. The
    // client keeps only its dataset's digest: every expected checksum
    // derives from it.
    let per_client = cfg.tasks_per_client as u64;
    // Per client: its worker, its id, its dataset's digest.
    let mut plans = Vec::new();
    for c in (0..cfg.clients as u64).filter(|c| (*c as usize) % CLIENT_RANKS == rank) {
        let data = client_data(cfg.seed, c, cfg.data_size);
        let buf = ctx.with_world(|w, _| {
            let b = w.gpu.pool.alloc_host(node, cfg.data_size, true, true);
            w.gpu.pool.write(b, &data).map(|()| b)
        })?;
        let worker = client_worker(cfg.seed, c, &workers);
        fe.scatter(py, ctx, worker, c, buf);
        plans.push((worker, c, dataset_digest(&data)));
    }

    // Submit phase: round-robin across this rank's clients so their task
    // streams interleave (many concurrent clients per rank), windowed so
    // the rank never floods the workers.
    for t in 0..per_client {
        for &(worker, client, digest) in &plans {
            while fe.pending.len() >= cfg.window {
                fe.drain_one(py, ctx)?;
            }
            let (task, arg) = (client * per_client + t, task_arg(cfg.seed, client, t));
            let expected = task_checksum(digest, client, task, arg);
            fe.submit(py, ctx, worker, client, (task, arg), expected);
        }
    }
    fe.gather_all(py, ctx)?;

    // Shut the workers down (every client rank signals every worker), then
    // return the scatter buffers in client order.
    for &w in &workers {
        let ch = py.channel(w);
        py.send_host(ctx, ch, ToWorker::Done.encode());
    }
    let mut bufs: Vec<(u64, MemRef)> = fe.bufs.drain().collect();
    bufs.sort_unstable_by_key(|&(client, _)| client);
    for (_, buf) in bufs {
        release(ctx, buf)?;
    }
    let mut g = out.lock();
    g.results.extend(fe.results);
    g.lats.extend(fe.latencies);
    g.end = g.end.max(ctx.now());
    Ok(())
}

/// Serve the client ranks `clients` until each has sent `Done`.
fn worker_body(
    py: &mut PyProc,
    ctx: &mut MCtx,
    cfg: &LoadCfg,
    clients: &[usize],
) -> Result<(), SvcError> {
    let worker = py.rank();
    let node = ctx.with_world_ref(move |w, _| w.topo.node_of(worker));
    // One long-lived, pool-backed receive staging buffer. With caching on
    // it is pre-mapped (the pool-allocator pattern: pay the mapping once
    // at setup), so every zero-copy receive into it is a registration hit.
    let staging = ctx.with_world(|w, _| {
        let b = w.gpu.pool.alloc_host(node, cfg.data_size, true, true);
        if cfg.cache {
            w.gpu.pool.set_premapped(b.id)?;
        }
        Ok::<_, MemError>(b)
    })?;
    let compute = us(cfg.compute_us);
    // Simulated crash: this worker stops serving at `kill_at` (the Python
    // loop exits; the UCP layer below keeps acking, as a host whose
    // process died but whose NIC is alive would).
    let kill_at = cfg
        .fail_worker
        .filter(|&(wi, _)| CLIENT_RANKS + wi == worker)
        .map(|(_, at)| us(at));
    // Per client: the digest of the dataset bytes this worker received.
    let mut digests: IdMap<u64, u64> = IdMap::default();
    let mut done = 0usize;
    while done < clients.len() {
        let Some((peer, bytes)) = py.recv_host_any(ctx, clients, kill_at) else {
            break;
        };
        let request = bytes.as_deref().and_then(ToWorker::decode);
        match request.ok_or(SvcError::BadMessage { rank: worker, peer })? {
            ToWorker::Scatter { client, size } => {
                // The zero-copy payload is the next message on this
                // (ordered) channel.
                let got = py.recv(ctx, py.channel(peer), staging);
                if got != size || size > staging.len {
                    return Err(SvcError::NoDataset { worker, client });
                }
                let data = ctx.with_world(move |w, _| w.gpu.pool.read(staging.slice(0, size)))?;
                digests.insert(client, dataset_digest(&data));
            }
            ToWorker::Submit { client, task, arg } => {
                ctx.advance(compute);
                let &digest = digests
                    .get(&client)
                    .ok_or(SvcError::NoDataset { worker, client })?;
                let checksum = task_checksum(digest, client, task, arg);
                let ch = py.channel(peer);
                py.send_host(ctx, ch, ToClient { task, checksum }.encode());
            }
            ToWorker::Done => done += 1,
        }
    }
    release(ctx, staging)
}

/// Free `buf`, invalidating its cached registration first: a mapping must
/// not outlive its allocation.
fn release(ctx: &mut MCtx, buf: MemRef) -> Result<(), SvcError> {
    ctx.with_world(move |w, s| {
        reg_invalidate(w, s, buf.id);
        Ok(w.gpu.pool.free(buf.id)?)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rucx_gpu::DeviceId;

    /// One load on a simulation the test keeps, to read its counters. At
    /// shutdown every buffer is freed: no registration may stay mapped and
    /// every pre-mapped pool allocation must be returned (the audit behind
    /// `run_load_on` holds the accounting identity itself).
    fn run_held(cfg: &LoadCfg) -> (LoadResult, MSim) {
        let mut sim = build_sim(Topology::summit(2), machine_config(cfg));
        let r = run_load_on(&mut sim, cfg).unwrap_or_else(|e| panic!("{e}"));
        let w = sim.world();
        assert_eq!(w.ucp.reg.live_mappings(), 0, "registrations leaked");
        assert_eq!(w.gpu.pool.premapped_live(), 0, "pre-mapped pool leaked");
        (r, sim)
    }

    fn small(cache: bool, seed: u64) -> LoadCfg {
        LoadCfg {
            clients: 24,
            tasks_per_client: 5,
            data_size: 1024,
            window: 8,
            compute_us: 3.0,
            cache,
            seed,
            ..LoadCfg::default()
        }
    }

    #[test]
    fn cache_on_and_off_compute_identical_results() {
        for seed in [7, 1234] {
            let on = run_held(&small(true, seed)).0;
            let off = run_held(&small(false, seed)).0;
            assert_eq!(on.tasks, 24 * 5);
            assert_eq!(
                on.results, off.results,
                "task results must not depend on caching"
            );
            assert_eq!(on.digest, off.digest);
            // Caching wins at small-task scale: wireup/registration paid
            // once instead of per message.
            assert!(
                on.tasks_per_sec > off.tasks_per_sec,
                "cache-on {} <= cache-off {} tasks/s",
                on.tasks_per_sec,
                off.tasks_per_sec
            );
            assert!(on.p99_us < off.p99_us);
            // Counter shape: with caching, endpoints mostly hit; without,
            // every touch is a miss and nothing is retained.
            assert!(on.ep_hit > on.ep_miss);
            assert_eq!(off.ep_hit, 0);
            assert_eq!(off.reg_hit, 0);
            assert_eq!(off.reg_miss, off.reg_evict);
            // Pre-mapped worker staging buffers only exist with caching on.
            assert!(on.premapped_hit > 0);
            assert_eq!(off.premapped_hit, 0);
        }
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let a = run_held(&small(true, 42)).0;
        let b = run_held(&small(true, 42)).0;
        assert_eq!(a.results, b.results);
        assert_eq!(a.wall_us, b.wall_us);
        assert_eq!(a.p50_us, b.p50_us);
        assert_eq!(a.p99_us, b.p99_us);
        assert_eq!(
            (a.reg_hit, a.reg_miss, a.reg_evict, a.ep_hit, a.ep_miss),
            (b.reg_hit, b.reg_miss, b.reg_evict, b.ep_hit, b.ep_miss)
        );
        // Pinned, so a drift fails here and not only in the benchmark's
        // golden digests. The virtual outputs are the simulation's; the
        // digest also pins the checksum function.
        assert_eq!(
            (a.wall_us, a.p50_us, a.p99_us),
            (1152.966, 404.903, 812.425)
        );
        assert_eq!(
            (a.reg_hit, a.reg_miss, a.reg_evict, a.ep_hit, a.ep_miss),
            (24, 24, 24, 291, 53)
        );
        assert_eq!(a.digest, 0xdf9d_b1bf_4753_a31f);
    }

    #[test]
    fn wire_roundtrip_keeps_lengths_and_rejects_the_other_direction() {
        let requests = [
            ToWorker::Scatter {
                client: 9,
                size: 4096,
            },
            ToWorker::Submit {
                client: 9,
                task: 1234,
                arg: u64::MAX,
            },
            ToWorker::Done,
        ];
        for (msg, len) in requests.into_iter().zip([17, 25, 1]) {
            let enc = msg.encode();
            assert_eq!(enc.len(), len, "{msg:?}");
            assert_eq!(ToWorker::decode(&enc), Some(msg));
            assert_eq!(ToClient::decode(&enc), None, "{msg:?}");
            assert_eq!(ToWorker::decode(&enc[..len - 1]), None, "{msg:?}");
        }
        let result = ToClient {
            task: 1234,
            checksum: 0xdead_beef,
        };
        let enc = result.encode();
        assert_eq!(enc.len(), 17);
        assert_eq!(ToClient::decode(&enc), Some(result));
        assert_eq!(ToWorker::decode(&enc), None);
        assert_eq!(ToClient::decode(&enc[..16]), None);
        assert_eq!(ToClient::decode(&[]), None);
    }

    /// Satellite chaos property: under an inter-node partition that heals,
    /// `gather_all` terminates, any resubmitted task is counted exactly
    /// once, and the gathered results are byte-identical to a clean run.
    #[test]
    fn partition_chaos_gathers_exactly_once_and_matches_clean() {
        let base = LoadCfg {
            clients: 16,
            tasks_per_client: 4,
            data_size: 512,
            window: 8,
            seed: 5,
            ..LoadCfg::default()
        };
        let clean = run_held(&base).0;
        let chaos_cfg = LoadCfg {
            fault: Some(FaultSpec::parse("scenario=partition").unwrap()),
            deadline_us: 2_500.0,
            ..base.clone()
        };
        let (chaos, chaos_sim) = run_held(&chaos_cfg);
        // run_load_on's `finish` is the no-hang and leak gate; here pin down
        // the exactly-once contract: the clean result set has one entry
        // per task, so equality rules out both loss and double-counting.
        assert_eq!(clean.tasks, 16 * 4);
        assert_eq!(
            chaos.results, clean.results,
            "partition chaos corrupted or duplicated results"
        );
        assert_eq!(chaos.digest, clean.digest);
        assert_eq!(chaos.tasks_failed, 0, "no task may be abandoned");
        // Determinism of the chaos run itself.
        let (again, again_sim) = run_held(&chaos_cfg);
        assert_eq!(chaos.results, again.results);
        assert_eq!(chaos.wall_us, again.wall_us);
        for name in ["svc.resubmit", "svc.task_timeout"] {
            let (a, b) = (chaos_sim.metrics(), again_sim.metrics());
            assert_eq!(a.get(name), b.get(name), "{name}");
        }
    }

    /// Satellite chaos property: a worker crash mid-run is survived by
    /// resubmission — p99 stays finite, results match the clean run, and
    /// the crashed worker's breaker opens.
    #[test]
    fn worker_failure_resubmits_and_p99_stays_finite() {
        let base = LoadCfg {
            clients: 16,
            tasks_per_client: 4,
            data_size: 512,
            window: 8,
            seed: 5,
            ..LoadCfg::default()
        };
        let clean = run_held(&base).0;
        let crashed_cfg = LoadCfg {
            deadline_us: 800.0,
            fail_worker: Some((1, 400.0)),
            ..base.clone()
        };
        let (crashed, sim) = run_held(&crashed_cfg);
        assert_eq!(
            crashed.results, clean.results,
            "worker crash corrupted or duplicated results"
        );
        assert_eq!(crashed.digest, clean.digest);
        assert_eq!(crashed.tasks_failed, 0);
        let resubmits = sim.metrics().get("svc.resubmit");
        assert!(resubmits > 0, "a worker crash must force resubmissions");
        assert!(sim.metrics().get("svc.task_timeout") >= resubmits);
        assert!(
            sim.metrics().get("svc.breaker_open") >= 1,
            "the dead worker's breaker opens"
        );
        assert!(crashed.p99_us.is_finite() && crashed.p99_us > 0.0);
        // Recovery costs latency but not correctness.
        assert!(crashed.p99_us >= clean.p99_us);
        let (again, again_sim) = run_held(&crashed_cfg);
        assert_eq!(crashed.results, again.results);
        assert_eq!(crashed.wall_us, again.wall_us);
        assert_eq!(resubmits, again_sim.metrics().get("svc.resubmit"));
    }

    /// The recovery path with no deadline *is* the blocking path: a clean
    /// run is the same with and without a (never-reached) deadline, and
    /// reports zero recovery activity on every counter.
    #[test]
    fn clean_run_ignores_the_deadline_and_has_zero_recovery_counters() {
        let (blocking, blocking_sim) = run_held(&small(true, 3));
        let (armed, armed_sim) = run_held(&LoadCfg {
            deadline_us: 1e9,
            ..small(true, 3)
        });
        for (r, sim) in [(&blocking, &blocking_sim), (&armed, &armed_sim)] {
            let svc = [
                "svc.resubmit",
                "svc.task_timeout",
                "svc.breaker_open",
                "svc.dup_result",
            ]
            .map(|n| sim.metrics().get(n));
            assert_eq!((svc, r.tasks_failed), ([0; 4], 0));
            let ucp = ["ucp.retry", "ucp.reroute", "ucp.giveup"].map(|n| sim.metrics().get(n));
            assert_eq!(ucp, [0, 0, 0]);
        }
        assert_eq!(blocking.digest, armed.digest);
        assert_eq!(blocking.results, armed.results);
        assert_eq!(
            (blocking.p50_us, blocking.p99_us, blocking.wall_us),
            (armed.p50_us, armed.p99_us, armed.wall_us)
        );
    }

    /// A frontend on rank 0 submits task 7 (expected checksum 42) to a
    /// hand-written worker on rank 1, which takes the submit and then runs
    /// `reply`. Returns what `gather_all` returned. A GPU buffer the
    /// frontend refused stays queued on its channel (with a `TypeError`
    /// record); rank 0 takes it off so that the run still ends clean.
    fn gather_from(reply: fn(&mut PyProc, &mut MCtx)) -> (Result<Vec<(u64, u64)>, SvcError>, MSim) {
        let mut sim = build_sim(Topology::summit(1), MachineConfig::default());
        let gathered = rucx_ucp::run(&mut sim, |sim, out| {
            launch(sim, move |py, ctx| match py.rank() {
                0 => {
                    let mut fe = Frontend::new(vec![1], None);
                    fe.submit(py, ctx, 1, 0, (7, 0), 42);
                    let got = fe.gather_all(py, ctx).map(|()| fe.results);
                    if py.take_exception(ctx).is_some() {
                        let buf = ctx.with_world(|w, _| w.gpu.pool.alloc_host(0, 64, true, false));
                        py.recv(ctx, py.channel(1), buf);
                    }
                    *out.lock() = Some(got);
                }
                1 => {
                    py.recv_host(ctx, py.channel(0));
                    reply(py, ctx);
                }
                _ => {}
            })
        });
        (gathered.unwrap().unwrap(), sim)
    }

    /// Without a deadline too, a result for a task that is not pending is
    /// absorbed and counted, and the pending task is still gathered.
    #[test]
    fn a_result_for_no_pending_task_is_absorbed_without_a_deadline() {
        let (gathered, sim) = gather_from(|py, ctx| {
            for task in [5, 7] {
                let msg = ToClient { task, checksum: 42 };
                py.send_host(ctx, py.channel(0), msg.encode());
            }
        });
        assert_eq!(gathered, Ok(vec![(7, 42)]));
        assert_eq!(sim.metrics().get("svc.dup_result"), 1);
    }

    /// A worker that answers with the wrong checksum, or with a GPU buffer
    /// where a result belongs, makes `gather_all` return the matching
    /// error instead of panicking.
    #[test]
    fn a_wrong_checksum_or_a_gpu_buffer_is_an_svc_error() {
        let (wrong, _) = gather_from(|py, ctx| {
            let msg = ToClient {
                task: 7,
                checksum: 41,
            };
            py.send_host(ctx, py.channel(0), msg.encode());
        });
        let want = SvcError::WrongChecksum {
            task: 7,
            worker: 1,
            got: 41,
            expected: 42,
        };
        assert_eq!(wrong, Err(want));
        let (gpu, _) = gather_from(|py, ctx| {
            let buf =
                ctx.with_world(|w, _| w.gpu.pool.alloc_device(DeviceId(1), 64, false).unwrap());
            py.send(ctx, py.channel(0), buf);
        });
        assert_eq!(gpu, Err(SvcError::BadMessage { rank: 0, peer: 1 }));
    }

    #[test]
    fn a_simulation_of_the_wrong_size_is_an_svc_error() {
        let cfg = small(true, 1);
        let mut sim = build_sim(Topology::summit(1), machine_config(&cfg));
        let got = run_load_on(&mut sim, &cfg).err();
        assert_eq!(got, Some(SvcError::WrongSize { procs: 6 }));
    }

    /// A worker that received a dataset one byte off the client's answers
    /// with a checksum the frontend refuses: the worker hashes the bytes
    /// that landed in its staging buffer, not the client's.
    #[test]
    fn a_dataset_one_byte_off_is_a_wrong_checksum() {
        let cfg = LoadCfg {
            data_size: 2049,
            ..LoadCfg::default()
        };
        let (client, task, arg) = (3, 48, 11);
        let data = client_data(cfg.seed, client, cfg.data_size);
        let mut sent = data.clone();
        sent[1000] ^= 1;
        let checksum = |d: &[u8]| task_checksum(dataset_digest(d), client, task, arg);
        let (got, expected) = (checksum(&sent), checksum(&data));
        let mut sim = build_sim(Topology::summit(1), machine_config(&cfg));
        let gathered = rucx_ucp::run(&mut sim, |sim, out| {
            launch(sim, move |py, ctx| match py.rank() {
                0 => {
                    let buf = ctx.with_world(|w, _| {
                        let b = w.gpu.pool.alloc_host(0, cfg.data_size, true, true);
                        w.gpu.pool.write(b, &sent).map(|()| b)
                    });
                    let buf = buf.unwrap();
                    let mut fe = Frontend::new(vec![1], None);
                    fe.scatter(py, ctx, 1, client, buf);
                    fe.submit(py, ctx, 1, client, (task, arg), expected);
                    *out.lock() = Some(fe.gather_all(py, ctx));
                    py.send_host(ctx, py.channel(1), ToWorker::Done.encode());
                    release(ctx, buf).unwrap();
                }
                1 => worker_body(py, ctx, &cfg, &[0]).unwrap(),
                _ => {}
            })
        });
        let want = SvcError::WrongChecksum {
            task,
            worker: 1,
            got,
            expected,
        };
        assert_eq!(gathered.unwrap(), Some(Err(want)));
    }

    /// Every input of a task's result matters: its client, task id and
    /// argument, and every bit of its dataset.
    #[test]
    fn checksum_is_content_pure() {
        let data = client_data(9, 4, 2049);
        let digest = dataset_digest(&data);
        let a = task_checksum(digest, 4, 99, 0xabcd);
        assert_ne!(a, task_checksum(digest, 5, 99, 0xabcd));
        assert_ne!(a, task_checksum(digest, 4, 100, 0xabcd));
        assert_ne!(a, task_checksum(digest, 4, 99, 0xabce));
        assert_ne!(digest, dataset_digest(&data[..2048]));
        let mut flipped = data.clone();
        for i in 0..data.len() {
            for bit in 0..8 {
                flipped[i] ^= 1 << bit;
                let b = task_checksum(dataset_digest(&flipped), 4, 99, 0xabcd);
                assert_ne!(a, b, "byte {i} bit {bit}");
                flipped[i] = data[i];
            }
        }
        // The values themselves are part of every result digest.
        let data = client_data(3, 17, 512);
        assert_eq!(
            task_checksum(dataset_digest(&data), 17, 99, 0xabcd),
            0x95fc_f962_a620_4b71
        );
        let data = client_data(1, 5, 2049);
        assert_eq!(
            task_checksum(dataset_digest(&data), 5, 7, 11),
            0xa7a8_0da9_e015_c126
        );
    }
}
