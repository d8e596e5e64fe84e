//! # rucx-svc — a many-client distributed service layer
//!
//! MPI4Dask-style futures frontend over the Charm4py channel layer: clients
//! `scatter` a dataset to a worker, `submit` many small tasks against it,
//! and `gather` the results. This is the workload shape the paper's UCX
//! layer meets in Dask/UCX-Py deployments — thousands of clients, each
//! task tiny, so per-message fixed costs (endpoint wireup, memory
//! registration) dominate end-to-end latency unless they are amortized by
//! the UCP endpoint/registration caches ([`rucx_ucp::RegCache`]).
//!
//! The crate is a library so the benchmark binary (`examples/svc_bench.rs`)
//! and the determinism/leak tests share one driver: [`run_load_on`] takes a
//! two-node Summit-like simulation (the caller builds it, [`run_load`]
//! builds one from [`machine_config`]), multiplexes `LoadCfg::clients` logical
//! clients over the first 8 ranks (4 ranks serve as workers), runs the
//! scatter/submit/gather protocol with the registration model enabled, and
//! returns throughput, exact latency percentiles, every task's checksum,
//! and the cache counters. The run ends through [`rucx_ucp::finish`], whose
//! audit holds the registration identity (`ucp.reg.miss == ucp.reg.evict +
//! live mappings`, and no mapping on a freed buffer).
//!
//! Task results are pure functions of task content ([`task_checksum`]), so
//! a cache-on and a cache-off run must produce byte-identical result sets
//! — only the timing may differ. That is the correctness contract the
//! property tests pin down.

use rucx_charm4py::{launch, PyProc};
use rucx_compat::buf::{Buf, BufMut};
use rucx_compat::idmap::{IdMap, IdSet};
use rucx_compat::rng::{splitmix64, Rng};
use rucx_fabric::Topology;
use rucx_fault::FaultSpec;
use rucx_gpu::MemRef;
use rucx_sim::time::{as_us, us, Duration, Time};
use rucx_ucp::{build_sim, reg_invalidate, MCtx, MSim, MachineConfig, ResultCell};

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

/// One service-layer wire message (pickled into a channel host object).
enum SvcMsg {
    /// Dataset announcement; the payload follows as a zero-copy channel
    /// send on the same (ordered) channel.
    Scatter { client: u64, size: u64 },
    /// Run one task against a previously scattered dataset.
    Submit { client: u64, task: u64, arg: u64 },
    /// A task result (worker -> client).
    Result { task: u64, checksum: u64 },
    /// This client rank is finished with every worker.
    Done,
}

/// Bytes in the largest encoding (`Submit`: a kind byte and three `u64`s).
const MAX_MSG_BYTES: usize = 1 + 3 * 8;

fn encode(msg: &SvcMsg) -> Vec<u8> {
    let mut b = Vec::with_capacity(MAX_MSG_BYTES);
    match msg {
        SvcMsg::Scatter { client, size } => {
            b.put_u8(MSG_SCATTER);
            b.put_u64(*client);
            b.put_u64(*size);
        }
        SvcMsg::Submit { client, task, arg } => {
            b.put_u8(MSG_SUBMIT);
            b.put_u64(*client);
            b.put_u64(*task);
            b.put_u64(*arg);
        }
        SvcMsg::Result { task, checksum } => {
            b.put_u8(MSG_RESULT);
            b.put_u64(*task);
            b.put_u64(*checksum);
        }
        SvcMsg::Done => b.put_u8(MSG_DONE),
    }
    b
}

fn decode(bytes: &[u8]) -> SvcMsg {
    let mut r: &[u8] = bytes;
    match r.get_u8() {
        MSG_SCATTER => SvcMsg::Scatter {
            client: r.get_u64(),
            size: r.get_u64(),
        },
        MSG_SUBMIT => SvcMsg::Submit {
            client: r.get_u64(),
            task: r.get_u64(),
            arg: r.get_u64(),
        },
        MSG_RESULT => SvcMsg::Result {
            task: r.get_u64(),
            checksum: r.get_u64(),
        },
        MSG_DONE => SvcMsg::Done,
        k => panic!("bad svc message kind {k}"),
    }
}

/// The result of one task: a pure function of the task's content (client,
/// task id, argument, scattered dataset) — independent of scheduling,
/// caching, and timing, which is what makes cache-on/cache-off runs
/// comparable byte-for-byte.
pub fn task_checksum(client: u64, task: u64, arg: u64, data: &[u8]) -> u64 {
    let [h] = checksum_lanes(client, [(task, arg)], data);
    h
}

/// [`task_checksum`] of every `(task, arg)` in `tasks` against one client's
/// dataset, in order. Four tasks go through the hash together, so a client
/// that knows its tasks up front pays about one chain's latency for four.
fn task_checksums(client: u64, tasks: &[(u64, u64)], data: &[u8]) -> Vec<u64> {
    let mut out = Vec::with_capacity(tasks.len());
    let mut quads = tasks.chunks_exact(4);
    for q in &mut quads {
        out.extend(checksum_lanes(client, [q[0], q[1], q[2], q[3]], data));
    }
    for &t in quads.remainder() {
        out.push(task_checksum(client, t.0, t.1, data));
    }
    out
}

/// The one hash loop: `L` independent `(task, arg)` chains over the same
/// data words, in lock-step. Each word costs a chain two dependent
/// multiplies; running `L` chains side by side overlaps their latencies.
fn checksum_lanes<const L: usize>(client: u64, tasks: [(u64, u64); L], data: &[u8]) -> [u64; L] {
    let seed = client.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
    let mut h = tasks.map(|(task, arg)| seed.wrapping_add(task).rotate_left(13).wrapping_add(arg));
    for chunk in data.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        let word = u64::from_le_bytes(word);
        for h in &mut h {
            *h ^= word;
            *h = splitmix64(h);
        }
    }
    h
}

/// A scattered dataset held by a worker, addressable by later submits.
#[derive(Debug, Clone, Copy)]
pub struct DataRef {
    pub worker: usize,
    pub client: u64,
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

/// Client-side futures frontend (the `distributed.Client` analogue):
/// scatter a dataset once, submit many tasks against it, gather results.
/// One frontend serves every logical client multiplexed on its rank.
///
/// With [`Frontend::deadline`] set ([`LoadCfg`]'s `deadline_us`), the
/// frontend survives worker failure: tasks that miss their deadline are
/// resubmitted to a surviving worker (re-scattering the dataset on
/// demand), each worker carries a circuit breaker that opens after
/// [`BREAKER_THRESHOLD`] consecutive timeouts (or immediately on a UCP
/// endpoint give-up), and a late result for an already-gathered task is
/// counted as a duplicate — never twice. Results stay byte-identical to a
/// clean run because [`task_checksum`] is content-pure: any worker
/// computes the same answer. Without a deadline the same drain path simply
/// never times out: it is the blocking wait.
pub struct Frontend {
    workers: Vec<usize>,
    pending: IdMap<u64, Pending>,
    /// Per-task deadline; `None` waits for every result indefinitely.
    pub deadline: Option<Duration>,
    /// Consecutive timeout count per worker (reset by any result).
    fail_count: IdMap<usize, u32>,
    /// Workers with an open breaker. Never reused: an endpoint give-up
    /// tears down the ordered channel's sequence state, so a fresh send to
    /// the same peer would desynchronize delivery.
    tripped: IdSet<usize>,
    /// `(client, worker)` pairs that hold the client's dataset.
    placed: IdSet<(u64, usize)>,
    /// Scatter buffer per client, for on-demand re-scatter at resubmission.
    bufs: IdMap<u64, MemRef>,
    /// `(task id, checksum)` for every gathered task.
    pub results: Vec<(u64, u64)>,
    /// `(task id, submit-to-result latency)` for every gathered task.
    pub latencies: Vec<(u64, Time)>,
    /// Tasks abandoned after [`MAX_RESUBMIT`] or with no eligible worker.
    pub failed: Vec<u64>,
}

impl Frontend {
    pub fn new(workers: Vec<usize>) -> Self {
        Frontend {
            workers,
            pending: IdMap::default(),
            deadline: None,
            fail_count: IdMap::default(),
            tripped: IdSet::default(),
            placed: IdSet::default(),
            bufs: IdMap::default(),
            results: Vec::new(),
            latencies: Vec::new(),
            failed: Vec::new(),
        }
    }

    /// `client.scatter(data)`: announce the dataset inline, then ship the
    /// bytes zero-copy from `buf` (the channel is ordered, so the worker
    /// pairs them up). The buffer must stay allocated until [`run_load`]'s
    /// teardown — freeing it mid-flight is exactly the bug the UCP layer
    /// now surfaces as `InvalidHandle` instead of a panic.
    pub fn scatter(
        &mut self,
        py: &mut PyProc,
        ctx: &mut MCtx,
        worker: usize,
        client: u64,
        buf: MemRef,
    ) -> DataRef {
        let ch = py.channel(worker);
        py.send_host(
            ctx,
            ch,
            encode(&SvcMsg::Scatter {
                client,
                size: buf.len,
            }),
        );
        py.send(ctx, ch, buf);
        self.placed.insert((client, worker));
        self.bufs.insert(client, buf);
        DataRef { worker, client }
    }

    /// `client.submit(fn, data, arg)`: fire one task at the dataset's
    /// worker; the result arrives asynchronously via [`Frontend::drain_one`].
    /// `expected` is the checksum the task must produce (the client can
    /// compute it locally — the task is pure).
    pub fn submit(
        &mut self,
        py: &mut PyProc,
        ctx: &mut MCtx,
        data: DataRef,
        task: u64,
        arg: u64,
        expected: u64,
    ) {
        let now = ctx.now();
        self.pending.insert(
            task,
            Pending {
                expected,
                submitted: now,
                client: data.client,
                arg,
                worker: data.worker,
                deadline: self.deadline_from(now),
                resubmits: 0,
            },
        );
        let ch = py.channel(data.worker);
        py.send_host(
            ctx,
            ch,
            encode(&SvcMsg::Submit {
                client: data.client,
                task,
                arg,
            }),
        );
    }

    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// The deadline of a task (re)submitted at `now`.
    fn deadline_from(&self, now: Time) -> Time {
        self.deadline.map_or(Time::MAX, |d| now + d)
    }

    /// One drain step: surface endpoint give-ups, then wait for a result
    /// from any worker — with [`Frontend::deadline`] set, only until the
    /// earliest outstanding deadline. Every call either gathers a result
    /// (recording its latency and verifying the checksum against the
    /// client-side expectation), absorbs a duplicate, or expires at least
    /// one overdue task — so `gather_all` terminates even with every
    /// worker dead (tasks drain into `failed` once [`MAX_RESUBMIT`] and
    /// the eligible-worker pool are exhausted).
    pub fn drain_one(&mut self, py: &mut PyProc, ctx: &mut MCtx) {
        self.reap_exceptions(py, ctx);
        if self.pending.is_empty() {
            return;
        }
        let dl = self
            .deadline
            .and_then(|_| self.pending.values().map(|p| p.deadline).min());
        let Some((peer, bytes)) = py.recv_host_any(ctx, &self.workers, dl) else {
            return self.expire_overdue(py, ctx);
        };
        match decode(&bytes.expect("svc result payload")) {
            SvcMsg::Result { task, checksum } => match self.pending.remove(&task) {
                Some(p) => {
                    assert_eq!(
                        checksum, p.expected,
                        "task {task} computed a wrong checksum"
                    );
                    self.fail_count.insert(peer, 0);
                    self.results.push((task, checksum));
                    self.latencies.push((task, ctx.now() - p.submitted));
                }
                // A result for a task that is no longer pending (the
                // original worker answered after the task was resubmitted
                // and gathered): absorb, never count twice.
                None => ctx.with_world(|_, s| s.count(metrics::DUP_RESULT)),
            },
            _ => panic!("unexpected message on client rank"),
        }
    }

    /// Map queued communication exceptions onto worker breakers. A UCP
    /// endpoint give-up toward a worker trips its breaker immediately —
    /// `take_exception` already tore down the channel state for that peer,
    /// so it must never be sent to again. Tasks outstanding on it drain
    /// through their own deadlines.
    fn reap_exceptions(&mut self, py: &mut PyProc, ctx: &mut MCtx) {
        while let Some(rec) = py.take_exception(ctx) {
            match (rec.exc_type, rec.peer) {
                ("TimeoutError", Some(p)) if self.workers.contains(&p) => self.trip(ctx, p),
                _ => panic!(
                    "unrecoverable svc exception: {} ({})",
                    rec.exc_type, rec.message
                ),
            }
        }
    }

    fn trip(&mut self, ctx: &mut MCtx, worker: usize) {
        if self.tripped.insert(worker) {
            ctx.with_world(|_, s| s.count(metrics::BREAKER_OPEN));
        }
    }

    /// Expire every task past its deadline (in task-id order, for
    /// determinism): charge the worker's breaker and resubmit or fail.
    fn expire_overdue(&mut self, py: &mut PyProc, ctx: &mut MCtx) {
        let now = ctx.now();
        let mut due: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.deadline <= now)
            .map(|(&t, _)| t)
            .collect();
        due.sort_unstable();
        for task in due {
            ctx.with_world(|_, s| s.count(metrics::TASK_TIMEOUT));
            let worker = self.pending[&task].worker;
            let failures = {
                let n = self.fail_count.entry(worker).or_insert(0);
                *n += 1;
                *n
            };
            if failures >= BREAKER_THRESHOLD {
                self.trip(ctx, worker);
            }
            self.requeue(py, ctx, task);
        }
    }

    /// Resubmit a timed-out task to a surviving worker (re-scattering the
    /// dataset if that worker has never seen it), or declare it failed.
    /// The target choice is a pure function of `(task, resubmits)` and the
    /// breaker set, so runs are deterministic.
    fn requeue(&mut self, py: &mut PyProc, ctx: &mut MCtx, task: u64) {
        let p = self.pending.remove(&task).expect("requeue of unknown task");
        // Prefer any live worker other than the one that just timed out;
        // fall back to the timed-out worker only if it is the sole
        // survivor (it may merely be slow, not dead).
        let mut eligible: Vec<usize> = self
            .workers
            .iter()
            .copied()
            .filter(|w| !self.tripped.contains(w) && *w != p.worker)
            .collect();
        if eligible.is_empty() {
            eligible = self
                .workers
                .iter()
                .copied()
                .filter(|w| !self.tripped.contains(w))
                .collect();
        }
        if p.resubmits >= MAX_RESUBMIT || eligible.is_empty() {
            ctx.with_world(|_, s| s.count(metrics::TASK_FAILED));
            self.failed.push(task);
            return;
        }
        let mut s = task ^ u64::from(p.resubmits + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let pick = eligible[(splitmix64(&mut s) % eligible.len() as u64) as usize];
        if !self.placed.contains(&(p.client, pick)) {
            let buf = self.bufs[&p.client];
            self.scatter(py, ctx, pick, p.client, buf);
        }
        ctx.with_world(|_, s| s.count(metrics::RESUBMIT));
        let ch = py.channel(pick);
        py.send_host(
            ctx,
            ch,
            encode(&SvcMsg::Submit {
                client: p.client,
                task,
                arg: p.arg,
            }),
        );
        let deadline = self.deadline_from(ctx.now());
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
    pub fn gather_all(&mut self, py: &mut PyProc, ctx: &mut MCtx) {
        while !self.pending.is_empty() {
            self.drain_one(py, ctx);
        }
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
/// cluster built from [`machine_config`]; see [`run_load_on`].
pub fn run_load(cfg: &LoadCfg) -> LoadResult {
    let mut sim = build_sim(Topology::summit(2), machine_config(cfg));
    run_load_on(&mut sim, cfg)
}

/// Run one load on `sim`, a fresh two-node Summit-like simulation the
/// caller built (from [`machine_config`], plus whatever the caller adds:
/// tracing, a tighter UCP retry budget); panics with one line if the run
/// stalls or [`rucx_ucp::audit`] finds a leak. Every counter and trace
/// event of the run stays in `sim`.
pub fn run_load_on(sim: &mut MSim, cfg: &LoadCfg) -> LoadResult {
    assert_eq!(sim.world().topo.procs(), CLIENT_RANKS + WORKER_RANKS);
    let workers: Vec<usize> = (CLIENT_RANKS..CLIENT_RANKS + WORKER_RANKS).collect();
    let cfg2 = cfg.clone();
    let run = rucx_ucp::run(sim, |sim, out: RankSink| {
        launch(sim, move |py, ctx| {
            let rank = py.rank();
            if rank < CLIENT_RANKS {
                client_body(py, ctx, &cfg2, &workers, &out);
            } else {
                worker_body(py, ctx, &cfg2);
            }
        })
    });
    let mut ranks = run.unwrap_or_else(|e| panic!("svc load: {e}"));
    ranks.sort_by_key(|r| r.0);
    let mut results = Vec::new();
    let mut lats = Vec::new();
    let mut finish: Time = 0;
    for (_, res, lat, end) in ranks {
        results.extend(res);
        lats.extend(lat.into_iter().map(|(_, d)| d));
        finish = finish.max(end);
    }
    results.sort_by_key(|&(task, _)| task);
    lats.sort_unstable();
    let tasks = results.len() as u64;
    let mut digest = 0u64;
    for &(task, ck) in &results {
        let mut s = task ^ ck.rotate_left(23);
        digest ^= splitmix64(&mut s);
    }
    let wall_us = as_us(finish);
    LoadResult {
        tasks,
        wall_us,
        tasks_per_sec: if wall_us > 0.0 {
            tasks as f64 / (wall_us / 1e6)
        } else {
            0.0
        },
        p50_us: percentile(&lats, 0.50),
        p99_us: percentile(&lats, 0.99),
        results,
        digest,
        reg_hit: sim.metrics().get("ucp.reg.hit"),
        reg_miss: sim.metrics().get("ucp.reg.miss"),
        reg_evict: sim.metrics().get("ucp.reg.evict"),
        ep_hit: sim.metrics().get("ucp.ep.hit"),
        ep_miss: sim.metrics().get("ucp.ep.miss"),
        premapped_hit: sim.metrics().get("gpu.pool.premapped_hit"),
        tasks_failed: sim.metrics().get("svc.task_failed"),
        ucp_retry: sim.metrics().get("ucp.retry"),
    }
}

/// Per-rank gathered output: (rank, results, latencies, finish time).
type RankSink = ResultCell<Vec<(usize, Vec<(u64, u64)>, Vec<(u64, Time)>, Time)>>;

fn client_body(py: &mut PyProc, ctx: &mut MCtx, cfg: &LoadCfg, workers: &[usize], out: &RankSink) {
    let rank = py.rank();
    let node = ctx.with_world_ref(move |w, _| w.topo.node_of(rank));
    let mine: Vec<u64> = (0..cfg.clients as u64)
        .filter(|c| (*c as usize) % CLIENT_RANKS == rank)
        .collect();
    let mut fe = Frontend::new(workers.to_vec());
    fe.deadline = (cfg.deadline_us > 0.0).then(|| us(cfg.deadline_us));

    // Scatter phase: every logical client ships its dataset to its worker.
    // One send buffer per client — the payload must stay valid until the
    // transfer lands, and the spread of buffers exercises the LRU. The
    // client knows all its tasks now, so it computes their expected
    // checksums here, four at a time (`task_checksums`).
    let per_client = cfg.tasks_per_client as u64;
    let mut bufs = Vec::with_capacity(mine.len());
    // Per client: its dataset's handle, its `(task, arg)`s, their checksums.
    let mut plans = Vec::with_capacity(mine.len());
    for &c in &mine {
        let data = client_data(cfg.seed, c, cfg.data_size);
        let size = cfg.data_size;
        let buf = ctx.with_world(|w, _| {
            let b = w.gpu.pool.alloc_host(node, size, true, true);
            w.gpu.pool.write(b, &data).expect("stage scatter payload");
            b
        });
        let worker = client_worker(cfg.seed, c, workers);
        let data_ref = fe.scatter(py, ctx, worker, c, buf);
        bufs.push(buf);
        let tasks: Vec<(u64, u64)> = (0..per_client)
            .map(|t| (c * per_client + t, task_arg(cfg.seed, c, t)))
            .collect();
        let expected = task_checksums(c, &tasks, &data);
        plans.push((data_ref, tasks, expected));
    }

    // Submit phase: round-robin across this rank's clients so their task
    // streams interleave (many concurrent clients per rank), windowed so
    // the rank never floods the workers.
    for t in 0..cfg.tasks_per_client {
        for (data_ref, tasks, expected) in &plans {
            let (task, arg) = tasks[t];
            while fe.outstanding() >= cfg.window {
                fe.drain_one(py, ctx);
            }
            fe.submit(py, ctx, *data_ref, task, arg, expected[t]);
        }
    }
    fe.gather_all(py, ctx);

    // Shut the workers down (every client rank signals every worker), then
    // return the scatter buffers: the registration must not outlive the
    // allocation, so each free invalidates its cached mapping first.
    for &w in workers {
        let ch = py.channel(w);
        py.send_host(ctx, ch, encode(&SvcMsg::Done));
    }
    for buf in bufs {
        ctx.with_world(move |w, s| {
            reg_invalidate(w, s, buf.id);
            w.gpu.pool.free(buf.id).expect("free scatter buffer");
        });
    }
    out.lock().push((rank, fe.results, fe.latencies, ctx.now()));
}

fn worker_body(py: &mut PyProc, ctx: &mut MCtx, cfg: &LoadCfg) {
    let rank = py.rank();
    let node = ctx.with_world_ref(move |w, _| w.topo.node_of(rank));
    let clients: Vec<usize> = (0..CLIENT_RANKS).collect();
    // One long-lived, pool-backed receive staging buffer. With caching on
    // it is pre-mapped (the pool-allocator pattern: pay the mapping once
    // at setup), so every zero-copy receive into it is a registration hit.
    let size = cfg.data_size;
    let cache = cfg.cache;
    let staging = ctx.with_world(move |w, _| {
        let b = w.gpu.pool.alloc_host(node, size, true, true);
        if cache {
            w.gpu.pool.set_premapped(b.id).expect("premap staging");
        }
        b
    });
    let compute = us(cfg.compute_us);
    // Simulated crash: this worker stops serving at `kill_at` (the Python
    // loop exits; the UCP layer below keeps acking, as a host whose
    // process died but whose NIC is alive would).
    let kill_at: Option<Time> = match cfg.fail_worker {
        Some((wi, at)) if CLIENT_RANKS + wi == rank => Some(us(at)),
        _ => None,
    };
    let mut datasets: IdMap<u64, Vec<u8>> = IdMap::default();
    let mut done = 0usize;
    while done < CLIENT_RANKS {
        let Some((peer, bytes)) = py.recv_host_any(ctx, &clients, kill_at) else {
            break;
        };
        match decode(&bytes.expect("svc control payload")) {
            SvcMsg::Scatter { client, size } => {
                // The zero-copy payload is the next message on this
                // (ordered) channel.
                let got = py.recv(ctx, py.channel(peer), staging);
                assert_eq!(got, size, "scatter payload size mismatch");
                let data = ctx
                    .with_world(move |w, _| w.gpu.pool.read(staging.slice(0, size)))
                    .expect("read scattered dataset");
                datasets.insert(client, data);
            }
            SvcMsg::Submit { client, task, arg } => {
                ctx.advance(compute);
                let data = datasets.get(&client).expect("submit before scatter");
                let checksum = task_checksum(client, task, arg, data);
                let ch = py.channel(peer);
                py.send_host(ctx, ch, encode(&SvcMsg::Result { task, checksum }));
            }
            SvcMsg::Done => done += 1,
            SvcMsg::Result { .. } => panic!("unexpected result on worker rank"),
        }
    }
    ctx.with_world(move |w, s| {
        reg_invalidate(w, s, staging.id);
        w.gpu.pool.free(staging.id).expect("free staging buffer");
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One load on a simulation the test keeps, to read its counters. At
    /// shutdown every buffer is freed: no registration may stay mapped and
    /// every pre-mapped pool allocation must be returned (the audit behind
    /// `run_load_on` holds the accounting identity itself).
    fn run_held(cfg: &LoadCfg) -> (LoadResult, MSim) {
        let mut sim = build_sim(Topology::summit(2), machine_config(cfg));
        let r = run_load_on(&mut sim, cfg);
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
        // Pinned, so a checksum that drifts fails here and not only in the
        // benchmark's golden digests.
        assert_eq!(a.digest, 0x28e9_f366_2591_cc77);
    }

    #[test]
    fn wire_roundtrip() {
        for msg in [
            SvcMsg::Scatter {
                client: 9,
                size: 4096,
            },
            SvcMsg::Submit {
                client: 9,
                task: 1234,
                arg: u64::MAX,
            },
            SvcMsg::Result {
                task: 1234,
                checksum: 0xdead_beef,
            },
            SvcMsg::Done,
        ] {
            let enc = encode(&msg);
            match (msg, decode(&enc)) {
                (
                    SvcMsg::Scatter { client: a, size: b },
                    SvcMsg::Scatter { client: c, size: d },
                ) => assert_eq!((a, b), (c, d)),
                (
                    SvcMsg::Submit {
                        client: a,
                        task: b,
                        arg: c,
                    },
                    SvcMsg::Submit {
                        client: d,
                        task: e,
                        arg: f,
                    },
                ) => assert_eq!((a, b, c), (d, e, f)),
                (
                    SvcMsg::Result {
                        task: a,
                        checksum: b,
                    },
                    SvcMsg::Result {
                        task: c,
                        checksum: d,
                    },
                ) => assert_eq!((a, b), (c, d)),
                (SvcMsg::Done, SvcMsg::Done) => {}
                _ => panic!("roundtrip changed the message kind"),
            }
        }
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

    /// Without a deadline too, a result for a task that is not pending is
    /// absorbed and counted, and the pending task is still gathered.
    #[test]
    fn a_result_for_no_pending_task_is_absorbed_without_a_deadline() {
        let mut sim = build_sim(Topology::summit(1), MachineConfig::default());
        let gathered = rucx_ucp::run(&mut sim, |sim, out| {
            launch(sim, move |py, ctx| match py.rank() {
                0 => {
                    let mut fe = Frontend::new(vec![1]);
                    fe.submit(
                        py,
                        ctx,
                        DataRef {
                            worker: 1,
                            client: 0,
                        },
                        7,
                        0,
                        42,
                    );
                    fe.gather_all(py, ctx);
                    *out.lock() = fe.results;
                }
                1 => {
                    let ch = py.channel(0);
                    for task in [5, 7] {
                        let msg = SvcMsg::Result { task, checksum: 42 };
                        py.send_host(ctx, ch, encode(&msg));
                    }
                    py.recv_host(ctx, ch);
                }
                _ => {}
            })
        });
        assert_eq!(gathered.unwrap(), vec![(7, 42)]);
        assert_eq!(sim.metrics().get("svc.dup_result"), 1);
    }

    #[test]
    fn checksum_is_content_pure() {
        let data = client_data(3, 17, 512);
        let a = task_checksum(17, 99, 0xabcd, &data);
        let b = task_checksum(17, 99, 0xabcd, &data);
        assert_eq!(a, b);
        assert_ne!(a, task_checksum(17, 100, 0xabcd, &data));
        assert_ne!(a, task_checksum(18, 99, 0xabcd, &data));
        assert_ne!(a, task_checksum(17, 99, 0xabce, &data));
        // The values themselves are part of every result digest.
        assert_eq!(a, 0xa8cf_03fd_1978_29b1);
        assert_eq!(
            task_checksum(5, 7, 11, &client_data(1, 5, 2049)),
            0xc26e_5a26_dbf5_17be
        );
        // Each lane of the four-lane form is the one-lane checksum, across
        // word-boundary lengths and every remainder of tasks mod 4.
        let data = client_data(9, 4, 2049);
        for len in [0, 1, 7, 8, 9, 2047, 2048, 2049] {
            let data = &data[..len];
            for n in 1..=9u64 {
                let tasks: Vec<(u64, u64)> = (0..n).map(|t| (100 + t, t * 0x1234_5678)).collect();
                let one: Vec<u64> = tasks
                    .iter()
                    .map(|&(task, arg)| task_checksum(4, task, arg, data))
                    .collect();
                assert_eq!(task_checksums(4, &tasks, data), one, "len {len}, {n} tasks");
            }
        }
    }
}
