//! The six workloads. Each is a fixed list of cases — single calls into
//! the `rucx` facade — run in a closed loop from one client thread: the
//! next simulation starts when the previous one has returned. A pass runs
//! every case once; the timed passes of a run are identical.
//!
//! Only `svc_256c` and `chaos_drop1` have seed-dependent inputs
//! (`LoadCfg::seed`, the `FaultSpec` seed); the other four regenerate the
//! paper's fixed figures, so their inputs are the same under every seed.

use rucx::fault::FaultSpec;
use rucx::jacobi::{self, JacobiConfig, JacobiModel};
use rucx::osu::coll_bench::{coll_latency, CollKind};
use rucx::osu::{self, Mode, Model, OsuConfig, Placement, Series};
use rucx::svc::{run_load, LoadCfg, LoadResult};

use crate::measure::{ns_per_op, Case, Metric};
use crate::paper_ref;

pub const NAMES: [&str; 6] = [
    "osu_figures",
    "pingpong",
    "stream",
    "jacobi_8n",
    "svc_256c",
    "chaos_drop1",
];

/// Model order of every per-model loop, with the names metrics use.
const MODELS: [(Model, &str); 4] = [
    (Model::Ompi, "ompi"),
    (Model::Charm, "charm"),
    (Model::Ampi, "ampi"),
    (Model::Charm4py, "charm4py"),
];
const PLACES: [(Placement, &str); 2] = [
    (Placement::IntraNode, "intra"),
    (Placement::InterNode, "inter"),
];
const MODES: [Mode; 2] = [Mode::HostStaging, Mode::Device];

/// One pass's simulated outputs, by case index.
type Outs = [Vec<f64>];
type CheckFn = Box<dyn Fn(&Outs, Option<&Outs>) -> Result<(), String>>;
type PaperErrFn = Box<dyn Fn(&Outs) -> f64>;
type SplitFn = Box<dyn Fn(&[Case], &[f64], &Outs) -> Vec<Metric>>;

pub struct Workload {
    pub name: &'static str,
    /// What one operation is.
    pub op: &'static str,
    /// Iteration counts and sizes, for the configuration stamp.
    pub config: String,
    pub cases: Vec<Case>,
    /// The reduced, untimed warm-up pass (same code paths, fewer iterations).
    pub warm: Vec<Case>,
    /// Clean twins of the cases, for `chaos_drop1` only: the fault-free
    /// results its check compares against.
    pub reference: Vec<Case>,
    /// Checks one complete pass's simulated outputs (and the reference
    /// pass's, where there is one).
    pub check: CheckFn,
    /// Mean |simulated ÷ paper − 1| where EXPERIMENTS.md holds paper
    /// values for this workload; `None` means "model unvalidated".
    pub paper_err_pct: Option<PaperErrFn>,
    /// Per-case splits from one pass's case times and simulated outputs.
    pub splits: SplitFn,
}

impl Workload {
    pub fn ops_per_pass(&self) -> u64 {
        self.cases.iter().map(|c| c.ops).sum()
    }
}

pub fn build(name: &str, seed: u64) -> Option<Workload> {
    Some(match name {
        "osu_figures" => osu_figures(),
        "pingpong" => pingpong(),
        "stream" => stream(),
        "jacobi_8n" => jacobi_8n(),
        "svc_256c" => svc_256c(seed),
        "chaos_drop1" => chaos_drop1(seed),
        _ => return None,
    })
}

fn values(s: &Series) -> Vec<f64> {
    s.points.iter().map(|p| p.1).collect()
}

// ---------------------------------------------------------------- osu_figures

/// Case index of one series: metric-major, then placement, model, mode —
/// the order `osu_cases` pushes them in.
fn osu_idx(bandwidth: bool, place: usize, model: usize, device: bool) -> usize {
    (((bandwidth as usize) * 2 + place) * 4 + model) * 2 + device as usize
}

fn osu_cases(cfg: &OsuConfig) -> Vec<Case> {
    let mut cases = Vec::new();
    for bandwidth in [false, true] {
        for (place, _) in PLACES {
            for (model, _) in MODELS {
                for mode in MODES {
                    let cfg = cfg.clone();
                    let ops = cfg.sizes.len() as u64;
                    cases.push(if bandwidth {
                        Case::new("osu.bandwidth", "bandwidth", ops, move || {
                            values(&osu::bandwidth(&cfg, model, mode, place))
                        })
                    } else {
                        Case::new("osu.latency", "latency", ops, move || {
                            values(&osu::latency(&cfg, model, mode, place))
                        })
                    });
                }
            }
        }
    }
    cases
}

/// H→D improvement per size: latency H/D, bandwidth D/H.
fn improvement(o: &Outs, row: &paper_ref::Table1Row) -> Vec<f64> {
    let place = PLACES.iter().position(|p| p.0 == row.place).unwrap();
    let model = MODELS.iter().position(|m| m.0 == row.model).unwrap();
    let h = &o[osu_idx(row.bandwidth, place, model, false)];
    let d = &o[osu_idx(row.bandwidth, place, model, true)];
    h.iter()
        .zip(d)
        .map(|(h, d)| if row.bandwidth { d / h } else { h / d })
        .collect()
}

/// Index of the 512 B point in the default 1 B–4 MB power-of-two sweep.
const EAGER_512: usize = 9;

fn osu_figures() -> Workload {
    let cfg = OsuConfig::default();
    let warm_cfg = OsuConfig {
        sizes: vec![8, 1 << 20],
        ..OsuConfig::default()
    };
    assert_eq!(cfg.sizes[EAGER_512], 512);
    Workload {
        name: "osu_figures",
        op: "one point = one whole simulation",
        config: format!(
            "osu latency+bandwidth x 4 models x H,D x intra,inter x {} sizes; lat_iters={} \
             lat_warmup={} bw_iters={} bw_warmup={} bw_window={}",
            cfg.sizes.len(),
            cfg.lat_iters,
            cfg.lat_warmup,
            cfg.bw_iters,
            cfg.bw_warmup,
            cfg.bw_window
        ),
        cases: osu_cases(&cfg),
        warm: osu_cases(&warm_cfg),
        reference: Vec::new(),
        check: Box::new(|o, _| {
            positive(o)?;
            for (p, (_, place)) in PLACES.iter().enumerate() {
                for (m, (_, model)) in MODELS.iter().enumerate() {
                    let h = o[osu_idx(false, p, m, false)][EAGER_512];
                    let d = o[osu_idx(false, p, m, true)][EAGER_512];
                    if d >= h {
                        return Err(format!(
                            "{model} {place}: D latency {d} us not below H latency {h} us at 512 B"
                        ));
                    }
                }
            }
            Ok(())
        }),
        paper_err_pct: Some(Box::new(|o| {
            let mut pairs = Vec::new();
            for row in &paper_ref::TABLE1 {
                let r = improvement(o, row);
                if let Some(eager) = row.eager {
                    pairs.push((r[EAGER_512], eager));
                }
                pairs.push((crate::measure::min(&r), row.lo));
                pairs.push((r.iter().copied().fold(f64::MIN, f64::max), row.hi));
            }
            assert_eq!(pairs.len(), 30);
            paper_ref::mean_err_pct(&pairs)
        })),
        splits: Box::new(|cases, ns, o| {
            let mut m = vec![
                Metric::exact(
                    "osu.host_ms_per_point.latency",
                    "ms",
                    ns_per_op(cases, ns, "latency") / 1e6,
                ),
                Metric::exact(
                    "osu.host_ms_per_point.bandwidth",
                    "ms",
                    ns_per_op(cases, ns, "bandwidth") / 1e6,
                ),
            ];
            for row in paper_ref::TABLE1.iter().filter(|r| r.eager.is_some()) {
                let place = PLACES.iter().find(|p| p.0 == row.place).unwrap().1;
                let model = MODELS.iter().find(|x| x.0 == row.model).unwrap().1;
                m.push(Metric::exact(
                    format!("osu.virt_eager_ratio.{model}.{place}"),
                    "x",
                    improvement(o, row)[EAGER_512],
                ));
            }
            m
        }),
    }
}

// ------------------------------------------------------------ pingpong, stream

const P2P_SIZES: [u64; 3] = [8, 4 << 10, 1 << 20];

fn pingpong_cases(iters: u32) -> Vec<Case> {
    let cfg = OsuConfig {
        sizes: P2P_SIZES.to_vec(),
        lat_iters: iters,
        ..OsuConfig::default()
    };
    let mut cases = Vec::new();
    for (model, name) in MODELS {
        for (place, _) in PLACES {
            let cfg = cfg.clone();
            // One-way messages of the measured iterations.
            let ops = 2 * iters as u64 * P2P_SIZES.len() as u64;
            cases.push(Case::new("osu.latency", name, ops, move || {
                values(&osu::latency(&cfg, model, Mode::Device, place))
            }));
        }
    }
    cases
}

fn positive(o: &Outs) -> Result<(), String> {
    if o.iter().flatten().any(|v| !v.is_finite() || *v <= 0.0) {
        return Err("a simulated result is not a positive finite number".into());
    }
    Ok(())
}

fn per_model_splits(prefix: &'static str) -> SplitFn {
    Box::new(move |cases, ns, _| {
        MODELS
            .iter()
            .map(|(_, model)| {
                Metric::exact(
                    format!("{prefix}.ns_per_msg.{model}"),
                    "ns",
                    ns_per_op(cases, ns, model),
                )
            })
            .collect()
    })
}

const PINGPONG_ITERS: u32 = 10_000;

fn pingpong() -> Workload {
    Workload {
        name: "pingpong",
        op: "one one-way message",
        config: format!(
            "osu latency D x 4 models x intra,inter x sizes {P2P_SIZES:?}; \
             lat_iters={PINGPONG_ITERS} lat_warmup=5"
        ),
        cases: pingpong_cases(PINGPONG_ITERS),
        warm: pingpong_cases(500),
        reference: Vec::new(),
        check: Box::new(|o, _| positive(o)),
        paper_err_pct: None,
        splits: per_model_splits("pingpong"),
    }
}

fn stream_cases(iters: u32, window: u32) -> Vec<Case> {
    let cfg = OsuConfig {
        sizes: P2P_SIZES.to_vec(),
        bw_iters: iters,
        bw_window: window,
        ..OsuConfig::default()
    };
    MODELS
        .iter()
        .map(|&(model, name)| {
            let cfg = cfg.clone();
            let ops = (iters * window) as u64 * P2P_SIZES.len() as u64;
            Case::new("osu.bandwidth", name, ops, move || {
                values(&osu::bandwidth(
                    &cfg,
                    model,
                    Mode::Device,
                    Placement::InterNode,
                ))
            })
        })
        .collect()
}

const STREAM_ITERS: u32 = 500;
const STREAM_WINDOW: u32 = 64;

fn stream() -> Workload {
    Workload {
        name: "stream",
        op: "one message",
        config: format!(
            "osu bandwidth D inter x 4 models x sizes {P2P_SIZES:?}; \
             bw_window={STREAM_WINDOW} bw_iters={STREAM_ITERS} bw_warmup=1"
        ),
        cases: stream_cases(STREAM_ITERS, STREAM_WINDOW),
        warm: stream_cases(20, STREAM_WINDOW),
        reference: Vec::new(),
        check: Box::new(|o, _| positive(o)),
        paper_err_pct: None,
        splits: per_model_splits("stream"),
    }
}

// ------------------------------------------------------------------ jacobi_8n

const JACOBI_MODELS: [(JacobiModel, &str); 4] = [
    (JacobiModel::Ompi, "ompi"),
    (JacobiModel::Charm, "charm"),
    (JacobiModel::Ampi, "ampi"),
    (JacobiModel::Charm4py, "charm4py"),
];

/// One `jacobi::run` at `nodes`; op = one rank-iteration, warm-up
/// iterations included (they cost the same host time).
pub fn jacobi_case(
    model: JacobiModel,
    key: String,
    nodes: usize,
    mode: Mode,
    iters: u32,
    fault: Option<FaultSpec>,
) -> Case {
    let mut cfg = JacobiConfig::weak(nodes, mode);
    cfg.iters = iters;
    cfg.warmup = 1;
    cfg.machine.fault = fault;
    let ops = cfg.ranks() as u64 * (iters + 1) as u64;
    Case::new("jacobi.run", key, ops, move || {
        let r = jacobi::run(model, &cfg);
        vec![r.overall_ms, r.comm_ms]
    })
}

const JACOBI_ITERS: u32 = 2;
const JACOBI_1N_ITERS: u32 = 5;

fn jacobi_cases(nodes: usize, iters: u32) -> Vec<Case> {
    let mut cases = Vec::new();
    for (model, name) in JACOBI_MODELS {
        for mode in MODES {
            cases.push(jacobi_case(
                model,
                format!("{name}.{}", mode.suffix()),
                nodes,
                mode,
                iters,
                None,
            ));
        }
    }
    // The paper's one-node communication speed-up (H over D).
    for (model, name) in [JACOBI_MODELS[1], JACOBI_MODELS[2]] {
        for mode in MODES {
            cases.push(jacobi_case(
                model,
                format!("1n.{name}"),
                1,
                mode,
                JACOBI_1N_ITERS,
                None,
            ));
        }
    }
    cases
}

/// `(charm, ampi)` one-node communication speed-ups from a pass's outputs.
fn jacobi_speedups_1n(o: &Outs) -> (f64, f64) {
    // Cases 8..12 are charm H, charm D, ampi H, ampi D at one node.
    (o[8][1] / o[9][1], o[10][1] / o[11][1])
}

fn jacobi_8n() -> Workload {
    Workload {
        name: "jacobi_8n",
        op: "one rank-iteration",
        config: format!(
            "jacobi weak 8 nodes (48 ranks) x 4 models x H,D iters={JACOBI_ITERS} warmup=1; \
             1 node x charm,ampi x H,D iters={JACOBI_1N_ITERS} warmup=1"
        ),
        cases: jacobi_cases(8, JACOBI_ITERS),
        warm: jacobi_cases(2, 1),
        reference: Vec::new(),
        check: Box::new(|o, _| {
            positive(o)?;
            for (i, r) in o.iter().enumerate() {
                if r[1] >= r[0] {
                    return Err(format!(
                        "case {i}: comm {} ms not below overall {} ms",
                        r[1], r[0]
                    ));
                }
            }
            Ok(())
        }),
        paper_err_pct: Some(Box::new(|o| {
            let (charm, ampi) = jacobi_speedups_1n(o);
            paper_ref::mean_err_pct(&[
                (charm, paper_ref::JACOBI_COMM_SPEEDUP_1N_CHARM),
                (ampi, paper_ref::JACOBI_COMM_SPEEDUP_1N_AMPI),
            ])
        })),
        splits: Box::new(|cases, ns, o| {
            let mut m = Vec::new();
            for (i, (_, model)) in JACOBI_MODELS.iter().enumerate() {
                for (j, mode) in MODES.iter().enumerate() {
                    let key = format!("{model}.{}", mode.suffix());
                    m.push(Metric::exact(
                        format!("jacobi.host_ms_per_rank_iter.{key}"),
                        "ms",
                        ns_per_op(cases, ns, &key) / 1e6,
                    ));
                    if *mode == Mode::Device {
                        m.push(Metric::exact(
                            format!("jacobi.virt_overall_ms.{model}.D"),
                            "ms",
                            o[2 * i + j][0],
                        ));
                    }
                }
            }
            let (charm, ampi) = jacobi_speedups_1n(o);
            m.push(Metric::exact(
                "jacobi.virt_comm_speedup_1n.charm",
                "x",
                charm,
            ));
            m.push(Metric::exact("jacobi.virt_comm_speedup_1n.ampi", "x", ampi));
            m
        }),
    }
}

// ------------------------------------------------------------------- svc_256c

/// `LoadResult` as simulated outputs. The first two values are the result
/// digest (split so each half is exact in an `f64`).
fn load_outs(r: &LoadResult) -> Vec<f64> {
    vec![
        (r.digest >> 32) as f64,
        (r.digest & 0xffff_ffff) as f64,
        r.tasks as f64,
        r.tasks_failed as f64,
        r.wall_us,
        r.p50_us,
        r.p99_us,
        r.tasks_per_sec,
        r.reg_hit as f64,
        r.reg_miss as f64,
        r.ep_hit as f64,
        r.ep_miss as f64,
        r.ucp_retry as f64,
    ]
}
const L_TASKS: usize = 2;
const L_FAILED: usize = 3;
const L_P99: usize = 6;
const L_RATE: usize = 7;
const L_REG_HIT: usize = 8;
const L_REG_MISS: usize = 9;
const L_EP_HIT: usize = 10;
const L_EP_MISS: usize = 11;
const L_RETRY: usize = 12;

fn svc_case(key: &str, cfg: LoadCfg) -> Case {
    let ops = (cfg.clients * cfg.tasks_per_client) as u64;
    Case::new("svc.run_load", key, ops, move || load_outs(&run_load(&cfg)))
}

fn svc_cases(clients: usize, seed: u64) -> Vec<Case> {
    [("cache_on", true), ("cache_off", false)]
        .into_iter()
        .map(|(key, cache)| {
            svc_case(
                key,
                LoadCfg {
                    clients,
                    tasks_per_client: 16,
                    data_size: 2048,
                    cache,
                    seed,
                    ..LoadCfg::default()
                },
            )
        })
        .collect()
}

fn load_ok(r: &[f64], tasks: f64) -> Result<(), String> {
    if r[L_TASKS] != tasks || r[L_FAILED] != 0.0 {
        return Err(format!(
            "svc completed {} of {tasks} tasks, {} failed",
            r[L_TASKS], r[L_FAILED]
        ));
    }
    Ok(())
}

fn svc_256c(seed: u64) -> Workload {
    Workload {
        name: "svc_256c",
        op: "one task",
        config: format!(
            "svc run_load 256 clients x 16 tasks, data 2048 B materialized, window 16, \
             cache on + cache off, seed={seed}"
        ),
        cases: svc_cases(256, seed),
        warm: svc_cases(32, seed),
        reference: Vec::new(),
        check: Box::new(|o, _| {
            load_ok(&o[0], 4096.0)?;
            load_ok(&o[1], 4096.0)?;
            if o[0][..2] != o[1][..2] {
                return Err("cache-on and cache-off result digests differ".into());
            }
            Ok(())
        }),
        paper_err_pct: None,
        splits: Box::new(|cases, ns, o| {
            let mut m = Vec::new();
            for (i, key) in ["cache_on", "cache_off"].iter().enumerate() {
                m.push(Metric::exact(
                    format!("svc.host_us_per_task.{key}"),
                    "us",
                    ns_per_op(cases, ns, key) / 1e3,
                ));
                m.push(Metric::exact(
                    format!("svc.virt_p99_us.{key}"),
                    "us",
                    o[i][L_P99],
                ));
            }
            let on = &o[0];
            m.push(Metric::exact(
                "svc.virt_tasks_per_s.cache_on",
                "1/s",
                on[L_RATE],
            ));
            m.push(Metric::exact(
                "svc.reg_hit_ratio",
                "ratio",
                on[L_REG_HIT] / (on[L_REG_HIT] + on[L_REG_MISS]),
            ));
            m.push(Metric::exact(
                "svc.ep_hit_ratio",
                "ratio",
                on[L_EP_HIT] / (on[L_EP_HIT] + on[L_EP_MISS]),
            ));
            m
        }),
    }
}

// ---------------------------------------------------------------- chaos_drop1

const CHAOS_KEYS: [&str; 4] = ["pingpong", "jacobi", "svc", "allreduce"];
const CHAOS_PP_ITERS: u32 = 2_000;
const CHAOS_SVC_CLIENTS: usize = 128;
const CHAOS_AR_ITERS: u32 = 20;

/// The chaos case list under `fault` (`None` builds the clean twins);
/// `warm` builds the reduced warm-up pass.
fn chaos_cases(fault: Option<FaultSpec>, seed: u64, warm: bool) -> Vec<Case> {
    let mut cases = Vec::new();
    let pp_iters = if warm { 100 } else { CHAOS_PP_ITERS };
    for model in [Model::Ompi, Model::Ampi] {
        let mut cfg = OsuConfig {
            sizes: vec![8, 1 << 20],
            lat_iters: pp_iters,
            ..OsuConfig::default()
        };
        cfg.machine.fault = fault.clone();
        cases.push(Case::new(
            "osu.latency",
            "pingpong",
            2 * pp_iters as u64 * 2,
            move || {
                values(&osu::latency(
                    &cfg,
                    model,
                    Mode::Device,
                    Placement::InterNode,
                ))
            },
        ));
    }
    for model in [JacobiModel::Charm, JacobiModel::Ampi] {
        cases.push(jacobi_case(
            model,
            "jacobi".into(),
            2,
            Mode::Device,
            if warm { 2 } else { 10 },
            fault.clone(),
        ));
    }
    cases.push(svc_case(
        "svc",
        LoadCfg {
            clients: if warm { 16 } else { CHAOS_SVC_CLIENTS },
            tasks_per_client: 16,
            data_size: 2048,
            seed,
            // The clean twin keeps the deadline so both run the same
            // (recovery-armed) drain path.
            deadline_us: 20_000.0,
            fault: fault.clone(),
            ..LoadCfg::default()
        },
    ));
    let ar_iters = if warm { 2 } else { CHAOS_AR_ITERS };
    let mut cfg = OsuConfig {
        sizes: vec![1 << 20],
        lat_iters: ar_iters,
        lat_warmup: 2,
        ..OsuConfig::default()
    };
    cfg.machine.fault = fault;
    // 12 ranks each take part in every (allreduce + barrier) round.
    cases.push(Case::new(
        "osu.coll_latency",
        "allreduce",
        12 * (ar_iters + 2) as u64,
        move || values(&coll_latency(&cfg, Model::Ompi, CollKind::Allreduce, None)),
    ));
    cases
}

fn chaos_drop1(seed: u64) -> Workload {
    let spec = format!("seed={seed},drop=0.01");
    let fault = FaultSpec::parse(&spec).expect("chaos fault spec parses");
    Workload {
        name: "chaos_drop1",
        op: "one message / rank-iteration / task / rank-collective",
        config: format!(
            "fault `{spec}`: osu latency D inter ompi,ampi sizes [8, 1048576] \
             lat_iters={CHAOS_PP_ITERS}; jacobi 2 nodes charm,ampi D iters=10 warmup=1; \
             svc {CHAOS_SVC_CLIENTS} clients x 16 tasks deadline_us=20000 seed={seed}; \
             ompi allreduce 1 MiB 12 ranks iters={CHAOS_AR_ITERS} warmup=2"
        ),
        cases: chaos_cases(Some(fault.clone()), seed, false),
        warm: chaos_cases(Some(fault), seed, true),
        reference: chaos_cases(None, seed, false),
        check: Box::new(|o, clean| {
            positive(&o[..4])?;
            let tasks = (CHAOS_SVC_CLIENTS * 16) as f64;
            load_ok(&o[4], tasks)?;
            let Some(clean) = clean else { return Ok(()) };
            load_ok(&clean[4], tasks)?;
            if o[4][..2] != clean[4][..2] {
                return Err("svc results under drops differ from the clean run's".into());
            }
            // The faults were armed: drops force retransmissions, and only
            // under drops. (Simulated times are not compared: a drop
            // reorders concurrent messages, and jacobi then finishes up to
            // 0.3% *earlier* than the clean run at about one seed in 25.)
            if o[4][L_RETRY] == 0.0 || clean[4][L_RETRY] != 0.0 {
                return Err(format!(
                    "svc retransmissions: {} under drops, {} clean",
                    o[4][L_RETRY], clean[4][L_RETRY]
                ));
            }
            Ok(())
        }),
        paper_err_pct: None,
        splits: Box::new(|_, _, o| {
            vec![Metric::exact(
                "chaos.ucp_retry_count",
                "count",
                o[4][L_RETRY],
            )]
        }),
    }
}

/// `chaos.host_slowdown_x.<key>`: host time under drops ÷ the clean twin's.
pub fn chaos_slowdowns(w: &Workload, drop_ns: &[f64], clean_ns: &[f64]) -> Vec<Metric> {
    CHAOS_KEYS
        .iter()
        .map(|key| {
            Metric::exact(
                format!("chaos.host_slowdown_x.{key}"),
                "x",
                ns_per_op(&w.cases, drop_ns, key) / ns_per_op(&w.reference, clean_ns, key),
            )
        })
        .collect()
}
