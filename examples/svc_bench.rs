//! Many-client service-layer benchmark: thousands of logical Dask-style
//! clients scatter datasets and submit small tasks to a pool of workers
//! over Charm4py channels, with the UCP connection-setup/registration cost
//! model enabled. Each sweep point runs the identical seeded load twice —
//! registration/endpoint caches on and off — and reports task throughput
//! plus exact p50/p99 task latency for both, which is the paper-adjacent
//! MPI4Dask story: at small-task scale, amortizing wireup and memory
//! registration is the difference between the service scaling and not.
//!
//! ```text
//! cargo run --release --example svc_bench
//! cargo run --release --example svc_bench -- --clients 512 --tasks 32
//! cargo run --release --example svc_bench -- --quick --json
//! ```

use rucx::svc::{run_load, LoadCfg, LoadResult};

#[derive(Clone)]
struct BenchConfig {
    /// Logical-client counts to sweep.
    sweep: Vec<usize>,
    tasks_per_client: usize,
    data_size: u64,
    window: usize,
    seed: u64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            sweep: vec![128, 512, 2048],
            tasks_per_client: 48,
            data_size: 2048,
            window: 16,
            seed: 1,
        }
    }
}

struct Point {
    clients: usize,
    on: LoadResult,
    off: LoadResult,
}

fn usage() -> ! {
    eprintln!(
        "usage: svc_bench [--clients N[,N...]] [--tasks N] [--data BYTES] \
         [--window N] [--seed N] [--quick] [--json]"
    );
    std::process::exit(2)
}

fn run_point(cfg: &BenchConfig, clients: usize) -> Point {
    let load = |cache| {
        run_load(&LoadCfg {
            clients,
            tasks_per_client: cfg.tasks_per_client,
            data_size: cfg.data_size,
            window: cfg.window,
            compute_us: 3.0,
            cache,
            seed: cfg.seed,
            ..LoadCfg::default()
        })
    };
    Point {
        clients,
        on: load(true),
        off: load(false),
    }
}

/// The sweep, in ascending client count.
fn sweep(cfg: &BenchConfig) -> Vec<Point> {
    let mut points: Vec<Point> = cfg.sweep.iter().map(|&c| run_point(cfg, c)).collect();
    points.sort_by_key(|p| p.clients);
    points
}

fn mode_json(r: &LoadResult) -> String {
    format!(
        "{{\"tasks_per_sec\":{:.3},\"p50_us\":{:.3},\"p99_us\":{:.3},\
         \"reg_hit\":{},\"reg_miss\":{},\"reg_evict\":{},\
         \"ep_hit\":{},\"ep_miss\":{},\"premapped_hit\":{}}}",
        r.tasks_per_sec,
        r.p50_us,
        r.p99_us,
        r.reg_hit,
        r.reg_miss,
        r.reg_evict,
        r.ep_hit,
        r.ep_miss,
        r.premapped_hit,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = BenchConfig::default();
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--clients" => {
                let spec = it.next().unwrap_or_else(|| usage());
                cfg.sweep = spec
                    .split(',')
                    .map(|s| s.parse().unwrap_or_else(|_| usage()))
                    .collect();
                if cfg.sweep.is_empty() {
                    usage();
                }
            }
            "--tasks" => {
                cfg.tasks_per_client = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--data" => {
                cfg.data_size = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--window" => {
                cfg.window = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--seed" => {
                cfg.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--quick" => {
                cfg.sweep = vec![16, 64];
                cfg.tasks_per_client = 8;
            }
            "--json" => json = true,
            _ => usage(),
        }
    }

    let points = sweep(&cfg);
    if json {
        let body: Vec<String> = points
            .iter()
            .map(|p| {
                format!(
                    "{{\"clients\":{},\"tasks\":{},\"digest\":\"{:#018x}\",\
                     \"cache_on\":{},\"cache_off\":{}}}",
                    p.clients,
                    p.on.tasks,
                    p.on.digest,
                    mode_json(&p.on),
                    mode_json(&p.off),
                )
            })
            .collect();
        println!(
            "{{\"label\":\"svc-bench scatter/submit/gather\",\"unit\":\"tasks/s\",\
             \"points\":[{}]}}",
            body.join(",")
        );
        return;
    }
    println!("# svc-bench: many-client scatter/submit/gather (cache on vs off)");
    println!(
        "{:>8}  {:>8}  {:>12}  {:>12}  {:>7}  {:>9}  {:>9}  {:>9}  {:>9}",
        "clients",
        "tasks",
        "on tasks/s",
        "off tasks/s",
        "speedup",
        "on p50",
        "on p99",
        "off p50",
        "off p99"
    );
    for p in &points {
        println!(
            "{:>8}  {:>8}  {:>12.0}  {:>12.0}  {:>6.2}x  {:>9.1}  {:>9.1}  {:>9.1}  {:>9.1}",
            p.clients,
            p.on.tasks,
            p.on.tasks_per_sec,
            p.off.tasks_per_sec,
            p.on.tasks_per_sec / p.off.tasks_per_sec,
            p.on.p50_us,
            p.on.p99_us,
            p.off.p50_us,
            p.off.p99_us,
        );
    }
}
