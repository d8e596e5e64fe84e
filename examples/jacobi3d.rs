//! The Jacobi3D proxy application (paper §IV-C) on a small cluster: compare
//! host-staging vs GPU-direct halo exchange for every programming model.
//!
//! Run: `cargo run --release --example jacobi3d [nodes] [--fault-spec SPEC]
//! [--shards N]` (e.g. `--fault-spec seed=7,drop=0.01` for a lossy-fabric
//! run). Without `--shards` the real stack runs — every rank a coroutine of
//! one sequential simulation — which takes well under a second at 32 nodes
//! and seconds at 256 (1536 ranks). With `--shards N` the run uses the
//! sharded conservative engine — N worker threads over node-contiguous
//! shards — and its closed-form timing model instead.

use rucx::fault::FaultSpec;
use rucx::jacobi::{run, run_sharded_full, JacobiConfig, JacobiModel, Mode, ShardedOpts};

fn main() {
    let mut nodes: usize = 2;
    let mut fault: Option<FaultSpec> = None;
    let mut shards: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--fault-spec" {
            let spec = args.next().unwrap_or_else(|| {
                eprintln!("--fault-spec needs a value (e.g. seed=7,drop=0.01)");
                std::process::exit(2);
            });
            fault = Some(FaultSpec::parse(&spec).unwrap_or_else(|e| {
                eprintln!("bad --fault-spec: {e}");
                std::process::exit(2);
            }));
        } else if a == "--shards" {
            let v = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("--shards needs a positive integer");
                std::process::exit(2);
            });
            shards = Some(v);
        } else if let Ok(n) = a.parse() {
            nodes = n;
        } else {
            eprintln!("usage: jacobi3d [nodes] [--fault-spec SPEC] [--shards N]");
            std::process::exit(2);
        }
    }
    assert!(nodes.is_power_of_two(), "node count must be a power of two");

    let engine = match shards {
        Some(s) => format!("sharded engine, {s} shard(s)"),
        None => "full stack, one sequential simulation".to_string(),
    };
    println!(
        "Jacobi3D, weak scaling point at {nodes} node(s) ({} GPUs), domain {:?} [{engine}]:\n",
        nodes * 6,
        JacobiConfig::weak(nodes, Mode::Device).domain
    );
    println!(
        "{:>10}  {:>12} {:>12} {:>12} {:>12} {:>9}",
        "model", "overall-H", "overall-D", "comm-H", "comm-D", "comm-spd"
    );
    for model in [
        JacobiModel::Charm,
        JacobiModel::Ampi,
        JacobiModel::Ompi,
        JacobiModel::Charm4py,
    ] {
        let mut ch = JacobiConfig::weak(nodes, Mode::HostStaging);
        let mut cd = JacobiConfig::weak(nodes, Mode::Device);
        ch.iters = 3;
        cd.iters = 3;
        ch.machine.fault = fault.clone();
        cd.machine.fault = fault.clone();
        let (h, d) = match shards {
            Some(s) => {
                let opts = ShardedOpts {
                    shards: s,
                    ..Default::default()
                };
                let rh = run_sharded_full(model, &ch, &opts);
                let rd = run_sharded_full(model, &cd, &opts);
                for (tag, r) in [("H", &rh), ("D", &rd)] {
                    if !r.completed {
                        eprintln!(
                            "  [{} {tag}: stalled, {} halo(s) lost, {} rank(s) stranded]",
                            model.label(),
                            r.lost,
                            r.blocked.len()
                        );
                    }
                }
                (rh.result, rd.result)
            }
            None => (run(model, &ch), run(model, &cd)),
        };
        println!(
            "{:>10}  {:>10.2}ms {:>10.2}ms {:>10.2}ms {:>10.2}ms {:>8.1}x",
            model.label(),
            h.overall_ms,
            d.overall_ms,
            h.comm_ms,
            d.comm_ms,
            h.comm_ms / d.comm_ms
        );
    }
    println!(
        "\n(overall/comm = per-iteration times, max over ranks; H = host-staging, D = GPU-direct)"
    );
}
