//! The Jacobi3D proxy application (paper §IV-C) on a small cluster: compare
//! host-staging vs GPU-direct halo exchange for every programming model.
//!
//! Run: `cargo run --release --example jacobi3d [nodes] [--fault-spec SPEC]`
//! (e.g. `--fault-spec seed=7,drop=0.01` for a lossy-fabric run). The real
//! stack runs — every rank a coroutine of one sequential simulation — which
//! takes well under a second at 32 nodes and seconds at 256 (1536 ranks).
//! A model whose run stalls (the fault spec made UCP give up on a halo) is
//! reported on stderr and the exit status is 1.

use rucx::fault::FaultSpec;
use rucx::jacobi::{try_run, JacobiConfig, JacobiModel, Mode};

fn usage() -> ! {
    eprintln!("usage: jacobi3d [nodes] [--fault-spec SPEC]   (nodes: a power of two)");
    std::process::exit(2);
}

fn main() {
    let mut nodes: usize = 2;
    let mut fault: Option<FaultSpec> = None;
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
        } else if let Ok(n) = a.parse() {
            nodes = n;
        } else {
            usage();
        }
    }
    if !nodes.is_power_of_two() {
        usage();
    }

    println!(
        "Jacobi3D, weak scaling point at {nodes} node(s) ({} GPUs), domain {:?}:\n",
        nodes * 6,
        JacobiConfig::weak(nodes, Mode::Device).domain
    );
    println!(
        "{:>10}  {:>12} {:>12} {:>12} {:>12} {:>9}",
        "model", "overall-H", "overall-D", "comm-H", "comm-D", "comm-spd"
    );
    let mut stalled = false;
    for model in [
        JacobiModel::Charm,
        JacobiModel::Ampi,
        JacobiModel::Ompi,
        JacobiModel::Charm4py,
    ] {
        let [h, d] = [("H", Mode::HostStaging), ("D", Mode::Device)].map(|(tag, mode)| {
            let mut cfg = JacobiConfig::weak(nodes, mode);
            cfg.machine.fault = fault.clone();
            try_run(model, &cfg)
                .inspect_err(|s| eprintln!("  [{} {tag}: {s}]", model.label()))
                .ok()
        });
        let (Some(h), Some(d)) = (h, d) else {
            stalled = true;
            continue;
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
    if stalled {
        std::process::exit(1);
    }
}
