//! Command-line OSU benchmark runner, mirroring how the real suite is
//! invoked:
//!
//! ```text
//! cargo run --release --example osu_cli -- latency  --model ampi    --mode d --place inter
//! cargo run --release --example osu_cli -- bw       --model charm   --mode h --place intra
//! cargo run --release --example osu_cli -- bibw     --model openmpi --place inter
//! cargo run --release --example osu_cli -- latency  --model openmpi --mode d --no-gdrcopy
//! cargo run --release --example osu_cli -- latency  --model ampi --place inter \
//!     --fault-spec seed=7,drop=0.01
//! cargo run --release --example osu_cli -- coll     --coll allreduce --algo hier
//! cargo run --release --example osu_cli -- coll     --coll bcast --model charm4py
//! ```

use rucx::coll::Algo;
use rucx::fault::FaultSpec;
use rucx::osu::coll_bench::{coll_latency, CollKind};
use rucx::osu::{series, Bench, Mode, Model, OsuConfig, Placement, Series};

fn usage() -> ! {
    eprintln!(
        "usage: osu_cli <latency|bw|bibw|coll> [--model charm|ampi|openmpi|charm4py] \
         [--mode d|h] [--place intra|inter] [--coll allreduce|bcast] \
         [--algo auto|rd|ring|hier (allreduce), auto|tree|hier (bcast)] [--no-gdrcopy] \
         [--quick] [--fault-spec SPEC] [--json]"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let bench = args[0].clone();
    let mut model = Model::Ompi;
    let mut mode = Mode::Device;
    let mut place = Placement::IntraNode;
    let mut cfg = OsuConfig::default();
    let mut json = false;
    let mut coll_kind = CollKind::Allreduce;
    let mut algo: Option<Algo> = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--model" => {
                model = match it.next().map(|s| s.as_str()) {
                    Some("charm") => Model::Charm,
                    Some("ampi") => Model::Ampi,
                    Some("openmpi") => Model::Ompi,
                    Some("charm4py") => Model::Charm4py,
                    _ => usage(),
                }
            }
            "--mode" => {
                mode = match it.next().map(|s| s.as_str()) {
                    Some("d") => Mode::Device,
                    Some("h") => Mode::HostStaging,
                    _ => usage(),
                }
            }
            "--place" => {
                place = match it.next().map(|s| s.as_str()) {
                    Some("intra") => Placement::IntraNode,
                    Some("inter") => Placement::InterNode,
                    _ => usage(),
                }
            }
            "--coll" => {
                coll_kind = match it.next().map(|s| s.as_str()) {
                    Some("allreduce") => CollKind::Allreduce,
                    Some("bcast") => CollKind::Bcast,
                    _ => usage(),
                }
            }
            "--algo" => {
                algo = match it.next().map(|s| s.as_str()) {
                    Some("auto") => None,
                    Some(name) => Some(Algo::parse(name).unwrap_or_else(|| usage())),
                    None => usage(),
                }
            }
            "--no-gdrcopy" => cfg.machine.ucp.gdrcopy_enabled = false,
            "--json" => json = true,
            "--fault-spec" => {
                let spec = it.next().unwrap_or_else(|| usage());
                cfg.machine.fault = Some(FaultSpec::parse(spec).unwrap_or_else(|e| {
                    eprintln!("bad --fault-spec: {e}");
                    std::process::exit(2);
                }));
            }
            "--quick" => {
                let machine = cfg.machine.clone();
                cfg = OsuConfig::quick();
                cfg.machine = machine;
            }
            _ => usage(),
        }
    }

    let series: Series = match bench.as_str() {
        "coll" => {
            if model == Model::Charm {
                eprintln!("coll supports --model ampi|openmpi|charm4py");
                std::process::exit(2);
            }
            if algo.is_some_and(|a| !coll_kind.algos().contains(&a)) {
                usage();
            }
            coll_latency(&cfg, model, coll_kind, algo)
        }
        name => {
            let bench = match name {
                "latency" => Bench::Latency,
                "bw" => Bench::Bandwidth,
                "bibw" => Bench::BiBandwidth,
                _ => usage(),
            };
            if !bench.supports(model, mode) {
                eprintln!("bibw supports --model ampi|openmpi with --mode d");
                std::process::exit(2);
            }
            series(&cfg, bench, model, mode, place)
        }
    };

    if json {
        use rucx::compat::json::ToJson;
        println!("{}", series.to_json());
        return;
    }
    println!("# {} ({})", series.label, series.unit);
    println!("{:>10}  {:>14}", "size", series.unit);
    for (size, v) in &series.points {
        println!("{size:>10}  {v:>14.2}");
    }
}
