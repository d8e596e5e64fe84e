//! DESIGN §9, "Ordering ×3, one implementation".
//!
//! Three layers can hold a message back until an earlier one has been
//! delivered: AMPI per source rank, Charm4py per channel peer, and (under
//! a fault spec, between nodes) UCP's reliability protocol per endpoint.
//! All three use `rucx::ucp::order`; each counts its own holds
//! (`*.reorder.held`). This runs the real drivers clean and under the
//! canned 1 % drop and prints the three counts per cell — the table in
//! DESIGN §9 is its output (`cargo test --test ordering -- --nocapture`).
//! It asserts only what is structural; why each layer stays is written
//! there, not decided by a threshold here.

use rucx::fabric::Topology;
use rucx::fault::FaultSpec;
use rucx::jacobi::{self, JacobiConfig};
use rucx::osu::bandwidth::mpi_bw_point;
use rucx::osu::latency::mpi_latency_point;
use rucx::osu::mpi_like::AmpiFactory;
use rucx::osu::{self, py_osu, Mode, OsuConfig, Placement};
use rucx::sim::Counters;
use rucx::svc::{self, LoadCfg};
use rucx::ucp::{build_sim, MachineConfig};

/// `[ampi, charm4py, ucp]` holds.
type Held = [u64; 3];

fn add(total: &mut Held, c: &Counters) {
    let layers = ["ampi", "charm4py", "ucp"];
    for (t, layer) in total.iter_mut().zip(layers) {
        *t += c.get(&format!("{layer}.reorder.held"));
    }
}

/// One table cell: `py` picks Charm4py over AMPI, `fault` the wire. Every
/// driver runs on a simulation this test built, so the counts are read off
/// it afterwards.
/// "osu latency" / "osu bandwidth" sweep `OsuConfig::quick`'s sizes over
/// both placements and D + H; "jacobi 2n" is 2-node weak scaling, D + H;
/// "svc" is a small scatter/submit/gather load over Charm4py channels.
fn cell(workload: &str, py: bool, fault: Option<FaultSpec>) -> Held {
    let machine = MachineConfig {
        fault: fault.clone(),
        ..MachineConfig::default()
    };
    let mut held = [0; 3];
    match workload {
        "svc" => {
            let cfg = LoadCfg {
                clients: 24,
                tasks_per_client: 5,
                data_size: 1024,
                window: 8,
                fault,
                ..LoadCfg::default()
            };
            let sim = &mut build_sim(Topology::summit(2), svc::machine_config(&cfg));
            svc::run_load_on(sim, &cfg);
            add(&mut held, sim.metrics());
        }
        "jacobi 2n" => {
            for mode in [jacobi::Mode::Device, jacobi::Mode::HostStaging] {
                let mut cfg = JacobiConfig::weak(2, mode);
                cfg.iters = 3;
                let sim = &mut build_sim(Topology::summit(2), machine.clone());
                if py {
                    jacobi::py_run::run_charm4py_on(sim, &cfg)
                } else {
                    jacobi::mpi_run::run_mpi_on(sim, &cfg, AmpiFactory)
                }
                .expect("1 % drop is recoverable: Jacobi must drain");
                add(&mut held, sim.metrics());
            }
        }
        _ => {
            let bw = workload == "osu bandwidth";
            let cfg = OsuConfig {
                machine,
                ..OsuConfig::quick()
            };
            for place in [Placement::IntraNode, Placement::InterNode] {
                for mode in [Mode::Device, Mode::HostStaging] {
                    for &size in &cfg.sizes {
                        let s = &mut osu::setup(&cfg.machine, size);
                        match (py, bw) {
                            (true, true) => py_osu::bandwidth_point(s, &cfg, place, mode),
                            (true, false) => py_osu::latency_point(s, &cfg, place, mode),
                            (false, true) => mpi_bw_point(s, &cfg, place, mode, AmpiFactory),
                            (false, false) => mpi_latency_point(s, &cfg, place, mode, AmpiFactory),
                        };
                        add(&mut held, s.sim.metrics());
                    }
                }
            }
        }
    }
    held
}

#[test]
fn ordering_layers_hold_counts() {
    let drop = FaultSpec::parse("seed=7,drop=0.01").expect("spec");
    let mut ucp_under_drops = 0;
    println!("| workload | model | clean ampi/charm4py/ucp | drop=0.01 ampi/charm4py/ucp |");
    println!("|---|---|---|---|");
    for (workload, py) in [
        ("osu latency", false),
        ("osu bandwidth", false),
        ("jacobi 2n", false),
        ("osu latency", true),
        ("osu bandwidth", true),
        ("jacobi 2n", true),
        ("svc", true),
    ] {
        let clean = cell(workload, py, None);
        let lossy = cell(workload, py, Some(drop.clone()));
        let model = if py { "Charm4py" } else { "AMPI" };
        println!("| {workload} | {model} | {clean:?} | {lossy:?} |");
        // UCP's delivery window exists only under a fault spec.
        assert_eq!(
            clean[2], 0,
            "{workload} ({model}): UCP held a clean message"
        );
        // A layer counts only its own traffic.
        let foreign = usize::from(!py);
        assert_eq!(clean[foreign] + lossy[foreign], 0, "{workload} ({model})");
        ucp_under_drops += lossy[2];
    }
    assert!(
        ucp_under_drops > 0,
        "1 % drop must make UCP's in-order window hold something somewhere"
    );
}
