//! Regenerates Figures 14–16: Jacobi3D weak and strong scaling (overall and
//! communication time per iteration) for Charm++, AMPI (+OpenMPI
//! reference), and Charm4py, at the paper's node counts (weak 1–256,
//! strong 8–256) and `JacobiConfig`'s iteration counts; then scores them
//! (the Jacobi3D half of `SCORECARD.md`, written to `scorecard_jacobi.md`).
//!
//! Run with `cargo bench --bench jacobi_figures`.

use rucx_bench::scorecard::{render, Figures, SweepRow};
use rucx_bench::{print_table, write_json, write_text, STRONG_NODES, WEAK_NODES};
use rucx_jacobi::{run, JacobiConfig, JacobiModel, Mode};

fn sweep(
    model: JacobiModel,
    nodes: &[usize],
    make: fn(usize, Mode) -> JacobiConfig,
) -> Vec<SweepRow> {
    nodes
        .iter()
        .map(|&n| {
            let [h, d] = [Mode::HostStaging, Mode::Device].map(|mode| {
                let mut cfg = make(n, mode);
                cfg.machine.fault = rucx_bench::fault_spec_from_env();
                run(model, &cfg)
            });
            eprintln!(
                "  {} {n} nodes: H overall {:.2}ms comm {:.2}ms | D overall {:.2}ms comm {:.2}ms",
                model.label(),
                h.overall_ms,
                h.comm_ms,
                d.overall_ms,
                d.comm_ms
            );
            (n, h, d)
        })
        .collect()
}

fn print_sweep(name: &str, title: &str, rows: &[SweepRow]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(n, h, d)| {
            vec![
                n.to_string(),
                format!("{:.2}", h.overall_ms),
                format!("{:.2}", d.overall_ms),
                format!("{:.2}", h.comm_ms),
                format!("{:.2}", d.comm_ms),
                format!("{:.1}x", h.comm_ms / d.comm_ms),
            ]
        })
        .collect();
    print_table(
        title,
        &[
            "nodes",
            "overall-H",
            "overall-D",
            "comm-H",
            "comm-D",
            "comm speedup",
        ],
        &table,
    );
    let json: Vec<(usize, f64, f64, f64, f64)> = rows
        .iter()
        .map(|(n, h, d)| (*n, h.overall_ms, d.overall_ms, h.comm_ms, d.comm_ms))
        .collect();
    write_json(name, &json);
}

/// Figure 14 Charm++, Figure 15 AMPI with OpenMPI as its reference,
/// Figure 16 Charm4py: (figure, model, file name).
const MODELS: [(u8, JacobiModel, &str); 4] = [
    (14, JacobiModel::Charm, "charm"),
    (15, JacobiModel::Ampi, "ampi"),
    (15, JacobiModel::Ompi, "openmpi"),
    (16, JacobiModel::Charm4py, "charm4py"),
];

/// One scaling study of every model: `sub` is the figure's panel pair.
fn study(
    scaling: &str,
    sub: &str,
    nodes: &[usize],
    make: fn(usize, Mode) -> JacobiConfig,
) -> Vec<(JacobiModel, Vec<SweepRow>)> {
    let study = MODELS.map(|(fig, model, name)| {
        let rows = sweep(model, nodes, make);
        let title = format!(
            "Figure {fig}{sub}: {} Jacobi3D {scaling} scaling (ms/iter)",
            model.label()
        );
        print_sweep(&format!("fig{fig}_{scaling}_{name}"), &title, &rows);
        (model, rows)
    });
    study.into()
}

fn main() {
    println!("rucx Jacobi3D figures: weak {WEAK_NODES:?}, strong {STRONG_NODES:?}");
    let weak = study("weak", "ab", &WEAK_NODES, JacobiConfig::weak);
    let strong = study("strong", "cd", &STRONG_NODES, JacobiConfig::strong);
    let scorecard = render(&Figures::Jacobi {
        weak: &weak,
        strong: &strong,
    });
    print!("{scorecard}");
    write_text("scorecard_jacobi.md", &scorecard);
}
