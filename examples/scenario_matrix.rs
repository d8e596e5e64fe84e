//! Chaos scenario-matrix runner: every workload × fault-scenario cell,
//! each on its own seeded simulation, reporting the headline number, the
//! per-layer time attribution rebuilt from the structured trace, and the
//! recovery mechanism that paid for the degradation.
//!
//!     cargo run --release --example scenario_matrix -- [--quick] [--json]
//!         [--markdown]
//!
//! Cells run in canonical (scenario-major) order; the output is
//! byte-identical across runs (`scripts/check.sh` gates on this).

use rucx::bench::scenario::{all_cells, run_cell, Cell};

fn usage() -> ! {
    eprintln!("usage: scenario_matrix [--quick] [--json] [--markdown]");
    std::process::exit(2);
}

fn recovery_summary(c: &Cell) -> String {
    let r = &c.recovery;
    let mut parts = Vec::new();
    for (n, label) in [
        (r.retry, "retry"),
        (r.parked, "parked"),
        (r.healed, "healed"),
        (r.reroute, "reroute"),
        (r.host_staged, "host-staged"),
        (r.resubmit, "resubmit"),
        (r.giveup, "giveup"),
    ] {
        if n > 0 {
            parts.push(format!("{label}={n}"));
        }
    }
    if parts.is_empty() {
        "-".to_string()
    } else {
        parts.join(" ")
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut json = false;
    let mut markdown = false;
    for a in &args {
        match a.as_str() {
            "--quick" => quick = true,
            "--json" => json = true,
            "--markdown" => markdown = true,
            _ => usage(),
        }
    }

    let cells: Vec<Cell> = all_cells()
        .into_iter()
        .map(|(s, w)| run_cell(s, w, quick))
        .collect();

    if json {
        let body: Vec<String> = cells.iter().map(Cell::to_json).collect();
        println!(
            "{{\"label\":\"chaos scenario matrix\",\"quick\":{quick},\
             \"cells\":[{}]}}",
            body.join(",")
        );
        return;
    }

    if markdown {
        // The EXPERIMENTS.md table, ready to paste.
        println!(
            "| scenario | workload | headline | dominant layer | recovery paid by | recovery counters |"
        );
        println!("|---|---|---|---|---|---|");
        for c in &cells {
            println!(
                "| {} | {} | {:.1} {} | {} | {} | {} |",
                c.scenario,
                c.workload,
                c.headline,
                c.headline_unit,
                c.top_layer(),
                c.recovery.dominant(),
                recovery_summary(c),
            );
        }
        return;
    }

    println!("# chaos scenario matrix ({} cells)", cells.len());
    println!(
        "{:>10}  {:>12}  {:>14}  {:>9}  {:>20}  recovery",
        "scenario", "workload", "headline", "top layer", "paid by"
    );
    for c in &cells {
        println!(
            "{:>10}  {:>12}  {:>9.1} {:<10}  {:>9}  {:>20}  {}",
            c.scenario,
            c.workload,
            c.headline,
            c.headline_unit,
            c.top_layer(),
            c.recovery.dominant(),
            recovery_summary(c),
        );
    }
}
