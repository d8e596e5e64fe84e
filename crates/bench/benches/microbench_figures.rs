//! Regenerates Figures 10–13 of the paper: OSU-adapted latency and
//! bandwidth microbenchmarks for Charm++, AMPI (+OpenMPI reference), and
//! Charm4py, host-staging (-H) vs GPU-direct (-D), intra- and inter-node;
//! then scores Table I and the figures' anchors (the OSU half of
//! `SCORECARD.md`, written to `scorecard_osu.md`).
//!
//! Run with `cargo bench --bench microbench_figures`.

use rucx_bench::scorecard::{render, Figures, Panels};
use rucx_bench::{fault_spec_from_env, fmt_size, print_table, write_json, write_text};
use rucx_osu::{bandwidth, latency, Mode, Model, OsuConfig, Placement, Series};

type Metric = fn(&OsuConfig, Model, Mode, Placement) -> Series;

fn collect(cfg: &OsuConfig, metric: Metric, place: Placement) -> Panels {
    let models = [Model::Charm, Model::Ampi, Model::Ompi, Model::Charm4py];
    models
        .iter()
        .map(|&m| {
            (
                m,
                metric(cfg, m, Mode::HostStaging, place),
                metric(cfg, m, Mode::Device, place),
            )
        })
        .collect()
}

fn print_figure(name: &str, title: &str, panels: &Panels) {
    let unit = panels[0].1.unit;
    let mut header: Vec<String> = vec!["size".into()];
    for (m, _, _) in panels {
        header.push(format!("{}-H", m.label()));
        header.push(format!("{}-D", m.label()));
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let sizes: Vec<u64> = panels[0].1.points.iter().map(|(s, _)| *s).collect();
    let rows: Vec<Vec<String>> = sizes
        .iter()
        .map(|&s| {
            let mut row = vec![fmt_size(s)];
            for (_, h, d) in panels {
                row.push(format!("{:.2}", h.at(s).unwrap()));
                row.push(format!("{:.2}", d.at(s).unwrap()));
            }
            row
        })
        .collect();
    print_table(&format!("{title} ({unit})"), &header_refs, &rows);
    let json: Vec<&Series> = panels.iter().flat_map(|(_, h, d)| [h, d]).collect();
    write_json(name, &json);
}

fn main() {
    let mut cfg = OsuConfig::default();
    cfg.machine.fault = fault_spec_from_env();
    println!(
        "rucx microbenchmark figures (sizes 1B-4MB, {} points)",
        cfg.sizes.len()
    );

    use Placement::{InterNode as Inter, IntraNode as Intra};
    #[rustfmt::skip]
    let figures = [
        ("fig10_latency_intra", "Figure 10: intra-node one-way latency", latency as Metric, Intra),
        ("fig11_latency_inter", "Figure 11: inter-node one-way latency", latency, Inter),
        ("fig12_bandwidth_intra", "Figure 12: intra-node bandwidth", bandwidth, Intra),
        ("fig13_bandwidth_inter", "Figure 13: inter-node bandwidth", bandwidth, Inter),
    ];
    let figures = figures.map(|(name, title, metric, place)| {
        let panels = collect(&cfg, metric, place);
        print_figure(name, title, &panels);
        panels
    });

    let scorecard = render(&Figures::Osu(&figures));
    print!("{scorecard}");
    write_text("scorecard_osu.md", &scorecard);
}
