//! The scorecard: every paper number this repository claims, beside the
//! value the simulator gives for it and the signed error
//! `measured / paper - 1`.
//!
//! `sections` is the one table. Each row names where the paper gives its
//! number (and the EXPERIMENTS.md line quoting it) and how the measured
//! value is read from the figures the two figure benches compute:
//! `microbench_figures` renders the OSU half (Table I, Figures 10–13),
//! `jacobi_figures` the Jacobi3D half (Figures 14–16). `SCORECARD.md` is
//! the two halves in that order; `scripts/check.sh` diffs it.

use std::fmt::Write;

use rucx_jacobi::JacobiResult;
use rucx_osu::{ratio, ratio_range, Mode, Model, Placement, Series};

use crate::fmt_size;

/// One OSU figure: per model, its host-staging and GPU-direct series.
pub type Panels = Vec<(Model, Series, Series)>;

/// One point of a Jacobi3D sweep: (nodes, host-staging, GPU-direct).
pub type SweepRow = (usize, JacobiResult, JacobiResult);

/// The figure data one bench holds; each renders the rows it can measure.
pub enum Figures<'a> {
    /// Figures 10, 11, 12 and 13, in that order.
    Osu(&'a [Panels; 4]),
    /// Figures 14–16: per model, its weak (1–256 nodes) and strong
    /// (8–256 nodes) sweep.
    Jacobi {
        weak: &'a [(Model, Vec<SweepRow>)],
        strong: &'a [(Model, Vec<SweepRow>)],
    },
}

#[derive(Clone, Copy)]
enum Paper {
    V(f64),
    /// Two values EXPERIMENTS.md gives without saying which model has
    /// which: the row is scored against the nearer one.
    Pair(f64, f64),
    /// EXPERIMENTS.md quotes no paper number; the row tracks ours.
    NotQuoted,
}
use Paper::{NotQuoted as N, V};

#[derive(Clone, Copy)]
enum Stat {
    Min,
    Max,
    /// The 512 B point, on the eager path.
    Eager,
}

/// How a row's measured value is read from [`Figures`]; an OSU figure is
/// numbered 10–13.
#[derive(Clone, Copy)]
enum Measure {
    /// Table I: the H→D improvement per size (latency H/D, bandwidth D/H).
    Improvement(u8, Model, Stat),
    /// One point of one series, in µs or GB/s.
    Point(u8, Model, Mode, u64),
    /// Weak scaling at `n` nodes: comm-H / comm-D.
    CommSpeedup(Model, usize),
    /// Weak scaling at `n` nodes: 1 − overall-D / overall-H, in %.
    Reduction(Model, usize),
    /// Strong scaling: 1 − comm-D / comm-H in %, least or most over nodes.
    StrongComm(Model, Stat),
    /// Weak scaling at `n` nodes: overall-D over OpenMPI's overall-D.
    OverOmpiD(Model, usize),
}

/// (id, paper locator with its EXPERIMENTS.md line, paper value, unit,
/// measure, the frozen benchmark workload whose `paper_err_pct` scores it).
#[rustfmt::skip]
struct Row(String, String, Paper, &'static str, Measure, Option<&'static str>);

/// Table I as EXPERIMENTS.md:37–48 quotes it: (bandwidth, placement,
/// model, range min, range max, eager). `examples/benchmark` scores the
/// same 30 values; a test below holds the two equal.
const TABLE1: [(bool, Placement, Model, f64, f64, Option<f64>); 12] = {
    use {Model::*, Placement::*};
    [
        (false, IntraNode, Charm, 2.1, 10.2, Some(4.4)),
        (false, IntraNode, Ampi, 1.9, 11.7, Some(3.6)),
        (false, IntraNode, Charm4py, 1.8, 17.4, Some(1.9)),
        (false, InterNode, Charm, 1.2, 4.1, Some(4.1)),
        (false, InterNode, Ampi, 1.8, 3.5, Some(3.4)),
        (false, InterNode, Charm4py, 1.5, 3.4, Some(1.8)),
        (true, IntraNode, Charm, 1.4, 9.6, None),
        (true, IntraNode, Ampi, 1.3, 10.0, None),
        (true, IntraNode, Charm4py, 1.3, 10.5, None),
        (true, InterNode, Charm, 1.2, 2.7, None),
        (true, InterNode, Ampi, 1.3, 2.6, None),
        (true, InterNode, Charm4py, 1.0, 1.5, None),
    ]
};

/// Figures 10–13 anchors: (figure, model, mode, size, paper, EXPERIMENTS.md line).
const ANCHORS: [(u8, Model, Mode, u64, Paper, u32); 21] = {
    use {Mode::Device as D, Mode::HostStaging as H, Model::*};
    const M4: u64 = 4 << 20;
    let plateau = Paper::Pair(44.7, 45.4);
    [
        (10, Ompi, D, 1, V(2.0), 58),
        (11, Ompi, D, 1, V(3.0), 58),
        (10, Ampi, D, 1, V(10.0), 59),
        (11, Ampi, D, 1, V(10.0), 59),
        (10, Charm4py, D, 1, N, 63),
        (11, Charm4py, D, 1, N, 63),
        (10, Charm, D, M4, V(100.0), 65),
        (10, Ampi, D, M4, V(100.0), 65),
        (10, Ompi, D, M4, V(100.0), 65),
        (12, Charm, D, M4, plateau, 71),
        (12, Ampi, D, M4, plateau, 71),
        (12, Ompi, D, M4, plateau, 71),
        (12, Charm4py, D, M4, V(35.5), 73),
        (13, Charm, D, M4, V(10.0), 74),
        (13, Ampi, D, M4, V(10.0), 74),
        (13, Ompi, D, M4, V(10.0), 74),
        (13, Charm4py, D, M4, V(6.0), 75),
        (12, Charm, H, M4, N, 77),
        (12, Ampi, H, M4, V(4.5), 78),
        (12, Ompi, H, M4, N, 77),
        (12, Charm4py, H, M4, N, 78),
    ]
};

/// Figures 14–16 per model: (model, figure, EXPERIMENTS.md lines, paper
/// values in the order of [`JACOBI_ROWS`]).
#[rustfmt::skip]
const JACOBI: [(Model, u8, &str, [Paper; 6]); 3] = [
    (Model::Charm, 14, "87-94", [V(12.4), V(1.1), V(37.0), V(5.0), V(12.0), V(82.0)]),
    (Model::Ampi, 15, "96-99", [V(12.8), V(1.3), N, N, N, N]),
    (Model::Charm4py, 16, "101-106", [N; 6]),
];

/// The Figures 14–16 rows of each model: (id, what, unit).
#[rustfmt::skip]
const JACOBI_ROWS: [(&str, &str, &str); 6] = [
    ("weak_comm_speedup_1n", "weak, comm speed-up H/D at 1 node", "×"),
    ("weak_comm_speedup_256n", "weak, comm speed-up H/D at 256 nodes", "×"),
    ("weak_overall_reduction_1n", "weak, overall time reduction at 1 node", " %"),
    ("weak_overall_reduction_256n", "weak, overall time reduction at 256 nodes", " %"),
    ("strong_comm_improvement_min", "strong, least comm improvement, 8-256 nodes", " %"),
    ("strong_comm_improvement_max", "strong, most comm improvement, 8-256 nodes", " %"),
];

fn key(m: Model) -> &'static str {
    ["charm", "ampi", "ompi", "charm4py"][m as usize]
}

/// Every row, grouped under its section heading.
fn sections() -> [(&'static str, Vec<Row>); 3] {
    let mut table1 = Vec::new();
    for (i, &(bw, place, m, lo, hi, eager)) in TABLE1.iter().enumerate() {
        let fig = 10 + 2 * bw as u8 + (place == Placement::InterNode) as u8;
        let (metric, short) = [("latency", "lat"), ("bandwidth", "bw")][bw as usize];
        let stats = [("min", Stat::Min, Some(lo)), ("max", Stat::Max, Some(hi))];
        for (stat, s, p) in stats.into_iter().chain([("eager", Stat::Eager, eager)]) {
            let Some(p) = p else { continue };
            let id = format!("t1.{short}.{}.{}.{stat}", &place.label()[..5], key(m));
            let at = format!("Table I, {metric} {} {}, {stat}", place.label(), m.label());
            let at = format!("{at} (EXPERIMENTS.md:{})", 37 + i);
            let measure = Measure::Improvement(fig, m, s);
            table1.push(Row(id, at, V(p), "×", measure, Some("osu_figures")));
        }
    }
    let anchors = ANCHORS.iter().map(|&(fig, m, mode, size, paper, line)| {
        let (sfx, bytes) = (mode.suffix(), format!("{}B", fmt_size(size)));
        let id = format!("fig{fig}.{}_{}.{bytes}", key(m), sfx.to_lowercase());
        let at = format!("Fig. {fig}, {}-{sfx} at {bytes}", m.label());
        let at = format!("{at} (EXPERIMENTS.md:{line})");
        let unit = if fig < 12 { " µs" } else { " GB/s" };
        let measure = Measure::Point(fig, m, mode, size);
        Row(id, at, paper, unit, measure, None)
    });
    let mut jacobi = Vec::new();
    for (m, fig, lines, paper) in JACOBI {
        let measures = [
            Measure::CommSpeedup(m, 1),
            Measure::CommSpeedup(m, 256),
            Measure::Reduction(m, 1),
            Measure::Reduction(m, 256),
            Measure::StrongComm(m, Stat::Min),
            Measure::StrongComm(m, Stat::Max),
        ];
        for (k, (id, what, unit)) in JACOBI_ROWS.into_iter().enumerate() {
            // `jacobi_8n` scores the 1-node comm speed-ups the paper quotes.
            let frozen = (k == 0 && matches!(paper[k], V(_))).then_some("jacobi_8n");
            let id = format!("fig{fig}.{}.{id}", key(m));
            let at = format!("Fig. {fig}, {} {what} (EXPERIMENTS.md:{lines})", m.label());
            jacobi.push(Row(id, at, paper[k], unit, measures[k], frozen));
        }
    }
    let id = "fig15.ampi.d_over_ompi_d_256n".to_string();
    let at = "Fig. 15, AMPI-D over OpenMPI-D overall time, weak, 256 nodes (EXPERIMENTS.md:96-99)";
    let measure = Measure::OverOmpiD(Model::Ampi, 256);
    jacobi.push(Row(id, at.into(), N, "×", measure, None));
    let anchors = anchors.collect();
    [
        ("Table I — H→D improvement", table1),
        ("Figures 10–13 — OSU latency and bandwidth anchors", anchors),
        ("Figures 14–16 — Jacobi3D weak and strong scaling", jacobi),
    ]
}

fn series(p: &[Panels; 4], fig: u8, model: Model) -> (&Series, &Series) {
    let panels = &p[usize::from(fig - 10)];
    let (_, h, d) = panels
        .iter()
        .find(|x| x.0 == model)
        .expect("every figure has every model");
    (h, d)
}

fn sweep(sweeps: &[(Model, Vec<SweepRow>)], model: Model) -> &[SweepRow] {
    &sweeps
        .iter()
        .find(|x| x.0 == model)
        .expect("every sweep has every model")
        .1
}

fn point(sweeps: &[(Model, Vec<SweepRow>)], model: Model, nodes: usize) -> &SweepRow {
    sweep(sweeps, model)
        .iter()
        .find(|r| r.0 == nodes)
        .expect("the paper's node counts")
}

/// The row's measured value, or `None` when `figs` is the other half.
fn measure(m: Measure, figs: &Figures) -> Option<f64> {
    Some(match (m, figs) {
        (Measure::Improvement(fig, model, stat), Figures::Osu(p)) => {
            let (h, d) = series(p, fig, model);
            let r = if fig >= 12 { ratio(d, h) } else { ratio(h, d) };
            let (lo, hi) = ratio_range(&r);
            match stat {
                Stat::Min => lo,
                Stat::Max => hi,
                Stat::Eager => r.iter().find(|(s, _)| *s == 512).expect("a 512 B point").1,
            }
        }
        (Measure::Point(fig, model, mode, size), Figures::Osu(p)) => {
            let (h, d) = series(p, fig, model);
            let v = if mode == Mode::Device { d } else { h }
                .at(size)
                .expect("a swept size");
            // Bandwidth series are in MB/s.
            v / if fig >= 12 { 1e3 } else { 1.0 }
        }
        (Measure::CommSpeedup(m, n), Figures::Jacobi { weak, .. }) => {
            let (_, h, d) = point(weak, m, n);
            h.comm_ms / d.comm_ms
        }
        (Measure::Reduction(m, n), Figures::Jacobi { weak, .. }) => {
            let (_, h, d) = point(weak, m, n);
            100.0 * (1.0 - d.overall_ms / h.overall_ms)
        }
        (Measure::StrongComm(m, stat), Figures::Jacobi { strong, .. }) => {
            let imp = sweep(strong, m)
                .iter()
                .map(|(_, h, d)| 100.0 * (1.0 - d.comm_ms / h.comm_ms));
            match stat {
                Stat::Max => imp.fold(f64::NEG_INFINITY, f64::max),
                _ => imp.fold(f64::INFINITY, f64::min),
            }
        }
        (Measure::OverOmpiD(m, n), Figures::Jacobi { weak, .. }) => {
            point(weak, m, n).2.overall_ms / point(weak, Model::Ompi, n).2.overall_ms
        }
        _ => return None,
    })
}

/// Signed error in percent, `None` when the paper quotes no number.
fn error_pct(paper: Paper, measured: f64) -> Option<f64> {
    let err = |p: f64| 100.0 * (measured / p - 1.0);
    match paper {
        V(p) => Some(err(p)),
        Paper::Pair(a, b) if err(a).abs() <= err(b).abs() => Some(err(a)),
        Paper::Pair(_, b) => Some(err(b)),
        N => None,
    }
}

fn mean_abs(errs: &[f64]) -> f64 {
    errs.iter().map(|e| e.abs()).sum::<f64>() / errs.len() as f64
}

const PREAMBLE: &str = "# SCORECARD — paper vs. simulated

Every paper number the repository claims, the value the simulator gives
for it, and the signed error (measured ÷ paper − 1). Generated from
`crates/bench/src/scorecard.rs` by the `microbench_figures` and
`jacobi_figures` benches (`target/rucx-results/scorecard_{osu,jacobi}.md`,
concatenated here); `scripts/check.sh` diffs the two against this file.
A row marked with a frozen workload is one of the 32 paper values
`examples/benchmark` scores: that workload's `paper_err_pct` is the mean
|error| of its rows.
";

/// Render the rows `figs` can measure as markdown: the OSU half opens
/// `SCORECARD.md`, the Jacobi half ends it.
pub fn render(figs: &Figures) -> String {
    let mut out = String::new();
    if let Figures::Osu(_) = figs {
        out += PREAMBLE;
    }
    for (title, rows) in sections() {
        let rows: Vec<(Row, f64)> = rows
            .into_iter()
            .filter_map(|r| measure(r.4, figs).map(|v| (r, v)))
            .collect();
        if rows.is_empty() {
            continue;
        }
        out += &format!(
            "\n## {title}\n\n| id | paper locator | paper | measured | error | frozen |\n"
        );
        out += "|---|---|---|---|---|---|\n";
        let mut scored: Vec<(&str, Option<&str>, f64)> = Vec::new();
        for (r, v) in &rows {
            let Row(id, at, paper, unit, _, frozen) = r;
            let paper_cell = match paper {
                V(p) => format!("{p:?}{unit}"),
                Paper::Pair(a, b) => format!("{a:?} / {b:?}{unit} (model not stated)"),
                N => "not quoted".into(),
            };
            let err = error_pct(*paper, *v);
            let err_cell = err.map_or("—".into(), |e| format!("{e:+.1} %"));
            let cells = format!("{paper_cell} | {v:.2}{unit} | {err_cell}");
            let frozen_cell = frozen.unwrap_or("");
            let _ = writeln!(out, "| `{id}` | {at} | {cells} | {frozen_cell} |");
            scored.extend(err.map(|e| (id.as_str(), *frozen, e)));
        }
        let errs: Vec<f64> = scored.iter().map(|s| s.2).collect();
        let worst = scored.iter().max_by(|a, b| a.2.abs().total_cmp(&b.2.abs()));
        let (id, _, e) = worst.expect("every section has a scored row");
        let (n, mean) = (errs.len(), mean_abs(&errs));
        let _ = writeln!(
            out,
            "\nMean |error| over the {n} scored rows: {mean:.1} %; worst `{id}` {e:+.1} %."
        );
        let mut workloads: Vec<&str> = scored.iter().filter_map(|s| s.1).collect();
        workloads.dedup();
        for w in workloads {
            let errs: Vec<f64> = scored
                .iter()
                .filter(|s| s.1 == Some(w))
                .map(|s| s.2)
                .collect();
            let (n, mean) = (errs.len(), mean_abs(&errs));
            let _ = writeln!(
                out,
                "**`{w}` paper_err_pct: {mean:.1} %** (mean |error| of its {n} rows)."
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper values `examples/benchmark/src/paper_ref.rs` scores, in
    /// file order: every float literal outside comments before
    /// `mean_err_pct`.
    fn frozen_paper_values() -> Vec<f64> {
        let src = include_str!("../../../examples/benchmark/src/paper_ref.rs");
        let consts = src
            .split("pub fn mean_err_pct")
            .next()
            .expect("paper_ref.rs has mean_err_pct");
        consts
            .lines()
            .filter(|l| !l.trim_start().starts_with("//"))
            .flat_map(|l| l.split(|c: char| !(c.is_ascii_digit() || c == '.')))
            .filter(|t| t.contains('.'))
            .map(|t| t.parse().expect("a float literal"))
            .collect()
    }

    fn rows() -> Vec<Row> {
        sections().into_iter().flat_map(|(_, rows)| rows).collect()
    }

    #[test]
    fn frozen_rows_hold_the_frozen_benchmarks_paper_values() {
        let frozen = frozen_paper_values();
        assert_eq!(
            frozen.len(),
            32,
            "30 Table I values and two 1-node Jacobi speed-ups"
        );
        let ours: Vec<(f64, &str)> = rows()
            .iter()
            .filter_map(|r| match (r.2, r.5) {
                (V(p), Some(w)) => Some((p, w)),
                _ => None,
            })
            .collect();
        assert_eq!(ours.iter().map(|r| r.0).collect::<Vec<_>>(), frozen);
        assert_eq!(ours.iter().filter(|r| r.1 == "osu_figures").count(), 30);
        assert_eq!(ours.iter().filter(|r| r.1 == "jacobi_8n").count(), 2);
    }

    #[test]
    fn ids_are_unique() {
        let mut ids: Vec<String> = rows().into_iter().map(|r| r.0).collect();
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn a_pair_is_scored_against_its_nearer_value() {
        assert_eq!(error_pct(Paper::Pair(4.0, 8.0), 5.0), Some(25.0));
        assert_eq!(error_pct(Paper::Pair(4.0, 8.0), 10.0), Some(25.0));
        assert_eq!(error_pct(N, 1.0), None);
    }
}
