//! The paper values the benchmark scores simulated results against.
//! Every number is copied from EXPERIMENTS.md, which holds them beside
//! the repository's own measurements; the comment on each row names the
//! EXPERIMENTS.md line it comes from.

use rucx::osu::{Model, Placement};

/// One row of Table I ("improvement with GPU-aware communication",
/// host-staging → GPU-direct): the paper's min–max range of the H/D
/// ratio over the 1 B–4 MB sweep and, for latency rows, its eager-path
/// (512 B) ratio.
pub struct Table1Row {
    pub bandwidth: bool,
    pub place: Placement,
    pub model: Model,
    pub lo: f64,
    pub hi: f64,
    pub eager: Option<f64>,
}

const fn row(
    bandwidth: bool,
    place: Placement,
    model: Model,
    lo: f64,
    hi: f64,
    eager: Option<f64>,
) -> Table1Row {
    Table1Row {
        bandwidth,
        place,
        model,
        lo,
        hi,
        eager,
    }
}

/// EXPERIMENTS.md "Table I", columns "Paper range" and "Paper eager".
pub const TABLE1: [Table1Row; 12] = [
    // EXPERIMENTS.md:37  Latency | intra | Charm++ | 2.1–10.2× | eager 4.4×
    row(
        false,
        Placement::IntraNode,
        Model::Charm,
        2.1,
        10.2,
        Some(4.4),
    ),
    // EXPERIMENTS.md:38  Latency | intra | AMPI | 1.9–11.7× | eager 3.6×
    row(
        false,
        Placement::IntraNode,
        Model::Ampi,
        1.9,
        11.7,
        Some(3.6),
    ),
    // EXPERIMENTS.md:39  Latency | intra | Charm4py | 1.8–17.4× | eager 1.9×
    row(
        false,
        Placement::IntraNode,
        Model::Charm4py,
        1.8,
        17.4,
        Some(1.9),
    ),
    // EXPERIMENTS.md:40  Latency | inter | Charm++ | 1.2–4.1× | eager 4.1×
    row(
        false,
        Placement::InterNode,
        Model::Charm,
        1.2,
        4.1,
        Some(4.1),
    ),
    // EXPERIMENTS.md:41  Latency | inter | AMPI | 1.8–3.5× | eager 3.4×
    row(
        false,
        Placement::InterNode,
        Model::Ampi,
        1.8,
        3.5,
        Some(3.4),
    ),
    // EXPERIMENTS.md:42  Latency | inter | Charm4py | 1.5–3.4× | eager 1.8×
    row(
        false,
        Placement::InterNode,
        Model::Charm4py,
        1.5,
        3.4,
        Some(1.8),
    ),
    // EXPERIMENTS.md:43  Bandwidth | intra | Charm++ | 1.4–9.6×
    row(true, Placement::IntraNode, Model::Charm, 1.4, 9.6, None),
    // EXPERIMENTS.md:44  Bandwidth | intra | AMPI | 1.3–10.0×
    row(true, Placement::IntraNode, Model::Ampi, 1.3, 10.0, None),
    // EXPERIMENTS.md:45  Bandwidth | intra | Charm4py | 1.3–10.5×
    row(true, Placement::IntraNode, Model::Charm4py, 1.3, 10.5, None),
    // EXPERIMENTS.md:46  Bandwidth | inter | Charm++ | 1.2–2.7×
    row(true, Placement::InterNode, Model::Charm, 1.2, 2.7, None),
    // EXPERIMENTS.md:47  Bandwidth | inter | AMPI | 1.3–2.6×
    row(true, Placement::InterNode, Model::Ampi, 1.3, 2.6, None),
    // EXPERIMENTS.md:48  Bandwidth | inter | Charm4py | 1.0–1.5×
    row(true, Placement::InterNode, Model::Charm4py, 1.0, 1.5, None),
];

/// Jacobi3D weak scaling at one node, communication-time speed-up H/D.
/// EXPERIMENTS.md:88 "Charm++ (Fig. 14) … (paper: 12.4× → 1.1×"
pub const JACOBI_COMM_SPEEDUP_1N_CHARM: f64 = 12.4;
/// EXPERIMENTS.md:99 "AMPI + OpenMPI (Fig. 15) … (paper 12.8× → ~1.3×)"
pub const JACOBI_COMM_SPEEDUP_1N_AMPI: f64 = 12.8;

/// Mean |simulated ÷ paper − 1| in percent over `(simulated, paper)` pairs.
pub fn mean_err_pct(pairs: &[(f64, f64)]) -> f64 {
    assert!(!pairs.is_empty());
    100.0 * pairs.iter().map(|(s, p)| (s / p - 1.0).abs()).sum::<f64>() / pairs.len() as f64
}
