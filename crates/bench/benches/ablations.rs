//! Ablations for the design choices DESIGN.md calls out:
//!
//! 1. **GDRCopy detection** (§IV-B1: "the detection of the GDRCopy library
//!    by UCX is essential to achieve low latencies with small messages") —
//!    small-message device latency with GDRCopy on vs off.
//! 2. **Rendezvous pipeline vs direct GPUDirect-RDMA** for large inter-node
//!    device transfers, including the pipeline chunk-size sweep.
//! 3. **AMPI overhead attribution** (§IV-B1: ~8 µs outside UCX) — AMPI vs
//!    OpenMPI small-message latency gap.
//! 4. **Device eager threshold** — where the eager→rendezvous crossover
//!    lands.
//!
//! Run with `cargo bench --bench ablations`.

use rucx_bench::{fmt_size, print_table, write_json};
use rucx_osu::{bandwidth, latency, Mode, Model, OsuConfig, Placement};

fn main() {
    // `RUCX_ABLATION=<substring>` runs a single ablation (CI smoke runs
    // gate on `multipath` without paying for the full figure set).
    let filter = std::env::var("RUCX_ABLATION").unwrap_or_default();
    let want = |name: &str| filter.is_empty() || name.contains(filter.as_str());
    if want("gdrcopy") {
        gdrcopy_ablation();
    }
    if want("pipeline") {
        pipeline_ablation();
    }
    if want("ampi") {
        ampi_overhead();
    }
    if want("eager") {
        eager_threshold_ablation();
    }
    if want("overdecomposition") {
        overdecomposition_ablation();
    }
    if want("multipath") {
        multipath_ablation();
    }
}

/// Striped multi-path rendezvous vs the single resolved path, intra-node
/// device latency. Asserts the bar striping must clear: it beats the
/// single NVLink path for 16 MiB transfers.
fn multipath_ablation() {
    let sizes: Vec<u64> = vec![4 << 10, 8 << 10, 64 << 10, 1 << 20, 16 << 20];
    let run = |single_path: bool| {
        let mut cfg = OsuConfig {
            sizes: sizes.clone(),
            ..OsuConfig::default()
        };
        if single_path {
            cfg.machine.ucp.multipath_min = u64::MAX;
        }
        latency(&cfg, Model::Ompi, Mode::Device, Placement::IntraNode)
    };
    let single = run(true);
    let striped = run(false);
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for &s in &sizes {
        let (a, b) = (single.at(s).unwrap(), striped.at(s).unwrap());
        rows.push(vec![fmt_size(s), format!("{a:.2}"), format!("{b:.2}")]);
        json.push((s, a, b));
    }
    let (a16, b16) = (single.at(16 << 20).unwrap(), striped.at(16 << 20).unwrap());
    assert!(
        b16 < a16,
        "striping must beat single-path NVLink at 16 MiB: {b16:.1} vs {a16:.1} us"
    );
    print_table(
        "Ablation: multi-path rendezvous (intra-node OpenMPI-D latency, us)",
        &["size", "single-path", "striped"],
        &rows,
    );
    write_json("ablation_multipath", &json);
}

/// The paper's stated future work (§VI, their ref [23]): overdecomposition
/// for computation-communication overlap. With `overdecomp` chares per PE,
/// the message-driven scheduler can keep one chare's kernel on the GPU
/// while another's halos are in flight — at the cost of more cut surface
/// and more per-message overhead.
fn overdecomposition_ablation() {
    use rucx_jacobi::{run, JacobiConfig, JacobiModel};
    let mut rows = Vec::new();
    for (label, make) in [
        (
            "weak 4 nodes",
            JacobiConfig::weak as fn(usize, rucx_jacobi::Mode) -> JacobiConfig,
        ),
        ("strong 32 nodes", JacobiConfig::strong),
    ] {
        let nodes = if label.starts_with("weak") { 4 } else { 32 };
        for odf in [1u32, 2, 4, 8] {
            let mut cfg = make(nodes, rucx_jacobi::Mode::Device);
            cfg.iters = 4;
            cfg.warmup = 1;
            cfg.overdecomp = odf;
            let r = run(JacobiModel::Charm, &cfg);
            rows.push(vec![
                label.to_string(),
                odf.to_string(),
                format!("{:.2}", r.overall_ms),
                format!("{:.2}", r.comm_ms),
            ]);
        }
    }
    print_table(
        "Ablation: overdecomposition (Charm++ Jacobi3D, GPU-direct; ms/iter)",
        &[
            "config",
            "chares/PE",
            "overall",
            "comm (incl. overlapped wait)",
        ],
        &rows,
    );
    write_json("ablation_overdecomposition", &rows);
}

fn gdrcopy_ablation() {
    let sizes: Vec<u64> = (0..=13).map(|i| 1u64 << i).collect(); // 1B..8KB
    let on = OsuConfig {
        sizes: sizes.clone(),
        ..OsuConfig::default()
    };
    let mut off = on.clone();
    off.machine.ucp.gdrcopy_enabled = false;

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for place in [Placement::IntraNode, Placement::InterNode] {
        let with = latency(&on, Model::Ompi, Mode::Device, place);
        let without = latency(&off, Model::Ompi, Mode::Device, place);
        for &s in &sizes {
            let (a, b) = (with.at(s).unwrap(), without.at(s).unwrap());
            rows.push(vec![
                place.label().to_string(),
                fmt_size(s),
                format!("{a:.2}"),
                format!("{b:.2}"),
                format!("{:.1}x", b / a),
            ]);
            json.push((place.label(), s, a, b));
        }
    }
    print_table(
        "Ablation: GDRCopy detection (OpenMPI-D small-message latency, us)",
        &["placement", "size", "GDRCopy on", "GDRCopy off", "penalty"],
        &rows,
    );
    write_json("ablation_gdrcopy", &json);
}

fn pipeline_ablation() {
    let sizes: Vec<u64> = (17..=22).map(|i| 1u64 << i).collect(); // 128KB..4MB
    let mut rows = Vec::new();
    let mut json = Vec::new();

    // Pipelined host staging (the path UCX takes on Summit) vs direct
    // GPUDirect-RDMA for the whole message.
    for (label, direct, chunk) in [
        ("pipeline 256K", false, 256 * 1024),
        ("pipeline 512K", false, 512 * 1024),
        ("pipeline 1M", false, 1024 * 1024),
        ("pipeline 2M", false, 2048 * 1024),
        ("direct GDR", true, 512 * 1024),
    ] {
        let mut cfg = OsuConfig {
            sizes: sizes.clone(),
            ..OsuConfig::default()
        };
        cfg.machine.ucp.direct_gdr_rndv = direct;
        cfg.machine.ucp.pipeline_chunk = chunk;
        let bw = bandwidth(&cfg, Model::Ompi, Mode::Device, Placement::InterNode);
        let lat = latency(&cfg, Model::Ompi, Mode::Device, Placement::InterNode);
        for &s in &sizes {
            rows.push(vec![
                label.to_string(),
                fmt_size(s),
                format!("{:.0}", bw.at(s).unwrap()),
                format!("{:.1}", lat.at(s).unwrap()),
            ]);
            json.push((label, s, bw.at(s).unwrap(), lat.at(s).unwrap()));
        }
    }
    print_table(
        "Ablation: inter-node device rendezvous strategy",
        &["strategy", "size", "bandwidth MB/s", "latency us"],
        &rows,
    );
    write_json("ablation_pipeline", &json);
}

fn ampi_overhead() {
    let cfg = OsuConfig {
        sizes: vec![1, 8, 64, 512, 2048],
        ..OsuConfig::default()
    };
    let ampi = latency(&cfg, Model::Ampi, Mode::Device, Placement::IntraNode);
    let ompi = latency(&cfg, Model::Ompi, Mode::Device, Placement::IntraNode);
    let charm = latency(&cfg, Model::Charm, Mode::Device, Placement::IntraNode);
    let rows: Vec<Vec<String>> = cfg
        .sizes
        .iter()
        .map(|&s| {
            let (a, o, c) = (
                ampi.at(s).unwrap(),
                ompi.at(s).unwrap(),
                charm.at(s).unwrap(),
            );
            vec![
                fmt_size(s),
                format!("{o:.2}"),
                format!("{c:.2}"),
                format!("{a:.2}"),
                format!("{:.2}", a - o),
            ]
        })
        .collect();
    print_table(
        "Ablation: AMPI overhead above UCX (paper: ~8us; latency us)",
        &["size", "OpenMPI-D", "Charm++-D", "AMPI-D", "AMPI - OpenMPI"],
        &rows,
    );
    write_json("ablation_ampi_overhead", &rows);
}

fn eager_threshold_ablation() {
    let sizes: Vec<u64> = (0..=16).map(|i| 1u64 << i).collect(); // 1B..64KB
    let mut rows = Vec::new();
    for thresh in [0u64, 1024, 4096, 16384, 65536] {
        let mut cfg = OsuConfig {
            sizes: sizes.clone(),
            ..OsuConfig::default()
        };
        cfg.machine.ucp.eager_thresh_device = thresh;
        let lat = latency(&cfg, Model::Ompi, Mode::Device, Placement::IntraNode);
        for &s in [8u64, 1024, 4096, 16384, 65536].iter() {
            rows.push(vec![
                fmt_size(thresh),
                fmt_size(s),
                format!("{:.2}", lat.at(s).unwrap()),
            ]);
        }
    }
    print_table(
        "Ablation: device eager threshold (intra-node OpenMPI-D latency, us)",
        &["eager_thresh", "size", "latency"],
        &rows,
    );
}
