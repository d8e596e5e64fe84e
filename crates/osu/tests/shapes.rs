//! Integration tests: the microbenchmarks must reproduce the qualitative
//! shapes of the paper's Figures 10–13 (who wins, and roughly by how much).

use rucx_osu::{bandwidth, default_sizes, latency, Mode, Model, OsuConfig, Placement};

fn cfg() -> OsuConfig {
    OsuConfig::quick()
}

#[test]
fn gpu_direct_beats_host_staging_everywhere() {
    // The paper's whole 1 B – 4 MiB sweep, at the quick iteration counts.
    let cfg = OsuConfig {
        sizes: default_sizes(),
        ..cfg()
    };
    for model in [Model::Charm, Model::Ampi, Model::Ompi, Model::Charm4py] {
        for place in [Placement::IntraNode, Placement::InterNode] {
            let d = latency(&cfg, model, Mode::Device, place);
            let h = latency(&cfg, model, Mode::HostStaging, place);
            assert_eq!(d.points.len(), cfg.sizes.len(), "every size runs");
            for (size, lat_d) in &d.points {
                let lat_h = h.at(*size).unwrap();
                assert!(
                    lat_h > *lat_d,
                    "{} {} size {size}: H {lat_h:.1}us must exceed D {lat_d:.1}us",
                    model.label(),
                    place.label()
                );
            }
        }
    }
}

#[test]
fn intra_node_large_message_latency_improvement_is_big() {
    // Paper Table I: intra-node latency improvements reach ~10x at large
    // sizes for Charm++/AMPI.
    let cfg = cfg();
    for model in [Model::Charm, Model::Ampi] {
        let d = latency(&cfg, model, Mode::Device, Placement::IntraNode);
        let h = latency(&cfg, model, Mode::HostStaging, Placement::IntraNode);
        let size = 1 << 20;
        let ratio = h.at(size).unwrap() / d.at(size).unwrap();
        assert!(
            ratio > 4.0,
            "{}: 1MB intra-node improvement only {ratio:.2}x",
            model.label()
        );
    }
}

#[test]
fn ampi_slower_than_openmpi_small_but_same_ucx_floor_large() {
    let cfg = cfg();
    let ampi = latency(&cfg, Model::Ampi, Mode::Device, Placement::IntraNode);
    let ompi = latency(&cfg, Model::Ompi, Mode::Device, Placement::IntraNode);
    // Small messages: AMPI pays its runtime overhead (paper: ~8us vs ~2us).
    let (a8, o8) = (ampi.at(8).unwrap(), ompi.at(8).unwrap());
    assert!(a8 > o8 + 3.0, "AMPI {a8:.1}us vs OpenMPI {o8:.1}us at 8B");
    // Large messages: both converge to the UCX transfer time.
    let (a4m, o4m) = (ampi.at(1 << 20).unwrap(), ompi.at(1 << 20).unwrap());
    assert!(
        (a4m - o4m) / o4m < 0.25,
        "AMPI {a4m:.1}us vs OpenMPI {o4m:.1}us at 1MB"
    );
}

#[test]
fn charm4py_has_highest_small_message_latency() {
    let cfg = cfg();
    let py = latency(&cfg, Model::Charm4py, Mode::Device, Placement::IntraNode);
    let charm = latency(&cfg, Model::Charm, Mode::Device, Placement::IntraNode);
    let ompi = latency(&cfg, Model::Ompi, Mode::Device, Placement::IntraNode);
    let s = 8;
    assert!(py.at(s).unwrap() > charm.at(s).unwrap());
    assert!(charm.at(s).unwrap() > ompi.at(s).unwrap());
}

#[test]
fn intra_node_device_bandwidth_approaches_nvlink() {
    let cfg = cfg();
    for model in [Model::Charm, Model::Ampi, Model::Ompi] {
        let bw = bandwidth(&cfg, model, Mode::Device, Placement::IntraNode);
        let at_1m = bw.at(1 << 20).unwrap();
        assert!(
            at_1m > 25_000.0,
            "{}: 1MB intra-node D bandwidth {at_1m:.0} MB/s too low",
            model.label()
        );
        let h = bandwidth(&cfg, model, Mode::HostStaging, Placement::IntraNode);
        assert!(
            h.at(1 << 20).unwrap() < at_1m / 3.0,
            "{}: H bandwidth should collapse vs D",
            model.label()
        );
    }
}

#[test]
fn inter_node_device_bandwidth_approaches_nic() {
    let cfg = cfg();
    let bw = bandwidth(&cfg, Model::Ompi, Mode::Device, Placement::InterNode);
    let at_1m = bw.at(1 << 20).unwrap();
    assert!(
        at_1m > 7_000.0 && at_1m < 12_500.0,
        "inter-node D bandwidth {at_1m:.0} MB/s out of EDR band"
    );
}

#[test]
fn charm4py_bandwidth_below_charm() {
    let cfg = cfg();
    let py = bandwidth(&cfg, Model::Charm4py, Mode::Device, Placement::IntraNode);
    let charm = bandwidth(&cfg, Model::Charm, Mode::Device, Placement::IntraNode);
    let s = 1 << 20;
    assert!(
        py.at(s).unwrap() < charm.at(s).unwrap(),
        "Charm4py {py:?} must stay under Charm++ {charm:?}"
    );
}

#[test]
fn latency_grows_with_size() {
    let cfg = cfg();
    for place in [Placement::IntraNode, Placement::InterNode] {
        let d = latency(&cfg, Model::Ompi, Mode::Device, place);
        let v: Vec<f64> = d.points.iter().map(|(_, v)| *v).collect();
        assert!(v.windows(2).all(|w| w[1] >= w[0]), "{place:?}: {v:?}");
    }
}
