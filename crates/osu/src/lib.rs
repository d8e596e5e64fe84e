//! # rucx-osu — OSU-style microbenchmarks for all four models
//!
//! Point-to-point latency and bandwidth benchmarks adapted from the OSU
//! suite (paper §IV-B), each in a GPU-direct (`-D`) and a host-staging
//! (`-H`) variant, for Charm++, AMPI, OpenMPI, and Charm4py, intra-node and
//! inter-node. These generate the series behind Figures 10–13 and Table I.

pub mod bandwidth;
pub mod bibw;
pub mod charm_osu;
pub mod coll;
pub mod coll_bench;
pub mod cuda;
pub mod latency;
pub mod mpi_like;
pub mod py_osu;

use mpi_like::{AmpiFactory, OmpiFactory};
use rucx_compat::json::{JsonObject, ToJson};
use rucx_fabric::Topology;
use rucx_gpu::MemRef;
use rucx_ucp::{build_sim, MSim, MachineConfig};

/// Which programming model to benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    Charm,
    Ampi,
    Ompi,
    Charm4py,
}

impl Model {
    pub fn label(self) -> &'static str {
        match self {
            Model::Charm => "Charm++",
            Model::Ampi => "AMPI",
            Model::Ompi => "OpenMPI",
            Model::Charm4py => "Charm4py",
        }
    }
}

/// GPU-direct (`-D`) vs host-staging (`-H`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Device,
    HostStaging,
}

impl Mode {
    pub fn suffix(self) -> &'static str {
        match self {
            Mode::Device => "D",
            Mode::HostStaging => "H",
        }
    }
}

/// Peer placement: adjacent GPUs on one node, or across nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    IntraNode,
    InterNode,
}

impl Placement {
    /// The peer process of process 0.
    pub fn peer(self) -> usize {
        match self {
            Placement::IntraNode => 1,
            Placement::InterNode => 6,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Placement::IntraNode => "intra-node",
            Placement::InterNode => "inter-node",
        }
    }
}

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct OsuConfig {
    /// Message sizes in bytes.
    pub sizes: Vec<u64>,
    pub lat_iters: u32,
    pub lat_warmup: u32,
    pub bw_iters: u32,
    pub bw_warmup: u32,
    pub bw_window: u32,
    pub machine: MachineConfig,
}

impl Default for OsuConfig {
    fn default() -> Self {
        OsuConfig {
            sizes: default_sizes(),
            lat_iters: 50,
            lat_warmup: 5,
            bw_iters: 6,
            bw_warmup: 1,
            bw_window: 32,
            machine: MachineConfig::default(),
        }
    }
}

impl OsuConfig {
    /// A reduced configuration for fast tests.
    pub fn quick() -> Self {
        OsuConfig {
            sizes: vec![8, 4 * 1024, 1 << 20],
            lat_iters: 5,
            lat_warmup: 1,
            bw_iters: 2,
            bw_warmup: 1,
            bw_window: 8,
            machine: MachineConfig::default(),
        }
    }
}

/// The paper's message-size sweep: 1 B – 4 MB, powers of two.
pub fn default_sizes() -> Vec<u64> {
    (0..=22).map(|i| 1u64 << i).collect()
}

/// One benchmark curve: `(message size, value)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// e.g. "Charm++-D intra-node latency".
    pub label: String,
    /// "us" or "MB/s".
    pub unit: &'static str,
    pub points: Vec<(u64, f64)>,
}

impl ToJson for Series {
    fn write_json(&self, out: &mut String) {
        JsonObject::new(out)
            .field("label", &self.label)
            .field("unit", self.unit)
            .field("points", &self.points)
            .finish();
    }
}

impl Series {
    /// Value at a given size (exact match).
    pub fn at(&self, size: u64) -> Option<f64> {
        self.points
            .iter()
            .find(|(s, _)| *s == size)
            .map(|(_, v)| *v)
    }
}

/// Per-size ratio `h / d` (latency improvement) or `d / h` (bandwidth
/// improvement), depending on the metric the caller passes in.
pub fn ratio(num: &Series, den: &Series) -> Vec<(u64, f64)> {
    num.points
        .iter()
        .filter_map(|(s, n)| den.at(*s).map(|d| (*s, n / d)))
        .collect()
}

/// Min/max of a ratio series.
pub fn ratio_range(r: &[(u64, f64)]) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &(_, v) in r {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (lo, hi)
}

/// Shared per-run setup: a 2-node Summit simulation plus one device buffer,
/// one pinned host buffer, and one small ack buffer per process (phantom:
/// microbenchmark timing never depends on payload content).
pub struct BenchSetup {
    pub sim: MSim,
    /// The message size the buffers were allocated for.
    pub size: u64,
    pub d: Vec<MemRef>,
    pub h: Vec<MemRef>,
    pub ack: Vec<MemRef>,
}

/// Build the simulation and buffers for one benchmark point.
pub fn setup(machine: &MachineConfig, size: u64) -> BenchSetup {
    let topo = Topology::summit(2);
    let mut sim = build_sim(topo.clone(), machine.clone());
    let mut d = Vec::new();
    let mut h = Vec::new();
    let mut ack = Vec::new();
    {
        let m = sim.world_mut();
        for p in 0..topo.procs() {
            d.push(
                m.gpu
                    .pool
                    .alloc_device(topo.device_of(p), size.max(1), false)
                    .expect("device alloc"),
            );
            h.push(
                m.gpu
                    .pool
                    .alloc_host(topo.node_of(p), size.max(1), true, false),
            );
            ack.push(m.gpu.pool.alloc_host(topo.node_of(p), 8, true, false));
        }
    }
    BenchSetup {
        sim,
        size,
        d,
        h,
        ack,
    }
}

/// Run the latency benchmark for one model/mode/placement.
pub fn latency(cfg: &OsuConfig, model: Model, mode: Mode, place: Placement) -> Series {
    let points = cfg
        .sizes
        .iter()
        .map(|&size| {
            let s = &mut setup(&cfg.machine, size);
            let us = match model {
                Model::Ampi => latency::mpi_latency_point(s, cfg, place, mode, AmpiFactory),
                Model::Ompi => latency::mpi_latency_point(s, cfg, place, mode, OmpiFactory),
                Model::Charm => charm_osu::latency_point(s, cfg, place, mode),
                Model::Charm4py => py_osu::latency_point(s, cfg, place, mode),
            };
            (size, us)
        })
        .collect();
    Series {
        label: format!(
            "{}-{} {} latency",
            model.label(),
            mode.suffix(),
            place.label()
        ),
        unit: "us",
        points,
    }
}

/// Run the bandwidth benchmark for one model/mode/placement.
pub fn bandwidth(cfg: &OsuConfig, model: Model, mode: Mode, place: Placement) -> Series {
    let points = cfg
        .sizes
        .iter()
        .map(|&size| {
            let s = &mut setup(&cfg.machine, size);
            let mbps = match model {
                Model::Ampi => bandwidth::mpi_bw_point(s, cfg, place, mode, AmpiFactory),
                Model::Ompi => bandwidth::mpi_bw_point(s, cfg, place, mode, OmpiFactory),
                Model::Charm => charm_osu::bandwidth_point(s, cfg, place, mode),
                Model::Charm4py => py_osu::bandwidth_point(s, cfg, place, mode),
            };
            (size, mbps)
        })
        .collect();
    Series {
        label: format!(
            "{}-{} {} bandwidth",
            model.label(),
            mode.suffix(),
            place.label()
        ),
        unit: "MB/s",
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_cover_paper_sweep() {
        let s = default_sizes();
        assert_eq!(s.first(), Some(&1));
        assert_eq!(s.last(), Some(&(4 << 20)));
        assert_eq!(s.len(), 23);
    }

    #[test]
    fn series_ratio_helpers() {
        let a = Series {
            label: "a".into(),
            unit: "us",
            points: vec![(1, 10.0), (2, 20.0)],
        };
        let b = Series {
            label: "b".into(),
            unit: "us",
            points: vec![(1, 5.0), (2, 2.0)],
        };
        let r = ratio(&a, &b);
        assert_eq!(r, vec![(1, 2.0), (2, 10.0)]);
        assert_eq!(ratio_range(&r), (2.0, 10.0));
        assert_eq!(a.at(2), Some(20.0));
        assert_eq!(a.at(3), None);
    }
}
