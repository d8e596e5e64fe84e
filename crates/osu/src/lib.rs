//! # rucx-osu — OSU-style microbenchmarks for all four models
//!
//! Point-to-point latency and bandwidth benchmarks adapted from the OSU
//! suite (paper §IV-B), each in a GPU-direct (`-D`) and a host-staging
//! (`-H`) variant, for Charm++, AMPI, OpenMPI, and Charm4py, intra-node and
//! inter-node, plus `osu_bibw` on AMPI and OpenMPI. These generate the
//! series behind Figures 10–13 and Table I.
//!
//! There is one way in: [`point`] runs one [`Bench`] for one model, mode
//! and placement on a simulation the caller built ([`setup`]), and
//! [`series`] sweeps it over the configured sizes and labels the curve
//! ([`latency`] and [`bandwidth`] are its two fixed-benchmark spellings).
//! Under `point` sits one private body per (model, benchmark) and one run
//! harness: it launches the body, runs the simulation to completion
//! through [`rucx_ucp::finish`], which audits in every build profile that
//! no rendezvous or tracked send is left in flight, and returns the number
//! rank 0 reported. Every point of a series is its own simulation; a sweep
//! runs them on every core (`sweep.rs`) and returns them in size order,
//! bit-identical to running them one at a time. The collective benchmark
//! ([`coll_bench`]) uses the same harness.

mod charm;
pub mod coll;
pub mod coll_bench;
pub mod cuda;
mod mpi;
pub mod mpi_like;
pub mod py;
mod sweep;

use std::sync::Arc;

use mpi_like::{AmpiFactory, OmpiFactory};
use rucx_compat::json::{JsonObject, ToJson};
use rucx_fabric::Topology;
use rucx_gpu::{MemRef, StreamId};
use rucx_sim::time::Time;
use rucx_ucp::{build_sim, MCtx, MSim, MachineConfig, ResultCell};

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

    /// The other side of the pair for process `me`, or `None` if `me`
    /// sits the benchmark out.
    pub(crate) fn partner(self, me: usize) -> Option<usize> {
        match me {
            0 => Some(self.peer()),
            p if p == self.peer() => Some(0),
            _ => None,
        }
    }
}

/// Which point-to-point OSU program a [`point`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// `osu_latency`: ping-pong; one-way latency is half the round trip.
    Latency,
    /// `osu_bw`: a window of non-blocking sends, then a small reply.
    Bandwidth,
    /// `osu_bibw`: both sides send a window at once; aggregate rate.
    BiBandwidth,
}

impl Bench {
    pub fn label(self) -> &'static str {
        match self {
            Bench::Latency => "latency",
            Bench::Bandwidth => "bandwidth",
            Bench::BiBandwidth => "bi-bandwidth",
        }
    }

    pub fn unit(self) -> &'static str {
        match self {
            Bench::Latency => "us",
            Bench::Bandwidth | Bench::BiBandwidth => "MB/s",
        }
    }

    /// Whether [`point`] has a body for `model` in `mode`: latency and
    /// bandwidth run everywhere, bi-bandwidth on AMPI-D and OpenMPI-D.
    pub fn supports(self, model: Model, mode: Mode) -> bool {
        self != Bench::BiBandwidth
            || (mode == Mode::Device && matches!(model, Model::Ampi | Model::Ompi))
    }

    fn check(self, model: Model, mode: Mode) {
        assert!(
            self.supports(model, mode),
            "no {}-{} {}: bi-bandwidth runs on AMPI-D and OpenMPI-D only",
            model.label(),
            mode.suffix(),
            self.label()
        );
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

/// One point's simulation: a 2-node Summit slice and, per process, one
/// device buffer, one pinned host buffer and one small ack buffer (phantom:
/// microbenchmark timing never depends on payload content).
pub struct BenchSetup {
    pub sim: MSim,
    /// The message size the buffers were allocated for.
    pub size: u64,
    /// Per process: its buffers cut to the message size.
    sides: Arc<Vec<Side>>,
    /// Per process: the 4-byte reply the bandwidth bodies acknowledge with.
    acks: Arc<Vec<MemRef>>,
}

/// A staged buffer: device memory, its host mirror and the device's
/// default stream, which the `-H` staging legs of MPI and Charm++ copy on.
/// OSU's sides and each Jacobi halo face (send and receive) are one each.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub d: MemRef,
    pub h: MemRef,
    pub stream: StreamId,
}

impl Side {
    /// The buffer a `mode` body communicates from: device memory for
    /// `-D`, the host copy for `-H`.
    pub fn buf(&self, mode: Mode) -> MemRef {
        match mode {
            Mode::Device => self.d,
            Mode::HostStaging => self.h,
        }
    }

    /// `-H` only: stage the device buffer out to host memory.
    pub fn stage_out(&self, ctx: &mut MCtx, mode: Mode) {
        if mode == Mode::HostStaging {
            cuda::copy_sync(ctx, self.d, self.h, self.stream);
        }
    }

    /// `-H` only: stage host memory back into the device buffer.
    pub fn stage_in(&self, ctx: &mut MCtx, mode: Mode) {
        if mode == Mode::HostStaging {
            cuda::copy_sync(ctx, self.h, self.d, self.stream);
        }
    }
}

/// Build the simulation and buffers for one benchmark point.
pub fn setup(machine: &MachineConfig, size: u64) -> BenchSetup {
    let topo = Topology::summit(2);
    let mut sim = build_sim(topo.clone(), machine.clone());
    let gpu = &mut sim.world_mut().gpu;
    let side = |p: usize| {
        let (dev, node) = (topo.device_of(p), topo.node_of(p));
        let d = gpu
            .pool
            .alloc_device(dev, size.max(1), false)
            .expect("device alloc");
        let h = gpu.pool.alloc_host(node, size.max(1), true, false);
        let ack = gpu.pool.alloc_host(node, 8, true, false);
        let side = Side {
            d: d.slice(0, size),
            h: h.slice(0, size),
            stream: gpu.default_stream(dev),
        };
        (side, ack.slice(0, 4))
    };
    let (sides, acks): (Vec<_>, Vec<_>) = (0..topo.procs()).map(side).unzip();
    BenchSetup {
        sim,
        size,
        sides: Arc::new(sides),
        acks: Arc::new(acks),
    }
}

/// The run harness under every point: [`rucx_ucp::run`] hands `launch`
/// the cell its rank 0 reports into, and a run that stalls or leaks panics
/// with one line naming `what`.
pub(crate) fn run(
    sim: &mut MSim,
    what: &str,
    launch: impl FnOnce(&mut MSim, ResultCell<f64>),
) -> f64 {
    rucx_ucp::run(sim, launch).unwrap_or_else(|e| panic!("{what}: {e}"))
}

/// `warmup` untimed rounds, then `iters` timed ones: the virtual time the
/// timed rounds took.
pub(crate) fn timed(
    ctx: &mut MCtx,
    warmup: u32,
    iters: u32,
    mut round: impl FnMut(&mut MCtx),
) -> Time {
    let mut t0 = 0;
    for i in 0..(warmup + iters) {
        if i == warmup {
            t0 = ctx.now();
        }
        round(ctx);
    }
    ctx.now() - t0
}

/// One measurement of `bench` (in [`Bench::unit`]) on a
/// fresh [`setup`]: the caller keeps the simulation, and can read its
/// counters after. Panics if `bench` does not [support](Bench::supports)
/// `model` in `mode`.
pub fn point(
    s: &mut BenchSetup,
    cfg: &OsuConfig,
    bench: Bench,
    model: Model,
    mode: Mode,
    place: Placement,
) -> f64 {
    bench.check(model, mode);
    match (bench, model) {
        (Bench::Latency, Model::Ampi) => mpi::latency(s, cfg, place, mode, AmpiFactory),
        (Bench::Latency, Model::Ompi) => mpi::latency(s, cfg, place, mode, OmpiFactory),
        (Bench::Latency, Model::Charm) => charm::latency(s, cfg, place, mode),
        (Bench::Latency, Model::Charm4py) => py::latency(s, cfg, place, mode),
        (Bench::Bandwidth, Model::Ampi) => mpi::bandwidth(s, cfg, place, mode, AmpiFactory),
        (Bench::Bandwidth, Model::Ompi) => mpi::bandwidth(s, cfg, place, mode, OmpiFactory),
        (Bench::Bandwidth, Model::Charm) => charm::bandwidth(s, cfg, place, mode),
        (Bench::Bandwidth, Model::Charm4py) => py::bandwidth(s, cfg, place, mode),
        (Bench::BiBandwidth, Model::Ampi) => mpi::bibw(s, cfg, place, AmpiFactory),
        (Bench::BiBandwidth, Model::Ompi) => mpi::bibw(s, cfg, place, OmpiFactory),
        (Bench::BiBandwidth, Model::Charm | Model::Charm4py) => unreachable!("checked above"),
    }
}

/// `bench` over every size of `cfg`, one [`point`] per size, labelled
/// e.g. "Charm++-D intra-node latency". Panics as `point` does.
pub fn series(cfg: &OsuConfig, bench: Bench, model: Model, mode: Mode, place: Placement) -> Series {
    bench.check(model, mode);
    let points = sweep::sweep(&cfg.sizes, |size| {
        let s = &mut setup(&cfg.machine, size);
        point(s, cfg, bench, model, mode, place)
    });
    Series {
        label: format!(
            "{}-{} {} {}",
            model.label(),
            mode.suffix(),
            place.label(),
            bench.label()
        ),
        unit: bench.unit(),
        points,
    }
}

/// [`series`] of [`Bench::Latency`].
pub fn latency(cfg: &OsuConfig, model: Model, mode: Mode, place: Placement) -> Series {
    series(cfg, Bench::Latency, model, mode, place)
}

/// [`series`] of [`Bench::Bandwidth`].
pub fn bandwidth(cfg: &OsuConfig, model: Model, mode: Mode, place: Placement) -> Series {
    series(cfg, Bench::Bandwidth, model, mode, place)
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
    #[should_panic(
        expected = "no AMPI-H bi-bandwidth: bi-bandwidth runs on AMPI-D and OpenMPI-D only"
    )]
    fn bibw_refuses_host_staging() {
        let (cfg, place) = (OsuConfig::quick(), Placement::IntraNode);
        series(
            &cfg,
            Bench::BiBandwidth,
            Model::Ampi,
            Mode::HostStaging,
            place,
        );
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
