//! # rucx-jacobi — Jacobi3D proxy application (paper §IV-C)
//!
//! A 7-point stencil over a 3D domain of doubles, decomposed into
//! equal-size cuboid blocks (one per GPU) that exchange halo faces with up
//! to six neighbors each iteration — either GPU-direct through the
//! communication layer or staged through host memory. Implemented for all
//! four models (Charm++, AMPI, OpenMPI, Charm4py) with weak- and
//! strong-scaling drivers reproducing Figures 14–16. There is one path:
//! [`try_run`] executes the real UCP/runtime stack — every rank a coroutine
//! of one `Simulation` — at every size from 1 to 256 nodes.

pub mod bufs;
pub mod charm_run;
pub mod config;
pub mod decomp;
pub mod mpi_run;
pub mod py_run;

pub use config::{JacobiConfig, JacobiResult, Mode};
pub use decomp::{decompose, Block, BlockGrid, Domain};
/// Which model runs the proxy app (the OSU benchmarks' model enum).
pub use rucx_osu::Model as JacobiModel;

use rucx_fabric::Topology;
use rucx_osu::mpi_like::{AmpiFactory, OmpiFactory};
use rucx_ucp::{build_sim, RunError};

/// Run one Jacobi3D configuration; `Err` when the run stalls (a lossy
/// `cfg.machine.fault` spec made the reliability layer give up on a halo
/// and the ranks waiting for it never finish) or leaks ([`RunError`]).
pub fn try_run(model: JacobiModel, cfg: &JacobiConfig) -> Result<JacobiResult, RunError> {
    let sim = &mut build_sim(Topology::summit(cfg.nodes), cfg.machine.clone());
    match model {
        JacobiModel::Charm => charm_run::run_charm_on(sim, cfg, 1),
        JacobiModel::Ampi => mpi_run::run_mpi_on(sim, cfg, AmpiFactory),
        JacobiModel::Ompi => mpi_run::run_mpi_on(sim, cfg, OmpiFactory),
        JacobiModel::Charm4py => py_run::run_charm4py_on(sim, cfg),
    }
}

/// [`try_run`] for configurations that must drain: one panic line on error.
pub fn run(model: JacobiModel, cfg: &JacobiConfig) -> JacobiResult {
    try_run(model, cfg).unwrap_or_else(|e| panic!("jacobi ({}) did not drain: {e}", model.label()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(nodes: usize, mode: Mode) -> JacobiConfig {
        let mut c = JacobiConfig::weak(nodes, mode);
        c.iters = 3;
        c.warmup = 1;
        c
    }

    #[test]
    fn charm_single_node_gpu_direct_vs_staging() {
        let d = run(JacobiModel::Charm, &quick(1, Mode::Device));
        let h = run(JacobiModel::Charm, &quick(1, Mode::HostStaging));
        assert!(d.comm_ms > 0.0 && h.comm_ms > 0.0);
        // Paper Fig. 14: large intra-node comm speedup, overall speedup too.
        assert!(
            h.comm_ms / d.comm_ms > 3.0,
            "comm speedup only {:.2}x (H {:.2}ms, D {:.2}ms)",
            h.comm_ms / d.comm_ms,
            h.comm_ms,
            d.comm_ms
        );
        assert!(h.overall_ms > d.overall_ms);
        // Compute dominates but comm is visible.
        assert!(d.overall_ms > d.comm_ms);
    }

    #[test]
    fn ampi_and_openmpi_single_node() {
        let a = run(JacobiModel::Ampi, &quick(1, Mode::Device));
        let o = run(JacobiModel::Ompi, &quick(1, Mode::Device));
        assert!(a.comm_ms > 0.0 && o.comm_ms > 0.0);
        // AMPI close to OpenMPI at small scale (paper: similar up to ~16
        // nodes), but not faster by much.
        assert!(a.comm_ms > o.comm_ms * 0.8, "AMPI {a:?} vs OpenMPI {o:?}");
    }

    #[test]
    fn charm4py_overhead_visible() {
        let py = run(JacobiModel::Charm4py, &quick(1, Mode::Device));
        let c = run(JacobiModel::Charm, &quick(1, Mode::Device));
        assert!(
            py.comm_ms > c.comm_ms,
            "Charm4py comm {:.2}ms should exceed Charm++ {:.2}ms",
            py.comm_ms,
            c.comm_ms
        );
    }

    #[test]
    fn weak_scaling_two_nodes_runs() {
        let d = run(JacobiModel::Charm, &quick(2, Mode::Device));
        let d1 = run(JacobiModel::Charm, &quick(1, Mode::Device));
        // Both scales have real communication, in the same regime (the
        // 1-node point pays X-Bus sharing; the 2-node point pays the NIC).
        assert!(
            d.comm_ms > 0.4 && d1.comm_ms > 0.4,
            "2 nodes {d:?} vs 1 node {d1:?}"
        );
        assert!(d.comm_ms < 4.0 * d1.comm_ms && d1.comm_ms < 4.0 * d.comm_ms);
        // Compute per GPU is constant under weak scaling.
        assert!((d.overall_ms - d.comm_ms) - (d1.overall_ms - d1.comm_ms) < 3.0);
    }

    #[test]
    fn overdecomposition_runs_and_overlaps() {
        // 4 chares per PE: the run must complete, produce sane timings, and
        // not catastrophically regress overall time (overlap offsets most
        // of the extra surface).
        let mut cfg = quick(1, Mode::Device);
        cfg.iters = 2;
        let r1 = run(JacobiModel::Charm, &cfg);
        let sim = &mut build_sim(Topology::summit(1), cfg.machine.clone());
        let r4 = charm_run::run_charm_on(sim, &cfg, 4).unwrap();
        assert!(r4.comm_ms > 0.0 && r4.overall_ms > 0.0);
        assert!(
            r4.overall_ms < r1.overall_ms * 1.5,
            "odf=4 {r4:?} vs odf=1 {r1:?}"
        );
    }

    /// Under 60 % drop the reliability layer gives up on some halo and the
    /// ranks waiting for it never finish: `try_run` reports that as a value
    /// naming the give-ups and the parked ranks, identically on every run.
    #[test]
    fn stalled_run_is_a_value_and_replays_identically() {
        let mut cfg = quick(2, Mode::HostStaging);
        cfg.machine.fault = Some(rucx_fault::FaultSpec::parse("seed=7,drop=0.6").unwrap());
        let mut stalls = 0;
        for model in [
            JacobiModel::Charm,
            JacobiModel::Ampi,
            JacobiModel::Ompi,
            JacobiModel::Charm4py,
        ] {
            let first = try_run(model, &cfg);
            assert_eq!(first, try_run(model, &cfg), "{model:?} must replay");
            match first {
                Ok(_) => {}
                Err(RunError::Stalled {
                    blocked,
                    unreachable,
                }) => {
                    assert!(unreachable > 0, "{model:?}: {unreachable} give-ups");
                    assert!(!blocked.is_empty(), "{model:?}: nothing blocked");
                    stalls += 1;
                }
                Err(e) => panic!("{model:?}: {e}"),
            }
        }
        assert!(stalls > 0, "60 % drop must strand at least one model");
    }

    #[test]
    fn strong_scaling_reduces_overall_time() {
        let mut c8 = JacobiConfig::strong(8, Mode::Device);
        c8.iters = 2;
        c8.warmup = 1;
        let mut c32 = JacobiConfig::strong(32, Mode::Device);
        c32.iters = 2;
        c32.warmup = 1;
        let r8 = run(JacobiModel::Ompi, &c8);
        let r32 = run(JacobiModel::Ompi, &c32);
        assert!(
            r32.overall_ms < r8.overall_ms / 2.0,
            "8 nodes {r8:?} vs 32 nodes {r32:?}"
        );
    }
}
