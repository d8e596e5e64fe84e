//! An OSU-suite benchmark beyond the paper's two: bi-directional bandwidth
//! (`osu_bibw`). The paper evaluates uni-directional curves; this one
//! exposes the full-duplex behaviour of the fabric model.

use std::sync::Arc;

use rucx_sim::time::bandwidth_mbps;
use rucx_sim::RunOutcome;

use crate::mpi_like::{P2p, RankFactory};
use crate::{setup, OsuConfig, Placement, Series};

/// Bi-directional bandwidth: both endpoints send a window simultaneously
/// each iteration (non-blocking both ways), reported as aggregate MB/s.
pub fn mpi_bibw_point<F: RankFactory>(
    cfg: &OsuConfig,
    size: u64,
    place: Placement,
    factory: F,
) -> f64 {
    let mut s = setup(&cfg.machine, size);
    let peer = place.peer();
    let d = Arc::new(s.d.clone());
    let result = Arc::new(rucx_compat::sync::Mutex::new(0.0f64));
    let result2 = result.clone();
    let (iters, warmup, window) = (cfg.bw_iters, cfg.bw_warmup, cfg.bw_window);

    factory.launch(&mut s.sim, move |mpi, ctx| {
        let me = mpi.rank();
        if me != 0 && me != peer {
            return;
        }
        let other = if me == 0 { peer } else { 0 };
        let my_d = d[me].slice(0, size);
        let mut t0 = 0;
        for i in 0..(warmup + iters) {
            if i == warmup {
                t0 = ctx.now();
            }
            let mut reqs = Vec::with_capacity(2 * window as usize);
            for w in 0..window {
                reqs.push(mpi.irecv(ctx, my_d, other as i32 as usize, w as i32));
            }
            for w in 0..window {
                reqs.push(mpi.isend(ctx, my_d, other, w as i32));
            }
            // The waitall itself synchronizes the pair: each side holds
            // until the other's window has fully arrived. (No barrier: only
            // two of the twelve ranks participate.)
            mpi.waitall(ctx, reqs);
        }
        if me == 0 {
            // Both directions moved `size * window * iters` bytes.
            let bytes = 2 * size * window as u64 * iters as u64;
            *result2.lock() = bandwidth_mbps(bytes, ctx.now() - t0);
        }
    });
    assert_eq!(s.sim.run(), RunOutcome::Completed, "bibw deadlocked");
    let r = *result.lock();
    r
}

/// Bi-directional bandwidth series for one model.
pub fn bibw_series<F: RankFactory + Copy>(
    cfg: &OsuConfig,
    label: &str,
    place: Placement,
    factory: F,
) -> Series {
    Series {
        label: format!("{label} {} bi-bandwidth", place.label()),
        unit: "MB/s",
        points: cfg
            .sizes
            .iter()
            .map(|&s| (s, mpi_bibw_point(cfg, s, place, factory)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpi_like::{AmpiFactory, OmpiFactory};
    use crate::Mode;

    fn cfg() -> OsuConfig {
        let mut c = OsuConfig::quick();
        c.sizes = vec![1 << 20];
        c
    }

    #[test]
    fn bibw_exceeds_unidirectional_inter_node() {
        // Full duplex: bi-directional inter-node bandwidth must beat the
        // one-way rate (TX and RX ports are independent).
        let c = cfg();
        let uni = crate::bandwidth(&c, crate::Model::Ompi, Mode::Device, Placement::InterNode);
        let bi = mpi_bibw_point(&c, 1 << 20, Placement::InterNode, OmpiFactory);
        let uni_v = uni.at(1 << 20).unwrap();
        assert!(
            bi > uni_v * 1.4,
            "bibw {bi:.0} should exceed unidirectional {uni_v:.0} by well over 1.4x"
        );
    }

    #[test]
    fn ampi_bibw_works() {
        let c = cfg();
        let bi = mpi_bibw_point(&c, 1 << 20, Placement::IntraNode, AmpiFactory);
        assert!(bi > 10_000.0, "intra-node bibw {bi:.0}");
    }
}
