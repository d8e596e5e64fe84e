//! OSU latency benchmark (ping-pong), MPI-style models.
//!
//! The sender sends a message and waits for a same-size reply; one-way
//! latency is half the measured round trip (§IV-B1). The `-H` variant
//! stages the GPU buffer through host memory with explicit copies around
//! each communication call, as in the adapted OSU sources.

use std::sync::Arc;

use rucx_sim::time::as_us;
use rucx_sim::RunOutcome;

use crate::cuda;
use crate::mpi_like::{P2p, RankFactory};
use crate::{BenchSetup, Mode, OsuConfig, Placement};

/// One latency measurement (µs) for an MPI-style model, on a fresh
/// [`crate::setup`] (the caller keeps it, and can read its counters after).
pub fn mpi_latency_point<F: RankFactory>(
    s: &mut BenchSetup,
    cfg: &OsuConfig,
    place: Placement,
    mode: Mode,
    factory: F,
) -> f64 {
    let size = s.size;
    let peer = place.peer();
    let (d, h) = (Arc::new(s.d.clone()), Arc::new(s.h.clone()));
    let result = Arc::new(rucx_compat::sync::Mutex::new(0.0f64));
    let result2 = result.clone();
    let (iters, warmup) = (cfg.lat_iters, cfg.lat_warmup);

    factory.launch(&mut s.sim, move |mpi, ctx| {
        let me = mpi.rank();
        if me != 0 && me != peer {
            return;
        }
        let other = if me == 0 { peer } else { 0 };
        let dev = ctx.with_world_ref(|w, _| w.topo.device_of(me));
        let stream = ctx.with_world_ref(|w, _| w.gpu.default_stream(dev));
        let my_d = d[me].slice(0, size);
        let my_h = h[me].slice(0, size);
        let mut t0 = 0;
        for i in 0..(warmup + iters) {
            if i == warmup {
                t0 = ctx.now();
            }
            match (me == 0, mode) {
                (true, Mode::Device) => {
                    mpi.send(ctx, my_d, other, 1);
                    mpi.recv(ctx, my_d, other, 2);
                }
                (false, Mode::Device) => {
                    mpi.recv(ctx, my_d, other, 1);
                    mpi.send(ctx, my_d, other, 2);
                }
                (true, Mode::HostStaging) => {
                    cuda::copy_sync(ctx, my_d, my_h, stream);
                    mpi.send(ctx, my_h, other, 1);
                    mpi.recv(ctx, my_h, other, 2);
                    cuda::copy_sync(ctx, my_h, my_d, stream);
                }
                (false, Mode::HostStaging) => {
                    mpi.recv(ctx, my_h, other, 1);
                    cuda::copy_sync(ctx, my_h, my_d, stream);
                    cuda::copy_sync(ctx, my_d, my_h, stream);
                    mpi.send(ctx, my_h, other, 2);
                }
            }
        }
        if me == 0 {
            let elapsed = ctx.now() - t0;
            *result2.lock() = as_us(elapsed) / (2.0 * iters as f64);
        }
    });
    assert_eq!(
        s.sim.run(),
        RunOutcome::Completed,
        "latency bench deadlocked"
    );
    let r = *result.lock();
    r
}
