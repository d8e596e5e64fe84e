//! OSU bandwidth benchmark (windowed non-blocking sends), MPI-style models.
//!
//! The sender posts `window` back-to-back non-blocking sends per iteration
//! and waits for a small reply; the receiver posts `window` non-blocking
//! receives and acknowledges (§IV-B2).

use std::sync::Arc;

use rucx_sim::time::bandwidth_mbps;
use rucx_sim::RunOutcome;

use crate::cuda;
use crate::mpi_like::{P2p, RankFactory};
use crate::{BenchSetup, Mode, OsuConfig, Placement};

/// One bandwidth measurement (MB/s) for an MPI-style model; `s` as for
/// [`crate::latency::mpi_latency_point`].
pub fn mpi_bw_point<F: RankFactory>(
    s: &mut BenchSetup,
    cfg: &OsuConfig,
    place: Placement,
    mode: Mode,
    factory: F,
) -> f64 {
    let size = s.size;
    let peer = place.peer();
    let (d, h, ack) = (
        Arc::new(s.d.clone()),
        Arc::new(s.h.clone()),
        Arc::new(s.ack.clone()),
    );
    let result = Arc::new(rucx_compat::sync::Mutex::new(0.0f64));
    let result2 = result.clone();
    let (iters, warmup, window) = (cfg.bw_iters, cfg.bw_warmup, cfg.bw_window);

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
        let my_ack = ack[me].slice(0, 4);
        let mut t0 = 0;
        for i in 0..(warmup + iters) {
            if i == warmup {
                t0 = ctx.now();
            }
            if me == 0 {
                // Sender: window of non-blocking sends, then wait for ack.
                let mut reqs = Vec::with_capacity(window as usize);
                for w in 0..window {
                    let buf = match mode {
                        Mode::Device => my_d,
                        Mode::HostStaging => {
                            cuda::copy_sync(ctx, my_d, my_h, stream);
                            my_h
                        }
                    };
                    reqs.push(mpi.isend(ctx, buf, other, w as i32));
                }
                mpi.waitall(ctx, reqs);
                mpi.recv(ctx, my_ack, other, 99);
            } else {
                // Receiver: window of non-blocking receives, then ack.
                let mut reqs = Vec::with_capacity(window as usize);
                let buf = match mode {
                    Mode::Device => my_d,
                    Mode::HostStaging => my_h,
                };
                for w in 0..window {
                    reqs.push(mpi.irecv(ctx, buf, other, w as i32));
                }
                mpi.waitall(ctx, reqs);
                if mode == Mode::HostStaging {
                    for _ in 0..window {
                        cuda::copy_sync(ctx, my_h, my_d, stream);
                    }
                }
                mpi.send(ctx, my_ack, other, 99);
            }
        }
        if me == 0 {
            let elapsed = ctx.now() - t0;
            let bytes = size * window as u64 * iters as u64;
            *result2.lock() = bandwidth_mbps(bytes, elapsed);
        }
    });
    assert_eq!(s.sim.run(), RunOutcome::Completed, "bw bench deadlocked");
    let r = *result.lock();
    r
}
