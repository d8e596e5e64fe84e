//! OSU benchmarks for Charm4py: channel-based ping-pong and windowed
//! bandwidth, with the GPU-direct and host-staging code paths of Fig. 8.

use std::sync::Arc;

use rucx_charm4py::launch;
use rucx_sim::time::{as_us, bandwidth_mbps};
use rucx_sim::RunOutcome;

use crate::{BenchSetup, Mode, OsuConfig, Placement};

/// One Charm4py latency measurement (µs); `s` as for
/// [`crate::latency::mpi_latency_point`].
pub fn latency_point(s: &mut BenchSetup, cfg: &OsuConfig, place: Placement, mode: Mode) -> f64 {
    let size = s.size;
    let peer = place.peer();
    let (d, h) = (Arc::new(s.d.clone()), Arc::new(s.h.clone()));
    let result = Arc::new(rucx_compat::sync::Mutex::new(0.0f64));
    let result2 = result.clone();
    let (iters, warmup) = (cfg.lat_iters, cfg.lat_warmup);

    launch(&mut s.sim, move |py, ctx| {
        let me = py.rank();
        if me != 0 && me != peer {
            return;
        }
        let other = if me == 0 { peer } else { 0 };
        let ch = py.channel(other);
        let my_d = d[me].slice(0, size);
        let my_h = h[me].slice(0, size);
        let dev = ctx.with_world_ref(|w, _| w.topo.device_of(me));
        let stream = ctx.with_world_ref(|w, _| w.gpu.default_stream(dev));
        let mut t0 = 0;
        for i in 0..(warmup + iters) {
            if i == warmup {
                t0 = ctx.now();
            }
            match (me == 0, mode) {
                (true, Mode::Device) => {
                    py.send(ctx, ch, my_d);
                    py.recv(ctx, ch, my_d);
                }
                (false, Mode::Device) => {
                    py.recv(ctx, ch, my_d);
                    py.send(ctx, ch, my_d);
                }
                (true, Mode::HostStaging) => {
                    // Fig. 8 top half: explicit CUDA staging around the
                    // host-object channel operations.
                    py.cuda_copy(ctx, my_d, my_h, stream);
                    py.cuda_stream_sync(ctx, stream);
                    py.send_host_payload(ctx, ch, None, size);
                    py.recv(ctx, ch, my_h);
                    py.cuda_copy(ctx, my_h, my_d, stream);
                    py.cuda_stream_sync(ctx, stream);
                }
                (false, Mode::HostStaging) => {
                    py.recv(ctx, ch, my_h);
                    py.cuda_copy(ctx, my_h, my_d, stream);
                    py.cuda_stream_sync(ctx, stream);
                    py.cuda_copy(ctx, my_d, my_h, stream);
                    py.cuda_stream_sync(ctx, stream);
                    py.send_host_payload(ctx, ch, None, size);
                }
            }
        }
        if me == 0 {
            *result2.lock() = as_us(ctx.now() - t0) / (2.0 * iters as f64);
        }
    });
    assert_eq!(s.sim.run(), RunOutcome::Completed);
    let r = *result.lock();
    r
}

/// One Charm4py bandwidth measurement (MB/s); `s` as for
/// [`crate::latency::mpi_latency_point`].
pub fn bandwidth_point(s: &mut BenchSetup, cfg: &OsuConfig, place: Placement, mode: Mode) -> f64 {
    let size = s.size;
    let peer = place.peer();
    let (d, h) = (Arc::new(s.d.clone()), Arc::new(s.h.clone()));
    let result = Arc::new(rucx_compat::sync::Mutex::new(0.0f64));
    let result2 = result.clone();
    let (iters, warmup, window) = (cfg.bw_iters, cfg.bw_warmup, cfg.bw_window);

    launch(&mut s.sim, move |py, ctx| {
        let me = py.rank();
        if me != 0 && me != peer {
            return;
        }
        let other = if me == 0 { peer } else { 0 };
        let ch = py.channel(other);
        let my_d = d[me].slice(0, size);
        let my_h = h[me].slice(0, size);
        let dev = ctx.with_world_ref(|w, _| w.topo.device_of(me));
        let stream = ctx.with_world_ref(|w, _| w.gpu.default_stream(dev));
        let mut t0 = 0;
        for i in 0..(warmup + iters) {
            if i == warmup {
                t0 = ctx.now();
            }
            if me == 0 {
                for _ in 0..window {
                    match mode {
                        Mode::Device => py.send(ctx, ch, my_d),
                        Mode::HostStaging => {
                            py.cuda_copy(ctx, my_d, my_h, stream);
                            py.cuda_stream_sync(ctx, stream);
                            py.send_host_payload(ctx, ch, None, size);
                        }
                    }
                }
                // Ack.
                py.recv_host(ctx, ch);
            } else {
                for _ in 0..window {
                    match mode {
                        Mode::Device => {
                            py.recv(ctx, ch, my_d);
                        }
                        Mode::HostStaging => {
                            py.recv(ctx, ch, my_h);
                            py.cuda_copy(ctx, my_h, my_d, stream);
                            py.cuda_stream_sync(ctx, stream);
                        }
                    }
                }
                py.send_host_payload(ctx, ch, None, 4);
            }
        }
        if me == 0 {
            let bytes = size * window as u64 * iters as u64;
            *result2.lock() = bandwidth_mbps(bytes, ctx.now() - t0);
        }
    });
    assert_eq!(s.sim.run(), RunOutcome::Completed);
    let r = *result.lock();
    r
}
