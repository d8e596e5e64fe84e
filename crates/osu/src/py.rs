//! The Charm4py bodies: channel-based ping-pong and windowed bandwidth,
//! with the GPU-direct and host-staging code paths of Fig. 8. Their three
//! per-[`Side`] steps are public: Jacobi3D's Charm4py runner sends its
//! halo faces through them.

use rucx_charm4py::{launch, Channel, PyProc};
use rucx_sim::time::{as_us, bandwidth_mbps};
use rucx_ucp::MCtx;

use crate::{run, timed, BenchSetup, Mode, OsuConfig, Placement, Side};

/// One message: `-D` hands the channel the device buffer (Fig. 8 bottom
/// half), `-H` the staged host object.
pub fn send(py: &mut PyProc, ctx: &mut MCtx, ch: Channel, my: Side, mode: Mode) {
    match mode {
        Mode::Device => py.send(ctx, ch, my.d),
        Mode::HostStaging => py.send_host_payload(ctx, ch, None, my.h.len),
    }
}

/// `-H` only, Fig. 8 top half: stage the device buffer out to host memory
/// with a CUDA copy and a stream synchronize, each a call from Python.
pub fn stage_out(py: &mut PyProc, ctx: &mut MCtx, my: Side, mode: Mode) {
    if mode == Mode::HostStaging {
        py.cuda_copy(ctx, my.d, my.h, my.stream);
        py.cuda_stream_sync(ctx, my.stream);
    }
}

/// `-H` only: stage received host memory back into the device buffer.
pub fn stage_in(py: &mut PyProc, ctx: &mut MCtx, my: Side, mode: Mode) {
    if mode == Mode::HostStaging {
        py.cuda_copy(ctx, my.h, my.d, my.stream);
        py.cuda_stream_sync(ctx, my.stream);
    }
}

pub(crate) fn latency(s: &mut BenchSetup, cfg: &OsuConfig, place: Placement, mode: Mode) -> f64 {
    let sides = s.sides.clone();
    let (iters, warmup) = (cfg.lat_iters, cfg.lat_warmup);
    run(&mut s.sim, "Charm4py latency bench", |sim, report| {
        launch(sim, move |py, ctx| {
            let me = py.rank();
            let Some(other) = place.partner(me) else {
                return;
            };
            let (ch, my) = (py.channel(other), sides[me]);
            let elapsed = timed(ctx, warmup, iters, |ctx| {
                if me == 0 {
                    stage_out(py, ctx, my, mode);
                    send(py, ctx, ch, my, mode);
                    py.recv(ctx, ch, my.buf(mode));
                    stage_in(py, ctx, my, mode);
                } else {
                    py.recv(ctx, ch, my.buf(mode));
                    stage_in(py, ctx, my, mode);
                    stage_out(py, ctx, my, mode);
                    send(py, ctx, ch, my, mode);
                }
            });
            if me == 0 {
                *report.lock() = as_us(elapsed) / (2.0 * iters as f64);
            }
        })
    })
}

pub(crate) fn bandwidth(s: &mut BenchSetup, cfg: &OsuConfig, place: Placement, mode: Mode) -> f64 {
    let (sides, size) = (s.sides.clone(), s.size);
    let (iters, warmup, window) = (cfg.bw_iters, cfg.bw_warmup, cfg.bw_window);
    run(&mut s.sim, "Charm4py bw bench", |sim, report| {
        launch(sim, move |py, ctx| {
            let me = py.rank();
            let Some(other) = place.partner(me) else {
                return;
            };
            let (ch, my) = (py.channel(other), sides[me]);
            let elapsed = timed(ctx, warmup, iters, |ctx| {
                if me == 0 {
                    for _ in 0..window {
                        stage_out(py, ctx, my, mode);
                        send(py, ctx, ch, my, mode);
                    }
                    // Ack.
                    py.recv_host(ctx, ch);
                } else {
                    for _ in 0..window {
                        py.recv(ctx, ch, my.buf(mode));
                        stage_in(py, ctx, my, mode);
                    }
                    py.send_host_payload(ctx, ch, None, 4);
                }
            });
            if me == 0 {
                let bytes = size * window as u64 * iters as u64;
                *report.lock() = bandwidth_mbps(bytes, elapsed);
            }
        })
    })
}
