//! The MPI-style bodies, written once for AMPI and OpenMPI over
//! [`RankFactory`] (the OSU sources are likewise shared between MPI
//! implementations).
//!
//! - Latency (§IV-B1): the sender sends a message and waits for a
//!   same-size reply; one-way latency is half the measured round trip.
//! - Bandwidth (§IV-B2): the sender posts `window` back-to-back
//!   non-blocking sends per iteration and waits for a small reply; the
//!   receiver posts `window` non-blocking receives and acknowledges.
//! - Bi-bandwidth (`osu_bibw`, beyond the paper's two): both sides post a
//!   window of receives and sends each iteration; the rate counts both
//!   directions, exposing the fabric model's full duplex.
//!
//! `-H` stages the GPU buffer through pinned host memory with explicit
//! copies around each communication call, as in the adapted OSU sources.

use rucx_sim::time::{as_us, bandwidth_mbps};

use crate::mpi_like::{P2p, RankFactory};
use crate::{run, timed, BenchSetup, Mode, OsuConfig, Placement};

pub(crate) fn latency<F: RankFactory>(
    s: &mut BenchSetup,
    cfg: &OsuConfig,
    place: Placement,
    mode: Mode,
    factory: F,
) -> f64 {
    let sides = s.sides.clone();
    let (iters, warmup) = (cfg.lat_iters, cfg.lat_warmup);
    run(&mut s.sim, "latency bench", |sim, report| {
        factory.launch(sim, move |mpi, ctx| {
            let me = mpi.rank();
            let Some(other) = place.partner(me) else {
                return;
            };
            let (my, buf) = (sides[me], sides[me].buf(mode));
            let elapsed = timed(ctx, warmup, iters, |ctx| {
                if me == 0 {
                    my.stage_out(ctx, mode);
                    mpi.send(ctx, buf, other, 1);
                    mpi.recv(ctx, buf, other, 2);
                    my.stage_in(ctx, mode);
                } else {
                    mpi.recv(ctx, buf, other, 1);
                    my.stage_in(ctx, mode);
                    my.stage_out(ctx, mode);
                    mpi.send(ctx, buf, other, 2);
                }
            });
            if me == 0 {
                *report.lock() = as_us(elapsed) / (2.0 * iters as f64);
            }
        })
    })
}

pub(crate) fn bandwidth<F: RankFactory>(
    s: &mut BenchSetup,
    cfg: &OsuConfig,
    place: Placement,
    mode: Mode,
    factory: F,
) -> f64 {
    let (sides, acks, size) = (s.sides.clone(), s.acks.clone(), s.size);
    let (iters, warmup, window) = (cfg.bw_iters, cfg.bw_warmup, cfg.bw_window);
    run(&mut s.sim, "bw bench", |sim, report| {
        factory.launch(sim, move |mpi, ctx| {
            let me = mpi.rank();
            let Some(other) = place.partner(me) else {
                return;
            };
            let (my, buf, ack) = (sides[me], sides[me].buf(mode), acks[me]);
            let elapsed = timed(ctx, warmup, iters, |ctx| {
                let mut reqs = Vec::with_capacity(window as usize);
                if me == 0 {
                    // Sender: window of non-blocking sends, then wait for ack.
                    for w in 0..window {
                        my.stage_out(ctx, mode);
                        reqs.push(mpi.isend(ctx, buf, other, w as i32));
                    }
                    mpi.waitall(ctx, reqs);
                    mpi.recv(ctx, ack, other, 99);
                } else {
                    // Receiver: window of non-blocking receives, then ack.
                    for w in 0..window {
                        reqs.push(mpi.irecv(ctx, buf, other, w as i32));
                    }
                    mpi.waitall(ctx, reqs);
                    for _ in 0..window {
                        my.stage_in(ctx, mode);
                    }
                    mpi.send(ctx, ack, other, 99);
                }
            });
            if me == 0 {
                let bytes = size * window as u64 * iters as u64;
                *report.lock() = bandwidth_mbps(bytes, elapsed);
            }
        })
    })
}

/// GPU-direct only: [`crate::Bench::supports`] refuses `-H`.
pub(crate) fn bibw<F: RankFactory>(
    s: &mut BenchSetup,
    cfg: &OsuConfig,
    place: Placement,
    factory: F,
) -> f64 {
    let (sides, size) = (s.sides.clone(), s.size);
    let (iters, warmup, window) = (cfg.bw_iters, cfg.bw_warmup, cfg.bw_window);
    run(&mut s.sim, "bibw", |sim, report| {
        factory.launch(sim, move |mpi, ctx| {
            let me = mpi.rank();
            let Some(other) = place.partner(me) else {
                return;
            };
            let my_d = sides[me].d;
            let elapsed = timed(ctx, warmup, iters, |ctx| {
                let mut reqs = Vec::with_capacity(2 * window as usize);
                for w in 0..window {
                    reqs.push(mpi.irecv(ctx, my_d, other, w as i32));
                }
                for w in 0..window {
                    reqs.push(mpi.isend(ctx, my_d, other, w as i32));
                }
                // The waitall itself synchronizes the pair: each side holds
                // until the other's window has fully arrived. (No barrier:
                // only two of the twelve ranks participate.)
                mpi.waitall(ctx, reqs);
            });
            if me == 0 {
                // Both directions moved `size * window * iters` bytes.
                let bytes = 2 * size * window as u64 * iters as u64;
                *report.lock() = bandwidth_mbps(bytes, elapsed);
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use crate::{point, setup, Bench, Mode, Model, OsuConfig, Placement};

    fn bibw(model: Model, place: Placement) -> f64 {
        let c = OsuConfig::quick();
        let s = &mut setup(&c.machine, 1 << 20);
        point(s, &c, Bench::BiBandwidth, model, Mode::Device, place)
    }

    #[test]
    fn bibw_exceeds_unidirectional_inter_node() {
        // Full duplex: bi-directional inter-node bandwidth must beat the
        // one-way rate (TX and RX ports are independent).
        let c = OsuConfig::quick();
        let s = &mut setup(&c.machine, 1 << 20);
        let (place, model) = (Placement::InterNode, Model::Ompi);
        let uni = point(s, &c, Bench::Bandwidth, model, Mode::Device, place);
        let bi = bibw(model, place);
        assert!(
            bi > uni * 1.4,
            "bibw {bi:.0} should exceed unidirectional {uni:.0} by well over 1.4x"
        );
    }

    #[test]
    fn ampi_bibw_works() {
        let bi = bibw(Model::Ampi, Placement::IntraNode);
        assert!(bi > 10_000.0, "intra-node bibw {bi:.0}");
    }
}
