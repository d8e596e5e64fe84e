//! The Charm++ bodies: message-driven chares exchanging entry-method
//! invocations, with GPU buffers declared `nocopydevice` (the `-D` path,
//! paper Fig. 4) or staged through host memory and packed into the message
//! (the `-H` path).

use rucx_charm::{launch, ChareRef, Msg, Pe};
use rucx_sim::time::{as_us, bandwidth_mbps, Time};
use rucx_ucp::{MCtx, ResultCell};

use crate::{run, BenchSetup, Mode, OsuConfig, Placement, Side};

struct LatChare {
    side: Side,
    me: u64,
    /// The peer chare, and the entry method it is pinged through.
    to: ChareRef,
    ep: u16,
    mode: Mode,
    iters: u32,
    warmup: u32,
    count: u32,
    t0: Time,
    report: ResultCell<f64>,
}

impl LatChare {
    fn send_ping(&mut self, pe: &mut Pe, ctx: &mut MCtx) {
        let (to, ep) = (self.to, self.ep);
        match self.mode {
            Mode::Device => pe.send(ctx, to, ep, vec![], 0, vec![self.side.d]),
            Mode::HostStaging => {
                self.side.stage_out(ctx, self.mode);
                // The staged host data is packed into the message (phantom
                // payload models its wire size and packing cost).
                pe.send(ctx, to, ep, vec![], self.side.h.len, vec![]);
            }
        }
    }

    fn on_msg(&mut self, pe: &mut Pe, ctx: &mut MCtx) {
        // `-H` unpacks: stage the received host data to the device.
        self.side.stage_in(ctx, self.mode);
        if self.me == 0 {
            self.count += 1;
            if self.count == self.warmup {
                self.t0 = ctx.now();
            }
            if self.count == self.warmup + self.iters {
                let elapsed = ctx.now() - self.t0;
                *self.report.lock() = as_us(elapsed) / (2.0 * self.iters as f64);
                pe.exit_all(ctx);
                return;
            }
        }
        self.send_ping(pe, ctx);
    }
}

pub(crate) fn latency(s: &mut BenchSetup, cfg: &OsuConfig, place: Placement, mode: Mode) -> f64 {
    let (sides, peer) = (s.sides.clone(), place.peer() as u64);
    let (iters, warmup) = (cfg.lat_iters, cfg.lat_warmup);
    run(&mut s.sim, "Charm++ latency bench", |sim, report| {
        launch(sim, move |pe, ctx| {
            let col = pe.register_collection(pe.n_pes as u64, |i| i as usize);
            let ep = pe.register_ep(
                col,
                Some(Box::new(|chare, _msg| {
                    vec![chare.downcast_mut::<LatChare>().unwrap().side.d]
                })),
                Box::new(|chare, _msg: &Msg, pe, ctx| {
                    chare.downcast_mut::<LatChare>().unwrap().on_msg(pe, ctx)
                }),
            );
            for &me in pe.local_indices(col).to_vec().iter() {
                let chare = LatChare {
                    side: sides[me as usize],
                    me,
                    to: ChareRef {
                        col,
                        index: if me == 0 { peer } else { 0 },
                    },
                    ep,
                    mode,
                    iters,
                    warmup,
                    count: 0,
                    t0: 0,
                    report: report.clone(),
                };
                pe.insert_chare(col, me, Box::new(chare));
            }
            if pe.index == 0 {
                // Kick off the first ping from the driver (main chare role).
                pe.with_chare::<LatChare, _>(ctx, col, 0, |c, pe, ctx| c.send_ping(pe, ctx));
            }
            pe.run(ctx);
        })
    })
}

struct BwChare {
    side: Side,
    /// The peer chare, and its data and ack entry methods.
    to: ChareRef,
    ep_data: u16,
    ep_ack: u16,
    mode: Mode,
    iters: u32,
    warmup: u32,
    window: u32,
    iter: u32,
    recvd: u32,
    t0: Time,
    report: ResultCell<f64>,
}

impl BwChare {
    fn start_iteration(&mut self, pe: &mut Pe, ctx: &mut MCtx) {
        let (to, ep_data) = (self.to, self.ep_data);
        if self.iter == self.warmup {
            self.t0 = ctx.now();
        }
        if self.iter == self.warmup + self.iters {
            let elapsed = ctx.now() - self.t0;
            let bytes = self.side.d.len * self.window as u64 * self.iters as u64;
            *self.report.lock() = bandwidth_mbps(bytes, elapsed);
            pe.exit_all(ctx);
            return;
        }
        self.iter += 1;
        for _ in 0..self.window {
            match self.mode {
                Mode::Device => pe.send(ctx, to, ep_data, vec![], 0, vec![self.side.d]),
                Mode::HostStaging => {
                    self.side.stage_out(ctx, self.mode);
                    pe.send(ctx, to, ep_data, vec![], self.side.h.len, vec![]);
                }
            }
        }
    }

    fn on_data(&mut self, pe: &mut Pe, ctx: &mut MCtx) {
        self.side.stage_in(ctx, self.mode);
        self.recvd += 1;
        if self.recvd == self.window {
            self.recvd = 0;
            pe.send(ctx, self.to, self.ep_ack, vec![], 0, vec![]);
        }
    }
}

pub(crate) fn bandwidth(s: &mut BenchSetup, cfg: &OsuConfig, place: Placement, mode: Mode) -> f64 {
    let (sides, peer) = (s.sides.clone(), place.peer() as u64);
    let (iters, warmup, window) = (cfg.bw_iters, cfg.bw_warmup, cfg.bw_window);
    run(&mut s.sim, "Charm++ bw bench", |sim, report| {
        launch(sim, move |pe, ctx| {
            let col = pe.register_collection(pe.n_pes as u64, |i| i as usize);
            let ep_data = pe.register_ep(
                col,
                Some(Box::new(|chare, _msg| {
                    vec![chare.downcast_mut::<BwChare>().unwrap().side.d]
                })),
                Box::new(|chare, _msg: &Msg, pe, ctx| {
                    chare.downcast_mut::<BwChare>().unwrap().on_data(pe, ctx)
                }),
            );
            let ep_ack = pe.register_ep(
                col,
                None,
                Box::new(|chare, _msg: &Msg, pe, ctx| {
                    chare
                        .downcast_mut::<BwChare>()
                        .unwrap()
                        .start_iteration(pe, ctx)
                }),
            );
            for &i in pe.local_indices(col).to_vec().iter() {
                let chare = BwChare {
                    side: sides[i as usize],
                    to: ChareRef {
                        col,
                        index: if i == 0 { peer } else { 0 },
                    },
                    ep_data,
                    ep_ack,
                    mode,
                    iters,
                    warmup,
                    window,
                    iter: 0,
                    recvd: 0,
                    t0: 0,
                    report: report.clone(),
                };
                pe.insert_chare(col, i, Box::new(chare));
            }
            if pe.index == 0 {
                pe.with_chare::<BwChare, _>(ctx, col, 0, |c, pe, ctx| c.start_iteration(pe, ctx));
            }
            pe.run(ctx);
        })
    })
}
