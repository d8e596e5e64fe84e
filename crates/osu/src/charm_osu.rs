//! OSU benchmarks for Charm++: message-driven chares exchanging entry-method
//! invocations, with GPU buffers declared `nocopydevice` (the `-D` path,
//! paper Fig. 4) or staged through host memory and packed into the message
//! (the `-H` path).

use std::sync::Arc;

use rucx_charm::{launch, ChareRef, Msg, Pe};
use rucx_gpu::MemRef;
use rucx_sim::time::{as_us, bandwidth_mbps, Time};
use rucx_sim::RunOutcome;
use rucx_ucp::MCtx;

use crate::cuda;
use crate::{BenchSetup, Mode, OsuConfig, Placement};

struct LatChare {
    d: MemRef,
    h: MemRef,
    size: u64,
    me: u64,
    peer: u64,
    mode: Mode,
    iters: u32,
    warmup: u32,
    count: u32,
    t0: Time,
    /// The collection and entry method this chare pings through.
    col: rucx_charm::Collection,
    ep: u16,
    result: Arc<rucx_compat::sync::Mutex<f64>>,
}

impl LatChare {
    fn send_ping(&mut self, pe: &mut Pe, ctx: &mut MCtx) {
        let ep = self.ep;
        let to = ChareRef {
            col: self.col,
            index: self.peer,
        };
        match self.mode {
            Mode::Device => {
                pe.send(ctx, to, ep, vec![], 0, vec![self.d.slice(0, self.size)]);
            }
            Mode::HostStaging => {
                let dev = pe.index;
                let stream = ctx.with_world_ref(|w, _| w.gpu.default_stream(w.topo.device_of(dev)));
                cuda::copy_sync(
                    ctx,
                    self.d.slice(0, self.size),
                    self.h.slice(0, self.size),
                    stream,
                );
                // The staged host data is packed into the message (phantom
                // payload models its wire size and packing cost).
                pe.send(ctx, to, ep, vec![], self.size, vec![]);
            }
        }
    }

    fn on_msg(&mut self, pe: &mut Pe, ctx: &mut MCtx) {
        if self.mode == Mode::HostStaging {
            // Unpack: stage received host data to the device.
            let dev = pe.index;
            let stream = ctx.with_world_ref(|w, _| w.gpu.default_stream(w.topo.device_of(dev)));
            cuda::copy_sync(
                ctx,
                self.h.slice(0, self.size),
                self.d.slice(0, self.size),
                stream,
            );
        }
        if self.me == 0 {
            self.count += 1;
            if self.count == self.warmup {
                self.t0 = ctx.now();
            }
            if self.count == self.warmup + self.iters {
                let elapsed = ctx.now() - self.t0;
                *self.result.lock() = as_us(elapsed) / (2.0 * self.iters as f64);
                pe.exit_all(ctx);
                return;
            }
            self.send_ping(pe, ctx);
        } else {
            self.send_ping(pe, ctx);
        }
    }
}

/// One Charm++ latency measurement (µs); `s` as for
/// [`crate::latency::mpi_latency_point`].
pub fn latency_point(s: &mut BenchSetup, cfg: &OsuConfig, place: Placement, mode: Mode) -> f64 {
    let size = s.size;
    let peer = place.peer() as u64;
    let (d, h) = (Arc::new(s.d.clone()), Arc::new(s.h.clone()));
    let result = Arc::new(rucx_compat::sync::Mutex::new(0.0f64));
    let result2 = result.clone();
    let (iters, warmup) = (cfg.lat_iters, cfg.lat_warmup);

    launch(&mut s.sim, move |pe, ctx| {
        let n = pe.n_pes as u64;
        let col = pe.register_collection(n, move |i| i as usize);
        let ep = pe.register_ep(
            col,
            Some(Box::new(|chare, _msg| {
                let c = chare.downcast_mut::<LatChare>().unwrap();
                vec![c.d.slice(0, c.size)]
            })),
            Box::new(move |chare, _msg: &Msg, pe, ctx| {
                let c = chare.downcast_mut::<LatChare>().unwrap();
                c.on_msg(pe, ctx);
            }),
        );
        for &i in pe.local_indices(col).to_vec().iter() {
            let me = i;
            pe.insert_chare(
                col,
                i,
                Box::new(LatChare {
                    d: d[i as usize],
                    h: h[i as usize],
                    size,
                    me,
                    peer: if me == 0 { peer } else { 0 },
                    mode,
                    iters,
                    warmup,
                    count: 0,
                    t0: 0,
                    col,
                    ep,
                    result: result2.clone(),
                }),
            );
        }
        if pe.index == 0 {
            // Kick off the first ping from the driver (main chare role).
            pe.with_chare::<LatChare, _>(ctx, col, 0, |c, pe, ctx| {
                c.send_ping(pe, ctx);
            });
        }
        pe.run(ctx);
    });
    assert_eq!(s.sim.run(), RunOutcome::Completed);
    let r = *result.lock();
    r
}

struct BwChare {
    d: MemRef,
    h: MemRef,
    size: u64,
    peer: u64,
    mode: Mode,
    iters: u32,
    warmup: u32,
    window: u32,
    iter: u32,
    recvd: u32,
    t0: Time,
    /// The collection and the data / ack entry methods of this benchmark.
    col: rucx_charm::Collection,
    ep_data: u16,
    ep_ack: u16,
    result: Arc<rucx_compat::sync::Mutex<f64>>,
}

impl BwChare {
    fn start_iteration(&mut self, pe: &mut Pe, ctx: &mut MCtx) {
        let (col, ep_data) = (self.col, self.ep_data);
        if self.iter == self.warmup {
            self.t0 = ctx.now();
        }
        if self.iter == self.warmup + self.iters {
            let elapsed = ctx.now() - self.t0;
            let bytes = self.size * self.window as u64 * self.iters as u64;
            *self.result.lock() = bandwidth_mbps(bytes, elapsed);
            pe.exit_all(ctx);
            return;
        }
        self.iter += 1;
        let to = ChareRef {
            col,
            index: self.peer,
        };
        for _ in 0..self.window {
            match self.mode {
                Mode::Device => {
                    pe.send(
                        ctx,
                        to,
                        ep_data,
                        vec![],
                        0,
                        vec![self.d.slice(0, self.size)],
                    );
                }
                Mode::HostStaging => {
                    let dev = pe.index;
                    let stream =
                        ctx.with_world_ref(|w, _| w.gpu.default_stream(w.topo.device_of(dev)));
                    cuda::copy_sync(
                        ctx,
                        self.d.slice(0, self.size),
                        self.h.slice(0, self.size),
                        stream,
                    );
                    pe.send(ctx, to, ep_data, vec![], self.size, vec![]);
                }
            }
        }
    }

    fn on_data(&mut self, pe: &mut Pe, ctx: &mut MCtx) {
        let (col, ep_ack) = (self.col, self.ep_ack);
        if self.mode == Mode::HostStaging {
            let dev = pe.index;
            let stream = ctx.with_world_ref(|w, _| w.gpu.default_stream(w.topo.device_of(dev)));
            cuda::copy_sync(
                ctx,
                self.h.slice(0, self.size),
                self.d.slice(0, self.size),
                stream,
            );
        }
        self.recvd += 1;
        if self.recvd == self.window {
            self.recvd = 0;
            pe.send(
                ctx,
                ChareRef {
                    col,
                    index: self.peer,
                },
                ep_ack,
                vec![],
                0,
                vec![],
            );
        }
    }
}

/// One Charm++ bandwidth measurement (MB/s); `s` as for
/// [`crate::latency::mpi_latency_point`].
pub fn bandwidth_point(s: &mut BenchSetup, cfg: &OsuConfig, place: Placement, mode: Mode) -> f64 {
    let size = s.size;
    let peer = place.peer() as u64;
    let (d, h) = (Arc::new(s.d.clone()), Arc::new(s.h.clone()));
    let result = Arc::new(rucx_compat::sync::Mutex::new(0.0f64));
    let result2 = result.clone();
    let (iters, warmup, window) = (cfg.bw_iters, cfg.bw_warmup, cfg.bw_window);

    launch(&mut s.sim, move |pe, ctx| {
        let n = pe.n_pes as u64;
        let col = pe.register_collection(n, move |i| i as usize);
        let ep_data = pe.register_ep(
            col,
            Some(Box::new(|chare, _msg| {
                let c = chare.downcast_mut::<BwChare>().unwrap();
                vec![c.d.slice(0, c.size)]
            })),
            Box::new(|chare, _msg: &Msg, pe, ctx| {
                let c = chare.downcast_mut::<BwChare>().unwrap();
                c.on_data(pe, ctx);
            }),
        );
        let ep_ack = pe.register_ep(
            col,
            None,
            Box::new(|chare, _msg: &Msg, pe, ctx| {
                let c = chare.downcast_mut::<BwChare>().unwrap();
                c.start_iteration(pe, ctx);
            }),
        );
        for &i in pe.local_indices(col).to_vec().iter() {
            pe.insert_chare(
                col,
                i,
                Box::new(BwChare {
                    d: d[i as usize],
                    h: h[i as usize],
                    size,
                    peer: if i == 0 { peer } else { 0 },
                    mode,
                    iters,
                    warmup,
                    window,
                    iter: 0,
                    recvd: 0,
                    t0: 0,
                    col,
                    ep_data,
                    ep_ack,
                    result: result2.clone(),
                }),
            );
        }
        if pe.index == 0 {
            pe.with_chare::<BwChare, _>(ctx, col, 0, |c, pe, ctx| {
                c.start_iteration(pe, ctx);
            });
        }
        pe.run(ctx);
    });
    assert_eq!(s.sim.run(), RunOutcome::Completed);
    let r = *result.lock();
    r
}
