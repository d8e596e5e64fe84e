//! Jacobi3D for Charm++: message-driven chares (one block per chare, one
//! chare per PE — no overdecomposition, matching §IV-A), exchanging halos
//! through `nocopydevice` entry methods (GPU-direct) or packed host
//! payloads (host-staging).

use std::any::Any;
use std::sync::Arc;

use rucx_charm::{launch, ChareRef, Collection, EpId, ExecFn, Msg, Pe, RedTarget, ReduceOp};
use rucx_compat::buf::{Buf, BufMut};
use rucx_osu::cuda;
use rucx_sim::time::{as_ms, Time};
use rucx_ucp::{MCtx, ResultCell};

use crate::bufs::{alloc, RankBufs};
use crate::config::{pack_cost, stencil_cost, JacobiConfig, JacobiResult, Mode};
use crate::decomp::opposite;

struct JacobiChare {
    rank: RankBufs,
    mode: Mode,
    iters: u32,
    warmup: u32,
    /// Iteration in progress (1-based once started).
    iter: u32,
    /// Stencil kernel still on the GPU; halos may arrive meanwhile but the
    /// iteration cannot complete before the compute-done event.
    computing: bool,
    received_cur: usize,
    received_next: usize,
    comm_ns: u64,
    tc: Time,
    t0: Time,
    /// Root only: the reduced comm and overall times received so far.
    reports: [Option<f64>; 2],
    ids: Ids,
    result: ResultCell<JacobiResult>,
}

/// The collection and the entry methods the chares send to.
#[derive(Clone, Copy)]
struct Ids {
    col: Collection,
    ep_halo: EpId,
    ep_comm: EpId,
    ep_overall: EpId,
    ep_kdone: EpId,
}

/// Every element of the Jacobi collection is a [`JacobiChare`].
fn this(chare: &mut dyn Any) -> &mut JacobiChare {
    chare.downcast_mut().expect("a Jacobi collection element")
}

/// An entry method of the Jacobi collection.
fn entry(f: impl Fn(&mut JacobiChare, &Msg, &mut Pe, &mut MCtx) + 'static) -> ExecFn {
    Box::new(move |chare, msg, pe, ctx| f(this(chare), msg, pe, ctx))
}

impl JacobiChare {
    fn start_iter(&mut self, pe: &mut Pe, ctx: &mut MCtx) {
        let Ids {
            col,
            ep_comm,
            ep_overall,
            ep_kdone,
            ..
        } = self.ids;
        if self.iter == self.warmup {
            self.comm_ns = 0;
            self.t0 = ctx.now();
        }
        let me = self.rank.block.index;
        if self.iter == self.warmup + self.iters {
            // Done: reduce max comm time and max overall time to chare 0.
            let comm_ms = as_ms(self.comm_ns) / self.iters as f64;
            let overall_ms = as_ms(ctx.now() - self.t0) / self.iters as f64;
            let root = ChareRef { col, index: 0 };
            for (value, ep) in [(comm_ms, ep_comm), (overall_ms, ep_overall)] {
                let to = RedTarget::Chare(root, ep);
                pe.contribute(ctx, col, me, ReduceOp::Max, value, to);
            }
            return;
        }
        self.iter += 1;
        // Halos that raced ahead belong to the iteration we are starting.
        self.received_cur = self.received_next;
        self.received_next = 0;
        self.computing = true;

        // Launch the stencil asynchronously and continue scheduling; the
        // compute-done entry method fires when the kernel completes, so
        // other chares on this PE can progress meanwhile (the
        // computation-communication-overlap mechanism).
        let stream = self.rank.stream;
        let cost = stencil_cost(&self.rank.block);
        ctx.advance(rucx_gpu::device::KERNEL_LAUNCH);
        let end = ctx.with_world(move |w, s| rucx_gpu::kernel_async(w, s, stream, cost, None));
        pe.send_local_at(ctx, ChareRef { col, index: me }, ep_kdone, vec![], end);
    }

    /// The stencil kernel finished: exchange halos.
    fn after_compute(&mut self, pe: &mut Pe, ctx: &mut MCtx) {
        let Ids { col, ep_halo, .. } = self.ids;
        self.computing = false;
        self.tc = ctx.now();
        for f in &self.rank.faces {
            cuda::kernel_sync(ctx, pack_cost(f.bytes()), self.rank.stream);
            let mut params = Vec::with_capacity(12);
            params.put_u8(f.dir as u8);
            params.put_u32(self.iter);
            let to = ChareRef { col, index: f.nbr };
            f.send.stage_out(ctx, self.mode);
            // `-H` packs the staged host data into the message.
            let (packed, device) = match self.mode {
                Mode::Device => (0, vec![f.send.d]),
                Mode::HostStaging => (f.bytes(), vec![]),
            };
            pe.send(ctx, to, ep_halo, params, packed, device);
        }
        if self.received_cur == self.rank.faces.len() {
            self.finish_comm(pe, ctx);
        }
    }

    fn on_halo(&mut self, msg: &Msg, pe: &mut Pe, ctx: &mut MCtx) {
        let mut r: &[u8] = &msg.params;
        let dir = r.get_u8() as usize;
        let msg_iter = r.get_u32();
        let f = *self.rank.face(opposite(dir));
        f.recv.stage_in(ctx, self.mode);
        cuda::kernel_sync(ctx, pack_cost(f.bytes()), self.rank.stream);
        if msg_iter == self.iter {
            self.received_cur += 1;
            if !self.computing && self.received_cur == self.rank.faces.len() {
                self.finish_comm(pe, ctx);
            }
        } else if msg_iter == self.iter + 1 {
            self.received_next += 1;
        } else {
            panic!(
                "chare {} at iter {} got halo for iter {msg_iter}",
                self.rank.block.index, self.iter
            );
        }
    }

    fn finish_comm(&mut self, pe: &mut Pe, ctx: &mut MCtx) {
        if self.iter > self.warmup {
            self.comm_ns += ctx.now() - self.tc;
        }
        self.start_iter(pe, ctx);
    }
}

/// Run Jacobi3D on Charm++ against a freshly built simulation of
/// `cfg.nodes` Summit-like nodes; returns per-iteration timings (max over
/// chares). The caller keeps the simulation: the scenario-matrix runner
/// arms fault injection and the trace sink on it first and harvests
/// counters and trace afterwards.
///
/// `odf` chares per PE (overdecomposition; only this runner has chares, so
/// it is an argument, not a config field): the paper runs 1, and with
/// `odf > 1` each PE hosts that many consecutive blocks, letting the
/// message-driven scheduler overlap one chare's halo wait with another's
/// stencil compute — the paper's planned computation-communication-overlap
/// extension.
pub fn run_charm_on(
    sim: &mut rucx_ucp::MSim,
    cfg: &JacobiConfig,
    odf: u32,
) -> Result<JacobiResult, rucx_ucp::RunError> {
    let odf = odf.max(1) as u64;
    let bufs = Arc::new(alloc(sim, cfg, odf));
    let n_elems = bufs.len() as u64;
    let (iters, warmup, mode) = (cfg.iters, cfg.warmup, cfg.mode);

    rucx_ucp::run(sim, |sim, result| {
        launch(sim, move |pe, ctx| {
            let col = pe.register_collection(n_elems, move |i| (i / odf) as usize);
            let ep_halo = pe.register_ep(
                col,
                Some(Box::new(|chare, msg| {
                    let mut r: &[u8] = &msg.params;
                    let dir = r.get_u8() as usize;
                    vec![this(chare).rank.face(opposite(dir)).recv.d]
                })),
                entry(|c, msg, pe, ctx| c.on_halo(msg, pe, ctx)),
            );
            // Chare 0 receives both reductions and ends the run once it has both.
            let report = |which: usize| {
                entry(move |c, msg, pe, ctx| {
                    let mut r: &[u8] = &msg.params;
                    c.reports[which] = Some(r.get_f64());
                    if let [Some(comm_ms), Some(overall_ms)] = c.reports {
                        *c.result.lock() = JacobiResult {
                            overall_ms,
                            comm_ms,
                        };
                        pe.exit_all(ctx);
                    }
                })
            };
            let ep_comm = pe.register_ep(col, None, report(0));
            let ep_overall = pe.register_ep(col, None, report(1));
            let ep_kdone =
                pe.register_ep(col, None, entry(|c, _, pe, ctx| c.after_compute(pe, ctx)));
            let ids = Ids {
                col,
                ep_halo,
                ep_comm,
                ep_overall,
                ep_kdone,
            };

            let local: Vec<u64> = pe.local_indices(col).to_vec();
            for &i in &local {
                let chare = JacobiChare {
                    rank: bufs[i as usize].clone(),
                    mode,
                    iters,
                    warmup,
                    iter: 0,
                    computing: false,
                    received_cur: 0,
                    received_next: 0,
                    comm_ns: 0,
                    tc: 0,
                    t0: 0,
                    reports: [None; 2],
                    ids,
                    result: result.clone(),
                };
                pe.insert_chare(col, i, Box::new(chare));
            }
            for &i in &local {
                pe.with_chare::<JacobiChare, _>(ctx, col, i, |c, pe, ctx| {
                    c.start_iter(pe, ctx);
                });
            }
            pe.run(ctx);
        })
    })
}
