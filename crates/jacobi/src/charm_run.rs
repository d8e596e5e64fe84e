//! Jacobi3D for Charm++: message-driven chares (one block per chare, one
//! chare per PE — no overdecomposition, matching §IV-A), exchanging halos
//! through `nocopydevice` entry methods (GPU-direct) or packed host
//! payloads (host-staging).

use std::sync::Arc;

use rucx_charm::{launch, ChareRef, Collection, EpId, Msg, Pe, RedTarget, ReduceOp};
use rucx_compat::buf::{Buf, BufMut};
use rucx_gpu::MemRef;
use rucx_osu::cuda;
use rucx_sim::time::{as_ms, Time};
use rucx_ucp::{MCtx, ResultCell};

use crate::bufs::alloc_mapped;
use crate::config::{pack_cost, stencil_cost, JacobiConfig, JacobiResult, Mode};
use crate::decomp::{decompose, opposite, Block};

struct JacobiChare {
    block: Block,
    dsend: [Option<MemRef>; 6],
    drecv: [Option<MemRef>; 6],
    hsend: [Option<MemRef>; 6],
    hrecv: [Option<MemRef>; 6],
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
    expected: usize,
    comm_ns: u64,
    tc: Time,
    t0: Time,
    /// Root only: reduction results received so far.
    reports: Vec<f64>,
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

impl JacobiChare {
    fn stream_of(pe: &Pe, ctx: &mut MCtx) -> rucx_gpu::StreamId {
        let me = pe.index;
        ctx.with_world_ref(|w, _| w.gpu.default_stream(w.topo.device_of(me)))
    }

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
        if self.iter == self.warmup + self.iters {
            // Done: reduce max comm time and max overall time to chare 0.
            let comm_ms = as_ms(self.comm_ns) / self.iters as f64;
            let overall_ms = as_ms(ctx.now() - self.t0) / self.iters as f64;
            let root = ChareRef { col, index: 0 };
            let elem = self.block.index;
            pe.contribute(
                ctx,
                col,
                elem,
                ReduceOp::Max,
                comm_ms,
                RedTarget::Chare(root, ep_comm),
            );
            pe.contribute(
                ctx,
                col,
                elem,
                ReduceOp::Max,
                overall_ms,
                RedTarget::Chare(root, ep_overall),
            );
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
        let stream = Self::stream_of(pe, ctx);
        let cost = stencil_cost(&self.block);
        ctx.advance(rucx_gpu::device::KERNEL_LAUNCH);
        let end = ctx.with_world(move |w, s| rucx_gpu::kernel_async(w, s, stream, cost, None));
        let me = self.block.index;
        pe.send_local_at(ctx, ChareRef { col, index: me }, ep_kdone, vec![], end);
    }

    /// The stencil kernel finished: exchange halos.
    fn after_compute(&mut self, pe: &mut Pe, ctx: &mut MCtx) {
        let Ids { col, ep_halo, .. } = self.ids;
        self.computing = false;
        self.tc = ctx.now();
        let stream = Self::stream_of(pe, ctx);
        for dir in 0..6 {
            let Some(nbr) = self.block.neighbors[dir] else {
                continue;
            };
            let fb = self.block.face_bytes(dir);
            cuda::kernel_sync(ctx, pack_cost(fb), stream);
            let mut params = Vec::with_capacity(12);
            params.put_u8(dir as u8);
            params.put_u32(self.iter);
            let to = ChareRef { col, index: nbr };
            match self.mode {
                Mode::Device => {
                    pe.send(ctx, to, ep_halo, params, 0, vec![self.dsend[dir].unwrap()]);
                }
                Mode::HostStaging => {
                    cuda::copy_sync(
                        ctx,
                        self.dsend[dir].unwrap(),
                        self.hsend[dir].unwrap(),
                        stream,
                    );
                    pe.send(ctx, to, ep_halo, params, fb, vec![]);
                }
            }
        }
        if self.received_cur == self.expected {
            self.finish_comm(pe, ctx);
        }
    }

    fn on_halo(&mut self, msg: &Msg, pe: &mut Pe, ctx: &mut MCtx) {
        let mut r: &[u8] = &msg.params;
        let dir = r.get_u8() as usize;
        let msg_iter = r.get_u32();
        let od = opposite(dir);
        let fb = self.block.face_bytes(od);
        let stream = Self::stream_of(pe, ctx);
        if self.mode == Mode::HostStaging {
            cuda::copy_sync(
                ctx,
                self.hrecv[od].unwrap(),
                self.drecv[od].unwrap(),
                stream,
            );
        }
        cuda::kernel_sync(ctx, pack_cost(fb), stream);
        if msg_iter == self.iter {
            self.received_cur += 1;
            if !self.computing && self.received_cur == self.expected {
                self.finish_comm(pe, ctx);
            }
        } else if msg_iter == self.iter + 1 {
            self.received_next += 1;
        } else {
            panic!(
                "chare {} at iter {} got halo for iter {msg_iter}",
                self.block.index, self.iter
            );
        }
    }

    fn finish_comm(&mut self, pe: &mut Pe, ctx: &mut MCtx) {
        if self.iter > self.warmup {
            self.comm_ns += ctx.now() - self.tc;
        }
        self.start_iter(pe, ctx);
    }

    fn on_report(&mut self, which: usize, value: f64) -> Option<JacobiResult> {
        // which: 0 = comm, 1 = overall. Root collects both.
        if self.reports.is_empty() {
            self.reports = vec![f64::NAN, f64::NAN];
        }
        self.reports[which] = value;
        if self.reports.iter().all(|v| !v.is_nan()) {
            Some(JacobiResult {
                comm_ms: self.reports[0],
                overall_ms: self.reports[1],
            })
        } else {
            None
        }
    }
}

/// Run Jacobi3D on Charm++ against a freshly built simulation of
/// `cfg.nodes` Summit-like nodes; returns per-iteration timings (max over
/// chares). The caller keeps the simulation: the scenario-matrix runner
/// arms fault injection and the trace sink on it first and harvests
/// counters and trace afterwards.
///
/// With `cfg.overdecomp > 1`, each PE hosts that many chares (consecutive
/// blocks), letting the message-driven scheduler overlap one chare's halo
/// wait with another's stencil compute — the paper's planned
/// computation-communication-overlap extension.
pub fn run_charm_on(
    sim: &mut rucx_ucp::MSim,
    cfg: &JacobiConfig,
) -> Result<JacobiResult, rucx_ucp::RunError> {
    assert_eq!(
        sim.world().topo.procs(),
        cfg.ranks(),
        "simulation topology does not match the Jacobi configuration"
    );
    let odf = cfg.overdecomp.max(1) as u64;
    let n_elems = cfg.ranks() as u64 * odf;
    let grid = decompose(cfg.domain, n_elems);
    let bufs = Arc::new(alloc_mapped(sim, cfg.domain, grid, |b| (b / odf) as usize));
    let (iters, warmup, mode) = (cfg.iters, cfg.warmup, cfg.mode);

    rucx_ucp::run(sim, |sim, result| {
        launch(sim, move |pe, ctx| {
            let col = pe.register_collection(n_elems, move |i| (i / odf) as usize);
            let ep_halo = pe.register_ep(
                col,
                Some(Box::new(|chare, msg| {
                    let c = chare.downcast_mut::<JacobiChare>().unwrap();
                    let mut r: &[u8] = &msg.params;
                    let dir = r.get_u8() as usize;
                    vec![c.drecv[opposite(dir)].unwrap()]
                })),
                Box::new(|chare, msg: &Msg, pe, ctx| {
                    let c = chare.downcast_mut::<JacobiChare>().unwrap();
                    c.on_halo(msg, pe, ctx);
                }),
            );
            let ep_comm = pe.register_ep(
                col,
                None,
                Box::new(|chare, msg: &Msg, pe, ctx| {
                    let c = chare.downcast_mut::<JacobiChare>().unwrap();
                    let mut r: &[u8] = &msg.params;
                    let v = r.get_f64();
                    if let Some(done) = c.on_report(0, v) {
                        *c.result.lock() = done;
                        pe.exit_all(ctx);
                    }
                }),
            );
            let ep_overall = pe.register_ep(
                col,
                None,
                Box::new(|chare, msg: &Msg, pe, ctx| {
                    let c = chare.downcast_mut::<JacobiChare>().unwrap();
                    let mut r: &[u8] = &msg.params;
                    let v = r.get_f64();
                    if let Some(done) = c.on_report(1, v) {
                        *c.result.lock() = done;
                        pe.exit_all(ctx);
                    }
                }),
            );
            let ep_kdone = pe.register_ep(
                col,
                None,
                Box::new(|chare, _msg: &Msg, pe, ctx| {
                    let c = chare.downcast_mut::<JacobiChare>().unwrap();
                    c.after_compute(pe, ctx);
                }),
            );
            let ids = Ids {
                col,
                ep_halo,
                ep_comm,
                ep_overall,
                ep_kdone,
            };

            let local: Vec<u64> = pe.local_indices(col).to_vec();
            for &i in &local {
                let b = &bufs[i as usize];
                pe.insert_chare(
                    col,
                    i,
                    Box::new(JacobiChare {
                        block: b.block.clone(),
                        dsend: b.dsend,
                        drecv: b.drecv,
                        hsend: b.hsend,
                        hrecv: b.hrecv,
                        mode,
                        iters,
                        warmup,
                        iter: 0,
                        computing: false,
                        received_cur: 0,
                        received_next: 0,
                        expected: b.block.neighbor_count(),
                        comm_ns: 0,
                        tc: 0,
                        t0: 0,
                        reports: Vec::new(),
                        ids,
                        result: result.clone(),
                    }),
                );
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
