//! Jacobi3D for Charm4py: channels to each neighbor, coroutine-style
//! blocking receives, Python-side costs on every call (§III-D, Fig. 8).

use std::sync::Arc;

use rucx_charm4py::{launch, Channel, PY_CUDA_CALL};
use rucx_osu::{cuda, py as osu_py};
use rucx_ucp::ResultCell;

use crate::bufs::{alloc, RankBufs};
use crate::config::{pack_cost, stencil_cost, JacobiConfig, JacobiResult};

/// Run Jacobi3D on Charm4py against a freshly built simulation of
/// `cfg.nodes` Summit-like nodes (the caller keeps it, and can read its
/// counters afterwards); returns per-iteration timings (max over ranks).
pub fn run_charm4py_on(
    sim: &mut rucx_ucp::MSim,
    cfg: &JacobiConfig,
) -> Result<JacobiResult, rucx_ucp::RunError> {
    let bufs = Arc::new(alloc(sim, cfg, 1));
    let (iters, warmup, mode) = (cfg.iters, cfg.warmup, cfg.mode);

    rucx_ucp::run(sim, |sim, result: ResultCell<JacobiResult>| {
        launch(sim, move |py, ctx| {
            let RankBufs {
                block,
                stream,
                faces,
            } = &bufs[py.rank()];
            let stencil = stencil_cost(block);

            // One channel per neighbor. The channel to the neighbor in
            // `dir` delivers the halo covering our `dir` face.
            let channels: Vec<Channel> = faces.iter().map(|f| py.channel(f.nbr as usize)).collect();

            py.barrier(ctx);
            let mut comm_ns = 0u64;
            let mut t0 = ctx.now();
            for i in 0..(warmup + iters) {
                if i == warmup {
                    py.barrier(ctx);
                    comm_ns = 0;
                    t0 = ctx.now();
                }
                // Compute: kernel launched from Python.
                ctx.advance(PY_CUDA_CALL);
                cuda::kernel_sync(ctx, stencil, *stream);
                let tc = ctx.now();
                // Send all halos (asynchronous channel sends).
                for (f, &ch) in faces.iter().zip(&channels) {
                    ctx.advance(PY_CUDA_CALL);
                    cuda::kernel_sync(ctx, pack_cost(f.bytes()), *stream);
                    osu_py::stage_out(py, ctx, f.send, mode);
                    osu_py::send(py, ctx, ch, f.send, mode);
                }
                // Receive all halos (suspending per channel).
                for (f, &ch) in faces.iter().zip(&channels) {
                    py.recv(ctx, ch, f.recv.buf(mode));
                    osu_py::stage_in(py, ctx, f.recv, mode);
                    ctx.advance(PY_CUDA_CALL);
                    cuda::kernel_sync(ctx, pack_cost(f.bytes()), *stream);
                }
                if i >= warmup {
                    comm_ns += ctx.now() - tc;
                }
            }
            result.lock().max_merge(comm_ns, ctx.now() - t0, iters);
        })
    })
}
