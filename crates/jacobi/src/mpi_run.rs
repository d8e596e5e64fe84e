//! Jacobi3D for MPI-style models (AMPI and OpenMPI), written once over the
//! shared point-to-point trait.

use std::sync::Arc;

use rucx_osu::cuda;
use rucx_osu::mpi_like::{P2p, RankFactory};
use rucx_ucp::ResultCell;

use crate::bufs::{alloc, RankBufs};
use crate::config::{pack_cost, stencil_cost, JacobiConfig, JacobiResult};
use crate::decomp::opposite;

/// Run Jacobi3D under an MPI-style model against a freshly built
/// simulation of `cfg.nodes` Summit-like nodes (the caller keeps it, and can
/// read its counters afterwards); returns per-iteration timings (max over
/// ranks).
pub fn run_mpi_on<F: RankFactory>(
    sim: &mut rucx_ucp::MSim,
    cfg: &JacobiConfig,
    factory: F,
) -> Result<JacobiResult, rucx_ucp::RunError> {
    let bufs = Arc::new(alloc(sim, cfg, 1));
    let (iters, warmup, mode) = (cfg.iters, cfg.warmup, cfg.mode);

    rucx_ucp::run(sim, |sim, result: ResultCell<JacobiResult>| {
        factory.launch(sim, move |mpi, ctx| {
            let RankBufs {
                block,
                stream,
                faces,
            } = &bufs[mpi.rank()];
            let stencil = stencil_cost(block);

            mpi.barrier(ctx);
            let mut comm_ns = 0u64;
            let mut t0 = ctx.now();
            for i in 0..(warmup + iters) {
                if i == warmup {
                    mpi.barrier(ctx);
                    comm_ns = 0;
                    t0 = ctx.now();
                }
                // Compute phase.
                cuda::kernel_sync(ctx, stencil, *stream);
                // Halo exchange phase.
                let tc = ctx.now();
                let mut reqs = Vec::new();
                for f in faces {
                    // The sender labels messages with its own direction; we
                    // receive on the opposite face.
                    let tag = opposite(f.dir) as i32;
                    reqs.push(mpi.irecv(ctx, f.recv.buf(mode), f.nbr as usize, tag));
                }
                for f in faces {
                    // Pack the face into a contiguous device buffer.
                    cuda::kernel_sync(ctx, pack_cost(f.bytes()), *stream);
                    f.send.stage_out(ctx, mode);
                    reqs.push(mpi.isend(ctx, f.send.buf(mode), f.nbr as usize, f.dir as i32));
                }
                mpi.waitall(ctx, reqs);
                for f in faces {
                    f.recv.stage_in(ctx, mode);
                    // Unpack the received face into the halo region.
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
