//! Jacobi3D for MPI-style models (AMPI and OpenMPI), written once over the
//! shared point-to-point trait.

use std::sync::Arc;

use rucx_osu::cuda;
use rucx_osu::mpi_like::{P2p, RankFactory};
use rucx_sim::time::as_ms;

use crate::bufs::alloc_all;
use crate::config::{pack_cost, stencil_cost, JacobiConfig, JacobiResult, Mode};
use crate::decomp::{decompose, opposite};

/// Run Jacobi3D under an MPI-style model against a freshly built
/// simulation of `cfg.nodes` Summit-like nodes (the caller keeps it, and can
/// read its counters afterwards); returns per-iteration timings (max over
/// ranks).
pub fn run_mpi_on<F: RankFactory>(
    sim: &mut rucx_ucp::MSim,
    cfg: &JacobiConfig,
    factory: F,
) -> Result<JacobiResult, rucx_ucp::RunError> {
    let grid = decompose(cfg.domain, cfg.ranks() as u64);
    let bufs = Arc::new(alloc_all(sim, cfg.domain, grid));
    let (iters, warmup, mode) = (cfg.iters, cfg.warmup, cfg.mode);
    let ranks = cfg.ranks();

    rucx_ucp::run(sim, |sim, result| {
        factory.launch(sim, move |mpi, ctx| {
            let me = mpi.rank();
            let b = &bufs[me];
            let dev = ctx.with_world_ref(|w, _| w.topo.device_of(me));
            let stream = ctx.with_world_ref(|w, _| w.gpu.default_stream(dev));
            let stencil = stencil_cost(&b.block);

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
                cuda::kernel_sync(ctx, stencil, stream);
                // Halo exchange phase.
                let tc = ctx.now();
                let mut reqs = Vec::new();
                for dir in 0..6 {
                    if let Some(nbr) = b.block.neighbors[dir] {
                        let rbuf = match mode {
                            Mode::Device => b.drecv[dir].unwrap(),
                            Mode::HostStaging => b.hrecv[dir].unwrap(),
                        };
                        // The sender labels messages with its own direction; we
                        // receive on the opposite face.
                        reqs.push(mpi.irecv(ctx, rbuf, nbr as usize, opposite(dir) as i32));
                    }
                }
                for dir in 0..6 {
                    if let Some(nbr) = b.block.neighbors[dir] {
                        let fb = b.block.face_bytes(dir);
                        // Pack the face into a contiguous device buffer.
                        cuda::kernel_sync(ctx, pack_cost(fb), stream);
                        let sbuf = match mode {
                            Mode::Device => b.dsend[dir].unwrap(),
                            Mode::HostStaging => {
                                cuda::copy_sync(
                                    ctx,
                                    b.dsend[dir].unwrap(),
                                    b.hsend[dir].unwrap(),
                                    stream,
                                );
                                b.hsend[dir].unwrap()
                            }
                        };
                        reqs.push(mpi.isend(ctx, sbuf, nbr as usize, dir as i32));
                    }
                }
                mpi.waitall(ctx, reqs);
                for dir in 0..6 {
                    if b.block.neighbors[dir].is_some() {
                        let fb = b.block.face_bytes(dir);
                        if mode == Mode::HostStaging {
                            cuda::copy_sync(
                                ctx,
                                b.hrecv[dir].unwrap(),
                                b.drecv[dir].unwrap(),
                                stream,
                            );
                        }
                        // Unpack the received face into the halo region.
                        cuda::kernel_sync(ctx, pack_cost(fb), stream);
                    }
                }
                if i >= warmup {
                    comm_ns += ctx.now() - tc;
                }
            }
            let overall_ns = ctx.now() - t0;

            // Collect (comm, overall) at rank 0 and keep the max.
            let mut payload = Vec::with_capacity(16);
            payload.extend_from_slice(&comm_ns.to_be_bytes());
            payload.extend_from_slice(&overall_ns.to_be_bytes());
            let res = b.result;
            ctx.with_world(move |w, _| w.gpu.pool.write(res, &payload).expect("result write"));
            if me == 0 {
                let (mut max_comm, mut max_overall) = (comm_ns, overall_ns);
                for _ in 1..ranks {
                    mpi.recv_any(ctx, res, 1000);
                    let bytes = ctx.with_world_ref(|w, _| w.gpu.pool.read(res).unwrap());
                    let c = u64::from_be_bytes(bytes[0..8].try_into().unwrap());
                    let o = u64::from_be_bytes(bytes[8..16].try_into().unwrap());
                    max_comm = max_comm.max(c);
                    max_overall = max_overall.max(o);
                }
                *result.lock() = JacobiResult {
                    overall_ms: as_ms(max_overall) / iters as f64,
                    comm_ms: as_ms(max_comm) / iters as f64,
                };
            } else {
                mpi.send(ctx, res, 0, 1000);
            }
        })
    })
}
