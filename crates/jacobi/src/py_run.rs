//! Jacobi3D for Charm4py: channels to each neighbor, coroutine-style
//! blocking receives, Python-side costs on every call (§III-D, Fig. 8).

use std::sync::Arc;

use rucx_charm4py::{launch, PY_CUDA_CALL};
use rucx_osu::cuda;
use rucx_sim::time::as_ms;

use crate::bufs::alloc_all;
use crate::config::{pack_cost, stencil_cost, JacobiConfig, JacobiResult, Mode};
use crate::decomp::decompose;

/// Run Jacobi3D on Charm4py against a freshly built simulation of
/// `cfg.nodes` Summit-like nodes (the caller keeps it, and can read its
/// counters afterwards); returns per-iteration timings (max over ranks).
pub fn run_charm4py_on(
    sim: &mut rucx_ucp::MSim,
    cfg: &JacobiConfig,
) -> Result<JacobiResult, rucx_ucp::RunError> {
    let grid = decompose(cfg.domain, cfg.ranks() as u64);
    let bufs = Arc::new(alloc_all(sim, cfg.domain, grid));
    let (iters, warmup, mode) = (cfg.iters, cfg.warmup, cfg.mode);
    let ranks = cfg.ranks();

    rucx_ucp::run(sim, |sim, result| {
        launch(sim, move |py, ctx| {
            let me = py.rank();
            let b = &bufs[me];
            let dev = ctx.with_world_ref(|w, _| w.topo.device_of(me));
            let stream = ctx.with_world_ref(|w, _| w.gpu.default_stream(dev));
            let stencil = stencil_cost(&b.block);

            // One channel per neighbor.
            let channels: Vec<(usize, rucx_charm4py::Channel)> = (0..6)
                .filter_map(|dir| b.block.neighbors[dir].map(|nbr| (dir, py.channel(nbr as usize))))
                .collect();

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
                cuda::kernel_sync(ctx, stencil, stream);
                let tc = ctx.now();
                // Send all halos (asynchronous channel sends).
                for &(dir, ch) in &channels {
                    let fb = b.block.face_bytes(dir);
                    ctx.advance(PY_CUDA_CALL);
                    cuda::kernel_sync(ctx, pack_cost(fb), stream);
                    match mode {
                        Mode::Device => py.send(ctx, ch, b.dsend[dir].unwrap()),
                        Mode::HostStaging => {
                            py.cuda_copy(ctx, b.dsend[dir].unwrap(), b.hsend[dir].unwrap(), stream);
                            py.cuda_stream_sync(ctx, stream);
                            py.send_host_payload(ctx, ch, None, fb);
                        }
                    }
                }
                // Receive all halos (suspending per channel). The channel to
                // the neighbor in `dir` delivers the halo covering our `dir`
                // face.
                for &(dir, ch) in &channels {
                    let fb = b.block.face_bytes(dir);
                    match mode {
                        Mode::Device => {
                            py.recv(ctx, ch, b.drecv[dir].unwrap());
                        }
                        Mode::HostStaging => {
                            py.recv(ctx, ch, b.hrecv[dir].unwrap());
                            py.cuda_copy(ctx, b.hrecv[dir].unwrap(), b.drecv[dir].unwrap(), stream);
                            py.cuda_stream_sync(ctx, stream);
                        }
                    }
                    ctx.advance(PY_CUDA_CALL);
                    cuda::kernel_sync(ctx, pack_cost(fb), stream);
                }
                if i >= warmup {
                    comm_ns += ctx.now() - tc;
                }
            }
            let overall_ns = ctx.now() - t0;

            // Collect results at rank 0 over dedicated channels.
            if me == 0 {
                let (mut max_comm, mut max_overall) = (comm_ns, overall_ns);
                for r in 1..ranks {
                    let ch = py.channel(r);
                    let bytes = py.recv_host(ctx, ch).expect("result bytes");
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
                let ch = py.channel(0);
                let mut payload = Vec::with_capacity(16);
                payload.extend_from_slice(&comm_ns.to_be_bytes());
                payload.extend_from_slice(&overall_ns.to_be_bytes());
                py.send_host(ctx, ch, payload);
            }
        })
    })
}
