//! Blocking CUDA-style staging helpers used by the host-staging (`-H`)
//! benchmark variants: `cudaMemcpyAsync` + `cudaStreamSynchronize` with
//! their CPU-side costs, as plain (non-Python) runtime calls.

use rucx_gpu::device::{COPY_LAUNCH, KERNEL_LAUNCH, SYNC_OVERHEAD};
use rucx_gpu::{copy_async, MemRef, StreamId};
use rucx_ucp::MCtx;

/// Issue an async copy and wait for it (memcpy + stream synchronize),
/// charging the CPU-side launch and sync costs.
pub fn copy_sync(ctx: &mut MCtx, src: MemRef, dst: MemRef, stream: StreamId) {
    ctx.advance(COPY_LAUNCH);
    // The copy is the last work on `stream`, so its completion is the sync.
    let t = ctx.with_world(move |w, s| {
        let done = s.new_trigger();
        copy_async(w, s, src, dst, stream, Some(done));
        done
    });
    ctx.wait(t);
    ctx.with_world(move |_, s| s.recycle_trigger(t));
    ctx.advance(SYNC_OVERHEAD);
}

/// Launch a kernel and wait for it (launch cost + device time + sync cost).
pub fn kernel_sync(ctx: &mut MCtx, cost: rucx_gpu::KernelCost, stream: StreamId) {
    ctx.advance(KERNEL_LAUNCH);
    let t = ctx.with_world(move |w, s| {
        let done = s.new_trigger();
        rucx_gpu::kernel_async(w, s, stream, cost, Some(done));
        done
    });
    ctx.wait(t);
    ctx.with_world(move |_, s| s.recycle_trigger(t));
    ctx.advance(SYNC_OVERHEAD);
}
