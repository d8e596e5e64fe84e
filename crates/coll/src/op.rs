//! Element-wise reduction operators over `f64` payloads, and the shared
//! local-combine step every reduction algorithm uses.
//!
//! This is the one copy of the combine model that used to be duplicated in
//! `ampi::coll` and `osu::coll`: a memory-bound GPU kernel (launch + 3×
//! payload HBM traffic + sync) plus the actual element-wise math on the
//! backing bytes, so reduced results stay verifiable.

use rucx_gpu::device::{KERNEL_LAUNCH, SYNC_OVERHEAD};
use rucx_gpu::{KernelCost, MemRef, StreamId};
use rucx_sim::time::us;
use rucx_ucp::MCtx;

/// Element-wise reduction operators over `f64` payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Max,
    Min,
}

impl ReduceOp {
    /// Apply the operator to one element pair.
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }

    /// The operator's identity element.
    pub fn identity(self) -> f64 {
        match self {
            ReduceOp::Sum => 0.0,
            ReduceOp::Max => f64::NEG_INFINITY,
            ReduceOp::Min => f64::INFINITY,
        }
    }
}

/// Combine `other` into `mine` (both `f64` arrays of equal byte length):
/// models the GPU reduction kernel and performs the real element-wise
/// operation on the backing bytes. Phantom (unmaterialized) buffers pay the
/// kernel time but skip the math — timing-only benchmarks reduce nothing.
pub fn combine(ctx: &mut MCtx, mine: MemRef, other: MemRef, op: ReduceOp, stream: StreamId) {
    assert_eq!(mine.len, other.len, "combine length mismatch");
    // Launch + kernel + sync, like any small CUDA reduction. Memory-bound:
    // read both inputs, write one output.
    ctx.advance(KERNEL_LAUNCH);
    let done = ctx.with_world(move |w, s| {
        let t = s.new_trigger();
        rucx_gpu::kernel_async(
            w,
            s,
            stream,
            KernelCost {
                fixed: us(3.0),
                bytes: mine.len * 3,
            },
            Some(t),
        );
        t
    });
    ctx.wait(done);
    ctx.with_world(move |_, s| s.recycle_trigger(done));
    ctx.advance(SYNC_OVERHEAD);
    ctx.with_world(move |w, _| {
        if !w.gpu.pool.is_materialized(mine.id).unwrap_or(false)
            || !w.gpu.pool.is_materialized(other.id).unwrap_or(false)
        {
            return;
        }
        // Invariant: both handles are the collective's own live,
        // materialized buffers (checked just above).
        let a = w.gpu.pool.read(mine).expect("combine lhs");
        let b = w.gpu.pool.read(other).expect("combine rhs");
        let mut out = Vec::with_capacity(a.len());
        for (ca, cb) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
            // Invariant: chunks_exact(8) yields exactly 8 bytes.
            let x = f64::from_le_bytes(ca.try_into().unwrap());
            let y = f64::from_le_bytes(cb.try_into().unwrap());
            out.extend_from_slice(&op.apply(x, y).to_le_bytes());
        }
        let len = out.len() as u64;
        w.gpu
            .pool
            // Invariant: `out` is at most `mine.len` bytes (element-wise
            // combine of a read of `mine`), into a live handle.
            .write(mine.slice(0, len), &out)
            .expect("combine write");
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities_and_apply() {
        assert_eq!(ReduceOp::Sum.apply(ReduceOp::Sum.identity(), 5.0), 5.0);
        assert_eq!(ReduceOp::Max.apply(ReduceOp::Max.identity(), -5.0), -5.0);
        assert_eq!(ReduceOp::Min.apply(ReduceOp::Min.identity(), 5.0), 5.0);
        assert_eq!(ReduceOp::Sum.apply(2.0, 3.0), 5.0);
        assert_eq!(ReduceOp::Max.apply(2.0, 3.0), 3.0);
        assert_eq!(ReduceOp::Min.apply(2.0, 3.0), 2.0);
    }
}
