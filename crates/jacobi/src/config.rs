//! Jacobi3D run configuration and results.

use rucx_compat::json::{JsonObject, ToJson};
use rucx_gpu::KernelCost;
use rucx_sim::time::{as_ms, us, Time};

use crate::decomp::Block;

/// Host-staging vs GPU-direct halo exchange.
pub use rucx_osu::Mode;

/// One Jacobi3D run's parameters.
#[derive(Debug, Clone)]
pub struct JacobiConfig {
    /// Global domain in cells.
    pub domain: crate::decomp::Domain,
    /// Number of nodes (6 GPUs / PEs / ranks each).
    pub nodes: usize,
    /// Measured iterations.
    pub iters: u32,
    /// Unmeasured warmup iterations.
    pub warmup: u32,
    pub mode: Mode,
    pub machine: rucx_ucp::MachineConfig,
}

impl JacobiConfig {
    /// Weak-scaling configuration (paper Fig. 14–16 a/b): base 1536³
    /// doubled in x, y, z order.
    pub fn weak(nodes: usize, mode: Mode) -> Self {
        JacobiConfig {
            domain: crate::decomp::Domain::weak_scaled(1536, nodes),
            nodes,
            iters: 5,
            warmup: 1,
            mode,
            machine: rucx_ucp::MachineConfig::default(),
        }
    }

    /// Strong-scaling configuration (paper Fig. 14–16 c/d): fixed 3072³.
    pub fn strong(nodes: usize, mode: Mode) -> Self {
        JacobiConfig {
            domain: crate::decomp::Domain {
                nx: 3072,
                ny: 3072,
                nz: 3072,
            },
            nodes,
            iters: 5,
            warmup: 1,
            mode,
            machine: rucx_ucp::MachineConfig::default(),
        }
    }

    /// Total ranks/PEs (one per GPU).
    pub fn ranks(&self) -> usize {
        self.nodes * 6
    }
}

/// Per-iteration timings, maxed over ranks (ms).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JacobiResult {
    pub overall_ms: f64,
    pub comm_ms: f64,
}

impl JacobiResult {
    /// Fold one rank's timed totals over `iters` iterations into the run's
    /// result: per-iteration milliseconds, maxed over ranks.
    pub(crate) fn max_merge(&mut self, comm: Time, overall: Time, iters: u32) {
        self.comm_ms = self.comm_ms.max(as_ms(comm) / iters as f64);
        self.overall_ms = self.overall_ms.max(as_ms(overall) / iters as f64);
    }
}

impl ToJson for JacobiResult {
    fn write_json(&self, out: &mut String) {
        JsonObject::new(out)
            .field("overall_ms", &self.overall_ms)
            .field("comm_ms", &self.comm_ms)
            .finish();
    }
}

/// Cost of the 7-point stencil kernel on one block: memory-bound, touching
/// each cell's value twice (read old grid + write new grid); neighbor reads
/// hit cache.
pub fn stencil_cost(block: &Block) -> KernelCost {
    KernelCost {
        fixed: us(8.0),
        bytes: block.cells() * 16,
    }
}

/// Cost of packing (or unpacking) one halo face on the GPU.
pub fn pack_cost(face_bytes: u64) -> KernelCost {
    KernelCost {
        fixed: us(3.0),
        bytes: face_bytes * 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::{decompose, Block};

    #[test]
    fn weak_config_keeps_per_gpu_work_constant() {
        let a = JacobiConfig::weak(1, Mode::Device);
        let b = JacobiConfig::weak(8, Mode::Device);
        assert_eq!(
            a.domain.cells() / a.ranks() as u64,
            b.domain.cells() / b.ranks() as u64
        );
    }

    #[test]
    fn strong_config_shrinks_per_gpu_work() {
        let a = JacobiConfig::strong(8, Mode::Device);
        let b = JacobiConfig::strong(32, Mode::Device);
        assert_eq!(a.domain, b.domain);
        assert!(a.ranks() < b.ranks());
    }

    #[test]
    fn stencil_cost_scales_with_block() {
        let d = crate::decomp::Domain {
            nx: 1536,
            ny: 1536,
            nz: 1536,
        };
        let g = decompose(d, 6);
        let b = Block::new(d, g, 0);
        let c = stencil_cost(&b);
        assert_eq!(c.bytes, d.cells() / 6 * 16);
        // ~12 ms of HBM traffic at 780 GB/s.
        let dur = c.duration();
        assert!(dur > rucx_sim::time::ms(10.0) && dur < rucx_sim::time::ms(15.0));
    }
}
