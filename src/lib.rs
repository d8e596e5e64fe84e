//! # rucx — GPU-aware communication with a UCX-style framework, simulated
//!
//! A full-system reproduction of *"GPU-aware Communication with UCX in
//! Parallel Programming Models: Charm++, MPI, and Python"* (IPDPSW 2021) in
//! Rust. Every layer of the paper's stack is built from scratch over a
//! deterministic discrete-event simulation of a Summit-like GPU cluster:
//!
//! | layer | crate |
//! |---|---|
//! | Hermetic std-only substrate (sync, PRNG, test/bench harness) | [`compat`] |
//! | Discrete-event engine (virtual time, simulated processes) | [`sim`] |
//! | CUDA-like GPU substrate (memory, streams, copies, kernels) | [`gpu`] |
//! | Cluster fabric (topology, EDR InfiniBand model) | [`fabric`] |
//! | Deterministic fault injection (drop/dup/delay/corrupt, partitions, GPU failures) | [`fault`] |
//! | UCX-style UCP layer (tag matching, eager/rendezvous, GPU transports, reliability) | [`ucp`] |
//! | Topology-aware collective engine (allreduce/bcast) | [`coll`] |
//! | Charm++ runtime + GPU-aware UCX machine layer | [`charm`] |
//! | Adaptive MPI on Charm++ | [`ampi`] |
//! | OpenMPI-style baseline directly on UCP | [`ompi`] |
//! | Charm4py-style channels + Python cost model | [`charm4py`] |
//! | OSU-adapted microbenchmarks (Figs. 10–13, Table I) | [`osu`] |
//! | Jacobi3D proxy application (Figs. 14–16) | [`jacobi`] |
//! | Many-client service layer (Dask-style scatter/submit/gather futures) | [`svc`] |
//! | Benchmark harness + chaos scenario matrix with per-layer attribution | [`bench`] |
//!
//! ## Quickstart
//!
//! ```
//! use rucx::prelude::*;
//!
//! // A two-node Summit-like cluster (6 GPUs per node).
//! let mut sim = build_sim(Topology::summit(2), MachineConfig::default());
//!
//! // Allocate GPU buffers on two devices.
//! let src = sim.world_mut().gpu.pool.alloc_device(DeviceId(0), 1 << 20, true).unwrap();
//! let dst = sim.world_mut().gpu.pool.alloc_device(DeviceId(6), 1 << 20, true).unwrap();
//! sim.world_mut().gpu.pool.write(src, &vec![42u8; 1 << 20]).unwrap();
//!
//! // Run an AMPI program: rank 0 sends its GPU buffer to rank 6,
//! // CUDA-aware-MPI style — the data never touches user host code.
//! rucx::ampi::launch(&mut sim, move |mpi, ctx| match mpi.rank() {
//!     0 => mpi.send(ctx, src, 6, 0),
//!     6 => {
//!         let status = mpi.recv(ctx, dst, 0, 0);
//!         assert_eq!(status.size, 1 << 20);
//!     }
//!     _ => {}
//! });
//! assert_eq!(sim.run(), RunOutcome::Completed);
//! assert_eq!(sim.world().gpu.pool.read(dst).unwrap(), vec![42u8; 1 << 20]);
//! ```

pub use rucx_ampi as ampi;
pub use rucx_bench as bench;
pub use rucx_charm as charm;
pub use rucx_charm4py as charm4py;
pub use rucx_coll as coll;
pub use rucx_compat as compat;
pub use rucx_fabric as fabric;
pub use rucx_fault as fault;
pub use rucx_gpu as gpu;
pub use rucx_jacobi as jacobi;
pub use rucx_ompi as ompi;
pub use rucx_osu as osu;
pub use rucx_sim as sim;
pub use rucx_svc as svc;
pub use rucx_ucp as ucp;

/// Common imports for examples and applications.
pub mod prelude {
    pub use rucx_fabric::Topology;
    pub use rucx_gpu::{DeviceId, KernelCost, MemKind, MemRef};
    pub use rucx_sim::time::{as_ms, as_us, ms, us};
    pub use rucx_sim::{ProcId, RunOutcome, Simulation};
    pub use rucx_ucp::{build_sim, MCtx, MSim, Machine, MachineConfig, UcpConfig};
}
