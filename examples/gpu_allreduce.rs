//! GPU collectives built from GPU-aware point-to-point calls — the paper's
//! §VI extension ("translate collective communication primitives to
//! point-to-point calls"): a broadcast and an allreduce of device-resident
//! f64 arrays across 12 GPUs on two nodes, verified numerically.
//!
//! Run: `cargo run --release --example gpu_allreduce`

use rucx::coll::{allreduce, bcast};
use rucx::osu::coll::{CollOp, P2pComm};
use rucx::prelude::*;
use std::sync::Arc;

const ELEMS: usize = 1024;

fn main() {
    let topo = Topology::summit(2);
    let mut sim = build_sim(topo.clone(), MachineConfig::default());
    let n = topo.procs();

    // Per-GPU input vector: rank r holds [r, r, ...].
    let mut bufs = vec![];
    let mut scratch = vec![];
    for p in 0..n {
        let m = sim.world_mut();
        let b = m
            .gpu
            .pool
            .alloc_device(topo.device_of(p), (ELEMS * 8) as u64, true)
            .unwrap();
        let vals: Vec<u8> = (0..ELEMS).flat_map(|_| (p as f64).to_le_bytes()).collect();
        m.gpu.pool.write(b, &vals).unwrap();
        bufs.push(b);
        scratch.push(
            m.gpu
                .pool
                .alloc_device(topo.device_of(p), (ELEMS * 8) as u64, true)
                .unwrap(),
        );
    }
    let bufs2 = Arc::new(bufs.clone());
    let scratch2 = Arc::new(scratch);
    let done_at = Arc::new(rucx_compat::sync::Mutex::new(0u64));
    let done2 = done_at.clone();

    rucx::ompi::launch(&mut sim, move |mpi, ctx| {
        let me = mpi.rank();
        // Allreduce(sum): every GPU ends with sum(0..n) in every element.
        let c = &mut P2pComm::new(mpi, n);
        allreduce(c, ctx, bufs2[me], scratch2[me], CollOp::Sum, None);
        mpi.barrier(ctx);
        // Broadcast from rank 3 overwrites everyone.
        bcast(&mut P2pComm::new(mpi, n), ctx, bufs2[me], 3, None);
        if me == 0 {
            *done2.lock() = ctx.now();
        }
    });
    assert_eq!(sim.run(), RunOutcome::Completed);

    let expected = (0..n).sum::<usize>() as f64;
    for (p, b) in bufs.iter().enumerate() {
        let bytes = sim.world().gpu.pool.read(*b).unwrap();
        for c in bytes.chunks_exact(8) {
            assert_eq!(
                f64::from_le_bytes(c.try_into().unwrap()),
                expected,
                "rank {p}"
            );
        }
    }
    println!("allreduce(sum) + bcast over {n} GPUs on 2 nodes: every element = {expected} ✓");
    println!(
        "virtual time: {:.1} us; device-path rendezvous: {} intra-node (IPC), {} inter-node (pipeline)",
        as_us(*done_at.lock()),
        sim.metrics().get("ucp.rndv.ipc"),
        sim.metrics().get("ucp.rndv.pipeline"),
    );
}
