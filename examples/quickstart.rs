//! Quickstart: the same GPU ping-pong in all four programming models,
//! GPU-direct vs host-staging, on a simulated Summit node.
//!
//! Run: `cargo run --release --example quickstart`

use rucx::prelude::*;
use rucx::ucp::run;
use rucx::{ampi, charm4py, ompi};

const SIZE: u64 = 1 << 20; // 1 MiB

fn fresh() -> (MSim, MemRef, MemRef) {
    let mut sim = build_sim(Topology::summit(1), MachineConfig::default());
    let a = sim
        .world_mut()
        .gpu
        .pool
        .alloc_device(DeviceId(0), SIZE, true)
        .unwrap();
    let b = sim
        .world_mut()
        .gpu
        .pool
        .alloc_device(DeviceId(1), SIZE, true)
        .unwrap();
    sim.world_mut()
        .gpu
        .pool
        .write(a, &vec![7u8; SIZE as usize])
        .unwrap();
    (sim, a, b)
}

fn report(model: &str, rtt_ns: u64) {
    println!(
        "{model:>10}: one-way latency for 1 MiB GPU buffer = {:>8.1} us",
        as_us(rtt_ns) / 2.0
    );
}

fn main() {
    println!("GPU ping-pong between two V100s on one node (NVLink):\n");

    // --- OpenMPI-style: CUDA-aware MPI directly over UCX ---------------
    let (mut sim, a, b) = fresh();
    let rtt = run(&mut sim, |sim, rtt| {
        ompi::launch(sim, move |mpi, ctx| match mpi.rank() {
            0 => {
                let t0 = ctx.now();
                mpi.send(ctx, a, 1, 0);
                mpi.recv(ctx, a, 1, 1);
                *rtt.lock() = ctx.now() - t0;
            }
            1 => {
                mpi.recv(ctx, b, 0, 0);
                mpi.send(ctx, b, 0, 1);
            }
            _ => {}
        })
    })
    .unwrap_or_else(|e| panic!("OpenMPI ping-pong: {e}"));
    assert_eq!(
        sim.world().gpu.pool.read(b).unwrap(),
        vec![7u8; SIZE as usize]
    );
    report("OpenMPI", rtt);

    // --- AMPI: MPI on the Charm++ runtime -------------------------------
    let (mut sim, a, b) = fresh();
    let rtt = run(&mut sim, |sim, rtt| {
        ampi::launch(sim, move |mpi, ctx| match mpi.rank() {
            0 => {
                let t0 = ctx.now();
                mpi.send(ctx, a, 1, 0);
                mpi.recv(ctx, a, 1, 1);
                *rtt.lock() = ctx.now() - t0;
            }
            1 => {
                mpi.recv(ctx, b, 0, 0);
                mpi.send(ctx, b, 0, 1);
            }
            _ => {}
        })
    })
    .unwrap_or_else(|e| panic!("AMPI ping-pong: {e}"));
    report("AMPI", rtt);

    // --- Charm4py: channels ---------------------------------------------
    let (mut sim, a, b) = fresh();
    let rtt = run(&mut sim, |sim, rtt| {
        charm4py::launch(sim, move |py, ctx| match py.rank() {
            0 => {
                let ch = py.channel(1);
                let t0 = ctx.now();
                py.send(ctx, ch, a);
                py.recv(ctx, ch, a);
                *rtt.lock() = ctx.now() - t0;
            }
            1 => {
                let ch = py.channel(0);
                py.recv(ctx, ch, b);
                py.send(ctx, ch, b);
            }
            _ => {}
        })
    })
    .unwrap_or_else(|e| panic!("Charm4py ping-pong: {e}"));
    report("Charm4py", rtt);

    // --- Charm++: via the OSU latency benchmark driver -------------------
    let mut cfg = rucx::osu::OsuConfig::quick();
    cfg.sizes = vec![SIZE];
    cfg.lat_iters = 1;
    cfg.lat_warmup = 0;
    let s = rucx::osu::latency(
        &cfg,
        rucx::osu::Model::Charm,
        rucx::osu::Mode::Device,
        rucx::osu::Placement::IntraNode,
    );
    println!(
        "{:>10}: one-way latency for 1 MiB GPU buffer = {:>8.1} us",
        "Charm++",
        s.at(SIZE).unwrap()
    );

    println!("\nHost-staging comparison (same transfer, staged through host):");
    let s = rucx::osu::latency(
        &cfg,
        rucx::osu::Model::Charm,
        rucx::osu::Mode::HostStaging,
        rucx::osu::Placement::IntraNode,
    );
    println!(
        "{:>10}: one-way latency for 1 MiB GPU buffer = {:>8.1} us",
        "Charm++-H",
        s.at(SIZE).unwrap()
    );
}
