//! Traced inter-node ping-pongs with per-layer time attribution.
//!
//! Runs the same device ping-pong under AMPI and Charm4py with the
//! structured trace sink enabled, then rebuilds the paper's "where does the
//! time go" decomposition (Table I's narrative: UCX vs runtime vs Python
//! overhead) from the recorded spans. Also emits each run's buffer in
//! Chrome trace-event format, so any row of the table can be opened in
//! `chrome://tracing` / Perfetto and inspected event by event.
//!
//! Run with `cargo bench --bench trace_attribution`.

use rucx_bench::attr::Attribution;
use rucx_bench::{fmt_size, print_table, write_json, write_text};
use rucx_fabric::Topology;
use rucx_gpu::DeviceId;
use rucx_ucp::{build_sim, MSim, MachineConfig};

const ITERS: u64 = 10;
/// Ranks 0 and 6 sit on different nodes of a 2-node Summit-like cluster
/// (6 GPUs per node), so the traced path crosses the fabric.
const PEER: usize = 6;

fn traced_sim() -> MSim {
    let mut sim = build_sim(Topology::summit(2), MachineConfig::default());
    sim.scheduler().trace.enable(0);
    sim
}

fn device_pair(sim: &mut MSim, size: u64) -> (rucx_gpu::MemRef, rucx_gpu::MemRef) {
    let a = sim
        .world_mut()
        .gpu
        .pool
        .alloc_device(DeviceId(0), size, false)
        .unwrap();
    let b = sim
        .world_mut()
        .gpu
        .pool
        .alloc_device(DeviceId(PEER as u32), size, false)
        .unwrap();
    (a, b)
}

/// Chrome trace JSON + attribution for one traced run.
fn harvest(sim: &mut MSim) -> (String, Attribution) {
    let sink = &sim.scheduler().trace;
    (sink.to_chrome_json(), Attribution::from_sink(sink))
}

fn ampi_pingpong(size: u64) -> (String, Attribution) {
    let mut sim = traced_sim();
    let (a, b) = device_pair(&mut sim, size);
    rucx_ampi::launch(&mut sim, move |mpi, ctx| match mpi.rank() {
        0 => {
            for i in 0..ITERS {
                mpi.send(ctx, a, PEER, i as i32);
                mpi.recv(ctx, a, PEER as i32, i as i32);
            }
        }
        r if r == PEER => {
            for i in 0..ITERS {
                mpi.recv(ctx, b, 0, i as i32);
                mpi.send(ctx, b, 0, i as i32);
            }
        }
        _ => {}
    });
    rucx_ucp::finish(&mut sim).unwrap();
    harvest(&mut sim)
}

fn charm4py_pingpong(size: u64) -> (String, Attribution) {
    let mut sim = traced_sim();
    let (a, b) = device_pair(&mut sim, size);
    rucx_charm4py::launch(&mut sim, move |py, ctx| {
        if py.rank() == 0 {
            let ch = py.channel(PEER);
            for _ in 0..ITERS {
                py.send(ctx, ch, a);
                py.recv(ctx, ch, a);
            }
        } else if py.rank() == PEER {
            let ch = py.channel(0);
            for _ in 0..ITERS {
                py.recv(ctx, ch, b);
                py.send(ctx, ch, b);
            }
        }
    });
    rucx_ucp::finish(&mut sim).unwrap();
    harvest(&mut sim)
}

fn main() {
    let sizes = [4u64 << 10, 1 << 20];
    let runs: [(&str, fn(u64) -> (String, Attribution)); 2] =
        [("ampi", ampi_pingpong), ("charm4py", charm4py_pingpong)];

    let mut json_rows: Vec<(String, Attribution)> = Vec::new();
    for (model, run) in runs {
        for &size in &sizes {
            let (chrome, attr) = run(size);
            let label = format!("{model}_{}", fmt_size(size));
            print_table(
                &format!(
                    "Per-layer attribution: {model} device ping-pong, {}",
                    fmt_size(size)
                ),
                &["layer", "busy_us", "share", "events"],
                &attr.rows(),
            );
            write_text(&format!("trace_{label}.json"), &chrome);
            json_rows.push((label, attr));
        }
    }
    let json_refs: Vec<(&str, &Attribution)> =
        json_rows.iter().map(|(l, a)| (l.as_str(), a)).collect();
    write_json("trace_attribution", &json_refs);
}
