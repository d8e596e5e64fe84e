//! The paper's core programming model (Fig. 4): Charm++ entry methods with
//! `nocopydevice` GPU parameters and post entry methods (Zero Copy API).
//!
//! Six chares on six GPUs form a ring; each sends a GPU buffer to its right
//! neighbor. The *post entry method* supplies the destination GPU buffer
//! when the metadata message arrives; the *regular entry method* runs once
//! the GPU data has landed — exactly the receive flow of §III-B. Payload
//! contents are verified end-to-end.
//!
//! Run: `cargo run --release --example charm_halo`

use rucx::charm::{launch, ChareRef, Msg};
use rucx::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SIZE: u64 = 256 * 1024;

struct RingChare {
    me: u64,
    send_buf: MemRef,
    recv_buf: MemRef,
}

fn main() {
    let mut sim = build_sim(Topology::summit(1), MachineConfig::default());
    let n = sim.world().topo.procs() as u64;

    // One send and one receive buffer per GPU, with a per-rank pattern.
    let mut sbufs = Vec::new();
    let mut rbufs = Vec::new();
    for i in 0..n {
        let m = sim.world_mut();
        let s = m
            .gpu
            .pool
            .alloc_device(DeviceId(i as u32), SIZE, true)
            .unwrap();
        m.gpu
            .pool
            .write(s, &vec![i as u8 + 1; SIZE as usize])
            .unwrap();
        sbufs.push(s);
        rbufs.push(
            m.gpu
                .pool
                .alloc_device(DeviceId(i as u32), SIZE, true)
                .unwrap(),
        );
    }
    let (sbufs, rbufs) = (Arc::new(sbufs), Arc::new(rbufs));
    let rbufs_check = rbufs.clone();
    let received = Arc::new(AtomicU64::new(0));
    let received2 = received.clone();

    launch(&mut sim, move |pe, ctx| {
        let col = pe.register_collection(n, move |i| i as usize);
        let received3 = received2.clone();
        // CI-file equivalent:
        //   entry void recv(nocopydevice char data[size], size_t size);
        let ep_recv = pe.register_ep(
            col,
            // Post entry method: set the destination GPU buffer.
            Some(Box::new(|chare, _msg| {
                let c = chare.downcast_mut::<RingChare>().unwrap();
                vec![c.recv_buf]
            })),
            // Regular entry method: GPU data is available.
            Box::new(move |chare, msg: &Msg, pe, ctx| {
                let c = chare.downcast_mut::<RingChare>().unwrap();
                println!(
                    "chare {} received {} bytes from PE {} at t={:.1}us",
                    c.me,
                    msg.device_sizes[0],
                    msg.src_pe,
                    as_us(ctx.now()),
                );
                if received3.fetch_add(1, Ordering::SeqCst) + 1 == pe.n_pes as u64 {
                    pe.exit_all(ctx);
                }
            }),
        );
        for &i in pe.local_indices(col).to_vec().iter() {
            pe.insert_chare(
                col,
                i,
                Box::new(RingChare {
                    me: i,
                    send_buf: sbufs[i as usize],
                    recv_buf: rbufs[i as usize],
                }),
            );
        }
        // Every chare sends to its right neighbor:
        //   peer.recv(CkDeviceBuffer(send_gpu_data), size);
        let me = pe.index as u64;
        pe.with_chare::<RingChare, _>(ctx, col, me, |c, pe, ctx| {
            let to = ChareRef {
                col,
                index: (c.me + 1) % n,
            };
            pe.send(ctx, to, ep_recv, vec![], 0, vec![c.send_buf]);
        });
        pe.run(ctx);
    });

    assert_eq!(sim.run(), RunOutcome::Completed);

    // Verify every chare got its left neighbor's pattern.
    for i in 0..n {
        let left = (i + n - 1) % n;
        let got = sim.world().gpu.pool.read(rbufs_check[i as usize]).unwrap();
        assert_eq!(got, vec![left as u8 + 1; SIZE as usize], "chare {i}");
    }
    println!(
        "\nall {n} GPU buffers verified; device-path rendezvous count = {}",
        sim.metrics().get("ucp.rndv.ipc")
    );
}
