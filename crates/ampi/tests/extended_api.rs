//! Tests of the extended AMPI API: sendrecv and probe/iprobe over GPU
//! buffers.

use std::sync::Arc;

use rucx_ampi::{launch, ANY_SOURCE, ANY_TAG};
use rucx_fabric::Topology;
use rucx_gpu::{DeviceId, MemRef};
use rucx_sim::time::us;
use rucx_ucp::{build_sim, MSim, MachineConfig};

fn sim(nodes: usize) -> MSim {
    build_sim(Topology::summit(nodes), MachineConfig::default())
}

fn dev(sim: &mut MSim, d: u32, size: u64) -> MemRef {
    sim.world_mut()
        .gpu
        .pool
        .alloc_device(DeviceId(d), size, true)
        .unwrap()
}

#[test]
fn sendrecv_ring_shift() {
    // Classic ring shift: every rank sendrecvs simultaneously; a naive
    // blocking send+recv would deadlock on large (rendezvous) messages.
    let mut sim = sim(1);
    let size = 512u64 << 10;
    let sbufs: Vec<MemRef> = (0..6).map(|d| dev(&mut sim, d, size)).collect();
    let rbufs: Vec<MemRef> = (0..6).map(|d| dev(&mut sim, d, size)).collect();
    for (r, b) in sbufs.iter().enumerate() {
        sim.world_mut()
            .gpu
            .pool
            .write(*b, &vec![r as u8 + 1; size as usize])
            .unwrap();
    }
    let (sb, rb) = (Arc::new(sbufs), Arc::new(rbufs.clone()));
    launch(&mut sim, move |mpi, ctx| {
        let me = mpi.rank();
        let n = mpi.size();
        let st = mpi.sendrecv(
            ctx,
            sb[me],
            (me + 1) % n,
            5,
            rb[me],
            ((me + n - 1) % n) as i32,
            5,
        );
        assert_eq!(st.src as usize, (me + n - 1) % n);
        assert_eq!(st.size, sb[me].len);
    });
    rucx_ucp::finish(&mut sim).unwrap();
    for (r, b) in rbufs.iter().enumerate() {
        let left = (r + 5) % 6;
        assert_eq!(
            sim.world().gpu.pool.read(*b).unwrap(),
            vec![left as u8 + 1; size as usize],
            "rank {r}"
        );
    }
}

#[test]
fn probe_then_recv() {
    let mut sim = sim(1);
    let a = dev(&mut sim, 0, 64);
    let b = dev(&mut sim, 1, 64);
    sim.world_mut().gpu.pool.write(a, &[3u8; 64]).unwrap();
    launch(&mut sim, move |mpi, ctx| match mpi.rank() {
        0 => {
            ctx.advance(us(30.0));
            mpi.send(ctx, a, 1, 42);
        }
        1 => {
            // iprobe finds nothing yet...
            assert!(mpi.iprobe(ctx, ANY_SOURCE, ANY_TAG).is_none());
            // ...probe blocks until the metadata lands...
            let st = mpi.probe(ctx, ANY_SOURCE, 42);
            assert_eq!(st.src, 0);
            assert_eq!(st.size, 64);
            // ...and the message is still receivable afterwards.
            let st2 = mpi.recv(ctx, b, 0, 42);
            assert_eq!(st2.size, 64);
        }
        _ => {}
    });
    rucx_ucp::finish(&mut sim).unwrap();
    assert_eq!(sim.world().gpu.pool.read(b).unwrap(), vec![3u8; 64]);
}
