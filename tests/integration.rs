//! Cross-crate integration tests through the facade: whole-stack scenarios
//! spanning the simulator, GPU substrate, UCX layer, and programming models.

use rucx::prelude::*;
use std::sync::Arc;

#[test]
fn deterministic_end_to_end_latency() {
    // A full benchmark point is bit-for-bit reproducible.
    fn one() -> f64 {
        let mut cfg = rucx::osu::OsuConfig::quick();
        cfg.sizes = vec![4096];
        rucx::osu::latency(
            &cfg,
            rucx::osu::Model::Ampi,
            rucx::osu::Mode::Device,
            rucx::osu::Placement::InterNode,
        )
        .at(4096)
        .unwrap()
    }
    let a = one();
    let b = one();
    assert_eq!(a, b, "simulation must be deterministic");
    assert!(a > 0.0);
}

#[test]
fn charm_multi_buffer_inter_node_integrity() {
    // One entry-method invocation carrying three GPU buffers across nodes;
    // all three must arrive intact and only then run the regular ep.
    use rucx::charm::{launch, ChareRef, Msg};
    let mut sim = build_sim(Topology::summit(2), MachineConfig::default());
    let sizes = [64u64 * 1024, 512 * 1024, 2 << 20];
    let mut srcs = vec![];
    let mut dsts = vec![];
    for (i, &sz) in sizes.iter().enumerate() {
        let m = sim.world_mut();
        let s = m.gpu.pool.alloc_device(DeviceId(0), sz, true).unwrap();
        m.gpu
            .pool
            .write(s, &vec![(i + 1) as u8 * 11; sz as usize])
            .unwrap();
        srcs.push(s);
        dsts.push(m.gpu.pool.alloc_device(DeviceId(9), sz, true).unwrap());
    }
    let (srcs, dsts) = (Arc::new(srcs), Arc::new(dsts));
    let dsts_check = dsts.clone();

    launch(&mut sim, move |pe, ctx| {
        let n = pe.n_pes as u64;
        let col = pe.register_collection(n, move |i| i as usize);
        let dsts = dsts.clone();
        let ep = pe.register_ep(
            col,
            Some(Box::new(move |_chare, _msg| dsts.as_ref().clone())),
            Box::new(move |_chare, msg: &Msg, pe, ctx| {
                assert_eq!(msg.device_sizes.len(), 3);
                pe.exit_all(ctx);
            }),
        );
        struct Unit;
        for &i in pe.local_indices(col).to_vec().iter() {
            pe.insert_chare(col, i, Box::new(Unit));
        }
        if pe.index == 0 {
            pe.send(
                ctx,
                ChareRef { col, index: 9 },
                ep,
                vec![],
                0,
                srcs.as_ref().clone(),
            );
        }
        pe.run(ctx);
    });
    assert_eq!(sim.run(), RunOutcome::Completed);
    for (i, &sz) in sizes.iter().enumerate() {
        assert_eq!(
            sim.world().gpu.pool.read(dsts_check[i]).unwrap(),
            vec![(i + 1) as u8 * 11; sz as usize],
            "buffer {i}"
        );
    }
}

#[test]
fn ampi_ring_all_ranks_large_cluster() {
    // 48 ranks (8 nodes): every rank passes a device token to the next;
    // exercises tag generation across many PEs and the full fabric.
    let topo = Topology::summit(8);
    let mut sim = build_sim(topo.clone(), MachineConfig::default());
    let n = topo.procs();
    let size = 32u64 * 1024;
    let mut bufs = vec![];
    for p in 0..n {
        let m = sim.world_mut();
        let b = m
            .gpu
            .pool
            .alloc_device(topo.device_of(p), size, true)
            .unwrap();
        m.gpu.pool.write(b, &vec![p as u8; size as usize]).unwrap();
        bufs.push(b);
    }
    let recv_bufs: Vec<_> = (0..n)
        .map(|p| {
            sim.world_mut()
                .gpu
                .pool
                .alloc_device(topo.device_of(p), size, true)
                .unwrap()
        })
        .collect();
    let bufs = Arc::new(bufs);
    let rb = Arc::new(recv_bufs);
    let rb_check = rb.clone();
    rucx::ampi::launch(&mut sim, move |mpi, ctx| {
        let me = mpi.rank();
        let n = mpi.size();
        let next = (me + 1) % n;
        let prev = (me + n - 1) % n;
        // Post the receive first to avoid mutual-rendezvous blocking.
        let r = mpi.irecv(ctx, rb[me], prev as i32, 7);
        mpi.send(ctx, bufs[me], next, 7);
        mpi.wait(ctx, r);
        mpi.barrier(ctx);
    });
    assert_eq!(sim.run(), RunOutcome::Completed);
    for p in 0..n {
        let prev = (p + n - 1) % n;
        assert_eq!(
            sim.world().gpu.pool.read(rb_check[p]).unwrap(),
            vec![prev as u8; size as usize],
            "rank {p}"
        );
    }
}

#[test]
fn jacobi_all_models_consistent_compute_time() {
    // The compute portion (overall - comm) is model-independent: the same
    // kernels run everywhere.
    use rucx::jacobi::*;
    let mut computes = vec![];
    for model in [JacobiModel::Charm, JacobiModel::Ampi, JacobiModel::Ompi] {
        let mut cfg = JacobiConfig::weak(1, Mode::Device);
        cfg.iters = 2;
        cfg.warmup = 1;
        let r = run(model, &cfg);
        computes.push(r.overall_ms - r.comm_ms);
    }
    let (min, max) = (
        computes.iter().cloned().fold(f64::MAX, f64::min),
        computes.iter().cloned().fold(f64::MIN, f64::max),
    );
    assert!(
        (max - min) / min < 0.15,
        "compute time should be model-independent: {computes:?}"
    );
}

#[test]
fn gdrcopy_toggle_changes_protocol_choice() {
    // With GDRCopy on, a 1 KiB device message is eager; off, it rendezvous.
    for (on, expect_eager) in [(true, true), (false, false)] {
        let mut mc = MachineConfig::default();
        mc.ucp.gdrcopy_enabled = on;
        let mut sim = build_sim(Topology::summit(1), mc);
        let a = sim
            .world_mut()
            .gpu
            .pool
            .alloc_device(DeviceId(0), 1024, false)
            .unwrap();
        let b = sim
            .world_mut()
            .gpu
            .pool
            .alloc_device(DeviceId(1), 1024, false)
            .unwrap();
        rucx::ompi::launch(&mut sim, move |mpi, ctx| match mpi.rank() {
            0 => mpi.send(ctx, a, 1, 0),
            1 => {
                mpi.recv(ctx, b, 0, 0);
            }
            _ => {}
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        let eager = sim.metrics().get("ucp.eager");
        if expect_eager {
            assert!(eager >= 1, "expected eager path with GDRCopy");
        } else {
            assert_eq!(
                sim.metrics().get("ucp.eager.gdrcopy_read"),
                0,
                "no GDRCopy reads when disabled"
            );
            assert!(sim.metrics().get("ucp.rndv.ipc") >= 1);
        }
    }
}

#[test]
fn device_oom_is_reported() {
    let mut sim = build_sim(Topology::summit(1), MachineConfig::default());
    // Phantom (size-only), so 17 GiB costs the host nothing.
    let size = rucx::gpu::device::DEVICE_MEM + (1 << 30);
    let r = sim
        .world_mut()
        .gpu
        .pool
        .alloc_device(DeviceId(0), size, false);
    assert!(matches!(r, Err(rucx::gpu::MemError::DeviceOom { .. })));
}
