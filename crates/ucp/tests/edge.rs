//! Edge cases of the UCP layer: zero-size messages, self-sends, threshold
//! boundaries, truncation, trigger recycling under churn, and the events a
//! pipelined rendezvous queues.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rucx_fabric::Topology;
use rucx_gpu::{DeviceId, MemRef};
use rucx_ucp::{blocking, build_sim, MSim, MachineConfig, SendBuf, MASK_FULL};

fn sim1() -> MSim {
    build_sim(Topology::summit(1), MachineConfig::default())
}

fn host(sim: &mut MSim, size: u64) -> MemRef {
    sim.world_mut()
        .gpu
        .pool
        .alloc_host(0, size.max(1), true, true)
}

#[test]
fn zero_size_message_completes() {
    let mut sim = sim1();
    let a = host(&mut sim, 1);
    let b = host(&mut sim, 1);
    sim.spawn("s", 0, move |ctx| {
        blocking::send(ctx, 0, 1, SendBuf::Mem(a.slice(0, 0)), 1);
    });
    sim.spawn("r", 0, move |ctx| {
        let info = blocking::recv(ctx, 1, b.slice(0, 0), 1, MASK_FULL);
        assert_eq!(info.size, 0);
    });
    rucx_ucp::finish(&mut sim).unwrap();
}

#[test]
fn self_send_works() {
    let mut sim = sim1();
    let a = host(&mut sim, 64);
    let b = host(&mut sim, 64);
    sim.world_mut().gpu.pool.write(a, &[0x42; 64]).unwrap();
    sim.spawn("p", 0, move |ctx| {
        // Post the receive first, then send to self.
        let done = ctx.with_world(move |w, s| {
            let t = s.new_trigger();
            rucx_ucp::tag_recv_nb(
                w,
                s,
                0,
                b,
                9,
                MASK_FULL,
                rucx_ucp::RecvCompletion::Trigger(t),
            );
            rucx_ucp::tag_send_nb(w, s, 0, 0, SendBuf::Mem(a), 9, rucx_ucp::Completion::None);
            t
        });
        ctx.wait(done);
    });
    rucx_ucp::finish(&mut sim).unwrap();
    assert_eq!(sim.world().gpu.pool.read(b).unwrap(), vec![0x42; 64]);
}

#[test]
fn eager_threshold_boundary_is_inclusive() {
    // Exactly at the device eager threshold: still eager. One byte more:
    // rendezvous.
    let thresh = MachineConfig::default().ucp.eager_thresh_device;
    for (size, expect_eager) in [(thresh, true), (thresh + 1, false)] {
        let mut sim = sim1();
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
            .alloc_device(DeviceId(1), size, false)
            .unwrap();
        sim.spawn("s", 0, move |ctx| {
            blocking::send(ctx, 0, 1, SendBuf::Mem(a), 4);
        });
        sim.spawn("r", 0, move |ctx| {
            blocking::recv(ctx, 1, b, 4, MASK_FULL);
        });
        rucx_ucp::finish(&mut sim).unwrap();
        let eager = sim.metrics().get("ucp.eager");
        if expect_eager {
            assert_eq!(eager, 1, "size {size} must be eager");
        } else {
            assert_eq!(eager, 0, "size {size} must rendezvous");
            assert_eq!(sim.metrics().get("ucp.rndv"), 1);
        }
    }
}

#[test]
fn rndv_truncates_into_smaller_buffer() {
    // Receive buffer smaller than the incoming rendezvous message: the
    // available prefix is delivered (MPI would flag truncation; the wire
    // layer must not corrupt memory).
    let mut sim = sim1();
    let big = 128u64 << 10;
    let small = 64u64 << 10;
    let a = host(&mut sim, big);
    let b = host(&mut sim, small);
    let data: Vec<u8> = (0..big).map(|i| (i % 101) as u8).collect();
    sim.world_mut().gpu.pool.write(a, &data).unwrap();
    sim.spawn("s", 0, move |ctx| {
        blocking::send(ctx, 0, 1, SendBuf::Mem(a), 2);
    });
    sim.spawn("r", 0, move |ctx| {
        let info = blocking::recv(ctx, 1, b, 2, MASK_FULL);
        assert_eq!(info.size, big, "status reports the wire size");
    });
    rucx_ucp::finish(&mut sim).unwrap();
    assert_eq!(
        sim.world().gpu.pool.read(b).unwrap(),
        data[..small as usize].to_vec()
    );
}

#[test]
fn trigger_recycling_survives_churn() {
    // Thousands of send/recv pairs reuse recycled trigger slots; any
    // aliasing bug (waking the wrong waiter) would deadlock or corrupt.
    let mut sim = sim1();
    let a = host(&mut sim, 8);
    let b = host(&mut sim, 8);
    sim.spawn("s", 0, move |ctx| {
        for i in 0..2000u64 {
            blocking::send(ctx, 0, 1, SendBuf::Mem(a), i);
        }
    });
    sim.spawn("r", 0, move |ctx| {
        for i in 0..2000u64 {
            let info = blocking::recv(ctx, 1, b, i, MASK_FULL);
            assert_eq!(info.tag, i);
        }
    });
    rucx_ucp::finish(&mut sim).unwrap();
}

#[test]
fn wildcard_recv_takes_oldest_arrival() {
    let mut sim = sim1();
    let bufs: Vec<MemRef> = (0..3).map(|_| host(&mut sim, 8)).collect();
    for (i, s) in bufs.iter().enumerate() {
        sim.world_mut()
            .gpu
            .pool
            .write(*s, &[(i + 1) as u8; 8])
            .unwrap();
    }
    let dst = host(&mut sim, 8);
    let srcs = bufs.clone();
    sim.spawn("s", 0, move |ctx| {
        for (i, s) in srcs.iter().enumerate() {
            blocking::send(ctx, 0, 1, SendBuf::Mem(*s), 100 + i as u64);
        }
    });
    sim.spawn("r", rucx_sim::time::us(50.0), move |ctx| {
        // All three are already queued; a zero-mask receive must match the
        // first arrival.
        let info = blocking::recv(ctx, 1, dst, 0, rucx_ucp::MASK_NONE);
        assert_eq!(info.tag, 100);
        let got = ctx.with_world_ref(|w, _| w.gpu.pool.read(dst).unwrap());
        assert_eq!(got, vec![1u8; 8]);
    });
    rucx_ucp::finish(&mut sim).unwrap();
}

/// A 6 MiB inter-node device rendezvous rides the pipelined host-staging
/// path in 12 chunks (512 KiB each). The receive lands when the last chunk's
/// H2D copy ends, and the run queues no event that decides nothing: a chunk
/// completion that only counted down would leave the time alone and raise
/// the event count.
#[test]
fn pipelined_rendezvous_queues_only_deciding_events() {
    let mut sim = build_sim(Topology::summit(2), MachineConfig::default());
    let size = 6u64 << 20;
    let pool = &mut sim.world_mut().gpu.pool;
    let a = pool.alloc_device(DeviceId(0), size, false).unwrap();
    let b = pool.alloc_device(DeviceId(6), size, false).unwrap();
    let landed = Arc::new(AtomicU64::new(0));
    let at = landed.clone();
    sim.spawn("s", 0, move |ctx| {
        blocking::send(ctx, 0, 6, SendBuf::Mem(a), 3);
    });
    sim.spawn("r", 0, move |ctx| {
        blocking::recv(ctx, 6, b, 3, MASK_FULL);
        at.store(ctx.now(), Ordering::Relaxed);
    });
    rucx_ucp::finish(&mut sim).unwrap();
    assert_eq!(sim.metrics().get("ucp.pipeline_chunks"), 12);
    let landed = landed.load(Ordering::Relaxed);
    let events = sim.scheduler_ref().events_executed();
    // 545.509 us in 32 events; a queued completion per chunk would land
    // at the same instant in 43.
    assert_eq!(landed, 545_509);
    assert_eq!(events, 32);
}
