//! Edge cases of the UCP layer: zero-size messages, self-sends, threshold
//! boundaries, truncation, and trigger recycling under churn.

use rucx_fabric::Topology;
use rucx_gpu::{DeviceId, MemRef};
use rucx_sim::RunOutcome;
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
    assert_eq!(sim.run(), RunOutcome::Completed);
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
    assert_eq!(sim.run(), RunOutcome::Completed);
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
        assert_eq!(sim.run(), RunOutcome::Completed);
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
    assert_eq!(sim.run(), RunOutcome::Completed);
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
    assert_eq!(sim.run(), RunOutcome::Completed);
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
    assert_eq!(sim.run(), RunOutcome::Completed);
}
