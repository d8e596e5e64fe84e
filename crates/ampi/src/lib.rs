//! # rucx-ampi — Adaptive MPI on the Charm++ runtime
//!
//! An MPI library implemented over [`rucx_charm`] (paper §II-D, §III-C).
//! Each rank is a chare; communication flows through the Charm++ runtime
//! and its UCX machine layer. GPU buffers can be passed directly to
//! `send`/`recv` like any CUDA-aware MPI: the layer detects device pointers
//! with a software cache, wraps them in `CkDeviceBuffer` metadata, ships the
//! data through `LrtsSendDevice`, and posts the receive when the metadata
//! message matches — including the paper's noted limitation that the
//! receive cannot be posted before the metadata arrives.
//!
//! The non-SMP configuration of the paper is reproduced: one rank per PE
//! per GPU (virtualization = 1).

pub mod coll;
pub mod metrics;
pub mod mpi;
pub mod msg;
pub mod rank;

pub use coll::MpiOp;
pub use mpi::{MpiRank, Request};
pub use msg::{
    AmpiMsg, AmpiPayload, Status, ANY_SOURCE, ANY_TAG, MPI_ERR_OTHER, MPI_ERR_TRUNCATE, MPI_SUCCESS,
};
pub use rank::RankState;

use rucx_ucp::{MCtx, MSim};

/// SPMD launch: run `body` as one AMPI rank per simulated process.
pub fn launch<F>(sim: &mut MSim, body: F)
where
    F: Fn(&mut MpiRank, &mut MCtx) + Send + Sync + Clone + 'static,
{
    let n = sim.world().topo.procs();
    for p in 0..n {
        let body = body.clone();
        sim.spawn(format!("rank{p}"), 0, move |ctx| {
            let mut rank = MpiRank::create(p, n);
            body(&mut rank, ctx);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rucx_fabric::Topology;
    use rucx_gpu::{DeviceId, MemRef};
    use rucx_sim::time::{as_us, us};
    use rucx_sim::RunOutcome;
    use rucx_ucp::{build_sim, MSim, MachineConfig};
    use std::sync::Arc;

    fn sim(nodes: usize) -> MSim {
        build_sim(Topology::summit(nodes), MachineConfig::default())
    }

    fn dev_buf(sim: &mut MSim, dev: u32, size: u64) -> MemRef {
        sim.world_mut()
            .gpu
            .pool
            .alloc_device(DeviceId(dev), size, true)
            .unwrap()
    }

    fn host_buf(sim: &mut MSim, node: usize, size: u64) -> MemRef {
        sim.world_mut().gpu.pool.alloc_host(node, size, true, true)
    }

    #[test]
    fn small_host_message_is_inline() {
        let mut sim = sim(1);
        let a = host_buf(&mut sim, 0, 64);
        let b = host_buf(&mut sim, 0, 64);
        sim.world_mut().gpu.pool.write(a, &[7u8; 64]).unwrap();
        launch(&mut sim, move |mpi, ctx| match mpi.rank() {
            0 => mpi.send(ctx, a, 1, 5),
            1 => {
                let st = mpi.recv(ctx, b, 0, 5);
                assert_eq!(st.size, 64);
                assert_eq!(st.src, 0);
                assert_eq!(st.tag, 5);
            }
            _ => {}
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(sim.world().gpu.pool.read(b).unwrap(), vec![7u8; 64]);
        // No zero-copy rendezvous should have happened for the payload.
        assert_eq!(sim.metrics().get("ucp.rndv.ipc"), 0);
    }

    #[test]
    fn large_host_message_uses_zero_copy() {
        let mut sim = sim(1);
        let size = 1u64 << 20;
        let a = host_buf(&mut sim, 0, size);
        let b = host_buf(&mut sim, 0, size);
        let data: Vec<u8> = (0..size).map(|i| (i % 127) as u8).collect();
        sim.world_mut().gpu.pool.write(a, &data).unwrap();
        launch(&mut sim, move |mpi, ctx| match mpi.rank() {
            0 => mpi.send(ctx, a, 1, 0),
            1 => {
                mpi.recv(ctx, b, 0, 0);
            }
            _ => {}
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(sim.world().gpu.pool.read(b).unwrap(), data);
        // CMA path for the intra-node host zero-copy payload.
        assert!(sim.metrics().get("ucp.rndv.cma") >= 1);
    }

    #[test]
    fn device_buffers_go_gpu_direct() {
        let mut sim = sim(2);
        let size = 2u64 << 20;
        let a = dev_buf(&mut sim, 0, size);
        let b = dev_buf(&mut sim, 6, size); // other node
        let data: Vec<u8> = (0..size).map(|i| (i % 241) as u8).collect();
        sim.world_mut().gpu.pool.write(a, &data).unwrap();
        launch(&mut sim, move |mpi, ctx| match mpi.rank() {
            0 => mpi.send(ctx, a, 6, 3),
            6 => {
                let st = mpi.recv(ctx, b, 0, 3);
                assert_eq!(st.size, size);
            }
            _ => {}
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(sim.world().gpu.pool.read(b).unwrap(), data);
        assert_eq!(sim.metrics().get("ucp.rndv.pipeline"), 1);
    }

    #[test]
    fn unexpected_and_posted_paths_both_work() {
        let mut sim = sim(1);
        let a1 = host_buf(&mut sim, 0, 32);
        let a2 = host_buf(&mut sim, 0, 32);
        let b1 = host_buf(&mut sim, 0, 32);
        let b2 = host_buf(&mut sim, 0, 32);
        sim.world_mut().gpu.pool.write(a1, &[1u8; 32]).unwrap();
        sim.world_mut().gpu.pool.write(a2, &[2u8; 32]).unwrap();
        launch(&mut sim, move |mpi, ctx| match mpi.rank() {
            0 => {
                // First send arrives before the recv is posted (unexpected);
                // for the second, rank 1 posts early (posted path).
                mpi.send(ctx, a1, 1, 1);
                ctx.advance(us(100.0));
                mpi.send(ctx, a2, 1, 2);
            }
            1 => {
                ctx.advance(us(50.0));
                mpi.recv(ctx, b1, 0, 1);
                mpi.recv(ctx, b2, 0, 2);
            }
            _ => {}
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(sim.world().gpu.pool.read(b1).unwrap(), vec![1u8; 32]);
        assert_eq!(sim.world().gpu.pool.read(b2).unwrap(), vec![2u8; 32]);
    }

    #[test]
    fn any_source_any_tag() {
        let mut sim = sim(1);
        let bufs: Vec<MemRef> = (0..3).map(|_| host_buf(&mut sim, 0, 8)).collect();
        let recv_bufs: Vec<MemRef> = (0..3).map(|_| host_buf(&mut sim, 0, 8)).collect();
        let b = Arc::new(bufs);
        let rb = Arc::new(recv_bufs);
        launch(&mut sim, move |mpi, ctx| {
            let r = mpi.rank();
            if (1..=3).contains(&r) {
                mpi.send(ctx, b[r - 1], 0, r as i32 * 10);
            } else if r == 0 {
                let mut seen = std::collections::HashSet::new();
                for i in 0..3 {
                    let st = mpi.recv(ctx, rb[i], ANY_SOURCE, ANY_TAG);
                    assert_eq!(st.tag, st.src * 10);
                    seen.insert(st.src);
                }
                assert_eq!(seen.len(), 3);
            }
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
    }

    #[test]
    fn window_isend_irecv_waitall_no_deadlock() {
        // Both ranks send a window of large device messages to each other
        // simultaneously, then wait — exercises scheduler pumping inside
        // MPI_Wait (a plain trigger wait would deadlock).
        let mut sim = sim(1);
        let size = 256u64 << 10;
        let window = 8;
        let mut send0 = vec![];
        let mut recv0 = vec![];
        let mut send1 = vec![];
        let mut recv1 = vec![];
        for _ in 0..window {
            send0.push(dev_buf(&mut sim, 0, size));
            recv0.push(dev_buf(&mut sim, 0, size));
            send1.push(dev_buf(&mut sim, 1, size));
            recv1.push(dev_buf(&mut sim, 1, size));
        }
        let (s0, r0, s1, r1) = (
            Arc::new(send0),
            Arc::new(recv0),
            Arc::new(send1),
            Arc::new(recv1),
        );
        launch(&mut sim, move |mpi, ctx| {
            let (sends, recvs, peer) = match mpi.rank() {
                0 => (s0.clone(), r0.clone(), 1usize),
                1 => (s1.clone(), r1.clone(), 0usize),
                _ => return,
            };
            let mut reqs = vec![];
            for i in 0..sends.len() {
                reqs.push(mpi.irecv(ctx, recvs[i], peer as i32, i as i32));
            }
            for (i, s) in sends.iter().enumerate() {
                reqs.push(mpi.isend(ctx, *s, peer, i as i32));
            }
            mpi.waitall(ctx, &reqs);
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(sim.metrics().get("ucp.rndv.ipc"), 2 * window as u64);
    }

    #[test]
    fn large_then_small_from_same_source_stay_ordered() {
        // Regression: a 16 KiB inline payload makes the *envelope* exceed
        // the host eager threshold, so it travels rendezvous and its bytes
        // are re-injected asynchronously — while the next (small) envelope
        // arrives eagerly and used to overtake it. MPI non-overtaking
        // requires the wildcard receives to complete in send order.
        let mut sim = sim(1);
        let big = host_buf(&mut sim, 0, 16 * 1024);
        let small = host_buf(&mut sim, 0, 8);
        let rb1 = host_buf(&mut sim, 0, 16 * 1024);
        let rb2 = host_buf(&mut sim, 0, 16 * 1024);
        sim.world_mut()
            .gpu
            .pool
            .write(big, &vec![0xAB; 16 * 1024])
            .unwrap();
        sim.world_mut().gpu.pool.write(small, &[0xCD; 8]).unwrap();
        launch(&mut sim, move |mpi, ctx| match mpi.rank() {
            0 => {
                mpi.send(ctx, big, 1, 1);
                mpi.send(ctx, small, 1, 2);
            }
            1 => {
                ctx.advance(us(300.0));
                let st1 = mpi.recv(ctx, rb1, ANY_SOURCE, ANY_TAG);
                let st2 = mpi.recv(ctx, rb2, ANY_SOURCE, ANY_TAG);
                assert_eq!(
                    (st1.tag, st2.tag),
                    (1, 2),
                    "send order violated: got sizes {} then {}",
                    st1.size,
                    st2.size
                );
                assert_eq!(st1.size, 16 * 1024);
                assert_eq!(st2.size, 8);
            }
            _ => {}
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(sim.world().gpu.pool.read(rb2).unwrap()[..8], [0xCD; 8]);
        assert_eq!(
            sim.metrics().get("ampi.reorder.held"),
            1,
            "the small envelope waits in the stash for the large one"
        );
    }

    #[test]
    fn inline_truncation_reported_in_status() {
        let mut sim = sim(1);
        let a = host_buf(&mut sim, 0, 64);
        let b = host_buf(&mut sim, 0, 32);
        let data: Vec<u8> = (0..64).collect();
        sim.world_mut().gpu.pool.write(a, &data).unwrap();
        launch(&mut sim, move |mpi, ctx| match mpi.rank() {
            0 => mpi.send(ctx, a, 1, 5),
            1 => {
                let st = mpi.recv(ctx, b, 0, 5);
                assert_eq!(st.size, 64, "status reports the full wire size");
                assert_eq!(st.error, MPI_ERR_TRUNCATE);
            }
            _ => {}
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        // The prefix that fit was delivered intact.
        assert_eq!(sim.world().gpu.pool.read(b).unwrap(), data[..32]);
    }

    #[test]
    fn zero_copy_truncation_reported_in_status() {
        let mut sim = sim(1);
        let size = 1u64 << 20;
        let a = dev_buf(&mut sim, 0, size);
        let b = dev_buf(&mut sim, 1, size / 2);
        launch(&mut sim, move |mpi, ctx| match mpi.rank() {
            0 => mpi.send(ctx, a, 1, 0),
            1 => {
                let st = mpi.recv(ctx, b, 0, 0);
                assert_eq!(st.size, size);
                assert_eq!(st.error, MPI_ERR_TRUNCATE);
            }
            _ => {}
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        // The UCP layer saw (and counted) the same truncation.
        assert_eq!(sim.metrics().get("ucp.truncated"), 1);
    }

    #[test]
    fn exact_fit_recv_is_success() {
        let mut sim = sim(1);
        let a = host_buf(&mut sim, 0, 64);
        let b = host_buf(&mut sim, 0, 64);
        launch(&mut sim, move |mpi, ctx| match mpi.rank() {
            0 => mpi.send(ctx, a, 1, 5),
            1 => {
                let st = mpi.recv(ctx, b, 0, 5);
                assert_eq!(st.error, MPI_SUCCESS);
            }
            _ => {}
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
    }

    #[test]
    fn probe_status_identifies_the_message_recv_then_matches() {
        // Probe with wildcards, then receive with the returned (src, tag):
        // the receive must complete with the probed message (same size),
        // for every message — probe/recv consistency under FIFO matching.
        let mut sim = sim(1);
        let sbufs: Vec<MemRef> = (1..=3).map(|r| host_buf(&mut sim, 0, 16 * r)).collect();
        let rb = host_buf(&mut sim, 0, 64);
        launch(&mut sim, move |mpi, ctx| {
            let r = mpi.rank();
            if (1..=3).contains(&r) {
                mpi.send(ctx, sbufs[r - 1], 0, r as i32 * 7);
            } else if r == 0 {
                assert!(mpi.iprobe(ctx, 5, 99).is_none());
                for _ in 0..3 {
                    let st = mpi.probe(ctx, ANY_SOURCE, ANY_TAG);
                    let got = mpi.recv(ctx, rb, st.src, st.tag);
                    assert_eq!((got.src, got.tag, got.size), (st.src, st.tag, st.size));
                    assert_eq!(got.size, 16 * st.src as u64);
                }
            }
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
    }

    #[test]
    fn barrier_synchronizes_all_ranks() {
        let mut sim = sim(1);
        let reached = Arc::new(rucx_compat::sync::Mutex::new(Vec::<(usize, u64)>::new()));
        let reached2 = reached.clone();
        launch(&mut sim, move |mpi, ctx| {
            // Stagger arrival times.
            ctx.advance(us(10.0 * mpi.rank() as f64));
            mpi.barrier(ctx);
            reached2.lock().push((mpi.rank(), ctx.now()));
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        let v = reached.lock();
        assert_eq!(v.len(), 6);
        let latest_entry = us(50.0); // slowest rank enters at 50us
        for &(_, t) in v.iter() {
            assert!(t >= latest_entry, "barrier exited before slowest entry");
        }
    }

    #[test]
    fn unreachable_peer_reported_as_mpi_err_other() {
        // A permanent inter-node partition with a small retry budget: the
        // send's MPI_Wait completes (never hangs) and reports the failure
        // as an MPI_ERR_OTHER status instead of succeeding silently.
        let mut spec = rucx_fault::FaultSpec::default();
        spec.partitions.push(rucx_fault::PartitionWindow {
            from: 0,
            until: u64::MAX,
        });
        let mut cfg = MachineConfig::default();
        cfg.ucp.max_retries = 2;
        cfg.fault = Some(spec);
        let mut sim = build_sim(Topology::summit(2), cfg);
        let a = dev_buf(&mut sim, 0, 2 << 20);
        let got = Arc::new(rucx_compat::sync::Mutex::new(None));
        let got2 = got.clone();
        launch(&mut sim, move |mpi, ctx| {
            if mpi.rank() == 0 {
                let req = mpi.isend(ctx, a, 6, 3);
                *got2.lock() = mpi.wait(ctx, req);
            }
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        let st = got.lock().take().expect("failed send must yield a status");
        assert_eq!(st.error, MPI_ERR_OTHER);
        assert_eq!(st.src, 6, "status names the unreachable peer");
        assert_eq!(st.size, 0);
        assert!(sim.metrics().get("ucp.unreachable") >= 1);
    }

    #[test]
    fn chaos_drop_run_still_delivers_correct_data() {
        // 30% drop on every link: AMPI traffic (inline envelopes + zero-copy
        // rendezvous) is fully recovered by the reliability layer.
        let mut spec = rucx_fault::FaultSpec::default();
        spec.seed = 23;
        spec.drop_p = 0.3;
        let mut cfg = MachineConfig::default();
        cfg.fault = Some(spec);
        let mut sim = build_sim(Topology::summit(2), cfg);
        let size = 1u64 << 20;
        let small = host_buf(&mut sim, 0, 64);
        let big = dev_buf(&mut sim, 0, size);
        let rb_small = host_buf(&mut sim, 1, 64);
        let rb_big = dev_buf(&mut sim, 6, size);
        sim.world_mut().gpu.pool.write(small, &[0x5A; 64]).unwrap();
        let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        let d2 = data.clone();
        sim.world_mut().gpu.pool.write(big, &d2).unwrap();
        launch(&mut sim, move |mpi, ctx| match mpi.rank() {
            0 => {
                let r1 = mpi.isend(ctx, small, 6, 1);
                assert!(mpi.wait(ctx, r1).is_none());
                let r2 = mpi.isend(ctx, big, 6, 2);
                assert!(mpi.wait(ctx, r2).is_none());
            }
            6 => {
                assert_eq!(mpi.recv(ctx, rb_small, 0, 1).error, MPI_SUCCESS);
                assert_eq!(mpi.recv(ctx, rb_big, 0, 2).error, MPI_SUCCESS);
            }
            _ => {}
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(sim.world().gpu.pool.read(rb_small).unwrap(), vec![0x5A; 64]);
        assert_eq!(sim.world().gpu.pool.read(rb_big).unwrap(), data);
        assert!(sim.metrics().get("fault.drop") > 0);
        assert_eq!(sim.metrics().get("ucp.unreachable"), 0);
    }

    #[test]
    fn isend_from_freed_handle_reports_mpi_err_other() {
        // Freeing a buffer and then sending it is a caller error; the rank
        // must survive it and report MPI_ERR_OTHER at MPI_Wait, not crash.
        let mut sim = sim(1);
        let a = host_buf(&mut sim, 0, 64);
        let got = Arc::new(rucx_compat::sync::Mutex::new(None));
        let got2 = got.clone();
        launch(&mut sim, move |mpi, ctx| {
            if mpi.rank() == 0 {
                ctx.with_world(move |w, _| w.gpu.pool.free(a.id).unwrap());
                let req = mpi.isend(ctx, a, 1, 9);
                *got2.lock() = mpi.wait(ctx, req);
            }
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        let st = got.lock().take().expect("bad-handle send yields a status");
        assert_eq!(st.error, MPI_ERR_OTHER);
        assert_eq!(st.size, 0);
    }

    #[test]
    fn ping_pong_latency_in_ampi_range() {
        // Small device message one-way latency should land in the ~8-12us
        // band the paper attributes to AMPI (vs ~2-3us for OpenMPI).
        let mut sim = sim(1);
        let a = dev_buf(&mut sim, 0, 8);
        let b = dev_buf(&mut sim, 1, 8);
        let out = Arc::new(rucx_compat::sync::Mutex::new(0u64));
        let out2 = out.clone();
        launch(&mut sim, move |mpi, ctx| match mpi.rank() {
            0 => {
                let iters = 20;
                let t0 = ctx.now();
                for i in 0..iters {
                    mpi.send(ctx, a, 1, i);
                    mpi.recv(ctx, a, 1, i);
                }
                *out2.lock() = (ctx.now() - t0) / (2 * iters as u64);
            }
            1 => {
                for i in 0..20 {
                    mpi.recv(ctx, b, 0, i);
                    mpi.send(ctx, b, 0, i);
                }
            }
            _ => {}
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        let lat = *out.lock();
        assert!(
            lat > us(5.0) && lat < us(16.0),
            "AMPI small-device latency {}us out of expected band",
            as_us(lat)
        );
    }
}
