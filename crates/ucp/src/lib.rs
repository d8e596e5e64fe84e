//! # rucx-ucp — UCX-like communication framework over the simulated fabric
//!
//! The simulation analogue of UCX's UCP layer (§II-B of the paper): 64-bit
//! tag matching with masks, eager and rendezvous protocols, and GPU-aware
//! transports — GDRCopy bounce buffers for small device messages, CUDA-IPC
//! peer DMA for intra-node rendezvous, RDMA for host data, and the pipelined
//! host-staging path for large inter-node device transfers.
//!
//! This crate also defines the concrete simulated world, [`Machine`]
//! (GPU subsystem + network + UCP state), that every programming-model layer
//! above (Charm++, AMPI, Charm4py, OpenMPI) runs on.

pub mod config;
pub mod engine;
pub mod error;
pub mod health;
pub mod machine;
pub mod metrics;
pub mod order;
pub mod proto;
pub mod reg;
pub(crate) mod reliable;
pub mod tag;
pub mod worker;

pub use config::UcpConfig;
pub use error::{Protocol, UcpError};
pub use health::{EpState, HealthState};
pub use machine::{
    audit, build_sim, finish, run, Leak, MCtx, MSim, Machine, MachineConfig, ResultCell, RunError,
    UcpSubsystem,
};
pub use proto::{
    inject_local, probe_pop, reg_invalidate, rndv_fetch, tag_recv_nb, tag_send_nb, FetchDst,
    PoppedMsg, SendBuf,
};
pub use reg::RegCache;
pub use tag::{tag_matches, Tag, TagMask, MASK_FULL, MASK_NONE};
pub use worker::{Completion, MSched, RecvCompletion, RecvInfo, Worker};

use rucx_gpu::MemRef;

/// Blocking conveniences for simulated-process code (MPI-style layers).
pub mod blocking {
    use super::*;

    /// Send and wait for local completion (eager: buffered; rendezvous:
    /// remote data fetched). Models the `ucp_tag_send_nb` CPU call cost.
    pub fn send(ctx: &mut MCtx, src: usize, dst: usize, buf: SendBuf, tag: Tag) {
        let done = ctx.with_world(move |w, s| {
            let t = s.new_trigger();
            tag_send_nb(w, s, src, dst, buf, tag, Completion::Trigger(t));
            t
        });
        ctx.advance(config::CPU_CALL);
        ctx.wait(done);
        ctx.with_world(move |_, s| s.recycle_trigger(done));
    }

    /// Post a receive and wait for the data. Returns `(src, tag, size)`.
    pub fn recv(ctx: &mut MCtx, proc: usize, buf: MemRef, tag: Tag, mask: TagMask) -> RecvInfo {
        let info = std::sync::Arc::new(rucx_compat::sync::Mutex::new(None::<RecvInfo>));
        let info2 = info.clone();
        let done = ctx.with_world(move |w, s| {
            let t = s.new_trigger();
            tag_recv_nb(
                w,
                s,
                proc,
                buf,
                tag,
                mask,
                RecvCompletion::Callback(Box::new(move |_, s, i| {
                    *info2.lock() = Some(i);
                    s.fire(t);
                })),
            );
            t
        });
        ctx.advance(config::CPU_CALL);
        ctx.wait(done);
        ctx.with_world(move |_, s| s.recycle_trigger(done));
        // The recv completion callback stores `info` before firing the
        // trigger `wait` blocks on; a zero-size record is the defensive
        // fallback if a runtime layer completes the trigger another way.
        let i = info.lock().take();
        i.unwrap_or(RecvInfo {
            src: proc,
            tag,
            size: 0,
            truncated: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rucx_fabric::Topology;
    use rucx_gpu::DeviceId;
    use rucx_sim::time::{as_us, us};

    fn sim2nodes() -> MSim {
        build_sim(Topology::summit(2), MachineConfig::default())
    }

    fn alloc_dev(sim: &mut MSim, dev: u32, size: u64) -> MemRef {
        sim.world_mut()
            .gpu
            .pool
            .alloc_device(DeviceId(dev), size, true)
            .unwrap()
    }

    fn alloc_host(sim: &mut MSim, node: usize, size: u64) -> MemRef {
        sim.world_mut().gpu.pool.alloc_host(node, size, true, true)
    }

    fn pattern(n: usize, seed: u8) -> Vec<u8> {
        (0..n)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    /// Run a 2-process send/recv of `size` bytes and return (elapsed_ns,
    /// received bytes).
    fn p2p_roundtrip(sim: &mut MSim, src_buf: MemRef, dst_buf: MemRef, a: usize, b: usize) -> u64 {
        let done_at = std::sync::Arc::new(rucx_compat::sync::Mutex::new(0u64));
        let done2 = done_at.clone();
        sim.spawn("sender", 0, move |ctx| {
            blocking::send(ctx, a, b, SendBuf::Mem(src_buf), 42);
        });
        sim.spawn("receiver", 0, move |ctx| {
            let info = blocking::recv(ctx, b, dst_buf, 42, MASK_FULL);
            assert_eq!(info.src, a);
            assert_eq!(info.tag, 42);
            *done2.lock() = ctx.now();
        });
        finish(sim).unwrap();
        let t = *done_at.lock();
        t
    }

    #[test]
    fn host_eager_intra_node_delivers_data() {
        let mut sim = sim2nodes();
        let a = alloc_host(&mut sim, 0, 1024);
        let b = alloc_host(&mut sim, 0, 1024);
        let data = pattern(1024, 3);
        sim.world_mut().gpu.pool.write(a, &data).unwrap();
        let t = p2p_roundtrip(&mut sim, a, b, 0, 1);
        assert_eq!(sim.world().gpu.pool.read(b).unwrap(), data);
        assert_eq!(sim.metrics().get("ucp.eager"), 1);
        // Small host message: ~1 us including call costs.
        assert!(t < us(3.0), "latency {}us", as_us(t));
    }

    #[test]
    fn host_rndv_inter_node_delivers_data() {
        let mut sim = sim2nodes();
        let size = 1 << 20;
        let a = alloc_host(&mut sim, 0, size);
        let b = alloc_host(&mut sim, 1, size);
        let data = pattern(size as usize, 9);
        sim.world_mut().gpu.pool.write(a, &data).unwrap();
        let t = p2p_roundtrip(&mut sim, a, b, 0, 6);
        assert_eq!(sim.world().gpu.pool.read(b).unwrap(), data);
        assert_eq!(sim.metrics().get("ucp.rndv"), 1);
        assert_eq!(sim.metrics().get("ucp.rndv.rdma"), 1);
        // 1 MiB at 12.2 GB/s ≈ 86 us + control.
        assert!(t > us(80.0) && t < us(120.0), "latency {}us", as_us(t));
    }

    /// Regression: freeing the send-side buffer while its rendezvous is in
    /// flight used to panic the whole simulation ("rndv src freed"). It must
    /// instead surface `InvalidHandle` at both workers, complete the receive
    /// with a zero-size status, and complete the sender's request.
    #[test]
    fn rndv_src_freed_mid_flight_surfaces_invalid_handle() {
        let mut sim = sim2nodes();
        let size = 1u64 << 20;
        let a = alloc_host(&mut sim, 0, size);
        let b = alloc_host(&mut sim, 1, size);
        sim.spawn("sender", 0, move |ctx| {
            // Completes via the error path: the fetch can never happen, so
            // the receiver acks the sender when it rejects the RTS.
            blocking::send(ctx, 0, 6, SendBuf::Mem(a), 7);
        });
        sim.spawn("receiver", 0, move |ctx| {
            // Let the RTS arrive, then free the *source* buffer before
            // posting the receive that would fetch from it.
            ctx.advance(us(20.0));
            ctx.with_world(move |w, _| w.gpu.pool.free(a.id).unwrap());
            let info = blocking::recv(ctx, 6, b, 7, MASK_FULL);
            assert_eq!(info.size, 0, "failed rendezvous must deliver nothing");
        });
        finish(&mut sim).unwrap_or_else(|e| panic!("no hang, no panic: {e}"));
        assert!(sim.metrics().get("ucp.bad_handle") >= 1);
        let w = sim.world_mut();
        for p in [0usize, 6] {
            match w.ucp.take_worker_error(p) {
                Some(UcpError::InvalidHandle { op, .. }) => assert_eq!(op, "rndv src"),
                other => panic!("worker {p}: expected InvalidHandle, got {other:?}"),
            }
        }
    }

    /// The registration cost model: the first message on an endpoint pays
    /// wireup + buffer mapping, repeats hit the cache, and freeing mapped
    /// buffers keeps `miss - evict == live` (the leak gate).
    #[test]
    fn reg_model_first_touch_pays_then_caches() {
        let mut cfg = MachineConfig::default();
        cfg.ucp.reg_model = true;
        let mut sim = build_sim(Topology::summit(1), cfg);
        let a = alloc_host(&mut sim, 0, 4096);
        let b = alloc_host(&mut sim, 0, 4096);
        let durs = std::sync::Arc::new(rucx_compat::sync::Mutex::new(Vec::new()));
        let durs2 = durs.clone();
        sim.spawn("sender", 0, move |ctx| {
            for _ in 0..2 {
                let t0 = ctx.now();
                blocking::send(ctx, 0, 1, SendBuf::Mem(a), 9);
                durs2.lock().push(ctx.now() - t0);
            }
        });
        sim.spawn("receiver", 0, move |ctx| {
            for _ in 0..2 {
                blocking::recv(ctx, 1, b, 9, MASK_FULL);
            }
        });
        finish(&mut sim).unwrap();
        let d = durs.lock().clone();
        assert!(
            d[0] >= d[1] + config::EP_SETUP,
            "first send must pay wireup: {} vs {}",
            as_us(d[0]),
            as_us(d[1])
        );
        assert_eq!(sim.metrics().get("ucp.ep.miss"), 1);
        assert_eq!(sim.metrics().get("ucp.ep.hit"), 1);
        assert_eq!(sim.metrics().get("ucp.reg.miss"), 2); // bufs a and b
        assert_eq!(sim.metrics().get("ucp.reg.hit"), 2);
        assert_eq!(sim.metrics().get("ucp.reg.evict"), 0);
        assert_eq!(sim.world().ucp.reg.live_mappings(), 2);
        // Freeing a mapped buffer tears down its registration.
        sim.with_parts(|w, s| {
            reg_invalidate(w, s, a.id);
            reg_invalidate(w, s, b.id);
        });
        let miss = sim.metrics().get("ucp.reg.miss");
        let evict = sim.metrics().get("ucp.reg.evict");
        assert_eq!(miss - evict, 0);
        assert_eq!(sim.world().ucp.reg.live_mappings(), 0);
    }

    /// Pre-mapped pool allocations never pay registration latency and are
    /// counted as hits (plus the gpu-side premapped counter).
    #[test]
    fn reg_model_premapped_buffers_always_hit() {
        let mut cfg = MachineConfig::default();
        cfg.ucp.reg_model = true;
        let mut sim = build_sim(Topology::summit(1), cfg);
        let a = alloc_host(&mut sim, 0, 2048);
        let b = alloc_host(&mut sim, 0, 2048);
        sim.world_mut().gpu.pool.set_premapped(a.id).unwrap();
        sim.world_mut().gpu.pool.set_premapped(b.id).unwrap();
        sim.spawn("sender", 0, move |ctx| {
            blocking::send(ctx, 0, 1, SendBuf::Mem(a), 5);
        });
        sim.spawn("receiver", 0, move |ctx| {
            blocking::recv(ctx, 1, b, 5, MASK_FULL);
        });
        finish(&mut sim).unwrap();
        assert_eq!(sim.metrics().get("ucp.reg.miss"), 0);
        assert_eq!(sim.metrics().get("ucp.reg.hit"), 2);
        assert_eq!(sim.metrics().get("gpu.pool.premapped_hit"), 2);
        assert_eq!(sim.world().ucp.reg.live_mappings(), 0);
    }

    #[test]
    fn device_eager_gdrcopy_small_latency() {
        let mut sim = sim2nodes();
        let a = alloc_dev(&mut sim, 0, 8);
        let b = alloc_dev(&mut sim, 1, 8);
        sim.world_mut().gpu.pool.write(a, &[5u8; 8]).unwrap();
        let t = p2p_roundtrip(&mut sim, a, b, 0, 1);
        assert_eq!(sim.world().gpu.pool.read(b).unwrap(), vec![5u8; 8]);
        assert_eq!(sim.metrics().get("ucp.eager"), 1);
        assert_eq!(sim.metrics().get("ucp.eager.gdrcopy_read"), 1);
        assert_eq!(sim.metrics().get("ucp.eager.gdrcopy_write"), 1);
        // Small device message with GDRCopy: a few microseconds.
        assert!(t < us(4.0), "latency {}us", as_us(t));
    }

    #[test]
    fn device_rndv_intra_uses_ipc() {
        let mut sim = sim2nodes();
        let size = 4u64 << 20;
        let a = alloc_dev(&mut sim, 0, size);
        let b = alloc_dev(&mut sim, 1, size);
        let data = pattern(size as usize, 1);
        sim.world_mut().gpu.pool.write(a, &data).unwrap();
        let t = p2p_roundtrip(&mut sim, a, b, 0, 1);
        assert_eq!(sim.world().gpu.pool.read(b).unwrap(), data);
        assert_eq!(sim.metrics().get("ucp.rndv.ipc"), 1);
        // 4 MiB over NVLink at 44 GB/s ≈ 95 us.
        assert!(t > us(90.0) && t < us(120.0), "latency {}us", as_us(t));
    }

    #[test]
    fn device_rndv_inter_uses_pipeline() {
        let mut sim = sim2nodes();
        let size = 4u64 << 20;
        let a = alloc_dev(&mut sim, 0, size);
        let b = alloc_dev(&mut sim, 6, size);
        let data = pattern(size as usize, 7);
        sim.world_mut().gpu.pool.write(a, &data).unwrap();
        let t = p2p_roundtrip(&mut sim, a, b, 0, 6);
        assert_eq!(sim.world().gpu.pool.read(b).unwrap(), data);
        assert_eq!(sim.metrics().get("ucp.rndv.pipeline"), 1);
        assert_eq!(sim.metrics().get("ucp.pipeline_chunks"), 8);
        // Net-bound pipeline: ≈ size/12.2 GB/s + one chunk fill/drain
        // (~355 us), well below the unpipelined ~550 us.
        assert!(t > us(330.0) && t < us(460.0), "latency {}us", as_us(t));
    }

    #[test]
    fn gdrcopy_disabled_forces_rendezvous_for_tiny_device_msgs() {
        let mut cfg = MachineConfig::default();
        cfg.ucp.gdrcopy_enabled = false;
        let mut sim = build_sim(Topology::summit(2), cfg);
        let a = alloc_dev(&mut sim, 0, 8);
        let b = alloc_dev(&mut sim, 1, 8);
        let t = p2p_roundtrip(&mut sim, a, b, 0, 1);
        assert_eq!(sim.metrics().get("ucp.eager"), 0);
        assert_eq!(sim.metrics().get("ucp.rndv.ipc"), 1);
        // Without GDRCopy even 8-byte messages pay RTS + DMA setup.
        assert!(t > us(2.5), "latency {}us", as_us(t));
    }

    #[test]
    fn unexpected_eager_then_recv() {
        let mut sim = sim2nodes();
        let a = alloc_host(&mut sim, 0, 64);
        let b = alloc_host(&mut sim, 0, 64);
        sim.world_mut().gpu.pool.write(a, &[0xEE; 64]).unwrap();
        sim.spawn("sender", 0, move |ctx| {
            blocking::send(ctx, 0, 1, SendBuf::Mem(a), 9);
        });
        // Receiver posts long after arrival.
        sim.spawn("receiver", us(50.0), move |ctx| {
            let (exp, unexp) = ctx.with_world_ref(|w, _| w.ucp.worker(1).depths());
            assert_eq!((exp, unexp), (0, 1), "message should be unexpected");
            let info = blocking::recv(ctx, 1, b, 9, MASK_FULL);
            assert_eq!(info.size, 64);
        });
        finish(&mut sim).unwrap();
        assert_eq!(sim.world().gpu.pool.read(b).unwrap(), vec![0xEE; 64]);
    }

    #[test]
    fn inline_send_probe_pop() {
        let mut sim = sim2nodes();
        sim.spawn("sender", 0, move |ctx| {
            ctx.with_world(|w, s| {
                tag_send_nb(
                    w,
                    s,
                    0,
                    1,
                    SendBuf::bytes(vec![1, 2, 3, 4]),
                    0xABCD,
                    Completion::None,
                );
            });
        });
        let got = std::sync::Arc::new(rucx_compat::sync::Mutex::new(None));
        let got2 = got.clone();
        sim.spawn("receiver", 0, move |ctx| loop {
            let popped = ctx.with_world(|w, s| {
                let r = probe_pop(w, 1, 0, MASK_NONE);
                let seen = s.notify_epoch(w.ucp.worker(1).notify);
                (
                    r.map(|m| {
                        let (src, tag, bytes, _) =
                            m.into_eager().expect("small host message is eager");
                        (bytes, tag, src)
                    }),
                    seen,
                )
            });
            match popped {
                (Some(m), _) => {
                    *got2.lock() = Some(m);
                    break;
                }
                (None, seen) => {
                    let n = ctx.with_world_ref(|w, _| w.ucp.worker(1).notify);
                    ctx.wait_notify(n, seen);
                }
            }
        });
        finish(&mut sim).unwrap();
        let (bytes, tag, src) = got.lock().take().unwrap();
        assert_eq!(bytes, Some(vec![1, 2, 3, 4]));
        assert_eq!(tag, 0xABCD);
        assert_eq!(src, 0);
    }

    #[test]
    fn rndv_probe_then_fetch_bytes() {
        let mut sim = sim2nodes();
        let big = pattern(100_000, 2);
        let big2 = big.clone();
        sim.spawn("sender", 0, move |ctx| {
            ctx.with_world(move |w, s| {
                tag_send_nb(w, s, 0, 6, SendBuf::bytes(big2), 5, Completion::None);
            });
        });
        let got = std::sync::Arc::new(rucx_compat::sync::Mutex::new(None));
        let got2 = got.clone();
        sim.spawn("receiver", 0, move |ctx| {
            let n = ctx.with_world_ref(|w, _| w.ucp.worker(6).notify);
            loop {
                let (popped, seen) = ctx.with_world(|w, s| {
                    (
                        probe_pop(w, 6, 5, MASK_FULL),
                        s.notify_epoch(w.ucp.worker(6).notify),
                    )
                });
                match popped {
                    Some(m) => {
                        let (src, tag, rts_id, size) =
                            m.into_rndv().expect("100 KB message is rendezvous");
                        assert_eq!(size, 100_000);
                        assert_eq!(src, 0);
                        let done = ctx.with_world(move |w, s| {
                            let t = s.new_trigger();
                            let got3 = got2.clone();
                            rndv_fetch(
                                w,
                                s,
                                6,
                                tag,
                                rts_id,
                                FetchDst::Bytes,
                                RecvCompletion::Bytes(Box::new(move |_, s, bytes, _| {
                                    *got3.lock() = bytes;
                                    s.fire(t);
                                })),
                            )
                            .expect("announced rendezvous must fetch");
                            t
                        });
                        ctx.wait(done);
                        break;
                    }
                    None => ctx.wait_notify(n, seen),
                }
            }
        });
        finish(&mut sim).unwrap();
        assert_eq!(got.lock().take().unwrap(), big);
    }

    #[test]
    fn eager_truncation_surfaces_on_status_and_preserves_prefix() {
        let mut sim = sim2nodes();
        let a = alloc_host(&mut sim, 0, 64);
        let b = alloc_host(&mut sim, 0, 32);
        let data = pattern(64, 5);
        sim.world_mut().gpu.pool.write(a, &data).unwrap();
        sim.spawn("sender", 0, move |ctx| {
            blocking::send(ctx, 0, 1, SendBuf::Mem(a), 3);
        });
        sim.spawn("receiver", 0, move |ctx| {
            let info = blocking::recv(ctx, 1, b, 3, MASK_FULL);
            // The status reports the wire size and flags the truncation.
            assert_eq!(info.size, 64);
            assert!(info.truncated, "eager overflow must not silently succeed");
        });
        finish(&mut sim).unwrap();
        assert_eq!(sim.world().gpu.pool.read(b).unwrap(), data[..32]);
        assert_eq!(sim.metrics().get("ucp.truncated"), 1);
    }

    #[test]
    fn rndv_truncation_surfaces_on_status() {
        let mut sim = sim2nodes();
        let size = 1u64 << 20;
        let a = alloc_host(&mut sim, 0, size);
        let b = alloc_host(&mut sim, 1, size / 2);
        let data = pattern(size as usize, 11);
        sim.world_mut().gpu.pool.write(a, &data).unwrap();
        sim.spawn("sender", 0, move |ctx| {
            blocking::send(ctx, 0, 6, SendBuf::Mem(a), 4);
        });
        sim.spawn("receiver", 0, move |ctx| {
            let info = blocking::recv(ctx, 6, b, 4, MASK_FULL);
            assert_eq!(info.size, size);
            assert!(info.truncated, "rndv overflow must not silently succeed");
        });
        finish(&mut sim).unwrap();
        assert_eq!(
            sim.world().gpu.pool.read(b).unwrap(),
            data[..size as usize / 2]
        );
        assert_eq!(sim.metrics().get("ucp.truncated"), 1);
    }

    #[test]
    fn pipeline_truncation_surfaces_on_status() {
        // Inter-node device-device rendezvous takes the pipelined path;
        // a short receive buffer must still flag truncation.
        let mut sim = sim2nodes();
        let size = 4u64 << 20;
        let a = alloc_dev(&mut sim, 0, size);
        let b = alloc_dev(&mut sim, 6, size / 4);
        let data = pattern(size as usize, 13);
        sim.world_mut().gpu.pool.write(a, &data).unwrap();
        sim.spawn("sender", 0, move |ctx| {
            blocking::send(ctx, 0, 6, SendBuf::Mem(a), 8);
        });
        sim.spawn("receiver", 0, move |ctx| {
            let info = blocking::recv(ctx, 6, b, 8, MASK_FULL);
            assert_eq!(info.size, size);
            assert!(info.truncated);
        });
        finish(&mut sim).unwrap();
        assert_eq!(sim.metrics().get("ucp.rndv.pipeline"), 1);
        assert_eq!(sim.metrics().get("ucp.truncated"), 1);
    }

    #[test]
    fn exact_fit_is_not_truncated() {
        let mut sim = sim2nodes();
        let a = alloc_host(&mut sim, 0, 64);
        let b = alloc_host(&mut sim, 0, 64);
        sim.world_mut().gpu.pool.write(a, &[1u8; 64]).unwrap();
        sim.spawn("sender", 0, move |ctx| {
            blocking::send(ctx, 0, 1, SendBuf::Mem(a), 3);
        });
        sim.spawn("receiver", 0, move |ctx| {
            let info = blocking::recv(ctx, 1, b, 3, MASK_FULL);
            assert!(!info.truncated);
        });
        finish(&mut sim).unwrap();
        assert_eq!(sim.metrics().get("ucp.truncated"), 0);
    }

    #[test]
    fn prop_truncation_iff_wire_exceeds_buffer() {
        // Across protocols (eager vs rendezvous is a function of size) and
        // arbitrary send/recv sizes: `truncated` on the completed request
        // is exactly `wire_size > recv_buf.len`, and the delivered prefix
        // is always intact.
        rucx_compat::check::check_with("ucp.truncation_iff_overflow", 16, |g| {
            let send = g.u64(1..128 * 1024);
            let recv = g.u64(1..128 * 1024);
            let mut sim = sim2nodes();
            let a = alloc_host(&mut sim, 0, send);
            let b = alloc_host(&mut sim, 1, recv);
            let data = pattern(send as usize, g.any_u8());
            sim.world_mut().gpu.pool.write(a, &data).unwrap();
            sim.spawn("sender", 0, move |ctx| {
                blocking::send(ctx, 0, 6, SendBuf::Mem(a), 1);
            });
            sim.spawn("receiver", 0, move |ctx| {
                let info = blocking::recv(ctx, 6, b, 1, MASK_FULL);
                assert_eq!(info.size, send);
                assert_eq!(info.truncated, send > recv);
            });
            finish(&mut sim).unwrap();
            let n = send.min(recv) as usize;
            assert_eq!(
                sim.world().gpu.pool.read(b).unwrap()[..n],
                data[..n],
                "delivered prefix must be intact (send={send} recv={recv})"
            );
        });
    }

    #[test]
    fn tag_mask_separates_streams() {
        // Two messages with different high bits; receiver picks them out of
        // order using masks.
        let mut sim = sim2nodes();
        let b1 = alloc_host(&mut sim, 0, 8);
        let b2 = alloc_host(&mut sim, 0, 8);
        let h1 = alloc_host(&mut sim, 0, 8);
        let h2 = alloc_host(&mut sim, 0, 8);
        sim.world_mut().gpu.pool.write(h1, &[1; 8]).unwrap();
        sim.world_mut().gpu.pool.write(h2, &[2; 8]).unwrap();
        let kind_a = 0x1000_0000_0000_0000u64;
        let kind_b = 0x2000_0000_0000_0000u64;
        sim.spawn("sender", 0, move |ctx| {
            blocking::send(ctx, 0, 1, SendBuf::Mem(h1), kind_a | 7);
            blocking::send(ctx, 0, 1, SendBuf::Mem(h2), kind_b | 9);
        });
        sim.spawn("receiver", 0, move |ctx| {
            let mask = 0xF000_0000_0000_0000u64;
            // Receive kind B first despite arrival order.
            let ib = blocking::recv(ctx, 1, b2, kind_b, mask);
            assert_eq!(ib.tag, kind_b | 9);
            let ia = blocking::recv(ctx, 1, b1, kind_a, mask);
            assert_eq!(ia.tag, kind_a | 7);
        });
        finish(&mut sim).unwrap();
        assert_eq!(sim.world().gpu.pool.read(b1).unwrap(), vec![1; 8]);
        assert_eq!(sim.world().gpu.pool.read(b2).unwrap(), vec![2; 8]);
    }

    #[test]
    fn posted_recv_before_rts_fetches_immediately() {
        let mut sim = sim2nodes();
        let size = 256u64 << 10;
        let a = alloc_dev(&mut sim, 0, size);
        let b = alloc_dev(&mut sim, 1, size);
        let data = pattern(size as usize, 4);
        sim.world_mut().gpu.pool.write(a, &data).unwrap();
        // Receiver posts at t=0; sender sends at t=20us.
        sim.spawn("receiver", 0, move |ctx| {
            let info = blocking::recv(ctx, 1, b, 77, MASK_FULL);
            assert_eq!(info.size, size);
        });
        sim.spawn("sender", us(20.0), move |ctx| {
            blocking::send(ctx, 0, 1, SendBuf::Mem(a), 77);
        });
        finish(&mut sim).unwrap();
        assert_eq!(sim.world().gpu.pool.read(b).unwrap(), data);
    }

    #[test]
    fn sender_rndv_completion_waits_for_ats() {
        let mut sim = sim2nodes();
        let size = 1u64 << 20;
        let a = alloc_dev(&mut sim, 0, size);
        let b = alloc_dev(&mut sim, 1, size);
        let send_done = std::sync::Arc::new(rucx_compat::sync::Mutex::new(0u64));
        let recv_done = std::sync::Arc::new(rucx_compat::sync::Mutex::new(0u64));
        let sd = send_done.clone();
        let rd = recv_done.clone();
        sim.spawn("sender", 0, move |ctx| {
            blocking::send(ctx, 0, 1, SendBuf::Mem(a), 1);
            *sd.lock() = ctx.now();
        });
        sim.spawn("receiver", 0, move |ctx| {
            blocking::recv(ctx, 1, b, 1, MASK_FULL);
            *rd.lock() = ctx.now();
        });
        finish(&mut sim).unwrap();
        let (s_t, r_t) = (*send_done.lock(), *recv_done.lock());
        assert!(
            s_t > r_t,
            "sender {s_t} completes after receiver {r_t} (ATS)"
        );
    }

    #[test]
    fn phantom_payload_times_like_real_data() {
        let mut sim_a = sim2nodes();
        let mut sim_b = sim2nodes();
        let size = 2u64 << 20;
        let a1 = alloc_dev(&mut sim_a, 0, size);
        let b1 = alloc_dev(&mut sim_a, 6, size);
        let t_real = p2p_roundtrip(&mut sim_a, a1, b1, 0, 6);
        let a2 = sim_b
            .world_mut()
            .gpu
            .pool
            .alloc_device(DeviceId(0), size, false)
            .unwrap();
        let b2 = sim_b
            .world_mut()
            .gpu
            .pool
            .alloc_device(DeviceId(6), size, false)
            .unwrap();
        let t_phantom = p2p_roundtrip(&mut sim_b, a2, b2, 0, 6);
        assert_eq!(t_real, t_phantom);
    }

    // ---- Reliability protocol & fault injection -------------------------

    fn chaos_sim(spec: rucx_fault::FaultSpec) -> MSim {
        let mut cfg = MachineConfig::default();
        cfg.fault = Some(spec);
        build_sim(Topology::summit(2), cfg)
    }

    #[test]
    fn into_eager_and_into_rndv_are_typed_not_panics() {
        // Regression pin for the former `panic!("expected eager")` /
        // `panic!("expected rndv")` paths: protocol mismatch is a value.
        let eager = PoppedMsg::Eager {
            src: 3,
            tag: 7,
            bytes: None,
            wire_size: 8,
        };
        let rndv = PoppedMsg::Rndv {
            src: 4,
            tag: 9,
            rts_id: 1,
            size: 1 << 20,
        };
        assert_eq!(eager.protocol(), Protocol::Eager);
        assert_eq!(rndv.protocol(), Protocol::Rndv);
        match eager.into_rndv() {
            Err(UcpError::ProtocolMismatch {
                expected: Protocol::Rndv,
                got: Protocol::Eager,
                src: 3,
                tag: 7,
            }) => {}
            other => panic!("want typed mismatch, got {other:?}"),
        }
        match rndv.into_eager() {
            Err(UcpError::ProtocolMismatch {
                expected: Protocol::Eager,
                got: Protocol::Rndv,
                src: 4,
                tag: 9,
            }) => {}
            other => panic!("want typed mismatch, got {other:?}"),
        }
    }

    #[test]
    fn unknown_rendezvous_fetch_fails_without_hanging() {
        let mut sim = sim2nodes();
        let fired = std::sync::Arc::new(rucx_compat::sync::Mutex::new(None));
        let fired2 = fired.clone();
        let err = sim.with_parts(|w, s| {
            rndv_fetch(
                w,
                s,
                1,
                5,
                999, // never announced
                FetchDst::Bytes,
                RecvCompletion::Callback(Box::new(move |_, _, info| {
                    *fired2.lock() = Some(info);
                })),
            )
        });
        assert_eq!(err, Err(UcpError::UnknownRendezvous { rts_id: 999 }));
        // The completion fired immediately with a zero-size status — no
        // waiter can hang on a failed fetch.
        let info = fired.lock().take().expect("completion must fire");
        assert_eq!(info.size, 0);
        assert_eq!(
            sim.world_mut().ucp.worker_mut(1).take_error(),
            Some(UcpError::UnknownRendezvous { rts_id: 999 })
        );
    }

    #[test]
    fn chaos_drops_recover_by_retransmission() {
        // 20% drop on every link: eager and rendezvous traffic both arrive
        // intact, paid for in retries, with no envelope leaked.
        let mut spec = rucx_fault::FaultSpec::default();
        spec.seed = 11;
        spec.drop_p = 0.2;
        let mut sim = chaos_sim(spec);
        let n_eager = 16usize;
        let eager_size = 4096u64;
        let rndv_size = 1u64 << 20;
        let mut srcs = Vec::new();
        let mut dsts = Vec::new();
        for i in 0..n_eager + 1 {
            let size = if i < n_eager { eager_size } else { rndv_size };
            let a = alloc_host(&mut sim, 0, size);
            let b = alloc_host(&mut sim, 1, size);
            let data = pattern(size as usize, i as u8);
            sim.world_mut().gpu.pool.write(a, &data).unwrap();
            srcs.push(a);
            dsts.push((b, data));
        }
        let senders = srcs.clone();
        sim.spawn("sender", 0, move |ctx| {
            for (i, a) in senders.into_iter().enumerate() {
                blocking::send(ctx, 0, 6, SendBuf::Mem(a), i as u64);
            }
        });
        let n_msgs = dsts.len();
        let recv_bufs: Vec<_> = dsts.iter().map(|(b, _)| *b).collect();
        sim.spawn("receiver", 0, move |ctx| {
            for (i, b) in recv_bufs.into_iter().enumerate() {
                let info = blocking::recv(ctx, 6, b, i as u64, MASK_FULL);
                assert!(!info.truncated);
            }
        });
        finish(&mut sim).unwrap();
        let m = sim.world();
        for (i, (b, data)) in dsts.iter().enumerate() {
            assert_eq!(&m.gpu.pool.read(*b).unwrap(), data, "message {i} corrupted");
        }
        let drops = sim.metrics().get("fault.drop");
        let retries = sim.metrics().get("ucp.retry");
        assert!(drops > 0, "seeded spec must actually drop");
        assert!(retries > 0, "drops must be recovered by retries");
        assert_eq!(sim.metrics().get("ucp.unreachable"), 0);
        assert_eq!(n_msgs, n_eager + 1);
    }

    #[test]
    fn chaos_duplicates_are_suppressed_exactly_once() {
        // 40% duplication: every envelope may arrive twice, but each
        // message is delivered to the matching engine exactly once.
        let mut spec = rucx_fault::FaultSpec::default();
        spec.seed = 5;
        spec.dup_p = 0.4;
        let mut sim = chaos_sim(spec);
        let n = 12usize;
        let mut bufs = Vec::new();
        for i in 0..n {
            let a = alloc_host(&mut sim, 0, 512);
            let b = alloc_host(&mut sim, 1, 512);
            let data = pattern(512, i as u8);
            sim.world_mut().gpu.pool.write(a, &data).unwrap();
            bufs.push((a, b, data));
        }
        let senders: Vec<_> = bufs.iter().map(|(a, _, _)| *a).collect();
        sim.spawn("sender", 0, move |ctx| {
            for (i, a) in senders.into_iter().enumerate() {
                blocking::send(ctx, 0, 6, SendBuf::Mem(a), i as u64);
            }
        });
        let recvs: Vec<_> = bufs.iter().map(|(_, b, _)| *b).collect();
        sim.spawn("receiver", 0, move |ctx| {
            for (i, b) in recvs.into_iter().enumerate() {
                blocking::recv(ctx, 6, b, i as u64, MASK_FULL);
            }
        });
        finish(&mut sim).unwrap();
        let m = sim.world();
        for (i, (_, b, data)) in bufs.iter().enumerate() {
            assert_eq!(&m.gpu.pool.read(*b).unwrap(), data, "message {i}");
        }
        assert!(sim.metrics().get("fault.duplicate") > 0);
        assert!(
            sim.metrics().get("ucp.dup_drop") > 0,
            "duplicated envelopes must be sequence-suppressed"
        );
    }

    #[test]
    fn partition_exhausts_retries_into_typed_error() {
        // A permanent partition with a tiny retry budget: the rendezvous
        // sender's request still completes (never hangs) and the typed
        // endpoint-timeout error lands on its worker.
        let mut spec = rucx_fault::FaultSpec::default();
        spec.partitions.push(rucx_fault::PartitionWindow {
            from: 0,
            until: u64::MAX,
        });
        let mut cfg = MachineConfig::default();
        cfg.ucp.max_retries = 2;
        cfg.fault = Some(spec);
        let mut sim = build_sim(Topology::summit(2), cfg);
        let size = 1u64 << 20;
        let a = alloc_host(&mut sim, 0, size);
        sim.spawn("sender", 0, move |ctx| {
            blocking::send(ctx, 0, 6, SendBuf::Mem(a), 1);
        });
        finish(&mut sim).unwrap();
        assert!(sim.metrics().get("ucp.unreachable") >= 1);
        let m = sim.world_mut();
        match m.ucp.worker_mut(0).take_error() {
            Some(UcpError::EndpointTimeout {
                src: 0,
                dst: 6,
                tag: 1,
                attempts,
                ..
            }) => assert_eq!(attempts, 3, "original + 2 retries"),
            other => panic!("want endpoint timeout, got {other:?}"),
        }
    }

    #[test]
    fn partition_heal_delivers_exactly_once_in_order() {
        // A partition long enough to exhaust every envelope's retry budget,
        // healed by a `heal=0-1@T` event: the health layer parks the
        // envelopes on the Dead endpoint, keepalive probes detect the heal,
        // and every message is delivered exactly once, in send order, with
        // nothing abandoned.
        let mut spec = rucx_fault::FaultSpec::default();
        spec.partitions.push(rucx_fault::PartitionWindow {
            from: 0,
            until: u64::MAX,
        });
        spec.heal.push(rucx_fault::HealEvent {
            a: 0,
            b: 1,
            at: us(1_200.0),
        });
        let mut cfg = MachineConfig::default();
        cfg.ucp.max_retries = 2; // exhaust fast, park early
        cfg.fault = Some(spec);
        let mut sim = build_sim(Topology::summit(2), cfg);
        let n = 6usize;
        let mut bufs = Vec::new();
        for i in 0..n {
            let a = alloc_host(&mut sim, 0, 512);
            let b = alloc_host(&mut sim, 1, 512);
            let data = pattern(512, i as u8);
            sim.world_mut().gpu.pool.write(a, &data).unwrap();
            bufs.push((a, b, data));
        }
        let senders: Vec<_> = bufs.iter().map(|(a, _, _)| *a).collect();
        sim.spawn("sender", 0, move |ctx| {
            for (i, a) in senders.into_iter().enumerate() {
                blocking::send(ctx, 0, 6, SendBuf::Mem(a), i as u64);
            }
        });
        let recvs: Vec<_> = bufs.iter().map(|(_, b, _)| *b).collect();
        let order = std::sync::Arc::new(rucx_compat::sync::Mutex::new(Vec::new()));
        let order2 = order.clone();
        sim.spawn("receiver", 0, move |ctx| {
            for (i, b) in recvs.into_iter().enumerate() {
                blocking::recv(ctx, 6, b, i as u64, MASK_FULL);
                order2.lock().push(i);
            }
        });
        finish(&mut sim).unwrap();
        let m = sim.world();
        for (i, (_, b, data)) in bufs.iter().enumerate() {
            assert_eq!(&m.gpu.pool.read(*b).unwrap(), data, "message {i}");
        }
        assert_eq!(
            *order.lock(),
            (0..n).collect::<Vec<_>>(),
            "post-heal delivery must preserve send order"
        );
        assert_eq!(sim.metrics().get("ucp.unreachable"), 0);
        assert_eq!(sim.metrics().get("ucp.giveup"), 0);
        assert!(sim.metrics().get("ucp.parked") >= 1, "budget must exhaust");
        assert!(sim.metrics().get("ucp.ep.dead") >= 1);
        assert!(sim.metrics().get("ucp.ep.healed") >= 1);
        assert!(sim.metrics().get("ucp.probe") >= 1);
        assert!(sim.metrics().get("ucp.probe_ack") >= 1);
        assert_eq!(m.ucp.health.state(0, 6), EpState::Healthy);
    }

    #[test]
    fn suspect_then_recover_returns_to_healthy() {
        // Heavy drop, generous retries: endpoints go Suspect from
        // consecutive timeouts but recover to Healthy on the next ack
        // without ever dying.
        let mut spec = rucx_fault::FaultSpec::default();
        spec.seed = 9;
        spec.drop_p = 0.6;
        let mut sim = chaos_sim(spec);
        let a = alloc_host(&mut sim, 0, 512);
        let b = alloc_host(&mut sim, 1, 512);
        let data = pattern(512, 3);
        sim.world_mut().gpu.pool.write(a, &data).unwrap();
        sim.spawn("sender", 0, move |ctx| {
            blocking::send(ctx, 0, 6, SendBuf::Mem(a), 1);
        });
        sim.spawn("receiver", 0, move |ctx| {
            blocking::recv(ctx, 6, b, 1, MASK_FULL);
        });
        finish(&mut sim).unwrap();
        let m = sim.world();
        assert_eq!(m.gpu.pool.read(b).unwrap(), data);
        assert_eq!(sim.metrics().get("ucp.unreachable"), 0);
        assert_eq!(m.ucp.health.state(0, 6), EpState::Healthy);
    }

    #[test]
    fn link_degrade_reroutes_pipeline_chunks() {
        // A degrade window on the inter-node link: the engine steers
        // pipeline chunks onto the less-backlogged rail and counts each
        // steered chunk as a reroute. The identical clean run never bumps
        // the counter (gated in scripts/check.sh too).
        let run = |degrade: bool| {
            let mut spec = rucx_fault::FaultSpec::default();
            if degrade {
                spec.degrade.push(rucx_fault::DegradeWindow {
                    from: 0,
                    until: u64::MAX,
                    factor: 0.25,
                });
            }
            let mut cfg = MachineConfig::default();
            cfg.fault = Some(spec);
            let mut sim = build_sim(Topology::summit(2), cfg);
            let size = 4u64 << 20; // 8 pipeline chunks at the default 512K
            let a = alloc_dev(&mut sim, 0, size);
            let b = alloc_dev(&mut sim, 6, size);
            sim.spawn("sender", 0, move |ctx| {
                blocking::send(ctx, 0, 6, SendBuf::Mem(a), 1);
            });
            sim.spawn("receiver", 0, move |ctx| {
                blocking::recv(ctx, 6, b, 1, MASK_FULL);
            });
            finish(&mut sim).unwrap();
            assert!(sim.metrics().get("ucp.pipeline_chunks") >= 2);
            sim.metrics().get("ucp.reroute")
        };
        assert_eq!(run(false), 0, "clean runs must never reroute");
        assert!(run(true) >= 1, "degraded link must steer chunks");
    }

    #[test]
    fn gpu_copy_engine_failure_degrades_to_host_staging() {
        // Device 0's copy engine fails at t=0: a small device message that
        // would take the GDRCopy eager path degrades to rendezvous staging,
        // and the data still arrives intact.
        let mut spec = rucx_fault::FaultSpec::default();
        spec.gpu_fail.push(rucx_fault::GpuFail { device: 0, at: 0 });
        let mut sim = chaos_sim(spec);
        let a = alloc_dev(&mut sim, 0, 2048);
        let b = alloc_dev(&mut sim, 1, 2048);
        let data = pattern(2048, 21);
        sim.world_mut().gpu.pool.write(a, &data).unwrap();
        sim.spawn("sender", 0, move |ctx| {
            blocking::send(ctx, 0, 1, SendBuf::Mem(a), 2);
        });
        sim.spawn("receiver", 0, move |ctx| {
            blocking::recv(ctx, 1, b, 2, MASK_FULL);
        });
        finish(&mut sim).unwrap();
        let m = sim.world();
        assert_eq!(m.gpu.pool.read(b).unwrap(), data);
        assert_eq!(sim.metrics().get("ucp.eager"), 0, "eager GDRCopy refused");
        assert!(sim.metrics().get("ucp.fallback.host_staged") >= 1);
        assert!(sim.metrics().get("fault.gpu_degraded") >= 1);
        assert_eq!(
            sim.metrics().get("ucp.rndv.staged_intra"),
            1,
            "degraded device-device intra transfer takes the staged rung"
        );
    }

    #[test]
    fn chaos_replay_is_byte_identical() {
        // Same seed + same spec => identical fault counters, retry counts,
        // and virtual completion time.
        let run = || {
            let mut spec = rucx_fault::FaultSpec::default();
            spec.seed = 77;
            spec.drop_p = 0.1;
            spec.dup_p = 0.05;
            spec.delay_p = 0.1;
            spec.corrupt_p = 0.05;
            let mut sim = chaos_sim(spec);
            let mut pairs = Vec::new();
            for i in 0..10u64 {
                let a = alloc_host(&mut sim, 0, 4096);
                let b = alloc_host(&mut sim, 1, 4096);
                let data = pattern(4096, i as u8);
                sim.world_mut().gpu.pool.write(a, &data).unwrap();
                pairs.push((a, b));
            }
            let srcs: Vec<_> = pairs.iter().map(|(a, _)| *a).collect();
            sim.spawn("sender", 0, move |ctx| {
                for (i, a) in srcs.into_iter().enumerate() {
                    blocking::send(ctx, 0, 6, SendBuf::Mem(a), i as u64);
                }
            });
            let dsts: Vec<_> = pairs.iter().map(|(_, b)| *b).collect();
            let end = std::sync::Arc::new(rucx_compat::sync::Mutex::new(0u64));
            let end2 = end.clone();
            sim.spawn("receiver", 0, move |ctx| {
                for (i, b) in dsts.into_iter().enumerate() {
                    blocking::recv(ctx, 6, b, i as u64, MASK_FULL);
                }
                *end2.lock() = ctx.now();
            });
            finish(&mut sim).unwrap();
            let m = sim.world();
            let end_at = *end.lock();
            (
                end_at,
                sim.metrics().get("fault.drop"),
                sim.metrics().get("fault.duplicate"),
                sim.metrics().get("fault.delay"),
                sim.metrics().get("fault.corrupt"),
                sim.metrics().get("ucp.retry"),
                sim.metrics().get("ucp.timeout"),
                m.faults.injected(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "chaos run must replay identically from its seed");
        assert!(a.7 > 0, "spec must inject something for the test to bite");
    }

    #[test]
    fn send_from_freed_handle_surfaces_typed_error() {
        let mut sim = sim2nodes();
        let a = alloc_host(&mut sim, 0, 64);
        sim.world_mut().gpu.pool.free(a.id).unwrap();
        sim.spawn("s", 0, move |ctx| {
            // Completes immediately with nothing sent — no panic, no hang.
            blocking::send(ctx, 0, 6, SendBuf::Mem(a), 1);
        });
        finish(&mut sim).unwrap();
        assert_eq!(sim.metrics().get("ucp.bad_handle"), 1);
        let m = sim.world_mut();
        match m.ucp.take_worker_error(0) {
            Some(UcpError::InvalidHandle { op, proc }) => {
                assert_eq!(op, "tag_send_nb");
                assert_eq!(proc, 0);
            }
            other => panic!("expected InvalidHandle, got {other:?}"),
        }
    }

    #[test]
    fn blocking_latency_echo_is_symmetric() {
        // Ping-pong: one-way latency equals half the round trip.
        let mut sim = sim2nodes();
        let a_s = alloc_host(&mut sim, 0, 8);
        let a_r = alloc_host(&mut sim, 0, 8);
        let b_s = alloc_host(&mut sim, 0, 8);
        let b_r = alloc_host(&mut sim, 0, 8);
        let rtt = std::sync::Arc::new(rucx_compat::sync::Mutex::new(0u64));
        let rtt2 = rtt.clone();
        sim.spawn("p0", 0, move |ctx| {
            let t0 = ctx.now();
            blocking::send(ctx, 0, 1, SendBuf::Mem(a_s), 1);
            blocking::recv(ctx, 0, a_r, 2, MASK_FULL);
            *rtt2.lock() = ctx.now() - t0;
        });
        sim.spawn("p1", 0, move |ctx| {
            blocking::recv(ctx, 1, b_r, 1, MASK_FULL);
            blocking::send(ctx, 1, 0, SendBuf::Mem(b_s), 2);
        });
        finish(&mut sim).unwrap();
        let rtt = *rtt.lock();
        assert!(rtt > us(1.0) && rtt < us(6.0), "rtt {}us", as_us(rtt));
    }
}
