//! # rucx-charm — Charm++-style runtime with a GPU-aware UCX machine layer
//!
//! The paper's primary contribution, reproduced over the simulated stack:
//! a message-driven runtime (chares, entry methods, per-PE schedulers) whose
//! machine layer sends GPU buffers *directly* through the UCP tagged API
//! while the host-side envelope (with `CkDeviceBuffer` metadata) travels
//! separately (§III). Receives for GPU data are posted when the metadata
//! message arrives, via the post-entry-method extension of the Zero Copy
//! API; the regular entry method runs once every tandem GPU buffer has
//! landed.
//!
//! Layer map (paper → here):
//! - CI file `nocopydevice` declarations → entry methods registered with a
//!   post function ([`Pe::register_ep`]).
//! - `CkDeviceBuffer` → [`wire::DeviceMeta`] + machine-layer tag generation
//!   ([`mltags::TagScheme`], Fig. 3).
//! - `LrtsSendDevice`/`LrtsRecvDevice` → the UCP calls issued in
//!   [`Pe::send_ext`] and envelope dispatch.
//! - Converse scheduler + message queue → [`Pe::run`]/[`Pe::try_step`]
//!   pumping the UCP worker.

pub mod metrics;
pub mod mltags;
pub mod params;
pub mod pe;
pub mod wire;

pub use mltags::{MsgType, TagScheme, MSG_BITS};
pub use pe::{ChareRef, Collection, EpEntry, EpId, ExecFn, Msg, Pe, PostFn, RedOp, RedTarget};
pub use wire::{marshal, DeviceMeta, Envelope};

use rucx_ucp::{MCtx, MSim};

/// Spawn one PE process per simulated process and run `body` on each
/// (SPMD launch, like `charmrun`). The body typically registers chare
/// collections and entry methods, inserts local chares, optionally does
/// main-chare work on PE 0, and finally calls [`Pe::run`].
pub fn launch<F>(sim: &mut MSim, body: F)
where
    F: Fn(&mut Pe, &mut MCtx) + Send + Sync + Clone + 'static,
{
    let n = sim.world().topo.procs();
    for pe in 0..n {
        let body = body.clone();
        sim.spawn(format!("pe{pe}"), 0, move |ctx| {
            let mut rt = Pe::new(pe, n);
            body(&mut rt, ctx);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe::{Msg, Pe, RedOp, RedTarget};
    use rucx_fabric::Topology;
    use rucx_gpu::{DeviceId, MemRef};
    use rucx_sim::time::us;
    use rucx_sim::RunOutcome;
    use rucx_ucp::{build_sim, MachineConfig};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn sim(nodes: usize) -> MSim {
        build_sim(Topology::summit(nodes), MachineConfig::default())
    }

    /// A chare that counts invocations and remembers the last value.
    struct Counter {
        hits: u64,
        last: u64,
        recv_buf: Option<MemRef>,
    }

    fn register_counter(pe: &mut Pe, shared: Arc<AtomicU64>) -> (Collection, EpId, EpId) {
        let n = pe.n_pes as u64;
        let col = pe.register_collection(n, move |i| i as usize % n as usize);
        // ep 0: plain host entry method.
        let shared2 = shared.clone();
        let ep_host = pe.register_ep(
            col,
            None,
            Box::new(move |chare, msg: &Msg, _pe, _ctx| {
                let c = chare.downcast_mut::<Counter>().unwrap();
                c.hits += 1;
                let mut r = marshal::Reader(&msg.params);
                c.last = r.u64();
                shared2.fetch_add(1, Ordering::SeqCst);
            }),
        );
        // ep 1: device entry method with a post function.
        let shared3 = shared;
        let ep_dev = pe.register_ep(
            col,
            Some(Box::new(|chare, _msg| {
                let c = chare.downcast_mut::<Counter>().unwrap();
                vec![c.recv_buf.expect("recv buffer not set")]
            })),
            Box::new(move |chare, msg: &Msg, _pe, _ctx| {
                let c = chare.downcast_mut::<Counter>().unwrap();
                c.hits += 1;
                c.last = msg.device_sizes[0];
                shared3.fetch_add(100, Ordering::SeqCst);
            }),
        );
        for &i in pe.local_indices(col).to_vec().iter() {
            pe.insert_chare(
                col,
                i,
                Box::new(Counter {
                    hits: 0,
                    last: 0,
                    recv_buf: None,
                }),
            );
        }
        (col, ep_host, ep_dev)
    }

    #[test]
    fn host_entry_method_roundtrip() {
        let mut sim = sim(1);
        let hits = Arc::new(AtomicU64::new(0));
        let hits2 = hits.clone();
        launch(&mut sim, move |pe, ctx| {
            let (col, ep_host, _) = register_counter(pe, hits2.clone());
            if pe.index == 0 {
                let mut params = Vec::new();
                marshal::put_u64(&mut params, 777);
                pe.send(ctx, ChareRef { col, index: 3 }, ep_host, params, 0, vec![]);
                // Give the receiver time to process, then exit everyone.
                ctx.advance(us(50.0));
                pe.exit_all(ctx);
            }
            pe.run(ctx);
            if pe.index == 3 {
                let c = pe.chare_mut::<Counter>(col, 3);
                assert_eq!(c.hits, 1);
                assert_eq!(c.last, 777);
            }
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn device_entry_method_posts_receive_and_delivers_data() {
        let mut sim = sim(1);
        let size = 256u64 * 1024;
        // Pre-allocate source (PE0/GPU0) and destination (PE1/GPU1).
        let src = sim
            .world_mut()
            .gpu
            .pool
            .alloc_device(DeviceId(0), size, true)
            .unwrap();
        let dst = sim
            .world_mut()
            .gpu
            .pool
            .alloc_device(DeviceId(1), size, true)
            .unwrap();
        let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        sim.world_mut().gpu.pool.write(src, &data).unwrap();

        let hits = Arc::new(AtomicU64::new(0));
        let hits2 = hits.clone();
        launch(&mut sim, move |pe, ctx| {
            let (col, _, ep_dev) = register_counter(pe, hits2.clone());
            if pe.index == 1 {
                pe.chare_mut::<Counter>(col, 1).recv_buf = Some(dst);
            }
            if pe.index == 0 {
                pe.send(
                    ctx,
                    ChareRef { col, index: 1 },
                    ep_dev,
                    vec![],
                    0,
                    vec![src],
                );
                ctx.advance(us(300.0));
                pe.exit_all(ctx);
            }
            pe.run(ctx);
            if pe.index == 1 {
                let c = pe.chare_mut::<Counter>(col, 1);
                assert_eq!(c.hits, 1, "regular ep must run after GPU data lands");
                assert_eq!(c.last, size);
            }
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(hits.load(Ordering::SeqCst), 100);
        assert_eq!(sim.world().gpu.pool.read(dst).unwrap(), data);
        // The GPU payload must have used the device path (rendezvous IPC),
        // not ridden inside the envelope.
        assert_eq!(sim.metrics().get("ucp.rndv.ipc"), 1);
    }

    #[test]
    fn broadcast_reaches_every_element() {
        let mut sim = sim(2); // 12 PEs
        let hits = Arc::new(AtomicU64::new(0));
        let hits2 = hits.clone();
        launch(&mut sim, move |pe, ctx| {
            let (col, ep_host, _) = register_counter(pe, hits2.clone());
            if pe.index == 0 {
                let mut params = Vec::new();
                marshal::put_u64(&mut params, 5);
                pe.broadcast(ctx, col, ep_host, params);
                ctx.advance(us(200.0));
                pe.exit_all(ctx);
            }
            pe.run(ctx);
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(hits.load(Ordering::SeqCst), 12);
    }

    #[test]
    fn reduction_sums_across_pes() {
        let mut sim = sim(2); // 12 PEs
        let result = Arc::new(AtomicU64::new(0));
        let result2 = result.clone();
        launch(&mut sim, move |pe, ctx| {
            let n = pe.n_pes as u64;
            let col = pe.register_collection(n, move |i| i as usize % n as usize);
            let result3 = result2.clone();
            let ep_done = pe.register_ep(
                col,
                None,
                Box::new(move |_chare, msg: &Msg, pe, ctx| {
                    let mut r = marshal::Reader(&msg.params);
                    let sum = r.f64();
                    let count = r.u64();
                    assert_eq!(count, pe.n_pes as u64);
                    result3.store(sum as u64, Ordering::SeqCst);
                    pe.exit_all(ctx);
                }),
            );
            struct Unit;
            for &i in pe.local_indices(col).to_vec().iter() {
                pe.insert_chare(col, i, Box::new(Unit));
            }
            // Every element contributes its index.
            let me = pe.index as f64;
            pe.contribute(
                ctx,
                col,
                pe.index as u64,
                RedOp::Sum,
                me,
                RedTarget::Chare(ChareRef { col, index: 0 }, ep_done),
            );
            pe.run(ctx);
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        // sum 0..12 = 66
        assert_eq!(result.load(Ordering::SeqCst), 66);
    }

    #[test]
    fn reduction_over_topology_tree() {
        // Same reduction, but climbing the NVLink-aware spanning tree from
        // the collective engine (one leader per node crosses the network).
        let mut sim = sim(2);
        let result = Arc::new(AtomicU64::new(0));
        let result2 = result.clone();
        launch(&mut sim, move |pe, ctx| {
            let tree = ctx.with_world_ref(|w, _| rucx_coll::Tree::topology(&w.topo, 12));
            pe.set_reduction_tree(tree);
            let n = pe.n_pes as u64;
            let col = pe.register_collection(n, move |i| i as usize % n as usize);
            let result3 = result2.clone();
            let ep_done = pe.register_ep(
                col,
                None,
                Box::new(move |_chare, msg: &Msg, pe, ctx| {
                    let mut r = marshal::Reader(&msg.params);
                    let sum = r.f64();
                    assert_eq!(r.u64(), pe.n_pes as u64);
                    result3.store(sum as u64, Ordering::SeqCst);
                    pe.exit_all(ctx);
                }),
            );
            struct Unit;
            for &i in pe.local_indices(col).to_vec().iter() {
                pe.insert_chare(col, i, Box::new(Unit));
            }
            let me = pe.index as f64;
            pe.contribute(
                ctx,
                col,
                pe.index as u64,
                RedOp::Sum,
                me,
                RedTarget::Chare(ChareRef { col, index: 0 }, ep_done),
            );
            pe.run(ctx);
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(result.load(Ordering::SeqCst), 66);
    }

    #[test]
    fn self_send_via_local_queue() {
        let mut sim = sim(1);
        let hits = Arc::new(AtomicU64::new(0));
        let hits2 = hits.clone();
        launch(&mut sim, move |pe, ctx| {
            let (col, ep_host, _) = register_counter(pe, hits2.clone());
            if pe.index == 2 {
                let mut params = Vec::new();
                marshal::put_u64(&mut params, 9);
                pe.send(ctx, ChareRef { col, index: 2 }, ep_host, params, 0, vec![]);
                ctx.advance(us(20.0));
                pe.exit_all(ctx);
            }
            pe.run(ctx);
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn large_host_message_takes_rendezvous() {
        let mut sim = sim(2);
        let hits = Arc::new(AtomicU64::new(0));
        let hits2 = hits.clone();
        let payload = 1u64 << 20;
        launch(&mut sim, move |pe, ctx| {
            let (col, ep_host, _) = register_counter(pe, hits2.clone());
            if pe.index == 0 {
                let mut params = Vec::new();
                marshal::put_u64(&mut params, 1);
                // Inter-node destination with 1 MiB of phantom host payload.
                pe.send(
                    ctx,
                    ChareRef { col, index: 7 },
                    ep_host,
                    params,
                    payload,
                    vec![],
                );
                ctx.advance(us(800.0));
                pe.exit_all(ctx);
            }
            pe.run(ctx);
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert!(sim.metrics().get("ucp.rndv") >= 1);
    }

    #[test]
    fn pre_posted_user_tag_receives_skip_metadata_delay() {
        // Same 1 MiB transfer twice: once through the regular
        // metadata-then-post flow, once with a user tag pre-posted by the
        // receiver. The pre-posted variant must deliver the same data and
        // complete no later (it starts the fetch when the RTS arrives).
        fn run_once(pre_post: bool) -> (u64, Vec<u8>) {
            let mut sim = sim(1);
            let size = 1u64 << 20;
            let src = sim
                .world_mut()
                .gpu
                .pool
                .alloc_device(DeviceId(0), size, true)
                .unwrap();
            let dst = sim
                .world_mut()
                .gpu
                .pool
                .alloc_device(DeviceId(1), size, true)
                .unwrap();
            let data: Vec<u8> = (0..size).map(|i| (i % 239) as u8).collect();
            sim.world_mut().gpu.pool.write(src, &data).unwrap();
            let done_at = Arc::new(AtomicU64::new(0));
            let done2 = done_at.clone();
            launch(&mut sim, move |pe, ctx| {
                let n = pe.n_pes as u64;
                let col = pe.register_collection(n, move |i| i as usize);
                let done3 = done2.clone();
                let ep = pe.register_ep(
                    col,
                    Some(Box::new(move |_c, _m| vec![dst])),
                    Box::new(move |_c, msg: &Msg, pe, ctx| {
                        assert_eq!(msg.device_sizes, vec![1u64 << 20]);
                        done3.store(ctx.now(), Ordering::SeqCst);
                        pe.exit_all(ctx);
                    }),
                );
                struct Unit;
                for &i in pe.local_indices(col).to_vec().iter() {
                    pe.insert_chare(col, i, Box::new(Unit));
                }
                if pe.index == 1 && pre_post {
                    pe.pre_post_device(ctx, 0xABCD, dst);
                }
                if pe.index == 0 {
                    // Give the receiver a moment to pre-post.
                    ctx.advance(us(5.0));
                    if pre_post {
                        pe.send_user_tagged(
                            ctx,
                            ChareRef { col, index: 1 },
                            ep,
                            vec![],
                            vec![(src, 0xABCD)],
                        );
                    } else {
                        pe.send(ctx, ChareRef { col, index: 1 }, ep, vec![], 0, vec![src]);
                    }
                }
                pe.run(ctx);
            });
            assert_eq!(sim.run(), RunOutcome::Completed);
            (
                done_at.load(Ordering::SeqCst),
                sim.world().gpu.pool.read(dst).unwrap(),
            )
        }
        let size = 1usize << 20;
        let data: Vec<u8> = (0..size).map(|i| (i % 239) as u8).collect();
        let (t_regular, d_regular) = run_once(false);
        let (t_pre, d_pre) = run_once(true);
        assert_eq!(d_regular, data);
        assert_eq!(d_pre, data);
        assert!(
            t_pre < t_regular,
            "pre-posted {t_pre}ns should beat metadata-delayed {t_regular}ns"
        );
    }

    #[test]
    fn many_device_sends_generate_unique_tags() {
        // Exercised indirectly: two device buffers in one entry invocation
        // must both arrive (distinct tags) for the regular ep to run.
        let mut sim = sim(1);
        let size = 64u64 * 1024;
        let mut bufs = vec![];
        for d in [0u32, 0, 1, 1] {
            bufs.push(
                sim.world_mut()
                    .gpu
                    .pool
                    .alloc_device(DeviceId(d), size, true)
                    .unwrap(),
            );
        }
        let (src1, src2, dst1, dst2) = (bufs[0], bufs[1], bufs[2], bufs[3]);
        sim.world_mut()
            .gpu
            .pool
            .write(src1, &vec![1u8; size as usize])
            .unwrap();
        sim.world_mut()
            .gpu
            .pool
            .write(src2, &vec![2u8; size as usize])
            .unwrap();

        let hits = Arc::new(AtomicU64::new(0));
        let hits2 = hits.clone();
        launch(&mut sim, move |pe, ctx| {
            let n = pe.n_pes as u64;
            let col = pe.register_collection(n, move |i| i as usize % n as usize);
            let hits3 = hits2.clone();
            let ep = pe.register_ep(
                col,
                Some(Box::new(move |_chare, _msg| vec![dst1, dst2])),
                Box::new(move |_chare, msg: &Msg, pe, ctx| {
                    assert_eq!(msg.device_sizes, vec![size, size]);
                    hits3.fetch_add(1, Ordering::SeqCst);
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
                    ChareRef { col, index: 1 },
                    ep,
                    vec![],
                    0,
                    vec![src1, src2],
                );
            }
            pe.run(ctx);
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(
            sim.world().gpu.pool.read(dst1).unwrap(),
            vec![1u8; size as usize]
        );
        assert_eq!(
            sim.world().gpu.pool.read(dst2).unwrap(),
            vec![2u8; size as usize]
        );
    }

    #[test]
    fn chare_error_handler_receives_endpoint_timeout() {
        // Permanent inter-node partition with a tiny retry budget: a device
        // send issued from inside a chare's entry method fails, and the
        // typed error is routed back to *that chare's* error handler via
        // the send-context stamp.
        let mut spec = rucx_fault::FaultSpec::default();
        spec.partitions.push(rucx_fault::PartitionWindow {
            from: 0,
            until: u64::MAX,
        });
        let mut cfg = MachineConfig::default();
        cfg.ucp.max_retries = 2;
        cfg.fault = Some(spec);
        let mut sim = build_sim(Topology::summit(2), cfg);
        let src = sim
            .world_mut()
            .gpu
            .pool
            .alloc_device(DeviceId(0), 2 << 20, false)
            .unwrap();
        let errs = Arc::new(rucx_compat::sync::Mutex::new(Vec::new()));
        let errs2 = errs.clone();
        launch(&mut sim, move |pe, ctx| {
            let n = pe.n_pes as u64;
            let col = pe.register_collection(n, move |i| i as usize);
            // ep 0: kick — chare 0 sends a device buffer to the other node.
            let ep_kick = pe.register_ep(
                col,
                None,
                Box::new(move |_chare, _msg: &Msg, pe, ctx| {
                    pe.send(ctx, ChareRef { col, index: 6 }, 1, vec![], 0, vec![src]);
                }),
            );
            // ep 1: would receive the buffer (never runs: partitioned).
            pe.register_ep(
                col,
                Some(Box::new(|_, _| vec![])),
                Box::new(|_, _, _, _| {}),
            );
            struct Unit;
            for &i in pe.local_indices(col).to_vec().iter() {
                pe.insert_chare(col, i, Box::new(Unit));
            }
            if pe.index != 0 {
                return; // only PE 0 participates; no global scheduler needed
            }
            let e3 = errs2.clone();
            pe.set_error_handler(
                col,
                0,
                Box::new(move |_chare, err, _pe, _ctx| e3.lock().push(err.clone())),
            );
            // Local loopback delivery runs the kick inside entry context.
            pe.send(ctx, ChareRef { col, index: 0 }, ep_kick, vec![], 0, vec![]);
            let e4 = errs2.clone();
            pe.pump_until(ctx, move |_, _| !e4.lock().is_empty());
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        let got = errs.lock();
        assert!(!got.is_empty());
        for e in got.iter() {
            match e {
                rucx_ucp::UcpError::EndpointTimeout { src, dst, .. } => {
                    assert_eq!((*src, *dst), (0, 6));
                }
                other => panic!("want endpoint timeout, got {other:?}"),
            }
        }
        assert!(sim.metrics().get("ucp.unreachable") >= 1);
    }
}
