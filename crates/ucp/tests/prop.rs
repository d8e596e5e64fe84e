//! Property-based end-to-end tests of the UCP layer: any random set of
//! messages — arbitrary sizes (crossing every protocol threshold), memory
//! kinds, endpoints, and posting orders — is delivered exactly once with
//! byte-exact contents, and no rendezvous state leaks.
//!
//! Runs on the in-repo harness ([`rucx_compat::check`]); failing cases
//! print a seed replayable with `RUCX_PROP_SEED=<seed>`.

use rucx_compat::check::{check, Gen};
use rucx_fabric::Topology;
use rucx_gpu::MemRef;
use rucx_sim::time::us;
use rucx_ucp::{blocking, build_sim, MachineConfig, SendBuf, MASK_FULL};

#[derive(Debug, Clone)]
struct MsgSpec {
    src: usize,
    dst: usize,
    /// Crosses eager/rendezvous thresholds for both memory kinds.
    size: u64,
    device: bool,
    /// Receiver posts before or after the send is likely to arrive.
    recv_late: bool,
    seed: u8,
}

fn gen_msg(g: &mut Gen, procs: usize) -> MsgSpec {
    let src = g.usize(0..procs);
    // Uniform over the other endpoints, so src != dst by construction.
    let dst = (src + g.usize(1..procs)) % procs;
    let size = match g.usize(0..5) {
        0 => 1u64,
        1 => g.u64(8..64),
        2 => g.u64(1000..5000),
        3 => g.u64(20_000..80_000),
        _ => 1 << 20,
    };
    MsgSpec {
        src,
        dst,
        size,
        device: g.bool(),
        recv_late: g.bool(),
        seed: g.any_u8(),
    }
}

fn pattern(len: u64, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31) ^ seed)
        .collect()
}

#[test]
fn random_message_matrix_delivers_exactly() {
    check("random_message_matrix_delivers_exactly", |g| {
        let msgs = g.vec(1..10, |g| gen_msg(g, 12));
        let topo = Topology::summit(2);
        let mut sim = build_sim(topo.clone(), MachineConfig::default());

        // Allocate per-message source and destination buffers.
        let mut srcs: Vec<MemRef> = Vec::new();
        let mut dsts: Vec<MemRef> = Vec::new();
        {
            let m = sim.world_mut();
            for spec in &msgs {
                let (s, d) = if spec.device {
                    (
                        m.gpu
                            .pool
                            .alloc_device(topo.device_of(spec.src), spec.size, true)
                            .unwrap(),
                        m.gpu
                            .pool
                            .alloc_device(topo.device_of(spec.dst), spec.size, true)
                            .unwrap(),
                    )
                } else {
                    (
                        m.gpu
                            .pool
                            .alloc_host(topo.node_of(spec.src), spec.size, true, true),
                        m.gpu
                            .pool
                            .alloc_host(topo.node_of(spec.dst), spec.size, true, true),
                    )
                };
                m.gpu.pool.write(s, &pattern(spec.size, spec.seed)).unwrap();
                srcs.push(s);
                dsts.push(d);
            }
        }

        // Each process sends its messages (tag = message index) and
        // receives the ones destined to it, in index order.
        let specs = std::sync::Arc::new(msgs.clone());
        let srcs = std::sync::Arc::new(srcs);
        let dsts2 = std::sync::Arc::new(dsts.clone());
        for p in 0..topo.procs() {
            let specs = specs.clone();
            let srcs = srcs.clone();
            let dsts2 = dsts2.clone();
            sim.spawn(format!("p{p}"), 0, move |ctx| {
                // Issue every send non-blocking, then do the receives, then
                // wait for send completions. This is deadlock-free for ANY
                // message matrix: all receives get posted regardless of
                // rendezvous progress, so every send eventually completes.
                let send_triggers: Vec<_> = specs
                    .iter()
                    .enumerate()
                    .filter(|(_, spec)| spec.src == p)
                    .map(|(i, spec)| {
                        let buf = srcs[i];
                        let dst = spec.dst;
                        ctx.with_world(move |w, s| {
                            let t = s.new_trigger();
                            rucx_ucp::tag_send_nb(
                                w,
                                s,
                                p,
                                dst,
                                SendBuf::Mem(buf),
                                i as u64,
                                rucx_ucp::Completion::Trigger(t),
                            );
                            t
                        })
                    })
                    .collect();
                for (i, spec) in specs.iter().enumerate() {
                    if spec.dst == p {
                        if spec.recv_late {
                            ctx.advance(us(200.0));
                        }
                        let info = blocking::recv(ctx, p, dsts2[i], i as u64, MASK_FULL);
                        assert_eq!(info.size, spec.size);
                        assert_eq!(info.src, spec.src);
                    }
                }
                for t in send_triggers {
                    ctx.wait(t);
                }
            });
        }
        rucx_ucp::finish(&mut sim).unwrap();
        // Data integrity and no leaked rendezvous state.
        for (i, spec) in msgs.iter().enumerate() {
            assert_eq!(
                sim.world().gpu.pool.read(dsts[i]).unwrap(),
                pattern(spec.size, spec.seed),
                "message {} corrupted",
                i
            );
        }
    });
}

// Deadlock note: blocking rendezvous sends complete only when the receiver
// posts, so chains of in-order blocking sends can cycle (the AMPI layer
// avoids this by pumping its scheduler inside MPI_Wait). The raw-UCP test
// therefore issues sends non-blocking and waits for them only after all
// receives are posted — safe for any message matrix.
