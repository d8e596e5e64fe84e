//! End-to-end data integrity of the halo exchange: a small *materialized*
//! domain where every block fills its send faces with a known pattern and
//! every ghost face is verified after the exchange — through the real
//! communication paths (entry methods + machine layer for Charm++, MPI
//! p2p for OpenMPI), not the phantom timing-only buffers the scaling runs
//! use. Each exchange runs on one clean node (every halo intra-node) and on
//! two nodes under [`CHAOS`], where halos cross a fabric that drops,
//! duplicates and delays: the bytes must still be right and the reliability
//! layer must have recovered every loss.

use std::sync::Arc;

use rucx_fabric::Topology;
use rucx_fault::FaultSpec;
use rucx_gpu::MemRef;
use rucx_jacobi::decomp::{decompose, opposite, Block, Domain};
use rucx_ucp::{build_sim, MSim, MachineConfig};

/// The pattern a block writes into its face toward `dir`.
fn face_pattern(block: u64, dir: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (block as u8) ^ (dir as u8) ^ (i as u8).wrapping_mul(13))
        .collect()
}

struct FaceBufs {
    send: [Option<MemRef>; 6],
    recv: [Option<MemRef>; 6],
}

const CHAOS: &str = "seed=7,drop=0.01,dup=0.05,delay=0.05:20";

/// `(nodes, machine)` for the clean and the lossy run of each exchange.
fn machines() -> [(usize, MachineConfig); 2] {
    let lossy = MachineConfig {
        fault: Some(FaultSpec::parse(CHAOS).unwrap()),
        ..MachineConfig::default()
    };
    [(1, MachineConfig::default()), (2, lossy)]
}

fn setup(nodes: usize, machine: MachineConfig) -> (MSim, Vec<Block>, Arc<Vec<FaceBufs>>) {
    // Weak-scaled in x, like the scaling runs: 16 x 16 x 16 cells a block.
    let domain = Domain {
        nx: 48 * nodes as u64,
        ny: 32,
        nz: 16,
    };
    let topo = Topology::summit(nodes);
    let ranks = topo.procs() as u64;
    let mut sim = build_sim(topo.clone(), machine);
    let grid = decompose(domain, ranks);
    let mut blocks = vec![];
    let mut bufs = vec![];
    for r in 0..ranks {
        let b = Block::new(domain, grid, r);
        let mut send = [None; 6];
        let mut recv = [None; 6];
        {
            let m = sim.world_mut();
            for dir in 0..6 {
                if b.neighbors[dir].is_some() {
                    let fb = b.face_bytes(dir);
                    let s = m
                        .gpu
                        .pool
                        .alloc_device(topo.device_of(r as usize), fb, true)
                        .unwrap();
                    m.gpu
                        .pool
                        .write(s, &face_pattern(r, dir, fb as usize))
                        .unwrap();
                    send[dir] = Some(s);
                    recv[dir] = Some(
                        m.gpu
                            .pool
                            .alloc_device(topo.device_of(r as usize), fb, true)
                            .unwrap(),
                    );
                }
            }
        }
        blocks.push(b);
        bufs.push(FaceBufs { send, recv });
    }
    (sim, blocks, Arc::new(bufs))
}

fn verify(sim: &MSim, blocks: &[Block], bufs: &[FaceBufs]) {
    for (r, b) in blocks.iter().enumerate() {
        for dir in 0..6 {
            let Some(nbr) = b.neighbors[dir] else {
                continue;
            };
            // My `dir` ghost face came from the neighbor's opposite face.
            let got = sim
                .world()
                .gpu
                .pool
                .read(bufs[r].recv[dir].unwrap())
                .unwrap();
            let expect = face_pattern(nbr, opposite(dir), got.len());
            assert_eq!(got, expect, "block {r} dir {dir} ghost corrupted");
        }
    }
    // Every injected loss was retried to delivery; none was given up on and
    // no tracked send is left behind.
    let m = sim.world();
    let lossy = m.faults.enabled();
    assert_eq!(sim.metrics().get("ucp.retry") > 0, lossy);
    assert_eq!(sim.metrics().get("ucp.unreachable"), 0);
}

#[test]
fn openmpi_halo_exchange_moves_correct_bytes() {
    for (nodes, machine) in machines() {
        let (mut sim, blocks, bufs) = setup(nodes, machine);
        let blocks2 = blocks.clone();
        let bufs2 = bufs.clone();
        rucx_ompi::launch(&mut sim, move |mpi, ctx| {
            let me = mpi.rank();
            let b = &blocks2[me];
            let mut reqs = vec![];
            for dir in 0..6 {
                if let Some(nbr) = b.neighbors[dir] {
                    reqs.push(mpi.irecv(
                        ctx,
                        bufs2[me].recv[dir].unwrap(),
                        nbr as i32,
                        opposite(dir) as i32,
                    ));
                }
            }
            for dir in 0..6 {
                if let Some(nbr) = b.neighbors[dir] {
                    reqs.push(mpi.isend(
                        ctx,
                        bufs2[me].send[dir].unwrap(),
                        nbr as usize,
                        dir as i32,
                    ));
                }
            }
            mpi.waitall(ctx, reqs);
        });
        rucx_ucp::finish(&mut sim).unwrap_or_else(|e| panic!("{nodes} node(s): {e}"));
        verify(&sim, &blocks, &bufs);
    }
}

#[test]
fn charm_halo_exchange_moves_correct_bytes() {
    use rucx_charm::{launch, ChareRef, Msg};
    use rucx_compat::buf::{Buf, BufMut};
    use std::sync::atomic::{AtomicU64, Ordering};

    struct HaloChare {
        recv: [Option<MemRef>; 6],
    }

    for (nodes, machine) in machines() {
        let (mut sim, blocks, bufs) = setup(nodes, machine);
        let blocks2 = blocks.clone();
        let bufs2 = bufs.clone();
        let total: u64 = blocks.iter().map(|b| b.neighbor_count() as u64).sum();
        let received = Arc::new(AtomicU64::new(0));

        launch(&mut sim, move |pe, ctx| {
            let col = pe.register_collection(blocks2.len() as u64, move |i| i as usize);
            let received = received.clone();
            let ep = pe.register_ep(
                col,
                Some(Box::new(|chare, msg| {
                    let c = chare.downcast_mut::<HaloChare>().unwrap();
                    let mut r: &[u8] = &msg.params;
                    let dir = r.get_u8() as usize;
                    vec![c.recv[opposite(dir)].unwrap()]
                })),
                Box::new(move |_c, _msg: &Msg, pe, ctx| {
                    if received.fetch_add(1, Ordering::SeqCst) + 1 == total {
                        pe.exit_all(ctx);
                    }
                }),
            );
            let me = pe.index;
            pe.insert_chare(
                col,
                me as u64,
                Box::new(HaloChare {
                    recv: bufs2[me].recv,
                }),
            );
            let b = blocks2[me].clone();
            pe.with_chare::<HaloChare, _>(ctx, col, me as u64, |_c, pe, ctx| {
                for dir in 0..6 {
                    if let Some(nbr) = b.neighbors[dir] {
                        let mut p = Vec::new();
                        p.put_u8(dir as u8);
                        pe.send(
                            ctx,
                            ChareRef { col, index: nbr },
                            ep,
                            p,
                            0,
                            vec![bufs2[me].send[dir].unwrap()],
                        );
                    }
                }
            });
            pe.run(ctx);
        });
        rucx_ucp::finish(&mut sim).unwrap_or_else(|e| panic!("{nodes} node(s): {e}"));
        verify(&sim, &blocks, &bufs);
    }
}
