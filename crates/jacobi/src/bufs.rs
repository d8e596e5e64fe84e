//! Per-rank buffers shared by all Jacobi variants: each block's grid and one
//! staged send and receive buffer per halo face.

use rucx_gpu::{MemPool, StreamId};
use rucx_osu::Side;
use rucx_ucp::MSim;

use crate::config::JacobiConfig;
use crate::decomp::{decompose, Block, DIRS};

/// One present halo face: the neighbour across it and the face's send and
/// receive buffers (a device packing buffer and its host staging mirror).
#[derive(Debug, Clone, Copy)]
pub struct Face {
    /// Direction of the face (-x, +x, -y, +y, -z, +z).
    pub dir: usize,
    /// Block index of the neighbour in `dir`.
    pub nbr: u64,
    pub send: Side,
    pub recv: Side,
}

impl Face {
    /// The face's size: [`Block::face_bytes`] of its direction.
    pub fn bytes(&self) -> u64 {
        self.send.d.len
    }
}

/// One block, its device's default stream and its present faces in
/// direction order.
#[derive(Debug, Clone)]
pub struct RankBufs {
    pub block: Block,
    pub stream: StreamId,
    pub faces: Vec<Face>,
}

impl RankBufs {
    /// The face in `dir`; a halo from a side with no neighbour is a
    /// decomposition bug.
    pub fn face(&self, dir: usize) -> &Face {
        self.faces
            .iter()
            .find(|f| f.dir == dir)
            .unwrap_or_else(|| panic!("block {} has no face {dir}", self.block.index))
    }
}

/// Decompose `cfg.domain` into `per_proc` blocks per process and allocate
/// every block on process `block / per_proc` (several blocks per PE only in
/// overdecomposed Charm++ runs). Per block, the grid comes first, then per
/// present direction the device send, device receive, host send and host
/// receive buffers (`MemId`s are numbered in allocation order).
pub fn alloc(sim: &mut MSim, cfg: &JacobiConfig, per_proc: u64) -> Vec<RankBufs> {
    assert_eq!(
        sim.world().topo.procs(),
        cfg.ranks(),
        "simulation topology does not match the Jacobi configuration"
    );
    let grid = decompose(cfg.domain, cfg.ranks() as u64 * per_proc);
    let topo = sim.world().topo.clone();
    let gpu = &mut sim.world_mut().gpu;
    (0..grid.blocks())
        .map(|r| {
            let block = Block::new(cfg.domain, grid, r);
            let proc = (r / per_proc) as usize;
            let (dev, node) = (topo.device_of(proc), topo.node_of(proc));
            let stream = gpu.default_stream(dev);
            let device = |pool: &mut MemPool, bytes| {
                pool.alloc_device(dev, bytes, false)
                    .expect("Jacobi block fits in device memory")
            };
            let pool = &mut gpu.pool;
            // Old + new grid storage: phantom, never read, but it holds the
            // block's share of device memory.
            device(pool, block.cells() * 8 * 2);
            let faces = (0..DIRS)
                .filter_map(|dir| {
                    let nbr = block.neighbors[dir]?;
                    let fb = block.face_bytes(dir);
                    let [ds, dr] = [(); 2].map(|()| device(pool, fb));
                    // Host staging buffers are pageable: the host-staging
                    // variant models the pre-GPU-aware application the paper
                    // argues against, which allocates with plain malloc.
                    let [hs, hr] = [(); 2].map(|()| pool.alloc_host(node, fb, false, false));
                    Some(Face {
                        dir,
                        nbr,
                        send: Side {
                            d: ds,
                            h: hs,
                            stream,
                        },
                        recv: Side {
                            d: dr,
                            h: hr,
                            stream,
                        },
                    })
                })
                .collect();
            RankBufs {
                block,
                stream,
                faces,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use rucx_fabric::Topology;
    use rucx_gpu::MemKind;
    use rucx_ucp::build_sim;

    use super::*;

    /// One block per GPU, then two per GPU (Charm++ `overdecomp = 2`):
    /// each block gets exactly its present neighbours' faces, in direction
    /// order, sized by `face_bytes`, on its process's device and node.
    #[test]
    fn faces_follow_neighbours_and_placement() {
        let mut cfg = JacobiConfig::weak(2, crate::Mode::Device);
        cfg.domain = crate::Domain::weak_scaled(192, 2);
        let topo = Topology::summit(cfg.nodes);
        for per_proc in [1, 2] {
            let sim = &mut build_sim(topo.clone(), cfg.machine.clone());
            let bufs = alloc(sim, &cfg, per_proc);
            assert_eq!(bufs.len() as u64, topo.procs() as u64 * per_proc);
            let gpu = &sim.world().gpu;
            for (r, b) in bufs.iter().enumerate() {
                let proc = r / per_proc as usize;
                let (dev, node) = (topo.device_of(proc), topo.node_of(proc));
                assert_eq!(b.block.index, r as u64);
                assert_eq!(b.stream, gpu.default_stream(dev));
                let present: Vec<(usize, u64)> = (0..DIRS)
                    .filter_map(|d| b.block.neighbors[d].map(|n| (d, n)))
                    .collect();
                let faces: Vec<(usize, u64)> = b.faces.iter().map(|f| (f.dir, f.nbr)).collect();
                assert_eq!(faces, present, "{per_proc} per process, block {r}");
                for f in &b.faces {
                    assert_eq!(f.bytes(), b.block.face_bytes(f.dir));
                    for side in [f.send, f.recv] {
                        assert_eq!(side.stream, b.stream);
                        assert_eq!(gpu.pool.kind(side.d.id), Ok(MemKind::Device(dev)));
                        assert_eq!(gpu.pool.kind(side.h.id), Ok(MemKind::Host { node }));
                        for m in [side.d, side.h] {
                            assert_eq!(m.len, f.bytes());
                            assert_eq!(gpu.pool.size(m.id), Ok(f.bytes()));
                        }
                    }
                }
            }
        }
    }
}
