//! A common point-to-point interface over AMPI and OpenMPI so the MPI-style
//! benchmarks are written once (the OSU sources are likewise shared between
//! MPI implementations).

use rucx_ampi::MpiRank;
use rucx_gpu::MemRef;
use rucx_ompi::OmpiRank;
use rucx_ucp::{MCtx, MSim};

/// Minimal MPI-ish p2p surface used by the benchmarks.
pub trait P2p {
    type Req;
    fn rank(&self) -> usize;
    fn send(&mut self, ctx: &mut MCtx, buf: MemRef, dst: usize, tag: i32);
    fn recv(&mut self, ctx: &mut MCtx, buf: MemRef, src: usize, tag: i32);
    fn isend(&mut self, ctx: &mut MCtx, buf: MemRef, dst: usize, tag: i32) -> Self::Req;
    fn irecv(&mut self, ctx: &mut MCtx, buf: MemRef, src: usize, tag: i32) -> Self::Req;
    fn waitall(&mut self, ctx: &mut MCtx, reqs: Vec<Self::Req>);
    fn barrier(&mut self, ctx: &mut MCtx);
}

impl P2p for MpiRank {
    type Req = rucx_ampi::Request;
    fn rank(&self) -> usize {
        MpiRank::rank(self)
    }
    fn send(&mut self, ctx: &mut MCtx, buf: MemRef, dst: usize, tag: i32) {
        MpiRank::send(self, ctx, buf, dst, tag)
    }
    fn recv(&mut self, ctx: &mut MCtx, buf: MemRef, src: usize, tag: i32) {
        MpiRank::recv(self, ctx, buf, src as i32, tag);
    }
    fn isend(&mut self, ctx: &mut MCtx, buf: MemRef, dst: usize, tag: i32) -> Self::Req {
        MpiRank::isend(self, ctx, buf, dst, tag)
    }
    fn irecv(&mut self, ctx: &mut MCtx, buf: MemRef, src: usize, tag: i32) -> Self::Req {
        MpiRank::irecv(self, ctx, buf, src as i32, tag)
    }
    fn waitall(&mut self, ctx: &mut MCtx, reqs: Vec<Self::Req>) {
        MpiRank::waitall(self, ctx, &reqs)
    }
    fn barrier(&mut self, ctx: &mut MCtx) {
        MpiRank::barrier(self, ctx)
    }
}

impl P2p for OmpiRank {
    type Req = rucx_ompi::Request;
    fn rank(&self) -> usize {
        OmpiRank::rank(self)
    }
    fn send(&mut self, ctx: &mut MCtx, buf: MemRef, dst: usize, tag: i32) {
        OmpiRank::send(self, ctx, buf, dst, tag)
    }
    fn recv(&mut self, ctx: &mut MCtx, buf: MemRef, src: usize, tag: i32) {
        OmpiRank::recv(self, ctx, buf, src as i32, tag);
    }
    fn isend(&mut self, ctx: &mut MCtx, buf: MemRef, dst: usize, tag: i32) -> Self::Req {
        OmpiRank::isend(self, ctx, buf, dst, tag)
    }
    fn irecv(&mut self, ctx: &mut MCtx, buf: MemRef, src: usize, tag: i32) -> Self::Req {
        OmpiRank::irecv(self, ctx, buf, src as i32, tag)
    }
    fn waitall(&mut self, ctx: &mut MCtx, reqs: Vec<Self::Req>) {
        OmpiRank::waitall(self, ctx, reqs)
    }
    fn barrier(&mut self, ctx: &mut MCtx) {
        OmpiRank::barrier(self, ctx)
    }
}

/// Launches a per-process body with the model's runtime constructed.
pub trait RankFactory: Clone + Send + Sync + 'static {
    type Rank: P2p;
    fn launch<F>(&self, sim: &mut MSim, body: F)
    where
        F: Fn(&mut Self::Rank, &mut MCtx) + Send + Sync + Clone + 'static;
}

/// Factory for AMPI ranks.
#[derive(Clone, Copy)]
pub struct AmpiFactory;

impl RankFactory for AmpiFactory {
    type Rank = MpiRank;
    fn launch<F>(&self, sim: &mut MSim, body: F)
    where
        F: Fn(&mut Self::Rank, &mut MCtx) + Send + Sync + Clone + 'static,
    {
        rucx_ampi::launch(sim, body);
    }
}

/// Factory for OpenMPI ranks.
#[derive(Clone, Copy)]
pub struct OmpiFactory;

impl RankFactory for OmpiFactory {
    type Rank = OmpiRank;
    fn launch<F>(&self, sim: &mut MSim, body: F)
    where
        F: Fn(&mut Self::Rank, &mut MCtx) + Send + Sync + Clone + 'static,
    {
        rucx_ompi::launch(sim, body);
    }
}
