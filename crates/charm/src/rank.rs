//! The rank shell: one rank of a model layer on one PE, shared by AMPI's
//! `MpiRank` and Charm4py's `PyProc` (paper §III-C/D: two thin layers over
//! the same runtime).
//!
//! A rank is a one-element-per-PE collection whose element is the rank's
//! state chare, one entry method for the layer's messages (ep 0), one for
//! barrier releases (ep 1), and a PE-wide error route. The scheduler below
//! may dispatch a large (rendezvous) envelope after a later small one, so
//! the shell stamps a per-destination sequence number and restores send
//! order per source before the layer sees a message (DESIGN §9). A
//! message's parameters are the shell's `(src u32, seq u64)` prefix, the
//! layer's header ([`Layer::HEADER_LEN`] bytes), then one [`Payload`].

use std::any::Any;
use std::marker::PhantomData;

use rucx_coll::ReduceOp;
use rucx_compat::buf::{Buf, BufMut};
use rucx_sim::time::Duration;
use rucx_sim::Metric;
use rucx_ucp::order::{Arrival, RecvWindow, SendSeq};
use rucx_ucp::{MCtx, MSim, UcpError};

use crate::metrics;
use crate::pe::{ChareRef, Collection, EpId, ExecFn, Pe, RedTarget};
use crate::wire::Payload;

const EP_MSG: EpId = 0;
const EP_BARRIER: EpId = 1;

/// What a model layer puts on the shell. The implementing type is the
/// layer's per-rank state; it lives in the rank's state chare.
pub trait Layer: Default + 'static {
    /// The layer's own message header, written after the shell's prefix.
    type Header: Default + 'static;
    /// Bytes [`Layer::put_header`] writes.
    const HEADER_LEN: usize;
    /// Counts arrivals held in the receive window (`<layer>.reorder.held`).
    const HELD: Metric;
    /// CPU time charged when a message reaches the rank, before ordering;
    /// zero charges (and yields) nothing.
    const ARRIVAL: Duration;

    fn put_header(h: &Self::Header, b: &mut Vec<u8>);
    fn get_header(r: &mut &[u8]) -> Self::Header;
    /// Take one message, in send order from its source.
    fn accept(&mut self, m: Arrived<Self::Header>, pe: &mut Pe, ctx: &mut MCtx);
    /// Map an asynchronous communication error onto the layer. Returns the
    /// peer to forget: its held arrivals go, and both directions of its
    /// stream restart at sequence number 0.
    fn error(&mut self, err: &UcpError) -> Option<usize>;
}

/// One message as the layer receives it.
pub struct Arrived<H> {
    pub src: u32,
    pub seq: u64,
    pub header: H,
    pub payload: Payload,
}

/// The state chare behind one rank.
#[derive(Default)]
struct Chare<L: Layer> {
    layer: L,
    window: RecvWindow<u32, Arrived<L::Header>>,
    send: SendSeq<usize>,
    /// Barrier releases received.
    barriers: u64,
}

/// The rank's state chare on `pe` (the collection holds nothing else).
fn chare<L: Layer>(pe: &mut Pe, col: Collection) -> &mut Chare<L> {
    let index = pe.index as u64;
    pe.chare_mut(col, index)
}

fn this<L: Layer>(chare: &mut dyn Any) -> &mut Chare<L> {
    chare.downcast_mut().expect("a rank shell state chare")
}

impl<L: Layer> Chare<L> {
    fn arrive(&mut self, mut r: &[u8], pe: &mut Pe, ctx: &mut MCtx) {
        if L::ARRIVAL > 0 {
            ctx.advance(L::ARRIVAL);
        }
        let (src, seq) = (r.get_u32(), r.get_u64());
        let m = Arrived {
            src,
            seq,
            header: L::get_header(&mut r),
            payload: Payload::decode(&mut r),
        };
        match self.window.arrive(src, seq, m) {
            Arrival::Deliver(m) => self.layer.accept(m, pe, ctx),
            Arrival::Held => ctx.with_world(|_, s| s.count(L::HELD)),
            Arrival::Duplicate => debug_assert!(false, "duplicate message from {src}"),
        }
        // Release the consecutively-sequenced messages a delivery unblocked.
        while let Some(m) = self.window.release(&src) {
            self.layer.accept(m, pe, ctx);
        }
    }
}

/// One rank of layer `L` on its PE (non-SMP: one rank per PE per GPU).
pub struct Rank<L: Layer> {
    pub pe: Pe,
    col: Collection,
    layer: PhantomData<L>,
}

impl<L: Layer> Rank<L> {
    fn new(index: usize, n_pes: usize) -> Self {
        let mut pe = Pe::new(index, n_pes);
        let col = pe.register_collection(n_pes as u64, |i| i as usize);
        let on_msg: ExecFn = Box::new(|c, m, pe, ctx| this::<L>(c).arrive(&m.params, pe, ctx));
        pe.register_ep(col, None, on_msg);
        pe.register_ep(col, None, Box::new(|c, _, _, _| this::<L>(c).barriers += 1));
        pe.insert_chare(col, index as u64, Box::new(Chare::<L>::default()));
        pe.set_default_error_handler(Box::new(move |err, pe, _| {
            let c = chare::<L>(pe, col);
            if let Some(p) = c.layer.error(err) {
                c.window.forget(&(p as u32));
                c.send.forget(&p);
            }
        }));
        let layer = PhantomData;
        Rank { pe, col, layer }
    }

    /// The layer's state, between scheduler pumps.
    pub fn state(&mut self) -> &mut L {
        &mut chare::<L>(&mut self.pe, self.col).layer
    }

    /// Pump the scheduler until `f` takes a value out of the layer's state.
    pub fn pump_for<T>(
        &mut self,
        ctx: &mut MCtx,
        mut f: impl FnMut(&mut L, &mut MCtx) -> Option<T>,
    ) -> T {
        let col = self.col;
        self.pe
            .pump_for(ctx, |pe, ctx| f(&mut chare::<L>(pe, col).layer, ctx))
    }

    /// Send `payload` under `header` to rank `dst`, stamped with the next
    /// sequence number of this rank's stream to it. `phantom` bytes of
    /// unmaterialized payload ride on the wire.
    pub fn send(
        &mut self,
        ctx: &mut MCtx,
        dst: usize,
        header: L::Header,
        payload: Payload,
        phantom: u64,
    ) {
        let seq = chare::<L>(&mut self.pe, self.col).send.next(dst);
        let src = self.pe.index as u32;
        let params = payload.encode(4 + 8 + L::HEADER_LEN, |b| {
            b.put_u32(src);
            b.put_u64(seq);
            L::put_header(&header, b);
        });
        let (col, index) = (self.col, dst as u64);
        let to = ChareRef { col, index };
        self.pe.send(ctx, to, EP_MSG, params, phantom, vec![]);
    }

    /// Global barrier: a Charm++ reduction whose result is broadcast back.
    pub fn barrier(&mut self, ctx: &mut MCtx) {
        let col = self.col;
        let old = chare::<L>(&mut self.pe, col).barriers;
        let (me, release) = (self.pe.index as u64, RedTarget::Broadcast(col, EP_BARRIER));
        self.pe
            .contribute(ctx, col, me, ReduceOp::Sum, 0.0, release);
        self.pe.pump_for(ctx, |pe, _| {
            (chare::<L>(pe, col).barriers > old).then_some(())
        });
    }

    /// Messages held in the receive window, waiting for an earlier one.
    pub fn held(&mut self) -> usize {
        chare::<L>(&mut self.pe, self.col).window.held()
    }
}

/// SPMD launch, like `charmrun`: run `body(pe, n_pes, ctx)` as process
/// `{name}{pe}` on every simulated process.
pub fn spmd<F>(sim: &mut MSim, name: &str, body: F)
where
    F: Fn(usize, usize, &mut MCtx) + Send + Sync + Clone + 'static,
{
    let n = sim.world().topo.procs();
    for p in 0..n {
        let body = body.clone();
        sim.spawn(format!("{name}{p}"), 0, move |ctx| body(p, n, ctx));
    }
}

/// SPMD launch of one rank per process: `open` wraps the shell in the
/// layer's handle and `body` runs on it. When `body` returns, what the
/// rank's window still holds is counted under
/// [`metrics::RANK_HELD_AT_EXIT`]; a clean run leaves nothing.
pub fn launch<L, R, F>(sim: &mut MSim, name: &str, open: fn(Rank<L>) -> R, body: F)
where
    L: Layer,
    R: AsMut<Rank<L>> + 'static,
    F: Fn(&mut R, &mut MCtx) + Send + Sync + Clone + 'static,
{
    spmd(sim, name, move |p, n, ctx| {
        let mut r = open(Rank::new(p, n));
        body(&mut r, ctx);
        let held = r.as_mut().held() as u64;
        ctx.with_world(move |_, s| s.count_n(metrics::RANK_HELD_AT_EXIT, held));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rucx_fabric::Topology;
    use rucx_sim::time::us;
    use rucx_ucp::{build_sim, MachineConfig};
    use std::sync::Arc;

    /// A layer that notes timed-out peers and forgets them.
    #[derive(Default)]
    struct Log(Vec<usize>);

    impl Layer for Log {
        type Header = ();
        const HEADER_LEN: usize = 0;
        const HELD: Metric = Metric::counter("test.reorder.held");
        const ARRIVAL: Duration = 0;

        fn put_header(_: &(), _: &mut Vec<u8>) {}
        fn get_header(_: &mut &[u8]) {}
        fn accept(&mut self, _: Arrived<()>, _: &mut Pe, _: &mut MCtx) {}
        fn error(&mut self, err: &UcpError) -> Option<usize> {
            let UcpError::EndpointTimeout { dst, .. } = *err else {
                return None;
            };
            self.0.push(dst);
            Some(dst)
        }
    }

    struct Proc(Rank<Log>);

    impl AsMut<Rank<Log>> for Proc {
        fn as_mut(&mut self) -> &mut Rank<Log> {
            &mut self.0
        }
    }

    fn from6(seq: u64) -> Arrived<()> {
        let (src, header, size) = (6, (), 0);
        let payload = Payload::Inline { bytes: None, size };
        Arrived {
            src,
            seq,
            header,
            payload,
        }
    }

    /// 12 PEs pass two barriers back to back: the second is not released by
    /// the first's broadcast, and neither releases a rank before the last
    /// one entered it. Then the nodes partition: rank 0's message to rank 6
    /// times out, and the peer is forgotten — what was held from it goes,
    /// and its stream restarts at sequence number 0 both ways.
    #[test]
    fn barriers_then_a_timed_out_peer_is_forgotten() {
        let split = us(2_000.0);
        let mut spec = rucx_fault::FaultSpec::default();
        spec.partitions.push(rucx_fault::PartitionWindow {
            from: split,
            until: u64::MAX,
        });
        let mut cfg = MachineConfig::default();
        cfg.ucp.max_retries = 2;
        cfg.fault = Some(spec);
        let mut sim = build_sim(Topology::summit(2), cfg);
        let exits = Arc::new(rucx_compat::sync::Mutex::new(Vec::new()));
        let exits2 = exits.clone();
        launch(&mut sim, "r", Proc, move |Proc(r), ctx| {
            let me = r.pe.index as u64;
            ctx.advance(us(10.0) * me);
            r.barrier(ctx);
            let first = ctx.now();
            ctx.advance(us(10.0) * (11 - me));
            r.barrier(ctx);
            exits2.lock().push((me, first, ctx.now()));
            if me != 0 {
                return;
            }
            ctx.advance(split.saturating_sub(ctx.now()));
            r.send(ctx, 6, (), from6(0).payload, 0);
            // Seq 1 from the peer, held behind a seq 0 that the partition
            // keeps from ever arriving.
            let col = r.col;
            let held = chare::<Log>(&mut r.pe, col).window.arrive(6, 1, from6(1));
            assert!(matches!(held, Arrival::Held));
            assert_eq!(r.pump_for(ctx, |st, _| st.0.first().copied()), 6);
            assert_eq!(r.held(), 0, "the dead peer's holds must go");
            let c = chare::<Log>(&mut r.pe, col);
            assert_eq!(c.send.next(6), 0, "the stream to it restarts");
            let fresh = c.window.arrive(6, 0, from6(0));
            assert!(matches!(fresh, Arrival::Deliver(_)), "so does its stream");
        });
        rucx_ucp::finish(&mut sim).unwrap();
        let v = exits.lock();
        assert_eq!(v.len(), 12);
        let last_entry = |(me, first, _): &(u64, u64, u64)| first + us(10.0) * (11 - me);
        let last_entry = v.iter().map(last_entry).max().unwrap();
        for &(me, first, second) in v.iter() {
            assert!(first >= us(110.0), "rank {me} left barrier 1 early");
            assert!(second >= last_entry, "rank {me} left barrier 2 early");
        }
        assert!(sim.metrics().get("ucp.unreachable") >= 1);
        assert_eq!(sim.metrics().get("charm.rank.held_at_exit"), 0);
    }
}
