//! The PE (Processing Element) runtime: message-driven scheduler, chare
//! management, entry-method dispatch, and the GPU-aware send/receive paths
//! of §III-B.
//!
//! One [`Pe`] lives inside each simulated process (non-SMP build: one PE per
//! process per GPU). All Charm++ state is process-local; the only shared
//! state is the [`rucx_ucp::Machine`] below, accessed through the UCX
//! machine layer.

use std::any::Any;
use std::collections::VecDeque;
use std::rc::Rc;

use rucx_coll::Tree;
use rucx_compat::idmap::IdMap;
use rucx_gpu::MemRef;
use rucx_sim::sched::Trigger;
use rucx_ucp::config::CPU_CALL;
use rucx_ucp::{
    probe_pop, rndv_fetch, tag_recv_nb, tag_send_nb, Completion, FetchDst, MCtx, PoppedMsg,
    RecvCompletion, SendBuf, UcpError,
};

use crate::metrics;
use crate::mltags::TagScheme;
use crate::params::{
    pack_cost, DEVICE_META_OVERHEAD, IDLE_POLL, POST_OVERHEAD, RECV_OVERHEAD, SEND_OVERHEAD,
};
use crate::wire::{DeviceMeta, Envelope};

/// Identifier of a chare collection (array) registered on a PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Collection(pub u16);

/// Entry-method id within a collection.
pub type EpId = u16;

/// Reference to a chare array element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChareRef {
    pub col: Collection,
    pub index: u64,
}

/// Reserved collection id for runtime-internal messages.
const SYS_COLLECTION: u16 = u16::MAX;
const SYS_EXIT: EpId = 0;
const SYS_REDUCE: EpId = 1;
/// Carries a packed (PUPed) chare to its new PE.
const SYS_MIGRATE: EpId = 2;
/// Location update: (col, index, new_pe).
const SYS_LOCATION: EpId = 3;
/// Quiescence-detection wave: root asks every PE for its counters.
const SYS_QD_PING: EpId = 4;
/// Quiescence-detection reply: (wave, created, processed).
const SYS_QD_REPLY: EpId = 5;
/// Broadcast marker index: deliver to every local element.
const BCAST_INDEX: u64 = u64::MAX;

/// A message as seen by an entry method.
pub struct Msg {
    /// PE that sent the message.
    pub src_pe: usize,
    /// Marshalled host-side parameters.
    pub params: Vec<u8>,
    /// Sizes of the GPU buffers received in tandem (in declaration order);
    /// the data is already in the buffers the post entry method supplied
    /// when the regular entry method runs.
    pub device_sizes: Vec<u64>,
    /// Phantom host payload size carried by the envelope.
    pub phantom_payload: u64,
}

/// Post entry method (Zero Copy API): given the chare and the incoming
/// message, return the destination GPU buffers (one per device parameter).
#[allow(clippy::type_complexity)]
pub type PostFn = Box<dyn Fn(&mut dyn Any, &Msg) -> Vec<MemRef>>;
/// Regular entry method.
pub type ExecFn = Box<dyn Fn(&mut dyn Any, &Msg, &mut Pe, &mut MCtx)>;
/// Per-chare communication-error handler: invoked on the chare whose send
/// the reliability layer gave up on (routed via the send-context stamp).
pub type ErrorFn = Box<dyn Fn(&mut dyn Any, &UcpError, &mut Pe, &mut MCtx)>;
/// PE-wide fallback error handler (no owning chare identified, or the chare
/// has no handler of its own). Blocking layers built on [`Pe`] (AMPI,
/// Charm4py) install one to map errors onto their own semantics.
pub type DefaultErrorFn = Box<dyn Fn(&UcpError, &mut Pe, &mut MCtx)>;

/// One registered entry method.
pub struct EpEntry {
    pub post: Option<PostFn>,
    pub exec: ExecFn,
}

/// Reduction operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedOp {
    Sum,
    Min,
    Max,
    /// No value; pure synchronization.
    Barrier,
}

/// Where a reduction result is delivered (as a regular entry-method
/// invocation with the result marshalled as one `f64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedTarget {
    /// Broadcast to every element of the collection.
    Broadcast(Collection, EpId),
    /// Send to a single chare.
    Chare(ChareRef, EpId),
}

struct RedEntry {
    local_got: usize,
    children_got: usize,
    acc: f64,
    count: u64,
    target: Option<RedTarget>,
}

struct RedMgr {
    entries: IdMap<u64, RedEntry>,
    /// Per-element next sequence number (each element contributes once per
    /// reduction, in the same order everywhere).
    elem_seq: IdMap<u64, u64>,
}

impl RedMgr {
    fn new() -> Self {
        RedMgr {
            entries: IdMap::default(),
            elem_seq: IdMap::default(),
        }
    }
}

struct CollectionData {
    map: Rc<dyn Fn(u64) -> usize>,
    num_elements: u64,
    eps: Vec<Rc<EpEntry>>,
    local_indices: Vec<u64>,
    /// For the reduction tree: which PEs' subtrees contain elements.
    subtree_elems: Rc<Vec<u64>>,
    red: RedMgr,
    /// Deserializer for migrated chares (PUP unpacking). Collections
    /// without a factory cannot receive migrations.
    #[allow(clippy::type_complexity)]
    factory: Option<Box<dyn Fn(&[u8]) -> Box<dyn Any>>>,
    /// Known element locations overriding the home map (updated by
    /// migrations this PE learns about).
    location: IdMap<u64, usize>,
}

struct PendingDevice {
    env: Envelope,
    triggers: Vec<Trigger>,
}

/// The per-process Charm++ runtime.
pub struct Pe {
    /// This PE's index (== process index == GPU index).
    pub index: usize,
    /// Total number of PEs.
    pub n_pes: usize,
    /// Machine-layer tag scheme.
    pub scheme: TagScheme,
    /// The PE tree reductions climb. Defaults to the historical binary
    /// tree; [`Pe::set_reduction_tree`] swaps in a topology-aware one.
    red_tree: Rc<Tree>,
    device_cnt: u64,
    collections: Vec<CollectionData>,
    chares: IdMap<(u16, u64), Box<dyn Any>>,
    local_q: VecDeque<Envelope>,
    pending_device: Vec<PendingDevice>,
    /// Receives posted *before* their metadata arrived, keyed by full
    /// machine-layer tag (user-provided tag path, §VI improvement).
    pre_posted: IdMap<u64, Trigger>,
    exit: bool,
    /// Messages dispatched (diagnostics).
    pub msgs_processed: u64,
    /// Quiescence-detection counters: user-level envelopes created and
    /// processed by this PE (QD's own control traffic is excluded).
    qd_created: u64,
    qd_processed: u64,
    /// Root-side state of an active quiescence detection.
    qd: Option<QdState>,
    /// Per-chare communication-error handlers ([`Pe::set_error_handler`]).
    error_handlers: IdMap<(u16, u64), Rc<ErrorFn>>,
    /// PE-wide fallback error handler.
    default_error_handler: Option<Rc<DefaultErrorFn>>,
    /// Chare whose entry method is currently executing (stamped into
    /// tracked sends so give-up errors route back to it).
    current_chare: Option<(u16, u64)>,
    /// Errors no handler claimed — kept (not dropped) so drivers and tests
    /// can still observe them.
    pub unhandled_errors: Vec<UcpError>,
}

/// Send-context encoding: (collection + 1) in the top 16 bits, chare index
/// below. 0 stays "unset"; indices are assumed < 2^48 (enforced nowhere —
/// a wrapped index merely mis-routes the error to the default handler).
fn encode_chare_ctx(key: (u16, u64)) -> u64 {
    ((key.0 as u64 + 1) << 48) | (key.1 & ((1u64 << 48) - 1))
}

fn decode_chare_ctx(ctx: u64) -> Option<(u16, u64)> {
    if ctx == 0 {
        return None;
    }
    Some((((ctx >> 48) - 1) as u16, ctx & ((1u64 << 48) - 1)))
}

/// Stamp the send context for the next tracked send. No-op on clean runs
/// (the register is only consulted when faults are enabled).
fn stamp_ctx(w: &mut rucx_ucp::Machine, sctx: u64) {
    if sctx != 0 && w.faults.enabled() {
        w.ucp.set_send_ctx(sctx);
    }
}

struct QdState {
    wave: u64,
    replies: usize,
    created: u64,
    processed: u64,
    prev: Option<(u64, u64)>,
    target: (ChareRef, EpId),
}

impl Pe {
    /// Create the runtime for one PE. Call inside the PE's process body.
    pub fn new(index: usize, n_pes: usize) -> Self {
        Pe {
            index,
            n_pes,
            scheme: TagScheme::default(),
            red_tree: Rc::new(Tree::binary(n_pes)),
            device_cnt: 0,
            collections: Vec::new(),
            chares: IdMap::default(),
            local_q: VecDeque::new(),
            pending_device: Vec::new(),
            pre_posted: IdMap::default(),
            exit: false,
            msgs_processed: 0,
            qd_created: 0,
            qd_processed: 0,
            qd: None,
            error_handlers: IdMap::default(),
            default_error_handler: None,
            current_chare: None,
            unhandled_errors: Vec::new(),
        }
    }

    // ---- Registration -------------------------------------------------

    /// Replace the reduction spanning tree (e.g. with
    /// [`Tree::topology`], which keeps contributions on NVLink until one
    /// leader per node crosses the network). Must be called identically on
    /// every PE, before any collection is registered.
    pub fn set_reduction_tree(&mut self, tree: Tree) {
        assert_eq!(tree.len(), self.n_pes, "tree must span every PE");
        assert!(
            self.collections.is_empty(),
            "set the reduction tree before registering collections"
        );
        self.red_tree = Rc::new(tree);
    }

    /// Register a chare collection with `num_elements` elements and an
    /// index→PE placement map. Must be called identically on every PE
    /// (SPMD registration, as in the real runtime).
    pub fn register_collection(
        &mut self,
        num_elements: u64,
        map: impl Fn(u64) -> usize + 'static,
    ) -> Collection {
        let map: Rc<dyn Fn(u64) -> usize> = Rc::new(map);
        // Elements per PE, then per-subtree totals along the reduction tree.
        let mut per_pe = vec![0u64; self.n_pes];
        for i in 0..num_elements {
            let pe = map(i);
            assert!(pe < self.n_pes, "map({i}) = {pe} out of range");
            per_pe[pe] += 1;
        }
        let subtree = self.red_tree.subtree_weights(&per_pe);
        let local_indices: Vec<u64> = (0..num_elements)
            .filter(|&i| map(i) == self.index)
            .collect();
        let id = Collection(self.collections.len() as u16);
        self.collections.push(CollectionData {
            map,
            num_elements,
            eps: Vec::new(),
            local_indices,
            subtree_elems: Rc::new(subtree),
            red: RedMgr::new(),
            factory: None,
            location: IdMap::default(),
        });
        id
    }

    /// Register the deserializer used to reconstruct chares of `col` that
    /// migrate to this PE (the PUP "unpacking" side). Must be registered
    /// identically on every PE before any migration.
    pub fn set_factory(&mut self, col: Collection, f: impl Fn(&[u8]) -> Box<dyn Any> + 'static) {
        self.collections[col.0 as usize].factory = Some(Box::new(f));
    }

    /// Register the next entry method of `col`; returns its id. Must be
    /// called in the same order on every PE.
    pub fn register_ep(&mut self, col: Collection, post: Option<PostFn>, exec: ExecFn) -> EpId {
        let c = &mut self.collections[col.0 as usize];
        let id = c.eps.len() as EpId;
        c.eps.push(Rc::new(EpEntry { post, exec }));
        id
    }

    /// Insert a local chare instance for `index` (must map to this PE).
    pub fn insert_chare(&mut self, col: Collection, index: u64, chare: Box<dyn Any>) {
        debug_assert_eq!(
            (self.collections[col.0 as usize].map)(index),
            self.index,
            "chare {index} does not map to PE {}",
            self.index
        );
        self.chares.insert((col.0, index), chare);
    }

    /// Register a communication-error handler for one local chare: when a
    /// send issued from its entry methods is abandoned by the reliability
    /// layer, the handler runs with the chare, like an entry method would.
    pub fn set_error_handler(&mut self, col: Collection, index: u64, f: ErrorFn) {
        self.error_handlers.insert((col.0, index), Rc::new(f));
    }

    /// Register the PE-wide fallback communication-error handler.
    pub fn set_default_error_handler(&mut self, f: DefaultErrorFn) {
        self.default_error_handler = Some(Rc::new(f));
    }

    /// Indices of this PE's local elements of `col`.
    pub fn local_indices(&self, col: Collection) -> &[u64] {
        &self.collections[col.0 as usize].local_indices
    }

    /// Number of elements in a collection.
    pub fn num_elements(&self, col: Collection) -> u64 {
        self.collections[col.0 as usize].num_elements
    }

    /// The element's *home* PE per the placement map (never changes).
    pub fn home_pe(&self, col: Collection, index: u64) -> usize {
        (self.collections[col.0 as usize].map)(index)
    }

    /// Best-known current location of an element: this PE's location cache,
    /// falling back to the home map. Stale entries are corrected by
    /// forwarding (messages reaching a PE that no longer owns the chare are
    /// re-routed by the owner-of-record chain).
    pub fn route_pe(&self, col: Collection, index: u64) -> usize {
        let c = &self.collections[col.0 as usize];
        c.location
            .get(&index)
            .copied()
            .unwrap_or_else(|| (c.map)(index))
    }

    /// Typed access to a local chare (for driver-style code such as AMPI
    /// rank bodies living between scheduler pumps).
    pub fn chare_mut<T: 'static>(&mut self, col: Collection, index: u64) -> &mut T {
        self.chares
            .get_mut(&(col.0, index))
            .expect("chare not present on this PE")
            .downcast_mut::<T>()
            .expect("chare type mismatch")
    }

    /// Run `f` with a local chare detached from the PE table, so the chare
    /// can drive the runtime (send messages, contribute) like an entry
    /// method would. Used by driver code (e.g. a main-chare kickoff).
    pub fn with_chare<T: 'static, R>(
        &mut self,
        ctx: &mut MCtx,
        col: Collection,
        index: u64,
        f: impl FnOnce(&mut T, &mut Pe, &mut MCtx) -> R,
    ) -> R {
        let key = (col.0, index);
        let mut chare = self
            .chares
            .remove(&key)
            .expect("chare not present on this PE");
        let prev = self.current_chare.replace(key);
        let r = f(
            chare.downcast_mut::<T>().expect("chare type mismatch"),
            self,
            ctx,
        );
        self.current_chare = prev;
        self.chares.insert(key, chare);
        r
    }

    /// Migrate a local chare to `dest_pe`: the chare is packed with `pup`,
    /// removed locally, shipped in a system message (its serialized state
    /// travels as envelope payload), and reconstructed on `dest_pe` with
    /// the collection's registered factory. The home PE is notified so
    /// future senders using the home map reach the new location; messages
    /// already in flight to this PE are forwarded.
    ///
    /// Restrictions (as documented, not enforced): no device transfers or
    /// reduction contributions may be in flight for the migrating chare.
    pub fn migrate<T: 'static>(
        &mut self,
        ctx: &mut MCtx,
        col: Collection,
        index: u64,
        dest_pe: usize,
        pup: impl Fn(&T) -> Vec<u8>,
    ) {
        assert!(dest_pe < self.n_pes);
        if dest_pe == self.index {
            return;
        }
        let chare = self.chares.remove(&(col.0, index)).expect(
            "migrating a chare not on this PE (from inside its own entry \
             method, use migrate_packed)",
        );
        let data = pup(chare.downcast_ref::<T>().expect("chare type mismatch"));
        self.migrate_packed(ctx, col, index, dest_pe, data);
    }

    /// Migration entry point for a chare migrating *itself* from within one
    /// of its entry methods (it is detached from the chare table during
    /// execution, so the handler packs its own state and hands the bytes
    /// here; the scheduler drops the detached instance afterwards).
    pub fn migrate_packed(
        &mut self,
        ctx: &mut MCtx,
        col: Collection,
        index: u64,
        dest_pe: usize,
        data: Vec<u8>,
    ) {
        assert!(dest_pe < self.n_pes);
        if dest_pe == self.index {
            return;
        }
        self.chares.remove(&(col.0, index)); // no-op when self-migrating
        let c = &mut self.collections[col.0 as usize];
        c.local_indices.retain(|&i| i != index);
        c.location.insert(index, dest_pe);
        self.msgs_processed += 1;
        // Ship the packed chare.
        let mut params = Vec::with_capacity(20 + data.len());
        crate::wire::marshal::put_u64(&mut params, col.0 as u64);
        crate::wire::marshal::put_u64(&mut params, index);
        crate::wire::marshal::put_bytes(&mut params, &data);
        let env = Envelope {
            collection: SYS_COLLECTION,
            index: 0,
            ep: SYS_MIGRATE,
            src_pe: self.index as u32,
            params,
            phantom_payload: 0,
            device: vec![],
        };
        self.post_envelope(ctx, dest_pe, env);
        // Tell the home PE (senders falling back to the home map route
        // through it and get forwarded).
        let home = self.home_pe(col, index);
        if home != dest_pe && home != self.index {
            let mut params = Vec::with_capacity(24);
            crate::wire::marshal::put_u64(&mut params, col.0 as u64);
            crate::wire::marshal::put_u64(&mut params, index);
            crate::wire::marshal::put_u64(&mut params, dest_pe as u64);
            let env = Envelope {
                collection: SYS_COLLECTION,
                index: 0,
                ep: SYS_LOCATION,
                src_pe: self.index as u32,
                params,
                phantom_payload: 0,
                device: vec![],
            };
            self.post_envelope(ctx, home, env);
        }
    }

    // ---- Sending ------------------------------------------------------

    /// Invoke entry method `ep` on chare `to` with marshalled `params`,
    /// `phantom` bytes of extra (unmaterialized) host payload, and GPU
    /// buffers sent in tandem through the machine layer (the
    /// `nocopydevice` path). Fire-and-forget, per Charm++ semantics.
    pub fn send(
        &mut self,
        ctx: &mut MCtx,
        to: ChareRef,
        ep: EpId,
        params: Vec<u8>,
        phantom: u64,
        device_bufs: Vec<MemRef>,
    ) {
        self.send_ext(ctx, to, ep, params, phantom, device_bufs, false);
    }

    /// Like [`Pe::send`] but optionally returning one trigger per device
    /// buffer, fired when the machine layer completes the corresponding GPU
    /// send (used by AMPI to implement send-completion semantics).
    #[allow(clippy::too_many_arguments)]
    pub fn send_ext(
        &mut self,
        ctx: &mut MCtx,
        to: ChareRef,
        ep: EpId,
        params: Vec<u8>,
        phantom: u64,
        device_bufs: Vec<MemRef>,
        want_triggers: bool,
    ) -> Vec<Trigger> {
        let dst_pe = self.route_pe(to.col, to.index);
        let ndev = device_bufs.len();
        // CPU cost: runtime send path + payload packing + per-device
        // metadata handling + the UCP calls themselves.
        let pack = pack_cost(params.len() as u64 + phantom);
        let cost =
            SEND_OVERHEAD + pack + ndev as u64 * (DEVICE_META_OVERHEAD + CPU_CALL) + CPU_CALL;
        ctx.advance(cost);

        // 1) Send GPU buffers through the machine layer (LrtsSendDevice),
        //    generating one device tag each (Fig. 6 steps 1-4).
        let mut metas = Vec::with_capacity(ndev);
        let mut triggers = Vec::new();
        let src_pe = self.index;
        let sctx = self.send_ctx_stamp();
        for buf in device_bufs {
            let tag = self.scheme.device_tag(src_pe, self.device_cnt);
            self.device_cnt += 1;
            metas.push(DeviceMeta {
                tag,
                size: buf.len,
                user_tagged: false,
            });
            let trig = ctx.with_world(move |w, s| {
                stamp_ctx(w, sctx);
                if want_triggers {
                    let t = s.new_trigger();
                    tag_send_nb(
                        w,
                        s,
                        src_pe,
                        dst_pe,
                        SendBuf::Mem(buf),
                        tag,
                        Completion::Trigger(t),
                    );
                    Some(t)
                } else {
                    tag_send_nb(
                        w,
                        s,
                        src_pe,
                        dst_pe,
                        SendBuf::Mem(buf),
                        tag,
                        Completion::None,
                    );
                    None
                }
            });
            if let Some(t) = trig {
                triggers.push(t);
            }
        }

        // 2) Pack metadata with host-side data and send the envelope
        //    (Fig. 6 step 5).
        let env = Envelope {
            collection: to.col.0,
            index: to.index,
            ep,
            src_pe: src_pe as u32,
            params,
            phantom_payload: phantom,
            device: metas,
        };
        self.post_envelope(ctx, dst_pe, env);
        triggers
    }

    /// Route an envelope to `dst_pe` (loopback for self-sends).
    fn post_envelope(&mut self, ctx: &mut MCtx, dst_pe: usize, env: Envelope) {
        if env.collection != SYS_COLLECTION || !matches!(env.ep, SYS_QD_PING | SYS_QD_REPLY) {
            self.qd_created += 1;
        }
        if dst_pe == self.index {
            self.local_q.push_back(env);
        } else {
            let src_pe = self.index;
            let tag = self.scheme.host_tag(src_pe);
            let wire = env.wire_size();
            let bytes = env.encode();
            let sctx = self.send_ctx_stamp();
            ctx.with_world(move |w, s| {
                stamp_ctx(w, sctx);
                tag_send_nb(
                    w,
                    s,
                    src_pe,
                    dst_pe,
                    SendBuf::Inline {
                        bytes,
                        wire_size: wire,
                    },
                    tag,
                    Completion::None,
                );
            });
        }
    }

    /// Deliver an entry-method invocation to a *local* chare at absolute
    /// virtual time `fire_at` (e.g. when an asynchronously launched GPU
    /// kernel completes). The envelope is injected into this PE's own
    /// worker, so the scheduler stays free to process other messages in the
    /// meantime — the mechanism behind computation-communication overlap
    /// with overdecomposition.
    pub fn send_local_at(
        &mut self,
        ctx: &mut MCtx,
        to: ChareRef,
        ep: EpId,
        params: Vec<u8>,
        fire_at: rucx_sim::time::Time,
    ) {
        debug_assert_eq!(self.home_pe(to.col, to.index), self.index);
        let env = Envelope {
            collection: to.col.0,
            index: to.index,
            ep,
            src_pe: self.index as u32,
            params,
            phantom_payload: 0,
            device: vec![],
        };
        let me = self.index;
        let tag = self.scheme.host_tag(me);
        let bytes = env.encode();
        let wire = bytes.len() as u64;
        ctx.with_world(move |_, s| {
            s.schedule_at(fire_at, move |w, s| {
                rucx_ucp::inject_local(w, s, me, me, tag, Some(bytes), wire);
            });
        });
    }

    /// Broadcast entry method `ep` to every element of `col`.
    pub fn broadcast(&mut self, ctx: &mut MCtx, col: Collection, ep: EpId, params: Vec<u8>) {
        let cost = SEND_OVERHEAD;
        ctx.advance(cost);
        for pe in 0..self.n_pes {
            let env = Envelope {
                collection: col.0,
                index: BCAST_INDEX,
                ep,
                src_pe: self.index as u32,
                params: params.clone(),
                phantom_payload: 0,
                device: vec![],
            };
            self.post_envelope(ctx, pe, env);
        }
    }

    /// Raise the exit flag on every PE ("CkExit").
    pub fn exit_all(&mut self, ctx: &mut MCtx) {
        for pe in 0..self.n_pes {
            let env = Envelope {
                collection: SYS_COLLECTION,
                index: 0,
                ep: SYS_EXIT,
                src_pe: self.index as u32,
                params: vec![],
                phantom_payload: 0,
                device: vec![],
            };
            self.post_envelope(ctx, pe, env);
        }
    }

    // ---- Quiescence detection ------------------------------------------

    /// Start quiescence detection ("CkStartQD"): when no user-level message
    /// is in flight or unprocessed anywhere, invoke `ep` on chare `target`.
    /// Must be called on PE 0 (the detection root). Uses the classic
    /// two-identical-waves counter algorithm.
    pub fn start_quiescence(&mut self, ctx: &mut MCtx, target: ChareRef, ep: EpId) {
        assert_eq!(self.index, 0, "quiescence detection is rooted at PE 0");
        assert!(self.qd.is_none(), "quiescence detection already active");
        self.qd = Some(QdState {
            wave: 0,
            replies: 0,
            created: 0,
            processed: 0,
            prev: None,
            target: (target, ep),
        });
        self.qd_wave(ctx);
    }

    fn qd_wave(&mut self, ctx: &mut MCtx) {
        let st = self.qd.as_mut().expect("qd active");
        st.wave += 1;
        st.replies = 0;
        st.created = 0;
        st.processed = 0;
        let wave = st.wave;
        let mut params = Vec::with_capacity(8);
        crate::wire::marshal::put_u64(&mut params, wave);
        for pe in 0..self.n_pes {
            let env = Envelope {
                collection: SYS_COLLECTION,
                index: 0,
                ep: SYS_QD_PING,
                src_pe: self.index as u32,
                params: params.clone(),
                phantom_payload: 0,
                device: vec![],
            };
            self.post_envelope(ctx, pe, env);
        }
    }

    fn qd_on_reply(&mut self, ctx: &mut MCtx, created: u64, processed: u64) {
        let n_pes = self.n_pes;
        let st = self.qd.as_mut().expect("qd reply without detection");
        st.replies += 1;
        st.created += created;
        st.processed += processed;
        if st.replies < n_pes {
            return;
        }
        let totals = (st.created, st.processed);
        let quiescent = totals.0 == totals.1 && st.prev == Some(totals);
        st.prev = Some(totals);
        if quiescent {
            let (target, ep) = st.target;
            self.qd = None;
            self.send(ctx, target, ep, vec![], 0, vec![]);
        } else {
            self.qd_wave(ctx);
        }
    }

    // ---- Reductions ---------------------------------------------------

    /// Contribute element `elem`'s value to its next reduction of `col`.
    /// Every element must contribute exactly once per reduction, in the
    /// same reduction order everywhere; when complete, the result is
    /// delivered to `target`.
    pub fn contribute(
        &mut self,
        ctx: &mut MCtx,
        col: Collection,
        elem: u64,
        op: RedOp,
        value: f64,
        target: RedTarget,
    ) {
        // Element `elem`'s k-th contribution belongs to sequence k.
        let seq = {
            let c = &mut self.collections[col.0 as usize];
            let counter = c.red.elem_seq.entry(elem).or_insert(0);
            let seq = *counter;
            *counter += 1;
            seq
        };
        self.reduce_merge(ctx, col, seq, op, value, 1, 0, Some(target), true);
    }

    /// Merge a contribution (local or from a child PE subtree) into the
    /// reduction state and forward when complete.
    #[allow(clippy::too_many_arguments)]
    fn reduce_merge(
        &mut self,
        ctx: &mut MCtx,
        col: Collection,
        seq: u64,
        op: RedOp,
        value: f64,
        count: u64,
        from_children: usize,
        target: Option<RedTarget>,
        local: bool,
    ) {
        let (done, acc, total) = {
            let c = &mut self.collections[col.0 as usize];
            let n_local = c.local_indices.len();
            let entry = c.red.entries.entry(seq).or_insert(RedEntry {
                local_got: 0,
                children_got: 0,
                acc: identity(op),
                count: 0,
                target: None,
            });
            if local {
                entry.local_got += 1;
            } else {
                entry.children_got += from_children;
            }
            if target.is_some() {
                entry.target = target;
            }
            entry.acc = combine(op, entry.acc, value);
            entry.count += count;
            // Children of this PE in the reduction tree that have elements.
            let expected_children = self
                .red_tree
                .expected_children(self.index, &c.subtree_elems);
            let done = entry.local_got == n_local && entry.children_got == expected_children;
            (done, entry.acc, entry.count)
        };
        if !done {
            return;
        }
        let target = {
            let c = &mut self.collections[col.0 as usize];
            let e = c.red.entries.remove(&seq).expect("reduction entry");
            e.target
        };
        if let Some(parent) = self.red_tree.parent(self.index) {
            // Forward to the parent PE in the reduction tree.
            let mut params = Vec::new();
            {
                use crate::wire::marshal::*;
                put_u64(&mut params, col.0 as u64);
                put_u64(&mut params, seq);
                put_u64(&mut params, op_code(op));
                put_f64(&mut params, acc);
                put_u64(&mut params, total);
            }
            let env = Envelope {
                collection: SYS_COLLECTION,
                index: 0,
                ep: SYS_REDUCE,
                src_pe: self.index as u32,
                params,
                phantom_payload: 0,
                device: vec![],
            };
            self.post_envelope(ctx, parent, env);
        } else {
            // Root: deliver.
            let t = target.expect("reduction completed at root without a target");
            let mut params = Vec::new();
            crate::wire::marshal::put_f64(&mut params, acc);
            crate::wire::marshal::put_u64(&mut params, total);
            match t {
                RedTarget::Broadcast(c2, ep) => self.broadcast(ctx, c2, ep, params),
                RedTarget::Chare(cr, ep) => self.send(ctx, cr, ep, params, 0, vec![]),
            }
        }
    }

    // ---- Scheduling ---------------------------------------------------

    /// Run the message-driven scheduler until the exit flag rises.
    pub fn run(&mut self, ctx: &mut MCtx) {
        while !self.exit {
            if !self.try_step(ctx) {
                self.wait_for_work(ctx);
            }
        }
    }

    /// Pump the scheduler until `pred` holds (used by blocking layers: AMPI
    /// ranks, Charm4py coroutines). Processes messages while waiting; the
    /// predicate may consult the world (e.g. check trigger state).
    pub fn pump_until(
        &mut self,
        ctx: &mut MCtx,
        mut pred: impl FnMut(&mut Self, &mut MCtx) -> bool,
    ) {
        loop {
            if pred(self, ctx) {
                return;
            }
            if !self.try_step(ctx) {
                // Re-check after the failed step: the predicate may depend
                // on world state that try_step's processing changed.
                if pred(self, ctx) {
                    return;
                }
                self.wait_for_work(ctx);
            }
        }
    }

    // ---- Machine layer (Lrts*Device equivalents) -----------------------

    /// `LrtsSendDevice`: send a GPU (or zero-copy host) buffer directly
    /// through the UCP tagged API; returns the generated machine-layer tag
    /// and, when `want_trigger`, a trigger fired at sender completion.
    pub fn ml_send_device(
        &mut self,
        ctx: &mut MCtx,
        dst_pe: usize,
        buf: MemRef,
        want_trigger: bool,
    ) -> (u64, Option<Trigger>) {
        let tag = self.scheme.device_tag(self.index, self.device_cnt);
        self.device_cnt += 1;
        let src_pe = self.index;
        ctx.advance(DEVICE_META_OVERHEAD + CPU_CALL);
        let sctx = self.send_ctx_stamp();
        let trig = ctx.with_world(move |w, s| {
            stamp_ctx(w, sctx);
            if want_trigger {
                let t = s.new_trigger();
                tag_send_nb(
                    w,
                    s,
                    src_pe,
                    dst_pe,
                    SendBuf::Mem(buf),
                    tag,
                    Completion::Trigger(t),
                );
                Some(t)
            } else {
                tag_send_nb(
                    w,
                    s,
                    src_pe,
                    dst_pe,
                    SendBuf::Mem(buf),
                    tag,
                    Completion::None,
                );
                None
            }
        });
        (tag, trig)
    }

    /// Pre-post the receive for a device transfer that will arrive under a
    /// *user-provided* tag (both endpoints derive the machine-layer tag
    /// independently). Eliminates the paper's noted delay of posting the
    /// receive only after the metadata message arrives: the data transfer
    /// can start the moment the sender's RTS lands.
    pub fn pre_post_device(&mut self, ctx: &mut MCtx, user_tag: u64, buf: MemRef) {
        let tag = self.scheme.user_device_tag(user_tag);
        let t = self.ml_recv_device(ctx, tag, buf);
        let prev = self.pre_posted.insert(tag, t);
        assert!(prev.is_none(), "user tag {user_tag} already pre-posted");
    }

    /// Like [`Pe::send`], but each device buffer travels under a
    /// user-provided tag the receiver may have pre-posted (§VI).
    pub fn send_user_tagged(
        &mut self,
        ctx: &mut MCtx,
        to: ChareRef,
        ep: EpId,
        params: Vec<u8>,
        device_bufs: Vec<(MemRef, u64)>,
    ) {
        let dst_pe = self.route_pe(to.col, to.index);
        let ndev = device_bufs.len();
        let cost = SEND_OVERHEAD
            + pack_cost(params.len() as u64)
            + ndev as u64 * (DEVICE_META_OVERHEAD + CPU_CALL)
            + CPU_CALL;
        ctx.advance(cost);
        let src_pe = self.index;
        let mut metas = Vec::with_capacity(ndev);
        let sctx = self.send_ctx_stamp();
        for (buf, user_tag) in device_bufs {
            let tag = self.scheme.user_device_tag(user_tag);
            metas.push(DeviceMeta {
                tag,
                size: buf.len,
                user_tagged: true,
            });
            ctx.with_world(move |w, s| {
                stamp_ctx(w, sctx);
                tag_send_nb(
                    w,
                    s,
                    src_pe,
                    dst_pe,
                    SendBuf::Mem(buf),
                    tag,
                    Completion::None,
                );
            });
        }
        let env = Envelope {
            collection: to.col.0,
            index: to.index,
            ep,
            src_pe: src_pe as u32,
            params,
            phantom_payload: 0,
            device: metas,
        };
        self.post_envelope(ctx, dst_pe, env);
    }

    /// `LrtsRecvDevice`: post the receive for an announced device transfer;
    /// returns a trigger fired when the data is in `dst`.
    pub fn ml_recv_device(&mut self, ctx: &mut MCtx, tag: u64, dst: MemRef) -> Trigger {
        let me = self.index;
        ctx.advance(CPU_CALL);
        ctx.with_world(move |w, s| {
            let t = s.new_trigger();
            tag_recv_nb(
                w,
                s,
                me,
                dst,
                tag,
                rucx_ucp::MASK_FULL,
                RecvCompletion::Trigger(t),
            );
            t
        })
    }

    /// Send-context stamp for sends issued right now: the executing chare,
    /// or 0 outside entry methods (driver/blocking-layer code).
    fn send_ctx_stamp(&self) -> u64 {
        self.current_chare.map_or(0, encode_chare_ctx)
    }

    /// Route an asynchronous communication error: per-chare handler when the
    /// send was stamped and the chare is local, else the PE-wide default,
    /// else keep it visible in `unhandled_errors`.
    fn deliver_error(&mut self, ctx: &mut MCtx, err: UcpError) {
        if let Some(key) = decode_chare_ctx(err.ctx()) {
            if let Some(h) = self.error_handlers.get(&key).cloned() {
                if let Some(mut chare) = self.chares.remove(&key) {
                    let prev = self.current_chare.replace(key);
                    h(chare.as_mut(), &err, self, ctx);
                    self.current_chare = prev;
                    self.chares.insert(key, chare);
                    return;
                }
            }
        }
        if let Some(h) = self.default_error_handler.clone() {
            h(&err, self, ctx);
            return;
        }
        let me = self.index as u32;
        ctx.with_world(move |_, s| s.trace_instant(metrics::TRACE_ERROR_UNHANDLED, me, 0, 0));
        self.unhandled_errors.push(err);
    }

    /// One scheduler step; returns whether progress was made.
    pub fn try_step(&mut self, ctx: &mut MCtx) -> bool {
        // 0) Asynchronous communication errors from the reliability layer.
        let me = self.index;
        let err = ctx.with_world(move |w, _| w.ucp.take_worker_error(me));
        if let Some(err) = err {
            self.deliver_error(ctx, err);
            return true;
        }
        // 1) Device-complete entry methods ready to run?
        if let Some(i) = self.find_ready_pending(ctx) {
            let p = self.pending_device.swap_remove(i);
            let triggers = p.triggers.clone();
            ctx.with_world(move |_, s| {
                for t in triggers {
                    s.recycle_trigger(t);
                }
            });
            self.exec_envelope(ctx, p.env);
            return true;
        }
        // 2) Local (same-PE) messages.
        if let Some(env) = self.local_q.pop_front() {
            self.dispatch(ctx, env);
            return true;
        }
        // 3) Host-side messages from the machine layer.
        let me = self.index;
        let (want, mask) = self.scheme.host_probe();
        let popped = ctx.with_world(move |w, _| probe_pop(w, me, want, mask));
        match popped {
            Some(PoppedMsg::Eager { bytes, .. }) => {
                let bytes = bytes.expect("envelope must be materialized");
                let env = Envelope::decode(&bytes).expect("malformed envelope");
                self.dispatch(ctx, env);
                true
            }
            Some(PoppedMsg::Rndv { rts_id, tag, .. }) => {
                // Large host-side message: start fetching its bytes without
                // blocking the scheduler; the completed message is
                // re-injected into the worker as an eager arrival and
                // dispatched on a later step (the real machine layer
                // likewise overlaps the rendezvous with scheduling).
                ctx.with_world(move |w, s| {
                    // A failed fetch (rendezvous retired by the reliability
                    // layer) already queued a typed error at this PE's
                    // worker; `try_step` surfaces it to the error handler.
                    let _ = rndv_fetch(
                        w,
                        s,
                        me,
                        tag,
                        rts_id,
                        FetchDst::Bytes,
                        RecvCompletion::Bytes(Box::new(move |w, s, bytes, info| {
                            if info.size > 0 {
                                rucx_ucp::inject_local(w, s, me, info.src, tag, bytes, info.size);
                            }
                        })),
                    );
                });
                true
            }
            None => false,
        }
    }

    fn find_ready_pending(&mut self, ctx: &mut MCtx) -> Option<usize> {
        if self.pending_device.is_empty() {
            return None;
        }
        // Read-only fast path: borrow the pending list directly instead of
        // cloning every trigger set per scheduler pump.
        let pending = &self.pending_device;
        ctx.with_world_ref(|_, s| {
            pending
                .iter()
                .position(|p| p.triggers.iter().all(|t| s.fired(*t)))
        })
    }

    /// Park until the machine layer signals new work.
    ///
    /// Safe against lost wakeups: no yield happens between `try_step`
    /// returning false and the epoch snapshot below (world calls do not
    /// yield the processor), so any notification after the failed check
    /// moves the epoch past `seen`.
    fn wait_for_work(&mut self, ctx: &mut MCtx) {
        let me = self.index;
        let (n, seen) = ctx.with_world_ref(|w, s| {
            let n = w.ucp.worker(me).notify;
            (n, s.notify_epoch(n))
        });
        ctx.wait_notify(n, seen);
        // Account the scheduler's wake-from-idle poll cost.
        ctx.advance(IDLE_POLL);
    }

    /// Dispatch one envelope: system handling, post entry methods for
    /// device buffers, or direct execution.
    fn dispatch(&mut self, ctx: &mut MCtx, env: Envelope) {
        self.msgs_processed += 1;
        {
            // One instant per delivered envelope: id packs (collection, ep)
            // so a trace viewer can tell entry methods apart; arg = sender.
            let me = self.index as u32;
            let id = ((env.collection as u64) << 16) | env.ep as u64;
            let src = env.src_pe as u64;
            ctx.with_world(move |_, s| s.trace_instant(metrics::TRACE_SCHED_DELIVER, me, id, src));
        }
        if env.collection != SYS_COLLECTION || !matches!(env.ep, SYS_QD_PING | SYS_QD_REPLY) {
            self.qd_processed += 1;
        }
        let unpack = pack_cost(env.params.len() as u64 + env.phantom_payload);
        ctx.advance(RECV_OVERHEAD + unpack);

        if env.collection == SYS_COLLECTION {
            self.handle_sys(ctx, env);
            return;
        }
        if env.device.is_empty() {
            self.exec_envelope(ctx, env);
            return;
        }
        // Fast path: every incoming buffer was pre-posted under a user
        // tag — no post entry method needed, and the transfers have been
        // in flight since the sender's RTS arrived.
        if !env.device.is_empty()
            && env
                .device
                .iter()
                .all(|m| m.user_tagged && self.pre_posted.contains_key(&m.tag))
        {
            let triggers: Vec<Trigger> = env
                .device
                .iter()
                .map(|m| self.pre_posted.remove(&m.tag).expect("pre-posted"))
                .collect();
            self.pending_device.push(PendingDevice { env, triggers });
            return;
        }
        // Post entry method: obtain destination GPU buffers, then post the
        // machine-layer receives (LrtsRecvDevice) for each incoming buffer.
        ctx.advance(POST_OVERHEAD);
        let key = (env.collection, env.index);
        let col = &self.collections[env.collection as usize];
        let entry = col.eps[env.ep as usize].clone();
        let post = entry
            .post
            .as_ref()
            .expect("device buffers sent to an entry method without a post function");
        let msg = Msg {
            src_pe: env.src_pe as usize,
            params: env.params.clone(),
            device_sizes: env.device.iter().map(|d| d.size).collect(),
            phantom_payload: env.phantom_payload,
        };
        let mut chare = self
            .chares
            .remove(&key)
            .unwrap_or_else(|| panic!("chare ({}, {}) not on PE {}", key.0, key.1, self.index));
        let bufs = post(chare.as_mut(), &msg);
        self.chares.insert(key, chare);
        assert_eq!(
            bufs.len(),
            env.device.len(),
            "post entry method must supply one buffer per device parameter"
        );
        let me = self.index;
        ctx.advance(CPU_CALL * env.device.len() as u64);
        let metas: Vec<DeviceMeta> = env.device.clone();
        let pairs: Vec<(DeviceMeta, MemRef)> = metas.into_iter().zip(bufs).collect();
        let triggers = ctx.with_world(move |w, s| {
            let mut ts = Vec::with_capacity(pairs.len());
            for (meta, buf) in pairs {
                assert!(
                    buf.len >= meta.size,
                    "posted device buffer smaller than incoming data"
                );
                let t = s.new_trigger();
                tag_recv_nb(
                    w,
                    s,
                    me,
                    buf.slice(0, meta.size),
                    meta.tag,
                    rucx_ucp::MASK_FULL,
                    RecvCompletion::Trigger(t),
                );
                ts.push(t);
            }
            ts
        });
        self.pending_device.push(PendingDevice { env, triggers });
    }

    /// Run the regular entry method(s) for an envelope whose data (host and
    /// device) is fully available.
    fn exec_envelope(&mut self, ctx: &mut MCtx, env: Envelope) {
        let col_idx = env.collection as usize;
        let entry = self.collections[col_idx].eps[env.ep as usize].clone();
        let msg = Msg {
            src_pe: env.src_pe as usize,
            params: env.params,
            device_sizes: env.device.iter().map(|d| d.size).collect(),
            phantom_payload: env.phantom_payload,
        };
        if env.index == BCAST_INDEX {
            let indices = self.collections[col_idx].local_indices.clone();
            for i in indices {
                self.exec_one(ctx, (env.collection, i), &entry, &msg);
            }
        } else if !self.chares.contains_key(&(env.collection, env.index)) {
            // The chare migrated away (or was never here): forward.
            let env = Envelope {
                collection: env.collection,
                index: env.index,
                ep: env.ep,
                src_pe: msg.src_pe as u32,
                params: msg.params,
                phantom_payload: msg.phantom_payload,
                device: env.device,
            };
            self.forward(ctx, env);
        } else {
            self.exec_one(ctx, (env.collection, env.index), &entry, &msg);
        }
    }

    fn exec_one(&mut self, ctx: &mut MCtx, key: (u16, u64), entry: &Rc<EpEntry>, msg: &Msg) {
        let mut chare = self
            .chares
            .remove(&key)
            .unwrap_or_else(|| panic!("chare ({}, {}) not on PE {}", key.0, key.1, self.index));
        let prev = self.current_chare.replace(key);
        (entry.exec)(chare.as_mut(), msg, self, ctx);
        self.current_chare = prev;
        // The entry method may have migrated the chare away; only reinsert
        // if it is still ours.
        if self.collections[key.0 as usize]
            .location
            .get(&key.1)
            .is_none_or(|&pe| pe == self.index)
        {
            self.chares.insert(key, chare);
        }
    }

    /// A message reached a PE that no longer (or never) hosted the chare:
    /// forward it along the best-known route (home-based location protocol).
    fn forward(&mut self, ctx: &mut MCtx, env: Envelope) {
        let col = Collection(env.collection);
        let next = self.route_pe(col, env.index);
        assert_ne!(
            next, self.index,
            "no route for chare ({}, {}) from PE {}",
            env.collection, env.index, self.index
        );
        self.msgs_processed += 1;
        self.post_envelope(ctx, next, env);
    }

    fn handle_sys(&mut self, ctx: &mut MCtx, env: Envelope) {
        match env.ep {
            SYS_EXIT => self.exit = true,
            SYS_REDUCE => {
                let mut r = crate::wire::marshal::Reader(&env.params);
                let col = Collection(r.u64() as u16);
                let seq = r.u64();
                let op = op_from(r.u64());
                let value = r.f64();
                let count = r.u64();
                self.reduce_merge(ctx, col, seq, op, value, count, 1, None, false);
            }
            SYS_QD_PING => {
                let mut r = crate::wire::marshal::Reader(&env.params);
                let wave = r.u64();
                let mut params = Vec::with_capacity(24);
                crate::wire::marshal::put_u64(&mut params, wave);
                crate::wire::marshal::put_u64(&mut params, self.qd_created);
                // Envelopes whose GPU payloads are still in flight are not
                // done: report them as unprocessed so quiescence cannot be
                // declared across a pending device transfer.
                crate::wire::marshal::put_u64(
                    &mut params,
                    self.qd_processed
                        .saturating_sub(self.pending_device.len() as u64),
                );
                let reply = Envelope {
                    collection: SYS_COLLECTION,
                    index: 0,
                    ep: SYS_QD_REPLY,
                    src_pe: self.index as u32,
                    params,
                    phantom_payload: 0,
                    device: vec![],
                };
                self.post_envelope(ctx, env.src_pe as usize, reply);
            }
            SYS_QD_REPLY => {
                let mut r = crate::wire::marshal::Reader(&env.params);
                let _wave = r.u64();
                let created = r.u64();
                let processed = r.u64();
                self.qd_on_reply(ctx, created, processed);
            }
            SYS_MIGRATE => {
                let mut r = crate::wire::marshal::Reader(&env.params);
                let col = Collection(r.u64() as u16);
                let index = r.u64();
                let data = r.bytes().to_vec();
                let c = &mut self.collections[col.0 as usize];
                let chare = (c
                    .factory
                    .as_ref()
                    .expect("migration target collection has no factory"))(
                    &data
                );
                c.local_indices.push(index);
                c.local_indices.sort_unstable();
                c.location.insert(index, self.index);
                self.chares.insert((col.0, index), chare);
            }
            SYS_LOCATION => {
                let mut r = crate::wire::marshal::Reader(&env.params);
                let col = Collection(r.u64() as u16);
                let index = r.u64();
                let pe = r.u64() as usize;
                self.collections[col.0 as usize].location.insert(index, pe);
            }
            other => panic!("unknown system entry {other}"),
        }
    }
}

fn identity(op: RedOp) -> f64 {
    match op {
        RedOp::Sum | RedOp::Barrier => 0.0,
        RedOp::Min => f64::INFINITY,
        RedOp::Max => f64::NEG_INFINITY,
    }
}

fn combine(op: RedOp, a: f64, b: f64) -> f64 {
    match op {
        RedOp::Sum | RedOp::Barrier => a + b,
        RedOp::Min => a.min(b),
        RedOp::Max => a.max(b),
    }
}

fn op_code(op: RedOp) -> u64 {
    match op {
        RedOp::Sum => 0,
        RedOp::Min => 1,
        RedOp::Max => 2,
        RedOp::Barrier => 3,
    }
}

fn op_from(v: u64) -> RedOp {
    match v {
        0 => RedOp::Sum,
        1 => RedOp::Min,
        2 => RedOp::Max,
        3 => RedOp::Barrier,
        _ => panic!("bad reduction op code {v}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn red_identities() {
        assert_eq!(identity(RedOp::Sum), 0.0);
        assert_eq!(combine(RedOp::Min, identity(RedOp::Min), 5.0), 5.0);
        assert_eq!(combine(RedOp::Max, identity(RedOp::Max), -5.0), -5.0);
        for op in [RedOp::Sum, RedOp::Min, RedOp::Max, RedOp::Barrier] {
            assert_eq!(op_from(op_code(op)), op);
        }
    }
}
