//! UCP-layer registry: every name the protocol layer emits, declared once.
//! Counters (and the counted events `Scheduler::mark` also traces) are typed
//! [`Metric`] handles; names that only ever reach the trace are the
//! `TRACE_*` strings at the end. Call sites pass these; string literals are
//! rejected by `scripts/check.sh`. Names are the stable external identity
//! (tests and JSON read by name).

use rucx_sim::Metric;

// ---- Protocol selection --------------------------------------------------

/// Eager sends (host shm/IB or GDRCopy bounce).
pub const EAGER: Metric = Metric::counter("ucp.eager");
/// Rendezvous sends (RTS issued).
pub const RNDV: Metric = Metric::counter("ucp.rndv");
/// Arrivals with no matching posted receive.
pub const UNEXPECTED: Metric = Metric::counter("ucp.unexpected");
/// Receives that matched a message larger than the posted buffer.
pub const TRUNCATED: Metric = Metric::counter("ucp.truncated");

// ---- Eager device staging ------------------------------------------------

pub const EAGER_GDRCOPY_READ: Metric = Metric::counter("ucp.eager.gdrcopy_read");
pub const EAGER_GDRCOPY_WRITE: Metric = Metric::counter("ucp.eager.gdrcopy_write");

// ---- Rendezvous data paths -----------------------------------------------

/// CUDA-IPC peer-to-peer DMA (intra-node device-device).
pub const RNDV_IPC: Metric = Metric::counter("ucp.rndv.ipc");
/// Staged CPU-GPU leg + shm handoff (intra-node mixed pairs).
pub const RNDV_STAGED_INTRA: Metric = Metric::counter("ucp.rndv.staged_intra");
/// CMA host-host single copy (intra-node).
pub const RNDV_CMA: Metric = Metric::counter("ucp.rndv.cma");
/// Direct GPUDirect-RDMA get (inter-node device-device).
pub const RNDV_GDR_DIRECT: Metric = Metric::counter("ucp.rndv.gdr_direct");
/// One staged host leg + RDMA (inter-node mixed pairs).
pub const RNDV_STAGED_INTER: Metric = Metric::counter("ucp.rndv.staged_inter");
/// Zero-copy RDMA get (inter-node host-host).
pub const RNDV_RDMA: Metric = Metric::counter("ucp.rndv.rdma");
/// Pipelined host-staging transfers (inter-node device-device).
pub const RNDV_PIPELINE: Metric = Metric::counter("ucp.rndv.pipeline");
/// Chunks issued by the pipelined path.
pub const PIPELINE_CHUNKS: Metric = Metric::counter("ucp.pipeline_chunks");
/// Striped multi-path transfers (intra-node device-device, NVLink + X-Bus
/// driven concurrently).
pub const RNDV_MULTIPATH: Metric = Metric::counter("ucp.rndv.multipath");
/// Chunks issued across all legs of striped multi-path transfers.
pub const MULTIPATH_CHUNKS: Metric = Metric::counter("ucp.multipath_chunks");

// ---- Reliability protocol (active only under a loaded fault spec) --------

/// Retransmissions of tracked envelopes.
pub const RETRY: Metric = Metric::counter("ucp.retry");
/// Retransmission timers that fired (an ack did not arrive in time).
pub const TIMEOUT: Metric = Metric::counter("ucp.timeout");
/// Tracked envelopes acknowledged by the receiver.
pub const ACKED: Metric = Metric::counter("ucp.acked");
/// Duplicate tracked envelopes suppressed by sequence numbers.
pub const DUP_DROP: Metric = Metric::counter("ucp.dup_drop");
/// Tracked envelopes that arrived ahead of a sequence gap and were held
/// back by the receiver's delivery window until the gap filled.
pub const REORDER_HELD: Metric = Metric::counter("ucp.reorder.held");
/// Envelopes abandoned after exhausting the retransmission budget; each one
/// surfaces a typed `UcpError` at the owning worker.
pub const UNREACHABLE: Metric = Metric::counter("ucp.unreachable");
/// Transfers abandoned end-to-end (give-ups surfacing `EndpointTimeout`
/// with elapsed time + attempt count); the scenario matrix attributes
/// abandoned transfers by this counter.
pub const GIVEUP: Metric = Metric::counter("ucp.giveup");
/// GPU-direct transfers degraded onto the host-staged path because a fault
/// spec failed the device's copy engine.
pub const FALLBACK_HOST_STAGED: Metric = Metric::counter("ucp.fallback.host_staged");
/// Sends posted against a freed/unknown buffer handle; completed with
/// nothing sent plus a typed `InvalidHandle` error at the worker.
pub const BAD_HANDLE: Metric = Metric::counter("ucp.bad_handle");

// ---- Endpoint health & recovery ------------------------------------------

/// Pipeline chunks steered off a degraded rail by the protocol engine
/// (bumped only while a link-degrade window is active and the balanced
/// pick differs from the default socket rail).
pub const REROUTE: Metric = Metric::counter("ucp.reroute");
/// Envelopes parked by the health layer on a Dead endpoint instead of
/// being abandoned (released on heal, flushed to give-up on probe
/// exhaustion).
pub const PARKED: Metric = Metric::counter("ucp.parked");
/// Keepalive probes transmitted toward Dead endpoints.
pub const PROBE: Metric = Metric::counter("ucp.probe");
/// Probe acknowledgements that made it back to the prober.
pub const PROBE_ACK: Metric = Metric::counter("ucp.probe_ack");
/// Endpoint transitions Healthy -> Suspect (consecutive ack timeouts).
pub const EP_SUSPECT: Metric = Metric::counter("ucp.ep.suspect");
/// Endpoint transitions Suspect -> Dead (retransmission budget exhausted).
pub const EP_DEAD: Metric = Metric::counter("ucp.ep.dead");
/// Endpoint transitions Dead -> Healed (a probe ack or data ack arrived).
pub const EP_HEALED: Metric = Metric::counter("ucp.ep.healed");

// ---- Registration / endpoint cache (active when `reg_model` is on) -------

/// Buffer registrations served from the cache (no mapping cost paid).
pub const REG_HIT: Metric = Metric::counter("ucp.reg.hit");
/// Buffer registrations that had to map (first touch or after eviction).
pub const REG_MISS: Metric = Metric::counter("ucp.reg.miss");
/// Registrations unmapped to stay under the cache's byte budget.
pub const REG_EVICT: Metric = Metric::counter("ucp.reg.evict");
/// Endpoint touches served from the wireup cache.
pub const EP_HIT: Metric = Metric::counter("ucp.ep.hit");
/// Endpoint touches that paid the wireup latency.
pub const EP_MISS: Metric = Metric::counter("ucp.ep.miss");
/// Endpoint wireups evicted by the LRU cap.
pub const EP_EVICT: Metric = Metric::counter("ucp.ep.evict");

// ---- Trace-only names (never counted) --------------------------------------
// The eager receive span is named by [`EAGER`]`.name`.

/// Instant: a rendezvous RTS left the sender.
pub const TRACE_RNDV_RTS: &str = "ucp.rndv.rts";
/// Instant: the receiver matched an RTS and starts the fetch.
pub const TRACE_RNDV_CTS: &str = "ucp.rndv.cts";
/// Span: sender-side D2H staging window of one pipeline chunk.
pub const TRACE_PIPELINE_CHUNK: &str = "ucp.pipeline.chunk";
/// Instant: one chunk of a striped multi-path transfer landed.
pub const TRACE_MP_CHUNK: &str = "ucp.mp.chunk";
