//! Fabric-layer registry: every counter and trace name the fabric emits
//! (typed handles; see `rucx_sim::Metric`).

use rucx_sim::Metric;

use crate::net::WireKind;

/// Messages injected on the host RDMA path.
pub const MSG_HOST: Metric = Metric::counter("net.msg.host");
/// Messages injected on the GPUDirect RDMA path.
pub const MSG_GDR: Metric = Metric::counter("net.msg.gdr");

/// The message counter for a wire kind.
pub const fn msg(kind: WireKind) -> Metric {
    match kind {
        WireKind::Host => MSG_HOST,
        WireKind::Gdr => MSG_GDR,
    }
}

/// Trace span: the window one message holds a NIC TX port.
pub const TRACE_LINK_BUSY: &str = "fabric.link.busy";
