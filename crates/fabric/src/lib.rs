//! # rucx-fabric — simulated cluster fabric
//!
//! Topology (Summit-like nodes: 2 sockets × 3 GPUs, one process per GPU)
//! and the inter-node network model (EDR InfiniBand α-β model with NIC port
//! contention). Intra-node links (NVLink, X-Bus, CPU-GPU) live in
//! [`rucx_gpu`]; this crate covers everything that crosses node boundaries.

pub mod metrics;
pub mod net;
pub mod topology;

pub use net::{net_transfer, wire_time, HasNet, NetSubsystem, WireKind};
pub use topology::{ProcIndex, Topology};
