//! Cluster topology and the process→hardware mapping.
//!
//! Matches the paper's experimental setup (§IV-A): non-SMP builds with one
//! CPU core as the single PE per process and **one process per GPU**; on a
//! Summit node that is six PEs/processes per node, processes `6k..6k+5`
//! living on node `k`, with GPUs 0–2 on socket 0 and 3–5 on socket 1.

use rucx_gpu::DeviceId;

/// Index of an OS process (== PE in the non-SMP configuration).
pub type ProcIndex = usize;

/// Shape of the simulated cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    pub nodes: usize,
    pub gpus_per_node: usize,
    pub gpus_per_socket: usize,
}

impl Topology {
    /// Summit-like topology: 6 GPUs per node, 3 per socket.
    pub fn summit(nodes: usize) -> Self {
        Topology {
            nodes,
            gpus_per_node: 6,
            gpus_per_socket: 3,
        }
    }

    /// Total process (= PE = GPU) count.
    pub fn procs(&self) -> usize {
        self.nodes * self.gpus_per_node
    }

    /// Node a process runs on.
    pub fn node_of(&self, p: ProcIndex) -> usize {
        p / self.gpus_per_node
    }

    /// GPU a process owns (one process per GPU).
    pub fn device_of(&self, p: ProcIndex) -> DeviceId {
        DeviceId(p as u32)
    }

    /// CPU socket a process's GPU hangs off.
    pub fn socket_of(&self, p: ProcIndex) -> usize {
        (p % self.gpus_per_node) / self.gpus_per_socket
    }

    /// Whether two processes share a node.
    pub fn same_node(&self, a: ProcIndex, b: ProcIndex) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Whether two processes' GPUs share a socket (NVLink-reachable).
    pub fn same_socket(&self, a: ProcIndex, b: ProcIndex) -> bool {
        self.same_node(a, b) && self.socket_of(a) == self.socket_of(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summit_mapping() {
        let t = Topology::summit(4);
        assert_eq!(t.procs(), 24);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(5), 0);
        assert_eq!(t.node_of(6), 1);
        assert_eq!(t.device_of(7), DeviceId(7));
        assert_eq!(t.socket_of(0), 0);
        assert_eq!(t.socket_of(2), 0);
        assert_eq!(t.socket_of(3), 1);
        assert_eq!(t.socket_of(9), 1);
        assert!(t.same_node(0, 5));
        assert!(!t.same_node(5, 6));
        assert!(t.same_socket(0, 1));
        assert!(!t.same_socket(2, 3));
        assert!(!t.same_socket(0, 6));
    }
}
