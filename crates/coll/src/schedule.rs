//! Reduction/broadcast tree schedules.
//!
//! A [`Tree`] is an explicit parent table over participants `0..n`, with
//! node 0 as the root, built topology-aware: one cross-node edge per node.
//! (The Charm++ runtime's reductions climb the plain binary heap, whose
//! parent is `(p - 1) / 2`; a PE computes that step itself.)
//!
//! Invariant: `parent(p) < p` for every non-root `p`, which keeps message
//! flow acyclic.

use rucx_fabric::Topology;

/// An explicit tree over participants `0..n`, rooted at 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tree {
    parent: Vec<Option<usize>>,
}

impl Tree {
    /// Topology-aware tree: within each node, participants form a binary
    /// tree rooted at the node leader (lowest participant on the node);
    /// node leaders form a binary tree over nodes. Cross-node edges carry
    /// one message per node instead of one per participant.
    ///
    /// Participant `p` is process `p` of `topo` (the SPMD identity mapping
    /// every model layer uses); `n` may cover a prefix of the machine.
    pub fn topology(topo: &Topology, n: usize) -> Tree {
        assert!(n > 0 && n <= topo.procs(), "participants exceed topology");
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for p in 0..n {
            let node = topo.node_of(p);
            if node >= groups.len() {
                groups.resize(node + 1, Vec::new());
            }
            groups[node].push(p);
        }
        groups.retain(|g| !g.is_empty());
        let mut parent = vec![None; n];
        for (k, g) in groups.iter().enumerate() {
            // Leaders in a binary tree over nodes; node (k-1)/2's leader
            // has a smaller rank than node k's, preserving the invariant.
            if k > 0 {
                parent[g[0]] = Some(groups[(k - 1) / 2][0]);
            }
            // Members in a binary tree under their leader (local indices).
            for (l, &p) in g.iter().enumerate().skip(1) {
                parent[p] = Some(g[(l - 1) / 2]);
            }
        }
        Tree { parent }
    }

    /// Number of participants.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Parent of `p` (`None` for the root).
    pub fn parent(&self, p: usize) -> Option<usize> {
        self.parent[p]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_tree_crosses_nodes_once_per_node() {
        let topo = Topology::summit(2); // 12 procs, 6 per node
        let t = Tree::topology(&topo, 12);
        // Exactly one cross-node edge: node 1's leader (6) under rank 0.
        let cross: Vec<usize> = (1..12)
            .filter(|&p| !topo.same_node(p, t.parent(p).unwrap()))
            .collect();
        assert_eq!(cross, vec![6]);
        assert!((1..12).all(|p| t.parent(p).is_some_and(|q| q < p)));
        // All members hang under their node leader's subtree.
        for p in [1, 2, 3, 4, 5] {
            let mut q = p;
            while let Some(par) = t.parent(q) {
                q = par;
            }
            assert_eq!(q, 0);
        }
        for p in [7, 8, 9, 10, 11] {
            assert!(topo.same_node(p, t.parent(p).unwrap()));
        }
    }
}
