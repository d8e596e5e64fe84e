//! The one reserved collective tag space, shared by every model layer.
//!
//! Historically `ampi::coll` reserved `(1 << 20) + 7000` and `osu::coll`
//! reserved `1 << 20` independently — two adapters running concurrently
//! could collide. The reservation now lives here; model crates re-export
//! these constants instead of minting their own.
//!
//! Every phase of every algorithm gets its own offset so that fragments
//! from different phases of one collective (or from an aborted collective
//! under fault injection) can never tag-match each other.

/// Base of the reserved collective tag space (user point-to-point tags must
/// stay below this).
pub const COLL_TAG_BASE: i32 = 1 << 20;

/// Binomial-tree broadcast edges.
pub const TAG_BCAST: i32 = COLL_TAG_BASE;
/// Allreduce fold-in phase (non-power-of-two rank counts).
pub const TAG_FOLD_IN: i32 = COLL_TAG_BASE + 1;
/// Allreduce butterfly exchange rounds.
pub const TAG_EXCHANGE: i32 = COLL_TAG_BASE + 2;
/// Allreduce fold-out phase.
pub const TAG_FOLD_OUT: i32 = COLL_TAG_BASE + 3;
/// Ring reduce-scatter segments.
pub const TAG_RING_RS: i32 = COLL_TAG_BASE + 4;
/// Ring allgather segments.
pub const TAG_RING_AG: i32 = COLL_TAG_BASE + 5;
/// Hierarchical intra-node gather to the node leader.
pub const TAG_HIER_GATHER: i32 = COLL_TAG_BASE + 6;
/// Hierarchical intra-node result broadcast from the node leader.
pub const TAG_HIER_BCAST: i32 = COLL_TAG_BASE + 7;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_tags_are_distinct_and_reserved() {
        let tags = [
            TAG_BCAST,
            TAG_FOLD_IN,
            TAG_EXCHANGE,
            TAG_FOLD_OUT,
            TAG_RING_RS,
            TAG_RING_AG,
            TAG_HIER_GATHER,
            TAG_HIER_BCAST,
        ];
        for (i, a) in tags.iter().enumerate() {
            assert!(*a >= COLL_TAG_BASE, "tag below the reserved space");
            for b in &tags[i + 1..] {
                assert_ne!(a, b, "two phases share a tag");
            }
        }
    }
}
