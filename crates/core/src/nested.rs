//! Nested-phase state (C\*\*'s nested parallel functions).
//!
//! A nested parallel call runs *inside one invocation* of an outer call:
//! its inner invocations spread across all processors, observe the parent
//! invocation's private modifications layered over the pre-call global
//! state, and merge their own modifications back into the parent's
//! private state when the inner call completes. Global memory never sees
//! any of it until the *outer* reconciliation.
//!
//! The inner private copies and the inner phase entries are kept in the
//! same `BlockTable`s as the outer phase's, and drain through the same
//! routine: a node's inner flush ships its copies in the order it marked
//! them, and `reconcile_nested` applies the merged entries to the parent
//! in ascending block order.
//!
//! Cost accounting is block-faithful where it matters (first-touch fills,
//! flush messages, merge work at homes) but does not model distributing
//! the parent's private state beyond the first-touch fill — the paper
//! never evaluated nesting, so there is no hardware shape to match.

use crate::cow::{BlockTable, CowEntry, PrivCopy};
use lcm_sim::hash::FastSet;
use lcm_sim::mem::BlockId;
use lcm_sim::NodeId;

/// State of one open nested phase.
#[derive(Clone, Debug)]
pub(crate) struct NestedPhase {
    /// The node running the parent invocation; its outer private copies
    /// are the inner call's pre-call state.
    pub parent: NodeId,
    /// Inner private copies, per node, in mark order.
    pub privs: Vec<BlockTable<PrivCopy>>,
    /// Home-side merge state of flushed inner versions.
    pub entries: BlockTable<CowEntry>,
    /// Blocks each node has already fetched this nested phase (first
    /// touches pay a fill; later reads hit).
    pub touched: Vec<FastSet<BlockId>>,
}

impl NestedPhase {
    /// Fresh state for a machine of `nodes` processors.
    pub fn new(nodes: usize, parent: NodeId) -> NestedPhase {
        NestedPhase {
            parent,
            privs: (0..nodes).map(|_| BlockTable::default()).collect(),
            entries: BlockTable::default(),
            touched: (0..nodes).map(|_| FastSet::default()).collect(),
        }
    }
}
