//! Per-node bookkeeping inside the fabric.
//!
//! A cluster node *is* a [`spear_serve::ServeNode`] plus its own engine
//! (striped prefix cache, block pool, interner); it runs each request's
//! own plan and owns no program cache. The fabric shares nothing between
//! nodes except the router's placement map. This module holds the handle the event loop
//! tracks per node before the serving pass materializes the real engine.

use spear_serve::ServeRequest;

/// Membership state and assigned work for one node.
#[derive(Debug)]
pub struct NodeHandle {
    /// Node id (also the engine-seed offset, so two nodes never alias
    /// each other's correctness draws).
    pub node_id: u64,
    /// Virtual timestamp the node joined the fabric (0 for bootstrap
    /// nodes).
    pub joined_us: u64,
    /// The node stopped admitting (drained or left).
    pub drained: bool,
    /// The node left the fabric entirely.
    pub left: bool,
    /// Requests routed here, in arrival order (the order
    /// [`spear_serve::ServeNode::run`] requires).
    pub assigned: Vec<ServeRequest>,
}

impl NodeHandle {
    /// A fresh, admitting node joined at `joined_us`.
    #[must_use]
    pub fn new(node_id: u64, joined_us: u64) -> Self {
        Self {
            node_id,
            joined_us,
            drained: false,
            left: false,
            assigned: Vec::new(),
        }
    }
}
