//! Fleet-level metrics: per-node [`spear_serve::ServeReport`]s rolled up
//! into a [`ClusterReport`] with fleet-wide hit rate, load imbalance, and
//! a trace fingerprint that is byte-identical across host thread counts.

use serde::{Deserialize, Serialize};
use spear_kv::shard::{fnv1a_extend, FNV1A_OFFSET};
use spear_serve::{ServeOutcome, ServeReport, ServeStatus};

use crate::router::RouterReport;

/// One node's slice of a cluster run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeReport {
    /// Node id.
    pub node_id: u64,
    /// Virtual timestamp the node joined (0 for bootstrap nodes).
    pub joined_us: u64,
    /// The node was drained before the run ended.
    pub drained: bool,
    /// The node left the fabric.
    pub left: bool,
    /// Requests routed to this node.
    pub assigned: u64,
    /// Requests completed by this node.
    pub completed: u64,
    /// Exact virtual execution time summed over this node's outcomes.
    pub service_us: u64,
    /// The node's local makespan.
    pub makespan_us: u64,
    /// The node's full serving report (its `cluster` linkage is stamped
    /// by the fabric).
    pub report: ServeReport,
}

impl NodeReport {
    /// Local prefix-cache hit rate over both classes, if any prompt
    /// tokens were processed.
    #[must_use]
    pub fn hit_rate(&self) -> Option<f64> {
        let prompt = self.report.interactive.prompt_tokens + self.report.batch.prompt_tokens;
        let cached = self.report.interactive.cached_tokens + self.report.batch.cached_tokens;
        (prompt > 0).then(|| cached as f64 / prompt as f64)
    }
}

/// Aggregate view of a multi-node serving run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Per-node slices, sorted by node id.
    pub nodes: Vec<NodeReport>,
    /// Front-end placement counters.
    pub router: RouterReport,
    /// Requests submitted fleet-wide.
    pub requests: u64,
    /// Requests completed fleet-wide.
    pub completed: u64,
    /// Prompt tokens processed fleet-wide.
    pub fleet_prompt_tokens: u64,
    /// Prompt tokens served from a node-local prefix cache.
    pub fleet_cached_tokens: u64,
    /// Fleet makespan: the slowest node's local makespan (nodes run the
    /// same virtual clock, so this is when the last lane goes idle).
    pub makespan_us: u64,
    /// Load imbalance: max over mean of per-node `service_us`, taken
    /// over nodes that served at least one request. `1.0` is perfectly
    /// balanced (or a single node).
    pub imbalance: f64,
    /// Order-independent digest of `(request id, node, status, trace)`
    /// tuples — byte-identical across host thread counts and lane
    /// configurations for a fixed cluster configuration.
    pub trace_fingerprint: u64,
}

impl ClusterReport {
    /// Fleet-wide prefix-cache hit rate, if any prompt tokens were
    /// processed.
    #[must_use]
    pub fn fleet_hit_rate(&self) -> Option<f64> {
        (self.fleet_prompt_tokens > 0)
            .then(|| self.fleet_cached_tokens as f64 / self.fleet_prompt_tokens as f64)
    }

    /// Completed requests per virtual second.
    #[must_use]
    pub fn throughput_rps(&self) -> f64 {
        if self.makespan_us == 0 {
            0.0
        } else {
            self.completed as f64 / (self.makespan_us as f64 / 1e6)
        }
    }
}

/// FNV-1a fold over id-sorted `(node, outcome)` pairs. Mixes the node id
/// so a placement change — not just an execution change — perturbs the
/// fingerprint.
#[must_use]
pub fn fleet_fingerprint(outcomes: &[(u64, ServeOutcome)]) -> u64 {
    outcomes.iter().fold(FNV1A_OFFSET, |hash, (node, o)| {
        let tag = match &o.status {
            ServeStatus::Completed => 1,
            ServeStatus::Rejected { .. } => 2,
            ServeStatus::DeadlineExceeded { .. } => 3,
            ServeStatus::Cancelled { .. } => 4,
            ServeStatus::Failed { .. } => 5,
        };
        [o.id, *node, tag, o.trace_digest.unwrap_or(0)]
            .iter()
            .fold(hash, |hash, word| fnv1a_extend(hash, &word.to_le_bytes()))
    })
}
