//! # spear-cluster — sharded multi-node serving fabric
//!
//! Scales the single-node serving layer ([`spear_serve`]) out to a
//! simulated fleet: N nodes, each owning its *own* striped prefix cache
//! and KV block pool, behind a front-end
//! [`Router`] that places requests by **prompt identity** rather than by
//! hash. Prompt families — requests sharing a structured prefix, the
//! identity SPEAR makes first-class — stay on one node (or a small
//! replica set), so the fleet warms each shared prefix once instead of
//! once per node. This is the paper's §5–§6 payoff pushed one level up:
//! prefix reuse as a *placement* signal, not just a cache key.
//!
//! The pieces:
//!
//! - [`Router`] — rendezvous-consistent family placement over
//!   [`spear_llm::affinity_chain_key`] (the same chain-key fold the token
//!   interner uses), hot-prefix replication for Zipf-head families, and
//!   deterministic power-of-two-choices load balancing;
//! - [`ChurnEvent`] — virtual-time join/drain/leave schedule; drains
//!   produce an explicit family→node [`Handoff`] manifest;
//! - [`Cluster`] — the discrete-event loop merging churn with arrivals,
//!   running each node's slice on its own engine, and rolling up a
//!   [`ClusterReport`] (fleet hit rate, load imbalance, handoff
//!   counters, trace fingerprint).
//!
//! Determinism: placement is a pure function of the arrival-ordered
//! stream, and each node's virtual-time loop is host-thread-invariant,
//! so [`ClusterReport::trace_fingerprint`] is byte-identical across host
//! worker-lane counts — including replays of a churn schedule.
//!
//! ## Quick start
//!
//! ```
//! use spear_cluster::prelude::*;
//! use spear_serve::{generate, LoadGenConfig};
//!
//! // A Zipf-skewed workload: family popularity follows 1/(rank+1)^1.1.
//! let workload = generate(&LoadGenConfig {
//!     seed: 7,
//!     requests: 96,
//!     families: 8,
//!     family_zipf: 1.1,
//!     ..LoadGenConfig::default()
//! });
//!
//! let cluster = Cluster::new(ClusterConfig {
//!     initial_nodes: 4,
//!     ..ClusterConfig::default()
//! });
//! let run = cluster.run(workload);
//!
//! assert_eq!(run.report.requests, 96);
//! assert_eq!(run.report.nodes.len(), 4);
//! // Families are sticky, so the fleet still sees real prefix reuse.
//! assert!(run.report.fleet_hit_rate().unwrap() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::redundant_clone, clippy::inefficient_to_string)]

pub mod churn;
pub mod cluster;
pub mod node;
pub mod report;
pub mod router;

pub use churn::{ChurnAction, ChurnEvent};
pub use cluster::{static_token_upper_bound, Cluster, ClusterConfig, ClusterRun};
pub use node::NodeHandle;
pub use report::{fleet_fingerprint, ClusterReport, NodeReport};
pub use router::{Handoff, Router, RouterConfig, RouterPolicy, RouterReport};

/// Glob-import of the cluster fabric's main types.
pub mod prelude {
    pub use crate::churn::{ChurnAction, ChurnEvent};
    pub use crate::cluster::{Cluster, ClusterConfig, ClusterRun};
    pub use crate::report::{ClusterReport, NodeReport};
    pub use crate::router::{Handoff, Router, RouterConfig, RouterPolicy, RouterReport};
}
