//! The cluster front-end: placement of requests onto serving nodes.
//!
//! Placement is **prefix-aware**: requests whose plans share an
//! [`spear_core::vm::Program::affinity_seed`] (a prompt *family*)
//! land on the same node, so the family's shared instruction prefix is
//! warmed exactly once per replica fleet-wide. The family identity used
//! for placement is [`spear_llm::affinity_chain_key`] — the same seeded
//! chain-key fold the engine's [`spear_llm::TokenInterner`] uses for
//! block identity, so the routing tier and the cache tier agree on what
//! "the same prefix" means without sharing state.
//!
//! Three mechanisms compose:
//!
//! - **consistent placement** — candidate nodes are ranked by rendezvous
//!   (highest-random-weight) hashing over the family chain key; node
//!   join/leave moves only the families whose top-ranked candidate
//!   changes, never a wholesale reshuffle;
//! - **power-of-two-choices** — at first placement the two top-ranked
//!   candidates compete on accumulated load, and among a hot family's
//!   replicas each request deterministically samples two and takes the
//!   less loaded one;
//! - **hot-prefix replication** — when a family's share of total arrivals
//!   crosses [`RouterConfig::replicate_share`], it is expanded onto the
//!   next rendezvous-ranked nodes (bounded by
//!   [`RouterConfig::max_replicas`] and the admitting-node count), trading
//!   one extra prefix warm-up per replica for parallel service of a
//!   Zipf-head family that would otherwise serialize on one node.
//!
//! Everything is a pure function of the arrival-ordered request stream
//! and the churn schedule: no wall clock, no randomness beyond seeded
//! hashes, so cluster traces fingerprint identically across host thread
//! counts.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};
use spear_kv::shard::fnv1a;
use spear_llm::{affinity_chain_key, chain_key};

/// Placement policy of the front-end router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouterPolicy {
    /// Family-sticky rendezvous placement with hot-prefix replication
    /// (the fabric's native policy).
    PrefixAware,
    /// Hash each request id uniformly over admitting nodes, ignoring
    /// prompt identity — the scatter baseline `tests/routing.rs` compares
    /// against.
    HashRandom,
}

/// Router tuning knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterConfig {
    /// Placement policy.
    pub policy: RouterPolicy,
    /// Target arrival-rate share per replica: a family holding more than
    /// `replicas * replicate_share` of total arrivals is expanded onto
    /// another node. `1.0` disables replication.
    pub replicate_share: f64,
    /// Upper bound on replicas per family (further bounded by the number
    /// of admitting nodes).
    pub max_replicas: usize,
    /// Total arrivals observed before replication decisions engage;
    /// avoids replicating on the noise of the first few requests.
    pub min_arrivals_for_replication: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            policy: RouterPolicy::PrefixAware,
            replicate_share: 0.125,
            max_replicas: 4,
            min_arrivals_for_replication: 32,
        }
    }
}

/// Counters describing what the router did over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouterReport {
    /// Requests placed by family affinity.
    pub prefix_routed: u64,
    /// Requests placed by id hash (the `HashRandom` policy, plus keyless
    /// plans under `PrefixAware`).
    pub hash_routed: u64,
    /// Families that gained a second replica at least once.
    pub replicated_families: u64,
    /// Total replica expansions (a family going 2 → 3 counts again).
    pub replica_expansions: u64,
    /// Requests steered to a non-primary replica by power-of-two-choices.
    pub p2c_balanced: u64,
    /// Families whose placement changed because a node drained or left.
    pub handoffs: u64,
    /// Churn joins applied (bootstrap nodes are not counted).
    pub joins: u64,
    /// Drains applied.
    pub drains: u64,
    /// Leaves applied.
    pub leaves: u64,
}

/// One entry of the family→node map delta produced by a drain: the
/// router hands this to the fabric so cache state (the family's warmed
/// prefix) can be re-established on the destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Handoff {
    /// Family chain key (see [`spear_llm::affinity_chain_key`]).
    pub family: u64,
    /// Node the family is leaving.
    pub from: u64,
    /// New primary when the family had to be re-placed; `None` when its
    /// surviving replicas absorb the traffic.
    pub to: Option<u64>,
}

#[derive(Debug)]
struct FamilyState {
    /// Replica node ids, primary first, in expansion order.
    replicas: Vec<u64>,
    arrivals: u64,
}

/// The front-end placement engine. Owns no nodes — only the
/// family→replica map, per-node load estimates, and the admitting set.
#[derive(Debug)]
pub struct Router {
    config: RouterConfig,
    /// Nodes accepting new placements, ordered for deterministic
    /// iteration.
    admitting: BTreeSet<u64>,
    /// Family chain key → placement state.
    families: BTreeMap<u64, FamilyState>,
    /// Cumulative estimated tokens assigned per node (the p2c load
    /// signal). Never reset — drained nodes keep their history.
    loads: BTreeMap<u64, u64>,
    total_arrivals: u64,
    report: RouterReport,
}

impl Router {
    /// A router with an initial admitting set (not counted as joins).
    #[must_use]
    pub fn new(config: RouterConfig, initial_nodes: impl IntoIterator<Item = u64>) -> Self {
        let admitting: BTreeSet<u64> = initial_nodes.into_iter().collect();
        let loads = admitting.iter().map(|&n| (n, 0)).collect();
        Self {
            config,
            admitting,
            families: BTreeMap::new(),
            loads,
            total_arrivals: 0,
            report: RouterReport::default(),
        }
    }

    /// Counters so far.
    #[must_use]
    pub fn report(&self) -> RouterReport {
        self.report
    }

    /// Nodes currently accepting new placements.
    pub fn admitting(&self) -> impl Iterator<Item = u64> + '_ {
        self.admitting.iter().copied()
    }

    /// Cumulative estimated tokens routed to `node`.
    #[must_use]
    pub fn load_of(&self, node: u64) -> u64 {
        self.loads.get(&node).copied().unwrap_or(0)
    }

    /// Replica set of a family chain key (primary first), if placed.
    #[must_use]
    pub fn replicas_of(&self, family: u64) -> Option<&[u64]> {
        self.families.get(&family).map(|f| f.replicas.as_slice())
    }

    /// Place one request and return the target node id.
    ///
    /// `affinity_seed` is [`spear_core::vm::Program::affinity_seed`]
    /// (`None` for opaque plans, which fall back to id-hash placement).
    ///
    /// # Panics
    ///
    /// Panics when no node is admitting — churn schedules must keep at
    /// least one node open while requests arrive.
    pub fn route(&mut self, affinity_seed: Option<u64>, request_id: u64, est_tokens: u64) -> u64 {
        assert!(
            !self.admitting.is_empty(),
            "router has no admitting nodes; churn schedule drained the cluster mid-stream"
        );
        self.total_arrivals += 1;
        let node = match (self.config.policy, affinity_seed) {
            (RouterPolicy::PrefixAware, Some(seed)) => {
                self.report.prefix_routed += 1;
                self.route_family(affinity_chain_key(seed), request_id)
            }
            _ => {
                self.report.hash_routed += 1;
                self.hash_pick(request_id)
            }
        };
        // est_tokens is a pre-execution estimate and may be 0; still count
        // the request so empty-estimate streams exercise p2c.
        *self.loads.entry(node).or_insert(0) += est_tokens.max(1);
        node
    }

    /// Uniform placement over admitting nodes by request-id hash.
    fn hash_pick(&self, request_id: u64) -> u64 {
        let hash = fnv1a(&request_id.to_le_bytes());
        let index = (hash % self.admitting.len() as u64) as usize;
        *self.admitting.iter().nth(index).expect("index in range")
    }

    /// Family-sticky placement with replication and p2c balancing.
    fn route_family(&mut self, family: u64, request_id: u64) -> u64 {
        if !self.families.contains_key(&family) {
            let ranked = self.rendezvous(family);
            // p2c at first placement: the two top-ranked rendezvous
            // candidates compete on accumulated load, so a run of new
            // families doesn't pile onto coincidentally-aligned winners.
            let primary = match ranked.as_slice() {
                [only] => *only,
                [a, b, ..] => self.less_loaded(*a, *b),
                [] => unreachable!("admitting set is non-empty"),
            };
            self.families.insert(
                family,
                FamilyState {
                    replicas: vec![primary],
                    arrivals: 0,
                },
            );
        }
        let arrivals = {
            let state = self.families.get_mut(&family).expect("just placed");
            state.arrivals += 1;
            state.arrivals
        };
        self.maybe_replicate(family, arrivals);

        let state = self.families.get(&family).expect("placed");
        match state.replicas.as_slice() {
            [only] => *only,
            replicas => {
                // Deterministic p2c among replicas: two hash draws seeded
                // by (family, request id) pick the candidates, load breaks
                // the tie. Every host replays the same choice.
                let len = replicas.len() as u64;
                let h1 = chain_key(family, request_id);
                let h2 = chain_key(h1, request_id);
                let a = replicas[(h1 % len) as usize];
                let b = replicas[(h2 % len) as usize];
                let chosen = self.less_loaded(a, b);
                if chosen != replicas[0] {
                    self.report.p2c_balanced += 1;
                }
                chosen
            }
        }
    }

    /// Expand a family's replica set when its arrival share outgrows the
    /// per-replica target.
    fn maybe_replicate(&mut self, family: u64, family_arrivals: u64) {
        if self.config.replicate_share >= 1.0
            || self.total_arrivals < self.config.min_arrivals_for_replication
        {
            return;
        }
        let share = family_arrivals as f64 / self.total_arrivals as f64;
        let cap = self.config.max_replicas.min(self.admitting.len()).max(1);
        let desired = ((share / self.config.replicate_share).ceil() as usize).clamp(1, cap);
        let current = self.families[&family].replicas.len();
        if desired <= current {
            return;
        }
        let ranked = self.rendezvous(family);
        let mut added = 0u64;
        let state = self.families.get_mut(&family).expect("placed");
        for candidate in ranked {
            if state.replicas.len() >= desired {
                break;
            }
            if !state.replicas.contains(&candidate) {
                state.replicas.push(candidate);
                added += 1;
            }
        }
        if current == 1 && added > 0 {
            self.report.replicated_families += 1;
        }
        self.report.replica_expansions += added;
    }

    /// Admitting nodes ranked by rendezvous score for `family`, best
    /// first. Ties (never in practice — fnv1a over distinct ids) break
    /// toward the smaller node id for determinism.
    fn rendezvous(&self, family: u64) -> Vec<u64> {
        let mut scored: Vec<(u64, u64)> = self
            .admitting
            .iter()
            .map(|&node| (chain_key(family, node), node))
            .collect();
        scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.into_iter().map(|(_, node)| node).collect()
    }

    fn less_loaded(&self, a: u64, b: u64) -> u64 {
        let (la, lb) = (self.load_of(a), self.load_of(b));
        if lb < la || (lb == la && b < a) {
            b
        } else {
            a
        }
    }

    /// Open `node` for placements. Idempotent; re-admitting a previously
    /// drained node is allowed (its cache may still be warm).
    pub fn join(&mut self, node: u64) {
        if self.admitting.insert(node) {
            self.loads.entry(node).or_insert(0);
            self.report.joins += 1;
        }
    }

    /// Stop placing onto `node` and re-place the families it served,
    /// returning the family→node map delta (the cache-handoff manifest).
    /// In-flight work is unaffected — the fabric lets the node finish its
    /// assigned requests.
    ///
    /// # Panics
    ///
    /// Panics when draining the last admitting node while families remain
    /// placed: the fabric would have nowhere to send their traffic.
    pub fn drain(&mut self, node: u64) -> Vec<Handoff> {
        if !self.admitting.remove(&node) {
            return Vec::new();
        }
        self.report.drains += 1;
        let mut delta = Vec::new();
        // Collect re-placements first: rendezvous ranking must not see
        // half-updated family state.
        let affected: Vec<u64> = self
            .families
            .iter()
            .filter(|(_, s)| s.replicas.contains(&node))
            .map(|(&family, _)| family)
            .collect();
        for family in affected {
            let survivors = {
                let state = self.families.get_mut(&family).expect("affected");
                state.replicas.retain(|&r| r != node);
                state.replicas.len()
            };
            let to = if survivors == 0 {
                assert!(
                    !self.admitting.is_empty(),
                    "drain of node {node} leaves family {family:#x} unplaced"
                );
                let ranked = self.rendezvous(family);
                let new_primary = match ranked.as_slice() {
                    [only] => *only,
                    [a, b, ..] => self.less_loaded(*a, *b),
                    [] => unreachable!("checked non-empty"),
                };
                self.families
                    .get_mut(&family)
                    .expect("affected")
                    .replicas
                    .push(new_primary);
                Some(new_primary)
            } else {
                None
            };
            self.report.handoffs += 1;
            delta.push(Handoff {
                family,
                from: node,
                to,
            });
        }
        delta
    }

    /// Remove `node` from the fabric entirely. Implies a drain when the
    /// node was still admitting; returns that drain's handoff delta.
    pub fn leave(&mut self, node: u64) -> Vec<Handoff> {
        let delta = self.drain(node);
        self.report.leaves += 1;
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn router(nodes: u64) -> Router {
        Router::new(RouterConfig::default(), 0..nodes)
    }

    #[test]
    fn family_placement_is_sticky() {
        let mut r = router(8);
        let first = r.route(Some(7), 0, 100);
        for id in 1..20 {
            assert_eq!(r.route(Some(7), id, 100), first, "family stays put");
        }
        assert_eq!(r.report().prefix_routed, 20);
    }

    #[test]
    fn distinct_families_spread_across_nodes() {
        let mut r = router(8);
        let targets: BTreeSet<u64> = (0..64).map(|f| r.route(Some(f), f, 100)).collect();
        assert!(
            targets.len() >= 4,
            "64 families over 8 nodes hit at least half the fleet, got {targets:?}"
        );
    }

    #[test]
    fn keyless_requests_hash_over_admitting_nodes() {
        let mut r = router(4);
        let targets: BTreeSet<u64> = (0..32).map(|id| r.route(None, id, 10)).collect();
        assert!(targets.len() > 1, "id hash scatters keyless plans");
        assert_eq!(r.report().hash_routed, 32);
    }

    #[test]
    fn hash_random_policy_ignores_family_identity() {
        let mut r = Router::new(
            RouterConfig {
                policy: RouterPolicy::HashRandom,
                ..RouterConfig::default()
            },
            0..4,
        );
        let targets: BTreeSet<u64> = (0..32).map(|id| r.route(Some(7), id, 10)).collect();
        assert!(targets.len() > 1, "one family scatters under HashRandom");
        assert_eq!(r.report().prefix_routed, 0);
    }

    #[test]
    fn hot_family_replicates_and_balances() {
        let mut r = router(8);
        // One family takes every arrival: share 1.0 forces the replica
        // count to the cap.
        for id in 0..256 {
            r.route(Some(3), id, 500);
        }
        let replicas = r.replicas_of(affinity_chain_key(3)).expect("placed");
        assert_eq!(
            replicas.len(),
            RouterConfig::default().max_replicas,
            "share 1.0 expands to the replica cap"
        );
        let report = r.report();
        assert!(report.replicated_families >= 1);
        assert!(report.replica_expansions >= 3);
        assert!(report.p2c_balanced > 0, "p2c uses the extra replicas");
        // Load spreads: no replica holds everything.
        let max = replicas.iter().map(|&n| r.load_of(n)).max().unwrap();
        assert!(max < 256 * 500, "replication split the family's load");
    }

    #[test]
    fn cold_families_do_not_replicate() {
        let mut r = router(8);
        // 64 families, uniform: each share is far below replicate_share.
        for id in 0..256 {
            r.route(Some(id % 64), id, 100);
        }
        assert_eq!(r.report().replicated_families, 0);
        assert_eq!(r.report().replica_expansions, 0);
    }

    #[test]
    fn drain_replaces_families_and_reports_the_delta() {
        let mut r = router(4);
        let mut owned = BTreeMap::new();
        for f in 0..16 {
            owned.insert(f, r.route(Some(f), f, 100));
        }
        let victim = *owned.values().next().unwrap();
        let delta = r.drain(victim);
        assert!(!delta.is_empty(), "victim owned at least one family");
        for handoff in &delta {
            assert_eq!(handoff.from, victim);
            let dest = handoff.to.expect("single-replica families re-place");
            assert_ne!(dest, victim);
        }
        // New placements avoid the drained node; moved families are sticky
        // on their new home.
        for f in 0..16 {
            let node = r.route(Some(f), 1000 + f, 100);
            assert_ne!(node, victim, "drained node receives nothing new");
        }
        assert_eq!(r.report().handoffs, delta.len() as u64);
    }

    #[test]
    fn join_is_sticky_for_existing_families() {
        let mut r = router(2);
        let mut before = BTreeMap::new();
        for f in 0..12 {
            before.insert(f, r.route(Some(f), f, 100));
        }
        r.join(9);
        for (f, node) in &before {
            assert_eq!(
                r.route(Some(*f), 100 + f, 100),
                *node,
                "join does not move placed families"
            );
        }
    }

    #[test]
    fn leave_implies_drain() {
        let mut r = router(3);
        r.route(Some(1), 0, 10);
        let victim = r.replicas_of(affinity_chain_key(1)).unwrap()[0];
        let delta = r.leave(victim);
        assert_eq!(delta.len(), 1);
        assert_eq!(r.report().drains, 1);
        assert_eq!(r.report().leaves, 1);
        assert_eq!(r.admitting().count(), 2);
    }

    #[test]
    #[should_panic(expected = "no admitting nodes")]
    fn routing_with_everything_drained_panics() {
        let mut r = router(1);
        r.drain(0);
        r.route(Some(1), 0, 10);
    }
}
