//! Fleet-level payoff of prefix-aware placement: families stay warm on
//! their home nodes, hot families replicate under skew, and the
//! hash-random baseline pays for its scatter in fleet hit rate.

use spear_cluster::prelude::*;
use spear_serve::{generate, AdmissionConfig, LoadGenConfig, ServeConfig};

fn workload(zipf: f64) -> spear_serve::GeneratedWorkload {
    generate(&LoadGenConfig {
        seed: 140,
        requests: 256,
        families: 10,
        mean_interarrival_us: 300,
        family_zipf: zipf,
        ..LoadGenConfig::default()
    })
}

fn cluster(nodes: usize, policy: RouterPolicy) -> Cluster {
    fleet(
        nodes,
        RouterConfig {
            policy,
            ..RouterConfig::default()
        },
    )
}

/// One-lane nodes with generous admission, so every fleet size serves the
/// identical request set.
fn fleet(nodes: usize, router: RouterConfig) -> Cluster {
    Cluster::new(ClusterConfig {
        initial_nodes: nodes,
        node: ServeConfig {
            lanes: 1,
            admission: AdmissionConfig {
                max_depth: 100_000,
                bucket_capacity: 1 << 40,
                refill_per_us: 1_000_000.0,
                ..AdmissionConfig::default()
            },
            ..ServeConfig::default()
        },
        router,
        ..ClusterConfig::default()
    })
}

#[test]
fn eight_nodes_reach_seven_tenths_of_ideal_scaling() {
    // Zipf(1.1) over 12 families with the head aggressive enough to
    // replicate over several nodes; one lane per node keeps fleet size the
    // only parallelism knob.
    let load = LoadGenConfig {
        seed: 140,
        requests: 1536,
        families: 12,
        mean_interarrival_us: 250,
        family_zipf: 1.1,
        ..LoadGenConfig::default()
    };
    let throughput = |nodes: usize| {
        let router = RouterConfig {
            replicate_share: 0.08,
            max_replicas: 6,
            ..RouterConfig::default()
        };
        let report = fleet(nodes, router).run(generate(&load)).report;
        assert_eq!(report.completed, 1536, "{nodes} nodes served every request");
        report.throughput_rps()
    };
    let efficiency = throughput(8) / (8.0 * throughput(1));
    assert!(
        efficiency >= 0.7,
        "8 nodes reach {efficiency:.3} of ideal linear scaling, below 0.7"
    );
}

#[test]
fn prefix_aware_beats_hash_random_on_fleet_hit_rate() {
    for nodes in [2, 4, 8] {
        let prefix = cluster(nodes, RouterPolicy::PrefixAware)
            .run(workload(1.1))
            .report;
        let hash = cluster(nodes, RouterPolicy::HashRandom)
            .run(workload(1.1))
            .report;
        let (p, h) = (
            prefix.fleet_hit_rate().expect("tokens flowed"),
            hash.fleet_hit_rate().expect("tokens flowed"),
        );
        assert!(
            p > h,
            "at {nodes} nodes prefix-aware ({p:.3}) must beat hash-random ({h:.3})"
        );
    }
}

#[test]
fn replication_engages_under_zipf_head_load() {
    let report = cluster(8, RouterPolicy::PrefixAware)
        .run(workload(1.2))
        .report;
    assert!(
        report.router.replicated_families >= 1,
        "the Zipf head crosses the share threshold: {:?}",
        report.router
    );
    assert!(report.router.p2c_balanced > 0, "replicas share the load");
}

#[test]
fn uniform_load_below_the_share_threshold_does_not_replicate() {
    // 10 uniform families hold ~10% of arrivals each; against a 25%
    // per-replica target even early-arrival noise stays clear of the
    // threshold, so no family expands.
    let cluster = Cluster::new(ClusterConfig {
        initial_nodes: 8,
        node: ServeConfig {
            lanes: 1,
            admission: AdmissionConfig {
                max_depth: 100_000,
                bucket_capacity: 1 << 40,
                refill_per_us: 1_000_000.0,
                ..AdmissionConfig::default()
            },
            ..ServeConfig::default()
        },
        router: RouterConfig {
            replicate_share: 0.25,
            ..RouterConfig::default()
        },
        ..ClusterConfig::default()
    });
    let report = cluster.run(workload(0.0)).report;
    assert_eq!(report.router.replicated_families, 0);
    assert_eq!(report.router.replica_expansions, 0);
}

#[test]
fn single_node_cluster_matches_standalone_serving_shape() {
    let run = cluster(1, RouterPolicy::PrefixAware).run(workload(0.0));
    assert_eq!(run.report.nodes.len(), 1);
    assert_eq!(run.report.imbalance, 1.0);
    assert_eq!(run.report.completed, 256);
    let node = &run.report.nodes[0];
    assert_eq!(node.assigned, 256);
    assert_eq!(
        node.report.trace_fingerprint, node.report.trace_fingerprint,
        "sanity"
    );
    assert!(run.report.fleet_hit_rate().unwrap() > 0.5);
}

#[test]
fn replication_spreads_the_hot_family_across_nodes() {
    // Extreme skew: the head family dominates arrivals.
    let w = generate(&LoadGenConfig {
        seed: 9,
        requests: 384,
        families: 6,
        mean_interarrival_us: 200,
        family_zipf: 2.0,
        ..LoadGenConfig::default()
    });
    let run = cluster(8, RouterPolicy::PrefixAware).run(w);
    assert!(run.report.router.replica_expansions >= 1);
    // The busiest node carries less than the head family's share would
    // imply without replication (~2/3 of all arrivals at s=2.0).
    let max_assigned = run.report.nodes.iter().map(|n| n.assigned).max().unwrap();
    assert!(
        max_assigned < 384 * 2 / 3,
        "replication must split the head family, busiest node got {max_assigned}/384"
    );
}
