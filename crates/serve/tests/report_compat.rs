//! Forward-compatibility of the `ServeReport` schema: every field added
//! after PR 3 carries `#[serde(default)]`, so node-level reports written
//! by any earlier schema — including the checked-in benchmark artifacts —
//! deserialize under the current one. The cluster fabric depends on this:
//! it stamps `ServeReport::cluster` onto node reports, and fleet tooling
//! must still read standalone reports that never had the field.

use spear_serve::prelude::*;

/// Deserialize every per-row `report` object inside a checked-in
/// `tests/data/BENCH_serve*.json` artifact into the current `ServeReport`
/// schema.
fn reports_from_artifact(name: &str) -> Vec<ServeReport> {
    let path = format!("{}/tests/data/{name}", env!("CARGO_MANIFEST_DIR"));
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("checked-in artifact {path} must be readable: {e}"));
    let value: serde_json::Value = serde_json::from_str(&raw).expect("artifact is valid JSON");
    let rows = value["rows"].as_array().expect("artifact has rows");
    assert!(!rows.is_empty(), "{name} has at least one row");
    rows.iter()
        .map(|row| {
            serde_json::from_value::<ServeReport>(row["report"].clone())
                .unwrap_or_else(|e| panic!("row report in {name} deserializes: {e}"))
        })
        .collect()
}

#[test]
fn checked_in_serve_artifact_deserializes() {
    for report in reports_from_artifact("BENCH_serve.json") {
        assert!(report.lanes > 0);
        assert!(report.trace_fingerprint != 0);
        assert!(report.interactive.submitted + report.batch.submitted > 0);
        // Unconstrained runs: the KV pool was never enabled, and the
        // standalone schema carries no cluster linkage.
        assert!(!report.kv.enabled);
        assert_eq!(report.cluster, None);
    }
}

#[test]
fn checked_in_pressure_artifact_deserializes() {
    let reports = reports_from_artifact("BENCH_serve_pressure.json");
    assert!(
        reports.iter().any(|r| r.kv.enabled && r.kv.preempted > 0),
        "pressure artifact witnesses real pool contention"
    );
    for report in &reports {
        assert_eq!(report.cluster, None);
    }
}

/// A PR-3-era report — no `kv`, no `compile`, no `cluster`, no per-class
/// `preempted` — still deserializes, with every post-PR-3 field at its
/// default. Synthesized by stripping those fields from a current report,
/// so the test keeps protecting the contract even as artifacts are
/// regenerated with newer schemas.
#[test]
fn pre_kv_schema_deserializes_with_defaults() {
    let mut report = ServeReport {
        lanes: 4,
        affinity_routing: true,
        makespan_us: 99,
        trace_fingerprint: 7,
        ..ServeReport::default()
    };
    report.interactive.submitted = 3;
    report.interactive.completed = 3;

    let mut value = serde_json::to_value(&report).expect("serializes");
    let obj = value.as_object_mut().expect("report is a JSON object");
    for field in ["kv", "compile", "cluster", "reuse"] {
        assert!(obj.remove(field).is_some(), "{field} is in current schema");
    }
    for class in ["interactive", "batch"] {
        let class = value[class].as_object_mut().expect("class object");
        assert!(class.remove("preempted").is_some());
    }

    let back: ServeReport = serde_json::from_value(value).expect("old schema deserializes");
    assert_eq!(back.kv, KvReport::default());
    assert_eq!(back.compile, CompileReport::default());
    assert_eq!(back.cluster, None);
    assert_eq!(back.reuse, ReuseReport::default());
    assert_eq!(back.interactive.preempted, 0);
    assert_eq!(back.interactive.completed, 3);
    assert_eq!(back.trace_fingerprint, 7);
}

/// A pre-reuse report (every schema up to PR 9) — no `reuse` object —
/// still deserializes with an all-zero ledger.
#[test]
fn pre_reuse_schema_deserializes_with_defaults() {
    let report = ServeReport {
        lanes: 8,
        trace_fingerprint: 21,
        ..ServeReport::default()
    };
    let mut value = serde_json::to_value(&report).expect("serializes");
    let obj = value.as_object_mut().expect("report is a JSON object");
    assert!(obj.remove("reuse").is_some(), "reuse is in current schema");
    let back: ServeReport = serde_json::from_value(value).expect("pre-reuse schema deserializes");
    assert_eq!(back.reuse, ReuseReport::default());
    assert_eq!(back.trace_fingerprint, 21);
}

/// A populated reuse ledger round-trips exactly.
#[test]
fn reuse_ledger_round_trips() {
    let report = ServeReport {
        lanes: 4,
        trace_fingerprint: 13,
        reuse: ReuseReport {
            hits: 856,
            coalesced: 4_833,
            inserted: 455,
            evicted: 3,
            bytes: 174_681,
            saved_tokens: 3_191_630,
            saved_calls: 5_689,
        },
        ..ServeReport::default()
    };
    let json = serde_json::to_string(&report).expect("serializes");
    let back: ServeReport = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back, report);
    assert_eq!(
        back.reuse.saved_calls,
        back.reuse.hits + back.reuse.coalesced
    );
}

/// The current schema round-trips exactly, including a populated cluster
/// linkage.
#[test]
fn cluster_linkage_round_trips() {
    let report = ServeReport {
        lanes: 2,
        trace_fingerprint: 11,
        cluster: Some(ClusterLinkage {
            node_id: 5,
            joined_us: 1_000,
            drained: true,
        }),
        ..ServeReport::default()
    };
    let json = serde_json::to_string(&report).expect("serializes");
    let back: ServeReport = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back, report);
    assert_eq!(back.cluster.as_ref().map(|c| c.node_id), Some(5));
}
