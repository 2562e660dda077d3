//! The metric registry: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` lists the same names (a self-test checks it)
//! and holds the bound of each end-to-end metric.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Printed by every workload on an untraced run.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("host_req_per_s", "1/s"),
    lower("peak_heap_mb", "MB"),
    lower("virt_makespan_s", "s"),
    lower("virt_mean_ms", "ms"),
    lower("virt_p99_ms", "ms"),
    higher("virt_knee_rps", "1/s"),
    higher("task_f1", "ratio"),
];

/// Printed by every workload on a traced run; a layer the workload starves
/// reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    lower("dl.compile_us_per_program", "us"),
    higher("dl.source_mb_per_s", "MB/s"),
    lower("core.plan.lower_us_per_program", "us"),
    lower("core.plan.slots_per_program", "count"),
    lower("core.analysis.verify_us_per_program", "us"),
    lower("core.analysis.tv_us_per_program", "us"),
    lower("core.analysis.absint_us_per_program", "us"),
    lower("core.vm.compile_us_per_program", "us"),
    lower("core.vm.optimize_us_per_program", "us"),
    higher("core.vm.optimize_applied_share", "ratio"),
    lower("core.vm.code_len_per_program", "count"),
    lower("core.vm.dispatch_ns_per_op", "ns"),
    lower("core.vm.ops_per_req", "count"),
    lower("core.exec.self_us_per_req", "us"),
    lower("core.template.render_ns_per_call", "ns"),
    lower("core.template.renders_per_req", "count"),
    lower("core.trace.events_per_req", "count"),
    lower("core.trace.digest_ns_per_event", "ns"),
    lower("core.trace.jsonl_bytes_per_req", "count"),
    lower("llm.engine.calls_per_req", "count"),
    lower("llm.engine.generate_us_per_call", "us"),
    lower("llm.engine.busy_share", "ratio"),
    lower("llm.tokenizer.encode_ns_per_token", "ns"),
    lower("llm.tokenizer.tokens_per_req", "count"),
    higher("llm.intern.hit_share", "ratio"),
    lower("llm.intern.get_ns_per_call", "ns"),
    lower("llm.intern.evictions", "count"),
    higher("llm.cache.hit_token_share", "ratio"),
    lower("llm.cache.lookup_insert_ns_per_block", "ns"),
    lower("llm.cache.inserted_blocks", "count"),
    lower("llm.cache.evicted_blocks", "count"),
    higher("llm.memo.hit_share", "ratio"),
    higher("llm.memo.coalesced_share", "ratio"),
    higher("llm.memo.saved_calls_per_req", "count"),
    lower("llm.memo.lookup_ns_per_call", "ns"),
    lower("llm.memo.resident_bytes", "count"),
    lower("llm.pool.alloc_ns_per_call", "ns"),
    higher("llm.pool.reuse_share", "ratio"),
    lower("llm.pool.alloc_failures", "count"),
    lower("serve.queue.offer_pop_ns_per_req", "ns"),
    lower("serve.queue.wait_p50_ms", "ms"),
    lower("serve.queue.wait_p99_ms", "ms"),
    lower("serve.queue.rejected_share", "ratio"),
    higher("serve.program_cache.hit_share", "ratio"),
    lower("serve.program_cache.hit_ns_per_call", "ns"),
    lower("serve.program_cache.miss_us_per_compile", "us"),
    higher("serve.program_cache.verify_memo_hit_share", "ratio"),
    lower("serve.program_cache.evicted", "count"),
    lower("serve.scheduler.self_us_per_req", "us"),
    lower("serve.scheduler.self_us_per_req_at_4x", "us"),
    lower("serve.kv.steps_per_req", "count"),
    lower("serve.kv.preemptions_per_req", "count"),
    lower("serve.kv.evicted_blocks_per_req", "count"),
    higher("serve.kv.pool_reuse_share", "ratio"),
    lower("serve.kv.sim_us_per_step", "us"),
    lower("cluster.router.route_ns_per_req", "ns"),
    higher("cluster.router.prefix_routed_share", "ratio"),
    lower("cluster.router.replicated_families", "count"),
    lower("cluster.router.handoffs", "count"),
    lower("cluster.router.imbalance_x", "ratio"),
    higher("cluster.run.parallel_speedup_x", "ratio"),
    lower("cluster.run.rollup_us", "us"),
    lower("host.allocs_per_req", "count"),
    lower("host.alloc_bytes_per_req", "count"),
    lower("host.trace_overhead_share", "ratio"),
];

pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Values of one run, keyed by registered name.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Every metric of `defs` at 0, so an untouched layer still prints.
    pub fn zeroed(defs: &'static [MetricDef]) -> Self {
        Self(defs.iter().map(|d| (d.name, 0.0)).collect())
    }

    /// Set a registered metric; an unregistered name is a bug in the
    /// benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = def(name).unwrap_or_else(|| panic!("metric {name} is not registered"));
        self.0.insert(def.name, value);
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.0
            .iter()
            .map(|(name, &value)| (def(name).expect("only registered names are stored"), value))
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .iter()
            .map(|(d, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    json_number(v),
                    d.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A finite number with all its digits; JSON has no NaN or infinity.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `part / whole`, or 0 when there is no whole.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    const CONTRACT: &str = include_str!("../../BENCHMARK.json");

    fn listed(contract: &Value, key: &str) -> Vec<(String, String, String)> {
        let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
        contract
            .get(key)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect()
    }

    fn registered(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| {
                let better = match d.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                (d.name.to_string(), d.unit.to_string(), better.to_string())
            })
            .collect()
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(
                !d.name.is_empty() && d.name.len() <= 64 && d.name.chars().all(ok),
                "{}",
                d.name
            );
            assert!(
                d.name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{}",
                d.name
            );
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(
                !d.unit.is_empty() && d.unit.len() <= 16 && d.unit.chars().all(unit_ok),
                "{}",
                d.unit
            );
            assert!(seen.insert(d.name), "{} is registered twice", d.name);
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registered_metrics() {
        let contract: Value = serde_json::from_str(CONTRACT).unwrap();
        assert_eq!(listed(&contract, "end_to_end"), registered(END_TO_END));
        assert_eq!(listed(&contract, "per_layer"), registered(PER_LAYER));
        let setup = &listed(&contract, "end_to_end")[0];
        assert_eq!(
            (setup.0.as_str(), setup.1.as_str(), setup.2.as_str()),
            ("setup_s", "s", "lower")
        );
    }

    #[test]
    fn benchmark_json_names_the_five_workloads() {
        let contract: Value = serde_json::from_str(CONTRACT).unwrap();
        let names: Vec<&str> = contract
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(names, crate::runner::WORKLOADS);
    }

    #[test]
    fn a_result_line_carries_every_metric_with_its_unit() {
        let mut metrics = Metrics::zeroed(END_TO_END);
        metrics.set("setup_s", 0.8127);
        let parsed: Value = serde_json::from_str(&metrics.to_json()).unwrap();
        assert_eq!(parsed.as_object().unwrap().len(), END_TO_END.len());
        let setup = parsed.get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    }
}
