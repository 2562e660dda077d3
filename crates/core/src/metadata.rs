//! The runtime metadata **M**.
//!
//! "Metadata (M) is a collection of control signals and diagnostic
//! information that is used to guide conditional execution and adaptation."
//! (paper §3.2). CHECK operators query M; the optimizer mines it for
//! cost-based refinement planning.

use std::collections::BTreeMap;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::value::Value;

/// Token accounting for a single generation or an accumulated run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TokenUsage {
    /// Tokens in the prompt (prefill), including cached ones.
    pub prompt_tokens: u64,
    /// Prompt tokens served from the prefix cache (⊆ `prompt_tokens`).
    pub cached_tokens: u64,
    /// Tokens generated (decode).
    pub completion_tokens: u64,
}

impl TokenUsage {
    /// Total tokens moved (prompt + completion).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.prompt_tokens + self.completion_tokens
    }

    /// Fraction of prompt tokens served from cache, in `[0, 1]`; `None` when
    /// the prompt was empty.
    #[must_use]
    pub fn cache_hit_rate(&self) -> Option<f64> {
        if self.prompt_tokens == 0 {
            None
        } else {
            Some(self.cached_tokens as f64 / self.prompt_tokens as f64)
        }
    }

    /// Accumulate another usage into this one.
    pub fn absorb(&mut self, other: TokenUsage) {
        self.prompt_tokens += other.prompt_tokens;
        self.cached_tokens += other.cached_tokens;
        self.completion_tokens += other.completion_tokens;
    }
}

/// One GEN's interaction with the backend's generation-reuse memo
/// (recorded only when the execution ran under
/// [`crate::llm::ReusePolicy::Exact`]). The serving layer harvests these
/// to build its deterministic reuse ledger; they never feed the trace, so
/// digests are reuse-invariant by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReuseEvent {
    /// The backend's memo key for this call's reuse identity.
    pub key: u64,
    /// Whether the call adopted a memoized execution (vs seeding one).
    pub reused: bool,
    /// Prompt tokens of the call (what reuse avoids re-prefilling).
    pub prompt_tokens: u64,
    /// Completion tokens of the call (what reuse avoids re-decoding).
    pub completion_tokens: u64,
}

/// The metadata store **M**: named signals plus standing counters.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Metadata {
    signals: BTreeMap<String, Value>,
    /// Number of GEN invocations so far.
    pub gen_calls: u64,
    /// Number of REF applications so far.
    pub ref_calls: u64,
    /// Number of retry iterations taken by RETRY patterns.
    pub retries: u64,
    /// Accumulated token usage across all GEN calls.
    pub usage: TokenUsage,
    /// Accumulated (virtual) latency across all LLM and retrieval calls,
    /// in microseconds. Stored as an integer so M serializes exactly.
    pub latency_us: u64,
    /// Per-GEN reuse ledger (empty unless the run executed with reuse
    /// enabled). `#[serde(default)]` keeps pre-reuse serialized states
    /// deserializable.
    #[serde(default)]
    pub reuse_events: Vec<ReuseEvent>,
}

impl Metadata {
    /// Create empty metadata.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Read a signal (e.g. `M["confidence"]`).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<Value> {
        self.signals.get(key).cloned()
    }

    /// Whether a signal is present.
    #[must_use]
    pub fn contains(&self, key: &str) -> bool {
        self.signals.contains_key(key)
    }

    /// Set a signal.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<Value>) {
        self.signals.insert(key.into(), value.into());
    }

    /// Remove a signal.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        self.signals.remove(key)
    }

    /// Accumulated latency as a [`Duration`].
    #[must_use]
    pub fn latency(&self) -> Duration {
        Duration::from_micros(self.latency_us)
    }

    /// Record one generation's cost into the standing counters and refresh
    /// the conventional signals (`confidence`, `latency_ms`, `tokens`).
    pub fn record_gen(&mut self, usage: TokenUsage, latency: Duration, confidence: f64) {
        self.gen_calls += 1;
        self.usage.absorb(usage);
        self.latency_us += u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        self.set("confidence", confidence);
        self.set("latency_ms", latency.as_secs_f64() * 1e3);
        self.set("tokens", usage.total());
    }

    /// Append one GEN's reuse-memo interaction to the ledger (see
    /// [`ReuseEvent`]).
    pub fn record_reuse(&mut self, key: u64, reused: bool, usage: TokenUsage) {
        self.reuse_events.push(ReuseEvent {
            key,
            reused,
            prompt_tokens: usage.prompt_tokens,
            completion_tokens: usage.completion_tokens,
        });
    }

    /// Snapshot of all signals (for ref_log records and traces).
    #[must_use]
    pub fn signal_snapshot(&self) -> BTreeMap<String, Value> {
        self.signals.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signals_set_get_remove() {
        let mut m = Metadata::new();
        m.set("confidence", 0.62);
        assert!(m.contains("confidence"));
        assert_eq!(m.get("confidence").unwrap().as_f64(), Some(0.62));
        assert!(m.remove("confidence").is_some());
        assert!(!m.contains("confidence"));
        assert_eq!(m.get("confidence"), None);
    }

    #[test]
    fn record_gen_updates_counters_and_signals() {
        let mut m = Metadata::new();
        let usage = TokenUsage {
            prompt_tokens: 100,
            cached_tokens: 80,
            completion_tokens: 20,
        };
        m.record_gen(usage, Duration::from_millis(15), 0.9);
        m.record_gen(usage, Duration::from_millis(5), 0.4);

        assert_eq!(m.gen_calls, 2);
        assert_eq!(m.usage.prompt_tokens, 200);
        assert_eq!(m.usage.cached_tokens, 160);
        assert_eq!(m.usage.completion_tokens, 40);
        assert_eq!(m.latency(), Duration::from_millis(20));
        // Signals reflect the LAST generation.
        assert_eq!(m.get("confidence").unwrap().as_f64(), Some(0.4));
        assert_eq!(m.get("tokens").unwrap().as_i64(), Some(120));
    }

    #[test]
    fn token_usage_math() {
        let u = TokenUsage {
            prompt_tokens: 200,
            cached_tokens: 50,
            completion_tokens: 30,
        };
        assert_eq!(u.total(), 230);
        assert!((u.cache_hit_rate().unwrap() - 0.25).abs() < 1e-12);
        assert_eq!(TokenUsage::default().cache_hit_rate(), None);
    }

    #[test]
    fn signal_snapshot_is_independent_copy() {
        let mut m = Metadata::new();
        m.set("a", 1);
        let snap = m.signal_snapshot();
        m.set("a", 2);
        assert_eq!(snap.get("a").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn serde_roundtrip() {
        let mut m = Metadata::new();
        m.set("confidence", 0.7);
        m.retries = 3;
        let json = serde_json::to_string(&m).unwrap();
        let back: Metadata = serde_json::from_str(&json).unwrap();
        assert_eq!(back.retries, 3);
        assert_eq!(back.get("confidence").unwrap().as_f64(), Some(0.7));
    }
}
