//! The runtime context **C**.
//!
//! "Context (C) provides runtime data on which the prompts depend. It is a
//! dynamic map of runtime data inputs and intermediate outputs." (paper §3.2)
//! RET places retrieved data here, GEN reads from and writes generations into
//! it, and REF functions may write structured output back for downstream
//! steps.

use serde::{Content, DeError, Deserialize, Serialize};

use crate::value::Value;

/// A single recorded context mutation (for introspection and shadow diffs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContextWrite {
    /// Executor step at which the write happened (0 when written outside a
    /// pipeline, e.g. during setup).
    pub step: u64,
    /// Key written.
    pub key: String,
    /// Which operator (or caller) performed the write, e.g. `"GEN"`.
    pub writer: String,
}

/// The dynamic context map **C**.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Context {
    entries: Entries,
    write_log: Vec<ContextWrite>,
}

/// C's entries: a key-sorted vector searched by binary search. Contexts
/// are small and many: the benchmark's serving workloads hold 1–5 keys
/// (its generated `compile_cold` programs at most 22), with up to 8192
/// contexts alive at once. A vector's first allocation, four entries, is
/// about a third of a B-tree's first leaf, which is sized for eleven.
///
/// Serializes exactly as a `BTreeMap<String, Value>` does — one object in
/// key order — and, like one, keeps the last value of a duplicated key.
#[derive(Debug, Clone, Default)]
struct Entries(Vec<(String, Value)>);

impl Entries {
    fn find(&self, key: &str) -> Result<usize, usize> {
        self.0.binary_search_by(|(k, _)| k.as_str().cmp(key))
    }

    fn get(&self, key: &str) -> Option<&Value> {
        self.find(key).ok().map(|i| &self.0[i].1)
    }

    fn insert(&mut self, key: String, value: Value) {
        match self.find(&key) {
            Ok(i) => self.0[i].1 = value,
            Err(i) => self.0.insert(i, (key, value)),
        }
    }

    fn remove(&mut self, key: &str) -> Option<Value> {
        self.find(key).ok().map(|i| self.0.remove(i).1)
    }
}

impl Serialize for Entries {
    fn serialize_content(&self) -> Content {
        Content::Map(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v.serialize_content()))
                .collect(),
        )
    }
}

impl Deserialize for Entries {
    fn deserialize_content(content: &Content) -> Result<Self, DeError> {
        let mut entries = Entries::default();
        for (k, v) in content.as_map_for("map")? {
            entries.insert(k.clone(), Value::deserialize_content(v)?);
        }
        Ok(entries)
    }
}

impl Context {
    /// Create an empty context.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Get a value by key (cloned; values are small or structurally shared
    /// by the caller).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<Value> {
        self.entries.get(key).cloned()
    }

    /// Borrow a value by key.
    #[must_use]
    pub fn get_ref(&self, key: &str) -> Option<&Value> {
        self.entries.get(key)
    }

    /// Whether `key` is present (CHECK's `"orders" in C`).
    #[must_use]
    pub fn contains(&self, key: &str) -> bool {
        self.entries.find(key).is_ok()
    }

    /// Set `key` without attribution (setup code, tests).
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<Value>) {
        self.set_attributed(key, value, 0, "caller");
    }

    /// Set `key`, recording which operator wrote it at which step.
    pub fn set_attributed(
        &mut self,
        key: impl Into<String>,
        value: impl Into<Value>,
        step: u64,
        writer: &str,
    ) {
        let key = key.into();
        self.write_log.push(ContextWrite {
            step,
            key: key.clone(),
            writer: writer.to_string(),
        });
        self.entries.insert(key, value.into());
    }

    /// Remove `key`, returning its value if present.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        self.entries.remove(key)
    }

    /// All keys, sorted.
    #[must_use]
    pub fn keys(&self) -> Vec<&str> {
        self.entries.0.iter().map(|(k, _)| k.as_str()).collect()
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.0.len()
    }

    /// Whether the context is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.0.is_empty()
    }

    /// The full mutation log, oldest first.
    #[must_use]
    pub fn write_log(&self) -> &[ContextWrite] {
        &self.write_log
    }

    /// Iterate over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.0.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Keys present in `self` but with a different (or missing) value in
    /// `other` — used by shadow-execution diffs.
    #[must_use]
    pub fn changed_keys_vs(&self, other: &Context) -> Vec<String> {
        self.entries
            .0
            .iter()
            .filter(|(k, v)| other.entries.get(k) != Some(v))
            .map(|(k, _)| k.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_contains_remove() {
        let mut c = Context::new();
        assert!(c.is_empty());
        c.set("orders", Value::from(vec![Value::from("enoxaparin 40mg")]));
        assert!(c.contains("orders"));
        assert_eq!(c.len(), 1);
        assert!(c.get("orders").unwrap().as_list().is_some());
        assert!(c.remove("orders").is_some());
        assert!(!c.contains("orders"));
    }

    #[test]
    fn writes_are_logged_with_attribution() {
        let mut c = Context::new();
        c.set_attributed("answer_0", "text", 3, "GEN");
        c.set("raw", 1);
        let log = c.write_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].writer, "GEN");
        assert_eq!(log[0].step, 3);
        assert_eq!(log[1].writer, "caller");
    }

    #[test]
    fn overwrite_keeps_both_log_entries() {
        let mut c = Context::new();
        c.set("k", 1);
        c.set("k", 2);
        assert_eq!(c.get("k").unwrap().as_i64(), Some(2));
        assert_eq!(c.write_log().len(), 2);
    }

    #[test]
    fn changed_keys_vs_detects_differences() {
        let mut a = Context::new();
        a.set("same", 1);
        a.set("diff", 1);
        a.set("only_a", 1);
        let mut b = Context::new();
        b.set("same", 1);
        b.set("diff", 2);
        let mut changed = a.changed_keys_vs(&b);
        changed.sort();
        assert_eq!(changed, vec!["diff".to_string(), "only_a".to_string()]);
    }

    /// The shape `Context` had when its entries were a `BTreeMap`.
    #[derive(Serialize, Deserialize)]
    struct MapBacked {
        entries: std::collections::BTreeMap<String, Value>,
        write_log: Vec<ContextWrite>,
    }

    #[test]
    fn serializes_and_parses_exactly_like_a_btree_map() {
        let mut c = Context::new();
        for (key, value) in [("m", 1), ("b", 2), ("z", 3), ("b", 4), ("a", 5)] {
            c.set(key, value);
        }
        c.remove("z");
        let reference = MapBacked {
            entries: c.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
            write_log: c.write_log().to_vec(),
        };
        assert_eq!(
            serde_json::to_string(&c).unwrap(),
            serde_json::to_string(&reference).unwrap()
        );
        assert_eq!(c.keys(), ["a", "b", "m"]);
        assert_eq!(c.get("b"), Some(Value::from(4)));

        // Unsorted input with a duplicated key: the last value wins.
        let json = r#"{"entries":{"k":1,"c":"x","k":2,"a":[]},"write_log":[]}"#;
        let parsed: Context = serde_json::from_str(json).unwrap();
        let reference: MapBacked = serde_json::from_str(json).unwrap();
        let pairs: Vec<(&str, &Value)> = parsed.iter().collect();
        let expected: Vec<(&str, &Value)> = reference
            .entries
            .iter()
            .map(|(k, v)| (k.as_str(), v))
            .collect();
        assert_eq!(pairs, expected);
        assert_eq!(parsed.get("k"), Some(Value::from(2)));
    }

    #[test]
    fn serde_roundtrip() {
        let mut c = Context::new();
        c.set_attributed("k", 42, 1, "RET");
        let json = serde_json::to_string(&c).unwrap();
        let back: Context = serde_json::from_str(&json).unwrap();
        assert_eq!(back.get("k").unwrap().as_i64(), Some(42));
        assert_eq!(back.write_log().len(), 1);
    }
}
