//! Append-only durability log with recovery replay.
//!
//! The SPEAR runtime logs every store mutation as a structured record so a
//! store's state (including the version chains that back prompt histories)
//! can be rebuilt after a restart, and so refinement replay (§6 of the paper)
//! has a durable substrate. Records are JSON Lines: one serialized
//! [`LogRecord`] per line, in global sequence order.

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

use crate::error::{KvError, Result};
use crate::store::KvStore;

/// One durable mutation record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogRecord<V> {
    /// Global sequence number the mutation was assigned by the store.
    pub seq: u64,
    /// Target key.
    pub key: String,
    /// The operation.
    pub op: LogOp<V>,
}

/// The mutation kind carried by a [`LogRecord`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LogOp<V> {
    /// A value was written. The record shares the stored value; it
    /// serializes as the bare value.
    Put(Arc<V>),
    /// The key was deleted (tombstoned).
    Delete,
}

/// Sink for durable mutation records.
///
/// Implementations must persist records in the order they are appended.
pub trait Persister<V>: Send + Sync {
    /// Append one record. Called after the in-memory mutation has landed.
    ///
    /// # Errors
    ///
    /// Returns an error if the record could not be made durable.
    fn append(&self, record: &LogRecord<V>) -> Result<()>;

    /// Flush any buffered records to stable storage.
    ///
    /// # Errors
    ///
    /// Returns an error if the flush failed.
    fn flush(&self) -> Result<()>;
}

/// JSON-Lines file persister.
pub struct JsonlLog {
    path: PathBuf,
    writer: Mutex<BufWriter<File>>,
}

impl JsonlLog {
    /// Open (creating or appending to) the log at `path`.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be opened for append.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Self {
            path,
            writer: Mutex::new(BufWriter::new(file)),
        })
    }

    /// Path of the underlying file.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Read every record in the log, in order.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::CorruptLog`] for malformed lines and I/O errors
    /// for unreadable files.
    pub fn read_all<V: DeserializeOwned>(path: impl AsRef<Path>) -> Result<Vec<LogRecord<V>>> {
        let file = File::open(path.as_ref())?;
        let reader = BufReader::new(file);
        let mut out = Vec::new();
        for (idx, line) in reader.lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let rec: LogRecord<V> =
                serde_json::from_str(&line).map_err(|e| KvError::CorruptLog {
                    line: idx + 1,
                    reason: e.to_string(),
                })?;
            out.push(rec);
        }
        Ok(out)
    }

    /// Rebuild a store from the log at `path` by replaying every record in
    /// order. Per-key version numbers are regenerated by replay; they match
    /// the original store because replay preserves per-key write order.
    ///
    /// # Errors
    ///
    /// Propagates read and corruption errors from [`JsonlLog::read_all`].
    pub fn recover<V: Clone + DeserializeOwned>(path: impl AsRef<Path>) -> Result<KvStore<V>> {
        let records = Self::read_all::<V>(path)?;
        let store = KvStore::new();
        for rec in records {
            match rec.op {
                LogOp::Put(v) => {
                    store.put(rec.key, v);
                }
                LogOp::Delete => {
                    store.delete(&rec.key);
                }
            }
        }
        Ok(store)
    }
}

impl<V: Serialize + Send + Sync> Persister<V> for JsonlLog {
    fn append(&self, record: &LogRecord<V>) -> Result<()> {
        let line = serde_json::to_string(record)?;
        let mut w = self.writer.lock();
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
        Ok(())
    }

    fn flush(&self) -> Result<()> {
        self.writer.lock().flush()?;
        Ok(())
    }
}

/// A [`KvStore`] wrapper that mirrors every mutation into a [`Persister`].
///
/// The wrapper is intentionally thin: reads go straight to the store, writes
/// first mutate the store (assigning the sequence number) and then append a
/// record. Crash-consistency model: the log may lag the in-memory store by
/// unflushed records; it never contains a record for a mutation that did not
/// happen.
pub struct DurableStore<V, P: Persister<V>> {
    store: KvStore<V>,
    persister: P,
}

impl<V: Clone + Serialize, P: Persister<V>> DurableStore<V, P> {
    /// Wrap `store`, mirroring future mutations into `persister`.
    pub fn new(store: KvStore<V>, persister: P) -> Self {
        Self { store, persister }
    }

    /// The wrapped in-memory store (for reads).
    #[must_use]
    pub fn store(&self) -> &KvStore<V> {
        &self.store
    }

    /// Durable put.
    ///
    /// # Errors
    ///
    /// Returns an error if the log append fails (the in-memory write has
    /// already happened; callers that need atomicity should treat a log
    /// failure as fatal).
    pub fn put(&self, key: impl Into<String>, value: V) -> Result<u64> {
        let key = key.into();
        let value = Arc::new(value);
        let version = self.store.put(key.clone(), Arc::clone(&value));
        let seq = self
            .store
            .get_versioned(&key)
            .map(|v| v.seq)
            .unwrap_or_default();
        self.persister.append(&LogRecord {
            seq,
            key,
            op: LogOp::Put(value),
        })?;
        Ok(version)
    }

    /// Durable delete.
    ///
    /// # Errors
    ///
    /// Returns an error if the log append fails.
    pub fn delete(&self, key: &str) -> Result<bool> {
        let deleted = self.store.delete(key);
        if deleted {
            let seq = self
                .store
                .get_versioned(key)
                .map(|v| v.seq)
                .unwrap_or_default();
            self.persister.append(&LogRecord {
                seq,
                key: key.to_string(),
                op: LogOp::Delete,
            })?;
        }
        Ok(deleted)
    }

    /// Flush the persister.
    ///
    /// # Errors
    ///
    /// Returns an error if the flush fails.
    pub fn sync(&self) -> Result<()> {
        self.persister.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "spear-kv-test-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        p
    }

    #[test]
    fn log_roundtrip_and_recovery() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let log = JsonlLog::open(&path).unwrap();
            let durable = DurableStore::new(KvStore::<String>::new(), log);
            durable.put("a", "1".to_string()).unwrap();
            durable.put("a", "2".to_string()).unwrap();
            durable.put("b", "x".to_string()).unwrap();
            durable.delete("b").unwrap();
            durable.sync().unwrap();
        }
        let recovered: KvStore<String> = JsonlLog::recover(&path).unwrap();
        assert_eq!(recovered.get("a").as_deref().map(String::as_str), Some("2"));
        assert_eq!(recovered.get("b"), None);
        assert_eq!(
            recovered.get_version("a", 1).as_deref().map(String::as_str),
            Some("1"),
            "version history is rebuilt by replay"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn records_carry_monotonic_seq() {
        let path = temp_path("seq");
        let _ = std::fs::remove_file(&path);
        {
            let log = JsonlLog::open(&path).unwrap();
            let durable = DurableStore::new(KvStore::<i32>::new(), log);
            for i in 0..5 {
                durable.put(format!("k{i}"), i).unwrap();
            }
            durable.sync().unwrap();
        }
        let recs: Vec<LogRecord<i32>> = JsonlLog::read_all(&path).unwrap();
        assert_eq!(recs.len(), 5);
        for w in recs.windows(2) {
            assert!(w[0].seq < w[1].seq, "sequence numbers must increase");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_line_is_reported_with_position() {
        let path = temp_path("corrupt");
        std::fs::write(
            &path,
            "{\"seq\":1,\"key\":\"a\",\"op\":{\"Put\":1}}\nnot-json\n",
        )
        .unwrap();
        let err = JsonlLog::read_all::<i32>(&path).unwrap_err();
        match err {
            KvError::CorruptLog { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error: {other}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_hostile_nesting_depth_is_a_corrupt_line_not_a_stack_overflow() {
        let path = temp_path("deep");
        let deep = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
        std::fs::write(
            &path,
            format!("{{\"seq\":1,\"key\":\"a\",\"op\":{{\"Put\":1}}}}\n{deep}\n"),
        )
        .unwrap();
        let err = JsonlLog::read_all::<i32>(&path).unwrap_err();
        match err {
            KvError::CorruptLog { line, reason } => {
                assert_eq!(line, 2);
                assert!(reason.contains("recursion limit exceeded"), "{reason}");
            }
            other => panic!("unexpected error: {other}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_record_too_deep_to_recover_fails_when_it_is_written() {
        let path = temp_path("deep-write");
        let _ = std::fs::remove_file(&path);
        let nest = |n: usize| {
            (0..n).fold(serde_json::Value::Null, |v, _| {
                serde_json::Value::Array(vec![v])
            })
        };
        {
            let log = JsonlLog::open(&path).unwrap();
            let durable = DurableStore::new(KvStore::<serde_json::Value>::new(), log);
            durable.put("shallow", nest(8)).unwrap();
            let err = durable.put("deep", nest(300)).unwrap_err();
            assert!(
                matches!(&err, KvError::Serde(e) if e.contains("recursion limit exceeded")),
                "{err}"
            );
            durable.sync().unwrap();
        }
        let recovered: KvStore<serde_json::Value> = JsonlLog::recover(&path).unwrap();
        assert_eq!(recovered.get("shallow").as_deref(), Some(&nest(8)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn blank_lines_are_tolerated() {
        let path = temp_path("blank");
        std::fs::write(
            &path,
            "{\"seq\":1,\"key\":\"a\",\"op\":{\"Put\":1}}\n\n{\"seq\":2,\"key\":\"a\",\"op\":\"Delete\"}\n",
        )
        .unwrap();
        let recs: Vec<LogRecord<i32>> = JsonlLog::read_all(&path).unwrap();
        assert_eq!(recs.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recover_missing_file_errors() {
        let err = JsonlLog::recover::<i32>("/nonexistent/spear.log").unwrap_err();
        assert!(matches!(err, KvError::Io(_)));
    }
}
