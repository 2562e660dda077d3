//! Append-only durability log with recovery replay.
//!
//! The SPEAR runtime logs every store mutation as a structured record so a
//! store's state (including the version chains that back prompt histories)
//! can be rebuilt after a restart, and so refinement replay (§6 of the paper)
//! has a durable substrate. Records are JSON Lines: one serialized
//! [`LogRecord`] per line, in global sequence order. A record is durable
//! once its newline is written: a final line without one is a write that a
//! crash cut short, so reading drops it and reopening truncates it.

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

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
/// A persister is owned by the one store that writes through it, so both
/// methods take `&mut self`. Implementations must persist records in the
/// order they are appended.
pub trait Persister<V>: Send {
    /// Append one record. Called after the in-memory mutation has landed.
    ///
    /// # Errors
    ///
    /// Returns an error if the record could not be made durable.
    fn append(&mut self, record: &LogRecord<V>) -> Result<()>;

    /// Flush any buffered records to stable storage.
    ///
    /// # Errors
    ///
    /// Returns an error if the flush failed.
    fn flush(&mut self) -> Result<()>;
}

/// JSON-Lines file persister.
pub struct JsonlLog {
    path: PathBuf,
    writer: BufWriter<File>,
}

impl JsonlLog {
    /// Open (creating or appending to) the log at `path`. A torn final
    /// record is truncated first, so the next append starts a fresh line.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be opened for append.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        let durable = durable_len(&mut file)?;
        if durable < file.metadata()?.len() {
            file.set_len(durable)?;
        }
        Ok(Self {
            path,
            writer: BufWriter::new(file),
        })
    }

    /// Path of the underlying file.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Read every durable record in the log, in order; a torn final
    /// record is dropped.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::CorruptLog`] for malformed lines and I/O errors
    /// for unreadable files.
    pub fn read_all<V: DeserializeOwned>(path: impl AsRef<Path>) -> Result<Vec<LogRecord<V>>> {
        let mut reader = BufReader::new(File::open(path.as_ref())?);
        let mut out = Vec::new();
        let mut buf = String::new();
        for line in 1.. {
            buf.clear();
            if reader.read_line(&mut buf)? == 0 {
                break;
            }
            let Some(text) = buf.strip_suffix('\n') else {
                break; // torn final record
            };
            if text.trim().is_empty() {
                continue;
            }
            let rec: LogRecord<V> =
                serde_json::from_str(text).map_err(|e| KvError::CorruptLog {
                    line,
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
        let mut store = KvStore::new();
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

impl<V: Serialize> Persister<V> for JsonlLog {
    fn append(&mut self, record: &LogRecord<V>) -> Result<()> {
        let mut line = serde_json::to_string(record)?;
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        self.writer.flush()?;
        Ok(())
    }
}

/// Length of the log's durable part: everything up to and including its
/// last newline. Scans backwards from the end, one block at a time.
fn durable_len(file: &mut File) -> std::io::Result<u64> {
    let mut block = [0u8; 4096];
    let mut end = file.seek(SeekFrom::End(0))?;
    while end > 0 {
        let start = end.saturating_sub(block.len() as u64);
        let chunk = &mut block[..(end - start) as usize];
        file.seek(SeekFrom::Start(start))?;
        file.read_exact(chunk)?;
        if let Some(i) = chunk.iter().rposition(|&b| b == b'\n') {
            return Ok(start + i as u64 + 1);
        }
        end = start;
    }
    Ok(0)
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

    fn put<V>(seq: u64, key: &str, value: V) -> LogRecord<V> {
        LogRecord {
            seq,
            key: key.to_string(),
            op: LogOp::Put(Arc::new(value)),
        }
    }

    #[test]
    fn log_roundtrip_and_recovery() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let mut log = JsonlLog::open(&path).unwrap();
            log.append(&put(1, "a", "1".to_string())).unwrap();
            log.append(&put(2, "a", "2".to_string())).unwrap();
            log.append(&put(3, "b", "x".to_string())).unwrap();
            log.append(&LogRecord::<String> {
                seq: 4,
                key: "b".into(),
                op: LogOp::Delete,
            })
            .unwrap();
            Persister::<String>::flush(&mut log).unwrap();
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

    /// One durable record, then a second cut off mid-write.
    const TORN: &str =
        "{\"seq\":1,\"key\":\"a\",\"op\":{\"Put\":1}}\n{\"seq\":2,\"key\":\"a\",\"op\":{\"Pu";

    #[test]
    fn a_torn_final_record_is_dropped_on_recovery() {
        let path = temp_path("torn");
        std::fs::write(&path, TORN).unwrap();
        let recovered: KvStore<i32> = JsonlLog::recover(&path).unwrap();
        assert_eq!(recovered.get("a").as_deref(), Some(&1));
        assert_eq!(recovered.history("a").len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopening_after_a_torn_record_appends_on_a_fresh_line() {
        let path = temp_path("torn-reopen");
        std::fs::write(&path, TORN).unwrap();
        {
            let mut log = JsonlLog::open(&path).unwrap();
            log.append(&put(2, "b", 2)).unwrap();
            Persister::<i32>::flush(&mut log).unwrap();
        }
        let recs: Vec<LogRecord<i32>> = JsonlLog::read_all(&path).unwrap();
        assert_eq!(recs, [put(1, "a", 1), put(2, "b", 2)]);
        let recovered: KvStore<i32> = JsonlLog::recover(&path).unwrap();
        assert_eq!(recovered.keys(), ["a", "b"]);
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
            let mut log = JsonlLog::open(&path).unwrap();
            log.append(&put(1, "shallow", nest(8))).unwrap();
            let err = log.append(&put(2, "deep", nest(300))).unwrap_err();
            assert!(
                matches!(&err, KvError::Serde(e) if e.contains("recursion limit exceeded")),
                "{err}"
            );
            Persister::<serde_json::Value>::flush(&mut log).unwrap();
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
