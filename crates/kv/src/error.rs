//! Error types for the key-value substrate.

use std::fmt;

/// Convenience alias used throughout `spear-kv`.
pub type Result<T> = std::result::Result<T, KvError>;

/// Errors produced by the persistence log (the store itself cannot fail).
#[derive(Debug)]
pub enum KvError {
    /// An I/O error from the persistence log.
    Io(std::io::Error),
    /// A (de)serialization error from the persistence log.
    Serde(String),
    /// The persistence log contained a structurally invalid record.
    CorruptLog {
        /// 1-based line number of the bad record.
        line: usize,
        /// Human-readable description of the problem.
        reason: String,
    },
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::Io(e) => write!(f, "kv log i/o error: {e}"),
            KvError::Serde(e) => write!(f, "kv log serialization error: {e}"),
            KvError::CorruptLog { line, reason } => {
                write!(f, "corrupt kv log at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for KvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KvError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for KvError {
    fn from(e: std::io::Error) -> Self {
        KvError::Io(e)
    }
}

impl From<serde_json::Error> for KvError {
    fn from(e: serde_json::Error) -> Self {
        KvError::Serde(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = KvError::CorruptLog {
            line: 3,
            reason: "expected value".into(),
        };
        let s = e.to_string();
        assert!(s.contains("line 3") && s.contains("expected value"));
    }

    #[test]
    fn io_error_preserves_source() {
        use std::error::Error;
        let e = KvError::from(std::io::Error::other("boom"));
        assert!(e.source().is_some());
    }
}
