//! SPEAR-DL errors with source positions.

use std::fmt;

use crate::lexer::Pos;

/// Convenience alias.
pub type Result<T> = std::result::Result<T, DlError>;

/// A lexing or parsing error.
#[derive(Debug, Clone, PartialEq)]
pub struct DlError {
    /// Which phase produced the error.
    pub phase: Phase,
    /// Source position.
    pub pos: Pos,
    /// Human-readable message.
    pub message: String,
}

/// Processing phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Tokenization.
    Lex,
    /// Parsing (which also builds the core views and pipelines).
    Parse,
}

impl DlError {
    /// A lexer error.
    #[must_use]
    pub fn lex(pos: Pos, message: impl Into<String>) -> Self {
        Self {
            phase: Phase::Lex,
            pos,
            message: message.into(),
        }
    }

    /// A parser error.
    #[must_use]
    pub fn parse(pos: Pos, message: impl Into<String>) -> Self {
        Self {
            phase: Phase::Parse,
            pos,
            message: message.into(),
        }
    }
}

impl fmt::Display for DlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let phase = match self.phase {
            Phase::Lex => "lex",
            Phase::Parse => "parse",
        };
        write!(
            f,
            "spear-dl {phase} error at {}: {}",
            self.pos, self.message
        )
    }
}

impl std::error::Error for DlError {}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn display_has_phase_and_position() {
        let e = DlError::parse(Pos { line: 3, col: 7 }, "expected ';'");
        let s = e.to_string();
        assert!(s.contains("parse"));
        assert!(s.contains("3:7"));
        assert!(s.contains("expected ';'"));
    }
}
