//! The lint registry: stable diagnostic codes, severities, and the
//! [`Diagnostic`] type every analysis pass emits.
//!
//! Codes are stable across releases — tooling may key suppressions or
//! dashboards on them — so codes are never renumbered or reused. Errors
//! (`SPEAR-Exxx`) mean the plan will misbehave or crash if executed;
//! warnings (`SPEAR-Wxxx`) mean the plan is executable but suspicious
//! (dead slots, wasted cache affinity, worst-case budget risk).

use std::fmt;

/// How severe a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The plan is executable but suspicious.
    Warning,
    /// The plan must not be executed.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A registered lint: a stable code plus its fixed severity and summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lint {
    /// Stable code, e.g. `"SPEAR-E001"`.
    pub code: &'static str,
    /// Fixed severity of every diagnostic carrying this code.
    pub severity: Severity,
    /// One-line description of what the lint detects.
    pub summary: &'static str,
}

/// Jump target points past the end of the plan.
pub const BAD_JUMP_TARGET: Lint = Lint {
    code: "SPEAR-E001",
    severity: Severity::Error,
    summary: "jump target is out of bounds",
};

/// A CHECK's else-target points past the end of the plan.
pub const CHECK_TARGET_ESCAPES: Lint = Lint {
    code: "SPEAR-E002",
    severity: Severity::Error,
    summary: "CHECK else-target escapes the plan",
};

/// The lowering placeholder (`usize::MAX`) escaped into a finished plan.
pub const PLACEHOLDER_LEAK: Lint = Lint {
    code: "SPEAR-E003",
    severity: Severity::Error,
    summary: "unpatched lowering placeholder target",
};

/// A prompt key is read on some path where no CREATE precedes it.
pub const UNDEFINED_PROMPT_KEY: Lint = Lint {
    code: "SPEAR-E004",
    severity: Severity::Error,
    summary: "prompt key is used before any CREATE",
};

/// Even the cheapest executable path through the plan exceeds its
/// deadline.
pub const BUDGET_INFEASIBLE: Lint = Lint {
    code: "SPEAR-E005",
    severity: Severity::Error,
    summary: "plan cannot meet its deadline",
};

/// A jump goes backwards, so slot-program termination is no longer
/// guaranteed by construction.
pub const BACKWARD_JUMP: Lint = Lint {
    code: "SPEAR-E006",
    severity: Severity::Error,
    summary: "backward jump breaks guaranteed termination",
};

/// REF names a refiner the runtime has not registered.
pub const UNKNOWN_REFINER: Lint = Lint {
    code: "SPEAR-E007",
    severity: Severity::Error,
    summary: "refiner is not registered",
};

/// An operator names a view the runtime's catalog does not hold.
pub const UNKNOWN_VIEW: Lint = Lint {
    code: "SPEAR-E008",
    severity: Severity::Error,
    summary: "view is not registered",
};

/// RET names a retriever source the runtime has not registered.
pub const UNKNOWN_RETRIEVER: Lint = Lint {
    code: "SPEAR-E009",
    severity: Severity::Error,
    summary: "retriever source is not registered",
};

/// DELEGATE names an agent the runtime has not registered.
pub const UNKNOWN_AGENT: Lint = Lint {
    code: "SPEAR-E010",
    severity: Severity::Error,
    summary: "agent is not registered",
};

/// The plan generates but the runtime has no LLM backend.
pub const NO_LLM: Lint = Lint {
    code: "SPEAR-E011",
    severity: Severity::Error,
    summary: "GEN requires an LLM backend",
};

/// A leaf slot carries a CHECK: its branches are not in the slot program,
/// so no executor could run them.
pub const CHECK_IN_LEAF: Lint = Lint {
    code: "SPEAR-E012",
    severity: Severity::Error,
    summary: "CHECK in a leaf slot has no branches to run",
};

/// A slot no execution can ever reach.
pub const UNREACHABLE_SLOT: Lint = Lint {
    code: "SPEAR-W001",
    severity: Severity::Warning,
    summary: "slot is unreachable",
};

/// Fused stages carry identities from different base plans, defeating
/// cache-affinity routing.
pub const AFFINITY_MISMATCH: Lint = Lint {
    code: "SPEAR-W002",
    severity: Severity::Warning,
    summary: "affinity keys diverge across fused stages",
};

/// The worst-case path exceeds the deadline (the plan may still finish
/// in time on cheaper paths).
pub const BUDGET_AT_RISK: Lint = Lint {
    code: "SPEAR-W003",
    severity: Severity::Warning,
    summary: "worst-case path may exceed the deadline",
};

/// A compiled `VmOp` is unreachable in the bytecode CFG — a branch cut off
/// by a statically-decided CHECK — even though the source slot looked live
/// at the IR level.
pub const VM_UNREACHABLE: Lint = Lint {
    code: "SPEAR-W004",
    severity: Severity::Warning,
    summary: "compiled VmOp is unreachable once static CHECKs are folded",
};

/// A CHECK branch can never be taken because its condition is statically
/// decided (e.g. `true` / `false` under family specialization); the live
/// branch always runs and the other side is dead weight.
pub const DEAD_CHECK_BRANCH: Lint = Lint {
    code: "SPEAR-W005",
    severity: Severity::Warning,
    summary: "CHECK branch is statically dead under specialization",
};

/// Every registered lint, in code order. Future passes add theirs here so
/// tooling can enumerate the full set.
pub const REGISTRY: &[Lint] = &[
    BAD_JUMP_TARGET,
    CHECK_TARGET_ESCAPES,
    PLACEHOLDER_LEAK,
    UNDEFINED_PROMPT_KEY,
    BUDGET_INFEASIBLE,
    BACKWARD_JUMP,
    UNKNOWN_REFINER,
    UNKNOWN_VIEW,
    UNKNOWN_RETRIEVER,
    UNKNOWN_AGENT,
    NO_LLM,
    CHECK_IN_LEAF,
    UNREACHABLE_SLOT,
    AFFINITY_MISMATCH,
    BUDGET_AT_RISK,
    VM_UNREACHABLE,
    DEAD_CHECK_BRANCH,
];

/// Look a lint up by its stable code.
#[must_use]
pub fn lint(code: &str) -> Option<&'static Lint> {
    REGISTRY.iter().find(|l| l.code == code)
}

/// One verifier finding, anchored to a plan slot where possible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable lint code (`SPEAR-Exxx` / `SPEAR-Wxxx`).
    pub code: &'static str,
    /// Severity (always the registered lint's severity).
    pub severity: Severity,
    /// Slot index the finding anchors to; `None` for whole-plan findings.
    pub slot: Option<usize>,
    /// `describe()` rendering of the anchored instruction (empty for
    /// whole-plan findings) — lets callers report "which operator" without
    /// holding the plan.
    pub op: String,
    /// Human-readable description of the finding.
    pub message: String,
}

impl Diagnostic {
    /// Build a diagnostic for `lint` anchored at `slot`.
    #[must_use]
    pub fn at(lint: &Lint, slot: usize, op: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            code: lint.code,
            severity: lint.severity,
            slot: Some(slot),
            op: op.into(),
            message: message.into(),
        }
    }

    /// Build a whole-plan diagnostic for `lint`.
    #[must_use]
    pub fn plan_level(lint: &Lint, message: impl Into<String>) -> Self {
        Self {
            code: lint.code,
            severity: lint.severity,
            slot: None,
            op: String::new(),
            message: message.into(),
        }
    }

    /// Whether this diagnostic blocks execution.
    #[must_use]
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.slot {
            Some(slot) => write!(
                f,
                "{} [{}] at slot {:04}: {}",
                self.code, self.severity, slot, self.message
            ),
            None => write!(f, "{} [{}]: {}", self.code, self.severity, self.message),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_codes_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for l in REGISTRY {
            assert!(seen.insert(l.code), "duplicate code {}", l.code);
            let expected = match l.severity {
                Severity::Error => "SPEAR-E",
                Severity::Warning => "SPEAR-W",
            };
            assert!(l.code.starts_with(expected), "{} severity prefix", l.code);
        }
    }

    #[test]
    fn lookup_by_code() {
        assert_eq!(lint("SPEAR-E001"), Some(&BAD_JUMP_TARGET));
        assert_eq!(lint("SPEAR-X999"), None);
    }

    #[test]
    fn display_carries_code_severity_and_slot() {
        let d = Diagnostic::at(&UNDEFINED_PROMPT_KEY, 3, "GEN[\"a\"]", "missing");
        assert_eq!(d.to_string(), "SPEAR-E004 [error] at slot 0003: missing");
        let p = Diagnostic::plan_level(&BUDGET_INFEASIBLE, "too slow");
        assert_eq!(p.to_string(), "SPEAR-E005 [error]: too slow");
    }
}
