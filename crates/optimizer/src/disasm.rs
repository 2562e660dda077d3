//! Disassembler for compiled bytecode programs.
//!
//! [`disasm`] renders a [`spear_core::Program`] — the output of
//! `spear_core::vm::compile` — as a stable, human-readable listing:
//! the instruction stream first (fused superinstructions spelled with a
//! `+`, branch targets resolved to slot numbers, pool operands by index)
//! and then the constant pool itself (interned strings, leaf specs, check
//! specs). The format is pinned byte-exact by the `disasm_golden`
//! integration tests, so it doubles as the specification of the bytecode
//! encoding: any change to opcode layout, fusion rules, or pool interning
//! shows up as a golden-test diff.
//!
//! The listing shares `PlanWriter` with the EXPLAIN renderers in
//! [`crate::explain`](mod@crate::explain), so slot lines and indentation
//! match `explain_lowered`'s view of the same plan.

use spear_core::analysis::{analyze, Interval, ResourceModel};
use spear_core::vm::{Program, VmOp};

use crate::explain::PlanWriter;

/// Render `program` as a deterministic disassembly listing.
#[must_use]
pub fn disasm(program: &Program) -> String {
    let pool = program.pool();
    let mut w = PlanWriter::new();
    w.line(format_args!(
        "DISASSEMBLY OF PROGRAM {:?}  ({} source ops, {} instructions)",
        program.name(),
        program.source_size(),
        program.code().len(),
    ));
    for (pc, instr) in program.code().iter().enumerate() {
        match *instr {
            VmOp::Leaf { leaf } => {
                w.slot(
                    pc,
                    format_args!(
                        "LEAF           l{leaf:02}                  ; {}",
                        pool.str(pool.leaves()[leaf as usize].describe_id())
                    ),
                );
            }
            VmOp::Check { check, on_false } => {
                w.slot(
                    pc,
                    format_args!(
                        "CHECK          c{check:02}  else -> {on_false:04}  ; {}",
                        pool.str(pool.checks()[check as usize].label_id())
                    ),
                );
            }
            VmOp::Jump { target } => {
                w.slot(pc, format_args!("JUMP           -> {target:04}"));
            }
            VmOp::GenCheck {
                leaf,
                check,
                on_false,
            } => {
                w.slot(
                    pc,
                    format_args!(
                        "GEN+CHECK      l{leaf:02} c{check:02}  else -> {on_false:04}  ; {} ; {}",
                        pool.str(pool.leaves()[leaf as usize].describe_id()),
                        pool.str(pool.checks()[check as usize].label_id())
                    ),
                );
            }
            VmOp::DelegateJump { leaf, target } => {
                w.slot(
                    pc,
                    format_args!(
                        "DELEGATE+JUMP  l{leaf:02}  -> {target:04}     ; {}",
                        pool.str(pool.leaves()[leaf as usize].describe_id())
                    ),
                );
            }
            VmOp::RetMerge { first, second } => {
                w.slot(
                    pc,
                    format_args!(
                        "RET+MERGE      l{first:02} l{second:02}              ; {} ; {}",
                        pool.str(pool.leaves()[first as usize].describe_id()),
                        pool.str(pool.leaves()[second as usize].describe_id())
                    ),
                );
            }
        }
    }
    w.line(format_args!(
        "CONST POOL  ({} strings, {} leaves, {} checks)",
        pool.strings().len(),
        pool.leaves().len(),
        pool.checks().len(),
    ));
    w.detail(0, format_args!("strings:"));
    for (id, s) in pool.strings().iter().enumerate() {
        w.detail(1, format_args!("s{id:02}  {s:?}"));
    }
    w.detail(0, format_args!("leaves:"));
    for (id, leaf) in pool.leaves().iter().enumerate() {
        w.detail(
            1,
            format_args!(
                "l{id:02}  describe=s{:02}  trigger={}  frames={}  template={}",
                leaf.describe_id(),
                leaf.trigger_id()
                    .map_or_else(|| "-".to_owned(), |t| format!("s{t:02}")),
                frames(leaf.frame_ids()),
                if leaf.has_template() { "parsed" } else { "-" },
            ),
        );
    }
    w.detail(0, format_args!("checks:"));
    for (id, check) in pool.checks().iter().enumerate() {
        w.detail(
            1,
            format_args!(
                "c{id:02}  label=s{:02}  frames={}",
                check.label_id(),
                frames(check.frame_ids()),
            ),
        );
    }
    let bounds = analyze(program, &ResourceModel::default());
    w.line(format_args!(
        "STATIC BOUNDS  tokens={} llm_calls={} latency>={}us unwind<={}{}",
        bounds.tokens,
        bounds.llm_calls,
        bounds.latency_lo_us,
        bounds.unwind_depth,
        if bounds.terminates {
            ""
        } else {
            "  (may not terminate)"
        },
    ));
    for (pc, per_op) in bounds.per_op.iter().enumerate() {
        match per_op {
            Some(b) if b.tokens != Interval::exact(0) || b.llm_calls != Interval::exact(0) => {
                w.detail(
                    1,
                    format_args!(
                        "{pc:04}  tokens={} llm_calls={} latency>={}us",
                        b.tokens, b.llm_calls, b.latency_lo_us
                    ),
                );
            }
            Some(_) => {}
            None => {
                w.detail(1, format_args!("{pc:04}  unreachable"));
            }
        }
    }
    if let Some(prefix) = program.prefix() {
        w.line(format_args!("SPECIALIZED PREFIX  {prefix:?}"));
    }
    w.finish()
}

/// `[s00, s03]`-style rendering of a spec's unwind-frame indices, shared
/// by the leaf and check pool sections.
fn frames(ids: &[u32]) -> String {
    let body = ids
        .iter()
        .map(|id| format!("s{id:02}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!("[{body}]")
}

#[cfg(test)]
mod tests {
    use super::*;
    use spear_core::prelude::*;

    #[test]
    fn listing_covers_every_instruction_and_pool_entry() {
        let pipeline = Pipeline::builder("d")
            .create_text("p", "Q: {{q}}", RefinementMode::Manual)
            .gen("a", "p")
            .check_else(
                Cond::low_confidence(0.5),
                |t| t.gen("b", "p"),
                |e| e.gen("c", "p"),
            )
            .build();
        let plan = lower(&pipeline).expect("lowers");
        let program = spear_core::compile(&plan).expect("verified plan compiles");
        let text = disasm(&program);
        assert!(text.starts_with("DISASSEMBLY OF PROGRAM \"d\""));
        // Every slot is listed exactly once.
        for pc in 0..program.code().len() {
            assert!(text.contains(&format!("  {pc:04}  ")), "missing slot {pc}");
        }
        assert!(text.contains("CONST POOL"));
        assert!(text.contains("strings:"));
        assert!(text.contains("leaves:"));
        assert!(text.contains("checks:"));
    }

    #[test]
    fn specialized_prefix_is_rendered_when_present() {
        let pipeline = Pipeline::builder("s")
            .create_text("p", "fixed: {{q}}", RefinementMode::Manual)
            .gen("a", "p")
            .build();
        let plan = lower(&pipeline).expect("lowers");
        let mut program = spear_core::compile(&plan).expect("verified plan compiles");
        assert!(!disasm(&program).contains("SPECIALIZED PREFIX"));
        program.set_prefix(std::sync::Arc::from("fixed: "));
        assert!(disasm(&program).contains("SPECIALIZED PREFIX  \"fixed: \""));
    }
}
