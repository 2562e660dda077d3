//! Hand-written code for tests: slots assembled into a [`Program`] through
//! the lowering's own emitter, *without* the structural gate, so tests can
//! hold the malformed shapes `lower` never releases and feed them to the
//! gate, the analyses and the VM.

use crate::condition::Cond;
use crate::ops::Op;
use crate::vm::{Program, VmOp};

use super::Emitter;

/// One hand-written slot. Targets are slot indices; the exit is the slot
/// count, and [`super::PLACEHOLDER`] is the unpatched lowering target.
pub(crate) enum Slot {
    /// A leaf running `op`, outside any branch.
    Leaf(Op),
    /// A CHECK of `cond` jumping to the target when it fails.
    Check(Cond, u32),
    /// A jump to the target.
    Jump(u32),
}

/// Assemble `slots` into an ungated program named `name`.
pub(crate) fn assemble(name: &str, slots: Vec<Slot>) -> Program {
    let size = slots.len() as u64;
    let mut emitter = Emitter::default();
    for slot in slots {
        match slot {
            Slot::Leaf(op) => emitter.leaf(&op, None),
            Slot::Check(cond, on_false) => {
                let check = emitter.check_spec(&cond, None, false);
                emitter.code.push(VmOp::Check { check, on_false });
            }
            Slot::Jump(target) => emitter.code.push(VmOp::Jump { target }),
        }
    }
    emitter.finish(name.to_owned(), size)
}

/// The gate [`super::lower`] applies to what it emits.
pub(crate) fn release(program: Program) -> crate::error::Result<Program> {
    super::release(program)
}

/// A `REF[CREATE, set_text]` of `target`: the cheapest well-formed leaf.
pub(crate) fn create(target: &str) -> Op {
    Op::Ref {
        target: target.into(),
        action: crate::history::RefAction::Create,
        refiner: "set_text".into(),
        args: crate::value::Value::from("base"),
        mode: crate::history::RefinementMode::Manual,
    }
}
