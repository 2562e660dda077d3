//! The listing and the verifier agree on every slot.
//!
//! Over the golden corpus, the serve load generator's plan families and
//! the SPEAR-DL kitchen-sink program, the full listing of each plan (its
//! program's sections and its diagnostics) lists every pc
//! exactly once, in order, and every diagnostic anchored to a slot quotes
//! that slot with the same instruction text as the listing's line for it.

use spear_core::analysis::{BytecodePass, Diagnostic, Verifier};
use spear_core::plan::lower;
use spear_core::vm::{Program, VmOp};
use spear_optimizer::listing;
use spear_serve::loadgen::{generate, LoadGenConfig};

/// The plans the property runs over, each with a name for messages.
fn plans() -> Vec<(String, Program)> {
    let mut plans: Vec<(String, Program)> = spear_bench::corpus::plans()
        .into_iter()
        .map(|(title, plan)| (title.to_owned(), plan))
        .collect();
    let families = generate(&LoadGenConfig {
        requests: 8,
        families: 4,
        gen_calls: 3,
        ..LoadGenConfig::default()
    });
    for (i, plan) in families.plans.iter().enumerate() {
        plans.push((format!("loadgen family {i}"), Program::clone(plan)));
    }
    let sink = spear_dl::compile(include_str!("../../dl/tests/kitchen_sink.dl"))
        .expect("the kitchen sink compiles");
    for pipeline in &sink.pipelines {
        let plan = lower(pipeline).expect("DL pipelines lower");
        plans.push((format!("kitchen_sink.dl {}", pipeline.name), plan));
    }
    plans
}

/// `(pc, rest of line)` for a `  NNNN  <rest>` slot line.
fn slot_line(line: &str) -> Option<(usize, &str)> {
    let rest = line.strip_prefix("  ")?;
    let (pc, rest) = rest.split_at_checked(4)?;
    Some((pc.parse().ok()?, rest.strip_prefix("  ")?))
}

#[test]
fn the_listing_and_the_verifier_agree_on_every_slot() {
    let verifier = Verifier::new().register_pass(Box::new(BytecodePass));
    let mut quoted = 0;
    for (name, plan) in plans() {
        let diagnostics = verifier.verify(&plan);
        let text = listing(&plan, Some(&diagnostics));
        let (slots, rest) = text.split_once("SPECS").expect("a listing has specs");
        let (_, verdict) = rest
            .split_once("STATIC BOUNDS")
            .expect("a listing has bounds");

        // Every pc exactly once, in order; the text after the spec
        // operand is the instruction, then the trigger when there is one.
        let listed: Vec<(usize, &str)> = slots.lines().filter_map(slot_line).collect();
        let pcs: Vec<usize> = listed.iter().map(|&(pc, _)| pc).collect();
        assert_eq!(pcs, (0..plan.code().len()).collect::<Vec<_>>(), "{name}");
        let instructions: Vec<&str> = listed
            .iter()
            .map(|&(pc, line)| {
                let operand = match plan.code()[pc] {
                    VmOp::Leaf { leaf } => format!("l{leaf:02}  "),
                    VmOp::Check { check, .. } => format!("c{check:02}  "),
                    VmOp::Jump { .. } => "     ".to_owned(),
                };
                let line = line
                    .strip_prefix(operand.as_str())
                    .unwrap_or_else(|| panic!("{name}: slot {pc} operand in {line:?}"));
                line.split_once("  (when ").map_or(line, |(text, _)| text)
            })
            .collect();

        // Each slot-anchored diagnostic quotes its slot's instruction.
        let anchored: Vec<&Diagnostic> = diagnostics.iter().filter(|d| d.slot.is_some()).collect();
        let quotes: Vec<(usize, &str)> = verdict.lines().filter_map(slot_line).collect();
        assert_eq!(quotes.len(), anchored.len(), "{name}: {verdict}");
        for (d, &(pc, quote)) in anchored.iter().zip(&quotes) {
            assert_eq!(Some(pc), d.slot, "{name}");
            assert_eq!(quote, instructions[pc], "{name}: {} at slot {pc}", d.code);
            quoted += 1;
        }
    }
    assert!(
        quoted >= 4,
        "the corpus exercises slot-anchored diagnostics"
    );
}
