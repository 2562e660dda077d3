//! Static-analysis gate over the golden plan corpus.
//!
//! Usage: `cargo run -p spear-bench --bin analyze` (or `just analyze`).
//!
//! For every plan of the golden corpus ([`spear_bench::corpus`]) — the
//! paper's confidence-retry pipeline, the three physical shapes of the
//! sentiment workload, and a statically-gated exemplar that exercises the
//! W004/W005 lints — this binary runs the full derived-facts pipeline end
//! to end:
//!
//! 1. verify with the default lints *plus* the bytecode
//!    abstract-interpreter pass ([`spear_core::analysis::BytecodePass`])
//!    and render every diagnostic;
//! 2. run the verified optimizer and, when it fires, re-validate the
//!    optimized program bisimulates the original
//!    ([`spear_core::analysis::validate_optimized`]);
//! 3. print the abstract interpreter's static cost envelope.
//!
//! Exits non-zero when any plan carries an **error**-class diagnostic or
//! any translation-validation obligation fails — this is the `just
//! analyze` step `scripts/check.sh` gates on.

use spear_core::analysis::{analyze, validate_optimized, ResourceModel, Severity, Verifier};
use spear_core::prelude::*;

/// Analyze one plan end to end; returns `true` when it passes the gate.
fn analyze_plan(title: &str, program: &Program) -> bool {
    println!("## {title}\n");
    let mut ok = true;

    let verifier = Verifier::new().register_pass(Box::new(spear_core::analysis::BytecodePass));
    let diags = verifier.verify(program);
    if diags.is_empty() {
        println!("verifier: clean ({} slots checked)", program.code().len());
    } else {
        print!(
            "{}",
            spear_core::analysis::render_diagnostics(program, &diags)
        );
        if diags.iter().any(|d| d.severity == Severity::Error) {
            println!("GATE: error-class diagnostics");
            ok = false;
        }
    }

    match spear_core::optimize(program) {
        Some(optimized) => match validate_optimized(program, &optimized) {
            Ok(()) => println!(
                "optimizer: {} -> {} instructions (bisimulation validated)",
                program.code().len(),
                optimized.code().len()
            ),
            Err(failures) => {
                for f in &failures {
                    println!("GATE: {f}");
                }
                ok = false;
            }
        },
        None => println!("optimizer: no profitable rewrite"),
    }
    let bounds = analyze(program, &ResourceModel::default());
    println!("static bounds: {bounds}");
    println!();
    ok
}

fn main() {
    let corpus = spear_bench::corpus::plans();
    let mut ok = true;
    for (title, plan) in &corpus {
        ok &= analyze_plan(title, plan);
    }
    if !ok {
        std::process::exit(1);
    }
    println!("analyze: {} plans clean", corpus.len());
}
