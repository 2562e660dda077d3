//! Print the listing of every golden-corpus plan, compiled and verified.
//!
//! Usage: `cargo run -p spear-bench --bin disasm` (or `just disasm`).
//!
//! Verifies each plan of [`spear_bench::corpus`] with the bytecode lints
//! on and prints its `spear_optimizer::listing`, which compiles the plan
//! down to `spear-core`'s bytecode: the slots with their spec operands and
//! static bounds, the leaf and check specs, the whole-program envelope and
//! the diagnostics — the quickest way to see what lowering actually did to
//! a plan. The output is byte-stable and checked in
//! as `results/disasm.txt`.

use spear_core::analysis::{BytecodePass, Verifier};
use spear_optimizer::listing;

fn main() {
    let verifier = Verifier::new().register_pass(Box::new(BytecodePass));
    for (title, plan) in spear_bench::corpus::plans() {
        let diagnostics = verifier.verify(&plan);
        println!("## {title}\n");
        println!("{}", listing(&plan, Some(&diagnostics)));
    }
}
