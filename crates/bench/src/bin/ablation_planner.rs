//! **Ablation B**: cost-based refinement planning (paper §5) vs naive
//! all-refiners vs no refinement, under a 40-token budget.
//!
//! Usage: `cargo run -p spear-bench --bin ablation_planner [-- --seed 7]`

use spear_bench::ablations::ablation_planner;
use spear_bench::report::{args, f, Table};

fn main() {
    let [seed] = args([("--seed", 7)]);
    eprintln!("Ablation B: cost-based refinement planning (seed {seed})");
    let rows = ablation_planner(seed).expect("planner ablation failed");

    let mut table = Table::new(&["Policy", "Refiners applied", "Tokens added", "Confidence"]);
    for r in &rows {
        table.row(vec![
            r.policy.clone(),
            if r.refiners.is_empty() {
                "—".to_string()
            } else {
                r.refiners.join(" → ")
            },
            r.tokens_added.to_string(),
            f(r.confidence, 3),
        ]);
    }
    println!("{}", table.render());
    for r in &rows {
        println!("{}", serde_json::to_string(r).expect("serializable row"));
    }
}
