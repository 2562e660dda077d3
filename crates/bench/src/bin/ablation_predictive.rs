//! **Ablation D**: predictive refinement (paper §5) vs reactive
//! retry-on-low-confidence, on a corpus with many ambiguous items.
//!
//! Usage: `cargo run -p spear-bench --bin ablation_predictive [-- --n 1000]`

use spear_bench::ablations::ablation_predictive;
use spear_bench::report::{args, f, Table};

fn main() {
    let [n, seed] = args([("--n", 1000), ("--seed", 7)]);
    let n = n as usize;
    eprintln!("Ablation D: predictive vs reactive refinement ({n} items, 35% ambiguous)");
    let rows = ablation_predictive(seed, n).expect("predictive ablation failed");

    let mut table = Table::new(&["Policy", "LLM calls", "Time (s)", "Accuracy"]);
    for r in &rows {
        table.row(vec![
            r.policy.clone(),
            r.calls.to_string(),
            f(r.time_s, 1),
            f(r.accuracy, 3),
        ]);
    }
    println!("{}", table.render());
    for r in &rows {
        println!("{}", serde_json::to_string(r).expect("serializable row"));
    }
}
