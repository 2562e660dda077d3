//! Regenerate **Table 4** of the SPEAR paper: performance gain by fusion
//! type and selectivity (Qwen2.5-7B-Instruct simulation).
//!
//! Usage: `cargo run -p spear-bench --bin table4 [-- --n 1000 --seed 140]`

use spear_bench::fusion_exp::{table4, TABLE4_SELECTIVITIES};
use spear_bench::report::{args, pct, Table};

fn main() {
    let [n, seed] = args([("--n", 1000), ("--seed", 140)]);
    let n = n as usize;
    eprintln!("Table 4: fusion gain by type and selectivity — {n} tweets/cell, seed {seed}");
    let cells = table4(n, seed).expect("table4 run failed");

    let mut headers = vec!["Fusion Type".to_string()];
    headers.extend(
        TABLE4_SELECTIVITIES
            .iter()
            .map(|s| format!("{:.0}%", s * 100.0)),
    );
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);

    for order in ["Map→Filter", "Filter→Map"] {
        let mut row = vec![order.to_string()];
        for s in TABLE4_SELECTIVITIES {
            let cell = cells
                .iter()
                .find(|c| c.order == order && (c.selectivity - s).abs() < 1e-9)
                .expect("cell exists");
            row.push(pct(cell.gain_pct, 2));
        }
        table.row(row);
    }
    println!("{}", table.render());
    for c in &cells {
        println!("{}", serde_json::to_string(c).expect("serializable cell"));
    }
}
