//! Regenerate **Table 3** of the SPEAR paper: comparison of prompt
//! refinement strategies (time, speedup, F1, F1 gain, cache hit rate).
//!
//! Usage: `cargo run -p spear-bench --bin table3 [-- --n 1000 --seed 140]`

use spear_bench::report::{args, f, Table};
use spear_bench::table3::{run, Table3Config};

fn main() {
    let [n, seed] = args([("--n", 1000), ("--seed", 140)]);
    let config = Table3Config {
        n_tweets: n as usize,
        seed,
        ..Table3Config::default()
    };
    eprintln!(
        "Table 3: refinement strategies — {} tweets, seed {}, model {} (simulated)",
        config.n_tweets, config.seed, config.profile.name
    );
    let rows = run(&config).expect("table3 run failed");

    let mut table = Table::new(&[
        "Strategy",
        "Time (s)",
        "Speedup (x)",
        "F1",
        "F1 Gain (%)",
        "Cache Hit (%)",
    ]);
    for r in &rows {
        table.row(vec![
            r.strategy.clone(),
            f(r.time_s, 2),
            f(r.speedup, 2),
            f(r.f1, 2),
            f(r.f1_gain_pct, 1),
            f(r.cache_hit_pct, 1),
        ]);
    }
    println!("{}", table.render());
    for r in &rows {
        println!("{}", serde_json::to_string(r).expect("serializable row"));
    }
}
