//! # spear-bench — the benchmark harness
//!
//! Regenerates every table and figure of the SPEAR paper's evaluation (§7)
//! plus five ablations, against the simulated substrate documented in
//! DESIGN.md. Binaries:
//!
//! | target | reproduces |
//! |---|---|
//! | `table3` | Table 3 — refinement strategy comparison |
//! | `table4` | Table 4 — fusion gain by type and selectivity |
//! | `figure1` | Figure 1 — fusion gain / accuracy drop across models |
//! | `ablation_cache` | prefix cache on/off for Table 3 |
//! | `ablation_planner` | cost-based refinement planning vs naive |
//! | `ablation_views` | view-guided refinement vs from-scratch prompts |
//! | `ablation_predictive` | predictive vs reactive refinement |
//! | `ablation_gen_fusion` | GEN fusion vs sequential calls |
//! | `analyze` | static-analysis gate over the golden plan [`corpus`] |
//! | `disasm` | the listing of every corpus plan, compiled and verified |
//!
//! All runs are deterministic (seeded corpus, seeded task model, virtual
//! clock); re-running a binary reproduces the numbers bit-for-bit. Host
//! time is measured by the stand-alone `benchmark/` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod corpus;
pub mod fusion_exp;
pub mod report;
pub mod table3;
pub mod workload;
